"""Root systems by family and rank, through the library's per-type cache,
the acceptance suite's types, and brute-force references for W and for a
ReflectionGroup.

The library builds W and its Bruhat order on index tables;
signed_perm_build is the reference for that build, on signed permutations
multiplied one product at a time.  A group keeps only its walls; the
references below build its elements by closure under its simple
reflections and count lengths as inversions, and never call the group's
descent (closest_chamber, reduced_word)."""

from functools import lru_cache

from hlgal.rootdata import RootSystemSpec, _closure, build_root_system, pairing, sp_inv, sp_mul

ACCEPTANCE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("B", 3), ("C", 3)]


def root_system(family, rank):
    return build_root_system(RootSystemSpec(family, rank))


def signed_perm_build(rs):
    """W and its Bruhat order from rs's roots alone, as rs's build must
    leave them: each field of that build by name.

    W is the closure of the identity under left multiplication by the
    simple reflections, each element's length the fewest steps that reach
    it, sorted by (length, signed permutation).  The Bruhat masks come
    from below[w] = {w} | below[t * w] over the reflections t with
    l(t * w) = l(w) - 1, one sp_mul per reflection and element."""
    gens = [rs.reflection_perm(a) for a in rs.simple_roots]
    found = _closure(tuple((j, 1) for j in range(rs.dim)), gens, sp_mul)
    elements = tuple(sorted(found, key=lambda w: (found[w], w)))
    index = {w: i for i, w in enumerate(elements)}
    length = tuple(found[w] for w in elements)
    reflections = tuple(index[rs.reflection_perm(a)] for a in rs.pos_roots)
    below = []
    for i, w in enumerate(elements):
        mask = 1 << i
        for t in reflections:
            v = index[sp_mul(elements[t], w)]
            if length[v] == length[i] - 1:
                mask |= below[v]
        below.append(mask)
    return {
        "elements": elements,
        "index": index,
        "length": length,
        "inverse": tuple(index[sp_inv(w)] for w in elements),
        "simple_reflections": tuple(index[g] for g in gens),
        "reflections": reflections,
        "w0": max(range(len(elements)), key=length.__getitem__),
        "below_mask": tuple(below),
    }


@lru_cache(maxsize=None)
def group_length(group, w):
    """The group's positive functionals that w sends outside them."""
    pos = set(group.pos_functionals)
    return sum(1 for c in group.pos_functionals if group.rs.act(w, c) not in pos)


@lru_cache(maxsize=None)
def group_elements(group):
    """Every element of the group, sorted by (length, index)."""
    elements = _closure(0, group.simple_reflections, group.rs.mul)
    return tuple(sorted(elements, key=lambda w: (group_length(group, w), w)))


def left_descents(group, w):
    rs = group.rs
    return [
        k
        for k, s in enumerate(group.simple_reflections)
        if group_length(group, rs.mul(s, w)) < group_length(group, w)
    ]


@lru_cache(maxsize=None)
def all_reduced_words(group, w):
    """Every reduced word of w in the group's simple letters, sorted."""
    if group_length(group, w) == 0:
        return ((),)
    words = []
    for k in left_descents(group, w):
        rest = group.rs.mul(group.simple_reflections[k], w)
        words += [(k,) + tail for tail in all_reduced_words(group, rest)]
    return tuple(sorted(words))


def in_chamber_closure(group, u, d):
    """d lies in the closed chamber u * base: u^-1 d pairs <= 0 with every simple."""
    x = group.rs.act(group.rs.inverse[u], d)
    return all(pairing(x, c) <= 0 for c in group.simples)


def scan_closest(group, d):
    """The first element in length order whose closed chamber holds d, with
    its least reduced word."""
    u = next(u for u in group_elements(group) if in_chamber_closure(group, u, d))
    return u, min(all_reduced_words(group, u))
