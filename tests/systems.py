"""Root systems by family and rank, through the library's per-type cache,
and brute-force references for a ReflectionGroup.

A group keeps only its walls; the references below build its elements by
closure under its simple reflections and count lengths as inversions, and
never call the group's descent (closest_chamber, reduced_word)."""

from functools import lru_cache

from hlgal.rootdata import RootSystemSpec, _closure, build_root_system, pairing


def root_system(family, rank):
    return build_root_system(RootSystemSpec(family, rank))


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
