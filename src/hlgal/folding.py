"""Minimality and positive folding of one-skeleton galleries.

The two-step test works in the residue at the junction vertex: the
outgoing germ must be reachable, inside its type orbit, from a germ that
forms a minimal pair with the incoming one, by reflections in local walls
that move the germ away from the antidominant cone.  The global test adds
the existence of a Bruhat-weakly-decreasing defining chain of chamber
classes containing the successive edges.
"""

from __future__ import annotations

from .apartment import LocalRootSystem, local_data
from .gallery import Gallery, crossing_counts, enumerate_of_type, type_of_lambda
from .rootdata import RootSystem, Vec, is_zero, pairing, vadd, vneg


def is_minimal_pair(rs: RootSystem, d_e: Vec, d_f: Vec) -> bool:
    """Two germs at a common vertex lying in opposite sectors: d_f lies in
    w(C) exactly when -d_f lies in w w0(C), the opposite of w(C)."""
    if is_zero(d_e) or is_zero(d_f):
        raise ValueError("zero direction")
    return bool(rs.chamber_class_mask(d_e) & rs.chamber_class_mask(vneg(d_f)))


def _two_step_pf(rs: RootSystem, local: LocalRootSystem, d_in: Vec, d_out: Vec) -> bool:
    reachable = set()
    frontier = []
    for f0 in local.orbit(d_out):
        if is_minimal_pair(rs, d_in, f0):
            reachable.add(f0)
            frontier.append(f0)
    # positive folds move the germ off the antidominant side of a local wall
    while frontier:
        nxt = []
        for d in frontier:
            for c, refl in zip(local.pos_functionals, local.reflection_indices):
                if pairing(d, c) < 0:
                    image = rs.act(refl, d)
                    if image not in reachable:
                        reachable.add(image)
                        nxt.append(image)
        frontier = nxt
    return d_out in reachable


def two_step_positively_folded(rs: RootSystem, d_in: Vec, vertex: Vec, d_out: Vec) -> bool:
    """Positive-folding test for a junction (E ⊃ V ⊂ F), given the germs at
    V: the incoming d_in = V_prev - V and the outgoing d_out = V_next - V."""
    local = local_data(rs, vertex)
    hit = local.two_step.get((d_in, d_out))
    if hit is None:
        hit = _two_step_pf(rs, local, d_in, d_out)
        local.two_step[(d_in, d_out)] = hit
    return hit


def locally_positively_folded(rs: RootSystem, g: Gallery) -> bool:
    dirs = g.directions()
    for j in range(1, g.num_edges()):
        if not two_step_positively_folded(rs, vneg(dirs[j - 1]), g.vertices[j], dirs[j]):
            return False
    return True


def _bits(mask: int) -> list:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return out


def _reachable_masks(rs: RootSystem, dirs):
    """Forward pass of the defining chain, or None once it dies.

    reachable_k is the set (as a bit mask) of chamber classes containing
    edge k that lie Bruhat-below something reachable at k-1.
    """
    reachable = []
    for d in dirs:
        mask = rs.chamber_class_mask(d)
        if reachable:
            mask &= rs.below_closure_mask(reachable[-1])
            if mask == 0:
                return None
        reachable.append(mask)
    return reachable


def defining_chain(rs: RootSystem, g: Gallery):
    """A Bruhat-weakly-decreasing witness chain (as element indices), or None.

    The witness walks the forward pass backwards taking the Bruhat-maximal
    choice, ties broken by shortest lexicographic reduced word; existence,
    not the particular witness, is the mathematical content.
    """
    reachable = _reachable_masks(rs, g.directions())
    if reachable is None:
        return None
    if not reachable:
        return ()

    def pick_max(mask):
        cand = _bits(mask)
        maximal = [w for w in cand if not any(u != w and rs.bruhat_leq(w, u) for u in cand)]
        maximal.sort(key=lambda w: (-rs.length[w], rs.reduced_word(w)))
        return maximal[0]

    chain = [pick_max(reachable[-1])]
    for k in range(len(reachable) - 2, -1, -1):
        allowed = 0
        for w in _bits(reachable[k]):
            if rs.bruhat_leq(chain[0], w):
                allowed |= 1 << w
        chain.insert(0, pick_max(allowed))
    return tuple(chain)


def is_positively_folded(rs: RootSystem, g: Gallery) -> bool:
    """Folded positively at every junction, with a defining chain.

    Both passes read the gallery's directions, built once per gallery."""
    return locally_positively_folded(rs, g) and _reachable_masks(rs, g.directions()) is not None


def type_weight(rs: RootSystem, gtype) -> Vec:
    """Sum of the block fundamental weights of a gallery type."""
    acc = tuple(0 for _ in range(rs.dim))
    for t in gtype:
        if t.segment in ("whole", "first"):
            acc = vadd(acc, rs.fundamental_weights[t.index - 1])
    return acc


def has_maximal_crossings(rs: RootSystem, g: Gallery) -> bool:
    """Positive-crossing count equal to the degree bound <lambda+mu, rho>;
    the LS test for a gallery already known to be positively folded."""
    twice_bound = rs.height(vadd(type_weight(rs, g.gtype), g.target))
    twice_plus = 2 * crossing_counts(rs, g)[0]
    if twice_plus > twice_bound:
        raise AssertionError("positive crossings exceed the degree bound")
    return twice_plus == twice_bound


def is_LS(rs: RootSystem, g: Gallery) -> bool:
    """Positively folded with the maximal positive-crossing count."""
    return is_positively_folded(rs, g) and has_maximal_crossings(rs, g)


def enumerate_pf(rs: RootSystem, lam: Vec, mu: Vec) -> tuple:
    """All positively folded galleries of the standard type with target mu."""
    if not rs.is_dominant_weight(lam) or not rs.is_dominant_weight(mu):
        raise ValueError("lambda and mu must be dominant weights")
    galleries = enumerate_of_type(rs, type_of_lambda(rs, lam), mu)
    return tuple(g for g in galleries if is_positively_folded(rs, g))
