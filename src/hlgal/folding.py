"""Positive folding of one-skeleton galleries.

A junction is positively folded exactly when its junction factor (from
the residue module) is non-zero: the factor sums over the local
positively folded chamber galleries there, so it vanishes exactly when
there are none.  The global test adds the existence of a
Bruhat-weakly-decreasing defining chain of chamber classes containing
the successive edges.
"""

from __future__ import annotations

from .apartment import expected_germ
from .gallery import Gallery, crossing_counts, enumerate_of_type, type_of_lambda
from .residue import junction_factor
from .rootdata import RootSystem, Vec, vadd, vneg


def locally_positively_folded(rs: RootSystem, g: Gallery) -> bool:
    """Every junction has a non-zero junction factor: some local chamber
    gallery at it is positively folded."""
    dirs = g.directions()
    for j in range(1, g.num_edges()):
        if junction_factor(rs, g.vertices[j], vneg(dirs[j - 1]), dirs[j]).is_zero():
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

    The witness walks the forward pass backwards taking a longest choice,
    ties broken by the lexicographically least reduced word.  A longest
    element of a set is Bruhat-maximal in it, since u > w forces
    l(u) > l(w).  Existence, not the particular witness, is the
    mathematical content.
    """
    reachable = _reachable_masks(rs, g.directions())
    if reachable is None:
        return None
    if not reachable:
        return ()

    def pick_max(mask):
        return min(_bits(mask), key=lambda w: (-rs.length[w], rs.weyl.reduced_word(w)))

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
    """Sum of the reference germs of a gallery type: the block fundamental
    weights."""
    acc = tuple(0 for _ in range(rs.dim))
    for t in gtype:
        acc = vadd(acc, expected_germ(rs, t))
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
