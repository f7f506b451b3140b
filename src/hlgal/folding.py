"""Positive folding of one-skeleton galleries.

A junction is positively folded exactly when its junction factor (from
the residue module) is non-zero: the factor sums over the local
positively folded chamber galleries there, so it vanishes exactly when
there are none.  The global test adds the existence of a
Bruhat-weakly-decreasing defining chain of chamber classes containing
the successive edges; its forward pass is one gallery.chain_step per
edge.  is_positively_folded tests both halves, gallery by gallery: it is
the tests' reference for the walks and for the verify module's pass,
which folds both halves edge by edge, and its only library caller is
is_LS.  The walks themselves (enumerate_pf runs the gallery walk with
folded=True, and the LS character walk of the hlengine module) cut an
edge by chain_step alone and compute no junction test: that no edge the
chain keeps has a zero junction factor is checked for every gallery type
made of fundamental blocks at rank <= 4, by exhaustion of a finite state
set (check_chain_cut in the gallery tests); no proof.
"""

from __future__ import annotations

from functools import reduce

from .gallery import Gallery, chain_step, crossing_counts, enumerate_of_type, type_of_lambda, walk_plan
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
    """Forward pass of the defining chain, one chain_step per edge from
    1 << rs.w0 (every class lies below w0), or None once it dies."""
    reachable = []
    mask = 1 << rs.w0
    for d in dirs:
        mask = chain_step(rs, mask, d)
        if not mask:
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


def reaches_degree_bound(twice_bound: int, plus: int) -> bool:
    """``plus`` positive crossings equal the degree bound <lambda+mu, rho>
    of a positively folded gallery of type weight lambda and target mu,
    given as twice_bound = height(lambda + mu) = height(lambda) + height(mu).
    No such gallery exceeds the bound, so AssertionError if one would."""
    if 2 * plus > twice_bound:
        raise AssertionError("positive crossings exceed the degree bound")
    return 2 * plus == twice_bound


def has_maximal_crossings(rs: RootSystem, g: Gallery) -> bool:
    """Positive-crossing count equal to the degree bound <lambda+mu, rho>;
    the LS test for a gallery already known to be positively folded."""
    twice_bound = rs.height(reduce(vadd, walk_plan(rs, g.gtype)[0], g.target))  # lambda + mu
    return reaches_degree_bound(twice_bound, crossing_counts(rs, g)[0])


def is_LS(rs: RootSystem, g: Gallery) -> bool:
    """Positively folded with the maximal positive-crossing count."""
    return is_positively_folded(rs, g) and has_maximal_crossings(rs, g)


def enumerate_pf(rs: RootSystem, lam: Vec, mu: Vec) -> tuple:
    """All positively folded galleries of the standard type with target mu,
    in the walk's depth-first order: the galleries of
    enumerate_of_type(..., mu) that is_positively_folded accepts, walked
    with folded=True so that unfolded prefixes are cut, not built.  A mu
    that passes the dominance check is kept in ``rs.dominant_weights`` and
    not checked again; ValueError, storing nothing, for one that fails."""
    gtype = type_of_lambda(rs, lam)  # rejects a lambda that is not a dominant weight
    if mu not in rs.dominant_weights:
        if not rs.is_dominant_weight(mu):
            raise ValueError("mu must be a dominant weight")
        rs.dominant_weights.add(mu)
    return tuple(enumerate_of_type(rs, gtype, mu, folded=True))
