"""Local chamber-gallery combinatorics at a junction.

Chambers of the residue at a vertex are indexed by the local Weyl group;
the base chamber is the one whose interior contains the generic
antidominant direction.  A fold/cross word is read over a fixed reduced
word of the closest chamber containing the outgoing germ.  All positivity
and crossing statistics are decided by evaluating wall functionals at
generic interior points, which keeps the computation free of root-sign
conventions:

* a fold at a wall is admissible when the wall separates the reference
  sector's local chamber from the current chamber;
* a crossing counts toward t when the current chamber and the sector sit
  on the same side of the crossed wall (the step moves away from it).
"""

from __future__ import annotations

from dataclasses import dataclass

from .apartment import LocalRootSystem, local_data
from .folding import is_minimal_pair
from .qpoly import QPoly
from .rootdata import RootSystem, Vec, pairing, vneg


@dataclass(frozen=True)
class ChamberGallery:
    """A fold/cross word over a reduced decomposition in the local group."""

    word: tuple  # letters: indices into the local simple system
    choices: tuple  # 'C' (cross) or 'F' (fold) per letter
    t: int  # crossings away from the sector
    r: int  # folds


def closest_chamber_word(rs: RootSystem, vertex: Vec, face_direction: Vec):
    """Minimal local element whose closed chamber contains the germ, with
    its lexicographically least local reduced word."""
    local = local_data(rs, vertex)
    return _closest_chamber_word_local(rs, local, face_direction)


def _closest_chamber_word_local(rs: RootSystem, local: LocalRootSystem, d: Vec):
    hit = local.closest.get(d)
    if hit is None:
        # elements are sorted by length, so the first chamber found is closest
        best = next((u for u in local.elements if local.in_chamber_closure(u, d)), None)
        if best is None:
            raise ValueError("direction is not a germ at this vertex")
        hit = (best, local.reduced_word(best))
        local.closest[d] = hit
    return hit


def valid_sector_classes(rs: RootSystem, vertex: Vec, d_in: Vec, d_out: Vec) -> tuple:
    """Chamber classes w whose sector contains the incoming germ and whose
    opposite contains a germ of the outgoing type."""
    opposite = 0  # w w0(C) holds f exactly when w(C) holds -f
    for f in local_data(rs, vertex).orbit(d_out):
        opposite |= rs.chamber_class_mask(vneg(f))
    mask = rs.chamber_class_mask(d_in) & opposite
    out = [w for w in range(rs.order()) if mask >> w & 1]
    return tuple(sorted(out, key=lambda w: (rs.length[w], rs.reduced_word(w))))


def choose_sector(rs: RootSystem, vertex: Vec, d_in: Vec, d_out: Vec) -> int:
    """Deterministic sector pick: Bruhat-minimal valid class, ties broken by
    the lexicographically least reduced word."""
    cand = valid_sector_classes(rs, vertex, d_in, d_out)
    if not cand:
        raise ValueError("no valid sector at this junction")
    # sorted by length first, and u < w in Bruhat order forces l(u) < l(w),
    # so no other candidate lies below the first
    return cand[0]


def enumerate_gamma_plus_op(
    rs: RootSystem,
    vertex: Vec,
    d_in: Vec,
    d_out: Vec,
    sector_class: int = None,
    word: tuple = None,
) -> tuple:
    """All fold/cross words over the reduced word of the closest chamber of
    the outgoing germ that are positively folded with respect to the sector
    and whose final chamber carries a type-mate of the outgoing germ forming
    a minimal pair with the incoming one."""
    local = local_data(rs, vertex)
    if sector_class is None:
        sector_class = choose_sector(rs, vertex, d_in, d_out)
    w_d, canonical_word = _closest_chamber_word_local(rs, local, d_out)
    if word is None:
        word = canonical_word
    else:
        word = tuple(word)
        if len(word) != local.length[w_d]:
            raise ValueError("word length does not match the closest chamber")

    # generic interior point of the sector's local chamber
    sector_pt = rs.act(sector_class, local.generic_dominant)

    base_face = local.base_face(d_out)

    results = []

    def rec(k, u, choices, t, r):
        if k == len(word):
            final_face = rs.act(u, base_face)
            if is_minimal_pair(rs, d_in, final_face):
                results.append(ChamberGallery(word, tuple(choices), t, r))
            return
        letter = word[k]
        wall = rs.act(u, local.simples[letter])
        side = pairing(sector_pt, wall)
        # the current chamber is always strictly on the negative side of its
        # own wall functional, so `side` alone settles both questions
        nxt = rs.mul(u, local.simple_reflections[letter])
        rec(k + 1, nxt, choices + ["C"], t + (1 if side < 0 else 0), r)
        if side > 0:
            rec(k + 1, u, choices + ["F"], t, r + 1)

    rec(0, 0, [], 0, 0)
    return tuple(results)


def junction_factor(
    rs: RootSystem,
    vertex: Vec,
    d_in: Vec,
    d_out: Vec,
    sector_class: int = None,
    word: tuple = None,
) -> QPoly:
    """Sum of q^t (q-1)^r over the local positively folded galleries.

    With the default sector and word the factor is memoised on the local
    group at the vertex."""
    if sector_class is None and word is None:
        memo = local_data(rs, vertex).factors
    else:
        memo = {}
    hit = memo.get((d_in, d_out))
    if hit is None:
        hit = QPoly.zero()
        for c in enumerate_gamma_plus_op(rs, vertex, d_in, d_out, sector_class, word):
            hit = hit + QPoly.term(c.t, c.r)
        memo[(d_in, d_out)] = hit
    return hit


def first_factor_exponent(rs: RootSystem, first_direction: Vec) -> int:
    """Length of the closest chamber at the origin containing the first germ."""
    origin = (0,) * rs.dim
    u, _ = closest_chamber_word(rs, origin, first_direction)
    return local_data(rs, origin).length[u]
