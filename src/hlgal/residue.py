"""Local chamber-gallery combinatorics at a junction.

Chambers of the residue at a vertex are indexed by the local Weyl group
W_V (at the origin, W itself); the base chamber is the one whose interior
contains the generic antidominant direction.  A fold/cross word is read
over a reduced word of the closest chamber u containing the outgoing germ,
with respect to a sector whose local chamber is a valid chamber class; the
walk ends on the images of the germ's base face, which is u^-1 applied to
the germ, since u's closed chamber holds it.  The local group's
``closest_chamber`` gives u and its least reduced word together, by
descent to the base chamber.  All positivity and crossing
statistics are decided by evaluating wall functionals at generic interior
points, which keeps the computation free of root-sign conventions:

* a fold at a wall is admissible when the wall separates the reference
  sector's local chamber from the current chamber;
* a crossing counts toward t when the current chamber and the sector sit
  on the same side of the crossed wall (the step moves away from it).

The junction factor depends on neither the sector nor the reduced word,
so ``junction_factor`` uses the least valid class index and the
lexicographically least word; ``enumerate_gamma_plus_op`` takes both as
inputs, which is how the tests check that independence.  The factor is
non-zero exactly when the junction is positively folded, and it is the
folding module's junction test; a junction with no valid sector class
gets 0, the sum over an empty set.
"""

from __future__ import annotations

from .apartment import local_data
from .qpoly import QPoly
from .rootdata import RootSystem, Vec, is_zero, pairing, vneg


def is_minimal_pair(rs: RootSystem, d_e: Vec, d_f: Vec) -> bool:
    """Two germs at a common vertex lying in opposite sectors: d_f lies in
    w(C) exactly when -d_f lies in w w0(C), the opposite of w(C)."""
    if is_zero(d_e) or is_zero(d_f):
        raise ValueError("zero direction")
    return bool(rs.chamber_class_mask(d_e) & rs.chamber_class_mask(vneg(d_f)))


def valid_sector_classes(rs: RootSystem, vertex: Vec, d_in: Vec, d_out: Vec) -> int:
    """Bit mask of the chamber classes w whose sector contains the incoming
    germ and whose opposite contains a germ of the outgoing type."""
    opposite = 0  # w w0(C) holds f exactly when w(C) holds -f
    for f in local_data(rs, vertex).orbit(d_out):
        opposite |= rs.chamber_class_mask(vneg(f))
    return rs.chamber_class_mask(d_in) & opposite


def choose_sector(rs: RootSystem, vertex: Vec, d_in: Vec, d_out: Vec) -> int:
    """The least valid class index.  W is indexed in length order and
    u < w in Bruhat order forces l(u) < l(w), so it is Bruhat-minimal."""
    mask = valid_sector_classes(rs, vertex, d_in, d_out)
    if not mask:
        raise ValueError("no valid sector at this junction")
    return (mask & -mask).bit_length() - 1


def enumerate_gamma_plus_op(
    rs: RootSystem, vertex: Vec, d_in: Vec, d_out: Vec, sector_class: int, word: tuple
) -> tuple:
    """(t, r) of every fold/cross word over ``word``, a reduced word of the
    closest chamber of the outgoing germ, that is positively folded with
    respect to the sector and whose final chamber carries a type-mate of
    the outgoing germ forming a minimal pair with the incoming one.  t
    counts the crossings away from the sector, r the folds."""
    local = local_data(rs, vertex)
    # generic interior point of the sector's local chamber
    sector_pt = rs.act(sector_class, rs.generic_dominant)
    u, _ = local.closest_chamber(d_out)
    base_face = rs.act(rs.inverse[u], d_out)
    results = []

    def rec(k, u, t, r):
        if k == len(word):
            if is_minimal_pair(rs, d_in, rs.act(u, base_face)):
                results.append((t, r))
            return
        letter = word[k]
        side = pairing(sector_pt, rs.act(u, local.simples[letter]))
        # the current chamber is always strictly on the negative side of its
        # own wall functional, so `side` alone settles both questions
        rec(k + 1, rs.mul(u, local.simple_reflections[letter]), t + (side < 0), r)
        if side > 0:
            rec(k + 1, u, t, r + 1)

    rec(0, 0, 0, 0)
    return tuple(results)


def junction_factor(rs: RootSystem, vertex: Vec, d_in: Vec, d_out: Vec) -> QPoly:
    """Sum of q^t (q-1)^r over the local positively folded galleries,
    memoised on the local group at the vertex."""
    local = local_data(rs, vertex)
    hit = local.factors.get((d_in, d_out))
    if hit is None:
        hit = QPoly.zero()
        if valid_sector_classes(rs, vertex, d_in, d_out):  # else a sum over nothing
            sector = choose_sector(rs, vertex, d_in, d_out)
            _, word = local.closest_chamber(d_out)
            for t, r in enumerate_gamma_plus_op(rs, vertex, d_in, d_out, sector, word):
                hit = hit + QPoly.term(t, r)
        local.factors[(d_in, d_out)] = hit
    return hit


def first_factor_exponent(rs: RootSystem, first_direction: Vec) -> int:
    """Length of the closest chamber at the origin containing the first germ."""
    u, _ = local_data(rs, (0,) * rs.dim).closest_chamber(first_direction)
    return rs.length[u]
