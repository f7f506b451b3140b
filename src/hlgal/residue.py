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

A word with t such crossings and r folds adds q^t (q-1)^r, and
``local_factor`` sums those terms in one forward pass over the word, one
polynomial per chamber of the residue.  The factor depends on neither the
sector nor the reduced word, so ``junction_factor`` uses the least valid
class index and the lexicographically least word; ``local_factor`` takes
both as inputs, which is how the tests check that independence.  The
factor is non-zero exactly when the junction is positively folded, and it
is the folding module's junction test; a junction with no valid sector
class gets 0, the sum over an empty set.

The gallery's first factor q^{l(w_D0)} needs no word: l(w_D0) is the
first germ's positive-crossing count at the origin (apartment.crossings).
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


def choose_sector(mask: int) -> int:
    """The least class index in a valid_sector_classes mask."""
    if not mask:
        raise ValueError("no valid sector at this junction")
    return (mask & -mask).bit_length() - 1


def local_factor(
    rs: RootSystem, vertex: Vec, d_in: Vec, d_out: Vec, sector_class: int, word: tuple
) -> QPoly:
    """Sum of q^t (q-1)^r over the fold/cross words over ``word``, a reduced
    word of the closest chamber of the outgoing germ, that are positively
    folded with respect to the sector and whose final chamber carries a
    type-mate of the outgoing germ forming a minimal pair with the incoming
    one; t counts the crossings away from the sector, r the folds.

    One forward pass over the word: each layer maps a chamber of the residue
    to the sum over the word prefixes that end in it."""
    local = local_data(rs, vertex)
    # generic interior point of the sector's local chamber
    sector_pt = rs.act(sector_class, rs.generic_dominant)
    u, _ = local.closest_chamber(d_out)
    base_face = rs.act(rs.inverse[u], d_out)
    layer = {0: QPoly.one()}  # chamber -> sum over the prefixes ending there
    for letter in word:
        root, s = local.simples[letter], local.simple_reflections[letter]
        nxt: dict = {}
        for u, p in layer.items():
            # the current chamber is always strictly on the negative side of
            # its own wall functional, so `side` alone settles both questions
            side = pairing(sector_pt, rs.act(u, root))
            w = rs.mul(u, s)
            step = p.shifted(1) if side < 0 else p  # the crossing into w
            nxt[w] = nxt[w] + step if w in nxt else step
            if side > 0:  # a fold stays in u
                step = p.shifted(1) - p
                nxt[u] = nxt[u] + step if u in nxt else step
        layer = nxt
    ends = (p for u, p in layer.items() if is_minimal_pair(rs, d_in, rs.act(u, base_face)))
    return sum(ends, QPoly.zero())


def junction_factor(rs: RootSystem, vertex: Vec, d_in: Vec, d_out: Vec) -> QPoly:
    """local_factor at the least valid sector class and the least reduced
    word, memoised on the local group at the vertex.  The least class index
    is Bruhat-minimal: W is indexed in length order and u < w in Bruhat
    order forces l(u) < l(w)."""
    local = local_data(rs, vertex)
    hit = local.factors.get((d_in, d_out))
    if hit is None:
        mask = valid_sector_classes(rs, vertex, d_in, d_out)
        if mask:
            word = local.closest_chamber(d_out)[1]
            hit = local_factor(rs, vertex, d_in, d_out, choose_sector(mask), word)
        else:  # a sum over nothing
            hit = QPoly.zero()
        local.factors[(d_in, d_out)] = hit
    return hit
