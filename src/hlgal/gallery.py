"""Combinatorial one-skeleton galleries of a fixed type.

A gallery is an alternating chain of vertices and edges in the apartment,
starting at the origin, with source and target special.  The only gallery
types handled are concatenations of fundamental galleries; the standard
gallery for a dominant weight uses the Bourbaki block order
omega_1^{a_1} * ... * omega_n^{a_n}.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import le

from .apartment import EdgeType, crossings, expected_germ, local_data
from .rootdata import RootSystem, Vec, vadd, vsub

GalleryType = tuple  # tuple of EdgeType


@dataclass(frozen=True)
class Gallery:
    vertices: tuple  # V_0 .. V_{r+1}, V_0 = origin
    gtype: GalleryType

    def __post_init__(self):
        if len(self.vertices) != len(self.gtype) + 1:
            raise ValueError("vertex/type length mismatch")

    @property
    def source(self) -> Vec:
        return self.vertices[0]

    @property
    def target(self) -> Vec:
        return self.vertices[-1]

    def num_edges(self) -> int:
        return len(self.gtype)

    def directions(self) -> tuple:
        """The germs V_{i+1} - V_i, built on the first call and kept."""
        dirs = self.__dict__.get("_directions")
        if dirs is None:
            dirs = tuple(vsub(b, a) for a, b in zip(self.vertices, self.vertices[1:]))
            object.__setattr__(self, "_directions", dirs)
        return dirs


def _origin(rs: RootSystem) -> Vec:
    return (0,) * rs.dim


def fundamental_type(rs: RootSystem, i: int) -> tuple:
    if rs.fundamental_scale[i - 1] == 1:
        return (EdgeType(i, "whole"),)
    return (EdgeType(i, "first"), EdgeType(i, "second"))


def type_of_lambda(rs: RootSystem, lam: Vec) -> GalleryType:
    if not rs.is_dominant_weight(lam):
        raise ValueError("lambda must be a dominant weight")
    gtype = []
    for i, a in enumerate(rs.weight_coeffs(lam), start=1):
        gtype.extend(fundamental_type(rs, i) * a)
    return tuple(gtype)


def _hull_sums(rs: RootSystem, v: Vec) -> tuple:
    """Partial sums of the dominant representative of v's canonical key.

    x lies in the convex hull of the W-orbit of a dominant b exactly when
    no partial sum for x exceeds the same partial sum for b."""
    return tuple(accumulate(rs.dominant_rep(rs.canonical_key(v))))


def enumerate_of_type(rs: RootSystem, gtype: GalleryType, target: Vec | None = None):
    """All galleries with source 0 of the given type, in a reproducible
    depth-first order (direction choices sorted lexicographically).

    The germs of an edge are the local orbit of one reference germ: the
    dominant germ of its type for a whole or first edge, the germ just
    taken for a second half.  ValueError unless the type splits into
    fundamental blocks.  With a target, only the galleries ending at
    it (modulo the invariant line in type A) are walked: every edge from
    step k on lies in the W-orbit of its dominant reference germ, so the
    rest of the walk stays in the orbit hull of their sum, and a prefix
    whose target offset lies outside it is cut."""
    gtype = tuple(gtype)
    k = 0
    while k < len(gtype):
        block = fundamental_type(rs, gtype[k].index)
        if gtype[k : k + len(block)] != block:
            raise ValueError("gallery type does not split into fundamental blocks")
        k += len(block)
    germs = [expected_germ(rs, t) for t in gtype]
    if target is not None:
        rest = [_origin(rs)]  # sums of the last 0, 1, ... reference germs
        for d in reversed(germs):
            rest.append(vadd(rest[-1], d))
        bounds = [_hull_sums(rs, b) for b in reversed(rest)]
        offsets = {}  # vertex -> hull sums of target - vertex

    def rec(vertices, prev):
        k = len(vertices) - 1
        v = vertices[-1]
        if target is not None:
            sums = offsets.get(v)
            if sums is None:
                sums = offsets[v] = _hull_sums(rs, vsub(target, v))
            if not all(map(le, sums, bounds[k])):
                return
        if k == len(gtype):
            yield Gallery(tuple(vertices), gtype)
            return
        for d in local_data(rs, v).orbit(prev if gtype[k].segment == "second" else germs[k]):
            yield from rec(vertices + [vadd(v, d)], d)

    yield from rec([_origin(rs)], None)


def crossing_counts(rs: RootSystem, g: Gallery) -> tuple:
    """(positive, negative, total) wall crossings over all (V_i, E_i)."""
    plus = minus = 0
    for v, d in zip(g.vertices, g.directions()):
        p, m = crossings(rs, v, d)
        plus += p
        minus += m
    return plus, minus, plus + minus


def frac_str(x) -> str:
    """An exact ambient coordinate (int or Fraction) as "p/q" or "p"."""
    return "%d/%d" % (x.numerator, x.denominator) if x.denominator != 1 else str(x.numerator)


def gallery_to_jsonable(rs: RootSystem, g: Gallery) -> dict:
    """Vertices in ambient coordinates, as exact "p/q" strings."""
    return {
        "vertices": [[frac_str(x) for x in rs.ambient(v)] for v in g.vertices],
        "edge_types": [t.tag() for t in g.gtype],
    }
