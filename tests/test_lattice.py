"""The integer lattice against exact ambient arithmetic.

Vertices and germs are integer vectors, ambient coordinates times
``rs.scale``.  Every vertex and germ met by the standard galleries is
checked here against test-local references that work in exact ambient
coordinates with Fraction pairings.
"""

from fractions import Fraction

import pytest

from hlgal.apartment import crossings, local_key
from hlgal.gallery import enumerate_of_type, type_of_lambda
from hlgal.rootdata import RootSystem, RootSystemSpec, vneg
from hlgal.verify import dominant_lambdas

TYPES = [(f + str(n), 2) for f in "ABC" for n in (2, 3)] + [(f + "4", 1) for f in "ABC"]


def fpairing(x, c):
    return sum((a * b for a, b in zip(x, c)), Fraction(0))


def from_ambient(rs, coords):
    """The lattice vector of exact ambient coordinates (ints, Fractions or
    "p/q" strings), the inverse of rs.ambient; ValueError off the lattice."""
    out = []
    for x in coords:
        y = Fraction(x) * rs.scale
        if y.denominator != 1:
            raise ValueError("%r is not on the lattice" % (tuple(coords),))
        out.append(y.numerator)
    return tuple(out)


def vertices_and_germs(rs, max_sum):
    """Every vertex of the standard galleries, and every (vertex, germ) pair:
    each edge's outgoing germ at its start, its incoming germ at its end."""
    vertices, germs = set(), set()
    for lam in dominant_lambdas(rs, max_sum, 10**6):
        for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
            vertices.update(g.vertices)
            for j, d in enumerate(g.directions()):
                germs.add((g.vertices[j], d))
                germs.add((g.vertices[j + 1], vneg(d)))
    return sorted(vertices), sorted(germs)


def ref_local_key(rs, x):
    return tuple(k for k, c in enumerate(rs.pos_coroots) if fpairing(x, c).denominator == 1)


def ref_crossings(rs, x, e):
    sides = [fpairing(e, c) for c in rs.pos_coroots if fpairing(x, c).denominator == 1]
    return sum(1 for s in sides if s > 0), sum(1 for s in sides if s < 0)


def ref_is_dominant(rs, x):
    return all(fpairing(x, c) >= 0 for c in rs.simple_coroots)


def ref_chamber_class_mask(rs, e):
    mask = 0
    for w in range(rs.order()):
        if ref_is_dominant(rs, rs.act(rs.inverse[w], e)):
            mask |= 1 << w
    return mask


@pytest.mark.parametrize("name,max_sum", TYPES)
def test_lattice_matches_fraction_reference(name, max_sum):
    rs = RootSystem(RootSystemSpec(name[0], int(name[1])))
    vertices, germs = vertices_and_germs(rs, max_sum)
    for v in vertices:
        x = rs.ambient(v)
        assert all(isinstance(a, int) for a in v)
        assert from_ambient(rs, x) == v
        assert local_key(rs, v) == ref_local_key(rs, x)
        assert rs.is_dominant(v) == ref_is_dominant(rs, x)
    for v, d in germs:
        assert crossings(rs, v, d) == ref_crossings(rs, rs.ambient(v), rs.ambient(d))
    for d in sorted({d for _, d in germs}):
        e = rs.ambient(d)
        assert from_ambient(rs, e) == d
        assert rs.is_dominant(d) == ref_is_dominant(rs, e)
        assert rs.chamber_class_mask(d) == ref_chamber_class_mask(rs, e)


def test_canonical_weight_is_the_ambient_projection(a3, b3):
    # type A drops the invariant line: subtract the mean coordinate
    for rs in (a3, b3):
        for v in rs.weyl.orbit(rs.weight((1,) * rs.rank)):
            x = rs.ambient(v)
            shift = sum(x, Fraction(0)) / rs.dim if rs.family == "A" else 0
            assert rs.canonical_weight(v) == tuple(a - shift for a in x)
