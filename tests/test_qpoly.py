import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hlgal.qpoly import QPoly

coeff_lists = st.lists(st.integers(-9, 9), max_size=6)


def test_normalization():
    assert QPoly((1, 2, 0, 0)).coeffs == (1, 2)
    assert QPoly((0, 0)).is_zero()
    assert QPoly.q_power(3).coeffs == (0, 0, 0, 1)


def test_non_integral_coefficient_rejected():
    # coercion comes before trimming, so a fractional coefficient can neither
    # survive as a nonzero-looking QPoly([0]) nor truncate to a smaller one
    with pytest.raises(ValueError, match="non-integral"):
        QPoly((Fraction(1, 2),))
    with pytest.raises(ValueError, match="non-integral"):
        QPoly((0, Fraction(3, 2)))
    assert QPoly((Fraction(4, 2), Fraction(0))) == QPoly((2,))


def test_term():
    q_minus_one = QPoly((-1, 1))
    assert QPoly.q_power(1) * q_minus_one == QPoly((0, -1, 1))  # q(q-1)
    assert QPoly.q_power(0) * q_minus_one * q_minus_one == QPoly((1, -2, 1))  # (q-1)^2
    assert QPoly.q_power(2) * QPoly.one() == QPoly.q_power(2)


def test_pretty():
    assert QPoly((0, 0, 0, -2, 2)).pretty() == "2q^4 - 2q^3"
    assert QPoly((1,)).pretty() == "1"
    assert QPoly(()).pretty() == "0"
    assert QPoly((0, 1)).pretty() == "q"
    assert QPoly((-1, 1)).pretty() == "q - 1"


def test_evaluate():
    p = QPoly((1, -2, 1))
    assert p(1) == 0
    assert p(3) == 4


def test_leading_data():
    p = QPoly((0, 0, 0, -2, 2))
    assert (p.degree(), p.leading_coefficient()) == (4, 2)
    with pytest.raises(ValueError):
        QPoly.zero().degree()
    with pytest.raises(ValueError):
        QPoly.zero().leading_coefficient()


def test_json_roundtrip():
    # the CLI's {"coeffs": ...} form decodes through the constructor
    p = QPoly((0, 0, 0, -2, 2))
    data = json.loads(json.dumps(p.to_jsonable()))
    assert data == {"coeffs": [0, 0, 0, -2, 2]}
    assert QPoly(data["coeffs"]) == p


def test_immutable():
    p = QPoly((1,))
    with pytest.raises(AttributeError):
        p.coeffs = (2,)


@settings(max_examples=200, deadline=None)
@given(coeff_lists, coeff_lists, coeff_lists)
def test_ring_laws(a, b, c):
    p, q, r = QPoly(a), QPoly(b), QPoly(c)
    assert p + q == q + p
    assert p * q == q * p
    assert (p + q) * r == p * r + q * r
    assert p * (q * r) == (p * q) * r
    assert p - p == QPoly.zero()


def convolve(a, b):
    """The product of two coefficient lists, written out."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def trimmed(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


@settings(max_examples=300, deadline=None)
@given(coeff_lists, coeff_lists, st.sampled_from((1, -1)), st.integers(0, 3))
def test_arithmetic_matches_coefficient_lists(a, b, c, k):
    # +, -, negation, * and shifted against the coefficient lists written
    # out.  r has p's length and c times its leading term, so p + r (c = -1)
    # or p - r (c = 1) cancels at the top, and further down when b's terms
    # are p's; p + (-p) and the zero polynomial are among the pairs
    p, q, zero = QPoly(a), QPoly(b), QPoly.zero()
    n = len(p.coeffs)
    r = QPoly((list(b) + [0] * n)[: n - 1] + [c * p.coeffs[-1]]) if n else q
    for x, y in ((p, q), (q, p), (p, r), (r, p), (p, -p), (p, zero), (zero, p), (zero, zero)):
        m = max(len(x.coeffs), len(y.coeffs))
        xs, ys = list(x.coeffs) + [0] * (m - len(x.coeffs)), list(y.coeffs) + [0] * (m - len(y.coeffs))
        checks = [
            (x + y, [u + v for u, v in zip(xs, ys)]),
            (x - y, [u - v for u, v in zip(xs, ys)]),
            (x * y, convolve(x.coeffs, y.coeffs)),
            (-x, [-u for u in x.coeffs]),
            (x.shifted(k), [0] * k + list(x.coeffs) if x.coeffs else []),
        ]
        for got, want in checks:
            assert got.coeffs == trimmed(want), (x, y, got)
            assert type(got.coeffs) is tuple and all(type(e) is int for e in got.coeffs)
            assert not got.coeffs or got.coeffs[-1] != 0
    assert (p + -p).coeffs == (p - p).coeffs == ()
    assert (p * zero).coeffs == (zero * p).coeffs == ()
    assert p.shifted(1) - p == p * QPoly((-1, 1))  # a fold's step in residue.local_factor


def test_arithmetic_keeps_the_constructor_checks():
    # results skip the coercion, but the public constructor still refuses a
    # fractional coefficient and coerces a whole one
    with pytest.raises(ValueError, match="non-integral"):
        QPoly((1, Fraction(1, 3)))
    p = QPoly((Fraction(2), 3.0))
    assert p.coeffs == (2, 3) and all(type(e) is int for e in p.coeffs)
    assert (p + p).coeffs == (4, 6) and (p * p).coeffs == (4, 12, 9)
