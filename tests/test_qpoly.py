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
    assert QPoly.q_power(1) * QPoly.q_minus_one() ** 1 == QPoly((0, -1, 1))  # q(q-1)
    assert QPoly.q_power(0) * QPoly.q_minus_one() ** 2 == QPoly((1, -2, 1))  # (q-1)^2
    assert QPoly.q_power(2) * QPoly.q_minus_one() ** 0 == QPoly.q_power(2)


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
