from fractions import Fraction as Q

import pytest

from hlgal.oracles import (
    L_from_direct,
    exponent_key,
    freudenthal_character,
    hall_littlewood_direct,
    kostka,
    weyl_dimension,
)
from hlgal.qpoly import QPoly
from hlgal.rootdata import pairing


def test_hl_zero_weight(a2):
    rs = a2
    pmap = hall_littlewood_direct(rs, rs.weight((0, 0)))
    assert pmap == {exponent_key(rs, rs.weight((0, 0))): QPoly.one()}


def test_hl_a1_hand_expansion(a1):
    # lambda = 2 omega: orbit monomials coefficient 1, interior 1 - 1/q
    rs = a1
    lam = rs.weight((2,))
    pmap = hall_littlewood_direct(rs, lam)
    key_hi = exponent_key(rs, lam)
    key_lo = exponent_key(rs, rs.act(rs.w0, lam))
    key_mid = exponent_key(rs, rs.weight((0,)))
    assert pmap[key_hi] == QPoly.one()
    assert pmap[key_lo] == QPoly.one()
    assert pmap[key_mid] == QPoly((1, -1))  # 1 - u, u = 1/q
    assert len(pmap) == 3


def test_hl_is_weyl_invariant(b2):
    rs = b2
    lam = rs.weight((1, 1))
    pmap = hall_littlewood_direct(rs, lam)
    scale = 2  # family B exponent scaling
    for key, coeff in pmap.items():
        v = tuple(Q(x, scale) for x in key)
        for w in rs.simple_reflections:
            image = exponent_key(rs, rs.act(w, v))
            assert pmap.get(image) == coeff


def test_hl_q_infinity_is_freudenthal(c2):
    rs = c2
    lam = rs.weight((1, 1))
    # the q -> infinity limit of P_lambda: u = 0 coefficientwise
    schur = {
        key: c.coeffs[0]
        for key, c in hall_littlewood_direct(rs, lam).items()
        if c.coeffs and c.coeffs[0] != 0
    }
    freud = freudenthal_character(rs, lam)
    as_keys = {exponent_key(rs, v): m for v, m in freud.items()}
    assert schur == as_keys


def test_l_from_direct_values(a2):
    rs = a2
    lam = rs.weight((2, 1))
    assert L_from_direct(rs, lam, lam) == QPoly((0, 0, 0, 0, 0, 0, 1))
    assert L_from_direct(rs, lam, rs.weight((0, 2))) == QPoly((0, 0, 0, 0, -1, 1))
    assert L_from_direct(rs, lam, rs.weight((1, 0))) == QPoly((0, 0, 0, -2, 2))


def test_l_from_direct_diagonal_monic(b2):
    rs = b2
    for coeffs in [(1, 0), (0, 1), (1, 1), (2, 0)]:
        lam = rs.weight(coeffs)
        p = L_from_direct(rs, lam, lam)
        assert p.leading_coefficient() == 1
        assert p.degree() == 2 * pairing(lam, rs.rho)


def test_l_from_direct_outside_support(a2):
    rs = a2
    lam = rs.weight((1, 0))
    assert L_from_direct(rs, lam, rs.weight((2, 0))) == QPoly.zero()
    assert L_from_direct(rs, lam, rs.weight((0, 2))) == QPoly.zero()


def test_l_euler_values(a3):
    rs = a3
    lam = rs.weight((1, 0, 1))
    for coeffs in [(1, 0, 1), (0, 0, 0), (0, 1, 0)]:
        mu = rs.weight(coeffs)
        value = L_from_direct(rs, lam, mu)(1)
        assert value == (1 if coeffs == (1, 0, 1) else 0)


def test_freudenthal_basics(b2):
    rs = b2
    zero = rs.weight((0, 0))
    assert freudenthal_character(rs, zero) == {rs.canonical_weight(zero): 1}
    lam = rs.weight((1, 1))
    char = freudenthal_character(rs, lam)
    assert sum(char.values()) == weyl_dimension(rs, lam)
    for v in rs.weyl.orbit(lam):
        assert char[rs.canonical_weight(v)] == 1


def test_freudenthal_known_dimensions(a2, b2, c3):
    assert weyl_dimension(a2, a2.weight((2, 1))) == 15
    assert weyl_dimension(a2, a2.weight((1, 1))) == 8  # adjoint
    assert weyl_dimension(b2, b2.weight((1, 0))) == 5  # vector of so(5)
    assert weyl_dimension(b2, b2.weight((0, 1))) == 4  # spin
    assert weyl_dimension(c3, c3.weight((1, 0, 0))) == 6  # vector of sp(6)
    assert sum(freudenthal_character(a2, a2.weight((2, 1))).values()) == 15


def test_kostka_values(a3):
    rs = a3
    lam = rs.weight((2, 1, 0))  # shape (3, 1)
    assert kostka(rs, lam, lam) == 1
    assert kostka(rs, lam, rs.weight((1, 0, 1))) == 2  # content (2,1,1)
    assert kostka(rs, lam, rs.weight((0, 2, 0))) == 1  # content (2,2)


def test_kostka_rejects_other_families(b2):
    with pytest.raises(ValueError):
        kostka(b2, b2.weight((1, 0)), b2.weight((1, 0)))


def test_kostka_is_leading_coefficient(a2):
    rs = a2
    lam = rs.weight((2, 1))
    for coeffs in [(2, 1), (0, 2), (1, 0)]:
        mu = rs.weight(coeffs)
        p = L_from_direct(rs, lam, mu)
        assert p.leading_coefficient() == kostka(rs, lam, mu)
