import pytest

from hlgal.oracles import (
    L_from_expansion,
    _add_term,
    freudenthal_character,
    hall_littlewood_direct,
    kostka,
    weyl_dimension,
)
from hlgal.qpoly import QPoly
from hlgal.rootdata import vneg
from hlgal.verify import dominant_lambdas
from systems import root_system


def L_from_direct(rs, lam, mu):
    """q^{<lambda+mu, rho>} times the x^mu coefficient of P_lambda."""
    if not rs.is_dominant_weight(lam) or not rs.is_dominant_weight(mu):
        raise ValueError("lambda and mu must be dominant weights")
    return L_from_expansion(rs, hall_littlewood_direct(rs, lam), lam, mu)


def _mul_binomial(mapping, shift, a, b):
    """mapping * (a + b*x^shift)."""
    out = {}
    for key, c in mapping.items():
        _add_term(out, key, c * a)
        _add_term(out, tuple(k + s for k, s in zip(key, shift)), c * b)
    return out


def weyl_sum_factors(rs):
    """w(prod_{alpha > 0} (1 - u x^{-alpha}) / (1 - x^{-alpha})) for each w in W,
    as numerators over the common denominator prod_{beta > 0} (1 - x^{-beta})."""
    u, one = QPoly((0, 1)), QPoly.one()
    pos_set = set(rs.pos_roots)
    factors = []
    for w in range(rs.order()):
        term = {(0,) * rs.dim: one}
        for alpha in rs.pos_roots:
            img = rs.act(w, alpha)
            if img in pos_set:
                term = _mul_binomial(term, rs.canonical_key(vneg(img)), one, -u)
            else:  # (1 - u x^beta) / (1 - x^beta) = (u - x^{-beta}) / (1 - x^{-beta})
                term = _mul_binomial(term, rs.canonical_key(img), u, -one)
        factors.append(term)
    return factors


def weyl_sum_numerator(rs, lam, factors):
    """Macdonald's Weyl sum of x^lambda prod (1 - u x^{-alpha}) / (1 - x^{-alpha})
    over the common denominator, u = 1/q."""
    total = {}
    for w, term in enumerate(factors):
        top = rs.canonical_key(rs.act(w, lam))
        for key, c in term.items():
            _add_term(total, tuple(k + t for k, t in zip(key, top)), c)
    return total


# B4 is out of reach: its Weyl-sum factors alone take tens of seconds
WEYL_SUM_CASES = [
    ("A1", 3), ("A2", 3), ("B2", 3), ("C2", 3), ("A3", 3), ("B3", 2), ("C3", 2), ("A4", 1),
]


@pytest.mark.parametrize("name,max_sum", WEYL_SUM_CASES)
def test_symmetriser_is_the_weyl_sum(name, max_sum):
    # W_lambda(u) * prod_{beta > 0} (1 - x^{-beta}) * P_lambda is the Weyl-sum
    # numerator; comparing products needs no division
    rs = root_system(name[0], int(name[1]))
    one = QPoly.one()
    factors = weyl_sum_factors(rs)
    for lam in dominant_lambdas(rs, max_sum, 10**6):
        pmap = hall_littlewood_direct(rs, lam)
        assert all(not c.is_zero() for c in pmap.values())
        stab = QPoly.zero()
        for w in range(rs.order()):
            if rs.act(w, lam) == lam:
                stab = stab + QPoly.q_power(rs.length[w])  # polynomial in u
        lhs = {key: c * stab for key, c in pmap.items()}
        for beta in rs.pos_roots:
            lhs = _mul_binomial(lhs, rs.canonical_key(vneg(beta)), one, -one)
        assert lhs == weyl_sum_numerator(rs, lam, factors), lam


RANK4_FUNDAMENTAL = [
    (f + "4", ",".join("1" if j == i else "0" for j in range(4))) for f in "ABC" for i in range(4)
]


def key_of_canonical(rs, v):
    """The exponent key of a canonical weight given in ambient coordinates."""
    scaled = [x * rs.key_scale for x in v]
    assert all(x.denominator == 1 for x in scaled)
    return tuple(int(x) for x in scaled)


def weight_of(rs, coeffs):
    return rs.weight([int(a) for a in coeffs.split(",")])


def test_hl_zero_weight(a2):
    rs = a2
    pmap = hall_littlewood_direct(rs, rs.weight((0, 0)))
    assert pmap == {rs.canonical_key(rs.weight((0, 0))): QPoly.one()}


def test_hl_a1_hand_expansion(a1):
    # lambda = 2 omega: orbit monomials coefficient 1, interior 1 - 1/q
    rs = a1
    lam = rs.weight((2,))
    pmap = hall_littlewood_direct(rs, lam)
    key_hi = rs.canonical_key(lam)
    key_lo = rs.canonical_key(rs.act(rs.w0, lam))
    key_mid = rs.canonical_key(rs.weight((0,)))
    assert pmap[key_hi] == QPoly.one()
    assert pmap[key_lo] == QPoly.one()
    assert pmap[key_mid] == QPoly((1, -1))  # 1 - u, u = 1/q
    assert len(pmap) == 3


def test_hl_is_weyl_invariant(b2):
    rs = b2
    lam = rs.weight((1, 1))
    pmap = hall_littlewood_direct(rs, lam)
    for key, coeff in pmap.items():
        for w in rs.simple_reflections:
            # in type B an exponent key is the lattice vector itself
            image = rs.canonical_key(rs.act(w, key))
            assert pmap.get(image) == coeff


@pytest.mark.parametrize("name,coeffs", [("C2", "1,1")] + RANK4_FUNDAMENTAL)
def test_hl_q_infinity_is_freudenthal(name, coeffs):
    rs = root_system(name[0], int(name[1]))
    lam = weight_of(rs, coeffs)
    # the q -> infinity limit of P_lambda: u = 0 coefficientwise
    schur = {
        key: c.coeffs[0]
        for key, c in hall_littlewood_direct(rs, lam).items()
        if c.coeffs and c.coeffs[0] != 0
    }
    freud = freudenthal_character(rs, lam)
    as_keys = {key_of_canonical(rs, v): m for v, m in freud.items()}
    assert schur == as_keys


@pytest.mark.parametrize("name,coeffs", RANK4_FUNDAMENTAL)
def test_hl_at_u_one_is_the_orbit_sum(name, coeffs):
    # P_lambda(t = 1) = m_lambda: 1 on the W-orbit of lambda, 0 elsewhere
    rs = root_system(name[0], int(name[1]))
    lam = weight_of(rs, coeffs)
    at_one = {key: c(1) for key, c in hall_littlewood_direct(rs, lam).items()}
    orbit = {rs.canonical_key(v) for v in rs.weyl.orbit(lam)}
    assert {key for key, c in at_one.items() if c != 0} == orbit
    assert all(at_one[key] == 1 for key in orbit)


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
        assert p.degree() == rs.height(lam)


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
