"""The gallery sums against Lusztig's q-analogue of weight multiplicity.

s_lambda = sum_mu K_{lambda,mu}(t) P_mu(x; t), and the library's L gives
[x^nu] P_mu(x; 1/q) = q^{-<mu+nu, rho>} L_{mu,nu}(q), so for each dominant
nu the sum over mu of K_{lambda,mu}(t) [x^nu] P_mu(x; t) is the constant
multiplicity of nu in V(lambda).  K comes from Kostant's partition
function (tests/kostant.py), independent of the Hecke symmetriser and of
the galleries.
"""

import pytest

from hlgal.hlengine import L_polynomial, character_LS
from hlgal.oracles import _dominant_weights_below
from hlgal.qpoly import QPoly
from hlgal.rootdata import vadd, vneg
from hlgal.verify import dominant_lambdas
from kostant import kostant_partition, lusztig_q_analogue
from systems import root_system

# (coefficient sum, height) bounds of the lambdas checked, the acceptance
# suite's and coefficient sum <= 1 at rank 4, and the number of (lambda,
# dominant mu <= lambda) pairs they give
KOSTANT_BOUNDS = {
    ("A", 1): (3, 16, 6), ("A", 2): (3, 16, 21), ("A", 3): (3, 16, 54), ("B", 2): (3, 16, 31),
    ("C", 2): (3, 16, 31), ("B", 3): (3, 16, 26), ("C", 3): (3, 16, 25), ("A", 4): (1, 40, 5),
    ("B", 4): (1, 40, 11), ("C", 4): (1, 40, 9),
}


def hl_coefficient(rs, mu, nu) -> QPoly:
    """[x^nu] P_mu(x; t) from the library's L: t^n L_{mu,nu}(1/t), n =
    <mu+nu, rho>."""
    L = L_polynomial(rs, mu, nu)
    n, rem = divmod(rs.height(vadd(mu, nu)), 2)
    assert rem == 0
    if L.is_zero():
        return L
    assert L.degree() <= n
    return QPoly(L.coeffs[::-1]).shifted(n - L.degree())


def check_q_analogues(rs, lam) -> int:
    """Check K_{lambda,mu} against the LS character and the library's L on
    every dominant mu <= lambda; the number of dominant weights checked.
    In type A, weights are matched by canonical weight, which drops the
    invariant line."""
    char = character_LS(rs, lam)
    mus = _dominant_weights_below(rs, lam)
    K = {mu: lusztig_q_analogue(rs, lam, mu) for mu in mus}
    for mu, k in K.items():
        assert k(1) == char.get(rs.canonical_weight(mu), 0), (lam, mu)
        assert all(c >= 0 for c in k.coeffs), (lam, mu, k)
    for nu in mus:
        total = QPoly.zero()
        for mu, k in K.items():
            total = total + k * hl_coefficient(rs, mu, nu)
        assert total == QPoly((char[rs.canonical_weight(nu)],)), (lam, nu, total)
    return len(mus)


@pytest.mark.parametrize("family,rank", list(KOSTANT_BOUNDS), ids=lambda x: str(x))
def test_gallery_sums_expand_the_character_through_lusztig_q_analogue(family, rank):
    rs = root_system(family, rank)
    max_sum, max_height, pairs = KOSTANT_BOUNDS[(family, rank)]
    assert sum(check_q_analogues(rs, lam) for lam in dominant_lambdas(rs, max_sum, max_height)) == pairs


def test_kostant_partition_small_cases():
    # A2: alpha_1 + alpha_2 is a root itself (t) or the sum of the two
    # simple roots (t^2)
    rs = root_system("A", 2)
    a, b = rs.simple_roots
    assert kostant_partition(rs, vadd(a, b)) == QPoly((0, 1, 1))
    assert kostant_partition(rs, a) == QPoly((0, 1))
    assert kostant_partition(rs, (0,) * rs.dim) == QPoly.one()
    assert kostant_partition(rs, vneg(a)).is_zero()
    # a vector off the root lattice's span in type A has no decomposition
    assert kostant_partition(rs, (1, 0, 0)).is_zero()
