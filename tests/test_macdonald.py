"""Macdonald's tableau formula for P_lambda in type A, as a third oracle.

The paper's abstract says its formula, specialised to A_n, turns out to
be equivalent to Macdonald's formula.  Macdonald (Symmetric Functions and
Hall Polynomials, III (5.11')) writes P_lambda(x; t) = sum_T psi_T(t) x^T
over semistandard tableaux T, where psi_T is the product over T's chain
of horizontal strips lambda^(i-1) < lambda^(i) (the cells holding letters
<= i) of (III (5.8'))

    psi_{lambda/mu}(t) = prod_{j in J} (1 - t^{m_j(mu)}),
    J = {j >= 1 : theta'_j = 0 and theta'_{j+1} = 1},  theta = lambda - mu,

with m_j(mu) the number of rows of length j in the smaller shape.  The
test checks the equivalence gallery by gallery through the tableau
bijection, not only in sum: every positively folded gallery g, with
any target nu, has gallery_term(g) = q^{<lambda+nu, rho>} psi_T(1/q)
for T = gallery_to_tableau(g).  At a dominant target mu, enumerate_pf
(the target-pruned walk that L_polynomial runs) keeps exactly the
no-target galleries ending at mu, and their terms sum to the
Demazure-Lusztig oracle's L_{lambda,mu}.  This
oracle stays in the tests: `verify` records would move the benchmark's
check counts.
"""

import pytest

from hlgal.folding import enumerate_pf
from hlgal.gallery import enumerate_of_type, type_of_lambda
from hlgal.hlengine import gallery_term
from hlgal.oracles import L_from_expansion, hall_littlewood_direct
from hlgal.qpoly import QPoly
from hlgal.rootdata import vadd
from hlgal.tableaux import gallery_to_tableau
from hlgal.verify import _dominant_mus, dominant_lambdas
from systems import root_system


def _conjugate_shape(columns, i: int) -> list:
    """Column heights, left to right, of the cells holding letters <= i."""
    return [sum(1 for x in col if x <= i) for col in reversed(columns)] + [0]


def psi(columns, letters: int) -> QPoly:
    """psi_T(t) of a type-A tableau given as right-to-left columns."""
    total = QPoly.one()
    small = _conjugate_shape(columns, 0)
    for i in range(1, letters + 1):
        big = _conjugate_shape(columns, i)
        theta = [b - s for b, s in zip(big, small)]
        for j in range(len(theta) - 1):  # 0-based: column j + 1 of the diagram
            if theta[j] == 0 and theta[j + 1] == 1:
                m_j = small[j] - small[j + 1]
                total = total * (QPoly.one() - QPoly.q_power(m_j))
        small = big
    return total


def macdonald_term(rs, lam, mu, columns) -> QPoly:
    """q^{<lambda+mu, rho>} psi_T(1/q)."""
    n, rem = divmod(rs.height(vadd(lam, mu)), 2)
    assert rem == 0
    coeffs = psi(columns, rs.rank + 1).coeffs
    assert len(coeffs) <= n + 1
    return QPoly([0] * (n + 1 - len(coeffs)) + list(reversed(coeffs)))


@pytest.mark.parametrize("rank,max_coeff_sum", [(1, 5), (2, 5), (3, 4), (4, 3)])
def test_gallery_terms_are_macdonald_psi(rank, max_coeff_sum):
    # every gallery of the folded walk with no target, which the chain alone
    # cuts: its term is never zero (the walk keeps no zero junction factor)
    # and is Macdonald's at its target nu, dominant or not.  At each dominant
    # mu, enumerate_pf (the target-pruned walk behind L_polynomial) keeps
    # exactly the no-target galleries ending at mu, each with Macdonald's
    # term, and their sum is the oracle's L_{lambda,mu}
    rs = root_system("A", rank)
    n_gal = n_poly = n_other = n_pf = 0
    for lam in dominant_lambdas(rs, max_coeff_sum, 60):
        ends = {}
        for g in enumerate_of_type(rs, type_of_lambda(rs, lam), folded=True):
            term = gallery_term(rs, g)
            assert not term.is_zero(), (lam, g.vertices)
            assert term == macdonald_term(rs, lam, g.target, gallery_to_tableau(rs, g).columns), (
                lam, g.vertices,
            )
            ends.setdefault(rs.canonical_key(g.target), set()).add(g.vertices)
            n_gal += 1
            n_poly += sum(1 for c in term.coeffs if c) > 1
            n_other += not rs.is_dominant(g.target)
        pmap = hall_littlewood_direct(rs, lam)
        for mu in _dominant_mus(rs, (), pmap):
            row = QPoly.zero()
            pf = enumerate_pf(rs, lam, mu)
            for g in pf:
                term = gallery_term(rs, g)
                assert term == macdonald_term(rs, lam, mu, gallery_to_tableau(rs, g).columns), (
                    lam, mu, g.vertices,
                )
                row = row + term
                n_pf += 1
            assert len(pf) == len({g.vertices for g in pf}), (lam, mu)
            assert {g.vertices for g in pf} == ends.get(rs.canonical_key(mu), set()), (lam, mu)
            assert row == L_from_expansion(rs, pmap, lam, mu), (lam, mu)
    assert n_gal and n_poly and n_other and n_pf
    print("\nMacdonald psi_T A%d: %d galleries, %d at non-dominant targets, %d non-monomial terms, "
          "%d at dominant targets through enumerate_pf" % (rank, n_gal, n_other, n_poly, n_pf))


def test_psi_sums_to_a_known_coefficient():
    # P_{21}(x; t) = m_{21} + (2 - t - t^2) m_{111}: the two standard tableaux
    # of shape (2, 1) give 1 - t and 1 - t^2; columns are stored right to left
    assert psi(((2,), (1, 3)), 3) == QPoly((1, -1))
    assert psi(((3,), (1, 2)), 3) == QPoly((1, 0, -1))
    assert psi(((1,), (1, 2)), 3) == QPoly.one()
