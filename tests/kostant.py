"""Lusztig's q-analogue of weight multiplicity, a test-only oracle.

K_{lambda,mu}(t) = sum_{w in W} eps(w) P_t(w(lambda + rho) - (mu + rho)),
where P_t, the t-analogue of Kostant's partition function, is the
coefficient of e^gamma in prod_{alpha > 0} 1 / (1 - t e^alpha): the sum,
over the ways of writing gamma as a sum of positive roots, of t to the
number of roots used (G. Lusztig, Singularities, character formulas, and
a q-analog of weight multiplicities, Asterisque 101-102, 1983; S. Kato,
Spherical functions and a q-analogue of Kostant's weight multiplicity
formula, Invent. Math. 66, 1982; Macdonald III (2.6) in type A).  With
P_mu(x; t) the Hall-Littlewood polynomial, monic in x^mu,

    s_lambda = sum_{mu <= lambda dominant} K_{lambda,mu}(t) P_mu(x; t),

K_{lambda,mu}(1) is the multiplicity of mu in V(lambda), and every
coefficient of K_{lambda,mu} is non-negative.

P_t is a recursion over the positive roots on simple-root coordinates,
memoised per type, so it walks only the cone the roots span.  Nothing
here reads the gallery machinery; rho is rs.rho_weight, which in type A
differs from half the sum of the positive roots by a multiple of (1, ...,
1), and W fixes that line, so the differences w(lambda + rho) - (mu +
rho) are the same.
"""

from fractions import Fraction
from functools import lru_cache

from hlgal.qpoly import QPoly
from hlgal.rootdata import pairing, vadd, vsub
from systems import root_system


@lru_cache(maxsize=None)
def _gram_inverse(family, rank):
    """The inverse of the Gram matrix <alpha_i, alpha_j> of the simple
    roots, by Gauss-Jordan elimination over Fractions."""
    simple = root_system(family, rank).simple_roots
    n = len(simple)
    rows = [[Fraction(pairing(a, b)) for b in simple] + [Fraction(i == j) for j in range(n)]
            for i, a in enumerate(simple)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        rows[col] = [x / rows[col][col] for x in rows[col]]
        for r in range(n):
            if r != col and rows[r][col]:
                f = rows[r][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[col])]
    return tuple(tuple(row[n:]) for row in rows)


def root_coordinates(rs, gamma):
    """gamma's integer coordinates on the simple roots, or None when gamma
    is off their integral span (in type A, off the sum-zero hyperplane)."""
    simple = rs.simple_roots
    b = [pairing(gamma, a) for a in simple]
    coords = [sum(map(lambda x, y: x * y, row, b)) for row in _gram_inverse(rs.family, rs.rank)]
    if any(c.denominator != 1 for c in coords):
        return None
    coords = tuple(int(c) for c in coords)
    back = tuple(sum(c * a[k] for c, a in zip(coords, simple)) for k in range(rs.dim))
    return coords if back == tuple(gamma) else None


@lru_cache(maxsize=None)
def _positive_root_coordinates(family, rank):
    rs = root_system(family, rank)
    return tuple(root_coordinates(rs, a) for a in rs.pos_roots)


@lru_cache(maxsize=None)
def _partition(family, rank, coords, k):
    """P_t of the vector with these simple-root coordinates, over the
    positive roots k, k+1, ...: t^j times P_t of coords - j alpha_k over
    the roots after it, for every j that stays in the cone."""
    roots = _positive_root_coordinates(family, rank)
    if k == len(roots):
        return QPoly.one() if not any(coords) else QPoly.zero()
    total, j = QPoly.zero(), 0
    while min(coords) >= 0:
        total = total + _partition(family, rank, coords, k + 1).shifted(j)
        coords = tuple(map(lambda x, y: x - y, coords, roots[k]))
        j += 1
    return total


def kostant_partition(rs, gamma) -> QPoly:
    """P_t(gamma): t^m summed over the ways of writing gamma as a sum of m
    positive roots."""
    coords = root_coordinates(rs, gamma)
    if coords is None or min(coords) < 0:
        return QPoly.zero()
    return _partition(rs.family, rs.rank, coords, 0)


def lusztig_q_analogue(rs, lam, mu) -> QPoly:
    """K_{lambda,mu}(t) = sum_w eps(w) P_t(w(lambda + rho) - (mu + rho)),
    eps(w) = (-1)^l(w); lambda and mu lattice vectors of one coset of the
    root lattice."""
    top, base = vadd(lam, rs.rho_weight), vadd(mu, rs.rho_weight)
    total = QPoly.zero()
    for w in range(rs.order()):
        p = kostant_partition(rs, vsub(rs.act(w, top), base))
        total = total - p if rs.length[w] % 2 else total + p
    return total
