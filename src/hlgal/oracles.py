"""Independent ground-truth computations.

The direct Hall-Littlewood expansion works with Laurent monomial maps:
exponent vectors (``rs.canonical_key`` of a weight, ``rs.key_scale``
times its canonical ambient form) mapping to polynomials in u = 1/q.
P_lambda is the Hecke symmetriser of x^lambda: one Demazure-Lusztig
operator per point of the W-orbit of lambda, each applied monomial by
monomial in closed form, since its quotient by 1 - x^{-a_i} is a finite
geometric sum; a key with a non-integral pairing is a fatal
internal-consistency error.  Characters come from the multiplicity
recursion on weight norms, dimensions from the product formula over
positive walls, type-A Kostka numbers from direct tableau counting.
None of this touches the gallery machinery.
"""

from __future__ import annotations

from .qpoly import QPoly
from .rootdata import RootSystem, Vec, pairing, vadd, vneg, vscale, vsub


def _add_term(mapping: dict, key: tuple, coeff: QPoly):
    cur = mapping.get(key)
    new = coeff if cur is None else cur + coeff
    if new.is_zero():
        mapping.pop(key, None)
    else:
        mapping[key] = new


def _demazure_lusztig(rs: RootSystem, i: int, f: dict) -> dict:
    """T_i f = u s_i f + (1-u) x^{-a_i} (f - s_i f) / (1 - x^{-a_i}), term by term.

    With h the key of -a_i and n = <k, a_i^vee>, s_i x^k = x^{k+nh}, and the
    quotient is a geometric sum: T_i x^k = u x^{k+nh} plus (1-u) times the
    sum of x^{k+jh} over 1 <= j <= n, or minus it over n < j <= 0."""
    u = QPoly((0, 1))
    one_minus_u = QPoly((1, -1))
    h = rs.canonical_key(vneg(rs.simple_roots[i]))
    coroot = rs.simple_coroots[i]
    out: dict = {}
    for key, c in f.items():
        n, rem = divmod(pairing(key, coroot), rs.key_scale)
        if rem:
            raise ArithmeticError("exponent key off the weight lattice; convention fault")
        reflected = vadd(key, vscale(n, h))
        _add_term(out, reflected, c * u)
        x, moved = (key, c * one_minus_u) if n >= 0 else (reflected, -(c * one_minus_u))
        for _ in range(abs(n)):
            x = vadd(x, h)
            _add_term(out, x, moved)
    return out


def hall_littlewood_direct(rs: RootSystem, lam: Vec) -> dict:
    """The symmetric function P_lambda as {exponent key: polynomial in 1/q}.

    Built as the Hecke symmetriser sum_{v in W^lambda} T_v x^lambda, with
    the Demazure-Lusztig operators T_i at u = 1/q, each in closed form on
    monomials.  The orbit of lambda is walked down from lambda, from x to
    s_i x when <x, a_i^vee> > 0, so each minimal coset representative
    costs one operator application.  Since
    T_i x^lambda = u x^lambda when s_i fixes lambda, the sum over all of W
    is W_lambda(u) times this one, so no normaliser is divided out.
    """
    if not rs.is_dominant_weight(lam):
        raise ValueError("lambda must be a dominant weight")
    top = rs.canonical_key(lam)
    terms = {top: {top: QPoly.one()}}  # orbit point v(lambda) -> T_v x^lambda
    frontier = [top]
    while frontier:
        nxt = []
        for x in frontier:
            for i, c in enumerate(rs.simple_coroots):
                if pairing(x, c) > 0:  # a key pairs like the weight it scales
                    y = rs.act(rs.simple_reflections[i], x)
                    if y not in terms:
                        terms[y] = _demazure_lusztig(rs, i, terms[x])
                        nxt.append(y)
        frontier = nxt
    total: dict = {}
    for f in terms.values():
        for key, c in f.items():
            _add_term(total, key, c)
    return total


def L_from_expansion(rs: RootSystem, pmap: dict, lam: Vec, mu: Vec) -> QPoly:
    """q^{<lambda+mu, rho>} times the x^mu coefficient of an expansion map."""
    coeff = pmap.get(rs.canonical_key(mu))
    if coeff is None:
        return QPoly.zero()
    n, rem = divmod(rs.height(vadd(lam, mu)), 2)
    if rem:
        raise ArithmeticError("degree shift is not integral; convention fault")
    if coeff.degree() > n:
        raise ArithmeticError("negative q-powers left in L; convention fault")
    out = [0] * (n + 1)
    for k, c in enumerate(coeff.coeffs):
        out[n - k] = c
    return QPoly(out)


def weyl_dimension(rs: RootSystem, lam: Vec) -> int:
    num = den = 1
    shifted = vadd(lam, rs.rho_weight)
    for c in rs.pos_coroots:
        num *= pairing(shifted, c)
        den *= pairing(rs.rho_weight, c)
    dim, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("non-integral dimension")
    return dim


def _dominant_weights_below(rs: RootSystem, lam: Vec) -> list:
    """Dominant mu <= lambda, highest first.  Each is reached from lambda by
    subtracting positive roots through dominant weights only (Stembridge,
    "The partial order of dominant weights", 1998, Cor. 2.7)."""
    seen = {lam}
    frontier = [lam]
    while frontier:
        nxt = []
        for v in frontier:
            for alpha in rs.pos_roots:
                t = vsub(v, alpha)
                if t not in seen and rs.is_dominant(t):
                    seen.add(t)
                    nxt.append(t)
        frontier = nxt
    return sorted(seen, key=lambda v: -pairing(v, rs.generic_dominant))


def freudenthal_character(rs: RootSystem, lam: Vec) -> dict:
    """Full weight-multiplicity map of the irreducible with highest weight
    lambda, computed by the norm recursion; keys are canonical vectors."""
    if not rs.is_dominant_weight(lam):
        raise ValueError("lambda must be a dominant weight")
    rho = rs.rho_weight
    top_norm = pairing(vadd(lam, rho), vadd(lam, rho))
    mult: dict = {lam: 1}
    for mu in _dominant_weights_below(rs, lam):
        if mu == lam:
            continue
        denom = top_norm - pairing(vadd(mu, rho), vadd(mu, rho))
        acc = 0
        for alpha in rs.pos_roots:
            k = 1
            while True:
                nu = vadd(mu, vscale(k, alpha))
                m = mult.get(rs.dominant_rep(nu))
                if not m:
                    break
                acc += 2 * m * pairing(nu, alpha)
                k += 1
        value, rem = divmod(acc, denom)
        if rem:
            raise ArithmeticError("non-integral multiplicity")
        if value > 0:
            mult[mu] = value
    out: dict = {}
    for mu, m in mult.items():
        for nu in rs.weyl.orbit(mu):
            out[rs.canonical_weight(nu)] = m
    return out


def _partition_shape(rs: RootSystem, lam: Vec) -> tuple:
    coeffs = rs.weight_coeffs(lam)
    n = rs.rank
    return tuple(sum(coeffs[i:]) for i in range(n))


def kostka(rs: RootSystem, lam: Vec, mu: Vec) -> int:
    """Number of semistandard Young tableaux of shape lambda, content mu."""
    if rs.family != "A":
        raise ValueError("Kostka counting is a type-A oracle")
    if not rs.is_dominant_weight(lam) or not rs.is_dominant_weight(mu):
        raise ValueError("lambda and mu must be dominant weights")
    shape = [p for p in _partition_shape(rs, lam) if p > 0]
    cells = sum(shape)
    b = rs.weight_coeffs(mu)
    n = rs.rank
    content = [sum(b[i:]) for i in range(n)] + [0]
    spread, rem = divmod(cells - sum(content), n + 1)
    if rem != 0:
        return 0
    content = [c + spread for c in content]
    if any(c < 0 for c in content):
        return 0

    rows = len(shape)
    counts = list(content)
    tableau = [[0] * r for r in shape]

    def fill(pos):
        filled = 0
        row = 0
        while row < rows and pos >= shape[row]:
            pos -= shape[row]
            row += 1
        if row == rows:
            return 1
        col = pos
        lo = 1
        if col > 0:
            lo = max(lo, tableau[row][col - 1])
        if row > 0:
            lo = max(lo, tableau[row - 1][col] + 1)
        total = 0
        for val in range(lo, n + 2):
            if counts[val - 1] == 0:
                continue
            counts[val - 1] -= 1
            tableau[row][col] = val
            total += fill(sum(shape[:row]) + col + 1)
            tableau[row][col] = 0
            counts[val - 1] += 1
        return total

    return fill(0)
