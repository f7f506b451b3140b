"""Assembly of the coefficient polynomials L_{lambda,mu}(q) and the
LS-gallery character.

Each positively folded gallery with target mu contributes
q^(length of the closest chamber at the origin) times the product of its
junction factors; the factors come from the residue module and all
arithmetic is exact, so the accumulation order does not matter.
"""

from __future__ import annotations

from collections import Counter

from .folding import enumerate_pf, has_maximal_crossings, is_positively_folded
from .gallery import Gallery, enumerate_of_type, frac_str, type_of_lambda
from .qpoly import QPoly
from .residue import first_factor_exponent, junction_factor
from .rootdata import RootSystem, Vec, vneg


def gallery_term(rs: RootSystem, g: Gallery) -> QPoly:
    """The summand q^{l(w_D0)} * prod_j U_j(q) of a positively folded gallery."""
    if g.num_edges() == 0:
        return QPoly.one()
    dirs = g.directions()
    total = QPoly.q_power(first_factor_exponent(rs, dirs[0]))
    for j in range(1, g.num_edges()):
        total = total * junction_factor(rs, g.vertices[j], vneg(dirs[j - 1]), dirs[j])
    return total


def L_polynomial(rs: RootSystem, lam: Vec, mu: Vec) -> QPoly:
    """L_{lambda,mu}(q) summed over positively folded galleries with target mu.

    enumerate_pf rejects a lambda or mu that is not a dominant weight."""
    total = QPoly.zero()
    for g in enumerate_pf(rs, lam, mu):
        total = total + gallery_term(rs, g)
    return total


def ls_character(rs: RootSystem, pf_galleries) -> dict:
    """Multiplicity map canonical target -> number of LS-galleries among
    the given positively folded galleries.

    Keys are canonical weight vectors in ambient coordinates (type A drops
    the invariant line)."""
    counts: Counter = Counter()
    for g in pf_galleries:
        if has_maximal_crossings(rs, g):
            counts[g.target] += 1
    out: Counter = Counter()
    for target, m in counts.items():
        out[rs.canonical_weight(target)] += m
    return dict(out)


def character_LS(rs: RootSystem, lam: Vec) -> dict:
    """The LS-gallery character of the standard type of lambda, keyed as in
    ls_character; type_of_lambda rejects a lambda that is not a dominant
    weight."""
    galleries = enumerate_of_type(rs, type_of_lambda(rs, lam))
    return ls_character(rs, (g for g in galleries if is_positively_folded(rs, g)))


def character_to_jsonable(char: dict) -> list:
    return [
        {"weight": [frac_str(x) for x in w], "mult": m}
        for w, m in sorted(char.items())
    ]
