"""Assembly of the coefficient polynomials L_{lambda,mu}(q) and the
LS-gallery character.

L_{lambda,mu}(q) is a sum over galleries: the target-pruned, folded
walk of enumerate_pf reads gallery.outgoing_edges, which cuts each germ
where the defining chain dies (chain_step), so it builds only the
positively folded galleries with target mu, with no per-gallery folding
test, and each contributes q^(length of the closest chamber at the
origin) times the product of its junction factors; the factors come
from the residue module, so a kept gallery with a zero factor would
still add nothing, and all arithmetic is exact, so the accumulation
order does not matter.

The LS character is a forward walk over the states (vertex, incoming
germ, chain mask), one layer per edge, with no gallery built and no
junction factor computed.  Each state reads its surviving edges from
gallery.outgoing_edges, the one edge rule every walk reads, at its own
chain mask: a table on the vertex's local group, filled once per (orbit
source, chain mask).  So an edge is cut where chain_step returns 0, as
in the folded gallery walk.  That this keeps exactly the positively folded
galleries (is_positively_folded also asks for non-zero junction factors)
is checked exhaustively by check_chain_cut at rank <= 4 only (to 6
fundamental blocks in A2, 5 in B2/C2, 4 in A3/B3/C3, 3 in A4/B4/C4); no
proof is in the repository, and `hlgal verify` cross-checks beyond that.

Each edge (V_i, E_i) adds its own positive crossings, so a state keeps
the largest count of any prefix reaching it and how many prefixes
attain it; at the end the largest count at each final vertex
is held against that vertex's degree bound <lambda+mu, rho>, once per
vertex.  A final vertex mu is a weight and height(lambda + mu) =
height(lambda) + height(mu), so the root system memoises each final
vertex's height and canonical weight (``rs.end_mark``) and the end of
the walk costs one dict lookup and one integer compare per vertex; the
weights hash once (HashedWeight), and in type A vertices sharing a
canonical weight are merged.  It is the library's only LS count: the
character command and verify both read it.
"""

from __future__ import annotations

from .folding import enumerate_pf, reaches_degree_bound, type_weight
from .gallery import Gallery, GalleryType, outgoing_edges, reference_germs, type_of_lambda
from .qpoly import QPoly
from .residue import first_factor_exponent, junction_factor
from .rootdata import RootSystem, Vec, vadd, vneg


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


def _keep_best(table: dict, key, plus: int, n: int):
    """Record n prefixes with ``plus`` positive crossings at key, keeping
    only the largest count and how many prefixes attain it."""
    old = table.get(key)
    if old is None or plus > old[0]:
        table[key] = (plus, n)
    elif plus == old[0]:
        table[key] = (plus, old[1] + n)


def ls_character_of_type(rs: RootSystem, gtype: GalleryType) -> dict:
    """The LS-gallery character of a gallery type, by the walk over
    (vertex, incoming germ, chain mask): canonical target -> number of
    LS-galleries, keyed by canonical weight vectors in ambient coordinates
    (type A drops the invariant line).

    Two prefixes that reach the same state share every suffix, so only a
    prefix with the state's largest positive-crossing count can end LS;
    ValueError unless the type splits into fundamental blocks."""
    gtype = tuple(gtype)
    germs = reference_germs(rs, gtype)
    layer = {((0,) * rs.dim, None, None): (0, 1)}  # state -> (max plus, prefixes attaining it)
    for etype, reference in zip(gtype, germs):
        nxt: dict = {}
        for (v, prev, mask), (best, n) in layer.items():
            for d, reachable, plus in outgoing_edges(rs, v, etype, reference, prev, mask):
                _keep_best(nxt, (vadd(v, d), d, reachable), best + plus, n)
        layer = nxt
    # the bound depends on the final vertex alone
    ends: dict = {}
    for (v, _, _), (best, n) in layer.items():
        _keep_best(ends, v, best, n)
    type_height = rs.height(type_weight(rs, gtype))
    marks = rs.end_marks
    counts: dict = {}  # canonical weight -> LS galleries; type A merges vertices here
    for v, (best, n) in ends.items():
        height, weight = marks.get(v) or rs.end_mark(v)
        if reaches_degree_bound(type_height + height, best):
            counts[weight] = counts.get(weight, 0) + n
    return counts


def character_LS(rs: RootSystem, lam: Vec) -> dict:
    """The LS-gallery character of the standard type of lambda, keyed as in
    ls_character_of_type; type_of_lambda rejects a lambda that is not a
    dominant weight."""
    return ls_character_of_type(rs, type_of_lambda(rs, lam))


def character_to_jsonable(char: dict) -> list:
    return [
        {"weight": [str(x) for x in w], "mult": m}
        for w, m in sorted(char.items())
    ]
