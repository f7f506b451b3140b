"""Assembly of the coefficient polynomials L_{lambda,mu}(q) and the
LS-gallery character.

L_{lambda,mu}(q) is a sum over galleries: the target-pruned, folded
walk of enumerate_pf (gallery.enumerate_of_type, block by block on
gallery.block_moves) cuts each germ where the defining chain dies
(chain_step), so it builds only the positively folded galleries with
target mu, with no per-gallery folding test, and each contributes
q^{l(w_D0)} times the product of its junction factors, l(w_D0) being the
first germ's positive-crossing count at the origin (apartment.crossings);
the factors come from the residue module, so a kept gallery with a zero
factor would still add nothing, and all arithmetic is exact, so the
accumulation order does not matter.

The LS character is a forward walk over block-boundary states (vertex,
chain mask), one layer per fundamental block, each holding how many
prefixes reach it, with no gallery built and no junction factor
computed.  A boundary is a weight, whose local group is W, and a
midpoint's local group depends on its germ alone, so up to translation
a block's moves out of a boundary depend only on the block and the
chain mask: each layer reads the folded walk's gallery.block_moves,
memoised on W, and keeps the moves whose crossing-bound defect is 0.
Those moves are cut where chain_step returns 0, and also where their
block falls short of the bound (a negative defect): a gallery's defects
sum to scale times 2P - height(lambda) - height(mu), so one with every
defect 0 reaches the degree bound <lambda+mu, rho> and is LS.
That this keeps exactly the LS galleries (is_positively_folded also asks
for non-zero junction factors, and no block may exceed the bound) is
checked for every gallery type made of fundamental blocks at rank <= 4,
by exhaustion of a finite state set (check_chain_cut in the gallery
tests); no proof.
The last block sums straight into end vertex -> count, dropping the
mask, and each end vertex's count is keyed by its canonical weight,
memoised per vertex (``rs.canonical_weights``) and hashed once
(HashedWeight).  No two end vertices share a canonical weight: in type A
every germ keeps its coordinate sum, so the end vertices of one type
differ by no multiple of (1, ..., 1), and AssertionError guards it.  No
character is cached.  It is the library's only LS count: the character
command and verify both read it.
"""

from __future__ import annotations

from functools import reduce
from operator import add, mul

from .apartment import crossings
from .folding import enumerate_pf
from .gallery import Gallery, GalleryType, block_moves, type_of_lambda, walk_plan
from .qpoly import QPoly
from .residue import junction_factor
from .rootdata import RootSystem, Vec, vadd, vneg


def gallery_term(rs: RootSystem, g: Gallery) -> QPoly:
    """The summand q^{l(w_D0)} * prod_j U_j(q) of a positively folded
    gallery: the product of its junction factors, shifted once by q^{l(w_D0)},
    with l(w_D0) the first germ's positive crossings at the origin."""
    dirs = g.directions()
    if not dirs:
        return QPoly.one()
    vertices = g.vertices
    factors = [junction_factor(rs, vertices[j], vneg(dirs[j - 1]), dirs[j]) for j in range(1, len(dirs))]
    total = reduce(mul, factors) if factors else QPoly.one()
    return total.shifted(crossings(rs, vertices[0], dirs[0])[0])


def L_polynomial(rs: RootSystem, lam: Vec, mu: Vec) -> QPoly:
    """L_{lambda,mu}(q) summed over positively folded galleries with target mu.

    enumerate_pf rejects a lambda or mu that is not a dominant weight."""
    terms = [gallery_term(rs, g) for g in enumerate_pf(rs, lam, mu)]
    return reduce(add, terms) if terms else QPoly.zero()


def ls_character_of_type(rs: RootSystem, gtype: GalleryType) -> dict:
    """The LS-gallery character of a gallery type, by the walk over block
    boundaries (vertex, chain mask): canonical target -> number of
    LS-galleries, keyed by canonical weight vectors in ambient coordinates
    (type A drops the invariant line).

    Each block keeps the gallery.block_moves of defect 0, dropping a move
    whose block falls short of the crossing bound; block_moves raises
    AssertionError on one past it, as no positively folded gallery exceeds
    the bound.  ValueError unless the type splits into fundamental blocks."""
    suffixes = walk_plan(rs, tuple(gtype))[1]
    origin = (0,) * rs.dim
    ends = {origin: 1}  # end vertex -> LS galleries; the empty type ends at the origin
    if suffixes:
        blocks = suffixes[0]
        layer = {(origin, 1 << rs.w0): 1}  # (boundary, chain mask) -> prefixes reaching it
        for i in blocks[:-1]:
            nxt: dict = {}
            for (v, mask), n in layer.items():
                for _, after, defect, d in block_moves(rs, i, mask):
                    if not defect:
                        state = (vadd(v, d), after)
                        nxt[state] = nxt.get(state, 0) + n
            layer = nxt
        ends = {}
        for (v, mask), n in layer.items():  # the last block drops the mask
            for _, _, defect, d in block_moves(rs, blocks[-1], mask):
                if not defect:
                    w = vadd(v, d)
                    ends[w] = ends.get(w, 0) + n
    weights = rs.canonical_weights
    counts = {weights.get(v) or rs.canonical_weight(v): n for v, n in ends.items()}
    if len(counts) < len(ends):
        raise AssertionError("two end vertices share a canonical weight")
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
