"""Combinatorial one-skeleton galleries of a fixed type.

A gallery is an alternating chain of vertices and edges in the apartment,
starting at the origin, with source and target special.  The only gallery
types handled are concatenations of fundamental galleries; the standard
gallery for a dominant weight uses the Bourbaki block order
omega_1^{a_1} * ... * omega_n^{a_n}.

Every walk reads one edge rule, outgoing_edges: the germs an edge can
take out of a (vertex, incoming germ, chain mask) state, memoised on the
vertex's local group.  The chain mask is the set of chamber classes the
defining chain can be in; a folded walk starts it at 1 << w0, as every
class lies Bruhat-below w0, and an edge is cut by chain_step alone,
where the chain dies.  Mask None means unfolded: it keeps every germ.
Each edge also carries its block's crossing-bound defect, which only
the LS character walk and block_moves' guard read.  That the chain cut never keeps an
edge with a zero junction factor (the other half of positive folding)
or a positive defect is checked for every gallery type made of
fundamental blocks at rank <= 4, by exhaustion of a finite state set
(check_chain_cut in the gallery tests); no proof.

Each type's walk plan (walk_plan) and each dominant weight's standard
type (type_of_lambda) are kept on the root system, so a row of L pays
for neither once per mu.  The gallery walk and the LS character walk of
the hlengine module step a whole block at a time.  A block boundary is a
weight, whose local group is W, so up to translation its moves depend on
its chain mask alone: block_moves, the one block table, and offset_index
(the target walk's exact index of the moves that can still reach an
offset) are memoised on W per mask and serve every boundary.  Each move
carries its germs, its chain mask after, its defect and its offset; the
character walk keeps the moves of defect 0.
"""

from __future__ import annotations

from .apartment import EdgeType, crossings, expected_germ, local_data
from .rootdata import Frozen, RootSystem, Vec, pairing, vadd, vsub

GalleryType = tuple  # tuple of EdgeType


class Gallery(Frozen):
    """The vertices V_0 .. V_{r+1} (V_0 the origin) of a gallery of type
    ``gtype``; ``_directions`` caches its germs."""

    _fields = ("vertices", "gtype")
    __slots__ = _fields + ("_directions",)

    def __init__(self, vertices: tuple, gtype: GalleryType):
        if len(vertices) != len(gtype) + 1:
            raise ValueError("vertex/type length mismatch")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "gtype", gtype)

    @property
    def target(self) -> Vec:
        return self.vertices[-1]

    def num_edges(self) -> int:
        return len(self.gtype)

    def directions(self) -> tuple:
        """The germs V_{i+1} - V_i: those enumerate_of_type took, for a
        walked gallery, else built on the first call and kept."""
        try:
            return self._directions
        except AttributeError:
            dirs = tuple(vsub(b, a) for a, b in zip(self.vertices, self.vertices[1:]))
            object.__setattr__(self, "_directions", dirs)
            return dirs


def fundamental_type(rs: RootSystem, i: int) -> tuple:
    """The edge types of omega_i's block: one whole edge if it is
    minuscule, else two halves.  Built once per index and kept in
    ``rs.fundamental_blocks``, so every caller gets the same EdgeTypes."""
    block = rs.fundamental_blocks.get(i)
    if block is None:
        if rs.fundamental_scale[i - 1] == 1:
            block = (EdgeType(i, "whole"),)
        else:
            block = (EdgeType(i, "first"), EdgeType(i, "second"))
        rs.fundamental_blocks[i] = block
    return block


def type_of_lambda(rs: RootSystem, lam: Vec) -> GalleryType:
    """The standard type of a dominant weight, omega_i's block a_i times
    for i = 1 .. rank; memoised per weight in ``rs.lambda_types``.
    ValueError, storing nothing, unless lam is a dominant weight."""
    gtype = rs.lambda_types.get(lam)
    if gtype is None:
        if not rs.is_dominant_weight(lam):
            raise ValueError("lambda must be a dominant weight")
        gtype = []
        for i, a in enumerate(rs.weight_coeffs(lam), start=1):
            gtype.extend(fundamental_type(rs, i) * a)
        gtype = rs.lambda_types[lam] = tuple(gtype)
    return gtype


def reference_germs(rs: RootSystem, gtype: GalleryType) -> list:
    """The dominant reference germ of each edge of the type.

    ValueError unless the type splits into fundamental blocks of indices
    1 .. rank."""
    k = 0
    while k < len(gtype):
        index = gtype[k].index
        if not 1 <= index <= rs.rank:
            raise ValueError("edge type index %d is outside 1..%d" % (index, rs.rank))
        block = fundamental_type(rs, index)
        if gtype[k : k + len(block)] != block:
            raise ValueError("gallery type does not split into fundamental blocks")
        k += len(block)
    return [expected_germ(rs, t) for t in gtype]


def walk_plan(rs: RootSystem, gtype: GalleryType) -> tuple:
    """(germs, suffixes): the reference germs of the type's edges, and the
    fundamental indices of blocks k, k+1, ... for each block k.  Kept in
    ``rs.walk_plans``; ValueError, storing nothing, unless the type splits
    into fundamental blocks."""
    plan = rs.walk_plans.get(gtype)
    if plan is None:
        germs = tuple(reference_germs(rs, gtype))
        blocks = tuple(t.index for t in gtype if t.segment != "second")
        plan = rs.walk_plans[gtype] = (germs, tuple(blocks[k:] for k in range(len(blocks))))
    return plan


def chain_step(rs: RootSystem, reachable: int, d: Vec) -> int:
    """One step of the defining chain's forward pass: the chamber classes
    (as a bit mask) containing germ d that lie Bruhat-below something in
    ``reachable``.  Every class lies below w0, so from 1 << rs.w0, where
    every folded walk starts, it is every class containing d.  0 when the
    chain dies here."""
    return rs.chamber_class_mask(d) & rs.below_closure_mask(reachable)


def outgoing_edges(
    rs: RootSystem, v: Vec, etype: EdgeType, reference: Vec, prev: Vec | None, mask: int | None
) -> tuple:
    """The one edge rule every walk reads: (d, reachable, defect) for every
    germ d an edge of the type can take out of the state (v, prev, mask)
    that chain_step keeps, with the chain mask after d.  The germs are the
    local orbit at v of the germ just taken (prev) for a second half, else
    of the edge's reference germ, in orbit order, which sorts them.  Mask
    None is an unfolded walk's: every germ of the orbit is kept, with
    reachable None.

    defect is scale times the crossing-bound gap 2(p1 + p2) - height(prev
    + d) - height(omega_i) of the block a second half closes, p1 and p2
    its halves' positive crossings; the unfolded pair d == prev has gap 0,
    so it is read off the midpoint v alone.  It is 0 for a whole edge and
    a first half.  Memoised on the local group at v, keyed by (orbit
    source, mask); a midpoint is never a weight, so second halves share no
    group with other edges."""
    local = local_data(rs, v)
    second = etype.segment == "second"
    key = (prev if second else reference, mask)
    hit = local.edges.get(key)
    if hit is None:

        def excess(d):  # scale * (2 * positive crossings - height) of d at v
            return 2 * rs.scale * crossings(rs, v, d)[0] - pairing(d, rs.two_rho)

        hit = []
        for d in local.orbit(key[0]):
            reachable = mask and chain_step(rs, mask, d)
            if reachable or mask is None:
                hit.append((d, reachable, excess(d) - excess(prev) if second else 0))
        hit = local.edges[key] = tuple(hit)
    return hit


def block_moves(rs: RootSystem, i: int, mask: int | None) -> tuple:
    """The moves of omega_i's block out of a block boundary with chain mask
    ``mask`` (None unfolded), in (d1, d2) order: (germs (d1,) or (d1, d2)
    as outgoing_edges offers them, the chain mask after them, the defect
    of the edge that closes the block, the offset d1 [+ d2]).  A midpoint's
    local group depends on its germ alone, so the moves are walked from the
    origin.  A folded table (an int mask) with a move of positive defect
    raises AssertionError, as no positively folded gallery exceeds the
    crossing bound.  Memoised on W per (i, mask)."""
    key = (i, mask)
    hit = rs.weyl.moves.get(key)
    if hit is None:
        first, *second = fundamental_type(rs, i)
        reference = expected_germ(rs, first)
        hit = []
        for d1, r1, defect in outgoing_edges(rs, (0,) * rs.dim, first, reference, None, mask):
            if not second:
                hit.append(((d1,), r1, defect, d1))
            for d2, r2, defect in outgoing_edges(rs, d1, second[0], reference, d1, r1) if second else ():
                hit.append(((d1, d2), r2, defect, vadd(d1, d2)))
        if mask is not None and any(move[2] > 0 for move in hit):
            raise AssertionError("positive crossings exceed the degree bound")
        hit = rs.weyl.moves[key] = tuple(hit)
    return hit


def offset_index(rs: RootSystem, blocks: tuple, mask: int | None) -> dict:
    """offset -> the block_moves of blocks[0] out of a boundary with chain
    mask ``mask`` after which blocks[1:] can still end the walk that far
    from the boundary, in move order.  Memoised on W per blocks, then per
    mask; built from the last block back by a worklist."""
    offsets = rs.weyl.offsets
    todo = [(blocks, mask)]
    while todo:
        suffix, m = todo[-1]
        table = offsets.setdefault(suffix, {})
        if m not in table:
            moves = block_moves(rs, suffix[0], m)
            rest, after = suffix[1:], {move[1] for move in moves}
            # past the last block only offset 0 is left, with no move
            ends = offsets.setdefault(rest, {}) if rest else dict.fromkeys(after, {(0,) * rs.dim: ()})
            missing = [(rest, a) for a in after if a not in ends]
            if missing:
                todo += missing
                continue
            index: dict = {}
            for move in moves:
                for offset in ends[move[1]]:
                    index.setdefault(vadd(offset, move[3]), []).append(move)
            shared: dict = {}  # equal move lists share one tuple
            table[m] = {offset: shared.setdefault(tuple(ms), tuple(ms)) for offset, ms in index.items()}
        todo.pop()
    return offsets[blocks][mask]


def enumerate_of_type(rs: RootSystem, gtype: GalleryType, target: Vec | None = None, folded: bool = False):
    """All galleries with source 0 of the given type, in depth-first order
    (each edge's germs in orbit order, which sorts them), each with the
    germs taken as its directions().  One loop over an explicit stack, one
    level per block of the type's walk_plan taking the block_moves out of
    its boundary, so a long type needs no deeper Python stack; ValueError
    unless the type splits into fundamental blocks.  With folded, only the
    positively folded galleries, in the same order: each block reads its
    moves at the chain mask the previous one left.

    With a target, only the galleries ending at it (modulo the invariant
    line in type A): a boundary v takes only the moves offset_index keeps
    at target - v, each suffix's index resolved once per walk, so every
    move taken lies on a gallery that ends on the target.  In type A every
    germ keeps its coordinate sum, so the target is first moved along (1,
    ..., 1) to the sum of the reference germs, where every gallery of the
    type ends; none ends on it when that is not a whole step."""
    gtype = tuple(gtype)
    germs, suffixes = walk_plan(rs, gtype)
    origin = (0,) * rs.dim
    if target is not None and rs.family == "A":
        shift, rem = divmod(sum(map(sum, germs)) - sum(target), rs.dim)
        if rem:
            return
        target = tuple([a + shift for a in target])
    if not gtype:
        if target is None or target == origin:
            yield Gallery((origin,), gtype)
        return
    start = 1 << rs.w0 if folded else None  # every class lies below w0
    if target is None:
        tables, first = None, block_moves(rs, suffixes[0][0], start)
    else:
        tables = [rs.weyl.offsets.setdefault(suffix, {}) for suffix in suffixes]
        first = offset_index(rs, suffixes[0], start).get(target, ())
    stack = [(iter(first), (origin,), ())]  # per level: its moves, the vertices and germs before it
    while stack:
        moves, path, taken = stack[-1]
        k, v = len(stack), path[-1]  # k: the block after this level's
        for dirs, mask, _, _ in moves:
            w = vadd(v, dirs[0])
            reached = (w, vadd(w, dirs[1])) if len(dirs) > 1 else (w,)
            if k == len(suffixes):
                g = Gallery(path + reached, gtype)
                object.__setattr__(g, "_directions", taken + dirs)
                yield g
                continue
            if tables is None:
                nxt = block_moves(rs, suffixes[k][0], mask)
            else:
                index = tables[k].get(mask) or offset_index(rs, suffixes[k], mask)
                nxt = index[vsub(target, reached[-1])]
            stack.append((iter(nxt), path + reached, taken + dirs))
            break
        else:
            stack.pop()


def crossing_counts(rs: RootSystem, g: Gallery) -> tuple:
    """(positive, negative, total) wall crossings over all (V_i, E_i)."""
    plus = minus = 0
    for v, d in zip(g.vertices, g.directions()):
        p, m = crossings(rs, v, d)
        plus += p
        minus += m
    return plus, minus, plus + minus


def gallery_to_jsonable(rs: RootSystem, g: Gallery) -> dict:
    """Vertices in ambient coordinates, as exact "p/q" strings."""
    return {
        "vertices": [[str(x) for x in rs.ambient(v)] for v in g.vertices],
        "edge_types": [t.tag() for t in g.gtype],
    }
