"""Combinatorial one-skeleton galleries of a fixed type.

A gallery is an alternating chain of vertices and edges in the apartment,
starting at the origin, with source and target special.  The only gallery
types handled are concatenations of fundamental galleries; the standard
gallery for a dominant weight uses the Bourbaki block order
omega_1^{a_1} * ... * omega_n^{a_n}.

Every walk reads one edge rule, outgoing_edges: the germs an edge can
take out of a (vertex, incoming germ, chain mask) state, memoised on the
vertex's local group.  The folded gallery walk and the LS character walk
of the hlengine module read it at the chain mask each germ leaves, so an
edge is cut by chain_step alone, where the defining chain dies; the
unfolded walk reads it at mask None, which keeps every germ.  Each edge
also carries its block's crossing-bound defect, which only the character
walk reads.  That the chain cut never keeps an edge with a zero junction
factor (the other half of positive folding) or a positive defect is
checked for every gallery type made of fundamental blocks at rank <= 4,
by exhaustion of a finite state set (check_chain_cut in the gallery
tests); no proof.

What a walk needs of its type alone is its walk plan (walk_plan): the
edges' reference germs and the hull bounds of every suffix of them, built
once per type and kept on the root system, as are the standard types of
the dominant weights (type_of_lambda).  A row of L walks one type once
per mu, and pays for neither again.  A walk with a target tries no germ
on its last edge: only one germ can end it on the target, and
closing_edges looks that germ's entry up in the edge table.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import accumulate
from operator import le

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


def _origin(rs: RootSystem) -> Vec:
    return (0,) * rs.dim


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


def _hull_sums(rs: RootSystem, v: Vec) -> tuple:
    """Partial sums of the dominant representative of v's canonical key.

    x lies in the convex hull of the W-orbit of a dominant b exactly when
    no partial sum for x exceeds the same partial sum for b."""
    return tuple(accumulate(rs.dominant_rep(rs.canonical_key(v))))


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
    """(germs, bounds): the reference germs of the type's edges, and for
    each k = 0 .. len(gtype) the hull sums of the sum of germs[k:], which
    bound where the edges from step k on can still take a walk.  Built
    once per type and kept in ``rs.walk_plans``; ValueError, storing
    nothing, unless the type splits into fundamental blocks."""
    plan = rs.walk_plans.get(gtype)
    if plan is None:
        germs = tuple(reference_germs(rs, gtype))
        # sums of the last len(gtype), ..., 1, 0 reference germs
        rest = list(accumulate(reversed(germs), vadd, initial=_origin(rs)))[::-1]
        plan = rs.walk_plans[gtype] = (germs, tuple(_hull_sums(rs, b) for b in rest))
    return plan


def chain_step(rs: RootSystem, reachable: int | None, d: Vec) -> int:
    """One step of the defining chain's forward pass: the chamber classes
    (as a bit mask) containing germ d that lie Bruhat-below something in
    ``reachable``.  reachable None means no chain constraint (the first
    edge, or an unfolded walk): every class containing d, never 0.  0 when
    the chain dies here."""
    mask = rs.chamber_class_mask(d)
    return mask if reachable is None else mask & rs.below_closure_mask(reachable)


def outgoing_edges(
    rs: RootSystem, v: Vec, etype: EdgeType, reference: Vec, prev: Vec | None, mask: int | None
) -> tuple:
    """The one edge rule every walk reads: (d, reachable, defect) for every
    germ d an edge of the type can take out of the state (v, prev, mask)
    that chain_step keeps, with the chain mask after d.  The germs are the
    local orbit at v of the germ just taken (prev) for a second half, else
    of the edge's reference germ, in orbit order, which sorts them; with
    mask None every germ of the orbit is kept.

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
            reachable = chain_step(rs, mask, d)
            if reachable:
                hit.append((d, reachable, excess(d) - excess(prev) if second else 0))
        hit = local.edges[key] = tuple(hit)
    return hit


def enumerate_of_type(rs: RootSystem, gtype: GalleryType, target: Vec | None = None, folded: bool = False):
    """All galleries with source 0 of the given type, in a reproducible
    depth-first order (each edge's germs in orbit order, which sorts them
    lexicographically).

    The walk is one loop over an explicit stack of per-step edge
    iterators, so a long type needs no deeper Python stack than a short
    one.  Each edge takes its germs from outgoing_edges, the one edge rule
    every walk reads, and each gallery comes with the germs taken as its
    directions().  The reference germs and suffix hull bounds come from
    the type's walk_plan, built once per root system (``rs.walk_plans``);
    ValueError unless the type splits into fundamental blocks.  With a
    target, only the galleries ending at it (modulo the invariant line in
    type A) are walked.  In type A every germ keeps its coordinate sum, so
    the target is first moved along the line (1, ..., 1) to the sum of the
    reference germs, where every gallery of the type ends; none ends on it
    when that is not a whole step.  Every edge from step k on lies in the
    W-orbit of its dominant reference germ, so the rest of the walk stays
    in the orbit hull of their sum, the plan's bound k, and a prefix whose
    target offset lies outside it is cut.  The hull sums of each offset,
    the target's own included, are memoised on the root system
    (``rs.hulls``), as they depend on nothing else.  The last edge is
    looked up, not tried: its level keeps only the entry closing_edges
    finds, the one germ that ends on the target, and that edge gets no
    hull test.  At most one germ survives, so the depth-first order is
    unchanged.

    With folded, only the positively folded galleries are walked, in the
    same order: each level of the stack reads the table at the chain mask
    its germ left, so a germ where the defining chain dies is never
    offered.  Unfolded, every level reads it at mask None, which keeps
    every germ of the local orbit."""
    gtype = tuple(gtype)
    germs, bounds = walk_plan(rs, gtype)
    origin = _origin(rs)
    if target is not None:
        hulls = rs.hulls
        sums = hulls.get(target)
        if sums is None:
            sums = hulls[target] = _hull_sums(rs, target)
        if not all(map(le, sums, bounds[0])):
            return
        if rs.family == "A":
            shift, rem = divmod(sum(map(sum, germs)) - sum(target), rs.dim)
            if rem:
                return
            target = tuple([a + shift for a in target])
    if not gtype:
        yield Gallery((origin,), gtype)
        return
    last = len(gtype) - 1
    path, taken = [origin], []  # the prefix: vertices V_0 .. V_k, germs E_0 .. E_{k-1}
    table = outgoing_edges(rs, origin, gtype[0], germs[0], None, None)
    if not last and target is not None:
        table = closing_edges(table, target)
    stack = [iter(table)]
    while stack:
        k = len(taken)
        for d, reachable, _ in stack[-1]:
            v = vadd(path[k], d)
            if k == last:
                g = Gallery((*path, v), gtype)
                object.__setattr__(g, "_directions", (*taken, d))
                yield g
                continue
            if target is not None:
                offset = vsub(target, v)
                sums = hulls.get(offset)
                if sums is None:
                    sums = hulls[offset] = _hull_sums(rs, offset)
                if not all(map(le, sums, bounds[k + 1])):
                    continue
            table = outgoing_edges(rs, v, gtype[k + 1], germs[k + 1], d, reachable if folded else None)
            if k + 1 == last and target is not None:
                table = closing_edges(table, offset)
            path.append(v)
            taken.append(d)
            stack.append(iter(table))
            break
        else:
            stack.pop()
            path.pop()
            if taken:
                taken.pop()


def closing_edges(table: tuple, offset: Vec) -> tuple:
    """The entry of an outgoing_edges table whose germ is offset = target -
    v, the one germ that takes the walk from v to its target, found by
    bisection in the germ-sorted table; () when the table lacks it."""
    i = bisect_left(table, (offset,))  # (offset,) sorts before (offset, ...)
    return table[i : i + 1] if i < len(table) and table[i][0] == offset else ()


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
