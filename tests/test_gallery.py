import json
from itertools import accumulate
from operator import le

import pytest
from hypothesis import given, settings, strategies as st

from hlgal.apartment import EdgeType, expected_germ, local_data, local_key
from hlgal.folding import has_maximal_crossings, is_positively_folded
from hlgal.hlengine import L_polynomial
from hlgal.gallery import (
    Gallery,
    chain_step,
    crossing_counts,
    enumerate_of_type,
    fundamental_type,
    gallery_to_jsonable,
    outgoing_edges,
    reference_germs,
    type_of_lambda,
)
from hlgal.residue import junction_factor
from hlgal.rootdata import vadd, vdiv, vneg, vscale, vsub
from hlgal.verify import dominant_lambdas
from standard_galleries import concat, gamma_lambda, gamma_omega
from systems import ACCEPTANCE_TYPES, root_system
from test_acceptance import MAX_COEFF_SUM, MAX_HEIGHT
from test_apartment import cell_dimension
from test_lattice import from_ambient
from test_memos import reference_defect


def count_of_type(rs, lam):
    """Product of the local orbit sizes along the standard gallery."""
    g = gamma_lambda(rs, lam)
    total = 1
    for v, d in zip(g.vertices, g.directions()):
        total *= len(local_data(rs, v).orbit(d))
    return total


def hull_sums(rs, v):
    """Partial sums of the dominant representative of v's canonical key.

    x lies in the convex hull of the W-orbit of a dominant b exactly when
    no partial sum for x exceeds the same partial sum for b."""
    return tuple(accumulate(rs.dominant_rep(rs.canonical_key(v))))


def recursive_walk(rs, gtype, target=None):
    """The depth-first walk as one recursive generator per edge, in the
    same germ order as enumerate_of_type; the reference its block walk is
    checked against.  Each edge's germs are written out here, apart from
    the walk's edge table and offset index: the local orbit of the germ
    just taken for a second half, else of the edge's reference germ.  With
    a target it cuts a prefix by the orbit hull of the remaining edges'
    reference germs, which holds every vertex they can still reach, so the
    cut drops no gallery that ends on the target."""
    gtype = tuple(gtype)
    germs = reference_germs(rs, gtype)
    origin = (0,) * rs.dim
    if target is not None:
        rest = [origin]  # sums of the last 0, 1, ... reference germs
        for d in reversed(germs):
            rest.append(vadd(rest[-1], d))
        bounds = [hull_sums(rs, b) for b in reversed(rest)]

    def rec(vertices, prev):
        k = len(vertices) - 1
        v = vertices[-1]
        if target is not None and not all(map(le, hull_sums(rs, vsub(target, v)), bounds[k])):
            return
        if k == len(gtype):
            yield Gallery(tuple(vertices), gtype)
            return
        source = prev if gtype[k].segment == "second" else germs[k]
        for d in local_data(rs, v).orbit(source):
            yield from rec(vertices + [vadd(v, d)], d)

    yield from rec([origin], None)


def gallery_from_jsonable(rs, data):
    """Decoder of the CLI's gallery form, the inverse of gallery_to_jsonable."""
    vertices = tuple(from_ambient(rs, v) for v in data["vertices"])
    gtype = []
    for tag in data["edge_types"]:
        index, segment = tag.split(":")
        gtype.append(EdgeType(int(index), segment))
    return Gallery(vertices, tuple(gtype))


def json_roundtrip(rs, g):
    text = json.dumps(gallery_to_jsonable(rs, g), sort_keys=True)
    return gallery_from_jsonable(rs, json.loads(text))


def test_gamma_omega_shapes_a(a3):
    for i in (1, 2, 3):
        g = gamma_omega(a3, i)
        assert g.num_edges() == 1
        assert g.target == a3.fundamental_weights[i - 1]


def test_gamma_omega_c3_two_edges(c3):
    g = gamma_omega(c3, 2)
    assert g.num_edges() == 2
    assert g.vertices[1] == vdiv(c3.fundamental_weights[1], 2)


def test_gamma_omega_b2_spin_single_edge(b2):
    g = gamma_omega(b2, 2)
    assert g.num_edges() == 1


def test_gamma_lambda_zero(a2):
    g = gamma_lambda(a2, a2.weight((0, 0)))
    assert g.num_edges() == 0
    assert g.target == g.vertices[0]


def test_gamma_lambda_a2_three_edges(a2):
    g = gamma_lambda(a2, a2.weight((2, 1)))
    assert g.num_edges() == 3
    assert [t.tag() for t in g.gtype] == ["1:whole", "1:whole", "2:whole"]


def test_gamma_lambda_b2_omega1_through_midpoint(b2):
    g = gamma_lambda(b2, b2.weight((1, 0)))
    assert g.num_edges() == 2
    assert g.vertices[1] == vdiv(b2.weight((1, 0)), 2)


def test_gamma_lambda_rejects_nondominant(a2):
    from hlgal.rootdata import vneg

    with pytest.raises(ValueError):
        gamma_lambda(a2, vneg(a2.weight((1, 0))))


def test_enumeration_counts(a2):
    assert len(tuple(enumerate_of_type(a2, type_of_lambda(a2, a2.weight((1, 0)))))) == 3
    gals = tuple(enumerate_of_type(a2, type_of_lambda(a2, a2.weight((2, 1)))))
    assert len(gals) == 27
    assert len(set(gals)) == 27
    assert gamma_lambda(a2, a2.weight((2, 1))) in gals


def test_enumeration_count_is_orbit_product(b2, c3):
    for rs, coeffs in ((b2, (1, 1)), (c3, (0, 1, 0))):
        lam = rs.weight(coeffs)
        gals = tuple(enumerate_of_type(rs, type_of_lambda(rs, lam)))
        assert len(gals) == count_of_type(rs, lam)
        assert len(set(gals)) == len(gals)


def test_enumeration_sorted_by_direction_sequence(a2, b2, c3, b3):
    # the depth-first walk takes each germ's choices in sorted order, so
    # the galleries come out sorted by their direction sequences
    for rs, coeffs in ((a2, (2, 1)), (b2, (1, 1)), (c3, (0, 1, 0)), (b3, (1, 0, 1))):
        dirs = [g.directions() for g in enumerate_of_type(rs, type_of_lambda(rs, rs.weight(coeffs)))]
        assert dirs == sorted(dirs)
        assert len(set(dirs)) == len(dirs) == count_of_type(rs, rs.weight(coeffs))


@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES)
def test_target_cut_matches_filtered_walk(family, rank):
    # every lambda of the acceptance suite, and every target some gallery
    # reaches, dominant or not
    rs = root_system(family, rank)
    for lam in dominant_lambdas(rs, MAX_COEFF_SUM, MAX_HEIGHT):
        gtype = type_of_lambda(rs, lam)
        full = tuple(enumerate_of_type(rs, gtype))
        targets = {rs.canonical_key(g.target): g.target for g in full}
        for key, target in targets.items():
            want = tuple(g for g in full if rs.canonical_key(g.target) == key)
            assert tuple(enumerate_of_type(rs, gtype, target)) == want, (lam, target)
        if any(lam):
            assert not tuple(enumerate_of_type(rs, gtype, vscale(2, lam)))


WALK_SUITE = [(name, MAX_COEFF_SUM, MAX_HEIGHT) for name in ACCEPTANCE_TYPES] + [
    (("A", 4), 1, 40), (("B", 4), 1, 40), (("C", 4), 1, 40),
]


@pytest.mark.parametrize("name,max_sum,max_height", WALK_SUITE, ids=lambda x: str(x))
def test_walk_matches_recursive_reference(name, max_sum, max_height):
    # the same galleries in the same order, with no target and with every
    # target some gallery reaches; each carries its vertex differences.
    # The folded walk yields the reference's positively folded galleries
    rs = root_system(*name)
    for lam in dominant_lambdas(rs, max_sum, max_height):
        gtype = type_of_lambda(rs, lam)
        full = tuple(recursive_walk(rs, gtype))
        targets = {rs.canonical_key(g.target): g.target for g in full}
        walks = []
        for target in (None, *targets.values()):
            want = full if target is None else tuple(recursive_walk(rs, gtype, target))
            for folded in (False, True):
                if folded:
                    want = tuple(g for g in want if is_positively_folded(rs, g))
                walks.append(tuple(enumerate_of_type(rs, gtype, target, folded)))
                assert walks[-1] == want, (lam, target, folded)
        for g in (g for walk in walks for g in walk):
            assert g.directions() == tuple(map(vsub, g.vertices[1:], g.vertices)), g


@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES)
def test_unreached_targets_walk_nothing(family, rank):
    # two kinds of target that no gallery of the type reaches: the dominant
    # weights one coefficient above lambda, and the W-orbit points of the
    # dominant weights inside lambda's orbit hull that no gallery ends on.
    # The walk yields nothing at each, folded and unfolded, as the
    # reference does, and L is zero at each dominant one
    rs = root_system(family, rank)
    inside = 0
    for lam in dominant_lambdas(rs, MAX_COEFF_SUM, MAX_HEIGHT):
        gtype = type_of_lambda(rs, lam)
        reached = {rs.canonical_key(g.target) for g in enumerate_of_type(rs, gtype)}
        above = [rs.weight([a + (i == j) for j, a in enumerate(rs.weight_coeffs(lam))]) for i in range(rank)]
        hull = [
            nu for nu in dominant_lambdas(rs, MAX_COEFF_SUM + 2, rs.height(lam))
            if all(map(le, hull_sums(rs, nu), hull_sums(rs, lam))) and rs.canonical_key(nu) not in reached
        ]
        inside += len(hull)
        for nu in above + hull:
            assert rs.canonical_key(nu) not in reached, (lam, nu)
            assert L_polynomial(rs, lam, nu).is_zero(), (lam, nu)
            for target in rs.weyl.orbit(nu) if nu in hull else (nu,):
                assert not tuple(recursive_walk(rs, gtype, target)), (lam, target)
                for folded in (False, True):
                    assert not tuple(enumerate_of_type(rs, gtype, target, folded)), (lam, target, folded)
    assert inside


@pytest.mark.parametrize(
    "name,max_sum,max_height", [w for w in WALK_SUITE if w[0][0] == "A"], ids=lambda x: str(x)
)
def test_type_a_target_walk_reads_the_target_modulo_the_line(name, max_sum, max_height):
    # in type A the last edge's germ is looked up along the invariant line
    # (1, ..., 1), so a target moved by a whole step along it walks the same
    # galleries, folded and unfolded.  A target moved by e_1 changes the
    # coordinate sum by one, so no whole step closes it: it walks what the
    # filtered walk keeps
    rs = root_system(*name)
    line = (1,) * rs.dim
    e1 = (1,) + (0,) * (rs.dim - 1)
    for lam in dominant_lambdas(rs, max_sum, max_height):
        gtype = type_of_lambda(rs, lam)
        full = tuple(enumerate_of_type(rs, gtype))
        targets = {rs.canonical_key(g.target): g.target for g in full}
        for target in targets.values():
            stray = vadd(target, e1)
            for folded in (False, True):
                want = tuple(enumerate_of_type(rs, gtype, target, folded))
                for c in (1, -1):
                    moved = vadd(target, vscale(c, line))
                    assert tuple(enumerate_of_type(rs, gtype, moved, folded)) == want, (lam, moved, folded)
                filtered = tuple(
                    g for g in full
                    if rs.canonical_key(g.target) == rs.canonical_key(stray)
                    and (not folded or is_positively_folded(rs, g))
                )
                assert tuple(enumerate_of_type(rs, gtype, stray, folded)) == filtered, (lam, stray, folded)


def fundamental_blocks(rs):
    """(edge types, reference germs) of each fundamental block, omega_1 first."""
    return [(fundamental_type(rs, i), reference_germs(rs, fundamental_type(rs, i)))
            for i in range(1, rs.rank + 1)]


def check_chain_cut(rs, max_depth=None):
    """The walks' folding and crossing-bound cuts, checked against both
    halves of positive folding and the block gap written out, on every
    block-boundary state that some sequence of fundamental blocks (any
    order, repeats allowed) reaches.  A block boundary is a weight, so a
    wall of every direction passes through it: its local group is W, with
    the origin's local key.  A midpoint's local key depends on its germ
    alone.  So all this check reads at a boundary depends only on (prev,
    mask), and each such state is walked from the origin, the first being
    (None, 1 << rs.w0), where every folded walk starts.

    A worklist takes each state through every block 1..rank, stepping the
    (vertex, prev, mask) states edge by edge and cutting an edge only where
    chain_step returns 0.  It asserts that every kept edge after the first
    has a non-zero junction factor with prev, and that the gap of the block
    it closes is <= 0 and is the edge table's defect.  It asserts that every
    boundary vertex reached has the origin's local key, and enqueues each
    new (prev, mask) it ends in.  The states are finite, so the worklist
    empties; with max_depth k it stops after k blocks, which by translation
    covers every sequence of at most k blocks.  Returns (kept edges
    checked, chain-cut edges with a zero factor, kept second halves cut by
    a negative defect, the (prev, mask) states grouped by the number of
    blocks that first reaches them)."""
    origin = (0,) * rs.dim
    home = local_key(rs, origin)
    blocks = fundamental_blocks(rs)
    steps = {}  # (state, edge type, reference germ) -> the states it reaches
    kept = zeros = cut = 0

    def step(layer, etype, reference):
        nonlocal kept, zeros, cut
        nxt = set()
        for state in layer:
            hit = steps.get((state, etype, reference))
            if hit is None:
                v, prev, mask = state
                table = {d: defect for d, _, defect in outgoing_edges(rs, v, etype, reference, prev, mask)}
                hit = []
                source = prev if etype.segment == "second" else reference
                for d in local_data(rs, v).orbit(source):
                    reachable = chain_step(rs, mask, d)
                    zero = prev is not None and junction_factor(rs, v, vneg(prev), d).is_zero()
                    if reachable:
                        gap = reference_defect(rs, v, etype, reference, prev, d)
                        assert not zero and gap <= 0, (rs.family, rs.rank, v, prev, mask, d, gap)
                        assert table[d] == gap, (rs.family, rs.rank, v, prev, mask, d)
                        kept += prev is not None
                        cut += gap < 0
                        hit.append((vadd(v, d), d, reachable))
                    else:
                        zeros += zero
                assert [d for _, d, _ in hit] == list(table)
                hit = steps[(state, etype, reference)] = tuple(hit)
            nxt.update(hit)
        return nxt

    depths = [{(None, 1 << rs.w0)}]  # the states first reached after 0, 1, ... blocks
    seen = set(depths[0])
    while depths[-1] and (max_depth is None or len(depths) <= max_depth):
        found = set()
        for gtype, germs in blocks:
            layer = {(origin, prev, mask) for prev, mask in depths[-1]}
            for etype, reference in zip(gtype, germs):
                layer = step(layer, etype, reference)
            for v, d, reachable in layer:
                assert local_key(rs, v) == home, (rs.family, rs.rank, v)
                found.add((d, reachable))
        depths.append(found - seen)
        seen |= found
    if not depths[-1]:
        depths.pop()
    return kept, zeros, cut, depths


# boundary states of check_chain_cut's closure, the start (None, 1 << w0) included
CLOSURE_STATES = {("A", 1): 3, ("A", 2): 13, ("B", 2): 17, ("C", 2): 17, ("A", 3): 73,
                  ("B", 3): 145, ("C", 3): 145, ("A", 4): 481, ("B", 4): 1537, ("C", 4): 1537}
# blocks per sequence where tier-1 stops short of the closure (CI runs it whole)
CHAIN_CUT_DEPTHS = {("B", 4): 1, ("C", 4): 1}
# blocks per sequence of the closure's cross-check against the bounded walk
CHAIN_CUT_BOUNDS = {("A", 1): 4, ("A", 2): 3, ("B", 2): 3, ("C", 2): 3, ("A", 3): 2,
                    ("B", 3): 2, ("C", 3): 2, ("A", 4): 2, ("B", 4): 1, ("C", 4): 1}


@pytest.mark.parametrize("family,rank", list(CLOSURE_STATES))
def test_chain_cut_keeps_no_zero_junction(family, rank):
    # the folded walk and the character walk cut by the defining chain
    # alone; the junction half of positive folding must never fire on what
    # the chain keeps, and it does fire on edges the chain cuts.  The
    # character walk also cuts by the block gap, which must never be
    # positive, and is negative on some kept second half wherever there
    # are half edges (types B and C).  The closure saturates at depth rank
    depth = CHAIN_CUT_DEPTHS.get((family, rank))
    kept, zeros, cut, depths = check_chain_cut(root_system(family, rank), depth)
    assert kept and zeros and bool(cut) == (family != "A")
    if depth is None:
        assert sum(map(len, depths)) == CLOSURE_STATES[(family, rank)]
        assert len(depths) == rank + 1


@pytest.mark.parametrize("family,rank", list(CHAIN_CUT_BOUNDS))
def test_closure_matches_the_bounded_walk(family, rank):
    # the closure walks each boundary state from the origin; a gallery walk
    # meets it wherever its blocks end.  The boundary states that the edge
    # table reaches over every sequence of at most k blocks, translated to
    # the origin, are the closure's states within k blocks
    rs = root_system(family, rank)
    k = CHAIN_CUT_BOUNDS[(family, rank)]
    blocks = fundamental_blocks(rs)
    layer = reached = {((0,) * rs.dim, None, 1 << rs.w0)}
    for _ in range(k):
        nxt = set()
        for gtype, germs in blocks:
            states = layer
            for etype, reference in zip(gtype, germs):
                states = {(vadd(v, d), d, reachable) for v, prev, mask in states
                          for d, reachable, _ in outgoing_edges(rs, v, etype, reference, prev, mask)}
            nxt |= states
        layer = nxt
        reached = reached | layer
    *_, depths = check_chain_cut(rs, k)
    assert {(prev, mask) for _, prev, mask in reached} == set().union(*depths)


@pytest.mark.parametrize("family,rank", [(family, rank) for family in "ABC" for rank in range(1, 5)])
def test_chain_starts_at_w0(family, rank):
    # every folded walk starts its chain at 1 << w0: every chamber class
    # lies Bruhat-below w0, so the first step keeps every class containing
    # the germ, as a chain with no constraint would
    rs = root_system(family, rank)
    germs = 0
    for i in range(1, rank + 1):
        for d in rs.weyl.orbit(expected_germ(rs, fundamental_type(rs, i)[0])):
            assert chain_step(rs, 1 << rs.w0, d) == rs.chamber_class_mask(d), (i, d)
            germs += 1
    assert germs >= 2 * rank


def table_defects(rs, g):
    """The edge table's defect of each edge of a positively folded gallery,
    read at the state its own prefix reaches."""
    out, prev, mask = [], None, 1 << rs.w0
    for v, etype, reference, d in zip(g.vertices, g.gtype, reference_germs(rs, g.gtype), g.directions()):
        _, mask, defect = next(e for e in outgoing_edges(rs, v, etype, reference, prev, mask) if e[0] == d)
        out.append(defect)
        prev = d
    return out


@pytest.mark.parametrize("name,max_sum,max_height", WALK_SUITE, ids=lambda x: str(x))
def test_defects_sum_to_the_crossing_bound_gap(name, max_sum, max_height):
    # the character walk decides LS block by block: along every positively
    # folded gallery the defects sum to scale times 2P - height(lambda) -
    # height(mu), none is positive, and the gallery is LS by the
    # per-gallery reference exactly when every one is 0
    rs = root_system(*name)
    ls = 0
    for lam in dominant_lambdas(rs, max_sum, max_height):
        for g in enumerate_of_type(rs, type_of_lambda(rs, lam), folded=True):
            defects = table_defects(rs, g)
            gap = 2 * crossing_counts(rs, g)[0] - rs.height(lam) - rs.height(g.target)
            assert sum(defects) == rs.scale * gap and max(defects, default=0) <= 0, g
            assert has_maximal_crossings(rs, g) == (not any(defects)), g
            ls += not any(defects)
    assert ls


def test_concat_target_arithmetic(a2):
    g1 = gamma_omega(a2, 1)
    g2 = gamma_omega(a2, 2)
    both = concat(a2, g1, g2)
    from hlgal.rootdata import vsub

    assert vsub(both.target, g1.target) == vsub(g2.target, g2.vertices[0])


def test_concat_associative(b2):
    g1 = gamma_omega(b2, 1)
    g2 = gamma_omega(b2, 2)
    g3 = gamma_omega(b2, 1)
    left = concat(b2, concat(b2, g1, g2), g3)
    right = concat(b2, g1, concat(b2, g2, g3))
    assert left == right


def test_crossing_counts_standard(a2):
    rs = a2
    lam = rs.weight((2, 1))
    g = gamma_lambda(rs, lam)
    plus, minus, total = crossing_counts(rs, g)
    assert (plus, minus) == (rs.height(lam), 0)
    w0g = Gallery(tuple(rs.act(rs.w0, v) for v in g.vertices), g.gtype)
    assert crossing_counts(rs, w0g)[0] == 0


def test_crossings_constant_on_type_and_cell_dim(b2):
    rs = b2
    lam = rs.weight((1, 1))
    height = rs.height(lam)
    for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
        plus, minus, total = crossing_counts(rs, g)
        assert total == height
        assert cell_dimension(rs, g) == plus


def test_cell_dimension_of_standard_gallery(c3):
    rs = c3
    lam = rs.weight((0, 1, 0))
    assert cell_dimension(rs, gamma_lambda(rs, lam)) == rs.height(lam)


def test_json_roundtrip_exact(b2):
    g = gamma_lambda(b2, b2.weight((1, 1)))
    assert json_roundtrip(b2, g) == g


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["A2", "B2", "C2"]), st.integers(0, 20))
def test_json_roundtrip_enumerated(name, pick):
    rs = root_system(name[0], int(name[1]))
    gals = tuple(enumerate_of_type(rs, type_of_lambda(rs, rs.weight((1, 1)))))
    g = gals[pick % len(gals)]
    assert json_roundtrip(rs, g) == g


def test_malformed_type_rejected(b2):
    with pytest.raises(ValueError):
        tuple(enumerate_of_type(b2, (EdgeType(1, "first"),)))
    with pytest.raises(ValueError):
        tuple(enumerate_of_type(b2, (EdgeType(1, "second"),)))
    # omega_1 of B2 is not minuscule, so its block is two half-edges
    with pytest.raises(ValueError):
        tuple(enumerate_of_type(b2, (EdgeType(1, "whole"),)))
    # indices run over 1 .. rank: 0 is not read as the last weight, and an
    # index past the rank is a ValueError, not an IndexError
    for index in (0, 3):
        with pytest.raises(ValueError, match="outside"):
            tuple(enumerate_of_type(b2, (EdgeType(index, "whole"),)))
