"""The per-vertex and per-germ memos against reference loops.

Each memo is checked on a fresh root system, so the first pass fills it
and the second reads it back; the references below are the unmemoised
loops, written out here.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product

import pytest

from hlgal.apartment import (
    EdgeType,
    crossings,
    expected_germ,
    local_data,
    local_data_for_key,
    local_key,
)
from hlgal.folding import enumerate_pf
from hlgal.gallery import (
    Gallery,
    block_moves,
    chain_step,
    enumerate_of_type,
    fundamental_type,
    offset_index,
    outgoing_edges,
    reference_germs,
    type_of_lambda,
    walk_plan,
)
from hlgal.hlengine import character_LS, ls_character_of_type
from hlgal.oracles import hall_littlewood_direct
from hlgal.residue import junction_factor
from hlgal.rootdata import HashedWeight, RootSystem, RootSystemSpec, pairing, vadd, vneg, vscale, vsub
from hlgal.tableaux import Tableau, bar, gallery_to_tableau, tableau_to_gallery
from hlgal.verify import _dominant_mus, dominant_lambdas
from systems import (
    ACCEPTANCE_TYPES,
    all_reduced_words,
    group_elements,
    group_length,
    in_chamber_closure,
    root_system,
    scan_closest,
)
from test_tableaux import MALFORMED

RANK_4_TYPES = [("A", 4), ("B", 4), ("C", 4)]
# (coefficient sum, height) bounds of the dominant weights walked
BOUNDS = {name: (2, 16) for name in ACCEPTANCE_TYPES} | {name: (1, 40) for name in RANK_4_TYPES}


def reached_germs(rs):
    """Every (vertex, germ) met by the standard galleries of the dominant
    weights of bounded coefficient sum: each edge's outgoing germ at its
    start and its incoming germ at its end."""
    out = {}
    for lam in dominant_lambdas(rs, *BOUNDS[(rs.family, rs.rank)]):
        for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
            for j, d in enumerate(g.directions()):
                out[(g.vertices[j], d)] = None
                out[(g.vertices[j + 1], vneg(d))] = None
    return list(out)


@lru_cache(maxsize=None)
def walls_through(family, rank, v):
    """The positive coroots whose walls pass through v: those with an
    integral pairing with v's exact ambient coordinates, as Fractions.
    Keyed by the type, so no fresh root system is kept alive."""
    rs = root_system(family, rank)
    x = rs.ambient(v)
    return tuple(c for c in rs.pos_coroots if pairing(x, c).denominator == 1)


def reference_crossings(rs, v, d):
    plus = minus = 0
    for c in walls_through(rs.family, rs.rank, v):
        side = pairing(d, c)
        if side > 0:
            plus += 1
        elif side < 0:
            minus += 1
    return plus, minus


@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES + RANK_4_TYPES, ids=lambda x: str(x))
def test_memos_match_reference_loops(family, rank):
    germs = reached_germs(root_system(family, rank))
    rs = RootSystem(RootSystemSpec(family, rank))
    assert not rs.vertex_locals and not rs.local_groups
    first = {}
    for pass_no in range(2):
        for v, d in germs:
            local = local_data(rs, v)
            assert local is local_data_for_key(rs, local_key(rs, v))
            closest = local.closest_chamber(d)
            assert closest == scan_closest(local, d)
            pair = reference_crossings(rs, v, d)
            assert crossings(rs, v, d) == pair
            if pass_no == 0:
                first[(v, d)] = (local, closest)
            else:
                # the second pass reads the objects the first one stored
                assert first[(v, d)][0] is local
                assert first[(v, d)][1] is closest
                assert local.closest[d] is closest and local.crossings[d] == pair
    assert set(rs.vertex_locals) == {v for v, _ in germs}


@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES, ids=lambda x: str(x))
def test_base_face_is_the_closest_chamber_preimage(family, rank):
    # the fold/cross walk ends on u^-1 d for the closest chamber u of d:
    # the orbit of d meets the closed base chamber exactly once, there
    rs = root_system(family, rank)
    for v, d in reached_germs(rs):
        local = local_data(rs, v)
        scan = [x for x in local.orbit(d) if in_chamber_closure(local, 0, x)]
        assert len(scan) == 1, (v, d, scan)
        u, _ = local.closest_chamber(d)
        assert rs.act(rs.inverse[u], d) == scan[0]



@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES, ids=lambda x: str(x))
def test_local_reduced_words_are_least(family, rank):
    # reduced_word is the descent of a point interior to w * base; at every
    # local group the standard galleries meet (only W in type A, where every
    # vertex is special) it is w's least reduced word
    rs = root_system(family, rank)
    groups = {id(g): g for g in (local_data(rs, v) for v, _ in reached_germs(rs))}
    for group in groups.values():
        for w in group_elements(group):
            word = group.reduced_word(w)
            assert word == min(all_reduced_words(group, w)), (group.simples, w)
            assert len(word) == group_length(group, w)

TYPES_TO_RANK_4 = [
    ("A", 1), ("A", 2), ("A", 3), ("A", 4),
    ("B", 2), ("B", 3), ("B", 4),
    ("C", 2), ("C", 3), ("C", 4),
]


def test_first_factor_exponent_counts_positive_crossings():
    # l(w_D0), the closest-chamber length at the origin, equals the number
    # of walls the first germ leaves into their positive side, which is the
    # first factor's exponent; the two memos are filled by different code
    checked = 0
    for family, rank in TYPES_TO_RANK_4:
        rs = root_system(family, rank)
        origin = (0,) * rs.dim
        local = local_data(rs, origin)
        for i in range(1, rank + 1):
            head = fundamental_type(rs, i)[0]
            for d in local.orbit(expected_germ(rs, head)):
                assert rs.length[local.closest_chamber(d)[0]] == crossings(rs, origin, d)[0]
                checked += 1
    assert checked == 280


def reference_defect(rs, v, etype, reference, prev, d):
    """scale times the crossing-bound gap of the block that the edge from v
    along d closes, written out: 2 * (its positive crossings) against the
    heights of its germs and of omega_i.  A whole edge is its own block;
    a second half closes the block of the half prev it follows, from the
    whole vertex v - prev; a first half closes none, so 0."""
    if etype.segment == "first":
        return 0
    if etype.segment == "whole":
        plus, germs, omega = reference_crossings(rs, v, d)[0], d, reference
    else:
        plus = reference_crossings(rs, vsub(v, prev), prev)[0] + reference_crossings(rs, v, d)[0]
        germs, omega = vadd(prev, d), vscale(2, reference)
    return 2 * rs.scale * plus - pairing(germs, rs.two_rho) - pairing(omega, rs.two_rho)


def reference_edges(rs, v, etype, reference, prev, mask, folded):
    """The walk's edges out of the state (v, prev, mask).  Folded, by both
    halves of positive folding: the germs of the edge's local orbit with a
    non-zero junction factor and a live chain.  The walk cuts by the chain
    alone, so comparing the two cross-checks that rule on every reached
    state.  Unfolded (mask None), every germ of the orbit, with mask None
    and no junction cut.  Each germ comes with its block's defect."""
    out = []
    source = prev if etype.segment == "second" else reference
    for d in local_data(rs, v).orbit(source):
        defect = reference_defect(rs, v, etype, reference, prev, d)
        if not folded:
            out.append((d, None, defect))
            continue
        if prev is not None and junction_factor(rs, v, vneg(prev), d).is_zero():
            continue
        reachable = chain_step(rs, mask, d)
        if reachable:
            out.append((d, reachable, defect))
    return tuple(out)


def reached_states(rs):
    """(v, etype, reference, prev, mask) -> its reference edges, for every
    state the folded and the unfolded walks meet on the standard types of
    the dominant weights of bounded coefficient sum, found layer by layer
    from the reference.  The unfolded walk's mask is None at every edge;
    the folded walk starts at 1 << rs.w0."""
    out = {}
    for lam in dominant_lambdas(rs, *BOUNDS[(rs.family, rs.rank)]):
        gtype = type_of_lambda(rs, lam)
        for folded in (True, False):
            layer = {((0,) * rs.dim, None, 1 << rs.w0 if folded else None)}
            for etype, reference in zip(gtype, reference_germs(rs, gtype)):
                nxt = set()
                for v, prev, mask in layer:
                    edges = reference_edges(rs, v, etype, reference, prev, mask, folded)
                    assert out.setdefault((v, etype, reference, prev, mask), edges) == edges
                    nxt.update((vadd(v, d), d, reachable) for d, reachable, _ in edges)
                layer = nxt
    return out


@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES + RANK_4_TYPES, ids=lambda x: str(x))
def test_edge_table_matches_reference_loop(family, rank):
    states = reached_states(root_system(family, rank))
    rs = RootSystem(RootSystemSpec(family, rank))
    first = {}
    keys = set()
    for pass_no in range(2):
        for state, want in states.items():
            v, etype, reference, prev, mask = state
            hit = outgoing_edges(rs, v, etype, reference, prev, mask)
            assert hit == want, state
            key = (prev if etype.segment == "second" else reference, mask)
            keys.add((id(local_data(rs, v)),) + key)
            if pass_no == 0:
                first[state] = hit
            else:
                # the second pass reads the tuples the first one stored
                assert first[state] is hit
                assert local_data(rs, v).edges[key] is hit
    # one entry per (local group, source, mask) the states meet
    assert sum(len(group.edges) for group in rs.local_groups.values()) == len(keys)


@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES + RANK_4_TYPES, ids=lambda x: str(x))
def test_character_walk_computes_no_junction_factor(family, rank):
    # the LS path cuts by the defining chain alone, so characters on a
    # fresh root system fill no local group's junction-factor memo
    rs = RootSystem(RootSystemSpec(family, rank))
    for lam in dominant_lambdas(rs, *BOUNDS[(family, rank)]):
        assert character_LS(rs, lam)
    assert rs.local_groups
    assert all(not group.factors for group in rs.local_groups.values())


@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES + RANK_4_TYPES, ids=lambda x: str(x))
def test_edge_tables_serve_lambdas_in_any_order(family, rank):
    # the edge tables and the block tables one lambda fills serve the
    # next: the characters agree when two fresh root systems take the
    # lambdas in opposite orders, both fill equal block tables, and the
    # moves of defect 0 in every folded block table are the written-out
    # list of LS moves
    lams = dominant_lambdas(root_system(family, rank), *BOUNDS[(family, rank)])
    forward, backward = RootSystem(RootSystemSpec(family, rank)), RootSystem(RootSystemSpec(family, rank))
    chars = [character_LS(forward, lam) for lam in lams]
    assert chars == [character_LS(backward, lam) for lam in reversed(lams)][::-1]
    assert forward.weyl.moves and forward.weyl.moves == backward.weyl.moves
    for rs in (forward, backward):
        for (i, mask), moves in rs.weyl.moves.items():
            assert mask is not None
            assert block_moves(rs, i, mask) is moves
            ls_moves = [(offset, after) for _, after, defect, offset in moves if not defect]
            assert ls_moves == reference_ls_moves(rs, i, mask), (i, mask)


def walk_everything(rs, lams, mus, reverse):
    """Characters, then unfolded walks, then the folded walk at every
    dominant target, of the given lambdas; with reverse, the three phases
    and the lambdas within each run the other way round.  Returns the
    results in the forward order."""
    def plain(galleries):
        return tuple((g.vertices, g.directions()) for g in galleries)

    phases = [
        lambda lam: character_LS(rs, lam),
        lambda lam: plain(enumerate_of_type(rs, type_of_lambda(rs, lam))),
        lambda lam: [plain(enumerate_pf(rs, lam, mu)) for mu in mus[lam]],
    ]
    step = -1 if reverse else 1
    results = {}
    for k, phase in list(enumerate(phases))[::step]:
        for lam in lams[::step]:
            results[(k, lam)] = phase(lam)
    return [results[(k, lam)] for k in range(len(phases)) for lam in lams]


@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES + RANK_4_TYPES, ids=lambda x: str(x))
def test_edge_tables_serve_every_walk_in_any_order(family, rank):
    # the character walk, the unfolded walk and the folded, target-pruned
    # walk read one edge table per local group: two fresh root systems
    # running them in opposite orders walk the same galleries and count
    # the same characters
    ref = root_system(family, rank)
    lams = dominant_lambdas(ref, *BOUNDS[(family, rank)])
    mus = {
        lam: _dominant_mus(ref, (g.target for g in enumerate_of_type(ref, type_of_lambda(ref, lam))), ())
        for lam in lams
    }
    forward, backward = RootSystem(RootSystemSpec(family, rank)), RootSystem(RootSystemSpec(family, rank))
    assert walk_everything(forward, lams, mus, False) == walk_everything(backward, lams, mus, True)
    # and both fill the same table entries
    tables = [{key: set(group.edges) for key, group in rs.local_groups.items()} for rs in (forward, backward)]
    assert tables[0] == tables[1] and any(tables[0].values())


def reference_type(rs, lam):
    """The standard type of lambda, written out: omega_i's block a_i times,
    one whole edge for a minuscule omega_i, else two halves."""
    out = []
    for i, a in enumerate(rs.weight_coeffs(lam), start=1):
        whole = rs.fundamental_scale[i - 1] == 1
        out += ((EdgeType(i, "whole"),) if whole else (EdgeType(i, "first"), EdgeType(i, "second"))) * a
    return tuple(out)


def reference_plan(rs, gtype):
    """The walk plan, written out: the reference germs, and the fundamental
    indices of each suffix of the type's blocks, the whole type's first."""
    germs = tuple(reference_germs(rs, gtype))
    firsts = [k for k, t in enumerate(gtype) if t.segment != "second"]
    return germs, tuple(tuple(gtype[j].index for j in firsts[k:]) for k in range(len(firsts)))


def reference_moves(rs, i, mask):
    """The moves of omega_i's block out of a block boundary with chain mask
    ``mask`` (None unfolded), written out from the origin over two levels
    of outgoing_edges for a two-half block, the second half read at the
    first's mask: each (germs, chain mask after, reference_defect of the
    edge that closes the block, the sum of the germs)."""
    origin = (0,) * rs.dim
    block = fundamental_type(rs, i)
    reference = expected_germ(rs, block[0])
    out = []
    for d1, r1, _ in outgoing_edges(rs, origin, block[0], reference, None, mask):
        if len(block) == 1:
            out.append(((d1,), r1, reference_defect(rs, origin, block[0], reference, None, d1), d1))
        else:
            for d2, r2, _ in outgoing_edges(rs, d1, block[1], reference, d1, r1):
                defect = reference_defect(rs, d1, block[1], reference, d1, d2)
                out.append(((d1, d2), r2, defect, tuple(map(sum, zip(d1, d2)))))
    return out


def reference_ls_moves(rs, i, mask):
    """The LS moves of omega_i's block, written out: the reference_moves
    whose closing edge has defect 0 (none may have a positive one), in
    move order, each as (offset, mask after)."""
    out = []
    for dirs, after, defect, _ in reference_moves(rs, i, mask):
        assert defect <= 0, (i, mask, dirs)
        if defect == 0:
            out.append((tuple(map(sum, zip(*dirs))), after))
    return out


def reference_index(rs, blocks, mask):
    """The offset index, written out: each move of blocks[0] listed under
    its step plus every offset that the rest of the blocks reach from its
    chain mask, in move order; with no blocks, offset 0 and no move."""
    @lru_cache(maxsize=None)
    def index(blocks, mask):
        if not blocks:
            return {(0,) * rs.dim: []}
        out = {}
        for move in reference_moves(rs, blocks[0], mask):
            for end in index(blocks[1:], move[1]):
                out.setdefault(tuple(map(sum, zip(end, *move[0]))), []).append(move)
        return out

    return index(blocks, mask)


@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES + RANK_4_TYPES, ids=lambda x: str(x))
def test_hull_memo_serves_targets_in_any_order(family, rank):
    # named for the orbit-hull memo that the offset index replaced.  The
    # index, types and walk plans one target's walk memoises serve the
    # next: two fresh root systems taking every (type, reached target) in
    # opposite orders, folded and unfolded, walk the same galleries and fill
    # equal index tables, and every memo entry is the written-out index,
    # standard type or walk plan
    ref = root_system(family, rank)
    runs = []
    for lam in dominant_lambdas(ref, *BOUNDS[(family, rank)]):
        gtype = type_of_lambda(ref, lam)
        targets = {ref.canonical_key(g.target): g.target for g in enumerate_of_type(ref, gtype)}
        runs += [(lam, target, folded) for target in targets.values() for folded in (False, True)]
    forward, backward = RootSystem(RootSystemSpec(family, rank)), RootSystem(RootSystemSpec(family, rank))
    for rs in (forward, backward):
        assert not rs.weyl.offsets and not rs.lambda_types and not rs.walk_plans

    def walk(rs, lam, target, folded):
        return tuple(enumerate_of_type(rs, type_of_lambda(rs, lam), target, folded))

    walked = [walk(forward, *run) for run in runs]
    assert walked == [walk(backward, *run) for run in reversed(runs)][::-1]
    assert forward.weyl.offsets and forward.weyl.offsets == backward.weyl.offsets
    assert forward.weyl.moves == backward.weyl.moves
    assert forward.lambda_types == backward.lambda_types
    assert forward.walk_plans == backward.walk_plans
    for rs in (forward, backward):
        for blocks, table in rs.weyl.offsets.items():
            for mask, index in table.items():
                assert offset_index(rs, blocks, mask) is index
                want = reference_index(rs, blocks, mask)
                assert {o: list(moves) for o, moves in index.items()} == want
        for (i, mask), moves in rs.weyl.moves.items():
            assert list(moves) == reference_moves(rs, i, mask)
        assert rs.lambda_types.keys() == {lam for lam, _, _ in runs}
        for lam, gtype in rs.lambda_types.items():
            assert gtype == reference_type(rs, lam), lam
            assert type_of_lambda(rs, lam) is gtype
        assert rs.walk_plans.keys() == set(rs.lambda_types.values())
        for gtype, plan in rs.walk_plans.items():
            assert plan == reference_plan(rs, gtype), gtype
            assert walk_plan(rs, gtype) is plan


@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES + RANK_4_TYPES, ids=lambda x: str(x))
def test_rejected_weights_and_types_store_nothing(family, rank):
    # a lambda that is not a dominant weight and a type that does not split
    # into fundamental blocks raise on every call, through every walk, and
    # leave the type and plan memos empty
    rs = fresh(family, rank)
    zeros = (0,) * (rank - 1)
    lams = [rs.weight((-1,) + zeros), rs.weight(zeros + (-1,))]
    if family != "A":
        lams.append((1,) + (0,) * (rs.dim - 1))  # half of epsilon_1: dominant, not a weight
    whole = rs.fundamental_scale[rank - 1] == 1
    gtypes = [
        (EdgeType(0, "whole"),),
        (EdgeType(rank + 1, "whole"),),
        (EdgeType(rank, "first" if whole else "whole"),),
        fundamental_type(rs, 1) + (EdgeType(1, "second"),),  # a stray half after a whole block
    ]
    walks = [
        lambda gtype: list(enumerate_of_type(rs, gtype)),
        lambda gtype: list(enumerate_of_type(rs, gtype, (0,) * rs.dim, folded=True)),
        lambda gtype: ls_character_of_type(rs, gtype),
        lambda gtype: walk_plan(rs, gtype),
    ]
    for _ in range(2):
        for lam in lams:
            for call in (type_of_lambda, character_LS, lambda rs, lam: enumerate_pf(rs, lam, lam)):
                with pytest.raises(ValueError, match="lambda must be a dominant weight"):
                    call(rs, lam)
        for gtype in gtypes:
            for call in walks:
                with pytest.raises(ValueError, match="edge type index|fundamental blocks"):
                    call(gtype)
    assert not rs.lambda_types and not rs.walk_plans


@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES + RANK_4_TYPES, ids=lambda x: str(x))
def test_validated_mus_are_kept_and_rejected_ones_store_nothing(family, rank):
    # enumerate_pf checks a mu once and keeps it in rs.dominant_weights; a
    # mu that is not a dominant weight raises on every call and stores
    # nothing, before and after valid ones are kept
    rs = fresh(family, rank)
    zeros = (0,) * (rank - 1)
    lam = rs.weight((1,) + zeros)
    rejected = [rs.weight((-1,) + zeros), rs.weight(zeros + (-1,))]
    if family != "A":
        rejected.append((1,) + (0,) * (rs.dim - 1))  # half of epsilon_1: dominant, not a weight
    mus = dominant_lambdas(rs, 2, 40)

    def reject_all():
        for _ in range(2):
            for mu in rejected:
                with pytest.raises(ValueError, match="mu must be a dominant weight"):
                    enumerate_pf(rs, lam, mu)

    reject_all()
    assert not rs.dominant_weights
    first = [enumerate_pf(rs, lam, mu) for mu in mus]
    assert rs.dominant_weights == set(mus)
    # a kept mu is read back, not checked again
    rs.is_dominant_weight = lambda v: pytest.fail("a kept mu was checked again")
    assert [enumerate_pf(rs, lam, mu) for mu in mus] == first
    del rs.is_dominant_weight
    reject_all()
    assert rs.dominant_weights == set(mus)


def unfiltered_dominant_mus(rs, targets, pmap):
    """_dominant_mus with the lift written out on every key of the map,
    dominant or not: rank coroot divmods, kept when all are integral and
    non-negative."""
    seen = {}
    for t in targets:
        if rs.is_dominant(t):
            seen.setdefault(rs.canonical_key(t), t)
    for key in pmap:
        coeffs = [divmod(pairing(key, c), rs.key_scale) for c in rs.simple_coroots]
        if all(a >= 0 and rem == 0 for a, rem in coeffs):
            raw = rs.weight([a for a, _ in coeffs])
            seen.setdefault(rs.canonical_key(raw), raw)
    return [seen[k] for k in sorted(seen)]


# coefficient sum bound of the lambdas per type
MUS_SUMS = {
    ("A", 2): 3, ("B", 2): 3, ("C", 2): 3, ("A", 3): 2, ("B", 3): 2, ("C", 3): 2,
    ("A", 4): 2, ("B", 4): 1, ("C", 4): 1,
}


@pytest.mark.parametrize("family,rank", list(MUS_SUMS), ids=lambda x: str(x))
def test_dominant_mus_lift_only_dominant_keys(family, rank):
    # testing dominance before the lift drops no mu: the gallery targets and
    # the oracle map, alone and together, give the unfiltered loop's list
    rs = root_system(family, rank)
    for lam in dominant_lambdas(rs, MUS_SUMS[(family, rank)], 10**6):
        targets = [g.target for g in enumerate_of_type(rs, type_of_lambda(rs, lam))]
        pmap = hall_littlewood_direct(rs, lam)
        for args in ((targets, ()), ((), pmap), (targets, pmap)):
            assert _dominant_mus(rs, *args) == unfiltered_dominant_mus(rs, *args), (lam, args)
    # an oracle map's keys all lift; these need not, nor be dominant
    for key in product(range(-1, 3), repeat=rs.dim):
        assert _dominant_mus(rs, (), {key: 1}) == unfiltered_dominant_mus(rs, (), {key: 1}), key


@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES + RANK_4_TYPES, ids=lambda x: str(x))
def test_key_weight_memo_matches_fractions(family, rank):
    # named for the per-key memo that the per-vertex one replaced.  The
    # characters' weights are the per-vertex memo's objects, each one the
    # vertex's canonical key over key_scale in Fractions, hashed as that
    # plain tuple is
    rs = RootSystem(RootSystemSpec(family, rank))
    for lam in dominant_lambdas(rs, *BOUNDS[(family, rank)]):
        char = character_LS(rs, lam)
        memo = {id(weight) for weight in rs.canonical_weights.values()}
        assert all(id(weight) in memo for weight in char), lam
    assert rs.canonical_weights
    for v, weight in rs.canonical_weights.items():
        plain = tuple(Fraction(a, rs.key_scale) for a in rs.canonical_key(v))
        assert rs.canonical_weight(v) is weight
        assert type(weight) is HashedWeight
        assert weight == plain and hash(weight) == hash(plain)


@pytest.mark.parametrize("family,rank", ACCEPTANCE_TYPES + RANK_4_TYPES, ids=lambda x: str(x))
def test_end_marks_serve_lambdas_in_any_order(family, rank):
    # the end vertices one character memoises serve the next: two fresh root
    # systems taking the lambdas in opposite orders give equal characters,
    # and every memo entry is the vertex's canonical weight, computed here
    # from its ambient coordinates
    lams = dominant_lambdas(root_system(family, rank), *BOUNDS[(family, rank)])
    forward, backward = RootSystem(RootSystemSpec(family, rank)), RootSystem(RootSystemSpec(family, rank))
    assert not forward.canonical_weights and not backward.canonical_weights
    chars = [character_LS(forward, lam) for lam in lams]
    assert chars == [character_LS(backward, lam) for lam in reversed(lams)][::-1]
    assert forward.canonical_weights and forward.canonical_weights.keys() == backward.canonical_weights.keys()
    for rs in (forward, backward):
        for v, weight in rs.canonical_weights.items():
            x = rs.ambient(v)
            shift = sum(x) / rs.dim if family == "A" else 0
            assert weight == tuple(a - shift for a in x), v
            assert weight is rs.canonical_weight(v)


CODEC_TYPES = [(f, n) for f in "ABC" for n in range(1, 5)]


def fresh(family, rank):
    """A root system with empty memos, bypassing build_root_system's cache."""
    return RootSystem(RootSystemSpec(family, rank))


def reference_column(rs, d):
    """The encode rule, written out: letter k for each positive coordinate
    k of the germ, bar(k) for each negative one, in increasing order."""
    return tuple(sorted(k if x > 0 else bar(rs.rank, k) for k, x in enumerate(d, start=1) if x))


def reference_germ(rs, col):
    """The decode rule, written out: the column's height i fixes the step,
    the largest coordinate of omega_i over its scale; letter k adds it to
    coordinate k and bar(k) subtracts it."""
    step = max(rs.fundamental_germs[len(col) - 1])
    d = [0] * rs.dim
    for x in col:
        if rs.family == "A" or x <= rs.rank:
            d[x - 1] += step
        else:
            d[bar(rs.rank, x) - 1] -= step
    return tuple(d)


def orbit_germs(rs):
    """(i, germ) for every germ of the W-orbit of each omega_i's reference germ."""
    return [
        (i, d) for i in range(1, rs.rank + 1) for d in rs.weyl.orbit(rs.fundamental_germs[i - 1])
    ]


def encode(rs, germs):
    origin = (0,) * rs.dim
    return {
        d: gallery_to_tableau(rs, Gallery((origin, d), fundamental_type(rs, i)[:1])).columns[0]
        for i, d in germs
    }


def decode(rs, germs):
    # a block of two equal columns: the midpoint check holds trivially
    out = {}
    for i, d in germs:
        col = reference_column(rs, d)
        tab = Tableau(rs.family, rs.rank, (col,) * len(fundamental_type(rs, i)))
        out[col] = tableau_to_gallery(rs, tab).directions()[0]
    return out


@pytest.mark.parametrize("family,rank", CODEC_TYPES, ids=lambda x: str(x))
def test_codec_tables_match_reference_rules_in_either_order(family, rank):
    # two fresh root systems, one encoding every orbit germ before decoding
    # its column and one the other way round: both fill the same tables,
    # and every entry is the reference rule's answer
    ref = fresh(family, rank)
    germs = orbit_germs(ref)
    columns = {d: reference_column(ref, d) for _, d in germs}
    for encode_first in (True, False):
        rs = fresh(family, rank)
        assert not rs.tableau_columns and not rs.column_germs
        if encode_first:
            enc, dec = encode(rs, germs), decode(rs, germs)
        else:
            dec, enc = decode(rs, germs), encode(rs, germs)
        assert enc == columns
        assert dec == {col: reference_germ(rs, col) for col in columns.values()}
        assert dec == {col: d for d, col in columns.items()}
        assert rs.tableau_columns == enc and rs.column_germs == dec
        # a second pass reads the tables and stores nothing new
        stored = [dict(rs.tableau_columns), dict(rs.column_germs)]
        assert encode(rs, germs) == enc and decode(rs, germs) == dec
        for table, before in zip((rs.tableau_columns, rs.column_germs), stored):
            assert table.keys() == before.keys()
            assert all(table[k] is v for k, v in before.items())


def _messages(cases, systems):
    out = []
    for (family, rank), tab, match in cases:
        with pytest.raises(ValueError, match=match) as info:
            tableau_to_gallery(systems[(family, rank)], tab)
        out.append(str(info.value))
    return out


def test_warm_decode_table_rejects_the_same_tableaux():
    names = {name for name, _, _ in MALFORMED}
    cold = {name: fresh(*name) for name in names}
    warm = {name: fresh(*name) for name in names}
    for rs in warm.values():
        decode(rs, orbit_germs(rs))
    want = _messages(MALFORMED, cold)
    assert _messages(MALFORMED, warm) == want
    # every stored column is valid: the column of its own germ
    for rs in list(cold.values()) + list(warm.values()):
        for col, d in rs.column_germs.items():
            assert reference_column(rs, d) == col and reference_germ(rs, col) == d


@pytest.mark.parametrize("family,rank", CODEC_TYPES, ids=lambda x: str(x))
def test_fundamental_blocks_are_built_once(family, rank):
    rs = fresh(family, rank)
    assert not rs.fundamental_blocks
    for i in range(1, rank + 1):
        block = fundamental_type(rs, i)
        built = (
            (EdgeType(i, "whole"),)
            if rs.fundamental_scale[i - 1] == 1
            else (EdgeType(i, "first"), EdgeType(i, "second"))
        )
        assert block == built
        assert fundamental_type(rs, i) is block and rs.fundamental_blocks[i] is block
    # a standard type is made of those very EdgeTypes
    gtype = type_of_lambda(rs, rs.weight((1,) * rank))
    assert {id(t) for t in gtype} == {id(t) for b in rs.fundamental_blocks.values() for t in b}
