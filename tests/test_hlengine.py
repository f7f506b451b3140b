import gc
import weakref
from collections import Counter
from itertools import permutations

import pytest

import hlgal.folding
import hlgal.gallery
from hlgal.folding import (
    enumerate_pf,
    has_maximal_crossings,
    is_positively_folded,
    locally_positively_folded,
    reaches_degree_bound,
)
from hlgal.gallery import enumerate_of_type, fundamental_type, outgoing_edges, type_of_lambda, walk_plan
from hlgal.hlengine import L_polynomial, character_LS, gallery_term, ls_character_of_type
from hlgal.oracles import freudenthal_character, weyl_dimension
from hlgal.qpoly import QPoly
from hlgal.rootdata import RootSystem, RootSystemSpec, vadd, vneg
from hlgal.verify import dominant_lambdas
from systems import root_system
from test_oracles import L_from_direct


def ls_character(rs, pf_galleries) -> dict:
    """Reference LS count, gallery by gallery: canonical target -> number of
    LS-galleries among the given positively folded galleries, keyed as in
    ls_character_of_type."""
    counts: Counter = Counter()
    for g in pf_galleries:
        if has_maximal_crossings(rs, g):
            counts[rs.canonical_weight(g.target)] += 1
    return dict(counts)


def edge_character(rs, gtype) -> dict:
    """Reference LS character, one layer per edge over the states (vertex,
    incoming germ, chain mask), keyed as in ls_character_of_type: each
    state reads outgoing_edges at its own chain mask, an edge with a
    negative defect is cut and a positive one raises AssertionError."""
    gtype = tuple(gtype)
    germs = walk_plan(rs, gtype)[0]
    layer = {((0,) * rs.dim, None, 1 << rs.w0): 1}  # state -> prefixes reaching it
    for etype, reference in zip(gtype, germs):
        nxt: dict = {}
        for (v, prev, mask), n in layer.items():
            for d, reachable, defect in outgoing_edges(rs, v, etype, reference, prev, mask):
                if defect:
                    if defect > 0:
                        raise AssertionError("positive crossings exceed the degree bound")
                    continue
                state = (vadd(v, d), d, reachable)
                nxt[state] = nxt.get(state, 0) + n
        layer = nxt
    marks = rs.canonical_weights
    counts: dict = {}  # canonical weight -> LS galleries; type A merges vertices here
    for (v, _, _), n in layer.items():
        weight = marks.get(v)
        if weight is None:
            weight = marks[v] = rs.canonical_weight(v)
        counts[weight] = counts.get(weight, 0) + n
    return counts


def zigzag_types(rs):
    """The types w_i w_j w_i of omega_1 and omega_2's blocks, both ways round."""
    return [fundamental_type(rs, i) + fundamental_type(rs, j) + fundamental_type(rs, i) for i, j in ((1, 2), (2, 1))]


def test_worked_values_a2(a2):
    rs = a2
    lam = rs.weight((2, 1))
    assert L_polynomial(rs, lam, lam) == QPoly((0, 0, 0, 0, 0, 0, 1))
    assert L_polynomial(rs, lam, rs.weight((0, 2))) == QPoly((0, 0, 0, 0, -1, 1))
    assert L_polynomial(rs, lam, rs.weight((1, 0))) == QPoly((0, 0, 0, -2, 2))


def test_trivial_lambda_zero(a2):
    zero = a2.weight((0, 0))
    assert L_polynomial(a2, zero, zero) == QPoly.one()
    assert character_LS(a2, zero) == {a2.canonical_weight(zero): 1}


def test_rejects_nondominant(a2):
    with pytest.raises(ValueError, match="dominant"):
        L_polynomial(a2, vneg(a2.weight((1, 0))), a2.weight((0, 0)))
    with pytest.raises(ValueError, match="dominant"):
        character_LS(a2, vneg(a2.weight((1, 0))))
    # lambda and mu are each checked once, and either one is refused
    lam = a2.weight((2, 1))
    with pytest.raises(ValueError, match="mu must be a dominant"):
        L_polynomial(a2, lam, vneg(a2.weight((1, 0))))
    with pytest.raises(ValueError, match="lambda must be a dominant"):
        L_polynomial(a2, vneg(lam), a2.weight((1, 0)))


def test_leading_data_examples(a2):
    rs = a2
    lam = rs.weight((2, 1))
    p = L_polynomial(rs, lam, rs.weight((1, 0)))
    assert (p.degree(), p.leading_coefficient()) == (4, 2)
    # L(lam, lam) is monic of degree <2 lam, rho>
    p = L_polynomial(rs, lam, lam)
    assert (p.degree(), p.leading_coefficient()) == (rs.height(lam), 1)
    with pytest.raises(ValueError):
        QPoly.zero().degree()
    with pytest.raises(ValueError):
        QPoly.zero().leading_coefficient()


def test_degree_bound(b2):
    rs = b2
    lam = rs.weight((1, 1))
    for coeffs in [(1, 1), (0, 2), (1, 0), (0, 0)]:
        mu = rs.weight(coeffs)
        p = L_polynomial(rs, lam, mu)
        if not p.is_zero():
            assert 2 * p.degree() <= rs.height(vadd(lam, mu))


def test_degree_bound_rule():
    # the one rule both LS tests read: equal is LS, below is not, above is a fault
    assert reaches_degree_bound(6, 3) and reaches_degree_bound(0, 0)
    assert not reaches_degree_bound(6, 2) and not reaches_degree_bound(7, 3)
    with pytest.raises(AssertionError, match="exceed the degree bound"):
        reaches_degree_bound(6, 4)


def test_character_walk_refuses_crossings_beyond_the_bound(monkeypatch):
    # one positive crossing too many on every germ of positive coordinate
    # sum: the B2 fold (0,-1) -> (0,1) at the midpoint (0,-1) then closes
    # its block past the bound (a uniform +1 would cancel in the defect)
    real = hlgal.gallery.crossings
    monkeypatch.setattr(hlgal.gallery, "crossings", lambda rs, v, d: (real(rs, v, d)[0] + (sum(d) > 0), 0))
    rs = RootSystem(RootSystemSpec("B", 2))  # fresh: no edge table holds the true counts
    with pytest.raises(AssertionError, match="exceed the degree bound"):
        character_LS(rs, rs.weight((1, 1)))


def test_end_vertices_of_one_type_share_no_canonical_weight(monkeypatch):
    # in type A every block move keeps the coordinate sum of its block's
    # reference germ, so all end vertices of one type have one coordinate
    # sum and no two differ along (1, ..., 1): the character walk keys each
    # end vertex by its own canonical weight, with nothing to merge
    for rank in range(1, 5):
        rs = RootSystem(RootSystemSpec("A", rank))
        for lam in dominant_lambdas(rs, 2, 10**6):
            character_LS(rs, lam)
            tuple(enumerate_of_type(rs, type_of_lambda(rs, lam)))
        assert {mask is None for _, mask in rs.weyl.moves} == {False, True}
        for (i, _), moves in rs.weyl.moves.items():
            want = sum(rs.fundamental_germs[i - 1])  # omega_i's block is one edge
            assert all(sum(offset) == want for _, _, _, offset in moves), (rank, i)
    # were two end vertices sent to one weight, the walk would refuse it
    rs = RootSystem(RootSystemSpec("A", 2))
    lam = rs.weight((1, 0))
    first, second = sorted({g.target for g in enumerate_of_type(rs, type_of_lambda(rs, lam))})[:2]
    real = rs.canonical_weight
    monkeypatch.setattr(rs, "canonical_weight", lambda v: real(first if v == second else v))
    with pytest.raises(AssertionError, match="share a canonical weight"):
        character_LS(rs, lam)


def test_has_maximal_crossings_refuses_crossings_beyond_the_bound(b2, monkeypatch):
    lam = b2.weight((1, 1))
    g = next(g for g in enumerate_pf(b2, lam, b2.weight((0, 1))) if has_maximal_crossings(b2, g))
    real = hlgal.folding.crossing_counts
    monkeypatch.setattr(hlgal.folding, "crossing_counts", lambda rs, g: (real(rs, g)[0] + 1, 0))
    with pytest.raises(AssertionError, match="exceed the degree bound"):
        has_maximal_crossings(b2, g)


def test_euler_characteristic(c2):
    rs = c2
    lam = rs.weight((2, 0))
    for coeffs in [(2, 0), (0, 1), (0, 0)]:
        mu = rs.weight(coeffs)
        value = L_polynomial(rs, lam, mu)(1)
        assert value == (1 if coeffs == (2, 0) else 0)


def test_character_minuscule(a2):
    rs = a2
    char = character_LS(rs, rs.weight((1, 0)))
    assert len(char) == 3
    assert set(char.values()) == {1}


def test_character_matches_recursion(b2):
    rs = b2
    lam = rs.weight((1, 1))
    char = character_LS(rs, lam)
    assert char == freudenthal_character(rs, lam)
    assert sum(char.values()) == weyl_dimension(rs, lam)


def test_character_walk_keeps_the_chain_mask(a2, b2, c2):
    # on the zigzag types w_i w_j w_i some galleries fold at every junction
    # yet have no defining chain; a walk that dropped the chain mask from its
    # state would count them, and its characters differ on all six types
    chainless = 0
    for rs in (a2, b2, c2):
        for gtype in zigzag_types(rs):
            galleries = tuple(enumerate_of_type(rs, gtype))
            pf = [g for g in galleries if is_positively_folded(rs, g)]
            chainless += sum(locally_positively_folded(rs, g) for g in galleries) - len(pf)
            assert ls_character_of_type(rs, gtype) == ls_character(rs, pf), (rs.family, gtype)
    assert chainless == 96


# coefficient sum bound of the lambdas whose block orders are permuted
BLOCK_ORDER_BOUNDS = {("A", 2): 3, ("B", 2): 3, ("C", 2): 3, ("A", 3): 3, ("B", 3): 2,
                      ("C", 3): 2, ("A", 4): 2, ("B", 4): 2, ("C", 4): 2}


def test_character_is_independent_of_the_block_order():
    # Littelmann's independence of the path: the LS character of a type
    # made of lambda's fundamental blocks does not depend on their order.
    # The L sums do depend on it (A2 (2,1) in block order (1,2,1) gives a
    # different expansion), so there is no such test for L.
    orders = 0
    for (family, rank), max_sum in BLOCK_ORDER_BOUNDS.items():
        rs = root_system(family, rank)
        for lam in dominant_lambdas(rs, max_sum, 10**6):
            indices = [i for i, a in enumerate(rs.weight_coeffs(lam), start=1) for _ in range(a)]
            want = character_LS(rs, lam)
            for order in sorted(set(permutations(indices))):
                gtype = tuple(t for i in order for t in fundamental_type(rs, i))
                assert ls_character_of_type(rs, gtype) == want, (family, rank, order)
                orders += 1
    assert orders == 174


def test_block_walk_matches_edge_walk():
    # the walk over block boundaries (vertex, chain mask), one merged table
    # per block and mask, counts what the walk over (vertex, incoming germ,
    # chain mask) counts one edge at a time, on every dominant lambda of
    # the block-order sums and on the six zigzag types
    checked = 0
    for (family, rank), max_sum in BLOCK_ORDER_BOUNDS.items():
        rs = root_system(family, rank)
        gtypes = [type_of_lambda(rs, lam) for lam in dominant_lambdas(rs, max_sum, 10**6)]
        if rank == 2:
            gtypes += zigzag_types(rs)
        for gtype in gtypes:
            assert ls_character_of_type(rs, gtype) == edge_character(rs, gtype), (family, rank, gtype)
            checked += 1
    assert checked == 121  # 115 lambdas and 6 zigzag types


def test_character_total_fifteen(a2):
    char = character_LS(a2, a2.weight((2, 1)))
    assert sum(char.values()) == 15


def test_agrees_with_direct_oracle(c2):
    rs = c2
    lam = rs.weight((1, 1))
    for coeffs in [(1, 1), (2, 0), (0, 1), (1, 0), (0, 0)]:
        mu = rs.weight(coeffs)
        assert L_polynomial(rs, lam, mu) == L_from_direct(rs, lam, mu)


# (coefficient sum, height) bounds of the lambdas whose every target is
# checked: the acceptance suite's to rank 3, and coefficient sum <= 1 at rank 4
EVERY_TARGET_BOUNDS = {
    ("A", 1): (3, 16), ("A", 2): (3, 16), ("A", 3): (3, 16), ("B", 2): (3, 16), ("C", 2): (3, 16),
    ("B", 3): (3, 16), ("C", 3): (3, 16), ("A", 4): (1, 40), ("B", 4): (1, 40), ("C", 4): (1, 40),
}


@pytest.mark.parametrize("family,rank", list(EVERY_TARGET_BOUNDS))
def test_gallery_sums_are_w_invariant(family, rank):
    # P_lambda is W-invariant, so with [x^nu] P_lambda(x; 1/q) =
    # q^{-<lambda+nu, rho>} L_{lambda,nu}(q), the gallery sum at nu's dominant
    # representative mu is q^{<mu - nu, rho>} times the sum at nu; this
    # reads every target of the folded walk with no oracle.  The walk cuts
    # by the chain alone, so it must keep no gallery with a zero term
    rs = root_system(family, rank)
    checked = 0
    for lam in dominant_lambdas(rs, *EVERY_TARGET_BOUNDS[(family, rank)]):
        sums, targets = {}, {}
        for g in enumerate_of_type(rs, type_of_lambda(rs, lam), folded=True):
            term = gallery_term(rs, g)
            assert not term.is_zero(), (lam, g.vertices)
            key = rs.canonical_key(g.target)
            sums[key] = sums.get(key, QPoly.zero()) + term
            targets[key] = g.target
        for key, nu in targets.items():
            mu = rs.dominant_rep(nu)
            shift, rem = divmod(rs.height(mu) - rs.height(nu), 2)
            assert rem == 0 and shift >= 0
            assert sums[rs.canonical_key(mu)] == QPoly.q_power(shift) * sums[key], (lam, nu)
            checked += mu != nu
    assert checked


def test_root_system_is_freed_after_use():
    # every memo lives on the root system it describes, so nothing keeps a
    # dropped system alive
    rs = RootSystem(RootSystemSpec("B", 2))
    lam = rs.weight((1, 1))
    assert L_polynomial(rs, lam, rs.weight((0, 1))) == L_from_direct(rs, lam, rs.weight((0, 1)))
    assert character_LS(rs, lam)
    assert rs.vertex_locals
    assert any(local.closest and local.crossings for local in rs.local_groups.values())
    ref = weakref.ref(rs)
    del rs
    gc.collect()
    assert ref() is None
