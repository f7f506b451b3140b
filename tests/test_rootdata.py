import pytest
from hypothesis import given, settings, strategies as st

from hlgal.apartment import expected_germ, local_data
from hlgal.gallery import type_of_lambda
from hlgal.rootdata import (
    RootSystem,
    RootSystemSpec,
    build_root_system,
    pairing,
    sp_act,
    sp_inv,
    sp_mul,
    vadd,
    vneg,
)
from hlgal.verify import dominant_lambdas
from systems import group_elements, group_length, root_system
from test_folding import min_coset_rep


@pytest.mark.parametrize(
    "family,rank,w_order,n_pos",
    [
        ("A", 2, 6, 3),
        ("B", 2, 8, 4),
        ("C", 3, 48, 9),
        ("A", 3, 24, 6),
        ("B", 3, 48, 9),
    ],
)
def test_cardinalities(family, rank, w_order, n_pos):
    rs = root_system(family, rank)
    assert rs.order() == w_order
    assert len(rs.pos_roots) == n_pos


def test_bad_spec_rejected():
    with pytest.raises(ValueError):
        build_root_system(RootSystemSpec("D", 4))
    with pytest.raises(ValueError):
        build_root_system(RootSystemSpec("A", 0))
    with pytest.raises(ValueError):
        build_root_system(RootSystemSpec("B", 9))


def test_pairing_dimension_mismatch():
    with pytest.raises(ValueError):
        pairing((1,), (1, 0))


def test_rho_is_half_sum(a2, b2, c3):
    # <lambda, 2 rho^vee> sums the ambient pairings with the positive coroots
    for rs in (a2, b2, c3):
        lam = rs.weight((1,) * rs.rank)
        x = rs.ambient(lam)
        assert rs.height(lam) == sum(pairing(x, c) for c in rs.pos_coroots)
        assert rs.height((0,) * rs.dim) == 0


def test_pairing_derived_value(a2):
    # lambda = 2w1 + 3w2 pairs to 5 against rho
    assert a2.height(a2.weight((2, 3))) == 2 * 5


def test_fundamental_weights_dual_to_simple_walls(a3, b3, c3):
    for rs in (a3, b3, c3):
        for i, w in enumerate(rs.fundamental_weights):
            assert rs.weight_coeffs(w) == tuple(1 if j == i else 0 for j in range(rs.rank))
            for j, c in enumerate(rs.simple_coroots):
                assert pairing(rs.ambient(w), c) == (1 if i == j else 0)


def test_length_matches_inversions_and_words(b2):
    rs = b2
    for w in range(rs.order()):
        word = rs.weyl.reduced_word(w)
        assert len(word) == rs.length[w]
        acc = 0
        for k in word:
            acc = rs.mul(acc, rs.simple_reflections[k])
        assert acc == w


def test_act_inverse_roundtrip(c2):
    rs = c2
    v = rs.weight((1, 2))
    for w in range(rs.order()):
        assert rs.act(w, rs.act(rs.inverse[w], v)) == v


def _subword_products(rs, word):
    elements = {0}
    for letter in word:
        s = rs.simple_reflections[letter]
        elements |= {rs.mul(e, s) for e in elements}
    return elements


@pytest.mark.parametrize("family,rank", [("A", 2), ("B", 2), ("A", 3), ("C", 3)])
def test_bruhat_matches_subword_criterion(family, rank):
    # products of subwords of a reduced word of w are exactly {u : u <= w}
    rs = root_system(family, rank)
    for w in range(rs.order()):
        below = _subword_products(rs, rs.weyl.reduced_word(w))
        for u in range(rs.order()):
            assert rs.bruhat_leq(u, w) == (u in below)


def test_bruhat_extremes(b2):
    rs = b2
    for w in range(rs.order()):
        assert rs.bruhat_leq(0, w)
        if w != rs.w0:
            assert not rs.bruhat_leq(rs.w0, w)


def test_bruhat_antisymmetric_and_length_monotone(a3):
    rs = a3
    for u in range(rs.order()):
        for w in range(rs.order()):
            if rs.bruhat_leq(u, w) and rs.bruhat_leq(w, u):
                assert u == w
            if rs.bruhat_leq(u, w):
                assert rs.length[u] <= rs.length[w]


def test_a2_simple_generators_incomparable(a2):
    s1, s2 = a2.simple_reflections
    s1s2 = a2.mul(s1, s2)
    assert a2.bruhat_leq(s1, s1s2)
    assert not a2.bruhat_leq(s1, s2)


def test_chamber_classes_basic(a2):
    rs = a2
    strictly_dominant = vadd(rs.weight((1, 0)), rs.weight((0, 1)))
    assert rs.chamber_class_mask(strictly_dominant) == 1
    assert rs.chamber_class_mask(vneg(strictly_dominant)) == 1 << rs.w0
    with pytest.raises(ValueError):
        rs.chamber_class_mask((0,) * rs.dim)


def test_chamber_classes_omega1_a2(a2):
    rs = a2
    got = rs.chamber_class_mask(rs.weight((1, 0)))
    # {w : w fixes omega_1's chamber face} = identity and s2
    s2 = rs.simple_reflections[1]
    assert got == 1 | 1 << s2


def test_chamber_classes_are_stabilizer_cosets(b2):
    rs = b2
    omega = rs.weight((1, 0))
    for w in range(rs.order()):
        d = rs.act(w, omega)
        coset = 0
        for u in range(rs.order()):
            if rs.act(u, omega) == omega:
                coset |= 1 << rs.mul(w, u)
        assert rs.chamber_class_mask(d) == coset


def pairs_dominant(rs, v):
    """The definition of dominance: no negative simple-coroot pairing."""
    return all(pairing(v, c) >= 0 for c in rs.simple_coroots)


ALL_SYSTEMS = [f + str(n) for f in "ABC" for n in range(1, 5)]


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_is_dominant_is_the_simple_coroot_test(name):
    rs = root_system(name[0], int(name[1]))
    for omega in rs.fundamental_weights:
        for v in rs.weyl.orbit(omega):
            points = [v, vneg(v)]
            if rs.family == "A":
                # 3 (v + (1/3, ..., 1/3)), off the invariant line
                points.append(tuple(3 * a + 1 for a in v))
            for x in points:
                assert rs.is_dominant(x) == pairs_dominant(rs, x), x


STANDARD_GERM_TYPES = [(f + str(n), 2) for f in "ABC" for n in (2, 3)]
STANDARD_GERM_TYPES += [(f + "4", 1) for f in "ABC"]


@pytest.mark.parametrize("name,max_sum", STANDARD_GERM_TYPES)
def test_chamber_class_mask_is_the_dominance_scan(name, max_sum):
    # a fresh root system, so every orbit is filled by the masks under test
    rs = RootSystem(RootSystemSpec(name[0], int(name[1])))
    germs = set()
    for lam in dominant_lambdas(rs, max_sum, 10**6):
        for t in type_of_lambda(rs, lam):
            for d in rs.weyl.orbit(expected_germ(rs, t)):
                germs.update((d, vneg(d)))
    for d in sorted(germs):
        scan = 0
        for w in range(rs.order()):
            if pairs_dominant(rs, rs.act(rs.inverse[w], d)):
                scan |= 1 << w
        assert rs.chamber_class_mask(d) == scan


def test_chamber_class_mask_fills_the_orbit_once():
    rs = RootSystem(RootSystemSpec("B", 3))
    first, second = rs.weyl.orbit(rs.weight((0, 1, 0)))[:2]
    rs.chamber_class_mask(first)
    assert second in rs._chamber_masks  # filled by the first germ's pass


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_min_coset_rep_is_the_shortest_element(name):
    rs = root_system(name[0], int(name[1]))
    for omega in rs.fundamental_weights:
        shortest = {}
        for w in range(rs.order()):
            x = rs.act(w, omega)
            shortest.setdefault(x, []).append(w)
        for x, coset in shortest.items():
            least = min(rs.length[w] for w in coset)
            (rep,) = [w for w in coset if rs.length[w] == least]
            assert min_coset_rep(rs, x) == rep


def signed_perm_words(rs):
    """The lexicographically least reduced word of every element of W,
    found on its signed permutation with the Bourbaki simple reflections
    as letters."""
    gens = [rs.reflection_perm(a) for a in rs.simple_roots]
    pos = set(rs.pos_roots)
    length = {x: sum(1 for a in rs.pos_roots if sp_act(x, a) not in pos) for x in rs.elements}
    words = []
    for cur in rs.elements:
        word = []
        while length[cur]:
            k = min(k for k, g in enumerate(gens) if length[sp_mul(g, cur)] < length[cur])
            word.append(k)
            cur = sp_mul(gens[k], cur)
        words.append(tuple(word))
    return words


@pytest.mark.parametrize("name", ALL_SYSTEMS)
def test_weyl_is_the_origin_local_group(name):
    # W is the local group of the origin, where every wall passes; its
    # letters are the Bourbaki simple reflections
    rs = RootSystem(RootSystemSpec(name[0], int(name[1])))
    assert local_data(rs, (0,) * rs.dim) is rs.weyl
    assert group_elements(rs.weyl) == tuple(range(rs.order()))
    assert rs.weyl.simple_reflections == rs.simple_reflections
    assert [group_length(rs.weyl, w) for w in range(rs.order())] == list(rs.length)
    assert [rs.weyl.reduced_word(w) for w in range(rs.order())] == signed_perm_words(rs)


@settings(max_examples=50, deadline=None)
@given(st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4))
def test_signed_perm_group_laws(x, y, z):
    rs = root_system("B", 3)
    v = (x, y, z)
    for w in (1, 5, rs.w0):
        u = rs.elements[w]
        assert sp_act(sp_inv(u), sp_act(u, v)) == v
        assert sp_mul(u, sp_inv(u)) == rs.elements[0]


@pytest.mark.parametrize(
    "family,order", [("A", 120), ("B", 384), ("C", 384)]
)
def test_rank_four_supported(family, order):
    rs = root_system(family, 4)
    assert rs.order() == order
    assert len(rs.pos_roots) == (10 if family == "A" else 16)
    # Bruhat covers are consistent at this scale too
    assert rs.bruhat_leq(0, rs.w0)
    assert rs.length[rs.w0] == len(rs.pos_roots)


@pytest.mark.parametrize("family", "ABC")
def test_fundamental_scale_marks_minuscule_weights(family):
    # omega_i pairs with every positive coroot in {0, 1} exactly when it is
    # minuscule: all of A, the spin weight omega_n of B, and omega_1 of C
    for rank in range(1, 5):
        rs = root_system(family, rank)
        minuscule = {"A": range(1, rank + 1), "B": (rank,), "C": (1,)}[family]
        expected = tuple(1 if i in minuscule else 2 for i in range(1, rank + 1))
        assert rs.fundamental_scale == expected, (family, rank)
