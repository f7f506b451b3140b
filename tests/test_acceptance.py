"""Acceptance criteria, one test per criterion, each printing a PASS line.

The shared suite: root systems A1, A2, A3, B2, C2, B3, C3; every dominant
lambda with coefficient sum <= 3 and <lambda, 2 rho> <= 16; all dominant
mu seen by either route.  The rank-4 tier runs the `verify` suite on A4
with coefficient sum <= 2 and on the fundamental weights of B4 and C4,
and checks `L_polynomial` against the oracle there for coefficient sum
<= 2, and criterion 8 checks every rank-4 junction of A4 (coefficient
sum <= 2), B4 and C4 (sum <= 1): its factor is non-zero exactly when the
test-local reachability reference folds it, and is then independent of
the sector and the reduced word.
Everything is exact; no tolerances anywhere.
"""

import random
import time

import pytest

from hlgal.apartment import local_data, local_key
from hlgal.folding import is_LS, is_positively_folded, locally_positively_folded
from hlgal.gallery import crossing_counts, enumerate_of_type, fundamental_type, type_of_lambda
from hlgal.hlengine import L_polynomial, character_LS, gallery_term
from hlgal.oracles import (
    L_from_expansion,
    freudenthal_character,
    hall_littlewood_direct,
    kostka,
    weyl_dimension,
)
from hlgal.qpoly import QPoly
from hlgal.residue import (
    enumerate_gamma_plus_op,
    junction_factor,
    valid_sector_classes,
)
from hlgal.rootdata import vadd, vneg
from hlgal.tableaux import gallery_to_tableau, is_semistandard, tableau_to_gallery
from hlgal.verify import _dominant_mus, dominant_lambdas, run_suite
from systems import all_reduced_words, root_system
from test_apartment import cell_dimension
from test_folding import is_minimal, two_step_reference
from test_residue import sector_list

SYSTEMS = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("B", 3), ("C", 3)]
MAX_COEFF_SUM = 3
MAX_HEIGHT = 16

_BUNDLES: dict = {}


def suite_bundles(family, rank):
    """Per-lambda data shared by the criteria, built once."""
    key = (family, rank)
    if key in _BUNDLES:
        return _BUNDLES[key]
    rs = root_system(family, rank)
    bundles = []
    for lam in dominant_lambdas(rs, MAX_COEFF_SUM, MAX_HEIGHT):
        galleries = tuple(enumerate_of_type(rs, type_of_lambda(rs, lam)))
        pf = tuple(g for g in galleries if is_positively_folded(rs, g))
        terms = {g: gallery_term(rs, g) for g in pf}
        pmap = hall_littlewood_direct(rs, lam)
        mus = _dominant_mus(rs, (g.target for g in pf), pmap)
        table = {}
        for mu in mus:
            mu_c = rs.canonical_weight(mu)
            acc = QPoly.zero()
            for g in pf:
                if rs.canonical_weight(g.target) == mu_c:
                    acc = acc + terms[g]
            table[mu] = acc
        bundles.append(
            {
                "lam": lam,
                "galleries": galleries,
                "pf": frozenset(pf),
                "terms": terms,
                "pmap": pmap,
                "mus": mus,
                "table": table,
            }
        )
    _BUNDLES[key] = (rs, bundles)
    return _BUNDLES[key]


def test_criterion_1_worked_example():
    rs = root_system("A", 2)
    lam = rs.weight((2, 1))
    start = time.perf_counter()
    values = (
        L_polynomial(rs, lam, lam),
        L_polynomial(rs, lam, rs.weight((0, 2))),
        L_polynomial(rs, lam, rs.weight((1, 0))),
    )
    elapsed = time.perf_counter() - start
    assert values[0] == QPoly((0, 0, 0, 0, 0, 0, 1))
    assert values[1] == QPoly((0, 0, 0, 0, -1, 1))
    assert values[2] == QPoly((0, 0, 0, -2, 2))
    assert elapsed < 1.0
    print("\nACCEPTANCE 1 worked-example: PASS (%.3fs)" % elapsed)


def test_criterion_2_oracle_equivalence():
    checked = 0
    start = time.perf_counter()
    for family, rank in SYSTEMS:
        rs, bundles = suite_bundles(family, rank)
        for b in bundles:
            for mu in b["mus"]:
                direct = L_from_expansion(rs, b["pmap"], b["lam"], mu)
                assert b["table"][mu] == direct, (family, rank, b["lam"], mu)
                assert L_polynomial(rs, b["lam"], mu) == direct, (family, rank, b["lam"], mu)
                checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(
        "\nACCEPTANCE 2 oracle-equivalence: PASS (%d pairs, %.1fs)"
        % (checked, elapsed)
    )


def test_criterion_3_euler_characteristic():
    checked = 0
    for family, rank in SYSTEMS:
        rs, bundles = suite_bundles(family, rank)
        for b in bundles:
            lam_c = rs.canonical_weight(b["lam"])
            for mu in b["mus"]:
                want = 1 if rs.canonical_weight(mu) == lam_c else 0
                assert b["table"][mu](1) == want, (family, rank, b["lam"], mu)
                checked += 1
    print("\nACCEPTANCE 3 euler-characteristic: PASS (%d pairs)" % checked)


def test_criterion_4_character_formula():
    for family, rank in SYSTEMS:
        rs, bundles = suite_bundles(family, rank)
        for b in bundles:
            char = character_LS(rs, b["lam"])
            assert char == freudenthal_character(rs, b["lam"]), (family, rank, b["lam"])
            assert sum(char.values()) == weyl_dimension(rs, b["lam"])
    rs = root_system("A", 2)
    assert sum(character_LS(rs, rs.weight((2, 1))).values()) == 15
    print("\nACCEPTANCE 4 character-formula: PASS")


def test_criterion_5_degree_and_leading():
    for family, rank in SYSTEMS:
        rs, bundles = suite_bundles(family, rank)
        for b in bundles:
            ls_by_target = {}
            for g in b["pf"]:
                if is_LS(rs, g):
                    t = rs.canonical_weight(g.target)
                    ls_by_target[t] = ls_by_target.get(t, 0) + 1
            for mu in b["mus"]:
                poly = b["table"][mu]
                twice_bound = rs.height(vadd(b["lam"], mu))  # 2 <lambda + mu, rho>
                if not poly.is_zero():
                    assert 2 * poly.degree() <= twice_bound
                n_ls = ls_by_target.get(rs.canonical_weight(mu), 0)
                if n_ls:
                    assert 2 * poly.degree() == twice_bound
                    assert poly.leading_coefficient() == n_ls
                if family == "A" and not poly.is_zero():
                    assert poly.leading_coefficient() == kostka(rs, b["lam"], mu)
    print("\nACCEPTANCE 5 degree-leading: PASS")


def test_criterion_6_combinatorial_invariants():
    n_gal = n_junc = 0
    for family, rank in SYSTEMS:
        rs, bundles = suite_bundles(family, rank)
        seen_junctions = set()
        for b in bundles:
            height = rs.height(b["lam"])
            for g in b["galleries"]:
                n_gal += 1
                plus, minus, total = crossing_counts(rs, g)
                assert total == height
                assert cell_dimension(rs, g) == plus
                folded = g in b["pf"]
                assert locally_positively_folded(rs, g) == folded
                if folded and is_minimal(rs, g):
                    assert is_LS(rs, g)
                dirs = g.directions()
                for j in range(1, g.num_edges()):
                    v = g.vertices[j]
                    d_in, d_out = vneg(dirs[j - 1]), dirs[j]
                    jkey = (local_key(rs, v), d_in, d_out)
                    if jkey in seen_junctions:
                        continue
                    seen_junctions.add(jkey)
                    n_junc += 1
                    folded_here = two_step_reference(rs, d_in, v, d_out)
                    zero = junction_factor(rs, v, d_in, d_out).is_zero()
                    assert folded_here != zero, (family, rank, v, d_in, d_out)
        # every gallery of a minuscule fundamental type is LS
        for i in range(1, rank + 1):
            gtype = fundamental_type(rs, i)
            if len(gtype) > 1:
                continue
            for g in enumerate_of_type(rs, gtype):
                assert is_LS(rs, g)
    print(
        "\nACCEPTANCE 6 combinatorial-invariants: PASS (%d galleries, %d junctions)"
        % (n_gal, n_junc)
    )


def _junction_keys(rs, galleries):
    keys = {}
    for g in galleries:
        dirs = g.directions()
        for j in range(1, g.num_edges()):
            v = g.vertices[j]
            d_in, d_out = vneg(dirs[j - 1]), dirs[j]
            keys.setdefault((local_key(rs, v), d_in, d_out), (v, d_in, d_out))
    return list(keys.values())


def _bundle_galleries(bundles):
    return (g for b in bundles for g in b["galleries"])


def _assert_choice_independent(rs, v, d_in, d_out):
    """junction_factor is non-zero exactly when the reachability reference
    folds the junction, and then every valid sector with every reduced word
    gives its value."""
    want = junction_factor(rs, v, d_in, d_out)
    assert two_step_reference(rs, d_in, v, d_out) != want.is_zero(), (v, d_in, d_out)
    if want.is_zero():
        return 0
    sectors = sector_list(rs, valid_sector_classes(rs, v, d_in, d_out))
    local = local_data(rs, v)
    u, _ = local.closest_chamber(d_out)
    values = set()
    for w in sectors:
        for word in all_reduced_words(local, u):
            factor = QPoly.zero()
            for t, r in enumerate_gamma_plus_op(rs, v, d_in, d_out, w, word):
                factor = factor + QPoly.term(t, r)
            values.add(factor)
    assert values == {want}, (
        v, d_in, d_out, [p.coeffs for p in values]
    )
    return 1


# rank-4 junction keys checked exhaustively: family -> max coefficient sum
RANK4_CHOICE_SUMS = {"A": 2, "B": 1, "C": 1}


def test_criterion_8_choice_independence():
    tested_rank2 = 0
    for family, rank in SYSTEMS:
        if rank > 2:
            continue
        rs, bundles = suite_bundles(family, rank)
        for v, d_in, d_out in _junction_keys(rs, _bundle_galleries(bundles)):
            tested_rank2 += _assert_choice_independent(rs, v, d_in, d_out)
    tested_rank3 = 0
    rng = random.Random(20240817)
    for family, rank in SYSTEMS:
        if rank != 3:
            continue
        rs, bundles = suite_bundles(family, rank)
        keys = _junction_keys(rs, _bundle_galleries(bundles))
        rng.shuffle(keys)
        done = 0
        for v, d_in, d_out in keys:
            done += _assert_choice_independent(rs, v, d_in, d_out)
            if done >= 100:
                break
        tested_rank3 += done
    assert tested_rank3 >= 100
    keys_rank4 = tested_rank4 = 0
    for family, max_sum in RANK4_CHOICE_SUMS.items():
        rs = root_system(family, 4)
        galleries = (
            g
            for lam in dominant_lambdas(rs, max_sum, 10**6)
            for g in enumerate_of_type(rs, type_of_lambda(rs, lam))
        )
        keys = _junction_keys(rs, galleries)
        keys_rank4 += len(keys)
        for v, d_in, d_out in keys:
            tested_rank4 += _assert_choice_independent(rs, v, d_in, d_out)
    print(
        "\nACCEPTANCE 8 choice-independence: PASS (%d exhaustive rank-2, %d sampled rank-3,"
        " %d exhaustive rank-4 of %d keys)" % (tested_rank2, tested_rank3, tested_rank4, keys_rank4)
    )


def test_criterion_7_bijection_roundtrips():
    n = 0
    for family, rank in SYSTEMS:
        rs, bundles = suite_bundles(family, rank)
        for b in bundles:
            ssyt_by_target = {}
            for g in b["galleries"]:
                n += 1
                tab = gallery_to_tableau(rs, g)
                assert tableau_to_gallery(rs, tab) == g
                folded = g in b["pf"]
                assert is_semistandard(tab) == folded
                if folded and family == "A":
                    t = rs.canonical_weight(g.target)
                    ssyt_by_target[t] = ssyt_by_target.get(t, 0) + 1
            if family == "A":
                for mu in b["mus"]:
                    want = kostka(rs, b["lam"], mu)
                    got = ssyt_by_target.get(rs.canonical_weight(mu), 0)
                    assert got == want, (family, rank, b["lam"], mu)
    print("\nACCEPTANCE 7 bijections: PASS (%d galleries)" % n)


# rank-4 verify tier: family -> max coefficient sum.  B4 and C4 stay at 1:
# at 2 they take 11-12.5 s and 8.5-9 s cold (2 CPUs, Python 3.11), led by
# the folding test (its junction factors), with the tableau round-trip close
# behind.
RANK4_TIER_SUMS = {"A": 2, "B": 1, "C": 1}


@pytest.mark.parametrize("family,max_height,checks", [("B", 30, 58), ("C", 30, 52), ("A", 40, 159)])
def test_rank4_tier(family, max_height, checks):
    rs = root_system(family, 4)
    start = time.perf_counter()
    report = run_suite(rs, max_coeff_sum=RANK4_TIER_SUMS[family], max_height=max_height)
    elapsed = time.perf_counter() - start
    assert report["ok"], report["failures"]
    assert report["checks"] == checks
    print("\nACCEPTANCE rank-4 %s: PASS (%d checks, %.1fs)" % (report["system"], checks, elapsed))


def test_rank4_L_polynomial_against_oracle():
    # the target-pruned walk of L_polynomial against the Hecke symmetriser, on
    # every dominant mu of the oracle's support and every dominant weight of
    # coefficient sum <= 2, which includes targets no gallery reaches
    checked = 0
    start = time.perf_counter()
    for family, max_height in (("A", 30), ("B", 40), ("C", 40)):
        rs = root_system(family, 4)
        lams = dominant_lambdas(rs, 2, max_height)
        for lam in lams:
            pmap = hall_littlewood_direct(rs, lam)
            mus = {rs.canonical_key(mu): mu for mu in lams + _dominant_mus(rs, (), pmap)}
            for mu in mus.values():
                want = L_from_expansion(rs, pmap, lam, mu)
                assert L_polynomial(rs, lam, mu) == want, (family, lam, mu)
                checked += 1
    print("\nACCEPTANCE rank-4 L: PASS (%d pairs, %.1fs)" % (checked, time.perf_counter() - start))
