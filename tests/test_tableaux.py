from fractions import Fraction as Q
from itertools import combinations, product

import pytest

from hlgal.apartment import expected_germ
from hlgal.folding import is_positively_folded
from hlgal.gallery import Gallery, enumerate_of_type, fundamental_type, type_of_lambda
from hlgal.oracles import kostka
from hlgal.tableaux import (
    Tableau,
    bar,
    gallery_to_tableau,
    is_semistandard,
    pretty,
    shape_partition,
    tableau_to_gallery,
    tableau_to_jsonable,
)
from standard_galleries import gamma_lambda
from systems import root_system


def content_weight(rs, tab):
    """Sum of the letter weights in ambient coordinates, read from the
    columns alone: a column of a two-column block, or a spin column, counts
    half."""
    total = [Q(0)] * rs.dim
    for col in tab.columns:
        half = rs.fundamental_scale[len(col) - 1] == 2 or (rs.family == "B" and len(col) == rs.rank)
        step = Q(1, 2) if half else Q(1)
        for x in col:
            if rs.family == "A" or x <= rs.rank:
                total[x - 1] += step
            else:
                total[bar(rs.rank, x) - 1] -= step
    return tuple(total)


def tableau_from_jsonable(data):
    """Decoder of the CLI's tableau form, the inverse of tableau_to_jsonable."""
    family, rank = data["family"], data["rank"]

    def encode(x):
        if x > 0:
            return x
        if family == "A":
            raise ValueError("negative letters need a barred alphabet")
        return bar(rank, -x)

    return Tableau(family, rank, tuple(tuple(encode(x) for x in col) for col in data["columns"]))


def test_shape_partitions(a3, b3, c3):
    lam = lambda rs: rs.weight((1, 1, 1))
    assert shape_partition(a3, lam(a3)) == (3, 2, 1)
    assert shape_partition(b3, lam(b3)) == (5, 3, 1)
    assert shape_partition(c3, lam(c3)) == (5, 4, 2)
    assert shape_partition(a3, a3.weight((0, 0, 0))) == ()


def test_highest_weight_filling(a3):
    rs = a3
    lam = rs.weight((1, 1, 1))
    tab = gallery_to_tableau(rs, gamma_lambda(rs, lam))
    # row i is constantly i: every column is 1..height
    for col in tab.columns:
        assert col == tuple(range(1, len(col) + 1))
    assert is_semistandard(tab)


def test_known_example_tableaux_are_valid():
    # three known semistandard fillings for lambda = w1+w2+w3, written
    # column by column from the right
    from hlgal.folding import is_LS

    a3 = root_system("A", 3)
    t_a = Tableau("A", 3, ((3,), (1, 3), (1, 2, 3)))
    g = tableau_to_gallery(a3, t_a)
    assert gallery_to_tableau(a3, g) == t_a
    assert is_semistandard(t_a)
    assert is_positively_folded(a3, g)

    b3 = root_system("B", 3)
    nb = lambda k: bar(3, k)  # barred letter code
    t_b = Tableau(
        "B",
        3,
        ((nb(2),), (2,), (2, nb(1)), (1, 2), (1, 2, nb(3))),
    )
    g = tableau_to_gallery(b3, t_b)
    assert gallery_to_tableau(b3, g) == t_b
    assert is_semistandard(t_b)
    assert is_positively_folded(b3, g)
    assert not is_LS(b3, g)  # semistandard yet not LS

    c3 = root_system("C", 3)
    nc = lambda k: bar(3, k)
    t_c = Tableau(
        "C",
        3,
        ((nc(3),), (3, nc(2)), (2, nc(3)), (1, nc(3), nc(2)), (1, 2, 3)),
    )
    g = tableau_to_gallery(c3, t_c)
    assert gallery_to_tableau(c3, g) == t_c
    assert is_semistandard(t_c)
    assert is_positively_folded(c3, g)


def test_roundtrip_all_galleries(a2, b2):
    for rs, coeffs in ((a2, (2, 1)), (b2, (1, 1))):
        lam = rs.weight(coeffs)
        for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
            tab = gallery_to_tableau(rs, g)
            assert tableau_to_gallery(rs, tab) == g


def test_semistandard_iff_positively_folded(c2):
    rs = c2
    lam = rs.weight((1, 1))
    for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
        assert is_semistandard(gallery_to_tableau(rs, g)) == is_positively_folded(rs, g)


def test_row_descent_is_not_semistandard():
    t = Tableau("A", 2, ((1,), (2, 3)))  # row 1 reads 2 then 1: descent
    assert not is_semistandard(t)
    t_ok = Tableau("A", 2, ((2,), (1, 3)))
    assert is_semistandard(t_ok)


def test_content_matches_target(b2):
    rs = b2
    lam = rs.weight((1, 1))
    for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
        assert content_weight(rs, gallery_to_tableau(rs, g)) == rs.ambient(g.target)


def test_ssyt_count_matches_kostka_and_galleries(a2):
    rs = a2
    lam = rs.weight((2, 1))
    for coeffs in [(2, 1), (0, 2), (1, 0)]:
        mu = rs.weight(coeffs)
        mu_c = rs.canonical_weight(mu)
        n_tab = 0
        for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
            tab = gallery_to_tableau(rs, g)
            if is_semistandard(tab) and rs.canonical_weight(g.target) == mu_c:
                n_tab += 1
        assert n_tab == kostka(rs, lam, mu)


def valid_columns(rs, i):
    """Every column of height i, built from the alphabet alone: i increasing
    letters, and in B/C one of k and bar(k) for each of i distinct k."""
    if rs.family == "A":
        return set(combinations(range(1, rs.rank + 2), i))
    return {
        tuple(sorted(k if s > 0 else bar(rs.rank, k) for k, s in zip(plain, signs)))
        for plain in combinations(range(1, rs.rank + 1), i)
        for signs in product((1, -1), repeat=i)
    }


def pair_exchange_ok(rs, c1, c2):
    """The two columns of a block agree up to sign exchanges, an even number
    of them in type C: a rule on letters alone, for reference."""
    n = rs.rank
    plain1 = sorted(x if x <= n else bar(n, x) for x in c1)
    plain2 = sorted(x if x <= n else bar(n, x) for x in c2)
    if plain1 != plain2:
        return False
    return rs.family != "C" or sum(1 for x in c2 if x not in c1) % 2 == 0


@pytest.mark.parametrize("family,rank", [(f, n) for f in "ABC" for n in range(1, 5)])
def test_valid_columns_are_the_reference_orbit(family, rank):
    # the columns of the germs in the W-orbit of omega_i's reference germ
    # (whole or half) are the valid height-i columns, each exactly once,
    # and each decodes back to its germ
    rs = root_system(family, rank)
    origin = (0,) * rs.dim
    for i in range(1, rank + 1):
        block_type = fundamental_type(rs, i)
        orbit = rs.weyl.orbit(expected_germ(rs, block_type[0]))
        germ_of = {
            gallery_to_tableau(rs, Gallery((origin, d), block_type[:1])).columns[0]: d
            for d in orbit
        }
        assert len(germ_of) == len(orbit)
        assert set(germ_of) == valid_columns(rs, i)
        for col, d in germ_of.items():
            g = tableau_to_gallery(rs, Tableau(family, rank, (col,) * len(block_type)))
            assert g.directions()[0] == d


@pytest.mark.parametrize("family,rank", [(f, n) for f in "BC" for n in range(2, 5)])
def test_pair_exchange_rule_is_the_midpoint_test(family, rank):
    rs = root_system(family, rank)
    pairs = 0
    for i in range(1, rank + 1):
        if len(fundamental_type(rs, i)) != 2:
            continue
        cols = sorted(valid_columns(rs, i))
        for c1, c2 in product(cols, repeat=2):
            try:
                tableau_to_gallery(rs, Tableau(family, rank, (c1, c2)))
                accepted = True
            except ValueError:
                accepted = False
            assert accepted == pair_exchange_ok(rs, c1, c2), (i, c1, c2)
            pairs += 1
    assert pairs > 0


# (family, rank) of the root system, a tableau it must refuse, and a
# pattern the ValueError's message must match (None: any message)
MALFORMED = [
    (("B", 2), Tableau("B", 2, ((1, bar(2, 1)),)), None),  # 1 and barred 1
    (("B", 2), Tableau("B", 2, ((2, 1),)), None),  # not increasing
    # C pair with an odd number of sign exchanges
    (("C", 2), Tableau("C", 2, ((1, 2), (1, bar(2, 2)))), None),
    # paired columns must agree up to sign exchanges
    (("B", 2), Tableau("B", 2, ((1,), (2,), (1, 2), (1, 2))), None),
    (("B", 2), Tableau("B", 2, ((),)), "height 0"),  # empty column
    (("A", 2), Tableau("A", 2, ((1, 2, 3),)), "height 3"),  # taller than the rank
    (("B", 3), Tableau("B", 3, ((1, 2, 3), (1,))), "truncated"),  # omega_1 cut short
    (("C", 2), Tableau("C", 2, ((1, 2), (1,))), "truncated"),  # heights differ in a block
    (("B", 2), Tableau("C", 2, ((1, 2), (1, 2))), "family/rank"),
    (("B", 2), Tableau("B", 3, ((1, 2, 3),)), "family/rank"),
]


def test_malformed_tableaux_rejected():
    for (family, rank), tab, match in MALFORMED:
        with pytest.raises(ValueError, match=match):
            tableau_to_gallery(root_system(family, rank), tab)


def test_json_and_pretty(b2):
    rs = b2
    g = gamma_lambda(rs, rs.weight((1, 1)))
    tab = gallery_to_tableau(rs, g)
    data = tableau_to_jsonable(tab)
    assert tableau_from_jsonable(data) == tab
    text = pretty(tab)
    assert len(text.splitlines()) == len(shape_partition(rs, rs.weight((1, 1))))
