"""The per-vertex and per-germ memos against reference loops.

Each memo is checked on a fresh root system, so the first pass fills it
and the second reads it back; the references below are the unmemoised
loops, written out here.
"""

import pytest

from hlgal.apartment import (
    crossings,
    expected_germ,
    local_data,
    local_data_for_key,
    local_key,
)
from hlgal.gallery import enumerate_of_type, fundamental_type, type_of_lambda
from hlgal.residue import first_factor_exponent
from hlgal.rootdata import RootSystem, RootSystemSpec, pairing, vneg
from hlgal.verify import dominant_lambdas
from systems import (
    all_reduced_words,
    group_elements,
    group_length,
    in_chamber_closure,
    root_system,
    scan_closest,
)

ACCEPTANCE_TYPES = [("A", 1), ("A", 2), ("A", 3), ("B", 2), ("C", 2), ("B", 3), ("C", 3)]
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


def reference_crossings(rs, v, d):
    plus = minus = 0
    x = rs.ambient(v)  # exact ambient coordinates, as Fractions
    for c in rs.pos_coroots:
        if pairing(x, c).denominator != 1:
            continue
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
    # the closest-chamber length at the origin equals the number of walls
    # the first germ leaves into their positive side; the two memos are
    # filled by different code
    checked = 0
    for family, rank in TYPES_TO_RANK_4:
        rs = root_system(family, rank)
        origin = (0,) * rs.dim
        for i in range(1, rank + 1):
            head = fundamental_type(rs, i)[0]
            for d in local_data(rs, origin).orbit(expected_germ(rs, head)):
                assert first_factor_exponent(rs, d) == crossings(rs, origin, d)[0]
                checked += 1
    assert checked == 280
