import json

import pytest
from hypothesis import given, settings, strategies as st

from hlgal.apartment import EdgeType, local_data
from hlgal.gallery import (
    Gallery,
    crossing_counts,
    enumerate_of_type,
    gallery_to_jsonable,
    type_of_lambda,
)
from hlgal.rootdata import vdiv, vscale
from hlgal.verify import dominant_lambdas
from standard_galleries import concat, gamma_lambda, gamma_omega
from systems import root_system
from test_acceptance import MAX_COEFF_SUM, MAX_HEIGHT, SYSTEMS
from test_apartment import cell_dimension
from test_lattice import from_ambient


def count_of_type(rs, lam):
    """Product of the local orbit sizes along the standard gallery."""
    g = gamma_lambda(rs, lam)
    total = 1
    for v, d in zip(g.vertices, g.directions()):
        total *= len(local_data(rs, v).orbit(d))
    return total


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
    assert g.target == g.source


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


@pytest.mark.parametrize("family,rank", SYSTEMS)
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


def test_concat_target_arithmetic(a2):
    g1 = gamma_omega(a2, 1)
    g2 = gamma_omega(a2, 2)
    both = concat(a2, g1, g2)
    from hlgal.rootdata import vsub

    assert vsub(both.target, g1.target) == vsub(g2.target, g2.source)


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
