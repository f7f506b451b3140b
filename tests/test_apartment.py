from dataclasses import dataclass

from hlgal.apartment import EdgeType, crossings, expected_germ, local_data, local_key
from hlgal.gallery import enumerate_of_type, type_of_lambda
from hlgal.rootdata import pairing, vadd, vdiv, vneg
from hlgal.verify import dominant_lambdas
from standard_galleries import gamma_lambda, gamma_omega
from systems import ACCEPTANCE_TYPES, group_elements, root_system


def origin(rs):
    return (0,) * rs.dim


@dataclass(frozen=True)
class AffineRoot:
    """A wall functional (c, n); the hyperplane is {x : <x,c> + n = 0}."""

    root: tuple
    level: int


def phi_a_minus(rs, vertex, direction):
    """Negative wall functionals through the vertex the germ leaves behind:
    {(-c, n) : c positive, <vertex, c> integral, edge not inside H^+}.

    The definition-level reference for apartment.crossings(...)[0]."""
    out = []
    for c in rs.pos_coroots:
        level, rem = divmod(pairing(vertex, c), rs.scale)
        if rem:
            continue
        if pairing(direction, c) > 0:
            out.append(AffineRoot(vneg(c), level))
    return frozenset(out)


def cell_dimension(rs, g):
    """Sum of |Phi^a_-(V_i, E_i)|; the attracting-cell dimension."""
    return sum(len(phi_a_minus(rs, v, d)) for v, d in zip(g.vertices, g.directions()))


def is_special(rs, vertex):
    return len(local_key(rs, vertex)) == len(rs.pos_coroots)


def edge_respects_walls(rs, start, end):
    """Face property: the open segment meets no wall it is not contained in."""
    for c in rs.pos_coroots:
        # scaled levels: the walls of c sit at the multiples of rs.scale
        a = pairing(start, c)
        b = pairing(end, c)
        if a == b:
            continue
        lo, hi = (a, b) if a < b else (b, a)
        # a wall strictly inside (lo, hi) would be a wall crossing
        if (lo // rs.scale + 1) * rs.scale < hi:
            return False
    return True


def test_local_system_at_origin(b2):
    local = local_data(b2, origin(b2))
    assert len(local.pos_functionals) == len(b2.pos_coroots)
    assert len(group_elements(local)) == b2.order()
    assert is_special(b2, origin(b2))


def test_weights_are_special(a2, b2, c3):
    for rs in (a2, b2, c3):
        for coeffs in ([1] + [0] * (rs.rank - 1), [1] * rs.rank):
            assert is_special(rs, rs.weight(coeffs))


def test_midpoint_local_system_b2(b2):
    # omega_2 + omega_1 / 2 = (1, 1/2), on the half lattice but not a
    # weight, sits on the walls of the short roots only
    v = vadd(b2.weight((0, 1)), vdiv(b2.weight((1, 0)), 2))
    local = local_data(b2, v)
    assert local.pos_functionals == ((0, 2), (2, 0))
    assert 0 < len(local.pos_functionals) < len(b2.pos_coroots)
    assert not is_special(b2, v)


def test_midpoint_of_nonminuscule_b2(b2):
    g = gamma_omega(b2, 1)
    mid = g.vertices[1]
    local = local_data(b2, mid)
    # two orthogonal short-wall families survive at the midpoint
    assert len(local.pos_functionals) == 2
    assert len(group_elements(local)) == 4


def test_phi_a_minus_counts(a2):
    rs = a2
    o = origin(rs)
    dom = vadd(rs.weight((1, 0)), rs.weight((0, 1)))
    assert len(phi_a_minus(rs, o, dom)) == 3  # all three walls left behind
    assert len(phi_a_minus(rs, o, vneg(dom))) == 0
    # members carry negative functionals and integral levels
    for aff in phi_a_minus(rs, o, dom):
        assert pairing(o, aff.root) + rs.scale * aff.level == 0


def test_phi_a_minus_matches_positive_crossings(b2):
    rs = b2
    g = gamma_lambda(rs, rs.weight((1, 1)))
    for v, d in zip(g.vertices, g.directions()):
        assert len(phi_a_minus(rs, v, d)) == crossings(rs, v, d)[0]


def test_faces_at_special_vertex_is_full_orbit(a2):
    rs = a2
    t = EdgeType(1, "whole")
    orbit = local_data(rs, origin(rs)).orbit(expected_germ(rs, t))
    assert len(orbit) == 3
    assert expected_germ(rs, t) in orbit


def test_faces_at_midpoint_matches_sign_changes(b2):
    # B2: second halves at the omega_1 midpoint are sign flips of the germ
    g = gamma_omega(b2, 1)
    mid = g.vertices[1]
    germ = g.directions()[0]
    orbit = local_data(b2, mid).orbit(germ)
    assert set(orbit) == {germ, vneg(germ)}


def test_faces_orbit_size_divides_group(c3):
    rs = c3
    g = gamma_omega(rs, 2)
    mid = g.vertices[1]
    germ = g.directions()[0]
    local = local_data(rs, mid)
    orbit = local.orbit(germ)
    assert len(group_elements(local)) % len(orbit) == 0


def test_gallery_edges_respect_walls(b3, c3):
    for rs in (b3, c3):
        vs = gamma_lambda(rs, rs.weight((1,) * rs.rank)).vertices
        for start, end in zip(vs, vs[1:]):
            assert edge_respects_walls(rs, start, end)
    # a straight shot across a wall is not a face
    assert not edge_respects_walls(b3, origin(b3), b3.weight((2, 0, 0)))


def test_all_enumerated_edges_are_faces(b2):
    rs = b2
    for g in enumerate_of_type(rs, type_of_lambda(rs, rs.weight((1, 1)))):
        for start, end in zip(g.vertices, g.vertices[1:]):
            assert edge_respects_walls(rs, start, end)


def test_edge_tags_name_the_germ_class():
    # every edge the walk takes has a germ W-conjugate to the dominant
    # germ of its type tag (after the invariant line in type A), and
    # blocks of different fundamental weights have different germ classes
    for family, rank in ACCEPTANCE_TYPES:
        rs = root_system(family, rank)

        def germ_class(d):
            return rs.dominant_rep(rs.canonical_weight(d))

        by_index = {}
        for lam in dominant_lambdas(rs, 2, 16):
            for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
                for t, d in zip(g.gtype, g.directions()):
                    assert germ_class(d) == germ_class(expected_germ(rs, t)), (family, rank, t.tag())
                    by_index[t.index] = germ_class(d)
        assert sorted(by_index) == list(range(1, rank + 1))
        assert len(set(by_index.values())) == rank

