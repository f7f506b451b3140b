import pytest

from hlgal.apartment import crossings, local_data
from hlgal.gallery import enumerate_of_type, type_of_lambda
from hlgal.qpoly import QPoly
from hlgal.residue import (
    choose_sector,
    junction_factor,
    local_factor,
    valid_sector_classes,
)
from hlgal.rootdata import vdiv, vneg
from hlgal.verify import dominant_lambdas
from standard_galleries import gamma_lambda
from systems import all_reduced_words, group_elements, group_length, in_chamber_closure
from test_folding import two_step_reference
from test_lattice import from_ambient


def origin(rs):
    return (0,) * rs.dim


def default_choices(rs, v, d_in, d_out):
    """The sector and reduced word that junction_factor uses."""
    sector = choose_sector(valid_sector_classes(rs, v, d_in, d_out))
    return sector, local_data(rs, v).closest_chamber(d_out)[1]


def sector_list(rs, mask):
    return [w for w in range(rs.order()) if mask >> w & 1]


def test_closest_chamber_word_trivial(a2):
    rs = a2
    antidom = vneg(rs.weight((1, 1)))
    u, word = local_data(rs, origin(rs)).closest_chamber(antidom)
    assert u == 0 and word == ()


def test_closest_chamber_word_dominant_omega1(a2):
    rs = a2
    local = local_data(rs, origin(rs))
    u, word = local.closest_chamber(rs.weight((1, 0)))
    assert group_length(local, u) == 2
    assert len(word) == 2
    # minimality against exhaustive scan
    best = min(
        group_length(local, v)
        for v in group_elements(local)
        if in_chamber_closure(local, v, rs.weight((1, 0)))
    )
    assert group_length(local, u) == best


def test_first_factor_is_origin_length(a2):
    # the standard gallery's first factor: q^{<2 omega_1, rho>} for omega_1
    # first, read off the positive crossings at the origin
    rs = a2
    g = gamma_lambda(rs, rs.weight((2, 1)))
    assert crossings(rs, origin(rs), g.directions()[0])[0] == 2


def test_minimal_junction_single_all_cross(a2):
    rs = a2
    g = gamma_lambda(rs, rs.weight((2, 1)))
    dirs = g.directions()
    v = g.vertices[1]
    d_in, d_out = vneg(dirs[0]), dirs[1]
    factor = local_factor(rs, v, d_in, d_out, *default_choices(rs, v, d_in, d_out))
    # one word and no folds: a monomial q^t
    assert factor == QPoly.q_power(factor.degree())


def test_worked_junction_stats(a2):
    # the worked gallery ending at omega_1 through s1(omega_1), omega_2
    rs = a2
    s1 = rs.simple_reflections[0]
    v1 = rs.act(s1, rs.weight((1, 0)))
    v2 = rs.weight((0, 1))
    galleries = [
        g
        for g in enumerate_of_type(rs, type_of_lambda(rs, rs.weight((2, 1))))
        if g.vertices[1] == v1 and g.vertices[2] == v2
    ]
    target_gals = [g for g in galleries if rs.canonical_weight(g.target) == rs.canonical_weight(rs.weight((1, 0)))]
    assert len(target_gals) == 1
    g = target_gals[0]
    dirs = g.directions()
    # vertex V1: one gallery with a fold and a positive crossing: (q-1) q
    v, d_in, d_out = g.vertices[1], vneg(dirs[0]), dirs[1]
    q_times_q_minus_one = QPoly((0, -1, 1))
    assert local_factor(rs, v, d_in, d_out, *default_choices(rs, v, d_in, d_out)) == q_times_q_minus_one
    assert junction_factor(rs, v, d_in, d_out) == q_times_q_minus_one
    # vertex V2: minimal junction contributing a plain q
    assert junction_factor(rs, g.vertices[2], vneg(dirs[1]), dirs[2]) == QPoly.q_power(1)
    # and the origin factor is q
    assert crossings(rs, origin(rs), dirs[0])[0] == 1


def test_stats_empty_word():
    from systems import root_system

    rs = root_system("A", 1)
    w = rs.weight((1,))
    # the straight antidominant gallery's junction: the outgoing germ already
    # sits in the base chamber, so the word is empty and the factor is 1
    sector, word = default_choices(rs, vneg(w), w, vneg(w))
    assert word == ()
    assert local_factor(rs, vneg(w), w, vneg(w), sector, word) == QPoly.one()


def test_nonfolded_junction_empty(a2):
    rs = a2
    w1 = rs.weight((1, 0))
    # straight overshoot: (in, out) = (-w1 at vertex, -w1) is not folded
    assert not two_step_reference(rs, vneg(w1), w1, vneg(w1))
    assert junction_factor(rs, w1, vneg(w1), vneg(w1)).is_zero()
    _, word = local_data(rs, w1).closest_chamber(vneg(w1))
    for w in sector_list(rs, valid_sector_classes(rs, w1, vneg(w1), vneg(w1))):
        assert local_factor(rs, w1, vneg(w1), vneg(w1), w, word).is_zero()


def test_choose_sector_deterministic_and_valid(b2):
    rs = b2
    g = gamma_lambda(rs, rs.weight((1, 1)))
    dirs = g.directions()
    for j in range(1, g.num_edges()):
        d_in, d_out = vneg(dirs[j - 1]), dirs[j]
        w = choose_sector(valid_sector_classes(rs, g.vertices[j], d_in, d_out))
        assert valid_sector_classes(rs, g.vertices[j], d_in, d_out) >> w & 1


def test_sector_classes_match_the_w0_product_definition(b2, c2):
    # valid: w(C) holds the incoming germ and w w0(C) a germ of the
    # outgoing type; chosen: the least valid index, which is Bruhat-minimal
    for rs in (b2, c2):
        def classes(d):
            return {w for w in range(rs.order()) if rs.is_dominant(rs.act(rs.inverse[w], d))}

        seen = set()
        for lam in dominant_lambdas(rs, 2, 10**6):
            for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
                dirs = g.directions()
                for j in range(1, g.num_edges()):
                    v, d_in, d_out = g.vertices[j], vneg(dirs[j - 1]), dirs[j]
                    if (v, d_in, d_out) in seen:
                        continue
                    seen.add((v, d_in, d_out))
                    orbit = local_data(rs, v).orbit(d_out)
                    valid = {
                        w for w in classes(d_in)
                        if any(rs.mul(w, rs.w0) in classes(f) for f in orbit)
                    }
                    mask = valid_sector_classes(rs, v, d_in, d_out)
                    assert set(sector_list(rs, mask)) == valid
                    if not valid:
                        continue
                    chosen = choose_sector(valid_sector_classes(rs, v, d_in, d_out))
                    assert chosen == min(valid)
                    assert not any(u != chosen and rs.bruhat_leq(u, chosen) for u in valid)


def test_choose_sector_raises_without_candidates(b2):
    # at the omega_1 midpoint, a regular incoming germ whose opposite
    # chamber holds only vertical type-1 germs leaves no valid sector
    rs = b2
    mid = vdiv(rs.weight((1, 0)), 2)
    d_in = from_ambient(rs, (-1, 2))
    d_out = mid
    assert valid_sector_classes(rs, mid, d_in, d_out) == 0
    with pytest.raises(ValueError):
        choose_sector(valid_sector_classes(rs, mid, d_in, d_out))
    # the factor is the sum over no local galleries, and the junction is
    # not positively folded
    assert junction_factor(rs, mid, d_in, d_out) == QPoly.zero()
    assert not two_step_reference(rs, d_in, mid, d_out)


def test_junction_factor_sector_and_word_independence(c2):
    rs = c2
    lam = rs.weight((1, 1))
    seen = set()
    for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
        dirs = g.directions()
        for j in range(1, g.num_edges()):
            v = g.vertices[j]
            d_in, d_out = vneg(dirs[j - 1]), dirs[j]
            key = (v, d_in, d_out)
            if key in seen:
                continue
            seen.add(key)
            if junction_factor(rs, v, d_in, d_out).is_zero():
                continue
            sectors = sector_list(rs, valid_sector_classes(rs, v, d_in, d_out))
            local = local_data(rs, v)
            u, _ = local.closest_chamber(d_out)
            values = {
                local_factor(rs, v, d_in, d_out, w, word)
                for w in sectors
                for word in all_reduced_words(local, u)
            }
            assert values == {junction_factor(rs, v, d_in, d_out)}


def test_stats_bounded_by_word_length(b2):
    rs = b2
    lam = rs.weight((1, 1))
    for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
        dirs = g.directions()
        for j in range(1, g.num_edges()):
            v = g.vertices[j]
            d_in, d_out = vneg(dirs[j - 1]), dirs[j]
            # each word adds q^t (q-1)^r with t + r <= len(word)
            sector, word = default_choices(rs, v, d_in, d_out)
            factor = local_factor(rs, v, d_in, d_out, sector, word)
            assert factor.is_zero() or factor.degree() <= len(word)
