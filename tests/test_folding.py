import pytest

from hlgal.apartment import local_data
from hlgal.folding import (
    defining_chain,
    enumerate_pf,
    is_LS,
    is_positively_folded,
    locally_positively_folded,
)
from hlgal.gallery import Gallery, enumerate_of_type, fundamental_type, type_of_lambda
from hlgal.oracles import weyl_dimension
from hlgal.residue import is_minimal_pair, junction_factor
from hlgal.rootdata import pairing, vneg, vsub
from hlgal.verify import dominant_lambdas
from standard_galleries import concat, gamma_lambda, gamma_omega
from systems import group_elements, group_length


def is_minimal(rs, g):
    """All edge directions fit in one common closed chamber."""
    mask = -1
    for d in g.directions():
        mask &= rs.chamber_class_mask(d)
        if mask == 0:
            return False
    return True


def local_reflections(rs, local):
    """The reflections of W in the walls of a local group, aligned with
    its pos_functionals."""
    return [rs.reflections[rs.pos_coroots.index(c)] for c in local.pos_functionals]


def min_coset_rep(rs, x):
    """Minimal-length w with w(dominant_rep(x)) = x: the lowest bit of the
    chamber-class mask, since W is sorted by length."""
    mask = rs.chamber_class_mask(x)
    return (mask & -mask).bit_length() - 1


def ls_fold_check(rs, g):
    """For a single fundamental block: reachable from a minimal gallery by
    LS-folds only.  An LS characterisation independent of is_LS.

    Folds act at the interior vertex.  A fold by a local wall is admitted
    when the W/Stab(omega) class of the tail drops in Bruhat order and the
    local coset length drops by exactly one (a fold minimal for the local
    root system); it is an LS-fold when the W/Stab(omega) coset length
    also drops by exactly one.
    """
    assert len({t.index for t in g.gtype}) == 1 and g.num_edges() in (1, 2)
    assert is_positively_folded(rs, g)
    if g.num_edges() == 1:
        return True  # minuscule blocks have no interior vertex, no folds

    local = local_data(rs, g.vertices[1])
    d1 = vsub(g.vertices[1], g.vertices[0])
    d2 = vsub(g.vertices[2], g.vertices[1])

    def local_coset_length(d):
        dominant = [
            u
            for u in local.orbit(d)
            if all(pairing(u, c) >= 0 for c in local.pos_functionals)
        ]
        assert len(dominant) == 1
        # the elements come sorted by length, so the first match is minimal
        return next(group_length(local, u) for u in group_elements(local) if rs.act(u, dominant[0]) == d)

    best_flag = {}
    frontier = []
    for f0 in local.orbit(d1):
        if is_minimal_pair(rs, vneg(d1), f0):
            best_flag[f0] = True
            frontier.append(f0)
    while frontier:
        nxt = []
        for d in frontier:
            # a half-edge germ d has the W/Stab(omega) class of 2d in W.omega
            tau = min_coset_rep(rs, d)
            for refl in local_reflections(rs, local):
                image = rs.act(refl, d)
                if image == d:
                    continue
                kappa = min_coset_rep(rs, image)
                if kappa == tau or not rs.bruhat_leq(kappa, tau):
                    continue  # not a positive fold
                if local_coset_length(image) != local_coset_length(d) - 1:
                    continue  # not minimal for the local root system
                ls_step = rs.length[kappa] == rs.length[tau] - 1
                flag = best_flag[d] and ls_step
                if image not in best_flag:
                    best_flag[image] = flag
                    nxt.append(image)
                elif flag and not best_flag[image]:
                    best_flag[image] = True
                    nxt.append(image)
        frontier = nxt
    return best_flag.get(d2, False)


def two_step_reference(rs, d_in, vertex, d_out):
    """The junction test as a reachability search, independent of the
    fold/cross words behind junction_factor: the outgoing germ must be
    reachable, inside its type orbit, from a germ forming a minimal pair
    with the incoming one, by reflections in local walls that move the germ
    off their antidominant side."""
    local = local_data(rs, vertex)
    frontier = [f0 for f0 in local.orbit(d_out) if is_minimal_pair(rs, d_in, f0)]
    reachable = set(frontier)
    while frontier:
        nxt = []
        for d in frontier:
            for c, refl in zip(local.pos_functionals, local_reflections(rs, local)):
                if pairing(d, c) < 0:
                    image = rs.act(refl, d)
                    if image not in reachable:
                        reachable.add(image)
                        nxt.append(image)
        frontier = nxt
    return d_out in reachable


def apply_weyl(rs, w, g):
    return Gallery(tuple(rs.act(w, v) for v in g.vertices), g.gtype)


def test_minimal_pair_basics(a2):
    rs = a2
    w1 = rs.weight((1, 0))
    w2 = rs.weight((0, 1))
    assert is_minimal_pair(rs, w1, vneg(w1))
    assert not is_minimal_pair(rs, w1, w2)
    with pytest.raises(ValueError):
        is_minimal_pair(rs, w1, (0,) * rs.dim)


def test_minimal_pair_exhaustive_against_definition(a2, b2, c2):
    # oracle: scan all w, test membership in w(C+) and -w(C+)
    for rs in (a2, b2, c2):
        germs = {rs.act(w, omega) for w in range(rs.order()) for omega in rs.fundamental_weights}
        for d1 in germs:
            for d2 in germs:
                direct = any(
                    rs.is_dominant(rs.act(rs.inverse[w], d1))
                    and rs.is_dominant(vneg(rs.act(rs.inverse[w], d2)))
                    for w in range(rs.order())
                )
                assert is_minimal_pair(rs, d1, d2) == direct


def test_two_step_pf_cases():
    from systems import root_system

    rs = root_system("A", 1)
    w = rs.weight((1,))
    # dip then recover is positively folded; overshoot back is not;
    # straight through is minimal, hence positively folded
    for d_in, v, d_out, folded in ((w, vneg(w), w, True), (vneg(w), w, vneg(w), False),
                                   (vneg(w), w, w, True)):
        assert two_step_reference(rs, d_in, v, d_out) == folded
        assert junction_factor(rs, v, d_in, d_out).is_zero() != folded


def _nonglobal_counterexample(rs):
    """Locally folded, but with no defining chain; also its two-block prefix."""
    s1, s2 = rs.simple_reflections
    g1 = apply_weyl(rs, s1, gamma_omega(rs, 1))
    g2 = apply_weyl(rs, rs.mul(s1, s2), gamma_omega(rs, 2))
    g3 = apply_weyl(rs, rs.mul(s2, s1), gamma_omega(rs, 1))
    prefix = concat(rs, g1, g2)
    return concat(rs, prefix, g3), prefix


def test_locally_minimal_but_not_global(a2):
    gam, prefix = _nonglobal_counterexample(a2)
    assert locally_positively_folded(a2, gam)
    assert defining_chain(a2, gam) is None
    assert not is_positively_folded(a2, gam)
    assert not is_minimal(a2, gam)
    assert is_minimal(a2, prefix)


def test_defining_chain_of_standard_gallery(a2):
    rs = a2
    g = gamma_lambda(rs, rs.weight((2, 1)))
    chain = defining_chain(rs, g)
    assert chain is not None
    dirs = g.directions()
    for tau, d in zip(chain, dirs):
        assert rs.is_dominant(rs.act(rs.inverse[tau], d))
    for a, b in zip(chain, chain[1:]):
        assert rs.bruhat_leq(b, a)


def chamber_classes(rs, d):
    mask = rs.chamber_class_mask(d)
    return [w for w in range(rs.order()) if mask >> w & 1]


def test_defining_chain_none_for_increasing_zigzag(a2):
    rs = a2
    # dominant block then antidominant block: classes would have to increase
    g2 = apply_weyl(rs, rs.w0, gamma_omega(rs, 2))
    g = concat(rs, gamma_omega(rs, 1), g2)
    assert defining_chain(rs, g) is None
    # brute-force oracle over all chains
    dirs = g.directions()
    feasible = [chamber_classes(rs, d) for d in dirs]
    any_chain = any(
        rs.bruhat_leq(t1, t0) for t0 in feasible[0] for t1 in feasible[1]
    )
    assert not any_chain


def test_defining_chain_brute_force_agreement(b2):
    rs = b2
    lam = rs.weight((1, 1))
    for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
        chain = defining_chain(rs, g)
        feasible = [chamber_classes(rs, d) for d in g.directions()]

        def search(k, prev):
            if k == len(feasible):
                return True
            return any(
                rs.bruhat_leq(t, prev) and search(k + 1, t) for t in feasible[k]
            )

        exists = any(search(1, t0) for t0 in feasible[0])
        assert (chain is not None) == exists


def test_pf_test_agrees_with_defining_chain(a2, b2, c2, b3, c3):
    # the folding test reads only the chain's forward pass; it must accept
    # exactly the galleries that are locally folded and have a chain.  On
    # standard types every locally folded gallery has one, so the rank-2
    # zigzag types w_i w_j w_i, where some have none, are checked as well
    types = [(rs, type_of_lambda(rs, lam)) for rs in (a2, b2, c2, b3, c3)
             for lam in dominant_lambdas(rs, 2, 10**6)]
    types += [(rs, fundamental_type(rs, i) + fundamental_type(rs, j) + fundamental_type(rs, i))
              for rs in (a2, b2, c2) for i, j in ((1, 2), (2, 1))]
    chainless = 0
    for rs, gtype in types:
        for g in enumerate_of_type(rs, gtype):
            local = locally_positively_folded(rs, g)
            chain = defining_chain(rs, g)
            assert is_positively_folded(rs, g) == (local and chain is not None)
            chainless += local and chain is None
    assert chainless == 96


def test_minimality(a2):
    rs = a2
    assert is_minimal(rs, gamma_lambda(rs, rs.weight((2, 1))))
    assert is_minimal(rs, gamma_omega(rs, 1))


def test_local_pf_equals_global_on_bourbaki_types(a2, b2, c2):
    for rs in (a2, b2, c2):
        lam = rs.weight((1, 1))
        for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
            assert locally_positively_folded(rs, g) == is_positively_folded(rs, g)


def test_minimal_implies_ls_and_minuscule_all_ls(a2, b2):
    for rs, minuscule in ((a2, 1), (b2, 2)):
        for g in enumerate_of_type(rs, fundamental_type(rs, minuscule)):
            assert is_positively_folded(rs, g)
            assert is_LS(rs, g)


def test_is_ls_requires_pf(a2):
    gam, _ = _nonglobal_counterexample(a2)
    assert not is_LS(a2, gam)


def test_ls_count_is_weyl_dimension(a2):
    rs = a2
    lam = rs.weight((2, 1))
    n_ls = 0
    for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
        if is_positively_folded(rs, g) and is_LS(rs, g):
            n_ls += 1
    assert n_ls == weyl_dimension(rs, lam) == 15


def test_ls_fold_check_matches_is_ls(c2):
    rs = c2
    for g in enumerate_of_type(rs, fundamental_type(rs, 2)):
        if is_positively_folded(rs, g):
            assert ls_fold_check(rs, g) == is_LS(rs, g)


def test_ls_fold_check_b3_nonls_exists(b3):
    rs = b3
    flags = []
    for g in enumerate_of_type(rs, fundamental_type(rs, 2)):
        if is_positively_folded(rs, g):
            ok = ls_fold_check(rs, g)
            assert ok == is_LS(rs, g)
            flags.append(ok)
    assert False in flags  # folded-but-not-LS galleries exist in B3


def test_enumerate_pf_counts(a2):
    rs = a2
    lam = rs.weight((2, 1))
    assert len(enumerate_pf(rs, lam, lam)) == 1
    assert enumerate_pf(rs, lam, lam)[0] == gamma_lambda(rs, lam)
    assert len(enumerate_pf(rs, lam, rs.weight((1, 0)))) == 2


def test_enumerate_pf_counts_are_kostka(a3):
    from hlgal.oracles import kostka

    rs = a3
    lam = rs.weight((2, 1, 0))
    for coeffs in [(2, 1, 0), (0, 2, 0), (1, 0, 1), (0, 0, 0)]:
        mu = rs.weight(coeffs)
        assert len(enumerate_pf(rs, lam, mu)) == kostka(rs, lam, mu)
