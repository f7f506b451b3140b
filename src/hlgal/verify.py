"""Cross-checking harness: gallery formula against the classical oracles.

Each check yields a record {"check", "system", "status", "detail"}; a run
fails as soon as any record carries status "fail", and failing records
carry a counterexample payload.  The fault switch exists so the harness
can prove to itself that it detects disagreements.
"""

from __future__ import annotations

from .folding import is_positively_folded
from .gallery import (
    cell_dimension,
    crossing_counts,
    enumerate_of_type,
    type_of_lambda,
)
from .hlengine import L_polynomial, character_LS, gallery_term
from .oracles import (
    L_from_expansion,
    freudenthal_character,
    hall_littlewood_direct,
    kostka,
    weyl_dimension,
)
from .qpoly import QPoly
from .rootdata import RootSystem, pairing, vadd
from .tableaux import gallery_to_tableau, is_semistandard, tableau_to_gallery


def dominant_lambdas(rs: RootSystem, max_coeff_sum: int, max_height: int) -> list:
    """Dominant weights with bounded coefficient sum and <lambda, 2 rho>."""
    out = []

    def rec(prefix, remaining):
        if len(prefix) == rs.rank:
            lam = rs.weight(prefix)
            if rs.height(lam) <= max_height:
                out.append(lam)
            return
        for a in range(remaining + 1):
            rec(prefix + [a], remaining - a)

    rec([], max_coeff_sum)
    out.sort(key=lambda v: (rs.height(v), v))
    return out


def _dominant_mus(rs: RootSystem, pf_galleries, pmap) -> list:
    """Dominant mu seen on either route (gallery targets, oracle support)."""
    seen = {}
    for g in pf_galleries:
        if rs.is_dominant(g.target):
            seen.setdefault(rs.canonical_key(g.target), g.target)
    for key in pmap:
        # lift back to a raw dominant weight with integral coefficients
        coeffs = [divmod(pairing(key, c), rs.key_scale) for c in rs.simple_coroots]
        if all(a >= 0 and rem == 0 for a, rem in coeffs):
            raw = rs.weight([a for a, _ in coeffs])
            seen.setdefault(rs.canonical_key(raw), raw)
    return [seen[k] for k in sorted(seen)]


def check_system(rs: RootSystem, max_coeff_sum: int, max_height: int, fault: str = None) -> list:
    records = []
    name = "%s%d" % (rs.family, rs.rank)

    def record(check, ok, detail):
        records.append(
            {
                "check": check,
                "system": name,
                "status": "pass" if ok else "fail",
                "detail": detail,
            }
        )

    for lam in dominant_lambdas(rs, max_coeff_sum, max_height):
        lam_c = list(rs.weight_coeffs(lam))
        galleries = tuple(enumerate_of_type(rs, type_of_lambda(rs, lam)))
        folded = [is_positively_folded(rs, g) for g in galleries]
        pf = tuple(g for g, ok in zip(galleries, folded) if ok)
        pmap = hall_littlewood_direct(rs, lam)
        height = rs.height(lam)

        # combinatorial invariants over every gallery of the type
        bad_cross = bad_cell = bad_tab = bad_round = 0
        for g, ok in zip(galleries, folded):
            plus, minus, both = crossing_counts(rs, g)
            if both != height:
                bad_cross += 1
            if cell_dimension(rs, g) != plus:
                bad_cell += 1
            tab = gallery_to_tableau(rs, g)
            if is_semistandard(tab) != ok:
                bad_tab += 1
            if tableau_to_gallery(rs, tab) != g:
                bad_round += 1
        record(
            "crossings-constant[%s]" % lam_c,
            bad_cross == 0,
            {"lambda": lam_c, "violations": bad_cross},
        )
        record(
            "cell-dimension[%s]" % lam_c,
            bad_cell == 0,
            {"lambda": lam_c, "violations": bad_cell},
        )
        record(
            "semistandard-iff-folded[%s]" % lam_c,
            bad_tab == 0,
            {"lambda": lam_c, "violations": bad_tab},
        )
        record(
            "tableau-roundtrip[%s]" % lam_c,
            bad_round == 0,
            {"lambda": lam_c, "violations": bad_round},
        )

        # character against the multiplicity recursion
        char = character_LS(rs, lam)
        freud = freudenthal_character(rs, lam)
        dim = weyl_dimension(rs, lam)
        record(
            "character[%s]" % lam_c,
            char == freud and sum(char.values()) == dim,
            {"lambda": lam_c, "ls_total": sum(char.values()), "dimension": dim},
        )

        for mu in _dominant_mus(rs, pf, pmap):
            mu_c = list(rs.weight_coeffs(mu))
            mu_canon = rs.canonical_key(mu)
            l_gal = QPoly.zero()
            for g in pf:
                if rs.canonical_key(g.target) == mu_canon:
                    l_gal = l_gal + gallery_term(rs, g)
            if fault == "sign-flip" and not l_gal.is_zero():
                l_gal = -l_gal
            l_dir = L_from_expansion(rs, pmap, lam, mu)
            payload = {
                "lambda": lam_c,
                "mu": mu_c,
                "gallery": list(l_gal.coeffs),
                "direct": list(l_dir.coeffs),
            }
            record("oracle-equality[%s->%s]" % (lam_c, mu_c), l_gal == l_dir, payload)
            euler = l_gal(1)
            want = 1 if mu_canon == rs.canonical_key(lam) else 0
            record(
                "euler[%s->%s]" % (lam_c, mu_c),
                euler == want,
                {"lambda": lam_c, "mu": mu_c, "value": euler, "expected": want},
            )
            twice_bound = rs.height(vadd(lam, mu))  # 2 <lambda + mu, rho>
            ok_deg = l_gal.is_zero() or 2 * l_gal.degree() <= twice_bound
            n_ls = char.get(rs.canonical_weight(mu), 0)
            if n_ls:
                ok_deg = (
                    ok_deg
                    and 2 * l_gal.degree() == twice_bound
                    and l_gal.leading_coefficient() == n_ls
                )
            detail = {"lambda": lam_c, "mu": mu_c, "ls": n_ls}
            if rs.family == "A" and not l_gal.is_zero():
                k = kostka(rs, lam, mu)
                ok_deg = ok_deg and l_gal.leading_coefficient() == k
                detail["kostka"] = k
            record("degree-leading[%s->%s]" % (lam_c, mu_c), ok_deg, detail)
    return records


def a2_example_records(rs: RootSystem, fault: str = None) -> list:
    """The worked rank-2 values: lambda = 2w1 + w2."""
    lam = rs.weight((2, 1))
    expected = {
        (2, 1): QPoly((0, 0, 0, 0, 0, 0, 1)),  # q^6
        (0, 2): QPoly((0, 0, 0, 0, -1, 1)),  # q^5 - q^4
        (1, 0): QPoly((0, 0, 0, -2, 2)),  # 2q^4 - 2q^3
    }
    records = []
    for mu_coeffs, want in expected.items():
        got = L_polynomial(rs, lam, rs.weight(mu_coeffs))
        if fault == "sign-flip" and not got.is_zero():
            got = -got
        records.append(
            {
                "check": "a2-example[%s]" % (list(mu_coeffs),),
                "system": "A2",
                "status": "pass" if got == want else "fail",
                "detail": {
                    "mu": list(mu_coeffs),
                    "gallery": list(got.coeffs),
                    "expected": list(want.coeffs),
                },
            }
        )
    return records


def run_suite(
    rs: RootSystem,
    suite: str = "default",
    max_coeff_sum: int = 2,
    max_height: int = 12,
    fault: str = None,
) -> dict:
    if suite == "a2-example":
        if (rs.family, rs.rank) != ("A", 2):
            raise ValueError("the a2-example suite runs on --type A2")
        records = a2_example_records(rs, fault)
    else:
        records = check_system(rs, max_coeff_sum, max_height, fault)
    failures = [r for r in records if r["status"] == "fail"]
    return {
        "system": "%s%d" % (rs.family, rs.rank),
        "suite": suite,
        "checks": len(records),
        "failures": failures,
        "ok": not failures,
        "records": records,
    }
