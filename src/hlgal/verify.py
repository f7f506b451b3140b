"""Cross-checking harness: gallery formula against the classical oracles.

Each check yields a record {"check", "system", "status", "detail"}; a run
fails as soon as any record carries status "fail", and failing records
carry a counterexample payload.

check_system walks each standard type once, unfolded, one layer per
edge.  Every per-gallery record reads left folds of
per-edge rules: the defining chain's mask, the term, the crossings, the
column order and the round trip.  So the prefixes that agree on those
folds merge, each end state counts the galleries reaching it and sums
their terms, and every record still covers every gallery, by
multiplicity.  The folds read the per-edge rules themselves (chain_step
from w0, the junction factors, the wall crossings, and the
tableaux module's encode, per-block decode and adjacent-column rules),
never the folded walk's cut, so the records stay independent of the
chain-only rule that the walks of L and char rely on.  The first edge's
positive crossings are l(w_D0), the exponent of the term's first factor
q^{l(w_D0)}.
"""

from __future__ import annotations

from collections import Counter

from .apartment import crossings
from .gallery import chain_step, outgoing_edges, type_of_lambda, walk_plan
from .hlengine import L_polynomial, character_LS
from .oracles import (
    L_from_expansion,
    freudenthal_character,
    hall_littlewood_direct,
    kostka,
    weyl_dimension,
)
from .qpoly import QPoly
from .residue import junction_factor
from .rootdata import RootSystem, pairing, vadd, vneg, vsub
from .tableaux import columns_ordered, decode_block, germ_column


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


def _dominant_mus(rs: RootSystem, targets, pmap) -> list:
    """Dominant mu seen on either route (gallery targets, oracle support)."""
    seen = {}
    for t in targets:
        if rs.is_dominant(t):
            seen.setdefault(rs.canonical_key(t), t)
    for key in pmap:
        if not rs.is_dominant(key):  # every simple-coroot pairing >= 0 in A, B, C
            continue
        # lift back to a raw weight with integral coefficients
        coeffs = [divmod(pairing(key, c), rs.key_scale) for c in rs.simple_coroots]
        if all(rem == 0 for _, rem in coeffs):
            raw = rs.weight([a for a, _ in coeffs])
            seen.setdefault(rs.canonical_key(raw), raw)
    return [seen[k] for k in sorted(seen)]


INVARIANTS = ("crossings-constant", "cell-dimension", "semistandard-iff-folded", "tableau-roundtrip")


def _record(system: str, check: str, ok: bool, detail: dict) -> dict:
    return {"check": check, "system": system, "status": "pass" if ok else "fail", "detail": detail}


def _merged_summaries(rs: RootSystem, gtype) -> dict:
    """{end state: [galleries reaching it, their summed term]} of the
    unfolded type, each layer read from outgoing_edges at mask None.  A state
    is (vertex, incoming germ, chain mask, folded, delta, lead, total,
    ordered, decoded).

    folded says the prefix is positively folded: its chain (chain_step from
    1 << rs.w0) is alive and every junction factor so far is non-zero.
    Only then does it carry a chain mask, delta (its positive crossings
    minus its term's degree) and lead (its term's leading coefficient);
    Z[q] has no zero divisors, so both fold factor by factor, as the
    summed term does.
    total counts the crossings, ordered says columns_ordered holds on every
    adjacent pair, the last column being the incoming germ's, and decoded
    says each closed block decodes back to the walked one.  decode_block
    reads a block when it closes, from the walked vertex where it starts,
    while every earlier block decodes back; so no misplaced block moves a
    later decode."""
    gtype = tuple(gtype)
    germs = walk_plan(rs, gtype)[0]
    # the walked edge types of the block each edge closes; None for a first half
    closes = [
        None if t.segment == "first" else gtype[k - 1 : k + 1] if t.segment == "second" else (t,)
        for k, t in enumerate(gtype)
    ]
    layer = {((0,) * rs.dim, None, 1 << rs.w0, True, 0, 1, 0, True, True): [1, QPoly.one()]}
    for etype, reference, block in zip(gtype, germs, closes):
        nxt: dict = {}
        for (v, prev, mask, folded, delta, lead, total, ordered, decoded), (n, term) in layer.items():
            col = prev and germ_column(rs, prev)
            for d, _, _ in outgoing_edges(rs, v, etype, reference, prev, None):
                w = vadd(v, d)
                p, m = crossings(rs, v, d)
                fold, t = (None, False, None, None), None  # (chain mask, folded, delta, lead), term
                reach = folded and chain_step(rs, mask, d)
                if reach:
                    # the first factor is q^{l(w_D0)}, with l(w_D0) = p at the origin
                    factor = QPoly.q_power(p) if prev is None else junction_factor(rs, v, vneg(prev), d)
                    if not factor.is_zero():
                        t = term * factor
                        fold = (reach, True, delta + p - factor.degree(), lead * factor.leading_coefficient())
                c = germ_column(rs, d)
                o = ordered and (prev is None or columns_ordered(col, c))
                r = decoded
                if block is not None and decoded:
                    if len(block) == 2:
                        r = decode_block(rs, vsub(v, prev), (col, c)) == (block, (v, w))
                    else:
                        r = decode_block(rs, v, (c,)) == (block, (w,))
                state = (w, d, *fold, total + p + m, o, r)
                entry = nxt.get(state)
                if entry is None:
                    nxt[state] = [n, t]
                else:
                    entry[0] += n
                    if t is not None:
                        entry[1] = entry[1] + t
        layer = nxt
    return layer


def check_system(rs: RootSystem, max_coeff_sum: int, max_height: int) -> list:
    records = []
    name = "%s%d" % (rs.family, rs.rank)
    for lam in dominant_lambdas(rs, max_coeff_sum, max_height):
        lam_c = list(rs.weight_coeffs(lam))
        height = rs.height(lam)
        violations = Counter()
        targets = {}  # canonical target -> the first raw target seen
        sums = {}  # canonical target -> summed gallery terms

        for state, (n, term) in _merged_summaries(rs, type_of_lambda(rs, lam)).items():
            target, _, _, folded, delta, lead, total, ordered, decoded = state
            violations["crossings-constant"] += n * (total != height)
            violations["semistandard-iff-folded"] += n * (ordered != folded)
            violations["tableau-roundtrip"] += n * (not decoded)
            if folded:
                # the top term of q^{l(w_D0)} prod_j U_j(q) is q^(cell dimension),
                # and the cell dimension is the positive-crossing count
                violations["cell-dimension"] += n * (delta != 0 or lead != 1)
                key = rs.canonical_key(target)
                targets.setdefault(key, target)
                sums[key] = sums.get(key, QPoly.zero()) + term

        for check in INVARIANTS:
            n_bad = violations[check]
            detail = {"lambda": lam_c, "violations": n_bad}
            records.append(_record(name, "%s[%s]" % (check, lam_c), n_bad == 0, detail))

        # the character walk of `hlgal char` against the multiplicity recursion
        char = character_LS(rs, lam)
        freud = freudenthal_character(rs, lam)
        dim = weyl_dimension(rs, lam)
        ls_total = sum(char.values())
        detail = {"lambda": lam_c, "ls_total": ls_total, "dimension": dim}
        records.append(
            _record(name, "character[%s]" % lam_c, char == freud and ls_total == dim, detail)
        )

        pmap = hall_littlewood_direct(rs, lam)
        for mu in _dominant_mus(rs, targets.values(), pmap):
            mu_c = list(rs.weight_coeffs(mu))
            mu_canon = rs.canonical_key(mu)
            l_gal = sums.get(mu_canon, QPoly.zero())
            l_dir = L_from_expansion(rs, pmap, lam, mu)
            payload = {
                "lambda": lam_c,
                "mu": mu_c,
                "gallery": list(l_gal.coeffs),
                "direct": list(l_dir.coeffs),
            }
            records.append(
                _record(name, "oracle-equality[%s->%s]" % (lam_c, mu_c), l_gal == l_dir, payload)
            )
            euler = l_gal(1)
            want = 1 if mu_canon == rs.canonical_key(lam) else 0
            detail = {"lambda": lam_c, "mu": mu_c, "value": euler, "expected": want}
            records.append(_record(name, "euler[%s->%s]" % (lam_c, mu_c), euler == want, detail))
            twice_bound = rs.height(vadd(lam, mu))  # 2 <lambda + mu, rho>
            ok_deg = l_gal.is_zero() or 2 * l_gal.degree() <= twice_bound
            # two independent routes: the gallery sum's top coefficient and
            # the character walk's LS count
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
            records.append(_record(name, "degree-leading[%s->%s]" % (lam_c, mu_c), ok_deg, detail))
    return records


def a2_example_records(rs: RootSystem) -> list:
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
        detail = {"mu": list(mu_coeffs), "gallery": list(got.coeffs), "expected": list(want.coeffs)}
        records.append(_record("A2", "a2-example[%s]" % (list(mu_coeffs),), got == want, detail))
    return records


def run_suite(rs: RootSystem, max_coeff_sum: int, max_height: int, suite: str = "default") -> dict:
    """The named suite's records and verdict.  ValueError on a negative
    bound, which would walk no weight and pass with no check."""
    if max_coeff_sum < 0 or max_height < 0:
        raise ValueError("max_coeff_sum and max_height must be nonnegative")
    if suite == "a2-example":
        if (rs.family, rs.rank) != ("A", 2):
            raise ValueError("the a2-example suite runs on --type A2")
        records = a2_example_records(rs)
    elif suite == "default":
        records = check_system(rs, max_coeff_sum, max_height)
    else:
        raise ValueError("unknown suite %r: expected 'default' or 'a2-example'" % (suite,))
    failures = [r for r in records if r["status"] == "fail"]
    return {
        "system": "%s%d" % (rs.family, rs.rank),
        "suite": suite,
        "checks": len(records),
        "failures": failures,
        "ok": not failures,
        "records": records,
    }
