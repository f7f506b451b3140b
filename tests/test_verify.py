import sys
from collections import Counter

import pytest

import hlgal.hlengine
import hlgal.tableaux
import hlgal.verify
from hlgal.folding import is_positively_folded, locally_positively_folded
from hlgal.gallery import crossing_counts, enumerate_of_type, fundamental_type, type_of_lambda
from hlgal.hlengine import gallery_term
from hlgal.qpoly import QPoly
from hlgal.rootdata import RootSystem, RootSystemSpec, vadd, vneg
from hlgal.tableaux import gallery_to_tableau, is_semistandard, tableau_to_gallery
from hlgal.verify import _merged_summaries, dominant_lambdas, run_suite
from systems import root_system

# the fields of an end state of verify's pass, and TERM for its summed term
VERTEX, PREV, MASK, FOLDED, DELTA, LEAD, TOTAL, ORDERED, DECODED, TERM = range(10)


def corrupt_field(field, change):
    """A corruption of the pass: ``change`` applied to one field of every end
    state (to delta, lead and the term only where the state is folded, as
    they are None elsewhere).  Each change is one to one, so no two end
    states merge."""

    def corrupt(summaries):
        def corrupted(rs, gtype):
            out = {}
            for state, (n, term) in summaries(rs, gtype).items():
                state = list(state) + [term]
                if state[FOLDED] or field not in (DELTA, LEAD, TERM):
                    state[field] = change(state[field])
                out[tuple(state[:TERM])] = [n, state[TERM]]
            return out

        return corrupted

    return corrupt


def test_cell_dimension_record_reads_the_terms(monkeypatch, b2):
    # a term one degree too high, or not monic, breaks the monic-of-cell-dimension
    # check, also on the empty gallery of lambda = 0
    for field, change in ((DELTA, lambda delta: delta + 1), (LEAD, lambda lead: 2 * lead)):
        monkeypatch.setattr(hlgal.verify, "_merged_summaries", corrupt_field(field, change)(_merged_summaries))
        report = run_suite(b2, max_coeff_sum=1, max_height=12)
        cell = [r for r in report["records"] if r["check"].startswith("cell-dimension[")]
        assert len(cell) == 3
        assert all(r["status"] == "fail" for r in cell), (field, cell)
        assert all(r["detail"]["violations"] > 0 for r in cell)
    # and so does a junction factor rule one degree too high, or not monic,
    # on exactly the lambdas whose galleries have a junction
    monkeypatch.undo()
    factor = hlgal.verify.junction_factor
    for change in (lambda f: f.shifted(1), lambda f: f + f):
        monkeypatch.setattr(hlgal.verify, "junction_factor", lambda *a, change=change: change(factor(*a)))
        report = run_suite(b2, max_coeff_sum=1, max_height=12)
        cell = [r for r in report["records"] if r["check"].startswith("cell-dimension[")]
        junctions = [len(type_of_lambda(b2, b2.weight(r["detail"]["lambda"]))) > 1 for r in cell]
        assert [r["status"] == "fail" for r in cell] == junctions and any(junctions), cell


def test_zero_junction_factor_unfolds_exactly_its_galleries(monkeypatch, b2):
    # one junction that the chain keeps, its factor forced to zero: the
    # positively folded galleries through it are no longer folded, while
    # their tableaux stay semistandard.  So semistandard-iff-folded fails,
    # once per such gallery, on exactly the lambdas whose galleries have
    # that junction, and oracle-equality fails at each dominant target where
    # their terms summed to a non-zero polynomial; no other record of
    # another lambda, and no record that reads no junction factor, fails
    lams = dominant_lambdas(b2, 2, 16)
    g = next(g for g in enumerate_of_type(b2, type_of_lambda(b2, b2.weight((1, 1))), folded=True))
    junction = (g.vertices[1], vneg(g.directions()[0]), g.directions()[1])
    factor = hlgal.verify.junction_factor
    monkeypatch.setattr(
        hlgal.verify, "junction_factor", lambda rs, *key: QPoly.zero() if key == junction else factor(rs, *key)
    )
    want = {}
    for lam in lams:
        lam_c, removed, unfolded = list(b2.weight_coeffs(lam)), {}, 0
        for g in enumerate_of_type(b2, type_of_lambda(b2, lam), folded=True):
            dirs = g.directions()
            if any((g.vertices[j], vneg(dirs[j - 1]), dirs[j]) == junction for j in range(1, len(dirs))):
                unfolded += 1
                if b2.is_dominant(g.target):
                    removed[g.target] = removed.get(g.target, QPoly.zero()) + gallery_term(b2, g)
        changed = {str(list(b2.weight_coeffs(mu))) for mu, term in removed.items() if not term.is_zero()}
        want[str(lam_c)] = (unfolded, changed)
    assert any(n for n, _ in want.values()) and not all(n for n, _ in want.values())
    report = run_suite(b2, max_coeff_sum=2, max_height=16)
    for r in report["records"]:
        check, _, args = r["check"].partition("[")
        lam_c, _, mu_c = args[:-1].partition("->")
        unfolded, changed = want[lam_c]
        if check == "semistandard-iff-folded":
            assert r["detail"]["violations"] == unfolded, r
        elif check == "oracle-equality":
            assert (r["status"] == "fail") == (mu_c in changed), r
        elif check in ("euler", "degree-leading") and unfolded:
            continue
        else:
            assert r["status"] == "pass", r
    assert report["failures"]


def test_suite_folding_tests_each_gallery_once(monkeypatch):
    # the pass counts each gallery once, in the multiplicity of its end state,
    # and no library code runs the per-gallery folding test
    rs = root_system("B", 3)
    counts, calls = [], []

    def counted_ends(rs, gtype):
        ends = _merged_summaries(rs, gtype)
        counts.extend(n for n, _ in ends.values())
        return ends

    def counted(rs, g):
        calls.append(g)
        return is_positively_folded(rs, g)

    monkeypatch.setattr(hlgal.verify, "_merged_summaries", counted_ends)
    for name, module in list(sys.modules.items()):
        if name.startswith("hlgal.") and hasattr(module, "is_positively_folded"):
            monkeypatch.setattr(module, "is_positively_folded", counted)
    report = run_suite(rs, max_coeff_sum=3, max_height=16)
    monkeypatch.undo()
    assert report["ok"]
    walked = sum(
        1
        for lam in dominant_lambdas(rs, 3, 16)
        for _ in enumerate_of_type(rs, type_of_lambda(rs, lam))
    )
    assert walked == 1333
    assert sum(counts) == walked
    assert not calls


# (coefficient sum, height) bounds of the lambdas whose pass is checked
# against the per-gallery references: the acceptance suite's to rank 3, sum
# <= 1 at rank 4
AGREEMENT_BOUNDS = {
    ("A", 1): (3, 16), ("A", 2): (3, 16), ("A", 3): (3, 16), ("B", 2): (3, 16), ("C", 2): (3, 16),
    ("B", 3): (3, 16), ("C", 3): (3, 16), ("A", 4): (1, 40), ("B", 4): (1, 40), ("C", 4): (1, 40),
}
# block sequences checked as well: on the standard types above every locally
# folded gallery has a defining chain, and on these some have none
ZIGZAGS = {
    ("A", 2): ((1, 2, 1), (2, 1, 2)), ("B", 2): ((1, 2, 1), (2, 1, 2)), ("C", 2): ((1, 2, 1), (2, 1, 2)),
    ("A", 3): ((1, 3, 1),), ("B", 3): ((1, 3, 1),), ("C", 3): ((1, 3, 1),),
}


@pytest.mark.parametrize("family,rank", list(AGREEMENT_BOUNDS))
def test_pass_agrees_with_the_per_gallery_references(family, rank):
    # the end states of verify's pass against the per-gallery references they
    # replace there, both aggregated as the records read them: how many
    # galleries share each (target, folded, total, ordered, decoded, and where
    # folded delta and lead), which fixes every per-gallery record's violation
    # count, and the summed terms per canonical target
    rs = root_system(family, rank)
    gtypes = [type_of_lambda(rs, lam) for lam in dominant_lambdas(rs, *AGREEMENT_BOUNDS[(family, rank)])]
    for blocks in ZIGZAGS.get((family, rank), ()):
        gtypes.append(sum((fundamental_type(rs, i) for i in blocks), ()))
    galleries = chain_decides = 0
    for gtype in gtypes:
        want, want_sums = Counter(), {}
        for g in enumerate_of_type(rs, gtype):
            ok = is_positively_folded(rs, g)
            p, _, total = crossing_counts(rs, g)
            tab = gallery_to_tableau(rs, g)
            summary = (g.target, ok, total, is_semistandard(tab), tableau_to_gallery(rs, tab) == g)
            if ok:
                term = gallery_term(rs, g)
                summary += (p - term.degree(), term.leading_coefficient())
                key = rs.canonical_key(g.target)
                want_sums[key] = want_sums.get(key, QPoly.zero()) + term
            want[summary] += 1
            galleries += 1
            chain_decides += not ok and locally_positively_folded(rs, g)
        got, got_sums = Counter(), {}
        for (target, _, _, folded, delta, lead, total, ordered, decoded), (n, term) in _merged_summaries(
            rs, gtype
        ).items():
            summary = (target, folded, total, ordered, decoded)
            if folded:
                summary += (delta, lead)
                key = rs.canonical_key(target)
                got_sums[key] = got_sums.get(key, QPoly.zero()) + term
            got[summary] += n
        assert got == want, gtype
        assert got_sums == want_sums, gtype
    assert galleries
    assert (chain_decides > 0) == ((family, rank) in ZIGZAGS)


def test_character_record_reads_the_character_walk(monkeypatch, a2):
    # dropping one weight from the walk's character must fail a character record
    walk = hlgal.hlengine.ls_character_of_type

    def corrupted(rs, gtype):
        char = walk(rs, gtype)
        del char[min(char)]
        return char

    monkeypatch.setattr(hlgal.hlengine, "ls_character_of_type", corrupted)
    report = run_suite(a2, max_coeff_sum=2, max_height=12)
    failed = [r["check"] for r in report["failures"]]
    assert any(check.startswith("character[") for check in failed), failed


def _negated_vertices(decode):
    def corrupted(rs, vertex, cols, pos=0):
        block_type, vertices = decode(rs, vertex, cols, pos)
        return block_type, tuple(map(vneg, vertices))

    return corrupted


def test_a_misplaced_block_fails_records_and_not_the_run(monkeypatch, c2):
    # each block decodes from the walked vertex where it starts: a decode
    # rule that shifts every vertex fails tableau-roundtrip records, and no
    # later block is decoded from the shifted vertex, off the lattice
    decode = hlgal.verify.decode_block

    def shifted(rs, vertex, cols, pos=0):
        block_type, vertices = decode(rs, vertex, cols, pos)
        return block_type, tuple(vadd(x, (1, 0)) for x in vertices)

    monkeypatch.setattr(hlgal.verify, "decode_block", shifted)
    report = run_suite(c2, max_coeff_sum=2, max_height=12)
    failed = [r for r in report["failures"] if r["check"].startswith("tableau-roundtrip[")]
    assert failed and len(failed) == len(report["failures"]), report["failures"]
    assert all(r["detail"]["violations"] > 0 for r in failed)


# record kind -> (name on hlgal.verify, corruption of what that name holds);
# cell-dimension and character have tests of their own above.  The
# per-gallery kinds corrupt one field of every end state of the pass, the
# empty gallery's too; the round trip corrupts the decode rule the pass reads
CORRUPTIONS = {
    "crossings-constant": ("_merged_summaries", corrupt_field(TOTAL, lambda total: total + 1)),
    "semistandard-iff-folded": ("_merged_summaries", corrupt_field(ORDERED, lambda ordered: not ordered)),
    "tableau-roundtrip": ("decode_block", _negated_vertices),
    "oracle-equality": (
        "hall_littlewood_direct",
        lambda f: lambda rs, lam: {k: c + c for k, c in f(rs, lam).items()},
    ),
    "euler": ("_merged_summaries", corrupt_field(TERM, lambda term: -term)),
    "degree-leading": ("kostka", lambda f: lambda rs, lam, mu: f(rs, lam, mu) + 1),
    "a2-example": ("L_polynomial", lambda f: lambda rs, lam, mu: -f(rs, lam, mu)),
}


@pytest.mark.parametrize("kind", sorted(CORRUPTIONS))
def test_each_record_kind_catches_a_corrupted_input(monkeypatch, a2, kind):
    name, corrupt = CORRUPTIONS[kind]
    monkeypatch.setattr(hlgal.verify, name, corrupt(getattr(hlgal.verify, name)))
    suite = "a2-example" if kind == "a2-example" else "default"
    report = run_suite(a2, max_coeff_sum=2, max_height=12, suite=suite)
    failed = [r for r in report["failures"] if r["check"].startswith(kind + "[")]
    assert failed, report["failures"]
    assert all(r["detail"] for r in failed)


def test_roundtrip_record_reads_the_decode_rule(monkeypatch):
    # the decode table is filled by _column_germ, not by inverting the
    # encode table: on a fresh root system, a decode rule that flips the
    # sign of one coordinate must fail a tableau-roundtrip record
    rs = RootSystem(RootSystemSpec("A", 2))
    assert not rs.column_germs and not rs.tableau_columns
    decode = hlgal.tableaux._column_germ

    def flipped(rs, col, step):
        d = decode(rs, col, step)
        k = next(k for k, x in enumerate(d) if x)
        return d[:k] + (-d[k],) + d[k + 1 :]

    monkeypatch.setattr(hlgal.tableaux, "_column_germ", flipped)
    report = run_suite(rs, max_coeff_sum=2, max_height=12)
    failed = [r for r in report["failures"] if r["check"].startswith("tableau-roundtrip[")]
    assert failed, report["failures"]
    assert all(r["detail"]["violations"] > 0 for r in failed)


@pytest.mark.parametrize("suite", ["", "Default", "a2", "examples"])
def test_unknown_suite_is_refused(a2, suite):
    # only the two named suites run; any other name is a ValueError, not
    # the default suite reported under that name
    with pytest.raises(ValueError, match="unknown suite"):
        run_suite(a2, max_coeff_sum=1, max_height=12, suite=suite)
    assert run_suite(a2, max_coeff_sum=1, max_height=12, suite="default")["suite"] == "default"


@pytest.mark.parametrize("bounds", [(-1, 12), (2, -1), (-1, -1)])
@pytest.mark.parametrize("suite", ["default", "a2-example"])
def test_negative_bound_is_refused(a2, bounds, suite):
    # a negative bound walks no weight, so it would report ok with 0
    # checks; it is a ValueError instead, as the command line refuses it
    with pytest.raises(ValueError, match="nonnegative"):
        run_suite(a2, *bounds, suite=suite)
    report = run_suite(a2, 0, 0)
    assert report["ok"] and report["checks"] > 0
