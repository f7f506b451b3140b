import sys

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
from hlgal.verify import _gallery_summaries, dominant_lambdas, run_suite
from systems import root_system

# the fields of a summary of verify's pass
TARGET, TERM, PLUS, TOTAL, SEMISTANDARD, ROUNDTRIP = range(6)


def corrupt_field(field, change):
    """A corruption of the pass: ``change`` applied to one field of every
    summary (to the term only where the gallery is folded)."""

    def corrupt(summaries):
        def corrupted(rs, gtype):
            for summary in summaries(rs, gtype):
                summary = list(summary)
                if field != TERM or summary[TERM] is not None:
                    summary[field] = change(summary[field])
                yield tuple(summary)

        return corrupted

    return corrupt


def test_cell_dimension_record_reads_the_terms(monkeypatch, b2):
    # a term one degree too high breaks the monic-of-cell-dimension check,
    # also on the empty gallery of lambda = 0
    shifted = corrupt_field(TERM, lambda term: term * QPoly.q_power(1))
    monkeypatch.setattr(hlgal.verify, "_gallery_summaries", shifted(_gallery_summaries))
    report = run_suite(b2, max_coeff_sum=1, max_height=12)
    cell = [r for r in report["records"] if r["check"].startswith("cell-dimension[")]
    assert len(cell) == 3
    assert all(r["status"] == "fail" for r in cell), cell
    assert all(r["detail"]["violations"] > 0 for r in cell)


def test_suite_folding_tests_each_gallery_once(monkeypatch):
    # the pass folds each gallery once, at its leaf, and no library code
    # runs the per-gallery folding test
    rs = root_system("B", 3)
    leaves, calls = [], []

    def counted_leaves(rs, gtype):
        for summary in _gallery_summaries(rs, gtype):
            leaves.append(summary)
            yield summary

    def counted(rs, g):
        calls.append(g)
        return is_positively_folded(rs, g)

    monkeypatch.setattr(hlgal.verify, "_gallery_summaries", counted_leaves)
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
    assert len(leaves) == walked
    assert not calls


# (coefficient sum, height) bounds of the lambdas whose pass is checked
# gallery by gallery: the acceptance suite's to rank 3, sum <= 1 at rank 4
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
    # each summary of verify's pass, in walk order, against the per-gallery
    # references it replaces there
    rs = root_system(family, rank)
    gtypes = [type_of_lambda(rs, lam) for lam in dominant_lambdas(rs, *AGREEMENT_BOUNDS[(family, rank)])]
    for blocks in ZIGZAGS.get((family, rank), ()):
        gtypes.append(sum((fundamental_type(rs, i) for i in blocks), ()))
    galleries = chain_decides = 0
    for gtype in gtypes:
        summaries = list(_gallery_summaries(rs, gtype))
        walk = list(enumerate_of_type(rs, gtype))
        assert len(summaries) == len(walk), gtype
        for g, (target, term, plus, total, semistandard, roundtrip) in zip(walk, summaries):
            assert target == g.target
            ok = is_positively_folded(rs, g)
            assert (term is not None) == ok, g.vertices
            if ok:
                assert term == gallery_term(rs, g), g.vertices
            p, _, both = crossing_counts(rs, g)
            assert (plus, total) == (p, both), g.vertices
            tab = gallery_to_tableau(rs, g)
            assert semistandard == is_semistandard(tab), g.vertices
            assert roundtrip == (tableau_to_gallery(rs, tab) == g), g.vertices
            galleries += 1
            chain_decides += not ok and locally_positively_folded(rs, g)
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
# per-gallery kinds corrupt one field of every summary of the pass, the
# empty gallery's too; the round trip corrupts the decode rule the pass reads
CORRUPTIONS = {
    "crossings-constant": ("_gallery_summaries", corrupt_field(TOTAL, lambda total: total + 1)),
    "semistandard-iff-folded": ("_gallery_summaries", corrupt_field(SEMISTANDARD, lambda ss: not ss)),
    "tableau-roundtrip": ("decode_block", _negated_vertices),
    "oracle-equality": (
        "hall_littlewood_direct",
        lambda f: lambda rs, lam: {k: c + c for k, c in f(rs, lam).items()},
    ),
    "euler": ("_gallery_summaries", corrupt_field(TERM, lambda term: -term)),
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
