import sys

import pytest

import hlgal.hlengine
import hlgal.tableaux
import hlgal.verify
from hlgal.folding import is_positively_folded
from hlgal.gallery import Gallery, enumerate_of_type, type_of_lambda
from hlgal.hlengine import gallery_term
from hlgal.qpoly import QPoly
from hlgal.rootdata import RootSystem, RootSystemSpec
from hlgal.verify import dominant_lambdas, run_suite
from systems import root_system


def test_cell_dimension_record_reads_the_terms(monkeypatch, b2):
    # a term one degree too high breaks the monic-of-cell-dimension check
    monkeypatch.setattr(
        hlgal.verify, "gallery_term", lambda rs, g: gallery_term(rs, g) * QPoly.q_power(1)
    )
    report = run_suite(b2, max_coeff_sum=1, max_height=12)
    cell = [r for r in report["records"] if r["check"].startswith("cell-dimension[")]
    assert len(cell) == 3
    assert all(r["status"] == "fail" for r in cell), cell
    assert all(r["detail"]["violations"] > 0 for r in cell)


def test_suite_folding_tests_each_gallery_once(monkeypatch):
    rs = root_system("B", 3)
    calls = []

    def counted(rs, g):
        calls.append(g)
        return is_positively_folded(rs, g)

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
    assert len(calls) == walked


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


def _total_off_by_one(counts):
    def corrupted(rs, g):
        plus, minus, both = counts(rs, g)
        return plus, minus, both + 1

    return corrupted


# record kind -> (name on hlgal.verify, corruption of what that name holds);
# cell-dimension and character have tests of their own above
CORRUPTIONS = {
    "crossings-constant": ("crossing_counts", _total_off_by_one),
    "semistandard-iff-folded": ("is_semistandard", lambda f: lambda tab: not f(tab)),
    "tableau-roundtrip": (
        "tableau_to_gallery",
        lambda f: lambda rs, tab: Gallery(f(rs, tab).vertices[::-1], f(rs, tab).gtype),
    ),
    "oracle-equality": (
        "hall_littlewood_direct",
        lambda f: lambda rs, lam: {k: c + c for k, c in f(rs, lam).items()},
    ),
    "euler": ("gallery_term", lambda f: lambda rs, g: -f(rs, g)),
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
