import hashlib
import json
import os
import subprocess
import sys

import pytest

import hlgal
import hlgal.verify
from hlgal.cli import build_parser, main
from hlgal.oracles import L_from_expansion, hall_littlewood_direct
from systems import root_system


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cmd_l_worked_values(capsys):
    code, out, _ = run(capsys, "L", "--type", "A2", "--lambda", "2,1", "--mu", "2,1")
    assert code == 0 and out.strip() == "q^6"
    code, out, _ = run(capsys, "L", "--type", "A2", "--lambda", "2,1", "--mu", "1,0")
    assert code == 0 and out.strip() == "2q^4 - 2q^3"
    code, out, _ = run(capsys, "L", "--type", "A2", "--lambda", "0,0", "--mu", "0,0")
    assert code == 0 and out.strip() == "1"


def test_cmd_l_json(capsys):
    code, out, _ = run(
        capsys, "L", "--type", "A2", "--lambda", "2,1", "--mu", "0,2", "--format", "json"
    )
    assert code == 0
    assert json.loads(out) == {"coeffs": [0, 0, 0, 0, -1, 1]}


def test_usage_errors(capsys):
    code, _, err = run(capsys, "L", "--type", "A2", "--lambda", "2,x", "--mu", "1,0")
    assert code == 2 and "lambda" in err
    code, _, err = run(capsys, "L", "--type", "Z9", "--lambda", "1", "--mu", "1")
    assert code == 2
    code, _, err = run(capsys, "L", "--type", "A2", "--lambda", "1", "--mu", "1,0")
    assert code == 2


# argv on which the parser itself prints and exits: main must print what
# build_parser() prints, with the exit code given and a "usage: hlgal" line
PARSER_EXITS = [
    ((), 2),
    (("--help",), 0),
    (("L", "--help"), 0),
    (("galleries", "--help"), 0),
    (("char", "--help"), 0),
    (("tableaux", "--help"), 0),
    (("verify", "--help"), 0),
    (("char", "--lambda", "1,0"), 2),  # missing --type
    (("L", "--lambda", "1,0", "--mu", "1,0"), 2),
    (("chars", "--type", "A2", "--lambda", "1,0"), 2),  # unknown command
    (("char", "--type", "A2", "--lambda", "1,0", "extra"), 2),  # the top-level usage line
]


def parser_exit(capsys, call, argv):
    with pytest.raises(SystemExit) as exc:
        call(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("argv,code", PARSER_EXITS, ids=[" ".join(a) or "no-args" for a, _ in PARSER_EXITS])
def test_parser_output_is_the_full_parsers(capsys, monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    got = parser_exit(capsys, main, argv)
    assert got == parser_exit(capsys, build_parser().parse_args, argv)
    assert got[0] == code and (got[1] if code == 0 else got[2]).startswith("usage: hlgal")


def test_galleries_listing(capsys):
    code, out, _ = run(
        capsys,
        "galleries",
        "--type",
        "A2",
        "--lambda",
        "2,1",
        "--mu",
        "1,0",
        "--ls-only",
        "--format",
        "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 2
    assert all(row["ls"] for row in rows)


def test_char_listing(capsys):
    code, out, _ = run(
        capsys, "char", "--type", "A2", "--lambda", "1,0", "--format", "json"
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 3
    assert all(row["mult"] == 1 for row in rows)


def test_tableaux_listing(capsys):
    code, out, _ = run(
        capsys,
        "tableaux",
        "--type",
        "C3",
        "--lambda",
        "1,1,1",
        "--semistandard",
        "--format",
        "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert len(rows) > 0
    assert all(row["semistandard"] for row in rows)


def test_verify_suites(capsys):
    code, out, _ = run(capsys, "verify", "--type", "A1")
    assert code == 0 and "ok" in out
    code, out, _ = run(capsys, "verify", "--type", "A2", "--suite", "a2-example")
    assert code == 0


def test_verify_verbose_prints_every_record(capsys):
    # a passing pretty run prints the full report, not the summary line
    code, out, _ = run(capsys, "verify", "--type", "A1", "--verbose")
    assert code == 0
    report = json.loads(out)
    assert report["ok"] and len(report["records"]) == report["checks"]


def test_verify_fault_injection(capsys, monkeypatch):
    # a negated gallery side must exit 1 with a counterexample on stdout
    L = hlgal.verify.L_polynomial
    monkeypatch.setattr(hlgal.verify, "L_polynomial", lambda rs, lam, mu: -L(rs, lam, mu))
    code, out, _ = run(capsys, "verify", "--type", "A2", "--suite", "a2-example")
    assert code == 1
    payload = json.loads(out)
    assert payload["failures"]
    detail = payload["failures"][0]["detail"]
    assert detail["gallery"] != detail["expected"]


def test_l_rejects_csv(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["L", "--type", "A2", "--lambda", "2,1", "--mu", "1,0", "--format", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_rejects_csv(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--type", "A1", "--format", "csv"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_verify_refuses_removed_fault_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--type", "A2", "--inject-fault", "sign-flip"])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("flag,value", [("--max-coeff-sum", "-1"), ("--max-height", "-5")])
def test_verify_rejects_negative_bounds(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--type", "A2", flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "nonnegative" in captured.err


def test_a2_example_on_other_type_is_usage_error(capsys):
    code, out, err = run(capsys, "verify", "--type", "B2", "--suite", "a2-example")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "internal" not in err


@pytest.mark.parametrize("flag,value", [("--max-coeff-sum", "1"), ("--max-height", "12")])
def test_a2_example_rejects_default_suite_bounds(capsys, flag, value):
    # the a2-example suite has fixed inputs; a bound it would ignore is refused
    code, out, err = run(capsys, "verify", "--type", "A2", "--suite", "a2-example", flag, value)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and flag in err


@pytest.mark.parametrize("fault", [ValueError, ArithmeticError, AssertionError])
def test_library_fault_is_internal_error(capsys, monkeypatch, fault):
    def broken(rs, lam, mu):
        raise fault("no valid sector at this junction")

    monkeypatch.setattr("hlgal.cli.L_polynomial", broken)
    code, out, err = run(capsys, "L", "--type", "A2", "--lambda", "1,0", "--mu", "1,0")
    assert code == 3 and out == ""
    assert err == "error: internal: no valid sector at this junction\n"


def test_long_gallery_type_is_walked(capsys):
    # the walk keeps its own stack, so a type of 1200 edges needs no deeper
    # Python stack than a short one; the value matches the oracle
    code, out, err = run(capsys, "L", "--type", "A1", "--lambda", "1200", "--mu", "1200")
    rs = root_system("A", 1)
    lam = rs.weight((1200,))
    assert code == 0 and err == ""
    assert out == L_from_expansion(rs, hall_littlewood_direct(rs, lam), lam, lam).pretty() + "\n"


# modules the command line loads only for the commands or formats that run them
LAZY_MODULES = ("dataclasses", "fractions", "decimal", "json", "csv",
                "hlgal.verify", "hlgal.oracles", "hlgal.tableaux")

FOOTPRINT = """
import sys
before = set(sys.modules)
import hlgal.cli
print(*sorted(set(sys.modules) - before))
code = hlgal.cli.main(["L", "--type", "A2", "--lambda", "2,1", "--mu", "1,0"])
print(*sorted(set(sys.modules) - before))
sys.exit(code)
"""


def test_import_footprint():
    # a fresh interpreter, so that nothing this test run imported counts
    src = os.path.dirname(os.path.dirname(hlgal.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", FOOTPRINT], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    imported, after_l = out[0].split(), out[-1].split()
    assert out[1] == "2q^4 - 2q^3"
    assert "hlgal.hlengine" in imported
    assert [m for m in LAZY_MODULES if m in imported] == []
    assert [m for m in ("fractions", "json") if m in after_l] == []


def test_determinism_across_runs(capsys):
    args = ["galleries", "--type", "B2", "--lambda", "1,1", "--mu", "0,0", "--format", "json"]
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


# stdout SHA-256 and byte count of one call of each kind, recorded from the
# original implementation; a change of reduced-word letter order, of
# gallery order or of the order of the walk shows up here
GOLDEN = [
    (("L", "--type", "A2", "--lambda", "2,1", "--mu", "1,0"),
     "9e08488140fafaa756d424669fb55811340275bd97ee858a1bb0211a808ee329", 12),
    (("L", "--type", "C3", "--lambda", "0,0,2", "--mu", "0,0,0"),
     "dca6fc5b1b03cb7bd1c3ac6404c44c3770c5c7fd8da63f36981169df3837c612", 19),
    (("L", "--type", "B4", "--lambda", "1,0,0,1", "--mu", "0,0,0,1"),
     "4ab76b68c058b884a1ac3fb19ddb68d108ec40fd3b4cdc5f705efb84614f516b", 34),
    (("L", "--type", "B3", "--lambda", "1,1,0", "--mu", "0,0,1", "--format", "json"),
     "d441b8e34bf3cf8d1666528a4cf2010b8f2265dc168230bcf21f521d75d71562", 15),
    (("galleries", "--type", "A2", "--lambda", "2,1", "--mu", "1,0", "--ls-only",
      "--format", "json"),
     "1e156a3f2137ee4342af8dc4faed7840d5118cc7b2f98025a62d279d011d7c2e", 1217),
    (("galleries", "--type", "C3", "--lambda", "1,1,0", "--mu", "1,0,0", "--format", "json"),
     "86021a93918267854bacf0bce59fbfe8c42941903338913168ed3a08eee46093", 3021),
    (("char", "--type", "A2", "--lambda", "1,0"),
     "68060ff2934f9365933d5c9cc9001662457c8f5ce0318726ab7a92b9bbf3fa2a", 66),
    (("char", "--type", "B3", "--lambda", "1,0,1"),
     "2f43e6265b11a728660c27ca2ccb08f88d8cbe5e7c8848d0ca5a7b6316b0b03f", 688),
    (("char", "--type", "C4", "--lambda", "0,1,0,0", "--format", "json"),
     "72fe327460ec5b4247aa72e4bbf51b2660ce8e515c8cdc1418b93e2ead8a3fc9", 2252),
    (("tableaux", "--type", "C3", "--lambda", "1,1,0", "--semistandard"),
     "5e034c6f64dcfe06e090b23c8a92b98fd9b9fffeb28d0124f2b248da7683be45", 1384),
    (("tableaux", "--type", "A3", "--lambda", "1,1,0", "--semistandard", "--format", "json"),
     "a8f247e616304db1f8c61d387057f247385e800bc999df8001429ef70b659775", 3123),
    (("tableaux", "--type", "B2", "--lambda", "1,1"),
     "90b265da0afa67b1331b11cf9fd29b98cab8d98beaab1e6d02776e3fb42126ef", 504),
    (("tableaux", "--type", "B2", "--lambda", "1,1", "--format", "csv"),
     "344c0ede091378a526d3fc6e776cac5eaa752d925b9404835eca96b6a2348ca9", 1296),
    (("verify", "--type", "A2", "--suite", "a2-example"),
     "c36cf96d6ec2a15c338a535459d6b7ae0b4ce417a60c475d3fd56bce0c379535", 32),
    # fractional output: spin vertices -1/2, keys in fifths, half-edge midpoints
    (("galleries", "--type", "B3", "--lambda", "0,0,2", "--mu", "0,0,0", "--format", "csv"),
     "57ff59b9df374f881446de3c2705e3b3f2762693d89fc65c1cfbcc191959bef2", 677),
    (("char", "--type", "A4", "--lambda", "0,1,0,0"),
     "c7c8593cd5901ceff043a116200d56f578ac89ea39f2c63b654309d78cbc5f33", 310),
    (("galleries", "--type", "B2", "--lambda", "1,1", "--mu", "0,1", "--format", "json"),
     "4714adbf4e24caa47862fff22d50b230296a5e59418f42be16d47bee7f7af5a0", 1733),
    # every record's payload; the "direct" coefficients come from the oracle
    (("verify", "--type", "B2", "--max-coeff-sum", "2", "--verbose"),
     "c277c5561d6e7086c6975e81c9ec4163235779852e37ccc26a6ac7e6eff3f7e1", 19276),
    (("verify", "--type", "C3", "--max-coeff-sum", "2", "--verbose"),
     "05e8c431d6b853194b1a982405235c9d8f7f3e479550a183977c456254586ddf", 15945),
    (("verify", "--type", "A3", "--max-coeff-sum", "2", "--verbose"),
     "8a82b07a605596495a2afb9a0697569cfedb1c7b06a7051ec4fc4e9c838576e3", 30402),
]


@pytest.mark.parametrize(
    "argv,sha256,size",
    GOLDEN,
    ids=["%s-%s%s" % (argv[0], argv[2], "-csv" * ("csv" in argv)) for argv, _, _ in GOLDEN],
)
def test_golden_stdout(capsys, argv, sha256, size):
    code, out, _ = run(capsys, *argv)
    data = out.encode()
    assert code == 0
    assert (hashlib.sha256(data).hexdigest(), len(data)) == (sha256, size)
