"""The four workloads: seeded op lists, op execution and reference checks.

Every workload draws from a fixed pool stored in ``refs.json`` together
with the expected output of each op.  A pass walks the whole pool once in
an order drawn from the seed (sampling without replacement); a run repeats
passes, each in a fresh seeded order, so every run does the same mix of
work whatever its seed.  The program under test receives only the
generated inputs.

In-process workloads call the library through its submodules, never
through ``hlgal/__init__``, and look each function up on its module at
call time so that the tracer's rebinding is seen.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFS = HERE / "refs.json"
CLI_CHILD = HERE / "cli_child.py"
CHILD_TIMEOUT_S = 120

# Submodules an in-process workload imports during set-up.
LIBRARY_MODULES = ("rootdata", "apartment", "gallery", "folding", "residue",
                   "hlengine", "oracles", "tableaux", "verify")


def load_refs() -> dict:
    return json.loads(REFS.read_text())


def import_library():
    """Import the hlgal submodules from the checkout's sources."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in LIBRARY_MODULES:
        importlib.import_module("hlgal." + name)


def build_systems(names) -> dict:
    rootdata = _module("rootdata")
    return {n: rootdata.build_root_system(rootdata.RootSystemSpec(n[0], int(n[1:]))) for n in names}


def setup(names) -> dict:
    """Set-up of an in-process workload: import, then build every system."""
    import_library()
    return build_systems(names)


def _module(name: str):
    return sys.modules["hlgal." + name]


def poly_coeffs(poly) -> list:
    coeffs = [int(c) for c in poly.coeffs]
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def char_entries(char: dict) -> list:
    return sorted([[str(x) for x in weight], mult] for weight, mult in char.items())


class Workload:
    """One pool of ops.  ``systems`` are the root systems set-up builds."""

    name = ""

    def __init__(self, refs: dict):
        self.pool = refs[self.name]
        self.systems = tuple(sorted({entry["type"] for entry in self.pool if "type" in entry}))

    def pass_ops(self, rng: random.Random) -> list:
        return rng.sample(self.pool, len(self.pool))

    def expected(self, op):
        raise NotImplementedError

    def execute(self, op, rs_by_name: dict, trace_file=None):
        raise NotImplementedError


class LRows(Workload):
    """Op: one L_polynomial(rs, lambda, mu).  A pass takes the rows in seeded
    order and, within a row, every dominant mu some gallery of the type
    reaches."""

    name = "l_rows"

    def pass_ops(self, rng):
        return [
            {"type": row["type"], "lambda": row["lambda"], **entry}
            for row in rng.sample(self.pool, len(self.pool))
            for entry in row["entries"]
        ]

    def expected(self, op):
        return op["L"]

    def execute(self, op, rs_by_name, trace_file=None):
        rs = rs_by_name[op["type"]]
        poly = _module("hlengine").L_polynomial(rs, rs.weight(op["lambda"]), rs.weight(op["mu"]))
        return poly_coeffs(poly)


class CharLS(Workload):
    """Op: one character_LS(rs, lambda)."""

    name = "char_ls"

    def expected(self, op):
        return op["character"]

    def execute(self, op, rs_by_name, trace_file=None):
        rs = rs_by_name[op["type"]]
        return char_entries(_module("hlengine").character_LS(rs, rs.weight(op["lambda"])))


class VerifySuite(Workload):
    """Op: one run_suite(rs, max_coeff_sum=..., max_height=...)."""

    name = "verify_suite"

    def expected(self, op):
        return {"ok": True, "checks": op["checks"]}

    def execute(self, op, rs_by_name, trace_file=None):
        report = _module("verify").run_suite(
            rs_by_name[op["type"]],
            max_coeff_sum=op["max_coeff_sum"],
            max_height=op["max_height"],
        )
        return {"ok": report["ok"], "checks": report["checks"]}


def run_cli(argv: list, trace_file=None) -> subprocess.CompletedProcess:
    """One hlgal command in a fresh interpreter, through the child driver."""
    env = dict(os.environ)
    env.pop("PERFBENCH_TRACE", None)
    if trace_file is not None:
        env["PERFBENCH_TRACE"] = str(trace_file)
    return subprocess.run(
        [sys.executable, str(CLI_CHILD), *argv],
        cwd=ROOT, env=env, capture_output=True, timeout=CHILD_TIMEOUT_S,
    )


def stdout_digest(stdout: bytes) -> dict:
    return {"sha256": hashlib.sha256(stdout).hexdigest(), "bytes": len(stdout)}


class CliCold(Workload):
    """Op: one hlgal process, from interpreter start to exit."""

    name = "cli_cold"

    def expected(self, op):
        return {"returncode": 0, "sha256": op["sha256"], "bytes": op["bytes"]}

    def execute(self, op, rs_by_name, trace_file=None):
        proc = run_cli(op["argv"], trace_file)
        return {"returncode": proc.returncode, **stdout_digest(proc.stdout)}


WORKLOADS = {cls.name: cls for cls in (LRows, CharLS, VerifySuite, CliCold)}
