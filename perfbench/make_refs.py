"""Regenerate refs.json: the op pools and the expected output of every op.

Usage: python3 perfbench/make_refs.py [workload ...]

With no argument every workload is regenerated; otherwise only the named
ones, keeping the others from the existing file.  References come from
independent sources wherever the library has one:

* l_rows: every entry from the Weyl-sum oracle (``hall_littlewood_direct``
  via ``L_from_expansion``, i.e. ``L_from_direct``).  At rank 4 this costs
  about 45 s per lambda on a 2-CPU machine, so expect several minutes.
* char_ls: ``freudenthal_character``, the multiplicity recursion.
* verify_suite: the number of checks of a passing suite.
* cli_cold: the stdout digest of each command, captured from the code
  this file is run against.

Each reference is also compared with the gallery code it will check; a
disagreement aborts the regeneration.
"""

from __future__ import annotations

import json
import sys
import time

from workloads import (
    REFS,
    SRC,
    char_entries,
    poly_coeffs,
    run_cli,
    stdout_digest,
)

# Pools.  Lambdas are coefficient vectors over the fundamental weights.
# l_rows rows are capped by gallery.count_of_type at 1152 galleries, so a
# pass takes a few seconds; C3 (0,0,2) and B3 (2,0,1) are the rows with
# the most prefix sharing under that cap (2.5 and 3.5 galleries per
# (step, vertex, incoming germ) state).
L_ROWS = {
    "B3": [(1, 0, 0), (0, 1, 0), (0, 0, 2), (1, 0, 1), (2, 0, 0), (0, 1, 1), (2, 0, 1)],
    "C3": [(0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 0, 2)],
    "A4": [(1, 0, 0, 1), (0, 1, 0, 1), (1, 1, 0, 0), (0, 1, 1, 0), (2, 0, 0, 1)],
    "B4": [(1, 0, 0, 0), (1, 0, 0, 1)],
    "C4": [(0, 1, 0, 0), (0, 0, 0, 1)],
}
CHAR_LS = {
    "A4": [(1, 0, 0, 0), (0, 1, 0, 0), (1, 0, 0, 1), (0, 0, 1, 1), (1, 1, 0, 0), (0, 2, 0, 0)],
    "B3": [(1, 0, 0), (0, 1, 0), (0, 0, 2), (1, 0, 1), (2, 0, 0)],
    "C3": [(0, 1, 0), (0, 0, 1), (2, 0, 0), (1, 1, 0), (3, 0, 0)],
    "B4": [(1, 0, 0, 0), (0, 0, 0, 1), (0, 1, 0, 0)],
    "C4": [(1, 0, 0, 0), (0, 1, 0, 0), (2, 0, 0, 0), (0, 0, 1, 0)],
}
# (type, max_coeff_sum, max_height)
VERIFY_SUITE = [
    ("A2", 1, 12), ("A2", 2, 12), ("A3", 1, 12), ("A4", 1, 2),
    ("B2", 2, 6), ("B2", 2, 12), ("B3", 1, 6),
    ("C2", 2, 6), ("C2", 2, 12), ("C3", 1, 6),
]
CLI_COLD = [
    ["L", "--type", "A2", "--lambda", "2,1", "--mu", "1,0"],
    ["L", "--type", "C3", "--lambda", "0,0,2", "--mu", "0,0,0"],
    ["L", "--type", "B4", "--lambda", "1,0,0,1", "--mu", "0,0,0,1"],
    ["L", "--type", "B3", "--lambda", "1,1,0", "--mu", "0,0,1", "--format", "json"],
    ["char", "--type", "A2", "--lambda", "1,0"],
    ["char", "--type", "B3", "--lambda", "1,0,1"],
    ["char", "--type", "C4", "--lambda", "0,1,0,0", "--format", "json"],
    ["galleries", "--type", "A2", "--lambda", "2,1", "--mu", "1,0", "--ls-only", "--format", "json"],
    ["galleries", "--type", "C3", "--lambda", "1,1,0", "--mu", "1,0,0", "--format", "json"],
    ["tableaux", "--type", "C3", "--lambda", "1,1,0", "--semistandard"],
    ["tableaux", "--type", "A3", "--lambda", "1,1,0", "--semistandard", "--format", "json"],
    ["verify", "--type", "A2", "--suite", "a2-example"],
]


def _rs(name):
    from hlgal.rootdata import RootSystemSpec, build_root_system

    return build_root_system(RootSystemSpec(name[0], int(name[1:])))


def _coeffs(rs, v):
    return [int(c) for c in rs.weight_coeffs(v)]


def make_l_rows():
    from hlgal.gallery import enumerate_of_type, type_of_lambda
    from hlgal.hlengine import L_polynomial
    from hlgal.oracles import L_from_expansion, hall_littlewood_direct

    rows = []
    for name, lams in L_ROWS.items():
        rs = _rs(name)
        for lam_c in lams:
            t0 = time.perf_counter()
            lam = rs.weight(lam_c)
            mus = {}
            for g in enumerate_of_type(rs, type_of_lambda(rs, lam)):
                if rs.is_dominant(g.target):
                    mus.setdefault(tuple(_coeffs(rs, g.target)), g.target)
            pmap = hall_littlewood_direct(rs, lam)
            entries = []
            for mu_c in sorted(mus):
                mu = rs.weight(mu_c)
                want = poly_coeffs(L_from_expansion(rs, pmap, lam, mu))
                if poly_coeffs(L_polynomial(rs, lam, mu)) != want:
                    raise SystemExit("gallery formula disagrees with the oracle at %s %s %s"
                                     % (name, lam_c, mu_c))
                entries.append({"mu": list(mu_c), "L": want, "checked_by": "L_from_direct"})
            rows.append({"type": name, "lambda": list(lam_c), "entries": entries})
            print("l_rows %s %s: %d mu, %.1f s" % (name, lam_c, len(entries),
                                                    time.perf_counter() - t0), file=sys.stderr)
    return rows


def make_char_ls():
    from hlgal.hlengine import character_LS
    from hlgal.oracles import freudenthal_character

    ops = []
    for name, lams in CHAR_LS.items():
        rs = _rs(name)
        for lam_c in lams:
            want = char_entries(freudenthal_character(rs, rs.weight(lam_c)))
            if char_entries(character_LS(rs, rs.weight(lam_c))) != want:
                raise SystemExit("LS character disagrees with the recursion at %s %s" % (name, lam_c))
            ops.append({"type": name, "lambda": list(lam_c), "character": want,
                        "checked_by": "freudenthal_character"})
    return ops


def make_verify_suite():
    from hlgal.verify import run_suite

    ops = []
    for name, mcs, mh in VERIFY_SUITE:
        report = run_suite(_rs(name), max_coeff_sum=mcs, max_height=mh)
        if not report["ok"]:
            raise SystemExit("suite fails at %s %d %d" % (name, mcs, mh))
        ops.append({"type": name, "max_coeff_sum": mcs, "max_height": mh,
                    "checks": report["checks"]})
    return ops


def make_cli_cold():
    ops = []
    for argv in CLI_COLD:
        proc = run_cli(argv)
        if proc.returncode != 0:
            raise SystemExit("hlgal %s exited with %d" % (" ".join(argv), proc.returncode))
        ops.append({"argv": argv, **stdout_digest(proc.stdout)})
    return ops


MAKERS = {
    "l_rows": make_l_rows,
    "char_ls": make_char_ls,
    "verify_suite": make_verify_suite,
    "cli_cold": make_cli_cold,
}


def main(argv):
    sys.path.insert(0, str(SRC))
    names = argv or list(MAKERS)
    refs = json.loads(REFS.read_text()) if REFS.exists() else {}
    for name in names:
        refs[name] = MAKERS[name]()
    REFS.write_text(json.dumps({k: refs[k] for k in MAKERS if k in refs}, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
