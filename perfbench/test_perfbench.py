"""Tests of the benchmark itself.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import copy
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracer import EXACT_COUNTS, PER_LAYER, Tracer, per_layer_metrics  # noqa: E402

REFS = workloads.load_refs()
workloads.import_library()


def small(workload_cls, refs, n):
    """A workload restricted to the first n entries of its pool."""
    w = workload_cls(refs)
    w.pool = w.pool[:n]
    return w


def systems_for(w):
    return workloads.build_systems(w.systems)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seeded_op_list_is_deterministic(name):
    w = workloads.WORKLOADS[name](REFS)
    first = [w.pass_ops(random.Random(7)) for _ in range(2)]
    again = [w.pass_ops(random.Random(7)) for _ in range(2)]
    other = w.pass_ops(random.Random(8))
    assert first == again
    key = lambda op: json.dumps(op, sort_keys=True)  # noqa: E731
    # every seed walks the same pool, only the order differs
    assert sorted(map(key, first[0])) == sorted(map(key, other))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: unit for name, (unit, _) in PER_LAYER.items()
    }
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert set(EXACT_COUNTS) <= set(PER_LAYER)


@pytest.mark.parametrize("name", ["l_rows", "char_ls", "verify_suite"])
def test_traced_and_untraced_outputs_are_identical(name):
    w = small(workloads.WORKLOADS[name], REFS, 3)
    rs_by_name = systems_for(w)
    ops = w.pass_ops(random.Random(1))
    plain = [w.execute(op, rs_by_name) for op in ops]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [w.execute(op, rs_by_name) for op in ops]
    finally:
        tracer.uninstall()
    assert traced == plain
    assert plain == [w.expected(op) for op in ops]
    assert len(tracer.name) > 0


def test_traced_cli_child_prints_the_same_stdout(tmp_path):
    op = next(op for op in REFS["cli_cold"] if op["argv"][:2] == ["L", "--type"])
    plain = workloads.run_cli(op["argv"])
    traced = workloads.run_cli(op["argv"], tmp_path / "trace.json")
    assert plain.returncode == traced.returncode == 0
    assert plain.stdout == traced.stdout
    assert workloads.stdout_digest(plain.stdout)["sha256"] == op["sha256"]
    summary = json.loads((tmp_path / "trace.json").read_text())["summary"]
    assert summary["spans"]["cli.main"]["calls"] == 1
    assert summary["spans"]["hlengine.L"]["calls"] == 1


def test_corrupted_reference_is_counted_as_a_failure():
    refs = copy.deepcopy(REFS)
    rows = refs["l_rows"][:3]
    refs["l_rows"] = rows
    rows[1]["entries"][0]["L"][-1] += 1  # one wrong expected coefficient
    w = workloads.LRows(refs)
    loop = run.Loop(w, systems_for(w), random.Random(3))
    loop.run_pass()
    assert loop.attempted == sum(len(r["entries"]) for r in rows)
    assert loop.failed == 1


def test_exception_in_an_op_is_counted_as_a_failure():
    refs = copy.deepcopy(REFS)
    refs["char_ls"] = refs["char_ls"][:2]
    refs["char_ls"][0]["lambda"] = [-1] + refs["char_ls"][0]["lambda"][1:]  # not dominant
    w = workloads.CharLS(refs)
    loop = run.Loop(w, systems_for(w), random.Random(0))
    loop.run_pass()
    assert (loop.attempted, loop.failed) == (2, 1)


def test_named_counts_repeat_exactly():
    w = small(workloads.LRows, REFS, 4)
    rs_by_name = systems_for(w)
    values = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            for op in w.pass_ops(random.Random(5)):
                w.execute(op, rs_by_name)
        finally:
            tracer.uninstall()
        metrics = per_layer_metrics(tracer.summary(), 0.0)
        values.append({k: metrics[k]["value"] for k in EXACT_COUNTS})
    assert values[0] == values[1]
    assert values[0]["gallery.enumerated"] > 0
    assert values[0]["residue.junction_factor_calls"] > 0


def test_absent_wrapped_name_is_reported_not_fatal(monkeypatch):
    import hlgal.oracles

    monkeypatch.delattr(hlgal.oracles, "kostka")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["oracles.kostka"]
    metrics = per_layer_metrics(tracer.summary(), 0.0)
    assert metrics["oracles.kostka_s"]["value"] == 0


def test_without_sources_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copy(workloads.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(workloads.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "l_rows", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
