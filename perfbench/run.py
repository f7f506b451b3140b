"""Benchmark for hlgal, driven from outside through public entry points.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload l_rows --seed 1 --seconds 20 --trace 0

Workloads: l_rows, char_ls, verify_suite (in-process) and cli_cold (one
hlgal process per op).  All are closed loops with one caller.  A run does
whole passes over the workload's pool, each pass in a seeded order, until
--seconds have elapsed at a pass boundary, and at least MIN_PASSES.  Every
op's output is checked against refs.json; a wrong value, an exception, a
nonzero exit or a stdout mismatch counts the op as failed.

Times are calibrated.  The process pins itself to one CPU, and a fixed
Fraction/dict kernel is timed in a burst before and after every op and,
from a SIGALRM handler, every few milliseconds while the op runs.  An op's
wall time is scaled by CAL_REF_S over the median of those kernel times.
This removes the machine's slow phases, which on a shared 2-CPU host
reach 2x and last tens of seconds.

--trace 0 reports the end-to-end metrics.  --trace 1 installs the tracer:
pass 0 (cold caches, with set-up) is traced and gives the per-layer
metrics; later passes alternate untraced and traced (warm) and give the
tracing overhead.  Spans go to .perfbench/ in the checkout.

The last line of stdout is one JSON object: correct, attempted, failed and
metrics.  The exit code is 2, with no result printed, when the checkout
holds no hlgal sources.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

from tracer import Tracer, merge_summaries, per_layer_metrics
from workloads import HERE, ROOT, SRC, WORKLOADS, CliCold, build_systems, import_library, load_refs

perf = time.perf_counter

MIN_PASSES = 3
SETUP_SAMPLES = 5
# the kernel's time on the 2-CPU machine the baseline was taken on, idle
CAL_REF_S = 85.5e-6
SAMPLE_PERIOD_S = 0.01
BURST = 5
OUT_DIR = ROOT / ".perfbench"
END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_ops_s": "1/s",
    "op_p50_s": "s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _kernel():
    acc = Fraction(0)
    seen = {}
    for i in range(1, 16):
        f = Fraction(i % 13 + 1, i % 7 + 2)
        acc += f * f - f
        seen[(i % 31, f)] = acc
    return acc


def _time_kernel() -> float:
    t0 = perf()
    _kernel()
    return perf() - t0


class SpeedSampler:
    """Samples the machine's speed before, during and after each op.

    While active, SIGALRM fires every SAMPLE_PERIOD_S and its handler times
    the kernel, so a long op (or a cli child sharing the pinned CPU) is
    sampled while it runs.  burst() times the kernel BURST times with the
    alarm blocked."""

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        self.samples.append(_time_kernel())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def burst(self) -> list:
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return [_time_kernel() for _ in range(BURST)]
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})


def speed_factor(kernel_times) -> float:
    return CAL_REF_S / statistics.median(kernel_times)


def timed_setup():
    """Child side of an in-process set-up sample: print its calibrated time."""
    systems = sys.argv[1:]
    with SpeedSampler() as sampler:
        before = sampler.burst()
        t0 = perf()
        import workloads

        workloads.setup(systems)
        dt = perf() - t0
        print(dt * speed_factor(before + sampler.samples + sampler.burst()))


def setup_sample(workload) -> float:
    """One set-up in a fresh interpreter.  In-process workloads: import
    hlgal and build every root system they use, timed inside the child.
    cli_cold: wall time of an interpreter that runs `import hlgal.cli`."""
    if isinstance(workload, CliCold):
        code = "import sys; sys.path.insert(0, %r); import hlgal.cli" % str(SRC)
        with SpeedSampler() as sampler:
            before = sampler.burst()
            t0 = perf()
            subprocess.run([sys.executable, "-c", code], check=True, timeout=120)
            dt = perf() - t0
            return dt * speed_factor(before + sampler.samples + sampler.burst())
    code = "import sys; sys.path.insert(0, %r); import run; run.timed_setup()" % str(HERE)
    out = subprocess.run([sys.executable, "-c", code, *workload.systems], check=True,
                         timeout=120, capture_output=True, text=True).stdout
    return float(out.split()[-1])


class Loop:
    """Runs ops, times and checks each, and counts failures."""

    def __init__(self, workload, rs_by_name, rng):
        self.workload = workload
        self.rs_by_name = rs_by_name
        self.rng = rng
        self.by_op = {}  # op -> calibrated latency in each pass
        self.busy = 0.0  # calibrated seconds spent in ops
        self.attempted = 0
        self.failed = 0

    def run_pass(self, trace_dir=None):
        """One pass; returns (calibrated busy seconds, mean speed factor)."""
        busy, factors = 0.0, []
        with SpeedSampler() as sampler:
            before = sampler.burst()
            for k, op in enumerate(self.workload.pass_ops(self.rng)):
                trace_file = trace_dir / ("op%03d.json" % k) if trace_dir is not None else None
                first = len(sampler.samples)
                t0 = perf()
                try:
                    out = self.workload.execute(op, self.rs_by_name, trace_file)
                    raised = False
                except Exception:  # an op that raises is a failed op; keep going
                    out = traceback.format_exc(limit=3)
                    raised = True
                dt = perf() - t0
                after = sampler.burst()
                factors.append(speed_factor(before + sampler.samples[first:] + after))
                before = after
                busy += dt * factors[-1]
                self.record(op, out, raised, dt * factors[-1])
        self.busy += busy
        return busy, statistics.mean(factors)

    def record(self, op, out, raised, latency):
        self.by_op.setdefault(json.dumps(op, sort_keys=True), []).append(latency)
        self.attempted += 1
        if raised or out != self.workload.expected(op):
            self.failed += 1
            if self.failed <= 5:
                print("perfbench: FAILED op %s: %s" % (json.dumps(op)[:300], str(out)[:600]),
                      file=sys.stderr)


def typical_latencies(loop) -> list:
    """Each op of the pool at the median of its calibrated latencies."""
    return [statistics.median(v) for v in loop.by_op.values()]


def end_to_end(loop, setup_samples, in_process) -> dict:
    """Throughput is correct ops over calibrated busy time; the latency
    percentile runs over the pool's ops at their typical latency."""
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    values = {
        "setup_s": statistics.median(setup_samples),
        "throughput_ops_s": (loop.attempted - loop.failed) / loop.busy,
        "op_p50_s": statistics.median(typical_latencies(loop)),
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def child_summaries(trace_dir) -> list:
    return [json.loads(p.read_text())["summary"] for p in sorted(trace_dir.glob("op*.json"))]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "hlgal" / "__init__.py").is_file():
        print("perfbench: no hlgal sources at %s" % SRC, file=sys.stderr)
        return 2
    # Ops, cli children and the calibration kernel share one CPU, so the
    # kernel sees the speed the ops ran at.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass
    # Compile up front so that no timed import compiles, even when
    # PYTHONDONTWRITEBYTECODE is set.
    compileall.compile_dir(str(SRC / "hlgal"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    workload = WORKLOADS[args.workload](load_refs())
    in_process = not isinstance(workload, CliCold)
    setup_samples = [setup_sample(workload) for _ in range(SETUP_SAMPLES)]

    tracer = Tracer() if args.trace else None
    rs_by_name = {}
    if in_process:
        import_library()
        if tracer:
            tracer.install()
        rs_by_name = build_systems(workload.systems)

    run_dir = OUT_DIR / ("%s-seed%d" % (args.workload, args.seed))
    if args.trace:
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)

    loop = Loop(workload, rs_by_name, random.Random(args.seed))
    t_start = perf()
    passes = []  # (traced, calibrated busy seconds, speed factor)
    summary = None
    while True:
        k = len(passes)
        traced = bool(args.trace) and k % 2 == 0
        trace_dir = None
        if traced and not in_process:
            trace_dir = run_dir / ("pass%d" % k)
            trace_dir.mkdir()
        if in_process and args.trace:
            if traced and k > 0:
                tracer.reset()
                tracer.install()
            elif not traced:
                tracer.uninstall()
        passes.append((traced, *loop.run_pass(trace_dir)))
        if k == 0 and args.trace:
            if in_process:
                summary = tracer.summary()
                tracer.dump(run_dir / "pass0-spans.json")
            else:
                summary = merge_summaries(child_summaries(trace_dir))
        if perf() - t_start >= args.seconds and len(passes) >= MIN_PASSES:
            break
    elapsed = perf() - t_start
    if tracer:
        tracer.uninstall()

    if args.trace:
        warm_traced = [busy for i, (tr, busy, _) in enumerate(passes) if tr and i > 0]
        untraced = [busy for tr, busy, _ in passes if not tr]
        overhead = statistics.mean(warm_traced) / statistics.mean(untraced) - 1.0
        metrics = per_layer_metrics(summary, overhead, time_scale=passes[0][2])
        (run_dir / "per_layer.json").write_text(json.dumps(metrics, indent=1, sort_keys=True))
        if summary["absent"]:
            print("perfbench: wrapped names absent from hlgal: %s" % ", ".join(summary["absent"]),
                  file=sys.stderr)
    else:
        metrics = end_to_end(loop, setup_samples, in_process)

    # op_p90_s is printed but not gated: most pools have far fewer than
    # 100 ops, so it is the latency of one or two ops and reads unsteadily.
    print("perfbench %s seed=%d trace=%d: %d passes, %d ops (%d per pass), %.2f s wall, "
          "%.2f s calibrated busy, mean speed factor %.3f, op_p90_s=%.4g s over %d ops, "
          "fail_frac=%.4f"
          % (args.workload, args.seed, args.trace, len(passes), loop.attempted,
             len(loop.by_op), elapsed, loop.busy, statistics.mean(p[2] for p in passes),
             statistics.quantiles(typical_latencies(loop), n=10)[8], len(loop.by_op),
             loop.failed / loop.attempted))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
