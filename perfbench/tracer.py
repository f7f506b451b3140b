"""Per-layer tracing installed from outside the hlgal package.

The tracer wraps public functions of the hlgal modules by rebinding each
wrapped name in every loaded ``hlgal.*`` module that holds it, so calls
between modules and inside a module both pass through the wrapper.  Spans
(name, parent, start, end) are kept in memory in flat arrays and written
out when the run ends; counts are taken at the same boundaries.

``pairing`` and the ``Fraction`` operations are deliberately not wrapped:
they run 10^5-10^6 times per op and a Python wrapper would distort them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from array import array
from collections import Counter

perf = time.perf_counter

# (module, function, span name).  Two functions may share one span name;
# nested spans of one name count once in inclusive time and calls.
WRAPPED = (
    ("rootdata", "build_root_system", "rootdata.build"),
    ("apartment", "local_data", "apartment.local_data"),
    ("apartment", "local_data_for_key", "apartment.local_data"),
    ("gallery", "enumerate_of_type", "gallery.enumerate"),
    ("gallery", "crossing_counts", "gallery.crossing_counts"),
    ("folding", "is_positively_folded", "folding.pf_test"),
    ("folding", "locally_positively_folded", "folding.junction_test"),
    ("folding", "defining_chain", "folding.chain"),
    ("folding", "is_LS", "folding.is_ls"),
    ("residue", "junction_factor", "residue.junction_factor"),
    ("hlengine", "L_polynomial", "hlengine.L"),
    ("hlengine", "gallery_term", "hlengine.gallery_term"),
    ("hlengine", "character_LS", "hlengine.character"),
    ("oracles", "hall_littlewood_direct", "oracles.hl_direct"),
    ("oracles", "freudenthal_character", "oracles.freudenthal"),
    ("oracles", "kostka", "oracles.kostka"),
    ("tableaux", "gallery_to_tableau", "tableaux.to_tableau"),
    ("tableaux", "tableau_to_gallery", "tableaux.to_gallery"),
    ("verify", "check_system", "verify.check_system"),
    ("cli", "main", "cli.main"),
)

# Spans recorded by hand rather than by a wrapper.
MANUAL_SPANS = ("cli.import",)

# Reported per-layer metrics: name -> (unit, how it is derived).
# ("calls", span): outermost spans of that name; ("time", span): inclusive
# seconds; ("self", span): seconds not covered by child spans; ("count",
# key): a counter; ("distinct", key): distinct objects or keys seen.
PER_LAYER = {
    "rootdata.builds": ("count", ("distinct", "rootdata.builds")),
    "rootdata.build_s": ("s", ("time", "rootdata.build")),
    "apartment.local_data_calls": ("count", ("calls", "apartment.local_data")),
    "apartment.local_data_built": ("count", ("distinct", "apartment.local_data_built")),
    "apartment.local_data_s": ("s", ("time", "apartment.local_data")),
    "gallery.enumerated": ("count", ("count", "gallery.enumerated")),
    "gallery.enumerate_s": ("s", ("time", "gallery.enumerate")),
    "gallery.crossing_counts_calls": ("count", ("calls", "gallery.crossing_counts")),
    "gallery.crossing_counts_s": ("s", ("time", "gallery.crossing_counts")),
    "folding.pf_tests": ("count", ("calls", "folding.pf_test")),
    "folding.pf_kept": ("count", ("count", "folding.pf_kept")),
    "folding.pf_yield": ("ratio", ("ratio", ("folding.pf_kept", "folding.pf_tests"))),
    "folding.pf_test_s": ("s", ("time", "folding.pf_test")),
    "folding.junction_test_s": ("s", ("time", "folding.junction_test")),
    "folding.chain_s": ("s", ("time", "folding.chain")),
    "folding.is_ls_calls": ("count", ("calls", "folding.is_ls")),
    "folding.is_ls_s": ("s", ("time", "folding.is_ls")),
    "residue.junction_factor_calls": ("count", ("calls", "residue.junction_factor")),
    "residue.junction_factor_keys": ("count", ("distinct", "residue.junction_factor_keys")),
    "residue.junction_factor_s": ("s", ("time", "residue.junction_factor")),
    "hlengine.L_calls": ("count", ("calls", "hlengine.L")),
    "hlengine.L_s": ("s", ("time", "hlengine.L")),
    "hlengine.gallery_term_calls": ("count", ("calls", "hlengine.gallery_term")),
    "hlengine.gallery_term_s": ("s", ("time", "hlengine.gallery_term")),
    "hlengine.character_calls": ("count", ("calls", "hlengine.character")),
    "hlengine.character_s": ("s", ("time", "hlengine.character")),
    "oracles.hl_direct_calls": ("count", ("calls", "oracles.hl_direct")),
    "oracles.hl_direct_s": ("s", ("time", "oracles.hl_direct")),
    "oracles.freudenthal_s": ("s", ("time", "oracles.freudenthal")),
    "oracles.kostka_s": ("s", ("time", "oracles.kostka")),
    "tableaux.to_tableau_calls": ("count", ("calls", "tableaux.to_tableau")),
    "tableaux.to_tableau_s": ("s", ("time", "tableaux.to_tableau")),
    "tableaux.to_gallery_s": ("s", ("time", "tableaux.to_gallery")),
    "verify.check_system_s": ("s", ("time", "verify.check_system")),
    "cli.import_s": ("s", ("time", "cli.import")),
    "cli.main_s": ("s", ("time", "cli.main")),
}
# every inclusive time also comes as self time
for _name, (_unit, (_kind, _span)) in list(PER_LAYER.items()):
    if _kind == "time":
        PER_LAYER[_name[: -len("_s")] + "_self_s"] = ("s", ("self", _span))
PER_LAYER["trace.overhead_frac"] = ("ratio", ("overhead", None))

# Counts that repeat exactly across traced runs of one seed, so a later
# change may rest a claim on them.
EXACT_COUNTS = (
    "gallery.enumerated",
    "folding.pf_tests",
    "folding.pf_kept",
    "residue.junction_factor_calls",
    "apartment.local_data_built",
    "oracles.hl_direct_calls",
)

_SPAN_NAMES = tuple(dict.fromkeys([s for _, _, s in WRAPPED] + list(MANUAL_SPANS)))


class _TimedIter:
    """Iterator whose every next() is one span; counts the items yielded."""

    __slots__ = ("tracer", "nid", "it")

    def __init__(self, tracer, nid, it):
        self.tracer, self.nid, self.it = tracer, nid, it

    def __iter__(self):
        return self

    def __next__(self):
        tr = self.tracer
        i = tr.begin(self.nid)
        try:
            item = next(self.it)
        finally:
            tr.finish(i)
        tr.counts["gallery.enumerated"] += 1
        return item


class Tracer:
    def __init__(self):
        self.names = list(_SPAN_NAMES)
        self.ids = {name: k for k, name in enumerate(self.names)}
        self.absent = []
        self._bindings = []  # (module, attribute, original, wrapper)
        self._local_keys = {}
        self.reset()

    # ------------------------------------------------------------ recording

    def reset(self):
        """Drop every span and count recorded so far."""
        self.t0 = perf()
        self.name = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.depth = [0] * len(self.names)
        self.counts = Counter()
        self.distinct = {"rootdata.builds": {}, "apartment.local_data_built": {},
                         "residue.junction_factor_keys": {}}

    def begin(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.outer.append(self.depth[nid] == 0)
        self.depth[nid] += 1
        self.end.append(0.0)
        self.stack.append(i)
        self.start.append(perf())
        return i

    def finish(self, i: int):
        self.end[i] = perf()
        self.stack.pop()
        self.depth[self.name[i]] -= 1

    def record_span(self, name: str, start: float, end: float):
        """A span measured by the caller, e.g. an import."""
        i = self.begin(self.ids[name])
        self.start[i] = start
        self.finish(i)
        self.end[i] = end

    # --------------------------------------------------------- installation

    def install(self):
        """Wrap every listed function that exists; note the ones that don't."""
        self.absent = []
        modules = {}
        for mod_name, fn_name, span in WRAPPED:
            if mod_name not in modules:
                try:
                    modules[mod_name] = importlib.import_module("hlgal." + mod_name)
                except ImportError:
                    modules[mod_name] = None
            original = getattr(modules[mod_name], fn_name, None)
            if original is None:
                self.absent.append("%s.%s" % (mod_name, fn_name))
                continue
            wrapper = self._wrap(fn_name, self.ids[span], original)
            for module in [m for k, m in sys.modules.items() if k == "hlgal" or k.startswith("hlgal.")]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._bindings.append((module, attr, original, wrapper))

    def uninstall(self):
        for module, attr, original, wrapper in reversed(self._bindings):
            if getattr(module, attr, None) is wrapper:
                setattr(module, attr, original)
        self._bindings = []

    def _wrap(self, fn_name: str, nid: int, fn):
        tracer = self

        if fn_name == "enumerate_of_type":
            def wrapper(*args, **kwargs):
                return _TimedIter(tracer, nid, iter(fn(*args, **kwargs)))
            return functools.wraps(fn)(wrapper)

        hook = {
            "build_root_system": self._on_build,
            "local_data": self._on_local_data,
            "local_data_for_key": self._on_local_data,
            "is_positively_folded": self._on_pf,
            "junction_factor": self._on_junction_factor,
        }.get(fn_name)

        def wrapper(*args, **kwargs):
            i = tracer.begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.finish(i)
            if hook is not None:
                hook(args, result)
            return result

        return functools.wraps(fn)(wrapper)

    # Hooks run outside the span they annotate.  Objects are kept alive so
    # that an id() is never reused for a different object.
    def _on_build(self, args, result):
        self.distinct["rootdata.builds"][id(result)] = result

    def _on_local_data(self, args, result):
        self.distinct["apartment.local_data_built"][id(result)] = result

    def _on_pf(self, args, result):
        if result:
            self.counts["folding.pf_kept"] += 1

    def _on_junction_factor(self, args, result):
        if len(args) < 4:
            return
        rs, vertex, d_in, d_out = args[:4]
        memo = (id(rs), vertex)
        key = self._local_keys.get(memo)
        if key is None:
            apartment = sys.modules.get("hlgal.apartment")
            local_key = getattr(apartment, "local_key", None)
            key = local_key(rs, vertex) if local_key is not None else vertex
            self._local_keys[memo] = key
        self.distinct["residue.junction_factor_keys"][(id(rs), key, d_in, d_out)] = rs

    # ------------------------------------------------------------ reporting

    def summary(self) -> dict:
        """Raw per-span and per-counter totals of everything recorded."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans = {name: {"calls": 0, "time": 0.0, "self": 0.0} for name in self.names}
        for i in range(n):
            entry = spans[self.names[self.name[i]]]
            dur = self.end[i] - self.start[i]
            entry["self"] += dur - child[i]
            if self.outer[i]:
                entry["calls"] += 1
                entry["time"] += dur
        return {
            "spans": spans,
            "counts": dict(self.counts),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "absent": list(self.absent),
        }

    def dump(self, path, extra=None):
        """Write every span (with parent links) plus the summary as JSON."""
        data = {
            "names": self.names,
            "columns": ["name", "parent", "start_s", "end_s"],
            "spans": [
                [self.name[i], self.parent[i], round(self.start[i] - self.t0, 7),
                 round(self.end[i] - self.t0, 7)]
                for i in range(len(self.name))
            ],
            "summary": self.summary(),
        }
        if extra:
            data.update(extra)
        with open(path, "w") as fh:
            json.dump(data, fh, separators=(",", ":"))


def merge_summaries(summaries) -> dict:
    """Add up summaries from several processes (cli children)."""
    out = {"spans": {}, "counts": Counter(), "distinct": Counter(), "absent": []}
    for s in summaries:
        for name, entry in s["spans"].items():
            acc = out["spans"].setdefault(name, {"calls": 0, "time": 0.0, "self": 0.0})
            for k in acc:
                acc[k] += entry[k]
        out["counts"].update(s["counts"])
        out["distinct"].update(s["distinct"])
        out["absent"] = sorted(set(out["absent"]) | set(s["absent"]))
    return out


def per_layer_metrics(summary: dict, overhead_frac: float, time_scale: float = 1.0) -> dict:
    """The reported per-layer metrics from a (merged) summary; span times
    are multiplied by time_scale (the run's calibration factor)."""
    spans, counts, distinct = summary["spans"], summary["counts"], summary["distinct"]

    def value(kind, key):
        if kind == "calls":
            return spans.get(key, {}).get(kind, 0)
        if kind in ("time", "self"):
            return spans.get(key, {}).get(kind, 0.0) * time_scale
        if kind == "count":
            return counts.get(key, 0)
        if kind == "distinct":
            return distinct.get(key, 0)
        if kind == "ratio":
            num, den = (value(*PER_LAYER[k][1]) for k in key)
            return num / den if den else 0.0
        return overhead_frac

    return {
        name: {"value": value(kind, key), "unit": unit}
        for name, (unit, (kind, key)) in PER_LAYER.items()
    }
