"""Span tracer for in-process replays of ``qcert`` jobs.

``Tracer.install`` wraps every public function of the package's layer modules
and rebinds each module-level name in ``qcert.*`` that is bound to it, so
calls across modules (monogamy -> measures.i_concurrence_sq, say) are caught
as well as calls inside one. Spans stay in memory as tuples
(function, start, end, parent span, job id) until the caller reads them.
Nothing in the package itself changes; ``uninstall`` restores every name.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "hilbert", "states", "observables", "measures", "monogamy",
          "compatibility", "oracle")

# Functions reported together under one per-layer name.
GROUPS = {
    "cli.parse": ("cli.load_state_file", "cli.parse_state_dict",
                  "cli.load_marginal_file", "cli.parse_marginal_dict"),
    "cli.emit": ("cli.dumps", "cli.state_file_dict", "cli.marginal_file_dict",
                 "cli.compat_report_dict", "cli.error_dict"),
    "compatibility.certificate": ("compatibility.theorem1_check",
                                  "compatibility.theorem2_check",
                                  "compatibility.self_check"),
}

# Per-layer metrics: (name, unit). Calls count, self times are seconds per pass.
COUNTED = ("hilbert.validate_density", "hilbert.partial_trace", "measures.marginal_purity")
TIMED = ("cli.parse", "cli.emit", "hilbert.validate_density", "hilbert.partial_trace",
         "measures.marginal_purity", "measures.measure_all", "monogamy.corollary1_scan",
         "monogamy.disorder_check", "observables.expectation_pure",
         "compatibility.consistency_precheck", "compatibility.certificate",
         "states.random_mixed", "oracle.exhaustive_E")
METRICS = (
    [("cli.parse.mb_per_s", "MB/s"), ("cli.emit.mb_per_s", "MB/s")]
    + [(f"{name}.calls", "count") for name in COUNTED]
    + [(f"{name}.self_s", "s") for name in TIMED]
    + [("measures.subset_reuse", "ratio")]
    + [(f"layer.{layer}.self_s", "s") for layer in LAYERS]
)


class Tracer:
    """Records one span per call of a public ``qcert`` function."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list = []
        self.job: int | None = None
        self.subsets: set = set()  # (job, state id, mask) per marginal_purity call
        self._stack: list[int] = []
        self._saved: list = []

    def _wrap(self, fn, name: str):
        fid = len(self.names)
        self.names.append(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        note = name == "measures.marginal_purity"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if note:
                self.subsets.add((self.job, id(args[0]), args[1].bits))
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (fid, start, end, parent, self.job)

        return wrapper

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"qcert.{layer}")
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(obj, f"{layer}.{name}")
        for module_name, module in list(sys.modules.items()):
            if module_name != "qcert" and not module_name.startswith("qcert."):
                continue
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._saved.append((module, name, obj))
                    setattr(module, name, wrappers[obj])

    def uninstall(self) -> None:
        while self._saved:
            module, name, obj = self._saved.pop()
            setattr(module, name, obj)

    def reset(self) -> None:
        self.spans.clear()
        self.subsets.clear()
        self.job = None

    def profile(self) -> dict:
        """Calls and self time per function, and self time summed per job.

        A span's self time is its duration minus its children's durations.
        """
        children = [0.0] * len(self.spans)
        for fid, start, end, parent, job in self.spans:
            if parent >= 0:
                children[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        per_job: defaultdict = defaultdict(float)
        for (fid, start, end, parent, job), child in zip(self.spans, children):
            name = self.names[fid]
            calls[name] += 1
            self_s[name] += end - start - child
            per_job[job] += end - start - child
        return {"calls": dict(calls), "self_s": dict(self_s), "per_job": dict(per_job),
                "distinct_subsets": len(self.subsets)}

    def dump(self) -> list:
        """The spans as JSON-ready records."""
        return [
            {"name": self.names[fid], "start": start, "end": end, "parent": parent, "job": job}
            for fid, start, end, parent, job in self.spans
        ]


def layer_metrics(profile: dict, parse_bytes: int, emit_bytes: int) -> dict[str, float]:
    """The per-layer metric values of one traced pass."""
    calls, self_s = profile["calls"], profile["self_s"]

    def total(name: str, table: dict) -> float:
        return sum(table.get(member, 0) for member in GROUPS.get(name, (name,)))

    out: dict[str, float] = {}
    for name in COUNTED:
        out[f"{name}.calls"] = total(name, calls)
    for name in TIMED:
        out[f"{name}.self_s"] = total(name, self_s)
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = sum(
            v for k, v in self_s.items() if k.split(".", 1)[0] == layer)
    parse_s, emit_s = out["cli.parse.self_s"], out["cli.emit.self_s"]
    out["cli.parse.mb_per_s"] = parse_bytes / 1e6 / parse_s if parse_s > 0 else 0.0
    out["cli.emit.mb_per_s"] = emit_bytes / 1e6 / emit_s if emit_s > 0 else 0.0
    purity_calls = calls.get("measures.marginal_purity", 0)
    out["measures.subset_reuse"] = (
        profile["distinct_subsets"] / purity_calls if purity_calls else 0.0)
    return out
