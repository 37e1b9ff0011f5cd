"""Compare benchmark result files of a base and a changed commit.

    python3 perfbench/compare.py --base A.json [A2.json ...] --change B.json [B2.json ...]

Prints one row per workload and metric: each side's median and quartiles with
the sample count, the ratio change/base, and a verdict. A side's samples are
the per-pass values of its files, in order; pair i is the i-th sample of each
side. The verdicts follow the pair-and-spread rule of the benchmark:

- improved: at least ten pairs, the change wins at least nine tenths of them
  (ties count for neither), and the medians differ by more than the distance
  between the base's quartiles;
- unresolved: the spread (quartile distance over median) of either side is
  wider than the metric's bound, and not every change sample beats every
  base sample;
- worse: the change's median is worse than the base's by more than the bound;
- no worse: otherwise.

Bounds come from BENCHMARK.json; metrics it does not bound use DEFAULT_BOUND.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_BOUND = 0.10
MIN_PAIRS = 10
WIN_SHARE = 0.9


def summary(values: list[float]) -> dict:
    """Median, first and third quartile, and sample count."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) < 2:
        return {"median": median, "q1": median, "q3": median, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _spread(s: dict) -> float:
    return (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0


def verdict(base: list[float], change: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    sb, sc = summary(base), summary(change)
    pairs = list(zip(base, change))
    wins = sum(1 for b, c in pairs if sign * c < sign * b)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and sign * (sb["median"] - sc["median"]) > sb["q3"] - sb["q1"]):
        return "improved"
    all_better = all(sign * c < sign * b for b in base for c in change)
    if max(_spread(sb), _spread(sc)) > bound and not all_better:
        return "unresolved"
    if sb["median"] and sign * (sc["median"] - sb["median"]) / abs(sb["median"]) > bound:
        return "worse"
    return "no worse"


def _bounds() -> dict[str, float]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in spec["end_to_end"]}


def _samples(paths: list[str]) -> dict:
    """(workload, metric) -> {"unit", "better", "values"} over the given files."""
    out: dict = {}
    for path in paths:
        doc = json.loads(Path(path).read_text())
        for workload, result in doc["workloads"].items():
            for metric, m in result["metrics"].items():
                entry = out.setdefault((workload, metric),
                                       {"unit": m["unit"], "better": m["better"], "values": []})
                entry["values"].extend(m["samples"])
    return out


def compare(base_paths: list[str], change_paths: list[str]) -> list[dict]:
    bounds = _bounds()
    base, change = _samples(base_paths), _samples(change_paths)
    rows = []
    for key in sorted(base.keys() & change.keys()):
        b, c = base[key], change[key]
        sb, sc = summary(b["values"]), summary(c["values"])
        rows.append({
            "workload": key[0], "metric": key[1], "unit": b["unit"], "base": sb, "change": sc,
            "ratio": sc["median"] / sb["median"] if sb["median"] else float("nan"),
            "verdict": verdict(b["values"], c["values"], b["better"],
                               bounds.get(key[1], DEFAULT_BOUND)),
        })
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark result files.")
    parser.add_argument("--base", nargs="+", required=True, help="result files of the base")
    parser.add_argument("--change", nargs="+", required=True, help="result files of the change")
    args = parser.parse_args(argv)
    rows = compare(args.base, args.change)
    print(f"{'workload':<17} {'metric':<42} {'base median [q1, q3] n':>34} "
          f"{'change median [q1, q3] n':>34} {'ratio':>7}  verdict")
    for r in rows:
        cells = [f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] {s['n']}"
                 for s in (r["base"], r["change"])]
        print(f"{r['workload']:<17} {r['metric'] + ' (' + r['unit'] + ')':<42} "
              f"{cells[0]:>34} {cells[1]:>34} {r['ratio']:>7.3f}  {r['verdict']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
