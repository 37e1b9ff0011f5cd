"""End-to-end and per-layer benchmark of the ``qcert`` command.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; nothing needs to be installed. With
``--trace 0`` each job runs as a user runs it, one
``python -m qcert.cli ...`` subprocess with ``PYTHONPATH=src``, in a single
closed loop: each job ends before the next starts. Right before each job the
fixed reference task (reference_task.py) runs the same way, and each job's
time is also given in units of that run's time, which cancels the changes
in machine speed a shared host goes through. One untimed warm-up pass comes
first, then whole passes over the job list repeat until ``--seconds`` have
passed. With ``--trace 1`` the same jobs are replayed in-process through
``qcert.cli.main(argv)``, alternating untraced and traced passes, and the
spans give the per-layer metrics.

Every job's exit code and output are checked. The script prints a table of
metrics (median, quartiles, sample count, unit), writes a result file under
perfbench/results/ and ends with one JSON line: correct, attempted, failed
and the metrics BENCHMARK.json lists for the chosen trace mode.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from compare import summary
from tracer import METRICS, Tracer, layer_metrics

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "perfbench"
WORK = BENCH / ".work"
RESULTS = BENCH / "results"
REFERENCE = BENCH / "reference_task.py"

# One BLAS/OpenMP thread in this process and in every job: with the default
# thread pool, CPU time exceeds wall time and single runs stall.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
IMPORT_REPEATS = 5
# Between passes, set-up is repeated while the repetitions fit in this share
# of the time the passes have taken so far. Timing noise on a shared machine
# comes in phases of seconds; spreading set-ups over the whole run keeps
# their median from depending on the phase the run started in.
SETUP_SHARE = 0.1
# A job still running after this long is killed and counts as failed.
JOB_TIMEOUT_S = 120.0


def bootstrap() -> None:
    """Pin threads and make ``src`` importable; call before importing numpy."""
    if not (SRC / "qcert" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no qcert sources under {SRC}; run from a source checkout")
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """The environment of every job: this one (threads pinned) plus ``src``."""
    return dict(os.environ, PYTHONPATH=str(SRC))


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():  # not a git checkout; do not look above it
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_sha": _git_sha(),
    }


# --- running jobs ------------------------------------------------------------

@dataclass
class Outcome:
    """What one pass over a workload's jobs did."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    cmd_s: dict = field(default_factory=dict)
    job_s: list = field(default_factory=list)
    attempted: int = 0
    failures: list = field(default_factory=list)
    emit_bytes: int = 0
    # Subprocess passes only: the reference task run before each job, and
    # the sums over jobs of job time / that reference run's time.
    ref_job_s: list = field(default_factory=list)
    wall_rel: float = 0.0
    cpu_rel: float = 0.0


def _check(job, code: int, out: str, outcome: Outcome, detail: str = "") -> None:
    outcome.attempted += 1
    try:
        job.check(code, out)
    except Exception as exc:  # any malformed output is a failed job, not a crash
        outcome.failures.append(f"{job.argv[0]}: {type(exc).__name__}: {exc}{detail}")
    if job.out_path is not None and job.out_path.exists():
        outcome.emit_bytes += job.out_path.stat().st_size
    outcome.emit_bytes += len(out.encode())


def _spawn(argv: list[str], env: dict, err_path: Path):
    """Run one command as a subprocess.

    Returns exit code, stdout, stderr, wall time, CPU time and peak RSS in MB.
    """
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, out.decode(), err_path.read_text(errors="replace"), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def subprocess_pass(jobs, env: dict, work: Path) -> Outcome:
    """One timed pass of subprocess jobs; outputs are checked after the clock stops.

    The reference task runs right before each job, so that each job's time
    can be divided by the time of a fixed piece of work done at the same
    machine speed.
    """
    outcome = Outcome()
    results = []
    err_path = work / "stderr.txt"
    for job in jobs:
        code, _, err, ref_wall, ref_cpu, _ = _spawn([sys.executable, str(REFERENCE)], env,
                                                    err_path)
        if code != 0:
            raise RuntimeError(f"perfbench: the reference task exited with {code}:\n{err}")
        code, out, err, wall, cpu, rss = _spawn([sys.executable, "-m", "qcert.cli", *job.argv],
                                                env, err_path)
        results.append((job, code, out, "\n" + err[-2000:] if err else ""))
        outcome.wall_s += wall
        outcome.cpu_s += cpu
        outcome.peak_rss_mb = max(outcome.peak_rss_mb, rss)
        outcome.cmd_s[job.command] = outcome.cmd_s.get(job.command, 0.0) + wall
        outcome.job_s.append(wall)
        outcome.ref_job_s.append(ref_wall)
        outcome.wall_rel += wall / ref_wall
        outcome.cpu_rel += cpu / ref_cpu
    for job, code, out, detail in results:
        _check(job, code, out, outcome, detail)
    return outcome


def replay_pass(jobs, tracer=None) -> Outcome:
    """One pass of the jobs in-process through ``qcert.cli.main``, stdout captured."""
    import qcert.cli

    outcome = Outcome()
    results = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = index
        buf = io.StringIO()
        detail = ""
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = qcert.cli.main(list(job.argv))
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a traceback the user would see; recorded as a failure
            code, detail = 1, "\n" + traceback.format_exc()
        wall = time.perf_counter() - t0
        outcome.job_s.append(wall)
        outcome.cmd_s[job.command] = outcome.cmd_s.get(job.command, 0.0) + wall
        results.append((job, code, buf.getvalue(), detail))
    outcome.wall_s = time.perf_counter() - start
    if tracer is not None:
        tracer.job = None
    for job, code, out, detail in results:
        _check(job, code, out, outcome, detail)
    return outcome


# --- measurement -------------------------------------------------------------

def _metric(unit: str, better: str, samples: list) -> dict:
    return {"unit": unit, "better": better, "samples": samples, **summary(samples)}


def measure_end_to_end(workload, seconds: float, work: Path) -> dict:
    env = child_env()
    warm = subprocess_pass(workload.jobs, env, work)
    passes: list[Outcome] = []
    budget = 0.0  # time left for set-up repetitions
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        pass_start = time.perf_counter()
        passes.append(subprocess_pass(workload.jobs, env, work))
        budget += SETUP_SHARE * (time.perf_counter() - pass_start)
        while statistics.median(workload.setup_s) <= budget:
            budget -= workload.setup_again()
    everything = [warm, *passes]
    metrics = {
        "setup_s": _metric("s", "lower", workload.setup_s),
        "wall_s": _metric("s", "lower", [p.wall_s for p in passes]),
        "cpu_s": _metric("s", "lower", [p.cpu_s for p in passes]),
        "wall_rel": _metric("x", "lower", [p.wall_rel for p in passes]),
        "cpu_rel": _metric("x", "lower", [p.cpu_rel for p in passes]),
        "reference_s": _metric("s", "lower", [sum(p.ref_job_s) for p in passes]),
        "peak_rss_mb": _metric("MB", "lower", [p.peak_rss_mb for p in passes]),
    }
    for command in sorted(passes[0].cmd_s):
        metrics[f"cmd.{command}_s"] = _metric("s", "lower", [p.cmd_s[command] for p in passes])
    result = _result(everything, metrics)
    result["job_s"] = [p.job_s for p in passes]
    result["ref_job_s"] = [p.ref_job_s for p in passes]
    return result


def _import_times(env: dict) -> list[float]:
    times = []
    for _ in range(IMPORT_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import qcert.cli"], env=env, cwd=ROOT,
                       check=True, timeout=120)
        times.append(time.perf_counter() - start)
    return times


def measure_traced(workload, seconds: float, spans_path: Path) -> dict:
    import_s = _import_times(child_env())
    parse_bytes = sum(job.input_bytes for job in workload.jobs)
    tracer = Tracer()
    plain: list[Outcome] = []
    traced: list[Outcome] = []
    layers: list[dict] = []
    counts: list[dict] = []
    replay_pass(workload.jobs)  # warm-up: lazy imports and the allocator's first growth
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(replay_pass(workload.jobs))
        tracer.reset()
        tracer.install()
        try:
            outcome = replay_pass(workload.jobs, tracer)
        finally:
            tracer.uninstall()
        traced.append(outcome)
        profile = tracer.profile()
        counts.append(profile["calls"])
        layers.append(layer_metrics(profile, parse_bytes, outcome.emit_bytes))
    if any(c != counts[0] for c in counts):
        traced[-1].failures.append("traced call counts differ between passes")
    spans_path.write_text(json.dumps(tracer.dump()) + "\n")
    units = dict(METRICS)
    metrics = {
        "setup_s": _metric("s", "lower", workload.setup_s),
        "startup.import_s": _metric("s", "lower", import_s),
        "trace.overhead_s": _metric("s", "lower", [t.wall_s - p.wall_s
                                                  for p, t in zip(plain, traced)]),
    }
    for name, unit in units.items():
        better = "higher" if unit in ("MB/s", "ratio") else "lower"
        metrics[name] = _metric(unit, better, [layer[name] for layer in layers])
    return _result([*plain, *traced], metrics)


def _result(outcomes: list[Outcome], metrics: dict) -> dict:
    attempted = sum(o.attempted for o in outcomes)
    failures = [f for o in outcomes for f in o.failures]
    metrics["fail_ratio"] = _metric("ratio", "lower", [len(failures) / attempted])
    return {"correct": not failures, "attempted": attempted, "failed": len(failures),
            "failures": failures[:20], "metrics": metrics}


# --- reporting ---------------------------------------------------------------

def print_table(results: dict) -> None:
    print(f"{'workload':<17} {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} {'n':>4}  unit")
    for workload, result in results.items():
        for name, m in result["metrics"].items():
            print(f"{workload:<17} {name:<40} {m['median']:>12.6g} {m['q1']:>12.6g} "
                  f"{m['q3']:>12.6g} {m['n']:>4}  {m['unit']}")
        for failure in result["failures"]:
            print(f"{workload:<17} FAILED {failure}")


def result_line(results: dict, trace: int) -> dict:
    """The closing JSON line: the metrics BENCHMARK.json lists for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    single = len(results) == 1
    metrics = {}
    for workload, result in results.items():
        for name in names:
            m = result["metrics"][name]
            metrics[name if single else f"{workload}.{name}"] = {"value": m["median"],
                                                                 "unit": m["unit"]}
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the qcert command end to end.")
    parser.add_argument("--workload", default="all",
                        help="pure-scan, mixed-read, sample-write, compat-marginals or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None, help="result file to write")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    # A terminated run unwinds like an interrupted one: the running job is
    # killed and waited for, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    bootstrap()
    import workloads

    names = workloads.NAMES if args.workload == "all" else (args.workload,)
    if any(name not in workloads.NAMES for name in names):
        parser.error(f"unknown workload {args.workload!r}")
    work = WORK / f"run-{os.getpid()}"
    RESULTS.mkdir(parents=True, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = {}
    try:
        for name in names:
            workload = workloads.prepare(name, args.seed, work / name)
            if args.trace:
                spans = RESULTS / f"{name}-seed{args.seed}-spans.json"
                results[name] = measure_traced(workload, args.seconds, spans)
            else:
                results[name] = measure_end_to_end(workload, args.seconds, work / name)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    out = args.out or RESULTS / f"{tag}.json"
    out.write_text(json.dumps({"environment": environment(), "seed": args.seed,
                               "seconds": args.seconds, "trace": args.trace,
                               "workloads": results}, indent=1) + "\n")
    print_table(results)
    print(f"result file: {out}")
    print(json.dumps(result_line(results, args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
