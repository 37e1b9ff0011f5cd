"""Smallest-size smoke run of every workload, as a self-test of the benchmark.

    python3 perfbench/smoke.py

For each workload at its smallest size: one subprocess pass whose outputs
must all pass their checks, then two traced in-process passes. The traced
call counts must repeat exactly between the two, and in every job the self
times of its spans must sum to no more than the job's wall time measured
around ``qcert.cli.main``. Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import sys

import run
from tracer import Tracer


def main() -> int:
    run.bootstrap()
    import workloads

    work = run.WORK / f"smoke-{os.getpid()}"
    problems: list[str] = []
    try:
        for name in workloads.NAMES:
            workload = workloads.prepare(name, workloads.DEFAULT_SEED, work / name, small=True)
            found = [f"{name}: {f}" for f in
                     run.subprocess_pass(workload.jobs, run.child_env(), work / name).failures]
            tracer = Tracer()
            counts = []
            for _ in range(2):
                tracer.reset()
                tracer.install()
                try:
                    outcome = run.replay_pass(workload.jobs, tracer)
                finally:
                    tracer.uninstall()
                found += [f"{name} (traced): {f}" for f in outcome.failures]
                profile = tracer.profile()
                counts.append(profile["calls"])
                for job, wall in enumerate(outcome.job_s):
                    traced = profile["per_job"].get(job, 0.0)
                    if not 0.0 < traced <= wall:
                        found.append(f"{name}: job {job} self times sum to {traced:.6g} s, "
                                     f"job took {wall:.6g} s")
            if counts[0] != counts[1]:
                found.append(f"{name}: traced call counts differ between passes")
            print(f"{name:<17} {len(workload.jobs)} jobs, "
                  f"{sum(counts[0].values())} traced calls per pass: "
                  f"{'FAILED' if found else 'ok'}")
            problems += found
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for problem in problems:
        print(problem)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
