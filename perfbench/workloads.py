"""The benchmark's workloads: inputs made from a seed, job lists and output checks.

Each workload is a list of ``qcert`` command lines. ``prepare`` writes the
input files with the package's own writer (``cli.state_file_dict`` or
``cli.marginal_file_dict``, then ``cli.dumps``), so the command reads files in
the format users' files have, and binds every job to a check of its exit code
and JSON output against values computed here, in-process.

Why each workload exists is written in the docstring of the function that
makes it, and in README.md.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from qcert import cli
from qcert.compatibility import MarginalSet, required_subsets, theorem1_check, theorem2_check
from qcert.hilbert import PureState, SpaceShape, partial_trace, purity
from qcert.measures import entanglement_E_subset_sum
from qcert.monogamy import disorder_check
from qcert.oracle import EXHAUSTIVE_MAX_PARTIES, exhaustive_E
from qcert.states import random_mixed, random_pure

DEFAULT_SEED = 0
ROUTE_TOL = 1e-8
SLACK_TOL = 1e-9

# Exit code of each certificate verdict, as README.md documents them.
VERDICT_EXIT = {"consistent": 0, "incompatible": 3, "inconclusive": 4}

# Set-up runs this many times before the first pass; the runner repeats a
# cheap set-up between passes as well (see run.py).
SETUP_REPEATS = 3

# SHA-256 of each full-size sample-write output at DEFAULT_SEED. A change to
# the sampler or to the file writer that alters a single byte shows here.
SAMPLE_DIGESTS = {
    "sample-0.json": "50e19164d0df33940fa1716adf847edf27e9c5892cea242038077dcdf8e7ee30",
    "sample-1.json": "8322d711ced5f8f244bb133fd033f584e3c76efcf06d1321eb3c22e6e63b6f91",
    "sample-2.json": "8747242283d6c0c2a8d9b1918614390d85f7bbc473733e4c484e2aaa0c5a1130",
}


class Mismatch(Exception):
    """A job's exit code or output differs from the expected one."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise Mismatch(message)


@dataclass
class Job:
    """One ``qcert`` command line and the check of its result."""

    command: str
    argv: list[str]
    check: Callable[[int, str], None]  # (exit code, stdout); raises Mismatch
    input_bytes: int = 0
    out_path: Path | None = None


@dataclass
class Workload:
    name: str
    jobs: list[Job]
    make: Callable[[], object]  # one set-up: makes the inputs and writes the files
    setup_s: list[float]

    def setup_again(self) -> float:
        """Repeat the set-up, which rewrites identical inputs; return its time."""
        start = time.perf_counter()
        self.make()
        elapsed = time.perf_counter() - start
        self.setup_s.append(elapsed)
        return elapsed


def _qubits(n: int) -> SpaceShape:
    return SpaceShape((2,) * n)


# The large mixed state of mixed-read and sample-write: 8 parties, D = 384,
# an 8.3 MB file. A 10-qubit state (59.5 MB) would make a pass several times
# longer, leaving too few passes per run to average out timing noise.
LARGE_MIXED = SpaceShape((2, 2, 2, 2, 2, 2, 2, 3))


def _seed(seed: int, k: int) -> int:
    """Sampler seed of the k-th input of a workload run with ``seed``."""
    return seed * 16 + k


def _write_state(path: Path, state) -> None:
    path.write_text(cli.dumps(cli.state_file_dict(state)) + "\n")


def _report(code: int, out: str, exit_code: int, kind: str) -> dict:
    _require(code == exit_code, f"exit code {code}, expected {exit_code}")
    try:
        doc = json.loads(out)
    except json.JSONDecodeError as exc:
        raise Mismatch(f"stdout is not JSON: {exc}") from exc
    _require(
        isinstance(doc, dict) and doc.get("kind") == kind,
        f"report kind {doc.get('kind') if isinstance(doc, dict) else None!r}, "
        f"expected {kind!r}",
    )
    return doc


def _timed_setup(make: Callable[[], object]):
    """Run ``make`` SETUP_REPEATS times; return its last result and the times."""
    times: list[float] = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        result = make()
        times.append(time.perf_counter() - start)
    return result, times


# --- pure-scan ---------------------------------------------------------------

def _measure_check(n: int, e_ref: float) -> Callable[[int, str], None]:
    if n % 2:
        routes = {"projector"}
    else:
        routes = {"partitions", "projector", "subset_sum"}
        if n <= EXHAUSTIVE_MAX_PARTIES:
            routes.add("oracle")

    def check(code: int, out: str) -> None:
        doc = _report(code, out, 0, "measure_report")
        values = doc["values"]
        got = {k for k, v in values.items() if v is not None}
        _require(got == routes, f"routes {sorted(got)}, expected {sorted(routes)}")
        for route in routes:
            _require(
                abs(values[route] - e_ref) <= ROUTE_TOL,
                f"route {route} gives {values[route]!r}, expected {e_ref!r}",
            )

    return check


def _monogamy_check(n: int) -> Callable[[int, str], None]:
    index_sets = sorted(
        tuple(p for p in range(n) if bits >> p & 1)
        for bits in range(1, 1 << n)
        if bits.bit_count() % 2 == 0
    )

    def check(code: int, out: str) -> None:
        doc = _report(code, out, 0, "monogamy_report")
        _require(doc["all_hold"] is True, "all_hold is not true")
        got = sorted(tuple(r["parties"]) for r in doc["reports"])
        _require(got == index_sets, "not one report per even index set")
        _require(all(r["holds"] is True for r in doc["reports"]), "a report fails")

    return check


def _pure_scan(seed: int, work: Path, small: bool) -> Workload:
    """measure --route all and monogamy on three pure states.

    Compute-bound with inputs under 60 KB: a Haar state on 10 qubits, one on
    9 (odd N, where only the projector route applies) and one on dims
    (2,3,2,3), where the oracle route runs. An 8-qubit state is left out on
    purpose: its oracle takes seconds in Python-loop partial traces and would
    swamp every other layer.
    """
    n, n_odd = (4, 3) if small else (10, 9)
    shapes = [_qubits(n), _qubits(n_odd), SpaceShape((2, 3, 2, 3))]
    paths = [work / f"pure-{k}.json" for k in range(len(shapes))]

    def make():
        states = [random_pure(shape, _seed(seed, k)) for k, shape in enumerate(shapes)]
        for path, psi in zip(paths, states):
            _write_state(path, psi)
        return states

    states, setup_s = _timed_setup(make)
    jobs = []
    for path, psi in zip(paths, states):
        n_parties = psi.shape.n_parties
        if n_parties % 2:
            e_ref = 0.0
        elif n_parties <= EXHAUSTIVE_MAX_PARTIES:
            e_ref = exhaustive_E(psi)
        else:
            e_ref = entanglement_E_subset_sum(psi)
        size = path.stat().st_size
        jobs.append(Job("measure", ["measure", "--state", str(path), "--route", "all"],
                        _measure_check(n_parties, e_ref), size))
        jobs.append(Job("monogamy", ["monogamy", "--state", str(path)],
                        _monogamy_check(n_parties), size))
    return Workload("pure-scan", jobs, make, setup_s)


# --- mixed-read --------------------------------------------------------------

def _disorder_check(slack_ref: float) -> Callable[[int, str], None]:
    def check(code: int, out: str) -> None:
        doc = _report(code, out, 0, "disorder_report")
        _require(doc["holds"] is True, "holds is not true")
        _require(
            abs(doc["slack"] - slack_ref) <= SLACK_TOL,
            f"slack {doc['slack']!r}, expected {slack_ref!r}",
        )

    return check


def _mixed_read(seed: int, work: Path, small: bool) -> Workload:
    """disorder on a large mixed, a full-rank mixed and a pure state file.

    Read-bound: parsing the rank-4 file of LARGE_MIXED (8.3 MB) takes most
    of its job. The 10-qubit pure-state job runs the same command and a
    partial-trace sweep on a 53 KB file, so a parse gain leaves it unchanged.
    """
    if small:
        specs = [(SpaceShape((2, 3)), 4), (_qubits(2), 4), (_qubits(4), None)]
    else:
        specs = [(LARGE_MIXED, 4), (_qubits(8), 256), (_qubits(10), None)]
    paths = [work / f"state-{k}.json" for k in range(len(specs))]

    def make():
        states = [
            random_pure(shape, _seed(seed, k)) if rank is None
            else random_mixed(shape, rank, _seed(seed, k))
            for k, (shape, rank) in enumerate(specs)
        ]
        for path, state in zip(paths, states):
            _write_state(path, state)
        return states

    states, setup_s = _timed_setup(make)
    jobs = []
    for path, state in zip(paths, states):
        rho = state.density() if isinstance(state, PureState) else state
        jobs.append(Job("disorder", ["disorder", "--state", str(path)],
                        _disorder_check(disorder_check(rho).slack), path.stat().st_size))
    return Workload("mixed-read", jobs, make, setup_s)


# --- sample-write ------------------------------------------------------------

def _sample_check(path: Path, reference: np.ndarray, digest: str | None):
    """Check a sample file against the in-process sampler, value for value.

    The first output is parsed and compared value by value; a later output
    passes when it is byte-identical to one that passed, which keeps the
    check cheap on the large file.
    """
    verified: set[str] = set()
    expected = np.stack([reference.real, reference.imag], axis=-1)

    def check(code: int, out: str) -> None:
        _require(code == 0, f"exit code {code}, expected 0")
        _require(out == "", "sample --out printed to stdout")
        raw = path.read_bytes()
        sha = hashlib.sha256(raw).hexdigest()
        if digest is not None:
            _require(sha == digest, f"{path.name}: SHA-256 {sha} differs from the recorded one")
        if sha in verified:
            return
        doc = json.loads(raw)
        body = doc["vector"] if doc["kind"] == "pure" else doc["matrix"]
        got = np.array(body, dtype=float)
        _require(got.shape == expected.shape, f"{path.name}: shape {got.shape}")
        _require(np.array_equal(got, expected), f"{path.name}: values differ from the sampler")
        verified.add(sha)

    return check


def _sample_write(seed: int, work: Path, small: bool) -> Workload:
    """sample of a rank-4 mixed, a large pure and a full-rank qudit mixed state.

    Write-bound: JSON emit takes nearly all of each job. It writes the same
    large mixed state that mixed-read parses, so a parse gain that costs
    emit, or the reverse, shows up. Set-up here is computing the reference
    states the outputs are checked against.
    """
    large, n_pure = (SpaceShape((2, 3)), 4) if small else (LARGE_MIXED, 16)
    specs = [(large, 4), (_qubits(n_pure), None), (SpaceShape((2, 3, 2, 3)), 36)]

    def make():
        return [
            random_pure(shape, _seed(seed, k)).amplitudes if rank is None
            else random_mixed(shape, rank, _seed(seed, k)).entries
            for k, (shape, rank) in enumerate(specs)
        ]

    references, setup_s = _timed_setup(make)
    jobs = []
    for k, ((shape, rank), reference) in enumerate(zip(specs, references)):
        path = work / f"sample-{k}.json"
        argv = ["sample", "--dims", ",".join(map(str, shape.dims))]
        if rank is not None:
            argv += ["--kind", "mixed", "--rank", str(rank)]
        argv += ["--seed", str(_seed(seed, k)), "--out", str(path)]
        digest = SAMPLE_DIGESTS[path.name] if seed == DEFAULT_SEED and not small else None
        jobs.append(Job("sample", argv, _sample_check(path, reference, digest), out_path=path))
    return Workload("sample-write", jobs, make, setup_s)


# --- compat-marginals --------------------------------------------------------

def _compat_check(exit_code: int, verdict: str, missing: list) -> Callable[[int, str], None]:
    def check(code: int, out: str) -> None:
        doc = _report(code, out, exit_code, "compat_report")
        _require(doc["verdict"] == verdict, f"verdict {doc['verdict']!r}, expected {verdict!r}")
        _require(doc["missing_subsets"] == missing,
                 f"missing_subsets {doc['missing_subsets']}, expected {missing}")
        _require(doc["consistency_violations"] == [],
                 "marginals of one state reported inconsistent")

    return check


def _demo_check(code: int, out: str) -> None:
    doc = _report(code, out, VERDICT_EXIT["incompatible"], "demo_eq8")
    _require(doc["certificate"]["verdict"] == "incompatible", "eq8 is not incompatible")


def _compat_marginals(seed: int, work: Path, small: bool) -> Workload:
    """compat on every proper marginal of a rank-4 mixed state, and demo eq8.

    Many small matrices rather than one large one: 62 density validations
    and 540 nested partial traces in the consistency precheck per file. The
    jobs are the full file with its global purity (theorem 2), the same file
    claimed pure (theorem 1), the file minus one marginal (inconclusive) and
    demo eq8 (violation). The six parties (2,2,2,2,3,3) give a 2.5 MB file; the
    8-qubit set (19.3 MB) made a pass too long to repeat often in one run.
    """
    shape = _qubits(4) if small else SpaceShape((2, 2, 2, 2, 3, 3))
    n = shape.n_parties
    full_path, cut_path = work / "marginals.json", work / "marginals-cut.json"
    subsets = required_subsets(n)
    dropped = subsets[seed % len(subsets)]

    def make():
        rho = random_mixed(shape, 4, _seed(seed, 0))
        entries = {mask: partial_trace(rho, mask) for mask in subsets}
        doc = cli.marginal_file_dict(shape, entries, purity(rho))
        full_path.write_text(cli.dumps(doc) + "\n")
        kept = [m for m in doc["marginals"] if m["parties"] != list(dropped.parties)]
        cut = dict(doc, marginals=kept)
        cut_path.write_text(cli.dumps(cut) + "\n")
        return entries, purity(rho)

    (entries, global_purity), setup_s = _timed_setup(make)
    marginals = MarginalSet(shape, entries)
    mixed = theorem2_check(marginals, global_purity).verdict
    pure = theorem1_check(marginals).verdict
    full_size, cut_size = full_path.stat().st_size, cut_path.stat().st_size
    jobs = [
        Job("compat", ["compat", "--marginals", str(full_path)],
            _compat_check(VERDICT_EXIT[mixed], mixed, []), full_size),
        Job("compat", ["compat", "--marginals", str(full_path), "--pure"],
            _compat_check(VERDICT_EXIT[pure], pure, []), full_size),
        Job("compat", ["compat", "--marginals", str(cut_path)],
            _compat_check(VERDICT_EXIT["inconclusive"], "inconclusive",
                          [list(dropped.parties)]), cut_size),
        Job("demo", ["demo", "eq8"], _demo_check),
    ]
    return Workload("compat-marginals", jobs, make, setup_s)


_MAKERS = {
    "pure-scan": _pure_scan,
    "mixed-read": _mixed_read,
    "sample-write": _sample_write,
    "compat-marginals": _compat_marginals,
}
NAMES = tuple(_MAKERS)


def prepare(name: str, seed: int, work: Path, small: bool = False) -> Workload:
    """Write the inputs of workload ``name`` into ``work`` and bind its jobs."""
    work.mkdir(parents=True, exist_ok=True)
    return _MAKERS[name](seed, work, small)
