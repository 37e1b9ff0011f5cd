"""Acceptance suite: one test per release criterion, with a printed verdict each.

Run with ``pytest -s tests/test_acceptance.py -v`` to see the PASS/FAIL lines.
"""

from __future__ import annotations

import contextlib
import io
import json
import time

import numpy as np

from conftest import (
    all_patterns,
    apply_local_unitary,
    expectation_mixed,
    kron,
    marginal_set,
    naive_expectation,
    naive_partial_trace,
    permute_parties,
    pure_pair,
    purity_via_observables,
    random_unitary,
)
from qcert import (
    SpaceShape,
    SubsetMask,
    corollary1_check,
    corollary1_scan,
    disorder_check,
    entanglement_E_subset_sum,
    exhaustive_E,
    expectation_pure,
    ghz_state,
    measure_all,
    partial_trace,
    purity,
    random_mixed,
    random_pure,
    self_check,
    theorem1_check,
    w_state,
)
from qcert.cli import main


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"criterion {num:2d} [{'PASS' if ok else 'FAIL'}] {name}{detail}")
    assert ok, f"criterion {num} failed: {name}{detail}"


def three_routes(psi):
    return (
        measure_all(psi, "partitions").values["partitions"],
        measure_all(psi, "projector").values["projector"],
        entanglement_E_subset_sum(psi),
    )


def test_criterion_01_demo_eq8_regression():
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = main(["demo", "eq8"])
    elapsed = time.perf_counter() - start
    cert = json.loads(buf.getvalue())["certificate"]
    purity_by_size: dict[int, list[float]] = {1: [], 2: [], 3: []}
    for item in cert["per_subset_purities"]:
        purity_by_size[len(item["parties"])].append(item["purity"])
    ok = (
        code == 3
        and cert["verdict"] == "incompatible"
        and abs(cert["lhs_proper"] - 26 / 9) <= 1e-9
        and all(abs(p - 5 / 9) <= 1e-9 for p in purity_by_size[1] + purity_by_size[2])
        and all(abs(p - 1.0) <= 1e-9 for p in purity_by_size[3])
        and elapsed < 1.0
    )
    report(1, "demo eq8 regression", ok, f" (lhs_proper={cert['lhs_proper']:.12f}, {elapsed:.2f}s)")


def test_criterion_02_w_state_equality():
    worst_route = 0.0
    worst_slack = 0.0
    for n in (4, 6):
        w = w_state(n)
        worst_route = max(worst_route, max(abs(v) for v in three_routes(w)))
        rep = theorem1_check(marginal_set(w.density()))
        worst_slack = max(worst_slack, abs(rep.slack))
    ok = worst_route <= 1e-9 and worst_slack <= 1e-9
    report(2, "W-state equality", ok, f" (max |E|={worst_route:.2e}, max |slack|={worst_slack:.2e})")


def test_criterion_03_route_agreement():
    profiles = [(2, 2, 2, 2), (2, 3, 2, 3), (2, 2, 2, 2, 2, 2)]
    start = time.perf_counter()
    worst = 0.0
    for i in range(200):
        psi = random_pure(SpaceShape(profiles[i % 3]), 1000 + i)
        vals = three_routes(psi)
        worst = max(worst, max(vals) - min(vals))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-8 and elapsed < 60.0
    report(3, "route agreement on 200 random states", ok, f" (max delta={worst:.2e}, {elapsed:.1f}s)")


def test_criterion_04_nonnegativity():
    profiles = [(2, 2, 2, 2), (2, 3, 2, 2)]
    worst = 0.0
    for i in range(1000):
        psi = random_pure(SpaceShape(profiles[i % 2]), 2000 + i)
        worst = min(worst, measure_all(psi, "projector").values["projector"])
    ok = worst >= -1e-10
    report(4, "projector-route nonnegativity on 1000 states", ok, f" (min={worst:.2e})")


def test_criterion_05_odd_party_vanishing():
    profiles = [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2, 2), (2, 2, 3, 2, 2)]
    worst = 0.0
    for i in range(200):
        psi = random_pure(SpaceShape(profiles[i % 4]), 3000 + i)
        worst = max(worst, abs(measure_all(psi, "projector").values["projector"]))
    ok = worst <= 1e-12
    report(5, "odd-N projector route vanishes on 200 states", ok, f" (max |E|={worst:.2e})")


def test_criterion_06_purity_route():
    profiles = [(2, 2), (2, 3), (3, 3), (2, 2, 2), (2, 2, 3), (2, 2, 2, 2), (4, 4)]
    worst = 0.0
    for i in range(200):
        shape = SpaceShape(profiles[i % len(profiles)])
        rank = 1 + i % shape.total_dim
        rho = random_mixed(shape, rank, 4000 + i)
        worst = max(worst, abs(purity_via_observables(rho) - purity(rho)))
    ok = worst <= 1e-9
    report(6, "two-copy purity route on 200 mixed states", ok, f" (max delta={worst:.2e})")


def test_criterion_07_certificate_soundness():
    worst = np.inf
    for i in range(500):
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 1 + i % 16, 5000 + i)
        worst = min(worst, self_check(rho).slack)
    for i in range(100):
        rho = random_mixed(SpaceShape((2,) * 6), 1 + (7 * i) % 64, 6000 + i)
        worst = min(worst, self_check(rho).slack)
    ok = worst >= -1e-9
    report(7, "certificate soundness on 600 mixed states", ok, f" (min slack={worst:.2e})")


def test_criterion_08_odd_party_identity():
    profiles = [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2, 2), (2, 2, 3, 2, 2)]
    worst = 0.0
    for i in range(200):
        psi = random_pure(SpaceShape(profiles[i % 4]), 7000 + i)
        rep = theorem1_check(marginal_set(psi.density()))
        worst = max(worst, abs(rep.lhs - 1.0))
    ok = worst <= 1e-10
    report(8, "odd-N alternating sum equals 1 on 200 states", ok, f" (max |lhs-1|={worst:.2e})")


def test_criterion_09_monogamy():
    profiles = [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2), (2, 3, 2, 3), (2, 2, 2, 2, 2)]
    worst = np.inf
    for i in range(500):
        psi = random_pure(SpaceShape(profiles[i % 5]), 8000 + i)
        for rep in corollary1_scan(psi):
            worst = min(worst, rep.slack)
    ghz3 = ghz_state(3)
    fixture_ok = True
    for parties in ([0, 1], [0, 2], [1, 2]):
        rep = corollary1_check(ghz3, SubsetMask.from_parties(parties, 3))
        fixture_ok = fixture_ok and abs(rep.lhs - 2.0) <= 1e-9 and abs(rep.rhs - 1.0) <= 1e-9
    ok = worst >= -1e-9 and fixture_ok
    report(9, "monogamy reports on 500 states", ok, f" (min slack={worst:.2e})")


def test_criterion_10_disorder():
    two_party = [(2, 2), (2, 3), (3, 3), (4, 4)]
    four_party = [(2, 2, 2, 2), (2, 3, 2, 2)]
    worst_slack = np.inf
    worst_cross = 0.0
    for i in range(500):
        dims = two_party[i % 4] if i % 2 == 0 else four_party[i % 2]
        shape = SpaceShape(dims)
        rho = random_mixed(shape, 1 + i % shape.total_dim, 9000 + i)
        rep = disorder_check(rho)
        worst_slack = min(worst_slack, rep.slack)
        cert = self_check(rho)
        worst_cross = max(worst_cross, abs(rep.slack - (1.0 - cert.lhs)))
    ok = worst_slack >= -1e-9 and worst_cross <= 1e-9
    report(
        10,
        "disorder relations on 500 mixed states",
        ok,
        f" (min slack={worst_slack:.2e}, max cross delta={worst_cross:.2e})",
    )


def test_criterion_11_oracle_equivalence():
    worst = 0.0
    # Partial traces across dimension profiles up to D = 36.
    profiles = [(2, 3, 2, 3), (2, 2, 3, 3), (6, 6), (4, 9), (2, 2, 2, 2)]
    for i in range(60):
        dims = profiles[i % 5]
        shape = SpaceShape(dims)
        rho = random_mixed(shape, 1 + i % shape.total_dim, 10000 + i)
        mask = SubsetMask(i % (1 << len(dims)), len(dims))
        fast = partial_trace(rho, mask).entries
        slow = naive_partial_trace(rho, mask).entries
        worst = max(worst, float(np.max(np.abs(fast - slow))))
    # Two-copy expectations against materialized observables.
    for dims in [(2, 2), (2, 3), (2, 2, 2)]:
        psi = random_pure(SpaceShape(dims), 11000 + len(dims))
        pair = pure_pair(psi)
        for pattern in all_patterns(len(dims)):
            worst = max(worst, abs(expectation_pure(psi, pattern) - naive_expectation(pair, pattern)))
    for dims in [(2, 2), (2, 3)]:
        shape = SpaceShape(dims)
        rho = random_mixed(shape, shape.total_dim, 12000)
        pair = kron(rho, rho)
        for pattern in all_patterns(2):
            worst = max(worst, abs(expectation_mixed(rho, pattern) - naive_expectation(pair, pattern)))
    # Measure routes against exhaustive partition enumeration.
    for dims in [(2, 2), (2, 2, 2, 2), (2, 3, 2, 3)]:
        for seed in range(3):
            psi = random_pure(SpaceShape(dims), 13000 + seed)
            reference = exhaustive_E(psi)
            worst = max(worst, max(abs(v - reference) for v in three_routes(psi)))
    psi6 = random_pure(SpaceShape((2,) * 6), 14000)
    worst = max(worst, max(abs(v - exhaustive_E(psi6)) for v in three_routes(psi6)))
    ok = worst <= 1e-10
    report(11, "oracle equivalence across the corpus", ok, f" (max delta={worst:.2e})")


def test_criterion_12_invariance():
    dims = (2, 2, 2, 2)
    worst = 0.0
    for i in range(100):
        psi = random_pure(SpaceShape(dims), 15000 + i)
        reference = three_routes(psi)
        party = i % 4
        rotated = apply_local_unitary(psi, party, random_unitary(2, 16000 + i))
        worst = max(worst, max(abs(a - b) for a, b in zip(three_routes(rotated), reference)))
    rng = np.random.default_rng(17000)
    for i in range(100):
        psi = random_pure(SpaceShape(dims), 18000 + i)
        reference = three_routes(psi)
        perm = tuple(int(p) for p in rng.permutation(4))
        shuffled = permute_parties(psi, perm)
        worst = max(worst, max(abs(a - b) for a, b in zip(three_routes(shuffled), reference)))
    ok = worst <= 1e-9
    report(12, "unitary and relabeling invariance", ok, f" (max drift={worst:.2e})")
