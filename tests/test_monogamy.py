"""Monogamy inequality reports and disorder relations."""

from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import given

from conftest import SETTINGS, kron, marginal_set, mask, seeds, shapes
from qcert import compatibility, measures, monogamy, sums
from qcert.compatibility import VERDICT_CONSISTENT, VERDICT_INCOMPATIBLE
from qcert.config import TOL_VERDICT
from qcert import (
    SpaceShape,
    SubsetMask,
    corollary1_check,
    corollary1_scan,
    disorder_check,
    ghz_state,
    normal_stream,
    partial_trace,
    product_state,
    purity,
    random_mixed,
    random_pure,
    self_check,
    theorem1_check,
    theorem2_check,
    w_state,
)


class TestCorollary1:
    def test_ghz3_pair(self):
        rep = corollary1_check(ghz_state(3), mask([0, 1], 3))
        assert abs(rep.lhs - 2.0) < 1e-9
        assert abs(rep.rhs - 1.0) < 1e-9
        assert rep.holds

    def test_product_state_saturates_at_zero(self):
        psi = product_state([random_pure(SpaceShape((2,)), s) for s in range(4)])
        for parties in ([0, 1], [1, 3], [0, 1, 2, 3]):
            rep = corollary1_check(psi, mask(parties, 4))
            assert abs(rep.lhs) < 1e-10
            assert abs(rep.rhs) < 1e-10
            assert rep.holds

    @pytest.mark.parametrize("seed", range(8))
    def test_random_mixed_dimension_state_holds_everywhere(self, seed):
        psi = random_pure(SpaceShape((2, 3, 2, 2)), seed)
        for rep in corollary1_scan(psi):
            assert rep.holds
            assert rep.slack >= -1e-9

    def test_full_set_index_on_even_party_count(self):
        rep = corollary1_check(random_pure(SpaceShape((2, 2)), 3), mask([0, 1], 2))
        assert rep.holds

    def test_single_check_evaluates_only_the_submasks(self, monkeypatch):
        psi = random_pure(SpaceShape((2,) * 6), 4)
        index_set = mask([1, 4], 6)
        expected = next(r for r in corollary1_scan(psi) if r.index_set == index_set)
        calls = []
        original = measures.marginal_purity

        def counted(state, subset):
            calls.append(subset.bits)
            return original(state, subset)

        monkeypatch.setattr(measures, "marginal_purity", counted)
        rep = corollary1_check(psi, index_set)
        assert sorted(calls) == [0b000000, 0b000010, 0b010000, 0b010010]
        assert rep == expected

    def test_odd_index_set_rejected(self):
        with pytest.raises(ValueError, match="even"):
            corollary1_check(ghz_state(3), mask([0, 1, 2], 3))
        with pytest.raises(ValueError, match="even"):
            corollary1_check(ghz_state(3), mask([0], 3))


class TestCorollary1Scan:
    def test_three_party_scan_has_three_reports(self):
        reports = corollary1_scan(ghz_state(3))
        assert len(reports) == 3
        assert all(r.index_set.cardinality == 2 for r in reports)

    def test_four_party_scan_has_seven_reports(self):
        reports = corollary1_scan(ghz_state(4))
        assert len(reports) == 7

    def test_w4_all_hold(self):
        assert all(r.holds for r in corollary1_scan(w_state(4)))

    def test_odd_leave_one_out_index_sets_hold(self):
        for seed in range(4):
            psi = random_pure(SpaceShape((2, 2, 3)), seed)
            rep = corollary1_check(psi, mask([0, 1], 3))
            assert rep.holds


class TestDisorder:
    def test_two_party_product_state(self):
        a = random_mixed(SpaceShape((2,)), 2, 1)
        b = random_mixed(SpaceShape((2,)), 2, 2)
        rep = disorder_check(kron(a, b))
        # 1 - p1*p2 <= (1 - p1) + (1 - p2) always.
        assert rep.holds
        expected_lhs = 1.0 - purity(a) * purity(b)
        assert abs(rep.lhs - expected_lhs) < 1e-12

    def test_two_party_pure_entangled_state(self):
        rho = random_pure(SpaceShape((2, 2)), 5).density()
        rep = disorder_check(rho)
        assert abs(rep.lhs) < 1e-10
        assert rep.holds

    def test_two_party_sums_term_for_term(self):
        rho = random_mixed(SpaceShape((2, 3)), 4, 8)
        rep = disorder_check(rho)
        d1 = 1 - purity(partial_trace(rho, mask([0], 2)))
        d2 = 1 - purity(partial_trace(rho, mask([1], 2)))
        assert abs(rep.rhs - (d1 + d2)) < 1e-12
        assert abs(rep.lhs - (1 - purity(rho))) < 1e-12

    def test_four_party_sums_term_for_term(self):
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 6, 9)
        rep = disorder_check(rho)
        singles = sum(
            1 - purity(partial_trace(rho, mask([k], 4))) for k in range(4)
        )
        triples = sum(
            1 - purity(partial_trace(rho, SubsetMask(15 ^ (1 << k), 4)))
            for k in range(4)
        )
        pairs = sum(
            1 - purity(partial_trace(rho, SubsetMask(bits, 4)))
            for bits in range(1, 16)
            if bin(bits).count("1") == 2
        )
        assert abs(rep.rhs - (singles + triples)) < 1e-12
        assert abs(rep.lhs - (pairs + (1 - purity(rho)))) < 1e-12

    @pytest.mark.parametrize("seed", range(8))
    def test_random_four_party_holds(self, seed):
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 4 + seed, seed)
        assert disorder_check(rho).holds

    @pytest.mark.parametrize("seed", range(5))
    def test_slack_equals_certificate_slack(self, seed):
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 9, 20 + seed)
        rep = disorder_check(rho)
        cert = self_check(rho)
        assert abs(rep.slack - (1.0 - cert.lhs)) < 1e-9

    def test_sums_hold_no_terms(self):
        # 2^16 table entries: two lists of the terms would take about 2 MiB.
        table = normal_stream(3, 1 << 16).tolist()
        monogamy._disorder(table)
        tracemalloc.start()
        try:
            monogamy._disorder(table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_split_sum_refuses_a_one_pass_iterator(self):
        with pytest.raises(TypeError, match="sequence"):
            sums._split_sum(iter(range(1, 4)), float)
        assert sums._split_sum(range(1, 4), float) == (1.0 + 2.0, 3.0)

    def test_rejects_odd_party_count(self):
        rho = random_mixed(SpaceShape((2, 2, 2)), 3, 0)
        with pytest.raises(ValueError, match="even"):
            disorder_check(rho)


class TestOneVerdictRule:
    """Every ``holds`` and ``verdict`` is ``sums._holds`` of the slack its report prints."""

    # Sums near 10^4, where rhs - TOL_VERDICT would round by ulp(rhs) and the slack is exact.
    TABLE = [1.0, -4982.579342041851, -4982.579342041851, -9966.158684084703]
    SLACK = -1.000444171950221e-09

    def test_monogamy_slack_just_below_the_tolerance_fails(self):
        table = {0: 1.0, 1: -1951.8585083675655, 2: -1951.8585083675655, 3: -3904.717016735631}
        rep = monogamy._corollary1(table, SubsetMask(0b0011, 4))
        assert rep.slack == self.SLACK
        assert rep.holds is False

    def test_disorder_slack_just_below_the_tolerance_fails(self, monkeypatch):
        monkeypatch.setattr(monogamy, "purity_table", lambda state: list(self.TABLE))
        rep = disorder_check(random_pure(SpaceShape((2, 2)), 0))
        assert rep.slack == self.SLACK
        assert rep.holds is False

    def test_a_nan_slack_fails_in_every_check(self, monkeypatch):
        nan = float("nan")
        assert monogamy._corollary1({0: 1.0, 1: nan, 2: 0.5, 3: 1.0}, mask([0, 1], 2)).holds is False
        monkeypatch.setattr(monogamy, "purity_table", lambda state: [1.0, nan, 0.5, 1.0])
        assert disorder_check(random_pure(SpaceShape((2, 2)), 0)).holds is False
        rep = compatibility._certificate((2, 2), {1: nan, 2: 0.5}, 1.0, "theorem2")
        assert rep.verdict == VERDICT_INCOMPATIBLE

    @SETTINGS
    @given(shapes(even=True), seeds)
    def test_every_verdict_follows_from_its_slack(self, shape, seed):
        psi = random_pure(shape, seed)
        rho = random_mixed(shape, 2, seed)
        for rep in [*corollary1_scan(psi), disorder_check(psi), disorder_check(rho)]:
            assert rep.holds == (rep.slack >= -TOL_VERDICT)
        marginals = marginal_set(rho)
        for cert in (self_check(rho), theorem1_check(marginals), theorem2_check(marginals)):
            assert (cert.verdict == VERDICT_CONSISTENT) == (cert.slack >= -TOL_VERDICT)
