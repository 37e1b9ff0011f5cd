"""Monogamy inequality reports and disorder relations."""

from __future__ import annotations

import pytest

from conftest import kron, mask
from qcert import measures
from qcert import (
    SpaceShape,
    SubsetMask,
    corollary1_check,
    corollary1_scan,
    disorder_check,
    ghz_state,
    partial_trace,
    product_state,
    purity,
    random_mixed,
    random_pure,
    self_check,
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

    def test_rejects_odd_party_count(self):
        rho = random_mixed(SpaceShape((2, 2, 2)), 3, 0)
        with pytest.raises(ValueError, match="even"):
            disorder_check(rho)
