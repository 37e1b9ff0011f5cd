"""Reference-route behavior and fast-path equivalence."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import bell_state, max_abs
from qcert import (
    Operator,
    SpaceShape,
    SubsetMask,
    all_patterns,
    entanglement_E_projector,
    exhaustive_E,
    ghz_state,
    naive_expectation,
    naive_partial_trace,
    partial_trace,
    random_mixed,
    random_pure,
    w_state,
)

PROFILES = [(2, 3, 2, 3), (2, 2, 3, 3), (6, 6), (4, 9), (2, 2, 2, 2)]


class TestNaivePartialTrace:
    def test_bell_marginal(self):
        out = naive_partial_trace(bell_state().density(), SubsetMask(1, 2))
        assert_allclose(out.entries, np.eye(2) / 2, atol=1e-15)

    def test_w3_reduction_to_pair(self):
        out = naive_partial_trace(
            w_state(3).density(), SubsetMask.from_parties([0, 1], 3)
        )
        expected = np.zeros((4, 4))
        expected[0, 0] = 1 / 3
        expected[1:3, 1:3] = 1 / 3
        assert_allclose(out.entries, expected, atol=1e-15)

    def test_matches_fast_route_on_200_random_inputs(self):
        checked = 0
        seed = 0
        while checked < 200:
            dims = PROFILES[seed % len(PROFILES)]
            shape = SpaceShape(dims)
            rho = random_mixed(shape, 1 + seed % shape.total_dim, seed)
            bits = seed % (1 << len(dims))
            m = SubsetMask(bits, len(dims))
            fast = partial_trace(rho, m)
            slow = naive_partial_trace(rho, m)
            assert max_abs(fast.entries, slow.entries) < 1e-12
            checked += 1
            seed += 1

    def test_dimension_cap(self):
        rho = random_mixed(SpaceShape((3, 3, 3, 3)), 2, 0)
        with pytest.raises(ValueError, match="cap"):
            naive_partial_trace(rho, SubsetMask(1, 4))


class TestNaiveExpectation:
    def test_bell_all_minus(self):
        psi = bell_state()
        amp2 = np.kron(psi.amplitudes, psi.amplitudes)
        pair = Operator(SpaceShape((2, 2, 2, 2)), np.outer(amp2, amp2.conj()))
        assert abs(naive_expectation(pair, SubsetMask(3, 2)) - 0.25) < 1e-12

    def test_odd_patterns_vanish_on_pure_pairs(self):
        psi = random_pure(SpaceShape((2, 3)), 4)
        amp2 = np.kron(psi.amplitudes, psi.amplitudes)
        pair = Operator(SpaceShape((2, 3, 2, 3)), np.outer(amp2, amp2.conj()))
        for pattern in all_patterns(2):
            if pattern.is_odd:
                assert abs(naive_expectation(pair, pattern)) < 1e-12

    def test_pattern_completeness(self):
        rho = random_mixed(SpaceShape((2, 2)), 3, 6)
        pair = Operator(SpaceShape((2, 2, 2, 2)), np.kron(rho.entries, rho.entries))
        total = sum(naive_expectation(pair, p) for p in all_patterns(2))
        assert abs(total - 1.0) < 1e-10

    def test_requires_doubled_shape(self):
        rho = random_mixed(SpaceShape((2, 2, 3)), 2, 1)
        with pytest.raises(ValueError, match="doubled"):
            naive_expectation(rho, SubsetMask(1, 1))


class TestExhaustiveMeasure:
    def test_minted_fixtures(self):
        assert abs(exhaustive_E(bell_state()) - 1.0) < 1e-12
        assert abs(exhaustive_E(ghz_state(4)) - 1.0) < 1e-12
        assert abs(exhaustive_E(w_state(4))) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 2, 2, 2), (2, 3, 2, 3)])
    def test_matches_fast_routes(self, dims):
        for seed in range(3):
            psi = random_pure(SpaceShape(dims), seed)
            assert abs(exhaustive_E(psi) - entanglement_E_projector(psi)) < 1e-10

    def test_rejects_odd_party_count(self):
        with pytest.raises(ValueError, match="odd"):
            exhaustive_E(ghz_state(3))
