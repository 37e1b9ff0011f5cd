"""Pair projectors, factorizable observables, and swap-trick expectations."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import bell_state
from qcert import (
    Operator,
    SpaceShape,
    SubsetMask,
    all_patterns,
    expectation_mixed,
    expectation_pure,
    naive_expectation,
    observable,
    pair_projector,
    partial_trace,
    product_state,
    purity,
    purity_via_observables,
    random_mixed,
    random_pure,
    swap_subset_expectation,
)


def doubled_pure(psi) -> Operator:
    amp2 = np.kron(psi.amplitudes, psi.amplitudes)
    return Operator(
        SpaceShape(psi.shape.dims + psi.shape.dims), np.outer(amp2, amp2.conj())
    )


def doubled_mixed(rho) -> Operator:
    return Operator(
        SpaceShape(rho.shape.dims + rho.shape.dims), np.kron(rho.entries, rho.entries)
    )


class TestPairProjectors:
    def test_singlet_projector_is_rank_one(self):
        p = pair_projector(2, True)
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert abs(np.trace(p.entries) - 1.0) < 1e-12
        assert_allclose(p.entries, np.outer(singlet, singlet), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_projector_algebra(self, d):
        plus = pair_projector(d, False).entries
        minus = pair_projector(d, True).entries
        assert_allclose(plus + minus, np.eye(d * d), atol=1e-12)
        assert_allclose(plus @ plus, plus, atol=1e-12)
        assert_allclose(minus @ minus, minus, atol=1e-12)
        assert_allclose(plus @ minus, np.zeros((d * d, d * d)), atol=1e-12)
        assert abs(np.trace(minus) - d * (d - 1) / 2) < 1e-12
        assert abs(np.trace(plus) - d * (d + 1) / 2) < 1e-12


class TestObservable:
    def test_single_party_minus_is_singlet_projector(self):
        a = observable(SpaceShape((2,)), SubsetMask(1, 1))
        assert_allclose(a.entries, pair_projector(2, True).entries, atol=1e-15)

    def test_all_plus_fixes_doubled_product_states(self):
        factors = [random_pure(SpaceShape((2,)), s) for s in (1, 2)]
        psi = product_state(factors)
        a = observable(psi.shape, SubsetMask(0, 2))
        phi = np.kron(psi.amplitudes, psi.amplitudes)
        assert_allclose(a.entries @ phi, phi, atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_patterns_resolve_identity(self, dims):
        shape = SpaceShape(dims)
        total = sum(observable(shape, p).entries for p in all_patterns(len(dims)))
        d2 = shape.total_dim ** 2
        assert_allclose(total, np.eye(d2), atol=1e-12)


class TestExpectationPure:
    def test_bell_all_minus(self):
        # Oracle-minted from the materialized observable: 1/4.
        val = expectation_pure(bell_state(), SubsetMask(3, 2))
        assert abs(val - 0.25) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (2, 2, 2)])
    def test_odd_antisymmetric_patterns_vanish(self, dims):
        psi = random_pure(SpaceShape(dims), 11)
        for pattern in all_patterns(len(dims)):
            if pattern.is_odd:
                assert abs(expectation_pure(psi, pattern)) < 1e-12

    def test_product_state_all_minus_vanishes(self):
        psi = product_state([random_pure(SpaceShape((2,)), s) for s in range(3)])
        assert abs(expectation_pure(psi, SubsetMask(7, 3))) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3, 2)])
    def test_pattern_completeness(self, dims):
        psi = random_pure(SpaceShape(dims), 17)
        total = sum(expectation_pure(psi, p) for p in all_patterns(len(dims)))
        assert abs(total - 1.0) < 1e-10

    def test_agrees_with_materialized_oracle(self):
        for dims in [(2, 2), (2, 3), (2, 2, 2)]:
            psi = random_pure(SpaceShape(dims), 23)
            pair = doubled_pure(psi)
            for pattern in all_patterns(len(dims)):
                fast = expectation_pure(psi, pattern)
                slow = naive_expectation(pair, pattern)
                assert abs(fast - slow) < 1e-10

    def test_pattern_length_checked(self):
        with pytest.raises(ValueError):
            expectation_pure(bell_state(), SubsetMask(1, 1))


class TestKernelMemory:
    def test_peak_is_under_two_and_a_half_doubled_buffers(self):
        psi = random_pure(SpaceShape((2,) * 8), 7)
        full = psi.shape.full_mask()
        expectation_pure(psi, full)  # keeps one-time allocations out of the peak
        tracemalloc.start()
        try:
            expectation_pure(psi, full)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        doubled_buffer = 16 * psi.shape.total_dim**2
        assert peak < 2.5 * doubled_buffer


class TestExpectationMixed:
    def test_maximally_mixed_qubit_minus(self):
        rho = Operator(SpaceShape((2,)), np.eye(2) / 2)
        assert abs(expectation_mixed(rho, SubsetMask(1, 1)) - 0.25) < 1e-12

    def test_pure_density_odd_pattern_vanishes(self):
        rho = random_pure(SpaceShape((2, 2)), 3).density()
        assert abs(expectation_mixed(rho, SubsetMask(1, 2))) < 1e-12

    def test_pattern_completeness(self):
        rho = random_mixed(SpaceShape((2, 3)), 4, 5)
        total = sum(expectation_mixed(rho, p) for p in all_patterns(2))
        assert abs(total - 1.0) < 1e-10

    def test_agrees_with_materialized_oracle(self):
        rho = random_mixed(SpaceShape((2, 2)), 3, 9)
        pair = doubled_mixed(rho)
        for pattern in all_patterns(2):
            fast = expectation_mixed(rho, pattern)
            slow = naive_expectation(pair, pattern)
            assert abs(fast - slow) < 1e-10


class TestPurityViaObservables:
    def test_known_diagonal(self):
        rho = Operator(SpaceShape((2,)), np.diag([2 / 3, 1 / 3]))
        assert abs(purity_via_observables(rho) - 5 / 9) < 1e-12

    @pytest.mark.parametrize("d", [2, 3])
    def test_maximally_mixed(self, d):
        rho = Operator(SpaceShape((d,)), np.eye(d) / d)
        assert abs(purity_via_observables(rho) - 1 / d) < 1e-12

    @pytest.mark.parametrize("dims,rank", [((2, 2), 4), ((2, 3), 5), ((2, 2, 2), 6)])
    def test_cross_route_against_direct_purity(self, dims, rank):
        rho = random_mixed(SpaceShape(dims), rank, 13)
        assert abs(purity_via_observables(rho) - purity(rho)) < 1e-9


class TestSwapSubsetExpectation:
    def test_empty_subset_is_one(self):
        psi = random_pure(SpaceShape((2, 2)), 1)
        assert abs(swap_subset_expectation(psi, SubsetMask(0, 2)) - 1.0) < 1e-12

    def test_full_subset_is_global_purity(self):
        psi = random_pure(SpaceShape((2, 3)), 2)
        assert abs(swap_subset_expectation(psi, SubsetMask(3, 2)) - 1.0) < 1e-12

    def test_bell_single_party(self):
        assert abs(swap_subset_expectation(bell_state(), SubsetMask(1, 2)) - 0.5) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2)])
    def test_matches_marginal_purity(self, dims):
        psi = random_pure(SpaceShape(dims), 31)
        rho = psi.density()
        for bits in range(1 << len(dims)):
            m = SubsetMask(bits, len(dims))
            swap = swap_subset_expectation(psi, m)
            direct = purity(partial_trace(rho, m))
            assert abs(swap - direct) < 1e-10
