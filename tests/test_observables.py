"""Two-copy expectations, checked against the explicit observable of the tests.

``TestPairProjectors`` and ``TestObservable`` check that the conftest builder
is the projector the paper defines, since it is the audit's reference.

``TestKernelBits`` pins the pair-projector kernel's whole output tensor,
values and signs of zero, to ``conftest.full_pass_pair_projectors``, which
makes one full pass over the doubled tensor per party. Fixed shapes,
exact-zero states and a property over random shapes cover every sign pattern.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from numpy.testing import assert_allclose

from conftest import (
    SETTINGS,
    all_patterns,
    bell_state,
    expectation_mixed,
    full_pass_pair_projectors,
    kron,
    naive_expectation,
    observable,
    pair_projector,
    pure_pair,
    purity_via_observables,
    seeds,
    shapes,
    swap_subset_expectation,
)
from qcert import (
    Operator,
    PureState,
    SpaceShape,
    SubsetMask,
    expectation_pure,
    ghz_state,
    normal_stream,
    partial_trace,
    product_state,
    purity,
    random_mixed,
    random_pure,
    w_state,
)
from qcert.observables import _apply_pair_projectors, _doubled_tensor


def assert_same_entries(got: np.ndarray, ref: np.ndarray) -> None:
    """Equal shape and values, and the same sign bit on every real and imaginary part."""
    assert got.shape == ref.shape
    assert np.array_equal(got, ref)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(got)), np.signbit(part(ref)))


def amplitude_pair(dims, seed: int, symmetric: bool):
    """Two complex vectors of length prod(dims), equal when ``symmetric``."""
    d = math.prod(dims)
    z = normal_stream(seed, 4 * d)
    left = z[0 : 2 * d : 2] + 1j * z[1 : 2 * d : 2]
    right = left if symmetric else z[2 * d :: 2] + 1j * z[2 * d + 1 :: 2]
    return left, right


def kernel_output(left, right, dims, pattern) -> np.ndarray:
    tensor = _doubled_tensor(left, right, dims)
    spare = np.full_like(tensor, np.nan)  # a stale entry that reaches the result shows
    work, free = _apply_pair_projectors(tensor, spare, pattern)
    assert {id(work), id(free)} == {id(tensor), id(spare)}
    return work


def full_pass_output(left, right, dims, pattern) -> np.ndarray:
    tensor = _doubled_tensor(left, right, dims)
    return full_pass_pair_projectors(tensor, np.empty_like(tensor), pattern)[0]


def assert_kernel_matches_full_pass(left, right, dims) -> None:
    for pattern in all_patterns(len(dims)):
        ref = full_pass_output(left, right, dims, pattern)
        assert_same_entries(kernel_output(left, right, dims, pattern), ref)


class TestPairProjectors:
    def test_singlet_projector_is_rank_one(self):
        p = pair_projector(2, True)
        singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
        assert abs(np.trace(p) - 1.0) < 1e-12
        assert_allclose(p, np.outer(singlet, singlet), atol=1e-15)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_projector_algebra(self, d):
        plus = pair_projector(d, False)
        minus = pair_projector(d, True)
        assert_allclose(plus + minus, np.eye(d * d), atol=1e-12)
        assert_allclose(plus @ plus, plus, atol=1e-12)
        assert_allclose(minus @ minus, minus, atol=1e-12)
        assert_allclose(plus @ minus, np.zeros((d * d, d * d)), atol=1e-12)
        assert abs(np.trace(minus) - d * (d - 1) / 2) < 1e-12
        assert abs(np.trace(plus) - d * (d + 1) / 2) < 1e-12


class TestObservable:
    def test_single_party_minus_is_singlet_projector(self):
        a = observable(SpaceShape((2,)), SubsetMask(1, 1))
        assert_allclose(a, pair_projector(2, True), atol=1e-15)

    def test_all_plus_fixes_doubled_product_states(self):
        factors = [random_pure(SpaceShape((2,)), s) for s in (1, 2)]
        psi = product_state(factors)
        a = observable(psi.shape, SubsetMask(0, 2))
        phi = np.kron(psi.amplitudes, psi.amplitudes)
        assert_allclose(a @ phi, phi, atol=1e-12)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3)])
    def test_patterns_resolve_identity(self, dims):
        shape = SpaceShape(dims)
        total = sum(observable(shape, p) for p in all_patterns(len(dims)))
        d2 = shape.total_dim ** 2
        assert_allclose(total, np.eye(d2), atol=1e-12)

    # One case per pattern T, so a failure names the pattern.
    @pytest.mark.parametrize(
        "dims, bits",
        [(dims, bits) for dims in [(2, 3), (2, 2, 2)] for bits in range(1 << len(dims))],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"T{v:b}",
    )
    def test_every_pattern_is_a_projector_of_the_paper_rank(self, dims, bits):
        pattern = SubsetMask(bits, len(dims))
        a = observable(SpaceShape(dims), pattern)
        rank = math.prod(
            d * (d - 1) // 2 if pattern.contains(i) else d * (d + 1) // 2
            for i, d in enumerate(dims)
        )
        assert_allclose(a, a.T, rtol=0, atol=1e-12)
        assert_allclose(a @ a, a, rtol=0, atol=1e-12)
        assert abs(np.trace(a) - rank) < 1e-12


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
            pair = pure_pair(psi)
            for pattern in all_patterns(len(dims)):
                fast = expectation_pure(psi, pattern)
                slow = naive_expectation(pair, pattern)
                assert abs(fast - slow) < 1e-10

    def test_pattern_length_checked(self):
        with pytest.raises(ValueError):
            expectation_pure(bell_state(), SubsetMask(1, 1))


# D^2 runs from 4 to 9216.
KERNEL_SHAPES = [
    (2,), (3,), (2, 2), (2, 3), (3, 2, 2), (2, 2, 2, 2), (2, 3, 2, 3),
    (2,) * 6, (2, 2, 3, 2, 2), (3, 2, 2, 2, 2, 2), (2, 2, 2, 3, 2, 2),
]


def zero_holding_states():
    """GHZ, W and a product state: doubled tensors with many exact zeros."""
    return {
        "ghz": ghz_state(6),
        "w": w_state(6),
        "product": product_state([
            PureState(SpaceShape((2,)), np.array([1.0, 0.0])),
            PureState(SpaceShape((3,)), np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)),
            random_pure(SpaceShape((2,)), 4),
            PureState(SpaceShape((2,)), np.array([0.0, 1.0])),
            random_pure(SpaceShape((2, 2)), 5),
        ]),
    }


class TestKernelBits:
    """The kernel's output tensor against the full-pass reference, ``==`` and signs."""

    @pytest.mark.parametrize("symmetric", [True, False], ids=["k=l", "k!=l"])
    @pytest.mark.parametrize(
        "dims, seed",
        [(dims, 41) for dims in KERNEL_SHAPES] + [(dims, 43) for dims in KERNEL_SHAPES[:7]],
        ids=lambda v: "x".join(map(str, v)) if isinstance(v, tuple) else f"seed{v}",
    )
    def test_every_pattern(self, dims, seed, symmetric):
        assert_kernel_matches_full_pass(*amplitude_pair(dims, seed, symmetric), dims)

    @pytest.mark.parametrize("symmetric", [True, False], ids=["k=l", "k!=l"])
    @SETTINGS
    @given(shape=shapes(), seed=seeds)
    def test_every_pattern_on_random_shapes(self, shape, seed, symmetric):
        assert_kernel_matches_full_pass(*amplitude_pair(shape.dims, seed, symmetric), shape.dims)

    @pytest.mark.parametrize("name", ["ghz", "w", "product"])
    def test_exact_zeros(self, name):
        psi = zero_holding_states()[name]
        amp = psi.amplitudes
        assert_kernel_matches_full_pass(amp, amp, psi.shape.dims)

    @pytest.mark.parametrize("bits", [0b111111111, 0b101101011, 0b000000001, 0b100000000])
    def test_nine_qubits(self, bits):
        dims = (2,) * 9
        left, right = amplitude_pair(dims, 47, False)
        pattern = SubsetMask(bits, 9)
        ref = full_pass_output(left, right, dims, pattern)
        assert_same_entries(kernel_output(left, right, dims, pattern), ref)


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
        pair = kron(rho, rho)
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
