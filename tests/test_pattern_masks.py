"""Sign patterns as party masks against the string patterns they replaced.

A two-copy observable is fixed by the parties that carry the antisymmetric
projector, so a pattern is the ``SubsetMask`` of those parties. Before that,
a pattern was a tuple of '+'/'-' strings, one per party. The reference
functions below are that code. The mask code keeps its arithmetic operation
for operation, so the operators and expectations must match bit for bit.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qcert import (
    Operator,
    SpaceShape,
    SubsetMask,
    all_patterns,
    expectation_mixed,
    expectation_pure,
    naive_expectation,
    normal_stream,
    observable,
    random_mixed,
    random_pure,
)
from qcert.hilbert import _permute_matrix_factors
from qcert.observables import _doubled_tensor, swap_matrix

SETTINGS = settings(max_examples=12, deadline=None)

PLUS = "+"
MINUS = "-"


# --- reference: the string-pattern code --------------------------------------

def signs_of(pattern) -> tuple[str, ...]:
    """The '+'/'-' tuple of a mask: '-' for every antisymmetric party."""
    return tuple(MINUS if pattern.contains(i) else PLUS for i in range(pattern.n_parties))


def ref_pair_projector(d: int, sign: str) -> Operator:
    eye = np.eye(d * d)
    swap = swap_matrix(d)
    mat = (eye + swap) / 2.0 if sign == PLUS else (eye - swap) / 2.0
    return Operator(SpaceShape((d, d)), mat)


def ref_observable(shape: SpaceShape, signs) -> Operator:
    mat = np.eye(1)
    interleaved: tuple[int, ...] = ()
    for d, sign in zip(shape.dims, signs):
        mat = np.kron(mat, ref_pair_projector(d, sign).entries)
        interleaved = interleaved + (d, d)
    n = shape.n_parties
    new_from_old = tuple(2 * k for k in range(n)) + tuple(2 * k + 1 for k in range(n))
    mat = _permute_matrix_factors(mat, interleaved, new_from_old)
    return Operator(SpaceShape(shape.dims + shape.dims), mat)


def ref_apply_pair_projectors(tensor: np.ndarray, signs, n: int) -> np.ndarray:
    work = tensor
    for i, s in enumerate(signs):
        swapped = np.swapaxes(work, i, n + i)
        work = 0.5 * (work + swapped) if s == PLUS else 0.5 * (work - swapped)
    return work


def ref_expectation_from_eigs(vals, vecs, dims, signs) -> float:
    n = len(dims)
    total = 0.0
    for k in range(len(vals)):
        for l in range(len(vals)):
            weight = vals[k] * vals[l]
            if weight == 0.0:
                continue
            phi = np.kron(vecs[:, k], vecs[:, l]).reshape(dims + dims)
            work = ref_apply_pair_projectors(phi, signs, n)
            total += weight * float(np.vdot(phi, work).real)
    return total


def ref_expectation_mixed(rho: Operator, signs) -> float:
    m = rho.entries
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    return ref_expectation_from_eigs(vals, vecs, rho.shape.dims, signs)


def ref_naive_expectation(state_pair: Operator, signs) -> float:
    dims = state_pair.shape.dims
    single = SpaceShape(dims[: len(dims) // 2])
    a = ref_observable(single, signs)
    return float(np.trace(a.entries @ state_pair.entries).real)


# --- strategies --------------------------------------------------------------

def shapes(max_dim: int):
    dims = st.lists(st.sampled_from((2, 3)), min_size=1, max_size=4)
    dims = dims.filter(lambda d: math.prod(d) <= max_dim)
    return dims.map(lambda d: SpaceShape(tuple(d)))


seeds = st.integers(0, 2**32 - 1)


def assert_same_float(value: float, ref: float) -> None:
    assert value == ref
    assert math.copysign(1.0, value) == math.copysign(1.0, ref)


# --- tests -------------------------------------------------------------------

def test_patterns_are_the_masks_in_ascending_order():
    patterns = all_patterns(3)
    assert [p.bits for p in patterns] == list(range(8))
    assert all(p.n_parties == 3 for p in patterns)
    assert signs_of(patterns[0b011]) == (MINUS, MINUS, PLUS)


class TestBitEqualToStringPatterns:
    @SETTINGS
    @given(shapes(max_dim=16))
    def test_observable(self, shape):
        for pattern in all_patterns(shape.n_parties):
            entries = observable(shape, pattern).entries
            ref = ref_observable(shape, signs_of(pattern)).entries
            assert entries.tobytes() == ref.tobytes()

    @SETTINGS
    @given(shapes(max_dim=36), st.integers(1, 6), seeds)
    def test_expectation_mixed(self, shape, rank, seed):
        rho = random_mixed(shape, min(rank, shape.total_dim), seed)
        for pattern in all_patterns(shape.n_parties):
            ref = ref_expectation_mixed(rho, signs_of(pattern))
            assert_same_float(expectation_mixed(rho, pattern), ref)

    @SETTINGS
    @given(shapes(max_dim=16), st.integers(1, 4), seeds)
    def test_naive_expectation(self, shape, rank, seed):
        rho = random_mixed(shape, min(rank, shape.total_dim), seed)
        pair = Operator(SpaceShape(shape.dims + shape.dims), np.kron(rho.entries, rho.entries))
        for pattern in all_patterns(shape.n_parties):
            ref = ref_naive_expectation(pair, signs_of(pattern))
            assert_same_float(naive_expectation(pair, pattern), ref)


class TestBitEqualAtBenchmarkSizes:
    """The pins above stop at D <= 36; these reach the sizes the benchmark runs."""

    @pytest.mark.parametrize("n, seed", [(8, 3), (9, 5)])
    def test_expectation_pure(self, n, seed):
        psi = random_pure(SpaceShape((2,) * n), seed)
        for pattern in (psi.shape.full_mask(), SubsetMask(0b1011, n)):
            ref = ref_expectation_from_eigs(
                [1.0], psi.amplitudes[:, None], psi.shape.dims, signs_of(pattern)
            )
            assert_same_float(expectation_pure(psi, pattern), ref)

    def test_expectation_mixed(self):
        rho = random_mixed(SpaceShape((2, 2, 2, 3, 3)), 2, 13)
        pattern = SubsetMask(0b10110, 5)
        ref = ref_expectation_mixed(rho, signs_of(pattern))
        assert_same_float(expectation_mixed(rho, pattern), ref)

    @pytest.mark.parametrize("length", [1, 2, 3, 5, 16, 72, 256, 1024])
    def test_doubled_tensor_is_kron(self, length):
        z = normal_stream(length, 6 * length)
        vecs = (z[0::2] + 1j * z[1::2]).reshape(length, 3)
        u, v, w = (vecs[:, k] for k in range(3))  # strided column views
        for a, b in [(u, v), (w, w), (u.copy(), v.copy()), (v.copy(), w)]:
            doubled = _doubled_tensor(a, b, (length,))
            assert doubled.shape == (length, length)
            assert doubled.ravel().tobytes() == np.kron(a, b).tobytes()
