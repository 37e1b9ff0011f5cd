"""Sign patterns as party masks against the string patterns they replaced.

A two-copy observable is fixed by the parties that carry the antisymmetric
projector, so a pattern is the ``SubsetMask`` of those parties. Before that,
a pattern was a tuple of '+'/'-' strings, one per party. The reference
functions below are that code's expectation routes. The mask code keeps their
arithmetic operation for operation, so the expectations must match bit for bit.
The pins read the package's ``expectation_pure``, one kernel pass, and the
mixed audit route ``expectation_mixed`` of ``conftest``, which runs the
full-pass reference ``full_pass_pair_projectors`` once per eigenpair.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    SETTINGS,
    all_patterns,
    assert_same_float,
    expectation_mixed,
    seeds,
    shapes,
)
from qcert import (
    Operator,
    PureState,
    SpaceShape,
    SubsetMask,
    expectation_pure,
    ghz_state,
    normal_stream,
    product_state,
    random_mixed,
    random_pure,
    w_state,
)
from qcert.observables import _doubled_tensor

PLUS = "+"
MINUS = "-"


# --- reference: the string-pattern code --------------------------------------

def signs_of(pattern) -> tuple[str, ...]:
    """The '+'/'-' tuple of a mask: '-' for every antisymmetric party."""
    return tuple(MINUS if pattern.contains(i) else PLUS for i in range(pattern.n_parties))


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


# --- tests -------------------------------------------------------------------

def test_patterns_are_the_masks_in_ascending_order():
    patterns = all_patterns(3)
    assert [p.bits for p in patterns] == list(range(8))
    assert all(p.n_parties == 3 for p in patterns)
    assert signs_of(patterns[0b011]) == (MINUS, MINUS, PLUS)


class TestBitEqualToStringPatterns:
    @SETTINGS
    @given(shapes(max_parties=4, max_dim=36), st.integers(1, 6), seeds)
    def test_expectation_mixed(self, shape, rank, seed):
        rho = random_mixed(shape, min(rank, shape.total_dim), seed)
        for pattern in all_patterns(shape.n_parties):
            ref = ref_expectation_mixed(rho, signs_of(pattern))
            assert_same_float(expectation_mixed(rho, pattern), ref)

    @pytest.mark.parametrize("name", ["ghz", "w", "product"])
    def test_expectation_pure_with_exact_zeros(self, name):
        """Doubled tensors holding exact zeros pin the zero signs under one 2^-N scale."""
        psi = {
            "ghz": ghz_state(4),
            "w": w_state(4),
            "product": product_state([
                PureState(SpaceShape((2,)), np.array([1.0, 0.0])),
                PureState(SpaceShape((3,)), np.array([0.0, 1.0, 1.0]) / np.sqrt(2.0)),
                random_pure(SpaceShape((2,)), 4),
                PureState(SpaceShape((2,)), np.array([0.0, 1.0])),
            ]),
        }[name]
        for pattern in all_patterns(psi.shape.n_parties):
            ref = ref_expectation_from_eigs(
                [1.0], psi.amplitudes[:, None], psi.shape.dims, signs_of(pattern)
            )
            assert_same_float(expectation_pure(psi, pattern), ref)


class TestBitEqualAtBenchmarkSizes:
    """The pins above stop at D <= 36; these reach the sizes the benchmark runs."""

    @pytest.mark.parametrize("n, seed", [(8, 3), (9, 5), (10, 7)])
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
        out = np.full((length, length), np.nan + 0j)
        for a, b in [(u, v), (w, w), (u.copy(), v.copy()), (v.copy(), w)]:
            doubled = _doubled_tensor(a, b, (length,))
            assert doubled.shape == (length, length)
            assert doubled.ravel().tobytes() == np.kron(a, b).tobytes()
            into = _doubled_tensor(a, b, (length,), out=out)
            assert into.shape == (length, length)
            assert np.shares_memory(into, out)
            assert out.tobytes() == np.kron(a, b).tobytes()
