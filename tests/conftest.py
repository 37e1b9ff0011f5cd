"""Shared helpers for the test suite."""

from __future__ import annotations

import tracemalloc

import numpy as np

from qcert import PureState, SpaceShape, SubsetMask, normal_stream


def mask(parties, n: int) -> SubsetMask:
    return SubsetMask.from_parties(parties, n)


def bell_state() -> PureState:
    return PureState(SpaceShape((2, 2)), np.array([0, 1, 1, 0]) / np.sqrt(2.0))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar unitary from the package's deterministic normal stream."""
    z = normal_stream(seed, 2 * dim * dim)
    m = (z[0::2] + 1j * z[1::2]).reshape(dim, dim)
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def traced_peak(call, *args):
    """``call(*args)`` and the peak of the bytes traced while it ran.

    A ``ValueError`` is returned, not raised, so a rejected call's peak is read too.
    """
    tracemalloc.start()
    try:
        try:
            result = call(*args)
        except ValueError as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
