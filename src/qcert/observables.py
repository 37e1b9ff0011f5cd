"""The two-copy projector's expectation on a pure state, by contraction.

Doubled-space layout is copy-major: all N parties of copy 1 first, then all
N parties of copy 2, so the projector pair for party i acts on tensor factor
positions (i, N+i). The expectation is evaluated by applying the per-party
(I +- SWAP) contractions directly to the doubled vector, in place between two
buffers of D^2 entries, and scaling the result once by 2^-N. No D^2 x D^2
operator is built; the tests hold the one explicit observable, as an audit
route that shares no code with this kernel, and the mixed two-copy route.

A sign pattern is the ``SubsetMask`` of the parties that carry the
antisymmetric projector (I - SWAP)/2; every other party carries (I + SWAP)/2.
"""

from __future__ import annotations

import numpy as np

from .config import VECTOR_DIM_CAP
from .hilbert import PureState, SpaceShape, SubsetMask, _check_mask


def _doubled_tensor(amp_left: np.ndarray, amp_right: np.ndarray, dims) -> np.ndarray:
    """kron(amp_left, amp_right) shaped dims + dims: the one multiply np.kron runs for vectors."""
    return (amp_left[:, None] * amp_right[None, :]).reshape(dims + dims)


def _apply_pair_projectors(tensor: np.ndarray, pattern: SubsetMask) -> np.ndarray:
    """Apply (I +- SWAP) for every party; ``tensor`` is overwritten.

    Each step is work -+ swapped, written into the other of two buffers,
    ``tensor`` and one spare, so the returned array is one of them. The result
    is 2^N times the pair projectors applied; the caller scales its sum once
    by 2^-N. Scaling by a power of two commutes with rounding, so that gives
    the bits of a 0.5 per step unless an intermediate is subnormal
    (|x| < 2.2e-308).
    """
    n = pattern.n_parties
    work, spare = tensor, np.empty_like(tensor)
    for i in range(n):
        op = np.subtract if pattern.contains(i) else np.add
        op(work, np.swapaxes(work, i, n + i), out=spare)
        work, spare = spare, work
    return work


def _doubled_fits(shape: SpaceShape) -> bool:
    """True when the doubled vector, D^2 entries, stays within the state cap."""
    return shape.total_dim**2 <= VECTOR_DIM_CAP


def expectation_pure(psi: PureState, pattern: SubsetMask) -> float:
    """<psi x psi| A_pattern |psi x psi>, one kernel pass over the doubled vector."""
    _check_mask(psi.shape, pattern)
    if not _doubled_fits(psi.shape):
        d = psi.shape.total_dim
        raise ValueError(
            f"doubled vector of length {d * d} exceeds the state cap {VECTOR_DIM_CAP}"
        )
    amp, dims = psi.amplitudes, psi.shape.dims
    # The kernel overwrites its input, so phi is built again for the vdot.
    work = _apply_pair_projectors(_doubled_tensor(amp, amp, dims), pattern)
    phi = _doubled_tensor(amp, amp, dims)
    return float(np.vdot(phi, work).real) * 0.5 ** len(dims)
