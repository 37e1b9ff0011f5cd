"""The two-copy projector's expectation on a pure state, by contraction.

Doubled-space layout is copy-major: all N parties of copy 1 first, then all
N parties of copy 2, so the projector pair for party i acts on tensor factor
positions (i, N+i). The expectation is evaluated by applying the per-party
(I +- SWAP) contractions directly to the doubled vector, between two buffers
of D^2 entries, and scaling the result once by 2^-N. No D^2 x D^2 operator is
built; the tests hold the one explicit observable, as an audit route that
shares no code with this kernel, and the mixed two-copy route.

An antisymmetric step writes x - x = +0.0 wherever its party has the same
index on both copies (x is finite: ``PureState`` checks its amplitudes), and
every later step keeps those entries at +0.0, since +0.0 + +0.0 and
+0.0 - +0.0 are +0.0. So an antisymmetric step on a qubit runs only on the
live region, the entries where that qubit differs between the copies, and
writes +0.0 on the entries it drops: each such step halves the region. Every
entry in the region gets the same ufunc operation as in a full pass, so the
output is the same to the bit. Shrinking the region has a fixed cost and
makes the later steps strided, so it stops once the region is small
(``SHRINK_MIN_ENTRIES``).

A sign pattern is the ``SubsetMask`` of the parties that carry the
antisymmetric projector (I - SWAP)/2; every other party carries (I + SWAP)/2.
"""

from __future__ import annotations

import numpy as np

from .config import VECTOR_DIM_CAP
from .hilbert import PureState, SpaceShape, SubsetMask, _check_mask

# The live region shrinks only while it holds at least this many entries. A
# shrink builds three strided views, a few microseconds, and the steps after
# it run on a strided region, which costs more per entry than a contiguous
# pass. Full-pattern calls on a 2-vCPU Xeon (numpy 2.4): with this bound, 7, 8
# and 10 qubits took 0.33, 1.35 and 13.7 ms against 0.44, 2.34 and 38 ms
# without shrinking; a bound of 2^10 also shrinks 5 qubits and dims (2,3,2,3),
# 0.040 against 0.033 ms for either.
SHRINK_MIN_ENTRIES = 1 << 11


def _doubled_tensor(amp_left: np.ndarray, amp_right: np.ndarray, dims, out=None) -> np.ndarray:
    """kron(amp_left, amp_right) shaped dims + dims: the one multiply np.kron runs for vectors.

    With ``out``, a C-contiguous array of D^2 entries, the product is written there.
    """
    grid = None if out is None else out.reshape(len(amp_left), len(amp_right))
    return np.multiply(amp_left[:, None], amp_right[None, :], out=grid).reshape(dims + dims)


def _apply_pair_projectors(
    tensor: np.ndarray, spare: np.ndarray, pattern: SubsetMask
) -> tuple[np.ndarray, np.ndarray]:
    """Apply (I +- SWAP) for every party; return (result, other buffer).

    ``tensor`` holds the doubled tensor, and ``spare`` is a C-contiguous buffer
    of its shape and dtype whose contents are ignored. Each step is
    work -+ swapped, written into the other buffer; both are overwritten, and
    the result is one of them. It is 2^N times the pair projectors applied;
    the caller scales its sum once by 2^-N. Scaling by a power of two commutes
    with rounding, so that gives the bits of a 0.5 per step unless an
    intermediate is subnormal (|x| < 2.2e-308).

    Each step runs on the live region, one strided view of each buffer with
    the same shape, strides and byte offset. An antisymmetric step on a qubit
    party over a region of ``SHRINK_MIN_ENTRIES`` or more first shrinks it:
    the party's axis pair becomes its anti-diagonal (0,1), (1,0), one axis of
    stride s_x - s_y, so the party's copy-2 axis leaves the view and the
    swapped operand is that axis reversed. On the diagonal it drops, a full
    pass writes x - x = +0.0; the buffer that ends as the result gets that
    +0.0 written there instead, and no later step touches it. So the result
    holds the bits of a full pass; the other buffer's contents are not part
    of it. Qudit parties and symmetric steps keep their full step on the
    region.
    """
    n = pattern.n_parties
    dims = tensor.shape[:n]
    src, dst = tensor, spare
    live_src, live_dst = tensor, spare
    offset, shrunk = 0, 0
    for i in range(n):
        j = n + i - shrunk  # party i's copy-2 axis in the live views
        minus = pattern.contains(i)
        op = np.subtract if minus else np.add
        if minus and dims[i] == 2 and live_src.size >= SHRINK_MIN_ENTRIES:
            shape = live_src.shape[:j] + live_src.shape[j + 1 :]
            strides = list(live_src.strides)
            s_y = strides.pop(j)
            s_x = strides[i]
            # Step n - 1 writes the result, so step i reads it when n - i is even.
            result = src if (n - i) % 2 == 0 else dst
            strides[i] = s_x + s_y
            np.ndarray(shape, result.dtype, result, offset, strides)[...] = 0
            strides[i] = s_x - s_y
            offset += s_y
            live_src = np.ndarray(shape, src.dtype, src, offset, strides)
            live_dst = np.ndarray(shape, dst.dtype, dst, offset, strides)
            op(live_src, np.flip(live_src, i), out=live_dst)
            shrunk += 1
        else:
            op(live_src, np.swapaxes(live_src, i, j), out=live_dst)
        src, dst = dst, src
        live_src, live_dst = live_dst, live_src
    return src, dst


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
    tensor = _doubled_tensor(amp, amp, dims)
    work, free = _apply_pair_projectors(tensor, np.empty_like(tensor), pattern)
    phi = _doubled_tensor(amp, amp, dims, out=free)
    return float(np.vdot(phi, work).real) * 0.5 ** len(dims)
