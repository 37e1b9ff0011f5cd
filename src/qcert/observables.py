"""The two-copy projector's expectation on a pure state, by contraction.

Doubled-space layout is copy-major: all N parties of copy 1 first, then all
N parties of copy 2, so the projector pair for party i acts on tensor factor
positions (i, N+i). The expectation is evaluated by applying the per-party
(I +- SWAP) contractions directly to the doubled vector and scaling its sum
once by 2^-N. No D^2 x D^2 operator is built; the tests hold the one explicit
observable, as an audit route that shares no code with this kernel, and the
mixed two-copy route.

An antisymmetric step writes x - x = +0.0 wherever its party has the same
index on both copies (x is finite: ``PureState`` checks its amplitudes), and
every later step keeps those entries at +0.0, since +0.0 + +0.0 and
+0.0 - +0.0 are +0.0. So the kernel holds only the live region, the entries
where every antisymmetric qubit differs between the copies: D^2 / 2^k entries
for k such qubits. No step reads outside it, since a swap on any other party
keeps each such qubit's pair of indices, and the swap on such a qubit
exchanges its (0,1) and (1,0). So the products are formed on the region
alone, and every entry there gets the same ufunc operations as in a full
pass: it holds the same bits.

The expectation is ``math.fsum`` of Re(conj(phi) w) over the live region, phi
the doubled vector and w the kernel's output. A dropped entry's term is an
exact +0.0, which changes no ``fsum`` (a zero total is +0.0), so this is the
correctly rounded sum over all D^2 entries, whatever the BLAS thread count.

A sign pattern is the ``SubsetMask`` of the parties that carry the
antisymmetric projector (I - SWAP)/2; every other party carries (I + SWAP)/2.
"""

from __future__ import annotations

import math

import numpy as np

from .config import VECTOR_DIM_CAP
from .hilbert import PureState, SpaceShape, SubsetMask, _check_mask


def _shrunk_parties(dims, pattern: SubsetMask) -> tuple[int, ...]:
    """The qubit parties that carry the antisymmetric projector: each halves the live region."""
    return tuple(i for i, d in enumerate(dims) if d == 2 and pattern.contains(i))


def _doubled_tensor(amp_left: np.ndarray, amp_right: np.ndarray, dims, shrunk=()) -> np.ndarray:
    """kron(amp_left, amp_right) shaped dims + dims, on the live region of the ``shrunk`` qubits.

    Each entry is amp_left[x] * amp_right[y], the one multiply np.kron runs for
    vectors. Axis i is party i's copy-1 index; then come the copy-2 axes of the
    parties not in ``shrunk``. A party in ``shrunk`` keeps the anti-diagonal of
    its axis pair alone: at index k of axis i, x_i = k and y_i = 1 - k.
    """
    n = len(dims)
    kept = tuple(i for i in range(n) if i not in shrunk)
    left = amp_left.reshape(dims + (1,) * len(kept))
    right = np.flip(amp_right.reshape(dims), shrunk).transpose(shrunk + kept)
    right = right.reshape(
        tuple(dims[i] if i in shrunk else 1 for i in range(n)) + tuple(dims[i] for i in kept)
    )
    return np.multiply(left, right)


def _apply_pair_projectors(
    amp_left: np.ndarray, amp_right: np.ndarray, dims, pattern: SubsetMask
) -> np.ndarray:
    """Apply (I +- SWAP) for every party to kron(amp_left, amp_right); return the live region.

    The result has the layout of ``_doubled_tensor`` on
    ``_shrunk_parties(dims, pattern)``, where the kernel starts. It is 2^N
    times the pair projectors applied; the caller scales its sum once by
    2^-N. Scaling by a power of two commutes with rounding, so that gives the
    bits of a 0.5 per step unless an intermediate is subnormal (|x| < 2.2e-308).

    On the region, the swap on a party in ``shrunk`` reverses its one axis,
    and the swap on any other party exchanges its two axes. Each step writes
    a new C-contiguous array of the region's size.
    """
    n = len(dims)
    shrunk = _shrunk_parties(dims, pattern)
    work = _doubled_tensor(amp_left, amp_right, dims, shrunk)
    for i in range(n):
        op = np.subtract if pattern.contains(i) else np.add
        if i in shrunk:
            work = op(work, np.flip(work, i), order="C")
        else:
            j = n + i - sum(s < i for s in shrunk)  # party i's copy-2 axis in ``work``
            work = op(work, np.swapaxes(work, i, j), order="C")
    return work


def _doubled_fits(shape: SpaceShape) -> bool:
    """True when the doubled vector, D^2 entries, stays within the state cap."""
    return shape.total_dim**2 <= VECTOR_DIM_CAP


def expectation_pure(psi: PureState, pattern: SubsetMask) -> float:
    """<psi x psi| A_pattern |psi x psi>, one kernel pass over the live region."""
    _check_mask(psi.shape, pattern)
    if not _doubled_fits(psi.shape):
        d = psi.shape.total_dim
        raise ValueError(
            f"doubled vector of length {d * d} exceeds the state cap {VECTOR_DIM_CAP}"
        )
    amp, dims = psi.amplitudes, psi.shape.dims
    work = _apply_pair_projectors(amp, amp, dims, pattern)
    # Formed after the kernel, so that no more than two region-sized arrays are alive at once.
    phi = _doubled_tensor(amp, amp, dims, _shrunk_parties(dims, pattern))
    terms = phi.real
    np.multiply(terms, work.real, out=terms)
    np.multiply(phi.imag, work.imag, out=phi.imag)
    np.add(terms, phi.imag, out=terms)
    # ``phi`` fills one block in some axis order, so this flat view of ``terms`` copies nothing.
    return math.fsum(memoryview(phi.ravel("K").real)) * 0.5 ** len(dims)
