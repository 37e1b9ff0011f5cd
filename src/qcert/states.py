"""Named multipartite states and seeded samplers.

Sampling is reproducible across platforms and languages: see
``normal_stream`` for the documented generator construction. Samplers take
explicit seeds, so concurrent sampling is race-free by construction.
"""

from __future__ import annotations

import math

import numpy as np

from .config import VECTOR_DIM_CAP
from .hilbert import Operator, PureState, SpaceShape, _index, _operator_side


def _qubits(n: int) -> SpaceShape:
    return SpaceShape((2,) * n)


def w_state(n: int) -> PureState:
    """(|0...01> + |0...010> + ... + |10...0>)/sqrt(n) on n qubits."""
    if n < 2:
        raise ValueError("w_state needs at least 2 parties")
    shape = _qubits(n)
    amp = np.zeros(1 << n, dtype=complex)
    amp[[1 << k for k in range(n)]] = 1.0 / math.sqrt(n)
    return PureState(shape, amp)


def ghz_state(n: int) -> PureState:
    """(|0...0> + |1...1>)/sqrt(2) on n qubits."""
    if n < 2:
        raise ValueError("ghz_state needs at least 2 parties")
    shape = _qubits(n)
    amp = np.zeros(1 << n, dtype=complex)
    amp[0] = amp[-1] = 1.0 / math.sqrt(2.0)
    return PureState(shape, amp)


def product_state(factors) -> PureState:
    """Tensor product of pure states on the concatenated shape."""
    factors = list(factors)
    if not factors:
        raise ValueError("product_state needs at least one factor")
    shape = SpaceShape(tuple(d for f in factors for d in f.shape.dims))
    amp = np.ones(1, dtype=complex)
    for f in factors:
        amp = np.kron(amp, f.amplitudes)
    return PureState(shape, amp)


def normal_stream(seed: int, count: int) -> np.ndarray:
    """``count`` standard normals from a counter-based generator.

    Construction (reproducible in any language with a Philox implementation):
    the Philox4x64-10 generator is keyed directly with ``seed``; each raw
    64-bit word r becomes a uniform u = ((r >> 11) + 1) * 2**-53 in (0, 1];
    consecutive uniform pairs map through Box-Muller,
    z0 = sqrt(-2 ln u1) cos(2 pi u2) and z1 = sqrt(-2 ln u1) sin(2 pi u2).
    The seed is an integer in [0, 2**128), the Philox key range.
    """
    if isinstance(seed, bool) or not isinstance(seed, int) or not 0 <= seed < 2**128:
        raise ValueError(f"seed must be an integer in [0, 2**128), got {seed!r}")
    if count < 0:
        raise ValueError("count must be nonnegative")
    pairs = (count + 1) // 2
    if pairs == 0:
        return np.empty(0)
    raw = np.random.Philox(key=seed).random_raw(2 * pairs)
    u = ((raw >> np.uint64(11)) + np.uint64(1)) * 2.0**-53
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = 2.0 * np.pi * u[1::2]
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:count]


def random_pure(shape: SpaceShape, seed: int) -> PureState:
    """Haar-distributed pure state: normalized i.i.d. complex Gaussians."""
    d = shape.total_dim
    z = normal_stream(seed, 2 * d)
    amp = z[0::2] + 1j * z[1::2]
    amp /= np.linalg.norm(amp)
    return PureState(shape, amp)


def random_mixed(shape: SpaceShape, rank: int, seed: int) -> Operator:
    """Density matrix from tracing a rank-dimensional ancilla off a random pure state.

    D is capped first; rank runs over 1..min(D, VECTOR_DIM_CAP // D), the D * rank
    amplitudes of the purification being within the state cap.
    """
    d = _operator_side(shape.dims)
    rank = _index(rank)
    top = min(d, VECTOR_DIM_CAP // d)
    if not 1 <= rank <= top:
        raise ValueError(f"rank must be in 1..{top}, got {rank}")
    if rank == 1:
        return random_pure(shape, seed).density()
    ext = SpaceShape(shape.dims + (rank,))
    psi = random_pure(ext, seed)
    m = psi.amplitudes.reshape(d, rank)
    return Operator(shape, m @ m.conj().T)
