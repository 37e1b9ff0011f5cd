"""Two-copy projector observables and swap-trick expectation values.

Doubled-space layout is copy-major: all N parties of copy 1 first, then all
N parties of copy 2, so the projector pair for party i acts on tensor factor
positions (i, N+i). Expectations on states are evaluated by applying the
per-party (I +- SWAP)/2 contractions directly to the doubled vector, in place
between two buffers of D^2 entries; explicit doubled operators exist only for
small systems and for auditing.

A sign pattern is the ``SubsetMask`` of the parties that carry the
antisymmetric projector (I - SWAP)/2; every other party carries (I + SWAP)/2.
"""

from __future__ import annotations

import numpy as np

from .config import VECTOR_DIM_CAP
from .hilbert import (
    Operator,
    PureState,
    SpaceShape,
    SubsetMask,
    _check_mask,
    _operator_side,
    _permute_matrix_factors,
)


def all_patterns(n: int) -> list[SubsetMask]:
    """All 2^n sign patterns, each the mask of its antisymmetric parties, ascending."""
    return [SubsetMask(bits, n) for bits in range(1 << n)]


def swap_matrix(d: int) -> np.ndarray:
    """SWAP on the d x d pair space: |i,j> -> |j,i>."""
    idx = np.arange(d * d)
    s = np.zeros((d * d, d * d))
    s[(idx % d) * d + idx // d, idx] = 1.0
    return s


def pair_projector(d: int, antisymmetric: bool) -> Operator:
    """(I - SWAP)/2 when ``antisymmetric``, else (I + SWAP)/2, on two copies of C^d."""
    if d < 2:
        raise ValueError("pair_projector needs dimension >= 2")
    shape = SpaceShape((d, d))
    eye = np.eye(_operator_side(shape))
    swap = swap_matrix(d)
    mat = (eye - swap) / 2.0 if antisymmetric else (eye + swap) / 2.0
    return Operator(shape, mat)


def observable(shape: SpaceShape, pattern: SubsetMask) -> Operator:
    """Explicit tensor product of per-party pair projectors on the doubled space.

    The result acts on the copy-major layout (all parties of copy 1, then all
    of copy 2). Its side D^2 must be within ``OPERATOR_DIM_CAP`` (D <= 64), checked
    before any matrix is built; larger systems use the contraction routes.
    """
    _check_mask(shape, pattern)
    doubled = SpaceShape(shape.dims + shape.dims)
    _operator_side(doubled)
    mat = np.eye(1)
    interleaved: tuple[int, ...] = ()
    for i, d in enumerate(shape.dims):
        mat = np.kron(mat, pair_projector(d, pattern.contains(i)).entries)
        interleaved = interleaved + (d, d)
    n = shape.n_parties
    # Built factor order is (0c1, 0c2, 1c1, 1c2, ...); reorder to copy-major.
    new_from_old = tuple(2 * k for k in range(n)) + tuple(2 * k + 1 for k in range(n))
    mat = _permute_matrix_factors(mat, interleaved, new_from_old)
    return Operator(doubled, mat)


def _doubled_tensor(amp_left: np.ndarray, amp_right: np.ndarray, dims) -> np.ndarray:
    """kron(amp_left, amp_right) shaped dims + dims: the one multiply np.kron runs for vectors."""
    return (amp_left[:, None] * amp_right[None, :]).reshape(dims + dims)


def _apply_pair_projectors(tensor: np.ndarray, pattern: SubsetMask) -> np.ndarray:
    """Apply every party's pair projector; ``tensor`` is overwritten.

    Each step is 0.5 * (work -+ swapped), written into the other of two
    buffers, ``tensor`` and one spare, so the returned array is one of them.
    """
    n = pattern.n_parties
    work, spare = tensor, np.empty_like(tensor)
    for i in range(n):
        op = np.subtract if pattern.contains(i) else np.add
        op(work, np.swapaxes(work, i, n + i), out=spare)
        np.multiply(0.5, spare, out=spare)
        work, spare = spare, work
    return work


def _doubled_fits(shape: SpaceShape) -> bool:
    """True when the doubled vector, D^2 entries, stays within the state cap."""
    return shape.total_dim**2 <= VECTOR_DIM_CAP


def _check_doubled_cap(shape: SpaceShape) -> None:
    d = shape.total_dim
    if not _doubled_fits(shape):
        raise ValueError(
            f"doubled vector of length {d * d} exceeds the state cap {VECTOR_DIM_CAP}"
        )


def expectation_pure(psi: PureState, pattern: SubsetMask) -> float:
    """<psi x psi| A_pattern |psi x psi>: the mixed route with the one eigenpair (1, psi)."""
    _check_mask(psi.shape, pattern)
    _check_doubled_cap(psi.shape)
    return _expectation_from_eigs([1.0], psi.amplitudes[:, None], psi.shape.dims, pattern)


def _expectation_from_eigs(vals, vecs, dims, pattern: SubsetMask) -> float:
    total = 0.0
    for k in range(len(vals)):
        for l in range(len(vals)):
            weight = vals[k] * vals[l]
            if weight == 0.0:
                continue
            # The kernel overwrites its input, so phi is built again for the vdot.
            work = _apply_pair_projectors(_doubled_tensor(vecs[:, k], vecs[:, l], dims), pattern)
            phi = _doubled_tensor(vecs[:, k], vecs[:, l], dims)
            total += weight * float(np.vdot(phi, work).real)
    return total


def expectation_mixed(rho: Operator, pattern: SubsetMask) -> float:
    """Tr(A_pattern rho x rho) via the eigendecomposition of rho.

    Reduces to pure-pair contractions sum_kl lam_k lam_l <k,l|A|k,l>, avoiding
    any D^2 x D^2 matrix.
    """
    _check_mask(rho.shape, pattern)
    _check_doubled_cap(rho.shape)
    m = rho.entries
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    return _expectation_from_eigs(vals, vecs, rho.shape.dims, pattern)


def purity_via_observables(rho: Operator) -> float:
    """Tr rho^2 recovered as 1 - 2 * sum of odd-antisymmetric expectations.

    Each term is ``expectation_mixed`` of one odd pattern, added in ascending
    mask order: the mixed two-copy route, with no kernel of its own.
    """
    total = 0.0
    for pattern in all_patterns(rho.shape.n_parties):
        if pattern.is_odd:
            total += expectation_mixed(rho, pattern)
    return 1.0 - 2.0 * total


def swap_subset_expectation(psi: PureState, subset: SubsetMask) -> float:
    """<psi x psi| SWAP_A |psi x psi>, i.e. the purity of the A-marginal."""
    _check_mask(psi.shape, subset)
    _check_doubled_cap(psi.shape)
    dims = psi.shape.dims
    n = len(dims)
    phi = _doubled_tensor(psi.amplitudes, psi.amplitudes, dims)
    work = phi
    for p in subset.parties:
        work = np.swapaxes(work, p, n + p)
    return float(np.vdot(phi, work).real)
