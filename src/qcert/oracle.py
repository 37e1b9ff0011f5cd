"""Slow, independent reference implementations.

These paths exist to mint expected values and to cross-validate the fast
routes, so they deliberately avoid the reshaping and contraction tricks used
elsewhere: partial traces run as explicit nested index loops, purities as
explicit double sums, and two-copy expectations through fully materialized
observables. They are part of the library (not test-only code) so results
can be audited from the command line.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .hilbert import Operator, PureState, SpaceShape, SubsetMask, _check_mask
from .measures import ODD_N_ERROR
from .observables import observable

NAIVE_TRACE_MAX_DIM = 64
NAIVE_EXPECTATION_MAX_DIM = 256
EXHAUSTIVE_MAX_PARTIES = 8


def _flat_index(multi, dims) -> int:
    flat = 0
    for i, d in zip(multi, dims):
        flat = flat * d + i
    return flat


def _naive_partial_trace_core(matrix: np.ndarray, dims, keep_parties) -> np.ndarray:
    n = len(dims)
    keep = list(keep_parties)
    traced = [p for p in range(n) if p not in keep]
    kept_dims = [dims[p] for p in keep]
    traced_dims = [dims[p] for p in traced]
    d_keep = math.prod(kept_dims) if kept_dims else 1
    out = np.zeros((d_keep, d_keep), dtype=complex)
    kept_indices = list(itertools.product(*[range(d) for d in kept_dims]))
    traced_indices = list(itertools.product(*[range(d) for d in traced_dims]))
    for r, a in enumerate(kept_indices):
        for c, b in enumerate(kept_indices):
            acc = 0j
            for t in traced_indices:
                row = [0] * n
                col = [0] * n
                for pos, p in enumerate(keep):
                    row[p] = a[pos]
                    col[p] = b[pos]
                for pos, p in enumerate(traced):
                    row[p] = t[pos]
                    col[p] = t[pos]
                acc += matrix[_flat_index(row, dims), _flat_index(col, dims)]
            out[r, c] = acc
    return out


def naive_partial_trace(rho: Operator, keep: SubsetMask) -> Operator:
    """Partial trace by explicit nested loops over multi-indices."""
    _check_mask(rho.shape, keep)
    if rho.shape.total_dim > NAIVE_TRACE_MAX_DIM:
        raise ValueError(
            f"naive partial trace is capped at dimension {NAIVE_TRACE_MAX_DIM}"
        )
    reduced = _naive_partial_trace_core(rho.entries, rho.shape.dims, keep.parties)
    sub = rho.shape.subshape(keep) if not keep.is_empty else SpaceShape(())
    return Operator(sub, reduced)


def _naive_purity(matrix: np.ndarray) -> float:
    d = matrix.shape[0]
    acc = 0j
    for i in range(d):
        for j in range(d):
            acc += matrix[i, j] * matrix[j, i]
    return float(acc.real)


def naive_expectation(state_pair: Operator, pattern: SubsetMask) -> float:
    """Tr(A_pattern M) with the observable fully materialized.

    ``state_pair`` lives on the doubled space (two copies of some single-copy
    shape, copy-major), e.g. rho x rho or the projector onto psi x psi.
    """
    dims = state_pair.shape.dims
    if len(dims) % 2 != 0 or dims[: len(dims) // 2] != dims[len(dims) // 2 :]:
        raise ValueError("state_pair must live on a doubled shape (dims repeated)")
    if state_pair.shape.total_dim > NAIVE_EXPECTATION_MAX_DIM:
        raise ValueError(
            f"naive expectation is capped at doubled dimension {NAIVE_EXPECTATION_MAX_DIM}"
        )
    single = SpaceShape(dims[: len(dims) // 2])
    a = observable(single, pattern)
    return float(np.trace(a.entries @ state_pair.entries).real)


def exhaustive_E(psi: PureState) -> float:
    """The measure by literal bipartition enumeration from scratch marginals."""
    n = psi.shape.n_parties
    if n % 2 == 1:
        raise ValueError(ODD_N_ERROR)
    if n > EXHAUSTIVE_MAX_PARTIES:
        raise ValueError(f"exhaustive route is capped at {EXHAUSTIVE_MAX_PARTIES} parties")
    dims = psi.shape.dims
    density = np.outer(psi.amplitudes, psi.amplitudes.conj())
    s_global = 1.0 - _naive_purity(density)
    full = (1 << n) - 1
    total = 0.0
    for bits in range(1, full):
        if not bits & 1:
            continue  # unordered partitions: keep the block holding party 0
        block = [p for p in range(n) if bits >> p & 1]
        rest = [p for p in range(n) if not bits >> p & 1]
        s_a = 1.0 - _naive_purity(_naive_partial_trace_core(density, dims, block))
        s_b = 1.0 - _naive_purity(_naive_partial_trace_core(density, dims, rest))
        s = s_a + s_b - s_global
        total += s if len(block) % 2 == 1 else -s
    return total
