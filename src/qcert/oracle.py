"""The slow, independent audit route that ``qcert measure --route oracle`` runs.

``exhaustive_E`` evaluates the measure by literal bipartition enumeration and
deliberately avoids the reshaping and contraction tricks used elsewhere:
partial traces run as explicit nested index loops and purities as explicit
double sums. It ships with the package, unlike the audit helpers kept with
the tests, so a value can be audited from the command line.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .config import ODD_N_ERROR
from .hilbert import PureState, SpaceShape

EXHAUSTIVE_MAX_PARTIES = 8
EXHAUSTIVE_MAX_DIM = 256


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


def _naive_purity(matrix: np.ndarray) -> float:
    d = matrix.shape[0]
    acc = 0j
    for i in range(d):
        for j in range(d):
            acc += matrix[i, j] * matrix[j, i]
    return float(acc.real)


def exhaustive_fits(shape: SpaceShape) -> bool:
    """True when ``exhaustive_E`` accepts ``shape``: an even N and D up to EXHAUSTIVE_MAX_DIM.

    The dimension cap bounds the D x D density it forms and its Python loops.
    Every party has d >= 2, so D >= 2^N and D <= 256 already means N <= 8 =
    EXHAUSTIVE_MAX_PARTIES; the party cap is named only in the error message.
    """
    return shape.n_parties % 2 == 0 and shape.total_dim <= EXHAUSTIVE_MAX_DIM


def exhaustive_E(psi: PureState) -> float:
    """The measure by literal bipartition enumeration from scratch marginals."""
    n = psi.shape.n_parties
    if n % 2 == 1:
        raise ValueError(ODD_N_ERROR)
    if not exhaustive_fits(psi.shape):
        raise ValueError(
            f"exhaustive route is capped at {EXHAUSTIVE_MAX_PARTIES} parties "
            f"and dimension {EXHAUSTIVE_MAX_DIM}"
        )
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
