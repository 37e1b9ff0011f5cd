"""Dense complex operator algebra over composite Hilbert spaces.

Index convention, fixed package-wide: party 0 occupies the most significant
index block, so the basis label (i_0, ..., i_{N-1}) maps to the flat index
((i_0 * d_1 + i_1) * d_2 + ...) * d_{N-1} + i_{N-1}. This is exactly numpy's
C-order reshape, and it makes ``tensor`` coincide with ``numpy.kron`` with the
first argument's parties in front.

All types are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to call concurrently.
Reductions over subsets run in ascending bitmask order, which keeps repeated
runs bit-for-bit identical. Dimensions, mask fields, party indices and
permutation entries must be integers (Python or numpy ints, stored as int);
a float or a string raises ``TypeError`` rather than being truncated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .config import OPERATOR_DIM_CAP, TOL_INPUT, VECTOR_DIM_CAP


@dataclass(frozen=True)
class SpaceShape:
    """Party count and per-party dimensions of a composite space.

    ``dims`` may be empty only for the degenerate scalar space produced by
    tracing out every party.
    """

    dims: tuple[int, ...]

    def __post_init__(self) -> None:
        dims = tuple(operator.index(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        if any(d < 2 for d in dims):
            raise ValueError(f"every party dimension must be >= 2, got {dims}")
        if self.total_dim > VECTOR_DIM_CAP:
            raise ValueError(
                f"total dimension {self.total_dim} exceeds the state cap {VECTOR_DIM_CAP}"
            )

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def full_mask(self) -> SubsetMask:
        return SubsetMask((1 << self.n_parties) - 1, self.n_parties)

    def subshape(self, keep: SubsetMask) -> SpaceShape:
        """Shape of the kept parties, in their original relative order."""
        return SpaceShape(tuple(self.dims[p] for p in keep.parties))


@dataclass(frozen=True)
class SubsetMask:
    """A subset of party indices 0..N-1 as a bitmask (bit i = party i)."""

    bits: int
    n_parties: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "bits", operator.index(self.bits))
        object.__setattr__(self, "n_parties", operator.index(self.n_parties))
        if self.n_parties < 1:
            raise ValueError("subset mask needs at least one party")
        if not 0 <= self.bits < (1 << self.n_parties):
            raise ValueError(
                f"mask bits {self.bits:#x} out of range for {self.n_parties} parties"
            )

    @classmethod
    def from_parties(cls, parties, n_parties: int) -> SubsetMask:
        bits = 0
        for p in parties:
            p = operator.index(p)
            if not 0 <= p < n_parties:
                raise ValueError(f"party index {p} out of range for N={n_parties}")
            bits |= 1 << p
        return cls(bits, n_parties)

    @property
    def parties(self) -> tuple[int, ...]:
        return tuple(p for p in range(self.n_parties) if self.bits >> p & 1)

    @property
    def cardinality(self) -> int:
        return self.bits.bit_count()

    @property
    def is_odd(self) -> bool:
        return self.cardinality % 2 == 1

    @property
    def is_empty(self) -> bool:
        return self.bits == 0

    @property
    def is_full(self) -> bool:
        return self.bits == (1 << self.n_parties) - 1

    def contains(self, party: int) -> bool:
        return bool(self.bits >> party & 1)

    def complement(self) -> SubsetMask:
        return SubsetMask(self.bits ^ ((1 << self.n_parties) - 1), self.n_parties)


def _operator_side(shape: SpaceShape) -> int:
    """Side D of an operator on ``shape``; every D x D array is built after this check."""
    d = shape.total_dim
    if d > OPERATOR_DIM_CAP:
        raise ValueError(f"operator side {d} exceeds the operator cap {OPERATOR_DIM_CAP}")
    return d


@dataclass(frozen=True, eq=False)
class Operator:
    """A dense complex square matrix tagged with its composite shape; side <= OPERATOR_DIM_CAP."""

    shape: SpaceShape
    entries: np.ndarray

    def __post_init__(self) -> None:
        d = _operator_side(self.shape)
        m = np.array(self.entries, dtype=complex)
        if m.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got shape {m.shape}")
        m.setflags(write=False)
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True, eq=False)
class PureState:
    """A dense complex state vector tagged with its composite shape."""

    shape: SpaceShape
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        a = np.array(self.amplitudes, dtype=complex).reshape(-1)
        if a.size != self.shape.total_dim:
            raise ValueError(
                f"expected {self.shape.total_dim} amplitudes, got {a.size}"
            )
        if not np.isfinite(a).all():
            raise ValueError("state amplitudes must be finite numbers")
        nrm2 = float(np.vdot(a, a).real)
        if abs(nrm2 - 1.0) > TOL_INPUT:
            raise ValueError(f"state squared norm {nrm2} deviates from 1 beyond {TOL_INPUT}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    def density(self) -> Operator:
        _operator_side(self.shape)
        return Operator(self.shape, np.outer(self.amplitudes, self.amplitudes.conj()))


def tensor(a: Operator, b: Operator) -> Operator:
    """Kronecker product with ``a``'s parties preceding ``b``'s."""
    shape = SpaceShape(a.shape.dims + b.shape.dims)
    _operator_side(shape)
    return Operator(shape, np.kron(a.entries, b.entries))


def _check_mask(shape: SpaceShape, mask: SubsetMask) -> None:
    if mask.n_parties != shape.n_parties:
        raise ValueError(
            f"mask is over {mask.n_parties} parties but the shape has {shape.n_parties}"
        )


def partial_trace(rho: Operator, keep: SubsetMask) -> Operator:
    """Trace out every party not in ``keep``.

    The kept parties retain their original relative order. An empty ``keep``
    yields the degenerate 1x1 operator [Tr rho] so subset sweeps can treat
    the empty set uniformly.
    """
    _check_mask(rho.shape, keep)
    if keep.is_empty:
        return Operator(SpaceShape(()), [[np.trace(rho.entries)]])
    if keep.is_full:
        return rho
    dims = rho.shape.dims
    n = len(dims)
    t = rho.entries.reshape(dims + dims)
    # Repeated einsum labels on row/column axes trace out the dropped parties.
    labels = list(range(n)) + [n + p if keep.contains(p) else p for p in range(n)]
    kept = keep.parties
    out_labels = [*kept, *(n + p for p in kept)]
    reduced = np.einsum(t, labels, out_labels)
    sub = rho.shape.subshape(keep)
    d = sub.total_dim
    return Operator(sub, reduced.reshape(d, d))


def purity(rho: Operator) -> float:
    """Tr rho^2 (no density validation is performed here)."""
    m = rho.entries
    return float(np.einsum("ij,ji->", m, m).real)


@dataclass(frozen=True)
class DensityDiagnostics:
    """Deviations of a matrix from being a density matrix; each must be within TOL_INPUT."""

    hermiticity_deviation: float
    trace_deviation: float
    min_eigenvalue: float

    @property
    def passes(self) -> bool:
        return (
            self.hermiticity_deviation <= TOL_INPUT
            and self.trace_deviation <= TOL_INPUT
            and self.min_eigenvalue >= -TOL_INPUT
        )

    def describe(self) -> str:
        return (
            f"hermiticity deviation {self.hermiticity_deviation:.3g}, "
            f"trace deviation {self.trace_deviation:.3g}, "
            f"min eigenvalue {self.min_eigenvalue:.3g} (tol {TOL_INPUT:.1g})"
        )


def validate_density(rho: Operator) -> DensityDiagnostics:
    """Report Hermiticity, trace and positivity deviations of ``rho``.

    The positivity check uses a full eigenvalue decomposition of the
    Hermitian part so the report carries the actual minimum eigenvalue.
    """
    m = rho.entries
    herm_dev = float(np.max(np.abs(m - m.conj().T)))
    trace_dev = float(abs(np.trace(m).real - 1.0) + abs(np.trace(m).imag))
    herm_part = (m + m.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(herm_part)[0])
    return DensityDiagnostics(herm_dev, trace_dev, min_eig)


def _require_density(rho: Operator, prefix: str) -> None:
    """Raise ``ValueError(f"{prefix}: ...")`` unless ``rho`` is a density matrix."""
    diag = validate_density(rho)
    if not diag.passes:
        raise ValueError(f"{prefix}: {diag.describe()}")


def _permute_matrix_factors(matrix: np.ndarray, dims, new_from_old) -> np.ndarray:
    """Reorder the tensor factors of a square matrix.

    ``new_from_old[k]`` is the old factor index placed at position k. The
    callers, ``permute_parties`` and ``observable``, pass tuples and check it.
    """
    n = len(dims)
    t = matrix.reshape(dims + dims)
    t = np.transpose(t, new_from_old + tuple(n + p for p in new_from_old))
    d = math.prod(dims)
    return t.reshape(d, d)


def permute_parties(obj: Operator | PureState, new_from_old) -> Operator | PureState:
    """Relabel parties: position k of the result holds old party new_from_old[k]."""
    perm = tuple(operator.index(p) for p in new_from_old)
    dims = obj.shape.dims
    if sorted(perm) != list(range(len(dims))):
        raise ValueError(f"{perm} is not a permutation of 0..{len(dims) - 1}")
    new_shape = SpaceShape(tuple(dims[p] for p in perm))
    if isinstance(obj, PureState):
        t = obj.amplitudes.reshape(dims)
        return PureState(new_shape, np.transpose(t, perm).reshape(-1))
    return Operator(new_shape, _permute_matrix_factors(obj.entries, dims, perm))


def apply_local_unitary(psi: PureState, party: int, u: np.ndarray) -> PureState:
    """Apply a single-party operator ``u`` to ``party`` of a pure state."""
    dims = psi.shape.dims
    if not 0 <= party < len(dims):
        raise ValueError(f"party index {party} out of range")
    u = np.asarray(u, dtype=complex)
    d = dims[party]
    if u.shape != (d, d):
        raise ValueError(f"expected a {d}x{d} matrix for party {party}, got {u.shape}")
    t = psi.amplitudes.reshape(dims)
    t = np.moveaxis(np.tensordot(u, t, axes=([1], [party])), 0, party)
    return PureState(psi.shape, t.reshape(-1))
