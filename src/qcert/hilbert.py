"""Dense complex operator algebra over composite Hilbert spaces.

Index convention, fixed package-wide: party 0 occupies the most significant
index block, so the basis label (i_0, ..., i_{N-1}) maps to the flat index
((i_0 * d_1 + i_1) * d_2 + ...) * d_{N-1} + i_{N-1}. This is exactly numpy's
C-order reshape, so the operator of a product of two systems is ``numpy.kron``
with the first system's parties in front.

All types are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to call concurrently.
Reductions over subsets run in ascending bitmask order, which keeps repeated
runs bit-for-bit identical. Dimensions, mask fields and party indices must
be integers (Python or numpy ints, stored as int); a bool, float or string
raises ``TypeError`` rather than being truncated.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .config import OPERATOR_DIM_CAP, TOL_INPUT, VECTOR_DIM_CAP

_PRODUCT_BOUND = 1 << 64  # far above VECTOR_DIM_CAP: a shape's product stops past it


def _index(value) -> int:
    """``operator.index(value)``, refusing a bool: ``True`` is not party 1."""
    if type(value) is bool:
        raise TypeError(f"expected an integer, got the bool {value}")
    return operator.index(value)


@dataclass(frozen=True)
class SpaceShape:
    """Party count, per-party dimensions (each >= 2) and total dimension of a composite space.

    ``dims`` is empty only for the scalar space left by tracing out every party. One pass checks
    the dims and forms ``total_dim``, multiplying no further past 2**64; an error names one party.
    """

    dims: tuple[int, ...]
    total_dim: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dims = tuple(_index(d) for d in self.dims)
        object.__setattr__(self, "dims", dims)
        total = 1
        for p, d in enumerate(dims):
            if d < 2:
                shown = d if d >= -_PRODUCT_BOUND else "a number below -2**64"
                raise ValueError(f"every party dimension must be >= 2, got {shown} for party {p}")
            if total <= _PRODUCT_BOUND:
                total *= d
        if total > VECTOR_DIM_CAP:
            size = total if total <= _PRODUCT_BOUND else f"of {len(dims)} parties"
            raise ValueError(f"total dimension {size} exceeds the state cap {VECTOR_DIM_CAP}")
        object.__setattr__(self, "total_dim", total)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

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
        object.__setattr__(self, "bits", _index(self.bits))
        object.__setattr__(self, "n_parties", _index(self.n_parties))
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
            p = _index(p)
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
    """A dense complex state vector tagged with its composite shape of at least one party."""

    shape: SpaceShape
    amplitudes: np.ndarray

    def __post_init__(self) -> None:
        if not self.shape.dims:
            raise ValueError("a state needs at least one party")
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


def _check_mask(shape: SpaceShape, mask: SubsetMask) -> None:
    if mask.n_parties != shape.n_parties:
        raise ValueError(
            f"mask is over {mask.n_parties} parties but the shape has {shape.n_parties}"
        )


def _reduced_matrix(m: np.ndarray, dims: tuple[int, ...], parties, keep: int) -> np.ndarray:
    """The matrix ``m`` with every party outside the bitmask ``keep`` traced out.

    ``m`` acts on the ascending global labels ``parties`` (dims ``dims``); ``keep`` masks them too.
    """
    n = len(dims)
    kept = [k for k, p in enumerate(parties) if keep >> p & 1]
    # Repeated einsum labels on row/column axes trace out the dropped parties.
    labels = [*range(n), *(n + k if keep >> p & 1 else k for k, p in enumerate(parties))]
    reduced = np.einsum(m.reshape(dims + dims), labels, [*kept, *(n + k for k in kept)])
    return reduced.reshape(math.prod(dims[k] for k in kept), -1)


def partial_trace(rho: Operator, keep: SubsetMask) -> Operator:
    """Trace out every party not in ``keep``.

    The kept parties retain their original relative order. The kernel also takes
    an empty ``keep``, giving the 1x1 operator [Tr rho] on the scalar space, so
    subset sweeps treat the empty set uniformly; a full ``keep`` returns ``rho``.
    """
    _check_mask(rho.shape, keep)
    if keep.is_full:
        return rho
    reduced = _reduced_matrix(rho.entries, rho.shape.dims, range(keep.n_parties), keep.bits)
    return Operator(rho.shape.subshape(keep), reduced)


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

