"""Dense complex operator algebra over composite Hilbert spaces.

Index convention, fixed package-wide: party 0 occupies the most significant
index block, so the basis label (i_0, ..., i_{N-1}) maps to the flat index
((i_0 * d_1 + i_1) * d_2 + ...) * d_{N-1} + i_{N-1}. This is exactly numpy's
C-order reshape, so the operator of a product of two systems is ``numpy.kron``
with the first system's parties in front.

All types are immutable after construction and every operation is a pure
function of its inputs, so everything here is safe to call concurrently.
Sums over subsets are correctly rounded (``qcert.sums``), so repeated runs
are bit-for-bit identical. Dimensions, mask fields and party indices must
be integers (Python or numpy ints, stored as int); a bool, float or string
raises ``TypeError`` rather than being truncated.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .config import OPERATOR_DIM_CAP, TOL_INPUT, VECTOR_DIM_CAP

_PRODUCT_BOUND = 1 << 64  # far above VECTOR_DIM_CAP: a shape's product stops past it


def _index(value) -> int:
    """``operator.index(value)``, refusing a bool: ``True`` is not party 1."""
    if type(value) is bool:
        raise TypeError(f"expected an integer, got the bool {value}")
    return operator.index(value)


def _by_name(cls, values: tuple, named: dict) -> list:
    """A ``cls`` record's fields in slot order from positions and names, else ``TypeError``."""
    fields, given = cls.__slots__, dict(zip(cls.__slots__, values))
    wrong = [f"{len(values)} values given"] if len(values) > len(fields) else []
    wrong += [f"{name!r} given twice" for name in named if name in given]
    wrong += [f"{name!r} is not a field" for name in named if name not in fields]
    given.update(named)
    wrong += [f"{name!r} is missing" for name in fields if name not in given]
    if wrong:
        raise TypeError(f"{cls.__qualname__} takes the fields {', '.join(fields)}: "
                        + "; ".join(wrong))
    return [given[name] for name in fields]


class _Record:
    """Base of the package's immutable records, with a frozen dataclass's methods.

    A subclass lists its fields in ``__slots__``; the constructor takes them in order, by position
    or name, unless the subclass checks its input in its own ``__init__``. Assigning or deleting a
    field raises ``AttributeError``. ``repr``, ``==`` and ``hash`` read the ``shown`` fields (all
    by default), ``hash`` as the hash of their tuple. A record ``by_identity`` keeps ``object``'s
    ``==`` and ``hash``. Pickle and ``copy`` carry every slot and run no ``__init__``.
    """

    __slots__ = ()

    def __init_subclass__(
        cls, shown: tuple[str, ...] | None = None, by_identity: bool = False
    ) -> None:
        super().__init_subclass__()
        cls._shown = cls.__slots__ if shown is None else shown
        get = operator.attrgetter(*cls._shown)
        cls._key = staticmethod(get if len(cls._shown) > 1 else lambda record: (get(record),))
        if by_identity:
            cls.__eq__, cls.__hash__ = object.__eq__, object.__hash__

    def __init__(self, *values, **named) -> None:
        if named or len(values) != len(self.__slots__):
            values = _by_name(type(self), values, named)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == other._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __getstate__(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __setstate__(self, state: tuple) -> None:
        _Record.__init__(self, *state)


class SpaceShape(_Record, shown=("dims",)):
    """Party count, per-party dimensions (each >= 2) and total dimension of a composite space.

    ``dims`` is empty only for the scalar space left by tracing out every party. One pass checks
    the dims and forms ``total_dim``, multiplying no further past 2**64; an error names one party.
    """

    __slots__ = ("dims", "total_dim")

    def __init__(self, dims: tuple[int, ...]) -> None:
        dims = tuple(_index(d) for d in dims)
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
        # Set directly, as in SubsetMask: a shape is built per marginal.
        object.__setattr__(self, "dims", dims)
        object.__setattr__(self, "total_dim", total)

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def full_mask(self) -> SubsetMask:
        return SubsetMask((1 << self.n_parties) - 1, self.n_parties)

    def subshape(self, keep: SubsetMask) -> SpaceShape:
        """Shape of the kept parties, in their original relative order."""
        return SpaceShape(tuple(self.dims[p] for p in keep.parties))


class SubsetMask(_Record):
    """A subset of party indices 0..N-1 as a bitmask (bit i = party i)."""

    __slots__ = ("bits", "n_parties")

    def __init__(self, bits: int, n_parties: int) -> None:
        bits = _index(bits)
        n_parties = _index(n_parties)
        if n_parties < 1:
            raise ValueError("subset mask needs at least one party")
        if not 0 <= bits < (1 << n_parties):
            raise ValueError(f"mask bits {bits:#x} out of range for {n_parties} parties")
        # Set directly: a mask is built per subset, and the generic loop costs twice as much.
        object.__setattr__(self, "bits", bits)
        object.__setattr__(self, "n_parties", n_parties)

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


class Operator(_Record, by_identity=True):
    """A dense complex square matrix tagged with its composite shape; side <= OPERATOR_DIM_CAP."""

    __slots__ = ("shape", "entries")

    def __init__(self, shape: SpaceShape, entries: np.ndarray) -> None:
        d = _operator_side(shape)
        m = np.array(entries, dtype=complex)
        if m.shape != (d, d):
            raise ValueError(f"expected a {d}x{d} matrix, got shape {m.shape}")
        m.setflags(write=False)
        _Record.__init__(self, shape, m)


class PureState(_Record, by_identity=True):
    """A dense complex state vector tagged with its composite shape of at least one party."""

    __slots__ = ("shape", "amplitudes")

    def __init__(self, shape: SpaceShape, amplitudes: np.ndarray) -> None:
        if not shape.dims:
            raise ValueError("a state needs at least one party")
        a = np.array(amplitudes, dtype=complex).reshape(-1)
        if a.size != shape.total_dim:
            raise ValueError(
                f"expected {shape.total_dim} amplitudes, got {a.size}"
            )
        if not np.isfinite(a).all():
            raise ValueError("state amplitudes must be finite numbers")
        nrm2 = float(np.vdot(a, a).real)
        if abs(nrm2 - 1.0) > TOL_INPUT:
            raise ValueError(f"state squared norm {nrm2} deviates from 1 beyond {TOL_INPUT}")
        a.setflags(write=False)
        _Record.__init__(self, shape, a)

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


class DensityDiagnostics(_Record):
    """Deviations of a matrix from being a density matrix; each must be within TOL_INPUT.

    Fields: hermiticity_deviation, trace_deviation, min_eigenvalue (floats).
    """

    __slots__ = ("hermiticity_deviation", "trace_deviation", "min_eigenvalue")

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

