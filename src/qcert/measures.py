"""Linear-entropy quantities and the multipartite measure E via three routes.

For an even number of parties the measure is the signed sum of bipartite
mutual informations over the two partition classes (both blocks odd minus
both blocks even). It equals 2^N times the all-antisymmetric two-copy
expectation, and also an alternating sum of subset purities. The three
routes are implemented independently and must agree within TOL_ROUTE.

Every subset quantity reads one complete purity table per state; only a
single monogamy check, ``corollary1_check``, evaluates just its submasks.
For a pure state each cut is computed once, from its smaller side, so the
table costs one contraction per unbalanced pair {A, rest} and one per
balanced cut.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import ROUTES
from .hilbert import (
    Operator,
    PureState,
    SubsetMask,
    _check_mask,
    partial_trace,
    purity,
)
from .observables import _doubled_fits, expectation_pure

ODD_N_ERROR = "partition classes undefined for odd N"


def _require_even(n: int) -> None:
    if n % 2 == 1:
        raise ValueError(ODD_N_ERROR)


def linear_entropy(rho: Operator) -> float:
    """1 - Tr rho^2."""
    return 1.0 - purity(rho)


def mutual_information(rho_ab: Operator, split: SubsetMask) -> float:
    """Linear-entropy mutual information S_A + S_B - S_AB for a bipartition."""
    _check_mask(rho_ab.shape, split)
    if split.is_empty or split.is_full:
        raise ValueError("split must be a nonempty proper subset")
    s_a = linear_entropy(partial_trace(rho_ab, split))
    s_b = linear_entropy(partial_trace(rho_ab, split.complement()))
    return s_a + s_b - linear_entropy(rho_ab)


def marginal_purity(psi: PureState, subset: SubsetMask) -> float:
    """Tr rho_A^2 for a marginal of a pure state, without forming the global density.

    Contracts the smaller side of the cut, A itself when 2|A| <= N; for a pure
    state both sides share the same Schmidt spectrum so the value is identical.
    """
    _check_mask(psi.shape, subset)
    amp = psi.amplitudes
    dims = psi.shape.dims
    n = len(dims)
    full = (1 << n) - 1
    bits = subset.bits
    if bits == 0 or bits == full:
        nrm2 = float(np.vdot(amp, amp).real)
        return nrm2 * nrm2
    if 2 * bits.bit_count() > n:
        bits ^= full
    kept = tuple(p for p in range(n) if bits >> p & 1)
    rest = tuple(p for p in range(n) if not bits >> p & 1)
    m = np.transpose(amp.reshape(dims), kept + rest).reshape(
        math.prod(dims[p] for p in kept), -1
    )
    g = m @ m.conj().T
    return float(np.einsum("ab,ba->", g, g).real)


def purity_table(state: PureState | Operator) -> list[float]:
    """Tr rho_A^2 of every subset A of the parties, indexed by mask bits.

    Entry 0 is the squared trace of the whole state and the last entry its
    global purity. An operator is taken as given, not checked as a density
    matrix, and goes through ``partial_trace``. A pure state calls
    ``marginal_purity`` once per cut, on the masks with 2|A| <= N in ascending
    order; every other entry copies its complement's value, which
    ``marginal_purity`` computes from the same smaller side, so the copy is
    bit-identical. Every subset quantity but ``corollary1_check`` reads it.
    """
    n = state.shape.n_parties
    if not isinstance(state, PureState):
        return [purity(partial_trace(state, SubsetMask(bits, n))) for bits in range(1 << n)]
    full = (1 << n) - 1
    values = {
        bits: marginal_purity(state, SubsetMask(bits, n))
        for bits in range(full + 1)
        if 2 * bits.bit_count() <= n
    }
    return [values[bits] if bits in values else values[full ^ bits] for bits in range(full + 1)]


def _split_sum(terms) -> tuple[float, float]:
    """Sums of the ``(mask, value)`` terms of odd and of even mask size, in order."""
    odd = even = 0.0
    for bits, value in terms:
        if bits.bit_count() & 1:
            odd += value
        else:
            even += value
    return odd, even


def _signed_sum(terms) -> float:
    """Sum of the ``(mask, value)`` terms, negated for an even mask size, in order."""
    total = 0.0
    for bits, value in terms:
        total += value if bits.bit_count() & 1 else -value
    return total


def _proper_purities(table: list[float]) -> dict[SubsetMask, float]:
    n = len(table).bit_length() - 1
    return {SubsetMask(bits, n): table[bits] for bits in range(1, len(table) - 1)}


def subset_purities(psi: PureState) -> dict[SubsetMask, float]:
    """Marginal purities of every nonempty proper subset, in ascending mask order."""
    return _proper_purities(purity_table(psi))


def _e_partitions(table: list[float]) -> float:
    # Block a holds party 0; both blocks are odd (class P_I) exactly when |a| is.
    full = len(table) - 1
    s_global = 1.0 - table[full]
    return _signed_sum(
        (a, (1.0 - table[a]) + (1.0 - table[full ^ a]) - s_global)
        for a in range(1, full, 2)
    )


def entanglement_E_partitions(psi: PureState) -> float:
    """E as the signed sum of bipartite mutual informations over partition classes."""
    _require_even(psi.shape.n_parties)
    return _e_partitions(purity_table(psi))


def entanglement_E_projector(psi: PureState) -> float:
    """E as 2^N times the all-antisymmetric two-copy expectation.

    Evaluable for any party count; for odd N the value vanishes.
    """
    return float(2**psi.shape.n_parties) * expectation_pure(psi, psi.shape.full_mask())


def _e_subset_sum(table: list[float]) -> float:
    odd, even = _split_sum((bits, table[bits]) for bits in range(1, len(table) - 1))
    return 2.0 - odd + even


def entanglement_E_subset_sum(psi: PureState) -> float:
    """E as 2 - sum of odd-subset purities + sum of proper even-subset purities."""
    _require_even(psi.shape.n_parties)
    return _e_subset_sum(purity_table(psi))


def i_concurrence_sq(psi: PureState, subset: SubsetMask) -> float:
    """Squared I-concurrence 2(1 - Tr rho_A^2) of the cut A | rest.

    Zero by convention when the subset is empty or the full party set.
    """
    _check_mask(psi.shape, subset)
    if subset.is_empty or subset.is_full:
        return 0.0
    return 2.0 * (1.0 - marginal_purity(psi, subset))


@dataclass(frozen=True)
class MeasureReport:
    """Values of E by route, keyed in the order they print, plus the purities used.

    ``values`` has the keys ``partitions``, ``projector``, ``subset_sum`` and
    ``oracle``, each None when its route did not run. ``per_subset_purities``
    is None when no route read the purity table.
    """

    dims: tuple[int, ...]
    values: dict[str, float | None]
    per_subset_purities: dict[SubsetMask, float] | None

    def route_deltas(self) -> dict[str, float]:
        """|a - b| for every pair of routes with a value, keyed "a_vs_b" in name order."""
        names = sorted(k for k, v in self.values.items() if v is not None)
        return {
            f"{a}_vs_{b}": abs(self.values[a] - self.values[b])
            for i, a in enumerate(names)
            for b in names[i + 1 :]
        }

    def max_route_delta(self) -> float | None:
        return max(self.route_deltas().values(), default=None)


def measure_all(psi: PureState, route: str = "all") -> MeasureReport:
    """E by one route of ``ROUTES``, or by every applicable one for "all".

    "all" omits the partition forms for odd N, and the projector route when its
    doubled vector, D^2 entries, exceeds the state cap (above 10 qubits); the
    single "partitions" and "subset-sum" routes reject odd N. The oracle value
    is left None for the caller: ``qcert.oracle`` imports this module, so its
    audit route stays apart from the routes here.
    """
    if route not in ROUTES:
        raise ValueError(f"unknown route {route!r}; expected one of {', '.join(ROUTES)}")
    n = psi.shape.n_parties
    values = dict.fromkeys(("partitions", "projector", "subset_sum", "oracle"))
    purities = None
    if route in ("all", "partitions", "subset-sum"):
        if route != "all":
            _require_even(n)
        table = purity_table(psi)
        purities = _proper_purities(table)
        if n % 2 == 0 and route != "subset-sum":
            values["partitions"] = _e_partitions(table)
        if n % 2 == 0 and route != "partitions":
            values["subset_sum"] = _e_subset_sum(table)
    if route == "projector" or (route == "all" and _doubled_fits(psi.shape)):
        values["projector"] = entanglement_E_projector(psi)
    return MeasureReport(psi.shape.dims, values, purities)
