"""The multipartite measure E by each of its routes, and the subset purity table.

For an even number of parties the measure is the signed sum of bipartite
mutual informations over the two partition classes (both blocks odd minus
both blocks even). It equals 2^N times the all-antisymmetric two-copy
expectation, and also an alternating sum of subset purities. The partition
and subset-sum routes read one purity table; the projector route and the slow
audit route of ``qcert.oracle``, which imports nothing from this module, are
independent of the table and of each other. All four must agree within
TOL_ROUTE.

Every subset quantity reads one complete purity table per state; only a single monogamy
check, ``corollary1_check``, evaluates just its submasks. For a pure state the table costs
one contraction per unbalanced pair {A, rest}, from its smaller side, and one per side of
each balanced cut. Its sums are the correctly rounded sums of ``qcert.sums``.
"""

from __future__ import annotations

import math

import numpy as np

from .config import ODD_N_ERROR, ROUTES
from .hilbert import Operator, PureState, SubsetMask, _Record, _check_mask, partial_trace, purity
from .sums import _signed_sum, _split_sum


def _require_even(n: int) -> None:
    if n % 2 == 1:
        raise ValueError(ODD_N_ERROR)


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
    ``marginal_purity`` on the masks with 2|A| <= N in ascending order: the
    smaller side of each unbalanced cut and both sides of each balanced cut,
    whose two values can differ in the last bits. The larger side of an
    unbalanced cut copies its complement's value, which ``marginal_purity``
    computes from the same smaller side, so the copy is bit-identical. Every
    subset quantity but ``corollary1_check`` reads it.
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


def _e_partitions(table: list[float]) -> float:
    # Block a holds party 0; both blocks are odd (class P_I) exactly when |a| is.
    full = len(table) - 1
    s_global = 1.0 - table[full]
    return _signed_sum(
        (a, (1.0 - table[a]) + (1.0 - table[full ^ a]) - s_global)
        for a in range(1, full, 2)
    )


def _e_subset_sum(table: list[float]) -> float:
    odd, even = _split_sum(range(1, len(table) - 1), table.__getitem__)
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


class MeasureReport(_Record):
    """Values of E by route, keyed in the order they print, plus the purities used.

    Fields: dims, values, per_subset_purities: dict[SubsetMask, float] | None.
    ``values`` has the keys ``partitions``, ``projector``, ``subset_sum`` and
    ``oracle``, each None when its route did not run. ``per_subset_purities``
    is None when no route read the purity table.
    """

    __slots__ = ("dims", "values", "per_subset_purities")

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

    "all" omits the partition forms for odd N, the projector route when its
    doubled vector, D^2 entries, exceeds the state cap (above 10 qubits), and
    the oracle unless ``exhaustive_fits`` holds. The single "partitions",
    "subset-sum" and "oracle" routes reject odd N, and "oracle" a shape over
    its caps.
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
        purities = {SubsetMask(bits, n): table[bits] for bits in range(1, len(table) - 1)}
        if n % 2 == 0 and route != "subset-sum":
            values["partitions"] = _e_partitions(table)
        if n % 2 == 0 and route != "partitions":
            values["subset_sum"] = _e_subset_sum(table)
    if route in ("all", "projector"):
        from .observables import _doubled_fits, expectation_pure

        if route == "projector" or _doubled_fits(psi.shape):
            values["projector"] = float(2**n) * expectation_pure(psi, psi.shape.full_mask())
    if route in ("all", "oracle"):
        from .oracle import exhaustive_E, exhaustive_fits

        if route == "oracle" or exhaustive_fits(psi.shape):
            values["oracle"] = exhaustive_E(psi)
    return MeasureReport(psi.shape.dims, values, purities)
