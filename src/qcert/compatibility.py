"""Marginal-set compatibility certificates.

The certificates test a necessary condition only: a set of reduced density matrices
passes, by ``sums._holds`` of the printed slack, as "consistent" with some global
state, never as compatible. A violation, in contrast, is a proof of incompatibility.

The tested inequality bounds the alternating purity sum
sum_{|A| odd} Tr rho_A^2 - sum_{|A| even} Tr rho_A^2 over nonempty subsets A
by 1, where the full-set term is Tr rho^2 of the global state: read from a
full-set marginal when one is provided, otherwise fixed at 1 when a pure
global state is claimed, supplied by the caller for mixed global states, and
defaulted to the compatibility-friendliest value 1 when unknown. One core reads only
a purity map keyed by mask bits and a claim, which it checks against the map's full-set
entry: a marginal set computes each purity once, and ``self_check`` reads a ``purity_table``.
"""

from __future__ import annotations

import math
from numbers import Real
from typing import Mapping

import numpy as np

from .config import TOL_INPUT
from .hilbert import (
    Operator, SpaceShape, SubsetMask, _Record, _reduced_matrix, _require_density, purity,
)
from .sums import _holds, _signed_sum

BEST_CASE = "best-case"

VERDICT_CONSISTENT = "consistent"
VERDICT_INCOMPATIBLE = "incompatible"
VERDICT_INCONCLUSIVE = "inconclusive"


def required_subsets(n: int) -> tuple[SubsetMask, ...]:
    """Every nonempty proper subset of n parties, ascending by mask."""
    full = (1 << n) - 1
    return tuple(SubsetMask(bits, n) for bits in range(1, full))


class MarginalSet(_Record, shown=("shape", "entries"), by_identity=True):
    """Claimed reduced density matrices keyed by their parties, and their purities by bits.

    ``purities`` is set once, after every entry is validated, in ascending mask order.
    """

    __slots__ = ("shape", "entries", "purities")

    def __init__(self, shape: SpaceShape, entries: Mapping[SubsetMask, Operator]) -> None:
        fixed: dict[SubsetMask, Operator] = {}
        for mask in sorted(entries, key=lambda m: m.bits):
            op = entries[mask]
            if mask.n_parties != shape.n_parties:
                raise ValueError("marginal key is over a different party count")
            if mask.is_empty:
                raise ValueError("marginal keys must be nonempty")
            sub = shape.subshape(mask)
            if op.shape.dims != sub.dims:
                raise ValueError(
                    f"marginal on parties {mask.parties} has dims {op.shape.dims}, "
                    f"expected {sub.dims}"
                )
            _require_density(op, f"marginal on parties {mask.parties} is not a density matrix")
            fixed[mask] = op
        purities = {mask.bits: purity(op) for mask, op in fixed.items()}
        _Record.__init__(self, shape, fixed, purities)


class CompatReport(_Record):
    """Outcome of one compatibility certificate.

    ``lhs`` includes the full-set purity term (the value actually bounded by
    1); ``lhs_proper`` is the same alternating sum restricted to proper
    subsets. A "consistent" verdict only means the necessary condition holds.

    Fields: theorem, dims, lhs, lhs_proper, slack, verdict, per_subset_purities, missing_subsets,
    assumed_global_purity. The three sums are None when a subset is missing, and the assumed
    global purity is "best-case" when it is 1 for want of a claim.
    """

    __slots__ = (
        "theorem", "dims", "lhs", "lhs_proper", "slack", "verdict", "per_subset_purities",
        "missing_subsets", "assumed_global_purity",
    )


def checked_global_purity(total_dim: int, g, subject: str, full: float | None = None) -> float:
    """``g`` as a float, once it is a possible global purity of a state of dimension ``total_dim``.

    The one global-purity check: ``g`` must be a real number, not a bool (numpy
    numbers pass), finite as a float, in [1/D, 1], and within TOL_INPUT of ``full``,
    the purity of a full-set marginal, if any. It raises ``ValueError`` naming ``subject``.
    """
    if isinstance(g, bool) or not isinstance(g, Real):
        raise ValueError(f"{subject} must be a number")
    try:
        g = float(g)
    except OverflowError:  # an integer beyond double range
        raise ValueError(f"{subject} must be a finite number") from None
    lowest = 1.0 / total_dim
    if not lowest - TOL_INPUT <= g <= 1.0 + TOL_INPUT:
        raise ValueError(f"{subject} must lie in [1/D, 1] = [{lowest}, 1], got {g}")
    if full is not None and abs(g - full) > TOL_INPUT:
        raise ValueError(f"{subject} {g} differs from the full-set marginal's purity {full}")
    return g


def _certificate(
    dims: tuple[int, ...], purities: Mapping[int, float], claimed: float | None, theorem: str
) -> CompatReport:
    """Bound the alternating sum of ``purities``, a purity map keyed by mask bits.

    A ``claimed`` global purity must pass ``checked_global_purity`` against the map's full-set
    entry. The full-set term is that entry, else ``claimed``, else the best case 1.
    """
    n = len(dims)
    full = (1 << n) - 1
    if claimed is not None:  # the one place where a claim meets the map
        claimed = checked_global_purity(
            math.prod(dims), claimed, "global purity", purities.get(full)
        )
    global_purity = purities.get(full, claimed)
    recorded_purity: float | str = global_purity
    if global_purity is None:
        global_purity, recorded_purity = 1.0, BEST_CASE
    missing = tuple(SubsetMask(bits, n) for bits in range(1, full) if bits not in purities)
    lhs = lhs_proper = slack = None
    verdict = VERDICT_INCONCLUSIVE
    if not missing:
        lhs_proper = _signed_sum((bits, purities[bits]) for bits in range(1, full))
        full_sign = 1.0 if n % 2 == 1 else -1.0
        lhs = lhs_proper + full_sign * global_purity
        slack = 1.0 - lhs
        verdict = VERDICT_CONSISTENT if _holds(slack) else VERDICT_INCOMPATIBLE
    per_subset = {SubsetMask(bits, n): value for bits, value in purities.items()}
    return CompatReport(
        theorem, dims, lhs, lhs_proper, slack, verdict, per_subset, missing, recorded_purity
    )


def theorem1_check(marginals: MarginalSet) -> CompatReport:
    """Certificate against a common global *pure* state (full-set purity fixed at 1).

    A provided full-set marginal must then be pure within TOL_INPUT.
    """
    return _certificate(marginals.shape.dims, marginals.purities, 1.0, "theorem1")


def theorem2_check(
    marginals: MarginalSet, global_purity: float | None = None
) -> CompatReport:
    """Certificate against a common global state of an even party count.

    A provided full-set marginal fixes the global purity. Otherwise, when
    ``global_purity`` is omitted, the compatibility-friendliest value 1 is
    assumed and recorded as "best-case"; the verdict can then only be
    looser, never stricter. A supplied value must lie in [1/D, 1].
    """
    if marginals.shape.n_parties % 2 == 1:
        raise ValueError("this certificate requires an even party count")
    return _certificate(marginals.shape.dims, marginals.purities, global_purity, "theorem2")


class MarginalMismatch(_Record):
    """Two provided marginals that disagree under partial trace: subset, superset, max_deviation."""

    __slots__ = ("subset", "superset", "max_deviation")


def consistency_precheck(marginals: MarginalSet) -> list[MarginalMismatch]:
    """Cross-check every nested pair of provided marginals.

    For keys A strictly inside B, the B-marginal traced down to A must match
    the provided A-marginal entrywise within TOL_INPUT. Redundant entries are
    legitimate inputs; this check is how they earn their keep. Only later keys
    in (size, mask) order can be strict supersets.
    """
    keys = sorted(marginals.entries, key=lambda m: (m.cardinality, m.bits))
    out: list[MarginalMismatch] = []
    for i, small in enumerate(keys):
        for big in keys[i + 1:]:
            if small.bits & ~big.bits:
                continue
            op = marginals.entries[big]
            reduced = _reduced_matrix(op.entries, op.shape.dims, big.parties, small.bits)
            dev = float(np.max(np.abs(reduced - marginals.entries[small].entries)))
            if dev > TOL_INPUT:
                out.append(MarginalMismatch(small, big, dev))
    return out


def self_check(rho: Operator) -> CompatReport:
    """Certificate of a known global state against its own marginals.

    Validates ``rho`` once, then runs the even-N certificate on its purity table:
    the proper entries as the map, the last entry as the true global purity. Any
    valid state must come out with nonnegative slack up to numerics.
    """
    from .measures import purity_table

    if rho.shape.n_parties % 2 == 1:
        raise ValueError("this certificate requires an even party count")
    _require_density(rho, "self_check needs a valid density matrix")
    table = purity_table(rho)
    return _certificate(rho.shape.dims, dict(enumerate(table[1:-1], 1)), table[-1], "theorem2")
