"""Marginal-set compatibility certificates.

The certificates test a necessary condition only: a passing set of reduced
density matrices is reported as "consistent" with some global state, never
as compatible. A violation, in contrast, is a proof of incompatibility.

The tested inequality bounds the alternating purity sum
sum_{|A| odd} Tr rho_A^2 - sum_{|A| even} Tr rho_A^2 over nonempty subsets A
by 1, where the full-set term is Tr rho^2 of the global state: read from a
full-set marginal when one is provided, otherwise fixed at 1 when a pure
global state is claimed, supplied by the caller for mixed global states, and
defaulted to the compatibility-friendliest value 1 when unknown.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Mapping

import numpy as np

from .config import TOL_INPUT, TOL_VERDICT
from .hilbert import (
    Operator,
    SpaceShape,
    SubsetMask,
    _require_density,
    partial_trace,
    purity,
)
from .measures import _signed_sum

BEST_CASE = "best-case"

VERDICT_CONSISTENT = "consistent"
VERDICT_INCOMPATIBLE = "incompatible"
VERDICT_INCONCLUSIVE = "inconclusive"


def required_subsets(n: int) -> tuple[SubsetMask, ...]:
    """Every nonempty proper subset of n parties, ascending by mask."""
    full = (1 << n) - 1
    return tuple(SubsetMask(bits, n) for bits in range(1, full))


@dataclass(frozen=True, eq=False)
class MarginalSet:
    """Claimed reduced density matrices, keyed by the parties they live on."""

    shape: SpaceShape
    entries: Mapping[SubsetMask, Operator]

    def __post_init__(self) -> None:
        fixed: dict[SubsetMask, Operator] = {}
        for mask in sorted(self.entries, key=lambda m: m.bits):
            op = self.entries[mask]
            if mask.n_parties != self.shape.n_parties:
                raise ValueError("marginal key is over a different party count")
            if mask.is_empty:
                raise ValueError("marginal keys must be nonempty")
            sub = self.shape.subshape(mask)
            if op.shape.dims != sub.dims:
                raise ValueError(
                    f"marginal on parties {mask.parties} has dims {op.shape.dims}, "
                    f"expected {sub.dims}"
                )
            _require_density(op, f"marginal on parties {mask.parties} is not a density matrix")
            fixed[mask] = op
        object.__setattr__(self, "entries", fixed)

    @classmethod
    def from_global(cls, rho: Operator) -> MarginalSet:
        """Marginal set of every nonempty proper subset, computed from a global state."""
        masks = required_subsets(rho.shape.n_parties)
        return cls(rho.shape, {m: partial_trace(rho, m) for m in masks})


@dataclass(frozen=True)
class CompatReport:
    """Outcome of one compatibility certificate.

    ``lhs`` includes the full-set purity term (the value actually bounded by
    1); ``lhs_proper`` is the same alternating sum restricted to proper
    subsets. A "consistent" verdict only means the necessary condition holds.
    """

    theorem: str
    dims: tuple[int, ...]
    lhs: float | None
    lhs_proper: float | None
    slack: float | None
    verdict: str
    per_subset_purities: dict[SubsetMask, float]
    missing_subsets: tuple[SubsetMask, ...]
    assumed_global_purity: float | str


def checked_global_purity(marginals: MarginalSet, g, subject: str) -> float:
    """``g`` as a float, once it is a possible global purity of ``marginals``.

    The one global-purity check: ``g`` must be a real number, not a bool (numpy
    numbers pass), finite as a float, in [1/D, 1], and within TOL_INPUT of the
    purity of a full-set marginal, if any. It raises ``ValueError`` naming ``subject``.
    """
    if isinstance(g, bool) or not isinstance(g, Real):
        raise ValueError(f"{subject} must be a number")
    try:
        g = float(g)
    except OverflowError:  # an integer beyond double range
        raise ValueError(f"{subject} must be a finite number") from None
    lowest = 1.0 / marginals.shape.total_dim
    if not lowest - TOL_INPUT <= g <= 1.0 + TOL_INPUT:
        raise ValueError(f"{subject} must lie in [1/D, 1] = [{lowest}, 1], got {g}")
    full = marginals.entries.get(marginals.shape.full_mask())
    if full is not None and abs(g - purity(full)) > TOL_INPUT:
        raise ValueError(
            f"{subject} {g} differs from the full-set marginal's purity {purity(full)}"
        )
    return g


def _certificate(
    marginals: MarginalSet,
    theorem: str,
    claimed_purity: float | None,
) -> CompatReport:
    """Bound the alternating purity sum of ``marginals``.

    The full-set term is the purity of a provided full-set marginal, otherwise
    ``claimed_purity`` (already passed through ``checked_global_purity``), or
    the best case 1 when that is None.
    """
    n = marginals.shape.n_parties
    needed = required_subsets(n)
    purities = {mask: purity(op) for mask, op in marginals.entries.items()}
    global_purity = purities.get(marginals.shape.full_mask(), claimed_purity)
    recorded_purity: float | str = global_purity
    if global_purity is None:
        global_purity, recorded_purity = 1.0, BEST_CASE
    missing = tuple(m for m in needed if m not in purities)
    lhs = lhs_proper = slack = None
    verdict = VERDICT_INCONCLUSIVE
    if not missing:
        lhs_proper = _signed_sum((mask.bits, purities[mask]) for mask in needed)
        full_sign = 1.0 if n % 2 == 1 else -1.0
        lhs = lhs_proper + full_sign * global_purity
        slack = 1.0 - lhs
        verdict = VERDICT_INCOMPATIBLE if slack < -TOL_VERDICT else VERDICT_CONSISTENT
    return CompatReport(
        theorem,
        marginals.shape.dims,
        lhs,
        lhs_proper,
        slack,
        verdict,
        purities,
        missing,
        recorded_purity,
    )


def theorem1_check(marginals: MarginalSet) -> CompatReport:
    """Certificate against a common global *pure* state (full-set purity fixed at 1).

    A provided full-set marginal must then be pure within TOL_INPUT.
    """
    g = checked_global_purity(marginals, 1.0, "global purity")
    return _certificate(marginals, "theorem1", g)


def theorem2_check(
    marginals: MarginalSet, global_purity: float | None = None
) -> CompatReport:
    """Certificate against a common global state of an even party count.

    A provided full-set marginal fixes the global purity. Otherwise, when
    ``global_purity`` is omitted, the compatibility-friendliest value 1 is
    assumed and recorded as "best-case"; the verdict can then only be
    looser, never stricter. A supplied value must lie in [1/D, 1].
    """
    n = marginals.shape.n_parties
    if n % 2 == 1:
        raise ValueError("this certificate requires an even party count")
    if global_purity is not None:
        global_purity = checked_global_purity(marginals, global_purity, "global purity")
    return _certificate(marginals, "theorem2", global_purity)


@dataclass(frozen=True)
class MarginalMismatch:
    """A pair of provided marginals that disagree under partial trace."""

    subset: SubsetMask
    superset: SubsetMask
    max_deviation: float


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
            # Bit k of rel is set when the k-th party of big is in small.
            rel = sum(1 << k for k, p in enumerate(big.parties) if small.bits >> p & 1)
            reduced = partial_trace(marginals.entries[big], SubsetMask(rel, big.cardinality))
            dev = float(np.max(np.abs(reduced.entries - marginals.entries[small].entries)))
            if dev > TOL_INPUT:
                out.append(MarginalMismatch(small, big, dev))
    return out


def self_check(rho: Operator) -> CompatReport:
    """Certificate of a known global state against its own marginals.

    Validates ``rho``, then runs the even-N certificate with the true global
    purity; any valid state must come out with nonnegative slack up to numerics.
    """
    if rho.shape.n_parties % 2 == 1:
        raise ValueError("this certificate requires an even party count")
    _require_density(rho, "self_check needs a valid density matrix")
    return theorem2_check(MarginalSet.from_global(rho), global_purity=purity(rho))
