"""Monogamy inequalities for squared I-concurrence and disorder relations.

Both families rearrange the even-N compatibility condition: the monogamy sums
range over subsets A of a chosen even-size index set, each concurrence cut against
the full complement of A; the disorder relation compares even- against odd-subset
linear-entropy sums. A report stores its slack, and ``measures._holds`` of it decides.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import measures
from .hilbert import Operator, PureState, SubsetMask, _check_mask
from .measures import _holds, _split_sum, purity_table


def _submasks(bits: int) -> list[int]:
    """All submasks of ``bits`` including 0, ascending."""
    out = []
    sub = 0
    while True:
        out.append(sub)
        if sub == bits:
            return out
        sub = (sub - bits) & bits


@dataclass(frozen=True)
class MonogamyReport:
    """One monogamy inequality over an even-size index set."""

    index_set: SubsetMask
    lhs: float
    rhs: float
    slack: float  # lhs - rhs
    holds: bool


def _corollary1(table, index_set: SubsetMask) -> MonogamyReport:
    """The report from ``table[bits]``, which needs only the submasks of the index set."""
    full = (1 << index_set.n_parties) - 1
    lhs, rhs = _split_sum(
        (bits, 0.0 if bits == 0 or bits == full else 2.0 * (1.0 - table[bits]))
        for bits in _submasks(index_set.bits)
    )
    slack = lhs - rhs
    return MonogamyReport(index_set, lhs, rhs, slack, _holds(slack))


def corollary1_check(psi: PureState, index_set: SubsetMask) -> MonogamyReport:
    """Check sum of odd-|A| concurrences >= sum of even-|A| concurrences.

    A ranges over the subsets of ``index_set``; each squared concurrence cuts
    A against all remaining parties of the global state, and vanishes by
    convention for A empty or equal to the full party set. Only the submasks
    of ``index_set`` are evaluated, by the table's kernel ``marginal_purity``,
    so the report equals the matching one of ``corollary1_scan``.
    """
    _check_mask(psi.shape, index_set)
    if index_set.cardinality < 2 or index_set.is_odd:
        raise ValueError("index set must have even cardinality >= 2")
    n = index_set.n_parties
    masks = _submasks(index_set.bits)
    table = {bits: measures.marginal_purity(psi, SubsetMask(bits, n)) for bits in masks}
    return _corollary1(table, index_set)


def corollary1_scan(psi: PureState) -> list[MonogamyReport]:
    """One report per even-cardinality index set with at least two parties."""
    n = psi.shape.n_parties
    table = purity_table(psi)
    return [
        _corollary1(table, SubsetMask(bits, n))
        for bits in range(1, 1 << n)
        if bits.bit_count() >= 2 and bits.bit_count() % 2 == 0
    ]


@dataclass(frozen=True)
class DisorderReport:
    """Even-subset versus odd-subset linear-entropy sums for an even party count."""

    lhs: float
    rhs: float
    slack: float  # rhs - lhs
    holds: bool


def disorder_check(rho: PureState | Operator) -> DisorderReport:
    """Check that global-plus-even-subset disorder is bounded by odd-subset disorder.

    lhs sums D(rho_A) = 1 - Tr rho_A^2 over nonempty even subsets including
    the full set; rhs sums it over odd subsets. A pure state is read through
    its marginals without forming the global density; an operator is taken as
    given, not checked as a density matrix.
    """
    if rho.shape.n_parties % 2 == 1:
        raise ValueError("disorder relation requires an even party count")
    table = purity_table(rho)
    rhs, lhs = _split_sum((bits, 1.0 - table[bits]) for bits in range(1, len(table)))
    slack = rhs - lhs
    return DisorderReport(lhs, rhs, slack, _holds(slack))
