"""The correctly rounded sums over ``(mask, value)`` terms and the one verdict rule.

Every paper sum (E by partitions or by subset sum, the certificate's alternating sum, the
monogamy and disorder reports) is ``math.fsum`` of its terms, the exact sum rounded once in any
order, through ``_split_sum`` or ``_signed_sum``. Every verdict is ``_holds`` of its slack.
"""

from __future__ import annotations

import math

from .config import TOL_VERDICT


def _split_sum(terms) -> tuple[float, float]:
    """Correctly rounded sums of the ``(mask, value)`` terms of odd and of even mask size."""
    odd, even = [], []
    for bits, value in terms:
        (odd if bits.bit_count() & 1 else even).append(value)
    return math.fsum(odd), math.fsum(even)


def _signed_sum(terms) -> float:
    """Correctly rounded sum of the ``(mask, value)`` terms, negated for an even mask size."""
    return math.fsum(value if bits.bit_count() & 1 else -value for bits, value in terms)


def _holds(slack: float) -> bool:
    """Whether a check holds, from the one slack its report prints; a NaN fails."""
    return slack >= -TOL_VERDICT
