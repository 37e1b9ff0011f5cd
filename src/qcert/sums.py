"""The ordered sums over ``(mask, value)`` terms and the one verdict rule.

Every paper sum (E by partitions or by subset sum, the certificate's alternating sum, the
monogamy and disorder reports) adds its terms one at a time in the order given, through
``_split_sum`` or ``_signed_sum``. Every verdict is ``_holds`` of the slack its report prints.
"""

from __future__ import annotations

from .config import TOL_VERDICT


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


def _holds(slack: float) -> bool:
    """Whether a check holds, from the one slack its report prints; a NaN fails."""
    return slack >= -TOL_VERDICT
