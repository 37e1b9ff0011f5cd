"""The correctly rounded sums over subset masks and the one verdict rule.

Every paper sum (E by partitions or by subset sum, the certificate's alternating sum, the
monogamy and disorder reports) is ``math.fsum`` of its terms, the exact sum rounded once in any
order, through ``_split_sum`` or ``_signed_sum``. Every verdict is ``_holds`` of its slack.
"""

from __future__ import annotations

import math
from collections.abc import Iterator, Sequence

from .config import TOL_VERDICT


def _split_sum(masks: Sequence[int], value) -> tuple[float, float]:
    """Correctly rounded sums of ``value(bits)`` over the ``masks`` of odd and of even size.

    ``masks`` is walked once per parity, each walk feeding its own ``math.fsum``, so
    neither sum holds its terms; a one-pass iterator would leave the even sum empty.
    """
    if isinstance(masks, Iterator):
        raise TypeError("_split_sum walks masks twice; pass a sequence such as a range")
    return (
        math.fsum(value(bits) for bits in masks if bits.bit_count() & 1),
        math.fsum(value(bits) for bits in masks if not bits.bit_count() & 1),
    )


def _signed_sum(terms) -> float:
    """Correctly rounded sum of the ``(mask, value)`` terms, negated for an even mask size."""
    return math.fsum(value if bits.bit_count() & 1 else -value for bits, value in terms)


def _holds(slack: float) -> bool:
    """Whether a check holds, from the one slack its report prints; a NaN fails."""
    return slack >= -TOL_VERDICT
