"""Dicke states against their exact subset purities, computed with fractions.

A Dicke state's purity table depends only on the subset size, so
``conftest.dicke_purities`` gives every entry exactly, from binomial weights
alone and without any state. The exact symmetric E is 1 at half filling and 0
otherwise; for a pure state the disorder slack equals E.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from conftest import dicke_purities, dicke_state
from qcert import disorder_check, purity_table
from qcert.measures import _e_subset_sum


def exact_e(n: int, m: int) -> Fraction:
    """2 + sum over proper sizes k of (-1)^k C(n, k) P_k: E by subset sums, exactly."""
    p = dicke_purities(n, m)
    return 2 + sum((-1) ** k * math.comb(n, k) * p[k] for k in range(1, n))


@pytest.mark.parametrize("n", range(2, 15, 2))
def test_exact_e_is_one_at_half_filling_and_zero_otherwise(n):
    assert [exact_e(n, m) for m in range(n + 1)] == [int(2 * m == n) for m in range(n + 1)]


@pytest.mark.parametrize("n", range(1, 11))
def test_purity_table_disorder_slack_and_e_match_the_exact_values(n):
    for m in range(n + 1):
        psi = dicke_state(n, m)
        table = purity_table(psi)
        exact = [float(p) for p in dicke_purities(n, m)]
        assert max(abs(v - exact[bits.bit_count()]) for bits, v in enumerate(table)) <= 1e-14
        if n % 2 == 0:
            e = float(exact_e(n, m))
            assert abs(disorder_check(psi).slack - e) <= 1e-10
            assert abs(_e_subset_sum(table) - e) <= 1e-10
