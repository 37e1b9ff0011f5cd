"""Dicke states against their exact subset purities, computed with fractions.

A Dicke state's purity table depends only on the subset size, so
``conftest.dicke_purities`` gives every entry exactly, from binomial weights
alone and without any state. The exact symmetric E is 1 at half filling and 0
otherwise; for a pure state the disorder slack equals E. Rounded to float, the
same purities feed the checks directly as a table, at sizes no state is built for.
"""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from conftest import dicke_purities, dicke_state
from qcert import SubsetMask, disorder_check, purity_table
from qcert.config import TOL_ROUTE
from qcert.measures import _e_partitions, _e_subset_sum
from qcert.monogamy import _corollary1, _disorder


def exact_e(n: int, m: int) -> Fraction:
    """2 + sum over proper sizes k of (-1)^k C(n, k) P_k: E by subset sums, exactly."""
    p = dicke_purities(n, m)
    return 2 + sum((-1) ** k * math.comb(n, k) * p[k] for k in range(1, n))


def exact_split(n: int, term) -> tuple[Fraction, Fraction]:
    """Exact sums, over the odd and over the even sizes k >= 1, of C(n, k) copies of term(k)."""
    return tuple(
        sum(math.comb(n, k) * Fraction(term(k)) for k in range(first, n + 1, 2))
        for first in (1, 2)
    )


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


@pytest.mark.parametrize("n", (16, 18, 20))
def test_float_tables_give_no_false_violation(n):
    """Every exact slack and E of D(n, m) is 0 for m = 1 .. n/2 - 1; float sums must not flip it.

    Each slack is within ulp(max(|lhs|, |rhs|)) of the exact sum of its float terms:
    both sums are rounded once and their difference is exact. Corollary 1 on [N]
    runs up to n = 18 only, since at n = 20 it would add about 3 s.
    """
    full = (1 << n) - 1
    sizes = [bits.bit_count() for bits in range(full + 1)]
    for m in range(1, n // 2):
        p = [float(x) for x in dicke_purities(n, m)]
        table = [p[k] for k in sizes]
        checks = [(_disorder(table), lambda k: 1.0 - p[k])]
        if n <= 18:
            checks.append((
                _corollary1(table, SubsetMask(full, n)),
                lambda k: 0.0 if k == n else 2.0 * (1.0 - p[k]),
            ))
        for rep, term in checks:
            odd, even = exact_split(n, term)
            assert rep.holds, (m, rep)
            assert abs(rep.slack - (odd - even)) <= math.ulp(max(abs(rep.lhs), abs(rep.rhs))), m
        assert abs(_e_partitions(table) - _e_subset_sum(table)) <= TOL_ROUTE, m
