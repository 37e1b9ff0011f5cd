"""The purity table against the per-subset loops it replaced.

The reference functions below are the loops that the per-subset purities
of ``measure_all``, its partition and subset-sum routes, ``corollary1_check``
and ``disorder_check`` ran before every subset quantity read one table, the
certificate's own signed loop, and the swap contraction ``expectation_pure``
ran before it became one pass of the pair-projector kernel. The table
and the two sums over it must give the same floats bit for bit: each
reference sums its own terms with ``math.fsum``, which rounds the exact sum
once, so the order of the terms does not matter. The package's partition
route is reached through ``measure_all``, which has no per-route wrapper.
The partition reference walks its own enumerator of the bipartitions, so it
shares no code with the package.

The last tests check, within 1e-12, that E and the disorder, certificate and
monogamy slacks are Walsh coefficients of the table, each summed by an
explicit loop over submasks rather than by a butterfly.
"""

from __future__ import annotations

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    NAIVE_TRACE_MAX_DIM,
    SETTINGS,
    all_patterns,
    apply_local_unitary,
    assert_same_float,
    mapped_mask,
    marginal_set,
    naive_partial_trace,
    permute_parties,
    random_unitary,
    seeds,
    shapes,
)
from qcert import (
    MarginalSet,
    Operator,
    PureState,
    SpaceShape,
    SubsetMask,
    corollary1_check,
    corollary1_scan,
    disorder_check,
    entanglement_E_subset_sum,
    ghz_state,
    i_concurrence_sq,
    marginal_purity,
    measure_all,
    partial_trace,
    purity,
    purity_table,
    random_mixed,
    random_pure,
    required_subsets,
    self_check,
    theorem2_check,
)
from qcert.compatibility import _certificate
from qcert.monogamy import _submasks
from qcert.observables import expectation_pure


# --- reference loops ---------------------------------------------------------

def frozen_marginal_purity(psi: PureState, subset: SubsetMask) -> float:
    """``marginal_purity`` as it was before the table computed each cut once.

    It walks ``SubsetMask.parties`` and ``complement()`` and sizes the kept
    block with ``np.prod``; the package's kernel must give the same floats.
    """
    amp = psi.amplitudes
    if subset.is_empty or subset.is_full:
        nrm2 = float(np.vdot(amp, amp).real)
        return nrm2 * nrm2
    n = psi.shape.n_parties
    side = subset if 2 * subset.cardinality <= n else subset.complement()
    kept = side.parties
    rest = side.complement().parties
    t = amp.reshape(psi.shape.dims)
    m = np.transpose(t, kept + rest).reshape(
        int(np.prod([psi.shape.dims[p] for p in kept])), -1
    )
    g = m @ m.conj().T
    return float(np.einsum("ab,ba->", g, g).real)


def ref_subset_purities(psi: PureState) -> dict[SubsetMask, float]:
    n = psi.shape.n_parties
    full = (1 << n) - 1
    return {
        SubsetMask(bits, n): marginal_purity(psi, SubsetMask(bits, n))
        for bits in range(1, full)
    }


def ref_bipartitions(n: int) -> list[tuple[SubsetMask, str]]:
    """Every unordered bipartition of an even party count as (block holding party 0, class).

    The class is "P_I" when both blocks are odd and "P_II" when both are even.
    """
    if n < 2:
        raise ValueError("need at least 2 parties")
    if n % 2 == 1:
        raise ValueError("partition classes undefined for odd N")
    parts = []
    for bits in range(1, (1 << n) - 1):
        if bits & 1:
            block = SubsetMask(bits, n)
            parts.append((block, "P_I" if block.is_odd else "P_II"))
    return parts


def ref_E_partitions(psi: PureState) -> float:
    n = psi.shape.n_parties
    s_global = 1.0 - marginal_purity(psi, psi.shape.full_mask())
    terms = []
    for block, partition_class in ref_bipartitions(n):
        s = (
            (1.0 - marginal_purity(psi, block))
            + (1.0 - marginal_purity(psi, block.complement()))
            - s_global
        )
        terms.append(s if partition_class == "P_I" else -s)
    return math.fsum(terms)


def ref_E_subset_sum(psi: PureState) -> float:
    odd, even = [], []
    for mask, p in ref_subset_purities(psi).items():
        (odd if mask.is_odd else even).append(p)
    return 2.0 - math.fsum(odd) + math.fsum(even)


def ref_corollary1(psi: PureState, index_set: SubsetMask) -> tuple[float, float]:
    n = psi.shape.n_parties
    lhs, rhs = [], []
    for bits in _submasks(index_set.bits):
        sub = SubsetMask(bits, n)
        (lhs if sub.is_odd else rhs).append(i_concurrence_sq(psi, sub))
    return math.fsum(lhs), math.fsum(rhs)


def ref_disorder(rho: Operator) -> tuple[float, float]:
    n = rho.shape.n_parties
    lhs, rhs = [], []
    for bits in range(1, 1 << n):
        sub = SubsetMask(bits, n)
        (rhs if sub.is_odd else lhs).append(1.0 - purity(partial_trace(rho, sub)))
    return math.fsum(lhs), math.fsum(rhs)


def ref_certificate(marginals: MarginalSet, claimed_purity: float | None):
    """(lhs, lhs_proper, slack) of the certificate, None for each when incomplete."""
    n = marginals.shape.n_parties
    needed = required_subsets(n)
    purities = {mask: purity(op) for mask, op in marginals.entries.items()}
    full = marginals.shape.full_mask()
    if full in purities:
        global_purity = purities[full]
    elif claimed_purity is None:
        global_purity = 1.0
    else:
        global_purity = claimed_purity
    if any(m not in purities for m in needed):
        return None, None, None
    lhs_proper = math.fsum(purities[m] if m.is_odd else -purities[m] for m in needed)
    full_sign = 1.0 if n % 2 == 1 else -1.0
    lhs = lhs_proper + full_sign * global_purity
    return lhs, lhs_proper, 1.0 - lhs


def ref_expectation_pure(psi: PureState, pattern: SubsetMask) -> float:
    dims = psi.shape.dims
    n = len(dims)
    phi = np.kron(psi.amplitudes, psi.amplitudes).reshape(dims + dims)
    work = phi
    for i in range(n):
        swapped = np.swapaxes(work, i, n + i)
        work = 0.5 * (work - swapped) if pattern.contains(i) else 0.5 * (work + swapped)
    return math.fsum((phi.real * work.real + phi.imag * work.imag).flat)


# --- the reference enumerator ------------------------------------------------

class TestPartitionEnumeration:
    def test_two_parties(self):
        parts = ref_bipartitions(2)
        assert len(parts) == 1
        assert parts[0][0].parties == (0,)
        assert parts[0][1] == "P_I"

    @pytest.mark.parametrize(
        "n,total,n_odd,n_even", [(4, 7, 4, 3), (6, 31, 16, 15)]
    )
    def test_counts(self, n, total, n_odd, n_even):
        parts = ref_bipartitions(n)
        assert len(parts) == total
        classes = [partition_class for _, partition_class in parts]
        assert classes.count("P_I") == n_odd
        assert classes.count("P_II") == n_even
        # Every GHZ bipartition has mutual information 1, so E counts P_I minus P_II.
        assert abs(measure_all(ghz_state(n), "partitions").values["partitions"]
                   - (n_odd - n_even)) < 1e-10

    def test_canonical_block_contains_party_zero(self):
        assert all(block.contains(0) for block, _ in ref_bipartitions(4))

    def test_odd_party_count_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            ref_bipartitions(3)
        with pytest.raises(ValueError, match="odd"):
            measure_all(ghz_state(3), "partitions")


# --- the table itself ----------------------------------------------------------

# Qubits, qutrits and mixed dims for N = 1..8, both parities.
KERNEL_SHAPES = list(dict.fromkeys(
    dims
    for n in range(1, 9)
    for dims in ((2,) * n, (3,) * n, (2, 3) * (n // 2) + (3,) * (n % 2))
))


class TestKernelBits:
    """The kernel and the table against the frozen kernel, every mask, ``==``."""

    @pytest.mark.parametrize("seed", [3, 29])
    @pytest.mark.parametrize("dims", KERNEL_SHAPES, ids=lambda d: "x".join(map(str, d)))
    def test_every_mask_equals_the_frozen_kernel(self, dims, seed):
        psi = random_pure(SpaceShape(dims), seed)
        n = len(dims)
        expected = [frozen_marginal_purity(psi, SubsetMask(bits, n)) for bits in range(1 << n)]
        assert [marginal_purity(psi, SubsetMask(bits, n)) for bits in range(1 << n)] == expected
        assert purity_table(psi) == expected


class TestTable:
    def test_layout(self):
        psi = random_pure(SpaceShape((2, 3, 2)), 4)
        table = purity_table(psi)
        assert len(table) == 8
        assert all(isinstance(p, float) for p in table)
        assert abs(table[0] - 1.0) < 1e-12
        assert abs(table[7] - 1.0) < 1e-12
        assert table[5] == marginal_purity(psi, SubsetMask(5, 3))

    def test_operator_layout(self):
        rho = random_mixed(SpaceShape((2, 2, 3)), 3, 2)
        table = purity_table(rho)
        assert len(table) == 8
        assert abs(table[0] - 1.0) < 1e-12
        assert table[7] == purity(rho)
        assert table[3] == purity(partial_trace(rho, SubsetMask(3, 3)))

    @SETTINGS
    @given(shapes(), seeds)
    def test_complement_symmetry_of_pure_states(self, shape, seed):
        table = purity_table(random_pure(shape, seed))
        full = len(table) - 1
        for bits in range(len(table)):
            assert abs(table[bits] - table[full ^ bits]) <= 1e-12

    @SETTINGS
    @given(shapes(max_dim=NAIVE_TRACE_MAX_DIM), seeds)
    def test_complement_symmetry_against_the_oracle(self, shape, seed):
        # P[A] = P[complement of A] for a pure state, each side traced on its own
        # by the oracle's index loops rather than read from the table.
        psi = random_pure(shape, seed)
        n = shape.n_parties
        full = (1 << n) - 1
        naive = [purity(naive_partial_trace(psi.density(), SubsetMask(bits, n)))
                 for bits in range(full + 1)]
        table = purity_table(psi)
        for bits in range(full + 1):
            assert abs(naive[bits] - table[bits]) <= 1e-12
            assert abs(naive[full ^ bits] - table[bits]) <= 1e-12

    @SETTINGS
    @given(st.data(), shapes(), seeds)
    def test_invariant_under_permute_parties(self, data, shape, seed):
        perm = data.draw(st.permutations(range(shape.n_parties)))
        psi = random_pure(shape, seed)
        states = [psi]
        if shape.total_dim <= 48:
            states.append(random_mixed(shape, min(3, shape.total_dim), seed))
        for state in states:
            table = purity_table(state)
            moved = purity_table(permute_parties(state, perm))
            for bits in range(len(table)):
                assert abs(moved[mapped_mask(bits, perm)] - table[bits]) <= 1e-12

    @SETTINGS
    @given(st.data(), shapes(), seeds)
    def test_invariant_under_local_unitary(self, data, shape, seed):
        party = data.draw(st.integers(0, shape.n_parties - 1))
        psi = random_pure(shape, seed)
        u = random_unitary(shape.dims[party], seed)
        table = purity_table(psi)
        rotated = purity_table(apply_local_unitary(psi, party, u))
        for a, b in zip(table, rotated):
            assert abs(a - b) <= 1e-12


# --- readers of the table against the old loops ------------------------------

class TestBitEqualToOldLoops:
    # The oracle is kept out of "all" here; TestAgainstOracle checks it. The
    # patch is a context manager: hypothesis refuses function-scoped fixtures.
    @SETTINGS
    @given(shapes(even=True), seeds)
    def test_measure_routes(self, shape, seed):
        psi = random_pure(shape, seed)
        ref_partitions = ref_E_partitions(psi)
        ref_subset_sum = ref_E_subset_sum(psi)
        assert measure_all(psi, "partitions").values["partitions"] == ref_partitions
        assert entanglement_E_subset_sum(psi) == ref_subset_sum
        with mock.patch("qcert.oracle.exhaustive_fits", return_value=False):
            rep = measure_all(psi)
        assert rep.values["oracle"] is None
        assert rep.values["partitions"] == ref_partitions
        assert rep.values["subset_sum"] == ref_subset_sum
        assert rep.per_subset_purities == ref_subset_purities(psi)

    @SETTINGS
    @given(shapes(), seeds)
    def test_subset_purities(self, shape, seed):
        psi = random_pure(shape, seed)
        ref = ref_subset_purities(psi)
        with mock.patch("qcert.oracle.exhaustive_fits", return_value=False):
            rep = measure_all(psi)
        assert rep.values["oracle"] is None
        purities = rep.per_subset_purities
        assert purities == ref
        assert list(purities) == list(ref)

    @SETTINGS
    @given(shapes(min_parties=2), seeds)
    def test_monogamy(self, shape, seed):
        psi = random_pure(shape, seed)
        reports = corollary1_scan(psi)
        assert reports
        for rep in reports:
            assert (rep.lhs, rep.rhs) == ref_corollary1(psi, rep.index_set)
            single = corollary1_check(psi, rep.index_set)
            assert (single.lhs, single.rhs) == (rep.lhs, rep.rhs)

    @SETTINGS
    @given(shapes(max_dim=48, even=True), st.integers(1, 6), seeds)
    def test_operator_disorder(self, shape, rank, seed):
        rho = random_mixed(shape, min(rank, shape.total_dim), seed)
        rep = disorder_check(rho)
        assert (rep.lhs, rep.rhs) == ref_disorder(rho)

    @SETTINGS
    @given(shapes(max_dim=48, even=True), seeds)
    def test_pure_disorder_skips_the_density(self, shape, seed):
        psi = random_pure(shape, seed)
        rep = disorder_check(psi)
        lhs, rhs = ref_disorder(psi.density())
        assert abs(rep.lhs - lhs) <= 1e-12
        assert abs(rep.rhs - rhs) <= 1e-12


    @SETTINGS
    @given(st.data(), shapes(min_parties=2, max_dim=48), st.integers(1, 6), seeds)
    def test_certificate(self, data, shape, rank, seed):
        rho = random_mixed(shape, min(rank, shape.total_dim), seed)
        entries = dict(marginal_set(rho).entries)
        if data.draw(st.booleans(), label="full-set marginal"):
            entries[shape.full_mask()] = rho
        masks = sorted(entries, key=lambda m: m.bits)
        for mask in data.draw(st.lists(st.sampled_from(masks), max_size=2), label="missing"):
            entries.pop(mask, None)
        marginals = MarginalSet(shape, entries)
        claimed = data.draw(st.sampled_from([None, purity(rho)]), label="claim")
        ref = ref_certificate(marginals, claimed)
        purities = {mask.bits: purity(op) for mask, op in marginals.entries.items()}
        rep = _certificate(shape.dims, purities, claimed, "theorem2")
        assert (rep.lhs, rep.lhs_proper, rep.slack) == ref
        if shape.n_parties % 2 == 0:
            rep = theorem2_check(marginals, claimed)
            assert (rep.lhs, rep.lhs_proper, rep.slack) == ref

    @SETTINGS
    @given(shapes(max_dim=48), seeds, st.integers(0, 47))
    def test_expectation_pure(self, shape, seed, k):
        basis = np.zeros(shape.total_dim, dtype=complex)
        basis[k % shape.total_dim] = -1.0
        for psi in (random_pure(shape, seed), PureState(shape, basis)):
            for pattern in all_patterns(shape.n_parties):
                ref = ref_expectation_pure(psi, pattern)
                assert_same_float(expectation_pure(psi, pattern), ref)


class TestAgainstOracle:
    @SETTINGS
    @given(shapes(max_dim=96, even=True), seeds)
    def test_table_routes_match_exhaustive_E(self, shape, seed):
        rep = measure_all(random_pure(shape, seed))
        e = rep.values["oracle"]
        assert abs(rep.values["partitions"] - e) <= 1e-10
        assert abs(rep.values["subset_sum"] - e) <= 1e-10


# --- Walsh coefficients of the table -------------------------------------------

def walsh(table: list[float], s_bits: int, t_bits: int) -> float:
    """W_S[T] = sum over A inside S of (-1)^|A & T| P[A], with P[empty] read as 1."""
    p = [1.0, *table[1:]]
    return sum(-p[a] if (a & t_bits).bit_count() & 1 else p[a]
               for a in range(len(p)) if not a & ~s_bits)


class TestWalshIdentities:
    @SETTINGS
    @given(st.data(), shapes(even=True), seeds)
    def test_checks_read_walsh_coefficients(self, data, shape, seed):
        full = (1 << shape.n_parties) - 1
        rho = random_mixed(shape, data.draw(st.integers(1, shape.total_dim), label="rank"), seed)
        w_full = walsh(purity_table(rho), full, full)
        assert abs(disorder_check(rho).slack - w_full) <= 1e-12
        assert abs(self_check(rho).slack - w_full) <= 1e-12
        psi = random_pure(shape, seed)
        table = purity_table(psi)
        e = measure_all(psi, "subset-sum").values["subset_sum"]
        assert abs(e - walsh(table, full, full)) <= 1e-12
        for rep in corollary1_scan(psi):
            s_bits = rep.index_set.bits
            assert abs(rep.slack - 2.0 * walsh(table, s_bits, s_bits)) <= 1e-12
