"""Marginal-set certificates and consistency prechecks."""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import SETTINGS, marginal_set, mask, seeds, shapes
from qcert import compatibility, hilbert
from qcert import (
    MarginalSet,
    Operator,
    SpaceShape,
    SubsetMask,
    consistency_precheck,
    entanglement_E_subset_sum,
    ghz_state,
    partial_trace,
    product_state,
    purity,
    random_mixed,
    random_pure,
    required_subsets,
    self_check,
    theorem1_check,
    theorem2_check,
    w_state,
)
from qcert.cli import dumps, eq8_marginal_file, parse_marginal_dict
from qcert.compatibility import _certificate
from qcert.hilbert import _reduced_matrix


def eq8_set() -> MarginalSet:
    marginals, _ = parse_marginal_dict(json.loads(dumps(eq8_marginal_file())))
    return marginals


class TestTheorem1:
    def test_w4_saturates_with_zero_slack(self):
        rep = theorem1_check(marginal_set(w_state(4).density()))
        assert rep.verdict == "consistent"
        assert abs(rep.lhs - 1.0) < 1e-9
        assert abs(rep.slack) < 1e-9

    def test_product_state_saturates(self):
        psi = product_state([random_pure(SpaceShape((2,)), s) for s in range(4)])
        rep = theorem1_check(marginal_set(psi.density()))
        assert abs(rep.lhs - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_marginals_never_violate(self, seed):
        psi = random_pure(SpaceShape((2, 2, 2, 2)), seed)
        rep = theorem1_check(marginal_set(psi.density()))
        assert rep.lhs <= 1.0 + 1e-9
        assert rep.verdict == "consistent"

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 2, 3)])
    def test_lhs_complements_the_measure(self, dims):
        # Certificate side uses operator partial traces; the measure side
        # contracts the state directly. The two must mirror each other.
        psi = random_pure(SpaceShape(dims), 17)
        rep = theorem1_check(marginal_set(psi.density()))
        assert abs(rep.lhs - (1.0 - entanglement_E_subset_sum(psi))) < 1e-9

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2, 2)])
    def test_odd_party_alternating_sum_is_exactly_one(self, dims):
        psi = random_pure(SpaceShape(dims), 23)
        rep = theorem1_check(marginal_set(psi.density()))
        assert abs(rep.lhs - 1.0) < 1e-10


class TestTheorem2:
    def test_eq8_set_is_incompatible(self):
        rep = theorem2_check(eq8_set())
        assert rep.verdict == "incompatible"
        assert abs(rep.lhs_proper - 26 / 9) < 1e-9
        assert rep.assumed_global_purity == "best-case"
        singles = [rep.per_subset_purities[SubsetMask(1 << k, 4)] for k in range(4)]
        assert all(abs(p - 5 / 9) < 1e-9 for p in singles)

    def test_eq8_set_marginals_are_mutually_consistent(self):
        assert consistency_precheck(eq8_set()) == []

    def test_maximally_mixed_four_qubits(self):
        rho = Operator(SpaceShape((2, 2, 2, 2)), np.eye(16) / 16)
        rep = theorem2_check(marginal_set(rho), global_purity=1 / 16)
        assert rep.verdict == "consistent"
        assert abs(rep.lhs - 0.9375) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_true_global_purity_never_violates(self, seed):
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 5 + seed, seed)
        rep = theorem2_check(marginal_set(rho), global_purity=purity(rho))
        assert rep.slack >= -1e-9

    def test_best_case_only_loosens(self):
        rho = random_mixed(SpaceShape((2, 3, 2, 2)), 7, 4)
        marginals = marginal_set(rho)
        strict = theorem2_check(marginals, global_purity=purity(rho))
        loose = theorem2_check(marginals)
        assert loose.slack >= strict.slack - 1e-12

    def test_rejects_odd_party_count(self):
        rho = random_mixed(SpaceShape((2, 2, 2)), 4, 1)
        with pytest.raises(ValueError, match="even"):
            theorem2_check(marginal_set(rho))

    def test_missing_subsets_are_inconclusive(self):
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 4, 2)
        subsets = [m for m in required_subsets(4) if m != mask([0, 2], 4)]
        marginals = MarginalSet(rho.shape, {m: partial_trace(rho, m) for m in subsets})
        rep = theorem2_check(marginals)
        assert rep.verdict == "inconclusive"
        assert rep.missing_subsets == (mask([0, 2], 4),)
        assert rep.lhs is None and rep.slack is None


class TestConsistencyPrecheck:
    def test_marginals_of_one_state_are_consistent(self):
        rho = random_mixed(SpaceShape((2, 2, 3)), 6, 3)
        assert consistency_precheck(marginal_set(rho)) == []

    def test_detects_planted_mismatch(self):
        rho = w_state(3).density()
        entries = dict(marginal_set(rho).entries)
        # The true single-party marginal is diag(2/3, 1/3), not I/2.
        entries[mask([0], 3)] = Operator(SpaceShape((2,)), np.eye(2) / 2)
        violations = consistency_precheck(MarginalSet(rho.shape, entries))
        pairs = {(v.subset.parties, v.superset.parties) for v in violations}
        assert ((0,), (0, 1)) in pairs
        assert all(v.max_deviation > 1e-3 for v in violations)
        assert all(v.subset == mask([0], 3) for v in violations)

    def test_traces_each_nested_pair_once(self, monkeypatch):
        # 4 singles x 6 supersets + 6 pairs x 2 supersets among 14 proper marginals.
        calls = []

        def counted(m, dims, parties, keep):
            calls.append(keep)
            return _reduced_matrix(m, dims, parties, keep)

        marginals = marginal_set(random_mixed(SpaceShape((2, 2, 2, 2)), 3, 15))
        monkeypatch.setattr("qcert.compatibility._reduced_matrix", counted)
        assert consistency_precheck(marginals) == []
        assert len(calls) == 36

    def test_reduces_each_nested_pair_as_partial_trace_does(self, monkeypatch):
        # The kernel's matrix, over global labels, against partial_trace on the
        # superset's own 0..k-1 labels, with the relabelled mask built here.
        seen = []

        def recorded(m, dims, parties, keep):
            out = _reduced_matrix(m, dims, parties, keep)
            seen.append((parties, keep, out))
            return out

        rho = random_mixed(SpaceShape((2, 2, 3, 2)), 5, 16)
        marginals = marginal_set(rho)
        monkeypatch.setattr("qcert.compatibility._reduced_matrix", recorded)
        assert consistency_precheck(marginals) == []
        assert len(seen) == 36
        for parties, keep, out in seen:
            big = marginals.entries[SubsetMask.from_parties(parties, 4)]
            rel = sum(1 << k for k, p in enumerate(parties) if keep >> p & 1)
            expected = partial_trace(big, SubsetMask(rel, len(parties))).entries
            assert out.shape == expected.shape
            assert out.tobytes() == expected.tobytes()


class TestSelfCheck:
    def test_ghz4_slack(self):
        rep = self_check(ghz_state(4).density())
        assert abs(rep.lhs) < 1e-12
        assert abs(rep.slack - 1.0) < 1e-12

    def test_w4_saturates(self):
        rep = self_check(w_state(4).density())
        assert abs(rep.slack) < 1e-9

    @pytest.mark.parametrize("seed", range(3))
    def test_six_party_random_mixed(self, seed):
        rho = random_mixed(SpaceShape((2,) * 6, ), 9 + 11 * seed, seed)
        assert self_check(rho).slack >= -1e-9

    def test_rejects_odd_party_count(self):
        with pytest.raises(ValueError, match="even"):
            self_check(random_mixed(SpaceShape((2, 2, 2)), 2, 0))

    def test_rejects_a_matrix_that_is_not_a_density_matrix(self):
        # Every proper marginal is I/2^k, valid, but the global matrix is not.
        zzzz = np.diag([(-1.0) ** bin(i).count("1") for i in range(16)])
        rho = Operator(SpaceShape((2, 2, 2, 2)), np.eye(16) / 16 + 0.1 * zzzz)
        with pytest.raises(ValueError) as err:
            self_check(rho)
        assert str(err.value) == (
            "self_check needs a valid density matrix: hermiticity deviation 0, "
            "trace deviation 0, min eigenvalue -0.0375 (tol 1e-08)"
        )


class TestSelfCheckFeed:
    @SETTINGS
    @given(st.data(), shapes(even=True), seeds)
    def test_equals_the_marginal_set_route(self, data, shape, seed):
        rho = random_mixed(shape, data.draw(st.integers(1, shape.total_dim), label="rank"), seed)
        assert self_check(rho) == theorem2_check(marginal_set(rho), purity(rho))

    def test_validates_the_state_once(self, monkeypatch):
        checked = []
        validate = hilbert.validate_density

        def counted(op):
            checked.append(op)
            return validate(op)

        monkeypatch.setattr(hilbert, "validate_density", counted)
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 3, 4)
        self_check(rho)
        assert len(checked) == 1 and checked[0] is rho
        marginal_set(rho)  # the marginal-set route validates every proper marginal
        assert len(checked) == 1 + 14


class TestPurityMapCore:
    @pytest.mark.parametrize("n", range(2, 15))
    def test_ame_qubit_tables_under_the_pure_claim(self, n):
        # The table a hypothetical AME(n,2) state would have, with no matrices behind it.
        table = {bits: 2.0 ** -min(bits.bit_count(), n - bits.bit_count())
                 for bits in range(1, (1 << n) - 1)}
        rep = _certificate((2,) * n, table, 1.0, "theorem1")
        lhs = sum((-1) ** (k + 1) * comb(n, k) * Fraction(1, 2 ** min(k, n - k))
                  for k in range(1, n))
        exact = 1 - (lhs + (-1) ** (n + 1))
        assert Fraction(rep.slack) == exact
        if n % 2 == 1:
            assert exact == 0
        # n = 4 is the known non-existence of AME(4,2) (Higuchi and Sudbery, Phys.
        # Lett. A 273, 213 (2000)). This one inequality does not reach n = 10 or 14.
        expected = {4: Fraction(-1, 2), 8: Fraction(-13, 8), 12: Fraction(-83, 16)}
        assert (rep.verdict == "incompatible") == (n in expected)
        if n in expected:
            assert exact == expected[n]

    def test_claim_over_more_than_the_state_cap(self):
        # The claim is checked against 1/D alone; no shape, and so no state cap, applies.
        dims = (1025, 1025)
        rep = _certificate(dims, {}, 1.0, "theorem1")
        assert rep.verdict == "inconclusive" and rep.assumed_global_purity == 1.0
        assert [list(m.parties) for m in rep.missing_subsets] == [[0], [1]]
        with pytest.raises(ValueError) as err:
            _certificate(dims, {}, 2.0, "theorem1")
        assert str(err.value) == (
            f"global purity must lie in [1/D, 1] = [{1 / 1050625}, 1], got 2.0"
        )


class TestMarginalSetValidation:
    def test_holds_claimed_matrices_only(self):
        # The package builds no marginal set from a state; self_check reads its table.
        assert not hasattr(MarginalSet, "from_global")
        assert not hasattr(compatibility, "partial_trace")

    def test_rejects_non_density_entry(self):
        shape = SpaceShape((2, 2))
        bad = Operator(SpaceShape((2,)), [[0.9, 0.4], [0.4, 0.1]])
        with pytest.raises(ValueError, match="density"):
            MarginalSet(shape, {mask([0], 2): bad})

    def test_rejects_dimension_mismatch(self):
        shape = SpaceShape((2, 3))
        wrong = Operator(SpaceShape((2,)), np.eye(2) / 2)
        with pytest.raises(ValueError, match="dims"):
            MarginalSet(shape, {mask([1], 2): wrong})

    def test_rejects_empty_key(self):
        shape = SpaceShape((2, 2))
        with pytest.raises(ValueError):
            MarginalSet(shape, {SubsetMask(0, 2): Operator(SpaceShape(()), [[1.0]])})

    def test_accepts_redundant_full_set_entry(self):
        rho = random_mixed(SpaceShape((2, 2)), 2, 7)
        entries = dict(marginal_set(rho).entries)
        entries[mask([0, 1], 2)] = rho
        marginals = MarginalSet(rho.shape, entries)
        assert consistency_precheck(marginals) == []
        rep = theorem2_check(marginals, global_purity=purity(rho))
        assert rep.slack >= -1e-9


def with_full_marginal(rho, full=None) -> MarginalSet:
    """Every proper marginal of ``rho`` plus ``full`` (default rho) on all parties."""
    entries = dict(marginal_set(rho).entries)
    entries[rho.shape.full_mask()] = rho if full is None else full
    return MarginalSet(rho.shape, entries)


class TestGlobalPurityInput:
    def test_purity_below_one_over_d_rejected(self):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        with pytest.raises(ValueError, match=r"1/D"):
            theorem2_check(marginal_set(rho), 1e-9)

    def test_purity_exactly_one_over_d_accepted(self):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        rep = theorem2_check(marginal_set(rho), 1 / 4)
        assert rep.verdict == "consistent"
        assert rep.assumed_global_purity == 0.25
        assert abs(rep.slack - 0.25) < 1e-12

    def test_full_marginal_fixes_the_global_purity(self):
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 5, 11)
        rep = theorem2_check(with_full_marginal(rho))
        assert rep.assumed_global_purity == purity(rho)
        assert rep.slack == self_check(rho).slack
        assert rep.per_subset_purities[rho.shape.full_mask()] == purity(rho)

    def test_agreeing_claim_is_accepted(self):
        rho = random_mixed(SpaceShape((2, 2)), 3, 12)
        rep = theorem2_check(with_full_marginal(rho), purity(rho) + 1e-10)
        assert rep.assumed_global_purity == purity(rho)

    def test_disagreeing_claim_names_both_values(self):
        mixed = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        marginals = with_full_marginal(mixed)
        with pytest.raises(ValueError, match=r"global purity 1\.0 .*purity 0\.25"):
            theorem2_check(marginals, 1.0)
        with pytest.raises(ValueError, match=r"purity 1\.0 .*purity 0\.25"):
            theorem1_check(marginals)

    @pytest.mark.parametrize("certify, message", [
        (lambda marginals: _certificate((2, 2), {1: 0.5, 2: 0.5, 3: 0.3}, 0.9, "theorem2"),
         "global purity 0.9 differs from the full-set marginal's purity 0.3"),
        (lambda marginals: theorem2_check(marginals, 0.9),
         "global purity 0.9 differs from the full-set marginal's purity 0.25"),
        (theorem1_check, "global purity 1.0 differs from the full-set marginal's purity 0.25"),
    ], ids=["core", "theorem2", "theorem1"])
    def test_core_refuses_a_claim_that_conflicts_with_its_map(self, certify, message):
        marginals = with_full_marginal(Operator(SpaceShape((2, 2)), np.eye(4) / 4))
        with pytest.raises(ValueError) as err:
            certify(marginals)
        assert str(err.value) == message

    @pytest.mark.parametrize("value, message", [
        *((v, "global purity must be a number") for v in ("0.5", True, False, [0.5], 0.5j)),
        (10**400, "global purity must be a finite number"),
    ])
    def test_value_that_is_not_a_finite_real_number_rejected(self, value, message):
        marginals = marginal_set(Operator(SpaceShape((2, 2)), np.eye(4) / 4))
        with pytest.raises(ValueError) as err:
            theorem2_check(marginals, value)
        assert str(err.value) == message

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), 1, np.int64(1)])
    def test_numpy_and_integer_values_accepted(self, value):
        marginals = marginal_set(Operator(SpaceShape((2, 2)), np.eye(4) / 4))
        rep = theorem2_check(marginals, value)
        assert rep.assumed_global_purity == float(value)
        assert type(rep.assumed_global_purity) is float

    def test_pure_claim_agrees_with_pure_full_marginal(self):
        rho = w_state(4).density()
        rep = theorem1_check(with_full_marginal(rho))
        assert rep.verdict == "consistent"
        assert abs(rep.slack) < 1e-9
