"""Marginal-set certificates and consistency prechecks."""

from __future__ import annotations

import json

import numpy as np
import pytest

from conftest import mask
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


def eq8_set() -> MarginalSet:
    marginals, _ = parse_marginal_dict(json.loads(dumps(eq8_marginal_file())))
    return marginals


class TestTheorem1:
    def test_w4_saturates_with_zero_slack(self):
        rep = theorem1_check(MarginalSet.from_global(w_state(4).density()))
        assert rep.verdict == "consistent"
        assert abs(rep.lhs - 1.0) < 1e-9
        assert abs(rep.slack) < 1e-9

    def test_product_state_saturates(self):
        psi = product_state([random_pure(SpaceShape((2,)), s) for s in range(4)])
        rep = theorem1_check(MarginalSet.from_global(psi.density()))
        assert abs(rep.lhs - 1.0) < 1e-9

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_marginals_never_violate(self, seed):
        psi = random_pure(SpaceShape((2, 2, 2, 2)), seed)
        rep = theorem1_check(MarginalSet.from_global(psi.density()))
        assert rep.lhs <= 1.0 + 1e-9
        assert rep.verdict == "consistent"

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 2, 3)])
    def test_lhs_complements_the_measure(self, dims):
        # Certificate side uses operator partial traces; the measure side
        # contracts the state directly. The two must mirror each other.
        psi = random_pure(SpaceShape(dims), 17)
        rep = theorem1_check(MarginalSet.from_global(psi.density()))
        assert abs(rep.lhs - (1.0 - entanglement_E_subset_sum(psi))) < 1e-9

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 3, 2), (2, 2, 2, 2, 2)])
    def test_odd_party_alternating_sum_is_exactly_one(self, dims):
        psi = random_pure(SpaceShape(dims), 23)
        rep = theorem1_check(MarginalSet.from_global(psi.density()))
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
        rep = theorem2_check(MarginalSet.from_global(rho), global_purity=1 / 16)
        assert rep.verdict == "consistent"
        assert abs(rep.lhs - 0.9375) < 1e-12

    @pytest.mark.parametrize("seed", range(6))
    def test_true_global_purity_never_violates(self, seed):
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 5 + seed, seed)
        rep = theorem2_check(MarginalSet.from_global(rho), global_purity=purity(rho))
        assert rep.slack >= -1e-9

    def test_best_case_only_loosens(self):
        rho = random_mixed(SpaceShape((2, 3, 2, 2)), 7, 4)
        marginals = MarginalSet.from_global(rho)
        strict = theorem2_check(marginals, global_purity=purity(rho))
        loose = theorem2_check(marginals)
        assert loose.slack >= strict.slack - 1e-12

    def test_rejects_odd_party_count(self):
        rho = random_mixed(SpaceShape((2, 2, 2)), 4, 1)
        with pytest.raises(ValueError, match="even"):
            theorem2_check(MarginalSet.from_global(rho))

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
        assert consistency_precheck(MarginalSet.from_global(rho)) == []

    def test_detects_planted_mismatch(self):
        rho = w_state(3).density()
        entries = dict(MarginalSet.from_global(rho).entries)
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

        def counted(rho, keep):
            calls.append(keep)
            return partial_trace(rho, keep)

        marginals = MarginalSet.from_global(random_mixed(SpaceShape((2, 2, 2, 2)), 3, 15))
        monkeypatch.setattr("qcert.compatibility.partial_trace", counted)
        assert consistency_precheck(marginals) == []
        assert len(calls) == 36


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


class TestMarginalSetValidation:
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
        entries = dict(MarginalSet.from_global(rho).entries)
        entries[mask([0, 1], 2)] = rho
        marginals = MarginalSet(rho.shape, entries)
        assert consistency_precheck(marginals) == []
        rep = theorem2_check(marginals, global_purity=purity(rho))
        assert rep.slack >= -1e-9


def with_full_marginal(rho, full=None) -> MarginalSet:
    """Every proper marginal of ``rho`` plus ``full`` (default rho) on all parties."""
    entries = dict(MarginalSet.from_global(rho).entries)
    entries[rho.shape.full_mask()] = rho if full is None else full
    return MarginalSet(rho.shape, entries)


class TestGlobalPurityInput:
    def test_purity_below_one_over_d_rejected(self):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        with pytest.raises(ValueError, match=r"1/D"):
            theorem2_check(MarginalSet.from_global(rho), 1e-9)

    def test_purity_exactly_one_over_d_accepted(self):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        rep = theorem2_check(MarginalSet.from_global(rho), 1 / 4)
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

    @pytest.mark.parametrize("value, message", [
        *((v, "global purity must be a number") for v in ("0.5", True, False, [0.5], 0.5j)),
        (10**400, "global purity must be a finite number"),
    ])
    def test_value_that_is_not_a_finite_real_number_rejected(self, value, message):
        marginals = MarginalSet.from_global(Operator(SpaceShape((2, 2)), np.eye(4) / 4))
        with pytest.raises(ValueError) as err:
            theorem2_check(marginals, value)
        assert str(err.value) == message

    @pytest.mark.parametrize("value", [np.float64(0.5), np.float32(0.5), 1, np.int64(1)])
    def test_numpy_and_integer_values_accepted(self, value):
        marginals = MarginalSet.from_global(Operator(SpaceShape((2, 2)), np.eye(4) / 4))
        rep = theorem2_check(marginals, value)
        assert rep.assumed_global_purity == float(value)
        assert type(rep.assumed_global_purity) is float

    def test_pure_claim_agrees_with_pure_full_marginal(self):
        rho = w_state(4).density()
        rep = theorem1_check(with_full_marginal(rho))
        assert rep.verdict == "consistent"
        assert abs(rep.slack) < 1e-9
