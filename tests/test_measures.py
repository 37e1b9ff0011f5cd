"""Linear entropy, mutual information and the routes to the measure."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import (
    apply_local_unitary,
    bell_state,
    mask,
    mutual_information,
    permute_parties,
    random_unitary,
)
from qcert import (
    Operator,
    PureState,
    SpaceShape,
    SubsetMask,
    entanglement_E_subset_sum,
    exhaustive_E,
    ghz_state,
    i_concurrence_sq,
    measure_all,
    partial_trace,
    product_state,
    purity,
    random_mixed,
    random_pure,
    w_state,
)


def all_routes(psi):
    return (
        measure_all(psi, "partitions").values["partitions"],
        measure_all(psi, "projector").values["projector"],
        entanglement_E_subset_sum(psi),
    )


class TestEntropies:
    def test_pure_state_has_zero_entropy(self):
        rho = random_pure(SpaceShape((2, 2)), 0).density()
        assert abs(1 - purity(rho)) < 1e-12

    def test_known_diagonal(self):
        rho = Operator(SpaceShape((2,)), np.diag([2 / 3, 1 / 3]))
        assert abs(1 - purity(rho) - 4 / 9) < 1e-15

    @pytest.mark.parametrize("d", [2, 4])
    def test_maximally_mixed_maximizes_mixedness(self, d):
        rho = Operator(SpaceShape((d,)), np.eye(d) / d)
        assert abs(1 - purity(rho) - (1 - 1 / d)) < 1e-15


class TestMutualInformation:
    def test_pure_product_is_zero(self):
        psi = product_state([random_pure(SpaceShape((2,)), s) for s in (0, 1)])
        assert abs(mutual_information(psi.density(), mask([0], 2))) < 1e-12

    def test_bell_state(self):
        assert abs(mutual_information(bell_state().density(), mask([0], 2)) - 1.0) < 1e-12

    def test_w3_single_party_split(self):
        # Tr rho_0^2 = 5/9, so 2(1 - 5/9) = 8/9.
        val = mutual_information(w_state(3).density(), mask([0], 3))
        assert abs(val - 8 / 9) < 1e-12

    @pytest.mark.parametrize("parties", [[0], [1], [0, 2]])
    def test_matches_the_package_marginals(self, parties):
        # The helper's one-transpose marginals against partial_trace and purity.
        rho = random_mixed(SpaceShape((2, 3, 2)), 3, 40)
        split = mask(parties, 3)
        s_a, s_b, s_ab = (1 - purity(m) for m in
                          (partial_trace(rho, split), partial_trace(rho, split.complement()), rho))
        val = mutual_information(rho, split)
        assert abs(val - (s_a + s_b - s_ab)) < 1e-12
        assert abs(mutual_information(rho, split.complement()) - val) < 1e-12


class TestMeasureRoutes:
    def test_bell_is_one(self):
        for val in all_routes(bell_state()):
            assert abs(val - 1.0) < 1e-10

    def test_ghz4_is_one(self):
        # Oracle-minted via exhaustive partition enumeration.
        for val in all_routes(ghz_state(4)):
            assert abs(val - 1.0) < 1e-10

    def test_w4_is_zero(self):
        for val in all_routes(w_state(4)):
            assert abs(val) < 1e-10

    def test_subset_sum_arithmetic_w4(self):
        # 2 - (4*5/8 + 4*5/8) + 6*1/2 = 0 from the minted marginal purities.
        assert abs(entanglement_E_subset_sum(w_state(4))) < 1e-12

    def test_product_state_is_zero(self):
        psi = product_state([random_pure(SpaceShape((2,)), s) for s in range(4)])
        for val in all_routes(psi):
            assert abs(val) < 1e-10

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 2, 3)])
    def test_route_agreement_on_random_states(self, dims):
        for seed in range(10):
            vals = all_routes(random_pure(SpaceShape(dims), seed))
            assert max(vals) - min(vals) < 1e-8

    def test_projector_route_nonnegative(self):
        for seed in range(25):
            psi = random_pure(SpaceShape((2, 3, 2, 2)), seed)
            assert measure_all(psi, "projector").values["projector"] >= -1e-10

    @pytest.mark.parametrize("dims", [(2, 2, 2), (2, 2, 2, 2, 2), (2, 3, 2)])
    def test_odd_party_count_behavior(self, dims):
        psi = random_pure(SpaceShape(dims), 5)
        assert abs(measure_all(psi, "projector").values["projector"]) < 1e-12
        with pytest.raises(ValueError, match="odd"):
            measure_all(psi, "partitions")
        with pytest.raises(ValueError, match="odd"):
            entanglement_E_subset_sum(psi)

    def test_local_unitary_invariance(self):
        psi = random_pure(SpaceShape((2, 3, 2, 2)), 8)
        reference = all_routes(psi)
        for party in range(4):
            u = random_unitary(psi.shape.dims[party], 100 + party)
            rotated = apply_local_unitary(psi, party, u)
            for a, b in zip(all_routes(rotated), reference):
                assert abs(a - b) < 1e-9

    def test_permutation_invariance(self):
        psi = random_pure(SpaceShape((2, 2, 2, 2)), 9)
        reference = all_routes(psi)
        for perm in [(1, 0, 2, 3), (3, 1, 0, 2), (2, 3, 0, 1)]:
            shuffled = permute_parties(psi, perm)
            for a, b in zip(all_routes(shuffled), reference):
                assert abs(a - b) < 1e-10

    def test_entangled_state_with_zero_measure(self):
        # A Bell pair on parties {1, 3}, parties 0 and 2 in |0>: E is not faithful.
        amplitudes = np.zeros((2, 2, 2, 2))
        amplitudes[0, 0, 0, 0] = amplitudes[0, 1, 0, 1] = 1 / np.sqrt(2.0)
        psi = PureState(SpaceShape((2, 2, 2, 2)), amplitudes.reshape(-1))
        assert abs(i_concurrence_sq(psi, mask([1], 4)) - 1.0) < 1e-12
        values = measure_all(psi).values
        assert all(v is not None for v in values.values())
        for value in values.values():
            assert abs(value) <= 1e-12

    def test_two_party_equivalences(self):
        psi = random_pure(SpaceShape((2, 3)), 12)
        e = entanglement_E_subset_sum(psi)
        mi = mutual_information(psi.density(), mask([0], 2))
        assert abs(e - mi) < 1e-10
        assert abs(e - i_concurrence_sq(psi, mask([0], 2))) < 1e-10
        assert abs(e - i_concurrence_sq(psi, mask([1], 2))) < 1e-10


class TestIConcurrence:
    def test_bell_single_party(self):
        assert abs(i_concurrence_sq(bell_state(), mask([0], 2)) - 1.0) < 1e-12

    def test_trivial_cuts_are_zero(self):
        psi = ghz_state(3)
        assert i_concurrence_sq(psi, SubsetMask(0, 3)) == 0.0
        assert i_concurrence_sq(psi, SubsetMask(7, 3)) == 0.0

    def test_ghz3_two_party_cut(self):
        assert abs(i_concurrence_sq(ghz_state(3), mask([0, 1], 3)) - 1.0) < 1e-12


class TestMeasureAll:
    def test_even_report_carries_all_routes(self):
        rep = measure_all(ghz_state(4))
        assert rep.values["partitions"] is not None
        assert rep.values["subset_sum"] is not None
        assert rep.max_route_delta() < 1e-10
        assert len(rep.per_subset_purities) == 14

    def test_projector_skipped_above_the_doubled_cap(self):
        rep = measure_all(random_pure(SpaceShape((2,) * 12), 5))
        assert rep.values["projector"] is None
        assert [k for k, v in rep.values.items() if v is not None] == ["partitions", "subset_sum"]
        assert rep.max_route_delta() == abs(rep.values["partitions"] - rep.values["subset_sum"])

    def test_odd_report_has_projector_only(self):
        rep = measure_all(random_pure(SpaceShape((2, 2, 2)), 3))
        assert rep.values["partitions"] is None
        assert rep.values["subset_sum"] is None
        assert rep.max_route_delta() is None
        assert abs(rep.values["projector"]) < 1e-12

    @pytest.mark.parametrize(
        "route,filled,table",
        [
            ("partitions", ["partitions"], True),
            ("subset-sum", ["subset_sum"], True),
            ("projector", ["projector"], False),
            ("oracle", ["oracle"], False),
        ],
    )
    def test_single_route_fills_only_its_value(self, route, filled, table):
        psi = random_pure(SpaceShape((2, 2, 2, 2)), 6)
        rep = measure_all(psi, route)
        assert list(rep.values) == ["partitions", "projector", "subset_sum", "oracle"]
        assert [k for k, v in rep.values.items() if v is not None] == filled
        assert (rep.per_subset_purities is not None) == table
        assert rep.route_deltas() == {}
        assert rep.max_route_delta() is None

    def test_oracle_route_runs_exhaustive_E(self):
        psi = random_pure(SpaceShape((2, 2, 2, 2)), 6)
        assert measure_all(psi, "oracle").values["oracle"] == exhaustive_E(psi)

    def test_unknown_route_rejected(self):
        with pytest.raises(ValueError, match="unknown route 'exhaustive'"):
            measure_all(ghz_state(4), "exhaustive")
