"""State constructors and seeded samplers."""

from __future__ import annotations

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import mask, max_abs, permute_parties
from qcert import (
    PureState,
    SpaceShape,
    SubsetMask,
    ghz_state,
    marginal_purity,
    measure_all,
    normal_stream,
    partial_trace,
    product_state,
    purity,
    random_mixed,
    random_pure,
    validate_density,
    w_state,
)


class TestWState:
    def test_w3_density_matches_known_matrix(self):
        rho = w_state(3).density()
        third = 1 / 3
        expected = np.zeros((8, 8))
        for i in (1, 2, 4):
            for j in (1, 2, 4):
                expected[i, j] = third
        assert_allclose(rho.entries, expected, atol=1e-15)

    def test_w2_marginal_purity(self):
        assert abs(marginal_purity(w_state(2), mask([0], 2)) - 0.5) < 1e-12

    def test_w4_marginal_purities(self):
        # Oracle-minted: 5/8 for one- and three-party cuts, 1/2 for two-party cuts.
        w4 = w_state(4)
        assert abs(marginal_purity(w4, mask([0], 4)) - 5 / 8) < 1e-12
        assert abs(marginal_purity(w4, mask([1, 2, 3], 4)) - 5 / 8) < 1e-12
        assert abs(marginal_purity(w4, mask([0, 2], 4)) - 0.5) < 1e-12

    def test_rejects_single_party(self):
        with pytest.raises(ValueError):
            w_state(1)


class TestGhzState:
    def test_bell_case(self):
        ghz2 = ghz_state(2)
        assert abs(marginal_purity(ghz2, mask([0], 2)) - 0.5) < 1e-12

    def test_single_party_marginal_is_maximally_mixed(self):
        rho = partial_trace(ghz_state(3).density(), mask([1], 3))
        assert_allclose(rho.entries, np.eye(2) / 2, atol=1e-15)

    def test_every_proper_marginal_has_purity_half(self):
        ghz4 = ghz_state(4)
        for bits in range(1, 15):
            assert abs(marginal_purity(ghz4, SubsetMask(bits, 4)) - 0.5) < 1e-12

    def test_permutation_symmetry(self):
        for state in (w_state(4), ghz_state(4)):
            rho = state.density()
            for perm in [(1, 0, 2, 3), (3, 2, 1, 0), (2, 3, 0, 1)]:
                permuted = permute_parties(state, perm).density()
                assert max_abs(permuted.entries, rho.entries) < 1e-14


class TestProductState:
    def test_basis_factors(self):
        zero = PureState(SpaceShape((2,)), [1, 0])
        one = PureState(SpaceShape((2,)), [0, 1])
        out = product_state([zero, one])
        assert_allclose(out.amplitudes, [0, 1, 0, 0])

    def test_uniform_superposition(self):
        plus = PureState(SpaceShape((2,)), np.array([1, 1]) / np.sqrt(2))
        out = product_state([plus, plus])
        assert_allclose(out.amplitudes, np.full(4, 0.5))

    def test_product_input_has_zero_measure(self):
        factors = [random_pure(SpaceShape((2,)), s) for s in range(4)]
        psi = product_state(factors)
        assert abs(measure_all(psi, "projector").values["projector"]) < 1e-12

    def test_needs_a_factor(self):
        with pytest.raises(ValueError):
            product_state([])


class TestSamplers:
    def test_normal_stream_is_deterministic(self):
        a = normal_stream(42, 11)
        b = normal_stream(42, 11)
        assert a.shape == (11,)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [-1, 2**128, True, 1.0, "1"])
    @pytest.mark.parametrize("count", [0, 3])
    def test_normal_stream_rejects_a_seed_outside_the_key_range(self, seed, count):
        with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*128\)"):
            normal_stream(seed, count)

    def test_random_pure_is_normalized_and_deterministic(self):
        shape = SpaceShape((2, 3, 2))
        psi1 = random_pure(shape, 9)
        psi2 = random_pure(shape, 9)
        assert abs(np.vdot(psi1.amplitudes, psi1.amplitudes).real - 1.0) < 1e-12
        assert np.array_equal(psi1.amplitudes, psi2.amplitudes)
        assert not np.array_equal(psi1.amplitudes, random_pure(shape, 10).amplitudes)

    def test_haar_mean_marginal_purity(self):
        # Two-qubit Haar average marginal purity is 4/5 (Lubkin); loose band.
        shape = SpaceShape((2, 2))
        vals = [marginal_purity(random_pure(shape, s), SubsetMask(1, 2)) for s in range(2000)]
        assert abs(float(np.mean(vals)) - 0.8) < 0.05

    def test_random_mixed_rank_one_is_pure(self):
        rho = random_mixed(SpaceShape((2, 2)), 1, 3)
        assert abs(purity(rho) - 1.0) < 1e-10

    def test_random_mixed_full_rank_is_mixed(self):
        rho = random_mixed(SpaceShape((2, 3)), 6, 3)
        assert purity(rho) < 1.0 - 1e-3

    @pytest.mark.parametrize("rank", [1, 2, 5])
    def test_random_mixed_is_valid_density(self, rank):
        rho = random_mixed(SpaceShape((2, 3)), rank, 7)
        diag = validate_density(rho)
        assert max(diag.hermiticity_deviation, diag.trace_deviation, -diag.min_eigenvalue) <= 1e-10

    def test_random_mixed_rank_bounds(self):
        with pytest.raises(ValueError):
            random_mixed(SpaceShape((2, 2)), 5, 0)

    def test_random_mixed_rejects_a_bool_rank(self):
        # True would otherwise pass as rank 1 and return a pure state.
        with pytest.raises(TypeError):
            random_mixed(SpaceShape((2, 2)), True, 0)

    @pytest.mark.parametrize(
        "dims, rank, top",
        [((2, 2), 0, 4), ((2,) * 11, 2048, 512), ((2,) * 11, 513, 512)],
        ids=["D=4-0", "D=2048-2048", "D=2048-513"],
    )
    def test_random_mixed_rank_range_message(self, dims, rank, top):
        # Up to D = 1024 the range is 1..D; above it the purification's D * rank
        # amplitudes must fit the state cap of 2^20.
        with pytest.raises(ValueError) as info:
            random_mixed(SpaceShape(dims), rank, 0)
        assert str(info.value) == f"rank must be in 1..{top}, got {rank}"

    def test_random_mixed_largest_rank_above_d_1024(self):
        # D = 1025: the largest rank is 2^20 // 1025 = 1023, just under D.
        rho = random_mixed(SpaceShape((5, 5, 41)), 1023, 0)
        assert rho.entries.shape == (1025, 1025)
        assert abs(np.trace(rho.entries) - 1.0) < 1e-12
