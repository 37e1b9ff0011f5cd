"""Core operator algebra: shapes and masks, partial traces, purity, validation, caps.

The relabelling helper of the tests, ``conftest.permute_parties``, is checked
here against an explicit permutation matrix.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from numpy.testing import assert_allclose

from conftest import (
    apply_local_unitary,
    bell_state,
    kron,
    mask,
    max_abs,
    naive_partial_trace,
    permute_parties,
    random_unitary,
    traced_peak,
)
from qcert import (
    MarginalSet,
    Operator,
    PureState,
    SpaceShape,
    SubsetMask,
    ghz_state,
    normal_stream,
    partial_trace,
    product_state,
    purity,
    random_mixed,
    random_pure,
    validate_density,
    w_state,
)


def qubit_op(matrix) -> Operator:
    return Operator(SpaceShape((2,)), matrix)


class TestShapesAndMasks:
    def test_shape_derived_quantities(self):
        shape = SpaceShape((2, 3, 4))
        assert shape.n_parties == 3
        assert shape.total_dim == 24

    def test_shape_rejects_trivial_dimensions(self):
        with pytest.raises(ValueError):
            SpaceShape((2, 1, 2))

    def test_mask_range_checked(self):
        with pytest.raises(ValueError):
            SubsetMask(16, 4)
        with pytest.raises(ValueError):
            SubsetMask.from_parties([4], 4)

    def test_complement_is_involutive(self):
        m = mask([0, 2], 5)
        assert m.complement().complement() == m
        assert m.complement().parties == (1, 3, 4)

    def test_cardinality_and_parity(self):
        m = mask([1, 2, 3], 6)
        assert m.cardinality == 3
        assert m.is_odd
        assert not mask([1, 2], 6).is_odd
        assert m.complement().cardinality == 3



class TestIntegerIndices:
    """Dimensions, mask fields and party indices must be integers, not bools."""

    @pytest.mark.parametrize("dims", [(2.7, 2), "22", (2, 2.0), (True, 2)])
    def test_shape_rejects_non_integer_dims(self, dims):
        with pytest.raises(TypeError):
            SpaceShape(dims)

    @pytest.mark.parametrize("bits, n", [(2.0, 2), (1, 2.0), ("1", 2), (True, 2)])
    def test_mask_rejects_non_integer_fields(self, bits, n):
        with pytest.raises(TypeError):
            SubsetMask(bits, n)

    @pytest.mark.parametrize("parties", [[0.9, 1], [0, 1.0], ["0"], [True]])
    def test_from_parties_rejects_non_integer_indices(self, parties):
        with pytest.raises(TypeError):
            SubsetMask.from_parties(parties, 2)

    def test_numpy_integers_are_accepted_and_stored_as_int(self):
        shape = SpaceShape((np.int64(2), np.int32(3)))
        assert shape.dims == (2, 3) and all(type(d) is int for d in shape.dims)
        m = SubsetMask(np.int64(2), np.int64(3))
        assert (m.bits, m.n_parties) == (2, 3)
        assert type(m.bits) is int and type(m.n_parties) is int
        assert m == SubsetMask(2, 3) and hash(m) == hash(SubsetMask(2, 3))
        assert SubsetMask.from_parties(np.array([0, 2]), 3) == SubsetMask(5, 3)


class TestPartialTrace:
    def test_bell_marginal_is_maximally_mixed(self):
        rho = bell_state().density()
        out = partial_trace(rho, mask([0], 2))
        assert_allclose(out.entries, np.eye(2) / 2, atol=1e-15)

    def test_w3_two_party_marginal_matches_known_matrix(self):
        rho = w_state(3).density()
        out = partial_trace(rho, mask([0, 1], 3))
        third = 1 / 3
        expected = np.zeros((4, 4))
        expected[0, 0] = third
        expected[1:3, 1:3] = third
        assert_allclose(out.entries, expected, atol=1e-15)

    def test_product_state_marginal_recovers_factor(self):
        rho_a = random_mixed(SpaceShape((2,)), 2, 3)
        rho_b = random_mixed(SpaceShape((3,)), 3, 4)
        joint = kron(rho_a, rho_b)
        assert max_abs(partial_trace(joint, mask([0], 2)).entries, rho_a.entries) < 1e-14

    def test_empty_keep_returns_scalar_trace(self):
        rho = random_mixed(SpaceShape((2, 2)), 4, 0)
        out = partial_trace(rho, SubsetMask(0, 2))
        assert out.entries.shape == (1, 1)
        assert abs(out.entries[0, 0] - 1.0) < 1e-12
        assert abs(purity(out) - 1.0) < 1e-12

    def test_full_keep_is_identity(self):
        rho = random_mixed(SpaceShape((2, 3)), 5, 1)
        out = partial_trace(rho, mask([0, 1], 2))
        assert out.entries is rho.entries

    def test_mask_party_count_must_match(self):
        rho = random_mixed(SpaceShape((2, 2)), 2, 2)
        with pytest.raises(ValueError):
            partial_trace(rho, mask([0], 3))

    @pytest.mark.parametrize("seed", range(4))
    def test_trace_preserved(self, seed):
        rho = random_mixed(SpaceShape((2, 3, 2)), 7, seed)
        for bits in range(1 << 3):
            out = partial_trace(rho, SubsetMask(bits, 3))
            assert abs(np.trace(out.entries) - np.trace(rho.entries)) < 1e-12

    def test_composition(self):
        rho = random_mixed(SpaceShape((2, 2, 3, 2)), 10, 5)
        big = mask([0, 2, 3], 4)
        small = mask([0, 3], 4)
        direct = partial_trace(rho, small)
        # Positions of {0, 3} inside the kept tuple (0, 2, 3) are (0, 2).
        staged = partial_trace(partial_trace(rho, big), mask([0, 2], 3))
        assert max_abs(direct.entries, staged.entries) < 1e-12

    @pytest.mark.parametrize("dims", [(2, 2, 2, 2), (2, 3, 2, 2)])
    def test_schmidt_symmetry_of_marginal_purities(self, dims):
        psi = random_pure(SpaceShape(dims), 13)
        rho = psi.density()
        n = len(dims)
        for bits in range(1 << n):
            m = SubsetMask(bits, n)
            pa = purity(partial_trace(rho, m))
            pb = purity(partial_trace(rho, m.complement()))
            assert abs(pa - pb) < 1e-10

    def test_agrees_with_naive_oracle(self):
        for seed, dims in enumerate([(2, 3, 2, 3), (2, 2, 3, 3), (6, 6), (4, 9)]):
            shape = SpaceShape(dims)
            rho = random_mixed(shape, shape.total_dim // 2, seed)
            for bits in range(1 << len(dims)):
                m = SubsetMask(bits, len(dims))
                fast = partial_trace(rho, m)
                slow = naive_partial_trace(rho, m)
                assert max_abs(fast.entries, slow.entries) < 1e-12


class TestPurity:
    def test_known_diagonal(self):
        assert abs(purity(qubit_op(np.diag([2 / 3, 1 / 3]))) - 5 / 9) < 1e-15

    def test_pure_state_density(self):
        psi = random_pure(SpaceShape((2, 3)), 2)
        assert abs(purity(psi.density()) - 1.0) < 1e-12

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_maximally_mixed(self, d):
        rho = Operator(SpaceShape((d,)), np.eye(d) / d)
        assert abs(purity(rho) - 1 / d) < 1e-15


class TestValidateDensity:
    def test_passes_on_valid_state(self):
        diag = validate_density(qubit_op(np.eye(2) / 2))
        assert diag.passes
        assert diag.hermiticity_deviation == 0.0

    def test_flags_non_hermitian(self):
        diag = validate_density(qubit_op([[0, 1], [0, 0]]))
        assert not diag.passes
        assert abs(diag.hermiticity_deviation - 1.0) < 1e-15

    def test_flags_trace_deviation(self):
        diag = validate_density(qubit_op(np.diag([0.6, 0.5])))
        assert not diag.passes
        assert abs(diag.trace_deviation - 0.1) < 1e-12

    def test_reports_minimum_eigenvalue(self):
        diag = validate_density(qubit_op(np.diag([1.5, -0.5])))
        assert not diag.passes
        assert abs(diag.min_eigenvalue + 0.5) < 1e-12


PERMS_3 = list(itertools.permutations(range(3)))


class TestStateHelpers:
    def test_pure_state_norm_enforced(self):
        with pytest.raises(ValueError):
            PureState(SpaceShape((2,)), [1.0, 1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan), -np.inf])
    def test_pure_state_rejects_non_finite_amplitudes(self, bad):
        with pytest.raises(ValueError, match="finite"):
            PureState(SpaceShape((2,)), [1.0, bad])

    @pytest.mark.parametrize(
        "build",
        [
            lambda: PureState(SpaceShape(()), [1.0]),
            lambda: random_pure(SpaceShape(()), 0),
            lambda: random_mixed(SpaceShape(()), 1, 0),
            lambda: product_state([]),
        ],
        ids=["PureState", "random_pure", "random_mixed", "product_state"],
    )
    def test_pure_state_needs_a_party(self, build):
        # Only an operator may have no parties: partial_trace's 1x1 result for an empty keep.
        with pytest.raises(ValueError, match="^a state needs at least one party$"):
            build()

    def test_permute_parties_roundtrip(self):
        psi = random_pure(SpaceShape((2, 3, 2)), 21)
        perm = (2, 0, 1)
        back = permute_parties(permute_parties(psi, perm), (1, 2, 0))
        assert max_abs(back.amplitudes, psi.amplitudes) < 1e-15

    def test_permute_operator_matches_state_permutation(self):
        psi = random_pure(SpaceShape((2, 2, 3)), 22)
        perm = (1, 2, 0)
        lhs = permute_parties(psi, perm).density()
        rhs = permute_parties(psi.density(), perm)
        assert max_abs(lhs.entries, rhs.entries) < 1e-14

    @pytest.mark.parametrize("density", [False, True], ids=["state", "density"])
    @pytest.mark.parametrize("perm", PERMS_3, ids=["".join(map(str, p)) for p in PERMS_3])
    def test_permute_parties_is_the_permutation_matrix(self, perm, density):
        # The transpose helper against the explicit P with P|i_0 i_1 i_2> = |i_p0 i_p1 i_p2>,
        # p = perm: position k of the new label holds old party perm[k].
        psi = random_pure(SpaceShape((2, 3, 2)), 25)
        dims = psi.shape.dims
        new_dims = tuple(dims[p] for p in perm)
        full = np.zeros((psi.shape.total_dim,) * 2)
        for old in np.ndindex(*dims):
            new = tuple(old[p] for p in perm)
            full[np.ravel_multi_index(new, new_dims), np.ravel_multi_index(old, dims)] = 1.0
        if density:
            moved = permute_parties(psi.density(), perm)
            values, expected = moved.entries, full @ psi.density().entries @ full.T
        else:
            moved = permute_parties(psi, perm)
            values, expected = moved.amplitudes, full @ psi.amplitudes
        assert moved.shape.dims == new_dims
        assert max_abs(values, expected) < 1e-14

    def test_apply_local_unitary_preserves_marginals_elsewhere(self):
        psi = random_pure(SpaceShape((2, 3)), 23)
        u = np.array([[0, 1], [1, 0]], dtype=complex)
        rotated = apply_local_unitary(psi, 0, u)
        before = partial_trace(psi.density(), mask([1], 2))
        after = partial_trace(rotated.density(), mask([1], 2))
        assert max_abs(before.entries, after.entries) < 1e-14

    @pytest.mark.parametrize("party", range(3))
    def test_apply_local_unitary_is_the_kronecker_product(self, party):
        # The tensordot helper against the explicit I x u x I matrix on the amplitudes.
        psi = random_pure(SpaceShape((2, 3, 2)), 24)
        u = random_unitary(psi.shape.dims[party], 300 + party)
        full = np.ones((1, 1))
        for p, d in enumerate(psi.shape.dims):
            full = np.kron(full, u if p == party else np.eye(d))
        rotated = apply_local_unitary(psi, party, u)
        assert max_abs(rotated.amplitudes, full @ psi.amplitudes) < 1e-14


# Side 4098, just over the operator cap of 4096; a 4098 x 4098 complex matrix is 269 MB.
OVER_CAP = SpaceShape((2, 2049))
# 21 qubit factors, or one beside a 20-qubit factor, make 2^21 amplitudes:
# twice the state cap, a 32 MB vector.
QUBIT = PureState(SpaceShape((2,)), np.array([1.0, 0.0]))


class TestCaps:
    @pytest.mark.parametrize(
        "call, args, side",
        [
            (Operator, (OVER_CAP, np.broadcast_to(np.complex128(0), (4098, 4098))), 4098),
            (PureState.density, (PureState(OVER_CAP, np.eye(1, 4098)[0]),), 4098),
            (random_mixed, (OVER_CAP, 1, 0), 4098),
            (random_mixed, (OVER_CAP, 2, 0), 4098),
        ],
        ids=["Operator", "density", "random_mixed-1", "random_mixed-2"],
    )
    def test_operator_cap_is_checked_before_any_allocation(self, call, args, side):
        error, peak = traced_peak(call, *args)
        assert isinstance(error, ValueError)
        assert str(error) == f"operator side {side} exceeds the operator cap 4096"
        assert peak < 4 << 20

    @pytest.mark.parametrize(
        "call, make_args",
        [
            (w_state, lambda: (21,)),
            (ghz_state, lambda: (21,)),
            (product_state, lambda: ([QUBIT] * 21,)),
            (product_state, lambda: ([ghz_state(20), QUBIT],)),  # the factor is built untraced
        ],
        ids=["w_state", "ghz_state", "product-21-qubits", "product-20-and-1"],
    )
    def test_state_cap_is_checked_before_any_allocation(self, call, make_args):
        error, peak = traced_peak(call, *make_args())
        assert isinstance(error, ValueError)
        assert str(error) == "total dimension 2097152 exceeds the state cap 1048576"
        assert peak < 4 << 20

    @pytest.mark.parametrize(
        "dims, message",
        [
            ((2,) * 1_000_000, "total dimension of 1000000 parties exceeds the state cap 1048576"),
            ((10**3000, 10**3000), "total dimension of 2 parties exceeds the state cap 1048576"),
            ((2,) * 65, "total dimension of 65 parties exceeds the state cap 1048576"),
            ((2,) * 64, "total dimension 18446744073709551616 exceeds the state cap 1048576"),
            (
                (2,) * 1000 + (0,) + (2,) * 1000,
                "every party dimension must be >= 2, got 0 for party 1000",
            ),
            (
                (2, -(10**4000)),
                "every party dimension must be >= 2, got a number below -2**64 for party 1",
            ),
        ],
        ids=["million", "3001-digits", "65-qubits", "64-qubits", "one-zero", "huge-negative"],
    )
    def test_shape_errors_are_short_and_name_one_party(self, dims, message):
        # The product stops past 2**64, so no message prints a larger number or the whole tuple.
        with pytest.raises(ValueError) as info:
            SpaceShape(dims)
        assert str(info.value) == message
        assert len(message) < 200

    def test_operator_cap_comes_before_the_shape_check(self):
        with pytest.raises(ValueError, match="^operator side 4098 exceeds the operator cap 4096$"):
            Operator(OVER_CAP, np.eye(2))

    def test_operator_entries_are_immutable(self):
        op = qubit_op(np.eye(2) / 2)
        with pytest.raises(ValueError):
            op.entries[0, 0] = 1.0

    def test_pure_state_amplitudes_are_immutable(self):
        psi = random_pure(SpaceShape((2, 2)), 0)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 1.0


class TestLibraryRejections:
    @pytest.mark.parametrize(
        "call, message",
        [
            (
                lambda: MarginalSet(SpaceShape((2, 2)), {mask([0], 3): qubit_op(np.eye(2) / 2)}),
                "marginal key is over a different party count",
            ),
            (lambda: qubit_op(np.eye(3)), "expected a 2x2 matrix, got shape (3, 3)"),
            (lambda: PureState(SpaceShape((2, 2)), [1, 0, 0]), "expected 4 amplitudes, got 3"),
            (lambda: SubsetMask(0, 0), "subset mask needs at least one party"),
            (lambda: ghz_state(1), "ghz_state needs at least 2 parties"),
            (lambda: normal_stream(0, -1), "count must be nonnegative"),
        ],
        ids=["marginal-key", "operator-shape", "amplitude-count", "empty-mask", "ghz-1", "count"],
    )
    def test_raises_the_message(self, call, message):
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == message
