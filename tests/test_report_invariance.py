"""Certificates, monogamy and disorder reports under relabelling and local unitaries.

Each report is a signed sum over subset purities, and a purity Tr rho_A^2
depends only on which parties A holds, not on their labels, and not on a
local unitary. So relabelling the parties moves each index set and leaves
every value in place, and a local unitary leaves every value unchanged, up
to rounding.
"""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from conftest import (
    SETTINGS,
    apply_local_unitary,
    mapped_mask,
    marginal_set,
    permute_parties,
    random_unitary,
    seeds,
    shapes,
)
from qcert import (
    SubsetMask,
    corollary1_scan,
    disorder_check,
    random_mixed,
    random_pure,
    theorem1_check,
    theorem2_check,
)

TOL = 1e-12


@SETTINGS
@given(st.data(), shapes(2, 4, 36, even=True), seeds)
def test_mixed_certificate_and_disorder_under_relabelling(data, shape, seed):
    perm = data.draw(st.permutations(range(shape.n_parties)))
    rho = random_mixed(shape, min(3, shape.total_dim), seed)
    moved = permute_parties(rho, perm)
    cert = theorem2_check(marginal_set(rho))
    cert_moved = theorem2_check(marginal_set(moved))
    assert abs(cert_moved.lhs - cert.lhs) <= TOL
    assert abs(cert_moved.slack - cert.slack) <= TOL
    dis, dis_moved = disorder_check(rho), disorder_check(moved)
    assert abs(dis_moved.lhs - dis.lhs) <= TOL
    assert abs(dis_moved.rhs - dis.rhs) <= TOL


@SETTINGS
@given(st.data(), shapes(2, 5, 48), seeds)
def test_pure_certificate_under_local_unitary(data, shape, seed):
    party = data.draw(st.integers(0, shape.n_parties - 1))
    psi = random_pure(shape, seed)
    rotated = apply_local_unitary(psi, party, random_unitary(shape.dims[party], seed))
    lhs = theorem1_check(marginal_set(psi.density())).lhs
    assert abs(theorem1_check(marginal_set(rotated.density())).lhs - lhs) <= TOL


@SETTINGS
@given(st.data(), shapes(2, 6, 144), seeds)
def test_monogamy_scan_under_relabelling(data, shape, seed):
    perm = data.draw(st.permutations(range(shape.n_parties)))
    psi = random_pure(shape, seed)
    moved = {rep.index_set: rep for rep in corollary1_scan(permute_parties(psi, perm))}
    reports = corollary1_scan(psi)
    assert len(moved) == len(reports)
    for rep in reports:
        other = moved[SubsetMask(mapped_mask(rep.index_set.bits, perm), shape.n_parties)]
        assert abs(other.lhs - rep.lhs) <= TOL
        assert abs(other.rhs - rep.rhs) <= TOL
