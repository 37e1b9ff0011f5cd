"""Certificates, monogamy and disorder reports under relabelling and local unitaries.

Each report is a signed sum over subset purities, and a purity Tr rho_A^2
depends only on which parties A holds, not on their labels, and not on a
local unitary. So relabelling the parties moves each index set and leaves
every value in place, and a local unitary leaves every value unchanged, up
to rounding.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_unitary
from qcert import (
    MarginalSet,
    SpaceShape,
    SubsetMask,
    apply_local_unitary,
    corollary1_scan,
    disorder_check,
    permute_parties,
    random_mixed,
    random_pure,
    theorem1_check,
    theorem2_check,
)

SETTINGS = settings(max_examples=12, deadline=None)
TOL = 1e-12

seeds = st.integers(0, 2**32 - 1)


def shapes(min_parties, max_parties, max_dim, even=False):
    dims = st.lists(st.sampled_from((2, 3)), min_size=min_parties, max_size=max_parties)
    dims = dims.filter(lambda d: math.prod(d) <= max_dim)
    if even:
        dims = dims.filter(lambda d: len(d) % 2 == 0)
    return dims.map(lambda d: SpaceShape(tuple(d)))


def mapped(index_set: SubsetMask, new_from_old) -> SubsetMask:
    """``index_set`` after position k takes old party new_from_old[k]."""
    bits = sum(1 << k for k, old in enumerate(new_from_old) if index_set.contains(old))
    return SubsetMask(bits, index_set.n_parties)


@SETTINGS
@given(st.data(), shapes(2, 4, 36, even=True), seeds)
def test_mixed_certificate_and_disorder_under_relabelling(data, shape, seed):
    perm = data.draw(st.permutations(range(shape.n_parties)))
    rho = random_mixed(shape, min(3, shape.total_dim), seed)
    moved = permute_parties(rho, perm)
    cert = theorem2_check(MarginalSet.from_global(rho))
    cert_moved = theorem2_check(MarginalSet.from_global(moved))
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
    lhs = theorem1_check(MarginalSet.from_global(psi.density())).lhs
    assert abs(theorem1_check(MarginalSet.from_global(rotated.density())).lhs - lhs) <= TOL


@SETTINGS
@given(st.data(), shapes(2, 6, 144), seeds)
def test_monogamy_scan_under_relabelling(data, shape, seed):
    perm = data.draw(st.permutations(range(shape.n_parties)))
    psi = random_pure(shape, seed)
    moved = {rep.index_set: rep for rep in corollary1_scan(permute_parties(psi, perm))}
    reports = corollary1_scan(psi)
    assert len(moved) == len(reports)
    for rep in reports:
        other = moved[mapped(rep.index_set, perm)]
        assert abs(other.lhs - rep.lhs) <= TOL
        assert abs(other.rhs - rep.rhs) <= TOL
