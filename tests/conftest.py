"""Shared helpers for the test suite, each defined once.

``SETTINGS``, ``seeds`` and ``shapes`` are the property tests' hypothesis
settings and strategies; ``mask``, ``bell_state``, ``random_unitary`` and
``kron`` (the operator of a product of two systems) build inputs;
``assert_same_float`` checks equality bit for bit, the sign of zero included;
``run_cli`` runs one ``qcert`` command in process, and ``error_message`` reads
the message of its exit-2 error document.

``marginal_set`` builds the claimed marginal set of a known state: every
nonempty proper subset, each matrix by ``partial_trace``. The package builds
no such set itself; a known state is checked by ``self_check`` from its
purity table.

``permute_parties`` relabels the parties of a state or an operator, and
``mapped_mask`` maps a subset mask the same way: position k holds old party
new_from_old[k]. The package has no relabelling; the invariance tests use these.

``apply_local_unitary``, ``mutual_information`` and
``swap_subset_expectation`` are audit routes written with numpy alone, apart
from the package's constructors, so the tests that compare them with the
package's routes share no code with those routes.

``pair_projector`` and ``observable`` build the paper's two-copy projectors
A_T as explicit numpy matrices; the package evaluates them only by contraction.
``naive_partial_trace`` runs the nested index loops of ``qcert.oracle``, the
route ``qcert measure --route oracle`` runs, and ``naive_expectation`` traces
against ``observable``; neither calls the reshaping partial trace or the
two-copy contraction kernel they are compared with.

``expectation_mixed``, ``purity_via_observables`` and ``all_patterns`` are the
mixed two-copy route, which no ``qcert`` command runs: Tr(A_T rho x rho) as a
weighted sum over eigenpairs of rho, each pair through the package's private
contraction kernel. It reads no partial trace and no purity table, so it
audits those, not the projector route whose kernel it shares.
"""

from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
from hypothesis import settings
from hypothesis import strategies as st

from qcert import (
    MarginalSet,
    Operator,
    PureState,
    SpaceShape,
    SubsetMask,
    normal_stream,
    partial_trace,
    required_subsets,
)
from qcert.cli import main
from qcert.config import VECTOR_DIM_CAP
from qcert.hilbert import _check_mask
from qcert.observables import _apply_pair_projectors, _doubled_fits, _doubled_tensor
from qcert.oracle import _naive_partial_trace_core

NAIVE_TRACE_MAX_DIM = 64
NAIVE_EXPECTATION_MAX_DIM = 256

SETTINGS = settings(max_examples=12, deadline=None)

seeds = st.integers(0, 2**32 - 1)


def shapes(min_parties=1, max_parties=6, max_dim=144, even=False):
    dims = st.lists(st.sampled_from((2, 3)), min_size=min_parties, max_size=max_parties)
    dims = dims.filter(lambda d: math.prod(d) <= max_dim)
    if even:
        dims = dims.filter(lambda d: len(d) % 2 == 0)
    return dims.map(lambda d: SpaceShape(tuple(d)))


def mask(parties, n: int) -> SubsetMask:
    return SubsetMask.from_parties(parties, n)


def marginal_set(rho: Operator) -> MarginalSet:
    """The marginals of ``rho`` on every nonempty proper subset, as a claimed set."""
    masks = required_subsets(rho.shape.n_parties)
    return MarginalSet(rho.shape, {m: partial_trace(rho, m) for m in masks})


def mapped_mask(bits: int, new_from_old) -> int:
    """Mask of ``bits`` after position k takes old party new_from_old[k]."""
    return sum(1 << k for k, old in enumerate(new_from_old) if bits >> old & 1)


def permute_parties(obj: PureState | Operator, new_from_old) -> PureState | Operator:
    """``obj`` with position k holding old party new_from_old[k]."""
    perm = tuple(new_from_old)
    dims = obj.shape.dims
    shape = SpaceShape(tuple(dims[p] for p in perm))
    if isinstance(obj, PureState):
        return PureState(shape, obj.amplitudes.reshape(dims).transpose(perm).reshape(-1))
    n = len(dims)
    t = obj.entries.reshape(dims + dims).transpose(perm + tuple(n + p for p in perm))
    return Operator(shape, t.reshape(obj.entries.shape))


def kron(a: Operator, b: Operator) -> Operator:
    """The operator a x b, ``a``'s parties first."""
    return Operator(SpaceShape(a.shape.dims + b.shape.dims), np.kron(a.entries, b.entries))


def bell_state() -> PureState:
    return PureState(SpaceShape((2, 2)), np.array([0, 1, 1, 0]) / np.sqrt(2.0))


def random_unitary(dim: int, seed: int) -> np.ndarray:
    """Haar unitary from the package's deterministic normal stream."""
    z = normal_stream(seed, 2 * dim * dim)
    m = (z[0::2] + 1j * z[1::2]).reshape(dim, dim)
    q, r = np.linalg.qr(m)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def apply_local_unitary(psi: PureState, party: int, u: np.ndarray) -> PureState:
    """``u`` applied to ``party`` of ``psi``, the other parties left alone."""
    t = np.tensordot(u, psi.amplitudes.reshape(psi.shape.dims), axes=([1], [party]))
    return PureState(psi.shape, np.moveaxis(t, 0, party).reshape(-1))


def mutual_information(rho: Operator, split: SubsetMask) -> float:
    """Linear-entropy mutual information S_A + S_B - S_AB, S = 1 - Tr rho^2, of A | rest.

    Both marginals come from one transpose of ``rho`` to (A, rest, A, rest) and
    a trace over an axis pair; each purity is the sum of |entries|^2.
    """
    dims = rho.shape.dims
    n = len(dims)
    order = split.parties + split.complement().parties
    d_a = int(np.prod([dims[p] for p in split.parties]))
    d_b = rho.shape.total_dim // d_a
    t = rho.entries.reshape(dims + dims).transpose(order + tuple(n + p for p in order))
    t = t.reshape(d_a, d_b, d_a, d_b)
    rho_a = np.trace(t, axis1=1, axis2=3)
    rho_b = np.trace(t, axis1=0, axis2=2)
    s_a, s_b, s_ab = (1.0 - float(np.sum(np.abs(m) ** 2)) for m in (rho_a, rho_b, rho.entries))
    return s_a + s_b - s_ab


def swap_subset_expectation(psi: PureState, subset: SubsetMask) -> float:
    """<psi x psi| SWAP_A |psi x psi>, the purity of the A-marginal by the swap trick."""
    dims = psi.shape.dims
    phi = np.kron(psi.amplitudes, psi.amplitudes).reshape(dims + dims)
    swapped = phi
    for p in subset.parties:
        swapped = np.swapaxes(swapped, p, len(dims) + p)
    return float(np.vdot(phi, swapped).real)


def pair_projector(d: int, antisymmetric: bool) -> np.ndarray:
    """(I - SWAP)/2 when ``antisymmetric``, else (I + SWAP)/2, on two copies of C^d."""
    eye = np.eye(d * d)
    swap = eye.reshape(d, d, d, d).transpose(1, 0, 2, 3).reshape(d * d, d * d)
    return (eye - swap) / 2.0 if antisymmetric else (eye + swap) / 2.0


def observable(shape: SpaceShape, pattern: SubsetMask) -> np.ndarray:
    """A_pattern on the doubled space, copy-major: all parties of copy 1, then of copy 2.

    (I - SWAP)/2 acts on the parties in ``pattern``, (I + SWAP)/2 on the rest.
    """
    mat = np.eye(1)
    for i, d in enumerate(shape.dims):
        mat = np.kron(mat, pair_projector(d, pattern.contains(i)))
    # The Kronecker factors run (0c1, 0c2, 1c1, 1c2, ...); one transpose makes them copy-major.
    n = shape.n_parties
    interleaved = tuple(d for d in shape.dims for _ in range(2))
    order = tuple(range(0, 2 * n, 2)) + tuple(range(1, 2 * n, 2))
    t = mat.reshape(interleaved + interleaved).transpose(order + tuple(2 * n + k for k in order))
    return t.reshape(mat.shape)


def naive_partial_trace(rho: Operator, keep: SubsetMask) -> Operator:
    """Partial trace by explicit nested loops over multi-indices."""
    _check_mask(rho.shape, keep)
    if rho.shape.total_dim > NAIVE_TRACE_MAX_DIM:
        raise ValueError(
            f"naive partial trace is capped at dimension {NAIVE_TRACE_MAX_DIM}"
        )
    reduced = _naive_partial_trace_core(rho.entries, rho.shape.dims, keep.parties)
    return Operator(rho.shape.subshape(keep), reduced)


def naive_expectation(state_pair: Operator, pattern: SubsetMask) -> float:
    """Tr(A_pattern M) with the observable fully materialized.

    ``state_pair`` lives on the doubled space (two copies of some single-copy
    shape, copy-major), e.g. rho x rho or the projector onto psi x psi.
    """
    dims = state_pair.shape.dims
    if len(dims) % 2 != 0 or dims[: len(dims) // 2] != dims[len(dims) // 2 :]:
        raise ValueError("state_pair must live on a doubled shape (dims repeated)")
    if state_pair.shape.total_dim > NAIVE_EXPECTATION_MAX_DIM:
        raise ValueError(
            f"naive expectation is capped at doubled dimension {NAIVE_EXPECTATION_MAX_DIM}"
        )
    single = SpaceShape(dims[: len(dims) // 2])
    return float(np.trace(observable(single, pattern) @ state_pair.entries).real)


def all_patterns(n: int) -> list[SubsetMask]:
    """All 2^n sign patterns, each the mask of its antisymmetric parties, ascending."""
    return [SubsetMask(bits, n) for bits in range(1 << n)]


def expectation_mixed(rho: Operator, pattern: SubsetMask) -> float:
    """Tr(A_pattern rho x rho) via the eigendecomposition of rho.

    Reduces to pure-pair contractions sum_kl lam_k lam_l <k,l|A|k,l>, avoiding
    any D^2 x D^2 matrix. Every one of the D^2 eigenpairs with a nonzero
    weight runs, tiny eigenvalues included.
    """
    _check_mask(rho.shape, pattern)
    if not _doubled_fits(rho.shape):
        d = rho.shape.total_dim
        raise ValueError(
            f"doubled vector of length {d * d} exceeds the state cap {VECTOR_DIM_CAP}"
        )
    m = rho.entries
    vals, vecs = np.linalg.eigh((m + m.conj().T) / 2.0)
    dims = rho.shape.dims
    bufs = np.empty((2,) + dims + dims, vecs.dtype)
    total = 0.0
    for k in range(len(vals)):
        for l in range(len(vals)):
            weight = vals[k] * vals[l]
            if weight == 0.0:
                continue
            tensor = _doubled_tensor(vecs[:, k], vecs[:, l], dims, out=bufs[0])
            work, free = _apply_pair_projectors(tensor, bufs[1], pattern)
            phi = _doubled_tensor(vecs[:, k], vecs[:, l], dims, out=free)
            total += weight * float(np.vdot(phi, work).real)
    return total * 0.5 ** len(dims)


def purity_via_observables(rho: Operator) -> float:
    """Tr rho^2 recovered as 1 - 2 * sum of odd-antisymmetric expectations.

    Each term is ``expectation_mixed`` of one odd pattern, added in ascending
    mask order.
    """
    total = 0.0
    for pattern in all_patterns(rho.shape.n_parties):
        if pattern.is_odd:
            total += expectation_mixed(rho, pattern)
    return 1.0 - 2.0 * total


def max_abs(a, b) -> float:
    return float(np.max(np.abs(np.asarray(a) - np.asarray(b))))


def assert_same_float(value: float, ref: float) -> None:
    assert value == ref
    assert math.copysign(1.0, value) == math.copysign(1.0, ref)


def run_cli(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def error_message(code, out):
    assert code == 2
    doc = json.loads(out)
    assert doc["kind"] == "error"
    return doc["message"]


def traced_peak(call, *args):
    """``call(*args)`` and the peak of the bytes traced while it ran.

    A ``ValueError`` is returned, not raised, so a rejected call's peak is read too.
    """
    tracemalloc.start()
    try:
        try:
            result = call(*args)
        except ValueError as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
