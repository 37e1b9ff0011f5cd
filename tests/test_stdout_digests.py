"""SHA-256 and exit code of the default stdout of every report command.

Some jobs pin an error document or the empty stdout of ``sample --out``.

The inputs are small seeded states written with the package's own writer,
each with D <= 64, so no BLAS reduction is split across threads and the
bytes do not depend on the thread count. A refactor of the sums behind the
reports must leave every digest as it is: the default output is meant to
stay byte-identical.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from conftest import marginal_set
from qcert import (
    Operator,
    SpaceShape,
    SubsetMask,
    purity,
    random_mixed,
    random_pure,
)
from qcert.cli import dumps, main, marginal_file_dict, state_file_dict

# Input files, written once per module.
STATES = {
    "even": random_pure(SpaceShape((2, 2, 2, 2)), 11),
    "odd": random_pure(SpaceShape((2, 2, 2)), 12),
    "qudits": random_pure(SpaceShape((2, 3, 2, 3)), 13),
    "mixed": random_mixed(SpaceShape((2, 2, 2, 2)), 3, 14),
}
COMPAT_STATE = random_mixed(SpaceShape((2, 2, 2, 2)), 3, 15)
# Not density matrices: one negative eigenvalue each, trace 1.
NOT_DENSITY = Operator(SpaceShape((2, 2)), np.diag([0.7, 0.4, 0.0, -0.1]))
NOT_DENSITY_MARGINAL = Operator(SpaceShape((2,)), np.diag([1.1, -0.1]))

# job -> (argv with {name} for input paths, exit code, SHA-256 of stdout)
JOBS = {
    "measure-even": (
        ("measure", "--state", "{even}", "--route", "all"), 0,
        "a9780a2c178d585391d6fb3c02b02b7e391071612b9d3830d38bb38d22f41ff3"),
    "measure-odd": (
        ("measure", "--state", "{odd}", "--route", "all"), 0,
        "19020b9eda952a8238a44148fb03b9d10f776c260b5f9cb8932d4027788ebab1"),
    "measure-qudits-oracle": (
        ("measure", "--state", "{qudits}", "--route", "all"), 0,
        "7ba52a13e046fddefbe24425f9f045ebf594f4b73ab21ce7397ba6f618ce73f4"),
    "measure-route-partitions-even": (
        ("measure", "--state", "{even}", "--route", "partitions"), 0,
        "f061ed14ff1a991d5b0196e103e82c625277143e127bd472b68dc557a8bb0041"),
    "measure-route-subset-sum-even": (
        ("measure", "--state", "{even}", "--route", "subset-sum"), 0,
        "55fb0ee33e0187afd861bd55281d58a6d41c70249ca4fdd76d214980f17d11b9"),
    "measure-route-projector-even": (
        ("measure", "--state", "{even}", "--route", "projector"), 0,
        "a846c8546ea3fadb0723998447b075714540cde23050386c62e75983f7eaeec5"),
    "measure-route-oracle-even": (
        ("measure", "--state", "{even}", "--route", "oracle"), 0,
        "88f49534c77b1bd88ce4305b80b1206065b86dfeeb9844f317ca7829038833af"),
    "measure-route-partitions-qudits": (
        ("measure", "--state", "{qudits}", "--route", "partitions"), 0,
        "0fa4faccad1fbb91c831036528281a2e90d4d473b627b6526c34f144de23388b"),
    "measure-route-subset-sum-qudits": (
        ("measure", "--state", "{qudits}", "--route", "subset-sum"), 0,
        "6ecc09aa7bfbf1f8266bcee31fd6ba15683ef364699e0014a78765185b987698"),
    "measure-route-projector-qudits": (
        ("measure", "--state", "{qudits}", "--route", "projector"), 0,
        "8549ec0c736c68c01342247ec6022a11a469dce2c092f3b0425cd07eddcef9dd"),
    "measure-route-oracle-qudits": (
        ("measure", "--state", "{qudits}", "--route", "oracle"), 0,
        "a0c7b9fe0e3d3e0b15670dc922a9a9cd7e1154c827edb12e6cbe47ccc5079284"),
    "measure-route-projector-odd": (
        ("measure", "--state", "{odd}", "--route", "projector"), 0,
        "bcbd0d61b2dcaec7fa6e57679110a8eb1bf49cd5380047f93ee4b93507465c55"),
    "measure-route-partitions-odd": (
        ("measure", "--state", "{odd}", "--route", "partitions"), 2,
        "3f30e16c5681661736b6be3a3ba1ac9b79f99eb3990f45e07545ac0031603175"),
    "monogamy": (
        ("monogamy", "--state", "{even}"), 0,
        "1074844866287c1f5398492819c2f622bc430822410b3e33297b13eb51ca11a0"),
    "disorder-pure": (
        ("disorder", "--state", "{even}"), 0,
        "14c494281e432eda0c53d63b189d75479c5467338c6f65fe7f47818743a15b05"),
    "disorder-mixed": (
        ("disorder", "--state", "{mixed}"), 0,
        "d273a1cf2e9ea82272df1d8b5143f26bbfb48e92a0457cac9c8c84168d10ea1d"),
    "compat-full": (
        ("compat", "--marginals", "{full}"), 0,
        "d78db08ebb2fb65e39449b4f5715ab746e771b0c4774fbbc701255c011c323e6"),
    "compat-pure": (
        ("compat", "--marginals", "{full}", "--pure"), 0,
        "6b282143e1489d5adaab47d060c89f6260ed34b04c0485d1b2e08ccc710e6350"),
    "compat-missing": (
        ("compat", "--marginals", "{missing}"), 4,
        "6e6e0a4e5eeaf69168396749bd400928ecc72f7cba878d4dc11dd5e4bb50f41c"),
    "demo-eq8": (
        ("demo", "eq8"), 3,
        "eee853ba13d22b73a7a6573bc18a16b31d0ea118df0ce47038712abd49dedcd6"),
    "measure-mixed": (
        ("measure", "--state", "{mixed}"), 2,
        "ff757bf3b8a440446b0b301b958722b18a04f49a3c53b5ba275a03e6ca8590bb"),
    "monogamy-mixed": (
        ("monogamy", "--state", "{mixed}"), 2,
        "e1d83adae2685cb530e95eb14bef600978035c35f7283308c11eaa36542608f4"),
    "compat-pure-and-global-purity": (
        ("compat", "--marginals", "{full}", "--pure", "--global-purity", "0.5"), 2,
        "0bb6b3a970c80210c9b51f66aee4df49c6c87c166b66a6a5abf4844e41cb6f01"),
    "measure-no-state": (
        ("measure",), 2,
        "45fbf92cc17fac1ab1ee624ebacc275e9ad555fd732a11ac8c4c832b13ef5f6a"),
    "sample-out": (  # the file goes to {out}; stdout stays empty
        ("sample", "--dims", "2,3", "--out", "{out}"), 0,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "disorder-not-density": (
        ("disorder", "--state", "{not_density}"), 2,
        "b94ce0423b28a26fddd13eccc0e1e900be362ff9c902c09c0d2dac277e0e4961"),
    "compat-not-density": (
        ("compat", "--marginals", "{not_density_marginal}"), 2,
        "56aea5dc2567408ce34dc5cafb9cbe6be12a42d10744f93564e368a25acc8f29"),
    "compat-mismatch": (  # 12 consistency violations, in (size, mask) order
        ("compat", "--marginals", "{mismatch}"), 0,
        "66dbb167e29fbaf414ecf8daa92dca293f9caaee6f30b7cb7ca985367dad9365"),
    "compat-global-purity-string": (
        ("compat", "--marginals", "{global_purity_string}"), 2,
        "46a1f2d6593bfa5d623ed9734259a8c4a5a6b4a9387b2b0ca575b6a38c7429af"),
}


@pytest.fixture(scope="module")
def paths(tmp_path_factory) -> dict[str, str]:
    root = tmp_path_factory.mktemp("digests")
    docs = {name: state_file_dict(state) for name, state in STATES.items()}
    rho = COMPAT_STATE
    entries = dict(marginal_set(rho).entries)
    docs["full"] = marginal_file_dict(rho.shape, entries, purity(rho))
    del entries[SubsetMask.from_parties((0, 2), 4)]
    docs["missing"] = marginal_file_dict(rho.shape, entries)
    docs["global_purity_string"] = {**docs["full"], "global_purity": "0.5"}
    mismatched = dict(marginal_set(rho).entries)
    for party in (0, 2):
        mismatched[SubsetMask.from_parties((party,), 4)] = Operator(
            SpaceShape((2,)), np.eye(2) / 2)
    docs["mismatch"] = marginal_file_dict(rho.shape, mismatched)
    docs["not_density"] = state_file_dict(NOT_DENSITY)
    docs["not_density_marginal"] = marginal_file_dict(
        SpaceShape((2, 2)), {SubsetMask(1, 2): NOT_DENSITY_MARGINAL})
    out = {}
    for name, doc in docs.items():
        path = root / f"{name}.json"
        path.write_text(dumps(doc) + "\n")
        out[name] = str(path)
    out["out"] = str(root / "sample.json")
    return out


@pytest.mark.parametrize("job", sorted(JOBS))
def test_stdout_digest(capsys, paths, job):
    argv, code, digest = JOBS[job]
    assert main([arg.format(**paths) for arg in argv]) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
