"""CLI commands, file formats, exit codes, and JSON round-trips."""

from __future__ import annotations

import argparse
import ast
import errno
import gc
import importlib
import json
import os
import resource
import shutil
import signal
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import (
    error_message,
    exit_probe,
    marginal_set,
    pin_writer,
    run_cli,
    traced_peak,
)
from test_stdout_digests import STATES as DIGEST_STATES
from qcert import (
    Operator,
    SpaceShape,
    entanglement_E_subset_sum,
    ghz_state,
    measure_all,
    partial_trace,
    purity,
    random_mixed,
    random_pure,
    required_subsets,
    w_state,
)
from qcert import _fmt17, cli, measures
from qcert.cli import (
    dumps,
    main,
    marginal_file_dict,
    parse_marginal_dict,
    parse_state_dict,
    state_file_dict,
)
from qcert.config import ROUTES


def write_state(tmp_path, name, state):
    path = tmp_path / name
    path.write_text(dumps(state_file_dict(state)) + "\n")
    return str(path)


def write_marginals(tmp_path, name, rho, subsets=None, global_purity=None):
    if subsets is None:
        subsets = required_subsets(rho.shape.n_parties)
    entries = {m: partial_trace(rho, m) for m in subsets}
    doc = marginal_file_dict(rho.shape, entries, global_purity)
    path = tmp_path / name
    path.write_text(dumps(doc) + "\n")
    return str(path)


class TestSample:
    def test_pure_files_are_byte_identical(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        for out in (a, b):
            code, _ = run_cli(
                capsys, "sample", "--dims", "2,2,2,2", "--kind", "pure",
                "--seed", "7", "--out", str(out),
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_pure_file_round_trips_exactly(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        run_cli(capsys, "sample", "--dims", "2,3", "--seed", "5", "--out", str(out))
        parsed = parse_state_dict(json.loads(out.read_text()))
        expected = random_pure(SpaceShape((2, 3)), 5)
        assert np.array_equal(parsed.amplitudes, expected.amplitudes)

    def test_mixed_sample_has_reduced_purity(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        code, _ = run_cli(
            capsys, "sample", "--dims", "2,3", "--kind", "mixed",
            "--rank", "6", "--seed", "1", "--out", str(out),
        )
        assert code == 0
        rho = parse_state_dict(json.loads(out.read_text()))
        assert purity(rho) < 1.0 - 1e-3

    @pytest.mark.parametrize(
        "dims, rank_args, message",
        [
            ("2,2", ["--rank", "5"], "rank must be in 1..4, got 5"),
            # D = 2048: the default rank D would make a purification of 2^22 amplitudes.
            (",".join(["2"] * 11), [], "rank must be in 1..512, got 2048"),
        ],
        ids=["D=4", "D=2048"],
    )
    def test_mixed_rank_out_of_range(self, capsys, dims, rank_args, message):
        code, out = run_cli(capsys, "sample", "--dims", dims, "--kind", "mixed", *rank_args)
        assert error_message(code, out) == message

    def test_mixed_over_the_operator_cap_exits_2_before_allocating(self, capsys):
        argv = ["sample", "--dims", "2,2049", "--kind", "mixed", "--rank", "1"]
        code, peak = traced_peak(main, argv)
        assert peak < 4 << 20
        message = error_message(code, capsys.readouterr().out)
        assert message == "operator side 4098 exceeds the operator cap 4096"

    def test_rank_rejected_for_pure(self, capsys):
        code, out = run_cli(capsys, "sample", "--dims", "2,2", "--rank", "2")
        assert code == 2
        assert json.loads(out)["kind"] == "error"

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range_is_an_input_error(self, capsys, seed):
        code, out = run_cli(capsys, "sample", "--dims", "2", "--seed", str(seed))
        assert code == 2
        assert json.loads(out)["message"] == (
            f"seed must be an integer in [0, 2**128), got {seed}"
        )

    def test_largest_seed_samples(self, capsys):
        code, out = run_cli(capsys, "sample", "--dims", "2", "--seed", str(2**128 - 1))
        assert code == 0
        assert json.loads(out)["kind"] == "pure"

    def test_stdout_when_no_out_path(self, capsys):
        code, out = run_cli(capsys, "sample", "--dims", "2,2", "--seed", "3")
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "pure"
        assert len(doc["vector"]) == 4


class TestMeasure:
    def test_w4_all_routes_vanish(self, tmp_path, capsys):
        path = write_state(tmp_path, "w4.json", w_state(4))
        code, out = run_cli(capsys, "measure", "--state", path, "--route", "all")
        assert code == 0
        doc = json.loads(out)
        for name in ("partitions", "projector", "subset_sum", "oracle"):
            assert abs(doc["values"][name]) < 1e-8
        assert doc["route_deltas"]
        assert doc["routes_agree"] is True

    def test_ghz4_subset_sum_route(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz4.json", ghz_state(4))
        code, out = run_cli(capsys, "measure", "--state", path, "--route", "subset-sum")
        assert code == 0
        doc = json.loads(out)
        assert abs(doc["values"]["subset_sum"] - 1.0) < 1e-9
        assert doc["values"]["projector"] is None

    def test_odd_party_partitions_route_fails(self, tmp_path, capsys):
        path = write_state(tmp_path, "w3.json", w_state(3))
        code, out = run_cli(capsys, "measure", "--state", path, "--route", "partitions")
        assert code == 2
        err = json.loads(out)
        assert err["kind"] == "error"
        assert "odd" in err["message"]

    def test_odd_party_route_all_reports_projector_only(self, tmp_path, capsys):
        path = write_state(tmp_path, "w3.json", w_state(3))
        code, out = run_cli(capsys, "measure", "--state", path, "--route", "all")
        assert code == 0
        doc = json.loads(out)
        assert doc["values"]["partitions"] is None
        assert abs(doc["values"]["projector"]) < 1e-12

    @pytest.mark.parametrize("route", ["partitions", "subset-sum"])
    def test_single_table_routes_build_the_table_once(self, tmp_path, capsys, monkeypatch, route):
        calls = []
        original = measures.marginal_purity

        def counted(psi, subset):
            calls.append(subset.bits)
            return original(psi, subset)

        psi = random_pure(SpaceShape((2, 2, 2, 2)), 1)
        path = write_state(tmp_path, "r4.json", psi)
        monkeypatch.setattr(measures, "marginal_purity", counted)
        code, out = run_cli(capsys, "measure", "--state", path, "--route", route)
        assert code == 0
        # Each cut once: a larger side copies its smaller side's value.
        assert sorted(calls) == [b for b in range(16) if 2 * b.bit_count() <= 4]
        doc = json.loads(out)
        assert len(doc["per_subset_purities"]) == 14
        key = route.replace("-", "_")
        monkeypatch.undo()
        assert doc["values"][key] == measure_all(psi, route).values[key]

    @pytest.mark.parametrize("name", ["even", "odd", "qudits"])
    @pytest.mark.parametrize("route", ROUTES)
    def test_values_are_the_library_values(self, tmp_path, capsys, route, name):
        psi = DIGEST_STATES[name]
        code, out = run_cli(capsys, "measure", "--state", write_state(tmp_path, "s.json", psi),
                            "--route", route)
        doc = json.loads(out)
        try:
            values = measure_all(psi, route).values
        except ValueError as exc:
            assert (code, doc["kind"], doc["message"]) == (2, "error", str(exc))
        else:
            assert (code, doc["values"]) == (0, values)

    def test_route_all_skips_the_projector_above_the_doubled_cap(self, tmp_path, capsys):
        # 12 qubits: the doubled vector would hold 2^24 entries, over the 2^20 cap.
        psi = random_pure(SpaceShape((2,) * 12), 5)
        path = write_state(tmp_path, "q12.json", psi)
        code, out = run_cli(capsys, "measure", "--state", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["values"]["projector"] is None
        assert doc["values"]["oracle"] is None
        assert list(doc["route_deltas"]) == ["partitions_vs_subset_sum"]
        assert doc["max_route_delta"] == abs(
            doc["values"]["partitions"] - doc["values"]["subset_sum"]
        )
        assert doc["routes_agree"] is True
        assert len(doc["per_subset_purities"]) == 2**12 - 2
        assert doc["values"]["subset_sum"] == entanglement_E_subset_sum(psi)

    def test_explicit_projector_route_above_the_doubled_cap_exits_2(self, tmp_path, capsys):
        path = write_state(tmp_path, "q11.json", random_pure(SpaceShape((2,) * 11), 5))
        code, out = run_cli(capsys, "measure", "--state", path, "--route", "projector")
        assert code == 2
        assert "doubled vector of length 4194304" in json.loads(out)["message"]

    def test_route_all_skips_the_oracle_above_its_dimension_cap(self, tmp_path, capsys):
        # Six qutrits: D = 729, over the oracle's cap of 256.
        path = write_state(tmp_path, "q3x6.json", random_pure(SpaceShape((3,) * 6), 2))
        code, out = run_cli(capsys, "measure", "--state", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["values"]["oracle"] is None
        assert list(doc["route_deltas"]) == [
            "partitions_vs_projector", "partitions_vs_subset_sum", "projector_vs_subset_sum"]
        assert doc["routes_agree"] is True

    def test_explicit_oracle_route_above_its_dimension_cap_exits_2(self, tmp_path, capsys):
        path = write_state(tmp_path, "q3x6.json", random_pure(SpaceShape((3,) * 6), 2))
        code, out = run_cli(capsys, "measure", "--state", path, "--route", "oracle")
        assert code == 2
        assert "capped at 8 parties and dimension 256" in json.loads(out)["message"]

    def test_mixed_state_rejected(self, tmp_path, capsys):
        path = write_state(tmp_path, "mx.json", random_mixed(SpaceShape((2, 2)), 3, 0))
        code, out = run_cli(capsys, "measure", "--state", path)
        assert code == 2
        assert json.loads(out)["kind"] == "error"


class TestCompat:
    def test_w4_marginals_with_pure_flag(self, tmp_path, capsys):
        path = write_marginals(tmp_path, "w4m.json", w_state(4).density())
        code, out = run_cli(capsys, "compat", "--marginals", path, "--pure")
        assert code == 0
        doc = json.loads(out)
        assert doc["verdict"] == "consistent"
        assert abs(doc["slack"]) < 1e-9
        assert doc["consistency_violations"] == []

    def test_true_global_purity_passes(self, tmp_path, capsys):
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 7, 3)
        path = write_marginals(tmp_path, "m.json", rho, global_purity=purity(rho))
        code, out = run_cli(capsys, "compat", "--marginals", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["assumed_global_purity"] == pytest.approx(purity(rho))

    def test_flag_overrides_file_purity(self, tmp_path, capsys):
        rho = random_mixed(SpaceShape((2, 2)), 4, 6)
        path = write_marginals(tmp_path, "m.json", rho, global_purity=1.0)
        code, out = run_cli(
            capsys, "compat", "--marginals", path, "--global-purity", repr(purity(rho))
        )
        assert code == 0
        assert json.loads(out)["assumed_global_purity"] == purity(rho)

    def test_missing_subset_is_inconclusive(self, tmp_path, capsys):
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 5, 4)
        subsets = [m for m in required_subsets(4) if m.parties != (0, 2)]
        path = write_marginals(tmp_path, "m.json", rho, subsets=subsets)
        code, out = run_cli(capsys, "compat", "--marginals", path)
        assert code == 4
        doc = json.loads(out)
        assert doc["verdict"] == "inconclusive"
        assert [0, 2] in doc["missing_subsets"]

    def test_eq8_with_pure_claim_is_also_incompatible(self, tmp_path, capsys):
        from qcert.cli import eq8_marginal_file

        path = tmp_path / "eq8.json"
        path.write_text(dumps(eq8_marginal_file()) + "\n")
        code, out = run_cli(capsys, "compat", "--marginals", str(path), "--pure")
        assert code == 3
        doc = json.loads(out)
        assert doc["theorem"] == "theorem1"
        assert doc["verdict"] == "incompatible"
        assert abs(doc["lhs"] - 17 / 9) < 1e-9

    def test_pure_flag_conflicts_with_global_purity(self, tmp_path, capsys):
        path = write_marginals(tmp_path, "m.json", w_state(4).density())
        code, out = run_cli(
            capsys, "compat", "--marginals", path, "--pure", "--global-purity", "0.5"
        )
        assert code == 2
        assert json.loads(out)["kind"] == "error"

    def test_flag_conflict_is_reported_before_the_file_is_read(self, tmp_path, capsys):
        path = str(tmp_path / "missing.json")
        message = error_message(*run_cli(
            capsys, "compat", "--marginals", path, "--pure", "--global-purity", "0.5"
        ))
        assert message == "--pure and --global-purity are mutually exclusive"


class TestMonogamyAndDisorder:
    def test_ghz3_monogamy(self, tmp_path, capsys):
        path = write_state(tmp_path, "ghz3.json", ghz_state(3))
        code, out = run_cli(capsys, "monogamy", "--state", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["all_hold"] is True
        assert len(doc["reports"]) == 3
        first = doc["reports"][0]
        assert first["parties"] == [0, 1]
        assert abs(first["lhs"] - 2.0) < 1e-9
        assert abs(first["rhs"] - 1.0) < 1e-9

    def test_monogamy_requires_pure_state(self, tmp_path, capsys):
        path = write_state(tmp_path, "mx.json", random_mixed(SpaceShape((2, 2)), 3, 1))
        code, out = run_cli(capsys, "monogamy", "--state", path)
        assert code == 2

    def test_disorder_on_mixed_state(self, tmp_path, capsys):
        path = write_state(tmp_path, "mx.json", random_mixed(SpaceShape((2, 2, 2, 2)), 6, 2))
        code, out = run_cli(capsys, "disorder", "--state", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["holds"] is True
        assert doc["lhs"] <= doc["rhs"] + 1e-9

    def test_disorder_rejects_odd_party_count(self, tmp_path, capsys):
        path = write_state(tmp_path, "w3.json", w_state(3))
        code, out = run_cli(capsys, "disorder", "--state", path)
        assert code == 2
        assert "even" in json.loads(out)["message"]


class TestDemo:
    def test_demo_reports_incompatible(self, capsys):
        code, out = run_cli(capsys, "demo", "eq8")
        assert code == 3
        doc = json.loads(out)
        cert = doc["certificate"]
        assert cert["verdict"] == "incompatible"
        assert abs(cert["lhs_proper"] - 26 / 9) < 1e-9
        assert cert["assumed_global_purity"] == "best-case"
        assert cert["consistency_violations"] == []

    def test_demo_marginal_file_refeeds_identically(self, tmp_path, capsys):
        code, out = run_cli(capsys, "demo", "eq8")
        doc = json.loads(out)
        path = tmp_path / "eq8.json"
        path.write_text(dumps(doc["marginal_file"]) + "\n")
        code2, out2 = run_cli(capsys, "compat", "--marginals", str(path))
        assert code == code2 == 3
        assert json.loads(out2) == doc["certificate"]


class TestJsonEmitter:
    def test_floats_print_with_17_significant_digits(self):
        assert dumps(1 / 3) == "0.33333333333333331"
        assert dumps(26 / 9) == "2.8888888888888888"

    def test_floats_round_trip_losslessly(self):
        for x in (1 / 3, 26 / 9, 5 / 9, 1e-9, 0.1 + 0.2):
            assert json.loads(dumps(x)) == x

    def test_scalar_literals(self):
        assert dumps(True) == "true"
        assert dumps(None) == "null"
        assert dumps(7) == "7"

    def test_rejects_non_finite_numbers(self):
        with pytest.raises(ValueError):
            dumps(float("nan"))
        with pytest.raises(ValueError):
            dumps({"x": float("inf")})

    def test_nested_document_round_trips(self):
        doc = {"a": [1.5, {"b": [0.1, -0.25]}], "c": "x", "d": [], "e": {}}
        assert json.loads(dumps(doc)) == doc


class TestInputHandling:
    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, out = run_cli(capsys, "measure", "--state", str(path))
        assert code == 2
        assert json.loads(out)["kind"] == "error"

    def test_missing_file_exits_2(self, capsys):
        code, out = run_cli(capsys, "measure", "--state", "/nonexistent.json")
        assert code == 2

    @pytest.mark.parametrize("command, flag", [("measure", "--state"), ("compat", "--marginals")])
    def test_non_utf8_file_is_named(self, tmp_path, capsys, command, flag):
        # JSON files are read as UTF-8 whatever the locale; a bad byte names the file.
        path = tmp_path / "latin1.json"
        path.write_bytes(b'\xff{"dims": [2]}')
        message = error_message(*run_cli(capsys, command, flag, str(path)))
        assert message.startswith(f"{path}: ")

    @pytest.mark.parametrize("command, flag", [("measure", "--state"), ("compat", "--marginals")])
    def test_integer_past_the_digit_limit_is_named(self, tmp_path, capsys, command, flag):
        # Python refuses to convert an integer literal of more than 4300 digits.
        path = tmp_path / "long.json"
        path.write_text('{"dims": [' + "1" * 5000 + "]}")
        message = error_message(*run_cli(capsys, command, flag, str(path)))
        assert message.startswith(f"{path}: Exceeds the limit (4300 digits)")

    @pytest.mark.parametrize(
        "dims, message",
        [
            ([2] * 1_000_000, "total dimension of 1000000 parties exceeds the state cap 1048576"),
            ([10**3000, 10**3000], "total dimension of 2 parties exceeds the state cap 1048576"),
        ],
        ids=["million-qubits", "3001-digit-dims"],
    )
    def test_oversized_dims_exit_2_with_a_short_message(self, tmp_path, capsys, dims, message):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"dims": dims, "kind": "pure", "vector": []}))
        assert error_message(*run_cli(capsys, "measure", "--state", str(path))) == message

    def test_non_density_matrix_rejected(self, tmp_path, capsys):
        doc = {
            "dims": [2],
            "kind": "mixed",
            "matrix": [[[0.9, 0.0], [0.4, 0.0]], [[0.0, 0.0], [0.1, 0.0]]],
        }
        path = tmp_path / "bad.json"
        path.write_text(dumps(doc) + "\n")
        code, out = run_cli(capsys, "disorder", "--state", str(path))
        assert code == 2
        assert "density" in json.loads(out)["message"]

    def test_reports_carry_schema_version_and_tolerances(self, tmp_path, capsys):
        path = write_state(tmp_path, "b.json", ghz_state(2))
        _, out = run_cli(capsys, "measure", "--state", path)
        doc = json.loads(out)
        assert doc["schema_version"] == "1"
        assert doc["tolerances"]["route_agreement"] == 1e-8


def write_json(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


HALF = "[[[0.5, 0], [0, 0]], [[0, 0], [0.5, 0]]]"


class TestRejectedInputs:
    @pytest.mark.parametrize(
        "argv, text, message",
        [
            (("measure", "--state"), "[]", "state file: top level must be a JSON object"),
            (
                ("measure", "--state"),
                '{"dims": [], "kind": "pure", "vector": []}',
                "state file: 'dims' must be a nonempty list of integers",
            ),
            (
                ("measure", "--state"),
                '{"dims": [2], "kind": "dense"}',
                "state file: 'kind' must be 'pure' or 'mixed'",
            ),
            (("compat", "--marginals"), "[]", "marginal file: top level must be a JSON object"),
            (
                ("compat", "--marginals"),
                '{"dims": [2, 2.0], "marginals": []}',
                "marginal file: 'dims' must be a nonempty list of integers",
            ),
            (
                ("compat", "--marginals"),
                '{"dims": [2, 2], "marginals": []}',
                "marginal file: 'marginals' must be a nonempty list",
            ),
            (
                ("compat", "--marginals"),
                '{"dims": [2, 2], "marginals": [[0]]}',
                "marginal file entry 0: must be an object",
            ),
            (
                ("compat", "--marginals"),
                '{"dims": [2, 2], "marginals": [{"parties": [1, 0], "matrix": []}]}',
                "marginal file entry 0: "
                "'parties' must be a strictly increasing list of party indices",
            ),
            (
                ("compat", "--marginals"),
                '{"dims": [2, 2], "marginals": [{"parties": [0], "matrix": %s}, '
                '{"parties": [0], "matrix": %s}]}' % (HALF, HALF),
                "marginal file entry 1: duplicate marginal for parties [0]",
            ),
            (
                ("sample", "--dims", "2,x"),
                None,
                "--dims must be comma-separated integers, got '2,x'",
            ),
        ],
        ids=[
            "state-top-level", "state-dims", "state-kind", "marginal-top-level", "marginal-dims",
            "marginals-empty", "entry-not-object", "parties-order", "duplicate", "dims-flag",
        ],
    )
    def test_exits_2_with_the_message(self, tmp_path, capsys, argv, text, message):
        if text is not None:
            argv = (*argv, write_json(tmp_path, "input.json", text))
        assert error_message(*run_cli(capsys, *argv)) == message

    def test_dims_flag_beyond_the_integer_conversion_limit(self, capsys):
        message = error_message(*run_cli(capsys, "sample", "--dims", "9" * 5000))
        assert message == "--dims entry exceeds Python's 4300-digit conversion limit"

    def test_dims_flag_echo_is_bounded(self, capsys):
        message = error_message(*run_cli(capsys, "sample", "--dims", "2," * 2500 + "x"))
        assert message == (
            "--dims must be comma-separated integers, got "
            f"{'2,' * 20!r}... (5001 characters)"
        )


class TestUnknownKeys:
    """A misspelt key is an input error, not a silently ignored field."""

    def test_state_file(self, tmp_path, capsys):
        for state in (ghz_state(2), Operator(SpaceShape((2,)), np.eye(2) / 2)):
            doc = json.loads(dumps(state_file_dict(state)))
            doc["comment"] = "x"
            path = write_json(tmp_path, "s.json", json.dumps(doc))
            message = error_message(*run_cli(capsys, "disorder", "--state", path))
            assert message.startswith("state file: unknown keys 'comment'; allowed: 'dims'")
        doc = json.loads(dumps(state_file_dict(ghz_state(2))))
        doc["matrix"] = []
        path = write_json(tmp_path, "s.json", json.dumps(doc))
        message = error_message(*run_cli(capsys, "measure", "--state", path))
        assert message == (
            "state file: unknown keys 'matrix'; allowed: 'dims', 'kind', 'vector'"
        )

    def test_marginal_file_top_level(self, tmp_path, capsys):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        doc = marginal_file_dict(rho.shape, dict(marginal_set(rho).entries))
        doc = json.loads(dumps(doc))
        doc["global_purty"] = 0.1
        path = write_json(tmp_path, "m.json", json.dumps(doc))
        message = error_message(*run_cli(capsys, "compat", "--marginals", path))
        assert message == (
            "marginal file: unknown keys 'global_purty'; "
            "allowed: 'dims', 'marginals', 'global_purity'"
        )

    def test_marginal_entry(self, tmp_path, capsys):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        doc = marginal_file_dict(rho.shape, dict(marginal_set(rho).entries))
        doc = json.loads(dumps(doc))
        doc["marginals"][1]["purity"] = 0.5
        doc["marginals"][1]["label"] = "B"
        path = write_json(tmp_path, "m.json", json.dumps(doc))
        message = error_message(*run_cli(capsys, "compat", "--marginals", path, "--pure"))
        assert message == (
            "marginal file entry 1: unknown keys 'purity', 'label'; allowed: 'parties', 'matrix'"
        )


def object_text(pairs) -> str:
    """A JSON object of (key, value text) ``pairs`` in order, repeated keys kept."""
    return "{" + ", ".join(f"{json.dumps(key)}: {text}" for key, text in pairs) + "}"


def pair_texts(doc: dict) -> list[tuple[str, str]]:
    return [(key, json.dumps(value)) for key, value in doc.items()]


class TestDuplicateKeys:
    """A repeated key is an input error: a decoder would keep one value and drop the other."""

    def test_state_file(self, tmp_path, capsys):
        doc = json.loads(dumps(state_file_dict(ghz_state(2))))
        text = object_text([*pair_texts(doc), ("vector", json.dumps(doc["vector"]))])
        path = write_json(tmp_path, "s.json", text)
        for command in ("measure", "monogamy", "disorder"):
            message = error_message(*run_cli(capsys, command, "--state", path))
            assert message == f"{path}: duplicate key 'vector'"

    def test_marginal_file_global_purity(self, tmp_path, capsys):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        doc = marginal_file_dict(rho.shape, dict(marginal_set(rho).entries), 0.25)
        text = object_text([*pair_texts(json.loads(dumps(doc))), ("global_purity", "1.0")])
        path = write_json(tmp_path, "m.json", text)
        message = error_message(*run_cli(capsys, "compat", "--marginals", path))
        assert message == f"{path}: duplicate key 'global_purity'"

    def test_marginal_entry_matrix(self, tmp_path, capsys):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        doc = json.loads(dumps(marginal_file_dict(
            rho.shape, dict(marginal_set(rho).entries))))
        entries = [json.dumps(entry) for entry in doc["marginals"]]
        pure = [[[1, 0], [0, 0]], [[0, 0], [0, 0]]]
        entry = [*pair_texts(doc["marginals"][1]), ("matrix", json.dumps(pure))]
        entries[1] = object_text(entry)
        text = object_text([("dims", "[2, 2]"), ("marginals", "[" + ", ".join(entries) + "]")])
        path = write_json(tmp_path, "m.json", text)
        message = error_message(*run_cli(capsys, "compat", "--marginals", path))
        assert message == f"{path}: duplicate key 'matrix'"

    def test_verdict_does_not_depend_on_the_key_order(self, tmp_path, capsys):
        eq8 = json.loads(dumps(cli.eq8_marginal_file()))
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 3, 5)
        real = json.loads(dumps(marginal_file_dict(
            rho.shape, dict(marginal_set(rho).entries))))
        assert run_cli(capsys, "compat", "--marginals",
                       write_json(tmp_path, "eq8.json", json.dumps(eq8)))[0] == 3
        assert run_cli(capsys, "compat", "--marginals",
                       write_json(tmp_path, "real.json", json.dumps(real)))[0] == 0
        sets = [json.dumps(eq8["marginals"]), json.dumps(real["marginals"])]
        for order in (sets, sets[::-1]):
            text = object_text([("dims", "[2, 2, 2, 2]"), *(("marginals", s) for s in order)])
            path = write_json(tmp_path, "both.json", text)
            message = error_message(*run_cli(capsys, "compat", "--marginals", path))
            assert message == f"{path}: duplicate key 'marginals'"


class TestUsageErrors:
    """Argument errors print the ``error`` document on stdout, as input errors do."""

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["measure"], "qcert measure: the following arguments are required: --state"),
            (["sample", "--seed", "abc"], "qcert sample: argument --seed: invalid int value: 'abc'"),
            ([], "qcert: the following arguments are required: command"),
        ],
        ids=["missing-argument", "bad-int", "missing-command"],
    )
    def test_exits_2_with_error_json(self, capsys, argv, message):
        code = main(argv)
        out, err = capsys.readouterr()
        assert error_message(code, out) == message
        assert err == ""

    def test_help_still_exits_0(self, capsys):
        assert main(["measure", "--help"]) == 0
        assert capsys.readouterr().out.startswith("usage: qcert measure")

    @pytest.mark.parametrize("argv", [["--help"], ["measure", "--help"]], ids=["qcert", "measure"])
    def test_help_prints_argparses_own_text(self, capsys, monkeypatch, argv):
        with monkeypatch.context() as patch:
            patch.setattr(cli._Parser, "print_help", argparse.ArgumentParser.print_help)
            with pytest.raises(SystemExit):
                main(argv)
        stock = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr() == (stock, "")


class TestNonFiniteInput:
    @pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_pure_vector_rejected(self, tmp_path, capsys, token):
        text = dumps(state_file_dict(ghz_state(2))).replace("0.70710678118654746", token, 1)
        path = write_json(tmp_path, "psi.json", text)
        for command in ("measure", "monogamy", "disorder"):
            message = error_message(*run_cli(capsys, command, "--state", path))
            assert "'vector' holds a non-finite number" in message

    @pytest.mark.parametrize("token", ["NaN", "Infinity"])
    def test_mixed_matrix_rejected(self, tmp_path, capsys, token):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        text = dumps(state_file_dict(rho)).replace("0.25", token, 1)
        path = write_json(tmp_path, "rho.json", text)
        message = error_message(*run_cli(capsys, "disorder", "--state", path))
        assert message == "state file: matrix holds a non-finite number"

    def test_marginal_matrix_rejected(self, tmp_path, capsys):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        doc = marginal_file_dict(rho.shape, dict(marginal_set(rho).entries))
        path = write_json(tmp_path, "m.json", dumps(doc).replace("0.5", "NaN", 1))
        message = error_message(*run_cli(capsys, "compat", "--marginals", path))
        assert message == "marginal file entry 0: matrix holds a non-finite number"


class TestStateNorm:
    def test_pure_norm_error_names_the_file(self, tmp_path, capsys):
        text = '{"dims":[2],"kind":"pure","vector":[[1,0],[1,0]]}'
        path = write_json(tmp_path, "psi.json", text)
        message = error_message(*run_cli(capsys, "measure", "--state", path))
        assert message == "state file: state squared norm 2.0 deviates from 1 beyond 1e-08"


class TestGlobalPurityRange:
    def test_below_one_over_d_exits_2(self, tmp_path, capsys):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        path = write_marginals(tmp_path, "m.json", rho)
        message = error_message(
            *run_cli(capsys, "compat", "--marginals", path, "--global-purity", "1e-9")
        )
        assert "[1/D, 1]" in message

    def test_file_purity_below_one_over_d_exits_2(self, tmp_path, capsys):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        path = write_marginals(tmp_path, "m.json", rho, global_purity=1e-9)
        error_message(*run_cli(capsys, "compat", "--marginals", path))

    def test_exactly_one_over_d_accepted(self, tmp_path, capsys):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        path = write_marginals(tmp_path, "m.json", rho)
        code, out = run_cli(capsys, "compat", "--marginals", path, "--global-purity", "0.25")
        assert code == 0
        assert json.loads(out)["assumed_global_purity"] == 0.25


class TestFileGlobalPurityAlwaysChecked:
    """The file's 'global_purity' is checked even when a flag overrides it."""

    VALUES = [7.0, float("nan"), float("inf"), 1e-9]

    def doc(self, value):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        doc = marginal_file_dict(rho.shape, dict(marginal_set(rho).entries))
        doc = json.loads(dumps(doc))
        doc["global_purity"] = value
        return doc

    def message(self, value):
        return f"marginal file: 'global_purity' must lie in [1/D, 1] = [0.25, 1], got {value}"

    def test_null_is_not_a_number(self, tmp_path, capsys):
        message = "marginal file: 'global_purity' must be a number"
        with pytest.raises(ValueError) as info:
            parse_marginal_dict(self.doc(None))
        assert str(info.value) == message
        path = write_json(tmp_path, "m.json", json.dumps(self.doc(None)))
        assert error_message(*run_cli(capsys, "compat", "--marginals", path)) == message

    def test_absent_field_assumes_the_best_case(self, tmp_path, capsys):
        doc = self.doc(None)
        del doc["global_purity"]
        path = write_json(tmp_path, "m.json", json.dumps(doc))
        code, out = run_cli(capsys, "compat", "--marginals", path)
        assert code == 0
        assert json.loads(out)["assumed_global_purity"] == "best-case"

    @pytest.mark.parametrize("value", VALUES, ids=str)
    def test_parser_rejects(self, value):
        with pytest.raises(ValueError) as info:
            parse_marginal_dict(self.doc(value))
        assert str(info.value) == self.message(value)

    @pytest.mark.parametrize("value", VALUES, ids=str)
    @pytest.mark.parametrize(
        "flag", [["--pure"], ["--global-purity", "0.5"]], ids=["pure", "global-purity"]
    )
    def test_cli_exits_2_under_a_flag(self, tmp_path, capsys, flag, value):
        # json.dumps writes the non-finite values as NaN and Infinity.
        path = write_json(tmp_path, "m.json", json.dumps(self.doc(value)))
        message = error_message(*run_cli(capsys, "compat", "--marginals", path, *flag))
        assert message == self.message(value)


class TestOperatorCapInFiles:
    """A matrix side over the operator cap is reported before the matrix is read."""

    MESSAGE = "operator side 4098 exceeds the operator cap 4096"

    def test_mixed_state_file(self, tmp_path, capsys):
        doc = {"dims": [2, 2049], "kind": "mixed", "matrix": []}
        with pytest.raises(ValueError) as info:
            parse_state_dict(doc)
        assert str(info.value) == self.MESSAGE
        path = write_json(tmp_path, "s.json", json.dumps(doc))
        assert error_message(*run_cli(capsys, "disorder", "--state", path)) == self.MESSAGE

    def test_marginal_file_entry(self):
        doc = {"dims": [2, 2049], "marginals": [{"parties": [0, 1], "matrix": []}]}
        with pytest.raises(ValueError) as info:
            parse_marginal_dict(doc)
        assert str(info.value) == self.MESSAGE


class TestFullSetMarginal:
    def write(self, tmp_path, rho, full, global_purity=None):
        entries = dict(marginal_set(rho).entries)
        entries[rho.shape.full_mask()] = full
        doc = marginal_file_dict(rho.shape, entries, global_purity)
        return write_json(tmp_path, "m.json", dumps(doc) + "\n")

    def test_agreeing_values_pass(self, tmp_path, capsys):
        rho = random_mixed(SpaceShape((2, 2)), 3, 5)
        path = self.write(tmp_path, rho, rho, global_purity=purity(rho))
        for extra in ([], ["--global-purity", repr(purity(rho))]):
            code, out = run_cli(capsys, "compat", "--marginals", path, *extra)
            assert code == 0
            assert json.loads(out)["assumed_global_purity"] == purity(rho)

    def test_disagreeing_values_exit_2_naming_both(self, tmp_path, capsys):
        mixed = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        path = self.write(tmp_path, mixed, mixed)
        for extra in (["--global-purity", "1"], ["--pure"]):
            message = error_message(*run_cli(capsys, "compat", "--marginals", path, *extra))
            assert "1.0" in message and "0.25" in message
        path = self.write(tmp_path, mixed, mixed, global_purity=1.0)
        for extra in ([], ["--global-purity", "0.25"]):
            message = error_message(*run_cli(capsys, "compat", "--marginals", path, *extra))
            assert "'global_purity' 1.0" in message and "0.25" in message

    def test_each_marginal_purity_is_computed_once(self, tmp_path, capsys, monkeypatch):
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 3, 9)
        path = self.write(tmp_path, rho, rho, global_purity=purity(rho))
        calls = []

        def counted(op):
            calls.append(op)
            return purity(op)

        monkeypatch.setattr("qcert.compatibility.purity", counted)
        assert run_cli(capsys, "compat", "--marginals", path)[0] == 0
        assert len(calls) == 15

    def test_full_marginal_is_the_only_source(self, tmp_path, capsys):
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 6, 7)
        path = self.write(tmp_path, rho, rho)
        code, out = run_cli(capsys, "compat", "--marginals", path)
        assert code == 0
        doc = json.loads(out)
        assert doc["assumed_global_purity"] == purity(rho)
        assert doc["per_subset_purities"][-1] == {
            "parties": [0, 1, 2, 3], "purity": purity(rho)
        }


class TestNoTracebacks:
    def test_deeply_nested_file_exits_2(self, tmp_path, capsys):
        path = write_json(tmp_path, "deep.json", "[" * 200_000)
        message = error_message(*run_cli(capsys, "disorder", "--state", path))
        assert "recursion" in message

    def test_memory_error_exits_2(self, tmp_path, capsys, monkeypatch):
        def exhausted(path):
            raise MemoryError

        monkeypatch.setattr(cli, "load_state_file", exhausted)
        path = write_state(tmp_path, "b.json", ghz_state(2))
        assert error_message(*run_cli(capsys, "disorder", "--state", path)) == "MemoryError"


def child_env(unbuffered: bool) -> dict:
    """Environment of a ``python -m qcert.cli`` child, with stdout buffered or not."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


class TestClosedStdout:
    def test_stdout_closed_at_start_is_not_an_error(self, monkeypatch):
        # Python sets sys.stdout to None when file descriptor 1 is closed.
        monkeypatch.setattr(sys, "stdout", None)
        assert main(["demo", "eq8"]) == 3

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_exits_141_and_stays_silent(self, unbuffered):
        env = child_env(unbuffered)
        # About 180 KB of output, far more than a pipe holds, so the writer
        # is still writing when the reader goes away.
        argv = [sys.executable, "-m", "qcert.cli", "sample", "--dims", ",".join(["2"] * 12)]
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.read(8) == b'{\n  "dim'
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert err == b""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    def test_input_error_exits_141_and_stays_silent(self, tmp_path, unbuffered):
        missing = str(tmp_path / "missing.json")
        argv = [sys.executable, "-m", "qcert.cli", "disorder", "--state", missing]
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env(unbuffered)
        )
        # Closed before the child has written anything: its error document
        # meets a pipe with no reader.
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
        assert proc.returncode == 141
        assert err == b""


@pytest.fixture
def collector():
    """Restores the caller's collector state after the test."""
    was_enabled = gc.isenabled()
    yield
    (gc.enable if was_enabled else gc.disable)()


class TestCollectorPause:
    # One command per exit code that main returns; the 141 exit runs in the
    # subprocess tests of TestClosedStdout.
    @staticmethod
    def argv(code, tmp_path):
        if code == 0:
            return ["sample", "--dims", "2,2", "--seed", "1"]
        if code == 2:
            return ["disorder", "--state", str(tmp_path / "missing.json")]
        if code == 3:
            return ["demo", "eq8"]
        rho = random_mixed(SpaceShape((2, 2, 2, 2)), 5, 4)
        subsets = [m for m in required_subsets(4) if m.parties != (0, 2)]
        return ["compat", "--marginals", write_marginals(tmp_path, "m.json", rho, subsets)]

    @pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
    @pytest.mark.parametrize("code", [0, 2, 3, 4])
    def test_main_restores_the_callers_state(self, tmp_path, capsys, collector, enabled, code):
        (gc.enable if enabled else gc.disable)()
        assert run_cli(capsys, *self.argv(code, tmp_path))[0] == code
        assert gc.isenabled() is enabled

    def test_no_collection_runs_while_a_large_file_is_read(self, tmp_path, capsys, collector):
        # D = 64: the decode builds 4 096 [re, im] lists, past the
        # allocation threshold of the youngest generation.
        path = write_state(tmp_path, "mx.json", random_mixed(SpaceShape((2,) * 6), 4, 3))
        starts = []

        def probe(phase, info):
            if phase == "start":
                starts.append(info["generation"])

        # The command's first import of its modules would leave a collection due
        # on exit from main; done here, it happens before the probe is attached.
        importlib.import_module("qcert.monogamy")
        gc.enable()
        gc.collect()  # empties the youngest generation, so no collection is due on entry
        gc.callbacks.append(probe)
        try:
            code, _ = run_cli(capsys, "disorder", "--state", path)
        finally:
            gc.callbacks.remove(probe)
        assert code == 0
        assert starts == []


TWELVE_QUBITS = ",".join(["2"] * 12)  # about 180 KB of state file, more than a pipe holds

# Counts the collections that start from runpy's import of the package to the exit.
COLLECTION_PROBE = exit_probe("starts", setup="""
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info["generation"]))
""")


def run_module(*argv, env=None, **streams) -> subprocess.CompletedProcess:
    """``python -m qcert.cli ARGV`` with buffered stdout; stdout and stderr piped by default."""
    streams = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, **streams}
    return subprocess.run([sys.executable, "-m", "qcert.cli", *argv],
                          env=env or child_env(False), timeout=120, **streams)


class TestProcessExit:
    """The command process ends with ``os._exit`` once its output is written.

    Exit 141 goes the same way; TestClosedStdout checks it.
    """

    def test_stdout_larger_than_a_pipe_is_written_whole(self, capsys):
        proc = run_module("sample", "--dims", TWELVE_QUBITS)
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert proc.stdout.decode() == run_cli(capsys, "sample", "--dims", TWELVE_QUBITS)[1]

    def test_out_file_is_written_whole(self, tmp_path, capsys):
        path = tmp_path / "psi.json"
        proc = run_module("sample", "--dims", TWELVE_QUBITS, "--out", str(path))
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
        text = path.read_text()
        assert text.endswith("\n")
        assert text == run_cli(capsys, "sample", "--dims", TWELVE_QUBITS)[1]

    @pytest.mark.parametrize("code", [0, 2, 3, 4])
    def test_exit_code_and_stdout_are_mains(self, tmp_path, capsys, code):
        argv = TestCollectorPause.argv(code, tmp_path)
        proc = run_module(*argv)
        assert (proc.returncode, proc.stderr) == (code, b"")
        assert proc.stdout.decode() == run_cli(capsys, *argv)[1]

    def test_stdout_closed_at_start_exits_3_silently(self):
        proc = run_module("demo", "eq8", stdout=None, preexec_fn=lambda: os.close(1))
        assert (proc.returncode, proc.stderr) == (3, b"")

    def test_no_collection_from_the_first_import_to_exit(self, tmp_path):
        env = dict(child_env(False), PYTHONPYCACHEPREFIX=str(tmp_path))
        env.pop("PYTHONDONTWRITEBYTECODE", None)
        argv = [sys.executable, "-c", COLLECTION_PROBE, "demo", "eq8"]
        # The first run writes the bytecode: compiling cli.py from source, before
        # its first line runs, allocates enough to start a collection.
        for _ in range(2):
            proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.stderr == "3 []\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize(
        "argv", [["demo", "eq8"], ["sample", "--dims", TWELVE_QUBITS], ["measure", "--help"]],
        ids=["small", "larger-than-the-buffer", "help"])
    def test_full_stdout_exits_2_with_one_line(self, argv, unbuffered):
        with open("/dev/full", "wb") as full:
            proc = run_module(*argv, env=child_env(unbuffered), stdout=full)
        assert proc.returncode == 2
        reason = f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert proc.stderr.decode() == f"qcert: cannot write to stdout: {reason}\n"


SIXTEEN_QUBITS = ",".join(["2"] * 16)  # 131 072 floats, in ranges the kernel formats


class TestLargeOutWrite:
    """``sample --out`` of a large payload is written by the command's own process."""

    def test_never_forks_and_prints_nothing(self, tmp_path, capsys, monkeypatch):
        kernel = pin_writer(monkeypatch, "size-rule")
        out = tmp_path / "psi.json"
        assert run_cli(capsys, "sample", "--dims", SIXTEEN_QUBITS, "--out", str(out)) == (0, "")
        assert kernel == ([cli._RANGE_FLOATS] * (131_072 // cli._RANGE_FLOATS)
                          if _fmt17.EXACT else [])
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_failed_write_exits_2_with_the_errno(self, tmp_path):
        # About 3.4 MB are due; the writes fail past 100 KB.
        path = tmp_path / "psi.json"
        proc = run_module("sample", "--dims", SIXTEEN_QUBITS, "--out", str(path),
                          preexec_fn=limited_writes)
        # run_module returns once both pipes are closed: the command has exited.
        assert (proc.returncode, proc.stderr) == (2, b"")
        reason = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"
        assert error_message(2, proc.stdout) == reason

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_device_exits_2(self, capsys, monkeypatch):
        pin_writer(monkeypatch, "size-rule")
        code, out = run_cli(capsys, "sample", "--dims", SIXTEEN_QUBITS, "--out", "/dev/full")
        assert error_message(code, out) == f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_reader_that_closes_the_fifo_exits_2(self, tmp_path):
        # A closed --out reader is a failed write of the file, not a closed
        # stdout (exit 141): the command prints the error document.
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = subprocess.Popen(
            [sys.executable, "-c", f"open({str(fifo)!r}, 'rb').read(1000)"])
        try:
            proc = run_module("sample", "--dims", SIXTEEN_QUBITS, "--out", str(fifo))
        finally:
            reader.kill()  # it has read and exited unless the write never began
            reader.wait(60)
        # run_module returns once both pipes are closed: the command has exited.
        assert (proc.returncode, proc.stderr) == (2, b"")
        assert error_message(2, proc.stdout) == (
            f"[Errno {errno.EPIPE}] {os.strerror(errno.EPIPE)}")
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


def limited_writes():
    """A ``preexec_fn``: writes past 100 KB fail with EFBIG."""
    resource.setrlimit(resource.RLIMIT_FSIZE, (100_000, 100_000))
    signal.signal(signal.SIGXFSZ, signal.SIG_IGN)


EFBIG_MESSAGE = f"[Errno {errno.EFBIG}] {os.strerror(errno.EFBIG)}"


class TestFailedOutWrite:
    """A failed ``sample --out`` write removes the regular file it was writing, and only that."""

    def test_leaves_no_partial_file(self, tmp_path):
        path = tmp_path / "psi.json"
        path.write_text("an older file\n")
        proc = run_module("sample", "--dims", SIXTEEN_QUBITS, "--out", str(path),
                          preexec_fn=limited_writes)
        assert (proc.returncode, proc.stderr) == (2, b"")
        assert error_message(2, proc.stdout) == EFBIG_MESSAGE
        assert os.listdir(tmp_path) == []

    def test_keeps_a_symlink_and_its_target(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_text("")
        link.symlink_to(target)
        proc = run_module("sample", "--dims", SIXTEEN_QUBITS, "--out", str(link),
                          preexec_fn=limited_writes)
        assert error_message(proc.returncode, proc.stdout) == EFBIG_MESSAGE
        assert os.readlink(link) == str(target)
        assert stat.S_ISREG(os.lstat(target).st_mode)

    def test_keeps_a_file_that_replaced_the_one_opened(self, tmp_path, monkeypatch):
        pin_writer(monkeypatch, "size-rule")
        path, moved = tmp_path / "psi.json", tmp_path / "moved.json"

        def write(fd, data):  # the first write finds another file at the path
            path.rename(moved)
            path.write_text("another file\n")
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "write", write)
        with pytest.raises(OSError, match="Input/output error"):
            dumps(state_file_dict(ghz_state(2)), str(path))
        assert path.read_text() == "another file\n" and moved.read_text() == ""

    def test_keeps_a_fifo(self, tmp_path, monkeypatch):
        pin_writer(monkeypatch, "size-rule")
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        # A reader in another process: it reads a little and exits, and the
        # next write fails.
        reader = subprocess.Popen(
            [sys.executable, "-c", f"open({str(fifo)!r}, 'rb').read(1000)"])
        doc = state_file_dict(random_pure(SpaceShape((2,) * 16), 0))
        try:
            with pytest.raises(BrokenPipeError):
                dumps(doc, str(fifo))
        finally:
            reader.kill()  # it has read and exited unless the write never began
            reader.wait(60)
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_keeps_a_device(self, capsys, monkeypatch):
        pin_writer(monkeypatch, "size-rule")
        code, out = run_cli(capsys, "sample", "--dims", SIXTEEN_QUBITS, "--out", "/dev/full")
        assert error_message(code, out) == f"[Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}"
        assert stat.S_ISCHR(os.lstat("/dev/full").st_mode)


class TestEntryPoint:
    def test_console_script_calls_what_the_main_module_calls(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        target = tomllib.loads(pyproject.read_text())["project"]["scripts"]["qcert"]
        module, _, name = target.partition(":")
        tree = ast.parse(Path(cli.__file__).read_text())
        main_blocks = [node for node in tree.body if isinstance(node, ast.If)
                       and ast.unparse(node.test) == "__name__ == '__main__'"]
        called = [ast.unparse(statement) for statement in main_blocks[-1].body]
        assert called == [f"{name}()"]
        assert getattr(importlib.import_module(module), name) is getattr(cli, name)

    def test_installed_script_matches_the_module(self):
        script = shutil.which("qcert")
        if script is None or "from qcert.cli import run_and_exit" not in Path(script).read_text(
                errors="replace"):
            pytest.skip("no qcert console script of this checkout on PATH")
        installed = subprocess.run([script, "demo", "eq8"], capture_output=True,
                                   env=child_env(False), timeout=120)
        module = run_module("demo", "eq8")
        assert (installed.returncode, installed.stdout, installed.stderr) == (
            module.returncode, module.stdout, module.stderr)
