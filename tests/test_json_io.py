"""The bulk JSON writer and reader against the per-number code they replaced.

The reference functions below are the emitter and the [re, im] parsers that
formatted and converted one number at a time. ``dumps`` must give the same
bytes, the parsers the same floats bit for bit and the same error messages.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import SETTINGS, error_message, marginal_set, pin_writer, run_cli
from qcert import (
    Operator,
    PureState,
    SpaceShape,
    random_mixed,
    random_pure,
)
from qcert import _fmt17, cli
from qcert.cli import (
    _parse_pairs,
    dumps,
    main,
    marginal_file_dict,
    parse_marginal_dict,
    parse_state_dict,
    state_file_dict,
)

SETTINGS = settings(SETTINGS, max_examples=40)  # conftest's, with more examples

HUGE = 10**400  # a 401-digit integer, beyond double range


# --- reference emitter and parsers ------------------------------------------

def ref_format_number(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite number in JSON output")
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text


def ref_emit_scalar(x) -> str:
    if x is None:
        return "null"
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, int):
        return str(x)
    if isinstance(x, float):
        return ref_format_number(x)
    if isinstance(x, str):
        return json.dumps(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def ref_is_scalar(x) -> bool:
    return x is None or isinstance(x, (bool, int, float, str))


def ref_emit(obj, level: int, out: list[str]) -> None:
    pad = "  " * level
    if ref_is_scalar(obj):
        out.append(ref_emit_scalar(obj))
        return
    if isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        if all(ref_is_scalar(v) for v in items):
            out.append("[" + ", ".join(ref_emit_scalar(v) for v in items) + "]")
            return
        out.append("[\n")
        for i, v in enumerate(items):
            out.append("  " * (level + 1))
            ref_emit(v, level + 1, out)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
        return
    if isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        pairs = list(obj.items())
        out.append("{\n")
        for i, (k, v) in enumerate(pairs):
            if not isinstance(k, str):
                raise TypeError("JSON object keys must be strings")
            out.append("  " * (level + 1) + json.dumps(k) + ": ")
            ref_emit(v, level + 1, out)
            out.append(",\n" if i < len(pairs) - 1 else "\n")
        out.append(pad + "}")
        return
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def ref_dumps(obj) -> str:
    out: list[str] = []
    ref_emit(obj, 0, out)
    return "".join(out)


def ref_parse_complex(obj, where: str) -> complex:
    if (
        not isinstance(obj, (list, tuple))
        or len(obj) != 2
        or not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in obj)
    ):
        raise ValueError(f"{where}: complex entries must be [re, im] number pairs")
    return complex(obj[0], obj[1])


def ref_parse_matrix(obj, side: int, where: str) -> np.ndarray:
    if not isinstance(obj, list) or len(obj) != side:
        raise ValueError(f"{where}: expected a {side}x{side} matrix")
    out = np.zeros((side, side), dtype=complex)
    for i, row in enumerate(obj):
        if not isinstance(row, list) or len(row) != side:
            raise ValueError(f"{where}: expected a {side}x{side} matrix")
        for j, cell in enumerate(row):
            out[i, j] = ref_parse_complex(cell, where)
    if not np.isfinite(out).all():
        raise ValueError(f"{where}: matrix holds a non-finite number")
    return out


def ref_parse_vector(vec, dim: int) -> np.ndarray:
    if not isinstance(vec, list) or len(vec) != dim:
        raise ValueError(f"state file: 'vector' must hold {dim} [re, im] pairs")
    amp = np.array([ref_parse_complex(z, "state file") for z in vec])
    if not np.isfinite(amp).all():
        raise ValueError("state file: 'vector' holds a non-finite number")
    return amp


def ref_pair_lists(a: np.ndarray) -> list:
    if a.ndim > 1:
        return [ref_pair_lists(row) for row in a]
    return [[float(z.real), float(z.imag)] for z in a]


def outcome(write, doc):
    """The text ``write`` gives for ``doc``, or the type and message of its error."""
    try:
        return write(doc)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


def bits(a: np.ndarray) -> bytes:
    """The raw bytes of a complex array, so -0.0 and 0.0 differ."""
    return np.ascontiguousarray(a, dtype=complex).tobytes()


# --- generated documents -----------------------------------------------------

finite = st.floats(allow_nan=False, allow_infinity=False)
special = st.sampled_from([0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e-300,
                           1.7976931348623157e308, -1.7976931348623157e308, -1e300,
                           1e16, 0.1, 1 / 3])
floats = st.one_of(finite, special)
ints = st.integers(min_value=-(2**70), max_value=2**70)


def equal_rows(cells):
    return st.integers(min_value=0, max_value=4).flatmap(
        lambda k: st.lists(st.lists(cells, min_size=k, max_size=k), min_size=1, max_size=6)
    )


float_rows = equal_rows(floats)
mixed_rows = equal_rows(st.one_of(floats, ints))
ragged_rows = st.lists(st.lists(floats, max_size=4), min_size=1, max_size=6)
scalars = st.one_of(st.none(), st.booleans(), ints, floats, st.text(max_size=4))
documents = st.recursive(
    st.one_of(scalars, float_rows, mixed_rows, ragged_rows, st.just([])),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=12,
)


def complex_arrays(ndim: int):
    """Complex arrays of ``ndim`` axes, sides 0-5, both parts drawn from ``floats``."""
    shapes = st.lists(st.integers(min_value=0, max_value=5), min_size=ndim, max_size=ndim)
    return shapes.flatmap(lambda shape: st.lists(
        floats, min_size=2 * math.prod(shape), max_size=2 * math.prod(shape),
    ).map(lambda parts: np.array(parts).view(complex).reshape(shape)))


class TestDumpsMatchesReference:
    @SETTINGS
    @given(documents)
    @example((1, 2.5, "x", None))  # tuples, inline and nested
    @example({"t": ((1, 2), [3, (4.5,)], ((), ("y",)))})
    @example({"a": math.nan, 1: 0})  # a non-finite value before a non-string key
    @example({1: 0, "a": math.nan})  # and after it
    @example([0.5, np.zeros(2)])  # leaves that are not JSON
    @example({"b": np.bool_(True)})
    @example([[1, object()]])
    @example({"a": {"b": [], "c": {}}})  # empty containers at depth 2 and 3
    @example([[[], {}], [[[]], {"d": {}}]])
    def test_documents(self, doc):
        assert outcome(dumps, doc) == outcome(ref_dumps, doc)

    @SETTINGS
    @given(st.one_of(float_rows, mixed_rows, ragged_rows))
    def test_rows_at_any_depth(self, rows):
        for doc in (rows, {"a": {"b": rows}}, [[rows, rows]]):
            assert dumps(doc) == ref_dumps(doc)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_row_entry_raises_the_same_error(self, bad):
        rows = [[0.5, 0.0], [bad, 1.0]]
        with pytest.raises(ValueError) as ref:
            ref_dumps(rows)
        with pytest.raises(ValueError) as got:
            dumps({"x": rows})
        assert str(got.value) == str(ref.value) == "non-finite number in JSON output"

    @SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([(2,), (3,), (2, 2)]))
    def test_state_files(self, seed, dims):
        shape = SpaceShape(dims)
        for state in (random_pure(shape, seed), random_mixed(shape, 2, seed)):
            doc = state_file_dict(state)
            key, array = ("vector", state.amplitudes) if "vector" in doc else (
                "matrix", state.entries)
            assert json.loads(dumps(doc))[key] == ref_pair_lists(array)
            assert dumps(doc) == ref_dumps({**doc, key: ref_pair_lists(array)})

    def test_marginal_file(self):
        rho = random_mixed(SpaceShape((2, 3, 2)), 3, 1)
        doc = marginal_file_dict(rho.shape, dict(marginal_set(rho).entries), 0.5)
        ref = dict(doc, marginals=[dict(m, matrix=ref_pair_lists(m["matrix"]))
                                   for m in doc["marginals"]])
        assert dumps(doc) == ref_dumps(ref)


# The array at the top level, as a file's "vector" or "matrix", and as a
# marginal's "matrix" inside the document of ``demo`` (nesting level 4).
PLACES = {
    "top-level": lambda a: a,
    "in-dict": lambda a: {"dims": [2], "matrix": a},
    "in-list-of-dicts": lambda a: {"marginal_file": {"marginals": [
        {"parties": [0], "matrix": a}, {"parties": [1], "matrix": a}]}},
}


class TestArrayWriterMatchesReference:
    @SETTINGS
    @given(st.one_of(complex_arrays(1), complex_arrays(2)))
    @example(np.zeros(0, dtype=complex))  # a side of 0, printed as an empty list
    @example(np.zeros((3, 0), dtype=complex))
    def test_arrays(self, a):
        for arr in (a, a.T):  # a.T: an array that is not C-contiguous
            for place, wrap in PLACES.items():
                assert dumps(wrap(arr)) == ref_dumps(wrap(ref_pair_lists(arr))), place

    @pytest.mark.parametrize("place", sorted(PLACES))
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("part", ["re", "im"])
    def test_non_finite_part_raises_the_same_error(self, place, bad, part):
        a = np.array([[0.5, -0.0j], [0.25, 0.0]])
        a[1, 0] = complex(bad, 0.5) if part == "re" else complex(0.5, bad)
        wrap = PLACES[place]
        with pytest.raises(ValueError) as ref:
            ref_dumps(wrap(ref_pair_lists(a)))
        with pytest.raises(ValueError) as got:
            dumps(wrap(a))
        assert str(got.value) == str(ref.value) == "non-finite number in JSON output"


class TestRoundTrip:
    @SETTINGS
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([(2,), (2, 3), (2, 2, 2)]),
        st.lists(st.sampled_from([-0.0, 5e-324, -5e-324, 1e-310, 2.5e-200]),
                 min_size=1, max_size=4),
    )
    def test_pure_states_come_back_exactly(self, seed, dims, tiny):
        amp = random_pure(SpaceShape(dims), seed).amplitudes.copy()
        tiny = np.array(tiny[: amp.size - 1])
        amp[: tiny.size] = tiny + 1j * tiny  # signed zeros and subnormals
        amp[-1] = np.sqrt(1.0 - np.vdot(amp[:-1], amp[:-1]).real)
        psi = PureState(SpaceShape(dims), amp)
        back = parse_state_dict(json.loads(dumps(state_file_dict(psi))))
        assert np.array_equal(back.amplitudes, psi.amplitudes)
        assert bits(back.amplitudes) == bits(psi.amplitudes)

    @SETTINGS
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.sampled_from([(2,), (2, 3)]))
    def test_mixed_states_come_back_exactly(self, seed, dims):
        rho = random_mixed(SpaceShape(dims), 2, seed)
        back = parse_state_dict(json.loads(dumps(state_file_dict(rho))))
        assert bits(back.entries) == bits(rho.entries)


class TestParsePairsMatchesReference:
    @SETTINGS
    @given(st.lists(st.lists(st.one_of(floats, ints), min_size=2, max_size=2),
                    min_size=4, max_size=4))
    def test_matrix_values(self, cells):
        grid = [cells[:2], cells[2:]]
        assert bits(_parse_pairs(grid, (2, 2), "w")) == bits(ref_parse_matrix(grid, 2, "w"))

    @SETTINGS
    @given(st.lists(st.lists(st.one_of(floats, ints), min_size=2, max_size=2),
                    min_size=3, max_size=3))
    def test_vector_values(self, cells):
        got = _parse_pairs(cells, (3,), "state file")
        assert bits(got) == bits(ref_parse_vector(cells, 3))


# --- rejections at the parse boundary -----------------------------------------

GOOD_MATRIX = [[[0.5, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.5, 0.0]]]
PAIR_MESSAGE = "state file: complex entries must be [re, im] number pairs"
SHAPE_MESSAGE = "state file: expected a 2x2 matrix"


def with_cell(cell):
    matrix = json.loads(json.dumps(GOOD_MATRIX))
    matrix[1][0] = cell
    return matrix


MATRIX_REJECTIONS = {
    "true-in-pair": (with_cell([True, 0.0]), PAIR_MESSAGE),
    "string-in-pair": (with_cell(["1", 0.0]), PAIR_MESSAGE),
    "three-element-cell": (with_cell([0.0, 0.0, 0.0]), PAIR_MESSAGE),
    "dict-cell": (with_cell({"re": 0.0, "im": 0.0}), PAIR_MESSAGE),
    "ragged-row": ([GOOD_MATRIX[0], GOOD_MATRIX[1][:1]], SHAPE_MESSAGE),
    "wrong-side": ([row + [[0.0, 0.0]] for row in GOOD_MATRIX] + [[[0.0, 0.0]] * 3],
                   SHAPE_MESSAGE),
}


def write_doc(tmp_path, doc) -> str:
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestStructuralRejections:
    @pytest.mark.parametrize("case", sorted(MATRIX_REJECTIONS))
    def test_matrix_cell_or_shape_exits_2(self, tmp_path, capsys, case):
        matrix, expected = MATRIX_REJECTIONS[case]
        with pytest.raises(ValueError) as ref:
            ref_parse_matrix(matrix, 2, "state file")
        assert str(ref.value) == expected
        path = write_doc(tmp_path, {"dims": [2], "kind": "mixed", "matrix": matrix})
        assert error_message(*run_cli(capsys, "disorder", "--state", path)) == expected

    @pytest.mark.parametrize("cell", [[True, 0.0], ["1", 0.0], [0.0, 0.0, 0.0], {"re": 0.0}])
    def test_vector_cell_exits_2(self, tmp_path, capsys, cell):
        path = write_doc(tmp_path, {"dims": [2], "kind": "pure", "vector": [[1.0, 0.0], cell]})
        assert error_message(*run_cli(capsys, "measure", "--state", path)) == PAIR_MESSAGE

    def test_vector_length_exits_2(self, tmp_path, capsys):
        path = write_doc(tmp_path, {"dims": [2], "kind": "pure", "vector": [[1.0, 0.0]]})
        message = error_message(*run_cli(capsys, "measure", "--state", path))
        assert message == "state file: 'vector' must hold 2 [re, im] pairs"

    def test_tuple_pair_is_rejected(self):
        # Decoded JSON holds lists only; a tuple pair is not an input format.
        matrix = with_cell((0.0, 0.0))
        with pytest.raises(ValueError) as err:
            _parse_pairs(matrix, (2, 2), "state file")
        assert str(err.value) == PAIR_MESSAGE
        docs = [{"dims": [2], "kind": "mixed", "matrix": matrix},
                {"dims": [2], "kind": "pure", "vector": [[1.0, 0.0], (0.0, 0.0)]}]
        for doc in docs:
            with pytest.raises(ValueError) as err:
                parse_state_dict(doc)
            assert str(err.value) == PAIR_MESSAGE


class TestHugeIntegers:
    def test_vector_cell_is_non_finite(self):
        doc = {"dims": [2], "kind": "pure", "vector": [[HUGE, 0], [0, 0]]}
        with pytest.raises(ValueError, match="'vector' holds a non-finite number"):
            parse_state_dict(doc)

    def test_matrix_cell_is_non_finite(self):
        doc = {"dims": [2], "kind": "mixed", "matrix": with_cell([-HUGE, 0])}
        with pytest.raises(ValueError, match="state file: matrix holds a non-finite number"):
            parse_state_dict(doc)

    def test_global_purity_is_not_finite(self):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        doc = marginal_file_dict(rho.shape, dict(marginal_set(rho).entries))
        doc = json.loads(dumps(doc))
        doc["global_purity"] = HUGE
        with pytest.raises(ValueError, match="'global_purity' must be a finite number"):
            parse_marginal_dict(doc)

    def test_cli_exits_2(self, tmp_path, capsys):
        text = json.dumps({"dims": [2, 2], "kind": "pure",
                           "vector": [[1.0, 0.0], [0, 0], [0, 0], [0, 0]]})
        path = tmp_path / "psi.json"
        path.write_text(text.replace("[0, 0]", f"[{HUGE}, 0]", 1))
        for command in ("measure", "monogamy", "disorder"):
            message = error_message(*run_cli(capsys, command, "--state", str(path)))
            assert message == "state file: 'vector' holds a non-finite number"
        doc = {"dims": [2], "kind": "mixed", "matrix": with_cell([0, HUGE])}
        path.write_text(json.dumps(doc))
        message = error_message(*run_cli(capsys, "disorder", "--state", str(path)))
        assert message == "state file: matrix holds a non-finite number"

    def test_cli_global_purity_exits_2(self, tmp_path, capsys):
        rho = Operator(SpaceShape((2, 2)), np.eye(4) / 4)
        doc = marginal_file_dict(rho.shape, dict(marginal_set(rho).entries))
        doc = json.loads(dumps(doc))
        doc["global_purity"] = HUGE
        path = write_doc(tmp_path, doc)
        message = error_message(*run_cli(capsys, "compat", "--marginals", path))
        assert message == "marginal file: 'global_purity' must be a finite number"


# --- sample files -------------------------------------------------------------

# SHA-256 of ``qcert sample`` stdout. Every state has D <= 64, small enough
# that BLAS does not split a reduction across threads, so the bytes do not
# depend on the thread count.
SAMPLE_DIGESTS = {
    ("--dims", "2,2,2", "--seed", "3"):
        "0c6e119ddbf21d95ef9730e80e1413961f0e3e6ed960b5b0e1f3ab8afec60438",
    ("--dims", "2,3", "--kind", "mixed", "--rank", "2", "--seed", "4"):
        "74ef68e508ecd9be03ecbb5f7598c5221626e3f366f4005af30020ddb0b8589e",
    ("--dims", "2,2", "--kind", "mixed", "--seed", "5"):
        "a422892eeb2ae10e7cdb9366f7032140f475ce6e8c7345defef3cf45b8a29dfb",
}


@pytest.mark.parametrize("argv", sorted(SAMPLE_DIGESTS), ids=lambda a: " ".join(a))
def test_sample_digest(capsys, argv):
    assert main(["sample", *argv]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SAMPLE_DIGESTS[argv]


# --- sample --out on the kernel and the _fill path ---------------------------

def sample_case(dims: tuple[int, ...], rank: int | None = None, seed: int = 1):
    """The ``sample`` arguments for a state and the state they draw."""
    argv = ["--dims", ",".join(map(str, dims)), "--seed", str(seed)]
    if rank is None:
        return argv, random_pure(SpaceShape(dims), seed)
    return [*argv, "--kind", "mixed", "--rank", str(rank)], random_mixed(
        SpaceShape(dims), rank, seed)


def range_floats(array: np.ndarray) -> list[int]:
    """The float count of each item range ``dumps`` formats for ``array``."""
    step = max(1, cli._RANGE_FLOATS // (2 * array[0].size))
    return [2 * array[start:start + step].size for start in range(0, len(array), step)]


# (dims, rank or None for a pure state): their payloads in floats are 131 072,
# 294 912, and the kernel's size rule, 4 less and 4 more, in one range each.
WRITE_CASES = {
    "16-qubit-pure": ((2,) * 16, None),
    "rank-4-mixed": ((2,) * 7 + (3,), 4),
    "just-below": ((2, cli._KERNEL_FLOATS // 4 - 1), None),
    "at-the-rule": ((2, cli._KERNEL_FLOATS // 4), None),
    "just-above": ((2, cli._KERNEL_FLOATS // 4 + 1), None),
}


class TestSampleOutOnBothPaths:
    @pytest.mark.parametrize("case", sorted(WRITE_CASES))
    @pytest.mark.parametrize("path", ["kernel", "size-rule", "fill"])
    def test_file_is_the_text_of_dumps(self, tmp_path, capsys, monkeypatch, case, path):
        argv, state = sample_case(*WRITE_CASES[case])
        doc = state_file_dict(state)
        array = doc.get("vector", doc.get("matrix"))
        text = ref_dumps({**doc, "vector" if array.ndim == 1 else "matrix":
                          ref_pair_lists(array)}) + "\n"
        kernel = pin_writer(monkeypatch, path)
        out = tmp_path / "state.json"
        assert run_cli(capsys, "sample", *argv, "--out", str(out)) == (0, "")
        assert out.read_text() == text
        expected = {"kernel": range_floats(array), "fill": [], "size-rule": [
            n for n in range_floats(array) if n >= cli._KERNEL_FLOATS and _fmt17.EXACT]}
        assert kernel == expected[path]

    @staticmethod
    def signed_zeros(shape: tuple[int, ...], places: list[int]) -> np.ndarray:
        """A random complex array with a signed zero part at each flat item index of ``places``."""
        rng = np.random.default_rng(0)
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        zeros = [complex(-0.0, 0.5), complex(0.5, -0.0), complex(-0.0, -0.0), complex(0.0, -0.0)]
        for k, place in enumerate(places):
            a.reshape(-1)[place] = zeros[k % 4]
        return a

    @pytest.mark.parametrize("path", ["kernel", "fill"])
    def test_negative_zeros_at_range_boundaries(self, tmp_path, monkeypatch, path):
        # The vector's item ranges end every _RANGE_FLOATS / 2 pairs, the
        # matrix's every few rows; the middle of each is marked too.
        n = 16384
        step = cli._RANGE_FLOATS // 2
        vector = self.signed_zeros((n,), [0, step - 1, step, n // 2 - 1, n // 2, n - 1])
        side = 128
        rows = cli._RANGE_FLOATS // (2 * side)
        matrix = self.signed_zeros((side, side), [
            0, rows * side - 1, rows * side, side * side // 2 - 1, side * side // 2,
            side * side - 1])
        kernel = pin_writer(monkeypatch, path)
        for key, array in (("vector", vector), ("matrix", matrix)):
            doc = {"dims": [len(array)], "kind": "pure" if key == "vector" else "mixed",
                   key: array}
            out = tmp_path / f"{key}.json"
            dumps(doc, str(out))
            text = out.read_text()
            assert text == ref_dumps({**doc, key: ref_pair_lists(array)}) + "\n"
            parts = array.reshape(-1).view(float)
            negative_zeros = int(np.signbit(parts[parts == 0]).sum())
            assert text.count("[-0.0,") + text.count(" -0.0]") == negative_zeros == 7
        assert kernel == (range_floats(vector) + range_floats(matrix) if path == "kernel" else [])
