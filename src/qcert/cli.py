"""Command-line interface and the JSON file formats it speaks.

State files carry {"dims", "kind", "vector"|"matrix"}; marginal files carry
{"dims", "marginals": [{"parties", "matrix"}, ...], "global_purity"?}. Any other
key, and any key given twice in one object, is an input error. Complex numbers
serialize as two-element [re, im] arrays, and every number is printed with 17
significant digits, a negative zero as -0.0, so doubles round-trip losslessly.
Each command prints exactly one JSON document, except ``sample --out``, which
prints none, and ``--help``, which prints argparse's text. ``sample`` prints the
state file; every other document opens with ``schema_version`` and ``kind``, and
the reports also carry the tolerances used for their verdicts.

``state_file_dict`` and ``marginal_file_dict`` hold the complex arrays as
numpy arrays, which only ``dumps`` writes; ``parse_state_dict`` and
``parse_marginal_dict`` take decoded JSON, so a built dict goes through
``json.loads(dumps(doc))`` before it is parsed.

Exit codes: 0 success / inequality holds, 2 input error or a failed write to
stdout or to the ``sample --out`` file (say, a full disk, or a FIFO whose
reader closed it), 3 certificate of violation, 4 inconclusive, 141 stdout
closed by the reader.

Complex arrays are written one range of items at a time. A range of at least
``_KERNEL_FLOATS`` floats is spelled by the numpy kernel of ``qcert._fmt17``,
imported on first use, and a smaller one by ``"%"``-formatting (``_fill``),
with the same bytes.

``main(argv)`` runs one command and returns its exit code, for callers in the
same process. The ``qcert`` command (the console script, or ``python -m
qcert.cli``) runs ``run_and_exit``, which ends the process with ``os._exit``
once the output is written; under ``-m`` the cyclic collector is off from this
module's first import on.
"""

from __future__ import annotations

import gc

if __name__ == "__main__":
    # The command process: no collections from numpy's import on (see run_and_exit).
    gc.disable()

import argparse
import json
import math
import os
import stat
import sys
from itertools import chain
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

import numpy as np

from .config import ROUTES, TOL_INPUT, TOL_ROUTE, TOL_VERDICT
from .hilbert import Operator, PureState, SpaceShape, SubsetMask, _operator_side, _require_density

# The other modules are imported inside the commands that run them, so a
# command loads only its own share of the package.
if TYPE_CHECKING:
    from .compatibility import CompatReport, MarginalSet

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INPUT_ERROR = 2
EXIT_VIOLATION = 3
EXIT_INCONCLUSIVE = 4
EXIT_BROKEN_PIPE = 141  # what a shell reports for a writer stopped by SIGPIPE


# --- JSON emission (17 significant digits for lossless double round-trips) ---

# Floats per range of a complex array's items: the text is formatted, and
# written to a file, one range at a time (about 100 KB of text). Ranges of
# 4 096 to 16 384 floats wrote a 295 k-float file fastest through _fill, and
# the kernel took 5 % longer at 4 096 than at 8 192; at 4 096 its working set,
# about 0.5 MB, stays below _fill's at 8 192, so writing costs no peak memory.
_RANGE_FLOATS = 4096
# The fewest floats in a range that the numpy kernel of qcert._fmt17 formats.
# Its fixed cost is about 80 us a range: it took 0.9 of _fill's time at 256
# floats, 1.05 at 192 and 0.6 at 512 (vectors and matrices, one BLAS thread,
# Python 3.11, numpy 2.4).
_KERNEL_FLOATS = 256


def _format_number(x: float) -> str:
    if math.isnan(x) or math.isinf(x):
        raise ValueError("non-finite number in JSON output")
    text = format(x, ".17g")
    return "-0.0" if text == "-0" else text  # "-0" would decode as the integer 0


def _pair_layout(shape: tuple[int, ...], level: int) -> str:
    """Nested [re, im] pairs of ``shape`` at ``level``, one item per line, "%.17g" per number."""
    if not shape:
        return "[%.17g, %.17g]"
    if not shape[0]:
        return "[]"
    pad = "\n" + "  " * (level + 1)
    item = _pair_layout(shape[1:], level + 1)
    return "[" + pad + item + ("," + pad + item) * (shape[0] - 1) + "\n" + "  " * level + "]"


def _fill(layout: str, values: np.ndarray) -> str:
    """``layout`` with the real and imaginary parts of ``values`` in order."""
    # "%.17g" runs the formatter of format(x, ".17g"), so the bytes match the
    # scalar path; one % fills every number.
    flat = values.ravel().view(float)
    text = layout % tuple(flat.tolist())
    if np.signbit(flat[flat == 0]).any():
        # "%.17g" prints a negative zero as "-0", always a whole pair part.
        text = text.replace("[-0,", "[-0.0,").replace(" -0]", " -0.0]")
    return text


def _format_items(array: np.ndarray, level: int, start: int, stop: int) -> str:
    """Items ``start:stop`` of a complex array at ``level``, each after its separator.

    An item is a [re, im] pair of a vector or a row of a matrix. The first
    item's separator opens the array; the closing bracket is not included.
    A range of at least ``_KERNEL_FLOATS`` floats is formatted by the numpy
    kernel, where this platform's long double allows it: the same bytes.
    """
    pad = "\n" + "  " * (level + 1)
    item = _pair_layout(array.shape[1:], level + 1)
    opening = ("[" if start == 0 else ",") + pad
    values = array[start:stop]
    if 2 * values.size >= _KERNEL_FLOATS:
        from . import _fmt17

        if _fmt17.EXACT:
            return _fmt17.fill(opening, "," + pad, item, values)
    return _fill(opening + item + ("," + pad + item) * (stop - start - 1), values)


def _multiline(obj) -> bool:
    """Whether ``obj`` is written one member per line: a dict, an array, or a
    list or tuple that holds one of those or another list."""
    return isinstance(obj, (dict, np.ndarray)) or isinstance(obj, (list, tuple)) and any(
        isinstance(item, (list, tuple, dict, np.ndarray)) for item in obj)


def _key(k) -> str:
    if not isinstance(k, str):
        raise TypeError("JSON object keys must be strings")
    return json.dumps(k) + ": "


def _scalar(obj) -> str:
    """The text of a scalar, or of a list of scalars, which stays on one line."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return _format_number(obj)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_scalar, obj)) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _emit(obj, level: int, out: list) -> None:
    """Append the text of ``obj`` at ``level`` to ``out``, as strings and item ranges.

    An item range ``(array, level, start, stop)`` of a complex array is
    formatted by ``_format_items`` when it is written. A container is one
    member per line; a list with no container in it stays on one line.
    """
    if not _multiline(obj):
        out.append(_scalar(obj))
    elif isinstance(obj, np.ndarray):
        if obj.dtype != complex:
            raise TypeError(f"cannot serialize {type(obj).__name__}")
        if not np.isfinite(obj).all():
            raise ValueError("non-finite number in JSON output")
        if obj.ndim == 0:
            out.append(_fill(_pair_layout((), level), obj))
        elif len(obj) == 0:
            out.append("[]")
        else:
            step = max(1, _RANGE_FLOATS // max(1, 2 * obj[0].size))
            out.extend((obj, level, start, min(start + step, len(obj)))
                       for start in range(0, len(obj), step))
            out.append("\n" + "  " * level + "]")
    elif not obj:
        out.append("{}")  # an empty list is not multi-line
    else:
        is_dict = isinstance(obj, dict)
        pad = "\n" + "  " * (level + 1)
        head = ("{" if is_dict else "[") + pad
        for key, value in obj.items() if is_dict else enumerate(obj):
            label = head + _key(key) if is_dict else head
            if _multiline(value):
                out.append(label)
                _emit(value, level + 1, out)
            else:
                out.append(label + _scalar(value))
            head = "," + pad
        out.append("\n" + "  " * level + ("}" if is_dict else "]"))


def _text(part) -> str:
    return part if type(part) is str else _format_items(*part)


def _write(fd: int, text: str) -> None:
    """All of ``text`` to ``fd``; a short write is resumed, a failed one raises OSError."""
    data = memoryview(text.encode())
    while data:
        data = data[os.write(fd, data):]


def dumps(obj, path: str | None = None) -> str | None:
    """The JSON text of ``obj``; with ``path``, that text and a newline written to the file.

    The file is written as it is formatted, one item range of a complex array
    at a time, in this process. A failed write removes the file, if it is a
    regular file (_remove_written), and raises its error.
    """
    parts: list = []
    _emit(obj, 0, parts)
    if path is None:
        return "".join(map(_text, parts))
    parts.append("\n")
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    opened = None
    try:
        try:
            opened = os.fstat(fd)
            for part in parts:
                _write(fd, _text(part))
        finally:
            os.close(fd)
    except BaseException:
        _remove_written(path, opened)
        raise
    return None


def _remove_written(path: str, opened: os.stat_result | None) -> None:
    """Remove ``path`` if it is still the regular file ``opened``: no device, FIFO or symlink."""
    try:
        now = os.lstat(path)
        if opened is not None and stat.S_ISREG(now.st_mode) and os.path.samestat(now, opened):
            os.unlink(path)
    except OSError:
        pass


# --- state and marginal file formats ---

def _all_of(items, kinds) -> bool:
    """Every item an instance of ``kinds`` and none a bool; one check per distinct type."""
    types = set(map(type, items))
    return bool not in types and all(issubclass(t, kinds) for t in types)


def _is_int_list(value) -> bool:
    """A nonempty list of integers, none of them a bool."""
    return isinstance(value, list) and bool(value) and _all_of(value, int)


def _parse_pairs(obj, shape: tuple[int, ...], where: str) -> np.ndarray:
    """A complex array of ``shape`` from nested lists of [re, im] number pairs.

    One loop checks each nesting level at once over all of its lists: the rows
    of ``shape``, then the pairs. Each must be a list, as decoded JSON gives.
    Every number is then converted in one ``np.array`` call.
    """
    if len(shape) == 1:
        what, shape_error = "'vector'", f"{where}: 'vector' must hold {shape[0]} [re, im] pairs"
    else:
        what, shape_error = "matrix", f"{where}: expected a {shape[0]}x{shape[1]} matrix"
    pair_error = f"{where}: complex entries must be [re, im] number pairs"
    numbers = [obj]
    for n, error in [(n, shape_error) for n in shape] + [(2, pair_error)]:
        if not _all_of(numbers, list) or set(map(len, numbers)) != {n}:
            raise ValueError(error)
        numbers = list(chain.from_iterable(numbers))
    if not _all_of(numbers, (int, float)):
        raise ValueError(pair_error)
    try:
        flat = np.array(numbers, dtype=float)
    except OverflowError:  # an integer beyond double range
        raise ValueError(f"{where}: {what} holds a non-finite number") from None
    if not np.isfinite(flat).all():
        raise ValueError(f"{where}: {what} holds a non-finite number")
    return flat.view(complex).reshape(shape)


def _check_keys(data: dict, allowed: tuple[str, ...], where: str) -> None:
    """Reject keys outside ``allowed``, so no part of an input file goes unread."""
    unknown = [key for key in data if key not in allowed]
    if unknown:
        raise ValueError(
            f"{where}: unknown keys {', '.join(map(repr, unknown))}; "
            f"allowed: {', '.join(map(repr, allowed))}"
        )


def _parse_dims(data: dict, where: str) -> SpaceShape:
    dims = data.get("dims")
    if not _is_int_list(dims):
        raise ValueError(f"{where}: 'dims' must be a nonempty list of integers")
    return SpaceShape(tuple(dims))


def state_file_dict(state: PureState | Operator) -> dict:
    if isinstance(state, PureState):
        return {
            "dims": list(state.shape.dims),
            "kind": "pure",
            "vector": state.amplitudes,
        }
    return {
        "dims": list(state.shape.dims),
        "kind": "mixed",
        "matrix": state.entries,
    }


def parse_state_dict(data) -> PureState | Operator:
    if not isinstance(data, dict):
        raise ValueError("state file: top level must be a JSON object")
    shape = _parse_dims(data, "state file")
    kind = data.get("kind")
    if kind == "pure":
        _check_keys(data, ("dims", "kind", "vector"), "state file")
        amp = _parse_pairs(data.get("vector"), (shape.total_dim,), "state file")
        try:
            return PureState(shape, amp)
        except ValueError as exc:  # the norm check
            raise ValueError(f"state file: {exc}") from None
    if kind == "mixed":
        _check_keys(data, ("dims", "kind", "matrix"), "state file")
        side = _operator_side(shape)
        mat = _parse_pairs(data.get("matrix"), (side, side), "state file")
        op = Operator(shape, mat)
        _require_density(op, "state file: not a density matrix")
        return op
    raise ValueError("state file: 'kind' must be 'pure' or 'mixed'")


def _read_json(path: str):
    def unique(pairs: list) -> dict:
        # json.loads alone keeps the last of two equal keys and drops the first.
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError(f"duplicate key {key!r}")
            obj[key] = value
        return obj

    try:
        # RFC 8259: JSON exchanged between systems is UTF-8, whatever the locale.
        return json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=unique)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"{path}: invalid JSON: {exc}") from exc
    except ValueError as exc:  # a duplicate key, or an integer literal past 4300 digits
        raise ValueError(f"{path}: {exc}") from None


def load_state_file(path: str) -> PureState | Operator:
    return parse_state_dict(_read_json(path))


def _party_items(values: dict[SubsetMask, object] | None, key: str) -> list[dict] | None:
    """``{"parties": [...], key: value}`` items in (size, mask) order; None stays None."""
    if values is None:
        return None
    return [
        {"parties": list(mask.parties), key: values[mask]}
        for mask in sorted(values, key=lambda m: (m.cardinality, m.bits))
    ]


def marginal_file_dict(
    shape: SpaceShape,
    entries: dict[SubsetMask, Operator],
    global_purity: float | None = None,
) -> dict:
    matrices = {mask: op.entries for mask, op in entries.items()}
    doc: dict = {"dims": list(shape.dims), "marginals": _party_items(matrices, "matrix")}
    if global_purity is not None:
        doc["global_purity"] = float(global_purity)
    return doc


def parse_marginal_dict(data) -> tuple[MarginalSet, float | None]:
    from .compatibility import MarginalSet, checked_global_purity

    if not isinstance(data, dict):
        raise ValueError("marginal file: top level must be a JSON object")
    _check_keys(data, ("dims", "marginals", "global_purity"), "marginal file")
    shape = _parse_dims(data, "marginal file")
    raw = data.get("marginals")
    if not isinstance(raw, list) or not raw:
        raise ValueError("marginal file: 'marginals' must be a nonempty list")
    entries: dict[SubsetMask, Operator] = {}
    for i, item in enumerate(raw):
        where = f"marginal file entry {i}"
        if not isinstance(item, dict):
            raise ValueError(f"{where}: must be an object")
        _check_keys(item, ("parties", "matrix"), where)
        parties = item.get("parties")
        if not _is_int_list(parties) or sorted(set(parties)) != parties:
            raise ValueError(
                f"{where}: 'parties' must be a strictly increasing list of party indices"
            )
        mask = SubsetMask.from_parties(parties, shape.n_parties)
        if mask in entries:
            raise ValueError(f"{where}: duplicate marginal for parties {parties}")
        sub = shape.subshape(mask)
        mat = _parse_pairs(item.get("matrix"), (_operator_side(sub),) * 2, where)
        entries[mask] = Operator(sub, mat)
    marginals = MarginalSet(shape, entries)
    global_purity = data.get("global_purity")
    subject = "marginal file: 'global_purity'"
    if "global_purity" in data:  # a null is checked too, and is not a number
        # Checked here, so a flag that overrides the field does not hide a bad one.
        full = marginals.purities.get(shape.full_mask().bits)
        global_purity = checked_global_purity(shape.total_dim, global_purity, subject, full)
    return marginals, global_purity


def load_marginal_file(path: str) -> tuple[MarginalSet, float | None]:
    return parse_marginal_dict(_read_json(path))


# --- report documents ---

def _document(kind: str, **fields) -> dict:
    """A printed document: ``schema_version`` and ``kind``, then ``fields`` in order."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


def error_dict(message: str) -> dict:
    return _document("error", message=message)


def compat_report_dict(rep: CompatReport, violations) -> dict:
    return _document(
        "compat_report",
        theorem=rep.theorem,
        dims=list(rep.dims),
        verdict=rep.verdict,
        lhs=rep.lhs,
        lhs_proper=rep.lhs_proper,
        bound=1.0,
        slack=rep.slack,
        assumed_global_purity=rep.assumed_global_purity,
        per_subset_purities=_party_items(rep.per_subset_purities, "purity"),
        missing_subsets=[list(m.parties) for m in rep.missing_subsets],
        consistency_violations=[
            {
                "subset": list(v.subset.parties),
                "superset": list(v.superset.parties),
                "max_deviation": float(v.max_deviation),
            }
            for v in violations
        ],
        tolerances={"verdict": TOL_VERDICT, "input": TOL_INPUT},
    )


# --- commands ---

def _pure_state(path: str, subject: str) -> PureState:
    """The state file at ``path``, which must be pure for ``subject`` to be defined."""
    state = load_state_file(path)
    if not isinstance(state, PureState):
        raise ValueError(f"{subject} defined for pure states; got kind 'mixed'")
    return state


def cmd_measure(args) -> tuple[dict, int]:
    from .measures import measure_all

    rep = measure_all(_pure_state(args.state, "the measure is"), args.route)
    max_delta = rep.max_route_delta()
    return _document(
        "measure_report",
        dims=list(rep.dims),
        route=args.route,
        values=rep.values,
        route_deltas=rep.route_deltas(),
        max_route_delta=max_delta,
        routes_agree=None if max_delta is None else max_delta <= TOL_ROUTE,
        per_subset_purities=_party_items(rep.per_subset_purities, "purity"),
        tolerances={"route_agreement": TOL_ROUTE, "input": TOL_INPUT},
    ), EXIT_OK


def _certify(
    marginals: MarginalSet, pure: bool, global_purity: float | None
) -> tuple[dict, int]:
    """The ``compat_report`` document of the theorem 1 (pure) or 2 check, and its exit code."""
    from .compatibility import (
        VERDICT_CONSISTENT,
        VERDICT_INCOMPATIBLE,
        VERDICT_INCONCLUSIVE,
        consistency_precheck,
        theorem1_check,
        theorem2_check,
    )

    verdict_exit = {
        VERDICT_CONSISTENT: EXIT_OK,
        VERDICT_INCOMPATIBLE: EXIT_VIOLATION,
        VERDICT_INCONCLUSIVE: EXIT_INCONCLUSIVE,
    }
    rep = theorem1_check(marginals) if pure else theorem2_check(marginals, global_purity)
    return compat_report_dict(rep, consistency_precheck(marginals)), verdict_exit[rep.verdict]


def cmd_compat(args) -> tuple[dict, int]:
    if args.pure and args.global_purity is not None:
        raise ValueError("--pure and --global-purity are mutually exclusive")
    marginals, file_purity = load_marginal_file(args.marginals)
    g = args.global_purity if args.global_purity is not None else file_purity
    return _certify(marginals, args.pure, g)


def cmd_monogamy(args) -> tuple[dict, int]:
    from .monogamy import corollary1_scan

    state = _pure_state(args.state, "monogamy reports are")
    reports = corollary1_scan(state)
    all_hold = all(r.holds for r in reports)
    return _document(
        "monogamy_report",
        dims=list(state.shape.dims),
        reports=[
            {
                "parties": list(r.index_set.parties),
                "lhs": r.lhs,
                "rhs": r.rhs,
                "slack": r.slack,
                "holds": r.holds,
            }
            for r in reports
        ],
        all_hold=all_hold,
        tolerances={"verdict": TOL_VERDICT},
    ), EXIT_OK if all_hold else EXIT_VIOLATION


def cmd_disorder(args) -> tuple[dict, int]:
    from .monogamy import disorder_check

    state = load_state_file(args.state)
    rep = disorder_check(state)
    return _document(
        "disorder_report",
        dims=list(state.shape.dims),
        lhs=rep.lhs,
        rhs=rep.rhs,
        slack=rep.slack,
        holds=rep.holds,
        tolerances={"verdict": TOL_VERDICT},
    ), EXIT_OK if rep.holds else EXIT_VIOLATION


def _parse_dims_arg(text: str) -> SpaceShape:
    """The shape ``--dims`` names; an error shows at most 40 characters of the text."""
    try:
        dims = tuple(int(piece) for piece in text.split(","))
    except ValueError as exc:
        if str(exc).startswith("Exceeds the limit"):  # Python's guard on long digit strings
            limit = f"{sys.get_int_max_str_digits()}-digit conversion limit"
            raise ValueError(f"--dims entry exceeds Python's {limit}") from None
        shown = repr(text) if len(text) <= 40 else f"{text[:40]!r}... ({len(text)} characters)"
        raise ValueError(f"--dims must be comma-separated integers, got {shown}") from exc
    return SpaceShape(dims)


def cmd_sample(args) -> tuple[dict | None, int]:
    from .states import random_mixed, random_pure

    shape = _parse_dims_arg(args.dims)
    if args.kind == "pure":
        if args.rank is not None:
            raise ValueError("--rank applies only to mixed sampling")
        state: PureState | Operator = random_pure(shape, args.seed)
    else:
        rank = args.rank if args.rank is not None else shape.total_dim
        state = random_mixed(shape, rank, args.seed)
    doc = state_file_dict(state)
    if not args.out:
        return doc, EXIT_OK
    try:
        dumps(doc, args.out)
    except BrokenPipeError as exc:
        # A reader that closed the --out file is a failed write (exit 2), not a closed stdout.
        raise OSError(str(exc)) from None
    return None, EXIT_OK


def eq8_marginal_file() -> dict:
    """The built-in four-qubit marginal set that no global state can produce."""
    third = 1.0 / 3.0
    single = np.diag([2.0 * third, third]).astype(complex)
    pair = np.zeros((4, 4), dtype=complex)
    pair[0, 0] = third
    pair[1:3, 1:3] = third
    triple = np.zeros((8, 8), dtype=complex)
    for i in (1, 2, 4):
        for j in (1, 2, 4):
            triple[i, j] = third
    shape = SpaceShape((2, 2, 2, 2))
    entries: dict[SubsetMask, Operator] = {}
    for bits in range(1, 15):
        mask = SubsetMask(bits, 4)
        matrix = {1: single, 2: pair, 3: triple}[mask.cardinality]
        entries[mask] = Operator(shape.subshape(mask), matrix)
    return marginal_file_dict(shape, entries)


def cmd_demo(args) -> tuple[dict, int]:
    file_dict = eq8_marginal_file()
    marginals, global_purity = parse_marginal_dict(json.loads(dumps(file_dict)))
    certificate, code = _certify(marginals, pure=False, global_purity=global_purity)
    return _document("demo_eq8", marginal_file=file_dict, certificate=certificate), code


class _Help(Exception):
    """``--help``, carrying the help text, which ``_run`` prints as the command's output."""


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors, printed as ``error`` JSON."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")

    def print_help(self, file=None):
        raise _Help(self.format_help())


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qcert",
        description=(
            "Multipartite entanglement measure and marginal-compatibility "
            "certificates over JSON state files."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="evaluate the entanglement measure of a pure state")
    p.add_argument("--state", required=True, help="path to a pure state file")
    p.add_argument(
        "--route",
        choices=ROUTES,
        default="all",
    )
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("compat", help="run a compatibility certificate on a marginal set")
    p.add_argument("--marginals", required=True, help="path to a marginal file")
    p.add_argument("--pure", action="store_true", help="claim a pure global state")
    p.add_argument("--global-purity", type=float, default=None, dest="global_purity")
    p.set_defaults(func=cmd_compat)

    p = sub.add_parser("monogamy", help="monogamy inequality scan of a pure state")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_monogamy)

    p = sub.add_parser("disorder", help="disorder inequality check of a density matrix")
    p.add_argument("--state", required=True)
    p.set_defaults(func=cmd_disorder)

    p = sub.add_parser("sample", help="write a deterministic random state file")
    p.add_argument("--dims", required=True, help="comma-separated party dimensions")
    p.add_argument("--kind", choices=["pure", "mixed"], default="pure")
    p.add_argument("--rank", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("demo", help="built-in demonstrations")
    p.add_argument("topic", choices=["eq8"])
    p.set_defaults(func=cmd_demo)

    return parser


def _run(argv) -> int:
    """Print the command's document, or an ``error`` document for an input error; the exit code."""
    try:
        args = build_parser().parse_args(argv)
        doc, code = args.func(args)
        text = None if doc is None else dumps(doc)
    except _Help as help_:
        text, code = help_.args[0].removesuffix("\n"), EXIT_OK
    except BrokenPipeError:
        raise
    except (ValueError, OSError, RecursionError, MemoryError) as exc:
        text, code = dumps(error_dict(str(exc) or type(exc).__name__)), EXIT_INPUT_ERROR
    if text is not None:
        # The newline is a second write: it fails on a closed pipe after a cut-short text.
        print(text)
    return code


def _silence_stdout() -> None:
    """Point fd 1 at the null device, so that no later flush of stdout can fail."""
    os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def main(argv=None) -> int:
    # A command builds no reference cycles worth collecting (argparse's parser aside).
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        code = _run(argv)
        if sys.stdout is not None:  # None when the process started with stdout closed
            sys.stdout.flush()
        return code
    except BrokenPipeError:
        _silence_stdout()
        return EXIT_BROKEN_PIPE
    except OSError as exc:  # only a write to stdout gets here, say on a full disk
        _silence_stdout()
        print(f"qcert: cannot write to stdout: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR
    finally:
        if was_enabled:
            gc.enable()


def run_and_exit() -> NoReturn:
    """The ``qcert`` command: ``main()``, then end the process once its output is written.

    ``os._exit`` skips the interpreter's teardown, which costs more than most
    commands' own work. An exception that escapes ``main`` still exits through
    the interpreter, with a traceback and exit 1.
    """
    code = main()
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:  # None when the process started with the descriptor closed
            stream.flush()
    os._exit(code)


if __name__ == "__main__":
    run_and_exit()
