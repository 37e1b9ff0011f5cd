"""The package's records behave as the frozen dataclasses they replace.

Each record class keeps ``==`` and ``hash`` (by value, or by identity for the
classes that hold arrays or a marginal set), refuses assignment and deletion
of a field, prints the dataclass ``repr``, and survives ``pickle`` and
``copy``. No module under ``src/qcert`` imports ``dataclasses``, whose code
generation each command would pay for at start-up.
"""

from __future__ import annotations

import ast
import copy
import pickle
from pathlib import Path

import numpy as np
import pytest

import qcert
from conftest import marginal_set
from qcert import (
    CompatReport,
    DensityDiagnostics,
    DisorderReport,
    MarginalMismatch,
    MarginalSet,
    MeasureReport,
    MonogamyReport,
    Operator,
    PureState,
    SpaceShape,
    SubsetMask,
    corollary1_scan,
    disorder_check,
    ghz_state,
    measure_all,
    theorem2_check,
    validate_density,
)

SRC = Path(qcert.__file__).resolve().parent


def _operator():
    return Operator(SpaceShape((2,)), np.diag([0.75, 0.25]))


# class -> (a fresh instance, its printed and compared fields, its other fields)
RECORDS = {
    SpaceShape: (lambda: SpaceShape((2, 3)), ("dims",), ("total_dim",)),
    SubsetMask: (lambda: SubsetMask(3, 4), ("bits", "n_parties"), ()),
    Operator: (_operator, ("shape", "entries"), ()),
    PureState: (lambda: ghz_state(2), ("shape", "amplitudes"), ()),
    DensityDiagnostics: (
        lambda: validate_density(_operator()),
        ("hermiticity_deviation", "trace_deviation", "min_eigenvalue"), (),
    ),
    MeasureReport: (
        lambda: measure_all(ghz_state(2), "subset-sum"),
        ("dims", "values", "per_subset_purities"), (),
    ),
    MonogamyReport: (
        lambda: corollary1_scan(ghz_state(2))[0],
        ("index_set", "lhs", "rhs", "slack", "holds"), (),
    ),
    DisorderReport: (lambda: disorder_check(ghz_state(2)), ("lhs", "rhs", "slack", "holds"), ()),
    MarginalSet: (
        lambda: marginal_set(ghz_state(2).density()), ("shape", "entries"), ("purities",),
    ),
    CompatReport: (
        lambda: theorem2_check(marginal_set(ghz_state(2).density())),
        ("theorem", "dims", "lhs", "lhs_proper", "slack", "verdict", "per_subset_purities",
         "missing_subsets", "assumed_global_purity"), (),
    ),
    MarginalMismatch: (
        lambda: MarginalMismatch(SubsetMask(1, 2), SubsetMask(3, 2), 0.5),
        ("subset", "superset", "max_deviation"), (),
    ),
}
BY_IDENTITY = {Operator, PureState, MarginalSet}
# Records whose constructor only stores its fields: _Record.__init__ takes them.
PLAIN = [DensityDiagnostics, MeasureReport, MonogamyReport, DisorderReport, CompatReport,
         MarginalMismatch]
UNHASHABLE = {MeasureReport, CompatReport}  # a dict field, as with the dataclasses
CLASSES = pytest.mark.parametrize("cls", list(RECORDS), ids=lambda cls: cls.__name__)


def same(x, y) -> bool:
    """Equal values, reading arrays and identity-compared records by their contents."""
    if isinstance(x, dict):
        return x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
    if isinstance(x, np.ndarray):
        return np.array_equal(x, y)
    if type(x) in BY_IDENTITY:
        return type(y) is type(x) and same_fields(x, y, RECORDS[type(x)][1])
    return x == y


def same_fields(a, b, names) -> bool:
    return all(same(getattr(a, n), getattr(b, n)) for n in names)


@CLASSES
def test_equality_and_hash(cls):
    make, shown, _ = RECORDS[cls]
    a, b = make(), make()
    assert type(a) is cls and a is not b
    assert a == a and not a != a
    assert a != object() and a != tuple(getattr(a, n) for n in shown)
    if cls in BY_IDENTITY:
        assert a != b and same_fields(a, b, shown)
        assert hash(a) == object.__hash__(a)
        return
    assert a == b and not a != b
    if cls in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)
    else:
        assert hash(a) == hash(b) == hash(tuple(getattr(a, n) for n in shown))


def test_a_shape_compares_its_dims_only():
    a = SpaceShape((2, 3))
    assert {a: 1} == {SpaceShape([2, 3]): 1}
    assert a != SpaceShape((3, 2)) and a != SubsetMask(3, 4)
    assert SubsetMask(3, 4) != SubsetMask(3, 5)


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    make, shown, hidden = RECORDS[cls]
    record = make()
    for name in (*shown, *hidden):
        before = getattr(record, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(record, name)
        assert getattr(record, name) is before
    with pytest.raises(AttributeError):
        record.extra = 1


@CLASSES
def test_repr_is_the_dataclass_repr(cls):
    make, shown, _ = RECORDS[cls]
    record = make()
    fields = ", ".join(f"{name}={getattr(record, name)!r}" for name in shown)
    assert repr(record) == str(record) == f"{cls.__name__}({fields})"


def test_repr_text_of_shapes_and_masks():
    assert repr(SubsetMask(3, 4)) == "SubsetMask(bits=3, n_parties=4)"
    assert repr(SpaceShape((2, 3))) == "SpaceShape(dims=(2, 3))"
    assert SubsetMask(bits=3, n_parties=4) == SubsetMask(3, 4)
    assert SpaceShape(dims=[2, 3]) == SpaceShape((2, 3))
    assert repr(MarginalMismatch(SubsetMask(1, 2), SubsetMask(3, 2), 0.5)) == (
        "MarginalMismatch(subset=SubsetMask(bits=1, n_parties=2), "
        "superset=SubsetMask(bits=3, n_parties=2), max_deviation=0.5)"
    )


@CLASSES
@pytest.mark.parametrize("how", ["pickle", "copy"])
def test_pickle_and_copy_round_trips(cls, how):
    make, shown, hidden = RECORDS[cls]
    record = make()
    twin = pickle.loads(pickle.dumps(record)) if how == "pickle" else copy.copy(record)
    assert type(twin) is cls and twin is not record
    assert same_fields(twin, record, (*shown, *hidden))
    if cls not in BY_IDENTITY:
        assert twin == record
    with pytest.raises(AttributeError):
        setattr(twin, shown[0], None)


@CLASSES
def test_rebuilt_by_name_from_its_own_fields(cls):
    make, shown, hidden = RECORDS[cls]
    record = make()
    twin = cls(**{name: getattr(record, name) for name in reversed(shown)})
    assert type(twin) is cls and same_fields(twin, record, (*shown, *hidden))
    if cls not in BY_IDENTITY:
        assert twin == record


@pytest.mark.parametrize("cls", PLAIN, ids=lambda cls: cls.__name__)
def test_plain_records_take_their_fields_in_slot_order(cls):
    assert "__init__" not in vars(cls)
    record = RECORDS[cls][0]()
    fields = cls.__slots__
    values = [getattr(record, name) for name in fields]
    first, *rest = fields
    mixed = cls(values[0], **dict(zip(rest, values[1:])))
    assert same_fields(mixed, record, fields)
    heading = f"^{cls.__name__} takes the fields {', '.join(fields)}: "
    wrong = {
        f"{len(fields) + 1} values given": lambda: cls(*values, None),
        f"'{fields[-1]}' is missing": lambda: cls(*values[:-1]),
        "; ".join(f"'{field}' is missing" for field in fields): cls,
        f"'{first}' given twice": lambda: cls(*values, **{first: values[0]}),
        "'extra' is not a field": lambda: cls(*values, extra=1),
    }
    for message, build in wrong.items():
        with pytest.raises(TypeError, match=heading + message + "$"):
            build()


def test_validating_records_keep_their_own_checks():
    shape = SpaceShape((2, 2))
    cases = [
        (lambda: SpaceShape(dims=(2, 1)), ValueError, "got 1 for party 1"),
        (lambda: SubsetMask(bits=4, n_parties=2), ValueError, "mask bits 0x4 out of range"),
        (lambda: Operator(shape=shape, entries=np.eye(2)), ValueError, "expected a 4x4 matrix"),
        (lambda: PureState(shape=shape, amplitudes=np.ones(4)), ValueError, "squared norm 4.0"),
        (lambda: MarginalSet(shape=shape, entries={SubsetMask(1, 3): _operator()}),
         ValueError, "marginal key is over a different party count"),
        (lambda: SpaceShape(dims=(2,), total_dim=2), TypeError, "unexpected keyword"),
    ]
    for build, error, message in cases:
        with pytest.raises(error, match=message):
            build()


@pytest.mark.parametrize("protocol", range(pickle.HIGHEST_PROTOCOL + 1))
def test_every_pickle_protocol(protocol):
    shape = SpaceShape((2, 3))
    twin = pickle.loads(pickle.dumps(shape, protocol=protocol))
    assert twin == shape and twin.total_dim == 6


@pytest.mark.parametrize(
    "path", sorted(SRC.glob("*.py")), ids=lambda path: path.name
)
def test_no_module_imports_dataclasses(path):
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            assert all(alias.name.split(".")[0] != "dataclasses" for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert (node.module or "").split(".")[0] != "dataclasses"
