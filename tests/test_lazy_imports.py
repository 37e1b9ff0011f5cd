"""The package imports a module on first use, and each command only its own.

``qcert`` lists its public names without importing them: ``getattr`` loads
the home module and returns its attribute, keeping no copy, so a rebinding
of the module attribute is what every caller sees. ``qcert.cli`` imports the
modules of a command inside that command. A fresh interpreter per command
checks which modules it leaves unloaded.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import qcert
from conftest import exit_probe, marginal_set
from qcert import SpaceShape, measures, random_pure
from qcert.cli import dumps, marginal_file_dict, state_file_dict

SRC = Path(qcert.__file__).resolve().parents[1]


@pytest.mark.parametrize("name", qcert.__all__)
def test_name_resolves_to_its_home_module(name):
    obj = getattr(qcert, name)
    assert inspect.isfunction(obj) or inspect.isclass(obj)
    home = obj.__module__
    assert home.startswith("qcert.")
    assert getattr(sys.modules[home], name) is obj
    assert name not in vars(qcert)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from qcert import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == sorted(qcert.__all__)


def test_all_is_sorted_without_duplicates_and_listed_by_dir():
    assert qcert.__all__ == sorted(set(qcert.__all__))
    assert set(qcert.__all__) <= set(dir(qcert))
    assert "__version__" in dir(qcert)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        getattr(qcert, "no_such_name")
    assert not hasattr(qcert, "ROUTES")


# Test-only routes and wrappers taken out of the package: the audit routes, the
# explicit two-copy observable, the party relabelling and the operator product
# are helpers in tests/conftest.py, and the wrappers' callers use measure_all.
REMOVED = ["all_patterns", "apply_local_unitary", "entanglement_E_partitions",
           "entanglement_E_projector", "expectation_mixed", "linear_entropy",
           "mutual_information", "naive_expectation", "naive_partial_trace", "observable",
           "pair_projector", "permute_parties", "purify", "purity_via_observables",
           "subset_purities", "swap_matrix", "swap_subset_expectation", "tensor"]


@pytest.mark.parametrize("name", REMOVED)
def test_removed_name_is_defined_by_no_module(name):
    assert name not in qcert.__all__
    with pytest.raises(AttributeError):
        getattr(qcert, name)
    for info in pkgutil.iter_modules(qcert.__path__):
        module = importlib.import_module(f"qcert.{info.name}")
        assert not hasattr(module, name), f"qcert.{info.name}.{name}"


def imported_names(path: Path) -> set[str]:
    """Each module and ``module.name`` the file at ``path`` imports, read with ast.

    A name taken from the package (``from qcert import name``, or ``from .
    import name`` inside it) also counts by its home module, since ``qcert``
    only forwards it.
    """
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            from_package = node.module == "qcert" if node.level == 0 else node.module is None
            for alias in node.names:
                names.add(f"{node.module or ''}.{alias.name}")
                if from_package:
                    names.add(getattr(getattr(qcert, alias.name, None), "__module__", ""))
    return names


@pytest.mark.parametrize("route", ["oracle", "observables"])
def test_oracle_imports_nothing_from_the_routes_it_audits(route):
    # Read with ast, not imported: an audit route must share no code with the
    # fast path or with the other audit route.
    names = imported_names(SRC / "qcert" / f"{route}.py")
    parts = {part for name in names for part in name.split(".")}
    routes = {"measures", "monogamy", "compatibility", "oracle", "observables"}
    assert not parts & (routes - {route}), names


def test_conftest_imports_nothing_from_the_kernel_it_audits():
    # The mixed audit route runs its own full passes.
    names = imported_names(Path(__file__).parent / "conftest.py")
    assert not {n for n in names if n.startswith("qcert.observables")}, names


def test_rebinding_a_module_attribute_reaches_the_package(monkeypatch):
    def stand_in(psi, subset):
        return 0.5

    monkeypatch.setattr(measures, "marginal_purity", stand_in)
    assert qcert.marginal_purity is stand_in


# --- modules each command leaves unloaded ------------------------------------

# The exit code, then every qcert module loaded by the end of the command.
RUN = exit_probe('*sorted(m for m in sys.modules if m.startswith("qcert."))')

# (argv with {state} and {marginals} placeholders, exit code, modules not imported)
COMMANDS = {
    "measure": (["measure", "--state", "{state}"], 0,
                {"compatibility", "monogamy", "states"}),
    "monogamy": (["monogamy", "--state", "{state}"], 0,
                 {"compatibility", "observables", "oracle", "states"}),
    "disorder": (["disorder", "--state", "{state}"], 0,
                 {"compatibility", "observables", "oracle", "states"}),
    "sample": (["sample", "--dims", "2,3", "--seed", "4"], 0,
               {"measures", "observables", "monogamy", "oracle", "compatibility"}),
    "compat": (["compat", "--marginals", "{marginals}"], 0,
               {"measures", "monogamy", "observables", "oracle", "states"}),
    "demo": (["demo", "eq8"], 3, {"measures", "monogamy", "observables", "oracle", "states"}),
}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    psi = random_pure(SpaceShape((2, 2, 2, 2)), 6)
    root = tmp_path_factory.mktemp("lazy")
    state = root / "psi.json"
    state.write_text(dumps(state_file_dict(psi)) + "\n")
    marginals = root / "marginals.json"
    entries = dict(marginal_set(psi.density()).entries)
    marginals.write_text(dumps(marginal_file_dict(psi.shape, entries)) + "\n")
    return {"state": str(state), "marginals": str(marginals)}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_command_leaves_other_modules_unloaded(command, inputs):
    argv, expected_code, absent = COMMANDS[command]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(
        [sys.executable, "-c", RUN, *(arg.format(**inputs) for arg in argv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    code, *loaded = proc.stderr.split()
    assert int(code) == expected_code, proc.stdout
    assert json.loads(proc.stdout)["kind"] != "error"
    loaded = {name.removeprefix("qcert.") for name in loaded}
    assert not absent & loaded, f"{command} imported {sorted(absent & loaded)}"
    assert {"config", "hilbert"} <= loaded
