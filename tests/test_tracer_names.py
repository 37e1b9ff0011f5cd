"""The benchmark's names for package objects against the package.

``perfbench/tracer.py`` finds the functions it times by name. A name that no
longer resolves reads as zero calls and zero seconds, so a rename would
silently empty a per-layer metric. The tracer is read with ``runpy``, which
neither imports it as a module nor writes a bytecode cache beside it.

``perfbench/workloads.py`` imports names from ``qcert`` and calls ``cli``
functions to write its inputs; a deleted one would fail only the benchmark.
It is read with ``ast``, so it is not imported either.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import runpy
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACER = runpy.run_path(str(PERFBENCH / "tracer.py"))
GROUPS = TRACER["GROUPS"]
# A group name ("cli.parse") stands for its member functions.
NAMES = sorted({fn for name in (*GROUPS, *TRACER["COUNTED"], *TRACER["TIMED"])
                for fn in GROUPS.get(name, (name,))})

WORKLOADS = list(ast.walk(ast.parse((PERFBENCH / "workloads.py").read_text())))
IMPORTED = sorted(
    (node.module, alias.name)
    for node in WORKLOADS
    if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "qcert"
    for alias in node.names
)
CLI_CALLS = sorted({
    node.attr for node in WORKLOADS
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
    and node.value.id == "cli"
})


@pytest.mark.parametrize("name", NAMES)
def test_name_is_a_public_function_of_its_module(name):
    layer, function = name.split(".")
    assert layer in TRACER["LAYERS"]
    module = importlib.import_module(f"qcert.{layer}")
    obj = getattr(module, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(obj), f"qcert.{name} is not a function"
    assert obj.__module__ == module.__name__, f"qcert.{name} is defined elsewhere"


def test_workloads_use_the_package():
    assert len(IMPORTED) > 1 and CLI_CALLS


@pytest.mark.parametrize("module, name", IMPORTED, ids=[".".join(i) for i in IMPORTED])
def test_workloads_import_resolves(module, name):
    if not hasattr(importlib.import_module(module), name):
        importlib.import_module(f"{module}.{name}")  # a submodule, as in "from qcert import cli"


@pytest.mark.parametrize("name", CLI_CALLS)
def test_workloads_cli_call_is_a_function(name):
    from qcert import cli

    assert inspect.isfunction(getattr(cli, name, None)), f"qcert.cli.{name} is not a function"
