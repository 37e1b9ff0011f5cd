"""The benchmark tracer's metric names against the package's public functions.

``perfbench/tracer.py`` finds the functions it times by name. A name that no
longer resolves reads as zero calls and zero seconds, so a rename would
silently empty a per-layer metric. The tracer is read with ``runpy``, which
neither imports it as a module nor writes a bytecode cache beside it.
"""

from __future__ import annotations

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

TRACER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"))
GROUPS = TRACER["GROUPS"]
# A group name ("cli.parse") stands for its member functions.
NAMES = sorted({fn for name in (*GROUPS, *TRACER["COUNTED"], *TRACER["TIMED"])
                for fn in GROUPS.get(name, (name,))})


@pytest.mark.parametrize("name", NAMES)
def test_name_is_a_public_function_of_its_module(name):
    layer, function = name.split(".")
    assert layer in TRACER["LAYERS"]
    module = importlib.import_module(f"qcert.{layer}")
    obj = getattr(module, function, None)
    assert not function.startswith("_")
    assert inspect.isfunction(obj), f"qcert.{name} is not a function"
    assert obj.__module__ == module.__name__, f"qcert.{name} is defined elsewhere"
