"""The library sketch in README.md runs and its comments hold."""

from __future__ import annotations

import re
from pathlib import Path

from qcert.config import TOL_ROUTE

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_sketch_runs():
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)
    assert len(blocks) == 1
    ns: dict = {}
    exec(compile(blocks[0], str(README), "exec"), ns)
    report, single = ns["report"], ns["single"]
    assert abs(report.values["oracle"] - report.values["subset_sum"]) <= TOL_ROUTE
    assert [name for name, value in single.values.items() if value is not None] == ["projector"]
    assert ns["cert2"].slack >= ns["cert"].slack
    assert abs(ns["e"] - report.values["projector"]) < 1e-12
    assert abs(ns["total"] - 1.0) < 1e-12
