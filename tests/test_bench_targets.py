"""Every cobcat function the benchmark wraps when tracing must exist.

``perfbench/run.py --trace 1`` wraps the dotted names listed in the
``TARGETS`` of each ``perfbench/wl_*.py``; a rename in cobcat would
otherwise surface only as a crash of the traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def traced_names():
    names = []
    for path in sorted(PERFBENCH.glob("wl_*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
            ):
                for target in node.value.elts:
                    dotted = target.elts[0].value
                    if dotted.startswith("cobcat."):
                        names.append(dotted)
    return sorted(set(names))


def test_targets_are_found():
    names = traced_names()
    assert "cobcat.cli.dispatch" in names
    assert "cobcat.nerve.build_nerve" in names
    assert "cobcat.localize.surface_localization_group" in names


@pytest.mark.parametrize("dotted", traced_names())
def test_traced_name_resolves(dotted):
    module, *attrs = dotted.split(".")[1:]
    obj = importlib.import_module(f"cobcat.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    assert callable(obj)
