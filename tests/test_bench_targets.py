"""Every cobcat function the benchmark wraps when tracing must exist, and
what the traced benchmark reads off cobcat's results must keep working.

``perfbench/run.py --trace 1`` wraps the dotted names listed in the
``TARGETS`` of each ``perfbench/wl_*.py`` and counts through each
workload's ``pass_counts``; a rename or a changed result type in cobcat
would otherwise surface only as a crash of the traced benchmark run.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from cobcat.fincat import subset_poset_category
from cobcat.nerve import build_nerve
from fincat_helpers import cyclic_group_category

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


def test_nerve_pass_counts(monkeypatch):
    # wl_nerve imports its siblings gen and jobs by bare name.
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("wl_nerve", PERFBENCH / "wl_nerve.py")
    wl_nerve = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(wl_nerve)
    bz5 = build_nerve(cyclic_group_category(5), 4)
    sphere = build_nerve(subset_poset_category(4), 3)
    assert wl_nerve.pass_counts([(bz5, None)]) == {
        "nerve.cells": 341,
        "nerve.boundary_nonzeros": 1340,
    }
    assert wl_nerve.pass_counts([(sphere, None)]) == {
        "nerve.cells": 74,
        "nerve.boundary_nonzeros": 144,
    }
