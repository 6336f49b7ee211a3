"""Only the program lives in ``src/cobcat``.

Every module-level function and class there must be reachable from one of
three roots: a definition in ``cobcat.cli``, a cobcat name that
``tests/test_acceptance.py`` reads, or a cobcat name in the ``TARGETS`` of a
``perfbench/wl_*.py`` workload.  A definition that only tests reach belongs
in a ``tests/`` helper module.

The pass reads source with ``ast`` and imports nothing.  From a reached
definition it follows every bare name through its module's own definitions
and imports, and every ``module.attr`` on an imported cobcat module.
Methods and constants are reached along with their class or module, and are
not reported on their own.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cobcat"
TESTS = ROOT / "tests"
PERFBENCH = ROOT / "perfbench"
ACCEPTANCE = "test_acceptance"

# The tests/ module that holds what each src/ module's tests alone need.
HELPERS = {
    "cob1": "cob1_helpers",
    "cob2": "cob2_helpers",
    "exactmath": "exactmath_helpers",
    "fincat": "fincat_helpers",
    "localize": "localize_oracles",
    "monoidal": "monoidal_helpers",
    "nerve": "nerve_helpers",
}

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class Scope:
    """The module-level names of one module: what it defines, the names it
    imports from cobcat modules and the cobcat modules it imports whole."""

    def __init__(self, module: str, tree: ast.Module):
        self.module = module
        self.tree = tree
        self.defs: dict[str, ast.stmt] = {}
        self.imports: dict[str, tuple[str, str]] = {}
        self.modules: dict[str, str] = {}
        for node in tree.body:
            if isinstance(node, DEFINITIONS):
                self.defs[node.name] = node
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        self.defs[target.id] = node
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                base = _cobcat_module(node)
                for alias in node.names:
                    name = alias.asname or alias.name
                    if base == "":
                        self.modules[name] = alias.name
                    elif base is not None:
                        self.imports[name] = (base, alias.name)

    def references(self, node: ast.AST) -> set[tuple[str, str]]:
        """``(module, name)`` of every definition ``node`` names, before
        imports are followed."""
        out: set[tuple[str, str]] = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                if sub.id in self.defs:
                    out.add((self.module, sub.id))
                elif sub.id in self.imports:
                    out.add(self.imports[sub.id])
            elif (
                isinstance(sub, ast.Attribute)
                and isinstance(sub.value, ast.Name)
                and sub.value.id in self.modules
            ):
                out.add((self.modules[sub.value.id], sub.attr))
        return out


def _cobcat_module(node: ast.ImportFrom) -> str | None:
    """The cobcat module an import reads from, ``""`` for the package
    itself, or None for an import from outside cobcat."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and node.module is not None:
        if node.module == "cobcat":
            return ""
        if node.module.startswith("cobcat."):
            return node.module[len("cobcat.") :]
    return None


def target_names() -> set[tuple[str, str]]:
    """``(module, name)`` of each ``cobcat.module.name[.method]`` that a
    perfbench workload wraps."""
    out = set()
    for path in sorted(PERFBENCH.glob("wl_*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
            ):
                for target in node.value.elts:
                    dotted = target.elts[0].value.split(".")
                    if dotted[0] == "cobcat":
                        out.add((dotted[1], dotted[2]))
    return out


def src_sources() -> dict[str, str]:
    return {
        path.stem: path.read_text(encoding="utf-8")
        for path in sorted(SRC.glob("*.py"))
        if path.stem != "__init__"
    }


def unreached(sources: dict[str, str]) -> list[str]:
    """``module.name`` of every module-level function or class in
    ``sources`` that no root reaches."""
    scopes = {module: Scope(module, ast.parse(text)) for module, text in sources.items()}
    path = TESTS / f"{ACCEPTANCE}.py"
    acceptance = Scope(ACCEPTANCE, ast.parse(path.read_text(encoding="utf-8")))

    def resolve(module, name):
        while module in scopes:
            scope = scopes[module]
            if name in scope.defs:
                return module, name
            if name not in scope.imports:
                return None
            module, name = scope.imports[name]
        return None

    todo = [("cli", name) for name in scopes["cli"].defs]
    todo += acceptance.references(acceptance.tree)
    todo += target_names()
    seen: set[tuple[str, str]] = set()
    while todo:
        found = resolve(*todo.pop())
        if found is None or found in seen:
            continue
        seen.add(found)
        module, name = found
        todo += scopes[module].references(scopes[module].defs[name])
    return sorted(
        f"{module}.{name}"
        for module, scope in scopes.items()
        for name, node in scope.defs.items()
        if isinstance(node, DEFINITIONS) and (module, name) not in seen
    )


def test_every_src_definition_is_reached():
    missing = unreached(src_sources())
    assert not missing, (
        "reached only by tests, if at all; move to a tests/ helper module: "
        + ", ".join(missing)
    )


@pytest.mark.parametrize("module", sorted(HELPERS))
def test_restored_helpers_are_reported(module):
    # Every definition of a tests/ helper module, pasted back into the src/
    # module its tests cover, is reported.
    helper = (TESTS / f"{HELPERS[module]}.py").read_text(encoding="utf-8")
    nodes = [node for node in ast.parse(helper).body if isinstance(node, DEFINITIONS)]
    assert nodes
    sources = src_sources()
    pasted = "\n\n".join(ast.get_source_segment(helper, node) for node in nodes)
    sources[module] += "\n\n" + pasted + "\n"
    missing = set(unreached(sources))
    assert {f"{module}.{node.name}" for node in nodes} <= missing


def test_function_level_imports_reach():
    # A handler that imports inside its body, as cli's do, reaches what it
    # names; a definition nothing imports is still reported.
    sources = {
        "cli": (
            "def run():\n"
            "    from . import util\n"
            "    from .other import helper\n"
            "    return util.used() + helper()\n"
        ),
        "util": "def used():\n    return 1\n\n\ndef orphan():\n    return 2\n",
        "other": "def helper():\n    return 3\n",
    }
    assert unreached(sources) == ["util.orphan"]
