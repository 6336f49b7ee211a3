"""Every work budget refuses through ``limits.check_count``.

The pass reads ``src/cobcat`` with ``ast`` and imports nothing.  It lists
each function that constructs ``ResourceLimitExceeded(...)``.  Only two may:
``limits.check_count``, the one refusal of every count against the ceiling,
and ``monoidal._check_prime``, whose bound is where the Miller-Rabin bases
stop proving primality, not a budget.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cobcat"
ALLOWED = {"limits.check_count", "monoidal._check_prime"}


def refusal_sites(module: str, source: str) -> list[str]:
    """``module.function`` of every construction of ``ResourceLimitExceeded``
    in ``source``, once per construction; ``module`` alone at module level."""
    sites = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{module}.{node.name}"
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == "ResourceLimitExceeded":
                sites.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    visit(ast.parse(source), module)
    return sites


def test_only_check_count_and_the_prime_bound_refuse():
    sites = [
        site
        for path in sorted(SRC.glob("*.py"))
        for site in refusal_sites(path.stem, path.read_text(encoding="utf-8"))
    ]
    assert sorted(sites) == sorted(ALLOWED)


def test_a_second_refusal_is_reported():
    source = (
        "def price(n):\n"
        "    if n > 16:\n"
        "        raise limits.ResourceLimitExceeded(f'{n} over 16')\n"
        "\n"
        "class Table:\n"
        "    def check(self):\n"
        "        raise ResourceLimitExceeded('too big')\n"
    )
    assert refusal_sites("monoidal", source) == ["monoidal.price", "monoidal.check"]
