"""Oracles for nerve homology, and the checks a Morse matching must pass."""

from __future__ import annotations

from cobcat.exactmath import AbelianInvariants, smith_diagonal
from cobcat.nerve import NerveComplex


def oracle_homology(n: NerveComplex) -> list[AbelianInvariants]:
    """The full-boundary path: Smith invariant factors of every boundary
    of the nerve, with no cell matched away."""
    diags = [
        smith_diagonal(columns, len(n.cells[p - 1]) if p else 0)
        for p, columns in enumerate(n.columns)
    ]
    return [
        AbelianInvariants(
            len(n.cells[p]) - len(diags[p]) - len(diags[p + 1]),
            tuple(d for d in diags[p + 1] if d > 1),
        )
        for p in range(n.cap)
    ]


def check_matching(n: NerveComplex, match: list[dict[int, int]]) -> list[int]:
    """Assert that ``match[p]``, a map from p-cells to (p+1)-cells, is an
    acyclic matching with unit incidences, and return the number of
    unmatched (critical) cells in each degree.

    Each cell is matched at most once: to a coface as a key of
    ``match[p]``, or to a face as a value of ``match[p - 1]``.  The
    gradient flow sends a matched p-cell r to every other matched p-cell
    that is a face of r's partner; it is checked to be acyclic by
    topological sorting, independently of the depth-first search in
    :func:`cobcat.nerve.homology`.
    """
    assert len(match) == n.cap
    critical = []
    for p, cells in enumerate(n.cells):
        up = match[p] if p < n.cap else {}
        down = list(match[p - 1].values()) if p else []
        assert len(set(down)) == len(down), f"a {p}-cell matched from two faces"
        assert not set(down) & set(up), f"a {p}-cell matched both ways"
        for r, q in up.items():
            assert 0 <= r < len(cells) and 0 <= q < len(n.cells[p + 1])
            assert n.columns[p + 1][q].get(r) in (1, -1), (p, r, q)
        critical.append(len(cells) - len(up) - len(down))

        flows = {r: [g for g in n.columns[p + 1][q] if g != r and g in up] for r, q in up.items()}
        indegree = dict.fromkeys(flows, 0)
        for targets in flows.values():
            for g in targets:
                indegree[g] += 1
        ready = [r for r, k in indegree.items() if k == 0]
        for r in ready:
            for g in flows[r]:
                indegree[g] -= 1
                if indegree[g] == 0:
                    ready.append(g)
        assert len(ready) == len(flows), f"gradient flow cycle among {p}-cells"
    return critical
