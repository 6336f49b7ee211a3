"""Nerve of a finite category: homology and the edge-path fundamental group.

Cells in degree p are composable p-tuples of non-identity morphisms
(the normalized chain complex: faces that compose to an identity are
dropped).  Boundary matrices are exact integer matrices, and homology in
each degree comes from Smith normal form, so torsion is computed exactly.

Degrees above ``cap - 1`` are not reported: computing H_p honestly needs the
boundary out of degree p + 1, so a nerve built with ``cap = n`` yields
homology in degrees 0..n-1.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exactmath import (
    AbelianInvariants,
    GroupPresentation,
    IntMatrix,
    UnionFind,
    smith_normal_form,
)
from .fincat import FinCat
from .limits import ResourceLimitExceeded, max_cells_default

DEFAULT_CAP = 3


@dataclass(frozen=True)
class NerveComplex:
    """Cells and integer boundary matrices of a truncated nerve.

    ``cells[0]`` lists object indices; ``cells[p]`` for p >= 1 lists tuples
    of morphism indices forming composable chains of non-identities.
    ``boundaries[p]`` maps degree-p chains to degree-(p-1) chains; the
    composite of consecutive boundaries is checked to be zero at build time.
    """

    category: FinCat
    cap: int
    cells: tuple[tuple, ...]
    boundaries: tuple[IntMatrix, ...]

    def cell_counts(self) -> list[int]:
        return [len(layer) for layer in self.cells]


def build_nerve(
    c: FinCat, cap: int = DEFAULT_CAP, max_cells: int | None = None
) -> NerveComplex:
    """Enumerate nerve cells up to degree ``cap`` and assemble boundaries.

    Raises :class:`ResourceLimitExceeded` if the total number of cells would
    pass ``max_cells`` (default from COBCAT_MAX_CELLS or 10**6).
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    ceiling = max_cells_default() if max_cells is None else max_cells
    non_identities = [
        f for f in range(len(c.morphisms)) if not c.is_identity(f)
    ]
    cells: list[tuple] = [tuple(range(len(c.objects)))]
    total = len(cells[0])
    if total > ceiling:
        raise ResourceLimitExceeded(
            f"nerve would exceed {ceiling} cells at degree 0"
        )
    by_source: dict[int, list[int]] = {}
    for f in non_identities:
        by_source.setdefault(c.src[f], []).append(f)
    for p in range(1, cap + 1):
        if p == 1:
            layer = [(f,) for f in non_identities]
        else:
            layer = []
            for chain in cells[p - 1]:
                last_tgt = c.tgt[chain[-1]]
                for g in by_source.get(last_tgt, ()):
                    layer.append(chain + (g,))
        total += len(layer)
        if total > ceiling:
            raise ResourceLimitExceeded(
                f"nerve would exceed {ceiling} cells at degree {p}"
            )
        cells.append(tuple(layer))

    boundaries = [IntMatrix.zeros(0, len(cells[0]))]
    for p in range(1, cap + 1):
        boundaries.append(_boundary_matrix(c, cells[p - 1], cells[p], p))
    nerve = NerveComplex(c, cap, tuple(cells), tuple(boundaries))
    _assert_chain_complex(nerve)
    return nerve


def _boundary_matrix(c: FinCat, lower: tuple, upper: tuple, p: int) -> IntMatrix:
    """Alternating face sum; degenerate faces vanish in the normalized complex."""
    index = {cell: i for i, cell in enumerate(lower)}
    rows = len(lower)
    cols = len(upper)
    entries = [[0] * cols for _ in range(rows)]
    for j, chain in enumerate(upper):
        if p == 1:
            f = chain[0]
            entries[index[c.tgt[f]]][j] += 1
            entries[index[c.src[f]]][j] -= 1
            continue
        sign = 1
        for i in range(p + 1):
            if i == 0:
                face = chain[1:]
            elif i == p:
                face = chain[:-1]
            else:
                composite = c.compose(chain[i - 1], chain[i])
                if c.is_identity(composite):
                    face = None
                else:
                    face = chain[: i - 1] + (composite,) + chain[i + 1 :]
            if face is not None:
                entries[index[face]][j] += sign
            sign = -sign
    return IntMatrix.from_rows(entries) if rows else IntMatrix.zeros(0, cols)


def _assert_chain_complex(n: NerveComplex) -> None:
    for p in range(2, len(n.boundaries)):
        prod = n.boundaries[p - 1].mul(n.boundaries[p])
        if any(v != 0 for row in prod.to_rows() for v in row):
            raise AssertionError(f"boundary squared nonzero in degree {p}")


def homology(n: NerveComplex) -> list[AbelianInvariants]:
    """H_0 .. H_{cap-1} as canonical abelian invariants."""
    out = []
    diags = [smith_normal_form(b)[0] for b in n.boundaries]
    ranks = [sum(1 for d in diag if d) for diag in diags]
    for p in range(n.cap):
        dim = len(n.cells[p])
        rank_in = ranks[p + 1]
        rank_out = ranks[p]
        free = dim - rank_out - rank_in
        torsion = tuple(d for d in diags[p + 1] if d > 1)
        out.append(AbelianInvariants(free, torsion))
    return out


def _components(c: FinCat) -> list[list[int]]:
    uf = UnionFind(len(c.objects))
    for f in range(len(c.morphisms)):
        uf.union(c.src[f], c.tgt[f])
    return uf.groups()


def pi0(c: FinCat) -> list[list[str]]:
    """Connected components of the category, as sorted object-id classes."""
    return sorted(
        sorted(c.objects[i] for i in group) for group in _components(c)
    )


def component_objects(c: FinCat, basepoint: str) -> set[int]:
    base = c.object_index(basepoint)
    return next(set(group) for group in _components(c) if base in group)


def fundamental_group(c: FinCat, basepoint: str) -> GroupPresentation:
    """Edge-path presentation of pi_1 of the nerve at the basepoint.

    Generators are the non-identity morphisms of the basepoint's component.
    Relators: each spanning-tree edge, and for every composable pair
    ``f: x -> y``, ``g: y -> z`` of non-identities the word ``g f h^-1``
    where ``h = g after f`` (the ``h`` letter is dropped when the composite
    is an identity).  The presentation is raw; pass it through
    ``simplify_presentation`` to shrink it.
    """
    component = component_objects(c, basepoint)
    gens = [
        f
        for f in range(len(c.morphisms))
        if not c.is_identity(f) and c.src[f] in component
    ]
    gen_letter = {f: i + 1 for i, f in enumerate(gens)}

    # Breadth-first spanning tree, scanning morphisms in index order so the
    # result is deterministic.
    base = c.object_index(basepoint)
    visited = {base}
    frontier = [base]
    tree_edges: set[int] = set()
    while frontier:
        next_frontier = []
        for f in gens:
            x, y = c.src[f], c.tgt[f]
            if x in visited and y not in visited:
                tree_edges.add(f)
                visited.add(y)
                next_frontier.append(y)
            elif y in visited and x not in visited:
                tree_edges.add(f)
                visited.add(x)
                next_frontier.append(x)
        if not next_frontier:
            break
        frontier = next_frontier

    relators: list[tuple[int, ...]] = []
    for f in sorted(tree_edges):
        relators.append((gen_letter[f],))
    for f in gens:
        for g in gens:
            if c.tgt[f] != c.src[g]:
                continue
            h = c.compose(f, g)
            if c.is_identity(h):
                relators.append((gen_letter[g], gen_letter[f]))
            else:
                relators.append((gen_letter[g], gen_letter[f], -gen_letter[h]))
    return GroupPresentation(
        tuple(c.morphisms[f] for f in gens), tuple(relators)
    )
