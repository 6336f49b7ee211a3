"""Nerve of a finite category: homology and the edge-path fundamental group.

Cells in degree p are composable p-tuples of non-identity morphisms
(the normalized chain complex: faces that compose to an identity are
dropped).  Each boundary is assembled as sparse columns, one
``{row: coefficient}`` map of non-zeros per cell, and d∘d = 0 is checked
column by column at a cost proportional to the non-zeros.  Homology comes
from the Morse complex of Brown's collapsing scheme (K. S. Brown, "The
geometry of rewriting systems", 1992; E. Sköldberg, "Morse theory from an
algebraic viewpoint", 2006): shortlex normal forms of the morphisms match
most cells in pairs, the boundaries of the critical cells are projected
along the gradient paths, and only they go through the exact Smith
invariant factors (:func:`~cobcat.exactmath.smith_diagonal`).  For BZ/n
one cell per degree below the cap is critical.

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
    smith_diagonal,
)
from .fincat import FinCat
from .limits import MAX_CELLS_ENV, ResourceLimitExceeded, check_count, max_cells_default

DEFAULT_CAP = 3

SparseColumns = tuple[dict[int, int], ...]


@dataclass(frozen=True)
class NerveComplex:
    """Cells and sparse integer boundaries of a truncated nerve.

    ``cells[0]`` lists object indices; ``cells[p]`` for p >= 1 lists tuples
    of morphism indices forming composable chains of non-identities.
    ``columns[p][j]`` maps the indices of the degree-(p-1) faces of cell
    ``cells[p][j]`` to their non-zero coefficients in its boundary; the
    composite of consecutive boundaries is checked to be zero at build time.
    """

    category: FinCat
    cap: int
    cells: tuple[tuple, ...]
    columns: tuple[SparseColumns, ...]

    def cell_counts(self) -> list[int]:
        return [len(layer) for layer in self.cells]

    @property
    def boundaries(self) -> tuple[IntMatrix, ...]:
        """Dense boundary matrices; ``boundaries[p]`` maps degree-p chains
        to degree-(p-1) chains (``boundaries[0]`` has no rows)."""
        out = []
        for p, columns in enumerate(self.columns):
            rows = len(self.cells[p - 1]) if p else 0
            width = len(columns)
            data = [0] * (rows * width)
            for j, col in enumerate(columns):
                for i, v in col.items():
                    data[i * width + j] = v
            out.append(IntMatrix(rows, width, data))
        return tuple(out)


def _refuse(ceiling: int, count: int, p: int) -> ResourceLimitExceeded:
    return ResourceLimitExceeded(
        f"nerve would reach {count} cells at degree {p}, over the cell "
        f"ceiling of {ceiling} (--max-cells / {MAX_CELLS_ENV})"
    )


def build_nerve(
    c: FinCat, cap: int = DEFAULT_CAP, max_cells: int | None = None
) -> NerveComplex:
    """Enumerate nerve cells up to degree ``cap`` and assemble boundaries.

    Raises :class:`ResourceLimitExceeded` if the total number of cells would
    pass ``max_cells`` (default from COBCAT_MAX_CELLS or 10**6).  Each of the
    ``cap + 1`` degrees counts as at least one cell, even an empty one, so a
    huge cap is refused before any layer is built; every layer's size is
    counted, by paths over the non-identities, before the first is built,
    so a refusal builds nothing.
    """
    if cap < 1:
        raise ValueError("cap must be at least 1")
    ceiling = max_cells_default() if max_cells is None else max_cells
    if cap + 1 > ceiling:
        raise ResourceLimitExceeded(
            f"--cap {cap} asks for {cap + 1} degrees, over the cell ceiling of "
            f"{ceiling} (--max-cells / {MAX_CELLS_ENV})"
        )
    non_identities = [
        f for f in range(len(c.morphisms)) if not c.is_identity(f)
    ]
    # Chains of degree p ending at each object, v_p[y] = sum of v_{p-1}[x]
    # over the non-identities x -> y, are counted for every degree before
    # any layer is built; above an empty degree every degree is empty.
    ends = [1] * len(c.objects)
    total = len(ends)
    for p in range(cap + 1):
        if p:
            counts = [0] * len(ends)
            for f in non_identities:
                counts[c.tgt[f]] += ends[c.src[f]]
            ends = counts
            total += sum(ends)
        if total > ceiling:
            raise _refuse(ceiling, total, p)
        if not any(ends):
            break
    cells: list[tuple] = [tuple(range(len(c.objects)))]
    by_source: list[list[int]] = [[] for _ in c.objects]
    for f in non_identities:
        by_source[c.src[f]].append(f)
    cells.append(tuple((f,) for f in non_identities))
    for p in range(2, cap + 1):
        cells.append(tuple(
            chain + (g,) for chain in cells[p - 1] for g in by_source[c.tgt[chain[-1]]]
        ))

    columns = [tuple({} for _ in cells[0])]
    for p in range(1, cap + 1):
        columns.append(_boundary_matrix(c, cells[p - 1], cells[p], p))
    nerve = NerveComplex(c, cap, tuple(cells), tuple(columns))
    _assert_chain_complex(nerve)
    return nerve


def _boundary_matrix(c: FinCat, lower: tuple, upper: tuple, p: int) -> SparseColumns:
    """Alternating face sums as sparse columns, one per cell of ``upper``;
    degenerate faces vanish in the normalized complex."""
    index = {cell: i for i, cell in enumerate(lower)}
    columns = []
    for chain in upper:
        if p == 1:
            faces = [(index[c.tgt[chain[0]]], 1), (index[c.src[chain[0]]], -1)]
        else:
            faces = [(index[chain[1:]], 1), (index[chain[:-1]], (-1) ** p)]
            for i in range(1, p):
                composite = c.compose(chain[i - 1], chain[i])
                if not c.is_identity(composite):
                    face = chain[: i - 1] + (composite,) + chain[i + 1 :]
                    faces.append((index[face], (-1) ** i))
        col: dict[int, int] = {}
        for row, sign in faces:
            col[row] = col.get(row, 0) + sign
        columns.append({row: v for row, v in col.items() if v})
    return tuple(columns)


def _assert_chain_complex(n: NerveComplex) -> None:
    """d_{p-1} ∘ d_p = 0, one column of d_p at a time."""
    for p in range(2, len(n.columns)):
        lower = n.columns[p - 1]
        for col in n.columns[p]:
            image: dict[int, int] = {}
            for k, a in col.items():
                for i, b in lower[k].items():
                    image[i] = image.get(i, 0) + a * b
            if any(image.values()):
                raise AssertionError(f"boundary squared nonzero in degree {p}")


def _normal_forms(c: FinCat) -> dict[int, tuple[int, ...]]:
    """Shortlex-least paths of generators composing to each non-identity.

    The generators are the non-identities that are not a composite of two
    non-identities, then, in index order, each one the generators so far do
    not reach.  Every prefix and suffix of a normal form is a normal form.
    """
    table, src, tgt = c.table, c.src, c.tgt
    ident = set(c.identity)
    non_identities = [f for f in range(len(c.morphisms)) if f not in ident]
    composites = {h for (f, g), h in table.items() if f not in ident and g not in ident}
    gens = [f for f in non_identities if f not in composites]
    by_source: list[list[int]] = [[] for _ in c.objects]
    for s in gens:
        by_source[src[s]].append(s)

    def search(nf: dict[int, tuple[int, ...]], queue: list[int]) -> dict[int, tuple[int, ...]]:
        for x in queue:  # breadth first, generators in index order: shortlex
            for s in by_source[tgt[x]]:
                h = table[x, s]
                if h not in nf and h not in ident:
                    nf[h] = nf[x] + (s,)
                    queue.append(h)
        return nf

    nf = search({s: (s,) for s in gens}, list(gens))
    if len(nf) == len(non_identities):
        return nf
    for f in non_identities:  # close the reached set after each new generator
        if f not in nf:
            queue = [x for x in nf if tgt[x] == src[f]] + [f]
            nf[f] = (f,)
            gens.append(f)
            by_source[src[f]].append(f)
            search(nf, queue)
    gens.sort()
    for out in by_source:
        out.sort()
    return search({s: (s,) for s in gens}, list(gens))


def _brown_matching(n: NerveComplex) -> list[dict[int, int]]:
    """Brown's collapsing scheme on the nerve: ``match[p]`` sends each
    redundant p-cell to the index of its (p+1)-cell partner.

    With NF from :func:`_normal_forms`, a chain [x1|…|xp] is redundant if
    NF(x1) has two letters or more; its partner splits off the first
    letter.  Otherwise the chain is followed while each NF(xj) is the
    shortest prefix u of itself with NF(x(j-1))·u reducible (an Anick
    chain).  At the first xj where it is not, the chain is collapsible if
    NF(x(j-1))·NF(xj) is a normal form, and redundant if u is a proper
    prefix: its partner splits xj = u·v.  The rest are critical, and so
    is a redundant chain of the cap degree, whose partner is not built.
    """
    nf = _normal_forms(n.category)
    value = {w: x for x, w in nf.items()}

    def split(x: int, y: int) -> tuple[int, ...] | None:
        # () for an Anick pair, None for a collapsible one, else (u, v).
        wx, wy = nf[x], nf[y]
        z = x
        for k, s in enumerate(wy):
            z = n.category.table[z, s]
            if nf.get(z) != wx + wy[: k + 1]:
                return () if k + 1 == len(wy) else (value[wy[: k + 1]], value[wy[k + 1 :]])
        return None

    splits = {pair: split(*pair) for pair in n.cells[2]} if n.cap > 2 else {}
    match: list[dict[int, int]] = [{}]
    for p in range(1, n.cap):
        index = {cell: j for j, cell in enumerate(n.cells[p + 1])}
        up = {}
        for i, cell in enumerate(n.cells[p]):
            word = nf[cell[0]]
            if len(word) > 1:
                up[i] = index[(word[0], value[word[1:]]) + cell[1:]]
                continue
            for j in range(1, p):
                uv = splits[cell[j - 1], cell[j]]
                if uv != ():
                    if uv is not None:
                        up[i] = index[cell[:j] + uv + cell[j + 1 :]]
                    break
        match.append(up)
    return match


def homology(n: NerveComplex) -> list[AbelianInvariants]:
    """H_0 .. H_{cap-1} as canonical abelian invariants, from the critical
    cells of :func:`_brown_matching` (algebraic discrete Morse theory).

    Every (p-1)-cell is projected once onto the critical ones: a critical
    cell to itself, a collapsible one to 0, and a redundant cell r with
    partner q to -ε⁻¹ times the projections of the other faces of q, where
    ε is r's coefficient in dq.  The Smith invariant factors of the
    projected boundaries of the critical p-cells give the homology.  An ε
    other than ±1, a cell matched twice or a cycle of the gradient flow
    raises ``AssertionError``.
    """
    match = _brown_matching(n) + [{}]
    critical = []
    for p, cells in enumerate(n.cells):
        up, below = match[p], set(match[p - 1].values())
        if len(below) < len(match[p - 1]) or not below.isdisjoint(up):
            raise AssertionError(f"a {p}-cell is matched twice")
        critical.append([i for i in range(len(cells)) if i not in up and i not in below])
    diags = [[]]
    for p in range(1, n.cap + 1):
        if not n.cells[p]:  # no cells here, so none in any degree above
            diags += [[]] * (n.cap + 1 - p)
            break
        columns, up, rows = n.columns[p], match[p - 1], len(critical[p - 1])
        if rows == len(n.cells[p - 1]):  # nothing matched in degree p-1
            diags.append(smith_diagonal([columns[j] for j in critical[p]], rows))
            continue
        proj = {i: {k: 1} for k, i in enumerate(critical[p - 1])}

        def image(col: dict[int, int], skip: int, scale: int) -> dict[int, int]:
            out: dict[int, int] = {}
            for g, a in col.items():
                pg = proj.get(g)
                if pg and g != skip:
                    a *= scale
                    for k, b in pg.items():
                        out[k] = out.get(k, 0) + a * b
            return {k: v for k, v in out.items() if v}

        for start in up:
            stack = [] if start in proj else [start]
            while stack:
                r = stack[-1]
                col = columns[up[r]]
                for g in col:
                    if g in up and g not in proj and g != r:
                        if g in stack:
                            raise AssertionError(f"gradient flow cycle in degree {p - 1}")
                        stack.append(g)
                        break
                else:
                    eps = col.get(r)
                    if eps not in (1, -1):
                        raise AssertionError(f"matched incidence {eps} in degree {p}")
                    proj[r] = image(col, r, -eps)
                    stack.pop()
        morse = [image(columns[j], -1, 1) for j in critical[p]]
        diags.append(smith_diagonal(morse, rows))
    out = []
    for p in range(n.cap):
        free = len(critical[p]) - len(diags[p]) - len(diags[p + 1])
        out.append(AbelianInvariants(free, tuple(d for d in diags[p + 1] if d > 1)))
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
    is an identity).  The presentation is raw: no Tietze move shrinks it.
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


def check_presentation(p: GroupPresentation, basepoint: str) -> None:
    """Hold the dense relator matrix of the presentation at the basepoint,
    rows times generators entries, to the cell ceiling before anything
    reduces it."""
    rows, width = len(p.relators), len(p.generators)
    check_count(
        rows * width,
        f"the presentation at {basepoint} would reduce {rows} relators over "
        f"{width} generators, {rows * width} matrix entries",
    )
