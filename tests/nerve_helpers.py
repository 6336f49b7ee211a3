"""Oracles for nerve homology, and the checks a Morse matching must pass;
also the component scan that ``FinCat.components`` replaced.

The homology oracles read the enumerated nerve, ``NerveComplex.cells`` and
``columns``: the full-boundary path, and Brown's matching by cell index with
its projection, the path :func:`cobcat.nerve.homology` replaced.
"""

from __future__ import annotations

from cobcat.exactmath import AbelianInvariants, UnionFind, smith_diagonal
from cobcat.fincat import FinCat
from cobcat.nerve import NerveComplex, _normal_forms


def union_find_components(c: FinCat) -> list[list[int]]:
    """The connected components by a union over every morphism, identities
    included: the oracle for ``FinCat.components``."""
    uf = UnionFind(len(c.objects))
    for f in range(len(c.morphisms)):
        uf.union(c.src[f], c.tgt[f])
    return uf.groups()


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
    topological sorting, independently of the depth-first searches in
    :func:`projected_homology` and :func:`cobcat.nerve.homology`.
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


def brown_matching(n: NerveComplex) -> list[dict[int, int]]:
    """Brown's collapsing scheme on the nerve: ``match[p]`` sends each
    redundant p-cell to the index of its (p+1)-cell partner.

    With NF from :func:`cobcat.nerve._normal_forms`, a chain [x1|…|xp] is
    redundant if NF(x1) has two letters or more; its partner splits off the
    first letter.  Otherwise the chain is followed while each NF(xj) is the
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


def projected_homology(n: NerveComplex) -> list[AbelianInvariants]:
    """H_0 .. H_{cap-1} from the critical cells of :func:`brown_matching`,
    projected by cell index over the enumerated nerve.

    Every (p-1)-cell is projected once onto the critical ones: a critical
    cell to itself, a collapsible one to 0, and a redundant cell r with
    partner q to -ε⁻¹ times the projections of the other faces of q, where
    ε is r's coefficient in dq.  The Smith invariant factors of the
    projected boundaries of the critical p-cells give the homology.  An ε
    other than ±1, a cell matched twice or a cycle of the gradient flow
    raises ``AssertionError``.
    """
    match = brown_matching(n) + [{}]
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
