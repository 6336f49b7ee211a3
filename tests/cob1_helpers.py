"""Planar diagram moves and constructions that only the 1-cobordism tests use.

``to_matching`` forgets a diagram's embedding by tracing arcs through its
word with its own sweep, so it checks ``compose_abstract``'s union-find
gluing independently.  The moves (commuting distant events, cancelling and
inserting zigzags) are the isotopies under which ``f`` must not change.
``euler_by_flood_fill`` counts components and holes of a pixel set, the
reference for the cell count ``cob1._euler_of_pixels``.
"""

from __future__ import annotations

import itertools

from cobcat.cob1 import CAP, CUP, _STRANDS, Matching1D, Pair, PlanarDiagram, matching


def act_boundary(w: Matching1D, perm) -> Matching1D:
    """Relabel incoming points by a permutation (perm[i] = new label of i)."""
    perm = tuple(perm)
    if sorted(perm) != list(range(w.m)):
        raise ValueError("perm must be a bijection of the incoming points")

    def relabel(p: int) -> int:
        return perm[p] if p < w.m else p

    pairs = [(relabel(a), relabel(b)) for a, b in w.pairs]
    return matching(w.m, w.n, pairs, w.circles)


def planar_identity(m: int) -> PlanarDiagram:
    return PlanarDiagram(m, ())


def planar_circles(k: int) -> PlanarDiagram:
    return PlanarDiagram(0, ((CUP, 0), (CAP, 0)) * k)


def to_matching(w: PlanarDiagram) -> Matching1D:
    """Forget the embedding: trace arcs through the word.

    Loose ends are tracked as nodes; ``other`` holds the far end of the arc
    a node terminates, either another node or an anchored boundary point.
    """
    counter = itertools.count()
    other: dict[int, object] = {}
    strands: list[int] = []
    finished: list[tuple] = []
    circles = 0
    for i in range(w.m):
        node = next(counter)
        other[node] = ("src", i)
        strands.append(node)
    for kind, i in w.slices:
        if kind == CUP:
            a, b = next(counter), next(counter)
            other[a] = b
            other[b] = a
            strands[i:i] = [a, b]
        else:
            a = strands.pop(i)
            b = strands.pop(i)
            if other[a] == b:
                circles += 1
                continue
            x, y = other[a], other[b]
            x_node = isinstance(x, int)
            y_node = isinstance(y, int)
            if x_node:
                other[x] = y
            if y_node:
                other[y] = x
            if not x_node and not y_node:
                finished.append((x, y))

    position = {node: j for j, node in enumerate(strands)}
    pairs: list[Pair] = []

    def label(anchor) -> int:
        tag, idx = anchor
        return idx if tag == "src" else w.m + idx

    for x, y in finished:
        pairs.append((label(x), label(y)))
    done: set[int] = set()
    for j, node in enumerate(strands):
        if node in done:
            continue
        done.add(node)
        end = other[node]
        if isinstance(end, int):
            done.add(end)
            pairs.append((label(("tgt", j)), label(("tgt", position[end]))))
        else:
            pairs.append((label(end), label(("tgt", j))))
    return matching(w.m, len(strands), pairs, circles)


def commute_events(w: PlanarDiagram, t: int) -> PlanarDiagram | None:
    """Swap the events at slices t, t+1 when their footprints are distant.

    Returns the reindexed word, or None when the events are adjacent or
    interleaved (|i - j| < 2 in the intermediate numbering).
    """
    if not 0 <= t < len(w.slices) - 1:
        raise ValueError("t must address a consecutive slice pair")
    (ka, i), (kb, j) = w.slices[t], w.slices[t + 1]
    if abs(i - j) < 2:
        return None
    # The lower event shifts the upper one by the strands it adds or removes.
    if j > i:
        swapped = ((kb, j - _STRANDS[ka]), (ka, i))
    else:
        swapped = ((kb, j), (ka, i + _STRANDS[kb]))
    return PlanarDiagram(w.m, w.slices[:t] + swapped + w.slices[t + 2 :])


def cancel_zigzag(w: PlanarDiagram, t: int) -> PlanarDiagram | None:
    """Delete a cup at slice t immediately undone by a cap at t+1.

    The cancelling patterns are cap index = cup index - 1 or + 1; the strand
    threads through the s-bend and comes out straight.
    """
    if not 0 <= t < len(w.slices) - 1:
        raise ValueError("t must address a consecutive slice pair")
    (ka, i), (kb, j) = w.slices[t], w.slices[t + 1]
    if ka != CUP or kb != CAP:
        return None
    if j not in (i - 1, i + 1):
        return None
    return PlanarDiagram(w.m, w.slices[:t] + w.slices[t + 2 :])


def insert_zigzag(w: PlanarDiagram, t: int, i: int, up: bool) -> PlanarDiagram:
    """Insert a cancelling cup/cap pair before slice t (isotopic to w)."""
    if not 0 <= t <= len(w.slices):
        raise ValueError("insertion point out of range")
    count = w.counts()[t]
    if up:
        pair = ((CUP, i), (CAP, i + 1))
        if not 0 <= i <= count - 1:
            raise ValueError("zigzag needs a strand above the cup")
    else:
        pair = ((CUP, i), (CAP, i - 1))
        if not 1 <= i <= count:
            raise ValueError("zigzag needs a strand below the cup")
    return PlanarDiagram(w.m, w.slices[:t] + pair + w.slices[t:])


def euler_by_flood_fill(red: list[list[bool]]) -> int:
    """Components (8-connected) minus holes (4-connected complement
    components that do not touch the border) of the red pixels."""
    cols = len(red)
    rows = len(red[0]) if cols else 0
    comp = 0
    seen = [[False] * rows for _ in range(cols)]
    for c0 in range(cols):
        for r0 in range(rows):
            if not red[c0][r0] or seen[c0][r0]:
                continue
            comp += 1
            stack = [(c0, r0)]
            seen[c0][r0] = True
            while stack:
                c, r = stack.pop()
                for dc in (-1, 0, 1):
                    for dr in (-1, 0, 1):
                        c2, r2 = c + dc, r + dr
                        if 0 <= c2 < cols and 0 <= r2 < rows:
                            if red[c2][r2] and not seen[c2][r2]:
                                seen[c2][r2] = True
                                stack.append((c2, r2))
    holes = 0
    for c0 in range(cols):
        for r0 in range(rows):
            if red[c0][r0] or seen[c0][r0]:
                continue
            touches_border = False
            stack = [(c0, r0)]
            seen[c0][r0] = True
            while stack:
                c, r = stack.pop()
                if c in (0, cols - 1) or r in (0, rows - 1):
                    touches_border = True
                for c2, r2 in ((c - 1, r), (c + 1, r), (c, r - 1), (c, r + 1)):
                    if 0 <= c2 < cols and 0 <= r2 < rows:
                        if not red[c2][r2] and not seen[c2][r2]:
                            seen[c2][r2] = True
                            stack.append((c2, r2))
            if not touches_border:
                holes += 1
    return comp - holes
