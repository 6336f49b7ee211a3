"""One-dimensional cobordisms: abstract matchings and planar slice-word diagrams.

Two models of the same category.  ``Matching1D`` is the abstract
diffeomorphism class of a 1-cobordism: a perfect matching on the disjoint
union of the boundary point sets plus a count of closed circles.
``PlanarDiagram`` is an embedded representative in a strip, encoded as an
ordered word of cup and cap events; it carries strictly more information
(nesting), which is exactly what the region-coloring invariant ``f`` sees.

Matchings compose by gluing along the shared boundary, with the same
:class:`~cobcat.exactmath.UnionFind` that glues surfaces in ``cob2``: each
arc joins two points, a class reaching the outer boundary is an arc of the
composite and a class inside the middle is a new circle.

The sweep computing ``f`` colors the complement of the diagram: a gap lying
above an odd number of strands is red, and ``f`` is the Euler characteristic
of the red region relative to the incoming slice.  Every cup opening inside
a green gap births a red component (+1); every cap whose middle gap is green
merges two red gaps (-1); all other events leave the count unchanged, and
the initial red intervals cancel against the relative term.  An independent
rasterization oracle (``f_invariant_grid``) recomputes the same number on
an exact integer grid, as vertices - edges + squares of the red pixels.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

from .exactmath import UnionFind, strict_int

Pair = tuple[int, int]


def _canonical_pairs(pairs) -> tuple[Pair, ...]:
    return tuple(sorted(tuple(sorted(p)) for p in pairs))


@dataclass(frozen=True)
class Matching1D:
    """Abstract 1-cobordism: m incoming points, n outgoing, arcs, circles.

    Boundary points are numbered 0..m-1 (incoming) and m..m+n-1 (outgoing).
    ``pairs`` is a perfect matching on all m+n points; ``circles`` counts
    closed components, which carry no position data.
    """

    m: int
    n: int
    pairs: tuple[Pair, ...]
    circles: int = 0

    def __post_init__(self):
        if self.m < 0 or self.n < 0 or self.circles < 0:
            raise ValueError("sizes and circle count must be nonnegative")
        if (self.m + self.n) % 2 != 0:
            raise ValueError("total boundary size must be even")
        if self.pairs != _canonical_pairs(self.pairs):
            raise ValueError("pairs must be sorted with each pair ascending")
        seen: set[int] = set()
        for a, b in self.pairs:
            for x in (a, b):
                if not 0 <= x < self.m + self.n:
                    raise ValueError(f"point {x} out of range")
                if x in seen:
                    raise ValueError(f"point {x} matched twice")
                seen.add(x)
        if len(seen) != self.m + self.n:
            raise ValueError("matching must cover every boundary point")

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "n": self.n,
            "pairs": [list(p) for p in self.pairs],
            "circles": self.circles,
        }


def matching(m: int, n: int, pairs, circles: int = 0) -> Matching1D:
    """Build a Matching1D, canonicalizing the pair list first."""
    return Matching1D(m, n, _canonical_pairs(pairs), circles)


def matching_from_json(data: dict) -> Matching1D:
    return matching(
        strict_int(data["m"]),
        strict_int(data["n"]),
        [tuple(strict_int(x) for x in p) for p in data["pairs"]],
        strict_int(data.get("circles", 0)),
    )


def identity_matching(n: int) -> Matching1D:
    return matching(n, n, [(i, n + i) for i in range(n)])


def cup_matching() -> Matching1D:
    return matching(0, 2, [(0, 1)])


def cap_matching() -> Matching1D:
    return matching(2, 0, [(0, 1)])


def compose_abstract(w: Matching1D, w2: Matching1D) -> Matching1D:
    """Glue w2 after w along the shared boundary of size w.n.

    The points are numbered w's incoming ends, then the shared middle, then
    w2's outgoing ends, and every arc of either side joins its two points in
    one union-find.  A class holding outer ends is an arc of the composite;
    a class of middle points only is a closed loop and adds one circle.
    """
    if w.n != w2.m:
        raise ValueError(f"interface mismatch: {w.n} outgoing vs {w2.m} incoming")
    m, n, k = w.m, w.n, w2.n
    uf = UnionFind(m + n + k)
    for a, b in w.pairs:
        uf.union(a, b)
    for a, b in w2.pairs:
        uf.union(m + a, m + b)
    pairs: list[Pair] = []
    loops = 0
    for group in uf.groups():
        ends = [p if p < m else p - n for p in group if not m <= p < m + n]
        if ends:
            pairs.append(tuple(ends))
        else:
            loops += 1
    return matching(m, k, pairs, w.circles + w2.circles + loops)


def tensor_matching(w: Matching1D, u: Matching1D) -> Matching1D:
    """Disjoint union, with u placed above w in the boundary numbering."""
    m, n = w.m + u.m, w.n + u.n

    def relabel_w(p: int) -> int:
        return p if p < w.m else m + (p - w.m)

    def relabel_u(p: int) -> int:
        return w.m + p if p < u.m else m + w.n + (p - u.m)

    pairs = [(relabel_w(a), relabel_w(b)) for a, b in w.pairs]
    pairs += [(relabel_u(a), relabel_u(b)) for a, b in u.pairs]
    return matching(m, n, pairs, w.circles + u.circles)


def euler_functor_1d(w: Matching1D) -> int:
    """Euler value of a 1-cobordism relative to its incoming boundary.

    Every arc contributes 1 and every circle 0, minus the point count of the
    incoming boundary: (m+n)/2 - m = (n-m)/2.
    """
    return (w.n - w.m) // 2


def euler_triviality_witness(size: int) -> int:
    """eta with euler_functor_1d(w) = eta(n) - eta(m) on every morphism."""
    if size < 0:
        raise ValueError("boundary size must be nonnegative")
    return size // 2


CUP = "cup"
CAP = "cap"
_STRANDS = {CUP: 2, CAP: -2}  # strands an event adds


@dataclass(frozen=True)
class PlanarDiagram:
    """Embedded 1-cobordism in a strip, as an ordered word of events.

    ``("cup", i)`` inserts an adjacent strand pair at height i (0 <= i <=
    current count); ``("cap", i)`` closes the adjacent strands i, i+1.  The
    outgoing count n is derived from the word.
    """

    m: int
    slices: tuple[tuple[str, int], ...]

    def __post_init__(self):
        if self.m < 0:
            raise ValueError("incoming count must be nonnegative")
        slices = tuple((str(kind), strict_int(i)) for kind, i in self.slices)
        object.__setattr__(self, "slices", slices)
        count = self.m
        for t, (kind, i) in enumerate(slices):
            if kind == CUP:
                if not 0 <= i <= count:
                    raise ValueError(f"slice {t}: cup index {i} out of range 0..{count}")
                count += 2
            elif kind == CAP:
                if not 0 <= i <= count - 2:
                    raise ValueError(
                        f"slice {t}: cap index {i} out of range 0..{count - 2}"
                    )
                count -= 2
            else:
                raise ValueError(f"slice {t}: unknown event kind {kind!r}")

    @property
    def n(self) -> int:
        return self.m + sum(_STRANDS[kind] for kind, _ in self.slices)

    def counts(self) -> list[int]:
        """Running strand counts, one entry per slice boundary (len + 1)."""
        out = [self.m]
        for kind, _ in self.slices:
            out.append(out[-1] + _STRANDS[kind])
        return out

    def to_json(self) -> dict:
        return {"m": self.m, "slices": [[kind, i] for kind, i in self.slices]}


def diagram_from_json(data: dict) -> PlanarDiagram:
    w = PlanarDiagram(
        strict_int(data["m"]), tuple((kind, i) for kind, i in data["slices"])
    )
    if "n" in data and strict_int(data["n"]) != w.n:
        raise ValueError(f"declared n={data['n']} but word yields {w.n}")
    return w


def planar_circle() -> PlanarDiagram:
    return PlanarDiagram(0, ((CUP, 0), (CAP, 0)))


def planar_nested_pair() -> PlanarDiagram:
    return PlanarDiagram(0, ((CUP, 0), (CUP, 1), (CAP, 1), (CAP, 0)))


def compose_planar(w: PlanarDiagram, w2: PlanarDiagram) -> PlanarDiagram:
    """Stack w2 after w; slice words concatenate, strictly associatively."""
    if w.n != w2.m:
        raise ValueError(f"interface mismatch: {w.n} outgoing vs {w2.m} incoming")
    return PlanarDiagram(w.m, w.slices + w2.slices)


def f_invariant(w: PlanarDiagram) -> int:
    """Euler characteristic of the red region relative to the incoming slice.

    Gaps above an odd number of strands are red.  A cup into a green gap
    (even index) births a red component; a cap whose middle gap is green
    (odd index) merges two red gaps; splits and deaths do not change the
    count, and the incoming slice's own red intervals cancel exactly.
    """
    births = 0
    merges = 0
    for kind, i in w.slices:
        if kind == CUP:
            if i % 2 == 0:
                births += 1
        else:
            if i % 2 == 1:
                merges += 1
    return births - merges


def reduce_endomorphism(w: PlanarDiagram) -> int:
    """Class of a boundaryless diagram in the localized endomorphism group.

    Circles count with alternating sign by nesting depth (a circle drawn
    inside another cancels it), which is exactly the red-region Euler
    characteristic; side-by-side circles count +1 each.
    """
    if w.m != 0 or w.n != 0:
        raise ValueError("reduce_endomorphism needs an empty boundary")
    return f_invariant(w)


# Rasterization oracle.  Each event occupies an x-zone of width 2 with the
# cusp at the zone's midline; strand p sits at height y = 2p outside event
# zones, displaced strands move with slope +-2 and cup/cap arcs with slope
# +-1.  All coordinates below are scaled by 8, making every strand height at
# the sample columns x = (2j+1)/4 an even integer while pixel rows sit at odd
# integers, so a pixel center never lies on a strand.

_ZONE_OFFSETS = (2, 6, 10, 14)


def _sample_columns(w: PlanarDiagram) -> list[list[int]]:
    counts = w.counts()
    columns: list[list[int]] = []
    for t, (kind, i) in enumerate(w.slices):
        k = counts[t]
        for s in _ZONE_OFFSETS:
            ys: list[int] = []
            if kind == CUP:
                for p in range(i):
                    ys.append(16 * p)
                if s > 8:
                    ys.append(16 * i + 16 - s)
                    ys.append(16 * i + s)
                for p in range(i, k):
                    ys.append(16 * p + 2 * s)
            else:
                for p in range(i):
                    ys.append(16 * p)
                if s < 8:
                    ys.append(16 * i + s)
                    ys.append(16 * i + 16 - s)
                for p in range(i + 2, k):
                    ys.append(16 * p - 2 * s)
            columns.append(sorted(ys))
    return columns


def _euler_of_pixels(red: list[list[bool]]) -> int:
    """χ of the red pixels taken as closed unit squares: vertices - edges +
    squares.  Pixel (c, r) is the square [c, c + 1] × [r, r + 1]; an edge
    is keyed by its lower or left end and 0 for horizontal, 1 for vertical.
    """
    squares = [(c, r) for c, col in enumerate(red) for r, on in enumerate(col) if on]
    vertices = {(c + dc, r + dr) for c, r in squares for dc in (0, 1) for dr in (0, 1)}
    edges = {
        e for c, r in squares for e in ((c, r, 0), (c, r + 1, 0), (c, r, 1), (c + 1, r, 1))
    }
    return len(vertices) - len(edges) + len(squares)


def f_invariant_grid(w: PlanarDiagram) -> int:
    """Recompute f by rasterizing the red region on an exact integer grid.

    Independent of the sweep: counts the vertices, edges and squares of the
    red pixels, then subtracts the red intervals of the first sample column.
    Agreement with ``f_invariant`` is exact on the tested corpus; intended
    for words of moderate length (the grid is quadratic in word length).
    """
    if not w.slices:
        return 0
    columns = _sample_columns(w)
    y_top = max(max(col) for col in columns if col) + 9
    row_values = list(range(-7, y_top + 1, 2))
    red = []
    for col in columns:
        red.append([bisect_left(col, y) % 2 == 1 for y in row_values])
    chi = _euler_of_pixels(red)
    runs = 0
    prev = False
    for cell in red[0]:
        if cell and not prev:
            runs += 1
        prev = cell
    return chi - runs


def enumerate_words(m: int, max_len: int):
    """Yield every valid diagram from m with at most max_len events."""

    def extend(slices: tuple, count: int, remaining: int):
        yield PlanarDiagram(m, slices)
        if remaining == 0:
            return
        for i in range(count + 1):
            yield from extend(slices + ((CUP, i),), count + 2, remaining - 1)
        for i in range(count - 1):
            yield from extend(slices + ((CAP, i),), count - 2, remaining - 1)

    yield from extend((), m, max_len)


def random_planar_word(rng, m: int, length: int) -> PlanarDiagram:
    """Uniform event at each step among the valid cups and caps."""
    slices = []
    count = m
    for _ in range(length):
        options = [(CUP, i) for i in range(count + 1)]
        options += [(CAP, i) for i in range(count - 1)]
        kind, i = options[rng.randrange(len(options))]
        slices.append((kind, i))
        count += _STRANDS[kind]
    return PlanarDiagram(m, tuple(slices))


def restricted_from_matching(w: Matching1D) -> Matching1D | None:
    """``w`` itself when it has no caps and no circles; None otherwise.

    Such a matching is one in which every component touches the outgoing
    boundary; ``compose_abstract`` never leaves that class.
    """
    if w.circles or any(b < w.m for _, b in w.pairs):
        return None
    return w
