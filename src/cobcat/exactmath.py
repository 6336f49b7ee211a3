"""Exact integer linear algebra and finitely presented group utilities.

Everything works with arbitrary-precision Python integers; no floats and no
modular shortcuts.  Main entry points:

    smith_normal_form       diagonalize an integer matrix by unimodular row
                            and column operations, returning the transforms
    smith_diagonal          invariant factors of a sparse matrix, by sparse
                            unit-pivot elimination and no transforms
    quotient_group          Z^n modulo a row family, with generator classes
    AbelianInvariants       canonical form (free rank, invariant factors) of
                            a finitely generated abelian group
    GroupPresentation       relator words over named generators
    abelianize              invariants of the abelianization of a presentation
    UnionFind               disjoint-set forest with Z/2 edge parities

All three run one dense pivot loop, ``_smith_loop``.  A transform rides
along the matrix it belongs to: the left one as identity columns appended
after the block, which every row operation reaches, and the right one as
identity rows appended below it, which every column operation reaches.  So
the loop takes no transform arguments and never asks whether one is kept.

>>> d, left, right = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
>>> d
[1, 6]
>>> abelianize(GroupPresentation(("a",), ((1, 1),)))
AbelianInvariants(rank=0, torsion=(2,))
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence


def strict_int(value: object) -> int:
    """``value`` itself when it is an integer; bool, float, str and every
    other type are refused rather than converted.

    >>> strict_int(3)
    3
    >>> strict_int(True)
    Traceback (most recent call last):
    ...
    ValueError: expected an integer, got True
    """
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def json_array(value: object, key: str) -> list:
    """``value`` itself when it is a JSON array; a string is not read as the
    list of its characters, nor an object as the list of its keys.

    >>> json_array(["y0"], "src")
    ['y0']
    >>> json_array("y0", "src")
    Traceback (most recent call last):
    ...
    ValueError: src must be a JSON array, got 'y0'
    """
    if not isinstance(value, list):
        raise ValueError(f"{key} must be a JSON array, got {value!r}")
    return value


class IntMatrix:
    """Immutable integer matrix with row-major entries.

    >>> m = IntMatrix.from_rows([[1, 2], [3, 4]])
    >>> m.shape
    (2, 2)
    >>> m.entry(1, 0)
    3
    """

    __slots__ = ("rows", "cols", "_data")

    def __init__(self, rows: int, cols: int, entries: Sequence[int]):
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        data = tuple(int(v) for v in entries)
        if len(data) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries, got {len(data)}"
            )
        self.rows = rows
        self.cols = cols
        self._data = data

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        if any(len(row) != c for row in rows):
            raise ValueError("ragged rows")
        return cls(r, c, [v for row in rows for v in row])

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(n, n, [1 if i == j else 0 for i in range(n) for j in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "IntMatrix":
        return cls(rows, cols, [0] * (rows * cols))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError((i, j))
        return self._data[i * self.cols + j]

    def to_rows(self) -> list[list[int]]:
        c = self.cols
        return [list(self._data[i * c : (i + 1) * c]) for i in range(self.rows)]

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        a, b = self.to_rows(), other.to_rows()
        out = []
        for i in range(self.rows):
            ai = a[i]
            for j in range(other.cols):
                out.append(sum(ai[k] * b[k][j] for k in range(self.cols)))
        return IntMatrix(self.rows, other.cols, out)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, IntMatrix)
            and self.shape == other.shape
            and self._data == other._data
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._data))

    def __repr__(self) -> str:
        return f"IntMatrix.from_rows({self.to_rows()!r})"


def _find_pivot(a: list[list[int]], t: int, rows: int, cols: int):
    # Smallest nonzero absolute value; ties broken by row-major position.
    best = None
    for i in range(t, rows):
        ai = a[i]
        for j in range(t, cols):
            v = ai[j]
            if v and (best is None or abs(v) < best[0]):
                best = (abs(v), i, j)
                if best[0] == 1:
                    return best[1], best[2]
    return None if best is None else (best[1], best[2])


def smith_normal_form(
    m: IntMatrix,
) -> tuple[list[int], IntMatrix, IntMatrix]:
    """Diagonalize ``m`` as ``left * m * right`` with a divisibility chain.

    Returns ``(diagonal, left, right)`` where ``left`` and ``right`` are
    unimodular, the diagonal entries are nonnegative, each divides the next,
    and zeros come last.  The pivot at each step is the entry of smallest
    nonzero absolute value in the remaining submatrix, ties broken in
    row-major order, which makes the run fully deterministic.

    >>> d, L, R = smith_normal_form(IntMatrix.from_rows([[2, 0], [0, 3]]))
    >>> d
    [1, 6]
    >>> L.mul(IntMatrix.from_rows([[2, 0], [0, 3]])).mul(R).to_rows()
    [[1, 0], [0, 6]]
    >>> smith_normal_form(IntMatrix.zeros(2, 2))[0]
    [0, 0]
    """
    r, c = m.rows, m.cols
    # [m | I_r] over [I_c]: row operations reach the left transform, column
    # operations the right one.
    a = [row + _unit(i, r) for i, row in enumerate(m.to_rows())]
    a += [_unit(j, c) for j in range(c)]
    diag = _smith_loop(a, r, c)
    left = IntMatrix.from_rows([row[c:] for row in a[:r]])
    return diag, left, IntMatrix.from_rows(a[r:])


def _unit(i: int, n: int) -> list[int]:
    return [int(i == k) for k in range(n)]


def _smith_loop(a: list[list[int]], rows: int, cols: int) -> list[int]:
    """Diagonalize the block ``a[:rows]`` x ``[:cols]`` in place and return
    its Smith diagonal.

    Row operations act on the first ``rows`` rows over their whole length,
    and column operations on the first ``cols`` entries of every row, so
    columns appended to the block collect the left transform and rows
    appended below it the right one.
    """
    t = 0
    while t < rows and t < cols:
        pos = _find_pivot(a, t, rows, cols)
        if pos is None:
            break
        while True:
            pi, pj = pos
            a[t], a[pi] = a[pi], a[t]
            if pj != t:
                for row in a:
                    row[t], row[pj] = row[pj], row[t]
            if a[t][t] < 0:
                a[t] = [-x for x in a[t]]
            at = a[t]
            pivot = at[t]
            # One reduction sweep; leftover residues become the next pivot.
            for i in range(rows):
                q = a[i][t] // pivot
                if q and i != t:
                    a[i] = [x - q * y for x, y in zip(a[i], at)]
            for j in range(cols):
                q = at[j] // pivot
                if q and j != t:
                    for row in a:
                        row[j] -= q * row[t]
            if any(a[i][t] for i in range(rows) if i != t) or any(
                at[j] for j in range(cols) if j != t
            ):
                pos = _find_pivot(a, t, rows, cols)
                continue
            # Pivot must divide every remaining entry; if not, fold the
            # first offending row in and keep reducing.  A unit divides all.
            if pivot == 1:
                break
            for i in range(t + 1, rows):
                if any(a[i][j] % pivot for j in range(t + 1, cols)):
                    a[t] = [x + y for x, y in zip(at, a[i])]
                    pos = (t, t)
                    break
            else:
                break
        t += 1

    return [a[k][k] for k in range(min(rows, cols))]


def smith_diagonal(columns: Sequence[Mapping[int, int]], rows: int) -> list[int]:
    """Non-zero Smith invariant factors of a sparse integer matrix, in
    divisibility order; their count is the rank.

    ``columns[j]`` maps row indices in ``0..rows-1`` to the non-zero entries
    of column j.  A ±1 entry is eliminated sparsely, always on a shortest
    row with a unit: clearing its row by column operations and its column
    by row operations splits off a 1 without changing the other factors.
    The block left when no row holds a unit has only entries of absolute
    value 2 or more; it goes through the dense Smith loop, and no
    transform is kept.  The input is not modified.

    >>> smith_diagonal([{0: 2}, {1: 3}], 2)
    [1, 6]
    >>> smith_diagonal([{0: 1, 1: 1}, {0: 1, 1: -1}], 2)
    [1, 2]
    >>> smith_diagonal([{}, {}], 0)
    []
    """
    cols = [{i: v for i, v in col.items() if v} for col in columns]
    row_cols: list[set[int]] = [set() for _ in range(rows)]
    for j, col in enumerate(cols):
        for i in col:
            row_cols[i].add(j)
    heap = [(len(js), i) for i, js in enumerate(row_cols) if js]
    heapq.heapify(heap)
    units = 0
    while heap:
        length, r = heapq.heappop(heap)
        pivot_row = row_cols[r]
        if length != len(pivot_row):
            continue  # stale entry; the row's current length is queued too
        best = min(
            ((len(cols[j]), j) for j in pivot_row if abs(cols[j][r]) == 1),
            default=None,
        )
        if best is None:
            continue  # no unit yet; requeued if an update changes the row
        c = best[1]
        pivot_col = cols[c]
        u = pivot_col[r]
        for j in pivot_row - {c}:
            col = cols[j]
            q = col[r] * u  # col[r] / u, as u is ±1
            for i, v in pivot_col.items():
                w = col.get(i, 0) - q * v
                if w:
                    col[i] = w
                    row_cols[i].add(j)
                else:
                    del col[i]
                    row_cols[i].discard(j)
        # Row r is now u at column c only: drop both with a factor of 1.
        # The rows of column c are the only ones that changed.
        for i in pivot_col:
            row_cols[i].discard(c)
            if row_cols[i]:
                heapq.heappush(heap, (len(row_cols[i]), i))
        cols[c] = {}
        units += 1

    residual_rows = [i for i in range(rows) if row_cols[i]]
    residual_cols = [col for col in cols if col]
    a = [[col.get(i, 0) for col in residual_cols] for i in residual_rows]
    diag = _smith_loop(a, len(residual_rows), len(residual_cols))
    return [1] * units + [d for d in diag if d]


@dataclass(frozen=True)
class AbelianInvariants:
    """Canonical form of a finitely generated abelian group.

    ``rank`` counts free summands; ``torsion`` lists invariant factors, each
    at least 2 and each dividing the next.

    >>> AbelianInvariants(1, (2, 6)).describe()
    'Z + Z/2 + Z/6'
    >>> AbelianInvariants(0, ()).is_trivial
    True
    """

    rank: int
    torsion: tuple[int, ...] = ()

    def __post_init__(self):
        if self.rank < 0:
            raise ValueError("rank must be nonnegative")
        for d in self.torsion:
            if d < 2:
                raise ValueError("invariant factors must be at least 2")
        for x, y in zip(self.torsion, self.torsion[1:]):
            if y % x:
                raise ValueError("invariant factors must form a divisibility chain")

    @property
    def is_trivial(self) -> bool:
        return self.rank == 0 and not self.torsion

    def describe(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts.extend(f"Z/{d}" for d in self.torsion)
        return " + ".join(parts) if parts else "0"

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    @classmethod
    def from_relation_diagonal(
        cls, diag: Iterable[int], n_generators: int
    ) -> "AbelianInvariants":
        """Group ``Z^n / relations`` from the Smith diagonal of the relation
        matrix (relators as rows over ``n_generators`` columns)."""
        diag = list(diag)
        nonzero = [d for d in diag if d]
        return cls(n_generators - len(nonzero), tuple(d for d in nonzero if d > 1))


Word = tuple[int, ...]  # nonzero 1-based generator indices, sign = inverse


@dataclass(frozen=True)
class GroupPresentation:
    """Finitely presented group: generator names plus relator words.

    Relator letters are nonzero 1-based indices into ``generators``; a
    negative letter is the inverse of the corresponding generator.

    >>> p = GroupPresentation(("a", "b"), ((1, 2, -1, -2),))
    >>> p.render_word((1, -2))
    'a*b^-1'
    """

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        if len(set(self.generators)) != len(self.generators):
            raise ValueError("duplicate generator names")
        n = len(self.generators)
        for rel in self.relators:
            for letter in rel:
                if letter == 0 or abs(letter) > n:
                    raise ValueError(f"letter {letter} out of range")

    def render_word(self, word: Iterable[int]) -> str:
        parts = []
        for letter in word:
            name = self.generators[abs(letter) - 1]
            parts.append(name if letter > 0 else f"{name}^-1")
        return "*".join(parts) if parts else "1"

    def exponent_matrix(self) -> list[list[int]]:
        """Exponent sums of each relator, one row over the generators."""
        n = len(self.generators)
        rows = []
        for rel in self.relators:
            row = [0] * n
            for letter in rel:
                row[abs(letter) - 1] += 1 if letter > 0 else -1
            rows.append(row)
        return rows


def abelianize(p: GroupPresentation) -> AbelianInvariants:
    """Invariants of the abelianized presentation.

    Relators become rows of exponent sums; the Smith diagonal of that matrix
    gives the canonical decomposition.

    >>> abelianize(GroupPresentation(("a", "b"), ((1, 1), (2, 2, 2)))).describe()
    'Z/6'
    >>> abelianize(GroupPresentation(("a", "b"), ((1, 2, -1, -2),))).describe()
    'Z^2'
    """
    # Each relator row is a column of the transpose, which has the same
    # invariant factors.
    columns = [{j: v for j, v in enumerate(row) if v} for row in p.exponent_matrix()]
    diag = smith_diagonal(columns, len(p.generators))
    return AbelianInvariants.from_relation_diagonal(diag, len(p.generators))


class UnionFind:
    """Disjoint-set forest over 0..n-1 with path compression, union by rank
    and a Z/2 weight on every edge.

    ``union(x, y, parity)`` records that x and y differ by ``parity``;
    ``find`` returns the root of a class with the parity of its argument
    relative to that root, and ``odd[root]`` flags a class whose parity
    constraints contradict each other.

    >>> uf = UnionFind(3)
    >>> uf.union(0, 2, parity=1)
    True
    >>> uf.find(0)[0] == uf.find(2)[0], uf.find(0)[1] != uf.find(2)[1]
    (True, True)
    >>> uf.groups()
    [[0, 2], [1]]
    """

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.rank = [0] * n
        self.parity = [0] * n  # relative to parent, then to root once compressed
        self.odd = [False] * n

    def find(self, x: int) -> tuple[int, int]:
        path = []
        while self.parent[x] != x:
            path.append(x)
            x = self.parent[x]
        acc = 0
        for y in reversed(path):
            acc ^= self.parity[y]
            self.parity[y] = acc
            self.parent[y] = x
        return x, self.parity[path[0]] if path else 0

    def union(self, x: int, y: int, parity: int = 0) -> bool:
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            if px ^ py != parity:
                self.odd[rx] = True
            return False
        if self.rank[rx] < self.rank[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.parity[ry] = px ^ py ^ parity
        self.odd[rx] = self.odd[rx] or self.odd[ry]
        if self.rank[rx] == self.rank[ry]:
            self.rank[rx] += 1
        return True

    def groups(self) -> list[list[int]]:
        buckets: dict[int, list[int]] = {}
        for x in range(len(self.parent)):
            buckets.setdefault(self.find(x)[0], []).append(x)
        return sorted(buckets.values())


def reduce_lattice_rows(vectors: Iterable[Sequence[int]], width: int) -> list[list[int]]:
    """Row-reduce an integer row family, preserving its row span over Z.

    Streams vectors into an echelon basis using only invertible integer row
    operations, so the returned rows span the same sublattice of Z^width.
    Useful for collapsing huge relator families before a Smith computation.
    """
    pivots: dict[int, list[int]] = {}
    for vec in vectors:
        v = list(vec)
        if len(v) != width:
            raise ValueError("vector width mismatch")
        col = 0
        while col < width:
            if v[col] == 0:
                col += 1
                continue
            if col not in pivots:
                if v[col] < 0:
                    v = [-x for x in v]
                pivots[col] = v
                break
            r = pivots[col]
            # Integer gcd dance between r and v at this column.
            while v[col]:
                q = r[col] // v[col]
                r = [x - q * y for x, y in zip(r, v)]
                r, v = v, r
            if r[col] < 0:
                r = [-x for x in r]
            pivots[col] = r
            # v now has a zero in this column; keep folding it rightward.
    return [pivots[c] for c in sorted(pivots)]


def quotient_group(
    relator_rows: Sequence[Sequence[int]], n_generators: int
) -> tuple[AbelianInvariants, list[list[tuple[int, int]]]]:
    """Z^n modulo the row span, with the image of each standard generator.

    Returns ``(invariants, classes)`` where ``classes[j]`` expresses the image
    of generator ``j`` as coordinates ``[(value, modulus), ...]`` over the
    canonical decomposition: modulus 0 marks a free coordinate, otherwise the
    value is reduced mod the invariant factor.
    """
    rows = reduce_lattice_rows(relator_rows, n_generators)
    # Relators as the columns of [R^T | I_n]: the appended block collects
    # the left transform, which carries each generator to its coordinates.
    r = len(rows)
    a = [[row[i] for row in rows] + _unit(i, n_generators) for i in range(n_generators)]
    diag = _smith_loop(a, n_generators, r)
    inv = AbelianInvariants.from_relation_diagonal(diag, n_generators)
    moduli = diag + [0] * (n_generators - len(diag))
    keep = [i for i, d in enumerate(moduli) if d != 1]
    classes = []
    for j in range(n_generators):
        coord = []
        for i in keep:
            d = moduli[i]
            v = a[i][r + j]
            coord.append((v % d if d else v, d))
        classes.append(coord)
    return inv, classes


if __name__ == "__main__":
    import doctest

    doctest.testmod()
