"""Finite categories as explicit composition tables.

A :class:`FinCat` stores objects, morphisms with source and target, an
identity for each object, and a total composition table on composable pairs.
Object and morphism ids are opaque strings at the interface; internally
everything is indexed densely.  ``validate_category`` checks the axioms
exhaustively and returns a report of human-readable issues, empty when the
category is lawful.  It walks the raw tables, whose identities it has yet
to check; every other walk reads ``FinCat.arrows`` and ``FinCat.components``.

The JSON wire format::

    {"objects": ["x", "y"],
     "morphisms": [{"id": "f", "src": "x", "tgt": "y"}, ...],
     "identities": {"x": "id_x", ...},
     "compose": [["f", "g", "h"], ...]}       # g after f equals h

Every composable pair must appear exactly once in "compose".
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

from .exactmath import UnionFind, json_array


class _cached_property(cached_property):
    """Caches through ``object.__setattr__``: the base class writes ``__dict__``,
    which slows every later attribute read on CPython 3.11 and 3.12."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        object.__setattr__(obj, self.attrname, value := self.func(obj))
        return value


@dataclass(frozen=True)
class FinCat:
    """Finite category with dense integer indexing.

    ``objects`` and ``morphisms`` are id tuples; ``src``/``tgt`` give object
    indices per morphism; ``identity`` gives the identity morphism index per
    object; ``table`` maps composable index pairs ``(f, g)`` with
    ``f: x -> y`` and ``g: y -> z`` to the index of ``g after f``.

    Construction does not validate the axioms; call
    :func:`validate_category`, which builders and JSON loading do for you.
    ``arrows``, ``components`` and ``object_index``'s map are cached once, not fields.
    """

    objects: tuple[str, ...]
    morphisms: tuple[str, ...]
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    identity: tuple[int, ...]
    table: Mapping[tuple[int, int], int]

    def object_index(self, obj: str) -> int:
        try:
            return self._object_ids[obj]
        except KeyError:
            raise ValueError(f"unknown object {obj!r}") from None

    @_cached_property
    def _object_ids(self) -> dict[str, int]:
        return {o: i for i, o in enumerate(self.objects)}

    def compose(self, f: int, g: int) -> int:
        """Index of ``g after f`` for ``f: x -> y``, ``g: y -> z``."""
        try:
            return self.table[(f, g)]
        except KeyError:
            raise ValueError(
                f"morphisms {self.morphisms[f]!r} and {self.morphisms[g]!r} "
                "are not composable"
            ) from None

    def is_identity(self, f: int) -> bool:
        return self.identity[self.src[f]] == f

    @_cached_property
    def arrows(self) -> tuple[tuple[int, ...], ...]:
        """``arrows[x]``: the non-identities out of x in index order, the order of relators."""
        out: list[list[int]] = [[] for _ in self.objects]
        for f, x in enumerate(self.src):
            if self.identity[x] != f:
                out[x].append(f)
        return tuple(map(tuple, out))

    @_cached_property
    def components(self) -> tuple[tuple[int, ...], ...]:
        """``components[x]``: x's connected component, one sorted tuple shared by its objects."""
        uf = UnionFind(len(self.objects))
        for x, y in zip(self.src, self.tgt):
            uf.union(x, y)
        of = {x: group for group in map(tuple, uf.groups()) for x in group}
        return tuple(of[x] for x in range(len(self.objects)))


def build_category(
    objects: Sequence[str],
    morphisms: Sequence[tuple[str, str, str]],
    identities: Mapping[str, str],
    compose: Iterable[tuple[str, str, str]],
) -> FinCat:
    """Assemble and validate a category from id-level data.

    ``morphisms`` rows are ``(id, src, tgt)``; ``compose`` rows are
    ``(f, g, h)`` meaning ``g after f = h``.  Raises ``ValueError`` with the
    first validation issue if the result breaks an axiom.
    """
    objects = tuple(objects)
    obj_index = {o: i for i, o in enumerate(objects)}
    if len(obj_index) != len(objects):
        raise ValueError("duplicate object ids")
    mor_ids = tuple(m[0] for m in morphisms)
    mor_index = {m: i for i, m in enumerate(mor_ids)}
    if len(mor_index) != len(mor_ids):
        raise ValueError("duplicate morphism ids")
    src = []
    tgt = []
    for mid, s, t in morphisms:
        if s not in obj_index or t not in obj_index:
            raise ValueError(f"morphism {mid!r} references unknown object")
        src.append(obj_index[s])
        tgt.append(obj_index[t])
    ident = [-1] * len(objects)
    for obj, mid in identities.items():
        if obj not in obj_index:
            raise ValueError(f"identity given for unknown object {obj!r}")
        if mid not in mor_index:
            raise ValueError(f"identity {mid!r} is not a morphism")
        ident[obj_index[obj]] = mor_index[mid]
    table = {}
    for f, g, h in compose:
        for name in (f, g, h):
            if name not in mor_index:
                raise ValueError(f"compose row references unknown morphism {name!r}")
        key = (mor_index[f], mor_index[g])
        if key in table:
            raise ValueError(f"duplicate compose row for ({f!r}, {g!r})")
        table[key] = mor_index[h]
    cat = FinCat(
        objects,
        mor_ids,
        tuple(src),
        tuple(tgt),
        tuple(ident),
        table,
    )
    issues = validate_category(cat)
    if issues:
        raise ValueError(issues[0])
    return cat


def validate_category(c: FinCat) -> list[str]:
    """Exhaustive axiom check; returns human-readable issues, empty if lawful."""
    issues: list[str] = []
    n = len(c.morphisms)
    for x, i in enumerate(c.identity):
        if not (0 <= i < n):
            issues.append(f"object {c.objects[x]!r} has no identity morphism")
            continue
        if c.src[i] != x or c.tgt[i] != x:
            issues.append(
                f"identity of {c.objects[x]!r} is not an endomorphism of it"
            )
    # Each object's outgoing morphisms in index order: walking f, then g out
    # of f's target, then h out of g's target, meets the composable pairs
    # and triples in lexicographic order.
    out: list[list[int]] = [[] for _ in c.objects]
    for g in range(n):
        out[c.src[g]].append(g)
    for f, g in c.table:
        if c.tgt[f] != c.src[g]:
            issues.append(
                f"table entry for non-composable pair ({c.morphisms[f]!r}, {c.morphisms[g]!r})"
            )
    for f in range(n):
        for g in out[c.tgt[f]]:
            if (f, g) not in c.table:
                issues.append(
                    f"missing composite of {c.morphisms[f]!r} then {c.morphisms[g]!r}"
                )
                continue
            h = c.table[(f, g)]
            if not (0 <= h < n):
                issues.append(f"composite index out of range for pair ({f}, {g})")
                continue
            if c.src[h] != c.src[f] or c.tgt[h] != c.tgt[g]:
                issues.append(
                    f"composite of {c.morphisms[f]!r} then {c.morphisms[g]!r} has wrong endpoints"
                )
    if issues:
        return issues
    for f in range(n):
        i_src = c.identity[c.src[f]]
        i_tgt = c.identity[c.tgt[f]]
        if c.table[(i_src, f)] != f:
            issues.append(f"left identity law fails at {c.morphisms[f]!r}")
        if c.table[(f, i_tgt)] != f:
            issues.append(f"right identity law fails at {c.morphisms[f]!r}")
    for f in range(n):
        for g in out[c.tgt[f]]:
            fg = c.table[(f, g)]
            for h in out[c.tgt[g]]:
                if c.table[(fg, h)] != c.table[(f, c.table[(g, h)])]:
                    issues.append(
                        "associativity fails on "
                        f"({c.morphisms[f]!r}, {c.morphisms[g]!r}, {c.morphisms[h]!r})"
                    )
    return issues


def is_groupoid(c: FinCat) -> tuple[bool, dict[str, str] | None]:
    """Whether every morphism is invertible; returns the inverse table if so."""
    inverses: dict[str, str] = {}
    for f in range(len(c.morphisms)):
        x, y = c.src[f], c.tgt[f]
        for g in (c.identity[y], *c.arrows[y]):
            if c.tgt[g] == x and c.table[f, g] == c.identity[x] and c.table[g, f] == c.identity[y]:
                inverses[c.morphisms[f]] = c.morphisms[g]
                break
        else:
            return False, None
    return True, inverses


def from_json(data: dict) -> FinCat:
    """Parse and validate the wire format; raises ValueError on any defect."""
    try:
        objects = data["objects"]
        morphisms = [(m["id"], m["src"], m["tgt"]) for m in data["morphisms"]]
        identities = data["identities"]
        compose = list(data["compose"])
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed category JSON: {exc}") from None
    json_array(objects, "objects")
    if not isinstance(identities, dict):
        raise ValueError(f"identities must be a JSON object, got {identities!r}")
    for row in compose:
        if not isinstance(row, list) or len(row) != 3:
            raise ValueError("compose rows must be [f, g, h] triples")
    return build_category(objects, morphisms, identities, compose)


# Builders for the standard small categories used across the test suite and
# the command-line examples.


def terminal_category() -> FinCat:
    return build_category(
        ["*"], [("id_*", "*", "*")], {"*": "id_*"}, [("id_*", "id_*", "id_*")]
    )


def interval_category() -> FinCat:
    """Two objects, one arrow between them; has a terminal object."""
    return build_category(
        ["a", "b"],
        [("id_a", "a", "a"), ("id_b", "b", "b"), ("f", "a", "b")],
        {"a": "id_a", "b": "id_b"},
        [
            ("id_a", "id_a", "id_a"),
            ("id_b", "id_b", "id_b"),
            ("id_a", "f", "f"),
            ("f", "id_b", "f"),
        ],
    )


def parallel_pair() -> FinCat:
    """Two objects with two parallel arrows; its nerve is a circle."""
    return build_category(
        ["a", "b"],
        [
            ("id_a", "a", "a"),
            ("id_b", "b", "b"),
            ("f", "a", "b"),
            ("g", "a", "b"),
        ],
        {"a": "id_a", "b": "id_b"},
        [
            ("id_a", "id_a", "id_a"),
            ("id_b", "id_b", "id_b"),
            ("id_a", "f", "f"),
            ("f", "id_b", "f"),
            ("id_a", "g", "g"),
            ("g", "id_b", "g"),
        ],
    )


def poset_category(elements: Sequence[str], leq: Callable[[str, str], bool]) -> FinCat:
    """Category of a finite poset: one morphism per related pair."""
    objects = list(elements)
    morphisms = []
    identities = {}
    for a in objects:
        for b in objects:
            if leq(a, b):
                mid = f"id_{a}" if a == b else f"{a}<{b}"
                morphisms.append((mid, a, b))
                if a == b:
                    identities[a] = mid
    by_pair = {(s, t): mid for mid, s, t in morphisms}
    compose = []
    for f, fs, ft in morphisms:
        for g, gs, gt in morphisms:
            if ft == gs:
                compose.append((f, g, by_pair[(fs, gt)]))
    return build_category(objects, morphisms, identities, compose)


def subset_poset_category(n: int = 4) -> FinCat:
    """Nonempty proper subsets of an n-element set, ordered by inclusion.

    For n = 4 the nerve of this category is a model of the 2-sphere (it is
    the barycentric subdivision of the boundary of a tetrahedron).
    """
    universe = list(range(n))
    subsets = []
    for mask in range(1, (1 << n) - 1):
        subsets.append(frozenset(i for i in universe if mask & (1 << i)))
    subsets.sort(key=lambda s: (len(s), sorted(s)))
    names = {s: "".join(str(i) for i in sorted(s)) for s in subsets}
    by_name = {v: k for k, v in names.items()}
    return poset_category(
        [names[s] for s in subsets],
        lambda a, b: by_name[a] <= by_name[b],
    )
