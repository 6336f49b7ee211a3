"""Slow, independent paths that the localization tests compare against.

The surface engine generates piece shapes directly and closes only the
pairs whose chi total stays in the basis.  ``_pieces`` and ``_shape`` build
the pieces as cobordisms and read their shapes, and
``piece_shape_localization`` runs the engine on them the way it ran
before, closing every connected cap against every cup and dropping the
pairs that leave the basis after closing them.  ``composed_surface_engine``
closes each pair by building the composite with ``cob2.compose_surface``
and classifying it.  ``all_pairs_planar_engine`` closes every pair of
matchings with dense rows, the way the planar engine did before it closed
only mirror-distinct pairs that split at no common point.  The tree counts are the planar classes the planar engine must
reproduce.  ``closed_diagram_forest`` checks a cup-cap pair of matchings and
runs the engine's sweep on it, and ``ray_parity_forest`` nests planar
circles by pairwise ray parities, against which that sweep is checked.
``induced_automorphism_map`` carries a functor into a groupoid over to the
automorphism group at a basepoint, checking that every presentation relator
dies there.  ``brute_force_relations`` evaluates every commuting-square word
of a finite category one ``RelationInstance`` at a time, the loop that
``relations`` ran before it checked the class map on composable pairs.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from cobcat.cob2 import (
    S2,
    ConnectedClass,
    SurfaceCobordism,
    chi_of_class,
    component,
    compose_surface,
    surface,
    surface_class,
)
from cobcat.fincat import FinCat, is_groupoid
from cobcat.exactmath import AbelianInvariants, Word, quotient_group, reduce_lattice_rows
from cobcat.localize import (
    SurfaceLocalizationResult,
    Tree,
    _count_row,
    _forest,
    _partners,
    _relator_engine,
    _shape_closer,
    abelian_loop_classes,
    connected_generators,
    crossingless_matchings,
    enumerate_trees,
    word_class,
)
from cobcat.nerve import component_objects, fundamental_group
from exactmath_helpers import free_reduce
from fincat_helpers import Functor, check_functor, hom


@dataclass(frozen=True)
class RelationInstance:
    """A commuting-square witness: w1, w2: y -> x and w3, w4: x -> y.

    The four composites a = w1.w3, b = w2.w3, c = w1.w4, d = w2.w4 are
    endomorphisms of x, and a.b^-1.d.c^-1 must die in any groupoid image.
    """

    base: FinCat
    w1: int
    w2: int
    w3: int
    w4: int

    def __post_init__(self):
        c = self.base
        n = len(c.morphisms)
        for w in (self.w1, self.w2, self.w3, self.w4):
            if not 0 <= w < n:
                raise ValueError(f"morphism index {w} out of range")
        if c.src[self.w1] != c.src[self.w2] or c.tgt[self.w1] != c.tgt[self.w2]:
            raise ValueError("w1 and w2 must be parallel")
        if c.src[self.w3] != c.src[self.w4] or c.tgt[self.w3] != c.tgt[self.w4]:
            raise ValueError("w3 and w4 must be parallel")
        if c.src[self.w3] != c.tgt[self.w1] or c.tgt[self.w3] != c.src[self.w1]:
            raise ValueError("w3 must run opposite to w1")

    def composites(self) -> tuple[int, int, int, int]:
        c = self.base
        return (
            c.compose(self.w3, self.w1),
            c.compose(self.w3, self.w2),
            c.compose(self.w4, self.w1),
            c.compose(self.w4, self.w2),
        )


def square_word(r: RelationInstance) -> Word:
    """The relator a.b^-1.d.c^-1 as a word over morphism letters.

    Letters are 1-based morphism indices of the base category with sign for
    inversion, freely reduced; the degenerate instance w1 = w2, w3 = w4
    reduces to the empty word.
    """
    a, b, c, d = r.composites()
    return free_reduce((a + 1, -(b + 1), d + 1, -(c + 1)))


def brute_force_relations(c: FinCat, bases: Sequence[str]) -> tuple[int, int]:
    """``(checked, nonvanishing)`` over the components of the given bases:
    every commuting square w1, w2: y -> x, w3, w4: x -> y is built and its
    word evaluated in the abelianized classes, Σ |hom(y,x)|²·|hom(x,y)|²
    instances in all."""
    checked = nonvanishing = 0
    for base in bases:
        _, classes, _ = abelian_loop_classes(c, base)
        objects = sorted(component_objects(c, base))
        for x in objects:
            for y in objects:
                forth, back = hom(c, y, x), hom(c, x, y)
                for ws in itertools.product(forth, forth, back, back):
                    checked += 1
                    word = square_word(RelationInstance(c, *ws))
                    nonvanishing += any(word_class(classes, word))
    return checked, nonvanishing


@dataclass(frozen=True)
class SurfaceRelationInstance:
    """Commuting-square witness in the surface category over a closed
    1-manifold y: caps w1, w2: y -> {} and cups w3, w4: {} -> y."""

    w1: SurfaceCobordism
    w2: SurfaceCobordism
    w3: SurfaceCobordism
    w4: SurfaceCobordism

    def __post_init__(self):
        if self.w1.tgt != () or self.w2.tgt != ():
            raise ValueError("w1 and w2 must end at the empty manifold")
        if self.w3.src != () or self.w4.src != ():
            raise ValueError("w3 and w4 must start at the empty manifold")
        if self.w1.src != self.w2.src:
            raise ValueError("w1 and w2 must be parallel")
        if self.w3.tgt != self.w4.tgt:
            raise ValueError("w3 and w4 must be parallel")
        if self.w3.tgt != self.w1.src:
            raise ValueError("the cups must feed the caps")

    def composites(self) -> tuple[SurfaceCobordism, ...]:
        return (
            compose_surface(self.w3, self.w1),
            compose_surface(self.w3, self.w2),
            compose_surface(self.w4, self.w1),
            compose_surface(self.w4, self.w2),
        )


def composed_row(
    cup: SurfaceCobordism, cap: SurfaceCobordism, index: Mapping[ConnectedClass, int]
) -> list[int] | None:
    """Basis row of the closed composite of cup then cap, or None when a
    class leaves the basis."""
    return _count_row(surface_class(compose_surface(cup, cap)).components, index)


def surface_relator_vector(
    inst: SurfaceRelationInstance, index: Mapping[ConnectedClass, int]
) -> list[int] | None:
    """Exponent row of the relator over the generator basis.

    Returns None when some composite contains a component outside the
    basis, in which case the instance cannot be expressed and is skipped.
    """
    row = [0] * len(index)
    for sign, w in zip((1, -1, -1, 1), inst.composites()):
        vec = _count_row(surface_class(w).components, index)
        if vec is None:
            return None
        row = [r + sign * v for r, v in zip(row, vec)]
    return row


def _pieces(
    circles: tuple[str, ...], min_chi: int, as_cap: bool
) -> list[SurfaceCobordism]:
    """Cobordisms between the named circles and the empty manifold in which
    every component touches a circle and has Euler characteristic at least
    min_chi.

    One circle forces a connected piece; two circles also admit a pair of
    one-holed components, one per circle, and two epsilon variants of the
    connected orientable shape.  A piece with b boundary circles has the
    Euler characteristic of its closed shape minus b.
    """
    src = circles if as_cap else ()
    tgt = () if as_cap else circles

    def comp(orientable, genus, owned, eps=None):
        ins = owned if as_cap else ()
        outs = () if as_cap else owned
        return component(orientable, genus, ins, outs, eps)

    singles = connected_generators(-(min_chi + 1))
    if len(circles) == 1:
        return [surface(src, tgt, [comp(o, g, circles)]) for o, g in singles]
    pieces = []
    for orientable, genus in connected_generators(-(min_chi + 2)):
        if not orientable:
            pieces.append(surface(src, tgt, [comp(False, genus, circles)]))
            continue
        for second_sign in (1, -1):
            eps = {circles[0]: 1, circles[1]: second_sign}
            pieces.append(surface(src, tgt, [comp(True, genus, circles, eps)]))
    for first in singles:
        for second in singles:
            comps = [comp(*first, circles[:1]), comp(*second, circles[1:])]
            pieces.append(surface(src, tgt, comps))
    return pieces


def _shape(piece: SurfaceCobordism, circles: tuple[str, ...]) -> tuple[tuple, tuple[int, ...]]:
    """``(skeleton, chis)``: per component of the piece, ``(orientable,
    ((circle position, eps sign or 0 if non-orientable), ...))`` and chi."""
    skeleton = []
    for comp in piece.components:
        eps = {c: sign for _, c, sign in comp.eps}
        owned = comp.in_circles + comp.out_circles
        skeleton.append((comp.orientable, tuple((circles.index(c), eps.get(c, 0)) for c in owned)))
    return tuple(skeleton), tuple(comp.chi for comp in piece.components)


def closed_in_basis(
    caps: Sequence, cups: Sequence, close: Callable, index: Mapping
) -> tuple[list[tuple[int, int]], int]:
    """``(kept, skipped)``: the ``(cap, cup)`` index pairs, in product
    order, whose closing stays in the basis, and the count of the others.
    Every pair is closed to decide."""
    kept = [
        (i, k)
        for i, k in itertools.product(range(len(caps)), range(len(cups)))
        if _count_row(close(cups[k], caps[i]), index) is not None
    ]
    return kept, len(caps) * len(cups) - len(kept)


def piece_shape_localization(max_complexity: int) -> SurfaceLocalizationResult:
    """``surface_localization_group`` by the path it ran before it generated
    shapes directly: pieces built as cobordisms and read by ``_shape``, and
    every connected cap closed against every cup, the pairs that leave the
    basis dropped and counted after closing."""
    basis = connected_generators(max_complexity)
    index = {(cls[0], chi_of_class(cls)): i for i, cls in enumerate(basis)}
    close = _shape_closer()
    levels = []
    skipped = 0
    for n_circles in (1, 2):
        circles = tuple(f"y{i}" for i in range(n_circles))
        caps, cups, ref_caps, ref_cups = (
            [_shape(piece, circles) for piece in _pieces(circles, min_chi, as_cap)]
            for min_chi in (-max_complexity, 1)
            for as_cap in (True, False)
        )
        connected_caps = [s for s in caps if len(s[0]) == 1]
        pairs, dropped = closed_in_basis(connected_caps, cups, close, index)
        skipped += dropped
        levels.append((connected_caps, cups, pairs, ref_caps[0], ref_cups[0], close))
    invariants, classes, relator_count = _relator_engine(
        levels, index, index[True, chi_of_class(S2)]
    )
    return SurfaceLocalizationResult(
        invariants, basis, classes, relator_count, skipped
    )


def composed_surface_engine(bound: int, all_pairs: bool = True) -> tuple:
    """``_relator_engine`` over the same pieces and basis as
    ``surface_localization_group(bound)``, closing each pair with
    ``compose_surface``: ``(invariants, classes, relator count, skipped)``.
    The pairs whose composite leaves the basis are dropped and counted here,
    after closing them.

    With ``all_pairs`` every two-circle cap meets every two-circle cup;
    without it only connected caps are closed, the pairs the engine
    closes."""
    basis = connected_generators(bound)
    index = {cls: i for i, cls in enumerate(basis)}

    @functools.cache
    def close(cup, cap):
        return surface_class(compose_surface(cup, cap)).components

    levels = []
    skipped = 0
    for circles in (("y0",), ("y0", "y1")):
        caps = _pieces(circles, -bound, as_cap=True)
        cups = _pieces(circles, -bound, as_cap=False)
        if not all_pairs:
            caps = [piece for piece in caps if len(piece.components) == 1]
        pairs, dropped = closed_in_basis(caps, cups, close, index)
        skipped += dropped
        refs = (_pieces(circles, 1, as_cap=True)[0], _pieces(circles, 1, as_cap=False)[0])
        levels.append((caps, cups, pairs, *refs, close))
    return (*_relator_engine(levels, index, index[S2]), skipped)


def all_pairs_planar_engine(
    max_points: int,
) -> tuple[AbelianInvariants, tuple[Tree, ...], tuple[tuple[tuple[int, int], ...], ...]]:
    """``(pi1, basis, tree_classes)`` of ``planar_localization_data``, with
    every cup closed against every cap on up to max_points points and each
    row built densely against the all-adjacent reference."""
    basis = tuple(enumerate_trees(max_points // 2))
    index = {tree: i for i, tree in enumerate(basis)}

    def close(cup, cap):
        return _count_row(closed_diagram_forest(cup, cap), index)

    seen: set[tuple[int, ...]] = set()
    rows: list[tuple[int, ...]] = []
    for m in range(2, max_points + 1, 2):
        matchings = crossingless_matchings(m)
        ref = tuple((i, i + 1) for i in range(0, m, 2))
        corner = close(ref, ref)
        cap_refs = [close(ref, cap) for cap in matchings]
        cup_refs = [close(cup, ref) for cup in matchings]
        for i, cap in enumerate(matchings):
            for k, cup in enumerate(matchings):
                a = close(cup, cap)
                row = tuple(
                    av - bv - cv + dv
                    for av, bv, cv, dv in zip(a, cup_refs[k], cap_refs[i], corner)
                )
                if any(row) and row not in seen:
                    seen.add(row)
                    rows.append(row)

    width = len(basis)
    invariants, classes = quotient_group(reduce_lattice_rows(rows, width), width)
    positive = index[()]
    flips = {
        pos
        for pos, (value, modulus) in enumerate(classes[positive])
        if modulus == 0 and value < 0
    }
    fixed = tuple(
        tuple((-v if pos in flips else v, mod) for pos, (v, mod) in enumerate(vec))
        for vec in classes
    )
    return invariants, basis, fixed


def tree_nodes(tree: Tree) -> int:
    return 1 + sum(tree_nodes(child) for child in tree)


def tree_signed_count(tree: Tree, depth: int = 0) -> int:
    """Nodes at even depth minus nodes at odd depth."""
    sign = 1 if depth % 2 == 0 else -1
    return sign + sum(tree_signed_count(child, depth + 1) for child in tree)


def closed_diagram_forest(
    cup_pairs: Sequence[tuple[int, int]], cap_pairs: Sequence[tuple[int, int]]
) -> tuple[Tree, ...]:
    """Nesting forest of the closed diagram formed by a cup matching below
    the line and a cap matching above it, both on the points 0..m-1, by the
    sweep the planar engine runs on partner arrays."""
    m = 2 * len(cup_pairs)
    every = set(range(m))
    if (
        2 * len(cap_pairs) != m
        or set().union(*cup_pairs) != every
        or set().union(*cap_pairs) != every
    ):
        raise ValueError("cup and cap matchings must cover the same points 0..m-1")
    return _forest(_partners(cup_pairs, m), _partners(cap_pairs, m))


def ray_parity_forest(
    cup_pairs: Sequence[tuple[int, int]], cap_pairs: Sequence[tuple[int, int]]
) -> tuple[Tree, ...]:
    """Nesting forest of the closed diagram formed by a cup matching below
    the line and a cap matching above it, by pairwise ray parities: the
    O(circles^2 * arcs) test that ``closed_diagram_forest`` replaced.

    Circles alternate cup and cap arcs.  A circle Y sits inside X exactly
    when a downward ray from just right of Y's leftmost point crosses an odd
    number of X's cup arcs.
    """
    cup_of = {}
    for p, q in cup_pairs:
        cup_of[p] = q
        cup_of[q] = p
    cap_of = {}
    for p, q in cap_pairs:
        cap_of[p] = q
        cap_of[q] = p
    if set(cup_of) != set(cap_of):
        raise ValueError("cup and cap matchings cover different points")

    circles: list[list[tuple[int, int]]] = []  # cup arcs per circle
    unseen = set(cup_of)
    while unseen:
        start = min(unseen)
        arcs = []
        point = start
        while True:
            partner = cup_of[point]
            arcs.append((min(point, partner), max(point, partner)))
            unseen.discard(point)
            unseen.discard(partner)
            point = cap_of[partner]
            if point == start:
                break
        circles.append(arcs)

    lefts = [min(p for arc in arcs for p in arc) for arcs in circles]
    n = len(circles)
    parents: list[list[int]] = [[] for _ in range(n)]
    for y in range(n):
        for x in range(n):
            if x == y:
                continue
            crossings = sum(1 for p, q in circles[x] if p < lefts[y] < q)
            if crossings % 2:
                parents[y].append(x)
    depth = [len(ps) for ps in parents]

    def build(node: int) -> Tree:
        children = [
            other
            for other in parents_inv[node]
            if depth[other] == depth[node] + 1
        ]
        return tuple(sorted(build(child) for child in children))

    parents_inv: list[list[int]] = [[] for _ in range(n)]
    for y in range(n):
        for x in parents[y]:
            parents_inv[x].append(y)
    roots = [i for i in range(n) if depth[i] == 0]
    return tuple(sorted(build(root) for root in roots))


def induced_automorphism_map(
    c: FinCat, basepoint: str, fun: Functor
) -> dict[str, str]:
    """Transport a functor into a groupoid along spanning-tree paths.

    For each presentation generator g: y -> z the image is the target
    composite (tree path to z)^-1 . F(g) . (tree path to y), an automorphism
    of the image of the basepoint.  Every presentation relator is checked to
    land on the identity, which is the universal property in its tracks.
    """
    issues = check_functor(fun)
    if issues:
        raise ValueError("not a functor: " + "; ".join(issues))
    ok, inverse_names = is_groupoid(fun.target)
    if not ok:
        raise ValueError("target is not a groupoid")
    d = fun.target
    p = fundamental_group(c, basepoint)
    gen_index = {name: i + 1 for i, name in enumerate(p.generators)}
    tree = {
        abs(w[0]) for w in p.relators if len(w) == 1
    }  # tree edges present as single-letter relators

    mmap = {
        c.morphisms.index(m): d.morphisms.index(v)
        for m, v in fun.morphism_map.items()
    }
    inv = {
        f: d.morphisms.index(inverse_names[d.morphisms[f]])
        for f in range(len(d.morphisms))
    }

    # Walk the tree outward from the basepoint, accumulating the image in
    # the target of the path to every object of the component.
    base = c.object_index(basepoint)
    image_base = d.object_index(fun.object_map[basepoint])
    path: dict[int, int] = {base: d.identity[image_base]}
    edges = []
    for name, idx in gen_index.items():
        if idx in tree:
            f = c.morphisms.index(name)
            edges.append(f)
    changed = True
    while changed:
        changed = False
        for f in edges:
            x, y = c.src[f], c.tgt[f]
            if x in path and y not in path:
                path[y] = d.compose(path[x], mmap[f])
                changed = True
            elif y in path and x not in path:
                path[x] = d.compose(path[y], inv[mmap[f]])
                changed = True

    images: dict[str, str] = {}
    image_idx: dict[int, int] = {}
    for name in p.generators:
        f = c.morphisms.index(name)
        y, z = c.src[f], c.tgt[f]
        loop = d.compose(d.compose(path[y], mmap[f]), inv[path[z]])
        images[name] = d.morphisms[loop]
        image_idx[gen_index[name]] = loop

    identity = d.identity[image_base]
    for relator in p.relators:
        acc = identity
        for letter in relator:
            step = image_idx[abs(letter)]
            if letter < 0:
                step = inv[step]
            acc = d.compose(acc, step)
        if acc != identity:
            raise AssertionError("relator fails to die in the groupoid image")
    return images
