"""Universal groupoid data: automorphism presentations and class groups.

Inverting every morphism of a category gives a groupoid whose automorphism
groups are fundamental groups of the classifying space.  This module extracts
those presentations, with the class of every morphism of a component in
the abelianized group, and runs one relator engine that computes the
abelianized automorphism group of the empty object for two cobordism
categories: closed surfaces (detected by Euler characteristic) and closed
planar 1-manifold diagrams (detected by the signed circle count).

Surfaces are closed from shapes (orientability, boundary signs and chi per
component), generated directly with no cobordism built and glued once per
skeleton pair.  Only connected caps are closed: the other pairs add nothing
to the relator lattice.  A connected cap meets every cup component, so each
closing is one connected surface whose chi is the sum of its pieces' chis,
and a pair whose sum leaves the basis is counted from those totals without
being closed.  Planar circles are nested in one left-to-right sweep along
the line, and a cup i meets a cap k only when i <= k and the two split at
no common point: the other pairs are mirror images or sums of lower-level
rows.  The engine counts each distinct composite into its row once.  Both
engines hold their count of all cup-cap pairs to the cell ceiling before
they enumerate anything, so the count over-counts the pairs closed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import comb
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .cob2 import S2, ConnectedClass, chi_of_class, class_name
from .exactmath import (
    AbelianInvariants,
    GroupPresentation,
    UnionFind,
    Word,
    quotient_group,
    reduce_lattice_rows,
)
from .limits import check_count

if TYPE_CHECKING:
    from .fincat import FinCat


def abelian_loop_classes(
    c: FinCat, basepoint: str
) -> tuple[AbelianInvariants, dict[int, list[tuple[int, int]]], GroupPresentation]:
    """Abelianized automorphism group at the basepoint with the class of
    every morphism of the component as a loop.

    Returns ``(invariants, classes, presentation)`` where ``classes[f]`` is
    the coordinate vector of morphism f transported to the basepoint
    (identities are zero), in index order over the basepoint's component,
    and ``presentation`` is the one of ``nerve.fundamental_group`` they are
    read from.  That function prices
    the presentation's dense relator matrix as it builds it, so nothing is
    reduced past the cell ceiling.
    """
    from .nerve import fundamental_group
    p = fundamental_group(c, basepoint)
    invariants, gen_classes = quotient_group(p.exponent_matrix(), len(p.generators))
    zero = [(0, mod) for _, mod in gen_classes[0]] if gen_classes else []
    letter = {name: i for i, name in enumerate(p.generators)}
    component = c.components[c.object_index(basepoint)]
    classes: dict[int, list[tuple[int, int]]] = {}
    for f in sorted(f for x in component for f in (c.identity[x], *c.arrows[x])):
        name = c.morphisms[f]
        classes[f] = gen_classes[letter[name]] if name in letter else list(zero)
    return invariants, classes, p


def relation_word(c: FinCat, f: int, g: int) -> Word:
    """The relator g.f.(g after f)^-1 of a composable pair f: x -> y,
    g: y -> z, as a word over morphism letters: 1-based morphism indices of
    the base category, negative for an inverse.

    ``nerve.fundamental_group`` has this relator for every composable pair
    of non-identities, so its class vanishes exactly when the class of the
    composite is the sum of the classes of f and g.  Then the class map is
    a functor to an abelian group, and every commuting-square word
    a.b^-1.d.c^-1 vanishes with it.
    """
    return (g + 1, f + 1, -(c.compose(f, g) + 1))


def word_class(
    classes: Mapping[int, list[tuple[int, int]]], word: Iterable[int]
) -> tuple[int, ...]:
    """Evaluate a morphism-letter word in the abelianized coordinates."""
    moduli = [mod for _, mod in next(iter(classes.values()))]
    acc = [0] * len(moduli)
    for letter in word:
        sign = 1 if letter > 0 else -1
        for i, (v, _) in enumerate(classes[abs(letter) - 1]):
            acc[i] += sign * v
    return tuple(a % mod if mod else a for a, mod in zip(acc, moduli))


# ---------------------------------------------------------------------------
# The commuting-square relator engine shared by both cobordism models.


def _count_row(items: Iterable, index: Mapping) -> list[int] | None:
    """How often each basis element occurs in items; None if one is outside
    the basis."""
    row = [0] * len(index)
    for item in items:
        if item not in index:
            return None
        row[index[item]] += 1
    return row


def _relator_engine(
    levels: Iterable[tuple], index: Mapping, positive: int
) -> tuple[AbelianInvariants, tuple[tuple[tuple[int, int], ...], ...], int]:
    """Z^len(index) modulo the commuting-square relators of the given levels.

    A level is ``(caps, cups, pairs, ref_cap, ref_cup, close)`` over one
    boundary object y, where ``close(cup, cap)`` is the closed composite as
    a hashable collection of basis keys, which ``index`` maps to
    coordinates.  Each ``(cap, cup)`` index pair in ``pairs`` gives the row
    ``close(cup, cap) - close(cup, ref_cap) - close(ref_cup, cap) +
    close(ref_cup, ref_cap)``; the row of a general square is the signed sum
    of the rows of its four corners, so these span the same lattice.  Every
    composite must lie in the basis: a level hands over only such pairs.
    Each distinct composite is counted into its row once, and each distinct
    triple of composite and references gives its row once.  Zero or
    repeated rows are dropped.  Free coordinates are flipped so that
    generator ``positive`` lands on the positive side.

    Returns ``(invariants, classes, relator row count)``.
    """
    ids: dict = {}
    counts: list[list[int]] = []

    def intern(closed) -> int:
        i = ids.get(closed)
        if i is None:
            row = _count_row(closed, index)
            assert row is not None, f"closed composite {closed} leaves the basis"
            i = ids[closed] = len(counts)
            counts.append(row)
        return i

    seen: set[tuple[int, ...]] = set()
    rows: list[tuple[int, ...]] = []
    for caps, cups, pairs, ref_cap, ref_cup, close in levels:
        corner = counts[intern(close(ref_cup, ref_cap))]
        cap_refs = [intern(close(ref_cup, cap)) for cap in caps]
        cup_refs = [intern(close(cup, ref_cap)) for cup in cups]
        done: set[tuple[int, int, int]] = set()
        for i, k in pairs:
            key = (intern(close(cups[k], caps[i])), cup_refs[k], cap_refs[i])
            if key in done:
                continue
            done.add(key)
            a, b, c = key
            row = tuple(
                av - bv - cv + dv
                for av, bv, cv, dv in zip(counts[a], counts[b], counts[c], corner)
            )
            if any(row) and row not in seen:
                seen.add(row)
                rows.append(row)

    width = len(index)
    invariants, classes = quotient_group(reduce_lattice_rows(rows, width), width)
    flips = {
        pos
        for pos, (value, modulus) in enumerate(classes[positive])
        if modulus == 0 and value < 0
    }
    fixed = tuple(
        tuple((-v if pos in flips else v, mod) for pos, (v, mod) in enumerate(vec))
        for vec in classes
    )
    return invariants, fixed, len(rows)


# ---------------------------------------------------------------------------
# Closed surfaces from shapes, and the localization class group.


@dataclass(frozen=True)
class SurfaceLocalizationResult:
    """Outcome of the relator engine for closed surfaces.

    ``classes[i]`` is the image of ``basis[i]`` in the computed group, as
    ``(value, modulus)`` coordinates with modulus 0 on free summands.
    """

    invariants: AbelianInvariants
    basis: tuple[ConnectedClass, ...]
    classes: tuple[tuple[tuple[int, int], ...], ...]
    relator_count: int
    skipped_instances: int

    def class_integers(self) -> dict[str, int]:
        """Generator classes as plain integers; defined when the group is
        infinite cyclic."""
        if self.invariants != AbelianInvariants(1, ()):
            raise ValueError("class integers need an infinite cyclic group")
        return {
            class_name(cls): self.classes[i][0][0]
            for i, cls in enumerate(self.basis)
        }

    def to_json(self) -> dict:
        data: dict = {"group": self.invariants.describe()}
        if self.invariants == AbelianInvariants(1, ()):
            data["classes"] = self.class_integers()
        else:
            data["classes"] = {
                class_name(cls): [list(pair) for pair in self.classes[i]]
                for i, cls in enumerate(self.basis)
            }
        return data


def connected_generators(max_complexity: int) -> tuple[ConnectedClass, ...]:
    """Connected closed surfaces with Euler characteristic >= -max_complexity,
    orientable first, by increasing genus."""
    out: list[ConnectedClass] = []
    g = 0
    while 2 - 2 * g >= -max_complexity:
        out.append((True, g))
        g += 1
    h = 1
    while 2 - h >= -max_complexity:
        out.append((False, h))
        h += 1
    return tuple(out)


def _shapes(n_circles: int, min_chi: int) -> list[tuple[tuple, tuple[int, ...]]]:
    """``(skeleton, chis)`` of every cobordism between n_circles circles and
    the empty manifold in which each component touches a circle and has
    Euler characteristic at least min_chi.  A shape fits either side, so one
    list serves as caps and as cups.

    ``skeleton`` has per component ``(orientable, ((circle position, eps
    sign or 0 if non-orientable), ...))`` and ``chis`` its chi.  One circle
    forces a connected piece; two circles also admit a pair of one-holed
    components, one per circle, and either relative sign on a connected
    orientable piece.  A piece with b boundary circles has the Euler
    characteristic of its closed shape minus b.
    """
    holed = [(o, chi_of_class((o, g)) - 1) for o, g in connected_generators(-(min_chi + 1))]
    if n_circles == 1:
        return [(((o, ((0, int(o)),)),), (chi,)) for o, chi in holed]
    shapes = [
        (((o, ((0, int(o)), (1, sign))),), (chi_of_class((o, g)) - 2,))
        for o, g in connected_generators(-(min_chi + 2))
        for sign in ((1, -1) if o else (0,))
    ]
    shapes += [
        (((o0, ((0, int(o0)),)), (o1, ((1, int(o1)),))), (chi0, chi1))
        for o0, chi0 in holed
        for o1, chi1 in holed
    ]
    return shapes


def _glue(cup: tuple, cap: tuple) -> list[tuple[list[int], bool]]:
    """``(members, orientable)`` per component of the closed surface glued
    from two skeletons, cup components being nodes ``0..k-1`` and cap ones
    ``k..``; parity is that of ``cob2.compose_surface``."""
    k = len(cup)
    owner = {pos: (i, sign) for i, (_, ends) in enumerate(cup) for pos, sign in ends}
    uf = UnionFind(k + len(cap))
    for j, (_, ends) in enumerate(cap):
        for pos, sign in ends:
            i, cup_sign = owner[pos]
            uf.union(i, k + j, 1 if sign * cup_sign == 1 else 0)  # sign 0: non-orientable
    nodes = cup + cap
    return [
        (group, not uf.odd[uf.find(group[0])[0]] and all(nodes[x][0] for x in group))
        for group in uf.groups()
    ]


def _shape_closer():
    """``close(cup, cap)`` on shapes: the ``(orientable, chi)`` of each
    component of the closed surface.  Gluings are memoized per skeleton
    pair, of which there are at most 7 x 7 over two circles."""
    glued: dict[tuple, list] = {}

    def close(cup: tuple, cap: tuple) -> tuple[tuple[bool, int], ...]:
        key = (cup[0], cap[0])
        groups = glued.get(key)
        if groups is None:
            groups = glued[key] = _glue(*key)
        chi = (cup[1] + cap[1]).__getitem__
        return tuple((orientable, sum(map(chi, members))) for members, orientable in groups)

    return close


def surface_localization_group(max_complexity: int) -> SurfaceLocalizationResult:
    """Abelian group on connected closed surfaces modulo commuting-square
    relators over y in {empty, one circle, two circles}.

    Pieces have every component on a circle of y with chi >= -max_complexity.
    Over the empty manifold composition is disjoint union, so those relators
    vanish identically, as does the contribution of any closed component of
    a piece; neither is enumerated.  For the remaining y it suffices to pit
    every piece against the all-discs reference: a general instance row is
    the signed sum of the four reference rows of its corners, and whenever
    the instance's composites stay in the basis so do those of the reference
    rows, so the relator lattice is unchanged.  Over two circles only
    connected caps are closed, against every cup.  A cap of two one-holed
    components D, E adds no row.  Against a cup of one-holed components
    A, B it would close to (A u D) + (B u E), and the two-disc reference
    splits the same way, so that row is the sum R1(A, D) + R1(B, E) of two
    one-circle rows, out of the basis exactly when one of those is.
    Against a connected cup it is the mirror image of the connected cap
    mirrored from that cup against the split cup mirrored from D, E: the
    same closed surfaces, so the same row.  No piece is built: each level
    runs on shapes, and a closing is glued from the two skeletons.  A
    connected cap meets every cup component, so a closing is one connected
    surface of chi the cap's plus the cup's, and the pairs whose sum falls
    below -max_complexity leave the basis; they are counted as skipped
    instances from those totals and never closed.
    The free coordinate is normalized so the sphere class is positive.
    A closing count over the cell ceiling is refused before any shape is
    generated; the count is that of every cup-cap pair, so it over-counts
    the pairs closed.
    """
    if max_complexity < 0:
        raise ValueError("max_complexity must be nonnegative")
    # s one-circle and c connected two-circle shapes, as _shapes enumerates
    # them, close in s^2 pairs over one circle and (c + s^2)^2 over two.
    s = (max_complexity + 1) // 2 + max_complexity + 2
    c = 2 * (max_complexity // 2 + 1) + max_complexity
    count = s * s + (c + s * s) ** 2
    check_count(count, f"--max-chi {max_complexity} would close {count} cup-cap pairs")
    basis = connected_generators(max_complexity)
    # A connected closed surface is fixed by its orientability and chi.
    index = {(cls[0], chi_of_class(cls)): i for i, cls in enumerate(basis)}
    close = _shape_closer()
    levels = []
    skipped = 0
    for n_circles in (1, 2):
        shapes = _shapes(n_circles, -max_complexity)
        ref = _shapes(n_circles, 1)[0]
        caps = [shape for shape in shapes if len(shape[0]) == 1]
        cup_chis = [sum(chis) for _, chis in shapes]
        pairs = [
            (i, k)
            for i, (_, (cap_chi,)) in enumerate(caps)
            for k, cup_chi in enumerate(cup_chis)
            if cap_chi + cup_chi >= -max_complexity
        ]
        skipped += len(caps) * len(shapes) - len(pairs)
        levels.append((caps, shapes, pairs, ref, ref, close))
    invariants, classes, relator_count = _relator_engine(
        levels, index, index[True, chi_of_class(S2)]
    )
    return SurfaceLocalizationResult(
        invariants, basis, classes, relator_count, skipped
    )


# ---------------------------------------------------------------------------
# Planar 1-manifold localization: closed diagrams are nesting forests.

Tree = tuple  # children, each a Tree; the leaf is the empty tuple


def crossingless_matchings(m: int) -> list[tuple[tuple[int, int], ...]]:
    """All noncrossing perfect matchings of points 0..m-1, as sorted pairs."""
    if m % 2:
        raise ValueError("need an even number of points")
    if m == 0:
        return [()]
    out = []
    for j in range(1, m, 2):
        inner = crossingless_matchings(j - 1)
        outer = crossingless_matchings(m - j - 1)
        for a in inner:
            shifted_a = tuple((p + 1, q + 1) for p, q in a)
            for b in outer:
                shifted_b = tuple((p + j + 1, q + j + 1) for p, q in b)
                out.append(tuple(sorted(((0, j),) + shifted_a + shifted_b)))
    return out


def _partners(pairs: Iterable[tuple[int, int]], m: int) -> list[int]:
    """The matching as an array: ``partner[p]`` is the point joined to p."""
    partner = [0] * m
    for p, q in pairs:
        partner[p] = q
        partner[q] = p
    return partner


def _forest(cup_of: Sequence[int], cap_of: Sequence[int]) -> tuple[Tree, ...]:
    """Nesting forest of the closed diagram formed by a cup matching below
    the line and a cap matching above it, given as partner arrays on the
    same points 0..m-1.

    One left-to-right sweep along the line keeps a stack of the circles
    around the current stretch of it; those form a chain, innermost on top.
    Crossing the line at a point leaves or enters that point's circle, so
    the circle is either the top, which is popped, or becomes the new top.
    A circle is first met at its leftmost point, where it is traced through
    its alternating cup and cap arcs, and its parent is the top it is
    pushed on.
    """
    circle = [-1] * len(cup_of)
    kids: list[list[int]] = [[]]  # kids[0] holds the outermost circles
    stack = [0]
    for point in range(len(circle)):
        c = circle[point]
        if c < 0:
            c = len(kids)
            kids[stack[-1]].append(c)
            kids.append([])
            p = point
            while circle[p] < 0:
                q = cup_of[p]
                circle[p] = circle[q] = c
                p = cap_of[q]
            stack.append(c)
        elif c == stack[-1]:
            stack.pop()
        else:
            stack.append(c)

    # A child is met after its parent, so trees build from the last circle.
    trees: list[Tree] = [()] * len(kids)
    for c in range(len(kids) - 1, -1, -1):
        if kids[c]:
            trees[c] = tuple(sorted([trees[k] for k in kids[c]]))
    return trees[0]


def _split_points(partner: Sequence[int]) -> int:
    """Bit j is set when 0 < j < m and no arc joins [0, j) to [j, m)."""
    mask = reach = 0
    for p in range(len(partner) - 1):
        reach = max(reach, partner[p])
        mask |= (reach == p) << (p + 1)
    return mask


def _planar_level(m: int) -> tuple:
    """The engine level of matchings on m points: cup i meets cap k only
    when i <= k and the two split at no common point."""
    partners = [_partners(pairs, m) for pairs in crossingless_matchings(m)]
    splits = [_split_points(partner) for partner in partners]
    pairs = [
        (k, i)
        for i in range(len(partners))
        for k in range(i, len(partners))
        if not splits[i] & splits[k]
    ]
    ref = _partners(((i, i + 1) for i in range(0, m, 2)), m)
    return partners, partners, pairs, ref, ref, _forest


def enumerate_trees(max_nodes: int) -> list[Tree]:
    """Canonical nesting trees with at most max_nodes circles, smallest
    first."""
    by_size: list[list[Tree]] = [[], [()]]
    for n in range(2, max_nodes + 1):
        found: set[Tree] = set()
        # Children multisets drawn in nondecreasing order from smaller trees.
        smaller = [
            (tree, size)
            for size in range(1, n)
            for tree in by_size[size]
        ]

        def extend(start: int, remaining: int, chosen: tuple[Tree, ...]):
            if remaining == 0:
                found.add(tuple(sorted(chosen)))
                return
            for idx in range(start, len(smaller)):
                tree, size = smaller[idx]
                if size <= remaining:
                    extend(idx, remaining - size, chosen + (tree,))

        extend(0, n - 1, ())
        by_size.append(sorted(found))
    out = []
    for size in range(1, max_nodes + 1):
        out.extend(by_size[size])
    return out


@dataclass(frozen=True)
class PlanarLocalizationData:
    """Abelianized invariants of the localized planar diagram category.

    ``pi0`` is the object group (points up to cobordism), ``pi1`` the
    automorphism group of the empty object; ``tree_classes`` maps each
    nesting tree of the basis to its coordinates, sign-fixed so a single
    circle is positive.
    """

    pi0: AbelianInvariants
    pi1: AbelianInvariants
    basis: tuple[Tree, ...]
    tree_classes: tuple[tuple[tuple[int, int], ...], ...]
    derivation: tuple[str, ...] = field(default=(), compare=False)

    def circle_class(self) -> tuple[tuple[int, int], ...]:
        return self.tree_classes[self.basis.index(())]


def planar_localization_data(max_points: int = 8) -> PlanarLocalizationData:
    """Run the commuting-square relator engine on the planar model.

    Caps and cups are crossingless matchings of up to max_points boundary
    points; composites are nesting forests whose trees generate the
    endomorphisms of the empty object.  Relators are taken against the
    all-adjacent reference matching; any commuting square factors through
    such rows, so the lattice is not thinned by the restriction.  Cup i
    meets cap k only when i <= k: reflection in the line swaps cup and cap
    and keeps the forest and the reference, so mirror pairs share a row.  A
    cup and a cap that both split at a point j close side by side to their
    halves, as the reference does, so their row R_j + R_{m-j} is a sum of
    lower-level rows and they are not closed.  A count of every cup-cap
    pair, which over-counts those closed, is refused over the cell ceiling
    before any matching is enumerated.
    """
    if max_points < 2 or max_points % 2:
        raise ValueError("max_points must be a positive even number")
    # Catalan(m/2) crossingless matchings on m points, each closed against each.
    count = sum(
        (comb(m, m // 2) // (m // 2 + 1)) ** 2 for m in range(2, max_points + 1, 2)
    )
    check_count(count, f"--max-points {max_points} would close {count} cup-cap pairs")
    basis = tuple(enumerate_trees(max_points // 2))
    index = {tree: i for i, tree in enumerate(basis)}
    levels = (_planar_level(m) for m in range(2, max_points + 1, 2))
    pi1, classes, _ = _relator_engine(levels, index, index[()])

    # Objects: point counts joined by cups, so m and m + 2 are cobordant.
    pi0, _ = quotient_group([[2]], 1)

    derivation = (
        "objects: point counts with m ~ m+2 via a cup, giving the order-2 "
        "class group",
        "automorphisms of the empty object: nesting trees modulo "
        f"commuting-square relators from matchings on <= {max_points} points",
    )
    return PlanarLocalizationData(pi0, pi1, basis, classes, derivation)
