import itertools

import pytest

from cobcat.cob1 import CAP, CUP, PlanarDiagram, compose_planar, f_invariant
from cobcat.cob2 import RP2, S2, T2, chi_of_class, class_name, component, surface
from cobcat.exactmath import AbelianInvariants, abelianize, quotient_group
from cobcat.fincat import interval_category, parallel_pair, subset_poset_category
from cobcat.limits import ResourceLimitExceeded
from cobcat.localize import (
    abelian_loop_classes,
    connected_generators,
    crossingless_matchings,
    enumerate_trees,
    planar_localization_data,
    relation_word,
    surface_localization_group,
    word_class,
    _count_row,
    _planar_level,
    _shape_closer,
    _shapes,
)
from cobcat.nerve import fundamental_group
from cob1_helpers import to_matching
from fincat_helpers import Functor, cyclic_group_category
from localize_oracles import (
    RelationInstance,
    _pieces,
    _shape,
    all_pairs_planar_engine,
    brute_force_relations,
    closed_diagram_forest,
    SurfaceRelationInstance,
    composed_row,
    composed_surface_engine,
    induced_automorphism_map,
    piece_shape_localization,
    ray_parity_forest,
    square_word,
    surface_relator_vector,
    tree_nodes,
    tree_signed_count,
)


def full_lattice_classes(rows, width, positive):
    """Group and generator classes of Z^width modulo rows, for a group
    that must be Z, signed so that generator ``positive`` is positive."""
    invariants, classes = quotient_group(rows, width)
    assert invariants == AbelianInvariants(1, ())
    sign = -1 if classes[positive][0][0] < 0 else 1
    return tuple(tuple((sign * v, mod) for v, mod in vec) for vec in classes)


def one_circle_cap(orientable, genus):
    return surface(("y0",), (), [component(orientable, genus, ("y0",), ())])


def one_circle_cup(orientable, genus):
    return surface((), ("y0",), [component(orientable, genus, (), ("y0",))])


def planar_row(cup, cap, index):
    """Relator row of a cup and a cap matching against the all-adjacent
    reference on their points."""
    ref = tuple((i, i + 1) for i in range(0, 2 * len(cup), 2))
    corners = [(cup, cap), (cup, ref), (ref, cap), (ref, ref)]
    a, b, c, d = (_count_row(closed_diagram_forest(*pair), index) for pair in corners)
    return [av - bv - cv + dv for av, bv, cv, dv in zip(a, b, c, d)]


def common_splits(cup, cap):
    """The points 0 < j < m at which no arc of either matching joins
    [0, j) to [j, m)."""
    return [
        j for j in range(2, 2 * len(cup), 2) if all((p < j) == (q < j) for p, q in cup + cap)
    ]


def halves(matching, j):
    """The matching split at j: its arcs on [0, j), and those on [j, m)
    shifted to start at 0."""
    return (
        tuple((p, q) for p, q in matching if q < j),
        tuple((p - j, q - j) for p, q in matching if p >= j),
    )


class TestLocalize:
    # The automorphism group of an object in the groupoid obtained by
    # inverting every morphism is the fundamental group of the nerve there.
    def test_groupoid_aut_is_the_group(self):
        p = fundamental_group(cyclic_group_category(3), "*")
        assert abelianize(p) == AbelianInvariants(0, (3,))

    def test_parallel_pair_aut_is_infinite_cyclic(self):
        c = parallel_pair()
        for obj in ("a", "b"):
            assert abelianize(fundamental_group(c, obj)) == AbelianInvariants(1, ())

    def test_terminal_object_gives_trivial_aut(self):
        c = interval_category()
        assert abelianize(fundamental_group(c, "a")).is_trivial
        assert abelianize(fundamental_group(c, "b")).is_trivial


class TestRelationInstance:
    def test_validation(self):
        c = parallel_pair()
        f, g = c.morphisms.index("f"), c.morphisms.index("g")
        id_a = c.morphisms.index("id_a")
        with pytest.raises(ValueError):
            RelationInstance(c, f, id_a, f, f)  # not parallel
        with pytest.raises(ValueError):
            RelationInstance(c, f, g, f, g)  # w3 runs the wrong way
        with pytest.raises(ValueError):
            RelationInstance(c, f, g, 99, 99)

    def test_degenerate_instance_reduces_to_identity(self):
        c = cyclic_group_category(4)
        r = RelationInstance(c, 1, 1, 2, 2)
        assert square_word(r) == ()

    def test_all_instances_vanish_in_abelianized_aut(self):
        categories = [
            cyclic_group_category(3),
            cyclic_group_category(4),
            parallel_pair(),
            interval_category(),
            subset_poset_category(4),
        ]
        checked = 0
        for c in categories:
            assert len(c.morphisms) <= 60
            # Every object as a base point, so each component is checked at
            # every one of its objects.
            count, nonvanishing = brute_force_relations(c, c.objects)
            assert nonvanishing == 0
            checked += count
        assert checked > 300


class TestRelationWord:
    def test_word_of_a_pair(self):
        c = cyclic_group_category(4)
        assert relation_word(c, 1, 2) == (3, 2, -4)
        # r3 after r1 is the identity r0, whose class is zero.
        assert relation_word(c, 1, 3) == (4, 2, -1)

    def test_class_of_a_word_is_reduced(self):
        c = cyclic_group_category(3)
        _, classes, _ = abelian_loop_classes(c, "*")
        assert word_class(classes, (2, 2, 2)) == (0,)
        assert word_class(classes, (-2,)) == word_class(classes, (2, 2))
        assert word_class(classes, ()) == (0,)


class TestInducedMap:
    def test_all_functors_from_parallel_pair_to_small_groups(self):
        c = parallel_pair()
        for n in (2, 3):
            d = cyclic_group_category(n)
            for i in range(n):
                for j in range(n):
                    fun = Functor(
                        c,
                        d,
                        {"a": "*", "b": "*"},
                        {
                            "id_a": "r0",
                            "id_b": "r0",
                            "f": f"r{i}",
                            "g": f"r{j}",
                        },
                    )
                    images = induced_automorphism_map(c, "a", fun)
                    # The spanning tree runs through f, so f transports to
                    # the identity and g to g . f^-1.
                    assert images["f"] == "r0"
                    assert images["g"] == f"r{(j - i) % n}"

    def test_identity_functor_on_a_group(self):
        c = cyclic_group_category(3)
        fun = Functor(c, c, {"*": "*"}, {m: m for m in c.morphisms})
        images = induced_automorphism_map(c, "*", fun)
        assert images == {"r1": "r1", "r2": "r2"}

    def test_rejects_non_functor(self):
        c = parallel_pair()
        d = cyclic_group_category(2)
        fun = Functor(c, d, {"a": "*", "b": "*"}, {m: "r1" for m in c.morphisms})
        with pytest.raises(ValueError):
            induced_automorphism_map(c, "a", fun)

    def test_rejects_non_groupoid_target(self):
        c = cyclic_group_category(2)
        d = interval_category()
        fun = Functor(c, d, {"*": "a"}, {"r0": "id_a", "r1": "id_a"})
        with pytest.raises(ValueError):
            induced_automorphism_map(c, "*", fun)


class TestSurfaceInstances:
    def test_validation(self):
        disc_cap = one_circle_cap(True, 0)
        disc_cup = one_circle_cup(True, 0)
        with pytest.raises(ValueError):
            SurfaceRelationInstance(disc_cup, disc_cup, disc_cup, disc_cup)
        with pytest.raises(ValueError):
            SurfaceRelationInstance(disc_cap, disc_cap, disc_cap, disc_cap)
        two = surface(
            ("y0", "y1"), (), [component(True, 0, ("y0", "y1"), ())]
        )
        with pytest.raises(ValueError):
            SurfaceRelationInstance(disc_cap, two, disc_cup, disc_cup)

    def test_disc_moebius_instance(self):
        inst = SurfaceRelationInstance(
            one_circle_cap(True, 0),
            one_circle_cap(False, 1),
            one_circle_cup(True, 0),
            one_circle_cup(False, 1),
        )
        basis = connected_generators(4)
        index = {cls: i for i, cls in enumerate(basis)}
        vec = surface_relator_vector(inst, index)
        expected = [0] * len(basis)
        expected[index[S2]] = 1
        expected[index[RP2]] = -2
        expected[index[(False, 2)]] = 1
        assert vec == expected

    def test_genus_one_instance_links_torus(self):
        inst = SurfaceRelationInstance(
            one_circle_cap(True, 0),
            one_circle_cap(False, 1),
            one_circle_cup(True, 0),
            one_circle_cup(True, 1),
        )
        basis = connected_generators(4)
        index = {cls: i for i, cls in enumerate(basis)}
        vec = surface_relator_vector(inst, index)
        expected = [0] * len(basis)
        expected[index[S2]] = 1
        expected[index[RP2]] = -1
        expected[index[T2]] = -1
        expected[index[(False, 3)]] = 1
        assert vec == expected

    def test_out_of_basis_composite_is_skipped(self):
        inst = SurfaceRelationInstance(
            one_circle_cap(True, 2),
            one_circle_cap(True, 0),
            one_circle_cup(True, 2),
            one_circle_cup(True, 0),
        )
        basis = connected_generators(2)
        index = {cls: i for i, cls in enumerate(basis)}
        assert surface_relator_vector(inst, index) is None


class TestSurfaceLocalizationGroup:
    def test_group_is_infinite_cyclic_with_euler_classes(self):
        for mc in (4, 6):
            res = surface_localization_group(mc)
            assert res.invariants == AbelianInvariants(1, ())
            ints = res.class_integers()
            for cls in res.basis:
                assert ints[class_name(cls)] == chi_of_class(cls)
            assert ints["T2"] == 0 and ints["K"] == 0
            assert ints["S2"] == 2 and ints["RP2"] == 1

    def test_stabilization(self):
        a = surface_localization_group(4)
        b = surface_localization_group(6)
        assert a.invariants == b.invariants
        ia, ib = a.class_integers(), b.class_integers()
        assert all(ib[name] == value for name, value in ia.items())

    def test_json_shape(self):
        data = surface_localization_group(4).to_json()
        assert data["group"] == "Z"
        assert data["classes"]["K"] == 0

    def test_rejects_negative_bound(self):
        with pytest.raises(ValueError):
            surface_localization_group(-1)

    def test_reference_rows_span_every_commuting_square(self):
        # Oracle: every instance w1, w2 / w3, w4 over one and two circles,
        # each row built by surface_relator_vector, against the engine that
        # pits each piece against the all-discs reference only.  Bound 1
        # has 130,577 instances, a hundred times as many as bound 0.
        bound = 0
        basis = connected_generators(bound)
        index = {cls: i for i, cls in enumerate(basis)}
        rows = []
        for circles in (("y0",), ("y0", "y1")):
            caps = _pieces(circles, -bound, as_cap=True)
            cups = _pieces(circles, -bound, as_cap=False)
            for w1, w2, w3, w4 in itertools.product(caps, caps, cups, cups):
                inst = SurfaceRelationInstance(w1, w2, w3, w4)
                row = surface_relator_vector(inst, index)
                if row is not None:
                    rows.append(row)
        engine = surface_localization_group(bound)
        assert engine.basis == basis
        assert engine.classes == full_lattice_classes(rows, len(basis), index[S2])

    @pytest.mark.parametrize("bound", range(9))
    def test_matches_composed_closings(self, bound):
        # The engine run over every pair, closing each with compose_surface,
        # fixes the group; the run over the pairs the engine closes fixes
        # its row and skip counts.
        invariants, classes, _, _ = composed_surface_engine(bound)
        _, _, relator_count, skipped = composed_surface_engine(bound, all_pairs=False)
        res = surface_localization_group(bound)
        assert res.invariants == invariants
        assert res.classes == classes
        assert res.relator_count == relator_count
        assert res.skipped_instances == skipped

    @pytest.mark.parametrize("bound", range(15))
    def test_matches_built_pieces(self, bound):
        # Pieces built as cobordisms, read as shapes, and every connected
        # cap closed against every cup, out-of-basis pairs dropped after
        # closing: the same invariants, basis, classes, row and skip counts.
        assert surface_localization_group(bound) == piece_shape_localization(bound)

    @pytest.mark.parametrize("bound", range(7))
    def test_split_pairs_are_sums_of_one_circle_rows(self, bound):
        # A disconnected cup (A, B) closes against a disconnected cap (D, E)
        # to (A u D) + (B u E), and the two-disc reference splits the same
        # way, so the row is R1(A, D) + R1(B, E): two rows the one-circle
        # level emits.  The engine closes no such pair.
        index = {cls: i for i, cls in enumerate(connected_generators(bound))}

        def relator_rows(caps, cups):
            """Row of each cap (outer) against each cup against the
            all-disc reference, or None off the basis."""
            circles = caps[0].src
            ref_cap, ref_cup = _pieces(circles, 1, True)[0], _pieces(circles, 1, False)[0]
            corner = composed_row(ref_cup, ref_cap, index)
            cup_refs = [composed_row(cup, ref_cap, index) for cup in cups]
            table = []
            for cap in caps:
                cap_ref = composed_row(ref_cup, cap, index)
                table.append([])
                for cup, cup_ref in zip(cups, cup_refs):
                    a = composed_row(cup, cap, index)
                    if a is not None:
                        parts = zip(a, cup_ref, cap_ref, corner)
                        a = [av - bv - cv + dv for av, bv, cv, dv in parts]
                    table[-1].append(a)
            return table

        one = ("y0",)
        singles = _pieces(one, -bound, True)
        r1 = relator_rows(singles, _pieces(one, -bound, False))
        position = {
            (p.components[0].orientable, p.components[0].genus): i for i, p in enumerate(singles)
        }

        def halves(piece):
            owner = {(c.in_circles + c.out_circles)[0]: c for c in piece.components}
            return [position[owner[y].orientable, owner[y].genus] for y in ("y0", "y1")]

        caps, cups = (
            [p for p in _pieces(("y0", "y1"), -bound, as_cap) if len(p.components) == 2]
            for as_cap in (True, False)
        )
        cup_halves = [halves(cup) for cup in cups]
        skipped = 0
        for cap, line in zip(caps, relator_rows(caps, cups)):
            d, e = halves(cap)
            for (a, b), row in zip(cup_halves, line):
                first, second = r1[d][a], r1[e][b]
                if first is None or second is None:
                    assert row is None
                    skipped += 1
                else:
                    assert row == [x + y for x, y in zip(first, second)]
        assert (skipped > 0) == (bound > 0)

    @pytest.mark.parametrize("bound", range(7))
    def test_split_caps_mirror_connected_caps(self, bound):
        # A cap of two one-holed components against a connected cup closes
        # to the mirror image of the mirrored pair: a connected cap against
        # a split cup, which the engine closes.  The closed surfaces and so
        # the rows agree, and the engine closes no split cap.
        two = ("y0", "y1")
        index = {cls: i for i, cls in enumerate(connected_generators(bound))}
        caps, cups = (_pieces(two, -bound, as_cap) for as_cap in (True, False))
        ref_cap, ref_cup = _pieces(two, 1, True)[0], _pieces(two, 1, False)[0]

        def row(cup, cap):
            corners = [(cup, cap), (cup, ref_cap), (ref_cup, cap), (ref_cup, ref_cap)]
            a, b, c, d = (composed_row(*pair, index) for pair in corners)
            return None if a is None else [av - bv - cv + dv for av, bv, cv, dv in zip(a, b, c, d)]

        def mirror(piece):
            # Each component keeps its circles and signs on the other side.
            comps = [
                component(
                    comp.orientable,
                    comp.genus,
                    comp.out_circles,
                    comp.in_circles,
                    {cid: sign for _, cid, sign in comp.eps},
                )
                for comp in piece.components
            ]
            return surface(piece.tgt, piece.src, comps)

        pairs = skipped = 0
        for cap in (p for p in caps if len(p.components) == 2):
            for cup in (p for p in cups if len(p.components) == 1):
                mirrored_cup, mirrored_cap = mirror(cap), mirror(cup)
                assert mirrored_cup in cups and mirrored_cap in caps
                want = row(mirrored_cup, mirrored_cap)
                assert row(cup, cap) == want
                pairs += 1
                skipped += want is None
        assert pairs > 0 and (skipped > 0) == (bound > 0)

    def test_two_circle_reference_is_two_discs(self):
        two = ("y0", "y1")
        discs = [component(True, 0, (y,), ()) for y in two]
        assert _pieces(two, 1, as_cap=True) == [surface(two, (), discs)]
        discs = [component(True, 0, (), (y,)) for y in two]
        assert _pieces(two, 1, as_cap=False) == [surface((), two, discs)]

    def test_closing_count_is_budgeted(self, monkeypatch):
        for bound in range(11):
            pairs = sum(
                len(_pieces(circles, -bound, True)) * len(_pieces(circles, -bound, False))
                for circles in (("y0",), ("y0", "y1"))
            )
            if bound < 3:  # the ceiling is inclusive
                monkeypatch.setenv("COBCAT_MAX_CELLS", str(pairs))
                surface_localization_group(bound)
            monkeypatch.setenv("COBCAT_MAX_CELLS", str(pairs - 1))
            with pytest.raises(ResourceLimitExceeded) as info:
                surface_localization_group(bound)
            message = str(info.value)
            assert f"--max-chi {bound} " in message and f" {pairs} " in message
            assert f"ceiling of {pairs - 1} " in message and "COBCAT_MAX_CELLS" in message


class TestShapeClosing:
    def test_matches_compose_surface_on_every_pair(self):
        # Every cup-cap pair over one and two circles at bound 3, against
        # the class of the composite that compose_surface builds.
        basis = connected_generators(3)
        index = {cls: i for i, cls in enumerate(basis)}
        by_chi = {(cls[0], chi_of_class(cls)): i for cls, i in index.items()}
        close = _shape_closer()
        odd_cycles = 0
        for circles in (("y0",), ("y0", "y1")):
            for cap in _pieces(circles, -3, as_cap=True):
                for cup in _pieces(circles, -3, as_cap=False):
                    want = composed_row(cup, cap, index)
                    closed = close(_shape(cup, circles), _shape(cap, circles))
                    assert _count_row(closed, by_chi) == want
                    orientable = all(p.orientable for p in cup.components + cap.components)
                    if orientable and want and any(want[index[c]] for c in basis if not c[0]):
                        odd_cycles += 1
        # Orientable two-holed pieces with opposite eps glue to a Klein
        # bottle or worse: an odd cycle of parity constraints.
        assert odd_cycles > 0

    def test_shapes_are_those_of_the_built_pieces(self):
        # One list, in the order _pieces builds them, on either side.
        for n_circles in (1, 2):
            circles = tuple(f"y{i}" for i in range(n_circles))
            for min_chi in range(-12, 2):
                shapes = _shapes(n_circles, min_chi)
                assert shapes
                for as_cap in (True, False):
                    pieces = _pieces(circles, min_chi, as_cap)
                    assert shapes == [_shape(piece, circles) for piece in pieces]

    def test_shape_of_a_two_circle_piece(self):
        twisted = surface(
            (), ("y0", "y1"), [component(True, 1, (), ("y0", "y1"), {"y1": -1})]
        )
        assert _shape(twisted, ("y0", "y1")) == (((True, ((0, 1), (1, -1))),), (-2,))
        pair = surface(
            ("y0", "y1"),
            (),
            [component(False, 1, ("y0",), ()), component(True, 0, ("y1",), ())],
        )
        assert _shape(pair, ("y0", "y1")) == (
            ((False, ((0, 0),)), (True, ((1, 1),))),
            (0, 1),
        )


class TestPlanarModel:
    def test_crossingless_counts_are_catalan(self):
        assert [len(crossingless_matchings(m)) for m in (0, 2, 4, 6, 8)] == [
            1,
            1,
            2,
            5,
            14,
        ]

    def test_crossingless_really_are(self):
        for m in (4, 6, 8):
            for matching in crossingless_matchings(m):
                for p, q in matching:
                    for r, s in matching:
                        assert not (p < r < q < s)

    def test_forest_shapes(self):
        adjacent = ((0, 1), (2, 3))
        nested = ((0, 3), (1, 2))
        assert closed_diagram_forest(adjacent, adjacent) == ((), ())
        assert closed_diagram_forest(nested, nested) == (((),),)
        # Mismatched matchings at m=4 trace a single circle through all points.
        assert closed_diagram_forest(nested, adjacent) == ((),)
        assert closed_diagram_forest(adjacent, nested) == ((),)
        # Horseshoe at m=6: the middle circle sits outside the long one even
        # though its endpoints lie between the long circle's endpoints, so
        # span containment would get this wrong.
        deep = ((0, 5), (1, 4), (2, 3))
        flat = ((0, 1), (2, 3), (4, 5))
        assert closed_diagram_forest(deep, flat) == ((), ())
        # Matching cups and caps nest all three circles into a chain.
        assert closed_diagram_forest(deep, deep) == ((((),),),)

    def test_forest_sweep_matches_ray_parities(self):
        pairs = 0
        for m in range(2, 13, 2):
            matchings = crossingless_matchings(m)
            for cup in matchings:
                for cap in matchings:
                    assert closed_diagram_forest(cup, cap) == ray_parity_forest(cup, cap)
                    pairs += 1
        assert pairs == 19414

    def test_forest_rejects_mismatched_points(self):
        for cup, cap in (
            (((0, 1),), ((0, 1), (2, 3))),
            (((0, 1), (2, 3)), ((0, 3), (1, 4))),
        ):
            for forest in (closed_diagram_forest, ray_parity_forest):
                with pytest.raises(ValueError):
                    forest(cup, cap)

    def test_signed_counts(self):
        assert tree_signed_count(()) == 1
        assert tree_signed_count(((),)) == 0
        assert tree_signed_count((((),),)) == 1  # three-node chain: depths 0, 1, 2
        assert tree_signed_count(((), ())) == -1

    def test_enumerate_trees(self):
        trees = enumerate_trees(4)
        assert len(trees) == 8
        assert trees[0] == ()
        assert all(t in trees for t in (((),), ((), ()), (((),),)))

    def test_forest_signed_count_matches_f_invariant(self):
        # Realize each cup/cap matching pair as a planar slice word and
        # compare the diagram functor value with the forest count.
        def cup_word(matching, m):
            events = []
            placed = []
            for p, q in sorted(matching, key=lambda pq: pq[0] - pq[1]):
                events.append((CUP, sum(1 for r in placed if r < p)))
                placed.extend((p, q))
            return PlanarDiagram(0, tuple(events))

        def cap_word(matching, m):
            events = []
            remaining = list(range(m))
            for p, q in sorted(matching, key=lambda pq: pq[1] - pq[0]):
                events.append((CAP, remaining.index(p)))
                remaining.remove(p)
                remaining.remove(q)
            return PlanarDiagram(m, tuple(events))

        for m in (2, 4, 6):
            for cup in crossingless_matchings(m):
                word = cup_word(cup, m)
                assert to_matching(word).pairs == cup
                for cap in crossingless_matchings(m):
                    closed = compose_planar(word, cap_word(cap, m))
                    forest = closed_diagram_forest(cup, cap)
                    assert f_invariant(closed) == sum(
                        tree_signed_count(t) for t in forest
                    )
                    assert to_matching(closed).circles == sum(
                        tree_nodes(t) for t in forest
                    )

    def test_localization_data(self):
        data = planar_localization_data(8)
        assert data.pi0 == AbelianInvariants(0, (2,))
        assert data.pi1 == AbelianInvariants(1, ())
        assert data.circle_class() == ((1, 0),)
        for tree, vec in zip(data.basis, data.tree_classes):
            assert vec == ((tree_signed_count(tree), 0),)
        assert data.derivation

    def test_localization_data_stabilizes(self):
        small = planar_localization_data(6)
        assert small.pi0 == AbelianInvariants(0, (2,))
        assert small.pi1 == AbelianInvariants(1, ())

    def test_rejects_odd_point_count(self):
        with pytest.raises(ValueError):
            planar_localization_data(7)

    def test_closing_count_is_budgeted(self, monkeypatch):
        for points in range(4, 13, 2):
            pairs = sum(len(crossingless_matchings(m)) ** 2 for m in range(2, points + 1, 2))
            if points < 10:  # the ceiling is inclusive
                monkeypatch.setenv("COBCAT_MAX_CELLS", str(pairs))
                planar_localization_data(points)
            monkeypatch.setenv("COBCAT_MAX_CELLS", str(pairs - 1))
            with pytest.raises(ResourceLimitExceeded) as info:
                planar_localization_data(points)
            message = str(info.value)
            assert f"--max-points {points} " in message and f" {pairs} " in message
            assert f"ceiling of {pairs - 1} " in message and "COBCAT_MAX_CELLS" in message

    def test_reference_rows_span_every_commuting_square(self):
        # Oracle: the relator a - b - c + d of every cap pair w1, w2 and cup
        # pair w3, w4 of matchings on up to 6 points.
        data = planar_localization_data(6)
        index = {tree: i for i, tree in enumerate(data.basis)}

        def vec(cup, cap):
            row = [0] * len(index)
            for tree in closed_diagram_forest(cup, cap):
                row[index[tree]] += 1
            return row

        rows = []
        for m in (2, 4, 6):
            matchings = crossingless_matchings(m)
            for w1, w2, w3, w4 in itertools.product(matchings, repeat=4):
                a, b, c, d = vec(w3, w1), vec(w3, w2), vec(w4, w1), vec(w4, w2)
                rows.append([av - bv - cv + dv for av, bv, cv, dv in zip(a, b, c, d)])
        assert data.pi1 == AbelianInvariants(1, ())
        assert data.tree_classes == full_lattice_classes(rows, len(index), index[()])

    @pytest.mark.parametrize("points", range(2, 13, 2))
    def test_matches_all_pairs_engine(self, points):
        data = planar_localization_data(points)
        assert (data.pi1, data.basis, data.tree_classes) == all_pairs_planar_engine(points)

    @pytest.mark.parametrize("m", range(2, 11, 2))
    def test_mirror_pairs_have_equal_rows(self, m):
        # Reflecting the closing of cup A against cap B in the line gives
        # cup B against cap A with the same nesting forest, and the
        # all-adjacent reference is its own reflection, so the two rows
        # agree.  The engine closes cup i against cap k only for i <= k:
        # every pair is closed, or its mirror is, or it splits at a common
        # point.
        index = {tree: i for i, tree in enumerate(enumerate_trees(5))}
        matchings = crossingless_matchings(m)
        closed = set(_planar_level(m)[2])
        for i, cup in enumerate(matchings):
            for k, cap in enumerate(matchings):
                assert planar_row(cup, cap, index) == planar_row(cap, cup, index)
                assert i <= k or (k, i) not in closed
                assert (k, i) in closed or (i, k) in closed or common_splits(cup, cap)

    @pytest.mark.parametrize("m", range(2, 11, 2))
    def test_common_split_pairs_are_sums_of_lower_rows(self, m):
        # A cup A | B and a cap D | E that both split at j close side by
        # side to the closings of their halves, and so does the reference,
        # which splits at every j.  So the row is R_j(A, D) + R_{m-j}(B, E),
        # a sum of two rows of lower levels.  The engine leaves out exactly
        # those pairs with i <= k.
        index = {tree: i for i, tree in enumerate(enumerate_trees(5))}
        matchings = crossingless_matchings(m)
        closed = set(_planar_level(m)[2])
        split = 0
        for i, cup in enumerate(matchings):
            for k, cap in enumerate(matchings):
                points = common_splits(cup, cap)
                assert i > k or ((k, i) in closed) != bool(points)
                for j in points:
                    (a, b), (d, e) = halves(cup, j), halves(cap, j)
                    lower = zip(planar_row(a, d, index), planar_row(b, e, index))
                    assert planar_row(cup, cap, index) == [x + y for x, y in lower]
                    split += 1
        assert (split > 0) == (m > 2)
