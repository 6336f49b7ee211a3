import random

import pytest

from cobcat.cob2 import (
    KLEIN,
    RP2,
    S2,
    T2,
    ClosedSurfaceClass,
    SurfaceCobordism,
    SurfaceComponent,
    cap_disc,
    chi_of_class,
    class_name,
    class_names,
    closed_class,
    closed_endomorphism,
    cobordism_group,
    component,
    compose_surface,
    connected_sum,
    disc,
    euler_tqft,
    identity_surface,
    is_k_connected,
    is_nullbordant,
    klein_endo,
    oriented_class,
    outgoing_pi0_surjective,
    random_surface,
    surface,
    surface_class,
    surface_from_json,
    surface_to_json,
    torus_endo,
    unoriented_class,
)
from cobcat.exactmath import AbelianInvariants
from cob2_helpers import act_boundary, copants, forget_orientation, oriented_point_class, pants


def random_ids(rng, k, prefix):
    return tuple(f"{prefix}{i}" for i in range(k))


def random_composable_pair(rng, max_circles=4):
    a = random_ids(rng, rng.randint(0, max_circles), "a")
    b = random_ids(rng, rng.randint(0, max_circles), "b")
    c = random_ids(rng, rng.randint(0, max_circles), "c")
    return random_surface(rng, a, b), random_surface(rng, b, c)


class TestComponent:
    def test_chi_values(self):
        assert component(True, 0).chi == 2
        assert component(True, 1).chi == 0
        assert component(False, 1).chi == 1
        assert component(False, 2).chi == 0
        assert component(True, 0, (), ("c",)).chi == 1
        assert component(True, 0, ("a",), ("b", "c")).chi == -1

    def test_nonorientable_needs_crosscap(self):
        with pytest.raises(ValueError):
            component(False, 0)

    def test_eps_only_for_orientable_with_boundary(self):
        with pytest.raises(ValueError):
            component(False, 1, ("a",), (), {"a": 1})
        with pytest.raises(ValueError):
            component(True, 1, eps={"a": 1})

    def test_builder_canonicalizes_global_flip(self):
        flipped = component(True, 0, ("a",), ("b",), {"a": -1, "b": 1})
        assert flipped.eps == (("in", "a", 1), ("out", "b", -1))

    def test_ambiguous_bare_key_rejected(self):
        with pytest.raises(ValueError):
            component(True, 0, ("c",), ("c",), {"c": 1})

    def test_qualified_keys(self):
        c = component(True, 0, ("c",), ("c",), {"in:c": 1, "out:c": -1})
        assert c.eps == (("in", "c", 1), ("out", "c", -1))

    def test_dataclass_rejects_noncanonical(self):
        with pytest.raises(ValueError):
            SurfaceComponent(True, 0, ("a",), (), (("in", "a", -1),))
        with pytest.raises(ValueError):
            SurfaceComponent(True, 0, ("b", "a"), (), (("in", "a", 1), ("in", "b", 1)))


class TestSurfaceValidation:
    def test_duplicate_boundary_id(self):
        with pytest.raises(ValueError):
            surface(("a", "a"), (), [component(True, 0, ("a",), ())])

    def test_unowned_circle(self):
        with pytest.raises(ValueError):
            surface(("a",), (), [])

    def test_doubly_owned_circle(self):
        with pytest.raises(ValueError):
            surface(
                ("a",),
                (),
                [component(True, 0, ("a",), ()), component(True, 0, ("a",), ())],
            )

    def test_component_order_is_canonical(self):
        x = component(True, 0, ("a",), ())
        y = component(False, 2)
        assert surface(("a",), (), [x, y]) == surface(("a",), (), [y, x])


class TestCompose:
    def test_unit_laws(self):
        rng = random.Random(21)
        for _ in range(150):
            w, _ = random_composable_pair(rng)
            assert compose_surface(identity_surface(w.src), w) == w
            assert compose_surface(w, identity_surface(w.tgt)) == w

    def test_associative(self):
        rng = random.Random(22)
        for _ in range(150):
            a = random_ids(rng, rng.randint(0, 3), "a")
            b = random_ids(rng, rng.randint(0, 3), "b")
            c = random_ids(rng, rng.randint(0, 3), "c")
            d = random_ids(rng, rng.randint(0, 3), "d")
            w1 = random_surface(rng, a, b)
            w2 = random_surface(rng, b, c)
            w3 = random_surface(rng, c, d)
            left = compose_surface(compose_surface(w1, w2), w3)
            right = compose_surface(w1, compose_surface(w2, w3))
            assert left == right

    def test_interface_mismatch(self):
        with pytest.raises(ValueError):
            compose_surface(disc("a"), cap_disc("b"))

    def test_cylinder_pair_torus_or_klein_by_sign_parity(self):
        for x in (1, -1):
            for y in (1, -1):
                bent_up = surface(
                    (),
                    ("a", "b"),
                    [component(True, 0, (), ("a", "b"), {"a": 1, "b": x})],
                )
                bent_down = surface(
                    ("a", "b"),
                    (),
                    [component(True, 0, ("a", "b"), (), {"a": 1, "b": y})],
                )
                closed = compose_surface(bent_up, bent_down)
                expected = T2 if x * y == 1 else KLEIN
                assert surface_class(closed) == closed_class([expected])

    def test_torus_from_pants_and_copants(self):
        tube = compose_surface(pants("a", "b", "c"), copants("b", "c", "d"))
        assert tube.components == (
            component(True, 1, ("a",), ("d",), {("in", "a"): 1, ("out", "d"): -1}),
        )
        closed = compose_surface(compose_surface(disc("a"), tube), cap_disc("d"))
        assert surface_class(closed) == closed_class([T2])

    def test_klein_from_reflected_interface(self):
        twisted = act_boundary(copants("b", "c", "d"), reflect_src=("b",))
        tube = compose_surface(pants("a", "b", "c"), twisted)
        assert tube.components == (component(False, 2, ("a",), ("d",)),)
        closed = compose_surface(compose_surface(disc("a"), tube), cap_disc("d"))
        assert surface_class(closed) == closed_class([KLEIN])

    def test_disjoint_union_through_empty_interface(self):
        w = compose_surface(cap_disc("a"), disc("b"))
        assert len(w.components) == 2
        assert (w.src, w.tgt) == (("a",), ("b",))

    def test_circle_chi_is_zero_so_chi_adds(self):
        rng = random.Random(23)
        for _ in range(200):
            w1, w2 = random_composable_pair(rng)
            composite = compose_surface(w1, w2)
            assert euler_tqft(composite) == euler_tqft(w1) + euler_tqft(w2)

    def test_genus_and_crosscaps_stay_integral(self):
        rng = random.Random(24)
        for _ in range(200):
            w1, w2 = random_composable_pair(rng)
            for comp in compose_surface(w1, w2).components:
                if comp.orientable:
                    assert comp.chi == 2 - 2 * comp.genus - comp.boundary_count
                else:
                    assert comp.genus >= 1
                    assert comp.chi == 2 - comp.genus - comp.boundary_count


class TestEuler:
    def test_examples(self):
        assert euler_tqft(torus_endo()) == 0
        assert euler_tqft(pants("a", "b", "c")) == -1
        assert euler_tqft(disc()) == 1
        assert euler_tqft(cap_disc()) == 1
        assert euler_tqft(identity_surface(("a", "b"))) == 0


class TestConnectivity:
    def test_examples(self):
        assert is_k_connected(cap_disc(), -1)
        assert not is_k_connected(cap_disc(), 0)
        assert is_k_connected(pants("a", "b", "c"), 0)
        assert not is_k_connected(torus_endo(), 0)
        with pytest.raises(ValueError):
            is_k_connected(disc(), 1)

    def test_two_routes_agree(self):
        rng = random.Random(25)
        for _ in range(200):
            w, _ = random_composable_pair(rng)
            assert outgoing_pi0_surjective(w) == is_k_connected(w, 0)

    def test_closure_under_composition(self):
        def random_surjective(rng, src, tgt):
            n_comps = rng.randint(1, len(tgt))
            outs = [[] for _ in range(n_comps)]
            for i, c in enumerate(rng.sample(tgt, len(tgt))):
                outs[i if i < n_comps else rng.randrange(n_comps)].append(c)
            ins = [[] for _ in range(n_comps)]
            for c in src:
                ins[rng.randrange(n_comps)].append(c)
            comps = []
            for i in range(n_comps):
                orientable = rng.random() < 0.7
                g = rng.randint(0, 2) if orientable else rng.randint(1, 2)
                comps.append(component(orientable, g, ins[i], outs[i]))
            return surface(src, tgt, comps)

        rng = random.Random(26)
        for _ in range(200):
            a = random_ids(rng, rng.randint(0, 3), "a")
            b = random_ids(rng, rng.randint(1, 4), "b")
            c = random_ids(rng, rng.randint(1, 4), "c")
            w1 = random_surjective(rng, a, b)
            w2 = random_surjective(rng, b, c)
            assert is_k_connected(w1, 0) and is_k_connected(w2, 0)
            assert is_k_connected(compose_surface(w1, w2), 0)


class TestActBoundary:
    def test_identity_action(self):
        w = pants("a", "b", "c")
        assert act_boundary(w) == w

    def test_reflection_changes_cylinder_class(self):
        cyl = identity_surface(("c",))
        reflected = act_boundary(cyl, reflect_src=("c",))
        assert reflected != cyl
        assert reflected.components[0].eps == (("in", "c", 1), ("out", "c", 1))

    def test_reflecting_both_ends_is_global_flip(self):
        cyl = identity_surface(("c",))
        assert act_boundary(cyl, reflect_src=("c",), reflect_tgt=("c",)) == cyl

    def test_reflection_invisible_on_nonorientable(self):
        w = surface(("a",), ("b",), [component(False, 1, ("a",), ("b",))])
        assert act_boundary(w, reflect_src=("a",)) == w

    def test_renaming_permutes_ids(self):
        w = pants("a", "b", "c")
        renamed = act_boundary(w, tgt_perm={"b": "c", "c": "b"})
        assert renamed.tgt == ("c", "b")
        assert renamed.components[0].out_circles == ("b", "c")

    def test_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            act_boundary(pants("a", "b", "c"), src_perm={"a": "z"})

    def test_unoriented_class_invariant_under_reflection(self):
        tube = compose_surface(pants("a", "b", "c"), copants("b", "c", "d"))
        for reflect in ((), ("a",)):
            closed = compose_surface(
                compose_surface(disc("a"), act_boundary(tube, reflect_src=reflect)),
                cap_disc("d"),
            )
            assert unoriented_class(surface_class(closed)) == 0


class TestForgetOrientation:
    def test_oriented_torus(self):
        w = forget_orientation((), (), [(1, (), (), None)])
        assert surface_class(w) == closed_class([T2])

    def test_globally_flipped_signs_forget_to_same_morphism(self):
        plain = forget_orientation(
            ("a",), ("b", "c"), [(0, ("a",), ("b", "c"), {"a": 1, "b": 1, "c": -1})]
        )
        flipped = forget_orientation(
            ("a",), ("b", "c"), [(0, ("a",), ("b", "c"), {"a": -1, "b": -1, "c": 1})]
        )
        assert plain == flipped

    def test_disjoint_union_preserved(self):
        w = forget_orientation(
            ("a",), ("b",), [(0, ("a",), (), None), (2, (), ("b",), None)]
        )
        assert len(w.components) == 2


class TestConnectedSum:
    def test_examples(self):
        assert connected_sum(T2, T2) == (True, 2)
        assert connected_sum(RP2, RP2) == KLEIN
        assert connected_sum(T2, RP2) == (False, 3)
        assert connected_sum(KLEIN, RP2) == (False, 3)

    def test_sphere_is_unit(self):
        rng = random.Random(27)
        for _ in range(40):
            orientable = rng.random() < 0.5
            g = rng.randint(0, 4) if orientable else rng.randint(1, 4)
            cls = (orientable, g)
            assert connected_sum(S2, cls) == cls
            assert connected_sum(cls, S2) == cls

    def test_commutative_and_associative(self):
        rng = random.Random(28)
        for _ in range(60):
            classes = []
            for _ in range(3):
                orientable = rng.random() < 0.5
                g = rng.randint(0, 3) if orientable else rng.randint(1, 3)
                classes.append((orientable, g))
            a, b, c = classes
            assert connected_sum(a, b) == connected_sum(b, a)
            assert connected_sum(connected_sum(a, b), c) == connected_sum(
                a, connected_sum(b, c)
            )

    def test_chi_bookkeeping(self):
        rng = random.Random(29)
        for _ in range(60):
            orientable = rng.random() < 0.5
            g = rng.randint(0, 3) if orientable else rng.randint(1, 3)
            a = (orientable, g)
            b = (False, rng.randint(1, 3))
            assert chi_of_class(connected_sum(a, b)) == chi_of_class(a) + chi_of_class(b) - 2


class TestClosedClasses:
    def test_names(self):
        assert class_name(S2) == "S2"
        assert class_name(T2) == "T2"
        assert class_name((True, 2)) == "Sigma2"
        assert class_name(RP2) == "RP2"
        assert class_name(KLEIN) == "K"
        assert class_name((False, 5)) == "N5"

    def test_canonical_sorting(self):
        s = closed_class([RP2, S2, T2, RP2])
        assert class_names(s) == ("S2", "T2", "RP2", "RP2")
        with pytest.raises(ValueError):
            ClosedSurfaceClass((RP2, S2))

    def test_surface_class_requires_closed(self):
        with pytest.raises(ValueError):
            surface_class(disc())

    def test_unoriented_classes(self):
        assert unoriented_class(closed_class([KLEIN])) == 0
        assert is_nullbordant(closed_class([KLEIN]))
        assert unoriented_class(closed_class([RP2])) == 1
        assert not is_nullbordant(closed_class([RP2]))
        assert unoriented_class(closed_class([S2, RP2])) == 1

    def test_connected_sum_agrees_with_disjoint_union_in_bordism(self):
        rng = random.Random(30)
        for _ in range(60):
            classes = []
            for _ in range(2):
                orientable = rng.random() < 0.5
                g = rng.randint(0, 3) if orientable else rng.randint(1, 3)
                classes.append((orientable, g))
            a, b = classes
            assert unoriented_class(closed_class([a, b])) == unoriented_class(
                closed_class([connected_sum(a, b)])
            )

    def test_oriented_class(self):
        assert oriented_class(closed_class([(True, 2)])) == 0
        assert oriented_class(closed_class([])) == 0
        with pytest.raises(ValueError):
            oriented_class(closed_class([RP2]))

    def test_point_classes(self):
        assert oriented_point_class((1, 1, -1)) == 1
        assert oriented_point_class(()) == 0
        with pytest.raises(ValueError):
            oriented_point_class((0,))

    def test_free_monoid_unique_factorization(self):
        rng = random.Random(31)
        for _ in range(60):
            classes = []
            for _ in range(rng.randint(0, 5)):
                orientable = rng.random() < 0.5
                g = rng.randint(0, 3) if orientable else rng.randint(1, 3)
                classes.append((orientable, g))
            shuffled = classes[:]
            rng.shuffle(shuffled)
            w = closed_endomorphism([])
            for cls in shuffled:
                w = compose_surface(w, closed_endomorphism([cls]))
            assert surface_class(w) == closed_class(classes)


class TestCobordismGroups:
    def test_unoriented(self):
        assert cobordism_group(0, False) == AbelianInvariants(0, (2,))
        assert cobordism_group(1, False) == AbelianInvariants(0, ())
        assert cobordism_group(2, False) == AbelianInvariants(0, (2,))

    def test_oriented(self):
        assert cobordism_group(0, True) == AbelianInvariants(1, ())
        assert cobordism_group(1, True) == AbelianInvariants(0, ())
        assert cobordism_group(2, True) == AbelianInvariants(0, ())

    def test_dimension_range(self):
        with pytest.raises(ValueError):
            cobordism_group(3, False)

    def test_klein_consistency(self):
        assert is_nullbordant(surface_class(klein_endo()))


class TestJson:
    def test_hand_written_document(self):
        data = {
            "src": ["c0", "c1"],
            "tgt": [],
            "components": [
                {
                    "orientable": True,
                    "genus": 0,
                    "in": ["c0", "c1"],
                    "out": [],
                    "eps": {"c0": 1, "c1": 1},
                }
            ],
        }
        w = surface_from_json(data)
        assert w.src == ("c0", "c1")
        assert w.components[0].eps == (("in", "c0", 1), ("in", "c1", 1))

    def test_round_trip_random(self):
        rng = random.Random(32)
        for _ in range(80):
            w, _ = random_composable_pair(rng)
            assert surface_from_json(surface_to_json(w)) == w

    @pytest.mark.parametrize(
        "entry",
        [
            {"orientable": True, "genus": 1.0, "in": ["c"]},
            {"orientable": False, "crosscaps": True, "in": ["c"]},
            {"orientable": True, "genus": 0, "in": ["c"], "eps": {"c": "1"}},
        ],
    )
    def test_json_refuses_non_integers(self, entry):
        with pytest.raises(ValueError):
            surface_from_json({"src": ["c"], "tgt": [], "components": [entry]})

    def test_identity_cylinder_uses_qualified_keys(self):
        data = surface_to_json(identity_surface(("c",)))
        assert data["components"][0]["eps"] == {"in:c": 1, "out:c": -1}
        assert surface_from_json(data) == identity_surface(("c",))
