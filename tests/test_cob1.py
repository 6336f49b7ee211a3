import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcat.cob1 import (
    CAP,
    CUP,
    Matching1D,
    PlanarDiagram,
    _euler_of_pixels,
    cap_matching,
    compose_abstract,
    compose_planar,
    cup_matching,
    diagram_from_json,
    enumerate_words,
    euler_functor_1d,
    euler_triviality_witness,
    f_invariant,
    f_invariant_grid,
    identity_matching,
    matching,
    matching_from_json,
    planar_circle,
    planar_nested_pair,
    random_planar_word,
    reduce_endomorphism,
    restricted_from_matching,
    tensor_matching,
)
from cob1_helpers import (
    act_boundary,
    cancel_zigzag,
    commute_events,
    euler_by_flood_fill,
    insert_zigzag,
    planar_circles,
    planar_identity,
    to_matching,
)


def random_matching(rng, m, n, max_circles=3):
    pts = list(range(m + n))
    rng.shuffle(pts)
    pairs = [(pts[2 * i], pts[2 * i + 1]) for i in range((m + n) // 2)]
    return matching(m, n, pairs, rng.randint(0, max_circles))


def random_restricted(rng, m, extra_cups):
    """A random cap-free, circle-free matching from m to m + 2 * extra_cups."""
    n = m + 2 * extra_cups
    injection = rng.sample(range(n), m)
    complement = [v for v in range(n) if v not in injection]
    rng.shuffle(complement)
    pairs = [(i, m + v) for i, v in enumerate(injection)]
    pairs += [
        (m + complement[2 * i], m + complement[2 * i + 1]) for i in range(extra_cups)
    ]
    return matching(m, n, pairs)


def compose_by_injection(w, w2):
    """Compose cap-free matchings the second way: through-strands thread on
    and cups push forward along w2's through-strands."""
    image = {}
    cups = []
    for a, b in w2.pairs:
        if a < w2.m:
            image[a] = b - w2.m
        else:
            cups.append((a - w2.m, b - w2.m))
    pairs = []
    for a, b in w.pairs:
        if a < w.m:
            pairs.append((a, w.m + image[b - w.m]))
        else:
            pairs.append((w.m + image[a - w.m], w.m + image[b - w.m]))
    pairs += [(w.m + a, w.m + b) for a, b in cups]
    return matching(w.m, w2.n, pairs)


class TestMatchingValidation:
    def test_helper_canonicalizes(self):
        w = matching(2, 2, [(3, 1), (2, 0)])
        assert w.pairs == ((0, 2), (1, 3))

    def test_rejects_unsorted_raw_pairs(self):
        with pytest.raises(ValueError):
            Matching1D(2, 2, ((1, 3), (0, 2)))

    def test_rejects_double_matched_point(self):
        with pytest.raises(ValueError):
            matching(2, 2, [(0, 1), (1, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            matching(1, 1, [(0, 2)])

    def test_rejects_odd_total(self):
        with pytest.raises(ValueError):
            matching(1, 2, [(0, 1)])

    def test_rejects_negative_circles(self):
        with pytest.raises(ValueError):
            matching(0, 0, [], -1)

    def test_json_round_trip(self):
        w = matching(2, 4, [(0, 3), (1, 5), (2, 4)], circles=2)
        assert matching_from_json(w.to_json()) == w

    @pytest.mark.parametrize(
        "field, value", [("m", 2.0), ("n", True), ("circles", "1"), ("pairs", [[0, 1.0]])]
    )
    def test_json_refuses_non_integers(self, field, value):
        data = {"m": 1, "n": 1, "pairs": [[0, 1]], "circles": 0, field: value}
        with pytest.raises(ValueError):
            matching_from_json(data)


class TestComposeAbstract:
    def test_cap_after_cup_closes_circle(self):
        closed = compose_abstract(cup_matching(), cap_matching())
        assert closed == matching(0, 0, [], circles=1)

    def test_identity_is_two_sided_unit(self):
        rng = random.Random(5)
        for _ in range(40):
            m, n = 2 * rng.randint(0, 3), 2 * rng.randint(0, 3)
            if (m + n) % 2:
                continue
            w = random_matching(rng, m, n)
            assert compose_abstract(identity_matching(m), w) == w
            assert compose_abstract(w, identity_matching(n)) == w

    def test_zigzag_is_identity(self):
        left = tensor_matching(cup_matching(), identity_matching(1))
        right = tensor_matching(identity_matching(1), cap_matching())
        assert compose_abstract(left, right) == identity_matching(1)

    def test_other_zigzag_is_identity(self):
        left = tensor_matching(identity_matching(1), cup_matching())
        right = tensor_matching(cap_matching(), identity_matching(1))
        assert compose_abstract(left, right) == identity_matching(1)

    def test_associative(self):
        rng = random.Random(6)
        for _ in range(60):
            sizes = [2 * rng.randint(0, 3) for _ in range(4)]
            a = random_matching(rng, sizes[0], sizes[1])
            b = random_matching(rng, sizes[1], sizes[2])
            c = random_matching(rng, sizes[2], sizes[3])
            ab_c = compose_abstract(compose_abstract(a, b), c)
            a_bc = compose_abstract(a, compose_abstract(b, c))
            assert ab_c == a_bc

    def test_interface_mismatch(self):
        with pytest.raises(ValueError):
            compose_abstract(cup_matching(), cup_matching())

    def test_circle_counts_add_through_splice(self):
        a = matching(0, 2, [(0, 1)], circles=2)
        b = matching(2, 0, [(0, 1)], circles=3)
        assert compose_abstract(a, b).circles == 6

    def test_endomorphisms_of_empty_form_additive_monoid(self):
        a = matching(0, 0, [], circles=4)
        b = matching(0, 0, [], circles=7)
        assert compose_abstract(a, b) == matching(0, 0, [], circles=11)


class TestTensor:
    def test_sizes_and_pairs(self):
        w = tensor_matching(cup_matching(), cap_matching())
        assert (w.m, w.n) == (2, 2)
        assert w.pairs == ((0, 1), (2, 3))

    def test_unit(self):
        rng = random.Random(7)
        empty = matching(0, 0, [])
        w = random_matching(rng, 2, 4)
        assert tensor_matching(w, empty) == w
        assert tensor_matching(empty, w) == w

    def test_associative(self):
        rng = random.Random(8)
        for _ in range(30):
            mats = [
                random_matching(rng, 2 * rng.randint(0, 2), 2 * rng.randint(0, 2))
                for _ in range(3)
            ]
            a, b, c = mats
            assert tensor_matching(tensor_matching(a, b), c) == tensor_matching(
                a, tensor_matching(b, c)
            )


class TestActBoundary:
    def test_identity_perm(self):
        w = matching(2, 2, [(0, 2), (1, 3)])
        assert act_boundary(w, (0, 1)) == w

    def test_swap_on_cap_is_invisible(self):
        assert act_boundary(cap_matching(), (1, 0)) == cap_matching()

    def test_swap_on_identity_gives_transposition(self):
        w = act_boundary(identity_matching(2), (1, 0))
        assert w.pairs == ((0, 3), (1, 2))

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError):
            act_boundary(identity_matching(2), (0, 0))


class TestEuler:
    def test_generators(self):
        assert euler_functor_1d(cup_matching()) == 1
        assert euler_functor_1d(cap_matching()) == -1
        assert euler_functor_1d(matching(0, 0, [], circles=1)) == 0

    def test_witness_matches_on_random_morphisms(self):
        rng = random.Random(9)
        for _ in range(80):
            m, n = rng.randint(0, 6), rng.randint(0, 6)
            if (m + n) % 2:
                continue
            w = random_matching(rng, m, n)
            assert euler_functor_1d(w) == euler_triviality_witness(
                n
            ) - euler_triviality_witness(m)

    def test_additive_under_composition(self):
        rng = random.Random(10)
        for _ in range(40):
            sizes = [2 * rng.randint(0, 3) for _ in range(3)]
            a = random_matching(rng, sizes[0], sizes[1])
            b = random_matching(rng, sizes[1], sizes[2])
            assert euler_functor_1d(compose_abstract(a, b)) == euler_functor_1d(
                a
            ) + euler_functor_1d(b)


class TestPlanarDiagram:
    def test_derived_target_count(self):
        w = PlanarDiagram(1, ((CUP, 1), (CAP, 0)))
        assert w.n == 1
        assert w.counts() == [1, 3, 1]

    def test_rejects_cup_out_of_range(self):
        with pytest.raises(ValueError):
            PlanarDiagram(1, ((CUP, 2),))

    def test_rejects_cap_out_of_range(self):
        with pytest.raises(ValueError):
            PlanarDiagram(2, ((CAP, 1),))

    def test_rejects_cap_on_too_few_strands(self):
        with pytest.raises(ValueError):
            PlanarDiagram(0, ((CAP, 0),))

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            PlanarDiagram(0, (("saddle", 0),))

    def test_json_round_trip(self):
        w = planar_nested_pair()
        assert diagram_from_json(w.to_json()) == w

    def test_json_rejects_wrong_declared_n(self):
        data = {"m": 0, "slices": [["cup", 0]], "n": 0}
        with pytest.raises(ValueError):
            diagram_from_json(data)

    def test_compose_concatenates(self):
        a = PlanarDiagram(0, ((CUP, 0),))
        b = PlanarDiagram(2, ((CAP, 0),))
        assert compose_planar(a, b) == planar_circle()
        assert len(compose_planar(a, b).slices) == 2

    def test_compose_mismatch(self):
        with pytest.raises(ValueError):
            compose_planar(planar_circle(), PlanarDiagram(2, ()))

    def test_compose_associative_as_words(self):
        rng = random.Random(11)
        for _ in range(30):
            a = random_planar_word(rng, 2, rng.randint(0, 6))
            b = random_planar_word(rng, a.n, rng.randint(0, 6))
            c = random_planar_word(rng, b.n, rng.randint(0, 6))
            assert compose_planar(compose_planar(a, b), c) == compose_planar(
                a, compose_planar(b, c)
            )


class TestToMatching:
    @given(st.integers(min_value=0, max_value=8))
    def test_identity_words(self, m):
        assert to_matching(planar_identity(m)) == identity_matching(m)

    def test_generators(self):
        assert to_matching(PlanarDiagram(0, ((CUP, 0),))) == cup_matching()
        assert to_matching(PlanarDiagram(2, ((CAP, 0),))) == cap_matching()

    def test_circle_words(self):
        assert to_matching(planar_circle()) == matching(0, 0, [], circles=1)
        assert to_matching(planar_nested_pair()) == matching(0, 0, [], circles=2)
        assert to_matching(planar_circles(3)).circles == 3

    def test_zigzags_are_identities(self):
        assert to_matching(PlanarDiagram(1, ((CUP, 1), (CAP, 0)))) == identity_matching(1)
        assert to_matching(PlanarDiagram(1, ((CUP, 0), (CAP, 1)))) == identity_matching(1)

    def test_forgetting_commutes_with_composition(self):
        rng = random.Random(12)
        for _ in range(120):
            m = rng.choice((0, 1, 2, 3))
            a = random_planar_word(rng, m, rng.randint(0, 8))
            b = random_planar_word(rng, a.n, rng.randint(0, 8))
            assert to_matching(compose_planar(a, b)) == compose_abstract(
                to_matching(a), to_matching(b)
            )


class TestFInvariant:
    def test_single_circle(self):
        assert f_invariant(planar_circle()) == 1

    def test_identity_strands(self):
        for m in range(5):
            assert f_invariant(planar_identity(m)) == 0

    def test_nested_pair(self):
        assert f_invariant(planar_nested_pair()) == 0

    @given(st.integers(min_value=0, max_value=25))
    def test_side_by_side_circles(self, k):
        assert f_invariant(planar_circles(k)) == k

    def test_zigzags(self):
        assert f_invariant(PlanarDiagram(1, ((CUP, 1), (CAP, 0)))) == 0
        assert f_invariant(PlanarDiagram(1, ((CUP, 0), (CAP, 1)))) == 0

    def test_merging_cap_counts_negative(self):
        assert f_invariant(PlanarDiagram(4, ((CAP, 1),))) == -1

    def test_functorial_on_random_pairs(self):
        rng = random.Random(13)
        for _ in range(300):
            m = rng.choice((0, 1, 2, 3, 4))
            a = random_planar_word(rng, m, rng.randint(0, 12))
            b = random_planar_word(rng, a.n, rng.randint(0, 12))
            assert f_invariant(compose_planar(a, b)) == f_invariant(a) + f_invariant(b)


class TestReduceEndomorphism:
    def test_rejects_nonempty_boundary(self):
        with pytest.raises(ValueError):
            reduce_endomorphism(planar_identity(1))

    def test_values(self):
        assert reduce_endomorphism(planar_identity(0)) == 0
        assert reduce_endomorphism(planar_circle()) == 1
        assert reduce_endomorphism(planar_circles(4)) == 4
        assert reduce_endomorphism(planar_nested_pair()) == 0

    def test_monoid_homomorphism(self):
        rng = random.Random(14)
        for _ in range(60):
            a = random_planar_word(rng, 0, 2 * rng.randint(0, 5))
            b = random_planar_word(rng, a.n, 0)
            # force b back to empty boundary: compose caps until empty
            while b.n > 0:
                b = compose_planar(b, PlanarDiagram(b.n, ((CAP, 0),)))
            word = compose_planar(a, b)
            tail = random_planar_word(rng, 0, 2 * rng.randint(0, 4))
            while tail.n > 0:
                tail = compose_planar(tail, PlanarDiagram(tail.n, ((CAP, 0),)))
            assert reduce_endomorphism(
                compose_planar(word, tail)
            ) == reduce_endomorphism(word) + reduce_endomorphism(tail)


class TestGridOracle:
    def test_known_values(self):
        assert f_invariant_grid(planar_circle()) == 1
        assert f_invariant_grid(planar_nested_pair()) == 0
        assert f_invariant_grid(planar_circles(3)) == 3
        assert f_invariant_grid(PlanarDiagram(4, ((CAP, 1),))) == -1
        assert f_invariant_grid(planar_identity(3)) == 0

    def test_agrees_with_sweep_exhaustively(self):
        count = 0
        for m in (0, 1, 2):
            for w in enumerate_words(m, 3):
                assert f_invariant_grid(w) == f_invariant(w), w
                count += 1
        assert count > 300

    def test_agrees_with_sweep_on_random_words(self):
        rng = random.Random(15)
        for _ in range(60):
            m = rng.choice((0, 1, 2, 3, 4))
            w = random_planar_word(rng, m, rng.randint(0, 10))
            assert f_invariant_grid(w) == f_invariant(w), w


def _pixels(*rows: str) -> list[list[bool]]:
    """A grid drawn as text, one string per column: '#' is red."""
    return [[ch == "#" for ch in row] for row in rows]


grids = st.integers(0, 12).flatmap(
    lambda cols: st.integers(1, 12).flatmap(
        lambda rows: st.lists(
            st.lists(st.booleans(), min_size=rows, max_size=rows),
            min_size=cols,
            max_size=cols,
        )
    )
)


class TestEulerOfPixels:
    def test_diagonal_pixels_touch(self):
        red = _pixels("#.", ".#")
        assert _euler_of_pixels(red) == euler_by_flood_fill(red) == 1

    def test_ring_missing_a_corner_is_still_closed(self):
        red = _pixels(".##", "#.#", "###")
        assert _euler_of_pixels(red) == euler_by_flood_fill(red) == 0

    def test_ring_missing_an_edge_pixel_is_open(self):
        red = _pixels("#.#", "#.#", "###")
        assert _euler_of_pixels(red) == euler_by_flood_fill(red) == 1

    @given(grids)
    @settings(max_examples=300, deadline=None)
    def test_cell_count_matches_flood_fill(self, red):
        assert _euler_of_pixels(red) == euler_by_flood_fill(red)


class TestMoves:
    def test_distant_commutation_swaps(self):
        w = PlanarDiagram(0, ((CUP, 0), (CUP, 2)))
        swapped = commute_events(w, 0)
        assert swapped == PlanarDiagram(0, ((CUP, 0), (CUP, 0)))
        # interleaved pair does not commute
        assert commute_events(PlanarDiagram(0, ((CUP, 0), (CUP, 1))), 0) is None

    def test_commutation_preserves_matching_and_f(self):
        rng = random.Random(16)
        applied = 0
        for _ in range(200):
            m = rng.choice((0, 1, 2, 3))
            w = random_planar_word(rng, m, rng.randint(2, 10))
            for t in range(len(w.slices) - 1):
                swapped = commute_events(w, t)
                if swapped is None:
                    continue
                applied += 1
                assert to_matching(swapped) == to_matching(w)
                assert f_invariant(swapped) == f_invariant(w)
        assert applied > 100

    def test_zigzag_insert_then_cancel_round_trips(self):
        rng = random.Random(17)
        for _ in range(150):
            m = rng.choice((0, 1, 2, 3))
            w = random_planar_word(rng, m, rng.randint(0, 8))
            t = rng.randint(0, len(w.slices))
            count = w.counts()[t]
            up = rng.random() < 0.5
            if up:
                if count == 0:
                    continue
                i = rng.randint(0, count - 1)
            else:
                if count == 0:
                    continue
                i = rng.randint(1, count)
            widened = insert_zigzag(w, t, i, up)
            assert f_invariant(widened) == f_invariant(w)
            assert to_matching(widened) == to_matching(w)
            assert cancel_zigzag(widened, t) == w

    def test_cancel_requires_adjacent_pattern(self):
        assert cancel_zigzag(planar_circle(), 0) is None
        w = PlanarDiagram(1, ((CUP, 1), (CAP, 0)))
        assert cancel_zigzag(w, 0) == planar_identity(1)

    def test_insert_validation(self):
        with pytest.raises(ValueError):
            insert_zigzag(planar_identity(0), 0, 0, True)
        with pytest.raises(ValueError):
            insert_zigzag(planar_identity(1), 1, 0, True)


class TestRestricted:
    """Cap-free, circle-free matchings: every component reaches the outgoing
    boundary."""

    def test_validation(self):
        # A through-strand image used twice, out of range, or a cup pair
        # leaving an outgoing point uncovered is not a matching at all.
        with pytest.raises(ValueError):
            matching(2, 2, [(0, 2), (1, 2)])
        with pytest.raises(ValueError):
            matching(1, 1, [(0, 4)])
        with pytest.raises(ValueError):
            matching(1, 3, [(0, 1)])
        with pytest.raises(ValueError):
            matching(1, 3, [(0, 1), (1, 2)])

    def test_identity_and_composition(self):
        w = matching(1, 3, [(0, 2), (1, 3)])
        assert restricted_from_matching(w) is w
        assert compose_abstract(identity_matching(1), w) == w
        assert compose_abstract(w, identity_matching(3)) == w

    def test_two_route_composition_agrees(self):
        rng = random.Random(18)
        for _ in range(100):
            m = rng.randint(0, 3)
            w1 = random_restricted(rng, m, rng.randint(0, 2))
            w2 = random_restricted(rng, w1.n, rng.randint(0, 2))
            spliced = compose_abstract(w1, w2)
            assert spliced == compose_by_injection(w1, w2)
            assert restricted_from_matching(spliced) is spliced

    def test_round_trip_through_matching(self):
        rng = random.Random(19)
        for _ in range(60):
            w = random_restricted(rng, rng.randint(0, 4), rng.randint(0, 3))
            assert restricted_from_matching(w) is w
            assert matching_from_json(w.to_json()) == w
            assert restricted_from_matching(tensor_matching(w, cap_matching())) is None

    def test_recognizer_rejects_caps_and_circles(self):
        assert restricted_from_matching(cap_matching()) is None
        assert restricted_from_matching(matching(0, 0, [], circles=1)) is None
        assert restricted_from_matching(matching(1, 1, [(0, 1)], circles=1)) is None
        cup = cup_matching()
        assert restricted_from_matching(cup) is cup


@settings(max_examples=30)
@given(st.integers(min_value=0, max_value=5), st.integers(min_value=0, max_value=8))
def test_random_words_are_valid_diagrams(seed, length):
    rng = random.Random(seed)
    w = random_planar_word(rng, seed % 3, length)
    assert len(w.slices) == length
    assert w.n >= 0
