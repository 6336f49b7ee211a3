import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcat.fincat import (
    FinCat,
    build_category,
    from_json,
    interval_category,
    is_groupoid,
    parallel_pair,
    poset_category,
    subset_poset_category,
    terminal_category,
    validate_category,
)
from fincat_helpers import (
    Functor,
    NatTrans,
    check_functor,
    check_nat_trans,
    cyclic_group_category,
    disjoint_union,
    hom,
    product,
    to_json,
    validate_category_all_pairs,
)


class TestValidation:
    def test_builders_are_lawful(self):
        for cat in (
            terminal_category(),
            interval_category(),
            parallel_pair(),
            cyclic_group_category(4),
            subset_poset_category(3),
            subset_poset_category(4),
        ):
            assert validate_category(cat) == []

    def test_missing_composite_reported(self):
        with pytest.raises(ValueError, match="missing composite"):
            build_category(
                ["a", "b"],
                [("id_a", "a", "a"), ("id_b", "b", "b"), ("f", "a", "b")],
                {"a": "id_a", "b": "id_b"},
                [
                    ("id_a", "id_a", "id_a"),
                    ("id_b", "id_b", "id_b"),
                    ("id_a", "f", "f"),
                    # ("f", "id_b", "f") deliberately absent
                ],
            )

    def test_broken_associativity_names_triple(self):
        # Z/3 with one perturbed entry: r1 after r1 claimed to be r0.
        n = 3
        compose = {
            (f"r{a}", f"r{b}"): f"r{(a + b) % n}" for a in range(n) for b in range(n)
        }
        compose[("r1", "r1")] = "r0"
        cat = FinCat(
            ("*",),
            ("r0", "r1", "r2"),
            (0, 0, 0),
            (0, 0, 0),
            (0,),
            {
                (int(f[1]), int(g[1])): int(h[1])
                for (f, g), h in compose.items()
            },
        )
        issues = validate_category(cat)
        assert any("associativity" in issue for issue in issues)

    def test_wrong_endpoints_reported(self):
        cat = FinCat(
            ("a", "b"),
            ("id_a", "id_b", "f"),
            (0, 1, 0),
            (0, 1, 1),
            (0, 1),
            {(0, 0): 0, (1, 1): 1, (0, 2): 2, (2, 1): 0},  # f then id_b = id_a
        )
        issues = validate_category(cat)
        assert any("wrong endpoints" in issue for issue in issues)

    def test_identity_missing(self):
        cat = FinCat(("a",), ("e",), (0,), (0,), (-1,), {})
        issues = validate_category(cat)
        assert any("no identity" in issue for issue in issues)


SMALL_CATEGORIES = [
    terminal_category(),
    interval_category(),
    parallel_pair(),
    cyclic_group_category(3),
    subset_poset_category(3),
    product(cyclic_group_category(2), interval_category()),
    disjoint_union(cyclic_group_category(2), parallel_pair()),
]


@st.composite
def corrupted_categories(draw):
    """A small lawful category with one to three of these corruptions: a
    composite changed (possibly out of range), an entry dropped, an entry
    added for a non-composable pair, an identity moved or removed."""
    c = draw(st.sampled_from(SMALL_CATEGORIES))
    n = len(c.morphisms)
    table, identity = dict(c.table), list(c.identity)
    loose = [(f, g) for f in range(n) for g in range(n) if c.tgt[f] != c.src[g]]
    kinds = ["change", "drop", "identity"] + (["add"] if loose else [])
    for kind in draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)):
        keys = sorted(table)
        if kind == "change" and keys:
            table[draw(st.sampled_from(keys))] = draw(st.integers(-1, n))
        elif kind == "drop" and keys:
            del table[draw(st.sampled_from(keys))]
        elif kind == "add":
            table[draw(st.sampled_from(loose))] = draw(st.integers(0, n - 1))
        elif kind == "identity":
            identity[draw(st.integers(0, len(identity) - 1))] = draw(st.integers(-1, n))
    return dataclasses.replace(c, table=table, identity=tuple(identity))


class TestValidationOracle:
    """``validate_category`` walks composable pairs and triples; the oracle
    filters all of them, and both report the same issues in the same order."""

    def test_lawful_categories_agree(self):
        for c in SMALL_CATEGORIES:
            assert validate_category(c) == validate_category_all_pairs(c) == []

    @given(corrupted_categories())
    @settings(max_examples=300, deadline=None)
    def test_corrupted_categories_agree(self, c):
        assert validate_category(c) == validate_category_all_pairs(c)


class TestGroupoid:
    def test_cyclic_group_is_groupoid(self):
        ok, inverses = is_groupoid(cyclic_group_category(5))
        assert ok
        assert inverses["r2"] == "r3"
        assert inverses["r0"] == "r0"

    def test_interval_not_groupoid(self):
        ok, inverses = is_groupoid(interval_category())
        assert not ok and inverses is None

    def test_inverse_table_is_involution(self):
        ok, inverses = is_groupoid(cyclic_group_category(6))
        assert ok
        for f, g in inverses.items():
            assert inverses[g] == f


class TestProduct:
    def test_counts(self):
        c = interval_category()
        d = cyclic_group_category(2)
        p = product(c, d)
        assert len(p.objects) == len(c.objects) * len(d.objects)
        assert len(p.morphisms) == len(c.morphisms) * len(d.morphisms)
        assert validate_category(p) == []

    def test_unit_behaviour(self):
        # C x 1 has the same shape as C.
        c = parallel_pair()
        p = product(c, terminal_category())
        assert len(p.objects) == len(c.objects)
        assert len(p.morphisms) == len(c.morphisms)


class TestDisjointUnion:
    def test_counts_and_validity(self):
        c = disjoint_union(terminal_category(), terminal_category())
        assert len(c.objects) == 2
        assert validate_category(c) == []


class TestFunctor:
    def test_identity_functor(self):
        c = parallel_pair()
        fun = Functor(c, c, {o: o for o in c.objects}, {m: m for m in c.morphisms})
        assert check_functor(fun) == []

    def test_collapse_functor(self):
        c = parallel_pair()
        t = terminal_category()
        fun = Functor(
            c,
            t,
            {o: "*" for o in c.objects},
            {m: "id_*" for m in c.morphisms},
        )
        assert check_functor(fun) == []

    def test_group_homomorphism_as_functor(self):
        c = cyclic_group_category(4)
        d = cyclic_group_category(2)
        fun = Functor(
            c,
            d,
            {"*": "*"},
            {f"r{k}": f"r{k % 2}" for k in range(4)},
        )
        assert check_functor(fun) == []

    def test_broken_functor_reported(self):
        c = cyclic_group_category(3)
        d = cyclic_group_category(3)
        fun = Functor(
            c,
            d,
            {"*": "*"},
            {"r0": "r0", "r1": "r1", "r2": "r1"},  # not a homomorphism
        )
        issues = check_functor(fun)
        assert any("composition not preserved" in issue for issue in issues)

    def test_missing_image_reported(self):
        c = terminal_category()
        fun = Functor(c, c, {}, {})
        issues = check_functor(fun)
        assert any("no image" in issue for issue in issues)


class TestNatTrans:
    def test_conjugation_square(self):
        # Two functors 1 -> Z/4 picking the same object; any group element is
        # a natural transformation between them since the group is abelian.
        t = terminal_category()
        g = cyclic_group_category(4)
        fun = Functor(t, g, {"*": "*"}, {"id_*": "r0"})
        nt = NatTrans(fun, fun, {"*": "r1"})
        assert check_nat_trans(nt) == []

    def test_interval_naturality_failure(self):
        c = interval_category()
        pp = parallel_pair()
        fun = Functor(
            c, pp, {"a": "a", "b": "b"}, {"id_a": "id_a", "id_b": "id_b", "f": "f"}
        )
        gun = Functor(
            c, pp, {"a": "a", "b": "b"}, {"id_a": "id_a", "id_b": "id_b", "f": "g"}
        )
        # Components must be id_a, id_b; the square then needs f = g, false.
        nt = NatTrans(fun, gun, {"a": "id_a", "b": "id_b"})
        issues = check_nat_trans(nt)
        assert any("naturality square" in issue for issue in issues)

    def test_identity_nat_trans(self):
        c = parallel_pair()
        fun = Functor(c, c, {o: o for o in c.objects}, {m: m for m in c.morphisms})
        nt = NatTrans(
            fun, fun, {"a": "id_a", "b": "id_b"}
        )
        assert check_nat_trans(nt) == []


class TestJson:
    def test_round_trip(self):
        for cat in (
            terminal_category(),
            parallel_pair(),
            cyclic_group_category(3),
            subset_poset_category(3),
        ):
            data = to_json(cat)
            back = from_json(data)
            assert to_json(back) == data

    def test_malformed(self):
        with pytest.raises(ValueError):
            from_json({"objects": ["a"]})
        with pytest.raises(ValueError):
            from_json(
                {
                    "objects": ["a"],
                    "morphisms": [{"id": "id_a", "src": "a", "tgt": "a"}],
                    "identities": {"a": "id_a"},
                    "compose": [["id_a", "id_a"]],
                }
            )

    def test_deterministic_serialization(self):
        cat = subset_poset_category(3)
        assert to_json(cat) == to_json(cat)


class TestPosetBuilders:
    def test_subset_poset_counts(self):
        cat = subset_poset_category(4)
        assert len(cat.objects) == 14
        assert len(cat.morphisms) == 50

    def test_poset_category_is_thin(self):
        cat = poset_category(["x", "y"], lambda a, b: a <= b)
        for x in range(len(cat.objects)):
            for y in range(len(cat.objects)):
                assert len(hom(cat, x, y)) <= 1

    def test_random_relabeling_stays_lawful(self):
        rng = random.Random(5)
        cat = subset_poset_category(3)
        data = to_json(cat)
        names = list(data["objects"])
        shuffled = names[:]
        rng.shuffle(shuffled)
        rename = dict(zip(names, shuffled))
        data["objects"] = [rename[o] for o in data["objects"]]
        for mor in data["morphisms"]:
            mor["src"] = rename[mor["src"]]
            mor["tgt"] = rename[mor["tgt"]]
        data["identities"] = {rename[o]: m for o, m in data["identities"].items()}
        back = from_json(data)
        assert validate_category(back) == []
