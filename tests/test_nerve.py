import gc
import random
import signal
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcat import nerve as nerve_module
from cobcat.exactmath import AbelianInvariants, IntMatrix, abelianize, smith_normal_form
from cobcat.fincat import (
    from_json,
    interval_category,
    parallel_pair,
    poset_category,
    subset_poset_category,
    terminal_category,
)
from cobcat.limits import ResourceLimitExceeded
from cobcat.nerve import build_nerve, fundamental_group, homology, pi0
from exactmath_helpers import simplify_presentation
from fincat_helpers import cyclic_group_category, disjoint_union, product, to_json
from nerve_helpers import (
    brown_matching,
    check_matching,
    oracle_homology,
    projected_homology,
    union_find_components,
)

Z = AbelianInvariants(1, ())
ZERO = AbelianInvariants(0, ())


class TestCells:
    def test_counts_for_sphere_poset(self):
        nerve = build_nerve(subset_poset_category(4), cap=3)
        assert nerve.cell_counts() == [14, 36, 24, 0]

    def test_counts_for_cyclic_group(self):
        nerve = build_nerve(cyclic_group_category(3), cap=3)
        assert nerve.cell_counts() == [1, 2, 4, 8]

    def test_degenerate_chains_excluded(self):
        # Identities never appear inside chains.
        nerve = build_nerve(parallel_pair(), cap=3)
        assert nerve.cell_counts() == [2, 2, 0, 0]

    def test_cell_ceiling(self, monkeypatch):
        monkeypatch.setenv("COBCAT_MAX_CELLS", "20")
        with pytest.raises(ResourceLimitExceeded):
            build_nerve(cyclic_group_category(5), cap=3)

    def test_env_ceiling(self, monkeypatch):
        monkeypatch.setenv("COBCAT_MAX_CELLS", "10")
        with pytest.raises(ResourceLimitExceeded):
            build_nerve(cyclic_group_category(5), cap=3)

    def test_ceiling_refuses_before_building_the_layer(self, monkeypatch):
        # Degree 4 of BZ/40 would hold 39**4 chains; counting them first
        # refuses without building them.
        # Collection is held off during the timed call, so garbage left by
        # earlier tests is not charged to the refusal.
        cat = cyclic_group_category(40)
        monkeypatch.setenv("COBCAT_MAX_CELLS", "100000")
        gc.collect()
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            with pytest.raises(ResourceLimitExceeded) as info:
                build_nerve(cat, cap=4)
            elapsed = time.perf_counter() - start
        finally:
            if was_enabled:
                gc.enable()
        assert elapsed < 0.1
        message = str(info.value)
        assert str(1 + 39 + 39**2 + 39**3 + 39**4) in message
        assert "100000" in message
        assert message.endswith("over the ceiling of 100000 (COBCAT_MAX_CELLS)")

    def test_ceiling_is_inclusive(self, monkeypatch):
        # BZ/5 at cap 3 has 1 + 4 + 16 + 64 = 85 cells.
        monkeypatch.setenv("COBCAT_MAX_CELLS", "85")
        assert sum(build_nerve(cyclic_group_category(5), 3).cell_counts()) == 85
        monkeypatch.setenv("COBCAT_MAX_CELLS", "84")
        with pytest.raises(ResourceLimitExceeded, match="85 cells at degree 3"):
            build_nerve(cyclic_group_category(5), 3)

    def test_cap_counts_against_the_ceiling(self, monkeypatch):
        # The one-object category has no cell above degree 0, yet each of
        # the cap + 1 degrees is reported, so each counts.
        monkeypatch.setenv("COBCAT_MAX_CELLS", "10")
        assert build_nerve(terminal_category(), 9).cell_counts() == [1] + [0] * 9
        with pytest.raises(ResourceLimitExceeded) as info:
            build_nerve(terminal_category(), 10)
        message = str(info.value)
        assert "--cap 10" in message and "ceiling of 10 " in message
        assert message == "--cap 10 asks for 11 degrees, over the ceiling of 10 (COBCAT_MAX_CELLS)"


class TestHomology:
    def test_sphere_poset(self):
        nerve = build_nerve(subset_poset_category(4), cap=3)
        assert homology(nerve) == [Z, ZERO, Z]

    def test_terminal_object_point_homology(self):
        for cat in (
            terminal_category(),
            interval_category(),
            product(interval_category(), interval_category()),
        ):
            nerve = build_nerve(cat, cap=3)
            assert homology(nerve) == [Z, ZERO, ZERO]

    def test_parallel_pair_circle(self):
        nerve = build_nerve(parallel_pair(), cap=3)
        assert homology(nerve) == [Z, Z, ZERO]

    def test_cyclic_group_torsion(self):
        nerve = build_nerve(cyclic_group_category(3), cap=3)
        assert homology(nerve) == [Z, AbelianInvariants(0, (3,)), ZERO]

    def test_disjoint_union_doubles_h0(self):
        cat = disjoint_union(terminal_category(), terminal_category())
        nerve = build_nerve(cat, cap=2)
        assert homology(nerve)[0] == AbelianInvariants(2, ())

    def test_relabeling_invariance(self):
        rng = random.Random(13)
        cat = subset_poset_category(3)
        reference = homology(build_nerve(cat, cap=3))
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
        relabeled = from_json(data)
        assert homology(build_nerve(relabeled, cap=3)) == reference


    def test_bz10_cap4(self):
        nerve = build_nerve(cyclic_group_category(10), cap=4)
        assert homology(nerve) == [
            Z,
            AbelianInvariants(0, (10,)),
            ZERO,
            AbelianInvariants(0, (10,)),
        ]

    def test_bz30_cap4(self):
        # 732,541 nerve cells, 5 of them critical; the path that enumerated
        # the cells took 9.5 s as a fresh process.
        start = time.perf_counter()
        groups = homology(build_nerve(cyclic_group_category(30), cap=4))
        assert time.perf_counter() - start < 1
        assert groups == [Z, AbelianInvariants(0, (30,)), ZERO, AbelianInvariants(0, (30,))]

    def test_bz6_squared_kunneth(self, monkeypatch):
        # Künneth: H_1 is the sum of the factors' H_1, and H_2 is
        # H_1(BZ/6) ⊗ H_1(BZ/6) = Z/6, as H_2(BZ/6) = 0.
        cat = product(cyclic_group_category(6), cyclic_group_category(6))
        assert homology(build_nerve(cat, cap=3)) == [
            Z,
            AbelianInvariants(0, (6, 6)),
            AbelianInvariants(0, (6,)),
        ]
        # The path count, not the critical count, prices the nerve.
        monkeypatch.setenv("COBCAT_MAX_CELLS", str(10**6))
        with pytest.raises(ResourceLimitExceeded, match="1544761 cells at degree 4"):
            build_nerve(cat, cap=4)

    def test_bz16_cap4(self):
        # 69,905 cells: eliminating pivots across every full boundary took
        # about 11 s on this input.
        nerve = build_nerve(cyclic_group_category(16), cap=4)
        assert homology(nerve) == [
            Z,
            AbelianInvariants(0, (16,)),
            ZERO,
            AbelianInvariants(0, (16,)),
        ]


def dense_homology(nerve):
    """The dense path: Smith normal form of every dense boundary matrix."""
    diags = [smith_normal_form(b)[0] for b in nerve.boundaries]
    out = []
    for p in range(nerve.cap):
        rank_in = sum(1 for d in diags[p + 1] if d)
        rank_out = sum(1 for d in diags[p] if d)
        free = len(nerve.cells[p]) - rank_out - rank_in
        out.append(AbelianInvariants(free, tuple(d for d in diags[p + 1] if d > 1)))
    return out


def random_poset(rng, size):
    """A random family of nonempty proper subsets of a ``size``-set, ordered
    by inclusion; dropping members of the sphere poset leaves holes."""
    family = [
        mask for mask in range(1, (1 << size) - 1) if rng.random() < 0.7
    ]
    names = [f"s{mask}" for mask in family]
    return poset_category(
        names, lambda a, b: int(a[1:]) & ~int(b[1:]) == 0
    )


class TestSparseAgainstDense:
    def corpus(self):
        rng = random.Random(2024)
        cats = [random_poset(rng, rng.randint(3, 5)) for _ in range(8)]
        cats += [cyclic_group_category(n) for n in (2, 3, 4)]
        cats += [
            product(cyclic_group_category(2), interval_category()),
            product(parallel_pair(), cyclic_group_category(2)),
            disjoint_union(cyclic_group_category(3), subset_poset_category(3)),
            disjoint_union(random_poset(rng, 4), parallel_pair()),
        ]
        return cats

    @pytest.mark.parametrize("cap", [1, 2, 3, 4])
    def test_homology_matches_dense_path(self, cap):
        # Against the full-boundary path as well as the dense one.
        for cat in self.corpus():
            nerve = build_nerve(cat, cap=cap)
            expected = dense_homology(nerve)
            assert oracle_homology(nerve) == expected, cat.objects
            assert projected_homology(nerve) == expected, cat.objects
            assert homology(build_nerve(cat, cap=cap)) == expected, cat.objects

    def test_dense_boundaries_match_columns(self):
        nerve = build_nerve(cyclic_group_category(3), cap=3)
        for p, matrix in enumerate(nerve.boundaries):
            rows = matrix.to_rows()
            assert matrix.shape == (len(nerve.cells[p - 1]) if p else 0, len(nerve.cells[p]))
            for j, col in enumerate(nerve.columns[p]):
                assert {i: rows[i][j] for i in range(matrix.rows) if rows[i][j]} == col


def dense(rows, columns):
    """The matrix with the given sparse columns."""
    return IntMatrix(rows, len(columns), [col.get(i, 0) for i in range(rows) for col in columns])


def cell_index(nerve, p, cell):
    return nerve.cells[p].index(cell)


@st.composite
def small_categories(draw):
    """Random posets, cyclic groups and parallel pairs, and products and
    disjoint unions of two of them."""

    def atom():
        kind = draw(st.sampled_from(["poset", "cyclic", "parallel"]))
        if kind == "poset":
            return random_poset(draw(st.randoms(use_true_random=False)), draw(st.integers(3, 4)))
        if kind == "cyclic":
            return cyclic_group_category(draw(st.integers(2, 5)))
        return parallel_pair()

    shape = draw(st.sampled_from(["atom", "product", "union"]))
    if shape == "atom":
        return atom()
    if shape == "product":
        return product(atom(), atom())
    return disjoint_union(atom(), atom())


def anick_counts(cat, cap):
    """The critical chains that homology lists, per degree 0..cap."""
    chains = nerve_module._collapsing_scheme(cat, cap)[0]
    return [len(layer) for layer in chains] + [0] * (cap + 1 - len(chains))


class TestBrownMatching:
    @settings(max_examples=150, deadline=None)
    @given(small_categories(), st.integers(1, 4))
    def test_matching_is_acyclic_with_unit_pairs_and_keeps_homology(self, cat, cap):
        # The cap is lowered until the nerve has at most 2,000 cells.  Below
        # the cap, the chains homology lists are the matching's critical
        # cells; at the cap a redundant cell's partner is not built.
        while sum(build_nerve(cat, cap).cell_counts()) > 2000:
            cap -= 1
        nerve = build_nerve(cat, cap)
        critical = check_matching(nerve, brown_matching(nerve))
        assert anick_counts(cat, cap)[:cap] == critical[:cap]
        expected = oracle_homology(nerve)
        assert homology(build_nerve(cat, cap)) == expected
        assert projected_homology(nerve) == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 7, 9])
    def test_cyclic_group_leaves_one_critical_cell_per_degree(self, n):
        cap = 4
        nerve = build_nerve(cyclic_group_category(n), cap)
        critical = check_matching(nerve, brown_matching(nerve))
        assert critical[:cap] == [1] * cap
        assert anick_counts(nerve.category, cap)[:cap] == [1] * cap

    def test_sphere_poset_critical_cells(self):
        nerve = build_nerve(subset_poset_category(5), 4)
        critical = check_matching(nerve, brown_matching(nerve))
        assert critical == [30, 70, 60, 20, 0]
        assert anick_counts(nerve.category, 4) == [30, 70, 60, 20, 0]

    def test_partners_in_bz3(self):
        # r2 = r1 r1 has the normal form r1.r1, so [r2|...] splits off its
        # first letter.  [r1|r1] is collapsible onto [r2], and [r1|r2] is an
        # Anick chain (r1.r1.r1 is an identity), so it is critical.
        nerve = build_nerve(cyclic_group_category(3), 3)
        r1, r2 = (nerve.category.morphisms.index(f"r{k}") for k in (1, 2))
        match = brown_matching(nerve)
        assert match[1] == {cell_index(nerve, 1, (r2,)): cell_index(nerve, 2, (r1, r1))}
        assert match[2] == {
            cell_index(nerve, 2, (r2, x)): cell_index(nerve, 3, (r1, r1, x))
            for x in (r1, r2)
        }
        assert check_matching(nerve, match) == [1, 1, 1, 8 - 2]
        # The same pairs, classified on chain tuples.
        chains, classify = nerve_module._collapsing_scheme(nerve.category, 3)
        assert chains[1:] == [((r1,),), ((r1, r2),), ((r1, r2, r1),)]
        assert classify((r2,)) == (1, (r1, r1)) and classify((r1, r1)) == (-1, (r2,))
        for x in (r1, r2):
            assert classify((r2, x)) == (1, (r1, r1, x))
            assert classify((r1, r1, x)) == (-1, (r2, x))
        assert classify((r1, r2)) == (0, None)


class TestCachedAdjacency:
    @settings(max_examples=100, deadline=None)
    @given(small_categories())
    def test_arrows_and_components_match_the_scans(self, cat):
        morphisms = range(len(cat.morphisms))
        assert cat.arrows == tuple(
            tuple(f for f in morphisms if cat.src[f] == x and not cat.is_identity(f))
            for x in range(len(cat.objects))
        )
        groups = union_find_components(cat)
        assert [list(g) for x, g in enumerate(cat.components) if g[0] == x] == groups
        for group in groups:
            for x in group:
                assert cat.components[x] == tuple(group)

    def test_computed_once(self):
        cat = disjoint_union(parallel_pair(), cyclic_group_category(3))
        assert cat.arrows is cat.arrows and cat.components is cat.components
        assert cat.components == ((0, 1), (0, 1), (2,))


class TestPi0:
    def test_connected(self):
        assert pi0(subset_poset_category(4)) == [
            sorted(subset_poset_category(4).objects)
        ]

    def test_two_components(self):
        cat = disjoint_union(terminal_category(), terminal_category())
        assert pi0(cat) == [["l:*"], ["r:*"]]


class TestFundamentalGroup:
    def test_unknown_basepoint(self):
        with pytest.raises(ValueError):
            fundamental_group(terminal_category(), "nope")

    def test_parallel_pair_is_free_of_rank_one(self):
        p = fundamental_group(parallel_pair(), "a")
        assert set(p.generators) == {"f", "g"}
        q = simplify_presentation(p)
        assert len(q.generators) == 1
        assert q.relators == ()

    def test_terminal_object_categories_are_simply_connected(self):
        for cat in (
            interval_category(),
            product(interval_category(), interval_category()),
        ):
            p = fundamental_group(cat, cat.objects[0])
            q = simplify_presentation(p)
            assert q.generators == ()
            assert q.relators == ()

    def test_cyclic_group(self):
        p = fundamental_group(cyclic_group_category(3), "*")
        assert abelianize(p) == AbelianInvariants(0, (3,))

    def test_one_object_group_recovers_multiplication(self):
        # Z/5: the word problem for the presentation abelianizes to Z/5.
        p = fundamental_group(cyclic_group_category(5), "*")
        assert abelianize(p) == AbelianInvariants(0, (5,))

    def test_hurewicz(self):
        # H_1 of the nerve equals the abelianized fundamental group.
        for cat in (
            parallel_pair(),
            cyclic_group_category(3),
            cyclic_group_category(4),
            interval_category(),
            subset_poset_category(3),
            subset_poset_category(4),
        ):
            h1 = homology(build_nerve(cat, cap=2))[1]
            pi = abelianize(fundamental_group(cat, cat.objects[0]))
            assert h1 == pi, f"hurewicz mismatch for {cat.objects}"

    def test_relators_pinned_with_endomorphisms(self):
        # (r1,id_a) and (r1,id_b) are endomorphisms.  A spanning-tree sweep
        # that let one through would grow forever, so the alarm ends it.
        def hang(signum, frame):
            raise TimeoutError("the spanning-tree sweep did not finish")

        cat = product(cyclic_group_category(2), interval_category())
        previous = signal.signal(signal.SIGALRM, hang)
        signal.alarm(5)
        try:
            presentations = [fundamental_group(cat, base) for base in ("(*,a)", "(*,b)")]
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        for p in presentations:
            assert p.generators == ("(r0,f)", "(r1,id_a)", "(r1,id_b)", "(r1,f)")
            assert p.relators == (
                (1,), (3, 1, -4), (1, 2, -4), (2, 2), (4, 2, -1), (3, 3), (3, 4, -1)
            )

    def test_presentation_is_priced_where_it_is_built(self, monkeypatch):
        # BZ/3: 4 relators (r1 r1, r1 r2, r2 r1, r2 r2) over 2 generators.
        monkeypatch.setenv("COBCAT_MAX_CELLS", "7")
        with pytest.raises(ResourceLimitExceeded, match="4 relators over 2 generators, 8 matrix"):
            fundamental_group(cyclic_group_category(3), "*")
        monkeypatch.setenv("COBCAT_MAX_CELLS", "8")
        assert len(fundamental_group(cyclic_group_category(3), "*").relators) == 4

    def test_basepoint_in_other_component(self):
        cat = disjoint_union(parallel_pair(), terminal_category())
        p = fundamental_group(cat, "r:*")
        assert p.generators == ()
        q = fundamental_group(cat, "l:a")
        assert set(q.generators) == {"l:f", "l:g"}


class TestSpanClosure:
    def test_boundary_squared_is_zero_fuzz(self):
        # The columns check that the composite of consecutive boundaries is
        # zero as they are built; drive that check over assorted categories.
        cats = [
            terminal_category(),
            interval_category(),
            parallel_pair(),
            cyclic_group_category(2),
            cyclic_group_category(4),
            subset_poset_category(3),
            subset_poset_category(4),
            product(interval_category(), parallel_pair()),
        ]
        for cat in cats:
            build_nerve(cat, cap=3).columns

    def test_columns_are_checked_as_they_are_built(self, monkeypatch):
        real = nerve_module._faces

        def broken(c, chain):
            # Every 1-chain's boundary set to one object, so d_1 . d_2 != 0.
            return {0: 1} if len(chain) == 1 else real(c, chain)

        monkeypatch.setattr(nerve_module, "_faces", broken)
        nerve = build_nerve(cyclic_group_category(3), cap=3)
        with pytest.raises(AssertionError, match="boundary squared nonzero in degree 2"):
            nerve.columns

    def test_sparse_check_agrees_with_dense_product(self):
        # Corrupt one entry at a time; the sparse d∘d check must raise
        # exactly when a dense product of consecutive boundaries is nonzero.
        cats = [
            terminal_category(),
            interval_category(),
            parallel_pair(),
            cyclic_group_category(2),
            cyclic_group_category(4),
            subset_poset_category(3),
            subset_poset_category(4),
            product(interval_category(), parallel_pair()),
        ]
        tripped = 0
        for cat in cats:
            nerve = build_nerve(cat, cap=3)
            for lower, upper in zip(nerve.boundaries[1:], nerve.boundaries[2:]):
                assert not any(v for row in lower.mul(upper).to_rows() for v in row)
            for p in range(1, nerve.cap + 1):
                for j in range(0, len(nerve.cells[p]), 3):
                    for i in range(len(nerve.cells[p - 1])):
                        columns = [list(layer) for layer in nerve.columns]
                        col = dict(columns[p][j])
                        col[i] = col.get(i, 0) + 1
                        columns[p][j] = {k: v for k, v in col.items() if v}
                        b = [
                            dense(len(nerve.cells[q - 1]), layer)
                            for q, layer in enumerate(columns) if q
                        ]
                        dense_nonzero = any(
                            v
                            for lower, upper in zip(b, b[1:])
                            for row in lower.mul(upper).to_rows()
                            for v in row
                        )
                        try:
                            nerve_module._assert_chain_complex(columns)
                            sparse = False
                        except AssertionError:
                            sparse = True
                        assert sparse == dense_nonzero, (cat.objects, p, i, j)
                        tripped += sparse
        assert tripped > 100
