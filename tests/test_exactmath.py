import doctest
import importlib
import pkgutil
import random
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cobcat
from cobcat.exactmath import (
    AbelianInvariants,
    GroupPresentation,
    IntMatrix,
    UnionFind,
    abelianize,
    quotient_group,
    reduce_lattice_rows,
    smith_diagonal,
    smith_normal_form,
)
from cobcat.monoidal import QQ, mat_det
from exactmath_helpers import cyclic_reduce, free_reduce, inverse_word, simplify_presentation


def determinant(m):
    return mat_det(QQ, m.to_rows())


def diagonal_matrix(diag, rows, cols):
    return IntMatrix.from_rows(
        [[diag[i] if i == j and i < len(diag) else 0 for j in range(cols)] for i in range(rows)]
    )


def check_snf(m):
    """Oracle: verify every contract of the SNF output by direct arithmetic."""
    diag, left, right = smith_normal_form(m)
    assert left.mul(m).mul(right) == diagonal_matrix(diag, m.rows, m.cols)
    assert abs(determinant(left)) == 1
    assert abs(determinant(right)) == 1
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d]
    assert diag[: len(nonzero)] == nonzero, "zeros must come last"
    for a, b in zip(nonzero, nonzero[1:]):
        assert b % a == 0
    return diag


class TestSmithNormalForm:
    def test_two_by_two(self):
        assert check_snf(IntMatrix.from_rows([[2, 0], [0, 3]])) == [1, 6]

    def test_identity(self):
        assert check_snf(IntMatrix.identity(3)) == [1, 1, 1]

    def test_zero(self):
        assert check_snf(IntMatrix.zeros(2, 2)) == [0, 0]

    def test_rectangular(self):
        assert check_snf(IntMatrix.from_rows([[1, 2, 3]])) == [1]
        assert check_snf(IntMatrix.from_rows([[2, 4], [6, 8], [10, 12]])) == [2, 4]

    def test_negative_entries(self):
        assert check_snf(IntMatrix.from_rows([[-2, 0], [0, -3]])) == [1, 6]

    def test_torsion_chain(self):
        m = IntMatrix.from_rows([[2, 0, 0], [0, 6, 0], [0, 0, 4]])
        assert check_snf(m) == [2, 2, 12]

    def test_random_fuzz(self):
        rng = random.Random(1794)
        for _ in range(150):
            rows = rng.randint(1, 12)
            cols = rng.randint(1, 12)
            m = IntMatrix.from_rows(
                [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            )
            check_snf(m)

    def test_deterministic(self):
        m = IntMatrix.from_rows([[4, 6, 2], [6, 4, 8], [2, 8, 4]])
        first = smith_normal_form(m)
        second = smith_normal_form(m)
        assert first[0] == second[0]
        assert first[1] == second[1] and first[2] == second[2]

    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=1, max_size=6),
            min_size=1,
            max_size=6,
        ).filter(lambda rows: len({len(r) for r in rows}) == 1)
    )
    @settings(max_examples=60, deadline=None)
    def test_property(self, rows):
        check_snf(IntMatrix.from_rows(rows))


def sparse_columns(m):
    return [{i: m.entry(i, j) for i in range(m.rows) if m.entry(i, j)} for j in range(m.cols)]


def nonzero_snf(m):
    return [d for d in smith_normal_form(m)[0] if d]


# Entries drawn mostly from zero and ±1, the case the sparse pass eliminates,
# with enough larger values to leave a residual block for the dense loop.
ENTRIES = st.one_of(
    st.sampled_from([0, 0, 0, 1, -1]), st.integers(min_value=-12, max_value=12)
)


@st.composite
def small_matrices(draw):
    rows = draw(st.integers(min_value=0, max_value=7))
    cols = draw(st.integers(min_value=0, max_value=7))
    entries = draw(st.lists(ENTRIES, min_size=rows * cols, max_size=rows * cols))
    return IntMatrix(rows, cols, entries)


class TestSmithDiagonal:
    def test_known(self):
        m = IntMatrix.from_rows([[2, 0, 0], [0, 6, 0], [0, 0, 4]])
        assert smith_diagonal(sparse_columns(m), 3) == [2, 2, 12]
        assert smith_diagonal([{0: 1, 1: 1}, {0: 1, 1: -1}], 2) == [1, 2]
        assert smith_diagonal([{}, {}, {}], 4) == []

    def test_empty_shapes(self):
        assert smith_diagonal([], 0) == []
        assert smith_diagonal([], 3) == []
        assert smith_diagonal([{}, {}], 0) == []

    def test_input_not_modified(self):
        columns = [{0: 1, 1: 2}, {0: 3, 2: 1}, {1: 4, 2: 6}]
        copy = [dict(col) for col in columns]
        smith_diagonal(columns, 3)
        assert columns == copy

    def test_unit_elimination_with_fill(self):
        # Every entry a unit, so elimination alone decides the rank.
        m = IntMatrix.from_rows([[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]])
        assert smith_diagonal(sparse_columns(m), 4) == nonzero_snf(m) == [1, 2, 2, 4]

    @given(small_matrices())
    @settings(max_examples=300, deadline=None)
    def test_matches_smith_normal_form(self, m):
        assert smith_diagonal(sparse_columns(m), m.rows) == nonzero_snf(m)

    @given(small_matrices(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_zero_rows_and_columns(self, m, data):
        # Pad with zero rows and columns at drawn positions.
        rows = m.to_rows()
        for _ in range(data.draw(st.integers(0, 3))):
            rows.insert(data.draw(st.integers(0, len(rows))), [0] * m.cols)
        width = m.cols
        for _ in range(data.draw(st.integers(0, 3))):
            at = data.draw(st.integers(0, width))
            rows = [row[:at] + [0] + row[at:] for row in rows]
            width += 1
        padded = IntMatrix(len(rows), width, [v for row in rows for v in row])
        assert smith_diagonal(sparse_columns(padded), padded.rows) == nonzero_snf(m)


class TestDeterminant:
    def test_known(self):
        assert determinant(IntMatrix.identity(4)) == 1
        assert determinant(IntMatrix.from_rows([[2, 1], [1, 1]])) == 1
        assert determinant(IntMatrix.from_rows([[1, 2], [2, 4]])) == 0

    def test_against_permutation_expansion(self):
        from itertools import permutations

        rng = random.Random(7)
        for _ in range(30):
            n = rng.randint(1, 4)
            rows = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            expected = 0
            for perm in permutations(range(n)):
                sign = 1
                for i in range(n):
                    for j in range(i + 1, n):
                        if perm[i] > perm[j]:
                            sign = -sign
                term = sign
                for i in range(n):
                    term *= rows[i][perm[i]]
                expected += term
            assert determinant(IntMatrix.from_rows(rows)) == expected


class TestAbelianInvariants:
    def test_canonical_validation(self):
        with pytest.raises(ValueError):
            AbelianInvariants(-1, ())
        with pytest.raises(ValueError):
            AbelianInvariants(0, (1,))
        with pytest.raises(ValueError):
            AbelianInvariants(0, (4, 2))

    def test_describe(self):
        assert AbelianInvariants(0, ()).describe() == "0"
        assert AbelianInvariants(1, ()).describe() == "Z"
        assert AbelianInvariants(2, (2, 6)).describe() == "Z^2 + Z/2 + Z/6"

    def test_from_relation_diagonal(self):
        inv = AbelianInvariants.from_relation_diagonal([1, 2, 0], 4)
        assert inv == AbelianInvariants(2, (2,))


class TestWords:
    def test_free_reduce(self):
        assert free_reduce((1, -1)) == ()
        assert free_reduce((1, 2, -2, -1, 3)) == (3,)
        assert free_reduce((1, 2, -1)) == (1, 2, -1)

    def test_cyclic_reduce(self):
        assert cyclic_reduce((1, 2, -1)) == (2,)
        assert cyclic_reduce((2, 1, -1, -2)) == ()

    def test_inverse(self):
        w = (1, -2, 3)
        assert inverse_word(w) == (-3, 2, -1)
        assert free_reduce(w + inverse_word(w)) == ()


class TestPresentations:
    def test_validation(self):
        with pytest.raises(ValueError):
            GroupPresentation(("a", "a"), ())
        with pytest.raises(ValueError):
            GroupPresentation(("a",), ((2,),))
        with pytest.raises(ValueError):
            GroupPresentation(("a",), ((0,),))

    def test_abelianize_cyclic(self):
        p = GroupPresentation(("a",), ((1, 1),))
        assert abelianize(p) == AbelianInvariants(0, (2,))

    def test_abelianize_free(self):
        p = GroupPresentation(("a", "b"), ())
        assert abelianize(p) == AbelianInvariants(2, ())

    def test_abelianize_commutator_killed(self):
        p = GroupPresentation(("a", "b"), ((1, 2, -1, -2),))
        assert abelianize(p) == AbelianInvariants(2, ())


class TestSimplify:
    def test_kill_single_letter(self):
        p = GroupPresentation(("a", "b"), ((2,),))
        q = simplify_presentation(p)
        assert q.generators == ("a",)
        assert q.relators == ()

    def test_length_two_substitution(self):
        p = GroupPresentation(("a", "b"), ((1, 2),))
        q = simplify_presentation(p)
        assert q.generators == ("a",)
        assert q.relators == ()

    def test_effort_zero_is_noop(self):
        p = GroupPresentation(("a", "b"), ((1, 2), (1, -1)))
        assert simplify_presentation(p, effort=0) == p

    def test_square_relator_survives(self):
        p = GroupPresentation(("a",), ((1, 1),))
        q = simplify_presentation(p)
        assert q.generators == ("a",)
        assert q.relators == ((1, 1),)

    def test_chain_collapse(self):
        # b = a, c = b, plus c itself trivial: everything collapses.
        p = GroupPresentation(("a", "b", "c"), ((1, -2), (2, -3), (3,)))
        q = simplify_presentation(p)
        assert q.generators == ()

    def test_abelianization_preserved_fuzz(self):
        rng = random.Random(2026)
        for _ in range(120):
            ngens = rng.randint(1, 6)
            gens = tuple(f"g{i}" for i in range(ngens))
            rels = []
            for _ in range(rng.randint(0, 8)):
                length = rng.randint(1, 10)
                rels.append(
                    tuple(
                        rng.choice([1, -1]) * rng.randint(1, ngens)
                        for _ in range(length)
                    )
                )
            p = GroupPresentation(gens, tuple(rels))
            q = simplify_presentation(p, effort=rng.choice([1, 3, 100]))
            assert abelianize(p) == abelianize(q)


class TestUnionFind:
    def test_basic(self):
        uf = UnionFind(4)
        assert uf.union(0, 1)
        assert not uf.union(1, 0)
        assert uf.groups() == [[0, 1], [2], [3]]

    def test_parity(self):
        uf = UnionFind(4)
        assert uf.union(0, 1, parity=1)
        assert uf.union(1, 2, parity=1)
        assert uf.find(0)[1] == uf.find(2)[1] != uf.find(1)[1]
        assert not uf.union(0, 2)
        assert not uf.odd[uf.find(0)[0]]
        uf.union(0, 2, parity=1)  # an odd cycle
        assert uf.odd[uf.find(1)[0]]
        uf.union(2, 3)
        assert uf.odd[uf.find(3)[0]]


class TestLatticeReduction:
    def test_span_preserved(self):
        rng = random.Random(99)
        for _ in range(60):
            width = rng.randint(1, 6)
            vecs = [
                [rng.randint(-6, 6) for _ in range(width)]
                for _ in range(rng.randint(0, 10))
            ]
            basis = reduce_lattice_rows(vecs, width)
            assert len(basis) <= width
            # Same quotient group either way: that is what span equality means
            # for our purposes, and SNF of both full and reduced families
            # must agree.
            inv_full, _ = quotient_group(vecs, width)
            inv_reduced, _ = quotient_group(basis, width)
            assert inv_full == inv_reduced

    def test_quotient_classes(self):
        inv, classes = quotient_group([[2, 0]], 2)
        assert inv == AbelianInvariants(1, (2,))
        # e0 has order 2, e1 is free.
        assert classes[0][0] == (1, 2)
        assert classes[0][1][0] == 0
        assert classes[1][0] == (0, 2)
        assert abs(classes[1][1][0]) == 1
        assert classes[1][1][1] == 0

    def test_quotient_no_relators(self):
        inv, classes = quotient_group([], 3)
        assert inv == AbelianInvariants(3, ())
        assert classes[0] == [(1, 0), (0, 0), (0, 0)]


relator_families = st.integers(0, 6).flatmap(
    lambda width: st.tuples(
        st.just(width),
        st.lists(st.lists(st.integers(-6, 6), min_size=width, max_size=width), max_size=6),
    )
)


class TestQuotientClasses:
    @settings(max_examples=300, deadline=None)
    @given(relator_families)
    def test_classes_match_smith_normal_form(self, family):
        width, relators = family
        inv, classes = quotient_group(relators, width)
        # Oracle: the left transform of smith_normal_form on the transposed
        # reduced rows, read off the way quotient_group reads its own.
        rows = reduce_lattice_rows(relators, width)
        transposed = [[row[i] for row in rows] for i in range(width)]
        diag, left, _ = smith_normal_form(IntMatrix.from_rows(transposed))
        assert inv == AbelianInvariants.from_relation_diagonal(diag, width)
        moduli = [diag[i] if i < len(diag) else 0 for i in range(width)]
        keep = [i for i in range(width) if moduli[i] != 1]
        lrows = left.to_rows()
        expected = [
            [(lrows[i][j] % moduli[i] if moduli[i] else lrows[i][j], moduli[i]) for i in keep]
            for j in range(width)
        ]
        assert classes == expected

    @settings(max_examples=300, deadline=None)
    @given(relator_families)
    def test_every_relator_maps_to_zero(self, family):
        width, relators = family
        _, classes = quotient_group(relators, width)
        moduli = [d for _, d in classes[0]] if classes else []
        for row in relators:
            for k, d in enumerate(moduli):
                value = sum(r * classes[j][k][0] for j, r in enumerate(row))
                assert (value % d if d else value) == 0


# The tests/ helper modules hold docstrings moved out of cobcat, so their
# examples run too.
@pytest.mark.parametrize(
    "name",
    sorted(f"cobcat.{m.name}" for m in pkgutil.iter_modules(cobcat.__path__))
    + sorted(p.stem for p in Path(__file__).parent.glob("*.py") if not p.stem.startswith("test_")),
)
def test_doctests(name):
    failures, _ = doctest.testmod(importlib.import_module(name))
    assert failures == 0
