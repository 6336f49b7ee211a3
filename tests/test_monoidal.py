import functools
import itertools
import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cobcat.cob1 import (
    cap_matching,
    compose_abstract,
    cup_matching,
    identity_matching,
    matching,
    tensor_matching,
)
from cobcat.exactmath import AbelianInvariants
from cobcat.limits import ResourceLimitExceeded
from cobcat.monoidal import (
    QQ,
    AbGroup,
    FrobeniusDatum,
    PicardData,
    PrimeField,
    cob1_picard,
    coords_from_pairs,
    evaluate_restricted,
    extend_to_full,
    field_from_spec,
    frobenius,
    frobenius_from_json,
    graded_lines_picard,
    k_invariant,
    lines_picard,
    mat_det,
    mat_from_rows,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_to_json,
    minus_one_class,
    picard,
    picard_equivalent,
    picard_from_json,
    units_invariants,
)
import monoidal_helpers
from monoidal_helpers import (
    associator_oracle,
    carry_cocycle,
    diagonal_picards,
    flag_orbits,
    frobenius_to_json,
    invertibility_check,
    leibniz_det,
    mat_kron,
    mat_to_json_per_entry,
    mat_transpose,
    picard_from_columns,
    picard_to_json,
)

F3 = PrimeField(3)
F5 = PrimeField(5)


def random_matching(rng, m, n, max_circles=2):
    points = list(range(m + n))
    rng.shuffle(points)
    pairs = [(points[2 * i], points[2 * i + 1]) for i in range((m + n) // 2)]
    return matching(m, n, pairs, rng.randrange(max_circles + 1))


def random_symmetric(rng, fld, dim, span=4):
    rows = [[fld.zero()] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            v = fld.from_int(rng.randrange(-span, span + 1))
            rows[i][j] = rows[j][i] = v
    return tuple(tuple(row) for row in rows)


class TestFields:
    def test_rationals(self):
        assert QQ.parse("3/4") + QQ.parse(1) == QQ.parse("7/4")
        assert QQ.inv(QQ.parse(-2)) == QQ.parse("-1/2")
        assert QQ.to_json(QQ.parse("3/4")) == "3/4"
        assert QQ.to_json(QQ.parse(5)) == 5
        with pytest.raises(ZeroDivisionError):
            QQ.inv(QQ.zero())

    def test_prime_field(self):
        assert F5.add(3, 4) == 2
        assert F5.inv(3) == 2
        assert F5.parse("1/2") == 3
        assert F5.parse(-1) == 4
        with pytest.raises(ZeroDivisionError):
            F5.inv(0)
        with pytest.raises(ValueError):
            PrimeField(4)
        with pytest.raises(ValueError):
            PrimeField(1)

    def test_primality_matches_trial_division(self):
        for p in range(-3, 5000):
            prime = p >= 2 and all(p % d for d in range(2, int(p**0.5) + 1))
            if prime:
                PrimeField(p)
            else:
                with pytest.raises(ValueError):
                    PrimeField(p)
        # Strong pseudoprimes to the first 4, 5, 6 and 9 prime bases.
        for n in (3215031751, 2152302898747, 3474749660383, 3825123056546413051):
            with pytest.raises(ValueError):
                PrimeField(n)

    def test_large_prime_field(self):
        big = field_from_spec("F100000000000000000039")
        assert big.inv(2) * 2 % big.p == 1
        with pytest.raises(ResourceLimitExceeded):
            PrimeField(318665857834031151167461)

    def test_field_from_spec(self):
        assert field_from_spec("Q") is QQ
        assert field_from_spec("F7") == PrimeField(7)
        assert field_from_spec("7") == PrimeField(7)
        with pytest.raises(ValueError):
            field_from_spec("R")

    @given(st.integers(min_value=-30, max_value=30))
    def test_parse_matches_residue(self, k):
        assert F3.parse(k) == k % 3


class TestMatrices:
    def test_det_and_inverse_rational(self):
        a = mat_from_rows(QQ, [[2, 1], [1, 1]])
        assert mat_det(QQ, a) == QQ.one()
        assert mat_mul(QQ, a, mat_inv(QQ, a)) == mat_identity(QQ, 2)

    def test_det_and_inverse_mod_p(self):
        a = mat_from_rows(F5, [[0, 1], [1, 0]])
        assert mat_det(F5, a) == 4
        assert mat_mul(F5, mat_inv(F5, a), a) == mat_identity(F5, 2)

    def test_singular(self):
        a = mat_from_rows(QQ, [[1, 2], [2, 4]])
        assert mat_det(QQ, a) == QQ.zero()
        with pytest.raises(ValueError):
            mat_inv(QQ, a)

    @pytest.mark.parametrize("p", [None, 2, 3, 5, 7])
    def test_det_and_inverse_match_leibniz(self, p):
        # Sparse entries put zeros on the diagonal, so pivots need row swaps.
        fld = QQ if p is None else PrimeField(p)
        rng = random.Random(23)
        swapped = 0
        for _ in range(300):
            n = rng.randint(0, 5)
            a = tuple(
                tuple(fld.from_int(rng.randint(-3, 3)) if rng.random() < 0.4 else fld.zero()
                      for _ in range(n))
                for _ in range(n)
            )
            det = mat_det(fld, a)
            assert det == leibniz_det(fld, a)
            if det == fld.zero():
                with pytest.raises(ValueError, match="singular"):
                    mat_inv(fld, a)
            else:
                assert mat_mul(fld, a, mat_inv(fld, a)) == mat_identity(fld, n)
                swapped += n > 0 and a[0][0] == fld.zero()
        assert swapped >= 5

    def test_kron(self):
        a = mat_from_rows(QQ, [[1, 2]])
        b = mat_from_rows(QQ, [[3], [4]])
        assert mat_kron(QQ, a, b) == mat_from_rows(QQ, [[3, 6], [4, 8]])
        assert mat_transpose(mat_kron(QQ, a, b)) == mat_kron(
            QQ, mat_transpose(a), mat_transpose(b)
        )

    def test_det_multiplicative(self):
        rng = random.Random(11)
        for _ in range(40):
            a = tuple(
                tuple(F5.from_int(rng.randrange(5)) for _ in range(3))
                for _ in range(3)
            )
            b = tuple(
                tuple(F5.from_int(rng.randrange(5)) for _ in range(3))
                for _ in range(3)
            )
            assert mat_det(F5, mat_mul(F5, a, b)) == F5.mul(
                mat_det(F5, a), mat_det(F5, b)
            )


class TestAbGroup:
    def test_arithmetic(self):
        g = AbGroup(AbelianInvariants(1, (4,)))
        assert g.add((2, 3), (1, 2)) == (3, 1)
        assert g.neg((1, 1)) == (-1, 3)
        assert g.scale(3, (1, 2)) == (3, 2)
        assert g.zero() == (0, 0)
        assert g.generators() == ((1, 0), (0, 1))
        assert g.generator_order(0) is None
        assert g.generator_order(1) == 4

    def test_orders(self):
        g = AbGroup(AbelianInvariants(0, (2, 4)))
        assert g.order() == 8
        assert AbGroup(AbelianInvariants(1, ())).order() is None
        assert len(list(g.elements())) == 8

    def test_validation(self):
        with pytest.raises(ValueError):
            AbGroup(AbelianInvariants(0, (3, 2)))
        with pytest.raises(ValueError):
            AbGroup(AbelianInvariants(0, (1,)))
        g = AbGroup(AbelianInvariants(0, (2,)))
        with pytest.raises(ValueError):
            g.normalize((1, 2))
        with pytest.raises(ValueError):
            AbGroup(AbelianInvariants(1, ())).elements()

    def test_coords_from_pairs(self):
        g = AbGroup(AbelianInvariants(1, (2,)))
        assert coords_from_pairs(((1, 2), (3, 0)), g) == (3, 1)
        with pytest.raises(ValueError):
            coords_from_pairs(((1, 0),), g)

    @given(
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-9, max_value=9),
        st.integers(min_value=-9, max_value=9),
    )
    @settings(max_examples=60, deadline=None)
    def test_group_laws(self, a, b, c):
        g = AbGroup(AbelianInvariants(1, (2, 6)))
        x, y, z = (a, b, c), (c, a, b), (b, c, a)
        assert g.add(x, g.add(y, z)) == g.add(g.add(x, y), z)
        assert g.add(x, y) == g.add(y, x)
        assert g.add(x, g.neg(x)) == g.zero()


class TestPicardData:
    def test_antisymmetry_enforced(self):
        with pytest.raises(ValueError):
            picard(
                AbelianInvariants(0, (2,)),
                AbelianInvariants(0, (4,)),
                (((1,),),),
            )

    def test_order_compatibility_enforced(self):
        # 2 * c(g, g) must vanish for an order-2 generator.
        with pytest.raises(ValueError):
            picard(
                AbelianInvariants(0, (2,)),
                AbelianInvariants(0, (3,)),
                (((1,),),),
            )

    def test_biadditive_extension(self):
        p = graded_lines_picard(5)
        assert p.c_of((1,), (1,)) == (2,)
        assert p.c_of((0,), (1,)) == (0,)
        assert p.c_of((2,), (1,)) == (0,)

    def test_h_default_zero(self):
        # Entries absent from the table are zero; no table is stored.
        assert graded_lines_picard(5).h_table == ()

    def test_h_cup_cube_cocycle(self):
        # h(x, y, z) = xyz is the standard nonzero cocycle on Z/2; the
        # table stores each coordinate as its canonical residue.
        p = picard(
            AbelianInvariants(0, (2,)),
            AbelianInvariants(0, (2,)),
            (((0,),),),
            (((3,), (-1,), (1,), (5,)),),
        )
        assert p.h_table == (((1,), (1,), (1,), (1,)),)

    def test_h_normalization_enforced(self):
        with pytest.raises(ValueError):
            picard(
                AbelianInvariants(0, (2,)),
                AbelianInvariants(0, (2,)),
                (((0,),),),
                (((0,), (1,), (1,), (1,)),),
            )

    def test_h_cocycle_identity_enforced(self):
        # A bare single-entry table off the cup cube fails the identity.
        with pytest.raises(ValueError):
            picard(
                AbelianInvariants(0, (4,)),
                AbelianInvariants(0, (2,)),
                (((0,),),),
                (((1,), (1,), (1,), (1,)),),
            )

    def test_json_round_trip(self):
        p = graded_lines_picard(5)
        assert picard_from_json(picard_to_json(p)) == p

    @pytest.mark.parametrize(
        "pi0, c",
        [
            ({"rank": True, "torsion": []}, [[[0]]]),
            ({"rank": 0, "torsion": [2.0]}, [[[0]]]),
            ({"rank": 0, "torsion": [2]}, [[[1.5]]]),
        ],
    )
    def test_json_refuses_non_integers(self, pi0, c):
        data = {"pi0": pi0, "pi1": {"rank": 0, "torsion": [4]}, "c": c, "h": []}
        with pytest.raises(ValueError):
            picard_from_json(data)


# pi0 of order at most 8, and a few small pi1, free parts included.
ASSOCIATOR_PI0 = [(), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (2, 2), (2, 4), (2, 2, 2)]
ASSOCIATOR_PI1 = [(0, (2,)), (0, (3,)), (0, (4,)), (0, (2, 2)), (1, ()), (1, (2,))]


@st.composite
def associator_tables(draw):
    """A pi0, a pi1 and an associator table: random and sparse, or a carry
    cocycle; either may then have one entry changed or one added."""
    pi0 = AbelianInvariants(0, draw(st.sampled_from(ASSOCIATOR_PI0)))
    pi1 = AbelianInvariants(*draw(st.sampled_from(ASSOCIATOR_PI1)))

    def element(inv):
        # Coordinates off their canonical residues, so normalization counts.
        return tuple(draw(st.integers(-3, 3)) for _ in range(inv.rank)) + tuple(
            draw(st.integers(0, d - 1)) + d * draw(st.integers(-1, 1)) for d in inv.torsion
        )

    def entry():
        return element(pi0), element(pi0), element(pi0), element(pi1)

    if pi0.torsion and draw(st.integers(0, 2)):
        i = draw(st.integers(0, len(pi0.torsion) - 1))
        j = draw(st.integers(0, len(pi0.torsion) - 1))
        # g has d_i g = 0: zero on the free part of pi1, and a multiple of
        # t / gcd(t, d_i) on each torsion coordinate of order t.
        d = pi0.torsion[i]
        g = (0,) * pi1.rank + tuple(
            draw(st.integers(0, t)) * (t // math.gcd(t, d)) for t in pi1.torsion
        )
        rows = carry_cocycle(pi0, i, j, g)
    else:
        rows = [entry() for _ in range(draw(st.integers(1, 5)))]
    change = draw(st.sampled_from(["none", "none", "value", "add"]))
    if change == "value" and rows:
        k = draw(st.integers(0, len(rows) - 1))
        rows[k] = rows[k][:3] + (element(pi1),)
    elif change == "add":
        rows.append(entry())
    return pi0, pi1, rows


class TestAssociatorCheck:
    """``PicardData._validate_h`` walks the pentagon on element indices; the
    oracle walks it on element tuples with group arithmetic."""

    @settings(max_examples=80, deadline=None)
    @given(associator_tables())
    def test_agrees_with_the_tuple_loop(self, table):
        pi0, pi1, rows = table
        expected = associator_oracle(pi0, pi1, rows)
        zero = [[(0,) * (pi1.rank + len(pi1.torsion))] * len(pi0.torsion)] * len(pi0.torsion)
        if expected is None:
            picard(pi0, pi1, zero, rows)
        else:
            with pytest.raises(ValueError) as info:
                picard(pi0, pi1, zero, rows)
            assert str(info.value) == expected

    def test_carry_cocycles_are_accepted(self):
        # The carry cocycle over Z/8 with values in Z/4 and Z/2 x Z/2.
        pi0 = AbelianInvariants(0, (8,))
        for pi1, g in [(AbelianInvariants(0, (4,)), (1,)), (AbelianInvariants(0, (2, 2)), (1, 1))]:
            rows = carry_cocycle(pi0, 0, 0, g)
            assert associator_oracle(pi0, pi1, rows) is None
            assert len(picard(pi0, pi1, (((0,) * len(g),),), rows).h_table) == len(rows)

    @pytest.mark.parametrize("order, modulus", [(16, 2), (17, 17)])
    def test_large_cyclic_tables_load(self, monkeypatch, order, modulus):
        # 16^4 = 65,536 and 17^4 = 83,521 quadruples, under the default
        # ceiling; a limit of 16^4 of its own once refused Z/17.
        monkeypatch.delenv("COBCAT_MAX_CELLS", raising=False)
        pi0, pi1 = AbelianInvariants(0, (order,)), AbelianInvariants(0, (modulus,))
        rows = carry_cocycle(pi0, 0, 0, (1,))
        start = time.perf_counter()
        p = picard(pi0, pi1, (((0,),),), rows)
        assert time.perf_counter() - start < 1
        assert len(p.h_table) == len(rows)

    def test_quadruples_are_priced(self, monkeypatch):
        # Z/4 has 4^4 = 256 quadruples; the ceiling is inclusive.
        pi0, pi1 = AbelianInvariants(0, (4,)), AbelianInvariants(0, (2,))
        rows = carry_cocycle(pi0, 0, 0, (1,))
        monkeypatch.setenv("COBCAT_MAX_CELLS", "256")
        picard(pi0, pi1, (((0,),),), rows)
        monkeypatch.setenv("COBCAT_MAX_CELLS", "255")
        with pytest.raises(ResourceLimitExceeded) as info:
            picard(pi0, pi1, (((0,),),), rows)
        assert str(info.value) == (
            "the associator cocycle check would visit 4^4 = 256 quadruples, "
            "over the ceiling of 255 (COBCAT_MAX_CELLS)"
        )


class TestKInvariant:
    def test_lines_trivial(self):
        p = lines_picard(5)
        assert k_invariant(p, ()) == p.pi1.zero()

    def test_graded_lines(self):
        assert k_invariant(graded_lines_picard(5), (1,)) == minus_one_class(5)
        assert k_invariant(graded_lines_picard(5, twisted=False), (1,)) == (0,)
        assert k_invariant(graded_lines_picard(7), (1,)) == (3,)

    def test_mod_two_factorization(self):
        p = graded_lines_picard(13)
        for x in (0, 1):
            for y in (0, 1):
                assert k_invariant(p, ((x + 2 * y) % 2,)) == k_invariant(p, (x,))

    def test_units_group_shapes(self):
        assert units_invariants(2) == AbelianInvariants(0, ())
        assert units_invariants(5) == AbelianInvariants(0, (4,))
        assert minus_one_class(2) == ()

    def test_diagonal_additivity(self):
        # Antisymmetry makes x -> c(x, x) additive; spot-check on Z/2 + Z/4.
        p = picard(
            AbelianInvariants(0, (2, 4)),
            AbelianInvariants(0, (4,)),
            (((2,), (2,)), ((2,), (2,))),
        )
        g = p.pi0
        for x in g.elements():
            for y in g.elements():
                lhs = k_invariant(p, g.add(x, y))
                rhs = p.pi1.add(k_invariant(p, x), k_invariant(p, y))
                assert lhs == rhs


class TestPicardEquivalence:
    def test_reflexive(self):
        for p in (lines_picard(5), graded_lines_picard(5), graded_lines_picard(2)):
            assert picard_equivalent(p, p)

    def test_twist_detected_mod_5(self):
        assert not picard_equivalent(
            graded_lines_picard(5), graded_lines_picard(5, twisted=False)
        )

    def test_twist_invisible_mod_2(self):
        assert picard_equivalent(
            graded_lines_picard(2), graded_lines_picard(2, twisted=False)
        )

    def test_object_groups_must_match(self):
        assert not picard_equivalent(lines_picard(5), graded_lines_picard(5))

    def test_unit_groups_must_match(self):
        assert not picard_equivalent(graded_lines_picard(5), graded_lines_picard(7))

    def test_isomorphism_can_permute_generators(self):
        # On Z/2 + Z/2 the k-invariant can sit on either generator; a basis
        # swap intertwines the two tables, but the zero table stays apart.
        pi0 = AbelianInvariants(0, (2, 2))
        pi1 = AbelianInvariants(0, (2,))
        z, o = (0,), (1,)
        first = picard(pi0, pi1, ((o, z), (z, z)))
        second = picard(pi0, pi1, ((z, z), (z, o)))
        both = picard(pi0, pi1, ((o, z), (z, o)))
        trivial = picard(pi0, pi1, ((z, z), (z, z)))
        assert picard_equivalent(first, second)
        assert picard_equivalent(first, both)
        assert not picard_equivalent(first, trivial)

    def test_large_cyclic_answers(self):
        g = AbelianInvariants(0, (10**8,))
        p = picard(g, g, (((0,),),))
        start = time.perf_counter()
        assert picard_equivalent(p, p)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("rank", [2, 3])
    def test_high_rank_answers(self, rank):
        # On Z^rank the k-invariant can sit on any free generator: a change
        # of basis moves it, but nothing moves it to zero.
        pi0, pi1 = AbelianInvariants(rank, ()), AbelianInvariants(0, (2,))
        z, o = (0,), (1,)
        table = lambda *diag: [[diag[i] if i == j else z for j in range(rank)] for i in range(rank)]
        first = picard(pi0, pi1, table(o, *[z] * (rank - 1)))
        last = picard(pi0, pi1, table(*[z] * (rank - 1), o))
        every = picard(pi0, pi1, table(*[o] * rank))
        trivial = picard(pi0, pi1, table(*[z] * rank))
        assert picard_equivalent(first, last)
        assert picard_equivalent(first, every)
        assert not picard_equivalent(first, trivial)


# Groups with two 2-adic exponent levels each, paired every way.
LEVELS = (AbelianInvariants(0, (2, 4)), AbelianInvariants(1, (2,)), AbelianInvariants(1, (2, 4)))

# A sample of the group pairs of order at most 8 and free rank at most 1,
# beyond LEVELS: a third exponent level, odd torsion, repeated factors and
# trivial groups.
SMALL = [
    (AbelianInvariants(0, (8,)), AbelianInvariants(0, (2, 4))),
    (AbelianInvariants(0, (2, 4)), AbelianInvariants(0, (8,))),
    (AbelianInvariants(0, (2, 2, 2)), AbelianInvariants(0, (4,))),
    (AbelianInvariants(0, (2, 2)), AbelianInvariants(1, (4,))),
    (AbelianInvariants(1, (4,)), AbelianInvariants(0, (2, 2))),
    (AbelianInvariants(1, ()), AbelianInvariants(0, (8,))),
    (AbelianInvariants(0, (6,)), AbelianInvariants(1, (6,))),
    (AbelianInvariants(1, (3,)), AbelianInvariants(0, (2, 2))),
    (AbelianInvariants(0, (7,)), AbelianInvariants(0, (2,))),
    (AbelianInvariants(0, ()), AbelianInvariants(0, (2,))),
    (AbelianInvariants(0, (2,)), AbelianInvariants(0, ())),
]

# Free rank 2 and 3, where the search refuses, with two or three exponent
# levels on each side and odd torsion.
HIGH_RANK = [
    (AbelianInvariants(2, (2, 4)), AbelianInvariants(0, (2, 4))),
    (AbelianInvariants(3, (2, 4)), AbelianInvariants(0, (2, 4))),
    (AbelianInvariants(3, (4,)), AbelianInvariants(1, (2, 4))),
    (AbelianInvariants(2, (2,)), AbelianInvariants(0, (2, 4, 8))),
    (AbelianInvariants(2, (3, 6)), AbelianInvariants(0, (6, 12))),
]


class TestPicardEquivalenceOracles:
    """``picard_equivalent`` splits the diagonal tables on a pair of groups
    into the same classes as an oracle: each table against the first table
    of its class, and the first tables against each other."""

    @pytest.fixture
    def search(self, monkeypatch):
        # The search lists the same isomorphisms and applies them to the same
        # elements for every pair on one pair of groups; remembering those
        # pure results keeps the corpus to a few seconds.
        for owner, name in [
            (monoidal_helpers, "iso_candidates"),
            (monoidal_helpers, "apply_hom"),
            (PicardData, "c_of"),
        ]:
            monkeypatch.setattr(owner, name, functools.cache(getattr(owner, name)))
        return monoidal_helpers.search_equivalent

    @pytest.mark.parametrize(
        "pi0, pi1",
        list(itertools.product(LEVELS, repeat=2)) + SMALL,
        ids=lambda g: g.describe(),
    )
    def test_agrees_with_search(self, search, pi0, pi1):
        # A search that finds no isomorphism lists them all, so the first
        # tables are checked in sequence; the flag orbits below check every
        # pair of them.
        firsts = []
        for p in diagonal_picards(pi0, pi1):
            first = next((f for f in firsts if picard_equivalent(f, p)), None)
            if first is None:
                firsts.append(p)
            else:
                assert search(first, p), (first.c_table, p.c_table)
        for a, b in zip(firsts, firsts[1:]):
            assert not search(a, b), (a.c_table, b.c_table)

    @pytest.mark.parametrize(
        "pi0, pi1",
        HIGH_RANK + list(itertools.product(LEVELS, repeat=2)),
        ids=lambda g: g.describe(),
    )
    def test_agrees_with_flag_orbits(self, pi0, pi1):
        first = flag_orbits(pi0, pi1)
        data = {k: picard_from_columns(pi0, pi1, k) for k in first}
        for k, f in first.items():
            assert picard_equivalent(data[f], data[k]), (f, k)
        for a, b in itertools.combinations(sorted(set(first.values())), 2):
            assert not picard_equivalent(data[a], data[b]), (a, b)


class TestCob1Picard:
    def test_groups(self):
        der = cob1_picard(8)
        assert der.data.pi0.invariants == AbelianInvariants(0, (2,))
        assert der.data.pi1.invariants == AbelianInvariants(1, ())

    def test_k_vanishes_with_derivation(self):
        der = cob1_picard(8)
        assert der.k_class == (0,)
        assert k_invariant(der.data, (1,)) == (0,)
        assert any("compose(cup, swap) == cup" in line for line in der.derivation)
        assert any("torsion-free" in line for line in der.derivation)

    def test_swap_absorption_is_real(self):
        swap = matching(2, 2, [(0, 3), (1, 2)])
        assert compose_abstract(cup_matching(), swap) == cup_matching()
        assert compose_abstract(swap, cap_matching()) == cap_matching()
        assert compose_abstract(swap, swap) == identity_matching(2)

    def test_json(self):
        doc = cob1_picard(8).to_json()
        assert doc["pi0"] == {"rank": 0, "torsion": [2]}
        assert doc["pi1"] == {"rank": 1, "torsion": []}
        assert doc["k"] == [0]
        assert doc["derivation"]


class TestFrobeniusDatum:
    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            frobenius(QQ, [[0, 1], [2, 0]])
        with pytest.raises(ValueError):
            frobenius(QQ, [[0, 1]])

    def test_json_round_trip(self):
        t = frobenius(F5, [[1, 2], [2, 0]])
        assert frobenius_from_json(frobenius_to_json(t)) == t
        t2 = frobenius(QQ, [["1/2", 0], [0, 3]])
        assert frobenius_from_json(frobenius_to_json(t2)) == t2


class TestEvaluateRestricted:
    def test_identity(self):
        t = frobenius(QQ, [[1, 0], [0, 1]])
        assert evaluate_restricted(t, identity_matching(2)) == mat_identity(QQ, 4)

    def test_cup_is_the_pairing_vector(self):
        t = frobenius(QQ, [[1, 2], [2, 5]])
        vec = evaluate_restricted(t, cup_matching())
        flat = [row[0] for row in vec]
        assert flat == [QQ.parse(v) for v in (1, 2, 2, 5)]

    def test_functorial(self):
        rng = random.Random(7)
        t = frobenius(F5, [[1, 2], [2, 0]])
        for _ in range(60):
            m = rng.randrange(3)
            mid = m + 2 * rng.randrange(2)
            n = mid + 2 * rng.randrange(2)
            w1 = random_restricted(rng, m, mid)
            w2 = random_restricted(rng, mid, n)
            lhs = evaluate_restricted(t, compose_abstract(w1, w2))
            rhs = mat_mul(F5, evaluate_restricted(t, w2), evaluate_restricted(t, w1))
            assert lhs == rhs

    def test_monoidal(self):
        t = frobenius(F3, [[1, 1], [1, 2]])
        w1 = identity_matching(1)
        w2 = cup_matching()
        lhs = evaluate_restricted(t, tensor_matching(w1, w2))
        rhs = mat_kron(F3, evaluate_restricted(t, w1), evaluate_restricted(t, w2))
        assert lhs == rhs

    def test_degenerate_pairing(self):
        t = frobenius(QQ, [[0, 0], [0, 0]])
        assert not extend_to_full(t).extends
        assert evaluate_restricted(t, cup_matching()) == ((0,),) * 4
        assert evaluate_restricted(t, identity_matching(1)) == mat_identity(QQ, 2)

    def test_refuses_caps_and_circles(self):
        t = frobenius(QQ, [[1, 0], [0, 1]])
        for w in (
            cap_matching(),
            matching(0, 0, [], circles=1),
            matching(1, 1, [(0, 1)], circles=1),
        ):
            with pytest.raises(ValueError):
                evaluate_restricted(t, w)


def random_restricted(rng, m, n):
    """A random matching from m to n points with no caps and no circles."""
    image = rng.sample(range(n), m)
    rest = [v for v in range(n) if v not in image]
    rng.shuffle(rest)
    pairs = [(i, m + v) for i, v in enumerate(image)]
    pairs += [(m + rest[2 * i], m + rest[2 * i + 1]) for i in range(len(rest) // 2)]
    return matching(m, n, pairs)


class TestExtension:
    def test_identity_pairing_extends(self):
        ext = extend_to_full(frobenius(QQ, [[1, 0], [0, 1]]))
        assert ext.extends
        assert ext.evaluator.circle_value() == QQ.parse(2)

    def test_degenerate_refused(self):
        ext = extend_to_full(frobenius(QQ, [[0, 0], [0, 1]]))
        assert not ext.extends
        assert ext.evaluator is None
        assert "degenerate" in ext.reason

    def test_off_diagonal_mod_3(self):
        ext = extend_to_full(frobenius(F3, [[0, 1], [1, 0]]))
        assert ext.extends
        assert ext.evaluator.circle_value() == 2

    def test_zig_zag(self):
        for t in (
            frobenius(QQ, [[1, 2], [2, 5]]),
            frobenius(F5, [[0, 1], [1, 3]]),
        ):
            ev = extend_to_full(t).evaluator
            fld = t.field
            left = tensor_matching(cup_matching(), identity_matching(1))
            right = tensor_matching(identity_matching(1), cap_matching())
            prod = mat_mul(fld, ev.evaluate(right), ev.evaluate(left))
            assert prod == mat_identity(fld, t.dim)
            other = mat_mul(
                fld,
                ev.evaluate(tensor_matching(cap_matching(), identity_matching(1))),
                ev.evaluate(tensor_matching(identity_matching(1), cup_matching())),
            )
            assert other == mat_identity(fld, t.dim)

    def test_circle_value_is_dimension(self):
        rng = random.Random(23)
        for fld in (QQ, F5, F3):
            for dim in (1, 2, 3):
                for _ in range(20):
                    b = random_symmetric(rng, fld, dim)
                    ext = extend_to_full(FrobeniusDatum(fld, dim, b))
                    assert ext.extends == (mat_det(fld, b) != fld.zero())
                    if ext.extends:
                        assert ext.evaluator.circle_value() == fld.from_int(dim)

    def test_full_evaluator_functorial(self):
        rng = random.Random(41)
        t = frobenius(F3, [[1, 2], [2, 2]])
        ev = extend_to_full(t).evaluator
        for _ in range(60):
            m = rng.randrange(3)
            mid = rng.randrange(3)
            if (m + mid) % 2:
                mid += 1
            n = rng.randrange(3)
            if (mid + n) % 2:
                n += 1
            u = random_matching(rng, m, mid)
            v = random_matching(rng, mid, n)
            lhs = ev.evaluate(compose_abstract(u, v))
            rhs = mat_mul(F3, ev.evaluate(v), ev.evaluate(u))
            assert lhs == rhs

    def test_full_evaluator_monoidal(self):
        rng = random.Random(43)
        t = frobenius(F3, [[1, 2], [2, 2]])
        ev = extend_to_full(t).evaluator
        for _ in range(30):
            u = random_matching(rng, *rng.choice([(0, 2), (1, 1), (2, 0), (2, 2)]))
            v = random_matching(rng, *rng.choice([(0, 2), (1, 1), (2, 0)]))
            assert ev.evaluate(tensor_matching(u, v)) == mat_kron(
                F3, ev.evaluate(u), ev.evaluate(v)
            )


def perfect_matchings(points):
    if not points:
        yield []
        return
    for i in range(1, len(points)):
        for rest in perfect_matchings(points[1:i] + points[i + 1 :]):
            yield [(points[0], points[i])] + rest


def small_matchings(max_points):
    """Every matching with m + n <= max_points and 0 or 1 circles."""
    for size in range(0, max_points + 1, 2):
        for pairs in perfect_matchings(list(range(size))):
            for m in range(size + 1):
                for circles in (0, 1):
                    yield matching(m, size - m, pairs, circles)


def oracle_matrix(fld, pairing, cap, w):
    """Each entry from the definition: dim^circles times, over the pairs,
    the pairing on a cup, ``cap`` on a cap and the Kronecker delta on a
    through-strand.  Rows and columns enumerate leg values in
    ``itertools.product`` order."""
    d = len(pairing)
    scalar = fld.one()
    for _ in range(w.circles):
        scalar = fld.mul(scalar, fld.from_int(d))
    rows = []
    for outgoing in itertools.product(range(d), repeat=w.n):
        row = []
        for incoming in itertools.product(range(d), repeat=w.m):
            legs = incoming + outgoing
            value = scalar
            for x, y in w.pairs:
                if y < w.m:
                    factor = cap[legs[x]][legs[y]]
                elif x >= w.m:
                    factor = pairing[legs[x]][legs[y]]
                else:
                    factor = fld.one() if legs[x] == legs[y] else fld.zero()
                value = fld.mul(value, factor)
            row.append(value)
        rows.append(tuple(row))
    return tuple(rows)


class TestEntryOracle:
    THEORIES = (
        (QQ, [[1, "1/2"], ["1/2", 3]]),
        (QQ, [[2, 0, 1], [0, "-1/3", 0], [1, 0, 0]]),
        (QQ, [[1, 1], [1, 1]]),
        (F5, [[1, 2], [2, 0]]),
        (PrimeField(7), [[0, 3, 1], [3, 2, 0], [1, 0, 5]]),
        (PrimeField(2), [[1, 0], [0, 1]]),
        (F3, [[0, 0], [0, 0]]),
    )

    def test_both_evaluators_match_the_definition(self):
        for fld, rows in self.THEORIES:
            t = frobenius(fld, rows)
            ext = extend_to_full(t)
            cap = ext.evaluator.cap_matrix if ext.extends else None
            for w in small_matchings(6):
                if not w.circles and all(y >= w.m for _, y in w.pairs):
                    assert evaluate_restricted(t, w) == oracle_matrix(fld, t.pairing, None, w)
                else:
                    with pytest.raises(ValueError):
                        evaluate_restricted(t, w)
                if ext.extends:
                    assert ext.evaluator.evaluate(w) == oracle_matrix(fld, t.pairing, cap, w)

    def test_json_matches_the_per_entry_converter(self):
        # Each evaluated matrix prints byte for byte as the per-entry
        # converter prints the definition's, whose zeros are new objects.
        for fld, rows in self.THEORIES:
            t = frobenius(fld, rows)
            ext = extend_to_full(t)
            cap = ext.evaluator.cap_matrix if ext.extends else None
            for w in small_matchings(6):
                if not w.circles and all(y >= w.m for _, y in w.pairs):
                    want = same_text(fld, oracle_matrix(fld, t.pairing, None, w))
                    assert same_text(fld, evaluate_restricted(t, w)) == want
                if ext.extends:
                    want = same_text(fld, oracle_matrix(fld, t.pairing, cap, w))
                    assert same_text(fld, ext.evaluator.evaluate(w)) == want

    def test_zeros_built_elsewhere_are_converted(self):
        # Zeros that are not the field's zero object go through to_json and
        # print the same as the ones that are.
        fresh = ((Fraction(0), Fraction(-1, 2)), (QQ.zero(), Fraction(3)))
        assert fresh[0][0] is not QQ.zero()
        assert same_text(QQ, fresh) == "[[0, \"-1/2\"], [0, 3]]"
        product = mat_mul(QQ, mat_from_rows(QQ, [[1, -1], [2, "1/2"]]), mat_from_rows(QQ, [[1, 0], [1, 0]]))
        assert product[0][0] == 0 and product[0][0] is not QQ.zero()
        assert same_text(QQ, product) == "[[0, 0], [\"5/2\", 0]]"
        square = mat_mul(F5, ((1, 2), (3, 4)), ((3, 0), (1, 0)))
        assert same_text(F5, square) == "[[0, 0], [3, 0]]"


def same_text(fld, mat) -> str:
    text = json.dumps(mat_to_json(fld, mat))
    assert text == json.dumps(mat_to_json_per_entry(fld, mat))
    return text


class TestInvertibility:
    def test_dimension_one(self):
        ev = extend_to_full(frobenius(QQ, [[2]])).evaluator
        samples = [identity_matching(1), matching(1, 1, [(0, 1)]), matching(0, 0, [], 1)]
        assert invertibility_check(ev, samples)

    def test_dimension_two_fails(self):
        ev = extend_to_full(frobenius(QQ, [[1, 0], [0, 1]])).evaluator
        assert not invertibility_check(ev, [identity_matching(1)])

    def test_non_square_sample_fails(self):
        ev = extend_to_full(frobenius(QQ, [[2]])).evaluator
        assert not invertibility_check(ev, [cup_matching()])
