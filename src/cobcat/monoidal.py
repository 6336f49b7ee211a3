"""Skeletal symmetric monoidal groupoids and one-dimensional field theories.

A skeletal rigid symmetric monoidal groupoid is stored as a pair of finitely
generated abelian groups (object classes and unit automorphisms) together
with a table for the symmetry's self-braiding classes and an optional
associator table.  The diagonal of the symmetry table is the k-invariant,
an F2-linear map pi0/2pi0 -> pi1[2], and two such groupoids are equivalent
exactly when their groups match and the corner ranks of k over the 2-adic
exponent flags agree.

The field-theory half evaluates 1-dimensional cobordisms against a choice
of symmetric pairing over an exact field: cup pairs insert the pairing,
caps insert its inverse when one exists, and the extension criterion is
exactly nondegeneracy of the pairing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .cob1 import (
    Matching1D,
    cap_matching,
    compose_abstract,
    cup_matching,
    matching,
)
from .exactmath import AbelianInvariants, json_array, strict_int
from .limits import ResourceLimitExceeded, check_count

# ---------------------------------------------------------------------------
# Exact fields


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# Miller-Rabin on the bases above decides primality exactly below this bound
# (Sorenson and Webster, 2015).
_PRIME_BOUND = 318665857834031151167461


def _check_prime(p: int) -> None:
    if p >= _PRIME_BOUND:
        raise ResourceLimitExceeded(
            f"primality of {p} is decided only below {_PRIME_BOUND}"
        )
    if p < 2:
        raise ValueError(f"{p} is not prime")
    if p in _PRIME_BASES:
        return
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise ValueError(f"{p} is not prime")


_ZERO, _ONE = Fraction(0), Fraction(1)


@dataclass(frozen=True)
class RationalField:
    """The rationals with Fraction elements.

    >>> QQ.parse("3/4") + QQ.one()
    Fraction(7, 4)
    """

    @property
    def name(self) -> str:
        return "Q"

    def zero(self) -> Fraction:
        return _ZERO

    def one(self) -> Fraction:
        return _ONE

    def from_int(self, k: int) -> Fraction:
        return Fraction(k)

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def power(self, a, k: int):
        return a**k

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / Fraction(a)

    def parse(self, value) -> Fraction:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise ValueError(f"cannot read rational from {value!r}")
        try:
            return Fraction(value)
        except ZeroDivisionError:
            raise ValueError(f"{value!r} has denominator 0") from None

    def to_json(self, a):
        if a.denominator == 1:
            return int(a.numerator)
        return f"{a.numerator}/{a.denominator}"


@dataclass(frozen=True)
class PrimeField:
    """Integers mod a prime, elements stored as canonical residues.

    >>> F5 = PrimeField(5)
    >>> F5.inv(3)
    2
    >>> F5.parse("1/2")
    3
    """

    p: int

    def __post_init__(self):
        _check_prime(self.p)

    @property
    def name(self) -> str:
        return f"F{self.p}"

    def zero(self) -> int:
        return 0

    def one(self) -> int:
        return 1 % self.p

    def from_int(self, k: int) -> int:
        return k % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def power(self, a, k: int):
        return pow(a, k, self.p)

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return pow(a, self.p - 2, self.p)

    def parse(self, value) -> int:
        if isinstance(value, bool):
            raise ValueError(f"cannot read field element from {value!r}")
        if isinstance(value, int):
            return value % self.p
        if isinstance(value, str):
            frac = QQ.parse(value)
            if frac.denominator % self.p == 0:
                raise ValueError(f"{value!r} has a denominator divisible by {self.p}")
            return self.mul(frac.numerator % self.p, self.inv(frac.denominator))
        raise ValueError(f"cannot read field element from {value!r}")

    to_json = staticmethod(int)  # a builtin call costs less per matrix entry than a method


QQ = RationalField()


def field_from_spec(spec: object):
    """Read a field name, a JSON string: ``Q`` or ``QQ`` for the rationals,
    ``F5`` or ``5`` for mod 5."""
    if spec in ("Q", "QQ"):
        return QQ
    text = spec[1:] if isinstance(spec, str) and spec[:1] == "F" else spec
    if not (isinstance(text, str) and text.isascii() and text.isdigit()):
        raise ValueError(f"unknown field {spec!r}; expected a string Q, QQ, F<p> or <p>")
    return PrimeField(int(text))


# ---------------------------------------------------------------------------
# Exact matrices over a field (rows as tuples)


def mat_from_rows(fld, rows) -> tuple[tuple, ...]:
    out = tuple(tuple(fld.parse(v) for v in row) for row in rows)
    if out and any(len(row) != len(out[0]) for row in out):
        raise ValueError("ragged matrix")
    return out


def mat_identity(fld, n: int) -> tuple[tuple, ...]:
    return tuple(
        tuple(fld.one() if i == j else fld.zero() for j in range(n)) for i in range(n)
    )


def mat_mul(fld, a, b) -> tuple[tuple, ...]:
    if a and b and len(a[0]) != len(b):
        raise ValueError(f"shape mismatch: {len(a[0])} columns vs {len(b)} rows")
    cols = len(b[0]) if b else 0
    out = []
    for row in a:
        acc = [fld.zero()] * cols
        for k, v in enumerate(row):
            if v == fld.zero():
                continue
            brow = b[k]
            for j in range(cols):
                acc[j] = fld.add(acc[j], fld.mul(v, brow[j]))
        out.append(tuple(acc))
    return tuple(out)


def _gauss_jordan(fld, a) -> tuple[object, tuple[tuple, ...] | None]:
    """Determinant and inverse of a square matrix from one Gauss–Jordan pass
    over [a | I].  The determinant is the product of the pivots, negated once
    per row swap; the inverse is None when the matrix is singular."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise ValueError("determinant and inverse need a square matrix")
    zero = fld.zero()
    rows = [list(row) + list(erow) for row, erow in zip(a, mat_identity(fld, n))]
    det = fld.one()
    for col in range(n):
        pivot = next((r for r in range(col, n) if rows[r][col] != zero), None)
        if pivot is None:
            return zero, None
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = fld.neg(det)
        det = fld.mul(det, rows[col][col])
        inv = fld.inv(rows[col][col])
        rows[col] = [fld.mul(inv, v) for v in rows[col]]
        for r in range(n):
            if r != col and rows[r][col] != zero:
                factor = rows[r][col]
                rows[r] = [fld.sub(v, fld.mul(factor, w)) for v, w in zip(rows[r], rows[col])]
    return det, tuple(tuple(row[n:]) for row in rows)


def mat_det(fld, a):
    return _gauss_jordan(fld, a)[0]


def mat_inv(fld, a) -> tuple[tuple, ...]:
    inv = _gauss_jordan(fld, a)[1]
    if inv is None:
        raise ValueError("matrix is singular")
    return inv


def mat_to_json(fld, a) -> list:
    """Entries as JSON.  An entry that *is* the field's zero object, as most
    of an evaluated matrix is, gets one shared blank; any other entry, a zero
    built elsewhere included, goes through ``to_json``, so the output is exact
    for every matrix."""
    zero, to_json = fld.zero(), fld.to_json
    blank = to_json(zero)
    return [[blank if v is zero else to_json(v) for v in row] for row in a]


# ---------------------------------------------------------------------------
# Finitely generated abelian groups with element arithmetic


@dataclass(frozen=True)
class AbGroup:
    """Elements of ``Z^rank + Z/d_1 + ...`` as coordinate tuples.

    Free coordinates come first, then one coordinate per invariant factor,
    reduced to canonical residues.  The invariant factors must form a
    divisibility chain so equality of groups is equality of invariants.

    >>> g = AbGroup(AbelianInvariants(1, (4,)))
    >>> g.add((2, 3), (1, 2))
    (3, 1)
    """

    invariants: AbelianInvariants

    @property
    def rank(self) -> int:
        return self.invariants.rank

    @property
    def torsion(self) -> tuple[int, ...]:
        return self.invariants.torsion

    @property
    def ncoords(self) -> int:
        return self.rank + len(self.torsion)

    def normalize(self, coords) -> tuple[int, ...]:
        coords = tuple(strict_int(v) for v in coords)
        if len(coords) != self.ncoords:
            raise ValueError(
                f"expected {self.ncoords} coordinates, got {len(coords)}"
            )
        free = coords[: self.rank]
        tors = tuple(v % d for v, d in zip(coords[self.rank :], self.torsion))
        return free + tors

    def zero(self) -> tuple[int, ...]:
        return (0,) * self.ncoords

    def generator(self, i: int) -> tuple[int, ...]:
        if not 0 <= i < self.ncoords:
            raise ValueError(f"no generator {i}")
        return tuple(1 if j == i else 0 for j in range(self.ncoords))

    def generators(self) -> tuple[tuple[int, ...], ...]:
        return tuple(self.generator(i) for i in range(self.ncoords))

    def generator_order(self, i: int) -> int | None:
        if i < self.rank:
            return None
        return self.torsion[i - self.rank]

    def add(self, a, b) -> tuple[int, ...]:
        a, b = self.normalize(a), self.normalize(b)
        return self.normalize(tuple(x + y for x, y in zip(a, b)))

    def neg(self, a) -> tuple[int, ...]:
        return self.normalize(tuple(-x for x in self.normalize(a)))

    def scale(self, k: int, a) -> tuple[int, ...]:
        return self.normalize(tuple(k * x for x in self.normalize(a)))

    def order(self) -> int | None:
        if self.rank:
            return None
        return math.prod(self.torsion)

    def elements(self):
        if self.rank:
            raise ValueError("infinite group")
        return itertools.product(*(range(d) for d in self.torsion))


def coords_from_pairs(pairs, group: AbGroup) -> tuple[int, ...]:
    """Convert self-describing ``(value, modulus)`` pairs to group coordinates.

    The pairs list torsion coordinates (modulus >= 2) before free ones
    (modulus 0); coordinate tuples put free parts first.
    """
    free = [v for v, d in pairs if d == 0]
    tors = [(v, d) for v, d in pairs if d != 0]
    if len(free) != group.rank or tuple(d for _, d in tors) != group.torsion:
        raise ValueError("coordinate shape does not match the group")
    return group.normalize(tuple(free) + tuple(v for v, _ in tors))


# ---------------------------------------------------------------------------
# Picard data and the k-invariant


@dataclass(frozen=True)
class PicardData:
    """Object classes, unit automorphisms, and the symmetry table.

    ``c_table[i][j]`` is the class in ``pi1`` of the braiding on the i-th and
    j-th generators of ``pi0``; the table extends biadditively, which is
    well-defined exactly when each entry is killed by its generators' orders.
    ``h_table`` optionally lists associator values as ``(x, y, z, value)``
    coordinate tuples; entries absent from the table are zero.
    """

    pi0: AbGroup
    pi1: AbGroup
    c_table: tuple[tuple[tuple[int, ...], ...], ...]
    h_table: tuple[tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...], tuple[int, ...]], ...] = ()

    def __post_init__(self):
        n = self.pi0.ncoords
        if len(self.c_table) != n or any(len(row) != n for row in self.c_table):
            raise ValueError("symmetry table must be square over the pi0 generators")
        table = tuple(
            tuple(self.pi1.normalize(v) for v in row) for row in self.c_table
        )
        object.__setattr__(self, "c_table", table)
        for i in range(n):
            for j in range(n):
                if self.pi1.add(table[i][j], table[j][i]) != self.pi1.zero():
                    raise ValueError(
                        f"symmetry table is not antisymmetric at ({i}, {j})"
                    )
                d = self.pi0.generator_order(i)
                if d is not None and self.pi1.scale(d, table[i][j]) != self.pi1.zero():
                    raise ValueError(
                        f"entry ({i}, {j}) is not killed by the generator order {d}"
                    )
        object.__setattr__(self, "h_table", self._normalized_h(self.h_table))
        self._validate_h()

    def _normalized_h(self, entries):
        out = []
        for x, y, z, v in entries:
            out.append(
                (
                    self.pi0.normalize(x),
                    self.pi0.normalize(y),
                    self.pi0.normalize(z),
                    self.pi1.normalize(v),
                )
            )
        return tuple(sorted(out))

    def _validate_h(self):
        """h is a normalized 3-cocycle: the |pi0|^4 pentagon quadruples are priced, and those
        without the unit (index 0) walked on indices, pi1 terms summed by coordinate."""
        if not self.h_table:
            return
        zero0, zero1 = self.pi0.zero(), self.pi1.zero()
        lookup = {}
        for x, y, z, v in self.h_table:
            if (x, y, z) in lookup:
                raise ValueError("duplicate associator entry")
            lookup[(x, y, z)] = v
            if zero0 in (x, y, z) and v != zero1:
                raise ValueError("associator must vanish on unit arguments")
        order = self.pi0.order()
        if order is None:
            raise ValueError("nonzero associator tables are only supported on finite groups")
        check_count(order**4, f"the associator cocycle check would visit "
                    f"{order}^4 = {order**4} quadruples")
        index = {x: i for i, x in enumerate(self.pi0.elements())}
        plus = [[index[self.pi0.add(x, y)] for y in index] for x in index]
        h = {(index[x], index[y], index[z]): v for (x, y, z), v in lookup.items()}
        for w, x, y, z in itertools.product(range(1, order), repeat=4):
            terms = zip(h.get((x, y, z), zero1), h.get((plus[w][x], y, z), zero1),
                        h.get((w, plus[x][y], z), zero1), h.get((w, x, plus[y][z]), zero1),
                        h.get((w, x, y), zero1))
            total = tuple(a - b + c - d + e for a, b, c, d, e in terms)
            if self.pi1.normalize(total) != zero1:
                raise ValueError("associator table fails the cocycle identity")

    def c_of(self, x, y) -> tuple[int, ...]:
        """Biadditive extension of the symmetry table to arbitrary elements."""
        x = self.pi0.normalize(x)
        y = self.pi0.normalize(y)
        out = self.pi1.zero()
        for i, xi in enumerate(x):
            if not xi:
                continue
            for j, yj in enumerate(y):
                if not yj:
                    continue
                out = self.pi1.add(out, self.pi1.scale(xi * yj, self.c_table[i][j]))
        return out


def picard(pi0: AbelianInvariants, pi1: AbelianInvariants, c_rows, h_rows=()) -> PicardData:
    """Build PicardData from invariants and a generator-indexed symmetry table."""
    g0, g1 = AbGroup(pi0), AbGroup(pi1)
    table = tuple(tuple(tuple(v) for v in row) for row in c_rows)
    h = tuple((tuple(x), tuple(y), tuple(z), tuple(v)) for x, y, z, v in h_rows)
    return PicardData(g0, g1, table, h)


def k_invariant(p: PicardData, x) -> tuple[int, ...]:
    """Class of the self-braiding on x; depends only on x mod 2.

    The mod-2 factorization is rechecked on the spot: antisymmetry makes the
    diagonal additive, so shifting x by doubled elements cannot move it.
    """
    x = p.pi0.normalize(x)
    value = p.c_of(x, x)
    probes = list(p.pi0.generators()) + [x]
    order = p.pi0.order()
    if order is not None and order <= 32:
        probes = list(p.pi0.elements())
    for y in probes:
        shifted = p.pi0.add(x, p.pi0.scale(2, y))
        if p.c_of(shifted, shifted) != value:
            raise AssertionError("k-invariant failed to factor through x mod 2")
    return value


# -- constructors -----------------------------------------------------------


def units_invariants(p: int) -> AbelianInvariants:
    """The multiplicative group of the field with p elements, additively."""
    _check_prime(p)
    if p == 2:
        return AbelianInvariants(0, ())
    return AbelianInvariants(0, (p - 1,))


def minus_one_class(p: int) -> tuple[int, ...]:
    """Coordinates of -1 in the cyclic group of units.

    Any generator g of the units has g^((p-1)/2) = -1 for odd p, so the
    class is independent of which generator presents the group.
    """
    _check_prime(p)
    if p == 2:
        return ()
    return ((p - 1) // 2,)


def lines_picard(p: int) -> PicardData:
    """Invertible vector spaces over the field with p elements.

    Every line is isomorphic to the unit, so the object group is trivial and
    the k-invariant vanishes identically.
    """
    return picard(AbelianInvariants(0, ()), units_invariants(p), ())


def graded_lines_picard(p: int, twisted: bool = True) -> PicardData:
    """Graded lines over the field with p elements.

    The object group is Z/2 by degree.  With ``twisted`` the symmetry swaps
    two odd lines at the cost of a sign, so the k-invariant of the odd class
    is -1; untwisted graded lines keep the plain swap and k = 0.  The two
    agree exactly when -1 = 1, that is in characteristic 2.
    """
    value = minus_one_class(p) if twisted else AbGroup(units_invariants(p)).zero()
    return picard(AbelianInvariants(0, (2,)), units_invariants(p), ((value,),))


@dataclass(frozen=True)
class DerivedPicard:
    """Picard data computed from a model, with the derivation spelled out."""

    data: PicardData
    k_class: tuple[int, ...]
    derivation: tuple[str, ...]

    def to_json(self) -> dict:
        return {
            "pi0": self.data.pi0.invariants.to_json(),
            "pi1": self.data.pi1.invariants.to_json(),
            "k": list(self.k_class),
            "derivation": list(self.derivation),
        }


def cob1_picard(max_points: int = 8) -> DerivedPicard:
    """Picard data of the localized 1-dimensional cobordism category.

    The groups come from the truncated planar localization.  The k-invariant
    is the class of the swap on two points; it is computed two ways rather
    than asserted.  First, the swap composes with the cup to the cup itself
    (as abstract cobordisms both are a single arc with the same endpoints),
    so transporting it along the cup gives the loop cap after swap after cup
    which is literally the same closed diagram as cap after cup, hence class
    difference zero.  Second, antisymmetry of the symmetry table forces
    2k = 0, and the automorphism group is torsion-free.
    """
    from .localize import planar_localization_data
    data = planar_localization_data(max_points)
    if data.pi0 != AbelianInvariants(0, (2,)):
        raise ValueError(
            f"expected two object classes, found {data.pi0.describe()}"
        )
    pi1 = AbGroup(data.pi1)
    circle = coords_from_pairs(data.circle_class(), pi1)

    swap = matching(2, 2, [(0, 3), (1, 2)])
    cup = cup_matching()
    cap = cap_matching()
    swapped_cup = compose_abstract(cup, swap)
    absorbed = swapped_cup == cup
    loop_swapped = compose_abstract(swapped_cup, cap)
    loop_plain = compose_abstract(cup, cap)
    diff = loop_swapped.circles - loop_plain.circles
    k = pi1.scale(diff, circle)

    derivation = [
        "swap absorption: compose(cup, swap) == cup is "
        f"{absorbed} (a single arc either way)",
        "transport along the cup: cap.swap.cup and cap.cup close to "
        f"{loop_swapped.circles} and {loop_plain.circles} circles, "
        f"so k = {diff} * [circle] = {list(k)}",
    ]
    if not absorbed:
        raise AssertionError("swap failed to absorb into the cup")
    if not data.pi1.torsion:
        derivation.append(
            "cross-check: antisymmetry forces 2k = 0 and "
            f"{data.pi1.describe()} is torsion-free, so k = 0"
        )
        if pi1.scale(2, k) != pi1.zero() or k != pi1.zero():
            raise AssertionError("torsion-free cross-check contradicts transport")

    picard_data = PicardData(AbGroup(data.pi0), pi1, ((k,),))
    return DerivedPicard(picard_data, k, tuple(derivation))


# -- equivalence ------------------------------------------------------------


def _f2_rank(vectors) -> int:
    """Rank over F2 of bit vectors held as integers, by an XOR basis.

    >>> _f2_rank([0b011, 0b101, 0b110, 0b000])
    2
    """
    basis: dict[int, int] = {}
    for v in vectors:
        while v and v.bit_length() in basis:
            v ^= basis[v.bit_length()]
        if v:
            basis[v.bit_length()] = v
    return len(basis)


def _corner_ranks(p: PicardData) -> tuple[int, ...]:
    """F2 ranks of the corners of k: pi0/2pi0 -> pi1[2].

    Column i is c(g_i, g_i) as bits, bit j set where torsion coordinate j
    is d_j/2.  Generators and rows of order d sit at step v2(d), 0 for odd
    d (where k vanishes), free generators at infinity.  A corner keeps the
    columns of step <= e and the rows of step < f, for all steps e, f and f = inf.
    """
    col_steps = [math.inf] * p.pi0.rank + [(d & -d).bit_length() - 1 for d in p.pi0.torsion]
    row_steps = [(d & -d).bit_length() - 1 for d in p.pi1.torsion]
    diagonal = [p.c_table[i][i][p.pi1.rank :] for i in range(len(col_steps))]
    return tuple(
        _f2_rank(
            sum(1 << j for j, v in enumerate(k) if v and row_steps[j] < f)
            for step, k in zip(col_steps, diagonal)
            if step <= e
        )
        for e in sorted(set(col_steps))
        for f in sorted(set(row_steps)) + [math.inf]
    )


def picard_equivalent(p: PicardData, q: PicardData) -> bool:
    """Whether two Picard data present equivalent symmetric monoidal groupoids.

    Picard groupoids are stable 1-types, classified by pi0, pi1 and k (Sinh
    1975; Johnson and Osorno 2012).  Aut(pi0) acts on pi0/2pi0 as the
    stabilizer of the increasing 2-adic exponent flag, Aut(pi1) on pi1[2] as
    that of the decreasing one, so the corner ranks of k, not the ranks of
    its blocks, decide its orbit.  The associator table takes no part.
    """
    return (
        p.pi0.invariants == q.pi0.invariants
        and p.pi1.invariants == q.pi1.invariants
        and _corner_ranks(p) == _corner_ranks(q)
    )


# -- JSON -------------------------------------------------------------------


def invariants_from_json(data: dict) -> AbelianInvariants:
    return AbelianInvariants(
        strict_int(data["rank"]), tuple(strict_int(d) for d in data["torsion"])
    )


def picard_from_json(data: dict) -> PicardData:
    return picard(
        invariants_from_json(data["pi0"]),
        invariants_from_json(data["pi1"]),
        [[tuple(v) for v in row] for row in data["c"]],
        [tuple(tuple(part) for part in entry) for entry in data.get("h", [])],
    )


# ---------------------------------------------------------------------------
# One-dimensional field theories from a symmetric pairing


@dataclass(frozen=True)
class FrobeniusDatum:
    """A symmetric pairing on a finite-dimensional space over an exact field.

    ``pairing`` is the tensor the cup inserts; the theory extends to caps
    exactly when it is nondegenerate.
    """

    field: RationalField | PrimeField
    dim: int
    pairing: tuple[tuple, ...]

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be nonnegative")
        if len(self.pairing) != self.dim or any(
            len(row) != self.dim for row in self.pairing
        ):
            raise ValueError("pairing must be a dim x dim matrix")
        for i in range(self.dim):
            for j in range(self.dim):
                if self.pairing[i][j] != self.pairing[j][i]:
                    raise ValueError("pairing must be symmetric")


def frobenius(field, rows) -> FrobeniusDatum:
    mat = mat_from_rows(field, rows)
    return FrobeniusDatum(field, len(mat), mat)


def frobenius_from_json(data: dict) -> FrobeniusDatum:
    field = field_from_spec(data["field"])
    rows = json_array(data["pairing"], "pairing")
    rows = [json_array(row, "each pairing row") for row in rows]
    return frobenius(field, rows)


def _leg_terms(fld, d: int, mat, pairs, width: int, start) -> list:
    """Non-zero terms ``(packed offset, value)`` of ``start`` times ``mat``
    placed on each pair of legs; leg i of ``width`` weighs d^(width-1-i)."""
    terms = [(0, start)] if start != fld.zero() else []
    if pairs:
        nonzero = [
            (i, j, v) for i, row in enumerate(mat) for j, v in enumerate(row)
            if v != fld.zero()
        ]
        for x, y in pairs:
            wx, wy = d ** (width - 1 - x), d ** (width - 1 - y)
            terms = [
                (off + i * wx + j * wy, fld.mul(val, v))
                for off, val in terms
                for i, j, v in nonzero
            ]
    return terms


def _contract(theory: FrobeniusDatum, w: Matching1D, cap=None, circle=None) -> tuple[tuple, ...]:
    """Matrix of w: X^(tensor m) -> X^(tensor n), with caps inserting ``cap``.

    Rows are indexed by outgoing leg values packed most significant first,
    columns by incoming values.  The matrix factors into ``circle`` to the
    power of the circle count, a covector of the caps on the incoming legs
    and a vector of the cups on the outgoing legs; through-strands copy an
    index from the column to the row.  Each cap-term x cup-term product is
    multiplied once, into one row of the block per cup term, and the block
    is copied onto every through-strand route: the route's rows are those
    rows shifted right by its column offset, which moves only zeros off
    their ends.  Each entry gets at most one term, and every other entry is
    the field's one zero object.  The d^(m+n) entries and the bit size of
    the circle power are priced before any term is built.
    """
    fld, d, m, n = theory.field, theory.dim, w.m, w.n
    caps = [(x, y) for x, y in w.pairs if y < m]
    if cap is None and (caps or w.circles):
        raise ValueError("a matching with caps or circles needs the inverse pairing")
    check_count(d ** (m + n), f"frob eval would write {d}^{m + n} matrix entries")
    if w.circles and isinstance(fld, RationalField) and circle not in (0, 1, -1):
        bits = w.circles * (abs(circle.numerator).bit_length() + circle.denominator.bit_length())
        check_count(bits, f"frob eval would raise the circle value {circle} to the "
                    f"power {w.circles}, about {bits} bits")
    scalar = fld.power(circle, w.circles) if w.circles else fld.one()
    cups = [(x - m, y - m) for x, y in w.pairs if x >= m]
    col_terms = _leg_terms(fld, d, cap, caps, m, scalar)
    row_terms = _leg_terms(fld, d, theory.pairing, cups, n, fld.one())
    width, zero = d**m, fld.zero()
    blank = (zero,) * width
    block = []
    for r1, b in row_terms:
        row = [zero] * width
        for c1, a in col_terms:
            row[c1] = fld.mul(a, b)
        block.append((r1, tuple(row)))
    routes = [(0, 0)]
    for x, y in w.pairs:
        if x < m <= y:
            wx, wy = d ** (m - 1 - x), d ** (m + n - 1 - y)
            routes = [(c + v * wx, r + v * wy) for c, r in routes for v in range(d)]
    out = [blank] * d**n
    for c0, r0 in routes:
        for r1, row in block:
            out[r0 + r1] = blank[:c0] + row[: width - c0]
    return tuple(out)


def evaluate_restricted(theory: FrobeniusDatum, w: Matching1D) -> tuple[tuple, ...]:
    """Matrix of a matching with no caps and no circles, for any pairing.

    Cup pairs insert the pairing, degenerate or not; a cap or a circle is
    refused with ValueError, since only a nondegenerate pairing evaluates
    those (see ``extend_to_full``).
    """
    return _contract(theory, w)


@dataclass(frozen=True)
class FullEvaluator:
    """Evaluator for arbitrary matchings once the pairing is invertible."""

    theory: FrobeniusDatum
    cap_matrix: tuple[tuple, ...]

    def circle_value(self):
        """Pairing contracted with its inverse: the dimension in the field."""
        fld = self.theory.field
        out = fld.zero()
        for brow, crow in zip(self.theory.pairing, self.cap_matrix):
            for bv, cv in zip(brow, crow):
                out = fld.add(out, fld.mul(bv, cv))
        return out

    def evaluate(self, w: Matching1D) -> tuple[tuple, ...]:
        return _contract(self.theory, w, self.cap_matrix, self.circle_value())


@dataclass(frozen=True)
class Extension:
    """Verdict of the extension criterion, with the evaluator when it holds."""

    extends: bool
    reason: str
    evaluator: FullEvaluator | None


def extend_to_full(theory: FrobeniusDatum) -> Extension:
    """Extend to caps exactly when the pairing is nondegenerate.

    The cap is the matrix inverse of the pairing, which makes the zig-zag
    composites collapse to identities; a degenerate pairing admits no cap at
    all because the zig-zag forces the pairing's adjoint to be invertible.
    """
    try:
        cap = mat_inv(theory.field, theory.pairing)  # the pairing is square
    except ValueError:
        return Extension(False, "pairing is degenerate (determinant 0)", None)
    return Extension(True, "pairing is nondegenerate", FullEvaluator(theory, cap))
