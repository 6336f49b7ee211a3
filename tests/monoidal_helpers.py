"""Matrix and JSON helpers, the invertibility check, and the oracles that
only the Picard and field-theory tests use: the Leibniz determinant for
``mat_det``, the associator check over element tuples, and for Picard
equivalence the isomorphism search and the F2 flag orbits."""

from __future__ import annotations

import itertools
import math

from cobcat.exactmath import AbelianInvariants, quotient_group
from cobcat.limits import ResourceLimitExceeded
from cobcat.monoidal import (
    AbGroup,
    FrobeniusDatum,
    FullEvaluator,
    PicardData,
    mat_det,
    mat_to_json,
    picard,
)


def mat_transpose(a) -> tuple[tuple, ...]:
    return tuple(zip(*a)) if a else ()


def leibniz_det(fld, a):
    """The sum over permutations p of sign(p) times the product of the
    entries a[i][p(i)], the reference for ``mat_det``."""
    n = len(a)
    total = fld.zero()
    for perm in itertools.permutations(range(n)):
        term = fld.one()
        for i, j in enumerate(perm):
            term = fld.mul(term, a[i][j])
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total = fld.add(total, fld.neg(term) if inversions % 2 else term)
    return total


def mat_kron(fld, a, b) -> tuple[tuple, ...]:
    """Kronecker product; the left factor owns the most significant index."""
    rows_b = len(b)
    cols_b = len(b[0]) if b else 0
    out = []
    for arow in a:
        for brow_i in range(rows_b):
            out.append(
                tuple(
                    fld.mul(av, b[brow_i][j])
                    for av in arow
                    for j in range(cols_b)
                )
            )
    return tuple(out)


def mat_to_json_per_entry(fld, a) -> list:
    """One ``to_json`` call per entry, zeros included: the oracle for
    ``mat_to_json``, which writes its field's zero object without one."""
    return [[fld.to_json(v) for v in row] for row in a]


def picard_to_json(p: PicardData) -> dict:
    return {
        "pi0": p.pi0.invariants.to_json(),
        "pi1": p.pi1.invariants.to_json(),
        "c": [[list(v) for v in row] for row in p.c_table],
        "h": [[list(x), list(y), list(z), list(v)] for x, y, z, v in p.h_table],
    }


def frobenius_to_json(t: FrobeniusDatum) -> dict:
    return {
        "field": t.field.name,
        "dim": t.dim,
        "pairing": mat_to_json(t.field, t.pairing),
    }


def invertibility_check(evaluator: FullEvaluator, samples) -> bool:
    """Whether the theory lands in invertible matrices on invertible objects.

    Objects evaluate to tensor powers of the underlying space, which are
    invertible exactly in dimension 1; morphism matrices must be square and
    of nonzero determinant.
    """
    fld = evaluator.theory.field
    if evaluator.theory.dim != 1:
        return False
    for w in samples:
        if w.m != w.n:
            return False
        if mat_det(fld, evaluator.evaluate(w)) == fld.zero():
            return False
    return True


# -- the associator check over element tuples, the oracle for _validate_h --


def associator_oracle(pi0: AbelianInvariants, pi1: AbelianInvariants, h_rows) -> str | None:
    """None when ``h_rows`` is a normalized 3-cocycle pi0^3 -> pi1, else the
    message that ``picard`` refuses it with.  The pentagon is checked on every
    quadruple of element tuples, with ``AbGroup`` arithmetic at each step and
    no price; ``PicardData._validate_h`` walks element indices instead."""
    g0, g1 = AbGroup(pi0), AbGroup(pi1)
    entries = sorted(
        (g0.normalize(x), g0.normalize(y), g0.normalize(z), g1.normalize(v))
        for x, y, z, v in h_rows
    )
    if not entries:
        return None
    zero0, zero1 = g0.zero(), g1.zero()
    lookup = {}
    for x, y, z, v in entries:
        if (x, y, z) in lookup:
            return "duplicate associator entry"
        lookup[(x, y, z)] = v
        if zero0 in (x, y, z) and v != zero1:
            return "associator must vanish on unit arguments"
    if g0.order() is None:
        return "nonzero associator tables are only supported on finite groups"
    elems = list(g0.elements())
    h = lambda x, y, z: lookup.get((x, y, z), zero1)
    sub = lambda a, b: g1.add(a, g1.neg(b))
    add0 = g0.add
    for w, x, y, z in itertools.product(elems, repeat=4):
        total = h(x, y, z)
        total = sub(total, h(add0(w, x), y, z))
        total = g1.add(total, h(w, add0(x, y), z))
        total = sub(total, h(w, x, add0(y, z)))
        total = g1.add(total, h(w, x, y))
        if total != zero1:
            return "associator table fails the cocycle identity"
    return None


def carry_cocycle(pi0: AbelianInvariants, i: int, j: int, g) -> list:
    """The table of h(a, b, c) = a_i * carry_j(b + c) * g, where carry_j is 1
    when the j-th coordinates of b and c wrap around and 0 otherwise.
    It is the cup product of the 1-cocycle a -> a_i g with the carry
    2-cocycle, so a normalized 3-cocycle whenever d_i g = 0 for the order d_i
    of the i-th coordinate of the finite group pi0."""
    elems = list(AbGroup(pi0).elements())
    return [
        (a, b, c, tuple(a[i] * v for v in g))
        for a in elems if a[i]
        for b in elems
        for c in elems
        if b[j] + c[j] >= pi0.torsion[j]
    ]


# -- the isomorphism search, the oracle for picard_equivalent ------------


def torsion_elements(b: AbGroup):
    """All elements of the torsion subgroup (free coordinates zero)."""
    for tail in itertools.product(*(range(d) for d in b.torsion)):
        yield (0,) * b.rank + tail


def iso_candidates(a: AbGroup, b: AbGroup, bound: int) -> list[tuple[tuple[int, ...], ...]]:
    """Generator-image tuples defining isomorphisms a -> b.

    Torsion generators range over the full torsion subgroup; free generator
    images range over signed free generators shifted by torsion.  That family
    is complete for free rank at most 1 (an isomorphism must induce one on
    the free quotients, and Aut(Z) = {1, -1}); higher rank is refused rather
    than searched incompletely.  The combination count is checked against
    ``bound`` in closed form before any image is listed: a torsion generator
    of order d has prod_j gcd(d, t_j) images, a free one 2 * rank * prod_j t_j.
    """
    if a.rank > 1:
        raise ResourceLimitExceeded(
            f"free rank {a.rank} is above the searched image family"
        )
    combos = math.prod(
        math.prod(math.gcd(d, t) for t in b.torsion)
        if d is not None
        else 2 * b.rank * math.prod(b.torsion)
        for d in map(a.generator_order, range(a.ncoords))
    )
    if combos > bound:
        raise ResourceLimitExceeded(
            f"{combos} generator-image combinations exceed the bound {bound}"
        )
    torsion_elems = list(torsion_elements(b))
    per_gen: list[list[tuple[int, ...]]] = []
    for i in range(a.ncoords):
        d = a.generator_order(i)
        if d is None:
            images = [
                b.add(b.scale(s, b.generator(f)), t)
                for s in (1, -1)
                for f in range(b.rank)
                for t in torsion_elems
            ]
        else:
            images = [t for t in torsion_elems if b.scale(d, t) == b.zero()]
        per_gen.append(images)
    relation_rows = [
        [d if j == b.rank + jj else 0 for j in range(b.ncoords)]
        for jj, d in enumerate(b.torsion)
    ]
    out = []
    for images in itertools.product(*per_gen) if per_gen else [()]:
        rows = [list(img) for img in images] + [list(r) for r in relation_rows]
        if b.ncoords == 0 or quotient_group(rows, b.ncoords)[0].is_trivial:
            out.append(images)
    return out


def apply_hom(b: AbGroup, images, x) -> tuple[int, ...]:
    out = b.zero()
    for xi, img in zip(x, images):
        if xi:
            out = b.add(out, b.scale(xi, img))
    return out


def search_equivalent(p: PicardData, q: PicardData, search_bound: int = 20000) -> bool:
    """Whether two Picard data present equivalent symmetric monoidal groupoids.

    True exactly when isomorphisms of the two group pairs exist that
    intertwine the k-invariant.  Antisymmetry makes the k-invariant additive,
    so checking it on generators suffices.  The search enumerates generator
    images and raises ResourceLimitExceeded beyond ``search_bound``.
    """
    if p.pi0.invariants != q.pi0.invariants:
        return False
    if p.pi1.invariants != q.pi1.invariants:
        return False
    cands0 = iso_candidates(p.pi0, q.pi0, search_bound)
    cands1 = iso_candidates(p.pi1, q.pi1, search_bound)
    if len(cands0) * len(cands1) > search_bound:
        raise ResourceLimitExceeded(
            f"{len(cands0)} x {len(cands1)} isomorphism pairs exceed the bound"
        )
    gens = p.pi0.generators()
    k_values = [p.c_of(g, g) for g in gens]
    for phi0 in cands0:
        for phi1 in cands1:
            if all(
                apply_hom(q.pi1, phi1, kv) == q.c_of(img, img)
                for kv, img in zip(k_values, phi0)
            ):
                return True
    return False


# -- diagonal Picard data, and the F2 flag orbits where the search refuses


def diagonal_picards(pi0: AbelianInvariants, pi1: AbelianInvariants):
    """Every Picard datum on pi0 and pi1 whose symmetry table is diagonal."""
    g0, g1 = AbGroup(pi0), AbGroup(pi1)
    halves = [t for t in torsion_elements(g1) if g1.scale(2, t) == g1.zero()]
    orders = [g0.generator_order(i) for i in range(g0.ncoords)]
    choices = [[t for t in halves if d is None or g1.scale(d, t) == g1.zero()] for d in orders]
    n = g0.ncoords
    for diagonal in itertools.product(*choices):
        yield picard(pi0, pi1, [
            [diagonal[i] if i == j else g1.zero() for j in range(n)] for i in range(n)
        ])


def _two_steps(inv: AbelianInvariants, free: bool) -> list:
    """2-adic exponents of the even invariant factors, after one infinite
    step per free generator when ``free``."""
    steps = [math.inf] * inv.rank if free else []
    return steps + [(d & -d).bit_length() - 1 for d in inv.torsion if d % 2 == 0]


def picard_from_columns(pi0: AbelianInvariants, pi1: AbelianInvariants, columns) -> PicardData:
    """Diagonal Picard data whose k has the given F2 columns.

    Column i belongs to the i-th free or even-order generator of pi0; bit j
    of it puts d_j/2 on the j-th even invariant factor d_j of pi1.
    """
    g0 = AbGroup(pi0)
    gens = [i for i in range(g0.ncoords) if (g0.generator_order(i) or 2) % 2 == 0]
    evens = [(pi1.rank + j, d) for j, d in enumerate(pi1.torsion) if d % 2 == 0]
    zero = (0,) * (pi1.rank + len(pi1.torsion))
    diagonal = [zero] * g0.ncoords
    for i, bits in zip(gens, columns):
        value = list(zero)
        for j, (coord, d) in enumerate(evens):
            if bits >> j & 1:
                value[coord] = d // 2
        diagonal[i] = tuple(value)
    n = g0.ncoords
    return picard(pi0, pi1, [[diagonal[i] if i == j else zero for j in range(n)] for i in range(n)])


def _span(columns) -> list[int]:
    """Sums of every subset of ``columns``, indexed by the subset's bits."""
    out = [0]
    for c in columns:
        out += [x ^ c for x in out]
    return out


def _flag_group(steps, keeps) -> list[tuple[int, ...]]:
    """Every invertible F2 matrix, as column bit masks, whose entry (i, j) is
    zero unless ``keeps(steps[i], steps[j])``."""
    n = len(steps)
    out = [()]
    for j in range(n):
        allowed = _span([1 << i for i in range(n) if keeps(steps[i], steps[j])])
        out = [
            cols + (c,) for cols in out
            for spanned in [set(_span(cols))]
            for c in allowed if c not in spanned
        ]
    return out


def flag_orbits(pi0: AbelianInvariants, pi1: AbelianInvariants) -> dict:
    """Every F2 matrix k: pi0/2pi0 -> pi1[2], as a tuple of column masks,
    mapped to the first matrix of its orbit under B k A.

    A runs over the invertible matrices that keep the increasing flag of
    2-adic exponents on pi0/2pi0 (free generators at infinity), B over those
    that keep the decreasing flag on pi1[2]: by brute force, the images of
    Aut(pi0) and Aut(pi1).
    """
    col_steps, row_steps = _two_steps(pi0, True), _two_steps(pi1, False)
    group_a = _flag_group(col_steps, lambda si, sj: si <= sj)
    group_b = [_span(b) for b in _flag_group(row_steps, lambda si, sj: si >= sj)]
    first: dict = {}
    for k in itertools.product(range(1 << len(row_steps)), repeat=len(col_steps)):
        if k in first:
            continue
        span = _span(k)
        for ka in {tuple(span[a] for a in cols) for cols in group_a}:
            for b in group_b:
                first.setdefault(tuple(b[c] for c in ka), k)
    return first
