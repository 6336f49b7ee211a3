"""Matrix and JSON helpers and the invertibility check that only the Picard
and field-theory tests use."""

from __future__ import annotations

from cobcat.monoidal import FrobeniusDatum, FullEvaluator, PicardData, mat_det, mat_to_json


def mat_transpose(a) -> tuple[tuple, ...]:
    return tuple(zip(*a)) if a else ()


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
