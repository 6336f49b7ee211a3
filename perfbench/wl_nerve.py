"""``nerve``: build_nerve plus homology on group and poset categories.

The time is in cell enumeration, dense boundary assembly, the dense d∘d
self-check and Smith normal form; no localization code runs.  The seed
draws the ids of every object and morphism and the job order; the cell
structure, and so the work, is the same for every seed.
"""

from __future__ import annotations

import json

import gen
from jobs import Job

# (file, kind, size, cap): BZ/size or the proper subsets of a size-set.
CATEGORIES = (
    ("bz5_cap4", "cyclic", 5, 4),
    ("bz6_cap4", "cyclic", 6, 4),
    ("bz4_cap5", "cyclic", 4, 5),
    ("sphere3_cap4", "subsets", 5, 4),
    ("sphere2_cap3", "subsets", 4, 3),
)

TARGETS = (
    ("cobcat.fincat.from_json", "fincat.from_json", None),
    ("cobcat.fincat.validate_category", "fincat.validate_category", None),
    ("cobcat.nerve.build_nerve", "nerve.build_nerve", None),
    ("cobcat.exactmath.IntMatrix.mul", "exactmath.IntMatrix.mul", None),
    ("cobcat.nerve.homology", "nerve.homology", None),
    ("cobcat.exactmath.smith_normal_form", "exactmath.smith_normal_form", None),
)

# Per-layer metrics: (metric, span, field of the span's per-pass totals).
LAYERS = (
    ("nerve.build_nerve.self_s", "nerve.build_nerve", "self_s"),
    ("exactmath.IntMatrix.mul.s", "exactmath.IntMatrix.mul", "s"),
    ("exactmath.smith_normal_form.s", "exactmath.smith_normal_form", "s"),
    ("exactmath.smith_normal_form.calls", "exactmath.smith_normal_form", "calls"),
    ("nerve.homology.self_s", "nerve.homology", "self_s"),
)

COUNTS = ("nerve.cells", "nerve.boundary_nonzeros")


def generate(names: gen.Names) -> tuple[dict[str, object], None]:
    docs = {}
    for stem, kind, size, _ in CATEGORIES:
        if kind == "cyclic":
            docs[stem] = gen.cyclic_group(names, size)[0]
        else:
            docs[stem] = gen.proper_subsets(names, size)
    return docs, None


def expected(kind: str, size: int, cap: int) -> tuple[list[dict], list[int]]:
    """Homology H_0..H_{cap-1} and cell counts in degrees 0..cap."""
    if kind == "cyclic":
        return gen.cyclic_homology(size, cap), [1] + [(size - 1) ** p for p in range(1, cap + 1)]
    cells = [gen.subset_chain_count(size, p) for p in range(cap + 1)]
    return gen.sphere_homology(size - 2, cap), cells


def prepare(cobcat, paths: dict[str, str], docs: dict, facts: None) -> tuple[list[Job], None]:
    fincat, nerve = cobcat.fincat, cobcat.nerve
    jobs = []
    for stem, kind, size, cap in CATEGORIES:
        with open(paths[stem], encoding="utf-8") as fh:
            category = fincat.from_json(json.load(fh))
        want_h, want_cells = expected(kind, size, cap)

        def run(c=category, cap=cap):
            complex_ = nerve.build_nerve(c, cap)
            return complex_, nerve.homology(complex_)

        def check(out, want_h=want_h, want_cells=want_cells):
            complex_, groups = out
            got_h = [g.to_json() for g in groups]
            cells = complex_.cell_counts()
            if got_h != want_h:
                return f"homology {got_h}, expected {want_h}"
            if cells != want_cells:
                return f"cell counts {cells}, expected {want_cells}"
            if cells[-1] == 0:  # the cap covers the whole complex
                chi_cells = sum((-1) ** p * n for p, n in enumerate(cells))
                chi_betti = sum((-1) ** p * g["rank"] for p, g in enumerate(got_h))
                if chi_cells != chi_betti:
                    return f"Euler characteristic {chi_cells} from cells, {chi_betti} from Betti numbers"
            return None

        jobs.append(Job(stem, run, check, digest))
    return jobs, None


def digest(out) -> tuple:
    complex_, groups = out
    return tuple(complex_.cell_counts()), tuple(json.dumps(g.to_json()) for g in groups)


def pass_counts(results: list) -> dict[str, int]:
    """Cells and boundary non-zeros summed over the pass's complexes."""
    cells = nonzeros = 0
    for complex_, _ in results:
        cells += sum(complex_.cell_counts())
        nonzeros += sum(1 for b in complex_.boundaries for row in b.to_rows() for v in row if v)
    return {"nerve.cells": cells, "nerve.boundary_nonzeros": nonzeros}
