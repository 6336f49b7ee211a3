"""``relators``: the commuting-square relator engines of the localizations.

The time is in ``cob2.compose_surface`` (most of surface localization),
relator-row generation, ``reduce_lattice_rows`` and the transform-keeping
Smith normal form inside ``quotient_group``; no nerve is built.  The jobs
take only integer bounds, so there are no input files and the seed draws
the job order alone.
"""

from __future__ import annotations

import json

import gen
from jobs import Job

SURFACE_BOUNDS = (8, 6)
PLANAR_POINTS = 10
PICARD_POINTS = 10


def _count_rows(tracer, args, result) -> None:
    # Rows the engines hand over; quotient_group's own pass over rows that
    # are already reduced is not counted.
    if tracer.current() != "exactmath.quotient_group":
        tracer.count("relator_rows.in", len(args[0]))
        tracer.count("relator_rows.kept", len(result))


TARGETS = (
    ("cobcat.localize.surface_localization_group", "localize.surface_localization_group", None),
    ("cobcat.localize.planar_localization_data", "localize.planar_localization_data", None),
    ("cobcat.monoidal.cob1_picard", "monoidal.cob1_picard", None),
    ("cobcat.cob2.compose_surface", "cob2.compose_surface", None),
    ("cobcat.exactmath.reduce_lattice_rows", "exactmath.reduce_lattice_rows", _count_rows),
    ("cobcat.exactmath.quotient_group", "exactmath.quotient_group", None),
    ("cobcat.exactmath.smith_normal_form", "exactmath.smith_normal_form", None),
)

LAYERS = (
    ("cob2.compose_surface.s", "cob2.compose_surface", "s"),
    ("cob2.compose_surface.calls", "cob2.compose_surface", "calls"),
    ("localize.surface_localization_group.self_s", "localize.surface_localization_group", "self_s"),
    ("localize.planar_localization_data.self_s", "localize.planar_localization_data", "self_s"),
    ("exactmath.reduce_lattice_rows.s", "exactmath.reduce_lattice_rows", "s"),
    ("exactmath.quotient_group.s", "exactmath.quotient_group", "s"),
    ("monoidal.cob1_picard.s", "monoidal.cob1_picard", "s"),
)

COUNTS = ("relator_rows.in", "relator_rows.kept")


def generate(names: gen.Names) -> tuple[dict[str, object], None]:
    return {}, None


def check_surfaces(bound: int):
    def check(result) -> str | None:
        doc = result.to_json()
        if doc["group"] != "Z":
            return f"group {doc['group']}, expected Z"
        classes = doc["classes"]
        want = gen.surface_names(-bound)
        if set(classes) != want:
            return f"classes {sorted(classes)}, expected {sorted(want)}"
        wrong = {k: v for k, v in classes.items() if v != gen.class_chi(k)}
        return f"classes not at their Euler characteristic: {wrong}" if wrong else None

    return check


def check_planar(points: int):
    def check(data) -> str | None:
        if data.pi0.to_json() != gen.group(0, [2]) or data.pi1.to_json() != gen.group(1):
            return f"pi0 {data.pi0.describe()}, pi1 {data.pi1.describe()}, expected Z/2 and Z"
        if len(data.basis) != sum(gen.ROOTED_TREES[: points // 2]):
            return f"{len(data.basis)} nesting trees, expected {sum(gen.ROOTED_TREES[: points // 2])}"
        for tree, coords in zip(data.basis, data.tree_classes):
            if list(coords) != [(gen.alternating_nodes(tree), 0)]:
                return f"tree {tree!r} has class {coords}, expected {gen.alternating_nodes(tree)}"
        return None

    return check


def check_picard(derived) -> str | None:
    doc = derived.to_json()
    got = (doc["pi0"], doc["pi1"], doc["k"])
    want = (gen.group(0, [2]), gen.group(1), [0])
    return None if got == want else f"pi0, pi1, k = {got}, expected {want}"


def prepare(cobcat, paths: dict[str, str], docs: dict, facts: None) -> tuple[list[Job], None]:
    localize, monoidal = cobcat.localize, cobcat.monoidal
    jobs = [
        Job(
            f"surface_localization_group({b})",
            lambda b=b: localize.surface_localization_group(b),
            check_surfaces(b),
            lambda r: json.dumps(r.to_json(), sort_keys=True),
        )
        for b in SURFACE_BOUNDS
    ]
    jobs.append(
        Job(
            f"planar_localization_data({PLANAR_POINTS})",
            lambda: localize.planar_localization_data(PLANAR_POINTS),
            check_planar(PLANAR_POINTS),
            lambda d: (d.pi0, d.pi1, d.basis, d.tree_classes),
        )
    )
    jobs.append(
        Job(
            f"cob1_picard({PICARD_POINTS})",
            lambda: monoidal.cob1_picard(PICARD_POINTS),
            check_picard,
            lambda r: json.dumps(r.to_json(), sort_keys=True),
        )
    )
    return jobs, None
