"""Batch command-line front end with JSON input and output.

Every invocation writes exactly one JSON document with sorted keys to
standard output, so identical invocations produce byte-identical bytes;
wall-clock timing goes to standard error where it cannot disturb golden
files.  Exit codes: 0 on success, 1 on a domain error (bad input, unknown
command), 2 when a resource ceiling is exceeded, 3 when one of the
program's own self-checks fails (an internal error).

Each handler imports the modules it runs when it is called, so one
invocation compiles only those: ``cat validate`` loads no cobordism code.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import time
from collections import Counter
from dataclasses import dataclass

from .limits import ResourceLimitExceeded, parse_int


@dataclass(frozen=True)
class RunReport:
    """Outcome of one invocation: echoed command, result or error, timing."""

    command: tuple[str, ...]
    result: object
    error: str | None
    exit_code: int
    seconds: float

    def payload(self) -> dict:
        doc: dict = {"command": list(self.command)}
        if self.error is None:
            doc["result"] = self.result
        else:
            doc["error"] = self.error
        return doc


class _Parser(argparse.ArgumentParser):
    """Raises argparse's message, for ``dispatch`` to report; subparsers share the class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _integer(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="cobcat",
        description="Exact invariants of finite categories, diagram "
        "categories, and surface cobordisms.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("cat", help="finite categories and their nerves")
    cat_sub = cat.add_subparsers(dest="subcommand", required=True)
    hom = cat_sub.add_parser("homology", help="integer homology of the nerve")
    hom.add_argument("--cap", type=_integer, default=3, help="degrees computed: H_0..H_{cap-1}")
    hom.add_argument("path", help="category JSON file")
    pi1p = cat_sub.add_parser("pi1", help="fundamental group presentation")
    pi1p.add_argument("--base", required=True, help="basepoint object")
    pi1p.add_argument("path")
    pi0p = cat_sub.add_parser("pi0", help="connected components")
    pi0p.add_argument("path")
    val = cat_sub.add_parser("validate", help="check the category axioms")
    val.add_argument("path")

    loc = sub.add_parser("localize", help="invariants of localized categories")
    loc_sub = loc.add_subparsers(dest="subcommand", required=True)
    aut = loc_sub.add_parser("aut", help="automorphisms of an object after localization")
    aut.add_argument("--base", required=True, help="basepoint object")
    aut.add_argument("path")
    surf = loc_sub.add_parser("surfaces", help="surface relation engine")
    surf.add_argument("--max-chi", type=_integer, default=4, dest="max_chi",
                      help="complexity bound: classes with chi >= -N")

    c1 = sub.add_parser("cob1", help="planar diagram words")
    c1_sub = c1.add_subparsers(dest="subcommand", required=True)
    f1 = c1_sub.add_parser("f", help="signed circle count of a diagram")
    f1.add_argument("path")
    comp1 = c1_sub.add_parser("compose", help="stack two diagram words")
    comp1.add_argument("first")
    comp1.add_argument("second")
    red = c1_sub.add_parser("reduce", help="class of a closed word in the localization")
    red.add_argument("path")

    c2 = sub.add_parser("cob2", help="surface cobordisms")
    c2_sub = c2.add_subparsers(dest="subcommand", required=True)
    comp2 = c2_sub.add_parser("compose", help="glue two cobordisms")
    comp2.add_argument("first")
    comp2.add_argument("second")
    eul = c2_sub.add_parser("euler", help="Euler theory value chi(W) - chi(src)")
    eul.add_argument("path")
    cls2 = c2_sub.add_parser("class", help="connected-class factorization of a closed surface")
    cls2.add_argument("path")
    kch = c2_sub.add_parser("kcheck", help="connectivity of the outgoing boundary")
    kch.add_argument("--k", type=_integer, default=0)
    kch.add_argument("path")

    pic = sub.add_parser("picard", help="skeletal symmetric monoidal groupoids")
    pic_sub = pic.add_subparsers(dest="subcommand", required=True)
    pk = pic_sub.add_parser("k", help="k-invariant of an object class")
    pk.add_argument("--input", required=True, help="Picard data JSON file")
    pk.add_argument("--element", required=True, help="comma-separated coordinates")
    peq = pic_sub.add_parser("equivalent", help="decide equivalence")
    peq.add_argument("first")
    peq.add_argument("second")
    pc1 = pic_sub.add_parser("cob1", help="derived Picard data of the 1d localization")
    pc1.add_argument("--max-points", type=_integer, default=8, dest="max_points")

    fr = sub.add_parser("frob", help="field theories from a symmetric pairing")
    fr_sub = fr.add_subparsers(dest="subcommand", required=True)
    fev = fr_sub.add_parser("eval", help="matrix of a matching")
    fev.add_argument("theory")
    fev.add_argument("morphism")
    fex = fr_sub.add_parser("extend", help="extension criterion verdict")
    fex.add_argument("theory")

    rel = sub.add_parser(
        "relations",
        help="check the commuting-square relation classes of a finite category",
    )
    rel.add_argument("--base", default=None, help="restrict to one component")
    rel.add_argument("path")

    return top


def _load(path: str):
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None


def _run_cat(args) -> object:
    from . import exactmath, fincat, nerve
    c = fincat.from_json(_load(args.path))
    if args.subcommand == "homology":
        groups = nerve.homology(nerve.build_nerve(c, args.cap))
        # The degrees above the last cell share one zero group object: serialize each object once.
        docs = {id(g): g.to_json() for g in {id(g): g for g in groups}.values()}
        return {"H": [docs[id(g)] for g in groups]}
    if args.subcommand == "pi1":
        p = nerve.fundamental_group(c, args.base)
        return {
            "abelianized": exactmath.abelianize(p).to_json(),
            "base": args.base,
            "generators": list(p.generators),
            "relators": [p.render_word(r) for r in p.relators],
        }
    if args.subcommand == "pi0":
        return {"components": nerve.pi0(c)}
    # from_json has already refused a category with any problem.
    groupoid, _ = fincat.is_groupoid(c)
    return {"groupoid": groupoid, "problems": [], "valid": True}


def _run_localize(args) -> object:
    if args.subcommand == "surfaces":
        from . import localize
        return localize.surface_localization_group(args.max_chi).to_json()
    from . import fincat, localize
    c = fincat.from_json(_load(args.path))
    invariants, classes, p = localize.abelian_loop_classes(c, args.base)
    return {
        "abelianized": invariants.to_json(),
        "base": args.base,
        "generators": list(p.generators),
        "loop_classes": {
            c.morphisms[i]: [list(pair) for pair in pairs]
            for i, pairs in classes.items()
        },
        "relators": [p.render_word(r) for r in p.relators],
    }


def _run_cob1(args) -> object:
    from . import cob1
    if args.subcommand == "compose":
        a = cob1.diagram_from_json(_load(args.first))
        b = cob1.diagram_from_json(_load(args.second))
        return cob1.compose_planar(a, b).to_json()
    w = cob1.diagram_from_json(_load(args.path))
    if args.subcommand == "f":
        return cob1.f_invariant(w)
    return cob1.reduce_endomorphism(w)


def _run_cob2(args) -> object:
    from . import cob2
    if args.subcommand == "compose":
        a = cob2.surface_from_json(_load(args.first))
        b = cob2.surface_from_json(_load(args.second))
        return cob2.surface_to_json(cob2.compose_surface(a, b))
    w = cob2.surface_from_json(_load(args.path))
    if args.subcommand == "euler":
        return {"euler": cob2.euler_tqft(w)}
    if args.subcommand == "class":
        s = cob2.surface_class(w)
        try:
            oriented = cob2.oriented_class(s)
        except ValueError:
            oriented = None
        return {
            "chi": sum(cob2.chi_of_class(c) for c in s.components),
            "classes": list(cob2.class_names(s)),
            "nullbordant": cob2.is_nullbordant(s),
            "oriented": oriented,
            "unoriented": cob2.unoriented_class(s),
        }
    return {"k": args.k, "k_connected": cob2.is_k_connected(w, args.k)}


def _parse_element(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_int(part) for part in text.split(","))


def _run_picard(args) -> object:
    from . import monoidal
    if args.subcommand == "k":
        p = monoidal.picard_from_json(_load(args.input))
        x = p.pi0.normalize(_parse_element(args.element))
        return {"element": list(x), "k": list(monoidal.k_invariant(p, x))}
    if args.subcommand == "equivalent":
        a = monoidal.picard_from_json(_load(args.first))
        b = monoidal.picard_from_json(_load(args.second))
        return {"equivalent": monoidal.picard_equivalent(a, b)}
    return monoidal.cob1_picard(args.max_points).to_json()


def _run_frob(args) -> object:
    from . import cob1, monoidal
    theory = monoidal.frobenius_from_json(_load(args.theory))
    if args.subcommand == "extend":
        ext = monoidal.extend_to_full(theory)
        circle = None
        if ext.evaluator is not None:
            circle = theory.field.to_json(ext.evaluator.circle_value())
        return {
            "circle": circle,
            "dim": theory.dim,
            "extends": ext.extends,
            "reason": ext.reason,
        }
    w = cob1.matching_from_json(_load(args.morphism))
    if cob1.restricted_from_matching(w) is not None:
        mat = monoidal.evaluate_restricted(theory, w)
    else:
        ext = monoidal.extend_to_full(theory)
        if not ext.extends:
            raise ValueError(
                "morphism needs caps or circles but the "
                + ext.reason
            )
        mat = ext.evaluator.evaluate(w)
    return {
        "cols": theory.dim**w.m,
        "matrix": monoidal.mat_to_json(theory.field, mat),
        "rows": theory.dim**w.n,
    }


def _run_relations(args) -> object:
    from . import fincat, localize, nerve
    c = fincat.from_json(_load(args.path))
    bases = [args.base] if args.base is not None else [names[0] for names in nerve.pi0(c)]
    chosen = {x for base in bases for x in c.components[c.object_index(base)]}
    # Σ |hom(x,y)|²·|hom(y,x)|² over the pairs of the chosen components; a
    # pair with no arrow x -> y adds nothing, so only hom-sets are walked.
    homs = Counter(zip(c.src, c.tgt))
    checked = sum(n**2 * homs[y, x] ** 2 for (x, y), n in homs.items() if x in chosen)
    # The class map is additive on every composable pair, so every square
    # word a.b^-1.d.c^-1 dies; a pair that is not is a failed self-check.
    for base in bases:
        _, classes, _ = localize.abelian_loop_classes(c, base)
        for f in [f for f in classes if not c.is_identity(f)]:
            for g in c.arrows[c.tgt[f]]:
                if any(localize.word_class(classes, localize.relation_word(c, f, g))):
                    raise AssertionError(
                        f"class of {c.morphisms[c.compose(f, g)]} is not the sum "
                        f"of the classes of {c.morphisms[f]} and {c.morphisms[g]}"
                    )
    return {"checked": checked, "components": len(bases), "nonvanishing": 0}


_HANDLERS = {
    "cat": _run_cat,
    "localize": _run_localize,
    "cob1": _run_cob1,
    "cob2": _run_cob2,
    "picard": _run_picard,
    "frob": _run_frob,
    "relations": _run_relations,
}


def dispatch(argv) -> RunReport:
    """Parse and execute one command line; never raises on domain errors."""
    start = time.perf_counter()
    command = tuple(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except argparse.ArgumentError as exc:
        error = f"unrecognized command line; {exc}; " + parser.format_usage().strip()
        return RunReport(command, None, error, 1, time.perf_counter() - start)
    try:
        result = _HANDLERS[args.command](args)
        error, code = None, 0
    except ResourceLimitExceeded as exc:
        result, error, code = None, str(exc), 2
    except (AssertionError, RuntimeError) as exc:
        # A self-check of the program failed: d.d != 0, a relator that does
        # not die, a k-invariant that does not factor, an impossible gluing.
        result, error, code = None, f"internal error: {type(exc).__name__}: {exc}", 3
    except (ValueError, KeyError, TypeError, OSError) as exc:
        result, error, code = None, f"{type(exc).__name__}: {exc}", 1
    except MemoryError:
        # Last resort: the budgets bound counts, and a run under them can
        # still exhaust memory.
        result, error, code = None, "MemoryError: the run ran out of memory", 2
    return RunReport(command, result, error, code, time.perf_counter() - start)


def main(argv=None) -> int:
    report = dispatch(sys.argv[1:] if argv is None else argv)
    print(json.dumps(report.payload(), sort_keys=True, check_circular=False))
    print(f"elapsed {report.seconds:.3f}s", file=sys.stderr)
    return report.exit_code


if __name__ == "__main__":
    sys.exit(main())
