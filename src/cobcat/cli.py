"""Batch command-line front end with JSON input and output.

Every invocation writes exactly one JSON document with sorted keys to
standard output, so identical invocations produce byte-identical bytes;
wall-clock timing goes to standard error where it cannot disturb golden
files.  Exit codes: 0 on success, 1 on a domain error (bad input, unknown
command), 2 when a resource ceiling is exceeded, 3 when one of the
program's own self-checks fails (an internal error).

``_TABLE`` holds every command line: it is read as argparse read it, refused
with argparse's Python 3.11 text on every Python, and ``-h`` is answered as
JSON.  Each input is read once as bytes, with text mode's newlines.  Each
handler imports the modules it runs: ``cat validate`` loads no cobordism code.
"""

from __future__ import annotations

import json
import re
import sys
import time
from collections import Counter
from dataclasses import dataclass
from types import SimpleNamespace

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
        outcome = {"result": self.result} if self.error is None else {"error": self.error}
        return {"command": list(self.command), **outcome}


_PATH, _PAIR, _WORD = {"path": None}, {"first": None, "second": None}, {"subcommand": None}
_BASE = {"--base": (str, None, True, "basepoint object")}

# Each command line by its words: (help, options, positionals).  An option
# maps its flag to (converter, default, required, help), read into the flag's
# name with "_" for "-"; a positional maps to its help.  A group's one
# positional is the next word, which names a key below it; ``_BELOW`` lists
# the words that may follow each command line, in table order.
_TABLE = {
    (): ("Exact invariants of finite categories, diagram categories, and surface cobordisms.", {},
         {"command": None}),
    ("cat",): ("finite categories and their nerves", {}, _WORD),
    ("cat", "homology"): ("integer homology of the nerve", {
        "--cap": (parse_int, 3, False, "degrees computed: H_0..H_{cap-1}")}, {"path": "category JSON file"}),
    ("cat", "pi1"): ("fundamental group presentation", _BASE, _PATH),
    ("cat", "pi0"): ("connected components", {}, _PATH),
    ("cat", "validate"): ("check the category axioms", {}, _PATH),
    ("localize",): ("invariants of localized categories", {}, _WORD),
    ("localize", "aut"): ("automorphisms of an object after localization", _BASE, _PATH),
    ("localize", "surfaces"): ("surface relation engine", {
        "--max-chi": (parse_int, 4, False, "complexity bound: classes with chi >= -N")}, {}),
    ("cob1",): ("planar diagram words", {}, _WORD),
    ("cob1", "f"): ("signed circle count of a diagram", {}, _PATH),
    ("cob1", "compose"): ("stack two diagram words", {}, _PAIR),
    ("cob1", "reduce"): ("class of a closed word in the localization", {}, _PATH),
    ("cob2",): ("surface cobordisms", {}, _WORD),
    ("cob2", "compose"): ("glue two cobordisms", {}, _PAIR),
    ("cob2", "euler"): ("Euler theory value chi(W) - chi(src)", {}, _PATH),
    ("cob2", "class"): ("connected-class factorization of a closed surface", {}, _PATH),
    ("cob2", "kcheck"): ("connectivity of the outgoing boundary", {"--k": (parse_int, 0, False, None)}, _PATH),
    ("picard",): ("skeletal symmetric monoidal groupoids", {}, _WORD),
    ("picard", "k"): ("k-invariant of an object class", {
        "--input": (str, None, True, "Picard data JSON file"),
        "--element": (str, None, True, "comma-separated coordinates")}, {}),
    ("picard", "equivalent"): ("decide equivalence", {}, _PAIR),
    ("picard", "cob1"): ("derived Picard data of the 1d localization", {
        "--max-points": (parse_int, 8, False, None)}, {}),
    ("frob",): ("field theories from a symmetric pairing", {}, _WORD),
    ("frob", "eval"): ("matrix of a matching", {}, {"theory": None, "morphism": None}),
    ("frob", "extend"): ("extension criterion verdict", {}, {"theory": None}),
    ("relations",): ("check the commuting-square relation classes of a finite category", {
        "--base": (str, None, False, "restrict to one component")}, _PATH),
}
_BELOW = {key: [k[-1] for k in _TABLE if k and k[:-1] == key] for key in _TABLE}


def _option(arg: str, flags: list[str]) -> tuple | None:
    """argparse's reading of an argument before ``--``: None for a positional, else
    (flag or None if none is named, text after "=" or None); ``-hx`` gives help "x"."""
    if arg[:1] != "-" or arg == "-":
        return None
    if arg[1] == "h":  # -h, -hh and -h=h ask for help
        rest = arg[3:] if arg[2:3] == "=" else arg[2:]
        return "--help", "" if arg == "-h=" else rest.lstrip("h") or None
    name, eq, text = arg.partition("=")
    found = [name] if name in flags else [f for f in flags if name[1:2] == "-" and f.startswith(name)]
    if len(found) > 1:
        raise ValueError(f"ambiguous option: {arg} could match {', '.join(found)}")
    if found:
        return found[0], text if eq else None
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", arg) or " " in arg else (None, None)


def _parse(argv) -> tuple[tuple, SimpleNamespace | None]:
    """The table key ``argv`` names and its values as argparse read them, or
    None for a help request's; a refusal raises ValueError with its text."""
    args, extras, key = list(argv), [], ()
    if args.count("--") > 1:  # argparse left some positionals a list here; refused instead
        raise ValueError("'--' given more than once")
    while True:
        _, options, positionals = _TABLE[key]
        below, end = _BELOW[key], args.index("--") if "--" in args else len(args)
        kinds = [_option(arg, ["--help", *options]) for arg in args[:end]]  # all read before any is taken
        kinds += ["--"] + [None] * (len(args) - end - 1)  # after "--", only positionals
        values = {flag: option[1] for flag, option in options.items()}
        todo, filled, i = list(positionals), False, 0
        while i < len(args) and not (below and (kinds[i] is None or kinds[i] == "--" and i + 1 < len(args))):
            kind, joined, filled = kinds[i], filled, kinds[i] is None and bool(todo)
            if kind == "--":  # joins the positional next to it, or is left over
                if not (joined or todo and i + 1 < len(args)):
                    extras.append("--")
            elif filled:
                values[todo.pop(0)] = args[i]
            elif kind is None or kind[0] is None:
                extras.append(args[i])
            elif kind[0] == "--help":
                if kind[1] is None:
                    return key, None
                raise ValueError(f"argument -h/--help: ignored explicit argument {kind[1]!r}")
            else:
                flag, text = kind
                if text is None:
                    if kinds[i + 1] is not None:
                        raise ValueError(f"argument {flag}: expected one argument")
                    i, text = i + 1, args[i + 1]
                try:
                    values[flag] = options[flag][0](text)
                except ValueError:
                    raise ValueError(f"argument {flag}: invalid integer {text!r}") from None
            i += 1
        if i == len(args):
            break
        if args[i] not in below:  # a group's next word
            choices = ", ".join(map(repr, below))
            raise ValueError(f"argument {todo[0]}: invalid choice: {args[i]!r} (choose from {choices})")
        key, args = key + (args[i],), args[i + 1 :]
    missing = [flag for flag, option in options.items() if option[2] and values[flag] is None] + todo
    if missing:
        raise ValueError("the following arguments are required: " + ", ".join(missing))
    if extras:
        raise ValueError("unrecognized arguments: " + " ".join(extras))
    values = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
    return key, SimpleNamespace(**dict(zip(("command", "subcommand"), key)), **values)


def _help(key: tuple) -> dict:
    """The help for the command line ``key``, from the table."""
    text, options, positionals = _TABLE[key]
    options = [{"default": d, "help": h, "name": f, "required": r} for f, (_, d, r, h) in options.items()]
    positionals = [{"help": note, "name": name} for name, note in positionals.items()]
    words = [{"help": _TABLE[key + (word,)][0], "name": word} for word in _BELOW[key]]
    return {"help": text, "options": options, "positionals": positionals, "words": words}


def _load(path: str):
    """The JSON document in a file, read once as bytes and decoded as text mode does."""
    with open(path, "rb", buffering=0) as fh:
        text = fh.read().decode("utf-8")
    try:  # Universal newlines, so every JSON error offset is a text-mode read's.
        return json.loads(text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text)
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
        "loop_classes": {c.morphisms[i]: [list(pair) for pair in pairs] for i, pairs in classes.items()},
        "relators": [p.render_word(r) for r in p.relators],
    }


def _run_cob1(args) -> object:
    from . import cob1
    if args.subcommand == "compose":
        a, b = (cob1.diagram_from_json(_load(path)) for path in (args.first, args.second))
        return cob1.compose_planar(a, b).to_json()
    w = cob1.diagram_from_json(_load(args.path))
    if args.subcommand == "f":
        return cob1.f_invariant(w)
    return cob1.reduce_endomorphism(w)


def _run_cob2(args) -> object:
    from . import cob2
    if args.subcommand == "compose":
        a, b = (cob2.surface_from_json(_load(path)) for path in (args.first, args.second))
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
    return tuple(parse_int(part) for part in text.split(",")) if text else ()


def _run_picard(args) -> object:
    from . import monoidal
    if args.subcommand == "k":
        p = monoidal.picard_from_json(_load(args.input))
        x = p.pi0.normalize(_parse_element(args.element))
        return {"element": list(x), "k": list(monoidal.k_invariant(p, x))}
    if args.subcommand == "equivalent":
        a, b = (monoidal.picard_from_json(_load(path)) for path in (args.first, args.second))
        return {"equivalent": monoidal.picard_equivalent(a, b)}
    return monoidal.cob1_picard(args.max_points).to_json()


def _run_frob(args) -> object:
    from . import cob1, monoidal
    theory = monoidal.frobenius_from_json(_load(args.theory))
    if args.subcommand == "extend":
        ext = monoidal.extend_to_full(theory)
        circle = None if ext.evaluator is None else theory.field.to_json(ext.evaluator.circle_value())
        return {"circle": circle, "dim": theory.dim, "extends": ext.extends, "reason": ext.reason}
    w = cob1.matching_from_json(_load(args.morphism))
    if cob1.restricted_from_matching(w) is not None:
        mat = monoidal.evaluate_restricted(theory, w)
    else:
        ext = monoidal.extend_to_full(theory)
        if not ext.extends:
            raise ValueError("morphism needs caps or circles but the " + ext.reason)
        mat = ext.evaluator.evaluate(w)
    return {"cols": theory.dim**w.m, "matrix": monoidal.mat_to_json(theory.field, mat), "rows": theory.dim**w.n}


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
    "cat": _run_cat, "localize": _run_localize, "cob1": _run_cob1, "cob2": _run_cob2,
    "picard": _run_picard, "frob": _run_frob, "relations": _run_relations,
}


def dispatch(argv) -> RunReport:
    """Parse and execute one command line; never raises on domain errors."""
    start = time.perf_counter()
    command = tuple(argv)
    try:
        key, args = _parse(command)
    except ValueError as exc:
        error = f"unrecognized command line; {exc}; usage: cobcat [-h] {{{','.join(_BELOW[()])}}} ..."
        return RunReport(command, None, error, 1, time.perf_counter() - start)
    try:
        result = _help(key) if args is None else _HANDLERS[args.command](args)
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
