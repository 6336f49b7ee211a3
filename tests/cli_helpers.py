"""References for the command-line front end.

``build_parser`` is the argparse parser the front end once built, and
``text_load`` its text-mode file read; the table reader and the bytes
``_load`` in ``cobcat.cli`` are checked against them.  ``MALFORMED`` pins
malformed command lines to the errors argparse gave for them on Python 3.11.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import json

from cobcat.limits import parse_int

USAGE = "usage: cobcat [-h] {cat,localize,cob1,cob2,picard,frob,relations} ..."
COMMANDS = "'cat', 'localize', 'cob1', 'cob2', 'picard', 'frob', 'relations'"

# A malformed command line and the error ``dispatch`` reports for it.  No
# file is read before the command line is refused, so the paths need not
# exist.
MALFORMED = [
    (["nonsense"], f"argument command: invalid choice: 'nonsense' (choose from {COMMANDS})"),
    ([], "the following arguments are required: command"),
    (["cat"], "the following arguments are required: subcommand"),
    (
        ["cat", "nonsense", "c.json"],
        "argument subcommand: invalid choice: 'nonsense' "
        "(choose from 'homology', 'pi1', 'pi0', 'validate')",
    ),
    (["cat", "pi0"], "the following arguments are required: path"),
    (["cat", "pi0", "c.json", "d.json"], "unrecognized arguments: d.json"),
    (["cat", "pi1", "c.json"], "the following arguments are required: --base"),
    (["localize", "aut", "c.json", "--base"], "argument --base: expected one argument"),
    (["cat", "homology", "--cap", "x", "c.json"], "argument --cap: invalid integer 'x'"),
    (["picard", "equivalent", "a.json", "b.json", "--search-bound", "5"], "unrecognized arguments: --search-bound 5"),
    (["picard", "k", "--element", "1"], "the following arguments are required: --input"),
    (["cob1", "compose", "a.json"], "the following arguments are required: second"),
    (["cat", "homology", "--=3", "c.json"], "ambiguous option: --=3 could match --help, --cap"),
    (["relations", "--help=x", "c.json"], "argument -h/--help: ignored explicit argument 'x'"),
]

# The three forms of a help request: the program's, a command's and a
# subcommand's.
HELP = [["-h"], ["cat", "--help"], ["cat", "homology", "-h"]]


class Parser(argparse.ArgumentParser):
    """Raises argparse's message, for ``dispatch`` to report; subparsers share the class."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def integer(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    top = Parser(
        prog="cobcat",
        description="Exact invariants of finite categories, diagram "
        "categories, and surface cobordisms.",
    )
    sub = top.add_subparsers(dest="command", required=True)

    cat = sub.add_parser("cat", help="finite categories and their nerves")
    cat_sub = cat.add_subparsers(dest="subcommand", required=True)
    hom = cat_sub.add_parser("homology", help="integer homology of the nerve")
    hom.add_argument("--cap", type=integer, default=3, help="degrees computed: H_0..H_{cap-1}")
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
    surf.add_argument("--max-chi", type=integer, default=4, dest="max_chi",
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
    kch.add_argument("--k", type=integer, default=0)
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
    pc1.add_argument("--max-points", type=integer, default=8, dest="max_points")

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


def argparse_reading(argv) -> tuple[str, object]:
    """How the argparse parser reads ``argv``: ``("args", attributes)``,
    ``("help", the usage line of the help it prints)`` or ``("error",
    message)``."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            args = build_parser().parse_args(list(argv))
    except argparse.ArgumentError as exc:
        return "error", str(exc)
    except SystemExit:
        return "help", out.getvalue().splitlines()[0]
    return "args", vars(args)


def text_load(path: str):
    """The text-mode read of a JSON input file."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except RecursionError:
            raise ValueError(f"{path}: JSON nested too deeply") from None
