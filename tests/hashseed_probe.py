"""Print the standard output of every ``cli-batch`` benchmark job, at seeds
1 and 2, of ``relations`` and ``localize aut`` on a category with several
components, and of the malformed command lines and help requests that
``tests/cli_helpers.py`` pins.

    PYTHONHASHSEED=0 python3 tests/hashseed_probe.py > a.txt
    PYTHONHASHSEED=1 python3 tests/hashseed_probe.py > b.txt
    cmp a.txt b.txt

Each invocation promises one deterministic JSON document, so the two files
must be byte-identical: no output may follow the order of a set or a dict
keyed by strings.  The job lists are built by ``perfbench/run.py``'s
``set_up``, which only reads the benchmark; the input files go to a
temporary directory, whose name is replaced by ``<work>``.  The name has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  perfbench/run.py


def components_probe(work: str) -> None:
    """``relations``, with and without a basepoint, and ``localize aut`` at
    every object, on four components whose index order is not the order
    of their names."""
    from cobcat.cli import dispatch
    from cobcat.fincat import parallel_pair, subset_poset_category
    from fincat_helpers import cyclic_group_category, disjoint_union, product, to_json

    cat = disjoint_union(
        disjoint_union(product(parallel_pair(), cyclic_group_category(2)), subset_poset_category(3)),
        disjoint_union(cyclic_group_category(3), parallel_pair(), ("x:", "y:")),
        ("m:", "k:"),
    )
    path = Path(work) / "components.json"
    path.write_text(json.dumps(to_json(cat)))
    argvs = [("relations", str(path))]
    for obj in cat.objects:
        argvs += [("relations", "--base", obj, str(path)), ("localize", "aut", "--base", obj, str(path))]
    for argv in argvs:
        text = json.dumps(dispatch(argv).payload(), sort_keys=True)
        print(" ".join(argv[:-1]), text.replace(work, "<work>"))


def command_line_probe() -> None:
    """Each pinned malformed command line and help request, whose output
    comes from the command-line table alone."""
    from cobcat.cli import dispatch
    from cli_helpers import HELP, MALFORMED

    for argv in [argv for argv, _ in MALFORMED] + HELP:
        print(json.dumps(dispatch(argv).payload(), sort_keys=True))


def main() -> None:
    command_line_probe()
    for seed in (1, 2):
        with tempfile.TemporaryDirectory() as work:
            _, jobs, _ = run.set_up(run.wl_cli, seed, Path(work), None)
            for job in jobs:
                _, text = job.run()
                print(seed, job.name, text.replace(work, "<work>"))
    with tempfile.TemporaryDirectory() as work:
        components_probe(work)


if __name__ == "__main__":
    main()
