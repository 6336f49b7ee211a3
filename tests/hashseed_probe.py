"""Print the standard output of every ``cli-batch`` benchmark job, seed 1.

    PYTHONHASHSEED=0 python3 tests/hashseed_probe.py > a.txt
    PYTHONHASHSEED=1 python3 tests/hashseed_probe.py > b.txt
    cmp a.txt b.txt

Each invocation promises one deterministic JSON document, so the two files
must be byte-identical: no output may follow the order of a set or a dict
keyed by strings.  The job list is built by ``perfbench/run.py``'s
``set_up``, which only reads the benchmark; its input files go to a
temporary directory, whose name is replaced by ``<work>``.  The name has no
``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import run  # noqa: E402  perfbench/run.py


def main() -> None:
    with tempfile.TemporaryDirectory() as work:
        _, jobs, _ = run.set_up(run.wl_cli, 1, Path(work), None)
        for job in jobs:
            _, text = job.run()
            print(job.name, text.replace(work, "<work>"))


if __name__ == "__main__":
    main()
