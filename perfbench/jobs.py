"""What a workload hands to the runner: jobs, and how a job can go wrong."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


class Failed(Exception):
    """The operation failed: cobcat reported an error where a result was
    due, or accepted an input it must refuse.  An exception out of ``run``
    counts the same.  Failures are counted, not judged for correctness."""


@dataclass(frozen=True)
class Job:
    """One timed call into cobcat.

    ``run`` is timed.  ``check`` runs on the first pass only: it raises
    :class:`Failed` for a failed operation and returns a message when the
    output is wrong, None when it is right.  On later passes ``digest`` of
    the output must equal the first pass's.
    """

    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    digest: Callable[[object], object]
