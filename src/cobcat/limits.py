"""Shared resource-ceiling plumbing.

Long-running enumerations (nerve cells, surface and planar closings,
relator matrices) refuse to grow past a configurable ceiling instead of
exhausting memory or time.  The CLI maps
:class:`ResourceLimitExceeded` to exit code 2.
"""

from __future__ import annotations

import os

DEFAULT_MAX_CELLS = 10**6
MAX_CELLS_ENV = "COBCAT_MAX_CELLS"


class ResourceLimitExceeded(RuntimeError):
    """An enumeration hit its configured ceiling before finishing."""


def max_cells_default() -> int:
    """Cell ceiling from the environment, or the built-in default; the CLI
    flag overrides it.  A value that is not a positive integer is bad input.
    """
    raw = os.environ.get(MAX_CELLS_ENV)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise ValueError(f"{MAX_CELLS_ENV} must be a positive integer, got {raw!r}")
    return value


def check_count(count: int, work: str) -> None:
    """Refuse ``work``, a phrase naming the count, when a closed-form count
    passes the ceiling, before anything is enumerated."""
    ceiling = max_cells_default()
    if count > ceiling:
        raise ResourceLimitExceeded(
            f"{work}, over the ceiling of {ceiling} ({MAX_CELLS_ENV})"
        )
