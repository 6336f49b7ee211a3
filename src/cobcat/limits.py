"""Shared resource-ceiling plumbing.

Every super-linear computation counts its work in closed form and hands the
count to :func:`check_count` before it starts.  One ceiling,
``COBCAT_MAX_CELLS`` (default 10^6), prices nerve degrees and cells, the
relator matrix of an edge-path presentation, surface and planar closings,
``frob eval`` entries and circle powers, and associator quadruples.  The CLI
maps :class:`ResourceLimitExceeded` to exit code 2.
"""

from __future__ import annotations

import os

DEFAULT_MAX_CELLS = 10**6
MAX_CELLS_ENV = "COBCAT_MAX_CELLS"


class ResourceLimitExceeded(RuntimeError):
    """An enumeration hit its configured ceiling before finishing."""


def parse_int(text: str) -> int:
    """An optional ``-`` and ASCII digits, where ``int`` also takes ``+``, blanks,
    ``_`` and other scripts' digits; anything else fails with ``int``'s message."""
    digits = text[1:] if text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def max_cells_default() -> int:
    """Cell ceiling from the environment, or the built-in default; a value
    that is not a positive integer is bad input."""
    raw = os.environ.get(MAX_CELLS_ENV)
    if raw is None:
        return DEFAULT_MAX_CELLS
    try:
        value = parse_int(raw)
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
