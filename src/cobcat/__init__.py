"""cobcat: exact-arithmetic computational category theory and cobordisms.

Subpackages cover finite categories and their nerves, groupoid
localizations, one- and two-dimensional cobordism invariants, Picard
groupoid data, and Frobenius-pairing field theories.  Everything computes
over exact integers and rationals.

Importing the package loads none of its modules; ``cobcat.<module>`` is
imported on first access, so a command line compiles only what it runs.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

_SUBMODULES = "cli cob1 cob2 exactmath fincat limits localize monoidal nerve".split()


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
