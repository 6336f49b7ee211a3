"""In-memory spans around calls into cobcat's public functions.

The benchmark, not cobcat, records these spans: :meth:`Tracer.install`
replaces a function or method with a wrapper that times each call, and
:meth:`Tracer.uninstall` puts the original back, so untraced passes run
cobcat's own code with nothing in between.

A span's self time is its duration minus the time covered by the spans
opened inside it.  Every span adds to its name's totals; only while
:attr:`Tracer.keep_spans` is set is the span itself kept, in memory in flat
arrays (a relators pass opens about 65,000 of them), for
:meth:`Tracer.dump` to write out when the run ends.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One entry per finished span, in the order spans close: span id
        # (spans are numbered as they open), name id, parent span id (-1 for
        # a root), start and end in perf_counter seconds.
        self.span_id = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.keep_spans = False
        self._next_index = 0
        # Open spans: [span id, start, time covered by children, name].
        self._stack: list[list] = []
        self.totals: dict[str, list] = {}  # name -> [calls, seconds, self seconds]
        self.counts: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> None:
        self._stack.append([self._next_index, _clock(), 0.0, name])
        self._next_index += 1

    def current(self) -> str | None:
        """Name of the innermost open span."""
        return self._stack[-1][3] if self._stack else None

    def close(self) -> float:
        end = _clock()
        index, start, children, name = self._stack.pop()
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += duration
        agg = self.totals.get(name)
        if agg is None:
            agg = self.totals[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += duration
        agg[2] += duration - children
        if self.keep_spans:
            self.span_id.append(index)
            self.span_name.append(self._name_id(name))
            self.span_parent.append(parent[0] if parent is not None else -1)
            self.span_start.append(start)
            self.span_end.append(end)
        return duration

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def take(self) -> tuple[dict[str, list], dict[str, int]]:
        """Return and reset the aggregates gathered since the last take."""
        totals, counts = self.totals, self.counts
        self.totals, self.counts = {}, {}
        return totals, counts

    # -- instrumentation ---------------------------------------------------

    def wrap(self, name: str, fn, after=None):
        """``fn`` inside a span; ``after(tracer, args, result)`` runs once
        the span is closed, so counting output costs no span time."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close()
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def install(self, targets) -> None:
        """Wrap each ``(dotted name, span name, after)`` target.

        A module-level function is replaced in every loaded module of its
        top-level package that binds that same object, so callers that did
        ``from .module import function`` see the wrapper too.  A method
        (``package.module.Class.method``) is replaced on its class.
        """
        for dotted, span_name, after in targets:
            parts = dotted.split(".")
            cut = max(i for i in range(1, len(parts)) if ".".join(parts[:i]) in sys.modules)
            owner = sys.modules[".".join(parts[:cut])]
            for part in parts[cut:-1]:
                owner = getattr(owner, part)
            attr = parts[-1]
            original = getattr(owner, attr)
            wrapper = self.wrap(span_name, original, after)
            if cut < len(parts) - 1:
                self._patch(owner, attr, wrapper)
                continue
            package = parts[0]
            for key, mod in list(sys.modules.items()):
                if (key == package or key.startswith(package + ".")) and getattr(
                    mod, attr, None
                ) is original:
                    self._patch(mod, attr, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ------------------------------------------------------------

    def dump(self, path, summary: dict) -> None:
        """Write ``summary`` and every kept span."""
        doc = {
            "summary": summary,
            "span_names": self.names,
            "spans": {
                "id": self.span_id.tolist(),
                "name": self.span_name.tolist(),
                "parent": self.span_parent.tolist(),
                "start": self.span_start.tolist(),
                "end": self.span_end.tolist(),
            },
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
