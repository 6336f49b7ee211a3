"""Run one cobcat benchmark workload and print its metrics.

    python3 perfbench/run.py --workload nerve --seed 1 --seconds 30 --trace 0

The run imports cobcat from ``src/`` of the checkout it sits in, generates
the workload's inputs from the seed, writes them under ``.perfbench_work/``
and parses them: that is one set-up.  It then repeats passes over the
workload's fixed job list, in one process and one thread, until
``--seconds`` have gone by, and always ends on a whole pass.  Between
passes, once every ``--seconds / SETUPS``, it times one more set-up, so that
the set-ups sample the same stretch of the machine's speed as the passes;
``setup_s`` is the median of all of them.  The first pass checks every
output against independent answers; later passes must reproduce the first
pass's outputs.

With ``--trace 0`` the last line of standard output is the JSON result
with the end-to-end metrics: medians over the passes of the pass time
(``wall_s``) and of each pass's median job latency (``job_p50_ms``), the
peak resident memory, and ``setup_s``.  With ``--trace 1`` passes alternate
between untraced and traced, the result holds the per-layer metrics (medians
over the traced passes) and the tracing overhead, and the spans are written
to ``.perfbench_out/``.  A workload's metrics for layers it never calls
read 0.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

import gen
import wl_cli
import wl_nerve
import wl_relators
from jobs import Failed
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {"nerve": wl_nerve, "relators": wl_relators, "cli-batch": wl_cli}
SETUPS = 12  # set-ups per run: one every --seconds / SETUPS, checked between passes
COMMON_LAYERS = (
    ("setup.fincat.from_json.s", "s"),
    ("trace.overhead", "ratio"),
    ("trace.coverage", "ratio"),
)

clock = time.perf_counter


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of every workload, with its unit."""
    units = {}
    for wl in WORKLOADS.values():
        for metric, _, field in wl.LAYERS:
            units[metric] = "count" if field == "calls" else "s"
        for metric in wl.COUNTS:
            units[metric] = "count"
    units.update(COMMON_LAYERS)
    return units


def cobcat_modules() -> dict:
    return {k: m for k, m in sys.modules.items() if k == "cobcat" or k.startswith("cobcat.")}


def import_cobcat():
    """A fresh import of cobcat, so every set-up pays for it."""
    for key in cobcat_modules():
        del sys.modules[key]
    importlib.import_module("cobcat.cli")
    return sys.modules["cobcat"]


def set_up(wl, seed: int, work: Path, tracer: Tracer | None):
    start = clock()
    cobcat = import_cobcat()
    docs, facts = wl.generate(gen.Names(random.Random(seed)))
    paths = {}
    for stem, doc in docs.items():
        path = work / f"{stem}.json"
        path.write_text(doc if isinstance(doc, str) else json.dumps(doc), encoding="utf-8")
        paths[stem] = str(path)
    if tracer is not None:
        tracer.install(wl.TARGETS)
    try:
        jobs, check_pass = wl.prepare(cobcat, paths, docs, facts)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return clock() - start, jobs, check_pass


def time_set_up(wl, seed: int, work: Path, tracer: Tracer | None) -> float:
    """Time one more set-up and throw it away.  The passes keep running on
    the cobcat modules they were set up with, which are the ones tracing
    wraps, so those are put back in ``sys.modules``."""
    running = cobcat_modules()
    seconds, _, _ = set_up(wl, seed, work, tracer)
    for key in cobcat_modules():
        del sys.modules[key]
    sys.modules.update(running)
    return seconds


class Runner:
    """Runs passes over one job list and keeps the tally of operations."""

    def __init__(self, jobs, check_pass):
        self.jobs = jobs
        self.check_pass = check_pass
        self.status: dict[str, str] = {}  # first-pass verdict per job
        self.reference: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong: list[str] = []

    def run_pass(self) -> tuple[list[float], list]:
        first = not self.status
        latencies, results, outputs = [], [], {}
        for job in self.jobs:
            # No job pays for collecting the garbage of the one before it,
            # which the seeded job order would make differ between seeds.
            gc.collect()
            start = clock()
            try:
                out = job.run()
            except Exception as exc:  # a crash is a failed operation; keep going
                out = exc
            latencies.append(clock() - start)
            self.attempted += 1
            if isinstance(out, Exception):
                if first:
                    self.status[job.name] = "failed"
                    print(f"{job.name}: failed: {''.join(traceback.format_exception_only(out)).strip()[:200]}", file=sys.stderr)
                self.failed += 1
                continue
            results.append(out)
            outputs[job.name] = out
            if first:
                self.status[job.name] = self._verdict(job, out)
                self.reference[job.name] = job.digest(out)
            elif job.digest(out) != self.reference[job.name]:
                self.wrong.append(f"{job.name}: output differs from the first pass")
            if self.status[job.name] == "failed":
                self.failed += 1
        if first and self.check_pass is not None:
            try:
                self.wrong.extend(self.check_pass(outputs))
            except Exception as exc:  # an output of an unexpected shape
                self.wrong.append(f"cross-job check raised {type(exc).__name__}: {exc}")
        return latencies, results

    def _verdict(self, job, out) -> str:
        try:
            problem = job.check(out)
        except Failed as exc:
            print(f"{job.name}: failed: {exc}", file=sys.stderr)
            return "failed"
        except Exception as exc:  # an output of an unexpected shape is wrong
            problem = f"check raised {type(exc).__name__}: {exc}"
        if problem is not None:
            self.wrong.append(f"{job.name}: {problem}")
            return "wrong"
        return "ok"


def layer_values(wl, totals: dict, counts: dict, results: list, wall: float) -> dict[str, float]:
    fields = {"calls": 0, "s": 1, "self_s": 2}
    values = {
        metric: totals.get(span, [0, 0.0, 0.0])[fields[field]] for metric, span, field in wl.LAYERS
    }
    values.update(counts)
    pass_counts = getattr(wl, "pass_counts", None)
    if pass_counts is not None:
        values.update(pass_counts(results))
    named = {span for _, span, _ in wl.LAYERS}
    values["trace.coverage"] = sum(totals[s][2] for s in named if s in totals) / wall
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "cobcat" / "__init__.py").is_file():
        print(f"cobcat sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    wl = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    work.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    try:
        setups, setup_parse = [], []

        def record_set_up(seconds: float) -> None:
            setups.append(seconds)
            if tracer is not None:
                totals, _ = tracer.take()
                setup_parse.append(totals.get("fincat.from_json", [0, 0.0])[1])

        seconds, jobs, check_pass = set_up(wl, args.seed, work, tracer)
        record_set_up(seconds)
        random.Random(f"order-{args.seed}").shuffle(jobs)
        runner = Runner(jobs, check_pass)

        plain, traced, traced_layers = [], [], []
        start = last_set_up = clock()
        while clock() - start < args.seconds or not plain or (tracer is not None and not traced):
            if clock() - last_set_up >= args.seconds / SETUPS:
                record_set_up(time_set_up(wl, args.seed, work, tracer))
                last_set_up = clock()
            use_trace = tracer is not None and len(plain) > len(traced)
            if use_trace:
                tracer.install(wl.TARGETS)
                tracer.keep_spans = not traced  # the spans of the first traced pass
            try:
                latencies, results = runner.run_pass()
            finally:
                if use_trace:
                    tracer.uninstall()
                    tracer.keep_spans = False
            wall = sum(latencies)
            if use_trace:
                totals, counts = tracer.take()
                traced.append(wall)
                traced_layers.append(layer_values(wl, totals, counts, results, wall))
            else:
                plain.append((wall, statistics.median(latencies)))
            del results  # so one pass's outputs are freed before the next pass

        if tracer is None:
            metrics = {
                "wall_s": (statistics.median(w for w, _ in plain), "s"),
                "job_p50_ms": (statistics.median(p for _, p in plain) * 1000, "ms"),
                "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
                "setup_s": (statistics.median(setups), "s"),
            }
        else:
            units = per_layer_units()
            # Counts repeat exactly, so median_low keeps them whole numbers.
            values = {
                name: (statistics.median_low if units[name] == "count" else statistics.median)(
                    [layer[name] for layer in traced_layers]
                )
                for name in traced_layers[0]
            }
            values["setup.fincat.from_json.s"] = statistics.median(setup_parse)
            values["trace.overhead"] = statistics.median(traced) / statistics.median(w for w, _ in plain) - 1
            metrics = {name: (values.get(name, 0), unit) for name, unit in units.items()}
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            summary = {
                "workload": args.workload,
                "seed": args.seed,
                "plain_pass_s": [w for w, _ in plain],
                "traced_pass_s": traced,
                "traced_passes": traced_layers,
                "metrics": {name: value for name, (value, _) in metrics.items()},
            }
            tracer.dump(out_dir / f"trace-{args.workload}-seed{args.seed}.json", summary)
        for problem in runner.wrong:
            print(f"wrong: {problem}", file=sys.stderr)
        result = {
            "correct": not runner.wrong,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
