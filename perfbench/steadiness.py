"""Check that the benchmark holds still: two sets of runs of the same code.

    python3 perfbench/steadiness.py --first-seed 1

Each set runs every workload ``RUNS`` times, each time with another seed,
rotating the workload order from one seed to the next so that slow drift of
the machine spreads over all workloads.  The second set starts ``GAP``
seconds after the first ends and uses fresh seeds.  Runs go one at a time.
``--first-seed`` picks the seeds, so that a later check can use seeds no
earlier one used.

For every workload and end-to-end metric it prints each set's median and
quartiles, the spread (distance between the quartiles over the median), and
the change of the median from the first set to the second, and says whether
they hold within the bound in ``BENCHMARK.json``: each spread and each
change for the worse.  The share of failed
operations must be the same in both sets.  The full report is written to
``.perfbench_out/``.  Exit code 0 means every check held.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10  # runs per workload in each set
GAP = 120  # seconds between the two sets


def run_once(spec: dict, workload: str, seed: int, seconds: int) -> dict:
    argv = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    argv[0] = sys.executable if argv[0] == "python3" else argv[0]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_set(spec: dict, seeds: list[int], seconds: int) -> dict[str, list[dict]]:
    names = [w["name"] for w in spec["workloads"]]
    out: dict[str, list[dict]] = {name: [] for name in names}
    for i, seed in enumerate(seeds):
        for name in names[i % len(names):] + names[: i % len(names)]:
            result = run_once(spec, name, seed, seconds)
            out[name].append(result)
            values = ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items())
            print(f"  {name} seed {seed}: {values}", file=sys.stderr, flush=True)
    return out


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "values": values}


def compare(spec: dict, first: dict, second: dict) -> tuple[list[dict], bool]:
    rows, ok = [], True
    for w in spec["workloads"]:
        name = w["name"]
        runs = first[name] + second[name]
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        same_share = len(shares) == 1
        correct = all(r["correct"] for r in runs)
        ok &= same_share and correct
        for metric in spec["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            a = summarize([r["metrics"][key]["value"] for r in first[name]])
            b = summarize([r["metrics"][key]["value"] for r in second[name]])
            change = b["median"] / a["median"] - 1
            worse = change if metric["better"] == "lower" else -change
            holds = max(a["spread"], b["spread"]) <= bound and worse <= bound
            ok &= holds
            rows.append({
                "workload": name, "metric": key, "bound": bound, "first": a, "second": b,
                "change": change, "holds": holds, "same_failed_share": same_share,
                "failed_share": shares, "correct": correct,
            })
    return rows, ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + 2 * RUNS))

    started = time.time()
    print("first set", file=sys.stderr)
    first = run_set(spec, seeds[:RUNS], seconds)
    time.sleep(GAP)
    print("second set", file=sys.stderr)
    second = run_set(spec, seeds[RUNS:], seconds)
    rows, ok = compare(spec, first, second)

    print(f"{'workload':10} {'metric':12} {'bound':>5}  {'median 1':>10} {'spread 1':>8}  "
          f"{'median 2':>10} {'spread 2':>8}  {'change':>7}  holds")
    for r in rows:
        print(f"{r['workload']:10} {r['metric']:12} {r['bound']:5.2f}  {r['first']['median']:10.4g} "
              f"{r['first']['spread']:8.3f}  {r['second']['median']:10.4g} {r['second']['spread']:8.3f}  "
              f"{r['change']:+7.3f}  {'yes' if r['holds'] else 'NO'}")
    for w in spec["workloads"]:
        row = next(r for r in rows if r["workload"] == w["name"])
        print(f"{w['name']}: failed share {row['failed_share']}, same in both sets: "
              f"{row['same_failed_share']}, all correct: {row['correct']}")
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    report = {"started": started, "seconds": seconds, "gap": GAP, "seeds": seeds, "rows": rows,
              "holds": ok, "runs": {"first": first, "second": second}}
    path = out / f"steadiness-{int(started)}.json"
    path.write_text(json.dumps(report, indent=1))
    print(f"{'all checks hold' if ok else 'some checks FAIL'}; report in {path.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
