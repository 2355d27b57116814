"""A/A mode: two separate sets of runs of the same code, compared.

    python3 perfbench/aa.py                      # 2 sets x 10 seeds, all workloads
    python3 perfbench/aa.py --runs 5 --sets 1 --workloads lazy-churn
    python3 perfbench/aa.py --runs 10 --trace-overhead

Runs ``perfbench/run.py`` one run at a time (never two at once), each in
a fresh process, for the ``run_seconds`` of ``BENCHMARK.json``.  Set
``k`` (from 0) uses seeds ``1 + 100*k .. 100*k + runs``.  For each
workload and end-to-end metric it prints each set's median and quartiles
(``statistics.quantiles(n=4)``), the spread ``(q3 - q1) / median``
against the metric's bound, and whether the two sets' medians agree:
the second differs from the first, in either direction, by at most the
bound.  ``--trace-overhead`` adds, per workload, two pairs
of back-to-back runs on one seed, one traced and one not (the order
alternates, since the machine's speed drifts between runs), and prints
the median over the pairs of how much worse each end-to-end figure of
the traced run is.  Every run's result lands in
``.perfbench/aa-<time>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: The first seed of set 1; set ``k`` starts ``100*k`` later.
FIRST_SEED = 1


def one_run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    started = time.perf_counter()
    process = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
        ],
        cwd=str(ROOT), capture_output=True, text=True, timeout=600,
    )
    lines = process.stdout.strip().splitlines()
    if process.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} seed {seed} failed ({process.returncode}):\n"
            f"{process.stdout[-2000:]}\n{process.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - started
    for line in lines:
        if line.startswith("traced end-to-end "):
            result["traced_end_to_end"] = json.loads(line[len("traced end-to-end "):])
    return result


def quartiles(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--workloads", default=None)
    parser.add_argument("--trace-overhead", action="store_true")
    args = parser.parse_args(argv)

    contract = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = contract["run_seconds"]
    workloads = (
        args.workloads.split(",") if args.workloads
        else [w["name"] for w in contract["workloads"]]
    )
    results = {}
    for index in range(args.sets):
        for workload in workloads:
            for run in range(args.runs):
                seed = FIRST_SEED + 100 * index + run
                result = one_run(workload, seed, seconds, 0)
                results.setdefault(workload, {}).setdefault(index, []).append(result)
                print(
                    f"set {index + 1} {workload} seed {seed}: "
                    f"correct {result['correct']} attempted {result['attempted']} "
                    f"failed {result['failed']} wall {result['wall_s']:.1f}s "
                    + " ".join(
                        f"{name}={metric['value']:.5g}"
                        for name, metric in result["metrics"].items()
                    ),
                    flush=True,
                )
    traced = {}
    if args.trace_overhead:
        for workload in workloads:
            pairs = []
            for order in ((0, 1), (1, 0)):
                runs = {trace: one_run(workload, FIRST_SEED, seconds, trace) for trace in order}
                pairs.append((runs[0]["metrics"], runs[1]["traced_end_to_end"]))
            traced[workload] = pairs

    print()
    print(f"{'workload':13s} {'metric':12s} {'set':>3s} {'median':>11s} "
          f"{'q1':>11s} {'q3':>11s} {'spread':>7s} {'bound':>6s} verdict")
    verdicts = []
    for workload in workloads:
        sets = results.get(workload, {})
        for index, runs in sets.items():
            shares = {r["failed"] / r["attempted"] for r in runs}
            print(f"{workload:13s} failed share per run (set {index + 1}): {sorted(shares)}")
        for entry in contract["end_to_end"]:
            name, bound = entry["name"], entry["bound"]
            medians = []
            for index, runs in sets.items():
                values = [r["metrics"][name]["value"] for r in runs]
                q1, median, q3 = quartiles(values)
                spread = (q3 - q1) / median
                medians.append(median)
                note = "" if name == "setup_s" else (
                    "spread ok" if spread <= bound / 3 else
                    "spread within bound" if spread <= bound else "SPREAD OVER BOUND"
                )
                print(f"{workload:13s} {name:12s} {index + 1:3d} {median:11.5g} "
                      f"{q1:11.5g} {q3:11.5g} {spread:7.2%} {bound:6.0%} {note}")
            if len(medians) > 1:
                worse = worse_by(medians[0], medians[1], entry["better"])
                agree = abs(worse) <= bound
                verdicts.append(agree)
                print(f"{workload:13s} {name:12s} set 2 vs set 1: {worse:+.2%} worse "
                      f"-> {'agree' if agree else 'DISAGREE'} within {bound:.0%}")
            if workload in traced:
                overheads = [
                    worse_by(plain[name]["value"], with_spans[name]["value"], entry["better"])
                    for plain, with_spans in traced[workload]
                ]
                print(f"{workload:13s} {name:12s} tracing overhead "
                      f"{statistics.median(overheads):+.2%} (pairs: "
                      + ", ".join(f"{o:+.2%}" for o in overheads) + ")")
    out = ROOT / ".perfbench" / f"aa-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"results": results, "traced": traced}, indent=1))
    print(f"\nall runs: {out.relative_to(ROOT)}")
    return 0 if all(verdicts) else 1


if __name__ == "__main__":
    raise SystemExit(main())
