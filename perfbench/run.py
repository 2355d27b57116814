"""One run of one benchmark workload.

    python3 perfbench/run.py --workload service-warm --seed 1 --seconds 15 --trace 0

Runs in a fresh process from the root of a source checkout (the program
is imported from ``src/``; the server and the queue worker start from
the same tree).  Prints a short report, then, as its last line, one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` — the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("service-warm", "service-cold", "census-queue", "lazy-churn")

#: Per-layer metrics whose value is the median of the values their spans
#: carry rather than a median duration.
VALUE_METRICS = {"server.handle_ms", "codec.spec_kb"}

#: Per-layer counts reported as a mean (lanes per bucket, rows per
#: claim): their medians hide the minority of large buckets or claims.
MEAN_METRICS = {"batch.games_per_bucket", "queue.units_per_claim"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_contract():
    path = ROOT / "BENCHMARK.json"
    if not path.is_file() or not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(
            f"perfbench: no program to measure under {ROOT} "
            "(needs BENCHMARK.json and src/repro)"
        )
    return json.loads(path.read_text(encoding="utf-8"))


def layer_metrics(contract, summary, stalls, values):
    """Every per-layer metric of the contract from the trace summary.

    A layer the workload does not reach reports 0 (0 calls)."""
    metrics = {}
    for entry in contract["per_layer"]:
        name = entry["name"]
        row = summary.get(name)
        if name in values:
            value = values[name]
        elif name == "tensor.profiles_per_s":
            sweeps = summary.get("tensor.sweep_ms")
            value = sweeps["total_value"] / (sweeps["total_ms"] / 1000.0) if sweeps else 0.0
        elif name == "server.stall_ms":
            value = statistics.median(stalls) if stalls else 0.0
        elif row is None:
            value = 0.0
        elif name in VALUE_METRICS:
            value = row["median_value"]
        elif name in MEAN_METRICS:
            value = row["total_value"] / row["calls"]
        elif name == "codec.spec_encode_ms":
            value = row["median_per_op_ms"]  # coerce_spec + spec_to_wire
        else:
            value = row["median_ms"]
        metrics[name] = {"value": float(value), "unit": entry["unit"]}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    contract = load_contract()
    sys.path.insert(0, str(ROOT / "src"))

    import common
    import spans

    tracer = spans.Tracer("bench") if args.trace else None
    if args.workload.startswith("service"):
        import service

        if tracer:
            spans.instrument_client(tracer)
        runner = service.run_warm if args.workload == "service-warm" else service.run_cold
    elif args.workload == "census-queue":
        import census_queue

        if tracer:
            spans.instrument_queue_client(tracer)
        runner = census_queue.run
    else:
        import lazy_churn

        if tracer:
            spans.instrument_lazy(tracer)
        runner = lazy_churn.run

    work = common.work_dir(args.workload, args.seed)
    try:
        outcome = runner(args.seed, args.seconds, tracer, work)
        if tracer:
            tracer.unpatch()
            all_spans = tracer.spans + spans.load_spans(
                [str(path) for path in outcome["child_spans"]]
            )
            tracer.spans = all_spans
            trace_out = ROOT / ".perfbench" / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.write(str(trace_out))
            summary = spans.summarize(all_spans)
            stalls = spans.paired_stall_ms(all_spans, outcome["stall_clients"])
    finally:
        common.stop_all()
        shutil.rmtree(work, ignore_errors=True)

    print(
        f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
        f"trace {args.trace} nproc {os.cpu_count()} "
        f"repro {common.program_version()} commit {common.commit()}"
    )
    completed = outcome["attempted"] - outcome["failed"]
    if not args.trace and completed < common.MIN_OPS:
        outcome["failures"].append(
            f"only {completed} ops completed; p90_ms needs {common.MIN_OPS}"
        )
    print(f"ops attempted {outcome['attempted']} failed {outcome['failed']}")
    for failure in outcome["failures"][:20]:
        print(f"CHECK FAILED: {failure}")
    print(
        "output checks: "
        + ("passed" if not outcome["failures"] else f"{len(outcome['failures'])} failed")
    )
    end_to_end = {
        entry["name"]: {"value": float(outcome["metrics"][entry["name"]]), "unit": entry["unit"]}
        for entry in contract["end_to_end"]
    }
    if tracer:
        print(f"trace: {len(all_spans)} spans written to {trace_out.relative_to(ROOT)}")
        print(
            f"{'span':26s} {'calls':>6s} {'median ms':>10s} {'self med ms':>11s} "
            f"{'self total ms':>13s} {'median value':>12s}"
        )
        for name, row in summary.items():
            value = row["median_value"]
            print(
                f"{name:26s} {row['calls']:6d} {row['median_ms']:10.4f} "
                f"{row['self_median_ms']:11.4f} {row['self_total_ms']:13.2f} "
                + (f"{value:12.4f}" if value is not None else f"{'-':>12s}")
            )
        print("traced end-to-end " + json.dumps(end_to_end))
        metrics = layer_metrics(contract, summary, stalls, outcome["layer_values"])
    else:
        metrics = end_to_end
    common.emit(
        {
            "correct": not outcome["failures"],
            "attempted": int(outcome["attempted"]),
            "failed": int(outcome["failed"]),
            "metrics": metrics,
        }
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
