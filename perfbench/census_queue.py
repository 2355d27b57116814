"""census-queue: a census sweep through the sqlite pull queue.

Rounds of a two-cell census sweep are filled into a fresh queue and
drained by one ``python -m repro worker`` process with no result cache;
the rows are then collected and reduced to census cells.  Op latency is
the queue's own ``claimed_at`` -> ``finished_at`` of each unit.
"""

from __future__ import annotations

import sqlite3
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

import checks
import common
import spans
from repro.analysis.census import census_scenario
from repro.core import engine_override
from repro.runtime import queue as queue_mod
from repro.runtime.cache import decode_value
from repro.runtime.spec import SweepSpec

#: One round: a tabular cell big enough that the structure-of-arrays
#: sweep does most of its work, and an NCS cell whose members each form
#: their own bucket; ``(source, agents, types, actions, states, members)``.
CELLS: Tuple[Tuple[str, int, int, int, int, int], ...] = (
    ("tabular", 3, 2, 4, 8, 48),
    ("ncs", 2, 2, 5, 0, 24),
)
UNITS_PER_ROUND = sum(cell[-1] for cell in CELLS)

#: Rows per claim.  Every cell's member count is a multiple of it, so no
#: claim mixes two cells: a tabular claim is one 24-lane bucket.
MAX_CLAIM = 24

#: Rounds filled during set-up, so the worker never waits for work.
SETUP_ROUNDS = 2

#: Units re-run on the reference engine after the timed phase.
REFERENCE_SAMPLE = 3


def round_sweeps(seed: int, index: int) -> List[SweepSpec]:
    """Round ``index``: one sweep per cell, with members nobody has drawn
    before.  Each cell is filled on its own, so the queue's claim order
    (by fill time) keeps a claim to one cell's rows."""
    sweeps = []
    for source, agents, types, actions, states, members in CELLS:
        base = seed * 1_000_000 + index * members
        scenario = census_scenario(
            source, agents, types, actions, states, members, prefix="BENCH",
        ).with_grid(member=range(base, base + members))
        sweeps.append(SweepSpec(f"BENCH-R{index}-{source}", (scenario,)))
    return sweeps


def fill_round(queue: queue_mod.WorkQueue, seed: int, index: int) -> List[SweepSpec]:
    sweeps = round_sweeps(seed, index)
    for sweep in sweeps:
        queue.fill([sweep])
    return sweeps


def _rows(db: Path, sql: str) -> List[tuple]:
    conn = sqlite3.connect(str(db), timeout=30.0)
    try:
        return conn.execute(sql).fetchall()
    finally:
        conn.close()


def _setup(seed: int, work: Path, repeat: int, trace_file: Optional[Path]):
    """Create and fill a queue and start a worker; set-up ends at the
    worker's first claim (its ``claimed_at``)."""
    db = work / f"queue-{repeat}.db"
    started = time.time()
    queue = queue_mod.WorkQueue(db)
    queue.initialize()
    sweeps = [
        sweep for index in range(SETUP_ROUNDS)
        for sweep in fill_round(queue, seed, index)
    ]
    worker = common.spawn(
        common.program_argv(
            trace_file,
            [
                "worker", "--db", str(db), "--no-cache", "--keep-alive",
                "--poll-seconds", "0.05", "--max-claim", str(MAX_CLAIM),
            ],
        ),
        work / "worker.log",
    )

    def first_claim():
        if worker.poll() is not None:
            raise common.BenchmarkError(
                f"worker exited with code {worker.returncode} "
                f"(see {work / 'worker.log'})"
            )
        return _rows(db, "SELECT MIN(claimed_at) FROM tasks")[0][0]

    claimed = common.wait_until(first_claim, timeout=120.0)
    return queue, worker, sweeps, claimed - started


def run(seed: int, seconds: float, tracer: Optional[spans.Tracer], work: Path):
    setup_times: List[float] = []
    worker = None
    for repeat in range(common.SETUP_REPEATS):
        if worker is not None:
            common.stop(worker)
        last = repeat == common.SETUP_REPEATS - 1
        trace_file = work / "worker-spans.json" if tracer and last else None
        queue, worker, sweeps, setup_s = _setup(seed, work, repeat, trace_file)
        setup_times.append(setup_s)

    rounds = SETUP_ROUNDS
    deadline = time.time() + seconds
    while time.time() < deadline:
        if queue.claimable() < UNITS_PER_ROUND:
            sweeps += fill_round(queue, seed, rounds)
            rounds += 1
        time.sleep(0.05)
    common.wait_until(
        lambda: not _rows(
            queue.path, "SELECT 1 FROM tasks WHERE state IN "
            "('pending', 'claimed', 'failed') LIMIT 1"
        ),
        timeout=120.0, interval=0.02,
    )
    rss = common.peak_rss_mb(worker.pid)
    code = common.stop(worker)
    if code != 0:
        raise common.BenchmarkError(f"worker exited with code {code}")

    table = _rows(queue.path, "SELECT address, state, claimed_at, finished_at FROM tasks")
    states: Dict[str, str] = {row[0]: row[1] for row in table}
    done = [row for row in table if row[1] == "done"]
    latencies = [row[3] - row[2] for row in done]
    elapsed = max(row[3] for row in done) - min(row[2] for row in done)

    runs, _, _ = queue_mod.collect_queue(sweeps, queue)
    cells = [cell for sweep_run in runs for cell in sweep_run.cells]
    rows = {
        address: decode_value(row["value"])
        for address, row in queue.result_rows().items()
    }
    units = [unit for sweep in sweeps for unit in sweep.expand()]
    failures = checks.census_failures(
        [unit.address() for unit in units], states, rows, cells
    )
    rng = np.random.default_rng([seed, 6])
    with engine_override("reference"):
        for position in rng.choice(len(units), REFERENCE_SAMPLE, replace=False):
            unit = units[int(position)]
            expected = checks.canonical(unit.run())
            if expected != checks.canonical(rows.get(unit.address())):
                failures.append(
                    f"unit {unit.address()[:12]}: reference engine gives "
                    f"{expected}, the queue holds {rows.get(unit.address())!r}"
                )
    metrics = common.latency_metrics(latencies, elapsed, setup_times, rss)
    return {
        "attempted": len(states),
        "failed": sum(1 for state in states.values() if state != "done"),
        "failures": failures,
        "metrics": metrics,
        "layer_values": {},
        "child_spans": [work / "worker-spans.json"] if tracer else [],
        "stall_clients": [],
    }
