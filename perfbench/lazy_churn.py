"""lazy-churn: targeted queries on a game past the dense cell guard.

A congestion game with one informed agent over 4096 single-resource
states and 9 actions per agent has ``4096 * 9**3 * 3 = 8,957,952`` cost
cells, past the dense tier's 8M guard, so only the lazy tier lowers it.
Its block cache holds 128 of the 4096 per-state blocks.  Each op asks
the interim best response of the informed agent for 24 types drawn with
a Zipf skew over a seeded order of the types, so the LRU both hits and
misses and an op's latency is a sum over hits and misses.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import List, Optional

import numpy as np

import checks
import common
import spans
from repro.core import BayesianGame, CommonPrior
from repro.core.lazy import lower_game_lazy
from repro.core.tensor import lower_game

TYPES = 4096
ACTIONS = 9
BUDGET_BLOCKS = 128
TYPES_PER_OP = 24
ZIPF_EXPONENT = 1.0


def congestion_game(num_types: int, num_actions: int) -> BayesianGame:
    """Three agents pick one of ``num_actions`` resources; agent 0
    observes the state, agents 1 and 2 do not.  Costs are
    ``base(resource, state) * (1 + load / 4)``.  The construction of
    ``benchmarks/bench_lazy.py``, kept here so the benchmark reads
    nothing of the repository but ``src/``."""
    actions = list(range(num_actions))
    prior = CommonPrior({(t, 0, 0): 1.0 / num_types for t in range(num_types)})

    def cost(agent, profile, actions_):
        state = profile[0]
        a = actions_[agent]
        load = sum(1 for other in actions_ if other == a)
        return float((a * 31 + state * 7) % 23 + 1) * (1.0 + load / 4.0)

    return BayesianGame(
        [actions] * 3,
        [list(range(num_types)), [0], [0]],
        prior,
        cost,
        name=f"congestion-{num_types}x{num_actions}",
    )


class Load:
    """The seeded op stream: opponents' actions and the queried types."""

    def __init__(self, seed: int, stream: int) -> None:
        self.rng = np.random.default_rng([seed, stream])
        order = np.random.default_rng([seed, 7]).permutation(TYPES)
        weights = 1.0 / np.arange(1, TYPES + 1) ** ZIPF_EXPONENT
        self.order = order
        self.weights = weights / weights.sum()
        self.own = tuple(0 for _ in range(TYPES))

    def op(self):
        opponents = self.rng.integers(ACTIONS, size=2)
        profile = (self.own, (int(opponents[0]),), (int(opponents[1]),))
        ranks = self.rng.choice(TYPES, size=TYPES_PER_OP, p=self.weights)
        return profile, [int(self.order[rank]) for rank in ranks]


def _setup(seed: int):
    """Build the game, lower it lazily, and run the op stream until the
    block cache is full (its steady state)."""
    game = congestion_game(TYPES, ACTIONS)
    block_cells = ACTIONS ** 3 * 3
    lazy = lower_game_lazy(game, cache_cells=BUDGET_BLOCKS * block_cells)
    warm = Load(seed, 8)
    while len(lazy.cache) < BUDGET_BLOCKS:
        profile, types = warm.op()
        for ti in types:
            lazy.interim_best_response(0, ti, profile)
    return game, lazy


def run(seed: int, seconds: float, tracer: Optional[spans.Tracer], work: Path):
    setup_times: List[float] = []
    for _ in range(common.SETUP_REPEATS):
        start = time.perf_counter()
        game, lazy = _setup(seed)
        setup_times.append(time.perf_counter() - start)

    load = Load(seed, 9)
    before = lazy.cache_stats()
    answers = []
    latencies: List[float] = []
    errors: List[str] = []
    began = time.perf_counter()
    deadline = began + seconds
    while time.perf_counter() < deadline:
        profile, types = load.op()
        if tracer:
            tracer.set_op(f"lazy-op{len(latencies) + len(errors) + 1}")
        op_start = time.perf_counter()
        try:
            results = [lazy.interim_best_response(0, ti, profile) for ti in types]
        except Exception as error:  # counted as a failed op
            errors.append(repr(error))
            continue
        latencies.append(time.perf_counter() - op_start)
        answers.append((profile, types, results))
    elapsed = time.perf_counter() - began
    rss = common.peak_rss_mb()
    after = lazy.cache_stats()
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]

    failures: List[str] = []
    if lower_game(game) is not None:
        failures.append("the dense tier lowered the over-guard game")
    seen = set()
    for profile, types, results in answers:
        for ti, answer in zip(types, results):
            key = (profile[1:], ti)
            if key in seen:
                continue
            seen.add(key)
            failures += checks.argmin_failures(
                game, 0, ti, profile, answer, f"type {ti} vs {profile[1:]}"
            )
    return {
        "attempted": len(latencies) + len(errors),
        "failed": len(errors),
        "failures": failures + errors[:3],
        "metrics": common.latency_metrics(latencies, elapsed, setup_times, rss),
        "layer_values": {
            "lazy.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
            "lazy.evictions": float(after["evictions"] - before["evictions"]),
        },
        "child_spans": [],
        "stall_clients": [],
    }
