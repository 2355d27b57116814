"""service-warm and service-cold: the HTTP session server, as deployed.

The server runs in its own process (``python -m repro serve --port 0``),
started afresh for every set-up; the load comes from this process as
closed loops of :class:`~repro.service.ServiceClient` calls.
"""

from __future__ import annotations

import math
import select
import subprocess
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

import checks
import common
import spans
from repro.constructions.random_games import random_bayesian_ncs
from repro.core.strategy import strategy_space_size
from repro.service import ServiceClient, coerce_spec

#: Random directed NCS games: 3 agents on 7 nodes, 10 extra edges, a
#: uniform prior over 4 scenarios.  Draws outside the profile band are
#: rejected, so every game costs about the same to sweep.
NCS_SHAPE = dict(num_agents=3, num_nodes=7, directed=True, extra_edges=10, scenarios=4)

#: Strategy-profile bands of the warm games and of the cold games.
WARM_PROFILES = (13_000, 15_000)
COLD_PROFILES = (6_000, 16_000)

#: Bands of the games' action profiles summed over prior states (a spec
#: carries one cost per agent for each): they bound the codec work per
#: game the way the profile bands bound the sweep.
WARM_CELLS = (50, 70)
COLD_CELLS = (40, 80)

#: service-warm: games, client connections, share of dynamics requests,
#: and starting profiles per game for those requests.
WARM_GAMES = 4
WARM_CLIENTS = 2
DYNAMICS_SHARE = 0.25
DYNAMICS_STARTS = 4


def profile_count(game) -> float:
    return math.prod(strategy_space_size(game, agent) for agent in range(game.num_agents))


def cell_count(game) -> int:
    cells = 0
    for profile, _ in game.prior.support():
        size = 1
        for agent in range(game.num_agents):
            size *= len(game.feasible_actions(agent, profile[agent]))
        cells += size
    return cells


def ncs_games(rng: np.random.Generator, profiles, cells=(0, float("inf"))):
    """Endless seeded NCS games (core games) inside the given bands."""
    while True:
        game = random_bayesian_ncs(rng=rng, **NCS_SHAPE).game
        if profiles[0] <= profile_count(game) <= profiles[1] and (
            cells[0] <= cell_count(game) <= cells[1]
        ):
            yield game


def random_profile(game, rng: np.random.Generator):
    """A seeded starting profile (positive types pick any feasible
    action; zero-probability types keep their first one)."""
    profile = []
    for agent in range(game.num_agents):
        positive = set(game.prior.positive_types(agent))
        strategy = []
        for ti in game.types(agent):
            feasible = game.feasible_actions(agent, ti)
            pick = int(rng.integers(len(feasible))) if ti in positive else 0
            strategy.append(feasible[pick])
        profile.append(tuple(strategy))
    return tuple(profile)


# ----------------------------------------------------------------------
# the server process
# ----------------------------------------------------------------------

class Server:
    """One ``repro serve`` child on an ephemeral port."""

    def __init__(self, work: Path, trace_file: Optional[Path]) -> None:
        self.process = common.spawn(
            common.program_argv(trace_file, ["serve", "--port", "0"]),
            work / "server.log",
            stdout=subprocess.PIPE,
        )
        ready, _, _ = select.select([self.process.stdout], [], [], 60.0)
        line = self.process.stdout.readline().decode() if ready else ""
        if "serving on http://" not in line:
            common.stop(self.process)
            raise common.BenchmarkError(
                f"server did not start (see {work / 'server.log'}): {line!r}"
            )
        address = line.split("http://", 1)[1].split()[0]
        self.host, port = address.rsplit(":", 1)
        self.port = int(port)
        with self.client("setup") as client:
            client.health()

    def client(self, client_id: str) -> ServiceClient:
        return ServiceClient(self.host, self.port, client_id=client_id)

    def stop(self) -> None:
        code = common.stop(self.process)
        if code != 0:
            raise common.BenchmarkError(f"server exited with code {code}")


def _setups(work: Path, trace_file: Optional[Path], warm: List) -> Tuple[Server, List[float], List[str]]:
    """Set up ``SETUP_REPEATS`` fresh servers; keep the last one.

    Set-up is start-up until ``/health`` answers, plus, on service-warm,
    submitting the warm games and their first (sweeping) evaluation.
    """
    times: List[float] = []
    server: Optional[Server] = None
    hashes: List[str] = []
    for repeat in range(common.SETUP_REPEATS):
        if server is not None:
            server.stop()
        last = repeat == common.SETUP_REPEATS - 1
        start = time.perf_counter()
        server = Server(work, trace_file if last else None)
        if warm:
            with server.client("setup") as client:
                hashes = [client.submit(spec) for spec in warm]
                for key in hashes:
                    client.evaluate(key, checks.BUNDLE)
        times.append(time.perf_counter() - start)
    return server, times, hashes


def _cache_counters(server: Server) -> Dict[str, int]:
    with server.client("setup") as client:
        cache = client.metrics()["cache"]
    return {key: int(cache.get(key, 0)) for key in ("hits", "misses", "evictions")}


def _registry_metrics(before, after) -> Dict[str, float]:
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    return {
        "registry.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "registry.evictions": float(after["evictions"] - before["evictions"]),
    }


# ----------------------------------------------------------------------
# service-warm
# ----------------------------------------------------------------------

def run_warm(seed: int, seconds: float, tracer: Optional[spans.Tracer], work: Path):
    rng = np.random.default_rng([seed, 1])
    games = [
        coerce_spec(game)
        for game, _ in zip(ncs_games(rng, WARM_PROFILES, WARM_CELLS), range(WARM_GAMES))
    ]
    built = [spec.build() for spec in games]
    starts = [
        [random_profile(game, rng) for _ in range(DYNAMICS_STARTS)]
        for game in built
    ]
    trace_file = work / "server-spans.json" if tracer else None
    server, setup_times, hashes = _setups(work, trace_file, games)
    before = _cache_counters(server)

    answers: List[List[Tuple]] = [[] for _ in range(WARM_CLIENTS)]
    errors: List[str] = []
    barrier = threading.Barrier(WARM_CLIENTS + 1)
    deadline = [0.0]

    def client_loop(index: int) -> None:
        local = np.random.default_rng([seed, 2, index])
        with server.client(f"warm-{index}") as client:
            client.health()
            barrier.wait()
            ops = 0
            while time.perf_counter() < deadline[0]:
                ops += 1
                g = int(local.integers(WARM_GAMES))
                dynamics = bool(local.random() < DYNAMICS_SHARE)
                start_index = int(local.integers(DYNAMICS_STARTS))
                if tracer:
                    tracer.set_op(f"warm-{index}-op{ops}")
                begin = time.perf_counter()
                try:
                    if dynamics:
                        value = client.dynamics(hashes[g], initial=starts[g][start_index])
                    else:
                        value = client.evaluate(hashes[g], checks.BUNDLE)
                except Exception as error:  # counted as a failed op
                    errors.append(f"warm-{index}: {error!r}")
                    continue
                answers[index].append(
                    (time.perf_counter() - begin, g, dynamics, start_index, value)
                )

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(WARM_CLIENTS)]
    for thread in threads:
        thread.start()
    deadline[0] = time.perf_counter() + seconds + 0.05
    barrier.wait()
    began = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - began
    rss = common.peak_rss_mb(server.process.pid)
    after = _cache_counters(server)
    server.stop()

    done = [answer for per_client in answers for answer in per_client]
    failures: List[str] = []
    evaluated: Dict[int, Any] = {}
    fixed: Dict[Tuple[int, int], Any] = {}
    for _, g, dynamics, start_index, value in done:
        if dynamics:
            if fixed.setdefault((g, start_index), value) != value:
                failures.append(f"game {g} start {start_index}: dynamics differ")
        elif evaluated.setdefault(g, value) != value:
            failures.append(f"game {g}: repeated evaluations differ")
    for g, value in sorted(evaluated.items()):
        failures += checks.bundle_failures(value, f"warm game {g}")
    for (g, start_index), value in sorted(fixed.items()):
        failures += checks.equilibrium_failures(
            built[g], value, f"warm game {g} start {start_index}"
        )
    sample = int(np.random.default_rng([seed, 3]).integers(WARM_GAMES))
    if sample in evaluated:
        failures += checks.reference_bundle_failures(
            built[sample], evaluated[sample], f"warm game {sample}"
        )
    latencies = [answer[0] for answer in done]
    metrics = common.latency_metrics(latencies, elapsed, setup_times, rss)
    extra = _registry_metrics(before, after)
    return {
        "attempted": len(done) + len(errors),
        "failed": len(errors),
        "failures": failures + errors[:3],
        "metrics": metrics,
        "layer_values": extra,
        "child_spans": [trace_file] if trace_file else [],
        "stall_clients": [f"warm-{i}" for i in range(WARM_CLIENTS)],
    }


# ----------------------------------------------------------------------
# service-cold
# ----------------------------------------------------------------------

def run_cold(seed: int, seconds: float, tracer: Optional[spans.Tracer], work: Path):
    rng = np.random.default_rng([seed, 4])
    source = ncs_games(rng, COLD_PROFILES, COLD_CELLS)
    trace_file = work / "server-spans.json" if tracer else None
    server, setup_times, _ = _setups(work, trace_file, [])
    before = _cache_counters(server)

    # The reference check re-evaluates one seeded game small enough for
    # the reference engine: the first such game from a seeded op on.
    sample_from = int(np.random.default_rng([seed, 5]).integers(40))
    sample: Optional[Tuple[int, Any, Any]] = None
    latencies: List[float] = []
    errors: List[str] = []
    failures: List[str] = []
    busy = 0.0
    ops = 0
    with server.client("cold-0") as client:
        client.health()
        while busy < seconds:
            game = next(source)  # input generation: not part of the op
            ops += 1
            if tracer:
                tracer.set_op(f"cold-op{ops}")
            begin = time.perf_counter()
            try:
                key = client.submit(game)
                values = client.evaluate(key, checks.BUNDLE)
            except Exception as error:
                errors.append(f"cold op {ops}: {error!r}")
                busy += time.perf_counter() - begin
                continue
            latency = time.perf_counter() - begin
            busy += latency
            latencies.append(latency)
            failures += checks.bundle_failures(values, f"cold op {ops}")
            if (
                sample is None
                and ops > sample_from
                and profile_count(game) <= checks.REFERENCE_MAX_PROFILES
            ):
                sample = (ops, game, values)
    rss = common.peak_rss_mb(server.process.pid)
    after = _cache_counters(server)
    server.stop()

    if sample is None:
        failures.append("no cold game was small enough for the reference check")
    else:
        ops_index, game, values = sample
        failures += checks.reference_bundle_failures(
            coerce_spec(game).build(), values, f"cold op {ops_index}"
        )
    metrics = common.latency_metrics(latencies, busy, setup_times, rss)
    return {
        "attempted": ops,
        "failed": len(errors),
        "failures": failures + errors[:3],
        "metrics": metrics,
        "layer_values": _registry_metrics(before, after),
        "child_spans": [trace_file] if trace_file else [],
        "stall_clients": ["cold-0"],
    }
