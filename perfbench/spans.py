"""Spans recorded around calls into the program's layers.

A :class:`Tracer` wraps public functions and methods of the ``repro``
package in place (module attributes and class attributes), so the
program's own code is unchanged: each call records one span with its
metric name, start, end, parent span, op id and an optional value.
Spans live in memory and are written out once, when the run (or the
traced server / worker process) ends.

Parent spans come from a per-thread stack; the op id of a span is the
one given to it, else its parent's, else the thread's current op (set by
the workload loop, or by the instrumentation for server requests and
worker claims).
"""

from __future__ import annotations

import functools
import itertools
import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional


class Tracer:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self, process: str) -> None:
        self.process = process
        self.spans: List[Dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[tuple] = []

    # -- span bookkeeping ------------------------------------------------
    def _stack(self) -> List[Dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_op(self, op: Optional[str]) -> None:
        self._local.op = op

    def current_op(self) -> Optional[str]:
        stack = self._stack()
        if stack:
            return stack[-1]["op"]
        return getattr(self._local, "op", None)

    def begin(self, name: str, op: Optional[str] = None) -> Dict[str, Any]:
        stack = self._stack()
        span = {
            "id": f"{self.process}:{next(self._ids)}",
            "parent": stack[-1]["id"] if stack else None,
            "name": name,
            "op": op if op is not None else self.current_op(),
            "start": time.perf_counter(),
            "end": None,
            "value": None,
        }
        stack.append(span)
        return span

    def end(self, span: Dict[str, Any]) -> None:
        span["end"] = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def record(self, name: str, value: float, op: Optional[str] = None) -> None:
        """A zero-length span carrying a value (a size or a count)."""
        now = time.perf_counter()
        stack = self._stack()
        self.spans.append(
            {
                "id": f"{self.process}:{next(self._ids)}",
                "parent": stack[-1]["id"] if stack else None,
                "name": name,
                "op": op if op is not None else self.current_op(),
                "start": now,
                "end": now,
                "value": float(value),
            }
        )

    # -- wrappers --------------------------------------------------------
    def timed(
        self,
        name: str,
        func: Callable,
        *,
        when: Optional[Callable[..., bool]] = None,
        after: Optional[Callable[..., None]] = None,
    ) -> Callable:
        """``func`` wrapped in a span named ``name``.

        ``when(*args, **kwargs)`` decides per call whether a span is
        recorded; ``after(span, result, *args, **kwargs)`` may set the
        span's value or op from the call's result.
        """

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if when is not None and not when(*args, **kwargs):
                return func(*args, **kwargs)
            span = self.begin(name)
            try:
                result = func(*args, **kwargs)
                if after is not None:
                    after(span, result, *args, **kwargs)
                return result
            finally:
                self.end(span)

        return wrapper

    def replace(self, owner: Any, attribute: str, wrap: Callable) -> None:
        """Replace ``owner.attribute`` by ``wrap(original)`` until
        :meth:`unpatch`."""
        original = getattr(owner, attribute)
        self._patched.append((owner, attribute, original))
        setattr(owner, attribute, functools.wraps(original)(wrap(original)))

    def patch(self, owner: Any, attribute: str, name: str, **hooks: Any) -> None:
        """Replace ``owner.attribute`` by its timed wrapper."""
        self.replace(owner, attribute, lambda original: self.timed(name, original, **hooks))

    def unpatch(self) -> None:
        while self._patched:
            owner, attribute, original = self._patched.pop()
            setattr(owner, attribute, original)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"process": self.process, "spans": self.spans}, handle)


# ----------------------------------------------------------------------
# instrumentation per process role
# ----------------------------------------------------------------------

def _per_key_counter() -> Callable[[str], int]:
    counts: Dict[str, int] = {}
    lock = threading.Lock()

    def next_for(key: str) -> int:
        with lock:
            counts[key] = counts.get(key, 0) + 1
            return counts[key]

    return next_for


def instrument_client(tracer: Tracer) -> None:
    """Client side of the service: round trips, spec encoding, body size.

    A round trip's op id is ``<client id>#<n>``, the n-th request that
    client sent; the server numbers the requests it handles per client
    id the same way, which pairs each ``client.rtt_ms`` span with its
    ``server.handle_ms`` span.
    """
    from repro.service import client as client_mod

    next_request = _per_key_counter()
    next_submit = _per_key_counter()

    def round_trip(original):
        def wrapper(client, method, path, body):
            op = f"{client.client_id}#{next_request(str(client.client_id))}"
            if method == "POST" and path == "/v1/games" and body:
                tracer.record("codec.spec_kb", len(body) / 1024.0, op=op)
            span = tracer.begin("client.rtt_ms", op=op)
            try:
                return original(client, method, path, body)
            finally:
                tracer.end(span)

        return wrapper

    def submit(original):
        # One op per submit, so its coerce_spec and spec_to_wire spans add up.
        def wrapper(client, game):
            outer = getattr(tracer._local, "op", None)
            tracer.set_op(f"{outer or client.client_id}/submit#{next_submit('')}")
            try:
                return original(client, game)
            finally:
                tracer.set_op(outer)

        return wrapper

    tracer.replace(client_mod.ServiceClient, "_round_trip", round_trip)
    tracer.replace(client_mod.ServiceClient, "submit", submit)
    tracer.patch(client_mod, "coerce_spec", "codec.spec_encode_ms")
    tracer.patch(client_mod, "spec_to_wire", "codec.spec_encode_ms")


def instrument_session_and_kernels(tracer: Tracer) -> None:
    """Sessions, dense lowering and the dense / batch kernels."""
    import weakref

    from repro.core import session as session_mod
    from repro.core import tensor as tensor_mod

    evaluated: "weakref.WeakSet" = weakref.WeakSet()

    def evaluate(original):
        def wrapper(session, queries):
            cold = session not in evaluated
            evaluated.add(session)
            span = tracer.begin(
                "session.evaluate_cold_ms" if cold else "session.evaluate_hit_ms"
            )
            try:
                return original(session, queries)
            finally:
                tracer.end(span)

        return wrapper

    tracer.replace(session_mod.GameSession, "evaluate", evaluate)
    tracer.patch(tensor_mod, "lower_game", "tensor.lower_ms")

    def swept(span, _result, lowered, *_args, **_kwargs):
        span["value"] = float(lowered.profile_count())

    tracer.patch(
        tensor_mod.TensorGame, "sweep_profiles", "tensor.sweep_ms", after=swept
    )
    tracer.patch(
        tensor_mod.TensorGame, "best_response_dynamics", "tensor.dynamics_ms"
    )
    tracer.patch(tensor_mod.BatchTensorGame, "sweep_profiles", "batch.sweep_ms")

    def batch_init(original):
        def wrapper(batch, lowered):
            original(batch, lowered)
            tracer.record("batch.games_per_bucket", len(lowered))

        return wrapper

    tracer.replace(tensor_mod.BatchTensorGame, "__init__", batch_init)


def instrument_server(tracer: Tracer) -> None:
    """Server side: one root span per request, codec and registry calls."""
    from repro.service import metrics as metrics_mod
    from repro.service import registry as registry_mod
    from repro.service import server as server_mod

    next_request = _per_key_counter()

    def dispatch(original):
        def wrapper(handler, method):
            client = handler._client_id()
            tracer.set_op(f"{client}#{next_request(client)}")
            span = tracer.begin("server.handle_ms")
            try:
                return original(handler, method)
            finally:
                tracer.end(span)
                tracer.set_op(None)

        return wrapper

    def observe(original):
        def wrapper(metrics, client_id, endpoint, status, seconds):
            stack = tracer._stack()
            if stack and stack[-1]["name"] == "server.handle_ms":
                stack[-1]["value"] = float(seconds) * 1000.0
            return original(metrics, client_id, endpoint, status, seconds)

        return wrapper

    def registry_init(original):
        def wrapper(registry, *args, **kwargs):
            original(registry, *args, **kwargs)
            registry._hash_fn = tracer.timed("codec.hash_ms", registry._hash_fn)

        return wrapper

    tracer.replace(server_mod._Handler, "_dispatch", dispatch)
    tracer.replace(metrics_mod.ServiceMetrics, "observe", observe)
    tracer.replace(registry_mod.SessionRegistry, "__init__", registry_init)
    tracer.patch(server_mod, "spec_from_wire", "codec.spec_decode_ms")
    tracer.patch(server_mod, "encode_result", "codec.result_encode_ms")
    tracer.patch(registry_mod.SessionRegistry, "submit", "registry.submit_ms")
    instrument_session_and_kernels(tracer)


def instrument_worker(tracer: Tracer) -> None:
    """Queue worker side: claims, the executor, census batches, writes."""
    from repro.analysis import census as census_mod
    from repro.runtime import queue as queue_mod

    def claimed(span, claim, *_args, **_kwargs):
        if claim:
            span["op"] = claim.token
            tracer.record("queue.units_per_claim", len(claim), op=claim.token)
            tracer.set_op(claim.token)

    tracer.patch(queue_mod.WorkQueue, "claim", "queue.claim_ms", after=claimed)
    tracer.patch(queue_mod.WorkQueue, "mark_done", "queue.done_ms")
    tracer.patch(queue_mod, "run_units", "executor.run_units_ms")
    tracer.patch(census_mod, "batch_census_members", "census.members_ms")
    instrument_session_and_kernels(tracer)


def instrument_queue_client(tracer: Tracer) -> None:
    """The benchmark process's side of the queue: fill, collect, reduce."""
    from repro.analysis import census as census_mod
    from repro.runtime import queue as queue_mod

    tracer.patch(queue_mod.WorkQueue, "fill", "queue.fill_ms")
    tracer.patch(queue_mod, "collect_queue", "queue.collect_ms")
    tracer.patch(census_mod, "reduce_census_cell", "census.reduce_ms")


def instrument_lazy(tracer: Tracer) -> None:
    """The lazy tier: targeted queries and block materialization."""
    from repro.core import lazy as lazy_mod

    tracer.patch(
        lazy_mod.LazyTensorGame, "interim_best_response", "lazy.query_ms"
    )
    tracer.patch(
        lazy_mod.LazyTensorGame,
        "state_block",
        "lazy.materialize_ms",
        when=lambda game, s: s not in game.cache,
    )


# ----------------------------------------------------------------------
# aggregation
# ----------------------------------------------------------------------

def load_spans(paths: List[str]) -> List[Dict[str, Any]]:
    spans: List[Dict[str, Any]] = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            spans.extend(json.load(handle)["spans"])
    return spans


def _self_seconds(span: Dict[str, Any], children: List[Dict[str, Any]]) -> float:
    """Duration minus the part of it covered by the children's union."""
    start, end = span["start"], span["end"]
    covered = 0.0
    cursor = start
    for child in sorted(children, key=lambda c: c["start"]):
        lo = max(child["start"], cursor)
        hi = min(child["end"], end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return max(0.0, (end - start) - covered)


def summarize(spans: List[Dict[str, Any]]) -> Dict[str, Dict[str, Any]]:
    """Per span name: calls, median per call, median per op, self time.

    Durations are in ms.  A name whose spans carry values (sizes, counts,
    the server's own request seconds) also reports the values' median.
    """
    children: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        if span["parent"] is not None and span["end"] > span["start"]:
            children.setdefault(span["parent"], []).append(span)
    by_name: Dict[str, List[Dict[str, Any]]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)
    summary: Dict[str, Dict[str, Any]] = {}
    for name, group in sorted(by_name.items()):
        durations = [1000.0 * (s["end"] - s["start"]) for s in group]
        selfs = [
            1000.0 * _self_seconds(s, children.get(s["id"], [])) for s in group
        ]
        per_op: Dict[Any, float] = {}
        for span, duration in zip(group, durations):
            per_op[span["op"]] = per_op.get(span["op"], 0.0) + duration
        values = [s["value"] for s in group if s["value"] is not None]
        summary[name] = {
            "calls": len(group),
            "median_ms": statistics.median(durations),
            "median_per_op_ms": statistics.median(per_op.values()),
            "total_ms": sum(durations),
            "self_median_ms": statistics.median(selfs),
            "self_total_ms": sum(selfs),
            "median_value": statistics.median(values) if values else None,
            "total_value": sum(values) if values else None,
        }
    return summary


def paired_stall_ms(spans: List[Dict[str, Any]], clients: List[str]) -> List[float]:
    """``client.rtt_ms - server.handle_ms`` for every paired request of
    the given client ids (both sides number a client's requests alike)."""
    rtt: Dict[str, float] = {}
    handle: Dict[str, float] = {}
    for span in spans:
        op = span["op"]
        if not isinstance(op, str) or op.split("#", 1)[0] not in clients:
            continue
        if span["name"] == "client.rtt_ms":
            rtt[op] = 1000.0 * (span["end"] - span["start"])
        elif span["name"] == "server.handle_ms" and span["value"] is not None:
            handle[op] = span["value"]
    return [rtt[op] - handle[op] for op in rtt if op in handle]
