"""Shared plumbing: paths, child processes, memory, quantiles, reporting."""

from __future__ import annotations

import hashlib
import json
import math
import os
import resource
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence

#: The checkout root (the benchmark runs from it; ``src/`` holds repro).
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent

#: How many times set-up is repeated in one run; ``setup_s`` is the median.
SETUP_REPEATS = 3

#: Ops an untraced run must complete: ``p90_ms`` needs ten beyond it.
MIN_OPS = 100


class BenchmarkError(RuntimeError):
    """The benchmark cannot run here (no program, a child failed)."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    env.pop("REPRO_ENGINE", None)
    return env


def work_dir(workload: str, seed: int) -> Path:
    """A fresh scratch directory inside the checkout for one run."""
    path = ROOT / ".perfbench" / f"{workload}-seed{seed}-{os.getpid()}"
    if path.exists():
        shutil.rmtree(path)
    path.mkdir(parents=True)
    return path


#: Every child this run started; :func:`stop_all` reaps the ones still up.
_CHILDREN: List[subprocess.Popen] = []


def spawn(argv: Sequence[str], log: Path, stdout=None) -> subprocess.Popen:
    """Start a child process with ``src`` on its path, stderr to ``log``."""
    with open(log, "ab") as stderr:
        child = subprocess.Popen(
            list(argv),
            cwd=str(ROOT),
            env=child_env(),
            stdout=stdout if stdout is not None else subprocess.DEVNULL,
            stderr=stderr,
        )
    _CHILDREN.append(child)
    return child


def stop_all() -> None:
    """Stop every child still running (a run that failed part-way)."""
    while _CHILDREN:
        stop(_CHILDREN.pop())


def program_argv(trace_file: Optional[Path], args: Sequence[str]) -> List[str]:
    """``python -m repro <args>`` untraced, or the same CLI through the
    launcher that installs the timers first."""
    if trace_file is None:
        return [sys.executable, "-m", "repro", *args]
    return [sys.executable, str(HERE / "launch.py"), str(trace_file), *args]


def stop(process: subprocess.Popen, timeout: float = 30.0) -> int:
    """SIGTERM, wait, SIGKILL if it will not go; always reaps."""
    if process.poll() is None:
        process.send_signal(signal.SIGTERM)
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    for stream in (process.stdout, process.stderr):
        if stream is not None:
            stream.close()
    return process.returncode


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (``VmHWM``) of a live child, or of this
    process when ``pid`` is None, in MB."""
    if pid is None:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchmarkError(f"no VmHWM for process {pid}")


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-quantile (0 < q <= 1) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return float(ordered[min(rank, len(ordered)) - 1])


def latency_metrics(
    latencies_s: Sequence[float], elapsed_s: float, setup_s: Sequence[float],
    rss_mb: float,
) -> Dict[str, float]:
    return {
        "setup_s": float(sorted(setup_s)[len(setup_s) // 2]),
        "ops_per_s": len(latencies_s) / elapsed_s,
        "p50_ms": 1000.0 * nearest_rank(latencies_s, 0.50),
        "p90_ms": 1000.0 * nearest_rank(latencies_s, 0.90),
        "peak_rss_mb": rss_mb,
    }


def program_version() -> str:
    import repro

    return str(getattr(repro, "__version__", "unknown"))


def commit() -> str:
    """The git commit when the checkout is a repository, else a digest
    of ``src/`` (the benchmark also runs from plain source trees).  A
    commit whose ``src/`` has uncommitted changes carries the digest too,
    so a run of changed code is not labelled with its parent's hash."""
    try:
        head = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
            text=True, timeout=10,
        )
        if head.returncode == 0 and head.stdout.strip():
            status = subprocess.run(
                ["git", "status", "--porcelain", "--", "src"], cwd=str(ROOT),
                capture_output=True, text=True, timeout=10,
            )
            if status.returncode == 0 and not status.stdout.strip():
                return head.stdout.strip()
            return f"{head.stdout.strip()}-dirty+{src_digest()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return src_digest()


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def wait_until(predicate, timeout: float, interval: float = 0.01):
    deadline = time.monotonic() + timeout
    while True:
        value = predicate()
        if value:
            return value
        if time.monotonic() > deadline:
            raise BenchmarkError("timed out waiting for a child process")
        time.sleep(interval)


def emit(result: Dict[str, Any]) -> None:
    print(json.dumps(result), flush=True)
