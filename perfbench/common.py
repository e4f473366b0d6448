"""Helpers shared by the benchmark's modules: paths, child processes,
statistics and the span log of the traced run."""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout: instances, store dirs, records, traces.
WORK = ROOT / ".perfbench"
SPEC: dict[str, Any] = json.loads((HERE / "spec.json").read_text())


@dataclass
class Outcome:
    """What one workload run produced: metric values by name, operation
    counts, failed output checks and free-form details for the record."""

    metrics: dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    def problem(self, message: str) -> None:
        self.problems.append(message)


def child_env() -> dict[str, str]:
    """Environment for processes that import ``repro`` from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def use_src() -> None:
    """Make ``import repro`` resolve to this checkout's ``src/``."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def derive_seed(seed: int, *labels: Any) -> int:
    """A 30-bit seed for one input, a pure function of the workload seed."""
    text = ":".join(str(part) for part in (seed, *labels))
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:4], "little") >> 2


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python workload (list, dict and int ops)."""
    started = time.perf_counter()
    table: dict[int, int] = {}
    values = list(range(2000))
    acc = 0
    for j in range(60_000):
        acc += values[j % 2000] * 3
        table[j & 1023] = acc
    return time.perf_counter() - started


def cpu_loops(count: int = 3) -> list[float]:
    """``count`` calibration loops on each usable CPU in turn, with this
    thread pinned there; its affinity is restored after."""
    cpus = sorted(os.sched_getaffinity(0))
    loops = []
    try:
        for cpu in cpus:
            os.sched_setaffinity(0, {cpu})
            loops.extend(calibration_loop() for _ in range(count))
    finally:
        os.sched_setaffinity(0, cpus)
    return loops


def pinned_around(call: Any, *args: Any, **kwargs: Any) -> tuple[Any, float, float]:
    """Run ``call``, which waits on work in other processes, between two
    :func:`cpu_loops` samples; return its value, its wall time and the
    :func:`cpu_factor` of the two samples."""
    before = cpu_loops()
    started = time.perf_counter()
    value = call(*args, **kwargs)
    wall = time.perf_counter() - started
    return value, wall, cpu_factor([before, cpu_loops()])


def cpu_factor(samples: list[list[float]]) -> float:
    """How slow the box's CPUs ran over a set of :func:`cpu_loops` samples
    taken around work done in other processes: the reference over the
    samples' mean speed (1.25 means 25% slow).  A time divided by it, or a
    rate multiplied by it, is the figure at the reference speed.  Mean,
    not median: a CPU flips between a fast and a slow speed (7 and 11 ms
    loops), and the mean weighs the share of time it spent at each."""
    speeds = [SPEC["calibration_s"] / t for loops in samples for t in loops]
    return len(speeds) / sum(speeds)


class Speed:
    """How fast the box ran next to a set of in-process solves.

    A shared 2-CPU sandbox drifts by tens of percent over a minute: one
    solve's 15-second medians ranged 0.46-0.74 s over three minutes.
    :func:`calibration_loop`, timed in the same process right after each
    solve, tracked that drift (correlation 0.89 over the same windows) and
    is benchmark code, so no change to the program moves it.  A solve's
    wall time divided by the ``factor`` of the samples around it
    (:meth:`around`) is its time at the reference speed
    (``SPEC["calibration_s"]``).  Work done in other processes (pooled
    batches, set-up launches, the server's load phases) is scaled by
    :func:`cpu_factor` instead, from loops pinned to each CPU in turn
    around it.
    """

    def __init__(self, samples: list[float] | None = None) -> None:
        self.samples = list(samples or [])

    def sample(self, count: int = 2) -> None:
        self.samples.extend(calibration_loop() for _ in range(count))

    @property
    def factor(self) -> float:
        """Median sample over the reference: 1.25 means 25% slow."""
        return median(self.samples) / SPEC["calibration_s"]

    def around(self, call: Any, *args: Any, **kwargs: Any) -> tuple[Any, float, float]:
        """Run ``call`` between two calibration samples on either side;
        return its value, its wall time and the speed factor of those
        four samples (which are also kept in this instance)."""
        local = Speed()
        local.sample(2)
        started = time.perf_counter()
        value = call(*args, **kwargs)
        wall = time.perf_counter() - started
        local.sample(2)
        self.samples.extend(local.samples)
        return value, wall, local.factor


@contextmanager
def frozen_heap() -> Iterator[None]:
    """Keep everything allocated so far out of the garbage collector's
    reach for the body.  A full collection over the benchmark's inputs
    (graphs hold a list per vertex) pauses this process for tens of
    milliseconds, which would land on whatever is being timed."""
    gc.collect()
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def percentile(values: list[float], q: float) -> float:
    """Percentile (``q`` in 0..100) of a non-empty sample, interpolated
    between the two nearest order statistics; ``inf`` (a failed request)
    propagates."""
    ordered = sorted(values)
    position = q / 100.0 * (len(ordered) - 1)
    low = math.floor(position)
    if low + 1 >= len(ordered) or position == low:
        return ordered[low]
    return ordered[low] + (position - low) * (ordered[low + 1] - ordered[low])


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def vmhwm_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def stop_process(proc: subprocess.Popen, timeout: float = 15.0) -> None:
    """SIGTERM, then SIGKILL after ``timeout``; always reaps the child."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
    proc.wait()


def run_python(args: list[str], timeout: float) -> str:
    """Run ``python3 <args>`` with ``src/`` importable; return its stdout."""
    done = subprocess.run(
        [sys.executable, *args],
        env=child_env(),
        cwd=ROOT,
        stdout=subprocess.PIPE,
        timeout=timeout,
        check=True,
        text=True,
    )
    return done.stdout


class SpanLog:
    """Spans recorded by the benchmark around calls into the program.

    Kept in memory and written once at the end, one JSON object per line
    in the record shape :func:`repro.obs.load_spans` reads, so
    ``python -m repro trace <file>`` renders them.  Start times are
    measured; only solver phases (timed inside the engine) are laid
    end-to-end from their parent's measured start.
    """

    def __init__(self, seed: int):
        self.records: list[dict[str, Any]] = []
        self._rng = random.Random(seed)
        self._epoch = time.time() - time.perf_counter()

    def _id(self, bits: int) -> str:
        return f"{self._rng.getrandbits(bits):0{bits // 4}x}"

    def _add(self, name, trace_id, span_id, parent_id, start, duration, attrs) -> None:
        record = {
            "trace_id": trace_id,
            "span_id": span_id,
            "parent_id": parent_id,
            "name": name,
            "start_s": round(self._epoch + start, 6),
            "duration_s": round(duration, 6),
        }
        if attrs:
            record["attrs"] = attrs
        self.records.append(record)

    @contextmanager
    def span(self, name: str, parent: dict | None = None, **attrs: Any) -> Iterator[dict]:
        """Time the body as one span; yields a handle that children name
        as their parent (``handle["attrs"]`` may be extended in the body)."""
        handle = {
            "trace_id": parent["trace_id"] if parent else self._id(128),
            "span_id": self._id(64),
            "attrs": dict(attrs),
            "start": time.perf_counter(),
        }
        try:
            yield handle
        finally:
            self._add(
                name, handle["trace_id"], handle["span_id"],
                parent["span_id"] if parent else None,
                handle["start"], time.perf_counter() - handle["start"],
                handle["attrs"],
            )

    def emit(self, name: str, parent: dict, offset_s: float, duration_s: float,
             **attrs: Any) -> None:
        """A child of ``parent`` from a duration the program measured
        itself, placed ``offset_s`` after the parent's measured start."""
        self._add(
            name, parent["trace_id"], self._id(64), parent["span_id"],
            parent["start"] + offset_s, max(0.0, duration_s), attrs,
        )

    def self_times(self) -> dict[str, float]:
        """Summed self time (duration minus direct children) per span name."""
        children: dict[str, float] = {}
        for record in self.records:
            if record["parent_id"] is not None:
                children[record["parent_id"]] = (
                    children.get(record["parent_id"], 0.0) + record["duration_s"]
                )
        totals: dict[str, float] = {}
        for record in self.records:
            own = record["duration_s"] - children.get(record["span_id"], 0.0)
            totals[record["name"]] = totals.get(record["name"], 0.0) + max(0.0, own)
        return totals

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.records:
                handle.write(json.dumps(record, separators=(",", ":")) + "\n")


class NullSpanLog(SpanLog):
    """A :class:`SpanLog` that records nothing: the same pass run through
    it and through a real log differs only by the cost of tracing."""

    def __init__(self) -> None:
        super().__init__(0)

    @contextmanager
    def span(self, name: str, parent: dict | None = None, **attrs: Any) -> Iterator[dict]:
        yield {"trace_id": "", "span_id": "", "attrs": {}, "start": 0.0}

    def emit(self, *args: Any, **attrs: Any) -> None:
        pass
