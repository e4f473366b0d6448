"""The repository's benchmark: the solver and the service, end to end and
layer by layer.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds S --trace 0|1

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace
1`` is the separate traced run that reports the per-layer metrics and
writes its spans as JSONL under ``.perfbench/traces/`` (render them with
``python -m repro trace <file>``).  Every run checks the program's outputs,
prints each metric by name with its unit, writes a run record under
``.perfbench/runs/`` and ends with one JSON result line.  It exits 1 when
an output check fails and 2 when the checkout has no program to measure.
Workloads, metrics and frozen settings are described in ``BENCHMARK.json``
and ``perfbench/spec.json``; ``perfbench/README.md`` explains them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _src_record() -> dict:
    """Commit (when the checkout is a git work tree), a digest of ``src/``
    and its line count, so every figure sits next to the code it measured."""
    files = sorted((ROOT / "src").rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in files:
        data = path.read_bytes()
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"commit": commit, "src_sha256": digest.hexdigest(), "src_loc": lines}


def _machine() -> dict:
    def version(package: str) -> str | None:
        try:
            return metadata.version(package)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "platform": platform.platform(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool):
    from common import WORK

    if name.startswith("solve-"):
        from library import run
    else:
        from service import run_read as run
    work = WORK / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        if name.startswith("solve-"):
            return run(name, seed, seconds, trace, work)
        return run(seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(name: str, seed: int, seconds: float, trace: bool, outcome, bench: dict) -> dict:
    """Print every metric with its unit; write the run record; return the
    result object."""
    from common import WORK

    specs = bench["per_layer" if trace else "end_to_end"]
    metrics = {}
    for spec in specs:
        if spec["name"] in outcome.metrics:
            value = float(outcome.metrics[spec["name"]])
        elif trace:
            value = 0.0  # the layer does no work on this workload
        else:
            raise RuntimeError(f"{name} did not measure {spec['name']}")
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
        print(f"{name:14s} {spec['name']:32s} {value:14.6g} {spec['unit']}")
    for phase in outcome.details.get("phases", []):
        print(f"{name:14s} phase {json.dumps(phase)}")
    for problem in outcome.problems:
        print(f"{name:14s} CHECK FAILED: {problem}")
    result = {
        "correct": not outcome.problems and outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        **_src_record(), "machine": _machine(), **result,
        "problems": outcome.problems, "details": outcome.details,
    }
    path = WORK / "runs" / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"{name:14s} record {path.relative_to(ROOT)}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description="solver and service benchmark")
    parser.add_argument("--workload", required=True, help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file() or not (
        ROOT / "BENCHMARK.json"
    ).is_file():
        print("perfbench: this checkout has no src/repro to measure", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in bench["workloads"]]
    if args.workload not in (*names, "all"):
        parser.error(f"unknown workload {args.workload!r}; choose from {names} or 'all'")
    results = {}
    for name in names if args.workload == "all" else [args.workload]:
        try:
            outcome = run_workload(name, args.seed, args.seconds, bool(args.trace))
            results[name] = report(name, args.seed, args.seconds, bool(args.trace), outcome, bench)
        except Exception:
            traceback.print_exc()
            print(f"perfbench: workload {name} did not complete", file=sys.stderr)
            return 1
    if len(results) == 1:
        (final,) = results.values()
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}.{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    print(json.dumps(final, separators=(",", ":")))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
