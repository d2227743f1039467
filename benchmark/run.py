"""Benchmark of the kalamidas verdict and parameter sweep.

Usage, from the root of a checkout:

    python3 benchmark/run.py --workload verdict_default --seed 0 --seconds 30 --trace 0

Times set-up in several fresh interpreters, then runs the workload in one more
(see workload.py) and prints, as the last line of standard output, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``. Exits 0 when every output checked correct.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

# Fresh interpreters timed for setup_s; the median is reported.
SETUP_PROBES = 5
# Upper limit for one workload process; a traced verdict_default round takes about 40 s.
CHILD_TIMEOUT_S = 170.0

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402  (benchmark-local modules)
from workload import WORKLOADS  # noqa: E402


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        # One BLAS/OpenMP thread: with two, evolve at alpha=0 is 1.4-3x slower
        # and far less steady (see README).
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        PYTHONHASHSEED="0",
    )
    return env


def workload_cmd(args, *extra: str) -> list[str]:
    return [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--workdir", str(RESULTS), *extra,
    ]


def setup_seconds(args) -> float:
    """Fresh interpreter to kalamidas imported and the first config built."""
    cmd = workload_cmd(args, "--setup-only")
    start = perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=ROOT) as proc:
        line = proc.stdout.readline()
        seconds = perf_counter() - start
        proc.stdout.read()
        status = proc.wait(timeout=60)
    if status != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe exited with status {status}")
    return seconds


def per_layer_unit(name: str) -> str:
    if name.endswith(".bytes"):
        return "B"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    return "count"


def per_layer_names() -> list[str]:
    return tracer.metric_names() + ["trace.op_s", "trace.overhead_s"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "kalamidas" / "__init__.py",
                   ROOT / "scripts" / "parameter_sweep.py"):
        if not needed.is_file():
            print(f"error: {needed.relative_to(ROOT)} not found; run from a "
                  f"checkout of the kalamidas repository", file=sys.stderr)
            return 2
    RESULTS.mkdir(exist_ok=True)

    setup = statistics.median(setup_seconds(args) for _ in range(SETUP_PROBES))
    extra = ["--trace", str(args.trace)]
    spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl"
    if args.trace:
        extra += ["--spans", str(spans)]
    proc = subprocess.run(
        workload_cmd(args, *extra), stdout=subprocess.PIPE, text=True,
        env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        print(f"error: workload process exited with status {proc.returncode}",
              file=sys.stderr)
        return proc.returncode or 1
    child = json.loads(proc.stdout.strip().splitlines()[-1])

    for error in child["errors"]:
        print(f"failed: {error}", file=sys.stderr)
    for problem in child["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    attempted, failed = child["attempted"], child["failed"]
    if attempted == failed:
        print("error: every operation failed", file=sys.stderr)
        return 1
    if args.trace:
        layers = child["layers"]
        metrics = {
            name: {"value": layers[name], "unit": per_layer_unit(name)}
            for name in per_layer_names()
        }
        print(f"{args.workload}: spans written to {spans.relative_to(ROOT)}; "
              f"tracing overhead {layers['trace.overhead_s']:.4f} s per operation "
              f"of {layers['trace.op_s'] - layers['trace.overhead_s']:.4f} s",
              file=sys.stderr)
    else:
        metrics = {
            "op_s": {"value": statistics.median(child["op_s"]), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": setup, "unit": "s"},
        }
        print(f"{args.workload}: {attempted} operations, {failed} failed; "
              f"op_s {child['op_s']}", file=sys.stderr)
    correct = not child["problems"]
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
