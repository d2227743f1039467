"""One benchmark workload in a fresh interpreter.

Sets up (imports kalamidas, builds the workload's first config), then runs
whole operations until the next one would end past ``--seconds``, checks
every output against closed forms, and prints one JSON line. ``run.py``
starts this with BLAS and OpenMP threads fixed at one and PYTHONPATH at the
checkout's ``src/``; ``--setup-only`` stops after set-up.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import runpy
import statistics
import sys
import tempfile
from pathlib import Path
from time import perf_counter

import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
SWEEP_SCRIPT = ROOT / "scripts" / "parameter_sweep.py"

SQRT_HALF = math.sqrt(0.5)
TOLERANCE = 1e-9

# The README quick-start verdict, with and without injection.
VERDICT_ALPHA = {"verdict_default": 1.0, "verdict_vacuum": 0.0}
VERDICT_TRIALS = 100

# Several t and several phi per (alpha, t): one pass builds every splitter
# again for each point, which is what splitter caching and phi reuse remove.
SWEEP_ALPHAS = (0.0, 0.5)
SWEEP_TS = (0.6, 0.9)
SWEEP_PHIS = (0.0, math.pi / 3, math.pi)
SWEEP_TRIALS = 25

WORKLOADS = tuple(VERDICT_ALPHA) + ("sweep_grid",)


def _exit_code(exc: SystemExit) -> int:
    if exc.code is None:
        return 0
    return exc.code if isinstance(exc.code, int) else 1


class Verdict:
    """One operation: ``kalamidas`` at one config, report written to a file."""

    def __init__(self, alpha: float, seed: int, workdir: Path) -> None:
        self.alpha = alpha
        self.seed = seed
        self.report = workdir / "report.json"
        self.argv = [
            "--alpha-re", repr(alpha), "--t", repr(SQRT_HALF), "--phi", "0.0",
            "--seed", str(seed), "--trials", str(VERDICT_TRIALS),
            "--emit", str(self.report),
        ]

    def first_config(self):
        from kalamidas import ExperimentConfig

        return ExperimentConfig(
            alpha=self.alpha, t=SQRT_HALF, seed=self.seed, trials=VERDICT_TRIALS
        )

    def run(self) -> tuple[float, list[str]]:
        from kalamidas import cli

        self.report.unlink(missing_ok=True)
        start = perf_counter()
        status = cli.main(self.argv)
        seconds = perf_counter() - start
        text = self.report.read_text(encoding="utf-8") if self.report.exists() else ""
        return seconds, checks.check_verdict(
            status, text, alpha=self.alpha, t=SQRT_HALF, phi=0.0,
            seed=self.seed, trials=VERDICT_TRIALS, tolerance=TOLERANCE,
        )


class Sweep:
    """One operation: a full pass of scripts/parameter_sweep.py over the grid,
    run in this process with its table captured."""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.grid = [(a, t, p) for a in SWEEP_ALPHAS for t in SWEEP_TS for p in SWEEP_PHIS]
        self.argv = [
            str(SWEEP_SCRIPT),
            "--alphas", ",".join(map(repr, SWEEP_ALPHAS)),
            "--ts", ",".join(map(repr, SWEEP_TS)),
            "--phis", ",".join(map(repr, SWEEP_PHIS)),
            "--trials", str(SWEEP_TRIALS),
            "--seed", str(seed),
            "--tolerance", repr(TOLERANCE),
        ]

    def first_config(self):
        from kalamidas import ExperimentConfig

        alpha, t, phi = self.grid[0]
        return ExperimentConfig(
            alpha=alpha, t=t, phi=phi, seed=self.seed, trials=SWEEP_TRIALS,
            tolerance=TOLERANCE,
        )

    def run(self) -> tuple[float, list[str]]:
        table = io.StringIO()
        saved_argv = sys.argv
        sys.argv = list(self.argv)
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(table):
                runpy.run_path(str(SWEEP_SCRIPT), run_name="__main__")
            status = 0
        except SystemExit as exc:
            status = _exit_code(exc)
        finally:
            sys.argv = saved_argv
        seconds = perf_counter() - start
        return seconds, checks.check_sweep(status, table.getvalue(), self.grid)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="where a traced run writes its spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import kalamidas

    src = (ROOT / "src").resolve()
    if src not in Path(kalamidas.__file__).resolve().parents:
        print(f"error: kalamidas imported from {kalamidas.__file__}, not {src}",
              file=sys.stderr)
        return 2

    with tempfile.TemporaryDirectory(dir=args.workdir) as workdir:
        if args.workload == "sweep_grid":
            workload = Sweep(args.seed)
        else:
            workload = Verdict(VERDICT_ALPHA[args.workload], args.seed, Path(workdir))
        workload.first_config()
        if args.setup_only:
            print("ready", flush=True)
            return 0
        return measure(workload, args)


def measure(workload, args) -> int:
    """Run whole rounds until the next would end past ``args.seconds``.

    A round is one operation; on a traced run it is one plain and one traced
    operation, in alternating order so that neither side always carries the
    first-operation costs of a fresh process.
    """
    trace = tracer.Tracer() if args.trace else None
    plain_s, traced_s, layers = [], [], []
    attempted = failed = 0
    problems: list[str] = []  # wrong outputs
    errors: list[str] = []  # operations that raised
    start = perf_counter()
    rounds = 0
    while True:
        for traced in ((False, True), (True, False))[rounds % 2] if trace else (False,):
            attempted += 1
            try:
                if traced:
                    with trace.installed(op=attempted):
                        seconds, found = workload.run()
                    layers.append(trace.metrics())
                else:
                    seconds, found = workload.run()
            except Exception as exc:  # counted as a failed operation
                failed += 1
                errors.append(f"operation {attempted} raised {exc!r}")
                continue
            (traced_s if traced else plain_s).append(seconds)
            problems += [f"operation {attempted}: {p}" for p in found]
        rounds += 1
        elapsed = perf_counter() - start
        if elapsed * (rounds + 1) / rounds > args.seconds:
            break

    result = {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "errors": errors,
        "op_s": plain_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if trace:
        result["layers"] = tracer.combine(layers) if layers else {}
        if plain_s and traced_s:
            result["layers"]["trace.op_s"] = statistics.median(traced_s)
            result["layers"]["trace.overhead_s"] = (
                statistics.median(traced_s) - statistics.median(plain_s)
            )
        if args.spans:
            trace.write_spans(args.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
