"""Sweep the apparatus over amplitudes, transmissivities, and phases, and
tabulate the left-side trace distance and signaling gap at each point.

Example:
    python scripts/parameter_sweep.py --alphas 0,0.5,1 --ts 0.6,0.9 --trials 25
"""
import argparse
import math
import sys

from kalamidas.experiment import (
    ExperimentConfig, check_memory, evolve_and_reduce, no_signaling_rows,
)


def _floats(text):
    return [float(x) for x in text.split(",") if x.strip()]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alphas", type=_floats, default=[0.0, 0.5, 1.0])
    parser.add_argument("--ts", type=_floats, default=[0.6, math.sqrt(0.5), 0.9])
    parser.add_argument("--phis", type=_floats, default=[0.0, math.pi / 3, math.pi])
    parser.add_argument("--trials", type=int, default=25)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--tolerance", type=float, default=1e-9)
    args = parser.parse_args()

    # every point is validated before the table starts
    try:
        configs = [
            ExperimentConfig(
                alpha=alpha, t=t, phi=phi, seed=args.seed,
                trials=args.trials, tolerance=args.tolerance,
            )
            for alpha in args.alphas
            for t in args.ts
            for phi in args.phis
        ]
        for config in configs:
            check_memory(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header = f"{'alpha':>7} {'t':>7} {'phi':>7} {'trace_dist':>12} {'gap':>12} verdict"
    print(header)
    print("-" * len(header))
    worst_td = worst_gap = 0.0
    failures = 0
    for config in configs:
        # only the left state is kept, so the next final state is not built beside one
        rho_with = evolve_and_reduce(config, injected=True)[1]
        rho_bare = evolve_and_reduce(config, injected=False)[1]
        rows = no_signaling_rows(config, rho_with, rho_bare)
        (_, td, _), (_, gap, _) = rows
        ok = all(residual <= tolerance for _, residual, tolerance in rows)
        failures += 0 if ok else 1
        worst_td, worst_gap = max(worst_td, td), max(worst_gap, gap)
        print(
            f"{config.alpha.real:7.3f} {config.t:7.4f} {config.phi:7.4f} "
            f"{td:12.3e} {gap:12.3e} {'pass' if ok else 'FAIL'}"
        )
    print("-" * len(header))
    print(f"worst trace distance {worst_td:.3e}, worst gap {worst_gap:.3e}")
    rule = f"their tolerance, base {args.tolerance:.0e} + leakage"
    if failures:
        print(f"{failures} point(s) exceeded {rule}")
        return 1
    print(f"all points within {rule}: no signaling observed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
