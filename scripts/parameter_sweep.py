"""Sweep the apparatus over amplitudes, transmissivities, and phases, and
tabulate the left-side trace distance and signaling gap at each point.

Each (alpha, t) and preparation builds its two branches from four arm-pair
vectors, each sent through its arm splitter, and their 2 x 2 Gram matrix
once; every phase rescales that Gram matrix, the left state before the left
splitter, which no left check reads (experiment.left_states_over_phases).
No six-mode state and no left splitter are built. The bare preparation is
the same computation at alpha = 0, so an alpha = 0 group builds its left
states once. Each point compares the two left states, normalized to unit
trace, against --tolerance: the gap is the trace norm of their difference,
twice the trace distance. --trials and --seed are validated and otherwise
ignored, since a sweep draws nothing.

Example:
    python scripts/parameter_sweep.py --alphas 0,0.5,1 --ts 0.6,0.9
"""
import argparse
import math
import sys

from kalamidas.experiment import (
    ExperimentConfig, check_pair_memory, failing, left_states_over_phases, no_signaling_rows,
)


def _floats(text):
    return [float(x) for x in text.split(",") if x.strip()]


def _worse(worst, value):
    """The larger of the two, a NaN winning, so the summary shows it."""
    return value if math.isnan(value) or value > worst else worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alphas", type=_floats, default=[0.0, 0.5, 1.0])
    parser.add_argument("--ts", type=_floats, default=[0.6, math.sqrt(0.5), 0.9])
    parser.add_argument("--phis", type=_floats, default=[0.0, math.pi / 3, math.pi])
    parser.add_argument(
        "--trials", type=int, default=25, help="validated (>= 1) and ignored: the gap is exact",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="validated (>= 0) and ignored: a sweep draws nothing",
    )
    parser.add_argument("--tolerance", type=float, default=1e-9)
    args = parser.parse_args()

    # every point is validated before the table starts
    try:
        for name in ("alphas", "ts", "phis"):
            if not getattr(args, name):
                raise ValueError(f"--{name} needs at least one value")
        # one group of configs per (alpha, t), one config per phi
        groups = [
            [
                ExperimentConfig(
                    alpha=alpha, t=t, phi=phi, seed=args.seed,
                    trials=args.trials, tolerance=args.tolerance,
                )
                for phi in args.phis
            ]
            for alpha in args.alphas
            for t in args.ts
        ]
        for group in groups:
            for config in group:
                check_pair_memory(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    header = f"{'alpha':>7} {'t':>7} {'phi':>7} {'trace_dist':>12} {'gap':>12} verdict"
    print(header)
    print("-" * len(header))
    worst_td = worst_gap = 0.0
    failures = 0
    for group in groups:
        with_states = left_states_over_phases(group[0], args.phis, injected=True)
        bare_states = (
            with_states if group[0].alpha == 0
            else left_states_over_phases(group[0], args.phis, injected=False)
        )
        for config, rho_with, rho_bare in zip(group, with_states, bare_states):
            rows = no_signaling_rows(config, rho_with, rho_bare)
            (_, td, _), (_, gap, _) = rows
            ok = not failing(rows)
            failures += 0 if ok else 1
            worst_td, worst_gap = _worse(worst_td, td), _worse(worst_gap, gap)
            print(
                f"{config.alpha.real:7.3f} {config.t:7.4f} {config.phi:7.4f} "
                f"{td:12.3e} {gap:12.3e} {'pass' if ok else 'FAIL'}"
            )
    print("-" * len(header))
    print(f"worst trace distance {worst_td:.3e}, worst gap {worst_gap:.3e}")
    # repr is the shortest spelling that reads back as the same float
    rule = f"the tolerance {args.tolerance!r} on normalized left states"
    if failures:
        print(f"{failures} point(s) not within {rule}")
        return 1
    print(f"all points within {rule}: no signaling observed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
