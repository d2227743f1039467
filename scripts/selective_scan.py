"""Scan the photon-arm occupation outcomes and rank them by how far each
conditional left state sits from the unconditional one.

This is the flip side of the no-signaling verdict: conditioning on a recorded
right-side outcome does move the left state (nonzero contrast), but the
probability-weighted mixture of all conditionals restores the unconditional
state, so nothing is transmitted until the record itself travels.

Example:
    python scripts/selective_scan.py --alpha-re 1 --top 8
"""
import argparse
import math
import sys

import numpy as np

from kalamidas import (
    DensityOperator,
    ExperimentConfig,
    conditional_left_by_occupation,
    evolve,
    initial_state_with_coherent,
    reduce_left,
    trace_distance,
)
from kalamidas.channels import PROBABILITY_FLOOR


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alpha-re", type=float, default=1.0)
    parser.add_argument("--alpha-im", type=float, default=0.0)
    parser.add_argument("--phi", type=float, default=0.0)
    parser.add_argument("--t", type=float, default=math.sqrt(0.5))
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args()

    try:
        config = ExperimentConfig(
            alpha=complex(args.alpha_re, args.alpha_im), phi=args.phi, t=args.t
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    psi = evolve(initial_state_with_coherent(config), config)
    rho = reduce_left(psi)
    baseline = DensityOperator(rho.spec, rho.matrix / rho.trace)

    scan = conditional_left_by_occupation(psi, ("a2", "b2"))
    rows = []
    for k, p in enumerate(scan.probabilities):
        if p < PROBABILITY_FLOOR:
            continue
        contrast = trace_distance(scan.conditional(k), baseline)
        rows.append((p * contrast, scan.occupations[k], p, contrast, k))
    rows.sort(reverse=True)

    header = f"{'n_a2':>4} {'n_b2':>4} {'probability':>13} {'contrast':>11} {'p*contrast':>12}"
    print(header)
    print("-" * len(header))
    for weight, (na, nb), p, contrast, _ in rows[: args.top]:
        print(f"{na:4d} {nb:4d} {p:13.6e} {contrast:11.6f} {weight:12.6e}")
    print("-" * len(header))

    _, occ, p, contrast, k = rows[0]
    diag = np.diag(scan.conditional(k).matrix).real
    print(f"top outcome {occ}: conditional left occupation diag {np.round(diag, 6)}")
    print(f"unconditional diag {np.round(np.diag(baseline.matrix).real, 6)}")
    mixture_residual = trace_distance(scan.mixture(), rho)
    print(f"mixture-restoration residual {mixture_residual:.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
