"""Scan the photon-arm occupation outcomes and rank them by how far each
conditional left state sits from the unconditional one.

This is the flip side of the no-signaling verdict: conditioning on a recorded
right-side outcome does move the left state (nonzero contrast), but the
probability-weighted mixture of all conditionals restores the unconditional
state, so nothing is transmitted until the record itself travels. The first
row is the report's selective outcome.

Example:
    python scripts/selective_scan.py --alpha-re 1 --top 8
"""
import argparse
import math
import sys

import numpy as np

from kalamidas import trace_distance
from kalamidas.experiment import (
    ExperimentConfig, check_memory, evolve_and_reduce, selective_ranking,
)


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
        check_memory(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    psi, rho, _ = evolve_and_reduce(config, injected=True)
    ranked, mixture = selective_ranking(psi, rho)

    header = f"{'n_a2':>4} {'n_b2':>4} {'probability':>13} {'contrast':>11} {'p*contrast':>12}"
    print(header)
    print("-" * len(header))
    for (na, nb), p, contrast, _ in ranked[: args.top]:
        print(f"{na:4d} {nb:4d} {p:13.6e} {contrast:11.6f} {p * contrast:12.6e}")
    print("-" * len(header))

    occ, _, _, conditional = ranked[0]
    diag = np.diag(conditional.matrix).real
    print(f"top outcome {occ}: conditional left occupation diag {np.round(diag, 6)}")
    print(f"unconditional diag {np.round(np.diag(rho.matrix / rho.trace).real, 6)}")
    print(f"mixture-restoration residual {trace_distance(mixture, rho):.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
