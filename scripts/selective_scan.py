"""Scan the photon-arm occupation outcomes and rank them by how far each
conditional left state sits from the unconditional one.

This is the flip side of the no-signaling verdict: conditioning on a recorded
right-side outcome does move the left state (nonzero contrast), but the
probability-weighted mixture of all conditionals restores the unconditional
state, so nothing is transmitted until the record itself travels. The first
row is the report's selective outcome. No six-mode state is built. The scan
reads the diagonals of the arms' one-mode marginals, the unconditional state
the overlaps of the arm-pair vectors (experiment.left_states_over_phases),
each a 2 x 2 Gram matrix before the left splitter; the last line is the
distance between the scan's mixture and that state. The two occupation lines
apply the left splitter's one-photon block, so they read the left detectors.

Example:
    python scripts/selective_scan.py --alpha-re 1 --top 8
"""
import argparse
import math
import sys

import numpy as np

from kalamidas import BeamSplitter, beamsplitter_unitary, trace_distance
from kalamidas.experiment import (
    SQRT_HALF,
    ExperimentConfig,
    NoOutcomeError,
    check_pair_memory,
    left_states_over_phases,
    selective_ranking,
)
from kalamidas.nosignal import normalized


def left_occupations(config, gram):
    """The diagonal of the left pair's state after the left splitter, over
    its whole basis (|00>, |01>, |10>, |11> at the default cutoffs), for a
    Gram matrix G of the branches: U G U+ on the one-photon rows, with U
    the splitter's one-photon block, and 0 on every other row."""
    left = BeamSplitter(("a1", "b1"), SQRT_HALF, SQRT_HALF)
    u = beamsplitter_unitary(config.hilbert_spec(), left)
    rows, block = u.blocks[1]  # by total, in sector_slices order
    out = np.zeros(u.spec.dim)
    out[rows] = np.diag(block @ gram @ block.conj().T).real
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--alpha-re", type=float, default=1.0)
    parser.add_argument("--alpha-im", type=float, default=0.0)
    parser.add_argument("--phi", type=float, default=0.0)
    parser.add_argument("--t", type=float, default=math.sqrt(0.5))
    parser.add_argument("--top", type=int, default=10)
    args = parser.parse_args()

    try:
        if args.top < 1:
            raise ValueError(f"--top must be at least 1, got {args.top}")
        config = ExperimentConfig(
            alpha=complex(args.alpha_re, args.alpha_im), phi=args.phi, t=args.t
        )
        check_pair_memory(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        ranked, mixture = selective_ranking(config)
    except NoOutcomeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    (rho,) = left_states_over_phases(config, [config.phi], injected=True)

    header = f"{'n_a2':>4} {'n_b2':>4} {'probability':>13} {'contrast':>11} {'p*contrast':>12}"
    print(header)
    print("-" * len(header))
    for (na, nb), p, contrast, _ in ranked[: args.top]:
        print(f"{na:4d} {nb:4d} {p:13.6e} {contrast:11.6f} {p * contrast:12.6e}")
    print("-" * len(header))

    occ, _, _, conditional = ranked[0]
    diag = left_occupations(config, conditional)
    print(f"top outcome {occ}: conditional left occupation diag {np.round(diag, 6)}")
    print(f"unconditional diag {np.round(left_occupations(config, normalized(rho)), 6)}")
    print(f"mixture-restoration residual {trace_distance(mixture, rho):.3e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
