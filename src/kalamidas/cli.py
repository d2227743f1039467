"""Command line entry point.

Runs one experiment configuration and emits the JSON report to stdout or to a
file. Exit status: 0 when the verdict is pass, 1 when any residual exceeds its
tolerance (each such check is named on stderr as ``name: residual >
tolerance``), 2 on usage or configuration errors.
"""
from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from .experiment import SQRT_HALF, ExperimentConfig, check_memory, run_experiment
from .hilbert import MODE_LABELS


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kalamidas",
        description=(
            "Simulate the Kalamidas signaling apparatus on a truncated "
            "multimode Fock space and report whether the left reduced state "
            "moves when coherent states are injected on the right."
        ),
    )
    parser.add_argument(
        "--alpha-re", type=float, default=1.0,
        help="real part of the injected coherent amplitude (default 1.0)",
    )
    parser.add_argument(
        "--alpha-im", type=float, default=0.0,
        help="imaginary part of the injected coherent amplitude (default 0.0)",
    )
    parser.add_argument(
        "--phi", type=float, default=0.0,
        help="relative phase of the photon superposition in radians (default 0)",
    )
    parser.add_argument(
        "--t", type=float, default=SQRT_HALF,
        help="arm beamsplitter transmissivity in [0, 1] (default sqrt(1/2))",
    )
    parser.add_argument(
        "--cutoff", action="append", default=[], metavar="MODE=N",
        help=(
            "per-mode cutoff override, repeatable, e.g. --cutoff a3=12; "
            f"modes are {', '.join(MODE_LABELS)}; unspecified modes keep the "
            "adequacy-rule defaults"
        ),
    )
    parser.add_argument(
        "--seed", type=int, default=0,
        help="base seed for every randomized battery (default 0)",
    )
    parser.add_argument(
        "--trials", type=int, default=100,
        help="observables drawn for the gap and oracle checks (default 100)",
    )
    parser.add_argument(
        "--tolerance", type=float, default=1e-9,
        help="base tolerance before leakage scaling (default 1e-9)",
    )
    parser.add_argument(
        "--emit", default="-", metavar="PATH",
        help="where to write the report; '-' means stdout (default)",
    )
    parser.add_argument(
        "--format", choices=["json"], default="json",
        help="report format; only json is defined",
    )
    return parser


def _parse_cutoffs(entries: Sequence[str]) -> dict[str, int]:
    out: dict[str, int] = {}
    for entry in entries:
        label, sep, value = entry.partition("=")
        if not sep:
            raise ValueError(f"--cutoff expects MODE=N, got {entry!r}")
        label = label.strip()
        if label not in MODE_LABELS:
            raise ValueError(
                f"unknown mode {label!r} in --cutoff; modes are "
                f"{', '.join(MODE_LABELS)}"
            )
        try:
            out[label] = int(value)
        except ValueError:
            raise ValueError(f"--cutoff value for {label} must be an integer, got {value!r}")
    return out


def _check_emit(path: str) -> None:
    """Raise ValueError unless the report can be written to ``path``."""
    if path == "-":
        return
    target = os.path.abspath(path)
    folder = os.path.dirname(target)
    if os.path.isdir(target):
        raise ValueError(f"cannot write the report to {path}: it is a directory")
    if not os.path.isdir(folder):
        raise ValueError(
            f"cannot write the report to {path}: no directory {folder}"
        )
    if not os.access(target if os.path.exists(target) else folder, os.W_OK):
        raise ValueError(f"cannot write the report to {path}: permission denied")


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    try:
        cutoffs = _parse_cutoffs(args.cutoff)
        config = ExperimentConfig(
            alpha=complex(args.alpha_re, args.alpha_im),
            phi=args.phi,
            t=args.t,
            cutoffs=cutoffs or None,
            seed=args.seed,
            trials=args.trials,
            tolerance=args.tolerance,
        )
        _check_emit(args.emit)
        check_memory(config)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = run_experiment(config)
    text = report.to_json() + "\n"
    if args.emit == "-":
        sys.stdout.write(text)
    else:
        with open(args.emit, "w", encoding="utf-8") as handle:
            handle.write(text)
    for name, residual in report.residuals.items():
        tolerance = report.tolerances[name]
        if not residual <= tolerance:
            print(f"{name}: {residual:.3e} > {tolerance:.3e}", file=sys.stderr)
    return 0 if report.verdict == "pass" else 1


if __name__ == "__main__":
    raise SystemExit(main())
