"""Experiment driver: build, evolve, verify, and report.

The apparatus prepares a single photon in the superposition
(1/sqrt2)(a1+ a2+ + e^{i phi} b1+ b2+)|0>, optionally with coherent states of
amplitude alpha injected on modes a3 and b3, and sends it through three beam
splitters: one on each right arm pair, (a2, a3) and (b2, b3), with parameters
(t, r), then a balanced one on the left pair (a1, b1).

:func:`run_experiment` runs the full verification battery for one
configuration and returns a :class:`Report` whose verdict certifies that the
left reduced state is independent of the injection and of every legitimate
right-side operation, within explicit tolerances. Every state it builds is a
sum of product states of single-mode vectors (hilbert.product_state), so the
direct construction it compares the evolved state with is the box projection
of the ideal output, and that residual measures the simulator's own
truncation error. Its tolerance grows as 2 sqrt(leakage); density-level
checks grow linearly; invariance checks under right-side channels are exact
linear algebra and keep fixed tolerances.

Default per-mode cutoffs take the adequacy rule plus a margin of
DEFAULT_CUTOFF_MARGIN. The margin is calibrated so the evolved state agrees
with the independent direct construction to a few parts in 1e10 at |alpha|
around 1; at the bare adequacy cutoff that residual sits near 1e-7.
"""
from __future__ import annotations

import functools
import math
import os
import warnings
from dataclasses import dataclass
from typing import Mapping, Optional, Union

import numpy as np

from .channels import (
    PROBABILITY_FLOOR,
    conditional_left_by_occupation,
    nonselective_left,
    occupation_projectors,
    random_kraus,
    random_right_unitary,
)
from .hilbert import (
    MODE_LABELS,
    MODES,
    RIGHT_LABELS,
    DensityOperator,
    HilbertSpec,
    PureState,
    apply,
    embed,
    ladder,
    product_state,
    raising_matrix,
    total_occupations,
)
from .nosignal import (
    analytic_left_expectation,
    expectation,
    random_left_observable,
    reduce_left,
    signaling_gap,
    spectral_norm,
    trace_distance,
)
from .optics import (
    BeamSplitter,
    CutoffAdequacyWarning,
    adequate_cutoff,
    beamsplitter_unitary,
    coherent_series,
    heisenberg_action,
)

SQRT_HALF = math.sqrt(0.5)

DEFAULT_CUTOFF_MARGIN = 5

_CHANNEL_TRIALS = 20
_SCAN_PAIR = ("a2", "b2")
_RIGHT_PAIRS = (
    ("a2", "b2"),
    ("a2", "a3"),
    ("a2", "b3"),
    ("b2", "a3"),
    ("b2", "b3"),
    ("a3", "b3"),
)
# fixed tolerances for checks that are exact linear algebra at any cutoff
_EXACT_CHECK_TOL = 1e-10


def default_cutoffs(alpha: complex) -> dict[str, int]:
    """Per-mode cutoffs: 1 on the left pair (one photon lives there), the
    adequacy rule plus DEFAULT_CUTOFF_MARGIN on the right quartet."""
    right = adequate_cutoff(alpha) + DEFAULT_CUTOFF_MARGIN
    out = {"a1": 1, "b1": 1}
    out.update({label: right for label in RIGHT_LABELS})
    return out


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: physics parameters, cutoffs, RNG seed, tolerances.

    ``cutoffs`` may be None (defaults for this alpha), a partial mapping of
    mode label to cutoff that overrides the defaults, or a tuple of all six
    cutoffs in mode order; it is normalized to the six-entry tuple.
    r is derived as +sqrt(1 - t^2).
    """

    alpha: complex = 1.0
    phi: float = 0.0
    t: float = SQRT_HALF
    cutoffs: Optional[Union[Mapping[str, int], tuple[int, ...]]] = None
    seed: int = 0
    trials: int = 100
    tolerance: float = 1e-9

    def __post_init__(self) -> None:
        alpha = complex(self.alpha)
        if not math.isfinite(abs(alpha)):
            raise ValueError("alpha must be finite")
        object.__setattr__(self, "alpha", alpha)
        phi = float(self.phi)
        if not math.isfinite(phi):
            raise ValueError("phi must be finite")
        object.__setattr__(self, "phi", phi)
        t = float(self.t)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        object.__setattr__(self, "t", t)
        seed = int(self.seed)
        if seed < 0:
            raise ValueError("seed must be a nonnegative integer")
        object.__setattr__(self, "seed", seed)
        trials = int(self.trials)
        if trials < 1:
            raise ValueError("trials must be >= 1")
        object.__setattr__(self, "trials", trials)
        tolerance = float(self.tolerance)
        if not (tolerance > 0 and math.isfinite(tolerance)):
            raise ValueError(f"tolerance must be finite and positive, got {tolerance}")
        object.__setattr__(self, "tolerance", tolerance)

        resolved = default_cutoffs(alpha)
        given = self.cutoffs
        if given is not None:
            if isinstance(given, Mapping):
                items = given.items()
            else:
                given = tuple(given)
                if len(given) != len(MODE_LABELS):
                    raise ValueError(
                        f"a cutoffs tuple needs six entries, one per mode "
                        f"{MODE_LABELS}, got {len(given)}"
                    )
                items = zip(MODE_LABELS, given)
            for label, value in items:
                if label not in MODE_LABELS:
                    raise ValueError(f"unknown mode label {label!r} in cutoffs")
                resolved[label] = int(value)
        for label in ("a1", "b1"):
            if resolved[label] < 1:
                raise ValueError(f"cutoff for left mode {label} must be >= 1")
        for label in ("a2", "b2"):
            if resolved[label] < 1:
                raise ValueError(
                    f"cutoff for photon arm {label} must be >= 1 (it carries "
                    f"the injected photon)"
                )
        if any(resolved[label] < 0 for label in MODE_LABELS):
            raise ValueError("cutoffs must be nonnegative")
        object.__setattr__(
            self, "cutoffs", tuple(resolved[label] for label in MODE_LABELS)
        )

    @property
    def r(self) -> float:
        return math.sqrt(max(0.0, 1.0 - self.t * self.t))

    @property
    def cutoffs_map(self) -> dict[str, int]:
        return dict(zip(MODE_LABELS, self.cutoffs))

    @property
    def required_cutoff(self) -> int:
        return adequate_cutoff(self.alpha)

    @property
    def adequacy_warning(self) -> bool:
        if self.alpha == 0:
            return False
        needed = self.required_cutoff
        return any(self.cutoffs_map[label] < needed for label in RIGHT_LABELS)

    def hilbert_spec(self) -> HilbertSpec:
        return HilbertSpec(MODES, self.cutoffs)


# Peak resident memory of a run per byte of one state vector, measured with
# one BLAS thread: 142 MiB for the 14.3 MiB state at alpha = 1 (ratio 9.96)
# and 350 MiB for the 49.4 MiB state at alpha = 2 (ratio 7.07), the evolved
# states, the channel battery's branches and the interpreter together.
_PEAK_PER_STATE_BYTE = 10
# Peak traced memory of building one dense operator on a mode pair of
# dimension d = d_x d_y, per byte of its d^2 complex entries: 9.0 for a
# splitter (expm), 10.1 for a Kraus family (QR of a 3d x d matrix) and 4.1 for
# a Haar unitary. The largest is charged for every pair a run builds on.
_PEAK_PER_PAIR_OPERATOR_BYTE = 10.1


def check_memory(config: ExperimentConfig) -> None:
    """Raise ValueError when the run's estimated peak exceeds physical memory:
    its states, plus the largest dense operator it builds on a mode pair."""
    spec = config.hilbert_spec()
    dim = spec.dim
    pair = max(spec.subspace(p).dim for p in (("a1", "b1"),) + _RIGHT_PAIRS)
    need = 16 * (_PEAK_PER_STATE_BYTE * dim + _PEAK_PER_PAIR_OPERATOR_BYTE * pair**2)
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        cutoffs = ", ".join(f"{k}={v}" for k, v in config.cutoffs_map.items())
        raise ValueError(
            f"|alpha| = {abs(config.alpha):.4g} at cutoffs {cutoffs} needs "
            f"{dim:.3g} amplitudes per state and dense operators on mode pairs "
            f"of up to {pair:.3g} levels, an estimated {need / 2**30:.3g} GiB "
            f"at peak, more than the {have / 2**30:.3g} GiB of physical memory; "
            f"lower |alpha| or the cutoffs"
        )


def _photon_pairs(
    spec: HilbertSpec,
    amplitudes: Mapping[str, complex],
    pairs: list[tuple[str, str, complex]],
    scale: float,
) -> PureState:
    """scale * sum_k c_k x_k+ y_k+ acting on coherent states of the given
    amplitudes (vacuum on the other modes), for pairs (x_k, y_k, c_k).

    Every factor is the box projection of its ideal single-mode vector:
    raising the truncated series only drops the component above the cutoff.
    """

    def factor(m: str, photon: bool = False) -> np.ndarray:
        d = spec.cutoff_of(m) + 1
        vec = coherent_series(amplitudes.get(m, 0.0), d)
        return raising_matrix(d) @ vec if photon else vec

    background = {m: factor(m) for m in amplitudes}
    terms = [(c, {**background, x: factor(x, True), y: factor(y, True)}) for x, y, c in pairs]
    return product_state(spec, terms, scale=scale)


def _prepared_state(config: ExperimentConfig, alpha: complex) -> PureState:
    """(1/sqrt2)(a1+ a2+ + e^{i phi} b1+ b2+) acting on |alpha> on a3 and b3."""
    pairs = [("a1", "a2", 1.0), ("b1", "b2", np.exp(1j * config.phi))]
    return _photon_pairs(config.hilbert_spec(), {"a3": alpha, "b3": alpha}, pairs, SQRT_HALF)


def initial_state_bare(config: ExperimentConfig) -> PureState:
    """The photon superposition over vacuum: no injection on the right."""
    return _prepared_state(config, 0.0)


def initial_state_with_coherent(config: ExperimentConfig) -> PureState:
    """The photon superposition with coherent amplitude alpha on a3 and b3."""
    if config.adequacy_warning:
        low = [
            label
            for label in RIGHT_LABELS
            if config.cutoffs_map[label] < config.required_cutoff
        ]
        warnings.warn(
            f"right-mode cutoffs {low} are below the adequacy rule "
            f"({config.required_cutoff}) for |alpha| = {abs(config.alpha):.4g}; "
            f"tolerances are scaled by the resulting leakage",
            CutoffAdequacyWarning,
            stacklevel=2,
        )
    return _prepared_state(config, config.alpha)


def _splitters(config: ExperimentConfig) -> tuple[BeamSplitter, BeamSplitter, BeamSplitter]:
    t, r = config.t, config.r
    return (
        BeamSplitter(("a1", "b1"), SQRT_HALF, SQRT_HALF),
        BeamSplitter(("a2", "a3"), t, r),
        BeamSplitter(("b2", "b3"), t, r),
    )


def evolve(state: PureState, config: ExperimentConfig) -> PureState:
    """Send a prepared state through the apparatus: arm splitters first
    (they act on disjoint pairs and commute), then the left splitter."""
    spec = state.spec
    left, arm_a, arm_b = _splitters(config)
    out = apply(beamsplitter_unitary(spec, arm_b), state)
    out = apply(beamsplitter_unitary(spec, arm_a), out)
    out = apply(beamsplitter_unitary(spec, left), out)
    return out


def evolve_and_reduce(
    config: ExperimentConfig, injected: bool
) -> tuple[PureState, DensityOperator, float]:
    """One preparation, injected or bare, evolved and reduced: (final state,
    its left state, the prepared state's leakage)."""
    prepared = (initial_state_with_coherent if injected else initial_state_bare)(config)
    final = evolve(prepared, config)
    return final, reduce_left(final), prepared.leakage


def no_signaling_rows(
    config: ExperimentConfig, rho_with: DensityOperator, rho_bare: DensityOperator
) -> tuple[tuple[str, float, float], ...]:
    """The trace_distance and signaling_gap check rows (name, residual,
    tolerance). Their one tolerance is the base plus the larger leakage of the
    left states, the run's largest, since evolution only adds leakage."""
    gap = signaling_gap(rho_with, rho_bare, trials=config.trials, seed=config.seed)
    tolerance = config.tolerance + max(rho_with.leakage, rho_bare.leakage)
    return (
        ("trace_distance", trace_distance(rho_with, rho_bare), tolerance),
        ("signaling_gap", gap, tolerance),
    )


def selective_ranking(
    final: PureState, rho: DensityOperator
) -> tuple[list[tuple[tuple[int, ...], float, float, DensityOperator]], DensityOperator]:
    """Every (a2, b2) outcome above PROBABILITY_FLOOR as (occupation,
    probability, contrast, conditional left state), and the mixture; ``rho``
    is the left state of ``final``. Row 0 is the report's outcome: in scan
    order, a later outcome wins only when its probability times contrast is
    larger by more than 1e-15. The rest follow by that product, descending."""
    scan = conditional_left_by_occupation(final, _SCAN_PAIR)
    baseline = DensityOperator(rho.spec, rho.matrix / rho.trace)
    rows = []
    for k, p in enumerate(scan.probabilities):
        if p < PROBABILITY_FLOOR:
            continue
        conditional = scan.conditional(k)
        contrast = trace_distance(conditional, baseline)
        rows.append((scan.occupations[k], float(p), contrast, conditional))
    score = [p * contrast for _, p, contrast, _ in rows]
    ks = range(len(rows))
    best = functools.reduce(lambda i, j: j if score[j] > score[i] + 1e-15 else i, ks)
    order = sorted(ks, key=lambda i: (i != best, -score[i]))  # stable: ties keep scan order
    return [rows[i] for i in order], scan.mixture()


def direct_final_state(config: ExperimentConfig) -> PureState:
    """The evolved coherent-input state assembled without evolving anything.

    The ideal output is
    (1/2)[(a1+ + b1+)(t a2+ + r a3+) + e^{i phi}(-a1+ + b1+)(t b2+ + r b3+)]
    acting on |-r alpha> on a2 and b2 and |t alpha> on a3 and b3, written out
    as eight product terms. Every amplitude is the ideal one, so agreement
    with :func:`evolve` of :func:`initial_state_with_coherent` measures the
    simulator's own truncation error over the whole optical chain.
    """
    t, r, alpha = config.t, config.r, config.alpha
    phase = np.exp(1j * config.phi)
    pairs = [
        ("a1", "a2", t), ("a1", "a3", r), ("b1", "a2", t), ("b1", "a3", r),
        ("a1", "b2", -phase * t), ("a1", "b3", -phase * r),
        ("b1", "b2", phase * t), ("b1", "b3", phase * r),
    ]
    amplitudes = {"a2": -r * alpha, "b2": -r * alpha, "a3": t * alpha, "b3": t * alpha}
    return _photon_pairs(config.hilbert_spec(), amplitudes, pairs, 0.5)


def heisenberg_residuals(config: ExperimentConfig) -> dict[str, float]:
    """Worst deviation of U x+ U+ from its stated linear form, per splitter.

    Restricted to the exactly-representable sectors: input pair states whose
    total occupation stays strictly below the smaller cutoff, output states at
    or below it. There the truncated generator matches the ideal one, so the
    residuals are rounding-level regardless of alpha.
    """
    spec = config.hilbert_spec()
    left, arm_a, arm_b = _splitters(config)
    out = {}
    for name, bs in (("left_pair", left), ("arm_a", arm_a), ("arm_b", arm_b)):
        u = beamsplitter_unitary(spec, bs)
        sub = u.spec
        x, y = bs.mode_pair
        rx = embed(ladder(spec, x, "raise"), sub)
        ry = embed(ladder(spec, y, "raise"), sub)
        targets = (
            (rx, bs.t * rx.matrix + bs.r * ry.matrix),
            (ry, -bs.r * rx.matrix + bs.t * ry.matrix),
        )
        totals = total_occupations(sub.dims)
        mmin = min(sub.cutoffs)
        rows = totals <= mmin
        cols = totals <= mmin - 1
        worst = 0.0
        for op, target in targets:
            acted = heisenberg_action(u, op).matrix
            delta = np.abs(acted - target)[np.ix_(rows, cols)]
            worst = max(worst, float(delta.max()))
        out[name] = worst
    return out


@dataclass(frozen=True)
class Report:
    """Residuals, tolerances, and the verdict for one configuration."""

    config: ExperimentConfig
    required_cutoff: int
    adequacy_warning: bool
    leakage: dict[str, float]
    tolerances: dict[str, float]
    residuals: dict[str, float]
    selective: dict[str, object]
    verdict: str

    def to_json(self) -> str:
        doc = {
            "config": {
                "alpha": {"re": self.config.alpha.real, "im": self.config.alpha.imag},
                "phi": self.config.phi,
                "t": self.config.t,
                "r": self.config.r,
                "cutoffs": self.config.cutoffs_map,
                "seed": self.config.seed,
                "trials": self.config.trials,
                "tolerance": self.config.tolerance,
            },
            "required_cutoff": self.required_cutoff,
            "adequacy_warning": self.adequacy_warning,
            "leakage": self.leakage,
            "tolerances": self.tolerances,
            "residuals": self.residuals,
            "selective": self.selective,
            "verdict": self.verdict,
        }
        return _render_json(doc)


def _render_json(value, indent: int = 0) -> str:
    """Deterministic JSON: insertion-ordered keys, floats at 17 significant
    digits, two-space indentation."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [
            f'{inner}"{key}": {_render_json(val, indent + 1)}'
            for key, val in value.items()
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [f"{inner}{_render_json(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(parts) + "\n" + pad + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    if isinstance(value, str):
        escaped = value.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'
    if value is None:
        return "null"
    raise TypeError(f"cannot serialize {type(value)!r}")


def run_experiment(config: ExperimentConfig) -> Report:
    """Run the full battery for one configuration and return the report.

    Order: Heisenberg checks on the three splitters; the injected, then the
    bare preparation, evolved and reduced (:func:`evolve_and_reduce`); the
    structure check; trace distance and gap (:func:`no_signaling_rows`); the
    analytic oracle; invariance under right-side unitary, projective, and Kraus
    channels; the selective ranking (:func:`selective_ranking`) and mixture.
    """
    spec = config.hilbert_spec()
    heis = heisenberg_residuals(config)

    psi_with, rho_with, leak_with = evolve_and_reduce(config, injected=True)
    rho_bare, leak_bare = evolve_and_reduce(config, injected=False)[1:]
    leakage = {
        "initial_bare": leak_bare,
        "initial_with_coherent": leak_with,
        "final_bare": rho_bare.leakage,
        "final_with_coherent": psi_with.leakage,
    }
    leak_max = max(leakage.values())
    # every left state the run produces, for the reduced_invariants check
    reduced = [rho_with, rho_bare]

    structure = float(
        np.linalg.norm(psi_with.amplitudes - direct_final_state(config).amplitudes)
    )

    oracle = 0.0
    for k in range(config.trials):
        h = random_left_observable(rho_with.spec, (config.seed, 4, k))
        deviation = abs(expectation(rho_with, h) - analytic_left_expectation(h))
        oracle = max(oracle, deviation / spectral_norm(h))

    pairs = [_RIGHT_PAIRS[k % len(_RIGHT_PAIRS)] for k in range(_CHANNEL_TRIALS)]
    after_unitary = [
        nonselective_left(psi_with, (random_right_unitary(spec, pair, (config.seed, 2, k)),))
        for k, pair in enumerate(pairs)
    ]
    after_projective = nonselective_left(
        psi_with, occupation_projectors(spec, _SCAN_PAIR, group="total").projectors
    )
    after_kraus = [
        nonselective_left(
            psi_with, random_kraus(spec, pair, (config.seed, 3, k), k=3).operators
        )
        for k, pair in enumerate(pairs)
    ]
    reduced += after_unitary + [after_projective] + after_kraus

    ranked, mixture = selective_ranking(psi_with, rho_with)
    reduced += [row[3] for row in ranked] + [mixture]
    occupation, probability, contrast, _ = ranked[0]
    selective = {
        "outcome": dict(zip(_SCAN_PAIR, occupation)),
        "probability": probability,
        "conditional_trace_distance": contrast,
    }

    def moved(states: list[DensityOperator]) -> float:
        return max(trace_distance(rho, rho_with) for rho in states)

    base = config.tolerance
    checks = (
        *((f"heisenberg_{name}", res, _EXACT_CHECK_TOL) for name, res in heis.items()),
        ("structure", structure, base + 2.0 * math.sqrt(leak_max)),
        *no_signaling_rows(config, rho_with, rho_bare),
        ("left_oracle", oracle, base + leak_max),
        ("channel_unitary", moved(after_unitary), _EXACT_CHECK_TOL),
        ("channel_projective", trace_distance(after_projective, rho_with), _EXACT_CHECK_TOL),
        ("channel_kraus", moved(after_kraus), _EXACT_CHECK_TOL),
        ("selective_mixture", trace_distance(mixture, rho_with), _EXACT_CHECK_TOL),
        (
            "reduced_invariants",
            max(max(rho.invariant_residuals().values()) for rho in reduced),
            _EXACT_CHECK_TOL,
        ),
    )
    verdict = "pass" if all(res <= tol for _, res, tol in checks) else "fail"
    return Report(
        config=config,
        required_cutoff=config.required_cutoff,
        adequacy_warning=config.adequacy_warning,
        leakage=leakage,
        tolerances={name: tol for name, _, tol in checks},
        residuals={name: res for name, res, _ in checks},
        selective=selective,
        verdict=verdict,
    )
