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

import math
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
        totals = np.array([sum(sub.occupation_of(i)) for i in range(sub.dim)])
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

    Order: Heisenberg checks on the three splitters; construction of both
    initial states; evolution; left reduction; trace distance and signaling
    gap; comparison against the analytic left-expectation oracle; invariance
    under right-side unitary, projective, and Kraus channels; the selective
    demonstration with its mixture-restoration check.
    """
    spec = config.hilbert_spec()
    heis = heisenberg_residuals(config)

    psi_with0 = initial_state_with_coherent(config)
    psi_bare0 = initial_state_bare(config)
    psi_with = evolve(psi_with0, config)
    psi_bare = evolve(psi_bare0, config)

    leakage = {
        "initial_bare": psi_bare0.leakage,
        "initial_with_coherent": psi_with0.leakage,
        "final_bare": psi_bare.leakage,
        "final_with_coherent": psi_with.leakage,
    }
    leak_max = max(leakage.values())

    rho_with = reduce_left(psi_with)
    rho_bare = reduce_left(psi_bare)
    # every left state the run produces, for the reduced_invariants check
    reduced = [rho_with, rho_bare]

    td = trace_distance(rho_with, rho_bare)
    gap = signaling_gap(rho_with, rho_bare, trials=config.trials, seed=config.seed)

    structure = float(
        np.linalg.norm(psi_with.amplitudes - direct_final_state(config).amplitudes)
    )

    left = rho_with.spec
    oracle = 0.0
    for k in range(config.trials):
        h = random_left_observable(left, (config.seed, 4, k))
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

    scan = conditional_left_by_occupation(psi_with, _SCAN_PAIR)
    trace_w = rho_with.trace
    baseline = DensityOperator(left, rho_with.matrix / trace_w)
    best_k, best_score, best_contrast = -1, -1.0, 0.0
    for k, p in enumerate(scan.probabilities):
        if p < PROBABILITY_FLOOR:
            continue
        conditional = scan.conditional(k)
        reduced.append(conditional)
        contrast = trace_distance(conditional, baseline)
        score = p * contrast
        if score > best_score + 1e-15:
            best_k, best_score, best_contrast = k, score, contrast
    mixture = scan.mixture()
    reduced.append(mixture)
    selective = {
        "outcome": dict(zip(scan.mode_labels, scan.occupations[best_k])),
        "probability": float(scan.probabilities[best_k]),
        "conditional_trace_distance": best_contrast,
    }

    def moved(states: list[DensityOperator]) -> float:
        return max(trace_distance(rho, rho_with) for rho in states)

    base = config.tolerance
    checks = (
        *((f"heisenberg_{name}", res, _EXACT_CHECK_TOL) for name, res in heis.items()),
        ("structure", structure, base + 2.0 * math.sqrt(leak_max)),
        ("trace_distance", td, base + leak_max),
        ("signaling_gap", gap, base + leak_max),
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
