"""The experiment: build, verify, and report.

The apparatus prepares a single photon in the superposition
(1/sqrt2)(a1+ a2+ + e^{i phi} b1+ b2+)|0>, optionally with coherent states of
amplitude alpha injected on modes a3 and b3, and sends it through three beam
splitters: one on each right arm pair, (a2, a3) and (b2, b3), with parameters
(t, r), then a balanced one on the left pair (a1, b1).

:func:`run_experiment` runs the full verification battery for one
configuration and returns a :class:`Report` whose verdict certifies that the
left reduced state is independent of the injection and of every legitimate
right-side operation, within explicit tolerances. It builds no six-mode
state: before the left splitter the apparatus is two one-photon branches,
each a coefficient times one vector on each arm pair, (a2, a3) and (b2, b3),
and every row reads those arm-pair vectors. Every left state it compares is
the 2 x 2 Gram matrix of the branches, which no unitarily invariant left
check reads. The structure check compares the arm vectors with the box
projections of the ideal ones, so it measures the simulator's own truncation
error, against the base tolerance plus a bound derived from the Poisson
tails the cutoffs leave (:func:`_truncation`); the no-signaling and oracle
checks hold normalized left states to the base tolerance alone; invariance
checks under right-side channels are exact, with fixed tolerances. It runs
at one BLAS thread, so its report does not depend on the thread count the
environment sets.

The six-mode states (:func:`initial_state_bare`,
:func:`initial_state_with_coherent`, :func:`evolve`,
:func:`direct_final_state`) are the tests' plain reference; no run builds
them.

Default per-mode cutoffs take the adequacy rule plus a margin of
DEFAULT_CUTOFF_MARGIN. The margin is calibrated so the arm vectors agree
with the ideal ones to a few parts in 1e10 at |alpha| around 1; at the bare
adequacy cutoff that residual sits near 1e-7.
"""
from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional, Sequence, Union

import numpy as np

from .channels import (
    PROBABILITY_FLOOR,
    Branch,
    branch_gram,
    channel_gram,
    conditional_left_by_occupation,
    haar_channels_left,
    occupation_projectors,
)
from .hilbert import (
    MODE_LABELS,
    RIGHT_LABELS,
    HilbertSpec,
    PureState,
    apply,
    as_integer,
    product_state,
    raising_matrix,
)
from .nosignal import (
    invariant_residuals,
    normalized,
    signaling_gap,
    trace_distance,
)
from .optics import (
    BeamSplitter,
    CutoffAdequacyWarning,
    adequate_cutoff,
    beamsplitter_unitary,
    coherent_series,
)

SQRT_HALF = math.sqrt(0.5)

DEFAULT_CUTOFF_MARGIN = 5

_CHANNEL_TRIALS = 20
_SCAN_PAIR = ("a2", "b2")
_ARMS = (("a2", "a3"), ("b2", "b3"))  # each arm's pair (photon mode, coherent mode)
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
    cutoffs in mode order; it is normalized to the six-entry tuple of a
    valid HilbertSpec. Cutoffs, seed and trials are integers
    (:func:`hilbert.as_integer`). r is +sqrt(1 - t^2). ``trials`` >= 1 is
    echoed in the report, but no stage reads it: the no-signaling rows are
    exact.
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
        for name, least in (("seed", 0), ("trials", 1)):
            count = as_integer(getattr(self, name), name)
            if count < least:
                raise ValueError(f"{name} must be >= {least}")
            object.__setattr__(self, name, count)
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
                resolved[label] = value
        # integers, nonnegative, at least 1 on the left pair: the spec's rule
        spec = HilbertSpec(MODE_LABELS, tuple(resolved[m] for m in MODE_LABELS))
        for label in ("a2", "b2"):
            if spec.cutoff_of(label) < 1:
                raise ValueError(f"cutoff for photon arm {label} must be >= 1 "
                                 f"(it carries the injected photon)")
        object.__setattr__(self, "cutoffs", spec.cutoffs)

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
        return bool(_inadequate_modes(self))

    def hilbert_spec(self) -> HilbertSpec:
        return _full_spec(self.cutoffs)


@functools.lru_cache(maxsize=16)
def _full_spec(cutoffs: tuple[int, ...]) -> HilbertSpec:
    """The six-mode space at these cutoffs: one spec object per cutoffs, so
    its sizes and subspaces are computed once for every config that shares
    them. The spec holds labels and cutoffs, never an amplitude."""
    return HilbertSpec(MODE_LABELS, cutoffs)


# Resident memory of a verdict outside its battery: the interpreter with
# SciPy loaded, which a verdict does before its battery (55.5-55.6 MiB;
# ``import kalamidas`` alone takes about 29 MiB), and the run's fixed
# overheads, which the CLI shows at alpha = 0: it peaks at 68.6-68.8 MiB.
_BASELINE_BYTES = 62 * 2**20
# Resident peak of a verdict above that baseline, per byte of one dense
# operator (d^2 complex entries) on its largest mode pair, d = d_x d_y. The
# channel battery (the two lanes' 3d x d buffers and the row chunks each
# lane contracts them in) sets it; a splitter is only its sector blocks.
# The CLI at one BLAS thread peaks at 68.8, 75.4, 86.0, 108.4, 142.2 and
# 305.2 MiB at alpha = 0, 0.5, 1, 1.5, 2 and 3, against charges of 71.0,
# 79.9, 94.2, 124.8, 173.4 and 414.0 MiB; the sweep and the scan alike.
_PEAK_PER_PAIR_OPERATOR_BYTE = 9.01


def check_pair_memory(config: ExperimentConfig) -> None:
    """Raise ValueError when the largest dense operator a run builds on a
    mode pair would take more than physical memory at peak: the whole charge
    of a verdict, the sweep and the scan, none of which builds a six-mode
    state."""
    spec = config.hilbert_spec()
    pair = max(spec.subspace(p).dim for p in (("a1", "b1"),) + _RIGHT_PAIRS)
    need = _BASELINE_BYTES + 16 * _PEAK_PER_PAIR_OPERATOR_BYTE * pair**2
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        cutoffs = ", ".join(f"{k}={v}" for k, v in config.cutoffs_map.items())
        raise ValueError(
            f"|alpha| = {abs(config.alpha):.4g} at cutoffs {cutoffs} "
            f"needs dense operators on mode pairs of up to {pair:.3g} levels, "
            f"an estimated {need / 2**30:.3g} GiB at peak, more than the "
            f"{have / 2**30:.3g} GiB of physical memory; lower |alpha| or the cutoffs"
        )


def _mode_factor(spec: HilbertSpec, m: str, alpha: complex, photon: bool = False) -> np.ndarray:
    """The truncated coherent series of amplitude alpha on mode m, raised
    once when ``photon``: the box projection of (m+)^photon |alpha>, since
    raising the truncated series only drops the component above the cutoff."""
    d = spec.cutoff_of(m) + 1
    vec = coherent_series(alpha, d)
    return raising_matrix(d) @ vec if photon else vec


def _raised(
    spec: HilbertSpec,
    amplitudes: Mapping[str, complex],
    terms: list[tuple[complex, tuple[str, ...]]],
    scale: float = 1.0,
) -> PureState:
    """scale * sum_k c_k (the product of m+ over the modes m of raised_k)
    acting on coherent states of the given amplitudes (vacuum on the other
    modes), for terms (c_k, raised_k): the one builder of every state a
    preparation or an ideal output is made of.

    Every factor is the box projection of its ideal single-mode vector
    (:func:`_mode_factor`).
    """

    def factor(m: str, photon: bool = False) -> np.ndarray:
        return _mode_factor(spec, m, amplitudes.get(m, 0.0), photon)

    background = {m: factor(m) for m in amplitudes}
    return product_state(
        spec,
        [(c, {**background, **{m: factor(m, True) for m in raised}}) for c, raised in terms],
        scale=scale,
    )


def _prepared_state(config: ExperimentConfig, alpha: complex) -> PureState:
    """(1/sqrt2)(a1+ a2+ + e^{i phi} b1+ b2+) acting on |alpha> on a3 and b3."""
    terms = [(1.0, ("a1", "a2")), (np.exp(1j * config.phi), ("b1", "b2"))]
    return _raised(config.hilbert_spec(), {"a3": alpha, "b3": alpha}, terms, SQRT_HALF)


def initial_state_bare(config: ExperimentConfig) -> PureState:
    """The photon superposition over vacuum: no injection on the right."""
    return _prepared_state(config, 0.0)


def initial_state_with_coherent(config: ExperimentConfig) -> PureState:
    """The photon superposition with coherent amplitude alpha on a3 and b3."""
    _warn_if_inadequate(config)
    return _prepared_state(config, config.alpha)


def _inadequate_modes(config: ExperimentConfig) -> list[str]:
    """The right modes whose cutoff is below the adequacy rule for the
    config's alpha; none at alpha = 0, which injects nothing."""
    if config.alpha == 0:
        return []
    return [m for m in RIGHT_LABELS if config.cutoffs_map[m] < config.required_cutoff]


def _warn(message: str, category: type[Warning]) -> None:
    """The package's one call of warnings.warn, attributed to the first
    calling frame outside this package; run as the program, the CLI prints
    it under the program's name instead (:func:`cli.main`)."""
    package = os.path.dirname(__file__) + os.sep
    frame, level = sys._getframe(1), 2  # the caller is level 2
    while frame.f_back is not None and frame.f_code.co_filename.startswith(package):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def _warn_if_inadequate(config: ExperimentConfig) -> None:
    """Warn when a right-mode cutoff is below the adequacy rule for the
    config's alpha."""
    low = _inadequate_modes(config)
    if low:
        _warn(
            f"right-mode cutoffs {low} are below the adequacy rule "
            f"({config.required_cutoff}) for |alpha| = {abs(config.alpha):.4g}; "
            f"the structure tolerance adds the truncation bound they imply",
            CutoffAdequacyWarning,
        )


def _poisson_tail(cutoff: int, lam: float) -> float:
    """sum_{n > cutoff} e^{-lam} lam^n / n!, summed upward from cutoff + 1
    without the coherent series, so that a fault in the series cannot cancel;
    1 below cutoff 0, where the sum is the whole distribution."""
    if cutoff < 0:
        return 1.0
    n, total, term = cutoff + 1, 0.0, 1.0
    while lam and (n <= lam or total + term != total):
        term = math.exp(n * math.log(lam) - lam - math.lgamma(n + 1))
        total, n = total + term, n + 1
    return total


def _splitters(config: ExperimentConfig) -> tuple[BeamSplitter, BeamSplitter, BeamSplitter]:
    t, r = config.t, config.r
    return (
        BeamSplitter(("a1", "b1"), SQRT_HALF, SQRT_HALF),
        BeamSplitter(("a2", "a3"), t, r),
        BeamSplitter(("b2", "b3"), t, r),
    )


def evolve(state: PureState, config: ExperimentConfig) -> PureState:
    """Send a prepared state through the apparatus: the arm splitters first
    (b, then a; they act on disjoint pairs and commute), then the left
    splitter."""
    left, arm_a, arm_b = _splitters(config)
    for bs in (arm_b, arm_a, left):
        state = apply(beamsplitter_unitary(state.spec, bs), state)
    return state


def _paired(phi: float, arms: Sequence[Sequence[PureState]]) -> list[Branch]:
    """The two one-photon branches from each arm's vectors (v0, v1), arm a
    then arm b, in the order of the left basis: (e^{i phi} / sqrt2, v0a,
    v1b) on |01>, (1 / sqrt2, v1a, v0b) on |10>."""
    (v0a, v1a), (v0b, v1b) = arms
    return [(SQRT_HALF * np.exp(1j * phi), v0a, v1b), (SQRT_HALF, v1a, v0b)]


def _prepared_branches(config: ExperimentConfig, alpha: complex, phi: float) -> list[Branch]:
    """The preparation's branches (:func:`_paired`): on each arm pair (x, y),
    v0 = |0> |alpha> and v1 = x+|0> |alpha> at the arm's own cutoffs, each
    booking the tail it lost as leakage."""
    spec = config.hilbert_spec()
    return _paired(phi, [
        [_raised(spec.subspace((x, y)), {y: alpha}, [(1.0, raised)]) for raised in ((), (x,))]
        for x, y in _ARMS
    ])


def _branches(config: ExperimentConfig, prepared: Sequence[Branch]) -> list[Branch]:
    """The two one-photon branches before the left splitter: those of a
    preparation (:func:`_prepared_branches`), each arm vector sent through
    its arm's splitter (v0 to q0, v1 to q1)."""
    spec = config.hilbert_spec()
    _, arm_a, arm_b = _splitters(config)
    ua, ub = (beamsplitter_unitary(spec, bs) for bs in (arm_a, arm_b))  # memoized
    return [(c, apply(ua, fa), apply(ub, fb)) for c, fa, fb in prepared]


def _ideal_branches(config: ExperimentConfig) -> list[Branch]:
    """The branches of the ideal output before the left splitter, built from
    the config alone (:func:`_paired` at ``config.phi``): on each arm pair
    (x, y) p0 is the box projection of |-r alpha> |t alpha> and p1 that of
    (t x+ + r y+) acting on it."""
    t, r, alpha = config.t, config.r, config.alpha
    spec = config.hilbert_spec()
    return _paired(config.phi, [
        [
            _raised(spec.subspace((x, y)), {x: -r * alpha, y: t * alpha}, terms)
            for terms in ([(1.0, ())], [(t, (x,)), (r, (y,))])
        ]
        for x, y in _ARMS
    ])


def _structure(branches: Sequence[Branch], ideal: Sequence[Branch]) -> float:
    """||psi - phi|| for two states given as their branches over the
    orthonormal left basis: the square root of the sum over branches of
    ||F (x) G - P (x) Q||^2, each branch's coefficient folded into its arm a
    vector (F = c Fa, P = k Pa). The left splitter is exact on the
    one-photon block, so this is also the distance after it. Each term is
    expanded as ||(F - P) (x) G||^2 + ||P (x) (G - Q)||^2
    + 2 Re(<F - P|P> <G|G - Q>), which takes no difference of two
    near-equal norms."""
    total = 0.0
    for (c, fa, g), (k, pa, q) in zip(branches, ideal, strict=True):
        f, p = c * fa.amplitudes, k * pa.amplitudes
        g, q = g.amplitudes, q.amplitudes
        df, dg = f - p, g - q
        total += (
            np.vdot(df, df).real * np.vdot(g, g).real
            + np.vdot(p, p).real * np.vdot(dg, dg).real
            + 2.0 * (np.vdot(df, p) * np.vdot(g, dg)).real
        )
    return math.sqrt(max(0.0, float(total)))


def _truncation(config: ExperimentConfig) -> dict[str, object]:
    """The truncation weights of each arm pair (x, y) and the bound they
    give the structure residual: per arm ``w0``, ``w1`` and ``tail``, and
    ``structure_bound``.

    Derivation. On an arm pair let v0 = |0> |alpha> and v1 = x+|0> |alpha>,
    Pi the box projection, U the ideal splitter and U_box the truncated one;
    the arm vector is F = U_box Pi v and its ideal P = Pi U v. U keeps the
    pair's total n, and the box holds every sector n <= m = min(c_x, c_y)
    whole, where U_box acts as U (c_x >= 1, so both v lie in the box up
    to their coherent factor's tail). So the part of v at n <= m gives F and P
    alike, and with u the part above m, F - P = U_box Pi u - Pi U u. The
    part of u in the box has norm squared w, the rest (n_y > c_y) T =
    ``tail``, the Poisson tail of |alpha|^2 above c_y
    (:func:`_poisson_tail`). Both splitters are unitary and Pi contracts, so
    ||F - P|| <= 2 sqrt(w) + sqrt(T) =: e. For v0 (n = n_y)
    w0 = T(m) - T(c_y); for v1 (n = n_y + 1) w1 = T(m - 1) - T(c_y). Every
    vector here has norm at most 1, so
    ||F (x) G - P (x) Q|| <= ||F - P|| + ||G - Q||, and both branches weigh
    1/2: in exact arithmetic the structure residual is at most
    sqrt(1/2 (e0_a + e1_b)^2 + 1/2 (e1_a + e0_b)^2).
    """
    lam = abs(config.alpha) ** 2
    cutoffs = config.cutoffs_map
    out, bounds = {}, []
    for name, (x, y) in zip(("arm_a", "arm_b"), _ARMS):
        m, tail = min(cutoffs[x], cutoffs[y]), _poisson_tail(cutoffs[y], lam)
        w0, w1 = (max(0.0, _poisson_tail(m - k, lam) - tail) for k in (0, 1))
        out[name] = {"w0": w0, "w1": w1, "tail": tail}
        bounds.append([2.0 * math.sqrt(w) + math.sqrt(tail) for w in (w0, w1)])
    (e0a, e1a), (e0b, e1b) = bounds
    out["structure_bound"] = math.sqrt(0.5 * (e0a + e1b) ** 2 + 0.5 * (e1a + e0b) ** 2)
    return out


def _booked_leakage(branches: Sequence[Branch]) -> float:
    """The leakage of a state given as its branches (c_i, Fa_i, Fb_i), as its
    arm vectors book it: 1 - sum_i |c_i|^2 (1 - leakage of Fa_i)
    (1 - leakage of Fb_i), at least 0, as a PureState's."""
    kept = sum(abs(c) ** 2 * (1.0 - fa.leakage) * (1.0 - fb.leakage) for c, fa, fb in branches)
    return max(0.0, 1.0 - kept)


def left_states_over_phases(
    config: ExperimentConfig, phis: Sequence[float], injected: bool
) -> list[np.ndarray]:
    """The left state of the injected or bare preparation at each phase in
    ``phis``, as the 2 x 2 Gram matrix of its branches (:func:`_branches`,
    alpha = 0 for the bare preparation), built without a six-mode state. One
    minus its trace is the leakage it books. Placed on the left pair by the
    left splitter, it is the partial trace of the evolved six-mode state at
    that phase, up to rounding.

    The branches and their Gram matrix G (:func:`channels.branch_gram`) are
    built once, at phi = 0. A phase multiplies the |01> coefficient by
    e^{i phi}, so it gives G times c c+ entrywise, c = (e^{i phi}, 1).
    """
    if injected:
        _warn_if_inadequate(config)
    prepared = _prepared_branches(config, config.alpha if injected else 0.0, 0.0)
    gram = branch_gram(_branches(config, prepared))
    phases = [np.array([np.exp(1j * phi), 1.0]) for phi in phis]
    return [gram * np.outer(c, c.conj()) for c in phases]


def no_signaling_rows(
    config: ExperimentConfig, rho_with: np.ndarray, rho_bare: np.ndarray
) -> tuple[tuple[str, float, float], ...]:
    """The trace_distance and signaling_gap check rows (name, residual,
    tolerance): the two left states, each normalized, against the base
    tolerance. The gap is the trace norm of their difference, twice the
    trace distance."""
    rho_with, rho_bare = normalized(rho_with), normalized(rho_bare)
    return (
        ("trace_distance", trace_distance(rho_with, rho_bare), config.tolerance),
        ("signaling_gap", signaling_gap(rho_with, rho_bare), config.tolerance),
    )


class NoOutcomeError(ValueError):
    """No outcome of the selective scan clears PROBABILITY_FLOOR, so the
    scan has no outcome to report."""


def selective_ranking(
    config: ExperimentConfig, branches: Optional[Sequence[Branch]] = None
) -> tuple[list[tuple[tuple[int, ...], float, float, np.ndarray]], np.ndarray]:
    """Every (a2, b2) outcome at or above PROBABILITY_FLOOR as (occupation,
    probability, contrast, conditional Gram matrix, of trace 1), and the
    Gram matrix of every outcome's mixture, from the arm-pair vectors of
    :func:`_branches`, built here unless ``branches`` gives them. The
    contrast is the trace distance from the normalized mixture. One rule
    orders the rows: probability times contrast, rounded to 15 decimals,
    descending, ties in scan order; row 0 is the report's outcome. Raises
    NoOutcomeError when no outcome clears the floor."""
    if branches is None:
        branches = _branches(config, _prepared_branches(config, config.alpha, config.phi))
    outcomes, gram = conditional_left_by_occupation(branches, _SCAN_PAIR)
    norm2 = float(np.trace(gram).real)
    if not outcomes:
        raise NoOutcomeError(
            f"no ({', '.join(_SCAN_PAIR)}) outcome has probability above the floor "
            f"{PROBABILITY_FLOOR:.0e} in a state with norm squared {norm2:.3g}; raise the cutoffs"
        )
    baseline = gram / norm2
    rows = [(occ, p, trace_distance(cond, baseline), cond) for occ, p, cond in outcomes]
    return sorted(rows, key=lambda row: -round(row[1] * row[2], 15)), gram


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
    terms = [
        (t, ("a1", "a2")), (r, ("a1", "a3")), (t, ("b1", "a2")), (r, ("b1", "a3")),
        (-phase * t, ("a1", "b2")), (-phase * r, ("a1", "b3")),
        (phase * t, ("b1", "b2")), (phase * r, ("b1", "b3")),
    ]
    amplitudes = {"a2": -r * alpha, "b2": -r * alpha, "a3": t * alpha, "b3": t * alpha}
    return _raised(config.hilbert_spec(), amplitudes, terms, 0.5)


def heisenberg_residuals(config: ExperimentConfig) -> dict[str, float]:
    """Worst deviation of U x+ U+ from its stated linear form, per splitter.

    Restricted to the exactly-representable sectors: input pair states whose
    total occupation n stays strictly below the smaller cutoff, output states
    at or below it. There the truncated generator matches the ideal one, so
    the residuals are rounding-level regardless of alpha. Each such n is
    checked on its own: with X and Y the blocks of x+ and y+ from sector n to
    sector n + 1, U's blocks U_n give U_{n+1} X U_n+, compared with
    t X + r Y, and U_{n+1} Y U_n+, compared with -r X + t Y. A pair with a
    cutoff of 0 has no such sector, and its residual is 0.

    (t, r) is each splitter's stated form, not the one it was built with:
    the balanced closed form t = r = sqrt(1/2) on the left pair, the
    config's (t, r) on the arms. No other row reads the left splitter.
    """
    spec = config.hilbert_spec()
    left, arm_a, arm_b = _splitters(config)
    stated = (
        ("left_pair", left, SQRT_HALF, SQRT_HALF),
        ("arm_a", arm_a, config.t, config.r),
        ("arm_b", arm_b, config.t, config.r),
    )
    out = {}
    for name, bs, t, r in stated:
        u = beamsplitter_unitary(spec, bs)
        blocks = [block for _, block in u.blocks]  # by total, in sector_slices order
        worst = 0.0
        for n in range(min(u.spec.cutoffs)):
            k = np.arange(n + 1)  # n_x in sector n; sector n + 1 holds n_x = 0..n+1
            x = np.zeros((n + 2, n + 1))
            x[k + 1, k] = np.sqrt(k + 1)
            y = np.zeros((n + 2, n + 1))
            y[k, k] = np.sqrt(n - k + 1)
            for op, target in ((x, t * x + r * y), (y, -r * x + t * y)):
                acted = blocks[n + 1] @ op @ blocks[n].conj().T
                worst = max(worst, float(np.abs(acted - target).max()))
        out[name] = worst
    return out


def failing(rows: Sequence[tuple[str, float, float]]) -> list[tuple[str, float, float]]:
    """The rows (name, residual, tolerance) whose residual is not at or below
    its tolerance, in order, a NaN failing: the one rule that judges a row."""
    return [row for row in rows if not row[1] <= row[2]]


@dataclass(frozen=True)
class Report:
    """One run's ordered check rows (name, residual, tolerance), which give its
    residuals, tolerances and verdict, and its leakage, truncation and scan."""

    config: ExperimentConfig
    leakage: dict[str, float]
    truncation: dict[str, object]
    checks: tuple[tuple[str, float, float], ...]
    selective: dict[str, object]

    @property
    def residuals(self) -> dict[str, float]:
        return {name: res for name, res, _ in self.checks}

    @property
    def tolerances(self) -> dict[str, float]:
        return {name: tol for name, _, tol in self.checks}

    @property
    def verdict(self) -> str:
        return "fail" if failing(self.checks) else "pass"

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
            "required_cutoff": self.config.required_cutoff,
            "adequacy_warning": self.config.adequacy_warning,
            "leakage": self.leakage,
            "truncation": self.truncation,
            "tolerances": self.tolerances,
            # strict JSON has no NaN or infinity: such a residual is written as null
            "residuals": {
                name: res if math.isfinite(res) else None for name, res in self.residuals.items()
            },
            "selective": self.selective,
            "verdict": self.verdict,
        }
        return json.dumps(doc, indent=2, allow_nan=False)


# Each OpenBLAS library in the process, as a module that links it and the
# library's thread-count getter and setter: numpy's 64-bit-integer build and
# the one SciPy's LAPACK (the Haar draws' QR) calls.
_OPENBLAS = (
    ("numpy._core._multiarray_umath",
     "scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy.linalg._flapack", "scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
)


@functools.cache
def _blas_thread_controls() -> tuple[tuple, bool]:
    """The (getter, setter) pairs of :data:`_OPENBLAS` that this process's
    libraries export, and whether every library exports them; found through
    ``ctypes`` once per process."""
    import ctypes  # imported by verdicts only

    found = []
    for module, get, put in _OPENBLAS:
        try:
            lib = ctypes.CDLL(importlib.import_module(module).__file__)
            getter, setter = getattr(lib, get), getattr(lib, put)
        except (ImportError, OSError, AttributeError):  # another BLAS build
            continue
        getter.argtypes, getter.restype = [], ctypes.c_int
        setter.argtypes, setter.restype = [ctypes.c_int], None
        found.append((getter, setter))
    return tuple(found), len(found) == len(_OPENBLAS)


@contextmanager
def _one_blas_thread() -> Iterator[bool]:
    """Run the block with every OpenBLAS library at one thread, and restore
    each one's previous count after it. Yields whether every library could
    be set; a library without the setter runs at its own count."""
    controls, complete = _blas_thread_controls()
    before = [getter() for getter, _ in controls]
    for _, setter in controls:
        setter(1)
    try:
        yield complete
    finally:
        for (_, setter), count in zip(controls, before):
            setter(count)


def run_experiment(config: ExperimentConfig) -> Report:
    """Run the full battery for one configuration and return the report.

    Order: Heisenberg checks on the three splitters; the injected
    preparation (:func:`_prepared_branches`), its branches
    (:func:`_branches`) and the selective ranking and mixture
    (:func:`selective_ranking`), which raises NoOutcomeError when the scan
    is empty, before the rest is built; the bare preparation and its
    branches, at alpha = 0 (an alpha = 0 run reuses the injected ones), so
    each preparation is built once; the leakage; the structure check
    against the ideal branches (:func:`_ideal_branches`,
    :func:`_structure`); trace distance and gap (:func:`no_signaling_rows`);
    the analytic oracle, the trace distance from I / 2, the closed-form left
    state on the one-photon block; invariance under right-side unitary,
    projective, and Kraus channels (:func:`channels.haar_channels_left` on
    two lanes). ``config.seed`` seeds only the channel battery's Haar
    draws, and ``config.trials`` is read by no stage. No six-mode state is
    built.

    The whole run holds numpy's and SciPy's OpenBLAS at one thread
    (:func:`_one_blas_thread`), their counts restored after it, so every
    channel residual is that of drawing and contracting one channel after
    another. Where a library exports no thread-count setter, the run warns
    (RuntimeWarning) and goes on at that library's own count.

    Every row but the Heisenberg ones reads the arm-pair vectors. The
    leakage block books, per preparation, the arm vectors' leakage before
    and after the arm splitters (:func:`_booked_leakage`); a preparation's
    left state books one minus its trace, a channel row's the injected
    final leakage.
    ``unitarity`` is the larger, over the preparations, of final less
    initial leakage: the norm the unitary-flagged splitters lose.
    ``preparation`` compares the injected preparation's leakage with
    1 - (1 - T_a3)(1 - T_b3), T the Poisson tail above each cutoff (the
    ``tail`` of each arm in :func:`_truncation`), and reads the bare one's,
    0. ``structure`` takes the base tolerance plus the bound of
    :func:`_truncation`, which the report's ``truncation`` block holds with
    its weights.
    """
    with _one_blas_thread() as pinned:
        if not pinned:
            _warn(
                "could not set the BLAS thread count to 1; the report's last bits may "
                "depend on the thread count", RuntimeWarning,
            )
        heis = heisenberg_residuals(config)

        # the scan next, so a run whose scan has no outcome stops here
        prepared = _prepared_branches(config, config.alpha, config.phi)
        branches = _branches(config, prepared)
        ranked, mixture = selective_ranking(config, branches)
        occupation, probability, contrast, _ = ranked[0]
        selective = {
            "outcome": dict(zip(_SCAN_PAIR, occupation)),
            "probability": probability,
            "conditional_trace_distance": contrast,
        }
        _warn_if_inadequate(config)

        if config.alpha == 0:
            prepared_bare, bare = prepared, branches
        else:
            prepared_bare = _prepared_branches(config, 0.0, config.phi)
            bare = _branches(config, prepared_bare)
        leak_with, leak_bare = _booked_leakage(prepared), _booked_leakage(prepared_bare)
        final_with = _booked_leakage(branches)
        leakage = {
            "initial_bare": leak_bare,
            "initial_with_coherent": leak_with,
            "final_bare": _booked_leakage(bare),
            "final_with_coherent": final_with,
        }
        structure = _structure(branches, _ideal_branches(config))
        truncation = _truncation(config)

        rho_with = branch_gram(branches)
        rho_bare = rho_with if bare is branches else branch_gram(bare)
        # every left state the run produces with the leakage it books, for reduced_invariants
        booked = [(rho, 1.0 - np.trace(rho).real) for rho in (rho_with, rho_bare)]
        booked += [(row[3], 0.0) for row in ranked] + [(mixture, 1.0 - np.trace(mixture).real)]

        oracle = trace_distance(normalized(rho_with), np.eye(2) / 2)

        pairs = [_RIGHT_PAIRS[k % len(_RIGHT_PAIRS)] for k in range(_CHANNEL_TRIALS)]
        grams = haar_channels_left(
            config.hilbert_spec(),
            branches,
            [(pair, (config.seed, 2, k), 1) for k, pair in enumerate(pairs)]
            + [(pair, (config.seed, 3, k), 3) for k, pair in enumerate(pairs)],
        )
        projectors = occupation_projectors(config.hilbert_spec(), _SCAN_PAIR)
        grams.append(channel_gram(projectors, branches))
        booked += [(gram, final_with) for gram in grams]
        unitary, kraus, projective = grams[:_CHANNEL_TRIALS], grams[_CHANNEL_TRIALS:-1], grams[-1:]

        def moved(states: list[np.ndarray]) -> float:
            return max(trace_distance(rho, rho_with) for rho in states)

        lost = max(final_with - leak_with, leakage["final_bare"] - leak_bare)
        kept = math.prod(1.0 - truncation[arm]["tail"] for arm in ("arm_a", "arm_b"))

        base = config.tolerance
        checks = (
            *((f"heisenberg_{name}", res, _EXACT_CHECK_TOL) for name, res in heis.items()),
            ("structure", structure, base + truncation["structure_bound"]),
            *no_signaling_rows(config, rho_with, rho_bare),
            ("left_oracle", oracle, base),
            ("channel_unitary", moved(unitary), _EXACT_CHECK_TOL),
            ("channel_projective", moved(projective), _EXACT_CHECK_TOL),
            ("channel_kraus", moved(kraus), _EXACT_CHECK_TOL),
            ("selective_mixture", trace_distance(mixture, rho_with), _EXACT_CHECK_TOL),
            (
                "reduced_invariants",
                max(max(invariant_residuals(rho, x).values()) for rho, x in booked),
                _EXACT_CHECK_TOL,
            ),
            ("unitarity", lost, _EXACT_CHECK_TOL),
            ("preparation", max(abs(leak_with - (1.0 - kept)), leak_bare), _EXACT_CHECK_TOL),
        )
        return Report(config, leakage, truncation, checks, selective)
