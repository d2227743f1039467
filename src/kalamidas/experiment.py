"""Experiment driver: build, evolve, verify, and report.

The apparatus prepares a single photon in the superposition
(1/sqrt2)(a1+ a2+ + e^{i phi} b1+ b2+)|0>, optionally with coherent states of
amplitude alpha injected on modes a3 and b3, and sends it through three beam
splitters: one on each right arm pair, (a2, a3) and (b2, b3), with parameters
(t, r), then a balanced one on the left pair (a1, b1).

:func:`run_experiment` runs the full verification battery for one
configuration and returns a :class:`Report` whose verdict certifies that the
left reduced state is independent of the injection and of every legitimate
right-side operation, within explicit tolerances. Every left state it
compares is the 2 x 2 Gram matrix of the arm-pair branches before the left
splitter, which no unitarily invariant left check reads; the six-mode
states it evolves feed only the structure check and the leakage.
Every state it builds is a sum of product states of single-mode vectors
(hilbert.product_state), so the direct construction it compares the evolved
state with is the box projection of the ideal output, and that residual
measures the simulator's own truncation error. Its tolerance grows as
2 sqrt(leakage); the no-signaling and oracle checks hold normalized left
states to the base tolerance alone; invariance checks under right-side
channels are exact, with fixed tolerances. It runs at one BLAS thread, so
its report does not depend on the thread count the environment sets.

Default per-mode cutoffs take the adequacy rule plus a margin of
DEFAULT_CUTOFF_MARGIN. The margin is calibrated so the evolved state agrees
with the independent direct construction to a few parts in 1e10 at |alpha|
around 1; at the bare adequacy cutoff that residual sits near 1e-7.
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
    distance,
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
    r is derived as +sqrt(1 - t^2). ``trials`` must be >= 1 and is echoed in
    the report, but no stage reads it: the no-signaling rows are exact.
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
        return bool(_inadequate_modes(self))

    def hilbert_spec(self) -> HilbertSpec:
        return _full_spec(self.cutoffs)


@functools.lru_cache(maxsize=16)
def _full_spec(cutoffs: tuple[int, ...]) -> HilbertSpec:
    """The six-mode space at these cutoffs: one spec object per cutoffs, so
    its sizes and subspaces are computed once for every config that shares
    them. The spec holds labels and cutoffs, never an amplitude."""
    return HilbertSpec(MODE_LABELS, cutoffs)


# Resident memory of the interpreter with kalamidas imported: 55.5-55.6 MiB
# with its bytecode cached, 57.2 MiB when it is compiled at import.
_BASELINE_BYTES = 56 * 2**20
# Peak resident memory of a run above 55.5 MiB and the pair-operator charge
# below, per byte of one stored state (the left pair's two one-photon rows),
# with one BLAS thread and the bytecode cached (peak, stored state, ratio):
# 73.8 MiB, 2.00 MiB, 4.6 at alpha = 0; 101.1 MiB, 7.15 MiB, 1.9 at alpha = 1;
# 175.6 MiB, 24.7 MiB, 0.35 at alpha = 2: the evolved states, the splitters'
# chunks and the heap that transients leave; the channel battery reads no
# state. Earlier builds read up to 5.2, and the largest is kept.
_PEAK_PER_STATE_BYTE = 5.3
# Peak traced memory of building one dense operator on a mode pair of
# dimension d = d_x d_y, per byte of its d^2 complex entries, at alpha = 1
# and 2: 9.0 for a splitter (expm), 3.1 for a Kraus family (its 3d x d
# buffer and one chunk of rows of its Gaussian), 1.1 for a Haar unitary, and
# for the channel battery (the two lanes' 3d x d buffers and the 64-row
# chunks each lane contracts its buffer in, both lanes at once) up to 7.6,
# 6.8 and 6.4 at alpha = 0, 1 and 2. The largest is charged for every pair a
# run builds on.
_PEAK_PER_PAIR_OPERATOR_BYTE = 9.01


def check_pair_memory(config: ExperimentConfig) -> None:
    """Raise ValueError when the largest dense operator a run builds on a
    mode pair would take more than physical memory at peak: the whole charge
    of the sweep and the scan, which build no six-mode state."""
    _check_peak(config, 0)


def check_memory(config: ExperimentConfig) -> None:
    """:func:`check_pair_memory` with a verdict's six-mode states charged
    too. Every state of a run stores the left pair's two one-photon rows, so
    a state is charged 2 / (left dimension) of the full amplitude count."""
    spec = config.hilbert_spec()
    _check_peak(config, 2 * spec.dim // spec.left_dim)


def _check_peak(config: ExperimentConfig, state: int) -> None:
    spec = config.hilbert_spec()
    pair = max(spec.subspace(p).dim for p in (("a1", "b1"),) + _RIGHT_PAIRS)
    need = _BASELINE_BYTES + 16 * (
        _PEAK_PER_STATE_BYTE * state + _PEAK_PER_PAIR_OPERATOR_BYTE * pair**2
    )
    have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if need > have:
        cutoffs = ", ".join(f"{k}={v}" for k, v in config.cutoffs_map.items())
        states = f"{state:.3g} stored amplitudes per state and " if state else ""
        raise ValueError(
            f"|alpha| = {abs(config.alpha):.4g} at cutoffs {cutoffs} "
            f"needs {states}dense operators on mode pairs of up to {pair:.3g} levels, "
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


def _photon_pairs(
    spec: HilbertSpec,
    amplitudes: Mapping[str, complex],
    pairs: list[tuple[str, str, complex]],
    scale: float,
) -> PureState:
    """scale * sum_k c_k x_k+ y_k+ acting on coherent states of the given
    amplitudes (vacuum on the other modes), for pairs (x_k, y_k, c_k).

    Every factor is the box projection of its ideal single-mode vector
    (:func:`_mode_factor`).
    """

    def factor(m: str, photon: bool = False) -> np.ndarray:
        return _mode_factor(spec, m, amplitudes.get(m, 0.0), photon)

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
            f"the structure tolerance is scaled by the resulting leakage",
            CutoffAdequacyWarning,
        )


def _poisson_tail(cutoff: int, lam: float) -> float:
    """sum_{n > cutoff} e^{-lam} lam^n / n!, summed upward from cutoff + 1
    without the coherent series, so that a fault in the series cannot cancel."""
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


def evolve_and_reduce(config: ExperimentConfig, injected: bool) -> tuple[PureState, float]:
    """One preparation, injected or bare, evolved, and reduced to what a
    verdict reads: (final state, the prepared state's leakage). Only that
    leakage is kept, so the prepared state is freed once the first splitter
    has acted, and it and the evolved state are never both alive."""
    prepared = [(initial_state_with_coherent if injected else initial_state_bare)(config)]
    leakage = prepared[0].leakage
    final = evolve(prepared.pop(), config)  # evolve holds the only reference
    return final, leakage


def _branches(config: ExperimentConfig, alpha: complex, phi: float) -> list[Branch]:
    """The two one-photon branches before the left splitter, in the order of
    the left basis: (e^{i phi} / sqrt2, q0a, q1b) on |01>, (1 / sqrt2, q1a,
    q0b) on |10>. On each arm pair (x, y), v0 = |0> |alpha> and
    v1 = x+|0> |alpha> go through the arm's splitter, at the arm's own
    cutoffs, to q0 and q1."""
    spec = config.hilbert_spec()
    arms = []
    for bs in _splitters(config)[1:]:
        x, y = bs.mode_pair
        pair = spec.subspace(bs.mode_pair)
        u = beamsplitter_unitary(spec, bs)  # its space is `pair` itself, memoized
        coherent = _mode_factor(pair, y, alpha)
        prepared = [
            product_state(pair, [(1.0, {x: _mode_factor(pair, x, 0.0, photon), y: coherent})])
            for photon in (False, True)
        ]
        arms.append([apply(u, v) for v in prepared])
    (q0a, q1a), (q0b, q1b) = arms
    return [(SQRT_HALF * np.exp(1j * phi), q0a, q1b), (SQRT_HALF, q1a, q0b)]


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
    gram = branch_gram(_branches(config, config.alpha if injected else 0.0, 0.0))
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
        branches = _branches(config, config.alpha, config.phi)
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
    total occupation n stays strictly below the smaller cutoff, output states
    at or below it. There the truncated generator matches the ideal one, so
    the residuals are rounding-level regardless of alpha. Each such n is
    checked on its own: with X and Y the blocks of x+ and y+ from sector n to
    sector n + 1, U's blocks U_n give U_{n+1} X U_n+, compared with
    t X + r Y, and U_{n+1} Y U_n+, compared with -r X + t Y. A pair with a
    cutoff of 0 has no such sector, and its residual is 0.
    """
    spec = config.hilbert_spec()
    left, arm_a, arm_b = _splitters(config)
    out = {}
    for name, bs in (("left_pair", left), ("arm_a", arm_a), ("arm_b", arm_b)):
        u = beamsplitter_unitary(spec, bs)
        blocks = [block for _, block in u.blocks]  # by total, in sector_slices order
        worst = 0.0
        for n in range(min(u.spec.cutoffs)):
            k = np.arange(n + 1)  # n_x in sector n; sector n + 1 holds n_x = 0..n+1
            x = np.zeros((n + 2, n + 1))
            x[k + 1, k] = np.sqrt(k + 1)
            y = np.zeros((n + 2, n + 1))
            y[k, k] = np.sqrt(n - k + 1)
            for op, target in ((x, bs.t * x + bs.r * y), (y, -bs.r * x + bs.t * y)):
                acted = blocks[n + 1] @ op @ blocks[n].conj().T
                worst = max(worst, float(np.abs(acted - target).max()))
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
        return json.dumps(doc, indent=2)


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

    Order: Heisenberg checks on the three splitters; the selective ranking
    and mixture (:func:`selective_ranking`), which raises NoOutcomeError
    before any six-mode state is built when the scan is empty; the injected
    preparation evolved (:func:`evolve_and_reduce`) and the structure
    check, then the bare one evolved; the two left states; trace distance
    and gap (:func:`no_signaling_rows`); the analytic oracle, the trace
    distance from I / 2, the closed-form left state on the one-photon block;
    invariance under right-side unitary, projective, and Kraus channels.
    ``config.seed`` seeds only the channel battery's Haar draws, and
    ``config.trials`` is read by no stage.

    Every left state is a 2 x 2 Gram matrix of branches of arm-pair vectors
    (:func:`_branches`): the injected preparation's, built once for the
    scan, the channels and its left state, and the bare one's, at alpha = 0
    (an alpha = 0 run reuses the injected one). A preparation's left state
    books one minus its trace as leakage, a channel row's the evolved
    injected state's. The six-mode states feed only structure and the
    leakage block, each dropped once read, so none is alive while the
    battery draws on its two lanes (:func:`channels.haar_channels_left`).

    The whole run holds numpy's and SciPy's OpenBLAS at one thread
    (:func:`_one_blas_thread`), their counts restored after it, so every
    channel residual is that of drawing and contracting one channel after
    another. Where a library exports no thread-count setter, the run warns
    (RuntimeWarning) and goes on at that library's own count.

    Two rows read the booked leakage. ``unitarity`` is the larger, over the
    six-mode preparations, of final less initial leakage: the norm the
    unitary-flagged splitters lose; once no six-mode state is evolved, it
    must read the arm vectors' loss. ``preparation`` compares the injected
    preparation's leakage with 1 - (1 - T_a3)(1 - T_b3), T the Poisson tail
    above each cutoff (:func:`_poisson_tail`), and reads the bare one's, 0.
    """
    with _one_blas_thread() as pinned:
        if not pinned:
            _warn(
                "could not set the BLAS thread count to 1; the report's last bits may "
                "depend on the thread count", RuntimeWarning,
            )
        heis = heisenberg_residuals(config)

        # before any six-mode state, so a scan with no outcome stops the run early
        branches = _branches(config, config.alpha, config.phi)
        ranked, mixture = selective_ranking(config, branches)
        occupation, probability, contrast, _ = ranked[0]
        selective = {
            "outcome": dict(zip(_SCAN_PAIR, occupation)),
            "probability": probability,
            "conditional_trace_distance": contrast,
        }

        psi_with, leak_with = evolve_and_reduce(config, injected=True)
        final_with, structure = psi_with.leakage, distance(psi_with, direct_final_state(config))
        del psi_with
        psi_bare, leak_bare = evolve_and_reduce(config, injected=False)
        leakage = {
            "initial_bare": leak_bare,
            "initial_with_coherent": leak_with,
            "final_bare": psi_bare.leakage,
            "final_with_coherent": final_with,
        }
        del psi_bare
        leak_max = max(leakage.values())

        rho_with = branch_gram(branches)
        rho_bare = (
            rho_with if config.alpha == 0 else branch_gram(_branches(config, 0.0, config.phi))
        )
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
        tails = [_poisson_tail(config.cutoffs_map[m], abs(config.alpha) ** 2) for m in ("a3", "b3")]
        kept = (1.0 - tails[0]) * (1.0 - tails[1])  # the norm^2 the injected preparation keeps

        base = config.tolerance
        checks = (
            *((f"heisenberg_{name}", res, _EXACT_CHECK_TOL) for name, res in heis.items()),
            ("structure", structure, base + 2.0 * math.sqrt(leak_max)),
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
