"""Reference helpers that only the tests use.

Basis states, the inner product, single-mode operators, the rank-1
occupation projectors and the total-number projectors of any modes, plus the
plain forms of what the package computes in a fused way or not at all:
conditioning on one projector at a time, the occupation scan and a channel's
left state from the six-mode state, the completeness of an operator family,
the adjoint, a splitter as one dense matrix exponential, and the
density-operator checks that raise. Each is written independently of the
code it checks, on dense matrices or one projector at a time, so a test that
compares the two compares two routes to one answer. The package's left
states are 2 x 2 branch Gram matrices before the left splitter;
:func:`placed_left_state` puts one where the six-mode reduction holds it,
and :func:`analytic_left_state` is the closed form on the whole left pair.
One fault for a positive control drops the r y+ half of the photon's output
(:func:`dropped_term_branches`).
"""
import math
from typing import Optional, Sequence

import numpy as np
import scipy.linalg

from kalamidas import optics
from kalamidas.channels import PROBABILITY_FLOOR
from kalamidas.experiment import _branches, _prepared_branches, _splitters
from kalamidas.hilbert import (
    LEFT_LABELS,
    RIGHT_LABELS,
    HilbertSpec,
    LinearOperator,
    PureState,
    Blocks,
    apply,
    product_state,
    raising_matrix,
)
from kalamidas.nosignal import invariant_residuals


def vacuum(spec: HilbertSpec) -> PureState:
    """The all-modes-empty state |0...0>."""
    amps = np.zeros(spec.dim, dtype=np.complex128)
    amps[0] = 1.0
    return PureState(spec, amps, leakage=0.0)


def inner(x: PureState, y: PureState) -> complex:
    """<x|y>, conjugate-linear in the first argument, over the full vectors."""
    if x.spec != y.spec:
        raise ValueError("the two states need matching specs")
    return complex(np.vdot(x.amplitudes, y.amplitudes))


def basis_state(spec: HilbertSpec, occupation: Sequence[int]) -> PureState:
    """The Fock basis state with the given occupation tuple."""
    amps = np.zeros(spec.dim, dtype=np.complex128)
    amps[spec.index_of(occupation)] = 1.0
    return PureState(spec, amps, leakage=0.0)


def ladder(spec: HilbertSpec, m: str, kind: str) -> LinearOperator:
    """Creation ("raise") or annihilation ("lower") operator for one mode.

    Returned on the single-mode subspace; ``apply`` acts with it on a state
    of the containing space, ``embed`` gives the full matrix. Raising from
    the cutoff maps to the zero vector.
    """
    sub = spec.subspace((m,))
    up = raising_matrix(sub.dim)
    if kind == "raise":
        return LinearOperator(sub, up)
    if kind == "lower":
        return LinearOperator(sub, up.conj().T)
    raise ValueError(f"kind must be 'raise' or 'lower', got {kind!r}")


def diagonal_blocks(diagonal: np.ndarray) -> Blocks:
    """A diagonal matrix as blocks: each nonzero entry a 1 x 1 block."""
    diagonal = np.asarray(diagonal, dtype=np.complex128)
    return tuple(
        (slice(i, i + 1), diagonal[i : i + 1].reshape(1, 1))
        for i in np.flatnonzero(diagonal)
    )


def number_op(spec: HilbertSpec, m: str) -> LinearOperator:
    """Occupation-number operator for one mode, on its single-mode subspace."""
    sub = spec.subspace((m,))
    return LinearOperator(sub, blocks=diagonal_blocks(np.arange(sub.dim)))


def identity(spec: HilbertSpec) -> LinearOperator:
    return LinearOperator(spec, np.eye(spec.dim, dtype=np.complex128), unitary=True)


def adjoint(op: LinearOperator) -> LinearOperator:
    """The conjugate transpose, block by block, with the same unitary flag."""
    return LinearOperator(
        op.spec, blocks=tuple((sl, block.conj().T) for sl, block in op.blocks),
        unitary=op.unitary,
    )


def validate(matrix: np.ndarray, leakage: float, atol: float) -> np.ndarray:
    """Raise unless the density-matrix invariants of a left state that books
    ``leakage`` hold within atol."""
    for name, value in invariant_residuals(matrix, leakage).items():
        if value > atol:
            raise ValueError(
                f"density matrix violates {name} by {value:.3e} (> {atol:.1e})"
            )
    return matrix


def analytic_left_state(spec: HilbertSpec) -> np.ndarray:
    """Closed-form left state of the evolved apparatus, (|u><u| + |v><v|)/2.

    Independent of the six-mode simulation: built on the bare two-mode space
    from u = (|10> + |01>)/sqrt2 and v = (-|10> + |01>)/sqrt2, the two equally
    likely left states the balanced splitter produces. Every legitimate
    right-side history leaves the left pair in this state.
    """
    if spec.modes != LEFT_LABELS:
        raise ValueError("the analytic left state lives on the left pair (a1, b1)")
    ones = [spec.index_of((1, 0)), spec.index_of((0, 1))]
    u = np.zeros(spec.dim, dtype=np.complex128)
    v = np.zeros(spec.dim, dtype=np.complex128)
    u[ones] = (1.0, 1.0)  # sqrt2 u and sqrt2 v, so the mixture's 1/2 becomes 1/4
    v[ones] = (-1.0, 1.0)
    return 0.25 * (np.outer(u, u.conj()) + np.outer(v, v.conj()))


def placed_left_state(config, gram: np.ndarray) -> np.ndarray:
    """A 2 x 2 Gram matrix over ``experiment._branches`` (basis |01>, |10>)
    as the left pair's state after the left splitter, where the reduction of
    the evolved six-mode state holds it: U G U+ on the one-photon rows, with
    U the splitter's one-photon block, zero elsewhere."""
    u = optics.beamsplitter_unitary(config.hilbert_spec(), _splitters(config)[0])
    rows, block = u.blocks[1]  # by total, in sector_slices order
    out = np.zeros((u.spec.dim, u.spec.dim), dtype=np.complex128)
    out[rows, rows] = block @ gram @ block.conj().T
    return out


def coherent_state(spec: HilbertSpec, m: str, alpha: complex) -> PureState:
    """|alpha> on one mode, vacuum elsewhere, from the truncated series.

    It does not warn below the adequacy rule: the package's one adequacy
    warning is a run's, per configuration. The missing Poisson tail appears
    as leakage, so norm2 + leakage = 1 up to rounding.
    """
    a = complex(alpha)
    return product_state(spec, [(1.0, {m: optics.coherent_series(a, spec.cutoff_of(m) + 1)})])


def tuple_projectors(spec: HilbertSpec, modes: Sequence[str]) -> tuple[LinearOperator, ...]:
    """One rank-1 diagonal projector per occupation tuple of the given modes,
    in basis order."""
    sub = spec.subspace(modes)
    return tuple(
        LinearOperator(sub, blocks=diagonal_blocks(np.arange(sub.dim) == k))
        for k in range(sub.dim)
    )


def total_number_projectors(spec: HilbertSpec, modes: Sequence[str]) -> tuple[LinearOperator, ...]:
    """One diagonal projector per total photon number of the given modes, any
    number of them, n = 0, 1, ..., read off their occupation tuples."""
    sub = spec.subspace(modes)
    totals = np.array([sum(sub.occupation_of(k)) for k in range(sub.dim)])
    return tuple(
        LinearOperator(sub, blocks=diagonal_blocks(totals == n)) for n in range(totals.max() + 1)
    )


def completeness_defect(operators: Sequence[LinearOperator]) -> float:
    """max |sum_k A_k+ A_k - I| over the entries: zero for a projector family
    or a complete Kraus family, up to rounding."""
    dim = operators[0].spec.dim
    acc = np.zeros((dim, dim), dtype=np.complex128)
    for a in operators:
        acc += a.matrix.conj().T @ a.matrix
    return float(np.abs(acc - np.eye(dim)).max())


def selective_outcome(
    state: PureState, projector: LinearOperator
) -> tuple[Optional[PureState], float]:
    """Condition a pure state on one projective outcome.

    Returns (normalized conditional state, probability). When the probability
    falls below PROBABILITY_FLOOR the outcome is null: (None, probability).
    """
    projected = apply(projector, state)
    p = projected.norm2
    if p < PROBABILITY_FLOOR:
        return None, p
    return PureState(state.spec, projected.amplitudes / math.sqrt(p)), p


def nonselective_left(state: PureState, operators: Sequence[LinearOperator]) -> np.ndarray:
    """Left reduction of sum_k A_k |psi><psi| A_k+, the outcomes discarded:
    the six-mode reference for ``channels.channel_gram``.

    Each branch A_k |psi> is built by ``apply`` and contributes the Gram
    matrix of its rows, one per left basis state. The operators must act on
    right modes only; that they form a channel is the caller's to ensure.
    Such a channel preserves the trace, so the output's trace is the input
    state's norm squared.
    """
    if not operators:
        raise ValueError("nonselective_left needs at least one operator")
    left = state.spec.subspace(LEFT_LABELS)
    out = np.zeros((left.dim, left.dim), dtype=np.complex128)
    for a in operators:
        bad = [m for m in a.spec.modes if m not in RIGHT_LABELS]
        if bad:
            raise ValueError(f"operation must act on right modes only, got {bad}")
        branch = apply(a, state).amplitudes.reshape(left.dim, -1)
        out += branch @ branch.conj().T
    return out


def conditional_left_by_occupation(
    state: PureState, modes: Sequence[str]
) -> tuple[list[tuple[tuple[int, ...], float, np.ndarray]], np.ndarray]:
    """Condition on every occupation outcome of the given right modes at once:
    the six-mode reference for ``channels.conditional_left_by_occupation``.

    Returns (outcomes, mixture). ``outcomes`` lists (occupation, probability,
    conditional left state) in scan order for every outcome at or above
    PROBABILITY_FLOOR. ``mixture`` sums every outcome's unnormalized left
    matrix, sub-floor ones included, so it reproduces the unconditional
    reduced state. Equivalent to projecting
    on each occupation tuple, normalizing and reducing to the left pair, but
    computed in a single contraction.
    """
    spec = state.spec
    bad = [m for m in modes if m not in RIGHT_LABELS]
    if bad:
        raise ValueError(f"operation must act on right modes only, got {bad}")
    sub = spec.subspace(modes)
    left = spec.subspace(LEFT_LABELS)  # the modes of slots 0 and 1
    # the left basis as axis 0, then the right modes at their slots less one
    scan_pos = tuple(spec.axis_of(m) - 1 for m in sub.modes)
    rest_pos = tuple(i for i in range(1, len(spec.modes) - 1) if i not in scan_pos)
    tensor = state.amplitudes.reshape((left.dim,) + spec.dims[2:])
    a = tensor.transpose((0,) + scan_pos + rest_pos).reshape(left.dim, sub.dim, -1)
    grams = np.einsum("iko,jko->kij", a, a.conj())
    outcomes = [
        (sub.occupation_of(k), float(p), grams[k] / p)
        for k, p in enumerate(np.einsum("kii->k", grams).real)
        if p >= PROBABILITY_FLOOR
    ]
    return outcomes, grams.sum(axis=0)


def branches_at(config, alpha: complex, phi: float) -> list:
    """``experiment._branches`` of the preparation at (alpha, phi)."""
    return _branches(config, _prepared_branches(config, alpha, phi))


def dropped_term_branches(config, prepared: list) -> list:
    """A fault for ``experiment._branches``: the r y+ half of the photon's
    output dropped. Each arm's q1 is t x+ q0 instead of (t x+ + r y+) q0,
    with q0 the splitter's output of |0>|alpha> on the arm pair (x, y).

    The overlap <q0|q1> is then -t r conj(alpha) on each arm, where the
    honest branches give 0, so the normalized left state gains the
    off-diagonal entry e^{i phi} z / 2, z = r^2 |alpha|^2 / (1 + r^2 |alpha|^2),
    and sits a trace distance z / 2 from the bare preparation's.
    """
    (c0, q0a, _), (c1, _, q0b) = _branches(config, prepared)

    def t_raised(q: PureState, m: str) -> PureState:
        sub = q.spec.subspace((m,))
        return apply(LinearOperator(sub, config.t * raising_matrix(sub.dim)), q)

    return [(c0, q0a, t_raised(q0b, "b2")), (c1, t_raised(q0a, "a2"), q0b)]


def haar_isometry_reference(dim: int, k: int, seed) -> np.ndarray:
    """The (k dim) x dim Haar isometry as the package first built it: the
    whole real part drawn, then the whole imaginary part, into a
    Fortran-ordered buffer, ``scipy.linalg.qr(..., mode="economic")`` in that
    buffer, each column of Q times the phase of R's diagonal entry."""
    rng = np.random.default_rng(seed)
    z = np.empty((k * dim, dim), dtype=np.complex128, order="F")
    z.real = rng.standard_normal(z.shape)
    z.imag = rng.standard_normal(z.shape)
    q, r = scipy.linalg.qr(z, mode="economic", overwrite_a=True)
    phases = np.diagonal(r)
    q *= phases / np.abs(phases)
    return q


def splitter_reference(dims: tuple[int, int], theta: float) -> np.ndarray:
    """exp(theta (y+ x - x+ y)) on a pair of the given dimensions as one
    dense matrix: SciPy's expm of the generator written out from the ladder
    matrices with np.kron, as the package first built it."""
    lower_x = raising_matrix(dims[0]).T
    lower_y = raising_matrix(dims[1]).T
    return scipy.linalg.expm(
        theta * (np.kron(lower_x, lower_y.T) - np.kron(lower_x.T, lower_y))
    )
