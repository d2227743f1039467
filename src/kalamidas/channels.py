"""Right-side quantum operations and selective conditioning.

Three families of legitimate operations act on the right modes: unitaries,
non-selective projective measurements (rho -> sum_k P_k rho P_k), and
non-selective generalized measurements given by a Kraus family
(rho -> sum_k A_k rho A_k+). None of them can change the left reduced state;
the experiment driver measures exactly that. A channel is its operators: a
tuple of LinearOperator on one right-mode subspace, complete when
sum_k A_k+ A_k = I. All three run through :func:`nonselective_left`, which
applies each operator to a pure state and sums the left reductions of the
branches, so no density operator on the full space is ever built.

Selective conditioning on a recorded outcome is the one operation that does
move the left reduced state, which is why it cannot be used for signaling
without classically communicating the outcome. The occupation scan,
:func:`conditional_left_by_occupation`, conditions on every occupation
outcome at once and makes the effect measurable outcome by outcome.

Seeded generators provide reproducible Haar-random unitaries and complete
Kraus families, both read-only views of one Haar isometry per seed. All
randomness flows through numpy's default_rng (PCG64); the same seed yields
the same operator.
"""
from __future__ import annotations

from typing import Sequence, Union

import numpy as np
from scipy.linalg import qr

from .hilbert import (
    LEFT_LABELS,
    RIGHT_LABELS,
    DensityOperator,
    HilbertSpec,
    LinearOperator,
    PureState,
    apply,
    diagonal_blocks,
    total_occupations,
)
from .nosignal import reduce_left

PROBABILITY_FLOOR = 1e-12


def _require_right_modes(spec: HilbertSpec) -> None:
    bad = [m for m in spec.modes if m not in RIGHT_LABELS]
    if bad:
        raise ValueError(f"operation must act on right modes only, got {bad}")


def nonselective_left(
    state: PureState, operators: Sequence[LinearOperator]
) -> DensityOperator:
    """Left reduction of sum_k A_k |psi><psi| A_k+, the outcomes discarded.

    Each branch A_k |psi> is reduced on its own and the left Gram matrices are
    summed, one branch at a time. The operators must act on right modes only;
    that they form a channel (one unitary, a projector family or a complete
    Kraus family) is the caller's to ensure. Such a channel preserves the
    trace, so the output carries the input state's leakage.
    """
    if not operators:
        raise ValueError("nonselective_left needs at least one operator")
    left = state.spec.subspace(LEFT_LABELS)
    out = np.zeros((left.dim, left.dim), dtype=np.complex128)
    for a in operators:
        _require_right_modes(a.spec)
        out += reduce_left(apply(a, state)).matrix
    return DensityOperator(left, out, leakage=state.leakage)


def occupation_projectors(
    spec: HilbertSpec, modes: Sequence[str] = RIGHT_LABELS
) -> tuple[LinearOperator, ...]:
    """Diagonal projectors onto the total photon number of the given right
    modes, one per total, so the family size is linear in the cutoff sum."""
    sub = spec.subspace(modes)
    _require_right_modes(sub)
    totals = total_occupations(sub.dims)
    return tuple(
        LinearOperator(sub, blocks=diagonal_blocks(totals == n), hermitian=True)
        for n in np.unique(totals)
    )


def _haar_isometry(
    spec: HilbertSpec,
    modes: Sequence[str],
    seed: Union[int, Sequence[int]],
    k: int,
) -> tuple[HilbertSpec, np.ndarray]:
    """The right-mode subspace on ``modes`` and a seeded Haar-random
    (k d) x d isometry on it, read-only.

    The complex Gaussian is drawn in place, real part then imaginary part, and
    factored by QR in its own buffer; multiplying each column of Q by the
    phase of R's diagonal entry makes Q Haar distributed (Mezzadri, Notices
    AMS 54, 592 (2007)).
    """
    sub = spec.subspace(modes)
    _require_right_modes(sub)
    rng = np.random.default_rng(seed)
    # Fortran order, so LAPACK factors the draw without copying it
    z = np.empty((k * sub.dim, sub.dim), dtype=np.complex128, order="F")
    z.real = rng.standard_normal(z.shape)
    z.imag = rng.standard_normal(z.shape)
    q, r = qr(z, mode="economic", overwrite_a=True)
    phases = np.diagonal(r)
    q *= phases / np.abs(phases)
    q.setflags(write=False)
    return sub, q


def random_right_unitary(
    spec: HilbertSpec,
    modes: Sequence[str],
    seed: Union[int, Sequence[int]],
) -> LinearOperator:
    """Seeded Haar-random unitary on a right-mode subspace: the k = 1 case
    of :func:`random_kraus`."""
    sub, q = _haar_isometry(spec, modes, seed, 1)
    return LinearOperator(sub, q, unitary=True)


def random_kraus(
    spec: HilbertSpec,
    modes: Sequence[str],
    seed: Union[int, Sequence[int]],
    k: int = 3,
) -> tuple[LinearOperator, ...]:
    """Seeded Kraus family of k operators, complete by construction.

    The operators are the k row blocks of one Haar-random (k d) x d
    isometry, read-only views of its buffer, so sum A+ A = I holds to
    rounding.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sub, q = _haar_isometry(spec, modes, seed, k)
    d = sub.dim
    return tuple(LinearOperator(sub, q[i * d : (i + 1) * d]) for i in range(k))


def conditional_left_by_occupation(
    state: PureState, modes: Sequence[str]
) -> tuple[list[tuple[tuple[int, ...], float, DensityOperator]], DensityOperator]:
    """Condition on every occupation outcome of the given right modes at once.

    Returns (outcomes, mixture). ``outcomes`` lists (occupation, probability,
    conditional left state) in scan order for every outcome at or above
    PROBABILITY_FLOOR. ``mixture`` sums every outcome's unnormalized left
    matrix, sub-floor ones included, so it reproduces the unconditional
    reduced state and carries the state's leakage. Equivalent to projecting
    on each occupation tuple, normalizing and reducing to the left pair, but
    computed in a single contraction.
    """
    spec = state.spec
    sub = spec.subspace(modes)
    _require_right_modes(sub)
    left = spec.subspace(LEFT_LABELS)  # the modes of slots 0 and 1
    # the stored rows as axis 0, then the right modes at their slots less one
    scan_pos = tuple(spec.axis_of(m) - 1 for m in sub.modes)
    rest_pos = tuple(i for i in range(1, len(spec.modes) - 1) if i not in scan_pos)
    n_rows = len(state.stored)
    tensor = state.stored.reshape((n_rows,) + spec.dims[2:])
    a = tensor.transpose((0,) + scan_pos + rest_pos).reshape(n_rows, sub.dim, -1)
    grams = np.zeros((sub.dim, left.dim, left.dim), dtype=np.complex128)
    grams[:, state.rows, state.rows] = np.einsum("iko,jko->kij", a, a.conj())
    outcomes = [
        (sub.occupation_of(k), float(p), DensityOperator(left, grams[k] / p))
        for k, p in enumerate(np.einsum("kii->k", grams).real)
        if p >= PROBABILITY_FLOOR
    ]
    return outcomes, DensityOperator(left, grams.sum(axis=0), leakage=state.leakage)
