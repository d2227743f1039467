"""Right-side quantum operations and selective conditioning.

Three families of legitimate operations act on the right modes: unitaries,
non-selective projective measurements (rho -> sum_k P_k rho P_k), and
non-selective generalized measurements given by a Kraus family
(rho -> sum_k A_k rho A_k+). None of them can change the left reduced state;
the experiment driver measures exactly that. A channel is its operators: a
tuple of LinearOperator on one right-mode subspace, complete when
sum_k A_k+ A_k = I. All three run through :func:`nonselective_left`, which
sums the left Gram matrix of each branch A_k |psi> chunk by chunk as the
operator acts (:func:`hilbert.applied_gram`), so neither a branch nor a
density operator on the full space is ever built.

Selective conditioning on a recorded outcome is the one operation that does
move the left reduced state, which is why it cannot be used for signaling
without classically communicating the outcome. The occupation scan,
:func:`conditional_left_by_occupation`, conditions on every occupation
outcome at once and makes the effect measurable outcome by outcome.

Seeded generators provide reproducible Haar-random unitaries and complete
Kraus families, both read-only views of one Haar isometry per seed, drawn
and factored by LAPACK's QR in its own buffer. All randomness flows through
numpy's default_rng (PCG64); the same seed yields the same operator.
:func:`haar_channels_left` runs a battery of such channels on one state
with a worker thread that draws the next isometry while the calling thread
applies the current one; its results are those of the serial loop.
"""
from __future__ import annotations

from typing import Sequence, Union

import numpy as np
from scipy.linalg.lapack import zgeqrf, zungqr

from .hilbert import (
    LEFT_LABELS,
    RIGHT_LABELS,
    DensityOperator,
    HilbertSpec,
    LinearOperator,
    PureState,
    applied_gram,
    diagonal_blocks,
    total_occupations,
)

PROBABILITY_FLOOR = 1e-12


def _require_right_modes(spec: HilbertSpec) -> None:
    bad = [m for m in spec.modes if m not in RIGHT_LABELS]
    if bad:
        raise ValueError(f"operation must act on right modes only, got {bad}")


def nonselective_left(
    state: PureState, operators: Sequence[LinearOperator]
) -> DensityOperator:
    """Left reduction of sum_k A_k |psi><psi| A_k+, the outcomes discarded.

    Each branch A_k |psi> contributes the Gram matrix of its stored rows,
    summed chunk by chunk as the operator acts (:func:`hilbert.applied_gram`),
    so no branch is built; only the rows inside an operator's blocks are
    read. The operators must act on right modes only; that they form a
    channel (one unitary, a projector family or a complete Kraus family) is
    the caller's to ensure. Such a channel preserves the trace, so the output
    carries the input state's leakage.
    """
    if not operators:
        raise ValueError("nonselective_left needs at least one operator")
    n_rows = len(state.stored)
    gram = np.zeros((n_rows, n_rows), dtype=np.complex128)
    for a in operators:
        _require_right_modes(a.spec)
        gram += applied_gram(a, state)
    left = state.spec.subspace(LEFT_LABELS)
    out = np.zeros((left.dim, left.dim), dtype=np.complex128)
    out[state.rows, state.rows] = gram
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


# Rows of the Gaussian drawn per call: a 64 x 484 real chunk is 0.24 MiB,
# where drawing the whole real part at once would take half the buffer again.
_DRAW_ROWS = 64


def _right_subspace(spec: HilbertSpec, modes: Sequence[str]) -> HilbertSpec:
    sub = spec.subspace(modes)
    _require_right_modes(sub)
    return sub


def _isometry_buffer(sub: HilbertSpec, k: int) -> np.ndarray:
    """An uninitialized (k d) x d buffer for :func:`_haar_isometry`, in
    Fortran order, so LAPACK factors it where it lies."""
    return np.empty((k * sub.dim, sub.dim), dtype=np.complex128, order="F")


def _in_place(routine, z: np.ndarray, *args: np.ndarray) -> list[np.ndarray]:
    """Run a LAPACK routine on ``z`` in place, its workspace queried first,
    and return its outputs other than the workspace and the status."""
    # the workspace query takes overwrite_a too, or it copies z
    lwork = int(routine(z, *args, lwork=-1, overwrite_a=1)[-2][0].real)
    *outputs, _, info = routine(z, *args, lwork=lwork, overwrite_a=1)
    if info != 0 or not np.may_share_memory(outputs[0], z):
        raise RuntimeError(f"LAPACK {routine.__name__} did not factor in place (info {info})")
    return outputs


def _haar_isometry(z: np.ndarray, seed: Union[int, Sequence[int]]) -> np.ndarray:
    """Fill ``z``, a Fortran-ordered (k d) x d complex buffer (see
    :func:`_isometry_buffer`), with a seeded Haar-random isometry, and return
    it read-only.

    A complex Gaussian is drawn into it, real part then imaginary part, a
    chunk of rows at a time, and factored in place by LAPACK's QR (geqrf,
    then ungqr for the economic Q); nothing else of its size is allocated.
    Multiplying each column of Q by the phase of R's diagonal entry makes Q
    Haar distributed (Mezzadri, Notices AMS 54, 592 (2007)). The bits are
    those of ``scipy.linalg.qr(z, mode="economic", overwrite_a=True)`` on the
    same draw.
    """
    rng = np.random.default_rng(seed)
    n = len(z)
    for part in (z.real, z.imag):
        for start in range(0, n, _DRAW_ROWS):
            stop = min(start + _DRAW_ROWS, n)
            part[start:stop] = rng.standard_normal((stop - start, z.shape[1]))
    _, tau = _in_place(zgeqrf, z)
    phases = np.diagonal(z).copy()  # R's diagonal, before ungqr overwrites it
    _in_place(zungqr, z, tau)
    z *= phases / np.abs(phases)
    z.setflags(write=False)
    return z


def random_right_unitary(
    spec: HilbertSpec,
    modes: Sequence[str],
    seed: Union[int, Sequence[int]],
) -> LinearOperator:
    """Seeded Haar-random unitary on a right-mode subspace: the k = 1 case
    of :func:`random_kraus`."""
    sub = _right_subspace(spec, modes)
    return LinearOperator(sub, _haar_isometry(_isometry_buffer(sub, 1), seed), unitary=True)


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
    sub = _right_subspace(spec, modes)
    return _row_blocks(sub, _haar_isometry(_isometry_buffer(sub, k), seed))


def _row_blocks(sub: HilbertSpec, q: np.ndarray) -> tuple[LinearOperator, ...]:
    """The d x d row blocks of a (k d) x d isometry on ``sub``, as operators."""
    d = sub.dim
    return tuple(LinearOperator(sub, q[i : i + d]) for i in range(0, len(q), d))


def haar_channels_left(
    state: PureState, draws: Sequence[tuple[Sequence[str], Union[int, Sequence[int]], int]]
) -> list[DensityOperator]:
    """:func:`nonselective_left` of ``state`` through each seeded Haar
    channel of ``draws``, in order: for (modes, seed, k), the family
    ``random_kraus(state.spec, modes, seed, k)``; for k = 1 its one operator
    is the unitary ``random_right_unitary`` draws from that seed. The results
    are those of drawing and applying one channel after another.

    The isometries depend on their seeds alone, so one worker thread draws
    the next while this thread applies the current one. This thread
    allocates two buffers, each sized for the largest draw, and the draws
    alternate between them: the worker only fills and factors a buffer
    (:func:`_haar_isometry`), and a channel's operators are views of it that
    are dropped before the buffer is drawn into again. The worker is started
    and joined here, and a draw that raises re-raises here.
    """
    from concurrent.futures import ThreadPoolExecutor  # imported by verdicts only

    subs = [_right_subspace(state.spec, modes) for modes, _, _ in draws]
    sizes = [k * sub.dim**2 for sub, (_, _, k) in zip(subs, draws)]
    buffers = [np.empty(max(sizes, default=0), dtype=np.complex128) for _ in draws[:2]]

    def start(i: int):
        sub, (_, seed, k) = subs[i], draws[i]
        z = buffers[i % 2][: sizes[i]].reshape((k * sub.dim, sub.dim), order="F")
        return worker.submit(_haar_isometry, z, seed)

    out = []
    with ThreadPoolExecutor(max_workers=1) as worker:
        ahead = start(0) if draws else None
        for i, sub in enumerate(subs):
            channel = _row_blocks(sub, ahead.result())
            if i + 1 < len(draws):
                ahead = start(i + 1)  # into the other buffer
            out.append(nonselective_left(state, channel))
    return out


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
