"""Right-side quantum operations and selective conditioning.

Three families of legitimate operations act on the right modes: unitaries,
non-selective projective measurements (rho -> sum_k P_k rho P_k), and
non-selective generalized measurements given by a Kraus family
(rho -> sum_k A_k rho A_k+). None of them can change the left reduced state;
the experiment driver measures exactly that. A channel is its operators: a
tuple of LinearOperator on one right-mode subspace, complete when
sum_k A_k+ A_k = I.

All three run through :func:`channel_gram` on a state given as its
branches, sum_i |e_i> c_i Fa_i Fb_i with one vector per arm pair, (a2, a3)
and (b2, b3): the apparatus before its left splitter. A channel on a right
pair acts on the right factor of each branch alone, so no six-mode state is
built; with no channel, the left Gram matrix is :func:`branch_gram`.

Selective conditioning on a recorded outcome is the one operation that does
move the left reduced state, which is why it cannot be used for signaling
without classically communicating the outcome. The occupation scan,
:func:`conditional_left_by_occupation`, conditions the same branches on
every outcome of one mode of each arm at once.

Seeded generators provide reproducible Haar-random unitaries and complete
Kraus families, both read-only views of one Haar isometry per seed, drawn
and factored by LAPACK's QR in its own buffer. All randomness flows through
numpy's default_rng (PCG64); the same seed yields the same operator.
:func:`haar_channels_left` runs a battery of such channels on one set of
branches on two lanes, the calling thread and one helper, each drawing and
contracting whole channels; called at one BLAS thread, as
:func:`experiment.run_experiment` calls it, its results are those of the
serial loop.
"""
from __future__ import annotations

import threading
from typing import Optional, Sequence, Union

import numpy as np

from .hilbert import (
    MODE_LABELS,
    RIGHT_LABELS,
    HilbertSpec,
    LinearOperator,
    PureState,
    diagonal_blocks,
    total_occupations,
)

# One branch of a state: (coefficient, arm a vector, arm b vector).
Branch = tuple[complex, PureState, PureState]

PROBABILITY_FLOOR = 1e-12


def _right(sub: HilbertSpec) -> HilbertSpec:
    """``sub``, once it is checked to hold right modes only."""
    bad = [m for m in sub.modes if m not in RIGHT_LABELS]
    if bad:
        raise ValueError(f"operation must act on right modes only, got {bad}")
    return sub


# Rows of a channel's operators contracted at a time: 64 rows of a 484-level
# pair are 0.47 MiB, where one operator on it is 3.6 MiB.
_GRAM_ROWS = 64


def _owners(branches: Sequence[Branch], modes: Sequence[str]) -> list:
    """For each mode, 1 or 2 when a branch's arm a or b vector holds it, else None."""
    return [next((k for k in (1, 2) if m in branches[0][k].spec.modes), None) for m in modes]


def _overlaps(branches: Sequence[Branch], k: int) -> np.ndarray:
    """Entry (i, j) is <f_j|f_i> over the arm vectors f at place k."""
    return np.array(
        [[np.vdot(g[k].amplitudes, f[k].amplitudes) for g in branches] for f in branches]
    )


def _coefficients(branches: Sequence[Branch]) -> np.ndarray:
    """Entry (i, j) is c_i conj(c_j) over the branches' coefficients c."""
    coeffs = np.array([c for c, _, _ in branches], dtype=np.complex128)
    return np.outer(coeffs, coeffs.conj())


def branch_gram(branches: Sequence[Branch]) -> np.ndarray:
    """The left Gram matrix of the branches (c_i, Fa_i, Fb_i) of
    :func:`channel_gram`, which no right-side channel changes: entry (i, j)
    is c_i conj(c_j) <Fa_j|Fa_i> <Fb_j|Fb_i>."""
    return _coefficients(branches) * _overlaps(branches, 1) * _overlaps(branches, 2)


def _marginal(f: PureState, g: PureState, mode: str) -> np.ndarray:
    """The one-mode marginal of |f><g| on ``mode``, for two vectors of one
    arm pair: the partial trace over the pair's other mode."""
    axis = f.spec.axis_of(mode)
    x, y = (np.moveaxis(v.amplitudes.reshape(v.spec.dims), axis, 0) for v in (f, g))
    return x.reshape(len(x), -1) @ y.reshape(len(y), -1).conj().T


def _cross_term(k: np.ndarray, x: np.ndarray, y: np.ndarray) -> complex:
    """sum_r Tr(K_r+ x^T K_r y) over a chunk of operator rows K shaped
    (rows, d_x, d_y): their share of Tr(K sigma K+) for sigma = x (x) y."""
    return np.vdot(k, x.T @ (k @ y))


def channel_gram(operators: Sequence[LinearOperator], branches: Sequence[Branch]) -> np.ndarray:
    """The left Gram matrix of sum_K K |psi><psi| K+ for operators K on one
    right pair and |psi> = sum_i |e_i> c_i Fa_i Fb_i given as its branches
    (c_i, Fa_i, Fb_i): entry (i, j) is c_i conj(c_j) sum_K Tr(K sigma_ij K+),
    sigma_ij the pair's marginal of |Fa_i Fb_i><Fa_j Fb_j|.

    On an arm's own pair K acts on that arm's vectors, and the other arm
    gives its overlap. Across the arms sigma_ij = A_ij (x) B_ij, a one-mode
    marginal from each arm, and a chunk K of operator rows, shaped
    (rows, d_x, d_y), adds vdot(K, A_ij^T K B_ij). Dense and 1 x 1 blocks
    alike are scattered into chunks of _GRAM_ROWS rows, so no temporary
    exceeds one chunk. That the operators form a channel is the caller's to
    ensure.
    """
    if not operators:
        raise ValueError("channel_gram needs at least one operator")
    pair = _right(operators[0].spec)
    owners = _owners(branches, pair.modes)
    if len(owners) != 2 or None in owners or any(op.spec != pair for op in operators):
        raise ValueError(f"channel_gram needs operators on one right pair, got {pair.modes}")
    n = len(branches)
    acc = np.zeros((n, n), dtype=np.complex128)
    if owners[0] == owners[1]:  # the arm's own pair
        vectors = np.array([f[owners[0]].amplitudes for f in branches]).T
        overlaps = _overlaps(branches, 3 - owners[0])  # the other arm's

        def contract(rows: np.ndarray) -> None:
            w = rows @ vectors
            acc[...] += w.T @ w.conj()

    else:  # the upper triangle; the rest is its conjugate
        upper = list(zip(*np.triu_indices(n)))
        marginals = [[_marginal(branches[i][k], branches[j][k], m)
                      for k, m in zip(owners, pair.modes)] for i, j in upper]
        overlaps = 1.0

        def contract(rows: np.ndarray) -> None:
            k = rows.reshape((len(rows),) + pair.dims)
            for (i, j), (x, y) in zip(upper, marginals):
                acc[i, j] += _cross_term(k, x, y)

    chunk = np.zeros((_GRAM_ROWS, pair.dim), dtype=np.complex128)
    filled = 0
    for op in operators:
        for sl, block in op.blocks:
            for start in range(0, len(block), _GRAM_ROWS):
                rows = block[start : start + _GRAM_ROWS]
                if filled + len(rows) > _GRAM_ROWS:
                    contract(chunk[:filled])
                    chunk[:filled] = 0.0
                    filled = 0
                chunk[filled : filled + len(rows), sl] = rows
                filled += len(rows)
    contract(chunk[:filled])
    if owners[0] != owners[1]:
        acc += np.triu(acc, 1).conj().T
    return _coefficients(branches) * acc * overlaps


def occupation_projectors(
    spec: HilbertSpec, modes: Sequence[str] = RIGHT_LABELS
) -> tuple[LinearOperator, ...]:
    """Diagonal projectors onto the total photon number of the given right
    modes, one per total, so the family size is linear in the cutoff sum."""
    sub = _right(spec.subspace(modes))
    totals = total_occupations(sub.dims)
    return tuple(
        LinearOperator(sub, blocks=diagonal_blocks(totals == n))
        for n in np.unique(totals)
    )


# Rows of the Gaussian drawn per call: a 64 x 484 real chunk is 0.24 MiB,
# where drawing the whole real part at once would take half the buffer again.
_DRAW_ROWS = 64


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
    from scipy.linalg.lapack import zgeqrf, zungqr  # loaded at the first draw
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
    sub = _right(spec.subspace(modes))
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
    sub = _right(spec.subspace(modes))
    return _row_blocks(sub, _haar_isometry(_isometry_buffer(sub, k), seed))


def _row_blocks(sub: HilbertSpec, q: np.ndarray) -> tuple[LinearOperator, ...]:
    """The d x d row blocks of a (k d) x d isometry on ``sub``, as operators."""
    d = sub.dim
    return tuple(LinearOperator(sub, q[i : i + d]) for i in range(0, len(q), d))


def haar_channels_left(
    spec: HilbertSpec,
    branches: Sequence[Branch],
    draws: Sequence[tuple[Sequence[str], Union[int, Sequence[int]], int]],
) -> list[np.ndarray]:
    """:func:`channel_gram` of ``branches`` through each seeded Haar channel
    of ``draws``, in order: for (modes, seed, k), the family
    ``random_kraus(spec, modes, seed, k)``; for k = 1 its one operator is the
    unitary ``random_right_unitary`` draws from that seed. Called at one
    BLAS thread, as :func:`experiment.run_experiment` calls it, the results
    are those of drawing and contracting one channel after another.

    The isometries depend on their seeds alone, so two lanes, this thread
    and one helper thread, run the draws side by side. Each lane owns one of
    two buffers, both allocated here and sized for the largest draw, and
    takes the next undone draw: it fills and factors its buffer
    (:func:`_haar_isometry`), contracts the channel's operators, views of the
    buffer, and stores the Gram matrix at the draw's place. At one BLAS
    thread a result does not depend on which lane computed it or on what the
    other lane runs; at more, the QR and the contractions may round
    differently. The first error stops both lanes; the helper is joined here
    and the error re-raised.
    """
    if not draws:
        return []
    subs = [_right(spec.subspace(modes)) for modes, _, _ in draws]
    sizes = [k * sub.dim**2 for sub, (_, _, k) in zip(subs, draws)]
    buffers = [np.empty(max(sizes), dtype=np.complex128) for _ in draws[:2]]
    out: list = [None] * len(draws)
    undone = iter(range(len(draws)))
    failed: list[BaseException] = []
    lock = threading.Lock()

    def take() -> Optional[int]:
        with lock:
            return None if failed else next(undone, None)

    def lane(buffer: np.ndarray) -> None:
        try:
            while (i := take()) is not None:
                sub, (_, seed, k) = subs[i], draws[i]
                z = buffer[: sizes[i]].reshape((k * sub.dim, sub.dim), order="F")
                out[i] = channel_gram(_row_blocks(sub, _haar_isometry(z, seed)), branches)
        except BaseException as exc:  # re-raised on the calling thread
            with lock:
                failed.append(exc)

    helpers = [threading.Thread(target=lane, args=(b,)) for b in buffers[1:]]
    for helper in helpers:
        helper.start()
    try:
        lane(buffers[0])
    finally:
        for helper in helpers:
            helper.join()
    if failed:
        raise failed[0]
    return out


def conditional_left_by_occupation(
    branches: Sequence[Branch], modes: Sequence[str]
) -> tuple[list[tuple[tuple[int, ...], float, np.ndarray]], np.ndarray]:
    """Condition the branches (c_i, Fa_i, Fb_i) of :func:`channel_gram` on
    every occupation outcome of one mode of each arm at once.

    Returns (outcomes, mixture). ``outcomes`` lists (occupation, probability,
    conditional Gram matrix of trace 1) in scan order (``modes`` in mode
    order, the last fastest) for every outcome at or above
    PROBABILITY_FLOOR; outcome (n, m) has the Gram entry
    c_i conj(c_j) A_ij[n, n] B_ij[m, m], A and B the one-mode marginals of
    each arm. ``mixture`` sums every outcome's Gram matrix, sub-floor ones
    included: :func:`branch_gram` up to rounding.
    """
    ordered = sorted(modes, key=MODE_LABELS.index)
    owners = _owners(branches, ordered)
    if len(owners) != 2 or None in owners or owners[0] == owners[1]:
        raise ValueError(f"the scan needs one mode of each arm, got {tuple(modes)}")
    diagonals = [np.array([[np.diagonal(_marginal(f[k], g[k], m)) for g in branches]
                           for f in branches]) for k, m in zip(owners, ordered)]
    grams = np.einsum("ijx,ijy->xyij", *diagonals) * _coefficients(branches)
    p = np.einsum("xyii->xy", grams).real
    kept = map(tuple, np.argwhere(p >= PROBABILITY_FLOOR).tolist())  # in scan order
    outcomes = [(k, float(p[k]), grams[k] / p[k]) for k in kept]
    return outcomes, grams.sum(axis=(0, 1))
