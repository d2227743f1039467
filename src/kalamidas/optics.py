"""Optical elements: beam splitters, displacement operators, coherent states.

Beam-splitter convention. For a splitter on the ordered pair (x, y) with real
transmittivity t and reflectivity r (t^2 + r^2 = 1), the returned unitary U
acts in the Heisenberg picture as

    U x+ U+ = t x+ + r y+
    U y+ U+ = -r x+ + t y+

where x+ denotes the creation operator. U = exp(theta (y+ x - x+ y)), with
theta = atan2(r, t), conserves the pair's photon number and is built as one
block per total occupation (:func:`_splitter_matrix`), unitary to rounding.
Truncation shows up as a distorted action on pair sectors whose total
occupation exceeds the smaller cutoff, not as norm loss.

Displacement operators are SciPy's expm of the exact anti-hermitian
generator alpha a+ - conj(alpha) a, hence unitary; no state of a run is
built with them, and they serve the tests as the reference the coherent
series is checked against. A run injects coherent states as product states
of the truncated series exp(-|alpha|^2/2) alpha^n / sqrt(n!), so their
missing Poisson tail is visible as leakage. The cutoff-adequacy rule below
keeps that tail below 1e-12 for |alpha| <= 2; nothing here warns when a
cutoff falls short of it, since a run warns once per configuration
(:mod:`kalamidas.experiment`).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .hilbert import (
    Blocks,
    HilbertSpec,
    LinearOperator,
    check_mode_order,
    raising_matrix,
    sector_slices,
)


class CutoffAdequacyWarning(UserWarning):
    """A coherent amplitude was requested on a mode with too small a cutoff."""


@dataclass(frozen=True)
class BeamSplitter:
    """A two-mode splitter on a pair of mode labels, in MODE_LABELS order,
    with parameters (t, r).

    t must lie in [0, 1]; r may be negative (the verdict of the experiment is
    independent of the sign choice, which is exercised in the tests).
    """

    mode_pair: tuple[str, str]
    t: float
    r: float

    def __post_init__(self) -> None:
        pair = tuple(self.mode_pair)
        object.__setattr__(self, "mode_pair", pair)
        if len(pair) != 2:
            raise ValueError(f"mode_pair must hold two modes, got {pair}")
        check_mode_order(pair)
        t, r = float(self.t), float(self.r)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "r", r)
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"t must lie in [0, 1], got {t}")
        if abs(t * t + r * r - 1.0) > 1e-12:
            raise ValueError(f"t^2 + r^2 must be 1, got {t * t + r * r}")


def adequate_cutoff(alpha: complex) -> int:
    """Smallest per-mode cutoff the adequacy rule accepts for amplitude alpha.

    ceil(|alpha|^2 + 5 |alpha| + 10): sized so the Poisson tail above the
    cutoff stays below 1e-12 for |alpha| <= 2.
    """
    a = abs(complex(alpha))
    needed = a * a + 5.0 * a + 10.0
    if not math.isfinite(needed):
        raise ValueError(f"|alpha| = {a:.4g} is too large for any cutoff")
    return math.ceil(needed)


def beamsplitter_unitary(spec: HilbertSpec, bs: BeamSplitter) -> LinearOperator:
    """The splitter unitary on its two-mode subspace (see module docstring).

    With t = 1, r = 0 this is the identity. The generator commutes with the
    pair's total photon number, so every complete total-occupation sector is
    rotated exactly, and the unitary is block-diagonal by that number: the
    operator is one block per total, in :func:`sector_slices` order, which
    :func:`apply` multiplies one at a time.

    The blocks depend only on the pair's dimensions and on theta, not on
    which modes the pair holds, so they are built once per (dimensions,
    theta) and kept in a small cache: both arm splitters of a configuration,
    every phase and every call of one run share one build. The cache entry
    also keeps the validated operator over its blocks for each pair space
    that asked for it, so a request hands out the same operator for as long
    as the entry lives.
    """
    sub = spec.subspace(bs.mode_pair)
    blocks, operators = _splitter_matrix(sub.dims, math.atan2(bs.r, bs.t))
    op = operators.get(sub)
    if op is None:
        op = operators[sub] = LinearOperator(sub, blocks=blocks, unitary=True)
    return op


# A sweep uses per (alpha, t) one arm splitter, which both arms and both
# preparations share, so 16 entries keep every splitter of a grid of up to
# 16 (alpha, t) points across passes. The blocks of one arm take 0.11 MB at
# the default cutoffs for alpha = 1 and 7.0 MB at alpha = 6.29, the largest
# the memory gate admits on 7.84 GiB.
@functools.lru_cache(maxsize=16)
def _splitter_matrix(
    dims: tuple[int, int], theta: float
) -> tuple[Blocks, dict[HilbertSpec, LinearOperator]]:
    """exp(theta (y+ x - x+ y)) on a pair of the given dimensions, as its
    read-only blocks per total occupation, with the operators over them per
    pair space, which :func:`beamsplitter_unitary` adds. On sector n the
    generator is theta A over the n_x the pair admits, A real tridiagonal
    with A[n_x - 1, n_x] = -A[n_x, n_x - 1] = sqrt(n_x (n - n_x + 1)); with
    D = diag(i^k), A = D (i S) D+ for a real symmetric S = V diag(lam) V^T,
    so the block is the real part of D V exp(i theta lam) V^T D+."""
    blocks = []
    for n, sl in enumerate(sector_slices(dims)):
        n_x = np.arange(max(0, n - dims[1] + 1), min(n, dims[0] - 1) + 1)
        coupling = np.sqrt(n_x[1:] * (n - n_x[1:] + 1.0))
        lam, v = np.linalg.eigh(np.diag(coupling, 1) + np.diag(coupling, -1))
        phase = np.array([1, 1j, -1, -1j])[np.arange(len(n_x)) % 4]
        rotation = (v * np.exp(1j * theta * lam)) @ v.T
        block = (phase[:, None] * rotation * phase.conj()).real.astype(np.complex128)
        block.setflags(write=False)
        blocks.append((sl, block))
    return tuple(blocks), {}


def heisenberg_action(u: LinearOperator, op: LinearOperator) -> LinearOperator:
    """U op U+ for a unitary-flagged U on the same spec."""
    if not u.unitary:
        raise ValueError("heisenberg_action needs a unitary-flagged operator")
    if u.spec != op.spec:
        raise ValueError("operator specs do not match")
    m = u.matrix
    return LinearOperator(u.spec, m @ op.matrix @ m.conj().T)


def displacement_unitary(spec: HilbertSpec, m: str, alpha: complex) -> LinearOperator:
    """D(alpha) = exp(alpha a+ - conj(alpha) a) on the mode's subspace.

    Exactly unitary on the truncated space. Below the adequacy rule its
    action near the boundary deviates from the ideal displacement; it does
    not warn.
    """
    from scipy.linalg import expm  # not at import: no run builds a displacement
    a = complex(alpha)
    sub = spec.subspace((m,))
    up = raising_matrix(sub.dim)
    gen = a * up - np.conj(a) * up.conj().T
    return LinearOperator(sub, expm(gen), unitary=True)


def coherent_series(alpha: complex, dim: int) -> np.ndarray:
    """Truncated coherent amplitudes exp(-|a|^2/2) a^n / sqrt(n!), n < dim."""
    out = np.zeros(dim, dtype=np.complex128)
    out[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, dim):
        out[n] = out[n - 1] * alpha / math.sqrt(n)
    return out

