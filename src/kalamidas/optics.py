"""Optical elements: beam splitters, displacement operators, coherent states.

Beam-splitter convention. For a splitter on the ordered pair (x, y) with real
transmittivity t and reflectivity r (t^2 + r^2 = 1), the returned unitary U
acts in the Heisenberg picture as

    U x+ U+ = t x+ + r y+
    U y+ U+ = -r x+ + t y+

where x+ denotes the creation operator. U is built by exponentiating the
anti-hermitian generator theta (y+ x - x+ y) with theta = atan2(r, t). The
truncated generator is exactly anti-hermitian, so U is exactly unitary on the
truncated space; truncation shows up as a distorted action on pair sectors
whose total occupation exceeds the smaller cutoff, not as norm loss.

Displacement operators are likewise matrix exponentials of the exact
anti-hermitian generator alpha a+ - conj(alpha) a, hence exactly unitary; no
state of a run is built with them. Coherent STATES are product states of the
truncated series exp(-|alpha|^2/2) alpha^n / sqrt(n!), so their missing Poisson
tail is visible as leakage. The cutoff-adequacy rule below keeps that tail below
1e-12 for |alpha| <= 2.
"""
from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.linalg import expm

from .hilbert import (
    Blocks,
    HilbertSpec,
    LinearOperator,
    ModeId,
    PureState,
    ladder,
    mode,
    product_state,
    raising_matrix,
    total_occupations,
)


class CutoffAdequacyWarning(UserWarning):
    """A coherent amplitude was requested on a mode with too small a cutoff."""


@dataclass(frozen=True)
class BeamSplitter:
    """A two-mode splitter on the slot-ordered pair with parameters (t, r).

    t must lie in [0, 1]; r may be negative (the verdict of the experiment is
    independent of the sign choice, which is exercised in the tests).
    """

    mode_pair: tuple[ModeId, ModeId]
    t: float
    r: float

    def __post_init__(self) -> None:
        pair = tuple(mode(m) for m in self.mode_pair)
        object.__setattr__(self, "mode_pair", pair)
        if len(pair) != 2 or pair[0].slot >= pair[1].slot:
            raise ValueError("mode_pair must be two distinct modes in slot order")
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


def _check_adequacy(spec: HilbertSpec, m: Union[str, ModeId], alpha: complex) -> None:
    a = complex(alpha)
    if a == 0:
        return
    needed = adequate_cutoff(a)
    have = spec.cutoff_of(m)
    if have < needed:
        warnings.warn(
            f"cutoff {have} on mode {mode(m).label} is below the adequacy "
            f"rule ({needed}) for |alpha| = {abs(a):.4g}; accuracy degrades "
            f"and leakage grows",
            CutoffAdequacyWarning,
            stacklevel=3,
        )


def beamsplitter_unitary(spec: HilbertSpec, bs: BeamSplitter) -> LinearOperator:
    """The splitter unitary on its two-mode subspace (see module docstring).

    With t = 1, r = 0 this is the identity. The generator commutes with the
    pair's total photon number, so every complete total-occupation sector is
    rotated exactly, and the unitary is block-diagonal by that number: the
    operator is one block per total, which :func:`apply` multiplies one at a
    time.

    The blocks depend only on the pair's dimensions and on theta, not on
    which modes the pair holds, so they are built once per (dimensions,
    theta) and kept in a small cache: both arm splitters of a configuration,
    every phase and every call of one run share one build.
    """
    x, y = bs.mode_pair
    sub = spec.subspace((x, y))
    return LinearOperator(
        sub, blocks=_splitter_matrix(sub.dims, math.atan2(bs.r, bs.t)), unitary=True
    )


# Holds the blocks of one configuration (left pair and arm pairs); a sweep
# that moves to the next t or alpha evicts the arm blocks it left.
@functools.lru_cache(maxsize=2)
def _splitter_matrix(dims: tuple[int, int], theta: float) -> Blocks:
    """expm of theta (y+ x - x+ y) on a pair of the given dimensions, as its
    read-only blocks per total occupation. Raises ValueError when the matrix
    has a nonzero entry outside those blocks, which the blocks would drop."""
    lower_x = raising_matrix(dims[0]).conj().T
    lower_y = raising_matrix(dims[1]).conj().T
    gen = theta * (
        np.kron(lower_x, lower_y.conj().T) - np.kron(lower_x.conj().T, lower_y)
    )
    out = expm(gen)
    totals = total_occupations(dims)
    blocks = []
    for n in range(int(totals.max()) + 1):
        # n + (d_y - 1) n_x over the n_x the pair admits: a strided run
        idx = np.flatnonzero(totals == n)
        step = int(idx[1] - idx[0]) if len(idx) > 1 else 1
        sl = slice(int(idx[0]), int(idx[-1]) + 1, step)
        block = out[sl, sl].copy()
        block.setflags(write=False)
        blocks.append((sl, block))
        out[sl, sl] = 0  # what the blocks leave must be zero
    if out.any():
        raise ValueError("the splitter matrix has nonzero entries outside its sectors")
    return tuple(blocks)


def heisenberg_action(u: LinearOperator, op: LinearOperator) -> LinearOperator:
    """U op U+ for a unitary-flagged U on the same spec."""
    if not u.unitary:
        raise ValueError("heisenberg_action needs a unitary-flagged operator")
    if u.spec != op.spec:
        raise ValueError("operator specs do not match")
    m = u.matrix
    return LinearOperator(u.spec, m @ op.matrix @ m.conj().T)


def displacement_unitary(
    spec: HilbertSpec, m: Union[str, ModeId], alpha: complex
) -> LinearOperator:
    """D(alpha) = exp(alpha a+ - conj(alpha) a) on the mode's subspace.

    Exactly unitary on the truncated space. Warns when the mode's cutoff is
    below the adequacy rule, since the action near the boundary then deviates
    from the ideal displacement.
    """
    a = complex(alpha)
    _check_adequacy(spec, m, a)
    low = ladder(spec, m, "lower")
    gen = a * low.matrix.conj().T - np.conj(a) * low.matrix
    return LinearOperator(low.spec, expm(gen), unitary=True)


def coherent_series(alpha: complex, dim: int) -> np.ndarray:
    """Truncated coherent amplitudes exp(-|a|^2/2) a^n / sqrt(n!), n < dim."""
    out = np.zeros(dim, dtype=np.complex128)
    out[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for n in range(1, dim):
        out[n] = out[n - 1] * alpha / math.sqrt(n)
    return out


def coherent_state(
    spec: HilbertSpec, m: Union[str, ModeId], alpha: complex
) -> PureState:
    """|alpha> on one mode, vacuum elsewhere, from the truncated series.

    The missing Poisson tail appears as leakage, so norm2 + leakage = 1 up to
    rounding. Within the adequacy rule this state agrees with the displaced
    vacuum to well below 1e-9.
    """
    a = complex(alpha)
    _check_adequacy(spec, m, a)
    return product_state(spec, [(1.0, {m: coherent_series(a, spec.cutoff_of(m) + 1)})])
