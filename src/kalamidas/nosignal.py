"""Left-side physics: reduction, expectations, and the signaling-gap search.

The claim under test is an equality of reduced density operators: whatever
happens on the right side of the apparatus, the partial trace over the right
modes leaves the same operator on (a1, b1), so no left observable can detect
it. This module supplies the partial trace, the observable expectations, the
trace-distance metric, and a randomized search for any observable whose
expectation could tell the two preparations apart.

Two code paths evaluate the same physics on purpose. The simulator produces
the left state by explicit reduction of the evolved six-mode state, while
:func:`analytic_left_expectation` evaluates the closed-form left expectation
directly on the two-mode space without touching the simulation, so a shared
bug cannot fake agreement.
"""
from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .hilbert import (
    LEFT_LABELS,
    DensityOperator,
    HilbertSpec,
    LinearOperator,
    PureState,
)

Observable = LinearOperator

_IMAG_ATOL = 1e-10


def reduce_left(state: PureState) -> DensityOperator:
    """Partial trace of a pure state over everything but the left pair (a1, b1).

    The Gram matrix of the (left, rest) reshape. Leakage is carried, so the
    output trace is 1 - leakage for normalized constructions.
    """
    left = state.spec.subspace(LEFT_LABELS)
    left_pos = tuple(state.spec.axis_of(m) for m in left.modes)
    if left_pos != (0, 1):
        raise ValueError("state space must contain both left modes at slots 0, 1")
    a = state.amplitudes.reshape(left.dim, -1)
    return DensityOperator(left, a @ a.conj().T, leakage=state.leakage)


def expectation(rho: DensityOperator, h: Observable) -> float:
    """Tr(rho h) for a hermitian-flagged observable; the imaginary residue
    must stay below 1e-10 and is discarded after the check."""
    if not h.hermitian:
        raise ValueError("expectation needs a hermitian-flagged observable")
    if rho.spec != h.spec:
        raise ValueError("density operator and observable specs do not match")
    value = complex(np.trace(rho.matrix @ h.matrix))
    if abs(value.imag) > _IMAG_ATOL:
        raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
    return value.real


def analytic_left_expectation(h: Observable) -> float:
    """Closed-form left expectation for the evolved apparatus state.

    Independent of the six-mode simulation: on the bare two-mode space it
    evaluates the average of <u|h|u> and <v|h|v> with u = (|10> + |01>)/sqrt2
    and v = (-|10> + |01>)/sqrt2, the two equally likely left states the
    balanced splitter produces. Every legitimate right-side history leads to
    the same value.
    """
    if not h.hermitian:
        raise ValueError("analytic_left_expectation needs a hermitian observable")
    spec = h.spec
    if spec.labels != LEFT_LABELS:
        raise ValueError("observable must live on the left pair (a1, b1)")
    i10 = spec.index_of((1, 0))
    i01 = spec.index_of((0, 1))
    u = np.zeros(spec.dim, dtype=np.complex128)
    v = np.zeros(spec.dim, dtype=np.complex128)
    u[i10] = 1.0 / np.sqrt(2.0)
    u[i01] = 1.0 / np.sqrt(2.0)
    v[i10] = -1.0 / np.sqrt(2.0)
    v[i01] = 1.0 / np.sqrt(2.0)
    value = 0.5 * (np.vdot(u, h.matrix @ u) + np.vdot(v, h.matrix @ v))
    return float(value.real)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1/2) sum |eigenvalues(rho - sigma)|; zero iff the states are equal."""
    if rho.spec != sigma.spec:
        raise ValueError("trace distance needs matching specs")
    delta = rho.matrix - sigma.matrix
    delta = (delta + delta.conj().T) / 2.0
    return float(0.5 * np.abs(np.linalg.eigvalsh(delta)).sum())


def spectral_norm(h: LinearOperator) -> float:
    """Largest singular value; for hermitian h the largest |eigenvalue|."""
    if h.hermitian:
        return float(np.abs(np.linalg.eigvalsh(h.matrix)).max())
    return float(np.linalg.norm(h.matrix, 2))


def random_left_observable(
    spec: HilbertSpec, seed: Union[int, Sequence[int]]
) -> Observable:
    """Seeded random hermitian observable H = (G + G+)/2 on the left space."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((spec.dim, spec.dim)) + 1j * rng.standard_normal(
        (spec.dim, spec.dim)
    )
    return LinearOperator(spec, (g + g.conj().T) / 2.0, hermitian=True)


def signaling_gap(
    rho_a: DensityOperator,
    rho_b: DensityOperator,
    *,
    trials: int,
    seed: int,
) -> float:
    """Largest normalized expectation difference over seeded observables.

    max_k |Tr((rho_a - rho_b) h_k)| / ||h_k|| for `trials` observables drawn
    from the per-trial streams default_rng([seed, k]); any genuine signaling
    channel would show up as a gap of order one.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if rho_a.spec != rho_b.spec:
        raise ValueError("signaling_gap needs matching specs")
    delta = rho_a.matrix - rho_b.matrix
    gap = 0.0
    for k in range(trials):
        h = random_left_observable(rho_a.spec, (seed, k))
        value = abs(complex(np.trace(delta @ h.matrix)))
        gap = max(gap, value / spectral_norm(h))
    return gap
