"""Left-side physics: reduction, the trace distance, and the signaling gap.

The claim under test is an equality of reduced density operators: whatever
happens on the right side of the apparatus, the partial trace over the right
modes leaves the same operator on (a1, b1), so no left observable can detect
it. The checks here take square matrices, which a run gives as the 2 x 2
Gram matrices of the two one-photon branches before the left splitter:
that splitter is a fixed unitary on the block, and the trace distance, the
gap (its trace norm, the largest expectation difference any left observable
of spectral norm 1 can show) and :func:`invariant_residuals` are unitarily
invariant. :func:`reduce_left`, the partial trace of a six-mode state, is
the tests' reference; no run calls it, :func:`expectation` or
:func:`random_left_observable`, and the benchmark's tracer times them.

The left states are compared with two references. Against the bare
preparation's left state the comparison asks whether the injection moved
anything. Against I / 2, the closed-form (|u><u| + |v><v|) / 2 with
u = (|10> + |01>)/sqrt2 and v = (-|10> + |01>)/sqrt2, which span the block,
it asks whether the simulator got the state right at all, so a bug shared
by both simulated preparations cannot fake agreement.
"""
from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from .hilbert import LEFT_LABELS, HilbertSpec, LinearOperator, PureState

_HERMITIAN_ATOL = 1e-12
_IMAG_ATOL = 1e-10


def reduce_left(state: PureState) -> np.ndarray:
    """Partial trace of a pure state over everything but the left pair (a1, b1).

    The left modes lead the space, so the amplitudes form a matrix with one
    row per left basis state, and the reduction is its Gram matrix. Its
    trace is the state's norm squared, 1 - leakage for normalized
    constructions.
    """
    left = state.spec.subspace(LEFT_LABELS)
    left_pos = tuple(state.spec.axis_of(m) for m in left.modes)
    if left_pos != (0, 1):
        raise ValueError("state space must contain both left modes at slots 0, 1")
    a = state.amplitudes.reshape(left.dim, -1)
    return a @ a.conj().T


def expectation(rho: np.ndarray, h: LinearOperator) -> float:
    """Tr(rho h) for a left state and an observable of its dimension. The
    observable's matrix must be hermitian to 1e-12, and the imaginary
    residue must stay below 1e-10; it is discarded after the check."""
    m = h.matrix
    if rho.shape != m.shape:
        raise ValueError(f"left state {rho.shape} and observable {m.shape} do not match")
    defect = float(np.abs(m - m.conj().T).max())
    if defect > _HERMITIAN_ATOL:
        raise ValueError(f"expectation needs a hermitian observable, max|H - H^H| = {defect:.3e}")
    value = complex(np.trace(rho @ m))
    if abs(value.imag) > _IMAG_ATOL:
        raise ValueError(f"expectation has imaginary residue {value.imag:.3e}")
    return value.real


def normalized(rho: np.ndarray) -> np.ndarray:
    """rho / Tr rho, the left state the no-signaling checks compare: a
    renormalized truncated state is itself a legitimate preparation."""
    return rho / np.trace(rho).real


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """(1/2) sum |eigenvalues(rho - sigma)| of two square matrices of one
    shape; zero iff the states are equal."""
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1] or rho.shape != sigma.shape:
        raise ValueError(
            f"trace distance needs two square matrices of one shape, got {rho.shape} "
            f"and {sigma.shape}"
        )
    delta = rho - sigma
    delta = (delta + delta.conj().T) / 2.0
    return float(0.5 * np.abs(np.linalg.eigvalsh(delta)).sum())


def invariant_residuals(rho: np.ndarray, leakage: float) -> dict[str, float]:
    """Hermiticity, negative-eigenvalue excess, and the trace's distance
    from 1 - leakage, for a left state that books ``leakage``; a negative
    booking counts as none, so a trace above 1 shows."""
    herm = float(np.abs(rho - rho.conj().T).max())
    eigs = np.linalg.eigvalsh((rho + rho.conj().T) / 2.0)
    negative = float(max(0.0, -eigs.min()))
    trace = float(abs(np.trace(rho).real - (1.0 - max(0.0, float(leakage)))))
    return {"hermiticity": herm, "negativity": negative, "trace": trace}


def random_left_observable(
    spec: HilbertSpec, seed: Union[int, Sequence[int]]
) -> LinearOperator:
    """Seeded random hermitian observable H = (G + G+)/2 on the left space."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((spec.dim, spec.dim)) + 1j * rng.standard_normal(
        (spec.dim, spec.dim)
    )
    return LinearOperator(spec, (g + g.conj().T) / 2.0)


def signaling_gap(rho_a: np.ndarray, rho_b: np.ndarray) -> float:
    """||rho_a - rho_b||_1, twice the trace distance: the largest
    expectation difference |Tr((rho_a - rho_b) H)| over every left
    observable H of spectral norm 1, reached by H = sign(rho_a - rho_b)
    (Helstrom 1976). Any genuine signaling channel shows as a gap of order
    one."""
    return 2.0 * trace_distance(rho_a, rho_b)
