"""Left-side physics: reduction, the trace distance, and the signaling gap.

The claim under test is an equality of reduced density operators: whatever
happens on the right side of the apparatus, the partial trace over the right
modes leaves the same operator on (a1, b1), so no left observable can detect
it. This module supplies the partial trace and the trace distance, which
tests that equality exactly, and :func:`signaling_gap`, the trace norm of
the difference: the largest expectation difference any left observable of
spectral norm 1 can show. No run calls :func:`expectation`, Tr(rho h) for
one observable, or :func:`random_left_observable`: the tests check the gap
against them, and the benchmark's tracer times them.

The left states are compared with two references. Against the bare
preparation's left state the comparison asks whether the injection moved
anything. Against :func:`analytic_left_state`, the closed-form left state
built directly on the two-mode space without touching the simulation, it
asks whether the simulator got the state right at all, so a bug shared by
both simulated preparations cannot fake agreement.
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

_IMAG_ATOL = 1e-10


def reduce_left(state: PureState) -> DensityOperator:
    """Partial trace of a pure state over everything but the left pair (a1, b1).

    The Gram matrix of the stored rows, each row a left basis state over the
    rest, placed at those rows and columns of the left matrix; the rows the
    state does not store are zero, and so are their entries. Leakage is
    carried, so the output trace is 1 - leakage for normalized constructions.
    """
    left = state.spec.subspace(LEFT_LABELS)
    left_pos = tuple(state.spec.axis_of(m) for m in left.modes)
    if left_pos != (0, 1):
        raise ValueError("state space must contain both left modes at slots 0, 1")
    a = state.stored
    out = np.zeros((left.dim, left.dim), dtype=np.complex128)
    out[state.rows, state.rows] = a @ a.conj().T
    return DensityOperator(left, out, leakage=state.leakage)


def expectation(rho: DensityOperator, h: LinearOperator) -> float:
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


def analytic_left_state(spec: HilbertSpec) -> DensityOperator:
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
    return DensityOperator(spec, 0.25 * (np.outer(u, u.conj()) + np.outer(v, v.conj())))


def normalized(rho: DensityOperator) -> DensityOperator:
    """rho / Tr rho, the left state the no-signaling checks compare: a
    renormalized truncated state is itself a legitimate preparation."""
    return DensityOperator(rho.spec, rho.matrix / rho.trace)


def trace_distance(rho: DensityOperator, sigma: DensityOperator) -> float:
    """(1/2) sum |eigenvalues(rho - sigma)|; zero iff the states are equal."""
    if rho.spec != sigma.spec:
        raise ValueError("trace distance needs matching specs")
    delta = rho.matrix - sigma.matrix
    delta = (delta + delta.conj().T) / 2.0
    return float(0.5 * np.abs(np.linalg.eigvalsh(delta)).sum())


def random_left_observable(
    spec: HilbertSpec, seed: Union[int, Sequence[int]]
) -> LinearOperator:
    """Seeded random hermitian observable H = (G + G+)/2 on the left space."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((spec.dim, spec.dim)) + 1j * rng.standard_normal(
        (spec.dim, spec.dim)
    )
    return LinearOperator(spec, (g + g.conj().T) / 2.0, hermitian=True)


def signaling_gap(rho_a: DensityOperator, rho_b: DensityOperator) -> float:
    """||rho_a - rho_b||_1, twice the trace distance: the largest
    expectation difference |Tr((rho_a - rho_b) H)| over every left
    observable H of spectral norm 1, reached by H = sign(rho_a - rho_b)
    (Helstrom 1976). Any genuine signaling channel shows as a gap of order
    one."""
    return 2.0 * trace_distance(rho_a, rho_b)
