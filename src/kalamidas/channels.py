"""Right-side quantum operations and selective conditioning.

Three families of legitimate operations act on the right modes: unitaries,
non-selective projective measurements (rho -> sum_k P_k rho P_k), and
non-selective generalized measurements given by a Kraus family
(rho -> sum_k A_k rho A_k+). None of them can change the left reduced state;
the experiment driver measures exactly that. All three run through
:func:`nonselective_left`, which applies each operator to a pure state and
sums the left reductions of the branches, so no density operator on the full
space is ever built.

Selective conditioning on a single recorded outcome is also implemented. It is
the one operation that does move the left reduced state, which is why it
cannot be used for signaling without classically communicating the outcome;
the occupation scan makes the effect measurable outcome by outcome.

Seeded generators provide reproducible Haar-style unitaries and complete Kraus
families. All randomness flows through numpy's default_rng (PCG64); the same
seed yields the same operator.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .hilbert import (
    LEFT_LABELS,
    RIGHT_LABELS,
    DensityOperator,
    HilbertSpec,
    LinearOperator,
    ModeId,
    PureState,
    apply,
    diagonal_blocks,
    total_occupations,
)
from .nosignal import reduce_left

PROBABILITY_FLOOR = 1e-12


def _require_right_modes(spec: HilbertSpec) -> None:
    bad = [m.label for m in spec.modes if not m.is_right]
    if bad:
        raise ValueError(f"operation must act on right modes only, got {bad}")


@dataclass(frozen=True)
class KrausFamily:
    """Operators {A_k} on a right-mode subspace with sum_k A_k+ A_k = I."""

    operators: tuple[LinearOperator, ...]

    def __post_init__(self) -> None:
        ops = tuple(self.operators)
        object.__setattr__(self, "operators", ops)
        if not ops:
            raise ValueError("empty Kraus family")
        spec = ops[0].spec
        if any(a.spec != spec for a in ops):
            raise ValueError("all Kraus operators must share one subspace")
        _require_right_modes(spec)

    @property
    def spec(self) -> HilbertSpec:
        return self.operators[0].spec

    def completeness_defect(self) -> float:
        acc = np.zeros((self.spec.dim, self.spec.dim), dtype=np.complex128)
        for a in self.operators:
            acc += a.matrix.conj().T @ a.matrix
        return float(np.abs(acc - np.eye(self.spec.dim)).max())

    def validate(self, atol: float = 1e-10) -> "KrausFamily":
        defect = self.completeness_defect()
        if defect > atol:
            raise ValueError(f"Kraus completeness defect {defect:.3e} > {atol:.1e}")
        return self


@dataclass(frozen=True)
class ProjectorFamily:
    """Orthogonal hermitian projectors on a right-mode subspace summing to I."""

    projectors: tuple[LinearOperator, ...]

    def __post_init__(self) -> None:
        ps = tuple(self.projectors)
        object.__setattr__(self, "projectors", ps)
        if not ps:
            raise ValueError("empty projector family")
        spec = ps[0].spec
        if any(p.spec != spec for p in ps):
            raise ValueError("all projectors must share one subspace")
        _require_right_modes(spec)

    @property
    def spec(self) -> HilbertSpec:
        return self.projectors[0].spec

    def validate(self, atol: float = 1e-10) -> "ProjectorFamily":
        dim = self.spec.dim
        total = np.zeros((dim, dim), dtype=np.complex128)
        for p in self.projectors:
            m = p.matrix
            herm = float(np.abs(m - m.conj().T).max())
            if herm > atol:
                raise ValueError(f"projector not hermitian: defect {herm:.3e}")
            idem = float(np.abs(m @ m - m).max())
            if idem > atol:
                raise ValueError(f"projector not idempotent: defect {idem:.3e}")
            total += m
        defect = float(np.abs(total - np.eye(dim)).max())
        if defect > atol:
            raise ValueError(f"projector family does not sum to I: {defect:.3e}")
        # hermitian idempotents summing to I are pairwise orthogonal
        return self


def nonselective_left(
    state: PureState, operators: Sequence[LinearOperator]
) -> DensityOperator:
    """Left reduction of sum_k A_k |psi><psi| A_k+, the outcomes discarded.

    Each branch A_k |psi> is reduced on its own and the left Gram matrices are
    summed, one branch at a time. The operators must act on right modes only;
    that they form a channel (one unitary, a projector family or a complete
    Kraus family) is the caller's to ensure, and the families' ``validate``
    checks it. Such a channel preserves the trace, so the output carries the
    input state's leakage.
    """
    if not operators:
        raise ValueError("nonselective_left needs at least one operator")
    left = state.spec.subspace(LEFT_LABELS)
    out = np.zeros((left.dim, left.dim), dtype=np.complex128)
    for a in operators:
        _require_right_modes(a.spec)
        out += reduce_left(apply(a, state)).matrix
    return DensityOperator(left, out, leakage=state.leakage)


def selective_outcome(
    state: PureState, projector: LinearOperator
) -> tuple[Union[PureState, None], float]:
    """Condition a pure state on one projective outcome.

    Returns (normalized conditional state, probability). When the probability
    falls below PROBABILITY_FLOOR the outcome is null: (None, probability).
    """
    projected = apply(projector, state)
    p = projected.norm2
    if p < PROBABILITY_FLOOR:
        return None, p
    return PureState(state.spec, projected.amplitudes / math.sqrt(p)), p


def occupation_projectors(
    spec: HilbertSpec,
    modes: Sequence[Union[str, ModeId]] = RIGHT_LABELS,
    group: str = "total",
) -> ProjectorFamily:
    """Diagonal projectors onto occupation classes of the given right modes.

    group="total" merges occupation tuples by their total photon number, which
    keeps the family size linear in the cutoff sum; group="tuple" returns one
    rank-1 projector per occupation tuple.
    """
    sub = spec.subspace(modes)
    _require_right_modes(sub)
    if group == "total":
        keys = total_occupations(sub.dims)
    elif group == "tuple":
        keys = np.arange(sub.dim)
    else:
        raise ValueError(f"group must be 'total' or 'tuple', got {group!r}")
    return ProjectorFamily(tuple(
        LinearOperator(sub, blocks=diagonal_blocks(keys == key), hermitian=True)
        for key in np.unique(keys)
    ))


def _haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    z = (rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    z /= math.sqrt(2.0)
    q, r = np.linalg.qr(z)
    phases = np.diag(r).copy()
    phases /= np.abs(phases)
    return q * phases


def random_right_unitary(
    spec: HilbertSpec,
    modes: Sequence[Union[str, ModeId]],
    seed: Union[int, Sequence[int]],
) -> LinearOperator:
    """Seeded Haar-style unitary on a right-mode subspace."""
    sub = spec.subspace(modes)
    _require_right_modes(sub)
    rng = np.random.default_rng(seed)
    return LinearOperator(sub, _haar_unitary(sub.dim, rng), unitary=True)


def random_kraus(
    spec: HilbertSpec,
    modes: Sequence[Union[str, ModeId]],
    seed: Union[int, Sequence[int]],
    k: int = 3,
) -> KrausFamily:
    """Seeded Kraus family of k operators, complete by construction.

    The stacked operators form the economic QR factor of a (k d) x d Gaussian
    matrix, an isometry, so sum A+ A = I holds to rounding.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    sub = spec.subspace(modes)
    _require_right_modes(sub)
    d = sub.dim
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((k * d, d)) + 1j * rng.standard_normal((k * d, d))
    q, _ = np.linalg.qr(z)
    ops = tuple(
        LinearOperator(sub, q[i * d : (i + 1) * d, :]) for i in range(k)
    )
    return KrausFamily(ops)


@dataclass(frozen=True)
class OccupationScan:
    """Left reduced states conditioned on each occupation outcome of a scan.

    grams[k] is the UNNORMALIZED conditional left matrix for outcome k, so
    probabilities[k] = trace(grams[k]) and summing every gram (null outcomes
    included) reproduces the unconditional reduced state exactly.
    """

    left_spec: HilbertSpec
    occupations: tuple[tuple[int, ...], ...]
    probabilities: np.ndarray
    grams: np.ndarray
    leakage: float

    def conditional(self, k: int) -> DensityOperator:
        p = float(self.probabilities[k])
        if p < PROBABILITY_FLOOR:
            raise ValueError(
                f"outcome {self.occupations[k]} has probability {p:.3e}, "
                f"below the floor {PROBABILITY_FLOOR:.1e}"
            )
        return DensityOperator(self.left_spec, self.grams[k] / p)

    def mixture(self) -> DensityOperator:
        return DensityOperator(
            self.left_spec, self.grams.sum(axis=0), leakage=self.leakage
        )


def conditional_left_by_occupation(
    state: PureState, modes: Sequence[Union[str, ModeId]]
) -> OccupationScan:
    """Scan every occupation outcome of the given right modes at once.

    Equivalent to conditioning on each rank-1 occupation projector and
    reducing to the left pair, but computed in a single contraction.
    """
    sub = state.spec.subspace(modes)
    _require_right_modes(sub)
    left = state.spec.subspace(LEFT_LABELS)
    left_pos = tuple(state.spec.axis_of(m) for m in left.modes)
    scan_pos = tuple(state.spec.axis_of(m) for m in sub.modes)
    rest_pos = tuple(
        i for i in range(len(state.spec.modes)) if i not in left_pos + scan_pos
    )
    tensor = state.amplitudes.reshape(state.spec.dims)
    tensor = tensor.transpose(left_pos + scan_pos + rest_pos)
    a = tensor.reshape(left.dim, sub.dim, -1)
    grams = np.einsum("iko,jko->kij", a, a.conj())
    probabilities = np.einsum("kii->k", grams).real.copy()
    occupations = tuple(sub.occupation_of(i) for i in range(sub.dim))
    return OccupationScan(
        left_spec=left,
        occupations=occupations,
        probabilities=probabilities,
        grams=grams,
        leakage=state.leakage,
    )
