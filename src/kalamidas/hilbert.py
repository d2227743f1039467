"""Truncated multimode Fock space: basis indexing, ladder operators, state algebra.

The simulator works on six optical modes named a1, b1, a2, b2, a3, b3. The pair
(a1, b1) is the left side of the apparatus, the quartet (a2, b2, a3, b3) the
right side. A state is a complex amplitude vector over occupation-number tuples
(n_a1, n_b1, n_a2, n_b2, n_a3, n_b3) with a per-mode occupation cutoff. Basis
ordering is row-major over the mode list, the occupation of the last mode
varying fastest, so ``amplitudes.reshape(spec.dims)`` exposes one axis per mode.

Truncation is explicit and monotone: no operation renormalizes a state. Norm
squared lost at a cutoff boundary is tracked in the ``leakage`` field of
:class:`PureState`, so every accuracy claim downstream can be tied to it.

Operators may live on the full space or on a subspace spanned by a subset of
the modes. An operator is stored as its diagonal blocks: disjoint runs of its
basis, each with a square block, and zero rows everywhere else. A dense matrix
is one block, a beam splitter one block per total-occupation sector of its
pair, and a diagonal operator its nonzero entries as 1 x 1 blocks.
:func:`apply` acts with a subset operator directly on the matching tensor axes
of the state, one block at a time, which keeps the cost linear in the state
size. :func:`embed` materializes the full matrix and is only economical at
small cutoffs.
"""
from __future__ import annotations

import functools
import math
from dataclasses import InitVar, dataclass
from typing import Iterable, Mapping, Optional, Sequence, Union

import numpy as np

MODE_LABELS = ("a1", "b1", "a2", "b2", "a3", "b3")
LEFT_LABELS = ("a1", "b1")
RIGHT_LABELS = ("a2", "b2", "a3", "b3")

_HERMITIAN_ATOL = 1e-12


@dataclass(frozen=True)
class ModeId:
    """One optical mode: a label from MODE_LABELS and its tensor slot 0..5."""

    label: str
    slot: int

    def __post_init__(self) -> None:
        if self.label not in MODE_LABELS:
            raise ValueError(f"unknown mode label {self.label!r}")
        expected = MODE_LABELS.index(self.label)
        if self.slot != expected:
            raise ValueError(
                f"mode {self.label!r} must sit at slot {expected}, got {self.slot}"
            )

    @property
    def is_left(self) -> bool:
        return self.label in LEFT_LABELS

    @property
    def is_right(self) -> bool:
        return self.label in RIGHT_LABELS


def mode(label: Union[str, ModeId]) -> ModeId:
    """Coerce a label string (or pass through a ModeId) to a ModeId."""
    if isinstance(label, ModeId):
        return label
    return ModeId(label, MODE_LABELS.index(label))


MODES = tuple(mode(lbl) for lbl in MODE_LABELS)


@dataclass(frozen=True)
class HilbertSpec:
    """A truncated tensor-product space over an ordered subset of the modes.

    ``modes`` must be listed in slot order and ``cutoffs`` gives the maximum
    occupation per mode, so each mode contributes a factor of dimension
    cutoff + 1. The left modes, when present, must allow at least one photon.
    """

    modes: tuple[ModeId, ...]
    cutoffs: tuple[int, ...]

    def __post_init__(self) -> None:
        mds = tuple(mode(m) for m in self.modes)
        cts = tuple(int(c) for c in self.cutoffs)
        object.__setattr__(self, "modes", mds)
        object.__setattr__(self, "cutoffs", cts)
        if len(mds) != len(cts):
            raise ValueError("one cutoff per mode required")
        if not mds:
            raise ValueError("empty mode list")
        slots = [m.slot for m in mds]
        if len(set(slots)) != len(slots) or slots != sorted(slots):
            raise ValueError("modes must be distinct and listed in slot order")
        for m, c in zip(mds, cts):
            if c < 0:
                raise ValueError(f"negative cutoff for mode {m.label}")
            if m.is_left and c < 1:
                raise ValueError(f"left mode {m.label} needs cutoff >= 1")

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @property
    def dim(self) -> int:
        return math.prod(self.dims)

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(m.label for m in self.modes)

    def axis_of(self, m: Union[str, ModeId]) -> int:
        return self.modes.index(mode(m))

    def cutoff_of(self, m: Union[str, ModeId]) -> int:
        return self.cutoffs[self.axis_of(m)]

    def index_of(self, occupation: Sequence[int]) -> int:
        """Basis index of an occupation tuple (row-major, last mode fastest)."""
        return int(np.ravel_multi_index(tuple(occupation), self.dims))

    def occupation_of(self, index: int) -> tuple[int, ...]:
        """Occupation tuple of a basis index; inverse of :meth:`index_of`."""
        return tuple(int(n) for n in np.unravel_index(index, self.dims))

    def subspace(self, labels: Iterable[Union[str, ModeId]]) -> "HilbertSpec":
        """The subspace spanned by the given modes, cutoffs carried over."""
        wanted = sorted((mode(m) for m in labels), key=lambda m: m.slot)
        if not wanted:
            raise ValueError("empty subspace")
        missing = [m.label for m in wanted if m not in self.modes]
        if missing:
            raise ValueError(f"modes not in this space: {missing}")
        return HilbertSpec(
            tuple(wanted), tuple(self.cutoff_of(m) for m in wanted)
        )

    def contains(self, other: "HilbertSpec") -> bool:
        """True when every mode of `other` appears here with the same cutoff."""
        return all(
            m in self.modes and self.cutoff_of(m) == c
            for m, c in zip(other.modes, other.cutoffs)
        )


def total_occupations(dims: Sequence[int]) -> np.ndarray:
    """The total photon number of every basis index of a space with these
    per-mode dimensions, in basis order."""
    return np.indices(tuple(dims)).sum(axis=0).ravel()


def _readonly(arr: np.ndarray, fresh: bool = False) -> np.ndarray:
    """A read-only complex128 array: a private copy of a caller's array, or,
    when ``fresh``, the complex128 array itself, which its creator hands over
    and no longer writes."""
    if fresh and arr.dtype == np.complex128:
        out = arr
    else:
        out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PureState:
    """Amplitude vector over the truncated Fock basis with tracked leakage.

    ``leakage`` is the norm squared lost to truncation by prior operations, so
    a normalized construction satisfies norm2 + leakage = 1.

    The amplitudes are copied unless ``fresh`` is set, which only code that
    just created the array and drops it does (see :func:`apply`).
    """

    spec: HilbertSpec
    amplitudes: np.ndarray
    leakage: float = 0.0
    fresh: InitVar[bool] = False

    def __post_init__(self, fresh: bool) -> None:
        amps = _readonly(np.ravel(self.amplitudes), fresh)
        if amps.shape != (self.spec.dim,):
            raise ValueError(
                f"amplitude vector of length {amps.shape[0]} does not match "
                f"dim {self.spec.dim}"
            )
        object.__setattr__(self, "amplitudes", amps)
        object.__setattr__(self, "leakage", max(0.0, float(self.leakage)))

    @property
    def norm2(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)


Blocks = tuple[tuple[slice, np.ndarray], ...]


@dataclass(frozen=True, init=False)
class LinearOperator:
    """Complex square operator on a HilbertSpec, stored as diagonal blocks.

    ``blocks`` holds pairs (indices, block): the indices a slice of the basis
    (a strided run, as a two-mode total-occupation sector is), the block a
    square matrix on them. The slices are disjoint, and rows outside every
    slice are zero. ``LinearOperator(spec, matrix)`` stores a dense matrix as
    one block over the whole basis; ``LinearOperator(spec, blocks=...)`` takes
    the blocks themselves. Read-only complex128 blocks are kept, not copied,
    so operators built from one cache share one set.

    Construction refuses overlapping slices and blocks whose shape does not
    match their slice, and verifies the hermitian flag block by block. The
    unitary flag is a declaration used by :func:`apply` for leakage
    bookkeeping; truncated unitaries satisfy it up to the tolerance declared
    where they are built.
    """

    spec: HilbertSpec
    blocks: Blocks
    hermitian: bool = False
    unitary: bool = False

    def __init__(
        self,
        spec: HilbertSpec,
        matrix: Optional[np.ndarray] = None,
        hermitian: bool = False,
        unitary: bool = False,
        *,
        blocks: Optional[Blocks] = None,
    ) -> None:
        if (matrix is None) == (blocks is None):
            raise ValueError("give either a dense matrix or its blocks")
        if matrix is not None:
            blocks = ((slice(0, spec.dim), np.asarray(matrix)),)
        kept = tuple(
            (sl, _readonly(block, fresh=not block.flags.writeable)) for sl, block in blocks
        )
        hits = np.zeros(spec.dim, dtype=np.int64)
        for sl, block in kept:
            n = len(range(spec.dim)[sl])
            if block.shape != (n, n):
                raise ValueError(
                    f"block of shape {block.shape} on indices {sl} needs shape "
                    f"{(n, n)} (dim {spec.dim})"
                )
            hits[sl] += 1
        if np.any(hits > 1):
            raise ValueError("block indices overlap")
        if hermitian:
            for sl, block in kept:
                defect = float(np.abs(block - block.conj().T).max(initial=0.0))
                if defect > _HERMITIAN_ATOL:
                    raise ValueError(
                        f"hermitian flag set but max|M - M^H| = {defect:.3e}"
                    )
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "blocks", kept)
        object.__setattr__(self, "hermitian", hermitian)
        object.__setattr__(self, "unitary", unitary)

    @property
    def matrix(self) -> np.ndarray:
        """The dense matrix, read-only: a single block over the whole basis as
        it is stored, any other operator assembled anew on each access."""
        dim = self.spec.dim
        if len(self.blocks) == 1 and self.blocks[0][0] == slice(0, dim):
            return self.blocks[0][1]
        out = np.zeros((dim, dim), dtype=np.complex128)
        for sl, block in self.blocks:
            out[sl, sl] = block
        out.setflags(write=False)
        return out

    def adjoint(self) -> "LinearOperator":
        """The conjugate transpose, block by block, with the same flags."""
        return LinearOperator(
            self.spec, blocks=tuple((sl, block.conj().T) for sl, block in self.blocks),
            hermitian=self.hermitian, unitary=self.unitary,
        )


def diagonal_blocks(diagonal: np.ndarray) -> Blocks:
    """A diagonal matrix as blocks: each nonzero entry a 1 x 1 block."""
    diagonal = np.asarray(diagonal, dtype=np.complex128)
    return tuple(
        (slice(i, i + 1), diagonal[i : i + 1].reshape(1, 1))
        for i in np.flatnonzero(diagonal)
    )


@dataclass(frozen=True)
class DensityOperator:
    """Hermitian positive-semidefinite matrix on a mode subset.

    Reduced states carry the leakage of the state they came from, so the
    trace invariant is trace = 1 - leakage rather than exactly 1.
    """

    spec: HilbertSpec
    matrix: np.ndarray
    leakage: float = 0.0

    def __post_init__(self) -> None:
        m = _readonly(self.matrix)
        if m.shape != (self.spec.dim, self.spec.dim):
            raise ValueError(
                f"matrix shape {m.shape} does not match dim {self.spec.dim}"
            )
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "leakage", max(0.0, float(self.leakage)))

    @property
    def trace(self) -> float:
        return float(np.trace(self.matrix).real)

    def invariant_residuals(self) -> dict[str, float]:
        """Hermiticity, negative-eigenvalue excess, and trace residuals."""
        m = self.matrix
        herm = float(np.abs(m - m.conj().T).max())
        eigs = np.linalg.eigvalsh((m + m.conj().T) / 2.0)
        negative = float(max(0.0, -eigs.min()))
        trace = float(abs(np.trace(m).real - (1.0 - self.leakage)))
        return {"hermiticity": herm, "negativity": negative, "trace": trace}

    def validate(self, atol: float = 1e-10) -> "DensityOperator":
        """Raise unless the density-operator invariants hold within atol."""
        for name, value in self.invariant_residuals().items():
            if value > atol:
                raise ValueError(
                    f"density operator violates {name} by {value:.3e} (> {atol:.1e})"
                )
        return self


def vacuum(spec: HilbertSpec) -> PureState:
    """The all-modes-empty state |0...0>."""
    amps = np.zeros(spec.dim, dtype=np.complex128)
    amps[0] = 1.0
    return PureState(spec, amps, leakage=0.0)


def basis_state(spec: HilbertSpec, occupation: Sequence[int]) -> PureState:
    """The Fock basis state with the given occupation tuple."""
    amps = np.zeros(spec.dim, dtype=np.complex128)
    amps[spec.index_of(occupation)] = 1.0
    return PureState(spec, amps, leakage=0.0)


def product_state(
    spec: HilbertSpec,
    terms: Iterable[tuple[complex, Mapping[Union[str, ModeId], np.ndarray]]],
    scale: float = 1.0,
) -> PureState:
    """scale * sum_k c_k (tensor product over the modes of f_km), for terms
    ``(c_k, {mode: f_km})``; a mode that a term does not name holds its vacuum.

    Each product is formed before its coefficient multiplies it, and the scale
    multiplies the sum. The norm squared missing from 1 is booked as leakage,
    so a truncated normalized state reports the tail it lost.
    """
    out = np.zeros(spec.dim, dtype=np.complex128)
    for coeff, named in terms:
        factors = [np.eye(d, 1, dtype=np.complex128).ravel() for d in spec.dims]
        for m, vec in named.items():
            factors[spec.axis_of(m)] = vec
        product = functools.reduce(np.multiply.outer, factors).reshape(-1)
        # scaled in place when the outer products made it; a lone factor is
        # the caller's own vector
        out += np.multiply(coeff, product, out=product if len(factors) > 1 else None)
        del product  # before the next term's product is formed
    out *= scale
    return PureState(spec, out, leakage=1.0 - float(np.vdot(out, out).real), fresh=True)


def ladder(spec: HilbertSpec, m: Union[str, ModeId], kind: str) -> LinearOperator:
    """Creation ("raise") or annihilation ("lower") operator for one mode.

    Returned on the single-mode subspace; use :func:`apply` to act on a state
    of the containing space, or :func:`embed` for the full matrix. Raising
    from the cutoff maps to the zero vector.
    """
    sub = spec.subspace((m,))
    up = raising_matrix(sub.dim)
    if kind == "raise":
        return LinearOperator(sub, up)
    if kind == "lower":
        return LinearOperator(sub, up.conj().T)
    raise ValueError(f"kind must be 'raise' or 'lower', got {kind!r}")


def raising_matrix(d: int) -> np.ndarray:
    """The creation operator on one mode of dimension d, as a d x d matrix."""
    return np.diag(np.sqrt(np.arange(1, d, dtype=np.float64)), -1).astype(np.complex128)


def number_op(spec: HilbertSpec, m: Union[str, ModeId]) -> LinearOperator:
    """Occupation-number operator for one mode, on its single-mode subspace."""
    sub = spec.subspace((m,))
    return LinearOperator(sub, blocks=diagonal_blocks(np.arange(sub.dim)), hermitian=True)


def identity(spec: HilbertSpec) -> LinearOperator:
    return LinearOperator(
        spec, np.eye(spec.dim, dtype=np.complex128), hermitian=True, unitary=True
    )


def embed(op: LinearOperator, spec: HilbertSpec) -> LinearOperator:
    """Tensor a subset operator with the identity on the remaining modes.

    Materializes the full dim x dim matrix as one block; meant for small
    spaces and for cross-checking :func:`apply`.
    """
    if not spec.contains(op.spec):
        raise ValueError("operator subspace is not contained in the target space")
    if op.spec == spec:
        return op
    positions = tuple(spec.axis_of(m) for m in op.spec.modes)
    rest = tuple(i for i in range(len(spec.modes)) if i not in positions)
    sub_dims = op.spec.dims
    rest_dims = tuple(spec.dims[i] for i in rest)
    rest_dim = math.prod(rest_dims)
    k, nr = len(positions), len(rest)

    tensor = np.tensordot(
        op.matrix.reshape(sub_dims + sub_dims),
        np.eye(rest_dim, dtype=np.complex128).reshape(rest_dims + rest_dims),
        axes=0,
    )
    # tensor axes: sub rows, sub cols, rest rows, rest cols; interleave to
    # (all rows, all cols) in slot order
    perm = []
    for i in range(len(spec.modes)):
        perm.append(positions.index(i) if i in positions else 2 * k + rest.index(i))
    for i in range(len(spec.modes)):
        perm.append(k + positions.index(i) if i in positions else 2 * k + nr + rest.index(i))
    full = tensor.transpose(perm).reshape(spec.dim, spec.dim)
    return LinearOperator(spec, full, hermitian=op.hermitian, unitary=op.unitary)


def apply(op: LinearOperator, state: PureState) -> PureState:
    """Act with an operator on a state, on its modes' tensor axes only.

    With the operator's axes moved first, the rows of each block's slice are
    multiplied by the block into a zeroed buffer, one block at a time, and
    the axes are moved back; rows outside every block stay zero.

    Unitary-flagged operators track truncation: any norm squared they lose is
    added to the state's leakage, and the state is never renormalized. The
    result owns its amplitudes, so the new state takes them without a copy.
    """
    if not state.spec.contains(op.spec):
        raise ValueError("operator modes/cutoffs do not match the state space")
    positions = tuple(state.spec.axis_of(m) for m in op.spec.modes)
    first = tuple(range(len(positions)))
    moved = np.moveaxis(state.amplitudes.reshape(state.spec.dims), positions, first)
    rest = moved.shape[len(positions):]
    op_major = moved.reshape(op.spec.dim, -1)
    out = np.zeros(op_major.shape, dtype=np.complex128)
    for sl, block in op.blocks:
        # strided row views: BLAS reads and writes them in place
        np.matmul(block, op_major[sl], out=out[sl])
    del op_major  # freed before the copy back into slot order
    out = np.moveaxis(out.reshape(op.spec.dims + rest), first, positions)
    new = np.ascontiguousarray(out).reshape(-1)
    leakage = state.leakage
    if op.unitary:
        old_n2 = state.norm2
        new_n2 = float(np.vdot(new, new).real)
        leakage += max(0.0, old_n2 - new_n2)
    return PureState(state.spec, new, leakage=leakage, fresh=True)


def inner(x: PureState, y: PureState) -> complex:
    """<x|y>, conjugate-linear in the first argument."""
    if x.spec != y.spec:
        raise ValueError("inner product needs matching specs")
    return complex(np.vdot(x.amplitudes, y.amplitudes))
