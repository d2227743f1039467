"""Truncated multimode Fock space: basis indexing, operators, state algebra.

The simulator works on six optical modes named a1, b1, a2, b2, a3, b3. The pair
(a1, b1) is the left side of the apparatus, the quartet (a2, b2, a3, b3) the
right side. A mode is its label: every space, splitter and operator names its
modes by these strings, listed in the order of MODE_LABELS. A state is a
complex amplitude vector over occupation-number tuples
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
size. A run applies operators only to the vectors of one arm pair; six-mode
states are the tests' reference. No run calls :func:`embed`, which
materializes the full matrix: it is the independent dense cross-check of
:func:`apply`, and the benchmark's tracer times it.

What depends only on mode labels and cutoffs is built once. A spec computes
its sizes on first access and keeps them; :meth:`HilbertSpec.subspace` is
memoized by (modes, cutoffs, wanted labels) and :func:`sector_slices` by a
mode's or a pair's dimensions. Their entries are specs and slices, never an
array over a whole space, and a request that raises is refused again on
every call.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

MODE_LABELS = ("a1", "b1", "a2", "b2", "a3", "b3")
LEFT_LABELS = ("a1", "b1")
RIGHT_LABELS = ("a2", "b2", "a3", "b3")

def check_mode_order(labels: Sequence[str]) -> None:
    """Raise ValueError, naming the label at fault, unless every label is in
    MODE_LABELS and they are distinct and listed in its order."""
    for label in labels:
        if label not in MODE_LABELS:
            raise ValueError(f"unknown mode label {label!r}")
    for before, label in zip(labels, labels[1:]):
        if MODE_LABELS.index(label) <= MODE_LABELS.index(before):
            raise ValueError(
                f"mode {label!r} listed after {before!r}: modes must be distinct "
                f"and in the order {MODE_LABELS}"
            )


@dataclass(frozen=True)
class HilbertSpec:
    """A truncated tensor-product space over an ordered subset of the modes.

    ``modes`` holds labels from MODE_LABELS, distinct and in that order, and
    ``cutoffs`` gives the maximum occupation per mode, so each mode
    contributes a factor of dimension cutoff + 1. The left modes, when
    present, must allow at least one photon.
    """

    modes: tuple[str, ...]
    cutoffs: tuple[int, ...]

    def __post_init__(self) -> None:
        mds = tuple(self.modes)
        cts = tuple(int(c) for c in self.cutoffs)
        object.__setattr__(self, "modes", mds)
        object.__setattr__(self, "cutoffs", cts)
        if len(mds) != len(cts):
            raise ValueError("one cutoff per mode required")
        if not mds:
            raise ValueError("empty mode list")
        check_mode_order(mds)
        for m, c in zip(mds, cts):
            if c < 0:
                raise ValueError(f"negative cutoff for mode {m}")
            if m in LEFT_LABELS and c < 1:
                raise ValueError(f"left mode {m} needs cutoff >= 1")

    # The sizes are computed on first access and kept in the instance, which
    # is immutable; cached_property writes past the frozen __setattr__.
    @functools.cached_property
    def dims(self) -> tuple[int, ...]:
        return tuple(c + 1 for c in self.cutoffs)

    @functools.cached_property
    def dim(self) -> int:
        return math.prod(self.dims)

    def axis_of(self, m: str) -> int:
        return self.modes.index(m)

    def cutoff_of(self, m: str) -> int:
        return self.cutoffs[self.axis_of(m)]

    def index_of(self, occupation: Sequence[int]) -> int:
        """Basis index of an occupation tuple (row-major, last mode fastest)."""
        return int(np.ravel_multi_index(tuple(occupation), self.dims))

    def occupation_of(self, index: int) -> tuple[int, ...]:
        """Occupation tuple of a basis index; inverse of :meth:`index_of`."""
        return tuple(int(n) for n in np.unravel_index(index, self.dims))

    def subspace(self, labels: Iterable[str]) -> "HilbertSpec":
        """The subspace spanned by the given modes, cutoffs carried over."""
        return _subspace(self.modes, self.cutoffs, tuple(labels))

    def contains(self, other: "HilbertSpec") -> bool:
        """True when every mode of `other` appears here with the same cutoff."""
        return all(
            m in self.modes and self.cutoff_of(m) == c
            for m, c in zip(other.modes, other.cutoffs)
        )


# A run asks for the same few subspaces (the left pair, the arm pairs, the
# right modes) of the same few spaces over and over; each key is a handful of
# labels and cutoffs, and so is each entry.
@functools.lru_cache(maxsize=128)
def _subspace(
    modes: tuple[str, ...], cutoffs: tuple[int, ...], wanted: tuple[str, ...]
) -> HilbertSpec:
    """:meth:`HilbertSpec.subspace` of the space (modes, cutoffs). A call that
    raises caches nothing, so a bad request raises again every time."""
    if not wanted:
        raise ValueError("empty subspace")
    missing = [m for m in wanted if m not in modes]
    if missing:
        raise ValueError(f"modes not in this space: {missing}")
    ordered = sorted(wanted, key=modes.index)
    return HilbertSpec(ordered, tuple(cutoffs[modes.index(m)] for m in ordered))


def total_occupations(dims: Sequence[int]) -> np.ndarray:
    """The total photon number of every basis index of a space with these
    per-mode dimensions, in basis order."""
    return np.indices(tuple(dims)).sum(axis=0).ravel()


def sector_slices(dims: Sequence[int]) -> tuple[slice, ...]:
    """The basis indices of each total occupation n = 0, 1, ... of one mode
    or a pair, as slices (ValueError for more modes). On a pair (d_x, d_y)
    sector n is n + (d_y - 1) n_x over the n_x the pair admits: a strided run."""
    if len(dims) > 2:
        raise ValueError(f"sector slices need one mode or a pair, got dims {tuple(dims)}")
    return _sector_slices(tuple(int(d) for d in dims))


# Keyed by one mode's or one pair's dimensions, read once per splitter
# build. An entry is one slice per total, never a table over a whole space.
@functools.lru_cache(maxsize=32)
def _sector_slices(dims: tuple[int, ...]) -> tuple[slice, ...]:
    totals = total_occupations(dims)
    out = []
    for n in range(int(totals.max()) + 1):
        idx = np.flatnonzero(totals == n)
        step = int(idx[1] - idx[0]) if len(idx) > 1 else 1
        out.append(slice(int(idx[0]), int(idx[-1]) + 1, step))
    return tuple(out)


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only complex128 array: the array itself when it is one, which
    its creator hands over and no longer writes, else a private copy."""
    if arr.dtype == np.complex128 and not arr.flags.writeable:
        return arr
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class PureState:
    """Amplitude vector over the truncated Fock basis with tracked leakage.

    ``amplitudes`` is the read-only vector over the whole basis of ``spec``.
    ``leakage`` is the norm squared lost to truncation by prior operations,
    so a normalized construction satisfies norm2 + leakage = 1.

    Read-only complex128 amplitudes are kept, any others copied.
    """

    spec: HilbertSpec
    amplitudes: np.ndarray
    leakage: float = 0.0

    def __post_init__(self) -> None:
        amps = _readonly(np.ravel(self.amplitudes))
        if amps.shape != (self.spec.dim,):
            raise ValueError(
                f"amplitude vector of length {amps.shape[0]} does not match dim {self.spec.dim}"
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
    match their slice. The unitary flag is a declaration used by
    :func:`apply` for leakage bookkeeping; truncated unitaries satisfy it up
    to the tolerance declared where they are built.
    """

    spec: HilbertSpec
    blocks: Blocks
    unitary: bool = False

    def __init__(
        self,
        spec: HilbertSpec,
        matrix: Optional[np.ndarray] = None,
        unitary: bool = False,
        *,
        blocks: Optional[Blocks] = None,
    ) -> None:
        if (matrix is None) == (blocks is None):
            raise ValueError("give either a dense matrix or its blocks")
        if matrix is not None:
            blocks = ((slice(0, spec.dim), np.asarray(matrix)),)
        kept = tuple((sl, _readonly(block)) for sl, block in blocks)
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
        object.__setattr__(self, "spec", spec)
        object.__setattr__(self, "blocks", kept)
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


def diagonal_blocks(diagonal: np.ndarray) -> Blocks:
    """A diagonal matrix as blocks: each nonzero entry a 1 x 1 block."""
    diagonal = np.asarray(diagonal, dtype=np.complex128)
    return tuple(
        (slice(i, i + 1), diagonal[i : i + 1].reshape(1, 1))
        for i in np.flatnonzero(diagonal)
    )


def product_state(
    spec: HilbertSpec,
    terms: Iterable[tuple[complex, Mapping[str, np.ndarray]]],
    scale: float = 1.0,
) -> PureState:
    """scale * sum_k c_k (tensor product over the modes of f_km), for terms
    ``(c_k, {mode: f_km})``; a mode that a term does not name holds its vacuum.

    Each product is formed before its coefficient multiplies it, and the scale
    multiplies the sum. The norm squared missing from 1 is booked as leakage,
    so a truncated normalized state reports the tail it lost.
    """
    vacua = [np.eye(d, 1, dtype=np.complex128).ravel() for d in spec.dims]
    # each product starts from 1, so even a one-mode product is a new array;
    # 1 x f is f exactly
    one = np.ones(1, dtype=np.complex128)
    out = np.zeros(spec.dim, dtype=np.complex128)
    for coeff, named in terms:
        factors = list(vacua)
        for m, vec in named.items():
            axis = spec.axis_of(m)
            if np.shape(vec) != (spec.dims[axis],):
                raise ValueError(
                    f"factor on mode {m} has shape {np.shape(vec)}, needs "
                    f"({spec.dims[axis]},)"
                )
            factors[axis] = vec
        product = functools.reduce(np.multiply.outer, factors, one).reshape(-1)
        out += np.multiply(coeff, product, out=product)  # no caller's array
        del product  # before the next term's product is formed
    out *= scale
    out.setflags(write=False)
    return PureState(spec, out, leakage=1.0 - float(np.vdot(out, out).real))


def raising_matrix(d: int) -> np.ndarray:
    """The creation operator on one mode of dimension d, as a d x d matrix."""
    return np.diag(np.sqrt(np.arange(1, d, dtype=np.float64)), -1).astype(np.complex128)


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
    return LinearOperator(spec, full, unitary=op.unitary)


def apply(op: LinearOperator, state: PureState) -> PureState:
    """Act with an operator on a state, on its modes' tensor axes only.

    One path for every operator: the state's tensor with the operator's axes
    moved first (a copy unless they lead already) is cut into the
    operator's rows, each block multiplies its rows into a zeroed result, so
    rows outside every block are zero, and the axes are moved back.

    After a unitary-flagged operator any norm squared the state lost is added
    to its leakage, and the state is never renormalized; the splitters are
    unitary on the truncated space, so what is booked there is rounding. The
    result's amplitudes are new and marked read-only, so the state keeps them
    without a copy.
    """
    spec = state.spec
    if not spec.contains(op.spec):
        raise ValueError("operator modes/cutoffs do not match the state space")
    positions = tuple(spec.axis_of(m) for m in op.spec.modes)
    first = tuple(range(len(positions)))
    moved = np.moveaxis(state.amplitudes.reshape(spec.dims), positions, first)
    rows = moved.reshape(op.spec.dim, -1)
    out = np.zeros(rows.shape, dtype=np.complex128)
    for sl, block in op.blocks:
        # strided row views: BLAS reads and writes them in place
        np.matmul(block, rows[sl], out=out[sl])
    back = np.moveaxis(out.reshape(moved.shape), first, positions)
    new = np.ascontiguousarray(back).reshape(-1)
    new.setflags(write=False)
    leakage = state.leakage
    if op.unitary:
        leakage += max(0.0, state.norm2 - float(np.vdot(new, new).real))
    return PureState(spec, new, leakage=leakage)
