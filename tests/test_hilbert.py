"""Basis bookkeeping, operator embedding, and leakage accounting."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalamidas import (
    MODE_LABELS,
    BeamSplitter,
    HilbertSpec,
    LinearOperator,
    PureState,
    apply,
    beamsplitter_unitary,
    occupation_projectors,
    random_kraus,
    random_right_unitary,
)
from kalamidas.hilbert import (
    embed,
    product_state,
    sector_slices,
    total_occupations,
)
from kalamidas.nosignal import invariant_residuals

from fock import (
    adjoint,
    basis_state,
    identity,
    inner,
    ladder,
    number_op,
    vacuum,
    validate,
)


@pytest.mark.parametrize("cutoff", [2, 3])
def test_index_round_trip_is_exhaustive(cutoff):
    spec = HilbertSpec(MODE_LABELS, (cutoff,) * 6)
    assert spec.dim == (cutoff + 1) ** 6
    for i in range(spec.dim):
        occ = spec.occupation_of(i)
        assert all(0 <= n <= cutoff for n in occ)
        assert spec.index_of(occ) == i


def test_last_mode_varies_fastest():
    spec = HilbertSpec(MODE_LABELS, (1, 1, 2, 2, 2, 2))
    assert spec.index_of((0, 0, 0, 0, 0, 1)) == 1
    assert spec.index_of((1, 0, 0, 0, 0, 0)) == spec.dim // 2
    reshaped = np.arange(spec.dim).reshape(spec.dims)
    assert reshaped[1, 0, 2, 0, 1, 2] == spec.index_of((1, 0, 2, 0, 1, 2))


def test_accessors():
    spec = HilbertSpec(MODE_LABELS, (1, 1, 4, 3, 2, 5))
    assert spec.axis_of("a3") == 4
    assert spec.cutoff_of("b3") == 5
    assert spec.modes == MODE_LABELS
    assert spec.dims == (2, 2, 5, 4, 3, 6)


@pytest.mark.parametrize(
    "labels, bad",
    [(("a1", "c9"), "c9"), (("a1", "a2", "a2"), "a2"), (("b1", "a1"), "a1")],
    ids=["unknown", "duplicate", "out-of-order"],
)
def test_spec_names_the_bad_mode_label(labels, bad):
    with pytest.raises(ValueError, match=repr(bad)):
        HilbertSpec(labels, (1,) * len(labels))


def test_subspace_names_an_unknown_label(quick_spec):
    with pytest.raises(ValueError, match="'c9'"):
        quick_spec.subspace(("c9",))


@pytest.mark.parametrize(
    "pair, bad", [(("a3", "a2"), "a2"), (("a2", "x7"), "x7")], ids=["reversed", "unknown"]
)
def test_splitter_names_the_bad_mode_label(pair, bad):
    with pytest.raises(ValueError, match=repr(bad)):
        BeamSplitter(pair, 0.6, 0.8)


def test_spec_validation():
    with pytest.raises(ValueError):
        HilbertSpec(MODE_LABELS, (0, 1, 2, 2, 2, 2))
    with pytest.raises(ValueError):
        HilbertSpec(MODE_LABELS, (1, 1, -1, 2, 2, 2))
    with pytest.raises(ValueError):
        HilbertSpec(MODE_LABELS, (1, 1, 2))


def test_subspace_sorts_and_carries_cutoffs(quick_spec):
    sub = quick_spec.subspace(("b2", "a2"))
    assert sub.modes == ("a2", "b2")
    assert sub.cutoffs == (2, 2)
    assert quick_spec.contains(sub)
    assert not sub.contains(quick_spec)
    with pytest.raises(ValueError):
        quick_spec.subspace(())
    other = HilbertSpec(MODE_LABELS, (1, 1, 3, 2, 2, 2))
    assert not quick_spec.contains(other.subspace(("a2",)))


_CUTOFFS = st.tuples(*[st.integers(1, 6)] * 2, *[st.integers(0, 6)] * 4)
_LABEL_LISTS = st.lists(st.sampled_from(MODE_LABELS), min_size=1, max_size=6, unique=True)


@settings(max_examples=60, deadline=None)
@given(cutoffs=_CUTOFFS, space=_LABEL_LISTS, data=st.data())
def test_kept_sizes_and_memoized_subspaces_equal_fresh_computations(cutoffs, space, data):
    full = HilbertSpec(MODE_LABELS, cutoffs)
    spec = full.subspace(space)
    labels = data.draw(st.lists(st.sampled_from(spec.modes), min_size=1, unique=True))
    sub = spec.subspace(tuple(labels))
    assert spec.subspace(list(labels)) == sub
    assert spec.subspace(m for m in labels) == sub
    ordered = tuple(m for m in MODE_LABELS if m in labels)
    assert sub.modes == ordered
    assert sub.cutoffs == tuple(cutoffs[MODE_LABELS.index(m)] for m in ordered)
    for s in (full, spec, sub, HilbertSpec(sub.modes, sub.cutoffs)):
        dims = tuple(c + 1 for c in s.cutoffs)
        for _ in range(2):  # computed on the first access, then kept
            assert s.dims == dims
            assert s.dim == math.prod(dims)


@settings(max_examples=40, deadline=None)
@given(cutoffs=_CUTOFFS, space=_LABEL_LISTS, data=st.data())
def test_a_bad_subspace_request_raises_the_same_error_on_every_call(cutoffs, space, data):
    spec = HilbertSpec(MODE_LABELS, cutoffs).subspace(space)
    label = data.draw(st.sampled_from(spec.modes))
    unknown = data.draw(st.sampled_from(["c9", "x7", "A1", "a4", ""]))
    bad = [
        ((), "empty subspace"),
        ((label, unknown), f"modes not in this space: {[unknown]}"),
        ((label, label), f"mode {label!r} listed after {label!r}"),
    ]
    absent = [m for m in MODE_LABELS if m not in spec.modes]
    if absent:
        missing = data.draw(st.sampled_from(absent))
        bad.append(((missing, label), f"modes not in this space: {[missing]}"))
    for labels, message in bad:
        seen = set()
        for make in (tuple, list, iter, tuple):  # the last asks again after a failure
            with pytest.raises(ValueError, match=re.escape(message)) as err:
                spec.subspace(make(labels))
            seen.add(str(err.value))
        assert len(seen) == 1
    assert spec.subspace((label,)).modes == (label,)  # a good request still answers


def test_ladder_matrix_entries(quick_spec):
    up = ladder(quick_spec, "a2", "raise").matrix
    for n in range(2):
        assert up[n + 1, n] == pytest.approx(np.sqrt(n + 1))
    assert np.count_nonzero(up) == 2
    down = ladder(quick_spec, "a2", "lower").matrix
    assert np.array_equal(down, up.conj().T)
    with pytest.raises(ValueError):
        ladder(quick_spec, "a2", "sideways")


def test_commutator_exact_below_cutoff_and_clipped_at_it(quick_spec):
    up = ladder(quick_spec, "a3", "raise").matrix
    comm = up.conj().T @ up - up @ up.conj().T
    d = up.shape[0]
    expected = np.eye(d, dtype=complex)
    expected[d - 1, d - 1] = -(d - 1)
    assert np.allclose(comm, expected, atol=1e-14)


def test_number_op_diagonal(quick_spec):
    n = number_op(quick_spec, "b3")
    assert np.array_equal(np.diag(n.matrix).real, np.arange(3))


def test_embed_composes(quick_spec):
    rng = np.random.default_rng(7)
    sub = quick_spec.subspace(("a2", "b2"))
    d = sub.dim
    x = LinearOperator(sub, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    y = LinearOperator(sub, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    lhs = embed(x, quick_spec).matrix @ embed(y, quick_spec).matrix
    rhs = embed(LinearOperator(sub, x.matrix @ y.matrix), quick_spec).matrix
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_embed_requires_containment(quick_spec):
    other = HilbertSpec(MODE_LABELS, (1, 1, 3, 2, 2, 2))
    op = ladder(other, "a2", "raise")
    with pytest.raises(ValueError):
        embed(op, quick_spec)


def test_embed_of_full_space_op_is_identity_fast_path(quick_spec):
    op = identity(quick_spec)
    assert embed(op, quick_spec) is op


_SUBSETS = [("a2",), ("b2", "a3"), ("a2", "b3"), ("a3", "b3"), ("a2", "b2", "a3")]


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), labels=st.sampled_from(_SUBSETS))
def test_apply_matches_embedded_matvec(seed, labels):
    spec = HilbertSpec(MODE_LABELS, (1, 1, 2, 2, 2, 2))
    rng = np.random.default_rng(seed)
    sub = spec.subspace(labels)
    d = sub.dim
    op = LinearOperator(sub, rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    amps = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
    state = PureState(spec, amps)
    fast = apply(op, state).amplitudes
    slow = embed(op, spec).matrix @ amps
    assert np.allclose(fast, slow, atol=1e-12)


def test_apply_full_space_path(quick_spec):
    rng = np.random.default_rng(3)
    d = quick_spec.dim
    op = LinearOperator(quick_spec, rng.standard_normal((d, d)) * 1j)
    state = PureState(quick_spec, rng.standard_normal(d))
    assert np.allclose(apply(op, state).amplitudes, op.matrix @ state.amplitudes)


def test_apply_rejects_foreign_cutoffs(quick_spec):
    other = HilbertSpec(MODE_LABELS, (1, 1, 3, 2, 2, 2))
    op = ladder(other, "a2", "raise")
    with pytest.raises(ValueError):
        apply(op, vacuum(quick_spec))


def test_unitary_flag_tracks_leakage(quick_spec):
    sub = quick_spec.subspace(("a2",))
    proj = np.zeros((3, 3), dtype=complex)
    proj[0, 0] = 1.0
    # declared unitary on purpose: apply must book the norm it loses
    lossy = LinearOperator(sub, proj, unitary=True)
    state = basis_state(quick_spec, (0, 0, 1, 0, 0, 0))
    out = apply(lossy, state)
    assert out.leakage == pytest.approx(1.0)
    assert out.norm2 == pytest.approx(0.0)
    honest = LinearOperator(sub, proj)
    assert apply(honest, state).leakage == 0.0


def test_raise_at_cutoff_clips_without_leakage(quick_spec):
    state = basis_state(quick_spec, (0, 0, 2, 0, 0, 0))
    out = apply(ladder(quick_spec, "a2", "raise"), state)
    assert out.norm2 == pytest.approx(0.0)
    assert out.leakage == 0.0


def test_pure_state_is_read_only(quick_spec):
    state = vacuum(quick_spec)
    with pytest.raises(ValueError):
        state.amplitudes[0] = 0.0


def test_pure_state_shape_check(quick_spec):
    with pytest.raises(ValueError):
        PureState(quick_spec, np.zeros(quick_spec.dim + 1))


def test_negative_leakage_clamped(quick_spec):
    assert PureState(quick_spec, np.zeros(quick_spec.dim), leakage=-1e-30).leakage == 0.0


def test_inner_is_conjugate_linear_in_first(quick_spec):
    rng = np.random.default_rng(11)
    x = PureState(quick_spec, rng.standard_normal(quick_spec.dim) + 1j * rng.standard_normal(quick_spec.dim))
    y = PureState(quick_spec, rng.standard_normal(quick_spec.dim) + 1j * rng.standard_normal(quick_spec.dim))
    assert inner(x, y) == pytest.approx(np.conj(inner(y, x)))
    assert inner(x, x).real == pytest.approx(x.norm2)
    with pytest.raises(ValueError):
        inner(x, vacuum(HilbertSpec(MODE_LABELS, (1, 1, 1, 1, 1, 1))))


def test_vacuum_and_basis_state(quick_spec):
    assert vacuum(quick_spec).amplitudes[0] == 1.0
    occ = (1, 0, 2, 1, 0, 2)
    state = basis_state(quick_spec, occ)
    assert state.amplitudes[quick_spec.index_of(occ)] == 1.0
    assert state.norm2 == 1.0


def test_density_operator_invariants():
    rho = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
    assert max(invariant_residuals(rho, 0.0).values()) < 1e-15
    assert validate(rho, 0.0, 1e-10) is rho

    short = np.diag([0.5, 0.0, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="trace"):
        validate(short, 0.0, 1e-10)
    validate(short, 0.5, 1e-10)

    skew = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    skew[0, 1] = 1e-3
    with pytest.raises(ValueError, match="hermiticity"):
        validate(skew, 0.0, 1e-10)

    dented = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negativity"):
        validate(dented, 0.0, 1e-10)


def test_identity_flags(quick_spec):
    op = identity(quick_spec)
    assert op.unitary
    assert np.array_equal(op.matrix, np.eye(quick_spec.dim))


@pytest.mark.parametrize("label", MODE_LABELS)
def test_diagonal_apply_matches_the_dense_product(quick_spec, tensordot_apply, label):
    rng = np.random.default_rng(11)
    amps = rng.standard_normal(quick_spec.dim) + 1j * rng.standard_normal(quick_spec.dim)
    psi = PureState(quick_spec, amps)
    n = number_op(quick_spec, label)
    assert all(block.shape == (1, 1) for _, block in n.blocks)
    assert np.array_equal(apply(n, psi).amplitudes, tensordot_apply(n, psi))
    full = embed(n, quick_spec)
    assert len(full.blocks) == 1
    assert np.array_equal(apply(full, psi).amplitudes, tensordot_apply(full, psi))


def test_apply_and_product_state_results_are_read_only(quick_spec):
    psi = product_state(quick_spec, [(1.0, {})])
    out = apply(ladder(quick_spec, "a3", "raise"), psi)
    for state in (psi, out):
        assert not state.amplitudes.flags.writeable
        with pytest.raises(ValueError):
            state.amplitudes[0] = 1.0


def _stored_amplitudes(spec, array):
    return PureState(spec, array).amplitudes


def _stored_block(spec, array):
    ((_, block),) = LinearOperator(spec, blocks=((slice(0, spec.dim), array),)).blocks
    return block


@pytest.mark.parametrize(
    "stored, shape", [(_stored_amplitudes, 1), (_stored_block, 2)],
    ids=["PureState", "LinearOperator"],
)
def test_a_read_only_complex_array_is_kept_and_any_other_copied(quick_spec, stored, shape):
    """One rule for both types: a read-only complex128 array, which its
    creator no longer writes, is kept; a writeable or real one is copied
    into a read-only complex128 array of its own."""
    spec = quick_spec.subspace(("a2", "b2"))
    rng = np.random.default_rng(29)
    mine = rng.standard_normal((spec.dim,) * shape) + 1j * rng.standard_normal((spec.dim,) * shape)
    before = mine.copy()
    copied = stored(spec, mine)
    assert not copied.flags.writeable and not np.shares_memory(copied, mine)
    mine[...] = 7.0
    assert np.array_equal(copied, before)

    real = stored(spec, before.real)
    assert real.dtype == np.complex128 and not real.flags.writeable

    before.setflags(write=False)
    assert np.shares_memory(stored(spec, before), before)


def test_product_state_matches_the_kron_chain(quick_spec):
    rng = np.random.default_rng(17)

    def vec(d):
        return 0.3 * (rng.standard_normal(d) + 1j * rng.standard_normal(d))

    f_a2, f_b3 = vec(3), vec(3)
    g_a1, g_a3 = vec(2), vec(3)
    terms = [(0.7 - 0.2j, {"a2": f_a2, "b3": f_b3}), (1.3, {"a1": g_a1, "a3": g_a3})]
    state = product_state(quick_spec, terms, scale=0.9)

    def chain(named):
        vacua = (np.eye(d, 1).ravel() for d in quick_spec.dims)
        factors = [named.get(m, e0) for m, e0 in zip(MODE_LABELS, vacua)]
        out = factors[0]
        for f in factors[1:]:
            out = np.kron(out, f)
        return out

    expected = 0.9 * sum(c * chain(named) for c, named in terms)
    assert np.allclose(state.amplitudes, expected, rtol=0, atol=1e-15)
    norm2 = float(np.vdot(expected, expected).real)
    assert norm2 < 1.0
    assert state.leakage == pytest.approx(1.0 - norm2, abs=1e-15)
    assert product_state(quick_spec, [(1.0, {})]).amplitudes[0] == 1.0
    assert product_state(quick_spec, [(1.0, {})]).leakage == 0.0
    with pytest.raises(ValueError):
        product_state(quick_spec, [(1.0, {"a2": vec(4)})])


def test_one_mode_product_state_leaves_the_callers_vector_alone():
    spec = HilbertSpec(("a3",), (3,))
    vec = np.array([0.5, 0.5j, -0.5, 0.25 + 0.25j])
    kept = vec.copy()
    state = product_state(spec, [(2.0 - 1.0j, {"a3": vec})], scale=0.5)
    assert np.array_equal(vec, kept)
    assert np.array_equal(state.amplitudes, 0.5 * ((2.0 - 1.0j) * kept))


# a2, a3 make a 4 x 5 pair, b2, b3 a 3 x 3 pair and a1, b1 a 2 x 2 pair
_RAGGED = HilbertSpec(MODE_LABELS, (1, 1, 3, 2, 4, 2))
_SPLITTER_PAIRS = [("a2", "a3"), ("b2", "b3"), ("a1", "b1")]
_RIGHT_PAIRS = [("a2", "b2"), ("a2", "a3"), ("a2", "b3"), ("b2", "a3"), ("b2", "b3"), ("a3", "b3")]


def _random_state(spec, seed, leakage=0.0):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
    return PureState(spec, amps / np.linalg.norm(amps), leakage=leakage)


def test_total_occupations_match_the_occupation_tuples():
    for spec in (_RAGGED, _RAGGED.subspace(("a2", "a3")), _RAGGED.subspace(("b3",))):
        expected = [sum(spec.occupation_of(i)) for i in range(spec.dim)]
        assert total_occupations(spec.dims).tolist() == expected


def test_sector_slices_hold_each_total_of_a_mode_or_pair_and_refuse_more_modes():
    """Three or more modes have sectors that are not one strided run: (2, 2, 2)
    holds total 1 at indices 1, 2 and 4, which no slice picks out."""
    for dims in ((3,), (2, 5), (4, 3), (3, 3)):
        totals = total_occupations(dims)
        got = [list(range(len(totals))[sl]) for sl in sector_slices(dims)]
        assert got == [np.flatnonzero(totals == n).tolist() for n in range(totals.max() + 1)]
    with pytest.raises(ValueError, match="one mode or a pair"):
        sector_slices((2, 2, 2))


@pytest.mark.parametrize("pair", _SPLITTER_PAIRS)
@pytest.mark.parametrize("t,r", [(0.6, 0.8), (0.8, -0.6)])
def test_sector_apply_equals_the_dense_apply(tensordot_apply, pair, t, r):
    u = beamsplitter_unitary(_RAGGED, BeamSplitter(pair, t, r))
    assert len(u.blocks) == sum(u.spec.dims) - 1  # one per total occupation
    # a block-diagonal operator that loses norm, so leakage is booked
    shrunk = LinearOperator(
        u.spec, blocks=tuple((sl, 0.9 * block) for sl, block in u.blocks), unitary=True
    )
    psi = _random_state(_RAGGED, 5, leakage=0.125)
    for op in (u, shrunk):
        got, want = apply(op, psi), tensordot_apply(op, psi)
        assert np.array_equal(got.amplitudes, want)
        assert got.leakage == 0.125 + max(0.0, psi.norm2 - float(np.vdot(want, want).real))
    assert apply(shrunk, psi).leakage > 0.125 + 0.1
    # the operator's own space, no other modes: the reference is then a
    # matrix-vector product, whose rounding differs from a matrix product's
    alone = _random_state(u.spec, 6)
    got, want = apply(u, alone).amplitudes, tensordot_apply(u, alone)
    assert np.allclose(got, want, rtol=0, atol=1e-15)


@pytest.mark.parametrize("pair", _RIGHT_PAIRS)
def test_every_operator_kind_equals_the_tensordot_reference(tensordot_apply, pair):
    # one dense block (Haar unitary, Kraus operators) and 1 x 1 blocks
    # (occupation projectors, number operators); splitters are covered above
    psi = _random_state(_RAGGED, 8)
    operators = [
        random_right_unitary(_RAGGED, pair, 1),
        *random_kraus(_RAGGED, pair, 2),
        *occupation_projectors(_RAGGED, pair),
        *(number_op(_RAGGED, m) for m in pair),
    ]
    for op in operators:
        assert np.array_equal(apply(op, psi).amplitudes, tensordot_apply(op, psi))


def test_mismatched_sectors_are_refused():
    u = beamsplitter_unitary(_RAGGED, BeamSplitter(("a2", "a3"), 0.6, 0.8))
    blocks = list(u.blocks)
    LinearOperator(u.spec, blocks=tuple(blocks))

    with pytest.raises(ValueError, match="overlap"):
        LinearOperator(u.spec, blocks=tuple(blocks + blocks[-1:]))
    sl, block = blocks[3]
    shifted = slice(sl.start + 1, sl.stop + 1, sl.step)  # runs into sector 4
    with pytest.raises(ValueError, match="overlap"):
        LinearOperator(u.spec, blocks=tuple(blocks[:3] + [(shifted, block)] + blocks[4:]))
    with pytest.raises(ValueError, match="shape"):
        LinearOperator(u.spec, blocks=tuple(blocks[:3] + [(sl, block[:-1])] + blocks[4:]))
    with pytest.raises(ValueError, match="shape"):
        LinearOperator(u.spec, blocks=((slice(0, u.spec.dim + 3), np.eye(u.spec.dim + 3)),))
    with pytest.raises(ValueError, match="shape"):
        LinearOperator(u.spec, np.eye(u.spec.dim - 1))
    with pytest.raises(ValueError, match="either"):
        LinearOperator(u.spec, u.matrix, blocks=u.blocks)
    with pytest.raises(ValueError, match="either"):
        LinearOperator(u.spec)


def test_adjoint_keeps_the_blocks_and_embed_is_one_block():
    u = beamsplitter_unitary(_RAGGED, BeamSplitter(("a2", "a3"), 0.6, 0.8))
    back = adjoint(u)
    assert back.unitary
    assert [sl for sl, _ in back.blocks] == [sl for sl, _ in u.blocks]
    assert np.array_equal(back.matrix, u.matrix.conj().T)
    psi = _random_state(_RAGGED, 7)
    there_and_back = apply(back, apply(u, psi))
    assert np.allclose(there_and_back.amplitudes, psi.amplitudes, rtol=0, atol=1e-14)
    wider = _RAGGED.subspace(("a2", "b2", "a3"))
    (sl, block), = embed(u, wider).blocks
    assert sl == slice(0, wider.dim) and block.shape == (wider.dim, wider.dim)
    assert embed(u, u.spec) is u


def test_only_a_single_block_is_stored_as_the_matrix():
    u = beamsplitter_unitary(_RAGGED, BeamSplitter(("b2", "b3"), 0.6, 0.8))
    assembled = u.matrix
    assert assembled is not u.matrix  # built on each access, never kept
    assert not assembled.flags.writeable
    for sl, block in u.blocks:
        assert np.array_equal(assembled[sl, sl], block)
    inside = sum(block.size for _, block in u.blocks)
    assert np.count_nonzero(assembled) <= inside
    dense = LinearOperator(u.spec, assembled, unitary=True)
    assert dense.matrix is dense.blocks[0][1] is assembled
