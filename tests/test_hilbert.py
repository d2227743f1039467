"""Basis bookkeeping, operator embedding, and leakage accounting."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalamidas import (
    MODE_LABELS,
    MODES,
    BeamSplitter,
    DensityOperator,
    HilbertSpec,
    LinearOperator,
    PureState,
    apply,
    basis_state,
    beamsplitter_unitary,
    embed,
    identity,
    inner,
    ladder,
    mode,
    number_op,
    occupation_projectors,
    random_kraus,
    random_right_unitary,
    vacuum,
)
from kalamidas.hilbert import product_state, total_occupations


@pytest.mark.parametrize("cutoff", [2, 3])
def test_index_round_trip_is_exhaustive(cutoff):
    spec = HilbertSpec(MODES, (cutoff,) * 6)
    assert spec.dim == (cutoff + 1) ** 6
    for i in range(spec.dim):
        occ = spec.occupation_of(i)
        assert all(0 <= n <= cutoff for n in occ)
        assert spec.index_of(occ) == i


def test_last_mode_varies_fastest():
    spec = HilbertSpec(MODES, (1, 1, 2, 2, 2, 2))
    assert spec.index_of((0, 0, 0, 0, 0, 1)) == 1
    assert spec.index_of((1, 0, 0, 0, 0, 0)) == spec.dim // 2
    reshaped = np.arange(spec.dim).reshape(spec.dims)
    assert reshaped[1, 0, 2, 0, 1, 2] == spec.index_of((1, 0, 2, 0, 1, 2))


def test_accessors():
    spec = HilbertSpec(MODES, (1, 1, 4, 3, 2, 5))
    assert spec.axis_of("a3") == 4
    assert spec.cutoff_of("b3") == 5
    assert spec.labels == MODE_LABELS
    assert spec.dims == (2, 2, 5, 4, 3, 6)


def test_mode_coercion_and_sides():
    assert mode("a1").slot == 0
    assert mode("a1").is_left
    assert mode("b3").is_right
    assert mode(MODES[2]) is MODES[2]
    with pytest.raises(ValueError):
        mode("c9")


def test_spec_validation():
    with pytest.raises(ValueError):
        HilbertSpec((MODES[1], MODES[0]), (1, 1))
    with pytest.raises(ValueError):
        HilbertSpec((MODES[0], MODES[0]), (1, 1))
    with pytest.raises(ValueError):
        HilbertSpec(MODES, (0, 1, 2, 2, 2, 2))
    with pytest.raises(ValueError):
        HilbertSpec(MODES, (1, 1, -1, 2, 2, 2))
    with pytest.raises(ValueError):
        HilbertSpec(MODES, (1, 1, 2))


def test_subspace_sorts_and_carries_cutoffs(quick_spec):
    sub = quick_spec.subspace(("b2", "a2"))
    assert sub.labels == ("a2", "b2")
    assert sub.cutoffs == (2, 2)
    assert quick_spec.contains(sub)
    assert not sub.contains(quick_spec)
    with pytest.raises(ValueError):
        quick_spec.subspace(())
    other = HilbertSpec(MODES, (1, 1, 3, 2, 2, 2))
    assert not quick_spec.contains(other.subspace(("a2",)))


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
    assert n.hermitian
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
    other = HilbertSpec(MODES, (1, 1, 3, 2, 2, 2))
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
    spec = HilbertSpec(MODES, (1, 1, 2, 2, 2, 2))
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
    other = HilbertSpec(MODES, (1, 1, 3, 2, 2, 2))
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


def test_hermitian_flag_is_verified(quick_spec):
    sub = quick_spec.subspace(("a2",))
    with pytest.raises(ValueError):
        LinearOperator(sub, ladder(quick_spec, "a2", "raise").matrix, hermitian=True)
    skew = np.array([[1.0, 1e-3], [0.0, 1.0]])
    with pytest.raises(ValueError, match="hermitian"):
        LinearOperator(sub, blocks=((slice(0, 1), np.eye(1)), (slice(1, 3), skew)), hermitian=True)


def test_adjoint_preserves_flags(quick_spec):
    n = number_op(quick_spec, "a2")
    assert n.adjoint().hermitian
    assert np.array_equal(n.adjoint().matrix, n.matrix.conj().T)


def test_inner_is_conjugate_linear_in_first(quick_spec):
    rng = np.random.default_rng(11)
    x = PureState(quick_spec, rng.standard_normal(quick_spec.dim) + 1j * rng.standard_normal(quick_spec.dim))
    y = PureState(quick_spec, rng.standard_normal(quick_spec.dim) + 1j * rng.standard_normal(quick_spec.dim))
    assert inner(x, y) == pytest.approx(np.conj(inner(y, x)))
    assert inner(x, x).real == pytest.approx(x.norm2)
    with pytest.raises(ValueError):
        inner(x, vacuum(HilbertSpec(MODES, (1, 1, 1, 1, 1, 1))))


def test_vacuum_and_basis_state(quick_spec):
    assert vacuum(quick_spec).amplitudes[0] == 1.0
    occ = (1, 0, 2, 1, 0, 2)
    state = basis_state(quick_spec, occ)
    assert state.amplitudes[quick_spec.index_of(occ)] == 1.0
    assert state.norm2 == 1.0


def test_density_operator_invariants(quick_spec):
    left = quick_spec.subspace(("a1", "b1"))
    rho = DensityOperator(left, np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex))
    assert rho.trace == pytest.approx(1.0)
    assert max(rho.invariant_residuals().values()) < 1e-15
    rho.validate()

    short = DensityOperator(left, np.diag([0.5, 0.0, 0.0, 0.0]).astype(complex))
    with pytest.raises(ValueError, match="trace"):
        short.validate()
    leaked = DensityOperator(left, np.diag([0.5, 0.0, 0.0, 0.0]).astype(complex), leakage=0.5)
    leaked.validate()

    skew = np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex)
    skew[0, 1] = 1e-3
    with pytest.raises(ValueError, match="hermiticity"):
        DensityOperator(left, skew).validate()

    dented = np.diag([1.1, -0.1, 0.0, 0.0]).astype(complex)
    with pytest.raises(ValueError, match="negativity"):
        DensityOperator(left, dented).validate()


def test_identity_flags(quick_spec):
    op = identity(quick_spec)
    assert op.hermitian and op.unitary
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


def test_apply_result_is_read_only_and_callers_arrays_are_copied(quick_spec):
    amps = np.zeros(quick_spec.dim, dtype=complex)
    amps[0] = 1.0
    psi = PureState(quick_spec, amps)
    amps[0] = 5.0
    assert psi.amplitudes[0] == 1.0
    out = apply(ladder(quick_spec, "a3", "raise"), psi)
    assert not out.amplitudes.flags.writeable
    with pytest.raises(ValueError):
        out.amplitudes[0] = 1.0


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
    spec = HilbertSpec((mode("a3"),), (3,))
    vec = np.array([0.5, 0.5j, -0.5, 0.25 + 0.25j])
    kept = vec.copy()
    state = product_state(spec, [(2.0 - 1.0j, {"a3": vec})], scale=0.5)
    assert np.array_equal(vec, kept)
    assert np.array_equal(state.amplitudes, 0.5 * ((2.0 - 1.0j) * kept))


# a2, a3 make a 4 x 5 pair, b2, b3 a 3 x 3 pair and a1, b1 a 2 x 2 pair
_RAGGED = HilbertSpec(MODES, (1, 1, 3, 2, 4, 2))
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
        *random_kraus(_RAGGED, pair, 2).operators,
        *occupation_projectors(_RAGGED, pair).projectors,
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


def test_sector_blocks_are_read_only_and_writable_ones_are_copied():
    u = beamsplitter_unitary(_RAGGED, BeamSplitter(("b2", "b3"), 0.6, 0.8))
    given = [(sl, block.copy()) for sl, block in u.blocks]
    op = LinearOperator(u.spec, blocks=tuple(given))
    for (_, kept), (_, mine) in zip(op.blocks, given):
        assert kept is not mine and not kept.flags.writeable
    given[0][1][0, 0] = 7.0
    assert op.blocks[0][1][0, 0] == u.blocks[0][1][0, 0]


def test_adjoint_keeps_the_blocks_and_embed_is_one_block():
    u = beamsplitter_unitary(_RAGGED, BeamSplitter(("a2", "a3"), 0.6, 0.8))
    back = u.adjoint()
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
