"""Right-side operations: operator families, invariance of the left reduction,
selective conditioning, and the occupation scan."""
import sys
import tracemalloc

import numpy as np
import pytest

from kalamidas import (
    PROBABILITY_FLOOR,
    ExperimentConfig,
    LinearOperator,
    PureState,
    apply,
    HilbertSpec,
    conditional_left_by_occupation,
    evolve,
    initial_state_with_coherent,
    occupation_projectors,
    random_kraus,
    random_right_unitary,
    run_experiment,
    reduce_left,
    trace_distance,
)
from kalamidas import channels, experiment
from kalamidas.channels import branch_gram, channel_gram, haar_channels_left
from kalamidas.experiment import _RIGHT_PAIRS, _one_blas_thread, selective_ranking
from kalamidas.hilbert import embed
from kalamidas.nosignal import invariant_residuals, normalized

import fock
from fock import (
    branches_at,
    completeness_defect,
    haar_isometry_reference,
    identity,
    nonselective_left,
    placed_left_state,
    selective_outcome,
    tuple_projectors,
    vacuum,
)


def _random_state(spec, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
    return PureState(spec, amps / np.linalg.norm(amps))


def _dense_nonselective_left(state, operators):
    """Reference: sum_k of the left reduction of embed(A_k) psi, each branch
    built with the full matrix."""
    branches = (
        reduce_left(PureState(state.spec, embed(a, state.spec).matrix @ state.amplitudes))
        for a in operators
    )
    return sum(branches)


def _assert_projector_family(projectors, atol=1e-10):
    """Hermitian idempotents summing to I, hence pairwise orthogonal."""
    for p in projectors:
        m = p.matrix
        assert np.abs(m - m.conj().T).max() <= atol
        assert np.abs(m @ m - m).max() <= atol
    assert completeness_defect(projectors) <= atol


def test_occupation_projectors_total_group(small_spec):
    family = occupation_projectors(small_spec, ("a2", "b2", "a3", "b3"))
    _assert_projector_family(family)
    assert len(family) == 5
    for i, p in enumerate(family):
        for q in family[i + 1 :]:
            assert np.abs(p.matrix @ q.matrix).max() < 1e-15


def test_occupation_projectors_tuple_group(quick_spec):
    family = tuple_projectors(quick_spec, ("a2", "b2"))
    _assert_projector_family(family)
    assert len(family) == quick_spec.subspace(("a2", "b2")).dim
    for p in family:
        assert int(np.trace(p.matrix).real) == 1


def test_occupation_projectors_guards(quick_spec):
    with pytest.raises(ValueError):
        occupation_projectors(quick_spec, ("a1", "b1"))


def test_projective_channel_preserves_left_state(small_spec):
    psi = _random_state(small_spec, 5)
    family = occupation_projectors(small_spec, ("a2", "b2", "a3", "b3"))
    after = nonselective_left(psi, family)
    dense = _dense_nonselective_left(psi, family)
    assert np.abs(after - dense).max() < 1e-14
    assert trace_distance(after, reduce_left(psi)) < 1e-12
    assert np.trace(after).real == pytest.approx(psi.norm2, abs=1e-12)


def test_kraus_channel_preserves_left_state(small_spec):
    psi = _random_state(small_spec, 6)
    family = random_kraus(small_spec, ("a2", "b2", "a3", "b3"), seed=42, k=3)
    assert completeness_defect(family) < 1e-12
    after = nonselective_left(psi, family)
    dense = _dense_nonselective_left(psi, family)
    assert np.abs(after - dense).max() < 1e-14
    assert trace_distance(after, reduce_left(psi)) < 1e-12


def test_projectors_are_a_kraus_special_case(small_spec):
    family = occupation_projectors(small_spec, ("a2", "b2", "a3", "b3"))
    assert completeness_defect(family) < 1e-14


def test_unitary_channel_matches_the_dense_conjugation(small_spec):
    rng = np.random.default_rng(8)
    amps = rng.standard_normal(small_spec.dim) + 1j * rng.standard_normal(small_spec.dim)
    amps *= 0.9 / np.linalg.norm(amps)
    psi = PureState(small_spec, amps, leakage=1.0 - 0.81)
    u = random_right_unitary(small_spec, ("a2", "a3"), seed=3)
    after = nonselective_left(psi, (u,))
    assert np.abs(after - _dense_nonselective_left(psi, (u,))).max() < 1e-14
    assert trace_distance(after, reduce_left(psi)) < 1e-12
    assert np.trace(after).real == pytest.approx(1.0 - psi.leakage, abs=1e-12)
    assert max(invariant_residuals(after, psi.leakage).values()) < 1e-12


def test_nonselective_left_guards(small_spec):
    psi = _random_state(small_spec, 9)
    left_u = identity(small_spec.subspace(("a1", "b1")))
    with pytest.raises(ValueError, match="right modes"):
        nonselective_left(psi, (left_u,))
    with pytest.raises(ValueError, match="at least one"):
        nonselective_left(psi, ())


def test_random_right_unitary_is_unitary_and_seeded(small_spec):
    u1 = random_right_unitary(small_spec, ("a2", "b3"), seed=11)
    u2 = random_right_unitary(small_spec, ("a2", "b3"), seed=11)
    u3 = random_right_unitary(small_spec, ("a2", "b3"), seed=12)
    gram = u1.matrix.conj().T @ u1.matrix
    assert np.abs(gram - np.eye(u1.spec.dim)).max() < 1e-12
    assert np.array_equal(u1.matrix, u2.matrix)
    assert not np.array_equal(u1.matrix, u3.matrix)
    with pytest.raises(ValueError):
        random_right_unitary(small_spec, ("a1", "b1"), seed=1)


def test_random_kraus_seeded_and_guarded(small_spec):
    f1 = random_kraus(small_spec, ("b2", "b3"), seed=(0, 3, 1), k=4)
    f2 = random_kraus(small_spec, ("b2", "b3"), seed=(0, 3, 1), k=4)
    assert len(f1) == 4
    assert all(np.array_equal(a.matrix, b.matrix) for a, b in zip(f1, f2))
    assert completeness_defect(f1) < 1e-10
    # read-only views of one isometry; the blocks' rows are disjoint, so each
    # is checked against the buffer they share
    base = f1[0].matrix.base
    assert all(not a.matrix.flags.writeable for a in f1)
    assert all(np.shares_memory(a.matrix, base) for a in f1)
    (single,) = random_kraus(small_spec, ("b2", "b3"), seed=5, k=1)
    gram = single.matrix.conj().T @ single.matrix
    assert np.abs(gram - np.eye(single.spec.dim)).max() < 1e-12
    # one draw: the unitary is the one-operator family of the same seed
    u = random_right_unitary(small_spec, ("b2", "b3"), seed=5)
    assert np.array_equal(u.matrix, single.matrix)
    with pytest.raises(ValueError):
        random_kraus(small_spec, ("b2", "b3"), seed=5, k=0)


def test_completeness_defect_sees_an_incomplete_family(small_spec):
    a = identity(small_spec.subspace(("a2",)))
    halved = LinearOperator(a.spec, a.matrix / 2)
    assert completeness_defect((a,)) == 0.0
    assert completeness_defect((a, halved)) == pytest.approx(0.25)


def test_selective_outcome_probabilities(quick_spec):
    psi = _random_state(quick_spec, 13)
    family = tuple_projectors(quick_spec, ("a2", "b2"))
    total = 0.0
    for p in family:
        cond, prob = selective_outcome(psi, p)
        total += prob
        if cond is not None:
            assert cond.norm2 == pytest.approx(1.0, abs=1e-12)
    assert total == pytest.approx(psi.norm2, abs=1e-12)


def test_selective_outcome_null_below_floor(quick_spec):
    psi = vacuum(quick_spec)
    family = tuple_projectors(quick_spec, ("a2", "b2"))
    occupied = family[1]
    cond, prob = selective_outcome(psi, occupied)
    assert cond is None
    assert prob < PROBABILITY_FLOOR


def test_scan_matches_projector_by_projector_conditioning(quick_spec):
    psi = _random_state(quick_spec, 17)
    outcomes, _ = fock.conditional_left_by_occupation(psi, ("a2", "b2"))
    scanned = {occ: (prob, cond) for occ, prob, cond in outcomes}
    assert len(scanned) == len(outcomes)
    family = tuple_projectors(quick_spec, ("a2", "b2"))
    sub = quick_spec.subspace(("a2", "b2"))
    order = []
    for k, p in enumerate(family):
        occ = sub.occupation_of(k)
        cond, prob = selective_outcome(psi, p)
        # an outcome is listed exactly when selective_outcome conditions on it
        assert (occ in scanned) == (cond is not None)
        if cond is not None:
            order.append(occ)
            assert scanned[occ][0] == pytest.approx(prob, abs=1e-13)
            assert trace_distance(scanned[occ][1], reduce_left(cond)) < 1e-12
    assert [occ for occ, _, _ in outcomes] == order  # scan order


def test_scan_mixture_restores_unconditional_state(quick_spec):
    psi = _random_state(quick_spec, 19)
    _, mixture = fock.conditional_left_by_occupation(psi, ("a2", "b2"))
    assert np.abs(mixture - reduce_left(psi)).max() < 1e-14


def test_scan_keeps_subfloor_mass_in_the_mixture(quick_spec):
    psi = vacuum(quick_spec)
    outcomes, mixture = fock.conditional_left_by_occupation(psi, ("a2", "b2"))
    assert len(outcomes) == 1
    occ, prob, _ = outcomes[0]
    assert occ == (0, 0)
    assert prob == pytest.approx(1.0)
    assert np.trace(mixture).real == pytest.approx(1.0, abs=1e-14)


def test_scan_carries_leakage(quick_spec):
    rng = np.random.default_rng(23)
    amps = rng.standard_normal(quick_spec.dim) + 1j * rng.standard_normal(quick_spec.dim)
    amps *= 0.9 / np.linalg.norm(amps)
    state = PureState(quick_spec, amps, leakage=1.0 - 0.81)
    _, mixture = fock.conditional_left_by_occupation(state, ("a2", "b2"))
    assert np.trace(mixture).real == pytest.approx(0.81, abs=1e-12)
    assert max(invariant_residuals(mixture, state.leakage).values()) < 1e-10


def test_scan_rejects_left_modes(quick_spec):
    psi = _random_state(quick_spec, 29)
    with pytest.raises(ValueError):
        fock.conditional_left_by_occupation(psi, ("a1", "a2"))


def test_channel_invariance_under_embedded_unitary_composition(small_spec):
    psi = _random_state(small_spec, 31)
    u1 = random_right_unitary(small_spec, ("a2", "b2"), seed=1)
    u2 = random_right_unitary(small_spec, ("a3", "b3"), seed=2)
    baseline = reduce_left(psi)
    after = reduce_left(apply(embed(u2, small_spec), apply(embed(u1, small_spec), psi)))
    assert trace_distance(after, baseline) < 1e-12


@pytest.mark.parametrize("spec_name", ["small_spec", "quick_spec"])
@pytest.mark.parametrize("group", ["total", "tuple"])
@pytest.mark.parametrize("modes", [("a2", "b2"), ("a3",), ("a2", "b2", "a3", "b3")])
def test_projector_masks_equal_the_dense_product(
    request, tensordot_apply, spec_name, group, modes
):
    spec = request.getfixturevalue(spec_name)
    psi = _random_state(spec, 5)
    family = (occupation_projectors if group == "total" else tuple_projectors)(spec, modes)
    for p in family:
        assert all(block.shape == (1, 1) for _, block in p.blocks)
        assert np.array_equal(apply(p, psi).amplitudes, tensordot_apply(p, psi))


def test_occupation_projectors_allocate_no_dense_matrix():
    spec = ExperimentConfig(alpha=1.0).hilbert_spec()
    dense = 16 * spec.subspace(("a2", "b2")).dim ** 2  # one 484 x 484 matrix
    tracemalloc.start()
    try:
        family = occupation_projectors(spec, ("a2", "b2"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(family) == 43
    assert peak < dense


@pytest.mark.parametrize("cutoff", [21, 15], ids=["d=484", "d=256"])
def test_haar_draws_keep_the_bits_of_the_whole_buffer_qr(cutoff):
    """The Gaussian is drawn a chunk of rows at a time and factored by
    geqrf/ungqr in place; every bit equals the whole draw factored by
    scipy.linalg.qr, at the pair dimensions of the alpha = 1 and alpha = 0
    defaults (484^2, 1452 x 484, 256^2, 768 x 256)."""
    spec = HilbertSpec(("a2", "b2"), (cutoff, cutoff))
    d = spec.dim
    u = random_right_unitary(spec, ("a2", "b2"), (0, 2, 7))
    assert np.array_equal(u.matrix, haar_isometry_reference(d, 1, (0, 2, 7)))
    family = random_kraus(spec, ("a2", "b2"), (0, 3, 7), k=3)
    want = haar_isometry_reference(d, 3, (0, 3, 7))
    assert np.array_equal(np.vstack([a.matrix for a in family]), want)


def test_haar_channels_left_equals_drawing_and_applying_one_at_a_time(quick_spec):
    """The two lanes change no bit: each Gram matrix equals channel_gram
    of the family drawn on its own at one BLAS thread, in draw order."""
    config = ExperimentConfig(alpha=0.6, phi=0.9, cutoffs=quick_spec.cutoffs)
    branches = branches_at(config, config.alpha, config.phi)
    pairs = [("a2", "b2"), ("a2", "a3"), ("b2", "b3"), ("a3", "b3"), ("a2", "b3")]
    draws = [(pair, (3, 2, k), 1) for k, pair in enumerate(pairs)]
    draws += [(pair, (3, 3, k), 3) for k, pair in enumerate(pairs)]
    with _one_blas_thread():  # as run_experiment calls the battery
        got = haar_channels_left(quick_spec, branches, draws)
        want = [
            channel_gram((random_right_unitary(quick_spec, modes, seed),)
                         if k == 1 else random_kraus(quick_spec, modes, seed, k), branches)
            for modes, seed, k in draws
        ]
    assert len(got) == len(want)
    for gram, ref in zip(got, want):
        assert np.array_equal(gram, ref)
    assert haar_channels_left(quick_spec, branches, []) == []


def test_the_lanes_take_every_draw_once_under_fast_thread_switches(quick_spec, monkeypatch):
    """With the interpreter switching threads every microsecond, the two
    lanes draw each seed exactly once and store each result at its draw's
    place."""
    config = ExperimentConfig(alpha=0.0, cutoffs=quick_spec.cutoffs)
    branches = branches_at(config, 0.0, 0.0)
    draws = [(("a2", "b3"), (5, 2, k), 1) for k in range(256)]
    seeds = []
    draw = channels._haar_isometry

    def recording(z, seed):
        seeds.append(seed)
        return draw(z, seed)

    monkeypatch.setattr(channels, "_haar_isometry", recording)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _one_blas_thread():
            got = haar_channels_left(quick_spec, branches, draws)
    finally:
        sys.setswitchinterval(interval)
    assert sorted(seeds) == [seed for _, seed, _ in draws]
    monkeypatch.undo()
    with _one_blas_thread():
        want = [channel_gram((random_right_unitary(quick_spec, m, seed),), branches)
                for m, seed, _ in draws]
    assert all(np.array_equal(g, w) for g, w in zip(got, want, strict=True))


def test_haar_channels_left_runs_at_one_blas_thread_and_restores_the_counts(
    quick_spec, blas_thread_counts, monkeypatch
):
    """The battery sets no thread count itself: its draws run at one thread
    inside a verdict, as run_experiment calls it, and both counts are back
    after the verdict."""
    during = []
    draw = channels._haar_isometry

    def recording(z, seed):
        during.append(blas_thread_counts())
        return draw(z, seed)

    monkeypatch.setattr(channels, "_haar_isometry", recording)
    config = ExperimentConfig(alpha=0.0, cutoffs=quick_spec.cutoffs)
    draws = [(("a2", "b2"), (0, 2, k), 1) for k in range(4)]
    haar_channels_left(quick_spec, branches_at(config, 0.0, 0.0), draws)
    assert during == [[2, 2]] * len(draws)
    during.clear()
    run_experiment(config)
    assert during == [[1, 1]] * 2 * experiment._CHANNEL_TRIALS
    assert blas_thread_counts() == [2, 2]


_REFERENCE_CONFIGS = {
    "quick": dict(alpha=1.0, phi=0.7, cutoffs=(1, 1, 2, 2, 2, 2)),
    "ragged": dict(alpha=0.5 + 0.3j, phi=2.0, t=0.6, cutoffs=(1, 1, 3, 2, 4, 2)),
    "b1=2": dict(alpha=0.5, phi=1.3, t=0.3, cutoffs=(1, 2, 3, 3, 3, 3)),
    "a3=0": dict(alpha=0.5, phi=-1.0, t=0.8, cutoffs=(1, 1, 3, 3, 0, 3)),
    "t=0": dict(alpha=0.7, phi=1.0, t=0.0, cutoffs=(1, 1, 2, 2, 2, 2)),
    "t=1": dict(alpha=1.0, phi=0.4, t=1.0, cutoffs=(1, 1, 3, 2, 4, 2)),
}


@pytest.mark.filterwarnings("ignore::kalamidas.CutoffAdequacyWarning")
@pytest.mark.parametrize("name", list(_REFERENCE_CONFIGS))
def test_channel_gram_equals_the_six_mode_reference(name):
    """The left state from the arm vectors' Gram matrix equals the six-mode
    reduction of every branch of the evolved state, for a Haar unitary and a
    Kraus family on each right pair and occupation projectors on a pair
    across the arms and on an arm's own pair."""
    config = ExperimentConfig(**_REFERENCE_CONFIGS[name])
    spec = config.hilbert_spec()
    psi = evolve(initial_state_with_coherent(config), config)
    branches = branches_at(config, config.alpha, config.phi)
    families = [
        family
        for k, pair in enumerate(_RIGHT_PAIRS)
        for family in ((random_right_unitary(spec, pair, k),), random_kraus(spec, pair, k, k=3))
    ]
    families += [occupation_projectors(spec, pair) for pair in [("a2", "b2"), ("a2", "a3")]]
    for family in families:
        got = placed_left_state(config, channel_gram(family, branches))
        want = nonselective_left(psi, family)
        assert np.abs(got - want).max() <= 1e-14


def test_channel_gram_refuses_operators_off_a_right_pair(quick_spec):
    branches = branches_at(ExperimentConfig(alpha=0.0, cutoffs=quick_spec.cutoffs), 0.0, 0.0)
    single = random_right_unitary(quick_spec, ("a2",), 1)
    left = identity(quick_spec.subspace(("a1", "b1")))
    wide = random_right_unitary(quick_spec, ("a2", "b2", "a3"), 1)
    for family in [(single,), (left,), (wide,)]:
        with pytest.raises(ValueError, match="right"):
            channel_gram(family, branches)
    with pytest.raises(ValueError, match="at least one"):
        channel_gram((), branches)


def test_a_cross_pair_kraus_family_is_contracted_a_chunk_of_rows_at_a_time():
    """At the alpha = 1 default one operator on (a2, b2) is 3.6 MiB and one
    stored state 7.2 MiB. The contraction allocates no temporary above one
    64-row chunk (0.47 MiB): the peak is the chunk, the two products made
    from it and small arrays."""
    config = ExperimentConfig()
    branches = branches_at(config, config.alpha, config.phi)
    family = random_kraus(config.hilbert_spec(), ("a2", "b2"), (0, 3, 0), k=3)
    chunk = 64 * 16 * family[0].spec.dim
    assert chunk < 2**20
    tracemalloc.start()
    try:
        channel_gram(family, branches)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3 * chunk + 2**17


_SCAN_CONFIGS = {
    **_REFERENCE_CONFIGS,
    "alpha=0": dict(alpha=0.0),
    "alpha=0.5": dict(alpha=0.5),
    "alpha=1": dict(),
}


@pytest.mark.filterwarnings("ignore::kalamidas.CutoffAdequacyWarning")
@pytest.mark.parametrize("name", list(_SCAN_CONFIGS))
def test_branch_scan_equals_the_six_mode_reference(name, request):
    """The scan of the arm-pair vectors lists the outcomes of the six-mode
    scan of the evolved state, in scan order, with the same probabilities,
    conditional left states and mixture, and the selective ranking orders
    them as the reference does under the same rule."""
    config = ExperimentConfig(**_SCAN_CONFIGS[name])
    if name == "alpha=1":
        psi = request.getfixturevalue("evolved_states")[0]
    else:
        psi = evolve(initial_state_with_coherent(config), config)
    branches = branches_at(config, config.alpha, config.phi)
    outcomes, gram = conditional_left_by_occupation(branches, ("a2", "b2"))
    want, want_mixture = fock.conditional_left_by_occupation(psi, ("a2", "b2"))
    assert [occ for occ, _, _ in outcomes] == [occ for occ, _, _ in want]
    for (_, p, cond), (_, p_ref, ref) in zip(outcomes, want):
        assert abs(p - p_ref) <= 1e-14
        assert np.trace(cond).real == pytest.approx(1.0, abs=1e-14)
        assert np.abs(placed_left_state(config, cond) - ref).max() <= 1e-13
    assert np.abs(placed_left_state(config, gram) - want_mixture).max() <= 1e-13

    baseline = normalized(want_mixture)
    scores = [(occ, p * trace_distance(ref, baseline)) for occ, p, ref in want]
    ranked = sorted(scores, key=lambda row: -round(row[1], 15))
    assert [row[0] for row in selective_ranking(config)[0]] == [occ for occ, _ in ranked]


def test_branch_gram_is_the_scan_mixture():
    """The Gram matrix of the branches themselves is the sum of the scan's
    outcome Gram matrices, every outcome included."""
    config = ExperimentConfig(**_REFERENCE_CONFIGS["quick"])
    branches = branches_at(config, config.alpha, config.phi)
    _, mixture = conditional_left_by_occupation(branches, ("a2", "b2"))
    assert np.abs(branch_gram(branches) - mixture).max() <= 1e-15


@pytest.mark.parametrize("modes", [("a2", "a3"), ("a1", "b2"), ("a2",)])
def test_branch_scan_needs_one_mode_of_each_arm(quick_spec, modes):
    branches = branches_at(ExperimentConfig(alpha=0.0, cutoffs=quick_spec.cutoffs), 0.0, 0.0)
    with pytest.raises(ValueError, match="one mode of each arm"):
        conditional_left_by_occupation(branches, modes)
