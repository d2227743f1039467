"""Right-side operations: families, invariance of the left reduction,
selective conditioning, and the occupation scan."""
import tracemalloc

import numpy as np
import pytest

from kalamidas import (
    PROBABILITY_FLOOR,
    ExperimentConfig,
    HilbertSpec,
    KrausFamily,
    LinearOperator,
    MODES,
    ProjectorFamily,
    PureState,
    apply,
    conditional_left_by_occupation,
    embed,
    identity,
    nonselective_left,
    occupation_projectors,
    random_kraus,
    random_right_unitary,
    reduce_left,
    selective_outcome,
    trace_distance,
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
    return sum(rho.matrix for rho in branches)


def test_occupation_projectors_total_group(small_spec):
    family = occupation_projectors(small_spec, ("a2", "b2", "a3", "b3"), group="total")
    family.validate()
    assert len(family.projectors) == 5
    for i, p in enumerate(family.projectors):
        for q in family.projectors[i + 1 :]:
            assert np.abs(p.matrix @ q.matrix).max() < 1e-15


def test_occupation_projectors_tuple_group(quick_spec):
    family = occupation_projectors(quick_spec, ("a2", "b2"), group="tuple")
    family.validate()
    sub = family.spec
    assert len(family.projectors) == sub.dim
    for p in family.projectors:
        assert int(np.trace(p.matrix).real) == 1


def test_occupation_projectors_guards(quick_spec):
    with pytest.raises(ValueError):
        occupation_projectors(quick_spec, ("a2", "b2"), group="parity")
    with pytest.raises(ValueError):
        occupation_projectors(quick_spec, ("a1", "b1"))


def test_projective_channel_preserves_left_state(small_spec):
    psi = _random_state(small_spec, 5)
    family = occupation_projectors(small_spec, ("a2", "b2", "a3", "b3"), group="total")
    after = nonselective_left(psi, family.projectors)
    dense = _dense_nonselective_left(psi, family.projectors)
    assert np.abs(after.matrix - dense).max() < 1e-14
    assert trace_distance(after, reduce_left(psi)) < 1e-12
    assert after.trace == pytest.approx(psi.norm2, abs=1e-12)


def test_kraus_channel_preserves_left_state(small_spec):
    psi = _random_state(small_spec, 6)
    family = random_kraus(small_spec, ("a2", "b2", "a3", "b3"), seed=42, k=3)
    assert family.completeness_defect() < 1e-12
    after = nonselective_left(psi, family.operators)
    dense = _dense_nonselective_left(psi, family.operators)
    assert np.abs(after.matrix - dense).max() < 1e-14
    assert trace_distance(after, reduce_left(psi)) < 1e-12


def test_projectors_are_a_kraus_special_case(small_spec):
    family = occupation_projectors(small_spec, ("a2", "b2", "a3", "b3"), group="total")
    as_kraus = KrausFamily(family.projectors).validate()
    assert as_kraus.completeness_defect() < 1e-14


def test_unitary_channel_matches_the_dense_conjugation(small_spec):
    rng = np.random.default_rng(8)
    amps = rng.standard_normal(small_spec.dim) + 1j * rng.standard_normal(small_spec.dim)
    amps *= 0.9 / np.linalg.norm(amps)
    psi = PureState(small_spec, amps, leakage=1.0 - 0.81)
    u = random_right_unitary(small_spec, ("a2", "a3"), seed=3)
    after = nonselective_left(psi, (u,))
    assert np.abs(after.matrix - _dense_nonselective_left(psi, (u,))).max() < 1e-14
    assert trace_distance(after, reduce_left(psi)) < 1e-12
    assert after.leakage == psi.leakage
    assert max(after.invariant_residuals().values()) < 1e-12


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
    assert len(f1.operators) == 4
    assert all(
        np.array_equal(a.matrix, b.matrix)
        for a, b in zip(f1.operators, f2.operators)
    )
    f1.validate()
    single = random_kraus(small_spec, ("b2", "b3"), seed=5, k=1)
    gram = single.operators[0].matrix.conj().T @ single.operators[0].matrix
    assert np.abs(gram - np.eye(single.spec.dim)).max() < 1e-12
    with pytest.raises(ValueError):
        random_kraus(small_spec, ("b2", "b3"), seed=5, k=0)


def test_family_construction_guards(small_spec):
    with pytest.raises(ValueError):
        KrausFamily(())
    with pytest.raises(ValueError):
        ProjectorFamily(())
    a = identity(small_spec.subspace(("a2",)))
    b = identity(small_spec.subspace(("b2",)))
    with pytest.raises(ValueError):
        KrausFamily((a, b))
    ProjectorFamily((a,)).validate()
    halved = LinearOperator(a.spec, a.matrix / 2)
    with pytest.raises(ValueError):
        ProjectorFamily((a, halved)).validate()


def test_selective_outcome_probabilities(quick_spec):
    psi = _random_state(quick_spec, 13)
    family = occupation_projectors(quick_spec, ("a2", "b2"), group="tuple")
    total = 0.0
    for p in family.projectors:
        cond, prob = selective_outcome(psi, p)
        total += prob
        if cond is not None:
            assert cond.norm2 == pytest.approx(1.0, abs=1e-12)
    assert total == pytest.approx(psi.norm2, abs=1e-12)


def test_selective_outcome_null_below_floor(quick_spec):
    psi = vacuum(quick_spec)
    family = occupation_projectors(quick_spec, ("a2", "b2"), group="tuple")
    occupied = family.projectors[1]
    cond, prob = selective_outcome(psi, occupied)
    assert cond is None
    assert prob < PROBABILITY_FLOOR


def test_scan_matches_projector_by_projector_conditioning(quick_spec):
    psi = _random_state(quick_spec, 17)
    scan = conditional_left_by_occupation(psi, ("a2", "b2"))
    family = occupation_projectors(quick_spec, ("a2", "b2"), group="tuple")
    sub = family.spec
    for k, p in enumerate(family.projectors):
        assert scan.occupations[k] == sub.occupation_of(k)
        cond, prob = selective_outcome(psi, p)
        assert scan.probabilities[k] == pytest.approx(prob, abs=1e-13)
        if cond is not None:
            direct = reduce_left(cond)
            assert trace_distance(scan.conditional(k), direct) < 1e-12


def test_scan_mixture_restores_unconditional_state(quick_spec):
    psi = _random_state(quick_spec, 19)
    scan = conditional_left_by_occupation(psi, ("a2", "b2"))
    assert np.abs(scan.mixture().matrix - reduce_left(psi).matrix).max() < 1e-14


def test_scan_keeps_subfloor_mass_in_the_mixture(quick_spec):
    psi = vacuum(quick_spec)
    scan = conditional_left_by_occupation(psi, ("a2", "b2"))
    assert scan.probabilities[0] == pytest.approx(1.0)
    with pytest.raises(ValueError):
        scan.conditional(1)
    assert scan.mixture().trace == pytest.approx(1.0, abs=1e-14)


def test_scan_carries_leakage(quick_spec):
    rng = np.random.default_rng(23)
    amps = rng.standard_normal(quick_spec.dim) + 1j * rng.standard_normal(quick_spec.dim)
    amps *= 0.9 / np.linalg.norm(amps)
    state = PureState(quick_spec, amps, leakage=1.0 - 0.81)
    scan = conditional_left_by_occupation(state, ("a2", "b2"))
    assert scan.leakage == pytest.approx(state.leakage)
    assert scan.mixture().trace == pytest.approx(0.81, abs=1e-12)
    assert max(scan.mixture().invariant_residuals().values()) < 1e-10


def test_scan_rejects_left_modes(quick_spec):
    psi = _random_state(quick_spec, 29)
    with pytest.raises(ValueError):
        conditional_left_by_occupation(psi, ("a1", "a2"))


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
    family = occupation_projectors(spec, modes, group=group)
    for p in family.projectors:
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
    assert len(family.projectors) == 43
    assert peak < dense
