"""Left reduction against a brute-force oracle, expectations, metric checks,
and the randomized gap search."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalamidas import (
    LEFT_LABELS,
    MODES,
    DensityOperator,
    HilbertSpec,
    LinearOperator,
    PureState,
    analytic_left_expectation,
    embed,
    expectation,
    ladder,
    number_op,
    random_left_observable,
    reduce_left,
    signaling_gap,
    spectral_norm,
    trace_distance,
)


def _random_state(spec, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
    amps *= scale / np.linalg.norm(amps)
    return PureState(spec, amps, leakage=max(0.0, 1.0 - scale * scale))


def _left_pair_spec():
    return HilbertSpec(MODES[:2], (1, 1))


def _brute_force_reduction(state):
    """Reference partial trace written as explicit loops over occupations."""
    spec = state.spec
    left = spec.subspace(LEFT_LABELS)
    out = np.zeros((left.dim, left.dim), dtype=complex)
    for i in range(spec.dim):
        occ_i = spec.occupation_of(i)
        for j in range(spec.dim):
            occ_j = spec.occupation_of(j)
            if occ_i[2:] != occ_j[2:]:
                continue
            row = left.index_of(occ_i[:2])
            col = left.index_of(occ_j[:2])
            out[row, col] += state.amplitudes[i] * np.conj(state.amplitudes[j])
    return out


def test_reduce_left_matches_brute_force(quick_spec):
    psi = _random_state(quick_spec, 101)
    fast = reduce_left(psi).matrix
    slow = _brute_force_reduction(psi)
    assert np.abs(fast - slow).max() < 1e-13


def test_evolved_bare_state_reduces_to_half_mixture():
    from kalamidas import ExperimentConfig, evolve, initial_state_bare

    config = ExperimentConfig(alpha=0.0, phi=0.0, cutoffs=(2, 2, 2, 2, 2, 2))
    rho = reduce_left(evolve(initial_state_bare(config), config))
    left = rho.spec
    expected = np.zeros((left.dim, left.dim), dtype=np.complex128)
    expected[left.index_of((1, 0)), left.index_of((1, 0))] = 0.5
    expected[left.index_of((0, 1)), left.index_of((0, 1))] = 0.5
    assert np.abs(rho.matrix - expected).max() < 1e-10
    assert np.abs(_brute_force_reduction(
        evolve(initial_state_bare(config), config)
    ) - expected).max() < 1e-10


def test_reduce_left_of_product_state_is_exact(quick_spec):
    rng = np.random.default_rng(107)
    left = quick_spec.subspace(LEFT_LABELS)
    u = rng.standard_normal(left.dim) + 1j * rng.standard_normal(left.dim)
    u /= np.linalg.norm(u)
    rest_dim = quick_spec.dim // left.dim
    v = rng.standard_normal(rest_dim) + 1j * rng.standard_normal(rest_dim)
    v /= np.linalg.norm(v)
    psi = PureState(quick_spec, np.kron(u, v))
    assert np.abs(reduce_left(psi).matrix - np.outer(u, u.conj())).max() < 1e-14


def test_reduce_left_carries_leakage(quick_spec):
    psi = _random_state(quick_spec, 109, scale=0.8)
    rho = reduce_left(psi)
    assert rho.leakage == pytest.approx(psi.leakage)
    assert rho.trace == pytest.approx(1.0 - psi.leakage, abs=1e-12)
    assert max(rho.invariant_residuals().values()) < 1e-12


def test_reduce_left_requires_left_modes(quick_spec):
    right = quick_spec.subspace(("a2", "a3"))
    psi = PureState(right, np.eye(1, right.dim, 0).ravel())
    with pytest.raises(ValueError):
        reduce_left(psi)


def test_expectation_matches_manual_trace():
    left = _left_pair_spec()
    rho = DensityOperator(left, np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex))
    h = random_left_observable(left, 5)
    manual = float(np.trace(rho.matrix @ h.matrix).real)
    assert expectation(rho, h) == pytest.approx(manual, abs=1e-14)


def test_expectation_guards():
    left = _left_pair_spec()
    rho = DensityOperator(left, np.eye(4, dtype=complex) / 4)
    plain = LinearOperator(left, np.eye(4, dtype=complex))
    with pytest.raises(ValueError):
        expectation(rho, plain)
    other = random_left_observable(HilbertSpec(MODES[:2], (2, 2)), 1)
    with pytest.raises(ValueError):
        expectation(rho, other)


def test_expectation_rejects_imaginary_residue():
    left = _left_pair_spec()
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    rho = DensityOperator(left, skew)
    h_matrix = np.zeros((4, 4), dtype=complex)
    h_matrix[0, 1] = -1j
    h_matrix[1, 0] = 1j
    h = LinearOperator(left, h_matrix, hermitian=True)
    with pytest.raises(ValueError, match="imaginary"):
        expectation(rho, h)


def _left_number(label):
    left = _left_pair_spec()
    return embed(number_op(left, label), left)


def test_analytic_anchors():
    left = _left_pair_spec()
    assert analytic_left_expectation(_left_number("a1")) == pytest.approx(0.5)
    total = LinearOperator(
        left, _left_number("a1").matrix + _left_number("b1").matrix, hermitian=True
    )
    assert analytic_left_expectation(total) == pytest.approx(1.0)
    up_a = embed(ladder(left, "a1", "raise"), left).matrix
    up_b = embed(ladder(left, "b1", "raise"), left).matrix
    hop = LinearOperator(left, up_a @ up_b.conj().T + up_b @ up_a.conj().T, hermitian=True)
    assert analytic_left_expectation(hop) == pytest.approx(0.0, abs=1e-15)


def test_analytic_guards(quick_spec):
    with pytest.raises(ValueError):
        analytic_left_expectation(LinearOperator(_left_pair_spec(), np.eye(4, dtype=complex)))
    wrong_space = random_left_observable(quick_spec.subspace(("a2", "b2")), 2)
    with pytest.raises(ValueError):
        analytic_left_expectation(wrong_space)


def test_trace_distance_extremes():
    left = _left_pair_spec()
    pure0 = DensityOperator(left, np.diag([1.0, 0, 0, 0]).astype(complex))
    pure1 = DensityOperator(left, np.diag([0, 1.0, 0, 0]).astype(complex))
    assert trace_distance(pure0, pure1) == pytest.approx(1.0)
    assert trace_distance(pure0, pure0) == 0.0
    with pytest.raises(ValueError):
        trace_distance(pure0, DensityOperator(HilbertSpec(MODES[:2], (2, 2)), np.eye(9, dtype=complex) / 9))


def _random_density(seed):
    left = _left_pair_spec()
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    m = g @ g.conj().T
    return DensityOperator(left, m / np.trace(m).real)


@settings(max_examples=25, deadline=None)
@given(sa=st.integers(0, 10**6), sb=st.integers(0, 10**6), sc=st.integers(0, 10**6))
def test_trace_distance_is_a_metric(sa, sb, sc):
    rho_a, rho_b, rho_c = _random_density(sa), _random_density(sb), _random_density(sc)
    dab = trace_distance(rho_a, rho_b)
    assert dab >= 0.0
    assert dab == pytest.approx(trace_distance(rho_b, rho_a), abs=1e-13)
    assert dab <= trace_distance(rho_a, rho_c) + trace_distance(rho_c, rho_b) + 1e-12
    assert dab <= 1.0 + 1e-12


def test_spectral_norm_paths():
    left = _left_pair_spec()
    h = random_left_observable(left, 55)
    assert spectral_norm(h) == pytest.approx(
        float(np.abs(np.linalg.eigvalsh(h.matrix)).max())
    )
    rng = np.random.default_rng(56)
    g = LinearOperator(left, rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert spectral_norm(g) == pytest.approx(float(np.linalg.norm(g.matrix, 2)))


def test_random_left_observable_is_exactly_hermitian():
    left = _left_pair_spec()
    h1 = random_left_observable(left, 77)
    h2 = random_left_observable(left, 77)
    h3 = random_left_observable(left, (77, 1))
    assert np.array_equal(h1.matrix, h1.matrix.conj().T)
    assert np.array_equal(h1.matrix, h2.matrix)
    assert not np.array_equal(h1.matrix, h3.matrix)
    assert h1.hermitian


def test_signaling_gap_zero_for_identical_states():
    rho = _random_density(3)
    assert signaling_gap(rho, rho, trials=10, seed=0) == 0.0


def test_signaling_gap_matches_manual_search():
    rho_a = _random_density(4)
    rho_b = _random_density(5)
    got = signaling_gap(rho_a, rho_b, trials=3, seed=9)
    delta = rho_a.matrix - rho_b.matrix
    manual = 0.0
    for k in range(3):
        h = random_left_observable(rho_a.spec, (9, k))
        manual = max(manual, abs(np.trace(delta @ h.matrix)) / spectral_norm(h))
    assert got == pytest.approx(manual, abs=1e-15)
    assert got == signaling_gap(rho_a, rho_b, trials=3, seed=9)


def test_signaling_gap_detects_genuinely_different_states():
    left = _left_pair_spec()
    pure0 = DensityOperator(left, np.diag([1.0, 0, 0, 0]).astype(complex))
    pure1 = DensityOperator(left, np.diag([0, 1.0, 0, 0]).astype(complex))
    assert signaling_gap(pure0, pure1, trials=25, seed=1) > 0.1


def test_signaling_gap_guards():
    rho = _random_density(6)
    with pytest.raises(ValueError):
        signaling_gap(rho, rho, trials=0, seed=0)
    other = DensityOperator(HilbertSpec(MODES[:2], (2, 2)), np.eye(9, dtype=complex) / 9)
    with pytest.raises(ValueError):
        signaling_gap(rho, other, trials=2, seed=0)
