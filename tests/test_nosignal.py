"""Left reduction against a brute-force oracle, expectations, metric checks
on square matrices, and the signaling gap as the exact trace norm."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalamidas import (
    LEFT_LABELS,
    HilbertSpec,
    LinearOperator,
    PureState,
    reduce_left,
    signaling_gap,
    trace_distance,
)
from kalamidas.hilbert import embed
from kalamidas.nosignal import expectation, invariant_residuals, random_left_observable

from fock import analytic_left_state, ladder, number_op, validate


def _random_state(spec, seed, scale=1.0):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(spec.dim) + 1j * rng.standard_normal(spec.dim)
    amps *= scale / np.linalg.norm(amps)
    return PureState(spec, amps, leakage=max(0.0, 1.0 - scale * scale))


def _left_pair_spec():
    return HilbertSpec(LEFT_LABELS, (1, 1))


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
    fast = reduce_left(psi)
    slow = _brute_force_reduction(psi)
    assert np.abs(fast - slow).max() < 1e-13


def test_evolved_bare_state_reduces_to_half_mixture():
    from kalamidas import ExperimentConfig, evolve, initial_state_bare

    config = ExperimentConfig(alpha=0.0, phi=0.0, cutoffs=(2, 2, 2, 2, 2, 2))
    rho = reduce_left(evolve(initial_state_bare(config), config))
    left = config.hilbert_spec().subspace(LEFT_LABELS)
    expected = np.zeros((left.dim, left.dim), dtype=np.complex128)
    expected[left.index_of((1, 0)), left.index_of((1, 0))] = 0.5
    expected[left.index_of((0, 1)), left.index_of((0, 1))] = 0.5
    assert np.abs(rho - expected).max() < 1e-10
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
    assert np.abs(reduce_left(psi) - np.outer(u, u.conj())).max() < 1e-14


def test_reduce_left_carries_leakage(quick_spec):
    psi = _random_state(quick_spec, 109, scale=0.8)
    rho = reduce_left(psi)
    assert np.trace(rho).real == pytest.approx(1.0 - psi.leakage, abs=1e-12)
    assert max(invariant_residuals(rho, psi.leakage).values()) < 1e-12


def test_reduce_left_requires_left_modes(quick_spec):
    right = quick_spec.subspace(("a2", "a3"))
    psi = PureState(right, np.eye(1, right.dim, 0).ravel())
    with pytest.raises(ValueError):
        reduce_left(psi)


def test_expectation_matches_manual_trace():
    left = _left_pair_spec()
    rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
    h = random_left_observable(left, 5)
    manual = float(np.trace(rho @ h.matrix).real)
    assert expectation(rho, h) == pytest.approx(manual, abs=1e-14)


def test_expectation_refuses_a_non_hermitian_observable(quick_spec):
    """The observable's own matrix is checked: a raising operator, or one
    block 1e-3 off hermitian, is refused, and a hermitian matrix is taken
    as it is."""
    sub = quick_spec.subspace(("a2",))
    rho = np.eye(sub.dim, dtype=complex) / sub.dim
    with pytest.raises(ValueError, match="hermitian"):
        expectation(rho, ladder(quick_spec, "a2", "raise"))
    skew = np.array([[1.0, 1e-3], [0.0, 1.0]])
    with pytest.raises(ValueError, match="hermitian"):
        expectation(rho, LinearOperator(sub, blocks=((slice(0, 1), np.eye(1)), (slice(1, 3), skew))))
    assert expectation(rho, LinearOperator(sub, np.eye(sub.dim))) == pytest.approx(1.0, abs=1e-15)
    assert expectation(rho, number_op(quick_spec, "a2")) == pytest.approx(1.0, abs=1e-15)


def test_expectation_guards():
    rho = np.eye(4, dtype=complex) / 4
    other = random_left_observable(HilbertSpec(LEFT_LABELS, (2, 2)), 1)
    with pytest.raises(ValueError, match="do not match"):
        expectation(rho, other)


def test_expectation_rejects_imaginary_residue():
    left = _left_pair_spec()
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 1] = 1.0
    rho = skew
    h_matrix = np.zeros((4, 4), dtype=complex)
    h_matrix[0, 1] = -1j
    h_matrix[1, 0] = 1j
    h = LinearOperator(left, h_matrix)
    with pytest.raises(ValueError, match="imaginary"):
        expectation(rho, h)


def test_analytic_anchors():
    """The closed-form left state gives one photon split evenly between a1 and
    b1 with no coherence between them, on the minimal left space and on one
    with a spare b1 level."""
    for cutoffs in ((1, 1), (1, 2)):
        left = HilbertSpec(LEFT_LABELS, cutoffs)
        sigma = validate(analytic_left_state(left), 0.0, 1e-15)
        n_a1 = embed(number_op(left, "a1"), left)
        total = LinearOperator(left, n_a1.matrix + embed(number_op(left, "b1"), left).matrix)
        up_a = embed(ladder(left, "a1", "raise"), left).matrix
        up_b = embed(ladder(left, "b1", "raise"), left).matrix
        hop = LinearOperator(left, up_a @ up_b.conj().T + up_b @ up_a.conj().T)
        assert expectation(sigma, n_a1) == pytest.approx(0.5, abs=1e-15)
        assert expectation(sigma, total) == pytest.approx(1.0, abs=1e-15)
        assert expectation(sigma, hop) == pytest.approx(0.0, abs=1e-15)


def test_analytic_guards(quick_spec):
    with pytest.raises(ValueError, match="left pair"):
        analytic_left_state(quick_spec.subspace(("a2", "b2")))
    with pytest.raises(ValueError, match="left pair"):
        analytic_left_state(quick_spec)


def test_oracle_is_not_fooled_by_a_wrong_left_state():
    """The photon sitting in a1 for certain is the kind of left state a
    broken simulator would produce; its gap from the closed form is of order
    one."""
    left = _left_pair_spec()
    in_a1 = np.zeros((left.dim, left.dim), dtype=complex)
    in_a1[left.index_of((1, 0)), left.index_of((1, 0))] = 1.0
    sigma = analytic_left_state(left)
    assert signaling_gap(in_a1, sigma) == pytest.approx(1.0)
    assert trace_distance(in_a1, sigma) == pytest.approx(0.5)


def test_trace_distance_extremes():
    pure0 = np.diag([1.0, 0, 0, 0]).astype(complex)
    pure1 = np.diag([0, 1.0, 0, 0]).astype(complex)
    assert trace_distance(pure0, pure1) == pytest.approx(1.0)
    assert trace_distance(pure0, pure0) == 0.0
    with pytest.raises(ValueError, match="square matrices of one shape"):
        trace_distance(pure0, np.eye(9, dtype=complex) / 9)
    with pytest.raises(ValueError, match="square matrices of one shape"):
        trace_distance(pure0[:2], pure0[:2])


def _random_density(seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    m = g @ g.conj().T
    return m / np.trace(m).real


@settings(max_examples=25, deadline=None)
@given(sa=st.integers(0, 10**6), sb=st.integers(0, 10**6), sc=st.integers(0, 10**6))
def test_trace_distance_is_a_metric(sa, sb, sc):
    rho_a, rho_b, rho_c = _random_density(sa), _random_density(sb), _random_density(sc)
    dab = trace_distance(rho_a, rho_b)
    assert dab >= 0.0
    assert dab == pytest.approx(trace_distance(rho_b, rho_a), abs=1e-13)
    assert dab <= trace_distance(rho_a, rho_c) + trace_distance(rho_c, rho_b) + 1e-12
    assert dab <= 1.0 + 1e-12


def test_random_left_observable_is_exactly_hermitian():
    left = _left_pair_spec()
    h1 = random_left_observable(left, 77)
    h2 = random_left_observable(left, 77)
    h3 = random_left_observable(left, (77, 1))
    assert np.array_equal(h1.matrix, h1.matrix.conj().T)
    assert np.array_equal(h1.matrix, h2.matrix)
    assert not np.array_equal(h1.matrix, h3.matrix)


def test_signaling_gap_zero_for_identical_states():
    rho = _random_density(3)
    assert signaling_gap(rho, rho) == 0.0


def test_signaling_gap_is_the_trace_norm():
    """The gap is Tr(delta sign(delta)), the expectation difference that the
    best observable of spectral norm 1 shows, and twice the trace distance."""
    rho_a = _random_density(4)
    rho_b = _random_density(5)
    delta = rho_a - rho_b
    w, v = np.linalg.eigh(delta)
    best = (v * np.sign(w)) @ v.conj().T
    got = signaling_gap(rho_a, rho_b)
    assert got == pytest.approx(np.trace(delta @ best).real, abs=1e-15)
    assert got == 2.0 * trace_distance(rho_a, rho_b)


def test_signaling_gap_bounds_every_normalized_observable():
    rho_a = _random_density(4)
    rho_b = _random_density(5)
    gap = signaling_gap(rho_a, rho_b)
    left = _left_pair_spec()
    worst = 0.0
    for k in range(100):
        h = random_left_observable(left, (9, k))
        h = LinearOperator(left, h.matrix / np.linalg.norm(h.matrix, 2))
        worst = max(worst, abs(expectation(rho_a, h) - expectation(rho_b, h)))
    assert 0.0 < worst <= gap + 1e-15


def test_signaling_gap_detects_genuinely_different_states():
    pure0 = np.diag([1.0, 0, 0, 0]).astype(complex)
    pure1 = np.diag([0, 1.0, 0, 0]).astype(complex)
    assert signaling_gap(pure0, pure1) == pytest.approx(2.0)


def test_signaling_gap_guards():
    rho = _random_density(6)
    with pytest.raises(ValueError):
        signaling_gap(rho, np.eye(9, dtype=complex) / 9)
