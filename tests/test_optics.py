"""Splitter and displacement conventions, coherent series, adequacy warnings."""
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kalamidas import (
    MODES,
    BeamSplitter,
    CutoffAdequacyWarning,
    ExperimentConfig,
    HilbertSpec,
    adequate_cutoff,
    apply,
    basis_state,
    beamsplitter_unitary,
    coherent_series,
    coherent_state,
    displacement_unitary,
    embed,
    heisenberg_action,
    ladder,
    number_op,
    vacuum,
)

SQRT_HALF = math.sqrt(0.5)


def test_balanced_splitter_single_photon_amplitudes(quick_spec):
    u = beamsplitter_unitary(quick_spec, BeamSplitter(("a1", "b1"), SQRT_HALF, SQRT_HALF))
    out = apply(u, basis_state(quick_spec, (1, 0, 0, 0, 0, 0)))
    i10 = quick_spec.index_of((1, 0, 0, 0, 0, 0))
    i01 = quick_spec.index_of((0, 1, 0, 0, 0, 0))
    assert out.amplitudes[i10] == pytest.approx(math.cos(math.pi / 4), abs=1e-14)
    assert out.amplitudes[i01] == pytest.approx(math.sin(math.pi / 4), abs=1e-14)

    out2 = apply(u, basis_state(quick_spec, (0, 1, 0, 0, 0, 0)))
    assert out2.amplitudes[i10] == pytest.approx(-SQRT_HALF, abs=1e-14)
    assert out2.amplitudes[i01] == pytest.approx(SQRT_HALF, abs=1e-14)


@pytest.mark.parametrize("t,r", [(0.8, 0.6), (0.6, -0.8), (SQRT_HALF, SQRT_HALF)])
def test_heisenberg_relation_on_exact_sectors(quick_spec, t, r):
    bs = BeamSplitter(("a2", "a3"), t, r)
    u = beamsplitter_unitary(quick_spec, bs)
    sub = u.spec
    rx = embed(ladder(quick_spec, "a2", "raise"), sub)
    ry = embed(ladder(quick_spec, "a3", "raise"), sub)
    totals = np.array([sum(sub.occupation_of(i)) for i in range(sub.dim)])
    rows = totals <= min(sub.cutoffs)
    cols = totals <= min(sub.cutoffs) - 1
    sector = np.ix_(rows, cols)
    acted_x = heisenberg_action(u, rx).matrix
    acted_y = heisenberg_action(u, ry).matrix
    assert np.abs(acted_x - (t * rx.matrix + r * ry.matrix))[sector].max() < 1e-10
    assert np.abs(acted_y - (-r * rx.matrix + t * ry.matrix))[sector].max() < 1e-10


def test_splitter_is_exactly_unitary(quick_spec):
    u = beamsplitter_unitary(quick_spec, BeamSplitter(("b2", "b3"), 0.8, 0.6))
    assert u.unitary
    gram = u.matrix.conj().T @ u.matrix
    assert np.abs(gram - np.eye(u.spec.dim)).max() < 1e-13


def test_splitter_commutes_with_pair_total_number(quick_spec):
    u = beamsplitter_unitary(quick_spec, BeamSplitter(("a2", "b3"), 0.6, 0.8))
    sub = u.spec
    total = embed(number_op(quick_spec, "a2"), sub).matrix + embed(
        number_op(quick_spec, "b3"), sub
    ).matrix
    assert np.abs(u.matrix @ total - total @ u.matrix).max() < 1e-12


def test_t_equals_one_is_identity(quick_spec):
    u = beamsplitter_unitary(quick_spec, BeamSplitter(("a2", "a3"), 1.0, 0.0))
    assert np.abs(u.matrix - np.eye(u.spec.dim)).max() < 1e-14


def test_beamsplitter_validation():
    with pytest.raises(ValueError):
        BeamSplitter(("a3", "a2"), 0.8, 0.6)
    with pytest.raises(ValueError):
        BeamSplitter(("a2", "a2"), 1.0, 0.0)
    with pytest.raises(ValueError):
        BeamSplitter(("a2", "a3"), 1.2, 0.0)
    with pytest.raises(ValueError):
        BeamSplitter(("a2", "a3"), 0.8, 0.7)
    BeamSplitter(("a2", "a3"), 0.8, -0.6)


def test_adequate_cutoff_values():
    assert adequate_cutoff(0.0) == 10
    assert adequate_cutoff(1.0) == 16
    assert adequate_cutoff(1.0 + 0.5j) == math.ceil(1.25 + 5 * abs(1 + 0.5j) + 10)


def test_displacement_is_exactly_unitary():
    spec = HilbertSpec(MODES, (1, 1, 1, 1, 12, 1))
    d = displacement_unitary(spec, "a3", 0.3)
    assert d.unitary
    gram = d.matrix.conj().T @ d.matrix
    assert np.abs(gram - np.eye(d.spec.dim)).max() < 1e-9


def test_displacement_adjoint_is_inverse():
    spec = HilbertSpec(MODES, (1, 1, 1, 1, 14, 1))
    alpha = 0.4 + 0.2j
    d = displacement_unitary(spec, "a3", alpha)
    dback = displacement_unitary(spec, "a3", -alpha)
    assert np.abs(dback.matrix - d.matrix.conj().T).max() < 1e-10


def test_displaced_vacuum_matches_coherent_series():
    alpha = 1.0
    cutoff = adequate_cutoff(alpha) + 5
    spec = HilbertSpec(MODES, (1, 1, 1, 1, cutoff, 1))
    displaced = apply(displacement_unitary(spec, "a3", alpha), vacuum(spec))
    series = coherent_state(spec, "a3", alpha)
    assert np.abs(displaced.amplitudes - series.amplitudes).max() < 1e-9
    assert displaced.amplitudes[0] == pytest.approx(math.exp(-0.5), abs=1e-9)


def test_coherent_series_eigenvalue_recurrence():
    alpha = 0.5 + 0.3j
    series = coherent_series(alpha, 12)
    lower = np.diag(np.sqrt(np.arange(1, 12)), 1)
    lowered = lower @ series
    assert np.abs(lowered[:-1] - alpha * series[:-1]).max() < 1e-15


def test_coherent_mean_occupation():
    alpha = 0.9
    cutoff = adequate_cutoff(alpha)
    series = coherent_series(alpha, cutoff + 1)
    mean = float(np.sum(np.arange(cutoff + 1) * np.abs(series) ** 2))
    assert mean == pytest.approx(abs(alpha) ** 2, abs=1e-8)


def test_coherent_state_leakage_is_poisson_tail():
    alpha = 1.2
    spec = HilbertSpec(MODES, (1, 1, 1, 1, 4, 1))
    with pytest.warns(CutoffAdequacyWarning):
        state = coherent_state(spec, "a3", alpha)
    a2 = abs(alpha) ** 2
    cdf = math.exp(-a2) * sum(a2**n / math.factorial(n) for n in range(5))
    assert state.leakage == pytest.approx(1.0 - cdf, abs=1e-12)
    assert state.norm2 + state.leakage == pytest.approx(1.0, abs=1e-12)


def test_adequacy_warning_quiet_cases():
    spec = HilbertSpec(MODES, (1, 1, 1, 1, 1, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coherent_state(spec, "a3", 0.0)
        displacement_unitary(spec, "b3", 0.0)
    big = HilbertSpec(MODES, (1, 1, 1, 1, adequate_cutoff(0.8), 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        coherent_state(big, "a3", 0.8)


def test_adequacy_warning_fires_for_displacement():
    spec = HilbertSpec(MODES, (1, 1, 1, 1, 3, 1))
    with pytest.warns(CutoffAdequacyWarning):
        displacement_unitary(spec, "a3", 1.0)


def test_heisenberg_action_guards(quick_spec):
    u = beamsplitter_unitary(quick_spec, BeamSplitter(("a2", "a3"), 0.8, 0.6))
    n = number_op(quick_spec, "a2")
    with pytest.raises(ValueError):
        heisenberg_action(n, n)
    with pytest.raises(ValueError):
        heisenberg_action(u, n)


def test_splitter_covariance_with_displacement():
    t, r, alpha = 0.8, 0.6, 0.8
    cutoff = adequate_cutoff(alpha) + 3
    spec = HilbertSpec(MODES, (1, 1, cutoff, 1, cutoff, 1))
    u = beamsplitter_unitary(spec, BeamSplitter(("a2", "a3"), t, r))
    lhs = apply(u, apply(displacement_unitary(spec, "a3", alpha), vacuum(spec)))
    rhs = apply(
        displacement_unitary(spec, "a2", -r * alpha),
        apply(displacement_unitary(spec, "a3", t * alpha), vacuum(spec)),
    )
    assert np.abs(lhs.amplitudes - rhs.amplitudes).max() < 1e-8


@settings(max_examples=25, deadline=None)
@given(
    re=st.floats(-1.5, 1.5, allow_nan=False),
    im=st.floats(-1.5, 1.5, allow_nan=False),
    dim=st.integers(2, 24),
)
def test_coherent_series_norm_is_poisson_cdf(re, im, dim):
    alpha = complex(re, im)
    series = coherent_series(alpha, dim)
    a2 = abs(alpha) ** 2
    cdf = math.exp(-a2) * sum(a2**n / math.factorial(n) for n in range(dim))
    assert float(np.vdot(series, series).real) == pytest.approx(cdf, abs=1e-12)


def test_arm_splitters_share_one_read_only_matrix(quick_spec):
    u_a = beamsplitter_unitary(quick_spec, BeamSplitter(("a2", "a3"), 0.8, 0.6))
    u_b = beamsplitter_unitary(quick_spec, BeamSplitter(("b2", "b3"), 0.8, 0.6))
    assert u_a.spec != u_b.spec
    assert np.array_equal(u_a.matrix, u_b.matrix)
    assert not u_a.matrix.flags.writeable and not u_b.matrix.flags.writeable
    # one block set, read-only, shared by both arms
    assert [sl for sl, _ in u_a.blocks] == [sl for sl, _ in u_b.blocks]
    for (_, block_a), (_, block_b) in zip(u_a.blocks, u_b.blocks):
        assert block_a is block_b and not block_a.flags.writeable
    u_c = beamsplitter_unitary(quick_spec, BeamSplitter(("a2", "a3"), 0.6, 0.8))
    assert not np.array_equal(u_a.matrix, u_c.matrix)


@pytest.mark.parametrize("pair,t,r", [(("a2", "a3"), 0.6, 0.8), (("a1", "b1"), SQRT_HALF, SQRT_HALF)])
def test_cached_splitter_equals_a_fresh_build(pair, t, r):
    # the expm of the generator written out from the ladder operators
    from scipy.linalg import expm

    from kalamidas.optics import _splitter_matrix

    _splitter_matrix.cache_clear()
    spec = HilbertSpec(MODES, (1, 1, 3, 2, 4, 2))
    x, y = pair
    theta = math.atan2(r, t)
    lower_x = ladder(spec, x, "lower").matrix
    lower_y = ladder(spec, y, "lower").matrix
    fresh = expm(theta * (
        np.kron(lower_x, lower_y.conj().T) - np.kron(lower_x.conj().T, lower_y)
    ))
    for _ in range(2):  # the first call builds, the second reads the cache
        u = beamsplitter_unitary(spec, BeamSplitter(pair, t, r))
        assert np.array_equal(u.matrix, fresh)


def test_splitter_entries_outside_the_sectors_are_refused(monkeypatch):
    from kalamidas import optics

    build = optics.expm

    def stray_expm(gen):
        out = build(gen)
        out[0, -1] = 1e-300  # total 0 to the largest total
        return out

    monkeypatch.setattr(optics, "expm", stray_expm)
    optics._splitter_matrix.cache_clear()
    try:
        with pytest.raises(ValueError, match="outside"):
            optics._splitter_matrix((3, 4), 0.5)
    finally:
        optics._splitter_matrix.cache_clear()


def test_cache_hit_splitter_allocates_no_dense_matrix():
    spec = ExperimentConfig(alpha=1.0).hilbert_spec()
    bs = BeamSplitter(("a2", "a3"), SQRT_HALF, SQRT_HALF)
    beamsplitter_unitary(spec, bs)  # builds, or finds, the cached blocks
    dense = 16 * spec.subspace(("a2", "a3")).dim ** 2  # one 484 x 484 matrix
    tracemalloc.start()
    try:
        u = beamsplitter_unitary(spec, bs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert u.spec.dim == 484
    assert peak < dense
