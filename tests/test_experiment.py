"""Configuration handling, state construction, evolution, and the report."""
import json
import math
import warnings

import numpy as np
import pytest

from kalamidas import (
    CutoffAdequacyWarning,
    ExperimentConfig,
    apply,
    beamsplitter_unitary,
    default_cutoffs,
    direct_final_state,
    evolve,
    heisenberg_residuals,
    initial_state_bare,
    initial_state_with_coherent,
    inner,
    number_op,
    run_experiment,
)
from kalamidas.experiment import SQRT_HALF
from kalamidas.optics import BeamSplitter

QUICK = {"a2": 3, "b2": 3, "a3": 3, "b3": 3}


def test_default_cutoffs_follow_adequacy_rule_plus_margin():
    got = default_cutoffs(1.0)
    assert got == {"a1": 1, "b1": 1, "a2": 21, "b2": 21, "a3": 21, "b3": 21}
    assert ExperimentConfig().required_cutoff == 16


def test_config_normalizes_partial_override():
    config = ExperimentConfig(alpha=1.0, cutoffs={"a3": 9})
    assert config.cutoffs_map == {"a1": 1, "b1": 1, "a2": 21, "b2": 21, "a3": 9, "b3": 21}
    full = ExperimentConfig(alpha=0.0, cutoffs=(1, 1, 2, 3, 4, 5))
    assert full.cutoffs == (1, 1, 2, 3, 4, 5)
    assert full.hilbert_spec().dims == (2, 2, 3, 4, 5, 6)


def test_config_validations():
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ExperimentConfig(t=1.2)
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        ExperimentConfig(t=-0.1)
    with pytest.raises(ValueError, match="trials"):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError, match="tolerance"):
        ExperimentConfig(tolerance=0.0)
    with pytest.raises(ValueError, match="tolerance"):
        ExperimentConfig(tolerance=float("inf"))
    with pytest.raises(ValueError, match="tolerance"):
        ExperimentConfig(tolerance=1e400)
    with pytest.raises(ValueError, match="six entries"):
        ExperimentConfig(cutoffs=(1, 1, 3))
    with pytest.raises(ValueError, match="six entries"):
        ExperimentConfig(cutoffs=(1, 1, 3, 3, 3, 3, 99))
    with pytest.raises(ValueError, match="left mode"):
        ExperimentConfig(cutoffs={"a1": 0})
    with pytest.raises(ValueError, match="photon arm"):
        ExperimentConfig(cutoffs={"b2": 0})
    with pytest.raises(ValueError, match="unknown mode"):
        ExperimentConfig(cutoffs={"q7": 3})
    with pytest.raises(ValueError, match="seed"):
        ExperimentConfig(seed=-1)
    with pytest.raises(ValueError, match="alpha"):
        ExperimentConfig(alpha=complex("inf"))
    with pytest.raises(ValueError, match="phi"):
        ExperimentConfig(phi=float("nan"))


def test_r_derivation():
    assert ExperimentConfig(t=0.8, alpha=0.0).r == pytest.approx(0.6)
    assert ExperimentConfig(t=1.0, alpha=0.0).r == 0.0


def test_adequacy_flag():
    assert not ExperimentConfig().adequacy_warning
    assert ExperimentConfig(cutoffs={"a3": 2}).adequacy_warning
    assert not ExperimentConfig(alpha=0.0, cutoffs=QUICK).adequacy_warning


@pytest.mark.parametrize("phi,sign", [(0.0, 1.0), (math.pi, -1.0)])
def test_bare_initial_amplitudes(phi, sign):
    config = ExperimentConfig(alpha=0.0, phi=phi, cutoffs=QUICK)
    state = initial_state_bare(config)
    spec = config.hilbert_spec()
    amp_a = state.amplitudes[spec.index_of((1, 0, 1, 0, 0, 0))]
    amp_b = state.amplitudes[spec.index_of((0, 1, 0, 1, 0, 0))]
    assert amp_a == pytest.approx(SQRT_HALF, abs=1e-14)
    assert amp_b == pytest.approx(sign * SQRT_HALF, abs=1e-12)
    assert state.norm2 == pytest.approx(1.0, abs=1e-14)
    assert state.leakage == 0.0
    assert np.count_nonzero(np.abs(state.amplitudes) > 1e-14) == 2


def test_alpha_zero_injection_equals_bare():
    config = ExperimentConfig(alpha=0.0, cutoffs=QUICK)
    bare = initial_state_bare(config)
    injected = initial_state_with_coherent(config)
    assert np.array_equal(bare.amplitudes, injected.amplitudes)


def test_inadequate_cutoffs_warn_once_with_mode_names():
    config = ExperimentConfig(alpha=1.0, cutoffs={"a3": 2, "b3": 2})
    with pytest.warns(CutoffAdequacyWarning, match="a3"):
        state = initial_state_with_coherent(config)
    assert state.norm2 + state.leakage == pytest.approx(1.0, abs=1e-12)
    assert state.leakage > 1e-3


def test_initial_mean_occupations():
    alpha = 0.7
    cutoff = 14
    config = ExperimentConfig(
        alpha=alpha, cutoffs={m: cutoff for m in ("a2", "b2", "a3", "b3")}
    )
    assert not config.adequacy_warning
    psi = initial_state_with_coherent(config)
    spec = config.hilbert_spec()

    def mean(label):
        return inner(psi, apply(number_op(spec, label), psi)).real

    assert mean("a1") == pytest.approx(0.5, abs=1e-9)
    assert mean("b1") == pytest.approx(0.5, abs=1e-9)
    assert mean("a2") == pytest.approx(0.5, abs=1e-9)
    assert mean("a3") == pytest.approx(alpha**2, abs=1e-8)
    assert mean("b3") == pytest.approx(alpha**2, abs=1e-8)


def test_evolve_preserves_norm_and_leakage_budget():
    config = ExperimentConfig(alpha=0.3, cutoffs={m: 12 for m in ("a2", "b2", "a3", "b3")})
    psi0 = initial_state_with_coherent(config)
    psi = evolve(psi0, config)
    assert psi.norm2 + psi.leakage == pytest.approx(1.0, abs=1e-10)
    assert psi.leakage < 1e-10


def test_evolve_with_t_one_only_mixes_the_left_pair():
    config = ExperimentConfig(alpha=0.3, t=1.0, cutoffs={m: 12 for m in ("a2", "b2", "a3", "b3")})
    psi0 = initial_state_with_coherent(config)
    spec = config.hilbert_spec()
    left_only = apply(
        beamsplitter_unitary(spec, BeamSplitter(("a1", "b1"), SQRT_HALF, SQRT_HALF)),
        psi0,
    )
    evolved = evolve(psi0, config)
    assert np.abs(evolved.amplitudes - left_only.amplitudes).max() < 1e-14


def test_evolved_state_matches_direct_construction_small():
    config = ExperimentConfig(alpha=0.4, t=0.6, cutoffs={m: 15 for m in ("a2", "b2", "a3", "b3")})
    evolved = evolve(initial_state_with_coherent(config), config)
    direct = direct_final_state(config)
    assert np.linalg.norm(evolved.amplitudes - direct.amplitudes) < 1e-9


def test_photon_arm_occupation_closed_form():
    # the a2 mean splits into a displacement share r^2|alpha|^2 and the
    # transmitted half-photon t^2/2
    config = ExperimentConfig(
        alpha=0.6, t=0.8, phi=math.pi / 3, cutoffs={m: 14 for m in ("a2", "b2", "a3", "b3")}
    )
    n_a2 = number_op(config.hilbert_spec(), "a2")

    def mean(state):
        return float(np.real(inner(state, apply(n_a2, state))))

    evolved = evolve(initial_state_with_coherent(config), config)
    closed = config.r**2 * abs(config.alpha) ** 2 + config.t**2 / 2.0
    assert mean(evolved) == pytest.approx(closed, abs=1e-9)
    assert mean(evolved) == pytest.approx(mean(direct_final_state(config)), abs=1e-9)


def test_heisenberg_residuals_structure():
    config = ExperimentConfig(alpha=0.0, t=0.8, cutoffs=QUICK)
    res = heisenberg_residuals(config)
    assert set(res) == {"left_pair", "arm_a", "arm_b"}
    assert max(res.values()) < 1e-12


def _quick_config(**kw):
    base = dict(alpha=0.0, cutoffs=QUICK, trials=5)
    base.update(kw)
    return ExperimentConfig(**base)


def test_report_is_deterministic():
    first = run_experiment(_quick_config())
    second = run_experiment(_quick_config())
    assert first.to_json() == second.to_json()


def test_report_json_schema_and_float_precision():
    report = run_experiment(_quick_config())
    text = report.to_json()
    doc = json.loads(text)
    assert list(doc) == [
        "config",
        "required_cutoff",
        "adequacy_warning",
        "leakage",
        "tolerances",
        "residuals",
        "selective",
        "verdict",
    ]
    assert list(doc["config"]) == [
        "alpha", "phi", "t", "r", "cutoffs", "seed", "trials", "tolerance",
    ]
    assert doc["config"]["alpha"] == {"re": 0.0, "im": 0.0}
    assert set(doc["residuals"]) == set(doc["tolerances"])
    assert '"t": 0.70710678118654757' in text
    assert doc["verdict"] == "pass"
    assert list(doc["selective"]) == ["outcome", "probability", "conditional_trace_distance"]
    assert set(doc["selective"]["outcome"]) == {"a2", "b2"}


def test_quick_run_passes_with_tiny_residuals():
    report = run_experiment(_quick_config())
    assert report.verdict == "pass"
    assert report.residuals["trace_distance"] < 1e-12
    assert report.residuals["signaling_gap"] < 1e-12
    assert report.residuals["structure"] < 1e-12
    assert report.residuals["channel_unitary"] < 1e-11
    assert not report.adequacy_warning


def test_degraded_run_flags_warning_and_scales_tolerances():
    config = ExperimentConfig(
        alpha=1.0, cutoffs={m: 2 for m in ("a2", "b2", "a3", "b3")}, trials=5
    )
    with pytest.warns(CutoffAdequacyWarning):
        report = run_experiment(config)
    assert report.adequacy_warning
    leak = report.leakage["final_with_coherent"]
    assert leak > 0.1
    assert report.tolerances["structure"] == pytest.approx(
        config.tolerance + 2 * math.sqrt(leak)
    )
    assert report.tolerances["trace_distance"] == pytest.approx(config.tolerance + leak)
    assert report.tolerances["channel_unitary"] == 1e-10
    assert report.residuals["trace_distance"] == pytest.approx(leak / 2, abs=1e-6)
    assert report.verdict == "pass"


def test_leakage_entries_are_tracked_per_state():
    with pytest.warns(CutoffAdequacyWarning):
        report = run_experiment(_quick_config(alpha=0.3))
    keys = ["initial_bare", "initial_with_coherent", "final_bare", "final_with_coherent"]
    assert list(report.leakage) == keys
    assert report.leakage["initial_bare"] == 0.0
    assert report.leakage["final_with_coherent"] >= report.leakage["initial_with_coherent"]


def test_report_is_identical_when_every_splitter_comes_from_the_cache():
    from kalamidas.optics import _splitter_matrix

    _splitter_matrix.cache_clear()
    first = run_experiment(_quick_config()).to_json()
    built = _splitter_matrix.cache_info().misses
    assert built == 2  # the left pair and the arm pairs
    second = run_experiment(_quick_config()).to_json()
    assert _splitter_matrix.cache_info().misses == built
    assert first == second
