"""Configuration handling, the arm-pair branches against the six-mode
reference, the structure bound, the fault table, and the report."""
import json
import math
import threading
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from kalamidas import (
    CutoffAdequacyWarning,
    ExperimentConfig,
    LinearOperator,
    PureState,
    apply,
    beamsplitter_unitary,
    coherent_series,
    default_cutoffs,
    direct_final_state,
    evolve,
    heisenberg_residuals,
    initial_state_bare,
    initial_state_with_coherent,
    occupation_projectors,
    random_kraus,
    random_right_unitary,
    reduce_left,
    run_experiment,
    signaling_gap,
    trace_distance,
)
from kalamidas import channels, experiment
from kalamidas.channels import branch_gram, channel_gram, haar_channels_left
from kalamidas.experiment import (
    SQRT_HALF, NoOutcomeError, failing, left_states_over_phases, selective_ranking,
)
from kalamidas.hilbert import LEFT_LABELS, RIGHT_LABELS
from kalamidas.nosignal import invariant_residuals, normalized
from kalamidas.optics import BeamSplitter

from fock import (
    analytic_left_state, branches_at, dropped_term_branches, inner, ladder, number_op,
    placed_left_state,
)

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


# right cutoffs below the adequacy rule keep these fast; the identities below
# are exact linear algebra at any cutoff
STAGE_RIGHT = {m: 8 for m in ("a2", "b2", "a3", "b3")}


@pytest.mark.filterwarnings("ignore::kalamidas.CutoffAdequacyWarning")
@pytest.mark.parametrize("alpha", [0.0, 0.3 + 0.4j, 1.0])
@pytest.mark.parametrize("phi", [2.5, -1.0])
def test_phase_is_exp_i_phi_n_b1_on_the_phi_zero_preparation(alpha, phi):
    config = ExperimentConfig(alpha=alpha, phi=phi, cutoffs={**STAGE_RIGHT, "a1": 2})
    spec = config.hilbert_spec()
    zero = initial_state_with_coherent(replace(config, phi=0.0))
    phase = np.exp(1j * phi * np.arange(spec.dims[spec.axis_of("b1")]))
    shifted = zero.amplitudes.reshape(spec.dims) * phase[None, :, None, None, None, None]
    at_phi = initial_state_with_coherent(config).amplitudes
    assert np.abs(at_phi - shifted.reshape(-1)).max() <= 1e-15


@pytest.mark.filterwarnings("ignore::kalamidas.CutoffAdequacyWarning")
@pytest.mark.parametrize(
    "cutoffs",
    [{}, {"a1": 2}, {"b1": 2}, {"b2": 5, "a3": 6}, {"a3": 0}],
    ids=["a1=1", "a1=2", "b1=2", "b2=5,a3=6", "a3=0"],
)
@pytest.mark.parametrize("t", [0.0, 0.6, 1.0])
@pytest.mark.parametrize("alpha", [0.0, 0.3 + 0.4j, 1.0])
def test_left_states_over_phases_match_the_six_mode_reduction(alpha, t, cutoffs):
    """The left states from arm-pair vectors against the full six-mode
    evolution: at left cutoffs above 1, on arms of different dimensions
    (so their splitters differ) and on an arm whose coherent factor is only
    its vacuum amplitude (a3=0, a large clipped tail). Each 2 x 2 Gram
    matrix is placed by the left splitter, and one minus its trace is the
    leakage it books."""
    config = ExperimentConfig(alpha=alpha, t=t, cutoffs={**STAGE_RIGHT, **cutoffs})
    phis = [0.0, 2.5, -1.0]
    for injected, prepare in ((True, initial_state_with_coherent), (False, initial_state_bare)):
        states = left_states_over_phases(config, phis, injected)
        assert len(states) == len(phis)
        for phi, gram in zip(phis, states):
            assert gram.shape == (2, 2)
            rho = placed_left_state(config, gram)
            point = replace(config, phi=phi)
            psi = evolve(prepare(point), point)
            direct = reduce_left(psi)
            assert np.abs(rho - direct).max() <= 1e-13
            assert abs(1.0 - np.trace(gram).real - psi.leakage) <= 1e-13


@pytest.mark.parametrize("phi", [0.0, 1.3])
@pytest.mark.parametrize("t", [0.3, SQRT_HALF, 0.9])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1 + 0.5j])
def test_every_left_check_reads_the_same_on_the_gram_matrix_and_its_placed_state(alpha, t, phi):
    """The left splitter is a fixed unitary on the one-photon block, and
    every left check is unitarily invariant: the trace distance, the gap,
    the oracle and the invariants read the same, to 1e-15, on the 2 x 2
    branch Gram matrices as on their placed 4 x 4 states. The states are
    the two preparations' left states, the scan's mixture and its
    conditional states; the oracle's reference is I / 2 on the block and
    the closed form on the left pair."""
    config = ExperimentConfig(alpha=alpha, t=t, phi=phi)
    (g_with,), (g_bare,) = (left_states_over_phases(config, [phi], inj) for inj in (True, False))
    ranked, mixture = selective_ranking(config)
    grams = [g_with, g_bare, mixture] + [row[3] for row in ranked]
    booked = [1.0 - np.trace(g).real for g in grams]
    analytic = analytic_left_state(config.hilbert_spec().subspace(LEFT_LABELS))

    def read(states, half):
        rho_with, rho_bare, *others = states
        with_, bare = normalized(rho_with), normalized(rho_bare)
        out = [trace_distance(with_, bare), signaling_gap(with_, bare), trace_distance(with_, half)]
        out += [trace_distance(rho, rho_with) for rho in others]
        for rho, leakage in zip(states, booked):
            out += invariant_residuals(rho, leakage).values()
        return np.array(out)

    on_gram = read(grams, np.eye(2) / 2)
    on_placed = read([placed_left_state(config, g) for g in grams], analytic)
    assert len(on_gram) == 3 + (len(grams) - 2) + 3 * len(grams)
    assert np.abs(on_gram - on_placed).max() <= 1e-15


@pytest.mark.filterwarnings("ignore::kalamidas.CutoffAdequacyWarning")
def test_a_sweep_group_builds_its_branches_once_for_any_number_of_phases(monkeypatch):
    """The arm vectors and their Gram matrix are built once per call of
    left_states_over_phases: both preparations of a group make the same
    applies, Gram matrices and splitter requests for one phase as for five,
    and no request is the left splitter's."""
    config = ExperimentConfig(alpha=0.5, t=0.6, cutoffs=QUICK)
    calls = []

    def counted(name, f):
        def wrapper(*args):
            calls.append(name)
            return f(*args)

        monkeypatch.setattr(experiment, name, wrapper)

    for name in ("apply", "branch_gram", "beamsplitter_unitary"):
        counted(name, getattr(experiment, name))
    counts = []
    for phis in ([0.0], [0.0, 0.5, 1.0, 2.0, -3.0]):
        calls.clear()
        for injected in (True, False):
            assert len(left_states_over_phases(config, phis, injected)) == len(phis)
        counts.append(sorted(calls))
    assert counts[0] == counts[1]
    assert counts[0].count("apply") == 8 and counts[0].count("branch_gram") == 2
    assert counts[0].count("beamsplitter_unitary") == 4  # two arms, two preparations


def _branch_calls(monkeypatch, config):
    """The arguments of every _prepared_branches call of one verdict on
    ``config``, and the number of its _branches calls."""
    prepared, built = [], []
    prepare, build = experiment._prepared_branches, experiment._branches

    def counted_preparation(*args):
        prepared.append(args)
        return prepare(*args)

    def counted_branches(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(experiment, "_prepared_branches", counted_preparation)
    monkeypatch.setattr(experiment, "_branches", counted_branches)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", CutoffAdequacyWarning)
        run_experiment(config)
    return prepared, len(built)


def test_a_verdict_builds_its_branches_once(monkeypatch):
    """The selective scan, the channel battery, the leakage and the injected
    left state share one preparation and one set of branches, and a run
    that injects nothing takes its bare left state to be the injected one:
    one build of each at alpha = 0."""
    config = ExperimentConfig(alpha=0.0, cutoffs=QUICK, trials=3)
    assert _branch_calls(monkeypatch, config) == ([(config, config.alpha, config.phi)], 1)


def test_an_injected_verdict_builds_the_bare_branches_once_more(monkeypatch):
    """With alpha != 0 the bare preparation and its branches are built once,
    at alpha = 0, after the injected ones."""
    config = ExperimentConfig(alpha=0.5, cutoffs=QUICK, trials=3)
    calls = _branch_calls(monkeypatch, config)
    assert calls == ([(config, config.alpha, config.phi), (config, 0.0, config.phi)], 2)


def test_a_verdict_runs_at_one_blas_thread_and_restores_the_counts(
    blas_thread_counts, monkeypatch
):
    """run_experiment holds both OpenBLAS libraries at one thread from its
    first stage to its last draw, called from Python, and puts both counts
    back after it, also when the scan stops it with NoOutcomeError."""
    during = []

    def record(module, name):
        stage = getattr(module, name)

        def recording(*args):
            during.append((name, blas_thread_counts()))
            return stage(*args)

        monkeypatch.setattr(module, name, recording)

    record(experiment, "heisenberg_residuals")
    record(experiment, "_prepared_branches")
    record(channels, "_haar_isometry")
    assert run_experiment(ExperimentConfig(alpha=0.0, cutoffs=QUICK)).verdict == "pass"
    assert blas_thread_counts() == [2, 2]
    with pytest.raises(NoOutcomeError):
        run_experiment(ExperimentConfig(alpha=4.0, cutoffs={"a3": 1, "b3": 1}))
    assert blas_thread_counts() == [2, 2]
    stages = [name for name, _ in during]
    assert stages.count("heisenberg_residuals") == 2
    # one preparation per run: the alpha = 0 run's, and the injected one the
    # stopped run builds before its scan
    assert stages.count("_prepared_branches") == 2
    assert stages.count("_haar_isometry") == 2 * experiment._CHANNEL_TRIALS
    assert all(counts == [1, 1] for _, counts in during)


@pytest.mark.parametrize("t", [0.3, 0.6, SQRT_HALF, 0.9])
def test_the_dropped_term_moves_the_left_state_by_half_of_z(monkeypatch, t):
    """With the r y+ half of the photon's output dropped, the injected and
    bare left states, placed by the left splitter, sit a trace distance z / 2
    apart, z = r^2 |alpha|^2 / (1 + r^2 |alpha|^2), where the honest
    branches give rounding."""
    phis = [0.4, 1.9]
    honest = experiment._branches
    for alpha in (0.2, 0.7, 1.3):
        config = ExperimentConfig(alpha=alpha, t=t)
        shift = (config.r * alpha) ** 2
        for branches, half_z in ((honest, 0.0), (dropped_term_branches, shift / (1 + shift) / 2)):
            monkeypatch.setattr(experiment, "_branches", branches)
            lefts = [left_states_over_phases(config, phis, injected) for injected in (True, False)]
            for g_with, g_bare in zip(*lefts, strict=True):
                rho_with, rho_bare = (placed_left_state(config, g) for g in (g_with, g_bare))
                got = trace_distance(normalized(rho_with), normalized(rho_bare))
                assert abs(got - half_z) <= 1e-13


@pytest.mark.filterwarnings("ignore::kalamidas.CutoffAdequacyWarning")
def test_the_verdict_reads_the_dropped_term_as_half_of_z(monkeypatch):
    """With the r y+ half of the photon's output dropped, the verdict's own
    no-signaling rows read the signal: trace_distance and left_oracle z / 2,
    signaling_gap z, at three points of the grid above and at right cutoffs
    where the honest run passes."""
    honest = experiment._branches
    for t, alpha, phi, right in ((0.6, 0.2, 0.4, 8), (0.9, 0.2, 1.9, 8), (SQRT_HALF, 0.7, 1.9, 14)):
        config = ExperimentConfig(
            alpha=alpha, t=t, phi=phi, cutoffs=dict.fromkeys(RIGHT_LABELS, right)
        )
        monkeypatch.setattr(experiment, "_branches", honest)
        assert run_experiment(config).verdict == "pass"
        monkeypatch.setattr(experiment, "_branches", dropped_term_branches)
        report = run_experiment(config)
        shift = (config.r * alpha) ** 2
        z = shift / (1 + shift)
        assert report.verdict == "fail"
        for name, want in (("trace_distance", z / 2), ("left_oracle", z / 2), ("signaling_gap", z)):
            assert abs(report.residuals[name] - want) <= 1e-13


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


def _floats(node, path=()):
    """(path, value) for every float in a parsed JSON document."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _floats(value, path + (key,))
    elif isinstance(node, float):
        yield path, node


def _report_floats(report):
    """The float fields of a Report, keyed by their path in its JSON."""
    config = report.config
    out = {
        ("config", "alpha", "re"): config.alpha.real,
        ("config", "alpha", "im"): config.alpha.imag,
        ("config", "phi"): config.phi,
        ("config", "t"): config.t,
        ("config", "r"): config.r,
        ("config", "tolerance"): config.tolerance,
    }
    for block in ("leakage", "tolerances", "residuals"):
        out.update({(block, name): value for name, value in getattr(report, block).items()})
    for arm in ("arm_a", "arm_b"):
        out.update({("truncation", arm, k): v for k, v in report.truncation[arm].items()})
    out[("truncation", "structure_bound")] = report.truncation["structure_bound"]
    for name in ("probability", "conditional_trace_distance"):
        out[("selective", name)] = report.selective[name]
    return out


def test_report_json_schema_and_float_precision():
    report = run_experiment(_quick_config())
    text = report.to_json()
    doc = json.loads(text)
    assert list(doc) == [
        "config",
        "required_cutoff",
        "adequacy_warning",
        "leakage",
        "truncation",
        "tolerances",
        "residuals",
        "selective",
        "verdict",
    ]
    assert list(doc["config"]) == [
        "alpha", "phi", "t", "r", "cutoffs", "seed", "trials", "tolerance",
    ]
    assert doc["config"]["alpha"] == {"re": 0.0, "im": 0.0}
    assert list(doc["truncation"]) == ["arm_a", "arm_b", "structure_bound"]
    assert all(list(doc["truncation"][arm]) == ["w0", "w1", "tail"] for arm in ("arm_a", "arm_b"))
    assert set(doc["residuals"]) == set(doc["tolerances"])
    assert dict(_floats(doc)) == _report_floats(report)  # every float round-trips exactly
    assert doc["verdict"] == "pass"
    assert list(doc["selective"]) == ["outcome", "probability", "conditional_trace_distance"]
    assert set(doc["selective"]["outcome"]) == {"a2", "b2"}


def test_a_report_is_its_check_rows():
    """A report stores its ordered check rows once: the residuals,
    tolerances and verdict are read from them, so a row that turns NaN
    turns the verdict, and required_cutoff and adequacy_warning come from
    the config."""
    report = run_experiment(_quick_config())
    assert [f.name for f in fields(report)] == [
        "config", "leakage", "truncation", "checks", "selective",
    ]
    names = [name for name, _, _ in report.checks]
    assert list(report.residuals) == list(report.tolerances) == names
    assert list(report.residuals.values()) == [res for _, res, _ in report.checks]
    assert list(report.tolerances.values()) == [tol for _, _, tol in report.checks]
    assert failing(report.checks) == [] and report.verdict == "pass"
    doc = json.loads(report.to_json())
    assert doc["required_cutoff"] == report.config.required_cutoff
    assert doc["adequacy_warning"] is report.config.adequacy_warning

    (name, _, tol), *rest = report.checks
    broken = replace(report, checks=((name, math.nan, tol), *rest))
    assert [n for n, _, _ in failing(broken.checks)] == [name]
    assert broken.verdict == "fail"
    assert json.loads(broken.to_json())["verdict"] == "fail"


def test_failing_keeps_the_rows_not_at_or_below_their_tolerance_in_order():
    rows = (
        ("a", 1.0, 1.0), ("b", 2.0, 1.0), ("c", math.nan, 1.0), ("d", 0.0, 1.0),
        ("e", math.inf, 1.0), ("f", -math.inf, 1.0),
    )
    assert [name for name, _, _ in failing(rows)] == ["b", "c", "e"]
    assert failing(()) == []


def test_quick_run_passes_with_tiny_residuals():
    report = run_experiment(_quick_config())
    assert report.verdict == "pass"
    assert report.residuals["trace_distance"] < 1e-12
    assert report.residuals["signaling_gap"] < 1e-12
    assert report.residuals["structure"] < 1e-12
    assert report.residuals["channel_unitary"] < 1e-11
    assert not report.config.adequacy_warning


def test_degraded_run_flags_warning_and_widens_only_the_structure_tolerance():
    config = ExperimentConfig(
        alpha=1.0, cutoffs={m: 2 for m in ("a2", "b2", "a3", "b3")}, trials=5
    )
    with pytest.warns(CutoffAdequacyWarning):
        report = run_experiment(config)
    assert report.config.adequacy_warning
    assert report.leakage["final_with_coherent"] > 0.1
    bound = report.truncation["structure_bound"]
    assert bound > 0.1
    assert report.tolerances["structure"] == config.tolerance + bound
    assert report.residuals["structure"] <= bound
    # the no-signaling checks compare normalized left states, so the
    # truncation widens neither their tolerance nor their residual
    assert report.tolerances["trace_distance"] == config.tolerance
    assert report.tolerances["left_oracle"] == config.tolerance
    assert report.tolerances["channel_unitary"] == 1e-10
    assert report.residuals["trace_distance"] <= config.tolerance
    assert report.verdict == "pass"


def test_leakage_entries_are_tracked_per_state():
    with pytest.warns(CutoffAdequacyWarning):
        report = run_experiment(_quick_config(alpha=0.3))
    keys = ["initial_bare", "initial_with_coherent", "final_bare", "final_with_coherent"]
    assert list(report.leakage) == keys
    assert report.leakage["initial_bare"] == 0.0
    assert report.leakage["final_with_coherent"] >= report.leakage["initial_with_coherent"]


# Negative controls: run_experiment with a faulty simulator patched in. Alpha
# 0.5 at right cutoffs 6, below the adequacy rule, so the preparation books a
# Poisson tail of about 1e-8 as leakage.
FAULTY = dict(alpha=0.5, cutoffs={m: 6 for m in ("a2", "b2", "a3", "b3")})


def _banded_arm_splitters(width):
    """beamsplitter_unitary, with each arm splitter's sector blocks cut to
    the entries within ``width`` of the diagonal, so no move of more than
    ``width`` photons between an arm's two modes survives. The cut blocks
    stay flagged unitary, so apply books the norm they lose as leakage; the
    left splitter is the true one."""

    def faulty(spec, bs):
        u = beamsplitter_unitary(spec, bs)
        if bs.mode_pair == ("a1", "b1"):
            return u
        band = tuple((sl, np.triu(np.tril(b, width), -width)) for sl, b in u.blocks)
        return LinearOperator(u.spec, blocks=band, unitary=True)

    return faulty


@pytest.mark.filterwarnings("ignore::kalamidas.CutoffAdequacyWarning")
@pytest.mark.parametrize("width", [2, 1], ids=["moves-over-2", "moves-over-1"])
def test_clipped_arm_splitters_fail_the_trace_distance(monkeypatch, width):
    """Dropping the large moves takes more amplitude from the injected
    preparation than from the bare one, so the left state moves with alpha,
    the apparent signal the source paper shows the standard formalism never
    gives. The splitters are clipped where the arm-pair vectors get them.
    The booked loss (8.6e-4 and 1.7e-2) must not widen the bound."""
    monkeypatch.setattr(experiment, "beamsplitter_unitary", _banded_arm_splitters(width))
    report = run_experiment(ExperimentConfig(**FAULTY))
    base = report.config.tolerance
    assert report.tolerances["trace_distance"] == base
    assert report.residuals["trace_distance"] >= 1e3 * base
    assert report.verdict == "fail"


def _arm_b_with_flipped_reflectivity(spec, bs):
    """beamsplitter_unitary, with arm b built with -r."""
    if bs.mode_pair == ("b2", "b3"):
        bs = BeamSplitter(bs.mode_pair, bs.t, -bs.r)
    return beamsplitter_unitary(spec, bs)


@pytest.mark.filterwarnings("ignore::kalamidas.CutoffAdequacyWarning")
def test_flipped_arm_b_reflectivity_fails_only_the_splitter_checks(monkeypatch):
    """Arm b built with -r is still a unitary on the right, so the left state
    does not move and the no-signaling checks pass; it is not the stated
    splitter, so its Heisenberg check and the structure check fail. At these
    undersized cutoffs structure reads 4.2e-4 without the fault, inside its
    derived bound of 1.2e-3; with it, a residual of order one."""
    monkeypatch.setattr(experiment, "beamsplitter_unitary", _arm_b_with_flipped_reflectivity)
    report = run_experiment(ExperimentConfig(**FAULTY))
    failed = {name for name, _, _ in failing(report.checks)}
    assert failed == {"heisenberg_arm_b", "structure"}
    assert min(report.residuals["heisenberg_arm_b"], report.residuals["structure"]) > 1.0
    for name in ("trace_distance", "signaling_gap", "left_oracle"):
        assert report.tolerances[name] == report.config.tolerance


def test_the_heisenberg_check_reads_the_sectors_up_to_the_smaller_cutoff(monkeypatch):
    """Arm a with one sector block negated: the block of total m, the
    smaller cutoff, is the last output sector the check reads, so it fails
    there; the block of total m + 1 lies outside the exactly-representable
    sectors, so every Heisenberg residual stays at rounding level."""
    config = ExperimentConfig(alpha=0.0, cutoffs=QUICK, trials=5)
    stated = experiment.beamsplitter_unitary
    m = min(QUICK.values())
    residuals = {}
    for shift in (0, 1):

        def negated(spec, bs):
            u = stated(spec, bs)
            if bs.mode_pair != ("a2", "a3"):
                return u
            blocks = tuple((sl, -b if n == m + shift else b) for n, (sl, b) in enumerate(u.blocks))
            return LinearOperator(u.spec, blocks=blocks, unitary=True)

        monkeypatch.setattr(experiment, "beamsplitter_unitary", negated)
        residuals[shift] = heisenberg_residuals(config)
    assert residuals[0]["arm_a"] > 1.0
    assert max(residuals[1].values()) < 1e-12


@pytest.mark.filterwarnings("ignore::kalamidas.CutoffAdequacyWarning")
def test_nx_diagonal_arm_splitters_fail_unitarity_and_structure(monkeypatch):
    """Arm splitters cut to their n_x-diagonal entries move no photon at all
    and lose 0.65 of the arm vectors' norm, alike in both preparations and
    on both arms, so the normalized left states do not move and no
    no-signaling, channel or selective row fails. The loss fails unitarity,
    the distorted vectors fail structure against its derived bound, and the
    cut blocks fail the arm splitters' Heisenberg rows."""
    monkeypatch.setattr(experiment, "beamsplitter_unitary", _banded_arm_splitters(0))
    report = run_experiment(ExperimentConfig(**FAULTY))
    assert report.leakage["final_with_coherent"] > 0.5
    failed = {name for name, _, _ in failing(report.checks)}
    assert failed == {"heisenberg_arm_a", "heisenberg_arm_b", "structure", "unitarity"}
    assert min(report.residuals[name] for name in failed) > 0.3
    assert report.verdict == "fail"


def _nx_diagonal_arm_apply(op, state):
    """apply, with each arm splitter cut to its n_x-diagonal entries where
    the arm-pair vectors meet it; the Heisenberg rows read the true blocks."""
    if op.unitary and op.spec.modes in (("a2", "a3"), ("b2", "b3")):
        blocks = tuple((sl, np.diag(np.diag(b))) for sl, b in op.blocks)
        op = LinearOperator(op.spec, blocks=blocks, unitary=True)
    return apply(op, state)


def _series_normalized_with_e_to_minus_alpha_squared(alpha, dim):
    return coherent_series(alpha, dim) * math.exp(-abs(alpha) ** 2 / 2)


_ROW_BLOCKS = channels._row_blocks
_SPLITTERS = experiment._splitters
_BRANCHES = experiment._branches


def _kraus_family_with_one_operator_dropped(sub, q):
    """channels._row_blocks, with the last operator of each Kraus family
    of the battery dropped; its unitaries are kept."""
    blocks = _ROW_BLOCKS(sub, q)
    return blocks[:-1] if len(blocks) > 1 else blocks


def _haar_unitary_scaled_by_0_99(sub, q):
    """channels._row_blocks, with each unitary of the battery scaled by 0.99."""
    return (LinearOperator(sub, 0.99 * q),) if len(q) == sub.dim else _ROW_BLOCKS(sub, q)


def _projectors_missing_total_zero(spec, modes):
    return occupation_projectors(spec, modes)[1:]


def _cross_term_unconjugated(k, x, y):
    """channels._cross_term with the operator rows it reads first left
    unconjugated, sum_r Tr(K_r^T x^T K_r y): a contraction bug that only the
    channels on a pair across the arms meet."""
    return np.sum(k * (x.T @ (k @ y)))


def _phase_on_the_a_pair(config, prepared):
    """experiment._branches, with e^{i phi} on the a1+ a2+ branch (|10>)
    instead of the b1+ b2+ one (|01>)."""
    (c0, q0a, q1b), (c1, q1a, q0b) = _BRANCHES(config, prepared)
    return [(c1, q0a, q1b), (c0, q1a, q0b)]


def _left_splitter_at_t_0_6(config):
    return (BeamSplitter(("a1", "b1"), 0.6, 0.8),) + _SPLITTERS(config)[1:]


_CLIPPED = {
    "heisenberg_arm_a", "heisenberg_arm_b", "structure", "trace_distance", "signaling_gap",
    "left_oracle", "unitarity",
}


@pytest.mark.parametrize(
    "seam, fault, phi, failed",
    [
        pytest.param(None, None, 0.0, set(), id="honest"),
        pytest.param(None, None, 1.3, set(), id="honest-at-phi-1.3"),
        pytest.param(
            "experiment.beamsplitter_unitary", _banded_arm_splitters(2), 0.0, _CLIPPED,
            id="moves-over-2",
        ),
        pytest.param(
            "experiment.beamsplitter_unitary", _banded_arm_splitters(1), 0.0, _CLIPPED,
            id="moves-over-1",
        ),
        pytest.param(
            "experiment.beamsplitter_unitary", _banded_arm_splitters(0), 0.0,
            {"heisenberg_arm_a", "heisenberg_arm_b", "structure", "unitarity"},
            id="nx-diagonal-arm-splitters",
        ),
        pytest.param(
            "experiment.beamsplitter_unitary", _arm_b_with_flipped_reflectivity, 0.0,
            {"heisenberg_arm_b", "structure"}, id="arm-b-reflectivity-flipped",
        ),
        pytest.param(
            "experiment.apply", _nx_diagonal_arm_apply, 0.0, {"structure", "unitarity"},
            id="nx-diagonal-in-apply",
        ),
        pytest.param(
            "experiment.coherent_series", _series_normalized_with_e_to_minus_alpha_squared, 0.0,
            {"preparation"}, id="series-normalized-with-e^-|alpha|^2",
        ),
        pytest.param(
            "experiment._branches", dropped_term_branches, 0.0,
            {"structure", "trace_distance", "signaling_gap", "left_oracle", "reduced_invariants"},
            id="dropped-term",
        ),
        pytest.param(
            "channels._row_blocks", _kraus_family_with_one_operator_dropped, 0.0,
            {"channel_kraus", "reduced_invariants"}, id="kraus-operator-dropped",
        ),
        pytest.param(
            "channels._row_blocks", _haar_unitary_scaled_by_0_99, 0.0,
            {"channel_unitary", "reduced_invariants"}, id="haar-unitary-scaled-by-0.99",
        ),
        pytest.param(
            "experiment.occupation_projectors", _projectors_missing_total_zero, 0.0,
            {"channel_projective", "reduced_invariants"}, id="projectors-missing-total-0",
        ),
        pytest.param(
            "channels._cross_term", _cross_term_unconjugated, 0.0,
            {"channel_unitary", "channel_kraus", "reduced_invariants"},
            id="cross-term-unconjugated",
        ),
        pytest.param(
            "experiment._branches", _phase_on_the_a_pair, 1.3, {"structure"},
            id="phase-on-the-a-pair",
        ),
        pytest.param(
            "experiment._splitters", _left_splitter_at_t_0_6, 0.0, {"heisenberg_left_pair"},
            id="left-splitter-at-t-0.6",
        ),
    ],
)
def test_the_fault_table(monkeypatch, seam, fault, phi, failed):
    """Each fault, patched at one seam of the package, fails exactly these
    rows at alpha = 0.5 with right cutoffs 14, where the honest run fails
    none. A row fails when its residual is not at or below its tolerance, as
    ``failing`` reads it for the report, the CLI and the sweep, so a NaN
    fails. The series normalized with e^{-|alpha|^2} (preparation loss 1 -
    e^{-1/2}) is caught by one row alone, the preparation's leakage against
    its closed-form Poisson tails; the branches' phase on the wrong pair by
    structure alone, against the ideal branches' coefficients, and it
    changes nothing at phi = 0, so it runs at phi = 1.3; the left splitter
    at t = 0.6 by its Heisenberg row alone, held to the balanced closed
    form, since no other row reads the left splitter."""
    if seam is not None:
        monkeypatch.setattr(f"kalamidas.{seam}", fault)
    config = ExperimentConfig(alpha=0.5, phi=phi, cutoffs=dict.fromkeys(RIGHT_LABELS, 14))
    report = run_experiment(config)
    got = {name for name, _, _ in failing(report.checks)}
    assert got == failed
    assert report.verdict == ("fail" if failed else "pass")


# The battery's 40 draws in order: 20 Haar unitaries, then 20 Kraus
# families, the k-th of each on the right pair k mod 6 of _RIGHT_PAIRS, so
# draws 0, 2, 3 and 5 of every six are on a pair across the arms.
_UNITARY_DRAWS = list(range(20))
_KRAUS_DRAWS = list(range(20, 40))
_CROSS_PAIR_DRAWS = [
    0, 2, 3, 5, 6, 8, 9, 11, 12, 14, 15, 17, 18, 20, 22, 23, 25, 26, 28, 29, 31, 32, 34, 35, 37, 38,
]


@pytest.mark.parametrize(
    "seam, fault, flagged",
    [
        pytest.param(None, None, [], id="honest"),
        pytest.param(
            "channels._row_blocks", _kraus_family_with_one_operator_dropped, _KRAUS_DRAWS,
            id="kraus-operator-dropped",
        ),
        pytest.param(
            "channels._row_blocks", _haar_unitary_scaled_by_0_99, _UNITARY_DRAWS,
            id="haar-unitary-scaled-by-0.99",
        ),
        pytest.param(
            "experiment.occupation_projectors", _projectors_missing_total_zero, [],
            id="projectors-missing-total-0",
        ),
        pytest.param(
            "channels._cross_term", _cross_term_unconjugated, _CROSS_PAIR_DRAWS,
            id="cross-term-unconjugated",
        ),
    ],
)
def test_the_per_draw_catalogue(monkeypatch, seam, fault, flagged):
    """Which of the battery's 40 draws flag each channel fault at the fault
    table's config: a draw flags when its left state is not within the
    channel rows' tolerance of the injected preparation's. Each fault on
    the operators is flagged by every draw of its kind, the contraction bug
    by every draw on a pair across the arms and by none on an arm's own
    pair, and the projectors, which no draw reads, by none (the projective
    row catches them)."""
    recorded = []

    def battery(spec, branches, draws):
        grams = haar_channels_left(spec, branches, draws)
        rho = branch_gram(branches)
        recorded.extend(trace_distance(gram, rho) for gram in grams)
        return grams

    monkeypatch.setattr(experiment, "haar_channels_left", battery)
    if seam is not None:
        monkeypatch.setattr(f"kalamidas.{seam}", fault)
    run_experiment(ExperimentConfig(alpha=0.5, cutoffs=dict.fromkeys(RIGHT_LABELS, 14)))
    assert len(recorded) == 2 * experiment._CHANNEL_TRIALS
    tolerance = experiment._EXACT_CHECK_TOL
    assert [k for k, moved in enumerate(recorded) if not moved <= tolerance] == flagged


# The structure comparison's configs: alpha from 0 to 2 and a complex alpha
# at the default cutoffs, undersized right cutoffs, a zero cutoff on one
# arm's coherent mode, and the toy config.
_STRUCTURE_CONFIGS = {
    **{f"alpha={a}": dict(alpha=a) for a in (0.0, 0.5, 1.0, 1.5, 2.0, 1 + 0.5j)},
    **{f"alpha=0.5,right={n}": dict(alpha=0.5, cutoffs=dict.fromkeys(RIGHT_LABELS, n)) for n in (6, 10)},
    **{f"alpha=1,right={n}": dict(alpha=1.0, cutoffs=dict.fromkeys(RIGHT_LABELS, n)) for n in (8, 10)},
    "b3=0": dict(alpha=0.0, t=0.6, cutoffs={"b3": 0}),
    "a3=0": dict(alpha=0.5, cutoffs={"a3": 0}),
    "toy": dict(alpha=0.0, cutoffs=QUICK),
}


def _arm_structure(config):
    branches = branches_at(config, config.alpha, config.phi)
    return experiment._structure(branches, experiment._ideal_branches(config))


@pytest.mark.filterwarnings("ignore::kalamidas.CutoffAdequacyWarning")
@pytest.mark.parametrize("name", list(_STRUCTURE_CONFIGS))
def test_arm_vector_structure_equals_the_six_mode_distance(name):
    """structure from the arm vectors against the ideal ones is the norm of
    the evolved six-mode state less the direct construction, to 1e-13."""
    config = ExperimentConfig(**_STRUCTURE_CONFIGS[name])
    evolved = evolve(initial_state_with_coherent(config), config)
    six_mode = float(np.linalg.norm(evolved.amplitudes - direct_final_state(config).amplitudes))
    assert abs(_arm_structure(config) - six_mode) <= 1e-13


_UNDERSIZED = [
    dict(alpha=alpha, t=t, cutoffs=dict.fromkeys(RIGHT_LABELS, n))
    for alpha in (0.5, 1.0, 1.5, 2.0)
    for t in (0.6, SQRT_HALF, 0.9)
    for n in (4, 6, 8, 10, 14)
] + [
    dict(alpha=0.5, cutoffs={"a3": 0}),
    dict(alpha=1.0, t=0.6, cutoffs={"b3": 0}),
    dict(alpha=0.0, t=0.6, cutoffs={"b3": 0}),
    dict(alpha=0.0, cutoffs={"a3": 0, "b3": 0}),
    dict(alpha=1.0, cutoffs={"a2": 3}),
    dict(alpha=2.0, cutoffs={"b2": 2, "a3": 5}),
]


@pytest.mark.filterwarnings("ignore::kalamidas.CutoffAdequacyWarning")
def test_the_truncation_bound_holds_the_structure_error_at_undersized_cutoffs():
    """The derived bound stays at or above the structure error over alpha,
    t and right cutoffs from 4 to 14, with zero cutoffs on a3 or b3 and an
    arm whose photon mode is the smaller cutoff; and within 10 times the
    error, so it does not hold it vacuously (2.6 to 6.9 times when
    measured)."""
    for kw in _UNDERSIZED:
        config = ExperimentConfig(**kw)
        error = _arm_structure(config)
        bound = experiment._truncation(config)["structure_bound"]
        assert error <= bound <= 10 * error, kw


def test_report_is_identical_when_every_splitter_comes_from_the_cache():
    from kalamidas.optics import _splitter_matrix

    _splitter_matrix.cache_clear()
    first = run_experiment(_quick_config()).to_json()
    built = _splitter_matrix.cache_info().misses
    assert built == 2  # the left pair and the arm pairs
    second = run_experiment(_quick_config()).to_json()
    assert _splitter_matrix.cache_info().misses == built
    assert first == second


@pytest.mark.parametrize(
    "alpha, t, phi", [(1.0, 0.6, 0.0), (1 + 0.5j, 0.8, 1.0)], ids=["real", "complex"]
)
def test_direct_final_state_is_the_box_projection_of_a_larger_cutoff(alpha, t, phi):
    def direct(n):
        right = {m: n for m in ("a2", "b2", "a3", "b3")}
        return direct_final_state(ExperimentConfig(alpha=alpha, t=t, phi=phi, cutoffs=right))

    small, large = direct(6), direct(20)
    box = large.amplitudes.reshape(large.spec.dims)[:, :, :7, :7, :7, :7].reshape(-1)
    assert np.abs(small.amplitudes - box).max() <= 1e-15


def _ladder_built_initial_state(config, alpha):
    """The photon superposition built by raising a product background, the
    way the states were assembled before the product builder existed."""
    spec = config.hilbert_spec()
    factors = [
        coherent_series(alpha, d)
        if m in ("a3", "b3")
        else np.eye(d, 1, dtype=complex).ravel()
        for m, d in zip(spec.modes, spec.dims)
    ]
    background = factors[0]
    for f in factors[1:]:
        background = np.multiply.outer(background, f)
    background = PureState(spec, background.reshape(-1))

    def up(label, state):
        return apply(ladder(spec, label, "raise"), state)

    sa = up("a1", up("a2", background))
    sb = up("b1", up("b2", background))
    amps = np.zeros(spec.dim, dtype=np.complex128)
    amps += 1.0 * sa.amplitudes
    amps += np.exp(1j * config.phi) * sb.amplitudes
    return SQRT_HALF * amps


@pytest.mark.filterwarnings("ignore::kalamidas.CutoffAdequacyWarning")
@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1 + 0.5j])
@pytest.mark.parametrize("phi", [0.0, math.pi / 3, 1.0, math.pi])
def test_initial_states_equal_the_ladder_construction(alpha, phi):
    config = ExperimentConfig(alpha=alpha, phi=phi, cutoffs=(1, 1, 3, 3, 6, 6))
    bare = initial_state_bare(config)
    injected = initial_state_with_coherent(config)
    assert np.array_equal(bare.amplitudes, _ladder_built_initial_state(config, 0.0))
    assert np.array_equal(injected.amplitudes, _ladder_built_initial_state(config, alpha))
    assert bare.leakage == 0.0
    assert injected.leakage == max(0.0, 1.0 - injected.norm2)


def test_undersized_run_warns_once_at_config_level():
    right = {m: 3 for m in ("a2", "b2", "a3", "b3")}
    config = ExperimentConfig(alpha=1.0, cutoffs=right, trials=3)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        run_experiment(config)
    adequacy = [w for w in caught if issubclass(w.category, CutoffAdequacyWarning)]
    assert len(adequacy) == 1
    assert "right-mode cutoffs" in str(adequacy[0].message)


@pytest.mark.parametrize(
    "call",
    [
        run_experiment,
        initial_state_with_coherent,
        lambda config: left_states_over_phases(config, [0.0], injected=True),
    ],
    ids=["run_experiment", "initial_state_with_coherent", "left_states_over_phases"],
)
def test_adequacy_warning_is_attributed_to_the_calling_code(call):
    config = ExperimentConfig(alpha=1.0, cutoffs={m: 3 for m in ("a2", "b2", "a3", "b3")})
    with pytest.warns(CutoffAdequacyWarning) as caught:
        call(config)
    assert [w.filename for w in caught] == [__file__]


def test_the_channel_battery_equals_drawing_and_applying_one_channel_at_a_time(monkeypatch):
    """The two lanes change no bit: every Gram matrix and channel residual
    of the run equals the serial recomputation through the public draws and
    channel_gram. The lanes finish draws out of order, so the battery's
    Gram matrices are read off its returned list, one per draw index, not
    in call order."""
    config = ExperimentConfig(alpha=0.0, trials=3)
    recorded = []

    def battery(*args):
        grams = haar_channels_left(*args)
        recorded.extend(grams)
        return grams

    def recording(operators, branches):  # the projective row, on this thread
        gram = channel_gram(operators, branches)
        recorded.append(gram)
        return gram

    monkeypatch.setattr(experiment, "haar_channels_left", battery)
    monkeypatch.setattr(experiment, "channel_gram", recording)
    report = run_experiment(config)
    monkeypatch.undo()

    spec = config.hilbert_spec()
    branches = branches_at(config, config.alpha, config.phi)
    rho = placed_left_state(config, branch_gram(branches))
    right_pairs = experiment._RIGHT_PAIRS
    pairs = [right_pairs[k % len(right_pairs)] for k in range(experiment._CHANNEL_TRIALS)]
    with experiment._one_blas_thread():  # as run_experiment runs
        unitaries = [
            channel_gram((random_right_unitary(spec, pair, (config.seed, 2, k)),), branches)
            for k, pair in enumerate(pairs)
        ]
        kraus = [
            channel_gram(random_kraus(spec, pair, (config.seed, 3, k), k=3), branches)
            for k, pair in enumerate(pairs)
        ]
    projective = channel_gram(occupation_projectors(spec, ("a2", "b2")), branches)
    serial = unitaries + kraus + [projective]
    assert len(recorded) == len(serial)
    for got, want in zip(recorded, serial):
        assert np.array_equal(got, want)

    def moved(grams):
        return max(trace_distance(gram, branch_gram(branches)) for gram in grams)

    def placed_moved(grams):
        lefts = [placed_left_state(config, gram) for gram in grams]
        return max(trace_distance(left, rho) for left in lefts)

    for name, grams in (("unitary", unitaries), ("kraus", kraus), ("projective", [projective])):
        assert report.residuals[f"channel_{name}"] == moved(grams)
        assert abs(placed_moved(grams) - moved(grams)) <= 1e-15


class _DrawFailed(RuntimeError):
    pass


@pytest.mark.parametrize("fail", [False, True], ids=["passing", "failing"])
def test_a_failing_draw_reraises_and_the_worker_is_joined(monkeypatch, fail):
    """Every draw from the unitary of index 5 on fails. A failing draw
    waits until the other lane has taken a failing draw too, so each of the
    two lanes raises: the run re-raises the failure's own object, and the
    helper lane has been joined."""
    config = ExperimentConfig(alpha=0.0, cutoffs=QUICK, trials=3)
    run_experiment(config)  # any thread a first run starts for good is running now
    draw = channels._haar_isometry
    failure = _DrawFailed("draw failed")
    both_lanes = threading.Barrier(2, timeout=60)
    failing_threads = set()

    def failing(z, seed):
        if fail and seed >= (config.seed, 2, 5):
            failing_threads.add(threading.get_ident())
            both_lanes.wait()
            raise failure
        return draw(z, seed)

    monkeypatch.setattr(channels, "_haar_isometry", failing)
    before = threading.active_count()
    if fail:
        with pytest.raises(_DrawFailed) as raised:
            run_experiment(config)
        assert raised.value is failure
        assert len(failing_threads) == 2
    else:
        assert run_experiment(config).verdict == "pass"
    assert threading.active_count() == before
