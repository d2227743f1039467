"""Acceptance criteria for the no-signaling verification.

Each test prints one PASS line with the measured figure against its
tolerance. The frozen numbers (selective outcome probability, conditional
contrast, conditional occupation weights) come from an independent
tensor-contraction oracle kept outside this package and are pinned here to
twelve digits.
"""
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from conftest import child_env

from kalamidas import (
    LEFT_LABELS,
    BeamSplitter,
    ExperimentConfig,
    LinearOperator,
    apply,
    beamsplitter_unitary,
    direct_final_state,
    evolve,
    heisenberg_residuals,
    initial_state_bare,
    initial_state_with_coherent,
    occupation_projectors,
    random_kraus,
    reduce_left,
    signaling_gap,
    trace_distance,
)
from kalamidas.experiment import _RIGHT_PAIRS, SQRT_HALF, left_states_over_phases
from kalamidas.hilbert import embed
from kalamidas.nosignal import expectation, random_left_observable
from kalamidas.optics import displacement_unitary

from fock import (
    analytic_left_state,
    completeness_defect,
    conditional_left_by_occupation,
    number_op,
    placed_left_state,
    vacuum,
    validate,
)

FROZEN_SELECTIVE_PROBABILITY = 0.27590958087858186
FROZEN_SELECTIVE_CONTRAST = 1.0 / 6.0
FROZEN_CONDITIONAL_DIAG = (0.0, 2.0 / 3.0, 1.0 / 3.0, 0.0)

NO_SIGNALING_TOL = 1e-9
ORACLE_TOL = 1e-9
STRUCTURE_TOL = 1e-9
PHASE_STAGE_TOL = 1e-13
HEISENBERG_TOL = 1e-10
CHANNEL_TOL = 1e-10
MIXTURE_TOL = 1e-10
HYGIENE_TOL = 1e-10
CONTRAST_FLOOR = 0.01


def test_no_signaling_across_parameter_grid():
    """Every phase of an (alpha, t) comes from its arm-pair vectors
    (left_states_over_phases), as 2 x 2 Gram matrices; for each alpha one
    point is also evolved the direct way, in full, and its reduction must
    agree with them placed by the left splitter."""
    alphas = [0.0, 0.5, 1.0, 1.0 + 0.5j]
    ts = [0.6, SQRT_HALF, 0.9]
    phis = [0.0, math.pi / 3.0, math.pi]
    worst_td, worst_gap, worst_direct, points = 0.0, 0.0, 0.0, 0
    for i, alpha in enumerate(alphas):
        direct_point = (ts[i % len(ts)], phis[(i + 1) % len(phis)])
        for t in ts:
            config = ExperimentConfig(alpha=alpha, t=t)
            with_states = left_states_over_phases(config, phis, injected=True)
            bare_states = left_states_over_phases(config, phis, injected=False)
            for phi, g_with, g_bare in zip(phis, with_states, bare_states):
                rho_with, rho_bare = (
                    validate(placed_left_state(config, g), 1.0 - np.trace(g).real, HYGIENE_TOL)
                    for g in (g_with, g_bare)
                )
                td = trace_distance(g_with, g_bare)
                gap = signaling_gap(g_with, g_bare)
                assert td <= NO_SIGNALING_TOL, f"trace distance {td:.3e} at {alpha=}, {t=}, {phi=}"
                assert gap <= NO_SIGNALING_TOL, f"gap {gap:.3e} at {alpha=}, {t=}, {phi=}"
                worst_td, worst_gap = max(worst_td, td), max(worst_gap, gap)
                points += 1
                if (t, phi) != direct_point:
                    continue
                point = ExperimentConfig(alpha=alpha, t=t, phi=phi)
                for rho, prepare in (
                    (rho_with, initial_state_with_coherent),
                    (rho_bare, initial_state_bare),
                ):
                    direct = reduce_left(evolve(prepare(point), point))
                    deviation = float(np.abs(rho - direct).max())
                    assert deviation <= PHASE_STAGE_TOL, (
                        f"stage deviates by {deviation:.3e} at {alpha=}, {t=}, {phi=}"
                    )
                    worst_direct = max(worst_direct, deviation)

    # a negative reflectivity branch must not open a signaling channel either
    config = ExperimentConfig(alpha=0.8, t=0.8)
    spec = config.hilbert_spec()
    flipped = [
        beamsplitter_unitary(spec, BeamSplitter(("b2", "b3"), 0.8, -0.6)),
        beamsplitter_unitary(spec, BeamSplitter(("a2", "a3"), 0.8, -0.6)),
        beamsplitter_unitary(spec, BeamSplitter(("a1", "b1"), SQRT_HALF, SQRT_HALF)),
    ]

    def run(state):
        for u in flipped:
            state = apply(u, state)
        return reduce_left(state)

    td = trace_distance(run(initial_state_with_coherent(config)), run(initial_state_bare(config)))
    assert td <= NO_SIGNALING_TOL
    worst_td = max(worst_td, td)
    points += 1
    print(
        f"PASS no-signaling: worst trace distance {worst_td:.3e} and worst gap "
        f"{worst_gap:.3e} <= {NO_SIGNALING_TOL:.0e} over {points} parameter points, "
        f"the gap the trace norm; {len(alphas)} points evolved the direct way "
        f"agree to {worst_direct:.3e} <= {PHASE_STAGE_TOL:.0e}"
    )


def test_left_expectation_matches_analytic_oracle(default_config, reduced_pair):
    rho_with, _ = reduced_pair
    left = default_config.hilbert_spec().subspace(LEFT_LABELS)
    sigma = analytic_left_state(left)
    worst = 0.0
    for k in range(100):
        h = random_left_observable(left, (11, k))
        worst = max(worst, abs(expectation(rho_with, h) - expectation(sigma, h)))
    assert worst <= ORACLE_TOL
    gap = signaling_gap(rho_with, sigma)
    assert gap <= ORACLE_TOL

    n_a1 = embed(number_op(left, "a1"), left)
    assert abs(expectation(rho_with, n_a1) - 0.5) <= ORACLE_TOL
    assert expectation(sigma, n_a1) == pytest.approx(0.5, abs=1e-14)
    total = LinearOperator(left, n_a1.matrix + embed(number_op(left, "b1"), left).matrix)
    assert abs(expectation(rho_with, total) - 1.0) <= ORACLE_TOL
    print(
        f"PASS left oracle: worst deviation {worst:.3e} over 100 random observables "
        f"and trace norm {gap:.3e} <= {ORACLE_TOL:.0e}, plus occupation anchors 0.5 and 1.0"
    )


def test_beamsplitter_heisenberg_actions(default_report):
    worst = max(
        default_report.residuals[key]
        for key in ("heisenberg_left_pair", "heisenberg_arm_a", "heisenberg_arm_b")
    )
    for t in (0.0, 0.6, 0.9, 1.0):
        res = heisenberg_residuals(
            ExperimentConfig(alpha=0.0, t=t, cutoffs={"a2": 4, "b2": 4, "a3": 4, "b3": 4})
        )
        worst = max(worst, max(res.values()))
    assert worst <= HEISENBERG_TOL
    print(
        f"PASS heisenberg: worst creation-operator action residual {worst:.3e} "
        f"<= {HEISENBERG_TOL:.0e} across splitters and t in {{0, 0.6, 1/sqrt2, 0.9, 1}}"
    )


def test_evolved_state_matches_direct_construction(default_report):
    worst = default_report.residuals["structure"]
    assert worst <= STRUCTURE_TOL
    for alpha, t in ((1.0 + 0.5j, 0.6), (0.5, 0.9)):
        config = ExperimentConfig(alpha=alpha, t=t)
        delta = float(
            np.linalg.norm(
                evolve(initial_state_with_coherent(config), config).amplitudes
                - direct_final_state(config).amplitudes
            )
        )
        assert delta <= STRUCTURE_TOL, f"structure residual {delta:.3e} at {alpha=}, {t=}"
        worst = max(worst, delta)

    config = ExperimentConfig(alpha=1.0)
    spec = config.hilbert_spec()
    t, r = config.t, config.r
    u = beamsplitter_unitary(spec, BeamSplitter(("a2", "a3"), t, r))
    lhs = apply(u, apply(displacement_unitary(spec, "a3", 1.0), vacuum(spec)))
    rhs = apply(
        displacement_unitary(spec, "a2", -r),
        apply(displacement_unitary(spec, "a3", t), vacuum(spec)),
    )
    covariance = float(np.abs(lhs.amplitudes - rhs.amplitudes).max())
    assert covariance <= 1e-8
    print(
        f"PASS structure: worst evolved-vs-direct residual {worst:.3e} <= "
        f"{STRUCTURE_TOL:.0e}; displacement covariance {covariance:.3e} <= 1e-08"
    )


def test_channel_battery_preserves_left_state(default_report):
    res = default_report.residuals
    for key in ("channel_unitary", "channel_projective", "channel_kraus"):
        assert res[key] <= CHANNEL_TOL, f"{key} residual {res[key]:.3e}"
    worst = max(res[key] for key in ("channel_unitary", "channel_projective", "channel_kraus"))
    print(
        f"PASS channels: worst left-state movement {worst:.3e} <= {CHANNEL_TOL:.0e} "
        f"over 20 unitaries, an occupation measurement, and 20 Kraus channels"
    )


def test_selective_outcome_contrast_and_mixture(default_report, evolved_states):
    sel = default_report.selective
    assert sel["outcome"] == {"a2": 0, "b2": 0}
    assert sel["probability"] == pytest.approx(FROZEN_SELECTIVE_PROBABILITY, rel=1e-12)
    assert sel["conditional_trace_distance"] == pytest.approx(
        FROZEN_SELECTIVE_CONTRAST, abs=1e-12
    )
    assert sel["conditional_trace_distance"] > CONTRAST_FLOOR
    assert default_report.residuals["selective_mixture"] <= MIXTURE_TOL

    psi_with, _ = evolved_states
    outcomes, mixture = conditional_left_by_occupation(psi_with, ("a2", "b2"))
    (conditional,) = [cond for occ, _, cond in outcomes if occ == (0, 0)]
    diag = np.diag(conditional).real
    assert np.abs(diag - np.array(FROZEN_CONDITIONAL_DIAG)).max() < 1e-9
    mixture_residual = trace_distance(mixture, reduce_left(psi_with))
    assert mixture_residual <= MIXTURE_TOL
    print(
        f"PASS selective: outcome (0, 0) with probability "
        f"{sel['probability']:.12f}, contrast {sel['conditional_trace_distance']:.12f} "
        f"> {CONTRAST_FLOOR}, mixture restored to {mixture_residual:.3e} <= {MIXTURE_TOL:.0e}"
    )


def test_numerical_hygiene(default_config, default_report, evolved_states, reduced_pair):
    spec = default_config.hilbert_spec()
    d = displacement_unitary(spec, "a3", default_config.alpha)
    unitarity = float(
        np.abs(d.matrix.conj().T @ d.matrix - np.eye(d.spec.dim)).max()
    )
    assert unitarity <= HYGIENE_TOL

    u = beamsplitter_unitary(
        spec, BeamSplitter(("a2", "a3"), default_config.t, default_config.r)
    )
    bs_unitarity = float(np.abs(u.matrix.conj().T @ u.matrix - np.eye(u.spec.dim)).max())
    assert bs_unitarity <= HYGIENE_TOL

    completeness = 0.0
    for k, pair in enumerate(_RIGHT_PAIRS):
        kraus = random_kraus(spec, pair, (default_config.seed, 3, k), k=3)
        completeness = max(completeness, completeness_defect(kraus))
    assert completeness <= HYGIENE_TOL

    # hermitian idempotents summing to I, hence pairwise orthogonal
    projectors = occupation_projectors(spec, ("a2", "b2"))
    projection = completeness_defect(projectors)
    total = np.zeros((projectors[0].spec.dim,) * 2, dtype=np.complex128)
    for p in projectors:
        m = p.matrix
        hermiticity = float(np.abs(m - m.conj().T).max())
        idempotency = float(np.abs(m @ m - m).max())
        projection = max(projection, hermiticity, idempotency)
        total += m
    projection = max(projection, float(np.abs(total - np.eye(len(total))).max()))
    assert projection <= HYGIENE_TOL

    for rho, psi in zip(reduced_pair, evolved_states, strict=True):
        validate(rho, psi.leakage, HYGIENE_TOL)
    assert default_report.residuals["reduced_invariants"] <= HYGIENE_TOL
    worst = max(
        unitarity, bs_unitarity, completeness, projection,
        default_report.residuals["reduced_invariants"],
    )
    print(
        f"PASS hygiene: worst unitarity/completeness/projector/invariant defect {worst:.3e} "
        f"<= {HYGIENE_TOL:.0e}"
    )


def test_cli_determinism_and_exit_codes(tmp_path):
    cli = [sys.executable, "-m", "kalamidas"]
    quick = [
        "--alpha-re", "0",
        "--cutoff", "a2=3", "--cutoff", "b2=3", "--cutoff", "a3=3", "--cutoff", "b3=3",
        "--trials", "3",
    ]
    run = dict(capture_output=True, text=True, timeout=600, env=child_env())
    first = subprocess.run(cli + quick, **run)
    second = subprocess.run(cli + quick, **run)
    assert first.returncode == 0
    assert first.stdout == second.stdout
    assert json.loads(first.stdout)["verdict"] == "pass"

    failing = subprocess.run(cli + quick + ["--tolerance", "1e-30"], **run)
    assert failing.returncode == 1
    assert json.loads(failing.stdout)["verdict"] == "fail"

    usage = subprocess.run(cli + ["--t", "1.2"], **run)
    assert usage.returncode == 2
    assert "[0, 1]" in usage.stderr
    print(
        "PASS cli: byte-identical reports on repeated runs; exit codes 0 (pass), "
        "1 (verdict fail), 2 (usage) observed"
    )
