"""Output checks for the benchmark workloads.

Every expected value here is computed from the request and from closed forms,
never from the program or from a stored copy of its output. Each check
returns a list of problems; an empty list means the output is correct.
"""
from __future__ import annotations

import json
import math

# Checks whose residual is exact linear algebra: the left state may not move
# under injection or any non-selective right-side channel.
INVARIANCE_CHECKS = (
    "trace_distance",
    "signaling_gap",
    "channel_unitary",
    "channel_projective",
    "channel_kraus",
    "selective_mixture",
)
INVARIANCE_LIMIT = 1e-9

RESIDUAL_NAMES = (
    "heisenberg_left_pair",
    "heisenberg_arm_a",
    "heisenberg_arm_b",
    "structure",
    "trace_distance",
    "signaling_gap",
    "left_oracle",
    "channel_unitary",
    "channel_projective",
    "channel_kraus",
    "selective_mixture",
    "reduced_invariants",
)

# Closed-form selective values agree with the program to 1e-15; this limit
# leaves room for truncation leakage (about 6e-15 at |alpha| = 1).
SELECTIVE_LIMIT = 1e-9

SWEEP_LIMIT = 1e-9


def right_cutoff(alpha: complex) -> int:
    """Default right-mode cutoff: the adequacy rule plus a margin of 5."""
    a = abs(alpha)
    return math.ceil(a * a + 5.0 * a + 10.0) + 5


def expected_selective(alpha: complex, t: float) -> tuple[dict, float, float]:
    """(outcome, probability, contrast) of the most informative (a2, b2)
    occupation outcome of the default verdict at real t.

    Without injection the photon itself is the record: outcome a2=0, b2=1
    has P = t^2/2 and leaves the left pair in a pure state, contrast 1/2.
    With injection, outcome a2=b2=0 has
    P = r^2 exp(-2 r^2 |alpha|^2) (1 + t^2 |alpha|^2) and contrast
    t^2 |alpha|^2 / (2 (1 + t^2 |alpha|^2)), with r = sqrt(1 - t^2); at
    alpha = 1, t = 1/sqrt2 this is 0.2759095808... and 1/6.
    """
    if alpha == 0:
        return {"a2": 0, "b2": 1}, t * t / 2.0, 0.5
    a2 = abs(alpha) ** 2
    r2 = 1.0 - t * t
    weight = 1.0 + t * t * a2
    probability = r2 * math.exp(-2.0 * r2 * a2) * weight
    return {"a2": 0, "b2": 0}, probability, t * t * a2 / (2.0 * weight)


def check_verdict(
    status: int,
    report_text: str,
    *,
    alpha: complex,
    t: float,
    phi: float,
    seed: int,
    trials: int,
    tolerance: float,
) -> list[str]:
    """Check one CLI verdict: exit status, report, echoed config, selective block."""
    problems = []
    if status != 0:
        problems.append(f"exit status {status}, expected 0")
    try:
        report = json.loads(report_text)
    except json.JSONDecodeError as exc:
        return problems + [f"report is not JSON: {exc}"]

    residuals = report.get("residuals", {})
    tolerances = report.get("tolerances", {})
    for name in RESIDUAL_NAMES:
        if name not in residuals or name not in tolerances:
            problems.append(f"residual {name} missing")
        elif not residuals[name] <= tolerances[name]:
            problems.append(
                f"residual {name} = {residuals[name]!r} above its tolerance "
                f"{tolerances[name]!r}"
            )
    for name in INVARIANCE_CHECKS:
        if name in residuals and not residuals[name] <= INVARIANCE_LIMIT:
            problems.append(
                f"invariance residual {name} = {residuals[name]!r} above "
                f"{INVARIANCE_LIMIT}"
            )
    if report.get("verdict") != "pass":
        problems.append(f"verdict {report.get('verdict')!r}, expected 'pass'")

    config = report.get("config", {})
    right = right_cutoff(alpha)
    expected = {
        "alpha": {"re": complex(alpha).real, "im": complex(alpha).imag},
        "phi": phi,
        "t": t,
        "cutoffs": {"a1": 1, "b1": 1, "a2": right, "b2": right, "a3": right, "b3": right},
        "seed": seed,
        "trials": trials,
        "tolerance": tolerance,
    }
    for key, value in expected.items():
        if config.get(key) != value:
            problems.append(f"config {key} = {config.get(key)!r}, expected {value!r}")
    r = math.sqrt(1.0 - t * t)
    if not abs(config.get("r", math.nan) - r) <= 1e-15:
        problems.append(f"config r = {config.get('r')!r}, expected {r!r}")

    selective = report.get("selective", {})
    outcome, probability, contrast = expected_selective(alpha, t)
    if selective.get("outcome") != outcome:
        problems.append(
            f"selective outcome {selective.get('outcome')!r}, expected {outcome!r}"
        )
    for key, value in (
        ("probability", probability),
        ("conditional_trace_distance", contrast),
    ):
        got = selective.get(key, math.nan)
        if not abs(got - value) <= SELECTIVE_LIMIT:
            problems.append(f"selective {key} = {got!r}, closed form {value!r}")
    return problems


def sweep_key(alpha: float, t: float, phi: float) -> tuple[str, str, str]:
    """A grid point as the sweep script prints it (alpha, t, phi columns)."""
    return (f"{alpha:.3f}", f"{t:.4f}", f"{phi:.4f}")


def check_sweep(status: int, table: str, grid: list[tuple[float, float, float]]) -> list[str]:
    """Check one sweep pass: exit status, one row per grid point, and the
    trace distance and gap read from each row's numbers.

    Rows have the layout ``alpha t phi trace_dist gap verdict``; the verdict
    word is not trusted.
    """
    problems = []
    if status != 0:
        problems.append(f"exit status {status}, expected 0")
    wanted = [sweep_key(*point) for point in grid]
    if len(set(wanted)) != len(wanted):
        raise ValueError("grid points collide at the sweep's printed precision")
    rows: dict[tuple[str, str, str], list[tuple[float, float]]] = {}
    for line in table.splitlines():
        fields = line.split()
        if len(fields) != 6:
            continue
        try:
            values = [float(x) for x in fields[:5]]
        except ValueError:
            continue
        rows.setdefault(tuple(fields[:3]), []).append((values[3], values[4]))
    for key in wanted:
        found = rows.pop(key, [])
        if len(found) != 1:
            problems.append(f"grid point {key}: {len(found)} rows, expected 1")
        for td, gap in found:
            if not td <= SWEEP_LIMIT:
                problems.append(f"grid point {key}: trace distance {td!r} above {SWEEP_LIMIT}")
            if not gap <= SWEEP_LIMIT:
                problems.append(f"grid point {key}: gap {gap!r} above {SWEEP_LIMIT}")
    for key in rows:
        problems.append(f"row {key} is not a requested grid point")
    return problems
