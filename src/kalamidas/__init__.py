"""Truncated Fock-space simulator of the Kalamidas signaling apparatus.

A single photon is split between a left pair of modes and a right pair, and
coherent states may be injected on two auxiliary right modes. The package
verifies numerically that nothing done on the right (injection, unitaries,
projective or generalized measurements without record) moves the left
reduced state. A verdict, its scan and both scripts run on the two
one-photon branches of arm-pair vectors before the left splitter: every left
state is their 2 x 2 Gram matrix, which no left check reads, and the
structure row compares the arm vectors with the ideal ones. The six-mode
states (``evolve``, ``initial_state_*``, ``direct_final_state``,
``reduce_left``) are a plain reference that no run builds.
"""
from .channels import (
    PROBABILITY_FLOOR,
    conditional_left_by_occupation,
    occupation_projectors,
    random_kraus,
    random_right_unitary,
)
from .experiment import (
    ExperimentConfig,
    Report,
    default_cutoffs,
    direct_final_state,
    evolve,
    heisenberg_residuals,
    initial_state_bare,
    initial_state_with_coherent,
    run_experiment,
)
from .hilbert import (
    LEFT_LABELS,
    MODE_LABELS,
    HilbertSpec,
    LinearOperator,
    PureState,
    apply,
)
from .nosignal import (
    reduce_left,
    signaling_gap,
    trace_distance,
)
from .optics import (
    BeamSplitter,
    CutoffAdequacyWarning,
    adequate_cutoff,
    beamsplitter_unitary,
    coherent_series,
    heisenberg_action,
)

__version__ = "0.1.0"

__all__ = [
    "PROBABILITY_FLOOR",
    "conditional_left_by_occupation",
    "occupation_projectors",
    "random_kraus",
    "random_right_unitary",
    "ExperimentConfig",
    "Report",
    "default_cutoffs",
    "direct_final_state",
    "evolve",
    "heisenberg_residuals",
    "initial_state_bare",
    "initial_state_with_coherent",
    "run_experiment",
    "LEFT_LABELS",
    "MODE_LABELS",
    "HilbertSpec",
    "LinearOperator",
    "PureState",
    "apply",
    "reduce_left",
    "signaling_gap",
    "trace_distance",
    "BeamSplitter",
    "CutoffAdequacyWarning",
    "adequate_cutoff",
    "beamsplitter_unitary",
    "coherent_series",
    "heisenberg_action",
    "__version__",
]
