"""Shared fixtures. The default-configuration states and report are expensive
(about a million amplitudes), so they are built once per session."""
import numpy as np
import pytest

from kalamidas import (
    ExperimentConfig,
    HilbertSpec,
    MODES,
    evolve,
    initial_state_bare,
    initial_state_with_coherent,
    reduce_left,
    run_experiment,
)


@pytest.fixture(scope="session")
def default_config():
    return ExperimentConfig()


@pytest.fixture(scope="session")
def default_report(default_config):
    return run_experiment(default_config)


@pytest.fixture(scope="session")
def evolved_states(default_config):
    psi_with = evolve(initial_state_with_coherent(default_config), default_config)
    psi_bare = evolve(initial_state_bare(default_config), default_config)
    return psi_with, psi_bare


@pytest.fixture(scope="session")
def reduced_pair(evolved_states):
    psi_with, psi_bare = evolved_states
    return reduce_left(psi_with), reduce_left(psi_bare)


@pytest.fixture()
def quick_spec():
    return HilbertSpec(MODES, (1, 1, 2, 2, 2, 2))


@pytest.fixture()
def small_spec():
    return HilbertSpec(MODES, (1, 1, 1, 1, 1, 1))


@pytest.fixture(scope="session")
def tensordot_apply():
    """Reference for ``apply``: the operator's full matrix contracted against
    its modes' axes of the state with np.tensordot, the amplitudes returned."""

    def contract(op, state):
        k = len(op.spec.modes)
        positions = tuple(state.spec.axis_of(m) for m in op.spec.modes)
        out = np.tensordot(
            op.matrix.reshape(op.spec.dims + op.spec.dims),
            state.amplitudes.reshape(state.spec.dims),
            axes=(tuple(range(k, 2 * k)), positions),
        )
        return np.ascontiguousarray(np.moveaxis(out, tuple(range(k)), positions)).reshape(-1)

    return contract
