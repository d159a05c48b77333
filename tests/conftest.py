import pytest

from fkdv import build_series, bvp, sweep

SWEEP_EPSILONS = [0.08, 0.10, 0.12, 0.15]


@pytest.fixture(scope="session")
def table30():
    return build_series(30)


@pytest.fixture(scope="session")
def tail_sweep():
    """(config, solution, measurement) at h = eps/20 for the standard sweep."""
    return sweep(SWEEP_EPSILONS, h_factor=20.0)


@pytest.fixture(scope="session")
def tail_sweep_half():
    """Same sweep sampled at h = eps/40."""
    return sweep(SWEEP_EPSILONS, h_factor=40.0)


@pytest.fixture(scope="session")
def tail_sweep_more_modes():
    """Same sweep at h = eps/20 on 1.25 times the cosine modes, for
    discretization-error estimates."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bvp, "MODES_PER_GAMMA", 1.25 * bvp.MODES_PER_GAMMA)
        return sweep(SWEEP_EPSILONS, h_factor=20.0)
