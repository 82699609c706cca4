import numpy as np
import pytest

import cuspsoliton as cs


@pytest.fixture(scope="session")
def sep():
    """The default separatrix shoot, shared across the suite."""
    return cs.shoot_separatrix()


@pytest.fixture(scope="session")
def profile(sep):
    return cs.reconstruct_profiles(sep)


@pytest.fixture(scope="session")
def curvature_table(sep):
    return cs.curvatures(sep)


@pytest.fixture(scope="session")
def blowup_generic():
    return cs.run_sequence("generic")


@pytest.fixture(scope="session")
def blowup_t0():
    return cs.run_sequence("t0")
