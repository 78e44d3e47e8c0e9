"""Shared fixtures.

The ``reference_state`` fixture is a single mid-branch Newton solve
reused by several modules; it is session-scoped because the solve
costs about half a second and nothing mutates it (SolveReport and
VortexContourCoeffs are frozen).
"""

import numpy as np
import pytest

from vstates import SolverConfig, newton_solve, perturbed_annulus

REFERENCE_B = 0.63
REFERENCE_M = 4
REFERENCE_OMEGA = 0.1520
REFERENCE_CONFIG = SolverConfig(modes=31, nodes=256)


def pytest_configure(config):
    # Dropping an imaginary part (a complex value assigned to a float
    # array) fails the suite, whatever the RuntimeWarning rule says.
    # numpy < 1.25 has no numpy.exceptions.
    warning = getattr(np, "exceptions", np).ComplexWarning
    config.addinivalue_line(
        "filterwarnings", f"error::{warning.__module__}.{warning.__name__}"
    )


@pytest.fixture(scope="session")
def reference_state():
    """Converged 4-fold state well inside the branch, b = 0.63."""
    seed = perturbed_annulus(REFERENCE_B, REFERENCE_M, 31, a1_1=0.06)
    report = newton_solve(
        REFERENCE_B, REFERENCE_OMEGA, REFERENCE_M, seed, REFERENCE_CONFIG
    )
    assert report.converged and not report.trivial
    return report


@pytest.fixture
def rng():
    return np.random.default_rng(2357)
