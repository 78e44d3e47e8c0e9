"""Cross-check oracles that only the tests read.

`vstates.assemble` evaluates the residual on the fundamental sector and
projects it with a length-N/m transform.  The functions here evaluate it
on all N nodes and project it with the length-N transform instead, which
is the same sine projection computed without using the m-fold symmetry.
"""

import numpy as np

from vstates import sample, vstate_residual_pointwise
from vstates.residual import DiscreteResidual


def _full_grid(coeffs, omega, nodes):
    """Pointwise residual on all N nodes and its first M sine coefficients."""
    r1, r2 = vstate_residual_pointwise(sample(coeffs, nodes), omega)
    picks = coeffs.fold * np.arange(1, coeffs.modes + 1)
    b1 = -2.0 / nodes * np.imag(np.fft.rfft(r1)[picks])
    b2 = -2.0 / nodes * np.imag(np.fft.rfft(r2)[picks])
    return r1, r2, b1, b2


def full_grid_assemble(coeffs, omega, nodes) -> DiscreteResidual:
    """`assemble(coeffs, omega, nodes)` through the full-grid transform."""
    r1, r2, b1, b2 = _full_grid(coeffs, omega, nodes)
    max_abs = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    return DiscreteResidual(b1=b1, b2=b2, max_abs=max_abs)


def projection_defect(coeffs, omega, nodes) -> float:
    """Largest deviation of the sine-series reconstruction from the residual.

    Rebuilds the pointwise residual on all N nodes from its projected
    coefficients: what remains is the constant, cosine and truncated
    content of the residual, which the projection drops.
    """
    r1, r2, b1, b2 = _full_grid(coeffs, omega, nodes)
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    basis = np.sin(np.outer(theta, coeffs.fold * np.arange(1, coeffs.modes + 1)))
    return max(
        float(np.max(np.abs(basis @ b1 - r1))), float(np.max(np.abs(basis @ b2 - r2)))
    )
