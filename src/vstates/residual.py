"""Spectral residual of the rotating-patch equations.

The pointwise residual of a shape with the built-in symmetries is an
odd function of theta with period 2 pi / m, so its discrete expansion
contains only sin(m k theta) modes.  Projecting onto the first M of
them turns the boundary equations into a square nonlinear system

    F : (a_{1,1..M}, a_{2,1..M}) -> (b_{1,1..M}, b_{2,1..M}),

with b_{j,k} = (2 / N) sum_i r_j(theta_i) sin(m k theta_i).  The
annulus maps to zero for every (b, omega): the trivial branch.

By symmetry the projection only needs the residual on the fundamental
sector, where it reduces to a length-N/m transform; `assemble` keeps a
full-grid path around as an oracle for that reduction.

`projection_defect` measures what the projection leaves out.  Nothing
in the solve reads it, so `assemble` does not compute it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import FloatArray, VortexContourCoeffs, sample
from .quadrature import residual_sector, vstate_residual_pointwise

__all__ = ["DiscreteResidual", "assemble", "projection_defect"]


@dataclass(frozen=True)
class DiscreteResidual:
    """Sine-mode coefficients of the pointwise residual on both boundaries.

    max_abs is the largest pointwise residual magnitude over the
    evaluated nodes (the solver's convergence measure).
    """

    b1: FloatArray
    b2: FloatArray
    max_abs: float

    def as_vector(self) -> FloatArray:
        return np.concatenate([self.b1, self.b2])


def _sine_coefficients(values: FloatArray, modes: int) -> FloatArray:
    """First `modes` sine coefficients of samples over one period."""
    n = len(values)
    spectrum = np.fft.rfft(values)
    return -2.0 / n * np.imag(spectrum[1 : modes + 1])


def assemble(
    coeffs: VortexContourCoeffs,
    omega: float,
    nodes: int,
    use_fold_reduction: bool = True,
) -> DiscreteResidual:
    """Projected residual of a shape at angular velocity omega.

    Parameters
    ----------
    coeffs : VortexContourCoeffs
        Shape to evaluate.
    omega : float
        Angular velocity of the rotating frame.
    nodes : int
        Quadrature grid size N (multiple of the fold, alias-free for
        the mode count).
    use_fold_reduction : bool
        Evaluate the residual on the fundamental sector only and
        project with a length-N/m transform.  The full-grid path
        (False) is mathematically identical and exists as a
        cross-check.

    Raises
    ------
    InvalidContour
        Propagated from sampling when the shape is degenerate.
    """
    r1, r2, b1, b2, _ = _project(coeffs, omega, nodes, use_fold_reduction)
    max_abs = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    return DiscreteResidual(b1=b1, b2=b2, max_abs=max_abs)


def projection_defect(
    coeffs: VortexContourCoeffs,
    omega: float,
    nodes: int,
    use_fold_reduction: bool = True,
) -> float:
    """Largest deviation of the sine-series reconstruction from the residual.

    Rebuilds the pointwise residual from the coefficients `assemble`
    returns for the same arguments and compares it with the values on
    the evaluated nodes: what remains is the constant, cosine and
    truncated content of the residual, which the projection drops.
    """
    r1, r2, b1, b2, theta = _project(coeffs, omega, nodes, use_fold_reduction)
    k = np.arange(1, coeffs.modes + 1)
    basis = np.sin(np.outer(theta, coeffs.fold * k))
    return max(
        float(np.max(np.abs(basis @ b1 - r1))), float(np.max(np.abs(basis @ b2 - r2)))
    )


def _project(
    coeffs: VortexContourCoeffs, omega: float, nodes: int, use_fold_reduction: bool
) -> tuple[FloatArray, FloatArray, FloatArray, FloatArray, FloatArray]:
    """Pointwise residual (r1, r2), its sine coefficients (b1, b2), node angles."""
    sc = sample(coeffs, nodes)
    m, modes = coeffs.fold, coeffs.modes
    if use_fold_reduction and m > 1:
        sector = nodes // m
        r1, r2 = residual_sector(sc, omega, sector)
        # Sector nodes sample exactly one period of r; frequency m*k on
        # the full grid is frequency k on the sector grid.
        b1 = _sine_coefficients(r1, modes)
        b2 = _sine_coefficients(r2, modes)
        theta = sc.theta[:sector]
    else:
        r1, r2 = vstate_residual_pointwise(sc, omega)
        spectrum1 = np.fft.rfft(r1)
        spectrum2 = np.fft.rfft(r2)
        picks = m * np.arange(1, modes + 1)
        b1 = -2.0 / nodes * np.imag(spectrum1[picks])
        b2 = -2.0 / nodes * np.imag(spectrum2[picks])
        theta = sc.theta
    return r1, r2, b1, b2, theta
