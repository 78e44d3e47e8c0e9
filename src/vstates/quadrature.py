"""Boundary integrals of the rotating-patch equations.

The induced-velocity contribution of one uniform patch boundary at a
point z is the contour integral

    I(z) = (1 / (2 pi i)) oint (conj(zeta) - conj(z)) / (zeta - z) dzeta,

whose integrand is bounded on the curve itself: as zeta -> z along the
boundary the ratio tends to conj(z') / z'.  On the uniform grid the
composite trapezoid rule therefore applies directly, with the singular
node replaced by that limit, and converges spectrally.  A doubly
connected patch contributes I_1 - I_2 (outer minus inner source, both
parametrized counterclockwise).

A V-state rotating at angular velocity omega is characterized by the
vanishing of

    r_j(theta) = Re[(2 omega conj(z_j) + I_1(z_j) - I_2(z_j)) dz_j/dtheta]

on both boundaries j = 1, 2.

For a shape with m-fold symmetry both the targets and the sources
reduce to one sector of N/m nodes: r_j on the sector determines it
everywhere, and `kernels.kernel_sums` sums the m rotated copies of each
sector source in closed form.  `kernel_integral` and
`vstate_residual_pointwise` make no use of the symmetry and sum over all
N nodes, which keeps them an independent full-grid check.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from . import kernels
from .contour import BoundaryTrace, ComplexArray, FloatArray, SampledContour

__all__ = [
    "kernel_integral",
    "vstate_residual_pointwise",
    "residual_sector",
    "OFF_CURVE_MIN_SEPARATION",
]

# Below this target-to-node distance the trapezoid sum is meaningless:
# the bounded-kernel argument needs the diagonal treatment instead.
OFF_CURVE_MIN_SEPARATION = 1e-10

Diagonal = Literal["on_curve", "off_curve"]


def kernel_integral(
    targets, source: BoundaryTrace, diagonal: Diagonal
) -> ComplexArray:
    """Trapezoidal boundary integral of one sampled boundary.

    Parameters
    ----------
    targets : array_like of complex
        Evaluation points.
    source : BoundaryTrace
        Sampled source boundary (nodes and derivatives).
    diagonal : {"on_curve", "off_curve"}
        "on_curve" requires targets to be exactly the source nodes,
        index aligned, and applies the removable-singularity limit on
        the diagonal.  "off_curve" treats all nodes as regular and
        rejects targets closer than OFF_CURVE_MIN_SEPARATION to any
        node.

    Returns
    -------
    ndarray of complex
        One integral value per target.
    """
    targets = np.asarray(targets, dtype=np.complex128)
    if targets.ndim != 1:
        raise ValueError(f"targets must be one-dimensional, got shape {targets.shape}")
    if diagonal == "on_curve":
        if len(targets) != len(source.z) or not np.array_equal(targets, source.z):
            raise ValueError(
                "on_curve evaluation requires the targets to be exactly the "
                "source nodes, index aligned"
            )
        return kernels.kernel_sums(targets, source.z, source.dz, True)
    if diagonal == "off_curve":
        separation = kernels.min_separation(targets, source.z)
        if separation < OFF_CURVE_MIN_SEPARATION:
            raise ValueError(
                f"target within {separation:.3e} of a source node; "
                f"off_curve evaluation requires at least "
                f"{OFF_CURVE_MIN_SEPARATION:.0e}"
            )
        return kernels.kernel_sums(targets, source.z, source.dz, False)
    raise ValueError(f"diagonal must be 'on_curve' or 'off_curve', got {diagonal!r}")


def _induced_terms(z1, dz1, z2, dz2, fold: int) -> tuple[ComplexArray, ComplexArray]:
    """Combined integral I_1 - I_2 at the sector nodes of both boundaries."""
    outer_on_outer = kernels.kernel_sums(z1, z1, dz1, True, fold)
    inner_on_outer = kernels.kernel_sums(z1, z2, dz2, False, fold)
    outer_on_inner = kernels.kernel_sums(z2, z1, dz1, False, fold)
    inner_on_inner = kernels.kernel_sums(z2, z2, dz2, True, fold)
    return outer_on_outer - inner_on_outer, outer_on_inner - inner_on_inner


def residual_sector(
    sc: SampledContour, omega: float, fold: int
) -> tuple[FloatArray, FloatArray]:
    """Pointwise rotation residual on the fundamental sector of an m-fold shape.

    The contour must have the m-fold symmetry (m = fold, a divisor of
    N) that `sample` builds in.  The targets are the leading N/m nodes
    of each boundary, which determine the rest by symmetry, and the
    sources are the same N/m nodes: each value is still the trapezoid
    sum over all N nodes, with the m rotated copies of every sector
    node summed in closed form.  With fold = 1 this is the plain sum on
    the full grid.
    """
    if fold < 1 or sc.nodes % fold:
        raise ValueError(f"fold must be a positive divisor of {sc.nodes}, got {fold}")
    count = sc.nodes // fold
    z1, dz1, z2, dz2 = sc.z1[:count], sc.dz1[:count], sc.z2[:count], sc.dz2[:count]
    induced1, induced2 = _induced_terms(z1, dz1, z2, dz2, fold)
    two_omega = 2.0 * omega
    r1 = np.real((two_omega * np.conj(z1) + induced1) * dz1)
    r2 = np.real((two_omega * np.conj(z2) + induced2) * dz2)
    return r1, r2


def vstate_residual_pointwise(
    sc: SampledContour, omega: float
) -> tuple[FloatArray, FloatArray]:
    """Pointwise rotation residual at every node of both boundaries.

    Returns (r1, r2); both vanish identically exactly when the sampled
    shape is a discrete V-state at angular velocity omega.
    """
    return residual_sector(sc, omega, 1)
