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


def _induced_terms(sc: SampledContour, count: int) -> tuple[ComplexArray, ComplexArray]:
    """Combined integral I_1 - I_2 at the leading nodes of both boundaries."""
    t1 = sc.z1[:count]
    t2 = sc.z2[:count]
    outer_on_outer = kernels.kernel_sums(t1, sc.z1, sc.dz1, True)
    inner_on_outer = kernels.kernel_sums(t1, sc.z2, sc.dz2, False)
    outer_on_inner = kernels.kernel_sums(t2, sc.z1, sc.dz1, False)
    inner_on_inner = kernels.kernel_sums(t2, sc.z2, sc.dz2, True)
    return outer_on_outer - inner_on_outer, outer_on_inner - inner_on_inner


def residual_sector(
    sc: SampledContour, omega: float, count: int
) -> tuple[FloatArray, FloatArray]:
    """Pointwise rotation residual at the leading `count` nodes.

    Every value is still a full trapezoid sum over all N source nodes;
    only the target set is restricted.  With count = N/m this evaluates
    one fundamental sector, which determines the rest by symmetry.
    """
    if not 0 < count <= sc.nodes:
        raise ValueError(f"count must lie in 1..{sc.nodes}, got {count}")
    induced1, induced2 = _induced_terms(sc, count)
    two_omega = 2.0 * omega
    r1 = np.real((two_omega * np.conj(sc.z1[:count]) + induced1) * sc.dz1[:count])
    r2 = np.real((two_omega * np.conj(sc.z2[:count]) + induced2) * sc.dz2[:count])
    return r1, r2


def vstate_residual_pointwise(
    sc: SampledContour, omega: float
) -> tuple[FloatArray, FloatArray]:
    """Pointwise rotation residual at every node of both boundaries.

    Returns (r1, r2); both vanish identically exactly when the sampled
    shape is a discrete V-state at angular velocity omega.
    """
    return residual_sector(sc, omega, sc.nodes)
