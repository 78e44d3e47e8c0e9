"""Boundary integrals of the rotating-patch equations.

The induced-velocity contribution of one uniform patch boundary at a
point z is the contour integral

    I(z) = (1 / (2 pi i)) oint (conj(zeta) - conj(z)) / (zeta - z) dzeta,

whose integrand is bounded on the curve itself: as zeta -> z along the
boundary the ratio tends to conj(z') / z'.  On the uniform grid the
composite trapezoid rule therefore applies directly, with the singular
node replaced by that limit, and converges spectrally.

`kernel_sums` does almost all of the work of every residual evaluation.
A boundary with m-fold symmetry is given by one sector of its nodes:
the m rotated copies of each sector node are summed in closed form, so
each call forms one targets x (N/m) table instead of targets x N.  The
residual's targets are the half sector, N/(2m) + 1 nodes, so each of
its tables is (N/(2m) + 1) x (N/m).
`kernel_integral` makes no use of the symmetry and sums over all N
nodes of a sampled boundary, which keeps it an independent full-grid
check.
"""

from __future__ import annotations

from typing import Literal

import numpy as np

from .contour import BoundaryTrace, ComplexArray

__all__ = ["kernel_sums", "kernel_integral", "OFF_CURVE_MIN_SEPARATION", "active_backend"]

# Below this target-to-node distance the trapezoid sum is meaningless:
# the bounded-kernel argument needs the diagonal treatment instead.
OFF_CURVE_MIN_SEPARATION = 1e-10

Diagonal = Literal["on_curve", "off_curve"]


def active_backend() -> str:
    """Name of the kernel implementation; there is only the numpy one."""
    return "python"


def kernel_sums(target_z, source_z, source_dz, self_source, fold=1):
    """Trapezoidal boundary-integral sums at each target point.

    Evaluates, for every target z,

        (1 / (i N)) sum_k (conj(zeta_k) - conj(z)) / (zeta_k - z) * dzeta_k

    over the N = fold * len(source_z) nodes of an m-fold symmetric
    boundary (m = fold), given by one sector of them: node k + j N/m is
    w^j times node k, w = exp(2 pi i / m), and so is its dzeta.  The
    m rotated copies of a sector node sum to

        m dzeta (conj(zeta) z^(m-1) - conj(z) zeta^(m-1)) / (zeta^m - z^m),

    which is the plain term at m = 1.  With ``self_source`` true the
    targets must be the leading slice of the sector nodes, index
    aligned; node i itself (the j = 0 copy) then takes its removable
    limit conj(dzeta_i), and each of its other m - 1 copies equals
    -conj(z_i) dzeta_i / z_i.
    """
    target_z = np.asarray(target_z, dtype=np.complex128)
    source_z = np.asarray(source_z, dtype=np.complex128)
    source_dz = np.asarray(source_dz, dtype=np.complex128)
    target_pow = target_z ** (fold - 1)
    source_pow = source_z ** (fold - 1)
    # 1 / (zeta^m - z^m), the only (targets x sector) table, built in place
    table = np.subtract((source_pow * source_z)[None, :], (target_pow * target_z)[:, None])
    if self_source:
        idx = np.arange(len(target_z))
        table[idx, idx] = 1.0  # placeholder; the entry is zeroed below
    np.reciprocal(table, out=table)
    if self_source:
        table[idx, idx] = 0.0
    weights = np.stack([np.conj(source_z) * source_dz, source_pow * source_dz], axis=1)
    sums = table @ weights
    total = fold * (target_pow * sums[:, 0] - np.conj(target_z) * sums[:, 1])
    if self_source:
        dz = source_dz[idx]
        total += np.conj(dz) - (fold - 1) * np.conj(target_z) * dz / target_z
    return total / (1j * fold * len(source_z))


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
        return kernel_sums(targets, source.z, source.dz, True)
    if diagonal == "off_curve":
        separation = float(np.min(np.abs(source.z[None, :] - targets[:, None])))
        if separation < OFF_CURVE_MIN_SEPARATION:
            raise ValueError(
                f"target within {separation:.3e} of a source node; "
                f"off_curve evaluation requires at least "
                f"{OFF_CURVE_MIN_SEPARATION:.0e}"
            )
        return kernel_sums(targets, source.z, source.dz, False)
    raise ValueError(f"diagonal must be 'on_curve' or 'off_curve', got {diagonal!r}")
