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
its tables is (N/(2m) + 1) x (N/m).  At m = 1, with every node as a
target, the same sum is the plain full-grid trapezoid rule.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kernel_sums", "active_backend"]


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
    count = len(source_z)
    target_pow = target_z ** (fold - 1)
    source_pow = source_z ** (fold - 1)
    # 1 / (zeta^m - z^m), the only (targets x sector) table, built in place
    table = np.subtract((source_pow * source_z)[None, :], (target_pow * target_z)[:, None])
    if self_source:
        # entry (i, i) of each target row, a view
        diag = table.reshape(-1)[:: count + 1]
        diag[:] = 1.0  # placeholder; the entry is zeroed below
    np.reciprocal(table, out=table)
    if self_source:
        diag[:] = 0.0
    weights = np.empty((count, 2), dtype=np.complex128)
    np.multiply(np.conj(source_z), source_dz, out=weights[:, 0])
    np.multiply(source_pow, source_dz, out=weights[:, 1])
    sums = table @ weights
    total = fold * (target_pow * sums[:, 0] - np.conj(target_z) * sums[:, 1])
    if self_source:
        dz = source_dz[: len(target_z)]
        total += np.conj(dz) - (fold - 1) * np.conj(target_z) * dz / target_z
    return total / (1j * fold * count)
