"""The quadrature hot loop: trapezoidal boundary-integral sums in numpy.

`kernel_sums` does almost all of the work of every residual evaluation:
each call forms the full targets x sources table of complex kernel
terms.
"""

from __future__ import annotations

import numpy as np

__all__ = ["kernel_sums", "min_separation", "active_backend"]


def active_backend() -> str:
    """Name of the kernel implementation; there is only the numpy one."""
    return "python"


def kernel_sums(target_z, source_z, source_dz, self_source):
    """Trapezoidal boundary-integral sums at each target point.

    Evaluates, for every target z,

        (1 / (i N)) sum_k (conj(zeta_k) - conj(z)) / (zeta_k - z) * dzeta_k

    over the N source nodes (zeta_k, dzeta_k).  With ``self_source``
    true the targets must be the leading slice of the source nodes,
    index aligned; the k = i term is then replaced by its removable
    limit conj(dzeta_i).
    """
    target_z = np.asarray(target_z, dtype=np.complex128)
    source_z = np.asarray(source_z, dtype=np.complex128)
    source_dz = np.asarray(source_dz, dtype=np.complex128)
    diff = source_z[None, :] - target_z[:, None]
    numer = np.conj(diff)
    if self_source:
        idx = np.arange(len(target_z))
        diff[idx, idx] = 1.0  # placeholder; the term is overwritten below
    # in place, so diff and numer are the only (targets x sources) tables
    terms = np.divide(numer, diff, out=numer)
    terms *= source_dz[None, :]
    if self_source:
        terms[idx, idx] = np.conj(source_dz[idx])
    return terms.sum(axis=1) / (1j * len(source_z))


def min_separation(target_z, source_z):
    """Smallest distance between any target and any source node."""
    target_z = np.asarray(target_z, dtype=np.complex128)
    source_z = np.asarray(source_z, dtype=np.complex128)
    return float(np.min(np.abs(source_z[None, :] - target_z[:, None])))
