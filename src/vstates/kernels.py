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

The sums read each node through conj(z), z^(m-1), z^m and, for a
source, the weight pair (conj(z) z', z^(m-1) z').  `_nodes` is the one
definition of these factors, formed at a fold that they carry, and the
sums take nothing else.  The residual layer forms them once per boundary
and shape, as its sector sample, and passes them to all four sums of an
assemble, as sources and, sliced, as targets; its Jacobian and Omega
column read them too.

The table is built in row blocks of at most `_BLOCK_BYTES`, 1 MiB, in
one buffer per call: half of a 2 MiB per-core L2 cache, so a block, the
weights and the sums stay in cache between the subtraction, the
reciprocal and the product, and a call's working set no longer grows as
N^2.  A table of (N/(2m) + 1) x (N/m) is one block up to N/m = 256,
which covers the CLI's default N = 128 m and every solve and sweep of
the benchmark and the acceptance tests; the refinement grids at
N/m = 512 and 1024 split into 3 and 9 blocks, where a block's matrix
product may round the last bit differently from the whole table's.
`contour.boundary_distance` takes its node pairs in the same blocks.

Each block is filled by a broadcast copy of the sources' zeta^m, and the
targets' z^m are then subtracted from it in place.  On a 64 x 1024 block
that costs about 1.3 ns per complex entry, against 2.0 ns for one
broadcast subtraction into the buffer (numpy 2.4, one core of a Xeon);
the reciprocal costs more than either.  IEEE subtraction is correctly
rounded, so each entry, and with it every sum, is the same double either
way.  `residual.jacobian` builds its F table the same way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["kernel_sums", "active_backend"]

# Largest complex table block, in bytes, that one step of a blocked sum builds
_BLOCK_BYTES = 1 << 20


def _block_rows(row_bytes: int) -> int:
    """Rows of `row_bytes` each that fit one block; at least one."""
    return max(1, _BLOCK_BYTES // row_bytes)


def active_backend() -> str:
    """Name of the kernel implementation; there is only the numpy one."""
    return "python"


@dataclass(slots=True)
class _Nodes:
    """Nodes z of one boundary at fold m with the factors the kernel sums
    read: conj(z), z^(m-1), z^m and the weight pair (conj(z) dz,
    z^(m-1) dz) as a (nodes, 2) array."""

    z: np.ndarray
    conj: np.ndarray
    dz: np.ndarray
    power: np.ndarray
    zm: np.ndarray
    weights: np.ndarray
    fold: int

    def __len__(self) -> int:
        return len(self.z)

    def head(self, count: int) -> _Nodes:
        """The leading `count` nodes, as views of these factors."""
        rows = slice(count)
        return _Nodes(
            self.z[rows], self.conj[rows], self.dz[rows],
            self.power[rows], self.zm[rows], self.weights[rows], self.fold,
        )


def _nodes(z, dz, fold: int) -> _Nodes:
    """The factors of nodes z with derivatives dz at fold m."""
    z = np.asarray(z, dtype=np.complex128)
    dz = np.asarray(dz, dtype=np.complex128)
    conj = np.conj(z)
    power = z ** (fold - 1)
    weights = np.empty((len(z), 2), dtype=np.complex128)
    np.multiply(conj, dz, out=weights[:, 0])
    np.multiply(power, dz, out=weights[:, 1])
    return _Nodes(z, conj, dz, power, power * z, weights, fold)


def kernel_sums(target: _Nodes, source: _Nodes, self_source: bool) -> np.ndarray:
    """Trapezoidal boundary-integral sums at each target point.

    Evaluates, for every target z,

        (1 / (i N)) sum_k (conj(zeta_k) - conj(z)) / (zeta_k - z) * dzeta_k

    over the N = m * len(source) nodes of an m-fold symmetric boundary
    (m = source.fold), given by one sector of them: node k + j N/m is
    w^j times node k, w = exp(2 pi i / m), and so is its dzeta.  The
    m rotated copies of a sector node sum to

        m dzeta (conj(zeta) z^(m-1) - conj(z) zeta^(m-1)) / (zeta^m - z^m),

    which is the plain term at m = 1.  With ``self_source`` true the
    targets must be the leading slice of the sector nodes, index
    aligned; node i itself (the j = 0 copy) then takes its removable
    limit conj(dzeta_i), and each of its other m - 1 copies equals
    -conj(z_i) dzeta_i / z_i.

    Both are `_Nodes`, the targets formed at the source's fold; the sums
    never read a target's dz or weights.
    """
    fold, count, rows = source.fold, len(source), len(target)
    sums = np.empty((rows, 2), dtype=np.complex128)
    step = _block_rows(16 * count)
    # 1 / (zeta^m - z^m), the only (targets x sector) table, built block by block in place
    buffer = np.empty((min(step, rows), count), dtype=np.complex128)
    for start in range(0, rows, step):
        table = buffer[: rows - start]
        table[:] = source.zm
        table -= target.zm[start : start + step, None]
        if self_source:
            # entry (i, i) of each of the block's target rows i, a view
            diag = table.reshape(-1)[start :: count + 1]
            diag[:] = 1.0  # placeholder; the entry is zeroed below
        np.reciprocal(table, out=table)
        if self_source:
            diag[:] = 0.0
        np.matmul(table, source.weights, out=sums[start : start + step])
    total = fold * (target.power * sums[:, 0] - target.conj * sums[:, 1])
    if self_source:
        dz = source.dz[:rows]
        total += np.conj(dz) - (fold - 1) * target.conj * dz / target.z
    return total / (1j * fold * count)
