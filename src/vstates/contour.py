"""Boundary representation of a doubly connected rotating patch.

Both boundaries are star-shaped graphs over the polar angle,

    z_j(theta) = exp(i theta) rho_j(theta),
    rho_1(theta) = 1 + sum_k a_{1,k} cos(m k theta),
    rho_2(theta) = b + sum_k a_{2,k} cos(m k theta),

truncated at M modes.  The cosine-only ansatz hard-codes the m-fold
rotational symmetry and the reflection symmetry about the real axis;
the annulus itself is the zero-coefficient member.  Sampling happens on
the uniform grid theta_i = 2 pi i / N with N a multiple of m, which
makes the fundamental sector an exact subsampling and lets downstream
quadrature exploit the symmetry.  A boundary is evaluated only on the
fundamental sector, the leading N/m nodes: `_evaluate` with one copy
is the residual layer's sample, which `residual` keeps per shape with
its node factors.  `sample` repeats the sector's radii on all N nodes,
for `boundary_distance` and the full-grid checks.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .kernels import _block_rows

FloatArray = NDArray[np.float64]
ComplexArray = NDArray[np.complex128]

__all__ = [
    "InvalidContour",
    "VortexContourCoeffs",
    "SampledContour",
    "perturbed_annulus",
    "sample",
    "boundary_distance",
]


class InvalidContour(ValueError):
    """A coefficient set whose curves are not a valid patch boundary."""


@dataclass(frozen=True, eq=False)
class VortexContourCoeffs:
    """Cosine amplitudes of both boundaries at fold m.

    a1 and a2 hold the amplitudes a_{j,k} for k = 1..M; the base radii
    1 and b are implicit.  Arrays are copied and frozen on construction.
    Two coefficient sets are equal when b, fold, modes and every
    amplitude agree; they are not hashable.
    """

    b: float
    fold: int
    modes: int
    a1: FloatArray
    a2: FloatArray

    def __post_init__(self):
        if not 0.0 < self.b < 1.0:
            raise ValueError(f"inner radius must lie in (0, 1), got {self.b}")
        if self.fold < 1:
            raise ValueError(f"fold must be a positive integer, got {self.fold}")
        if self.modes < 1:
            raise ValueError(f"mode count must be positive, got {self.modes}")
        a1 = np.asarray(self.a1, dtype=np.float64).copy()
        a2 = np.asarray(self.a2, dtype=np.float64).copy()
        if a1.shape != (self.modes,) or a2.shape != (self.modes,):
            raise ValueError(
                f"coefficient arrays must have shape ({self.modes},), "
                f"got {a1.shape} and {a2.shape}"
            )
        if not (np.all(np.isfinite(a1)) and np.all(np.isfinite(a2))):
            raise ValueError("coefficients must be finite")
        a1.setflags(write=False)
        a2.setflags(write=False)
        object.__setattr__(self, "a1", a1)
        object.__setattr__(self, "a2", a2)

    def __eq__(self, other):
        if not isinstance(other, VortexContourCoeffs):
            return NotImplemented
        return (
            self.b == other.b
            and self.fold == other.fold
            and self.modes == other.modes
            and np.array_equal(self.a1, other.a1)
            and np.array_equal(self.a2, other.a2)
        )

    def as_vector(self) -> FloatArray:
        """Flatten to the solver unknown ordering (a1_1..a1_M, a2_1..a2_M)."""
        return np.concatenate([self.a1, self.a2])

    def replace_coefficients(self, a1: FloatArray, a2: FloatArray) -> "VortexContourCoeffs":
        return VortexContourCoeffs(b=self.b, fold=self.fold, modes=self.modes, a1=a1, a2=a2)

    @classmethod
    def from_vector(
        cls, x: FloatArray, b: float, fold: int, modes: int
    ) -> "VortexContourCoeffs":
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (2 * modes,):
            raise ValueError(f"expected vector of length {2 * modes}, got {x.shape}")
        return cls(b=b, fold=fold, modes=modes, a1=x[:modes], a2=x[modes:])


def perturbed_annulus(
    b: float, fold: int, modes: int, a1_1: float = 0.0, a2_1: float = 0.0
) -> VortexContourCoeffs:
    """Annulus with only the first mode of each boundary displaced.

    The standard seed shape for the Newton solver.
    """
    a1 = np.zeros(modes)
    a2 = np.zeros(modes)
    a1[0] = a1_1
    a2[0] = a2_1
    return VortexContourCoeffs(b=b, fold=fold, modes=modes, a1=a1, a2=a2)


@dataclass(frozen=True, eq=False)
class SampledContour:
    """Both boundaries sampled on the uniform angular grid.

    z_j[i] = exp(i theta_i) rho_j(theta_i) with theta_i = 2 pi i / N, and
    dz_j[i] the analytic derivative d z_j / d theta at the node.  fold is
    the m of the sampled shape, a divisor of N.  `sample` fills all N
    nodes; inside the residual layer only the sector's N/m are sampled.
    """

    nodes: int
    fold: int
    z1: ComplexArray
    z2: ComplexArray
    dz1: ComplexArray
    dz2: ComplexArray


@functools.lru_cache(maxsize=16)
def _basis(nodes: int, fold: int, modes: int) -> tuple[FloatArray, FloatArray, ComplexArray]:
    """Cached sampling tables for a given grid geometry.

    Returns (C, S, e): on the N/m sector nodes C[i, k] = cos(m (k+1) theta_i)
    and S[i, k] = m (k+1) sin(m (k+1) theta_i), and on all N e[i] = exp(i theta_i).
    """
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    freq = fold * np.arange(1, modes + 1)
    phase = theta[: nodes // fold, None] * freq[None, :]
    tables = (np.cos(phase), np.sin(phase) * freq[None, :], np.exp(1j * theta))
    for table in tables:
        table.setflags(write=False)
    return tables


@functools.lru_cache(maxsize=16)
def _motion(nodes: int, fold: int, modes: int) -> tuple[FloatArray, ComplexArray, ComplexArray]:
    """Cached motions of the sector's nodes per unit coefficient.

    Raising a_{j,l} moves the nodes of boundary j by e^{i theta} C[:, l-1]
    and their derivatives by e^{i theta} (i C[:, l-1] - S[:, l-1]), with C
    and S of `_basis`.  Returns (sources, shift, tilt): [C^T | S^T] on the
    sector's N/m nodes, and those two motions on the half sector's
    N/(2m) + 1, one row per coefficient.
    """
    cos, sin, unit = _basis(nodes, fold, modes)
    half = len(cos) // 2 + 1
    sources = np.concatenate([cos.T, sin.T], axis=1)
    shift = np.ascontiguousarray((unit[:half, None] * cos[:half]).T)
    tilt = np.ascontiguousarray((unit[:half, None] * (1j * cos[:half] - sin[:half])).T)
    tables = (sources, shift, tilt)
    for table in tables:
        table.setflags(write=False)
    return tables


def sample(coeffs: VortexContourCoeffs, nodes: int) -> SampledContour:
    """Evaluate both boundaries and their derivatives on the N-node grid.

    The radii, checked on the sector's N/m nodes, repeat exactly on the
    other m - 1, so the leading N/m nodes are the residual layer's sample.

    Parameters
    ----------
    coeffs : VortexContourCoeffs
        Shape to sample.
    nodes : int
        Grid size N; must be a multiple of the fold and satisfy the
        alias-free bound N >= 2 m M + 1.

    Raises
    ------
    InvalidContour
        If either radius function is non-positive or the boundaries
        cross; the message names the violated constraint and an
        offending angle in the fundamental sector.
    """
    return _evaluate(coeffs, nodes, coeffs.fold)


def _grid_fault(nodes: int, m: int, M: int) -> str | None:
    """Why N nodes break the alias-free rule at fold m, M modes, or None."""
    if nodes < 2 * m * M + 1:
        return f"nodes={nodes} is below the alias-free sampling bound 2*m*M + 1 = {2 * m * M + 1}"
    if nodes % m != 0:
        return f"nodes={nodes} must be a multiple of the fold {m}"
    return None


def _evaluate(coeffs: VortexContourCoeffs, nodes: int, copies: int) -> SampledContour:
    """The sector's radii, evaluated afresh and checked, on `copies` sectors times e^{i theta}."""
    m, M = coeffs.fold, coeffs.modes
    if fault := _grid_fault(nodes, m, M):
        raise ValueError(fault)
    cos, sin, unit = _basis(nodes, m, M)
    rho1 = 1.0 + cos @ coeffs.a1
    rho2 = coeffs.b + cos @ coeffs.a2
    drho1 = -(sin @ coeffs.a1)
    drho2 = -(sin @ coeffs.a2)

    for values, label in (
        (rho2, "inner radius must stay positive; rho_2"),
        (rho1, "outer radius must stay positive; rho_1"),
        (rho1 - rho2, "boundaries must not cross; (rho_1 - rho_2)"),
    ):
        worst = int(np.argmin(values))
        if values[worst] <= 0.0:
            angle = 2.0 * np.pi * worst / nodes
            raise InvalidContour(f"{label}({angle:.6f}) = {values[worst]:.6e}")

    # One row per sector, so each radius multiplies the e^{i theta} of its copies
    unit = unit[: copies * len(rho1)].reshape(copies, -1)
    z1 = (unit * rho1).ravel()
    z2 = (unit * rho2).ravel()
    dz1 = (unit * (1j * rho1 + drho1)).ravel()
    dz2 = (unit * (1j * rho2 + drho2)).ravel()
    return SampledContour(nodes=nodes, fold=m, z1=z1, z2=z2, dz1=dz1, dz2=dz2)


def boundary_distance(sc: SampledContour) -> float:
    """Minimum distance between the outer and inner boundary.

    The discrete minimum over all N x N node pairs; it overestimates the
    distance between the curves by O(grid spacing squared) when the
    closest approach falls between nodes.  The rotations by 2 pi / m and
    the reflection about the real axis map each boundary's nodes onto
    themselves, so the outer nodes on 0 <= theta <= pi / m, the leading
    N/(2m) + 1, against all N inner nodes reach the same minimum.  The
    pairs are taken in the row blocks of `kernels`, and the minimum over
    the blocks is the minimum over the whole table.
    """
    half = sc.nodes // (2 * sc.fold) + 1
    step = _block_rows(16 * sc.nodes)
    return float(min(
        np.min(np.abs(sc.z1[start : min(start + step, half), None] - sc.z2[None, :]))
        for start in range(0, half, step)
    ))
