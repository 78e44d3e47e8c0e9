"""Spectral residual of the rotating-patch equations.

The pointwise residual of a shape with the built-in symmetries is an
odd function of theta with period 2 pi / m, so its discrete expansion
contains only sin(m k theta) modes.  Projecting onto the first M of
them turns the boundary equations into a square nonlinear system

    F : (a_{1,1..M}, a_{2,1..M}) -> (b_{1,1..M}, b_{2,1..M}),

with b_{j,k} = (2 / N) sum_i r_j(theta_i) sin(m k theta_i).  The
annulus maps to zero for every (b, omega): the trivial branch.

By symmetry the projection only needs the residual on the fundamental
sector, where it reduces to a length-N/m transform: frequency m k on
the full grid is frequency k on the sector grid.  `assemble` also sums
over the sector's sources only, so each of its four kernel tables is
(N/m) x (N/m).  `jacobian` still forms (N/m) x 3N tables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import FloatArray, VortexContourCoeffs, _basis, sample
from .quadrature import residual_sector

__all__ = ["DiscreteResidual", "assemble", "jacobian"]


@dataclass(frozen=True, eq=False)
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
    """First `modes` sine coefficients of samples over one period (axis 0)."""
    n = len(values)
    spectrum = np.fft.rfft(values, axis=0)
    return -2.0 / n * np.imag(spectrum[1 : modes + 1])


def assemble(coeffs: VortexContourCoeffs, omega: float, nodes: int) -> DiscreteResidual:
    """Projected residual of a shape at angular velocity omega.

    The residual is evaluated on the fundamental sector, the leading N/m
    nodes of each boundary (all N for m = 1), and projected with a
    length-N/m transform.

    Parameters
    ----------
    coeffs : VortexContourCoeffs
        Shape to evaluate.
    omega : float
        Angular velocity of the rotating frame.
    nodes : int
        Quadrature grid size N (multiple of the fold, alias-free for
        the mode count).

    Raises
    ------
    InvalidContour
        Propagated from sampling when the shape is degenerate.
    """
    r1, r2 = residual_sector(sample(coeffs, nodes), omega, coeffs.fold)
    max_abs = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    return DiscreteResidual(
        b1=_sine_coefficients(r1, coeffs.modes),
        b2=_sine_coefficients(r2, coeffs.modes),
        max_abs=max_abs,
    )


def jacobian(coeffs: VortexContourCoeffs, omega: float, nodes: int) -> FloatArray:
    """Exact derivative of ``assemble(coeffs, omega, nodes).as_vector()``.

    Rows follow (b1, b2) and columns the solver unknowns (a1_1..a1_M,
    a2_1..a2_M).  Raising a_{p,l} moves boundary p by
    delta z = e^{i theta} cos(m l theta) and its derivative by
    delta z' = e^{i theta} (i cos(m l theta) - m l sin(m l theta)).  Each
    kernel term conj(d) / d zeta'_k, d = zeta_k - z_i, then changes by

        conj(delta d) P - delta d Q + R delta zeta'_k,
        P = zeta'_k / d,  R = conj(d) / d,  Q = R P,

    with delta d = delta zeta_k - delta z_i.  Moving the sources gives
    three (targets x N) by (N x M) products, moving the targets gives row
    sums of P and Q, and the diagonal limit conj(zeta'_i) of a boundary
    on itself changes by conj(delta zeta'_i).  The targets are those of
    `assemble`: the leading N/m nodes of each boundary (all N for m = 1).

    Raises
    ------
    InvalidContour
        Propagated from sampling when the shape is degenerate.
    """
    sc = sample(coeffs, nodes)
    modes = coeffs.modes
    count = nodes // coeffs.fold
    cos, sin, unit = _basis(nodes, coeffs.fold, modes)
    # conj(delta z), -delta z and delta z' per unit a_{p,l}, stacked so
    # that P @ conj(delta z) - Q @ delta z + R @ delta z' is one product
    stacked = np.empty((3, nodes, modes), dtype=np.complex128)
    np.multiply(unit[:, None], cos, out=stacked[1])
    np.conjugate(stacked[1], out=stacked[0])
    np.negative(stacked[1], out=stacked[1])
    np.multiply(unit[:, None], 1j * cos - sin, out=stacked[2])
    target_shift = -stacked[1, :count]
    target_tilt = stacked[2, :count]
    stacked = stacked.reshape(3 * nodes, modes)
    tables = np.empty((count, 3 * nodes), dtype=np.complex128)
    p_tab, q_tab, r_tab = np.split(tables, 3, axis=1)
    diag = np.arange(count)
    z, dz = (sc.z1, sc.z2), (sc.dz1, sc.dz2)
    blocks = (slice(0, modes), slice(modes, 2 * modes))
    jac = np.empty((2 * modes, 2 * modes))
    for t in range(2):
        target, target_dz = z[t][:count], dz[t][:count]
        # I_t and i N dI_t / da, summed over the sources with sign +1 (outer)
        # and -1 (inner)
        induced = np.zeros(count, dtype=np.complex128)
        d_induced = np.zeros((count, 2 * modes), dtype=np.complex128)
        for s, sign in ((0, 1.0), (1, -1.0)):
            # d = zeta_k - z_i, held in r_tab until R replaces it in place
            diff = np.subtract(z[s][None, :], target[:, None], out=r_tab)
            if s == t:
                diff[diag, diag] = 1.0  # placeholder; the diagonal is zeroed below
            np.divide(dz[s][None, :], diff, out=p_tab)
            np.conjugate(diff, out=q_tab)
            np.divide(q_tab, diff, out=r_tab)
            np.multiply(r_tab, p_tab, out=q_tab)
            if s == t:
                for table in (p_tab, q_tab, r_tab):
                    table[diag, diag] = 0.0
            kernel = r_tab @ dz[s]
            d_source = tables @ stacked
            if s == t:
                kernel += np.conj(target_dz)
                d_source += np.conj(target_tilt)
            induced += sign * kernel
            d_induced[:, blocks[s]] += sign * d_source
            d_induced[:, blocks[t]] += sign * (
                target_shift * q_tab.sum(axis=1)[:, None]
                - np.conj(target_shift) * p_tab.sum(axis=1)[:, None]
            )
        scale = 1.0 / (1j * nodes)
        induced *= scale
        d_induced *= scale
        d_res = np.real(d_induced * target_dz[:, None])
        d_res[:, blocks[t]] += np.real(
            2.0 * omega * np.conj(target_shift) * target_dz[:, None]
            + (2.0 * omega * np.conj(target) + induced)[:, None] * target_tilt
        )
        jac[blocks[t]] = _sine_coefficients(d_res, modes)
    return jac
