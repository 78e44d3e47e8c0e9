"""Residual of the rotating-patch equations, its projection and its Jacobian.

A V-state rotating at angular velocity omega is characterized by the
vanishing of

    r_j(theta) = Re[(2 omega conj(z_j) + I_1(z_j) - I_2(z_j)) dz_j/dtheta]

on both boundaries j = 1, 2, with I_1 - I_2 the boundary integrals of
`kernels` (outer minus inner source, both counterclockwise).

The pointwise residual of a shape with the built-in symmetries is an
odd function of theta with period 2 pi / m, so its discrete expansion
contains only sin(m k theta) modes.  Projecting onto the first M of
them turns the boundary equations into a square nonlinear system

    F : (a_{1,1..M}, a_{2,1..M}) -> (b_{1,1..M}, b_{2,1..M}),

with b_{j,k} = (2 / N) sum_i r_j(theta_i) sin(m k theta_i).  The
annulus maps to zero for every (b, omega): the trivial branch.

By symmetry the projection only needs the residual on the fundamental
sector, where it reduces to a length-N/m transform: frequency m k on
the full grid is frequency k on the sector grid.  Being odd, the
residual on the sector is fixed by its values on the half sector
0 <= theta <= pi / m, the leading N/(2m) + 1 nodes, and the rest of the
sector is their odd extension.  `assemble` evaluates those targets
against the sector's N/m sources only, so each of its four kernel
tables is (N/(2m) + 1) x (N/m); `jacobian` stacks the targets of both
boundaries and forms two 2(N/(2m) + 1) x (N/m) tables per source.
Both sample each boundary on those N/m sector nodes alone.  The
residual is affine in omega, and `omega_column`, its omega derivative,
needs the half-sector shape and no kernel sum.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .contour import FloatArray, SampledContour, VortexContourCoeffs, _motion, _sample

__all__ = ["DiscreteResidual", "assemble", "jacobian", "omega_column", "residual_sector"]


def _pointwise(
    sc: SampledContour, omega: float, fold: int, targets: int
) -> tuple[FloatArray, FloatArray]:
    """Rotation residual at the leading `targets` nodes of each boundary.

    The sources are the leading N/m nodes of each boundary (m = fold),
    with the m rotated copies of every node summed in closed form, so
    each value is the trapezoid sum over all N nodes.  At fold 1 with
    all N targets it uses neither symmetry, which makes it the
    full-grid oracle of the tests.
    """
    count = sc.nodes // fold
    z1, dz1, z2, dz2 = sc.z1[:count], sc.dz1[:count], sc.z2[:count], sc.dz2[:count]
    t1, t2 = z1[:targets], z2[:targets]
    # I_1 - I_2 at the targets on either boundary
    induced1 = kernels.kernel_sums(t1, z1, dz1, True, fold) - kernels.kernel_sums(
        t1, z2, dz2, False, fold
    )
    induced2 = kernels.kernel_sums(t2, z1, dz1, False, fold) - kernels.kernel_sums(
        t2, z2, dz2, True, fold
    )
    two_omega = 2.0 * omega
    r1 = np.real((two_omega * np.conj(t1) + induced1) * dz1[:targets])
    r2 = np.real((two_omega * np.conj(t2) + induced2) * dz2[:targets])
    return r1, r2


def residual_sector(
    sc: SampledContour, omega: float, fold: int
) -> tuple[FloatArray, FloatArray]:
    """Pointwise rotation residual on the half sector of an m-fold shape.

    The contour must have the m-fold and reflection symmetries (m =
    fold, a divisor of N) that `sample` builds in.  The targets are the
    leading N/(2m) + 1 nodes of each boundary, 0 <= theta <= pi / m,
    which determine the rest by symmetry: the residual is odd in theta
    with period 2 pi / m.  The sources are the leading N/m nodes, and
    each value is still the trapezoid sum over all N nodes, with the m
    rotated copies of every sector node summed in closed form.
    """
    if fold < 1 or sc.nodes % fold:
        raise ValueError(f"fold must be a positive divisor of {sc.nodes}, got {fold}")
    return _pointwise(sc, omega, fold, sc.nodes // (2 * fold) + 1)


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


def _odd_extension(values: FloatArray, count: int) -> FloatArray:
    """An odd function on all `count` sector nodes from its half sector (axis 0)."""
    return np.concatenate([values, -values[count - len(values) : 0 : -1]])


def _sine_coefficients(values: FloatArray, modes: int) -> FloatArray:
    """First `modes` sine coefficients of samples over one period (axis 0)."""
    n = len(values)
    spectrum = np.fft.rfft(values, axis=0)
    return -2.0 / n * np.imag(spectrum[1 : modes + 1])


def assemble(coeffs: VortexContourCoeffs, omega: float, nodes: int) -> DiscreteResidual:
    """Projected residual of a shape at angular velocity omega.

    The residual is evaluated on the half sector, the leading
    N/(2m) + 1 nodes of each boundary, extended to the fundamental
    sector (the leading N/m nodes) as an odd function, and projected
    with a length-N/m transform.

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
    count = nodes // coeffs.fold
    r1, r2 = residual_sector(_sample(coeffs, nodes, count), omega, coeffs.fold)
    max_abs = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    return DiscreteResidual(
        b1=_sine_coefficients(_odd_extension(r1, count), coeffs.modes),
        b2=_sine_coefficients(_odd_extension(r2, count), coeffs.modes),
        max_abs=max_abs,
    )


def omega_column(coeffs: VortexContourCoeffs, nodes: int) -> FloatArray:
    """Derivative of ``assemble(coeffs, omega, nodes).as_vector()`` in omega.

    The residual is affine in omega, with slope
    Re(2 conj(z_j) dz_j/dtheta) = 2 rho_j rho_j' on boundary j, so the
    derivative needs the shape and no kernel sum.  The slope on the half
    sector is extended and projected as in `assemble`.
    """
    count = nodes // coeffs.fold
    sc = _sample(coeffs, nodes, count // 2 + 1)
    return np.concatenate([
        _sine_coefficients(_odd_extension(np.real(2.0 * np.conj(z) * dz), count), coeffs.modes)
        for z, dz in ((sc.z1, sc.dz1), (sc.z2, sc.dz2))
    ])


def jacobian(coeffs: VortexContourCoeffs, omega: float, nodes: int) -> FloatArray:
    """Exact derivative of ``assemble(coeffs, omega, nodes).as_vector()``.

    Rows follow (b1, b2) and columns the solver unknowns (a1_1..a1_M,
    a2_1..a2_M).  Raising a_{p,l} moves boundary p by
    delta z = e^{i theta} cos(m l theta) and its derivative by
    delta z' = e^{i theta} (i cos(m l theta) - m l sin(m l theta)).  Each
    kernel term conj(d) / d zeta'_k, d = zeta_k - z, then changes by

        conj(delta d) zeta'_k / d - delta d conj(d) zeta'_k / d^2
            + delta zeta'_k conj(d) / d,   delta d = delta zeta_k - delta z.

    As in `assemble`, the targets z are the leading N/(2m) + 1 nodes of
    each boundary, whose rows are extended to the sector as odd
    functions, and the sources zeta are the leading N/m nodes.  The
    rotated copy u zeta (u^m = 1) of a sector source carries u zeta',
    u delta zeta and u delta zeta', so its m copies sum to combinations
    of S_p = sum_u u^p / (u zeta - z) and T_p = dS_p / dz.  With
    F = m / (zeta^m - z^m),

        source motion:  zeta' S_0 conj(delta zeta) - zeta' (conj(zeta) T_1
            - conj(z) T_2) delta zeta + (conj(zeta) S_0 - conj(z) S_1) delta zeta',
        target motion:  delta z zeta' (conj(zeta) T_0 - conj(z) T_1)
            - conj(delta z) zeta' S_1,

        S_0 = z^(m-1) F,  S_1 = zeta^(m-1) F,  T_1 = zeta^(m-1) z^(m-1) F^2,
        T_0 = (m-1) z^(m-2) F + z^(2m-2) F^2,  T_2 = zeta^(m-2) (F + z^m F^2).

    (At m = 1 the closed form of S_2 is off by the constant 1 / zeta,
    which T_2 does not see.)  Every (targets x sector) table is then a
    row and column scaling of F or F^2.  The targets of both boundaries
    are stacked into 2(N/(2m) + 1) rows, and per source boundary one F
    and one F^2 table, times 2M + 2 weight columns, give the source
    motion, the kernel and the target-motion sums at every target.

    On the source boundary's own rows F is zeroed at the node under
    the target, and its m copies are added back: the removable limit
    conj(z') of the node itself, and -conj(z) z' / z for each of the
    other m - 1, both differentiated in z and z'.

    Raises
    ------
    InvalidContour
        Propagated from sampling when the shape is degenerate.
    """
    fold, modes = coeffs.fold, coeffs.modes
    count = nodes // fold
    half = count // 2 + 1
    sc = _sample(coeffs, nodes, count)
    # delta z and delta z' per unit a_{p,l} at the sector nodes of either boundary
    shift, tilt, shift_conj, tilt_conj = _motion(nodes, fold, modes)
    target_shift, target_tilt = shift[:half], tilt[:half]
    target_shift_conj = shift_conj[:half]
    z = (sc.z1, sc.z2)
    dz = (sc.dz1, sc.dz2)
    # The targets of both boundaries as one column: rows[t] of boundary t
    rows = (slice(0, half), slice(half, 2 * half))
    blocks = (slice(0, modes), slice(modes, 2 * modes))
    target = np.concatenate([z[0][:half], z[1][:half]])
    target_dz = np.concatenate([dz[0][:half], dz[1][:half]])
    target_pow = target ** (fold - 1)
    target_m = target_pow * target
    target_conj = np.conj(target)
    diag = np.arange(half)
    # I_t and i N dI_t / da at every target, summed over the sources with
    # sign +1 (outer) and -1 (inner)
    induced = np.zeros(2 * half, dtype=np.complex128)
    d_induced = np.zeros((2 * half, 2 * modes), dtype=np.complex128)
    for s, sign in ((0, 1.0), (1, -1.0)):
        source, source_dz = z[s], dz[s]
        source_pow = source ** (fold - 1)
        table = np.subtract((source_pow * source)[None, :], target_m[:, None])
        own = rows[s]  # the targets on the source boundary itself
        table[diag + own.start, diag] = 1.0  # placeholder; the entry is zeroed below
        np.divide(fold, table, out=table)
        table[diag + own.start, diag] = 0.0
        kernel_w = np.conj(source) * source_dz
        pow_w = source_pow * source_dz
        low_w = pow_w / source
        lin = table @ np.column_stack([
            source_dz[:, None] * shift_conj + np.conj(source)[:, None] * tilt,
            low_w[:, None] * shift - source_pow[:, None] * tilt,
            kernel_w,
            pow_w,
        ])
        sq = np.square(table, out=table) @ np.column_stack([
            (kernel_w * source_pow)[:, None] * shift,
            low_w[:, None] * shift,
            kernel_w,
            pow_w,
        ])
        kernel = target_pow * lin[:, -2] - target_conj * lin[:, -1]
        sum_p = lin[:, -1]
        sum_q = (fold - 1) * target_pow / target * lin[:, -2] + target_pow * (
            target_pow * sq[:, -2] - target_conj * sq[:, -1]
        )
        d_source = target_pow[:, None] * (
            lin[:, :modes] - sq[:, :modes]
        ) + target_conj[:, None] * (
            lin[:, modes:-2] + target_m[:, None] * sq[:, modes:-2]
        )
        ratio = target_dz[own] / target[own]
        kernel[own] += np.conj(target_dz[own]) - (fold - 1) * target_conj[own] * ratio
        d_source[own] += tilt_conj[:half] - (fold - 1) * (
            target_shift_conj * ratio[:, None]
            + (target_conj[own] / target[own])[:, None]
            * (target_tilt - ratio[:, None] * target_shift)
        )
        induced += sign * kernel
        d_induced[:, blocks[s]] += sign * d_source
        p_rows, q_rows = sum_p.reshape(2, half, 1), sum_q.reshape(2, half, 1)
        motion = target_shift * q_rows - target_shift_conj * p_rows
        for t in range(2):
            d_induced[rows[t], blocks[t]] += sign * motion[t]
    scale = 1.0 / (1j * nodes)
    induced *= scale
    d_induced *= scale
    d_res = np.real(d_induced * target_dz[:, None])
    jac = np.empty((2 * modes, 2 * modes))
    for t in range(2):
        own = rows[t]
        d_res[own, blocks[t]] += np.real(
            2.0 * omega * target_shift_conj * target_dz[own, None]
            + (2.0 * omega * target_conj[own] + induced[own])[:, None] * target_tilt
        )
        jac[blocks[t]] = _sine_coefficients(_odd_extension(d_res[own], count), modes)
    return jac
