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
sector, where it reduces to a length-N/m sum: frequency m k on the full
grid is frequency k on the sector grid.  Being odd, the residual on the
sector is fixed by its values on the half sector 0 <= theta <= pi / m,
the leading N/(2m) + 1 nodes, and the rest of the sector is their odd
extension.  So the projection is one product with a cached half-sector
sine matrix that counts each node strictly inside the half sector twice,
for its mirror image.  `assemble` evaluates those targets against the
sector's N/m sources only, so each of its four kernel tables is
(N/(2m) + 1) x (N/m); `jacobian` stacks the targets of both boundaries
and forms one F table of (N/m) x 2(N/(2m) + 1) per source boundary.
Both read the sector sample, the N/m nodes where `contour` evaluates
each boundary, and the calls on one shape share one sample.  The
residual is affine in omega, and `omega_column`, its omega derivative,
needs the half-sector shape and no kernel sum.
"""

from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np

from . import kernels
from .contour import FloatArray, SampledContour, VortexContourCoeffs, _basis, _motion, _sample

__all__ = ["DiscreteResidual", "assemble", "jacobian", "omega_column"]


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


@functools.lru_cache(maxsize=16)
def _sine_projection(count: int, modes: int) -> FloatArray:
    """Cached sine projection of an odd sector function from its half sector.

    Returns Q, (count // 2 + 1) x modes, such that r @ Q holds the first
    `modes` coefficients b_k = (2 / count) sum_j r_j sin(2 pi j k / count)
    of the odd function on all `count` sector nodes whose leading
    count // 2 + 1 values are r.  A node 0 < j < count / 2 also stands
    for its mirror count - j, so Q[j, k - 1] = (4 / count)
    sin(2 pi j k / count), and the rows at theta = 0 and, for even
    count, theta = pi / m are exactly zero.
    """
    j = np.arange(count // 2 + 1)
    phase = np.outer(j, np.arange(1, modes + 1)) % count
    sine = 4.0 / count * np.sin(2.0 * np.pi / count * phase)
    sine[(j == 0) | (2 * j == count)] = 0.0
    sine.setflags(write=False)
    return sine


def assemble(coeffs: VortexContourCoeffs, omega: float, nodes: int) -> DiscreteResidual:
    """Projected residual of a shape at angular velocity omega.

    The residual is evaluated on the half sector, the leading
    N/(2m) + 1 nodes of each boundary, and projected with the
    half-sector sine matrix.

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
    r1, r2 = _pointwise(_sample(coeffs, nodes), omega, coeffs.fold, count // 2 + 1)
    max_abs = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    sine = _sine_projection(count, coeffs.modes)
    return DiscreteResidual(b1=r1 @ sine, b2=r2 @ sine, max_abs=max_abs)


def omega_column(coeffs: VortexContourCoeffs, nodes: int) -> FloatArray:
    """Derivative of ``assemble(coeffs, omega, nodes).as_vector()`` in omega.

    The residual is affine in omega, with slope
    Re(2 conj(z_j) dz_j/dtheta) = 2 rho_j rho_j' on boundary j, so the
    derivative needs the shape and no kernel sum.  The slope on the half
    sector is projected as in `assemble`.
    """
    count = nodes // coeffs.fold
    half = count // 2 + 1
    # The sector sample of `assemble` and `jacobian` on the same shape
    sc = _sample(coeffs, nodes)
    sine = _sine_projection(count, coeffs.modes)
    return np.concatenate([
        np.real(2.0 * np.conj(z[:half]) * dz[:half]) @ sine
        for z, dz in ((sc.z1, sc.dz1), (sc.z2, sc.dz2))
    ])


# `jacobian`'s work arrays, per thread, for the N/m it last ran at
_workspaces = threading.local()


def _workspace(count: int) -> tuple[np.ndarray, ...]:
    """`jacobian`'s complex work arrays at N/m = count, with T = N/(2m) + 1:
    left (3, N/m, 2), right (3, 4, 2T), the F table (N/m, 2T), work
    (3, N/m, 2T) and the weight pair (2, N/m).

    Each call writes every entry before reading it.  Keeping one set per
    thread saves allocating and faulting in 0.8 MB per Jacobian at
    N/m = 128.
    """
    arrays = getattr(_workspaces, "arrays", None)
    if arrays is None or arrays[2].shape[0] != count:
        targets = 2 * (count // 2 + 1)
        shapes = (
            (3, count, 2), (3, 4, targets), (count, targets), (3, count, targets), (2, count)
        )
        arrays = tuple(np.empty(shape, dtype=np.complex128) for shape in shapes)
        _workspaces.arrays = arrays
    return arrays


def jacobian(coeffs: VortexContourCoeffs, omega: float, nodes: int) -> FloatArray:
    """Exact derivative of ``assemble(coeffs, omega, nodes).as_vector()``.

    Rows follow (b1, b2) and columns the solver unknowns (a1_1..a1_M,
    a2_1..a2_M).  Raising a_{p,l} moves boundary p by delta z = u C and
    its derivative by delta z' = u (i C - S), with u = e^{i theta},
    C = cos(m l theta) and S = m l sin(m l theta).  Each kernel term
    conj(d) / d zeta'_k, d = zeta_k - z, then changes by

        conj(delta d) zeta'_k / d - delta d conj(d) zeta'_k / d^2
            + delta zeta'_k conj(d) / d,   delta d = delta zeta_k - delta z.

    As in `assemble`, the targets z are the leading N/(2m) + 1 nodes of
    each boundary and the sources zeta the leading N/m.  The rotated
    copy q zeta (q^m = 1) of a sector source carries q zeta',
    q delta zeta and q delta zeta', so its m copies sum to combinations
    of S_p = sum_q q^p / (q zeta - z) and T_p = dS_p / dz.  With
    F = m / (zeta^m - z^m),

        source motion:  zeta' S_0 conj(delta zeta) - zeta' (conj(zeta) T_1
            - conj(z) T_2) delta zeta + (conj(zeta) S_0 - conj(z) S_1) delta zeta',
        target motion:  delta z zeta' (conj(zeta) T_0 - conj(z) T_1)
            - conj(delta z) zeta' S_1,

        S_0 = z^(m-1) F,  S_1 = zeta^(m-1) F,  T_1 = zeta^(m-1) z^(m-1) F^2,
        T_0 = (m-1) z^(m-2) F + z^(2m-2) F^2,  T_2 = zeta^(m-2) (F + z^m F^2).

    (At m = 1 the closed form of S_2 is off by the constant 1 / zeta,
    which T_2 does not see.)  The targets of both boundaries are stacked
    into 2(N/(2m) + 1) columns, and per source boundary the source motion
    is the sum over the sector sources of G C + H S, with P = zeta^(m-1),
    tp = z^(m-1), tc = conj(z), tm = z^m and

        G = F (tp A + tc B + F (tc tm L - tp E)),  H = F (tc P u - tp conj(zeta) u),
        A = zeta' conj(u) + i conj(zeta) u,  B = (P zeta' / zeta - i P) u,
        L = P zeta' u / zeta,  E = conj(zeta) zeta' P u.

    The residual changes by the real part of the kernel sums' change
    times z' / (i N).  That factor goes into tp and tc, so one batched
    product forms the three rank-2 sums, and one real product of
    [C^T | S^T] with Re(G; H) gives the residual rows of every target,
    projected at once with the half-sector sine matrix.  F and F^2 times
    two weight vectors give the kernel and the target-motion sums.

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
    sc = _sample(coeffs, nodes)
    unit = _basis(nodes, fold, modes)[2][:count]
    sources, shift, tilt = _motion(nodes, fold, modes)
    sine = _sine_projection(count, modes)
    z = (sc.z1, sc.z2)
    dz = (sc.dz1, sc.dz2)
    power = tuple(source ** (fold - 1) for source in z)  # P of each boundary
    # The targets of both boundaries in one row: columns rows[t] of boundary t
    rows = (slice(0, half), slice(half, 2 * half))
    blocks = (slice(0, modes), slice(modes, 2 * modes))
    target = np.concatenate([z[0][:half], z[1][:half]])
    target_dz = np.concatenate([dz[0][:half], dz[1][:half]])
    target_pow = np.concatenate([power[0][:half], power[1][:half]])
    target_m = target_pow * target
    target_conj = np.conj(target)
    weight = target_dz / (1j * nodes)
    ratio = target_dz / target
    turn = (fold - 1) * target_conj / target
    # The target factors (tp, tc), (tp, tc tm) and (tp, tc) times the
    # weight, and each times i: the complex sum a p + b q is the real
    # product of (Re a, Im a, Re b, Im b) with (p, i p, q, i q).
    left, right, table, work, pair = _workspace(count)
    right[:, 0] = target_pow * weight
    right[[0, 2], 2] = target_conj * weight
    right[1, 2] = target_m * right[0, 2]
    np.multiply(1j, right[:, 0::2], out=right[:, 1::2])
    # Re(G; H) as 2(N/m) x targets floats, in the memory of work[0]
    real = work[0].view(np.float64).reshape(2 * count, 2 * half)
    diag = np.arange(half)
    # I and the target-motion sums, over the sources with sign +1 (outer) and -1 (inner)
    induced = np.zeros(2 * half, dtype=np.complex128)
    sum_p = np.zeros(2 * half, dtype=np.complex128)
    sum_q = np.zeros(2 * half, dtype=np.complex128)
    jac = np.empty((2 * modes, 2 * modes))
    for s, sign in ((0, 1.0), (1, -1.0)):
        source, source_dz, source_pow = z[s], dz[s], power[s]
        np.subtract((source_pow * source)[:, None], target_m[None, :], out=table)
        own = rows[s]  # the targets on the source boundary itself
        table[diag, diag + own.start] = 1.0  # placeholder; the entry is zeroed below
        np.divide(fold, table, out=table)
        table[diag, diag + own.start] = 0.0
        moved, rho = source_pow * unit, np.conj(source) * unit  # P u, conj(zeta) u
        pow_ratio = moved * source_dz / source  # L
        left[0, :, 0] = source_dz * np.conj(unit) + 1j * rho  # A
        left[0, :, 1] = pow_ratio - 1j * moved  # B
        left[1, :, 0] = -rho * source_dz * source_pow  # -E
        left[1, :, 1] = pow_ratio
        left[2, :, 0] = -rho
        left[2, :, 1] = moved
        np.matmul(left.view(np.float64), right.view(np.float64), out=work.view(np.float64))
        work[1] *= table  # G into work[1], H into work[2]
        work[1] += work[0]
        work[1] *= table
        work[2] *= table
        np.copyto(real, work[1:].reshape(2 * count, 2 * half).real)
        projected = (sources @ real).reshape(modes, 2, half) @ sine
        jac[:, blocks[s]] = sign * projected.reshape(modes, 2 * modes).T
        np.multiply(np.conj(source), source_dz, out=pair[0])
        np.multiply(source_pow, source_dz, out=pair[1])
        lin = pair @ table
        sq = pair @ np.square(table, out=table)
        kernel = target_pow * lin[0] - target_conj * lin[1]
        kernel[own] += np.conj(target_dz[own]) - turn[own] * target_dz[own]
        induced += sign * kernel
        sum_p += sign * lin[1]
        sum_q += sign * (
            (fold - 1) * target_pow / target * lin[0]
            + target_pow * (target_pow * sq[0] - target_conj * sq[1])
        )
    induced /= 1j * nodes
    # The diagonal blocks add the node under each target and its m - 1
    # copies, the target motion, and the rotation and kernel terms times
    # delta z': as Re(x conj(y)) = Re(conj(x) y), Re(alpha delta z' + beta delta z).
    for t, sign in ((0, 1.0), (1, -1.0)):
        own = rows[t]
        w = weight[own]
        alpha = sign * (np.conj(w) - turn[own] * w) + 2.0 * omega * target_conj[own] + induced[own]
        beta = np.conj(
            2.0 * omega * target_dz[own] - (sign * (fold - 1) * ratio[own] + sum_p[own]) * w
        ) + (sign * turn[own] * ratio[own] + sum_q[own]) * w
        d_res = np.real(alpha * tilt + beta * shift)
        jac[blocks[t], blocks[t]] += (d_res @ sine).T
    return jac
