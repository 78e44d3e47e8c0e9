"""Cross-check oracles that only the tests read.

`kernel_integral` is the trapezoid boundary integral of one sampled
boundary, summed over all of its N nodes, and
`vstate_residual_pointwise` the rotation residual at every node of
both boundaries, summed over all N sources: neither uses the m-fold
symmetry.

`vstates.assemble` evaluates the residual on half of the fundamental
sector, extends it to the sector as an odd function and projects it
with a length-N/m transform.  `full_grid_assemble` and
`projection_defect` evaluate it on all N nodes and project it with the
length-N transform instead, which is the same sine projection computed
without using either symmetry.
`full_source_jacobian` differentiates `assemble` with every source
node summed on its own, where `vstates.jacobian` sums the m rotated
copies of each sector source in closed form; its targets are the whole
sector, where `vstates.jacobian` evaluates half of it.
`full_block_curvature` is `solver._branch_curvature` with the two-mode
equations read out of the full M-mode residual and Jacobian.
`omega_difference` is `vstates.residual.omega_column` as the
difference of two assembles one unit of omega apart.
`odd_extension_coefficients` is the half-sector sine projection of
`vstates.residual` as the length-N/m transform of the odd extension.
`all_pairs_distance` is `vstates.boundary_distance` without the
symmetry.
"""

from typing import Literal

import numpy as np

from vstates import VortexContourCoeffs, assemble, sample
from vstates.kernels import kernel_sums
from vstates.residual import DiscreteResidual, _pointwise, jacobian
from vstates.solver import CURVATURE_AMPLITUDE, CURVATURE_TOL, _inverse_checked

# Below this target-to-node distance the trapezoid sum is meaningless:
# the bounded-kernel argument needs the diagonal treatment instead.
OFF_CURVE_MIN_SEPARATION = 1e-10

Diagonal = Literal["on_curve", "off_curve"]


def kernel_integral(targets, source, diagonal: Diagonal):
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


def _sine_coefficients(values, modes):
    """First `modes` sine coefficients of samples over one period (axis 0)."""
    spectrum = np.fft.rfft(values, axis=0)
    return -2.0 / len(values) * np.imag(spectrum[1 : modes + 1])


def odd_extension_coefficients(values, count, modes):
    """`values @ residual._sine_projection(count, modes)` through the transform.

    Extends the half-sector values (axis 0, the leading count // 2 + 1
    sector nodes) to all `count` sector nodes as an odd function and
    projects them with the length-`count` transform.
    """
    extended = np.concatenate([values, -values[count - len(values) : 0 : -1]])
    return _sine_coefficients(extended, modes)


def vstate_residual_pointwise(sc, omega):
    """Pointwise rotation residual (r1, r2) at every node of both boundaries.

    Both vanish identically exactly when the sampled shape is a discrete
    V-state at angular velocity omega.
    """
    return _pointwise(sc, omega, 1, sc.nodes)


def _full_grid(coeffs, omega, nodes):
    """Pointwise residual on all N nodes and its first M sine coefficients."""
    r1, r2 = vstate_residual_pointwise(sample(coeffs, nodes), omega)
    picks = coeffs.fold * np.arange(1, coeffs.modes + 1)
    b1 = -2.0 / nodes * np.imag(np.fft.rfft(r1)[picks])
    b2 = -2.0 / nodes * np.imag(np.fft.rfft(r2)[picks])
    return r1, r2, b1, b2


def full_grid_assemble(coeffs, omega, nodes) -> DiscreteResidual:
    """`assemble(coeffs, omega, nodes)` through the full-grid transform."""
    r1, r2, b1, b2 = _full_grid(coeffs, omega, nodes)
    max_abs = float(max(np.max(np.abs(r1)), np.max(np.abs(r2))))
    return DiscreteResidual(b1=b1, b2=b2, max_abs=max_abs)


def projection_defect(coeffs, omega, nodes) -> float:
    """Largest deviation of the sine-series reconstruction from the residual.

    Rebuilds the pointwise residual on all N nodes from its projected
    coefficients: what remains is the constant, cosine and truncated
    content of the residual, which the projection drops.
    """
    r1, r2, b1, b2 = _full_grid(coeffs, omega, nodes)
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    basis = np.sin(np.outer(theta, coeffs.fold * np.arange(1, coeffs.modes + 1)))
    return max(
        float(np.max(np.abs(basis @ b1 - r1))), float(np.max(np.abs(basis @ b2 - r2)))
    )


def full_source_jacobian(coeffs, omega, nodes):
    """`jacobian(coeffs, omega, nodes)` with the sources on all N nodes.

    Raising a_{p,l} moves boundary p by delta z = e^{i theta} cos(m l theta)
    and its derivative by delta z' = e^{i theta} (i cos(m l theta) -
    m l sin(m l theta)).  Each kernel term conj(d) / d zeta'_k,
    d = zeta_k - z_i, then changes by

        conj(delta d) P - delta d Q + R delta zeta'_k,
        P = zeta'_k / d,  R = conj(d) / d,  Q = R P,

    with delta d = delta zeta_k - delta z_i.  Moving the sources gives
    three (targets x N) by (N x M) products, moving the targets gives row
    sums of P and Q, and the diagonal limit conj(zeta'_i) of a boundary
    on itself changes by conj(delta zeta'_i).  The targets are the
    leading N/m nodes of each boundary, the whole fundamental sector.
    """
    sc = sample(coeffs, nodes)
    modes = coeffs.modes
    count = nodes // coeffs.fold
    theta = 2.0 * np.pi * np.arange(nodes) / nodes
    freq = coeffs.fold * np.arange(1, modes + 1)
    cos, sin = np.cos(np.outer(theta, freq)), freq * np.sin(np.outer(theta, freq))
    unit = np.exp(1j * theta)
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


def full_block_curvature(b, m, omega0, direction, config) -> float:
    """`_branch_curvature(b, m, omega0, direction, config)` on the full shape.

    The same bordered Newton solve of the first two modes, but each
    shape carries all M = config.modes modes (the others zero), and the
    two-mode residual and 4 x 4 Jacobian are sliced out of the full
    M-mode ones.
    """
    modes = config.modes
    keep = min(2, modes)
    unknowns = np.r_[0:keep, modes : modes + keep]
    amplitude = CURVATURE_AMPLITUDE
    x = np.zeros(2 * modes)
    x[[0, modes]] = amplitude * direction
    omega = omega0

    def residual(shape, omega):
        return assemble(shape, omega, config.nodes).as_vector()[unknowns]

    size = len(unknowns) + 1
    for _ in range(10):
        shape = VortexContourCoeffs.from_vector(x, b, m, modes)
        base = residual(shape, omega)
        if np.abs(base).max() < CURVATURE_TOL * amplitude:
            break
        bordered = np.zeros((size, size))
        full = jacobian(shape, omega, config.nodes)
        bordered[:-1, :-1] = full[np.ix_(unknowns, unknowns)]
        bordered[:-1, -1] = residual(shape, omega + 1.0) - base
        bordered[-1, [0, keep]] = direction
        rhs = np.append(base, direction @ x[[0, modes]] - amplitude)
        step = _inverse_checked(bordered) @ rhs
        x[unknowns] -= step[:-1]
        omega -= step[-1]
    return (omega - omega0) / amplitude**2


def omega_difference(coeffs, omega, nodes):
    """`omega_column(coeffs, nodes)` as assemble(omega + 1) - assemble(omega).

    The residual is affine in omega, so the difference is the derivative
    up to rounding.
    """
    base = assemble(coeffs, omega, nodes).as_vector()
    return assemble(coeffs, omega + 1.0, nodes).as_vector() - base


def all_pairs_distance(sc) -> float:
    """`boundary_distance(sc)` as the minimum over all N x N node pairs."""
    return float(np.min(np.abs(sc.z1[:, None] - sc.z2[None, :])))
