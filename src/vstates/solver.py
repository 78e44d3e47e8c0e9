"""Newton iteration on the projected boundary equations.

The Jacobian is the exact linearization of the projected residual
(`residual.jacobian`); each Jacobian is inverted once (`np.linalg.inv`)
and each linear step applies that inverse with a matrix-vector product.
Convergence is measured on the largest pointwise residual over the
half-sector nodes, which determine those at the other quadrature nodes
by symmetry, not on the projected coefficients, so a converged report
certifies the boundary equations themselves.

Chord Newton: a solve given a `ChordFactors` (the warm solves of a
branch sweep) reuses the inverse of an earlier Jacobian, the one it
is handed or the one it forms itself, and forms a fresh Jacobian only
after a reused-inverse step that fails to cut the largest pointwise
residual by CHORD_CONTRACTION.  Chord steps converge linearly and so
stop just under tol, where a Newton step lands far below it.  Near a
bifurcation point that gap matters: at b = 0.63, omega = 0.1674 the
smallest singular value of J is 6e-5, and a chord state was 3.7e-10
from the solution where Newton's was 3.6e-11.  A converged chord solve
therefore takes one more step with its inverse and keeps it when it
lowers the residual.  A solve given no ChordFactors forms a fresh
Jacobian at every step.

Cold starts: a seed that is the annulus displaced in its first mode
only (what `perturbed_annulus` builds) does not fix a starting
amplitude.  Newton starts instead from the Crandall-Rabinowitz
predictor of the branch leaving the annulus at the nearer bifurcation
eigenvalue omega_0: the state s e at the amplitude s where the branch
reaches omega.  e is the unit null direction `kernel_vector` in
(a_{1,1}, a_{2,1}), signed to agree with the seed, and

    omega(s) = omega_0 + c s^2 + O(s^4)

(omega is even in s: the rotation by pi/m maps s to -s), so
s = sqrt((omega - omega_0) / c).  The curvature c comes from a bordered
Newton solve, with omega free, of the equations truncated to the first
two modes at a tiny amplitude, on a two-mode shape whose Jacobian is
4 x 4 whatever the solve's M.  Near the end of a branch omega(s)
steepens, so the predicted s lands just beyond the state, where Newton
converges; a first-mode seed of any other amplitude can start inside a
region where the full step overshoots or falls back to the annulus.
Where no branch leaves toward omega (omega on the far side of omega_0,
omega at omega_0, or no eigenvalue pair) the seed is used as given.

Failure semantics: running out of iterations is an ordinary outcome and
comes back as a report with ``converged=False`` (continuation treats it
as data); geometry degenerating mid-iteration or a singular linear
system raise `GeometryBreakdown` / `SingularJacobian`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .contour import InvalidContour, VortexContourCoeffs, perturbed_annulus
from .dispersion import kernel_vector, nearer_eigenvalue
from .residual import assemble, jacobian, omega_column

__all__ = [
    "SolverConfig",
    "SolveReport",
    "ChordFactors",
    "GeometryBreakdown",
    "SingularJacobian",
    "fd_jacobian",
    "newton_solve",
    "normalize_signs",
]

# A guard value 1 / ||J^-1||_inf below this means omega sits at (or
# numerically at) a bifurcation eigenvalue or fold of the branch.  The
# guard lies within a factor sqrt(n) of the smallest singular value of
# the n x n Jacobian, and costs a row sum of the inverse, not an SVD.
MIN_PIVOT = 1e-14

# Coefficients this small are the annulus up to solver noise; genuine
# bifurcated states carry first-mode amplitudes orders above it.
TRIVIAL_AMPLITUDE = 1e-8

# Amplitude of the truncated solve that measures the branch curvature:
# small enough for the O(s^2) correction to c to vanish, large enough
# for omega - omega_0 ~ c s^2 to stand well above rounding.
CURVATURE_AMPLITUDE = 1e-3

# The truncated curvature solve stops once its residual falls below
# CURVATURE_TOL * CURVATURE_AMPLITUDE.  Fixed, not the solve's tol: a
# loose tol would pass the predictor itself and leave c = 0.
CURVATURE_TOL = 1e-12

# A chord solve keeps the inverse of its last Jacobian while every
# step with it cuts the largest pointwise residual by at least this
# factor, and forms a fresh Jacobian after one that does not.  On the
# four acceptance sweeps 10 forms 9-34 % of the Jacobians of full Newton
# and reaches tol within 10 warm steps per state; 5 to 8 form up to a
# quarter fewer but need 11 or 12 of the 12 (continuation.WARM_MAX_ITER).
CHORD_CONTRACTION = 10.0


class GeometryBreakdown(RuntimeError):
    """Newton update produced a non-positive radius or crossing boundaries."""

    def __init__(self, iteration: int, detail: str):
        super().__init__(
            f"contour degenerated at iteration {iteration}: {detail}"
        )
        self.iteration = iteration


class SingularJacobian(RuntimeError):
    """Guard value 1 / ||J^-1||_inf (pivot; 0.0 when inv fails, NaN when
    J holds a NaN) below MIN_PIVOT: the linearization is rank deficient."""

    def __init__(self, pivot: float):
        super().__init__(
            f"Jacobian numerically singular (1/||J^-1||_inf {pivot:.3e} < {MIN_PIVOT:.0e})"
        )
        self.pivot = pivot


@dataclass
class SolverConfig:
    """Discretization and iteration parameters of one solve.

    modes is the truncation M of the unknown coefficient arrays and
    nodes the quadrature grid size N; N must be a multiple of the fold
    and satisfy N >= 2 m M + 1 (enforced at sampling time).
    """

    modes: int
    nodes: int
    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        if self.modes < 1:
            raise ValueError(f"modes must be positive, got {self.modes}")
        if self.nodes < 1:
            raise ValueError(f"nodes must be positive, got {self.nodes}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


@dataclass
class SolveReport:
    """Outcome of one Newton run.

    residual_max is the measure of the last assembly, at the returned
    coefficients; an independent re-assembly, one more residual_history
    entry, re-verifies it only when `normalize_signs` flips the state.
    residual_history holds the measure before the first and after each update.
    """

    coeffs: VortexContourCoeffs
    iterations: int
    residual_max: float
    converged: bool
    trivial: bool
    residual_history: list[float] = field(default_factory=list)


@dataclass
class ChordFactors:
    """The inverse Jacobian that chord Newton carries from one solve to
    the next.

    inverse holds the inverse of an earlier Jacobian that the next step
    may reuse, or None when that step must form a fresh one.  A solve
    given a ChordFactors reads it at the start and leaves its own
    reusable inverse in it.
    """

    inverse: np.ndarray | None = None


def default_modes(fold: int, nodes: int) -> int:
    """Largest alias-free truncation for an N-node grid at fold m."""
    if fold < 1:
        raise ValueError(f"fold must be a positive integer, got {fold}")
    return (nodes // fold - 1) // 2


def fd_jacobian(
    coeffs: VortexContourCoeffs, omega: float, config: SolverConfig, step: float = 1e-9
) -> np.ndarray:
    """One-sided finite-difference Jacobian of the projected residual.

    Column j holds (F(x + h e_j) - F(x)) / h with h = step in the
    flattened ordering (a1_1..a1_M, a2_1..a2_M).  The solver uses the
    exact `residual.jacobian`; this is its independent oracle.
    """
    x0 = coeffs.as_vector()
    base = assemble(coeffs, omega, config.nodes).as_vector()
    size = 2 * coeffs.modes
    jac = np.empty((size, size))
    for j in range(size):
        x = x0.copy()
        x[j] += step
        bumped = VortexContourCoeffs.from_vector(x, coeffs.b, coeffs.fold, coeffs.modes)
        jac[:, j] = (assemble(bumped, omega, config.nodes).as_vector() - base) / step
    return jac


def _inverse_checked(jac: np.ndarray) -> np.ndarray:
    """Inverse of jac; SingularJacobian when 1 / ||jac^-1||_inf, the
    guard value, is below MIN_PIVOT or is NaN."""
    try:
        inverse = np.linalg.inv(jac)
    except np.linalg.LinAlgError:
        raise SingularJacobian(0.0) from None
    bound = 1.0 / float(np.abs(inverse).sum(axis=1).max())
    if not bound >= MIN_PIVOT:
        raise SingularJacobian(bound)
    return inverse


def normalize_signs(coeffs: VortexContourCoeffs) -> VortexContourCoeffs:
    """Canonical branch representative with a_{1,1} > 0.

    Rotating the shape by pi / m flips the sign of every odd-k
    coefficient and leaves the equations invariant, so the two
    representatives are the same V-state.  Applied when a_{1,1} < 0
    (or a_{1,1} = 0 with a_{2,1} > 0); idempotent.
    """
    a1_1 = coeffs.a1[0]
    a2_1 = coeffs.a2[0]
    if a1_1 > 0.0 or (a1_1 == 0.0 and a2_1 <= 0.0):
        return coeffs
    parity = (-1.0) ** np.arange(1, coeffs.modes + 1)
    return coeffs.replace_coefficients(parity * coeffs.a1, parity * coeffs.a2)


def _branch_curvature(
    b: float, m: int, omega0: float, direction: np.ndarray, config: SolverConfig
) -> float:
    """Coefficient c of omega(s) = omega0 + c s^2 along the branch.

    Solves the equations truncated to the first two modes (the shape
    carries min(2, M) modes on the solve's N nodes, so `assemble` and
    `jacobian` return exactly the truncated residual and its 4 x 4
    Jacobian), at first-mode amplitude CURVATURE_AMPLITUDE along
    `direction` and with omega as an extra unknown.  Two modes suffice:
    the second-mode response enters the first-mode equation at third
    order, the third mode only at fifth.  The residual is affine in
    omega, so the bordered system's omega column comes from the shape
    alone (`omega_column`): the projection of 2 rho_j rho_j'.
    """
    keep = min(2, config.modes)
    amplitude = CURVATURE_AMPLITUDE
    x = np.zeros(2 * keep)
    x[[0, keep]] = amplitude * direction
    omega = omega0
    for _ in range(10):
        shape = VortexContourCoeffs.from_vector(x, b, m, keep)
        base = assemble(shape, omega, config.nodes).as_vector()
        if np.abs(base).max() < CURVATURE_TOL * amplitude:
            break
        bordered = np.zeros((2 * keep + 1, 2 * keep + 1))
        bordered[:-1, :-1] = jacobian(shape, omega, config.nodes)
        bordered[:-1, -1] = omega_column(shape, config.nodes)
        bordered[-1, [0, keep]] = direction
        rhs = np.append(base, direction @ x[[0, keep]] - amplitude)
        step = _inverse_checked(bordered) @ rhs
        x -= step[:-1]
        omega -= step[-1]
    return (omega - omega0) / amplitude**2


def _cold_start(
    seed: VortexContourCoeffs, omega: float, config: SolverConfig
) -> VortexContourCoeffs:
    """Bifurcation predictor for a first-mode seed; other seeds pass through."""
    first = np.array([seed.a1[0], seed.a2[0]])
    if not first.any() or np.any(seed.a1[1:]) or np.any(seed.a2[1:]):
        return seed
    omega0 = nearer_eigenvalue(seed.fold, seed.b, omega)
    if omega0 is None:
        return seed
    direction = np.array(kernel_vector(seed.fold - 1, 1.0 - 2.0 * omega0, seed.b))
    direction /= np.linalg.norm(direction)
    if direction @ first < 0.0:
        direction = -direction
    curvature = _branch_curvature(seed.b, seed.fold, omega0, direction, config)
    ratio = (omega - omega0) / curvature
    if not ratio > 0.0:
        return seed
    a1_1, a2_1 = np.sqrt(ratio) * direction
    return perturbed_annulus(seed.b, seed.fold, seed.modes, a1_1=a1_1, a2_1=a2_1)


def newton_solve(
    b: float,
    omega: float,
    m: int,
    seed: VortexContourCoeffs,
    config: SolverConfig,
    chord: ChordFactors | None = None,
) -> SolveReport:
    """Solve the fold-m boundary equations at fixed (b, omega).

    Parameters
    ----------
    b, omega, m : float, float, int
        Inner radius, angular velocity (finite) and symmetry of the
        sought state.
    seed : VortexContourCoeffs
        Initial shape, required: a first-mode seed is a cold start from
        the bifurcation predictor (module docstring), and the annulus
        ``perturbed_annulus(b, m, M)`` stays on the trivial branch.  Must
        carry the same b, fold and mode count as the solve.
    config : SolverConfig
        Discretization and iteration parameters.
    chord : ChordFactors, optional
        Chord Newton (module docstring): start from chord.inverse when
        it holds an inverse and leave the reusable inverse there at the
        end.
        Without it every step forms a fresh Jacobian.

    Returns
    -------
    SolveReport
        converged=False when max_iter runs out; iterations counts the
        Newton updates actually applied.

    Raises
    ------
    ValueError
        If omega is not finite or the seed does not match the solve.
    GeometryBreakdown
        If an update leaves the space of valid shapes.
    SingularJacobian
        If a Jacobian's guard value 1 / ||J^-1||_inf falls below
        MIN_PIVOT.
    """
    if not np.isfinite(omega):
        raise ValueError(f"omega must be finite, got {omega}")
    if seed.b != b or seed.fold != m or seed.modes != config.modes:
        raise ValueError(
            f"seed shape (b={seed.b}, fold={seed.fold}, modes={seed.modes}) "
            f"does not match the requested solve (b={b}, fold={m}, "
            f"modes={config.modes})"
        )

    current = _cold_start(seed, omega, config)
    residual = assemble(current, omega, config.nodes)
    history = [residual.max_abs]
    iterations = 0
    trivial = False
    inverse = None if chord is None else chord.inverse

    def update():
        x = current.as_vector() - inverse @ residual.as_vector()
        updated = VortexContourCoeffs.from_vector(x, b, m, config.modes)
        return updated, assemble(updated, omega, config.nodes)

    while True:
        while residual.max_abs >= config.tol:
            if iterations >= config.max_iter:
                return SolveReport(
                    coeffs=current,
                    iterations=iterations,
                    residual_max=residual.max_abs,
                    converged=False,
                    trivial=False,
                    residual_history=history,
                )
            fresh = inverse is None
            if fresh:
                inverse = _inverse_checked(jacobian(current, omega, config.nodes))
            iterations += 1
            try:
                current, residual = update()
            except InvalidContour as exc:
                raise GeometryBreakdown(iterations, str(exc)) from exc
            if chord is None or (
                not fresh and residual.max_abs * CHORD_CONTRACTION > history[-1]
            ):
                inverse = None
            history.append(residual.max_abs)
        if inverse is not None and iterations < config.max_iter:
            # Polish: chord steps converge linearly and stop just under
            # tol, where a full Newton step lands far below it.
            try:
                polished, polished_residual = update()
            except InvalidContour:
                polished_residual = residual
            if polished_residual.max_abs < residual.max_abs:
                current, residual = polished, polished_residual
                iterations += 1
                history.append(residual.max_abs)
        trivial = float(np.max(np.abs(current.as_vector()))) < TRIVIAL_AMPLITUDE
        normalized = current if trivial else normalize_signs(current)
        if normalized is current:
            break
        # Re-verify the certificate on the normalized representative; if
        # rounding nudged it back over tol the outer loop polishes it.
        # The inverse belongs to the other representative.
        current = normalized
        inverse = None
        residual = assemble(current, omega, config.nodes)
        history.append(residual.max_abs)
    if chord is not None:
        chord.inverse = inverse
    return SolveReport(
        coeffs=current,
        iterations=iterations,
        residual_max=residual.max_abs,
        converged=True,
        trivial=trivial,
        residual_history=history,
    )
