"""Newton iteration on the projected boundary equations.

The Jacobian is the exact linearization of the projected residual
(`residual.jacobian`); each Jacobian is inverted once (`np.linalg.inv`)
and each linear step applies that inverse with a matrix-vector product.
Convergence is measured on the largest pointwise residual over the
half-sector nodes, which determine those at the other quadrature nodes
by symmetry, not on the projected coefficients, so a converged report
certifies the boundary equations themselves.

Two grids: the discrete problem is fixed once N reaches the alias bound
2 m M + 1, so a solve whose requested N is at least twice N0, the
smallest multiple of m at or above that bound, runs its Newton loop on
N0, then on N; below 2 N0, on N alone.  On each grid the loop assembles
the state, steps until tol or the shared max_iter budget, polishes and
normalizes.  On N, whose nodes N0 never sampled, the assembly certifies
N0's state; only a state that fails tol there steps on N, with the same
2M x 2M inverse.  At m = 4, M = 31 (N0 = 252) each of the 333 states of
the full criterion-7 sweep at N = 512 passes on N without a step.  N0's
residual reaches rounding whatever M is, since the projection there
keeps all M degrees of freedom of the pointwise residual; N's also holds
the tail beyond M, so a truncation too short for tol fails on N.

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
lowers the residual, on the first grid even without a step, on N only
after a step there.  A solve takes chord.inverse, leaving None, and
writes its own back only with a converged nontrivial state.  A solve
given no ChordFactors forms a fresh Jacobian at every step.

A warm solve, one given a ChordFactors whose seed the cold start leaves
as it is, also stops once a step with a freshly formed inverse fails
Deuflhard's natural monotonicity test: theta = ||J^-1 F(x+)|| /
||J^-1 F(x)|| >= 1 (2-norms, the same inverse).  J^-1 F(x+) is the
correction of the next chord step, so the test costs one vector norm.
It is a test on the correction, not on the residual: at the end of the
b = 0.6, m = 4 branch the first fresh step of the 0.1755 solve doubles
the largest residual but has theta = 0.07, and converges.  On the four
acceptance sweeps, the 30-sweep branch probe and the branch-end sweep
of the benchmark, the largest theta of a converged warm solve is 0.55
and every failing warm solve has a fresh step with theta of 1.25 to 700.
Cold starts and full Newton are not tested: a cold solve may pass
through theta = 17 and converge.

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

Failure semantics: running out of iterations, or a warm solve's step
that does not contract, is an ordinary outcome and comes back as a
report with ``converged=False`` (continuation treats it as data); a
solve stopped on N0 still assembles on N for its report.  Geometry
degenerating mid-iteration or a singular linear system raise
`GeometryBreakdown` / `SingularJacobian`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Real

import numpy as np

from .contour import InvalidContour, VortexContourCoeffs, _grid_fault, perturbed_annulus
from .dispersion import kernel_vector, nearer_eigenvalue
from .residual import assemble, jacobian, omega_column

__all__ = [
    "SolverConfig",
    "SolveReport",
    "ChordFactors",
    "GeometryBreakdown",
    "SingularJacobian",
    "default_modes",
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
    and satisfy N >= 2 m M + 1 (enforced by `newton_solve` and at
    sampling time).  modes, nodes and max_iter are ints, tol a real.
    """

    modes: int
    nodes: int
    tol: float = 1e-12
    max_iter: int = 50

    def __post_init__(self):
        for name in ("modes", "nodes", "max_iter"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if self.modes < 1:
            raise ValueError(f"modes must be positive, got {self.modes}")
        if self.nodes < 1:
            raise ValueError(f"nodes must be positive, got {self.nodes}")
        if isinstance(self.tol, bool) or not isinstance(self.tol, Real):
            raise ValueError(f"tol must be a real number, got {self.tol!r}")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be positive, got {self.max_iter}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one Newton run.

    residual_max is the measure of the last assembly, at the returned
    coefficients, always on the requested grid config.nodes.
    residual_history holds, grid by grid (module docstring), the measure
    of the grid's first assembly (the seed's, or on N the check of N0's
    state) and the measure after each update; a state that
    `normalize_signs` flips is re-assembled on the same grid, one more
    entry.  iterations counts the steps on both grids.
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
    may reuse, or None when that step must form a fresh one.  Only
    `newton_solve` writes it: a solve takes it and leaves None, and puts
    its own reusable inverse back only with a converged nontrivial state.
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
    carries min(2, M) modes on config.nodes, the grid the solve iterates
    on, so `assemble` and `jacobian` return exactly the truncated
    residual and its 4 x 4 Jacobian), at first-mode amplitude CURVATURE_AMPLITUDE along
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


def _updated(coeffs: VortexContourCoeffs, correction: np.ndarray) -> VortexContourCoeffs:
    """coeffs after the update x - J^-1 F, given the correction J^-1 F."""
    x = coeffs.as_vector() - correction
    return VortexContourCoeffs.from_vector(x, coeffs.b, coeffs.fold, coeffs.modes)


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
        it holds one, and leave there the reusable inverse of a converged
        nontrivial state, None after any other outcome or a raise other
        than ValueError.  Without it every step forms a fresh Jacobian.

    Returns
    -------
    SolveReport
        converged=False when max_iter runs out or when a warm solve
        (module docstring) stops after a fresh inverse's step that does
        not contract the Newton correction (theta >= 1); iterations
        counts the Newton updates actually applied, on both grids.

    Raises
    ------
    ValueError
        If omega is not finite, the seed does not match the solve or
        config.nodes is not an alias-free grid for fold m.
    InvalidContour
        If the starting shape (the seed or its cold start) is not valid.
    GeometryBreakdown
        If an update or the check on N leaves the space of valid shapes.
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

    if fault := _grid_fault(config.nodes, m, config.modes):
        raise ValueError(fault)

    # Iterate on N0, the smallest alias-free grid, when the requested grid
    # is at least twice as large; the last grid is always N.
    alias_free = m * (2 * config.modes + 1)
    grids = [config.nodes]
    if config.nodes >= 2 * alias_free:
        grids.insert(0, alias_free)
    inverse = None
    if chord is not None:
        inverse, chord.inverse = chord.inverse, None
    current = _cold_start(seed, omega, replace(config, nodes=grids[0]))
    warm = chord is not None and current is seed
    history: list[float] = []
    iterations = 0
    budget = config.max_iter
    polished_at = None  # iterations after the last polish tried
    while grids:
        nodes = grids[0]
        # Past the seed's own assembly (the check on N, the re-verification
        # of a normalized state) an invalid contour is a breakdown.
        try:
            residual = assemble(current, omega, nodes)
        except InvalidContour as exc:
            if not history:
                raise
            raise GeometryBreakdown(iterations, str(exc)) from exc
        history.append(residual.max_abs)
        # Norm of the last correction of a warm solve's fresh inverse,
        # the one its next (chord) step applies again.
        fresh_norm = np.inf
        while residual.max_abs >= config.tol and iterations < budget:
            fresh = inverse is None
            if fresh:
                inverse = _inverse_checked(jacobian(current, omega, nodes))
            correction = inverse @ residual.as_vector()
            if warm:
                norm = float(np.linalg.norm(correction))
                if norm >= fresh_norm:
                    # theta >= 1: the fresh inverse's step did not
                    # contract the correction; stop as if out of steps.
                    budget = iterations
                    break
                fresh_norm = norm if fresh else np.inf
            iterations += 1
            current = _updated(current, correction)
            try:
                residual = assemble(current, omega, nodes)
            except InvalidContour as exc:
                raise GeometryBreakdown(iterations, str(exc)) from exc
            if chord is None or (
                not fresh and residual.max_abs * CHORD_CONTRACTION > history[-1]
            ):
                inverse = None
            history.append(residual.max_abs)
        converged = residual.max_abs < config.tol
        if (
            converged
            and inverse is not None
            and iterations < config.max_iter
            and polished_at != iterations
        ):
            # Polish: chord steps converge linearly and stop just under
            # tol, where a full Newton step lands far below it.  Tried
            # once per run of steps (on the first grid even with none),
            # so a state that passes on N without a step keeps N0's.
            polished = _updated(current, inverse @ residual.as_vector())
            try:
                polished_residual = assemble(polished, omega, nodes)
            except InvalidContour:
                polished_residual = residual
            if polished_residual.max_abs < residual.max_abs:
                current, residual = polished, polished_residual
                iterations += 1
                history.append(residual.max_abs)
            polished_at = iterations
        trivial = float(np.max(np.abs(current.as_vector()))) < TRIVIAL_AMPLITUDE
        normalized = normalize_signs(current) if converged and not trivial else current
        if normalized is current:
            del grids[0]
        else:
            # Another pass on this grid re-verifies the normalized
            # representative; the inverse belongs to the other one.
            current, inverse = normalized, None
    if chord is not None and converged and not trivial:
        chord.inverse = inverse
    return SolveReport(
        coeffs=current,
        iterations=iterations,
        residual_max=residual.max_abs,
        converged=converged,
        trivial=converged and trivial,
        residual_history=history,
    )
