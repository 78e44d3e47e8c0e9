"""Branch continuation in the angular velocity.

A branch of fold-m states is traced by marching omega over a uniform
grid.  Every warm solve starts from the secant predictor and runs chord
Newton (see `solver`): the inverse of the last Jacobian carries over
from one warm solve to the next.  The predictor extrapolates the last
two converged states linearly in omega.  Next to a bifurcation point
omega0, omega is even in the branch amplitude, so the amplitude grows
like the square root of omega - omega0; while the sweep moves away from
omega0 near the annulus, the predictor extrapolates linearly in that
square root instead, and joins a lone first state to the annulus.

The first grid point has no predecessor, so it is attempted from a
ladder of single-mode annulus perturbations; which mode the ladder
displaces follows the sweep direction, matching the null-direction
structure at the two eigenvalues (outer-dominant near omega_plus,
inner-dominant near omega_minus).  `newton_solve` treats
these first-mode seeds as cold starts and replaces them by the
bifurcation predictor wherever a branch reaches the grid point; there
only the sign of a ladder seed matters.

Branch ends show up as solves that stop converging, collapse to the
annulus, or break the geometry; a predicted seed that is not a valid
contour counts as such a failure.  A failed attempt drops the carried
inverse, so the next one forms a fresh Jacobian.  A failed grid point
is retried through a midpoint bridge solve, and, while the branch is
still within ladder reach of the annulus, from the cold-start ladder.
The bridge seeds from the secant too, and the grid point after it from
the secant through the previous state and the bridge state.  An
unrecoverable grid point is recorded in ``terminated_at`` and the sweep
stops.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .contour import (
    InvalidContour,
    VortexContourCoeffs,
    boundary_distance,
    perturbed_annulus,
    sample,
)
from .dispersion import eigenvalues_for_fold
from .solver import (
    ChordFactors,
    GeometryBreakdown,
    SingularJacobian,
    SolveReport,
    SolverConfig,
    newton_solve,
)

__all__ = [
    "BranchRecord",
    "Branch",
    "EmptyBranch",
    "default_seed_ladder",
    "sweep",
    "distance_profile",
    "minimum_distance",
]

# First-mode amplitudes tried at the first grid point, in order.
LADDER_AMPLITUDES = (0.02, 0.04, 0.06)

# Newton steps allowed from a warm seed, chord steps included.  While
# the branch goes on, a warm solve reaches tol in 2-10 steps, and in
# more than 7 for 7 of the 453 warm states of the four acceptance sweeps
# (m = 4 at b = 0.6 and 0.63, CHORD_CONTRACTION = 10; full Newton from
# the previous state took 2-9).  A solve that needs far more has
# wandered off the branch, and where it lands (after 34-50 full Newton
# steps near a branch end) can be a state of another family that the
# sweep would then follow.
WARM_MAX_ITER = 12


def _near_annulus(coeffs: VortexContourCoeffs) -> bool:
    """Whether a state is within cold-start ladder reach of the annulus."""
    return float(np.abs(coeffs.as_vector()).max()) <= max(LADDER_AMPLITUDES)


class EmptyBranch(RuntimeError):
    """No ladder seed produced a nontrivial state at the first grid point."""


@dataclass(frozen=True)
class BranchRecord:
    """One converged nontrivial state along a branch."""

    omega: float
    report: SolveReport
    distance: float


@dataclass
class Branch:
    """Ordered collection of states traced over an omega grid.

    origin names the eigenvalue end the sweep started from (inferred
    from the march direction); terminated_at is the first grid omega
    that failed both directly and through a bridge solve, or None when
    the sweep reached omega_end.
    """

    b: float
    m: int
    records: list[BranchRecord]
    origin: str
    terminated_at: float | None


def default_seed_ladder(
    b: float, m: int, modes: int, descending: bool
) -> list[VortexContourCoeffs]:
    """Single-mode seed shapes for a cold start near one eigenvalue."""
    if descending:
        return [
            perturbed_annulus(b, m, modes, a1_1=amp) for amp in LADDER_AMPLITUDES
        ]
    return [
        perturbed_annulus(b, m, modes, a2_1=-amp) for amp in LADDER_AMPLITUDES
    ]


def _omega_grid(start: float, end: float, step: float) -> np.ndarray:
    named = (("omega_start", start), ("omega_end", end), ("omega_step", step))
    for name, value in named:
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if step == 0.0:
        raise ValueError("omega_step must be nonzero")
    if start == end:
        return np.array([start])
    if (end - start) * step <= 0.0:
        raise ValueError(
            f"omega_step {step} does not march from {start} toward {end}"
        )
    count = int(np.floor((end - start) / step + 1e-9))
    grid = start + step * np.arange(count + 1)
    # Land exactly on the requested end; a short final step is fine.
    if abs(end - grid[-1]) > 1e-12 * max(1.0, abs(end)):
        grid = np.append(grid, end)
    else:
        grid[-1] = end
    # A step below the spacing of doubles near omega repeats grid points,
    # which no BranchFile may hold (`state_io.load_branch`).
    if np.any(np.diff(grid) * step <= 0.0):
        raise ValueError(f"omega_step {step} is too small to move omega from {start}")
    return grid


def _root_offsets(
    known: Sequence[tuple[float, VortexContourCoeffs]], omega: float
) -> tuple[float, float] | None:
    """Square-root coordinates (s of the earlier known point, s at omega)
    when the seed at omega follows the bifurcation law, else None.

    s = sqrt((w - omega0) / (omega1 - omega0)) is 0 at the eigenvalue
    omega0 nearer the last known omega1 and 1 at omega1; a lone state is
    joined to the annulus at s = 0.  The law holds while the last state
    is within ladder reach of the annulus and omega moves away from
    omega0 past omega1, with the earlier point on the same side.  Toward
    omega0 the square-root seed shrinks fast while the carried chord
    inverse goes stale, and such solves fail, so the omega secant stays.
    """
    omega1, last = known[-1]
    if last.fold < 3 or not _near_annulus(last):
        return None
    point = eigenvalues_for_fold(last.fold, last.b)
    if not point.feasible:
        return None
    if abs(omega1 - point.omega_minus) <= abs(omega1 - point.omega_plus):
        omega0 = point.omega_minus
    else:
        omega0 = point.omega_plus
    reach = omega1 - omega0
    if reach == 0.0 or (omega - omega1) * reach <= 0.0:
        return None
    before = (known[-2][0] - omega0) / reach if len(known) > 1 else 0.0
    if not 0.0 <= before < 1.0:
        return None
    return np.sqrt(before), np.sqrt((omega - omega0) / reach)


def _secant(
    known: Sequence[tuple[float, VortexContourCoeffs]], omega: float
) -> VortexContourCoeffs:
    """Warm seed at omega from the last two (omega, state) pairs.

    Next to a bifurcation point (`_root_offsets`) the seed is
    extrapolated linearly in s, the square root of the omega offset,
    which gives s times the state for a lone one.  Elsewhere it is
    extrapolated linearly in omega, or is the last state itself when
    that is the only one.
    """
    omega1, last = known[-1]
    x1 = last.as_vector()
    roots = _root_offsets(known, omega)
    if roots is not None:
        s0, s = roots
        x0 = known[-2][1].as_vector() if len(known) > 1 else 0.0
        x = x1 + (s - 1.0) / (1.0 - s0) * (x1 - x0)
    elif len(known) < 2:
        return last
    else:
        omega0, before = known[-2]
        x = x1 + (omega - omega1) / (omega1 - omega0) * (x1 - before.as_vector())
    return VortexContourCoeffs.from_vector(x, last.b, last.fold, last.modes)


def _attempt(
    b: float,
    m: int,
    omega: float,
    seed: VortexContourCoeffs,
    config: SolverConfig,
    chord: ChordFactors | None = None,
) -> SolveReport | None:
    """One guarded solve; None for any outcome that is not a usable state.

    A failed attempt drops the chord inverse, so the next one starts
    from a fresh Jacobian.
    """
    try:
        report = newton_solve(b, omega, m, seed, config, chord)
    except (GeometryBreakdown, SingularJacobian, InvalidContour):
        report = None
    if report is None or not report.converged or report.trivial:
        if chord is not None:
            chord.inverse = None
        return None
    return report


def _record(omega: float, report: SolveReport, config: SolverConfig) -> BranchRecord:
    distance = boundary_distance(sample(report.coeffs, config.nodes))
    return BranchRecord(omega=float(omega), report=report, distance=distance)


def sweep(
    b: float,
    m: int,
    omega_start: float,
    omega_end: float,
    omega_step: float,
    config: SolverConfig,
    seed_ladder: Sequence[VortexContourCoeffs] | None = None,
) -> Branch:
    """Trace a fold-m branch from omega_start toward omega_end.

    Parameters
    ----------
    b, m : float, int
        Inner radius and fold of the family.
    omega_start, omega_end, omega_step : float
        Uniform marching grid of finite values; the sign of omega_step
        must point from start to end.  Start one step away from an
        eigenvalue, not on it.
    config : SolverConfig
        Passed through to every solve; solves from a warm seed stop
        after at most WARM_MAX_ITER steps.
    seed_ladder : sequence of VortexContourCoeffs, optional
        Cold-start seeds for the first point; defaults to
        `default_seed_ladder` for the sweep direction.

    Raises
    ------
    ValueError
        When the omega grid is not finite, does not march toward
        omega_end or has a step too small to move omega.
    EmptyBranch
        When every ladder seed fails at omega_start.
    """
    grid = _omega_grid(omega_start, omega_end, omega_step)
    descending = omega_step < 0.0
    origin = "omega_plus" if descending else "omega_minus"
    if seed_ladder is None:
        seed_ladder = default_seed_ladder(b, m, config.modes, descending)

    first = None
    for seed in seed_ladder:
        first = _attempt(b, m, grid[0], seed, config)
        if first is not None:
            break
    if first is None:
        raise EmptyBranch(
            f"no ladder seed converged to a nontrivial state at "
            f"omega = {grid[0]} (b = {b}, m = {m})"
        )

    records = [_record(grid[0], first, config)]
    terminated_at = None
    warm = replace(config, max_iter=min(config.max_iter, WARM_MAX_ITER))
    chord = ChordFactors()
    for omega in grid[1:]:
        previous = records[-1]
        known = [(record.omega, record.report.coeffs) for record in records[-2:]]
        report = _attempt(b, m, omega, _secant(known, omega), warm, chord)
        if report is None:
            # Bridge through the midpoint once before terminating.
            midpoint = 0.5 * (previous.omega + omega)
            bridge = _attempt(b, m, midpoint, _secant(known, midpoint), warm, chord)
            if bridge is not None:
                known = [known[-1], (midpoint, bridge.coeffs)]
                report = _attempt(b, m, omega, _secant(known, omega), warm, chord)
        if report is None and _near_annulus(previous.report.coeffs):
            # Warm seed collapsed onto the annulus; the cold ladder
            # still works near the bifurcation points.  On a developed
            # branch a failed solve means the branch is ending, and
            # re-seeding from the annulus would risk hopping onto a
            # different family, so the rescue is limited to small
            # amplitudes.
            for seed in seed_ladder:
                report = _attempt(b, m, omega, seed, config)
                if report is not None:
                    break
        if report is None:
            terminated_at = float(omega)
            break
        records.append(_record(omega, report, config))
    return Branch(b=b, m=m, records=records, origin=origin, terminated_at=terminated_at)


def distance_profile(branch: Branch) -> list[tuple[float, float]]:
    """(omega, boundary distance) along the branch, in sweep order."""
    return [(record.omega, record.distance) for record in branch.records]


def minimum_distance(branch: Branch) -> tuple[float, float]:
    """(omega, distance) of the closest boundary approach on the branch."""
    if not branch.records:
        raise ValueError("branch has no records")
    best = min(branch.records, key=lambda record: record.distance)
    return best.omega, best.distance
