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

The first grid point has no predecessor, so it is attempted from one
single-mode annulus perturbation; which mode it displaces follows the
sweep direction, matching the null-direction structure at the two
eigenvalues (outer-dominant near omega_plus, inner-dominant near
omega_minus).  `newton_solve` treats such a first-mode seed as a cold
start and replaces it by the bifurcation predictor wherever a branch
reaches the grid point; there only the sign of the seed matters.

Branch ends show up as solves that stop converging, collapse to the
annulus, or break the geometry; a predicted seed that is not a valid
contour counts as such a failure.  A failed attempt drops the carried
inverse, so the next one forms a fresh Jacobian.  A failed grid point
is retried through a midpoint bridge solve, and, while the branch is
still within ANNULUS_REACH of the annulus, from the cold seed.
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
from .dispersion import nearer_eigenvalue
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
    "sweep",
    "distance_profile",
    "minimum_distance",
]

# First-mode amplitude of the default cold seed.  `newton_solve` keeps
# only its sign wherever a branch reaches the grid point.
COLD_SEED_AMPLITUDE = 0.02

# Largest coefficient of a state that still counts as next to the
# annulus: the square-root predictor and the cold-seed rescue apply
# only within it.
ANNULUS_REACH = 0.06

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
    """Whether a state is within ANNULUS_REACH of the annulus."""
    return float(np.abs(coeffs.as_vector()).max()) <= ANNULUS_REACH


class EmptyBranch(RuntimeError):
    """No cold seed produced a nontrivial state at the first grid point."""


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


def _origin(step: float) -> str:
    """Eigenvalue end a sweep starts from: omega_plus for a negative step."""
    return "omega_plus" if step < 0.0 else "omega_minus"


def _cold_seed(b: float, m: int, modes: int, descending: bool) -> VortexContourCoeffs:
    """Single-mode seed shape for a cold start near one eigenvalue."""
    if descending:
        return perturbed_annulus(b, m, modes, a1_1=COLD_SEED_AMPLITUDE)
    return perturbed_annulus(b, m, modes, a2_1=-COLD_SEED_AMPLITUDE)


def _omega_grid(start: float, end: float, step: float) -> np.ndarray:
    named = (("omega_start", start), ("omega_end", end), ("omega_step", step))
    for name, value in named:
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if step == 0.0:
        raise ValueError("omega_step must be nonzero")
    if start == end:
        return np.array([start])
    if (end > start) != (step > 0.0):
        raise ValueError(f"omega_step {step} does not march from {start} toward {end}")
    # A step below the spacing of doubles near omega repeats grid points, which
    # no BranchFile may hold (`state_io.load_branch`); its grid may not even fit in memory.
    if abs(step) < np.spacing(max(abs(start), abs(end))):
        raise ValueError(f"omega_step {step} is too small to move omega from {start}")
    count = int(np.floor((end - start) / step + 1e-9))
    try:
        grid = start + step * np.arange(count + 1)
    except MemoryError:
        raise ValueError(f"omega_step {step} needs {count + 1} points, too many to hold") from None
    # Land exactly on the requested end; a short final step is fine.
    if abs(end - grid[-1]) > 1e-12 * max(1.0, abs(end)):
        grid = np.append(grid, end)
    else:
        grid[-1] = end
    # Rounding and landing on the end may still repeat or reverse a point.
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
    is within ANNULUS_REACH of the annulus and omega moves away from
    omega0 past omega1, with the earlier point on the same side.  Toward
    omega0 the square-root seed shrinks fast while the carried chord
    inverse goes stale, and such solves fail, so the omega secant stays.
    """
    omega1, last = known[-1]
    if not _near_annulus(last):
        return None
    omega0 = nearer_eigenvalue(last.fold, last.b, omega1)
    if omega0 is None:
        return None
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
        Cold-start seeds for the first point, tried in order; defaults
        to one first-mode seed of COLD_SEED_AMPLITUDE for the sweep
        direction.

    Raises
    ------
    ValueError
        When the omega grid is not finite, does not march toward
        omega_end or has a step too small to move omega.
    EmptyBranch
        When every cold seed fails at omega_start.
    """
    grid = _omega_grid(omega_start, omega_end, omega_step)
    origin = _origin(omega_step)
    if seed_ladder is None:
        seed_ladder = [_cold_seed(b, m, config.modes, omega_step < 0.0)]

    first = None
    for seed in seed_ladder:
        first = _attempt(b, m, grid[0], seed, config)
        if first is not None:
            break
    if first is None:
        raise EmptyBranch(
            f"no cold seed converged to a nontrivial state at "
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
            # Warm seed collapsed onto the annulus; a cold start
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
