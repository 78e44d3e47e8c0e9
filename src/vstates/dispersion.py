"""Linear theory of the rotating annulus: dispersion relation and
bifurcation eigenvalues.

The annular patch ``b < |z| < 1`` rotates rigidly at any angular
velocity.  Curves of nontrivial m-fold symmetric doubly connected
rotating patches branch off the annulus at special angular velocities
where the linearized boundary equations lose injectivity.  The
linearization decouples into 2x2 blocks indexed by an integer frequency
``n``; a block is singular exactly at the zeros of its determinant

    delta_n(lam, b) = ((1 - lam) + b^2 + n (b^2 - lam)) (n (1 - lam) - lam)
                      + b^(2 n + 2),

where ``lam = 1 - 2 omega`` is the spectral parameter conjugate to the
angular velocity ``omega``.  A perturbation at frequency ``n`` produces
an (n + 1)-fold symmetric shape, so the public entry points here are
indexed by the fold count ``m`` and evaluate the block at ``n = m - 1``.

For each fold ``m >= 3`` there is a critical inner radius ``b_m``
(`critical_radius`) below which delta_{m-1} has two distinct real roots
in lambda, hence two bifurcation angular velocities
(`eigenvalues_for_fold`).  At ``b = b_m`` the pair collides and the
branch point degenerates; folds 1 and 2 have no pair at any b.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DispersionPoint",
    "FrequencyMatrix",
    "delta",
    "feasibility",
    "critical_radius",
    "eigenvalues_for_fold",
    "nearer_eigenvalue",
    "frequency_matrix",
    "kernel_vector",
    "double_eigenvalue_locus",
    "double_eigenvalue_radius",
]


def _check_inner_radius(b: float) -> None:
    if not 0.0 < b < 1.0:
        raise ValueError(f"inner radius must lie in (0, 1), got {b}")


def _block(n: int, lam: float, b: float) -> tuple[float, float]:
    """Diagonal terms (outer, inner) of the frequency-n block, for n >= 0
    and 0 < b < 1: delta_n = outer inner + b^(2n+2)."""
    if n < 0:
        raise ValueError(f"frequency must be non-negative, got {n}")
    _check_inner_radius(b)
    b2 = b * b
    return (1.0 - lam) + b2 + n * (b2 - lam), n * (1.0 - lam) - lam


def delta(n: int, lam: float, b: float) -> float:
    """Determinant of the frequency-n block of the linearized equations.

    Parameters
    ----------
    n : int
        Frequency of the block, n >= 0.
    lam : float
        Spectral parameter, lam = 1 - 2 omega.
    b : float
        Inner radius of the annulus, 0 < b < 1.

    Returns
    -------
    float
        delta_n(lam, b); zeros in lam mark bifurcation points.
    """
    outer, inner = _block(n, lam, b)
    return outer * inner + b ** (2 * n + 2)


def feasibility(m: int, b: float) -> float:
    """Sign certificate for the existence of a fold-m eigenvalue pair.

    Evaluates ``f_m(b) = 1 + b^m - m (1 - b^2) / 2``.  The discriminant
    of the fold-m quadratic factors as a positive quantity times
    ``-f_m(b)``, so two distinct real bifurcation angular velocities
    exist exactly when the returned value is negative.  ``f_m`` is
    strictly increasing in b, which makes its unique sign change the
    critical radius b_m.
    """
    if m < 1:
        raise ValueError(f"fold must be a positive integer, got {m}")
    return 1.0 + b**m - 0.5 * m * (1.0 - b * b)


def critical_radius(m: int) -> float:
    """Largest inner radius admitting a fold-m eigenvalue pair.

    The unique root of `feasibility` in (0, 1), by bisection: the
    bracket keeps f_m <= 0 at its lower end and f_m > 0 at its upper
    end until the two are adjacent doubles, and the end with the smaller
    |f_m| is returned, so an exact zero comes back as is (b_3 = 1/2).
    Requires m >= 3: folds 1 and 2 have f_m >= 0 on the whole interval
    and never bifurcate.
    """
    if m < 3:
        raise ValueError(f"fold must be >= 3, got {m}")
    lo, hi = 0.0, 1.0
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        if feasibility(m, mid) <= 0.0:
            lo = mid
        else:
            hi = mid
    return min(lo, hi, key=lambda b: abs(feasibility(m, b)))


@dataclass(frozen=True)
class DispersionPoint:
    """Eigenvalue pair of the fold-m dispersion relation at one (m, b).

    lambda_minus pairs with omega_plus and lambda_plus with omega_minus
    through lam = 1 - 2 omega.  A point exists only where f_m(b) < 0,
    where both eigenvalues are simple and cross transversally, so
    `feasible` and `transversal` hold for every point.
    """

    fold: int
    inner_radius: float
    lambda_minus: float
    lambda_plus: float
    omega_minus: float
    omega_plus: float

    feasible = True
    transversal = True


def eigenvalues_for_fold(m: int, b: float) -> DispersionPoint | None:
    """Both bifurcation angular velocities of fold m at inner radius b.

    Solves delta_{m-1}(lam, b) = 0 in closed form:

        omega_m^{+/-}(b) = (1 - b^2) / 4
                           +/- sqrt((m (1 - b^2) / 2 - 1)^2 - b^(2 m)) / (2 m)

    The discriminant is evaluated in the factored form (g - h)(g + h),
    g = m (1 - b^2) / 2 - 1, h = b^m, to avoid the cancellation the
    squared form suffers near the critical radius.

    Returns None exactly when f_m(b) >= 0 (`feasibility`): for folds 1
    and 2 at every b, and for m >= 3 at b >= b_m.
    """
    _check_inner_radius(b)
    if feasibility(m, b) >= 0.0:
        return None
    g = 0.5 * m * (1.0 - b * b) - 1.0
    h = b**m
    # f < 0 forces g > h > 0, so both factors are positive.
    radius = math.sqrt((g - h) * (g + h)) / (2.0 * m)
    center = 0.25 * (1.0 - b * b)
    omega_minus = center - radius
    omega_plus = center + radius
    return DispersionPoint(
        fold=m,
        inner_radius=b,
        lambda_minus=1.0 - 2.0 * omega_plus,
        lambda_plus=1.0 - 2.0 * omega_minus,
        omega_minus=omega_minus,
        omega_plus=omega_plus,
    )


def nearer_eigenvalue(m: int, b: float, omega: float) -> float | None:
    """The bifurcation angular velocity of fold m at radius b nearer omega.

    omega_minus on a tie; None when `eigenvalues_for_fold` finds no pair.
    """
    point = eigenvalues_for_fold(m, b)
    if point is None:
        return None
    if abs(omega - point.omega_minus) <= abs(omega - point.omega_plus):
        return point.omega_minus
    return point.omega_plus


@dataclass(frozen=True)
class FrequencyMatrix:
    """2x2 block of the linearized boundary equations at frequency n."""

    n: int
    lam: float
    b: float
    entries: np.ndarray


def frequency_matrix(n: int, lam: float, b: float) -> FrequencyMatrix:
    """Assemble the frequency-n block.

    Its determinant equals b * delta_n(lam, b), so the block drops rank
    exactly at the dispersion roots; the null direction there is
    `kernel_vector`.
    """
    outer, inner = _block(n, lam, b)
    entries = np.array([[outer, -(b ** (n + 2))], [b ** (n + 1), b * inner]])
    return FrequencyMatrix(n=n, lam=lam, b=b, entries=entries)


def kernel_vector(n: int, lam: float, b: float) -> tuple[float, float]:
    """Null direction (outer, inner amplitude) of the frequency-n block.

    Annihilated by `frequency_matrix` whenever delta_n(lam, b) = 0; away
    from roots it is merely the canonical candidate direction.  The pair
    is in the units of the first-mode coefficients (a_{1,1}, a_{2,1}) of
    `VortexContourCoeffs` at fold n + 1: displacing the annulus along it
    leaves a residual of second order.  For the branch at omega_m^- pass
    ``lam = lambda_plus``, for omega_m^+ ``lam = lambda_minus``
    (lam = 1 - 2 omega).
    """
    return (_block(n, lam, b)[1], -(b**n))


def double_eigenvalue_locus(n: int, b: float) -> float:
    """Defect function whose root marks a double eigenvalue at frequency n.

    phi_n(b) = (1 - b^2) n - (1 + b^2) - 2 b^(n + 1) = -2 f_{n+1}(b)
    (`feasibility`), so for n >= 2 its one root in (0, 1) is the inner
    radius at which the two frequency-n eigenvalues collide.
    """
    if n < 2:
        raise ValueError(f"frequency must be >= 2, got {n}")
    return -2.0 * feasibility(n + 1, b)


def double_eigenvalue_radius(n: int) -> float:
    """Unique root of `double_eigenvalue_locus` in (0, 1): b_{n+1}."""
    if n < 2:
        raise ValueError(f"frequency must be >= 2, got {n}")
    return critical_radius(n + 1)
