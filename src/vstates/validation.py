"""Self-contained consistency suites behind ``vstates validate``.

Each suite re-derives a quantity the solver depends on from an
independent direction and reports the achieved margin against a fixed
threshold:

* ``annulus``     -- quadrature against the closed-form induced terms of
                     the exact annulus.
* ``jacobian``    -- rank loss of the Newton Jacobian at the predicted
                     bifurcation eigenvalues, full rank between them.
* ``convergence`` -- grid-doubling agreement of the pointwise residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .contour import VortexContourCoeffs, perturbed_annulus, sample
from .dispersion import eigenvalues_for_fold
from .kernels import kernel_integral
from .residual import jacobian, vstate_residual_pointwise

__all__ = ["CheckResult", "SUITES", "run_suite"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    value: float
    threshold: float
    passed: bool
    # comparisons are "below" for error bounds, "above" for rank checks
    comparison: str = "below"


def _check(name: str, value: float, threshold: float, comparison: str = "below"):
    passed = value < threshold if comparison == "below" else value > threshold
    return CheckResult(
        name=name,
        value=float(value),
        threshold=threshold,
        passed=passed,
        comparison=comparison,
    )


def _suite_annulus(b: float, m: int, nodes: int) -> list[CheckResult]:
    # The exact annulus induces (b^2 - 1)/z on the outer circle and
    # exactly cancels on the inner one; fold 1 keeps any node count legal.
    sc = sample(VortexContourCoeffs.annulus(b, 1, 1), nodes)
    on_outer = kernel_integral(sc.z1, sc.outer, "on_curve") - kernel_integral(
        sc.z1, sc.inner, "off_curve"
    )
    on_inner = kernel_integral(sc.z2, sc.outer, "off_curve") - kernel_integral(
        sc.z2, sc.inner, "on_curve"
    )
    err_outer = float(np.max(np.abs(on_outer - (b * b - 1.0) / sc.z1)))
    err_inner = float(np.max(np.abs(on_inner)))
    return [
        _check(f"outer induced term vs (b^2-1)/z at N={nodes}", err_outer, 1e-12),
        _check(f"inner induced term vs 0 at N={nodes}", err_inner, 1e-12),
    ]


def _suite_jacobian(b: float, m: int, nodes: int) -> list[CheckResult]:
    point = eigenvalues_for_fold(m, b)
    if not point.feasible:
        return [
            _check(
                f"feasibility f_{m}({b}) must be negative",
                point.feasibility,
                0.0,
            )
        ]
    annulus = VortexContourCoeffs.annulus(b, m, 15)

    def smallest_sv(omega: float) -> float:
        return float(np.linalg.svd(jacobian(annulus, omega, nodes), compute_uv=False)[-1])

    midpoint = 0.5 * (point.omega_minus + point.omega_plus)
    return [
        _check("rank loss at omega_minus", smallest_sv(point.omega_minus), 1e-4),
        _check("rank loss at omega_plus", smallest_sv(point.omega_plus), 1e-4),
        _check(
            "full rank midway between eigenvalues",
            smallest_sv(midpoint),
            1e-2,
            comparison="above",
        ),
    ]


def _suite_convergence(b: float, m: int, nodes: int) -> list[CheckResult]:
    amplitude = min(0.2 * (1.0 - b), 0.5 * b)
    coeffs = perturbed_annulus(b, m, 1, a1_1=amplitude, a2_1=-amplitude)
    omega = 0.1
    coarse = sample(coeffs, nodes)
    fine = sample(coeffs, 2 * nodes)
    r1c, r2c = vstate_residual_pointwise(coarse, omega)
    r1f, r2f = vstate_residual_pointwise(fine, omega)
    err = max(
        float(np.max(np.abs(r1c - r1f[::2]))),
        float(np.max(np.abs(r2c - r2f[::2]))),
    )
    return [
        _check(
            f"pointwise residual agreement between N={nodes} and N={2 * nodes}",
            err,
            1e-12,
        )
    ]


SUITES = {
    "annulus": _suite_annulus,
    "jacobian": _suite_jacobian,
    "convergence": _suite_convergence,
}


def run_suite(suite: str, b: float, m: int, nodes: int) -> list[CheckResult]:
    """Run one named suite and return its check results."""
    try:
        runner = SUITES[suite]
    except KeyError:
        raise ValueError(
            f"unknown suite {suite!r}; available: {sorted(SUITES)}"
        ) from None
    return runner(b, m, nodes)
