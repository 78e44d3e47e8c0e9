"""Dispersion relation: eigenvalues, critical radii, frequency blocks."""

import math

import mpmath
import numpy as np
import pytest
from scipy.optimize import brentq

from vstates import (
    critical_radius,
    delta,
    double_eigenvalue_locus,
    double_eigenvalue_radius,
    eigenvalues_for_fold,
    feasibility,
    frequency_matrix,
    kernel_vector,
)
from vstates.dispersion import nearer_eigenvalue


def quadratic_roots(n, b):
    """Roots of the frequency-n determinant via numpy, for cross-checking.

    Expanding the determinant in lam gives
    (p - q*lam)(n - q*lam) + b^(2n+2) with p = 1 + b^2 + n*b^2, q = n + 1.
    """
    p = 1.0 + b * b + n * b * b
    q = n + 1.0
    return np.sort(np.roots([q * q, -q * (p + n), p * n + b ** (2 * n + 2)]))


def test_roots_satisfy_determinant():
    rng = np.random.default_rng(11)
    for _ in range(50):
        m = int(rng.integers(3, 30))
        b = rng.uniform(0.02, 0.98) * critical_radius(m)
        point = eigenvalues_for_fold(m, b)
        assert point.feasible
        n = m - 1
        scale = max(1.0, n * n)
        assert abs(delta(n, point.lambda_minus, b)) <= 1e-11 * scale
        assert abs(delta(n, point.lambda_plus, b)) <= 1e-11 * scale
        expected = quadratic_roots(n, b)
        got = np.sort([point.lambda_minus, point.lambda_plus])
        assert np.allclose(got, expected.real, rtol=1e-10, atol=1e-12)


def test_pair_center():
    # omega_minus + omega_plus = (1 - b^2) / 2 independent of m
    rng = np.random.default_rng(12)
    for _ in range(30):
        m = int(rng.integers(3, 40))
        b = rng.uniform(0.05, 0.95) * critical_radius(m)
        point = eigenvalues_for_fold(m, b)
        assert point.omega_minus < point.omega_plus
        assert abs(point.omega_minus + point.omega_plus - (1 - b * b) / 2) < 1e-14


def test_thin_annulus_limits():
    for m in (4, 7, 12):
        point = eigenvalues_for_fold(m, 1e-8)
        assert abs(point.omega_minus - 1.0 / (2 * m)) < 1e-10
        assert abs(point.omega_plus - (m - 1.0) / (2 * m)) < 1e-10


def test_near_critical_radius_no_cancellation():
    """Factored discriminant keeps digits when b is close to b_m."""
    for m in (4, 9):
        bm = critical_radius(m)
        b = bm - 1e-9
        point = eigenvalues_for_fold(m, b)
        assert point.feasible
        gap = point.omega_plus - point.omega_minus
        assert 0 < gap < 1e-2

        mpmath.mp.dps = 50
        bb = mpmath.mpf(b)
        g = m * (1 - bb * bb) / 2 - 1
        h = bb ** m
        exact_gap = mpmath.sqrt((g - h) * (g + h)) / m
        # naive evaluation loses ~9 digits here to cancellation
        assert abs(gap - float(exact_gap)) < 1e-12


def test_critical_radius_reference_values():
    assert abs(critical_radius(3) - 0.5) < 1e-12
    assert critical_radius(3) == 0.5  # f_3(1/2) = 0 exactly in doubles
    assert abs(critical_radius(4) - math.sqrt(math.sqrt(2.0) - 1.0)) < 1e-12
    radii = [critical_radius(m) for m in range(3, 101)]
    assert all(lo < hi for lo, hi in zip(radii, radii[1:]))
    assert all(0 < r < 1 for r in radii)
    assert radii[-1] > 0.98  # creeps toward 1 slowly: b_100 = 0.9872


def test_critical_radius_is_feasibility_root():
    for m in range(3, 101):
        bm = critical_radius(m)
        assert abs(feasibility(m, bm)) < 1e-12
        assert feasibility(m, bm - 1e-6) < 0
        assert feasibility(m, min(bm + 1e-6, 1 - 1e-12)) > 0
        oracle = brentq(lambda b: feasibility(m, b), 1e-12, 1 - 1e-12, xtol=1e-15)
        assert abs(bm - oracle) < 1e-13
        # within 4 ulps of the sign change of f_m in doubles
        below, above = bm, bm
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, 1.0)
        assert feasibility(m, below) < 0 < feasibility(m, above), m


def test_low_folds_never_bifurcate():
    for b in (0.05, 0.3, 0.6, 0.9):
        assert feasibility(1, b) > 0
        assert feasibility(2, b) > 0


def test_infeasible_radius_reported():
    b4 = critical_radius(4)
    assert eigenvalues_for_fold(4, b4 + 0.01) is None
    assert feasibility(4, b4 + 0.01) > 0
    # the boundary case itself is infeasible too (double root, no crossing)
    assert eigenvalues_for_fold(3, 0.5) is None


def test_no_pair_exactly_where_feasibility_is_nonnegative():
    """Folds 1 and 2 at every b, b_3 = 1/2 and just below it, radii at
    and past b_4, and folds 3 to 12 on both sides of their b_m."""
    b4 = critical_radius(4)
    cases = [(m, b) for m in (1, 2) for b in (1e-8, 0.05, 0.3, 0.5, 0.6, 0.9, 1 - 1e-9)]
    cases += [(3, 0.5), (3, 0.5 - 1e-9), (4, b4), (4, b4 + 0.01), (4, 0.99)]
    cases += [(m, b) for m in range(3, 13) for b in (0.1, 0.4, 0.63, 0.85, 0.95)]
    for m, b in cases:
        assert (eigenvalues_for_fold(m, b) is None) == (feasibility(m, b) >= 0), (m, b)


def test_nearer_eigenvalue():
    point = eigenvalues_for_fold(4, 0.63)
    center = 0.5 * (point.omega_minus + point.omega_plus)
    assert nearer_eigenvalue(4, 0.63, point.omega_minus - 0.01) == point.omega_minus
    assert nearer_eigenvalue(4, 0.63, center - 1e-6) == point.omega_minus
    assert nearer_eigenvalue(4, 0.63, center + 1e-6) == point.omega_plus
    assert nearer_eigenvalue(4, 0.63, 0.3) == point.omega_plus
    # no eigenvalue pair: fold below 3, or b at or above the critical radius
    assert nearer_eigenvalue(2, 0.63, 0.15) is None
    assert nearer_eigenvalue(4, critical_radius(4) + 0.01, 0.15) is None


def test_transversality_flag_set():
    for m, b in ((3, 0.2), (4, 0.63), (12, 0.85)):
        assert eigenvalues_for_fold(m, b).transversal


def test_determinant_factorization():
    # det of the 2x2 frequency block equals b times the scalar dispersion value
    rng = np.random.default_rng(13)
    for _ in range(60):
        n = int(rng.integers(0, 40))
        lam = rng.uniform(-2.0, 2.0)
        b = rng.uniform(0.05, 0.95)
        block = frequency_matrix(n, lam, b)
        det = np.linalg.det(np.asarray(block.entries))
        scale = max(1.0, abs(det))
        assert abs(det - b * delta(n, lam, b)) < 1e-12 * scale


def test_kernel_vector_annihilated():
    rng = np.random.default_rng(14)
    for _ in range(30):
        m = int(rng.integers(3, 25))
        b = rng.uniform(0.1, 0.95) * critical_radius(m)
        point = eigenvalues_for_fold(m, b)
        n = m - 1
        for lam in (point.lambda_minus, point.lambda_plus):
            entries = np.asarray(frequency_matrix(n, lam, b).entries)
            v = np.asarray(kernel_vector(n, lam, b))
            assert np.linalg.norm(v) > 0
            residual = entries @ v
            # second floor term: the leading component of v is a difference
            # that bottoms out at rounding noise when the coupling b^n is tiny
            tol = 1e-10 * (np.abs(entries) @ np.abs(v)).max() \
                + 1e-13 * np.abs(entries).max() * (n + 2)
            assert np.abs(residual).max() < tol


def test_kernel_vector_closed_form_n1():
    for b in (0.2, 0.5, 0.8):
        lam = (1 + b * b) / 2
        v = kernel_vector(1, lam, b)
        assert abs(v[0] + b * b) < 1e-15
        assert abs(v[1] + b) < 1e-15


def test_double_eigenvalue_radius_matches_shifted_critical():
    for n in range(2, 13):
        assert abs(double_eigenvalue_radius(n) - critical_radius(n + 1)) < 1e-12


def test_double_eigenvalue_locus_vanishes_at_root():
    for n in (2, 5, 9):
        b = double_eigenvalue_radius(n)
        assert abs(double_eigenvalue_locus(n, b)) < 1e-12
        # the merged eigenvalue sits at the pair center
        lam = (1 + b * b) / 2
        assert abs(delta(n, lam, b)) < 1e-11


def test_argument_validation():
    with pytest.raises(ValueError):
        delta(-1, 0.5, 0.5)
    with pytest.raises(ValueError):
        feasibility(0, 0.5)
    # feasibility itself accepts the closed interval (root bracketing needs
    # the endpoints); the eigenvalue front end does not
    with pytest.raises(ValueError):
        eigenvalues_for_fold(3, 0.0)
    with pytest.raises(ValueError):
        eigenvalues_for_fold(3, 1.0)
    with pytest.raises(ValueError):
        critical_radius(2)
    # folds 1 and 2 are valid and have no pair; fold 0 and below are not folds
    assert eigenvalues_for_fold(2, 0.4) is None
    for m in (0, -1):
        with pytest.raises(ValueError):
            eigenvalues_for_fold(m, 0.4)
    with pytest.raises(ValueError):
        frequency_matrix(-1, 0.5, 0.5)
    with pytest.raises(ValueError):
        kernel_vector(-1, 0.5, 0.5)
    with pytest.raises(ValueError):
        double_eigenvalue_locus(1, 0.5)
    with pytest.raises(ValueError):
        double_eigenvalue_radius(1)
