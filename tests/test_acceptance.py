"""End-to-end acceptance checks, one test per shipped guarantee.

Each test states its tolerance inline.  Branch replication runs twice:
the coarse sweep (35 states) and the full-resolution one (333 states).
"""

import math

import numpy as np

from vstates import (
    SolverConfig,
    StateFile,
    assemble,
    boundary_distance,
    critical_radius,
    default_modes,
    delta,
    eigenvalues_for_fold,
    fd_jacobian,
    frequency_matrix,
    load_state,
    newton_solve,
    perturbed_annulus,
    sample,
    save_state,
    sweep,
)
from vstates.solver import normalize_signs

from oracles import full_grid_assemble, kernel_integral


def test_criterion_1_eigenvalue_table():
    # reference values are digit prefixes, not roundings: the pair at
    # b = 0.2 is (0.12500017, 0.35499983) and the second entry's prefix
    # is 0.3549 even though it rounds to 0.3550
    table = {
        0.63: (1341, 1674),
        0.6: (1289, 1910),
        0.4: (1250, 2949),
        0.2: (1250, 3549),
    }
    for b, (lo, hi) in table.items():
        point = eigenvalues_for_fold(4, b)
        assert point.feasible
        assert math.floor(point.omega_minus * 1e4) == lo
        assert math.floor(point.omega_plus * 1e4) == hi


def test_criterion_2_critical_radii():
    assert abs(critical_radius(3) - 0.5) < 1e-12
    assert abs(critical_radius(4) - math.sqrt(math.sqrt(2.0) - 1.0)) < 1e-9
    radii = [critical_radius(m) for m in range(3, 101)]
    assert all(lo < hi for lo, hi in zip(radii, radii[1:]))


def test_criterion_3_annulus_quadrature_closed_forms():
    for b in (0.2, 0.5, 0.85):
        sc = sample(perturbed_annulus(b, 1, 1), 256)
        outer_self = kernel_integral(sc.z1, (sc.z1, sc.dz1), diagonal="on_curve")
        inner_self = kernel_integral(sc.z2, (sc.z2, sc.dz2), diagonal="on_curve")
        cross_down = kernel_integral(sc.z1, (sc.z2, sc.dz2), diagonal="off_curve")
        cross_up = kernel_integral(sc.z2, (sc.z1, sc.dz1), diagonal="off_curve")
        outer_field = outer_self - cross_down
        inner_field = cross_up - inner_self
        assert np.abs(outer_field - (b * b - 1.0) / sc.z1).max() < 1e-12
        assert np.abs(inner_field).max() < 1e-12


def test_criterion_4_trivial_root():
    rng = np.random.default_rng(814)
    for _ in range(20):
        b = float(rng.uniform(0.15, 0.9))
        omega = float(rng.uniform(0.02, 0.45))
        residual = assemble(perturbed_annulus(b, 4, 10), omega, 128)
        assert np.abs(residual.as_vector()).max() <= 1e-13
        assert residual.max_abs <= 1e-13


def test_criterion_5_jacobian_singular_at_eigenvalues():
    config = SolverConfig(modes=15, nodes=512)
    annulus = perturbed_annulus(0.63, 4, 15)
    point = eigenvalues_for_fold(4, 0.63)
    for omega in (point.omega_minus, point.omega_plus):
        jac = fd_jacobian(annulus, omega, config)
        assert np.linalg.svd(jac, compute_uv=False).min() < 1e-4
    midway = 0.5 * (point.omega_minus + point.omega_plus)
    jac = fd_jacobian(annulus, midway, config)
    assert np.linalg.svd(jac, compute_uv=False).min() > 1e-2


def _cold_start(omega, a1_1, a2_1, max_iter):
    modes = default_modes(12, 768)
    config = SolverConfig(modes=modes, nodes=768, max_iter=max_iter)
    seed = perturbed_annulus(0.85, 12, modes, a1_1=a1_1, a2_1=a2_1)
    return newton_solve(0.85, omega, 12, seed, config)


def _describe(report):
    if report.converged and not report.trivial:
        return (f"nontrivial state in {report.iterations} iterations, "
                f"residual {report.residual_max:.1e}")
    if report.converged:
        return f"collapsed to the annulus in {report.iterations} iterations"
    return (f"no convergence in {report.iterations} iterations, "
            f"residual stuck at {report.residual_max:.1e}")


def test_criterion_6_cold_start_convergence():
    first = _cold_start(0.04852, a1_1=0.06, a2_1=0.0, max_iter=12)
    second = _cold_start(0.09011, a1_1=0.0, a2_1=-0.04, max_iter=13)
    ok_first = first.converged and not first.trivial and first.residual_max < 1e-12
    ok_second = second.converged and not second.trivial and second.residual_max < 1e-12
    assert ok_first and ok_second, (
        "cold starts with these seed pairings fail at this resolution: "
        f"outer-mode seed at omega=0.04852 gives {_describe(first)}; "
        f"inner-mode seed at omega=0.09011 gives {_describe(second)}. "
        "Swapping the two seed shapes converges quickly (companion test)."
    )


def test_criterion_6_companion_swapped_seeds_converge():
    # same two omegas, each with the other pairing's seed shape
    first = _cold_start(0.04852, a1_1=0.0, a2_1=-0.04, max_iter=12)
    second = _cold_start(0.09011, a1_1=0.06, a2_1=0.0, max_iter=13)
    for report, cap in ((first, 12), (second, 13)):
        assert report.converged and not report.trivial
        assert report.residual_max < 1e-12
        assert report.iterations <= cap


def _check_branch_distances(branch):
    assert branch.terminated_at is None
    distances = np.array([record.distance for record in branch.records])
    omegas = np.array([record.omega for record in branch.records])
    assert abs(distances[0] - 0.3642) <= 5e-4
    assert abs(distances[-1] - 0.3660) <= 5e-4
    closest = int(np.argmin(distances))
    assert abs(distances[closest] - 0.2530) <= 1e-3
    assert abs(omegas[closest] - 0.1564) <= 5e-4


def test_criterion_7_branch_replication_coarse():
    config = SolverConfig(modes=31, nodes=512)
    branch = sweep(0.63, 4, 0.1342, 0.1674, 1e-3, config)
    assert len(branch.records) == 35
    _check_branch_distances(branch)


def test_criterion_7_branch_replication_full():
    config = SolverConfig(modes=31, nodes=512)
    branch = sweep(0.63, 4, 0.1342, 0.1674, 1e-4, config)
    assert len(branch.records) == 333
    _check_branch_distances(branch)


def test_criterion_8_branch_termination():
    # needs the full default truncation: with fewer modes the shapes near
    # the end of the branch are under-resolved and the sweep stops early
    config = SolverConfig(modes=default_modes(4, 512), nodes=512)
    descending = sweep(0.6, 4, 0.19050, 0.1600, -5e-4, config)
    assert descending.terminated_at is not None
    assert abs(descending.terminated_at - 0.1755) <= 0.005
    ascending = sweep(0.6, 4, 0.12950, 0.1700, 5e-4, config)
    assert ascending.terminated_at is not None
    assert abs(ascending.terminated_at - 0.158) <= 0.005


def test_criterion_9_property_suite(reference_state, tmp_path):
    coeffs = reference_state.coeffs
    nodes = 256
    sc = sample(coeffs, nodes)

    # fold symmetry: advancing one sector rotates the curve by 2*pi/m
    shift = nodes // 4
    phase = np.exp(2j * np.pi / 4)
    assert np.abs(np.roll(sc.z1, -shift) - phase * sc.z1).max() < 1e-13
    assert np.abs(np.roll(sc.z2, -shift) - phase * sc.z2).max() < 1e-13

    # reflection across the real axis maps the curve to itself
    assert np.abs(sc.z1[1:] - np.conj(sc.z1[1:][::-1])).max() < 1e-12
    assert np.abs(sc.z2[1:] - np.conj(sc.z2[1:][::-1])).max() < 1e-12

    # determinant factorization of the frequency blocks
    rng = np.random.default_rng(52)
    for _ in range(20):
        n = int(rng.integers(0, 30))
        lam = float(rng.uniform(-2.0, 2.0))
        b = float(rng.uniform(0.05, 0.95))
        det = np.linalg.det(np.asarray(frequency_matrix(n, lam, b).entries))
        scale = max(1.0, abs(det))
        assert abs(det - b * delta(n, lam, b)) < 1e-12 * scale

    # the eigenvalue pair is centered on (1 - b^2) / 2
    for m, b in ((3, 0.4), (4, 0.63), (12, 0.85)):
        point = eigenvalues_for_fold(m, b)
        assert abs(point.omega_minus + point.omega_plus - (1 - b * b) / 2) < 1e-14

    # doubling the quadrature grid leaves node values unchanged
    fine = sample(coeffs, 2 * nodes)
    coarse_sums = kernel_integral(sc.z1, (sc.z1, sc.dz1), diagonal="on_curve")
    fine_sums = kernel_integral(fine.z1, (fine.z1, fine.dz1), diagonal="on_curve")
    assert np.abs(coarse_sums - fine_sums[::2]).max() < 1e-12

    # serialization round-trip is bit exact
    state = StateFile.from_report(reference_state, 0.1520, nodes)
    path = tmp_path / "roundtrip.json"
    save_state(path, state, timestamp=False)
    loaded = load_state(path)
    assert np.array_equal(loaded.a1, state.a1)
    assert np.array_equal(loaded.a2, state.a2)
    assert loaded.omega == state.omega and loaded.b == state.b

    # independent residual assembly re-verifies the converged state
    recheck = full_grid_assemble(coeffs, 0.1520, nodes)
    assert recheck.max_abs < 1e-12

    # sign normalization is idempotent and fixes converged output
    assert normalize_signs(coeffs) is coeffs
    flipped = coeffs.replace_coefficients(
        coeffs.a1 * (-1.0) ** np.arange(1, coeffs.modes + 1),
        coeffs.a2 * (-1.0) ** np.arange(1, coeffs.modes + 1),
    )
    renormalized = normalize_signs(flipped)
    assert renormalized.a1[0] > 0
    assert normalize_signs(renormalized) is renormalized
    assert np.abs(renormalized.a1 - coeffs.a1).max() < 1e-15
