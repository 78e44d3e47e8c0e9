"""Projection of the pointwise residual onto the sine basis, and its Jacobian."""

import re
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import vstates.contour
import vstates.kernels
import vstates.residual
import vstates.solver

from vstates import (
    InvalidContour,
    SolverConfig,
    VortexContourCoeffs,
    assemble,
    eigenvalues_for_fold,
    fd_jacobian,
    jacobian,
    kernel_vector,
    load_state,
    newton_solve,
    perturbed_annulus,
    sample,
)
from vstates.residual import _sine_projection, omega_column
from oracles import (
    full_grid_assemble,
    full_source_jacobian,
    odd_extension_coefficients,
    omega_difference,
    projection_defect,
    vstate_residual_pointwise,
)
from test_contour import random_coeffs


def test_annulus_projects_to_zero(rng):
    for _ in range(8):
        b = rng.uniform(0.1, 0.9)
        omega = rng.uniform(-0.5, 0.5)
        result = assemble(perturbed_annulus(b, 4, 8), omega, 128)
        assert np.abs(result.as_vector()).max() < 1e-13
        assert result.max_abs < 1e-13


def test_fold_reduced_path_matches_full_transform(rng):
    for fold in (1, 3, 4, 12):
        coeffs = random_coeffs(rng, fold=fold, modes=6, scale=0.05)
        nodes = 48 * fold
        fast = assemble(coeffs, 0.21, nodes)
        slow = full_grid_assemble(coeffs, 0.21, nodes)
        assert np.abs(fast.b1 - slow.b1).max() < 1e-13
        assert np.abs(fast.b2 - slow.b2).max() < 1e-13
        assert abs(fast.max_abs - slow.max_abs) < 1e-13


def test_assemble_sums_over_sector_sources(monkeypatch):
    """Every kernel sum of an m = 12 assemble is (N/(2m) + 1) x (N/m) pairs,
    and `assemble` and `jacobian` sample each boundary on at most the
    sector's N/m nodes."""
    nodes, fold = 768, 12
    sector = nodes // fold
    shapes = []
    sampled = []
    kernel_sums = vstates.kernels.kernel_sums
    sample_rows = vstates.residual._sample

    def recording(targets, source_z, *args):
        shapes.append((len(targets), len(source_z)))
        return kernel_sums(targets, source_z, *args)

    def recording_sample(*args):
        boundaries = sample_rows(*args)
        sampled.extend(len(values) for b in boundaries for values in (b.z, b.dz))
        return boundaries

    monkeypatch.setattr(vstates.kernels, "kernel_sums", recording)
    monkeypatch.setattr(vstates.residual, "_sample", recording_sample)
    shape = perturbed_annulus(0.85, fold, 31, a1_1=0.06)
    assemble(shape, 0.09011, nodes)
    assert shapes == [(sector // 2 + 1, sector)] * 4  # half-sector targets
    jacobian(shape, 0.09011, nodes)
    assert len(sampled) == 8 and max(sampled) <= sector


def test_one_newton_step_samples_its_shape_once(monkeypatch):
    """`assemble`, then `jacobian` and `omega_column` on the same shape
    evaluate its sector sample once."""
    evaluated = []
    evaluate = vstates.contour._evaluate

    def counting(coeffs, nodes, copies):
        evaluated.append((nodes, copies))
        return evaluate(coeffs, nodes, copies)

    monkeypatch.setattr(vstates.contour, "_evaluate", counting)
    shape = perturbed_annulus(0.85, 12, 31, a1_1=0.06)
    assemble(shape, 0.09011, 768)
    jacobian(shape, 0.09011, 768)
    omega_column(shape, 768)
    assert evaluated == [(768, 1)]


def test_one_newton_step_forms_its_node_factors_once(monkeypatch):
    """Two assembles, a Jacobian and an Omega column on one shape form the
    node factors of each boundary once."""
    formed = []
    nodes = vstates.kernels._nodes

    def counting(z, dz, fold):
        formed.append(len(z))
        return nodes(z, dz, fold)

    monkeypatch.setattr(vstates.kernels, "_nodes", counting)
    shape = perturbed_annulus(0.85, 12, 31, a1_1=0.06)
    assemble(shape, 0.09011, 768)
    assemble(shape, 0.09, 768)
    jacobian(shape, 0.09011, 768)
    omega_column(shape, 768)
    assert formed == [768 // 12] * 2


def test_sector_sample_is_the_leading_rows_of_sample(rng):
    """Folds 1-12, N/m odd, even and a multiple of 4, few and many modes:
    the rows that `assemble` and `jacobian` sample are bit for bit those
    of the full grid, with the factors that `kernels._nodes` forms."""
    for fold in (1, 3, 4, 12):
        for count in (63, 64, 66):
            for modes in (6, 31):
                coeffs = random_coeffs(rng, fold=fold, modes=modes, scale=0.05)
                full = sample(coeffs, fold * count)
                part = vstates.residual._sample(coeffs, fold * count)
                for boundary, (z, dz) in zip(part, ((full.z1, full.dz1), (full.z2, full.dz2))):
                    assert boundary.fold == coeffs.fold
                    whole = vstates.kernels._nodes(z[:count], dz[:count], fold)
                    for name in ("z", "dz", "conj", "power", "zm", "weights"):
                        values = getattr(boundary, name)
                        assert len(values) == count
                        assert np.array_equal(values, getattr(whole, name))


def test_residual_layers_follow_the_shape_they_are_given(rng, monkeypatch):
    """Calls on another shape in between, an equal but distinct shape, and
    new shapes made where freed ones stood all give, bit for bit, what
    sampling afresh gives."""
    nodes, omega = 256, 0.1515
    shape, other = random_coeffs(rng, 0.63, 4, 31), random_coeffs(rng, 0.63, 4, 31)

    def fresh(coeffs):
        return coeffs.replace_coefficients(coeffs.a1, coeffs.a2)

    def layers(coeffs):
        return (
            assemble(coeffs, omega, nodes).as_vector(),
            assemble(other, omega, nodes).as_vector(),
            jacobian(coeffs, omega, nodes),
            omega_column(coeffs, nodes),
        )

    def fresh_sample(coeffs, nodes):
        sc = vstates.contour._evaluate(coeffs, nodes, 1)
        return tuple(
            vstates.kernels._nodes(z, dz, coeffs.fold)
            for z, dz in ((sc.z1, sc.dz1), (sc.z2, sc.dz2))
        )

    monkeypatch.setattr(vstates.residual, "_sample", fresh_sample)
    expected = [value.tobytes() for value in layers(shape)]
    monkeypatch.undo()
    for coeffs in (shape, fresh(shape)):
        assert [value.tobytes() for value in layers(coeffs)] == expected
    for _ in range(20):
        temporary = fresh(other)
        assemble(temporary, omega, nodes)
        del temporary
        coeffs = fresh(shape)
        assert jacobian(coeffs, omega, nodes).tobytes() == expected[2]
        del coeffs


def test_jacobian_keeps_no_view_of_its_work_arrays():
    """A Jacobian stays as returned when another one is formed at the same
    N/m, here N = 256 at m = 4 and N = 768 at m = 12."""
    first = jacobian(perturbed_annulus(0.63, 4, 31, a1_1=0.03), 0.152, 256)
    kept = first.copy()
    second = jacobian(perturbed_annulus(0.85, 12, 31, a1_1=0.06), 0.09011, 768)
    assert np.array_equal(first, kept) and not np.array_equal(first[:4, :4], second[:4, :4])


def test_threads_form_their_own_residuals_and_jacobians(rng):
    """Threads switching as often as they can, each on its own shapes at
    the same N/m, get bit for bit the single-threaded results."""
    nodes, omega = 256, 0.1515
    shapes = [random_coeffs(rng, 0.63, 4, 31) for _ in range(4)]

    def layers(shape):
        return (
            assemble(shape, omega, nodes).as_vector().tobytes(),
            jacobian(shape, omega, nodes).tobytes(),
        )

    expected = [layers(shape) for shape in shapes]
    mismatches = []

    def work(index):
        for _ in range(15):
            if layers(shapes[index]) != expected[index]:
                mismatches.append(index)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(index,)) for index in range(len(shapes))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_reconstruction_consistency(rng):
    """With the full sine basis, the projection loses nothing.

    The pointwise residual of a cosine-symmetric shape is odd in theta,
    so on the sector grid its entire content lives in the sine modes and
    the reported projection defect sits at rounding level.
    """
    from vstates import VortexContourCoeffs

    coeffs = random_coeffs(rng, fold=4, modes=10, scale=0.05)
    nodes = 192
    full_basis = (nodes // 4 - 1) // 2  # 23 modes, the alias-free maximum
    padded = VortexContourCoeffs(
        b=coeffs.b,
        fold=4,
        modes=full_basis,
        a1=np.concatenate([coeffs.a1, np.zeros(full_basis - 10)]),
        a2=np.concatenate([coeffs.a2, np.zeros(full_basis - 10)]),
    )
    result = assemble(padded, 0.18, nodes)
    sector = np.arange(nodes // 4) * 2 * np.pi / nodes
    k = np.arange(1, full_basis + 1)
    rebuilt1 = np.sin(4 * sector[:, None] * k[None, :]) @ result.b1
    r1, _ = vstate_residual_pointwise(sample(padded, nodes), 0.18)
    assert np.abs(rebuilt1 - r1[: nodes // 4]).max() < 1e-12
    assert projection_defect(padded, 0.18, nodes) < 1e-12


def test_half_sector_sine_matrix_matches_the_odd_extension_transform(rng):
    """Q projects half-sector values as the odd extension and the length-N/m
    transform do, for N/m even and odd, one and two modes and the
    alias-free maximum; its rows at theta = 0 and theta = pi / m are zero."""
    for fold, nodes in ((4, 256), (12, 768), (3, 123), (5, 165), (1, 65)):
        count = nodes // fold
        half = count // 2 + 1
        for modes in (1, 2, (nodes - 1) // (2 * fold)):
            sine = _sine_projection(count, modes)
            assert sine.shape == (half, modes)
            assert not sine[0].any()
            if count % 2 == 0:
                assert not sine[count // 2].any()
            values = rng.standard_normal((half, 3))
            expected = odd_extension_coefficients(values, count, modes)
            scale = np.abs(values).max()
            assert np.abs(sine.T @ values - expected).max() <= 1e-15 * scale


def test_complex_warning_fails_the_suite():
    """Assigning complex values to a float array drops their imaginary
    parts; under the suite's warning rules that is an error."""
    target = np.zeros(2)
    with pytest.raises(getattr(np, "exceptions", np).ComplexWarning):
        target[:] = np.array([1.0 + 1e-3j, 2.0])


def test_pointwise_residual_is_odd(rng):
    coeffs = random_coeffs(rng, fold=3, modes=6, scale=0.05)
    sc = sample(coeffs, 144)
    r1, r2 = vstate_residual_pointwise(sc, 0.2)
    for r in (r1, r2):
        assert abs(r[0]) < 1e-13
        assert np.abs(r[1:] + r[1:][::-1]).max() < 1e-13


def test_truncation_shows_up_as_defect(rng):
    # keeping only 2 of 6 excited modes leaves visible unprojected content
    coeffs = random_coeffs(rng, fold=4, modes=6, scale=0.05)
    truncated = perturbed_annulus(0.6, 4, 2).replace_coefficients(
        coeffs.a1[:2], coeffs.a2[:2]
    )
    wide = projection_defect(coeffs, 0.2, 192)
    narrow = projection_defect(truncated, 0.2, 192)
    assert narrow > 1e-12
    assert wide <= narrow + 1e-12


def test_parity_flip_alternates_projection_signs(rng):
    """Rotating by half a sector flips odd-k coefficients and odd-k outputs."""
    coeffs = random_coeffs(rng, fold=4, modes=6, scale=0.05)
    parity = (-1.0) ** np.arange(1, 7)
    flipped = coeffs.replace_coefficients(parity * coeffs.a1, parity * coeffs.a2)
    base = assemble(coeffs, 0.2, 192)
    other = assemble(flipped, 0.2, 192)
    assert np.abs(other.b1 - parity * base.b1).max() < 1e-13
    assert np.abs(other.b2 - parity * base.b2).max() < 1e-13
    assert abs(other.max_abs - base.max_abs) < 1e-13


def test_jacobian_is_block_diagonal_at_annulus():
    config = SolverConfig(modes=5, nodes=64)
    jac = fd_jacobian(perturbed_annulus(0.5, 4, 5), 0.28, config)
    blocks = np.zeros_like(jac, dtype=bool)
    for k in range(5):
        rows = [k, k + 5]
        blocks[np.ix_(rows, rows)] = True
    assert np.abs(jac[~blocks]).max() < 1e-6


def test_jacobian_blocks_singular_exactly_at_eigenvalues():
    """The exact Jacobian and its finite-difference oracle both lose rank
    at the two eigenvalues and keep full rank midway."""
    point = eigenvalues_for_fold(4, 0.63)
    config = SolverConfig(modes=15, nodes=512)
    annulus = perturbed_annulus(0.63, 4, 15)
    midway = 0.5 * (point.omega_minus + point.omega_plus)
    linearizations = {
        "fd_jacobian": lambda omega: fd_jacobian(annulus, omega, config),
        "jacobian": lambda omega: jacobian(annulus, omega, config.nodes),
    }
    for name, linearize in linearizations.items():

        def smallest_singular(omega):
            return np.linalg.svd(linearize(omega), compute_uv=False).min()

        assert smallest_singular(point.omega_minus) < 1e-4, name
        assert smallest_singular(point.omega_plus) < 1e-4, name
        assert smallest_singular(midway) > 1e-2, name


def _assert_matches_fd(coeffs, omega, nodes):
    exact = jacobian(coeffs, omega, nodes)
    approx = fd_jacobian(coeffs, omega, SolverConfig(modes=coeffs.modes, nodes=nodes))
    scale = np.abs(exact).max()
    assert np.abs(exact - approx).max() < 1e-6 * scale


def test_exact_jacobian_matches_finite_differences_full_grid(rng):
    # fold 1: the targets are all N nodes, as in the full-grid projection
    _assert_matches_fd(random_coeffs(rng, b=0.5, fold=1, modes=6, scale=0.05), 0.2, 64)


BRANCH_END_SEED = (
    Path(__file__).resolve().parents[1] / "perfbench" / "branch_end_seed.json"
)


@pytest.fixture(scope="module")
def fold_12_state():
    """Converged 12-fold state at b = 0.85, omega = 0.04852, N = 768."""
    config = SolverConfig(modes=31, nodes=768, max_iter=12)
    seed = perturbed_annulus(0.85, 12, 31, a1_1=0.06)
    report = newton_solve(0.85, 0.04852, 12, seed, config)
    assert report.converged and not report.trivial
    return report.coeffs


def test_exact_jacobian_matches_finite_differences_at_branch_end():
    state = load_state(BRANCH_END_SEED)
    assert (state.m, state.nodes, state.modes) == (4, 512, 63)
    _assert_matches_fd(state.coefficients(), state.omega, state.nodes)


def test_exact_jacobian_matches_finite_differences_fold_12(fold_12_state):
    _assert_matches_fd(fold_12_state, 0.04852, 768)


def test_fold_reduced_jacobian_matches_full_source(rng, fold_12_state):
    """Summing the m copies of each sector source in closed form changes nothing.

    Folds 1 and 2 reach zeta^(m-2) = 1 / zeta and 1, which no
    acceptance sweep does.  One and two modes on the grids of the
    reference solve and the m = 12 solves are the shapes whose
    Jacobian the cold-start curvature solve forms.
    """
    cases = [
        (random_coeffs(rng, fold=fold, modes=6, scale=0.05), 0.21, 48 * fold)
        for fold in (1, 2, 3, 4, 12)
    ]
    cases += [
        (random_coeffs(rng, fold=fold, modes=modes, scale=0.05), 0.21, 64 * fold)
        for fold in (4, 12)
        for modes in (1, 2)
    ]
    state = load_state(BRANCH_END_SEED)
    cases.append((state.coefficients(), state.omega, state.nodes))
    cases.append((fold_12_state, 0.04852, 768))
    for coeffs, omega, nodes in cases:
        reduced = jacobian(coeffs, omega, nodes)
        full = full_source_jacobian(coeffs, omega, nodes)
        assert np.abs(reduced - full).max() < 1e-12 * np.abs(full).max()


def test_half_sector_with_odd_sector_count(rng):
    """With N/m odd no node sits at theta = pi / m; the odd extension still holds."""
    for fold, nodes in ((1, 65), (3, 123), (5, 165)):
        coeffs = random_coeffs(rng, fold=fold, modes=6, scale=0.05)
        fast = assemble(coeffs, 0.21, nodes)
        slow = full_grid_assemble(coeffs, 0.21, nodes)
        assert np.abs(fast.as_vector() - slow.as_vector()).max() < 1e-13
        assert abs(fast.max_abs - slow.max_abs) < 1e-13
        reduced = jacobian(coeffs, 0.21, nodes)
        full = full_source_jacobian(coeffs, 0.21, nodes)
        assert np.abs(reduced - full).max() < 1e-12 * np.abs(full).max()


def test_newton_uses_the_exact_jacobian(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("newton_solve must not build a finite-difference Jacobian")

    monkeypatch.setattr(vstates.solver, "fd_jacobian", refuse)
    config = SolverConfig(modes=31, nodes=256)
    seed = perturbed_annulus(0.63, 4, 31, a1_1=0.06)
    report = newton_solve(0.63, 0.152, 4, seed, config)
    assert report.converged and not report.trivial and report.iterations > 0


def test_kernel_direction_is_annihilated():
    """A perturbation along the predicted null direction responds o(eps)."""
    point = eigenvalues_for_fold(4, 0.63)
    v1, v2 = kernel_vector(3, point.lambda_plus, 0.63)
    eps = 1e-6
    along = perturbed_annulus(0.63, 4, 15, a1_1=eps, a2_1=eps * v2 / v1)
    across = perturbed_annulus(0.63, 4, 15, a1_1=eps)
    r_along = np.abs(assemble(along, point.omega_minus, 512).as_vector()).max()
    r_across = np.abs(assemble(across, point.omega_minus, 512).as_vector()).max()
    assert r_along < 1e-9
    assert r_along < 1e-3 * r_across


def test_geometry_errors_propagate():
    bad = perturbed_annulus(0.1, 4, 1, a2_1=-0.2)
    with pytest.raises(InvalidContour):
        assemble(bad, 0.1, 128)


def test_geometry_errors_name_an_angle_in_the_sector():
    """`assemble` samples one sector, so it names an angle in [0, 2 pi / m),
    though the most negative inner radius of this 4-fold shape recurs in
    every sector."""
    a2 = np.array([-0.2, 0.0, 0.05])
    bad = VortexContourCoeffs(b=0.1, fold=4, modes=3, a1=np.zeros(3), a2=a2)
    with pytest.raises(InvalidContour, match=r"^inner radius .* = -7\.677670e-02$") as caught:
        assemble(bad, 0.1, 32)
    angle = float(re.search(r"\(([0-9.]+)\)", str(caught.value)).group(1))
    assert 0.0 <= angle < 2.0 * np.pi / 4


def test_omega_column_matches_the_assemble_difference(rng, fold_12_state):
    """The Omega derivative from the shape is the difference of two
    assembles one unit of Omega apart, at folds 1-12 with N/m odd and even."""
    cases = [
        (random_coeffs(rng, fold=fold, modes=modes, scale=0.05), nodes)
        for fold, nodes in ((1, 65), (3, 123), (4, 192), (4, 196), (12, 576))
        for modes in (2, 6)
    ]
    cases.append((fold_12_state, 768))
    for coeffs, nodes in cases:
        column = omega_column(coeffs, nodes)
        assert column.shape == (2 * coeffs.modes,)
        assert np.abs(column - omega_difference(coeffs, 0.21, nodes)).max() < 1e-15
