"""Newton iteration: convergence, failure surfaces, normalization."""

import re
from dataclasses import FrozenInstanceError, replace
from pathlib import Path

import numpy as np
import pytest

from vstates import (
    GeometryBreakdown,
    SingularJacobian,
    SolverConfig,
    assemble,
    default_modes,
    eigenvalues_for_fold,
    fd_jacobian,
    kernel_vector,
    load_state,
    newton_solve,
    perturbed_annulus,
    sweep,
)
from vstates.contour import InvalidContour, _grid_fault
from vstates.residual import jacobian
from vstates.solver import (
    MIN_PIVOT,
    ChordFactors,
    _branch_curvature,
    _cold_start,
    _inverse_checked,
    normalize_signs,
)

from conftest import REFERENCE_B, REFERENCE_CONFIG, REFERENCE_M, REFERENCE_OMEGA
from oracles import full_block_curvature, full_grid_assemble


def test_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(modes=0, nodes=64)
    with pytest.raises(ValueError, match="nodes must be positive"):
        SolverConfig(modes=4, nodes=0)
    for tol in (-1e-12, float("inf")):
        with pytest.raises(ValueError):
            SolverConfig(modes=4, nodes=64, tol=tol)
    with pytest.raises(ValueError):
        SolverConfig(modes=4, nodes=64, max_iter=0)
    for sizes in (
        dict(modes=3.5, nodes=64),
        dict(modes=True, nodes=64),
        dict(modes=31, nodes=256.0),
        dict(modes=4, nodes=64, max_iter=2.5),
        dict(modes=4, nodes=64, max_iter=True),
    ):
        with pytest.raises(ValueError, match="must be an integer"):
            SolverConfig(**sizes)
    for tol in (True, "1e-12"):
        with pytest.raises(ValueError, match="tol must be a real number"):
            SolverConfig(modes=1, nodes=3, tol=tol)
    assert SolverConfig(modes=np.int64(31), nodes=np.int64(256)).nodes == 256
    with pytest.raises(FrozenInstanceError):
        REFERENCE_CONFIG.max_iter = 12


def test_default_modes_rule():
    assert default_modes(4, 512) == 63
    assert default_modes(12, 768) == 31
    assert default_modes(1, 64) == 31
    for fold in (0, -4):
        with pytest.raises(ValueError, match="fold must be a positive integer"):
            default_modes(fold, 512)


def test_annulus_seed_returns_trivial_root():
    config = SolverConfig(modes=8, nodes=128)
    report = newton_solve(0.5, 0.2, 4, perturbed_annulus(0.5, 4, 8), config)
    assert report.trivial and report.converged
    assert report.iterations <= 1
    assert report.residual_max < 1e-13
    assert np.abs(report.coeffs.as_vector()).max() == 0.0


def test_seed_shape_must_match():
    config = SolverConfig(modes=8, nodes=128)
    wrong_b = perturbed_annulus(0.6, 4, 8, a1_1=0.01)
    with pytest.raises(ValueError):
        newton_solve(0.5, 0.2, 4, wrong_b, config)
    wrong_fold = perturbed_annulus(0.5, 3, 8, a1_1=0.01)
    with pytest.raises(ValueError):
        newton_solve(0.5, 0.2, 4, wrong_fold, config)
    wrong_modes = perturbed_annulus(0.5, 4, 6, a1_1=0.01)
    with pytest.raises(ValueError):
        newton_solve(0.5, 0.2, 4, wrong_modes, config)


def test_non_finite_omega_rejected_up_front():
    config = SolverConfig(modes=8, nodes=128)
    seed = perturbed_annulus(0.5, 4, 8, a1_1=0.01)
    for omega in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="omega must be finite"):
            newton_solve(0.5, omega, 4, seed, config)


def test_reference_solve_properties(reference_state):
    report = reference_state
    assert report.converged and not report.trivial
    assert report.residual_max < 1e-12
    assert report.iterations <= 15
    assert report.coeffs.a1[0] > 0 > report.coeffs.a2[0]
    assert len(report.residual_history) == report.iterations + 1


def test_residual_certificate(reference_state):
    """Re-assembling through the full-length transform confirms the report."""
    check = full_grid_assemble(
        reference_state.coeffs, REFERENCE_OMEGA, REFERENCE_CONFIG.nodes
    )
    assert check.max_abs < REFERENCE_CONFIG.tol
    assert abs(check.max_abs - reference_state.residual_max) < 1e-14


def test_warm_restart_is_immediate(reference_state):
    report = newton_solve(
        REFERENCE_B,
        REFERENCE_OMEGA,
        REFERENCE_M,
        reference_state.coeffs,
        REFERENCE_CONFIG,
    )
    assert report.converged
    assert report.iterations <= 2
    assert np.abs(
        report.coeffs.as_vector() - reference_state.coeffs.as_vector()
    ).max() < 1e-12


def test_final_iterations_contract_quadratically(reference_state):
    """Ratio test on the last history entries above the rounding floor."""
    history = [e for e in reference_state.residual_history if e > 1e-13]
    assert len(history) >= 3
    e0, e1, e2 = history[-3], history[-2], history[-1]
    assert e2 / e1 <= 10 * (e1 / e0) ** 2


def test_determinism(reference_state):
    seed = perturbed_annulus(REFERENCE_B, REFERENCE_M, 31, a1_1=0.06)
    again = newton_solve(
        REFERENCE_B, REFERENCE_OMEGA, REFERENCE_M, seed, REFERENCE_CONFIG
    )
    assert np.array_equal(again.coeffs.as_vector(), reference_state.coeffs.as_vector())
    assert again.residual_history == reference_state.residual_history
    assert again.iterations == reference_state.iterations


@pytest.mark.parametrize("nodes", [256, 512], ids=["N=256", "N=512"])
def test_parity_flipped_seed_reaches_same_representative(nodes):
    """The a1_1 < 0 seed converges to the other representative, which is
    flipped and re-assembled on the grid it converged on; at N = 512
    that is N0 = 252, and the flipped state is then checked on N."""
    config = replace(REFERENCE_CONFIG, nodes=nodes)
    positive, report = (
        newton_solve(
            REFERENCE_B,
            REFERENCE_OMEGA,
            REFERENCE_M,
            perturbed_annulus(REFERENCE_B, REFERENCE_M, 31, a1_1=a1_1),
            config,
        )
        for a1_1 in (0.06, -0.06)
    )
    assert report.converged and report.coeffs.a1[0] > 0
    assert report.iterations == positive.iterations
    assert np.abs(
        report.coeffs.as_vector() - positive.coeffs.as_vector()
    ).max() < 1e-12
    assert report.residual_max == assemble(report.coeffs, REFERENCE_OMEGA, nodes).max_abs
    assert len(report.residual_history) == report.iterations + 2 + (nodes == 512)


def test_cold_start_predicts_the_branch_amplitude():
    """Close to omega_minus the predictor s e, s^2 = (omega - omega_minus) / c,
    matches the first-mode pair of the converged state up to O(s^2)."""
    config = SolverConfig(modes=15, nodes=128)
    point = eigenvalues_for_fold(4, 0.63)
    omega = point.omega_minus + 2e-4
    seed = perturbed_annulus(0.63, 4, 15, a1_1=0.06)
    predicted = _cold_start(seed, omega, config)
    report = newton_solve(0.63, omega, 4, seed, config)
    assert report.converged and not report.trivial
    guess = np.abs([predicted.a1[0], predicted.a2[0]])
    state = np.abs([report.coeffs.a1[0], report.coeffs.a2[0]])
    assert np.abs(guess - state).max() < 1e-2 * np.linalg.norm(state)
    assert report.iterations <= 3


def test_loose_tol_keeps_the_cold_start():
    """The branch curvature is internal: its solve must not stop on the
    caller's tol, which at 1e-2 the predictor itself passes (c = 0)."""
    seed = perturbed_annulus(0.63, 4, 15, a1_1=0.06)
    loose = SolverConfig(modes=15, nodes=128, tol=1e-2)
    predicted = _cold_start(seed, 0.152, loose)
    default = _cold_start(seed, 0.152, SolverConfig(modes=15, nodes=128))
    assert np.array_equal(predicted.as_vector(), default.as_vector())
    report = newton_solve(0.63, 0.152, 4, seed, loose)
    assert report.converged and not report.trivial


@pytest.mark.parametrize(
    "b, m, nodes, modes",
    [
        (0.63, 4, 256, 31),
        (0.85, 12, 768, 31),
        (0.63, 4, 512, 31),
        (0.6, 4, 512, 63),
        (0.63, 4, 128, 15),
        (0.63, 4, 256, 1),
    ],
)
def test_two_mode_curvature_matches_the_full_block(b, m, nodes, modes):
    """The curvature solve on a two-mode shape (one mode at M = 1) gives
    the curvature of the first modes of the full M-mode equations."""
    config = SolverConfig(modes=modes, nodes=nodes)
    point = eigenvalues_for_fold(m, b)
    for omega0 in (point.omega_minus, point.omega_plus):
        direction = np.array(kernel_vector(m - 1, 1.0 - 2.0 * omega0, b))
        direction /= np.linalg.norm(direction)
        curvature = _branch_curvature(b, m, omega0, direction, config)
        full = full_block_curvature(b, m, omega0, direction, config)
        assert abs(curvature - full) <= 1e-9 * abs(full)


def _record_calls(monkeypatch):
    """(function name, mode count, N) of every assemble and jacobian call
    of the solver."""
    calls = []

    def recording(function):
        def wrapper(coeffs, omega, nodes):
            calls.append((function.__name__, coeffs.modes, nodes))
            return function(coeffs, omega, nodes)

        return wrapper

    monkeypatch.setattr("vstates.solver.assemble", recording(assemble))
    monkeypatch.setattr("vstates.solver.jacobian", recording(jacobian))
    return calls


def test_cold_start_linearizes_two_modes(monkeypatch):
    """The curvature solve of a cold start never assembles or linearizes
    the solve's full M-mode shape."""
    calls = _record_calls(monkeypatch)
    seed = perturbed_annulus(0.63, 4, 31, a1_1=0.02)
    _cold_start(seed, 0.152, SolverConfig(modes=31, nodes=256))
    assert calls and max(modes for _, modes, _ in calls) <= 2


def test_cold_start_keeps_seeds_it_cannot_place():
    config = SolverConfig(modes=15, nodes=128)
    point = eigenvalues_for_fold(4, 0.63)
    cold = perturbed_annulus(0.63, 4, 15, a1_1=0.06)
    # no branch leaves the nearer eigenvalue toward these omegas
    for omega in (point.omega_minus - 0.01, point.omega_minus, point.omega_plus + 0.01):
        assert _cold_start(cold, omega, config) is cold
    a1 = cold.a1.copy()
    a1[1] = 0.01
    warm = cold.replace_coefficients(a1, cold.a2)
    assert _cold_start(warm, 0.15, config) is warm
    annulus = perturbed_annulus(0.63, 4, 15)
    assert _cold_start(annulus, 0.15, config) is annulus
    # no eigenvalue pair: b past the critical radius
    past = perturbed_annulus(0.8, 4, 15, a1_1=0.06)
    assert _cold_start(past, 0.15, config) is past


def test_polish_that_leaves_the_contours_keeps_the_converged_state(
    monkeypatch, reference_state
):
    """A chord solve that reaches tol takes one more step to polish its
    state; when that step is not a valid contour, the solve returns the
    state it had converged to."""
    omega = REFERENCE_OMEGA + 1e-3
    polished = newton_solve(
        REFERENCE_B, omega, REFERENCE_M, reference_state.coeffs, REFERENCE_CONFIG, ChordFactors()
    )
    certified = []  # (coeffs, residual) of each assemble below tol
    polish = []  # the shape of the next assemble after one: the polish step

    def failing_polish(coeffs, omega, nodes):
        if certified and not polish:
            polish.append(coeffs)
            raise InvalidContour("polish step left the valid shapes")
        residual = assemble(coeffs, omega, nodes)
        if residual.max_abs < REFERENCE_CONFIG.tol:
            certified.append((coeffs, residual))
        return residual

    monkeypatch.setattr("vstates.solver.assemble", failing_polish)
    report = newton_solve(
        REFERENCE_B, omega, REFERENCE_M, reference_state.coeffs, REFERENCE_CONFIG, ChordFactors()
    )
    assert polish and report.converged and not report.trivial
    before, residual = certified[0]
    assert np.array_equal(report.coeffs.as_vector(), before.as_vector())
    assert report.residual_max == residual.max_abs
    assert report.iterations == polished.iterations - 1
    assert report.residual_history == polished.residual_history[:-1]


@pytest.mark.parametrize("nodes", [248, 254], ids=["below-bound", "not-multiple"])
def test_grid_refused_before_any_assembly(monkeypatch, nodes):
    """A grid that breaks the alias-free rule is refused before the cold
    start's curvature solve assembles anything."""
    calls = _record_calls(monkeypatch)
    seed = perturbed_annulus(0.63, 4, 31, a1_1=0.06)
    config = SolverConfig(modes=31, nodes=nodes)
    with pytest.raises(ValueError, match=re.escape(_grid_fault(nodes, 4, 31))):
        newton_solve(0.63, 0.152, 4, seed, config)
    assert calls == []


@pytest.mark.parametrize(
    "nodes, modes, iterate",
    [(512, 31, 252), (504, 31, 252), (500, 31, 500), (256, 31, 256), (512, 63, 512)],
    ids=["N=512,M=31", "N=2N0", "N=2N0-4", "N=256,M=31", "N=512,M=63"],
)
def test_solve_iterates_on_the_alias_free_grid_from_twice_its_size(monkeypatch, nodes, modes, iterate):
    """N0 = m (2M + 1) is 252 at m = 4, M = 31 and 508 at M = 63.  From
    N = 2 N0 up every Jacobian and every assemble but the last is on N0,
    and the last certifies the state on N; below, every call is on N."""
    calls = _record_calls(monkeypatch)
    config = SolverConfig(modes=modes, nodes=nodes)
    seed = perturbed_annulus(0.63, 4, modes, a1_1=0.06)
    report = newton_solve(0.63, 0.152, 4, seed, config)
    assert report.converged and not report.trivial
    assert {grid for name, _, grid in calls if name == "jacobian"} == {iterate}
    *iterations, last = [grid for name, _, grid in calls if name == "assemble"]
    assert set(iterations) == {iterate} and last == nodes
    assert report.residual_max == assemble(report.coeffs, 0.152, nodes).max_abs
    assert len(report.residual_history) == report.iterations + 1 + (iterate != nodes)


def test_two_grid_sweep_and_stall_report_the_requested_grid(monkeypatch):
    """Chord solves along a sweep at N = 512, M = 31 linearize on N0 = 252
    only, and every record and an unconverged report carry N's residual.
    A chord state polished on N0 that passes on N is not polished again."""
    calls = _record_calls(monkeypatch)
    config = SolverConfig(modes=31, nodes=512)
    branch = sweep(0.63, 4, 0.150, 0.152, 1e-3, config)
    assert len(branch.records) == 3
    assert {grid for name, _, grid in calls if name == "jacobian"} == {252}
    for record in branch.records:
        residual = assemble(record.report.coeffs, record.omega, 512).max_abs
        assert record.report.residual_max == residual < config.tol
    calls.clear()
    chord = newton_solve(0.63, 0.153, 4, branch.records[-1].report.coeffs, config, ChordFactors())
    assert chord.converged and chord.iterations == 7
    # the seed, 6 steps and the polish on N0, then the check on N
    assert [grid for name, _, grid in calls if name == "assemble"] == [252] * 8 + [512]
    seed = perturbed_annulus(0.63, 4, 31, a1_1=0.06)
    stalled = newton_solve(0.63, 0.152, 4, seed, replace(config, max_iter=2))
    assert not stalled.converged and stalled.iterations == 2
    assert stalled.residual_max == assemble(stalled.coeffs, 0.152, 512).max_abs
    assert stalled.residual_history[-1] == stalled.residual_max


def test_state_that_fails_the_requested_grid_steps_on_it(monkeypatch):
    """At M = 8 the pointwise residual on N = 512 holds modes beyond the
    truncation that N0 = 68 does not sample.  With tol = 7e-7 the N0
    iteration converges to 4.3e-8, that state reads 9.4e-7 on N, and one
    Newton step on N reaches 5.3e-7: the solve goes on on N and is
    certified there."""
    calls = _record_calls(monkeypatch)
    config = SolverConfig(modes=8, nodes=512, tol=7e-7)
    seed = perturbed_annulus(0.63, 4, 8, a1_1=0.06)
    report = newton_solve(0.63, 0.14, 4, seed, config)
    assert report.converged and not report.trivial
    jacobians = [grid for name, _, grid in calls if name == "jacobian"]
    fine = jacobians.index(512)
    assert set(jacobians[:fine]) == {68} and set(jacobians[fine:]) == {512}
    history = report.residual_history
    converged_on_n0 = next(i for i, entry in enumerate(history) if entry < config.tol)
    assert history[converged_on_n0 + 1] > config.tol > history[-1] == report.residual_max
    assert report.residual_max == assemble(report.coeffs, 0.14, 512).max_abs
    assert len(history) == report.iterations + 2


def test_max_iter_exhaustion_is_a_report_not_an_error():
    config = SolverConfig(modes=15, nodes=128, tol=1e-30, max_iter=3)
    report = newton_solve(0.63, 0.1520, 4, perturbed_annulus(0.63, 4, 15, a1_1=0.06), config)
    assert not report.converged
    assert report.iterations == 3
    assert report.residual_max > 1e-30
    assert len(report.residual_history) == 4


def test_geometry_breakdown_surfaces_iteration_index():
    # omega = 0.3 lies past the pair (0.1255, 0.2495) of b = 0.5, so the
    # seed is used as given; the first full step from this strongly
    # bulged inner boundary drives the inner radius negative
    config = SolverConfig(modes=31, nodes=256)
    seed = perturbed_annulus(0.5, 4, 31, a2_1=0.3)
    with pytest.raises(GeometryBreakdown) as excinfo:
        newton_solve(0.5, 0.3, 4, seed, config)
    assert excinfo.value.iteration >= 1
    assert "iteration" in str(excinfo.value)


@pytest.mark.parametrize("nodes", [256, 512])
def test_seed_that_is_not_a_contour_raises_invalid_contour(nodes):
    # omega = 0.3 lies past the pair of b = 0.5, so the seed is used as
    # given, and its inner radius 0.5 + 0.6 cos(4 theta) turns negative
    seed = perturbed_annulus(0.5, 4, 31, a2_1=0.6)
    with pytest.raises(InvalidContour):
        newton_solve(0.5, 0.3, 4, seed, SolverConfig(modes=31, nodes=nodes))


def _failing_on_n(coeffs, omega, nodes):
    """`assemble` that refuses every contour on the 512-node grid."""
    if nodes == 512:
        raise InvalidContour("not a contour on N")
    return assemble(coeffs, omega, nodes)


def test_state_that_is_not_a_contour_on_n_is_a_breakdown(monkeypatch):
    """An invalid contour at the check on N is a GeometryBreakdown at the
    steps taken on N0."""

    monkeypatch.setattr("vstates.solver.assemble", _failing_on_n)
    seed = perturbed_annulus(0.63, 4, 31, a1_1=0.06)
    with pytest.raises(GeometryBreakdown) as excinfo:
        newton_solve(0.63, 0.152, 4, seed, SolverConfig(modes=31, nodes=512))
    assert excinfo.value.iteration == 6
    assert isinstance(excinfo.value.__cause__, InvalidContour)


def test_chord_inverse_survives_only_a_usable_solve(monkeypatch, reference_state):
    """A solve handed a ChordFactors that holds an inverse leaves None in it
    after a breakdown, a stall or a collapse to the annulus, and its own
    2M x 2M inverse after a converged nontrivial state."""

    def carried():
        inverse = np.linalg.inv(jacobian(reference_state.coeffs, REFERENCE_OMEGA, 256))
        return ChordFactors(inverse)

    seed = perturbed_annulus(REFERENCE_B, REFERENCE_M, 31, a1_1=0.06)
    chord = carried()
    with monkeypatch.context() as patch:
        patch.setattr("vstates.solver.assemble", _failing_on_n)
        with pytest.raises(GeometryBreakdown):
            newton_solve(
                REFERENCE_B, REFERENCE_OMEGA, REFERENCE_M, seed,
                SolverConfig(modes=31, nodes=512), chord,
            )
    assert chord.inverse is None

    chord = carried()
    stalled = replace(REFERENCE_CONFIG, max_iter=1)
    report = newton_solve(REFERENCE_B, REFERENCE_OMEGA, REFERENCE_M, seed, stalled, chord)
    assert not report.converged
    assert chord.inverse is None

    chord = carried()
    annulus = perturbed_annulus(REFERENCE_B, REFERENCE_M, 31)
    report = newton_solve(
        REFERENCE_B, REFERENCE_OMEGA, REFERENCE_M, annulus, REFERENCE_CONFIG, chord
    )
    assert report.converged and report.trivial
    assert chord.inverse is None

    chord = carried()
    report = newton_solve(
        REFERENCE_B, REFERENCE_OMEGA + 1e-3, REFERENCE_M, reference_state.coeffs,
        REFERENCE_CONFIG, chord,
    )
    assert report.converged and not report.trivial
    assert chord.inverse.shape == (62, 62)
    assert np.isfinite(chord.inverse).all()


def test_cold_start_handed_a_chord_runs_full_newton(reference_state):
    """A cold start runs full Newton whatever ChordFactors it is handed:
    from the first-mode seed at the reference point, an empty one and one
    holding the inverse of the converged state's Jacobian give reports
    bit-identical to a solve without one, and both are left empty."""
    seed = perturbed_annulus(REFERENCE_B, REFERENCE_M, 31, a1_1=0.02)
    plain = newton_solve(REFERENCE_B, REFERENCE_OMEGA, REFERENCE_M, seed, REFERENCE_CONFIG)
    assert plain.converged and not plain.trivial
    assert plain.iterations == 6
    inverse = np.linalg.inv(jacobian(reference_state.coeffs, REFERENCE_OMEGA, 256))
    for chord in (ChordFactors(), ChordFactors(inverse)):
        report = newton_solve(
            REFERENCE_B, REFERENCE_OMEGA, REFERENCE_M, seed, REFERENCE_CONFIG, chord
        )
        assert chord.inverse is None
        assert np.array_equal(report.coeffs.as_vector(), plain.coeffs.as_vector())
        assert report.residual_history == plain.residual_history
        assert report.iterations == plain.iterations


def test_singular_jacobian_guard():
    exact = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.raises(SingularJacobian) as excinfo:
        _inverse_checked(exact)
    assert excinfo.value.pivot <= 1e-14
    nearly = np.array([[1.0, 0.0], [0.0, 1e-15]])
    with pytest.raises(SingularJacobian):
        _inverse_checked(nearly)
    fine = np.array([[1.0, 0.0], [0.0, 1e-13]])
    x = _inverse_checked(fine) @ np.array([1.0, 1e-13])
    assert np.allclose(x, [1.0, 1.0])


def test_singular_jacobian_guard_rejects_nan():
    jac = np.eye(4)
    jac[1, 2] = np.nan
    with pytest.raises(SingularJacobian):
        _inverse_checked(jac)


BRANCH_END_SEED = Path(__file__).resolve().parents[1] / "perfbench" / "branch_end_seed.json"


def _branch_end_jacobian() -> np.ndarray:
    """Exact Jacobian (126 x 126) at the m = 4 state of the branch-end workload."""
    state = load_state(BRANCH_END_SEED)
    return jacobian(state.coefficients(), state.omega, state.nodes)


def test_guard_brackets_smallest_singular_value(rng):
    """The guard 1 / ||J^-1||_inf lies in [s / sqrt(n), sqrt(n) s], s the
    smallest singular value (the SVD is the oracle): every J scaled to
    s = MIN_PIVOT / (2 sqrt(n)) raises with its guard value in that
    interval, and every J scaled to s = 2 sqrt(n) MIN_PIVOT passes."""
    graded = rng.standard_normal((40, 40)) @ np.diag(np.logspace(0, -10, 40))
    matrices = [rng.standard_normal((n, n)) for n in (2, 10, 62, 126)]
    for jac in matrices + [graded, _branch_end_jacobian()]:
        n = len(jac)
        smallest = np.linalg.svd(jac, compute_uv=False).min()
        scaled = MIN_PIVOT / (2.0 * np.sqrt(n))
        with pytest.raises(SingularJacobian) as excinfo:
            _inverse_checked(jac * (scaled / smallest))
        assert scaled / np.sqrt(n) * (1 - 1e-9) <= excinfo.value.pivot
        assert excinfo.value.pivot <= np.sqrt(n) * scaled * (1 + 1e-9)
        _inverse_checked(jac * (2.0 * np.sqrt(n) * MIN_PIVOT / smallest))


def test_inverse_solves_like_numpy(reference_state, rng):
    """inverse @ rhs matches np.linalg.solve at n = 62 and n = 126."""
    reference = jacobian(reference_state.coeffs, REFERENCE_OMEGA, REFERENCE_CONFIG.nodes)
    for jac in (reference, _branch_end_jacobian()):
        rhs = rng.standard_normal(len(jac))
        expected = np.linalg.solve(jac, rhs)
        error = np.linalg.norm(_inverse_checked(jac) @ rhs - expected)
        assert error <= 1e-12 * np.linalg.norm(expected)


def test_normalize_signs_parity_rule():
    coeffs = perturbed_annulus(0.6, 4, 3)
    a1 = np.array([-0.05, 0.02, -0.01])
    a2 = np.array([0.03, -0.04, 0.005])
    flipped = normalize_signs(coeffs.replace_coefficients(a1, a2))
    parity = (-1.0) ** np.arange(1, 4)
    assert np.array_equal(flipped.a1, parity * a1)
    assert np.array_equal(flipped.a2, parity * a2)
    assert flipped.a1[0] > 0
    # idempotent
    again = normalize_signs(flipped)
    assert np.array_equal(again.a1, flipped.a1)
    # already canonical stays untouched
    canonical = coeffs.replace_coefficients(-a1, a2)
    assert normalize_signs(canonical) is canonical
    # tie broken by the inner coefficient
    tied = coeffs.replace_coefficients(
        np.array([0.0, 0.02, -0.01]), np.array([0.03, -0.04, 0.005])
    )
    assert normalize_signs(tied).a2[0] < 0


def test_normalized_representative_solves_same_equations():
    coeffs = perturbed_annulus(0.6, 4, 3)
    a1 = np.array([-0.04, 0.015, -0.008])
    a2 = np.array([0.02, -0.03, 0.004])
    shape = coeffs.replace_coefficients(a1, a2)
    base = assemble(shape, 0.2, 192)
    norm = assemble(normalize_signs(shape), 0.2, 192)
    assert abs(base.max_abs - norm.max_abs) < 1e-13


def test_fd_step_doubling_changes_little():
    shape = perturbed_annulus(0.5, 3, 4, a1_1=0.03, a2_1=-0.02)
    config = SolverConfig(modes=4, nodes=36)
    j1 = fd_jacobian(shape, 0.1, config, step=1e-9)
    j2 = fd_jacobian(shape, 0.1, config, step=2e-9)
    big = np.abs(j1) > 0.1
    assert (np.abs(j2 - j1)[big] / np.abs(j1)[big]).max() < 1e-5


def test_jacobian_nearly_singular_at_quoted_eigenvalue():
    # 0.1674 carries four digits of omega_plus; the dip survives rounding
    config = SolverConfig(modes=15, nodes=512)
    jac = fd_jacobian(perturbed_annulus(0.63, 4, 15), 0.1674, config)
    assert np.linalg.svd(jac, compute_uv=False).min() < 1e-4


def test_solve_at_exact_eigenvalue_still_finishes():
    """The Jacobian is singular on the annulus there, but the seed lies
    off it: Newton creeps toward the bifurcation point and meets the
    tolerance while the guard 1 / ||J^-1||_inf is still far above the
    hard floor (about 3e-11 at the last step, against MIN_PIVOT = 1e-14),
    so it finishes instead of raising."""
    point = eigenvalues_for_fold(4, 0.63)
    config = SolverConfig(modes=15, nodes=128)
    report = newton_solve(
        0.63, point.omega_minus, 4, perturbed_annulus(0.63, 4, 15, a1_1=0.01), config
    )
    assert report.converged and not report.trivial
