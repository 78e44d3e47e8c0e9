"""Branch tracing in omega: grids, warm starts, termination, rescue."""

import warnings

import numpy as np
import pytest

from vstates import (
    Branch,
    BranchRecord,
    EmptyBranch,
    SolverConfig,
    critical_radius,
    default_modes,
    distance_profile,
    eigenvalues_for_fold,
    minimum_distance,
    newton_solve,
    perturbed_annulus,
    sweep,
)
import vstates.continuation as continuation
import vstates.solver as solver

CONFIG = SolverConfig(modes=31, nodes=256)
OMEGA_MINUS = eigenvalues_for_fold(4, 0.63).omega_minus
OMEGA_PLUS = eigenvalues_for_fold(4, 0.63).omega_plus


def _lone_state_secant(monkeypatch):
    """Seed the grid point after a lone state with that state itself,
    without the square-root law, so a coarse first step next to a
    bifurcation point outruns the seed and falls back to the annulus."""
    secant = continuation._secant

    def predict(known, omega):
        return known[-1][1] if len(known) < 2 else secant(known, omega)

    monkeypatch.setattr(continuation, "_secant", predict)


def _linear_in_omega(known, omega):
    (omega0, before), (omega1, last) = known
    x1 = last.as_vector()
    return x1 + (omega - omega1) / (omega1 - omega0) * (x1 - before.as_vector())


def test_omega_grid_includes_both_ends():
    grid = continuation._omega_grid(0.1, 0.2, 0.03)
    assert np.allclose(grid, [0.1, 0.13, 0.16, 0.19, 0.2])
    exact = continuation._omega_grid(0.1, 0.2, 0.05)
    assert np.allclose(exact, [0.1, 0.15, 0.2])
    assert len(exact) == 3  # the endpoint must not be duplicated
    descending = continuation._omega_grid(0.2, 0.1, -0.05)
    assert np.allclose(descending, [0.2, 0.15, 0.1])
    single = continuation._omega_grid(0.15, 0.15, 0.01)
    assert np.allclose(single, [0.15])


def test_omega_grid_rejects_bad_steps():
    with pytest.raises(ValueError):
        continuation._omega_grid(0.1, 0.2, 0.0)
    with pytest.raises(ValueError):
        continuation._omega_grid(0.1, 0.2, -0.01)
    with pytest.raises(ValueError):
        continuation._omega_grid(0.2, 0.1, 0.01)


def test_omega_grid_rejects_steps_below_rounding():
    """A step under the spacing of doubles near omega would repeat grid
    points, and so write a BranchFile that load_branch rejects."""
    with pytest.raises(ValueError, match="too small to move omega"):
        continuation._omega_grid(0.15, 0.15 + 1e-16, 1e-17)
    assert len(continuation._omega_grid(0.15, 0.15 + 1e-15, 1e-16)) > 1
    for step in (1e-300, 5e-324):
        with pytest.raises(ValueError, match="^omega_step .* too small to move omega from 0.135$"):
            continuation._omega_grid(0.135, 0.16, step)


def test_omega_grid_names_a_grid_too_large_to_allocate():
    """1e-16 moves omega near 0.49, but its 9.8e15 points of 8 bytes
    exceed every 64-bit user address space, so nothing is allocated."""
    with pytest.raises(ValueError, match=r"^omega_step 1e-16 needs \d{16} points, too many"):
        continuation._omega_grid(-0.49, 0.49, 1e-16)


def test_sweep_rejects_non_finite_omegas():
    grids = {
        "omega_start": (float("nan"), 0.16, 0.001),
        "omega_end": (0.15, float("inf"), 0.001),
        "omega_step": (0.15, 0.16, float("nan")),
    }
    for name, (start, end, step) in grids.items():
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            sweep(0.63, 4, start, end, step, CONFIG)


def test_default_ladder_targets_the_expected_boundary():
    """The default cold seed is one first-mode seed per sweep direction."""
    amplitude = continuation.COLD_SEED_AMPLITUDE
    ascending = continuation._cold_seed(0.63, 4, 31, descending=False)
    assert ascending.a2[0] == -amplitude
    assert np.abs(ascending.a1).max() == 0 and np.abs(ascending.a2[1:]).max() == 0
    descending = continuation._cold_seed(0.63, 4, 31, descending=True)
    assert descending.a1[0] == amplitude
    assert np.abs(descending.a2).max() == 0 and np.abs(descending.a1[1:]).max() == 0


def test_ascending_mini_sweep():
    branch = sweep(0.63, 4, 0.1350, 0.1360, 5e-4, CONFIG)
    assert branch.origin == "omega_minus"
    assert branch.terminated_at is None
    assert [round(r.omega, 5) for r in branch.records] == [0.135, 0.1355, 0.136]
    amplitudes = [np.abs(r.report.coeffs.as_vector()).max() for r in branch.records]
    assert all(a < b for a, b in zip(amplitudes, amplitudes[1:]))
    distances = [r.distance for r in branch.records]
    assert all(d1 > d2 for d1, d2 in zip(distances, distances[1:]))
    for record in branch.records:
        assert record.report.converged and not record.report.trivial


def test_descending_mini_sweep():
    branch = sweep(0.63, 4, 0.1670, 0.1660, -5e-4, CONFIG)
    assert branch.origin == "omega_plus"
    assert branch.terminated_at is None
    assert len(branch.records) == 3
    assert branch.records[0].omega > branch.records[-1].omega


def test_records_warm_restart():
    """Chord-converged records are the states a fresh Newton solve finds."""
    branch = sweep(0.63, 4, 0.1350, 0.1360, 5e-4, CONFIG)
    for record in branch.records:
        again = newton_solve(0.63, record.omega, 4, record.report.coeffs, CONFIG)
        assert again.iterations <= 2
        difference = again.coeffs.as_vector() - record.report.coeffs.as_vector()
        assert np.abs(difference).max() <= 1e-10


def test_sweep_reuses_jacobians(monkeypatch):
    """Warm solves take chord steps: fewer Jacobians than Newton steps."""
    formed = []
    exact = solver.jacobian

    def counted(*args):
        formed.append(args[1])
        return exact(*args)

    monkeypatch.setattr(solver, "jacobian", counted)
    branch = sweep(0.63, 4, 0.1350, 0.1370, 5e-4, CONFIG)
    assert len(branch.records) == 5 and branch.terminated_at is None
    steps = sum(record.report.iterations for record in branch.records)
    assert len(formed) < steps


def test_attempt_after_a_failure_starts_fresh(monkeypatch):
    """A failed attempt drops the carried factors: the bridge and the
    cold-seed rescue that follow form their own Jacobian first."""
    calls = []
    solve = continuation.newton_solve

    def recorded(b, omega, m, seed, config, chord=None):
        carried = chord is not None and chord.inverse is not None
        try:
            report = solve(b, omega, m, seed, config, chord)
        except Exception:
            calls.append((omega, carried, False))
            raise
        calls.append((omega, carried, report.converged and not report.trivial))
        return report

    monkeypatch.setattr(continuation, "newton_solve", recorded)
    _lone_state_secant(monkeypatch)
    # the warm solve at 0.1352 and its bridge both fall back to the annulus
    branch = sweep(0.63, 4, 0.1342, 0.1352, 1e-3, CONFIG)
    assert len(branch.records) == 2
    failures = [i for i, (_, _, usable) in enumerate(calls) if not usable]
    assert len(failures) >= 2
    for i in failures:
        if i + 1 < len(calls):
            assert not calls[i + 1][1]


def test_invalid_predicted_seed_is_a_failed_attempt(monkeypatch):
    """A secant seed that is not a valid contour fails its attempt and
    the sweep bridges over it instead of raising InvalidContour."""
    reference = sweep(0.63, 4, 0.1350, 0.1365, 5e-4, CONFIG)
    secant = continuation._secant
    broken_at = reference.records[2].omega

    def predict(known, omega):
        seed = secant(known, omega)
        if omega == broken_at:
            a1 = seed.a1.copy()
            a1[0] = 2.0  # the outer radius, about 1 + 2 cos(4 theta), goes negative
            return seed.replace_coefficients(a1, seed.a2)
        return seed

    monkeypatch.setattr(continuation, "_secant", predict)
    branch = sweep(0.63, 4, 0.1350, 0.1365, 5e-4, CONFIG)
    assert branch.terminated_at is None
    assert [r.omega for r in branch.records] == [r.omega for r in reference.records]
    for record, expected in zip(branch.records, reference.records):
        difference = record.report.coeffs.as_vector() - expected.report.coeffs.as_vector()
        assert np.abs(difference).max() <= 1e-10


def test_single_point_sweep():
    branch = sweep(0.63, 4, 0.1520, 0.1520, 5e-4, CONFIG)
    assert len(branch.records) == 1
    assert branch.records[0].report.converged


def test_sweep_outside_band_is_empty():
    with pytest.raises(EmptyBranch):
        sweep(0.63, 4, 0.30, 0.301, 1e-3, CONFIG)


def test_branch_sides_have_opposite_dominance():
    """Near omega_minus the inner boundary deforms first, near omega_plus
    the outer one; visible at small b where the pair is well separated."""
    point = eigenvalues_for_fold(4, 0.2)
    config = SolverConfig(modes=15, nodes=128)
    # step sign picks the cold seed: the high branch is walked downward
    low = sweep(0.2, 4, point.omega_minus + 0.003, point.omega_minus + 0.003, 1e-3, config)
    high = sweep(0.2, 4, point.omega_plus - 0.003, point.omega_plus - 0.003, -1e-3, config)
    low_coeffs = low.records[0].report.coeffs
    high_coeffs = high.records[0].report.coeffs
    assert np.abs(low_coeffs.a2).max() > 10 * np.abs(low_coeffs.a1).max()
    assert np.abs(high_coeffs.a1).max() > 10 * np.abs(high_coeffs.a2).max()


def test_coarse_first_step_recovers_via_cold_ladder(monkeypatch):
    """A 10^-3 first step outruns a seed that ignores the square-root
    growth of the amplitude right at the bifurcation.  The cold-seed
    rescue must recover; without it the sweep stops after one point."""
    _lone_state_secant(monkeypatch)
    branch = sweep(0.63, 4, 0.1342, 0.1352, 1e-3, CONFIG)
    assert len(branch.records) == 2
    assert branch.terminated_at is None

    monkeypatch.setattr(continuation, "_near_annulus", lambda coeffs: False)
    crippled = sweep(0.63, 4, 0.1342, 0.1352, 1e-3, CONFIG)
    assert len(crippled.records) == 1
    assert crippled.terminated_at == pytest.approx(0.1352)


def test_secant_follows_the_square_root_law_next_to_the_annulus(monkeypatch):
    """Moving away from omega_minus, the seed is linear in
    s = sqrt((omega - omega_minus) / (omega1 - omega_minus)); toward it,
    or away from the annulus, it is linear in omega, bit for bit."""
    inner = perturbed_annulus(0.63, 4, 31, a1_1=-0.002, a2_1=-0.02)
    outer = perturbed_annulus(0.63, 4, 31, a1_1=-0.003, a2_1=-0.028)
    near, far, omega = OMEGA_MINUS + 5e-4, OMEGA_MINUS + 1e-3, OMEGA_MINUS + 2e-3

    def root(w):
        return np.sqrt((w - OMEGA_MINUS) / (far - OMEGA_MINUS))

    lone = continuation._secant([(far, outer)], omega).as_vector()
    assert np.abs(lone - root(omega) * outer.as_vector()).max() <= 1e-15

    known = [(near, inner), (far, outer)]
    x0, x1 = inner.as_vector(), outer.as_vector()
    for w in (far + 2e-4, omega, OMEGA_MINUS + 4e-3):
        seed = continuation._secant(known, w).as_vector()
        expected = x1 + (root(w) - 1.0) / (1.0 - root(near)) * (x1 - x0)
        assert np.abs(seed - expected).max() <= 1e-15

    toward = [(far, outer), (near, inner)]
    between = OMEGA_MINUS + 2.5e-4
    seed = continuation._secant(toward, between).as_vector()
    assert np.array_equal(seed, _linear_in_omega(toward, between))
    assert continuation._secant(toward[1:], between) is inner

    # an earlier state on the far side of omega_minus, or no eigenvalue
    # pair at all (b past the critical radius): linear in omega
    across = [(OMEGA_MINUS - 5e-4, inner), (far, outer)]
    seed = continuation._secant(across, omega).as_vector()
    assert np.array_equal(seed, _linear_in_omega(across, omega))
    past = perturbed_annulus(0.8, 4, 31, a1_1=-0.003, a2_1=-0.028)
    assert continuation._secant([(far, past)], omega) is past

    monkeypatch.setattr(continuation, "_near_annulus", lambda coeffs: False)
    seed = continuation._secant(known, omega).as_vector()
    assert np.array_equal(seed, _linear_in_omega(known, omega))


def test_sweep_next_to_a_bifurcation_stays_on_the_branch(monkeypatch):
    """With the square-root predictor, a coarse first step away from
    either eigenvalue converges warm: no attempt falls back to the
    annulus and the cold seed runs only at the first grid point."""
    calls = []
    solve = continuation.newton_solve

    def recorded(b, omega, m, seed, config, chord=None):
        report = solve(b, omega, m, seed, config, chord)
        calls.append((chord is None, report))
        return report

    monkeypatch.setattr(continuation, "newton_solve", recorded)
    for start, end, step in ((0.1342, 0.1352, 1e-3), (0.1674, 0.1664, -1e-3)):
        calls.clear()
        branch = sweep(0.63, 4, start, end, step, CONFIG)
        assert len(branch.records) == 2 and branch.terminated_at is None
        assert len(calls) == 2
        assert [cold for cold, _ in calls] == [True, False]
        for _, report in calls:
            assert report.converged and not report.trivial


def test_sweep_toward_omega_plus_from_below_reaches_its_end():
    """The warm solve at 0.1674, next to Omega+, needs a bridge and a retry
    that converges only near the end of its step budget; the sweep still
    reaches its end point without a spurious termination."""
    branch = sweep(0.63, 4, 0.1664, 0.1674, 1e-3, CONFIG)
    assert branch.terminated_at is None
    assert len(branch.records) == 2
    for record in branch.records:
        assert record.report.converged and not record.report.trivial


def test_sweep_starting_on_an_eigenvalue(monkeypatch):
    """A sweep that starts exactly on an eigenvalue has no square-root
    offset for its first state; the predictor falls back without a
    division by zero and the sweep goes on."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        ascending = sweep(0.63, 4, OMEGA_MINUS, OMEGA_MINUS + 2e-3, 1e-3, CONFIG)
        descending = sweep(0.63, 4, OMEGA_PLUS, OMEGA_PLUS - 2e-3, -1e-3, CONFIG)
    for branch in (ascending, descending):
        assert len(branch.records) == 3
        assert branch.terminated_at is None


# The branch probe: for each fold m and inner radius b = fraction * b_m,
# one sweep inward from each eigenvalue end (omega_minus ascending,
# omega_plus descending) over 12 grid points, from 1e-3 inside the end
# over 10.5 steps of 1e-3, at N = 64m and the default M.
BRANCH_PROBE = [
    (m, fraction, step)
    for m in (3, 4, 5, 6, 8)
    for fraction in (0.3, 0.6, 0.9)
    for step in (1e-3, -1e-3)
]
# (m, fraction, origin) of the probe sweeps that stop before the end of
# their grid; where they stop is reported, not pinned.
PROBE_STOPPERS = {
    (8, 0.3, "omega_minus"),
    (8, 0.6, "omega_minus"),
    (8, 0.3, "omega_plus"),
    (8, 0.9, "omega_plus"),
}


def test_branch_probe_sweeps_cover_their_grids():
    """Every probe sweep but the known stoppers traces all 12 grid points."""
    stopped = {}
    for m, fraction, step in BRANCH_PROBE:
        b = fraction * critical_radius(m)
        point = eigenvalues_for_fold(m, b)
        start = (point.omega_minus if step > 0 else point.omega_plus) + step
        nodes = 64 * m
        config = SolverConfig(modes=default_modes(m, nodes), nodes=nodes)
        branch = sweep(b, m, start, start + 10.5 * step, step, config)
        if branch.terminated_at is None:
            assert len(branch.records) == 12
        else:
            stopped[(m, fraction, branch.origin)] = (
                len(branch.records), branch.terminated_at
            )
    print(f"branch probe: {len(BRANCH_PROBE) - len(stopped)} of {len(BRANCH_PROBE)} full")
    for key, (records, omega) in sorted(stopped.items()):
        print(f"  m, fraction of b_m, origin {key}: {records} records, stops at {omega:.5f}")
    assert set(stopped) <= PROBE_STOPPERS


def test_distance_profile_and_minimum():
    coeffs = perturbed_annulus(0.6, 4, 2)
    fake = lambda omega, distance: BranchRecord(
        omega=omega,
        report=newton_solve(0.6, omega, 4, coeffs, SolverConfig(modes=2, nodes=64)),
        distance=distance,
    )
    branch = Branch(
        b=0.6,
        m=4,
        records=[fake(0.1, 0.35), fake(0.11, 0.30), fake(0.12, 0.33)],
        origin="omega_minus",
        terminated_at=None,
    )
    profile = distance_profile(branch)
    assert profile == [(0.1, 0.35), (0.11, 0.30), (0.12, 0.33)]
    omega_at_min, smallest = minimum_distance(branch)
    assert omega_at_min == 0.11 and smallest == 0.30

    empty = Branch(b=0.6, m=4, records=[], origin="omega_minus", terminated_at=None)
    with pytest.raises(ValueError):
        minimum_distance(empty)
