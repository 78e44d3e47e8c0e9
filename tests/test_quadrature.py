"""Trapezoid contour integrals: closed forms, oracles, limit behavior."""

import numpy as np
import pytest
from scipy.integrate import quad

from vstates import perturbed_annulus, sample
from vstates.kernels import _nodes, kernel_sums
from vstates.residual import _pointwise, _sample

from oracles import kernel_integral, vstate_residual_pointwise

from test_contour import random_coeffs


def deformed_contour(nodes=96):
    coeffs = perturbed_annulus(0.55, 3, 2, a1_1=0.04, a2_1=-0.03)
    a1 = np.array([0.04, 0.01])
    a2 = np.array([-0.03, 0.005])
    return sample(coeffs.replace_coefficients(a1, a2), nodes)


def test_circle_closed_forms():
    """Residue calculus gives every circle integral in closed form."""
    for b in (0.2, 0.5, 0.85):
        sc = sample(perturbed_annulus(b, 1, 1), 256)
        outer_self = kernel_integral(sc.z1, (sc.z1, sc.dz1), diagonal="on_curve")
        inner_self = kernel_integral(sc.z2, (sc.z2, sc.dz2), diagonal="on_curve")
        cross_down = kernel_integral(sc.z1, (sc.z2, sc.dz2), diagonal="off_curve")
        cross_up = kernel_integral(sc.z2, (sc.z1, sc.dz1), diagonal="off_curve")
        # each circle induces -conj(z) on itself
        assert np.abs(outer_self + np.conj(sc.z1)).max() < 1e-12
        assert np.abs(inner_self + np.conj(sc.z2)).max() < 1e-12
        # inner circle seen from outside looks like a point vortex at 0
        assert np.abs(cross_down + b * b / sc.z1).max() < 1e-12
        # outer circle induces -conj(z) at any interior point
        assert np.abs(cross_up + np.conj(sc.z2)).max() < 1e-12
        # combined field: (b^2 - 1)/z on the outer boundary, 0 on the inner
        assert np.abs((outer_self - cross_down) - (b * b - 1) / sc.z1).max() < 1e-12
        assert np.abs(inner_self - cross_up).max() < 1e-12


def test_spectral_refinement():
    coarse_sc = deformed_contour(96)
    fine_sc = deformed_contour(192)
    coarse = kernel_integral(coarse_sc.z1, (coarse_sc.z1, coarse_sc.dz1), diagonal="on_curve")
    fine = kernel_integral(fine_sc.z1, (fine_sc.z1, fine_sc.dz1), diagonal="on_curve")
    assert np.abs(coarse - fine[::2]).max() < 1e-12


def test_adaptive_quadrature_oracle():
    """Independent check of the trapezoid sum against scipy adaptive quadrature."""
    sc = deformed_contour(96)
    coeffs = perturbed_annulus(0.55, 3, 2)
    a1 = np.array([0.04, 0.01])
    m = 3

    def curve(theta):
        rho = 1 + a1[0] * np.cos(m * theta) + a1[1] * np.cos(2 * m * theta)
        drho = -m * a1[0] * np.sin(m * theta) - 2 * m * a1[1] * np.sin(2 * m * theta)
        z = rho * np.exp(1j * theta)
        dz = (drho + 1j * rho) * np.exp(1j * theta)
        return z, dz

    def integrand(theta, target, part):
        z, dz = curve(theta)
        d = z - target
        if abs(d) < 1e-13:
            ratio = np.conj(dz) / dz  # removable limit along the curve
        else:
            ratio = np.conj(d) / d
        value = ratio * dz / (2j * np.pi)
        return value.real if part == "re" else value.imag

    def adaptive(target, breakpoint=None):
        kwargs = dict(limit=400, epsabs=1e-13, epsrel=1e-13)
        if breakpoint is not None:
            kwargs["points"] = [breakpoint]
        re = quad(lambda t: integrand(t, target, "re"), 0, 2 * np.pi, **kwargs)[0]
        im = quad(lambda t: integrand(t, target, "im"), 0, 2 * np.pi, **kwargs)[0]
        return re + 1j * im

    # off-curve target between the boundaries
    target = 0.75 * np.exp(0.4j)
    got = kernel_integral(np.array([target]), (sc.z1, sc.dz1), diagonal="off_curve")[0]
    assert abs(got - adaptive(target)) < 1e-10

    # on-curve target at a node; the singularity is removable there
    i = 11
    theta_i = 2 * np.pi * i / 96
    got_on = kernel_integral(sc.z1, (sc.z1, sc.dz1), diagonal="on_curve")[i]
    assert abs(got_on - adaptive(sc.z1[i], breakpoint=theta_i)) < 1e-9


def test_rotation_equivariance(rng):
    sc = deformed_contour(96)
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    base = kernel_integral(sc.z1, (sc.z1, sc.dz1), diagonal="on_curve")
    rotated_source = (phase * sc.z1, phase * sc.dz1)
    rotated = kernel_integral(phase * sc.z1, rotated_source, diagonal="on_curve")
    assert np.abs(rotated - np.conj(phase) * base).max() < 1e-13


def test_on_curve_requires_aligned_targets():
    sc = deformed_contour(96)
    with pytest.raises(ValueError):
        kernel_integral(np.roll(sc.z1, 1), (sc.z1, sc.dz1), diagonal="on_curve")
    with pytest.raises(ValueError):
        kernel_integral(sc.z1[:48], (sc.z1, sc.dz1), diagonal="on_curve")
    with pytest.raises(ValueError):
        kernel_integral(sc.z1, (sc.z1, sc.dz1), diagonal="sideways")
    with pytest.raises(ValueError, match="one-dimensional"):
        kernel_integral(sc.z1[None, :], (sc.z1, sc.dz1), diagonal="on_curve")


def test_off_curve_rejects_near_collisions():
    sc = deformed_contour(96)
    with pytest.raises(ValueError):
        kernel_integral(sc.z1[:3], (sc.z1, sc.dz1), diagonal="off_curve")
    grazing = np.array([sc.z1[5] + 1e-11])
    with pytest.raises(ValueError, match="target within 1.000e-11"):
        kernel_integral(grazing, (sc.z1, sc.dz1), diagonal="off_curve")
    fine = np.array([sc.z1[5] + 1e-9])
    kernel_integral(fine, (sc.z1, sc.dz1), diagonal="off_curve")  # must not raise


def test_normal_approach_recovers_on_curve_value():
    """Richardson extrapolation of off-curve values hits the diagonal limit.

    The integral is continuous across the curve (the kernel has unit
    modulus), but the trapezoid sum needs the target at least a few grid
    spacings away, hence the large N and the extrapolation in distance.
    """
    coeffs = perturbed_annulus(0.55, 3, 2)
    a1 = np.array([0.04, 0.01])
    a2 = np.array([-0.03, 0.005])
    sc = sample(coeffs.replace_coefficients(a1, a2), 8190)
    i = 7
    # the on-curve value at node i from the leading targets only
    outer = _nodes(sc.z1, sc.dz1, 1)
    on_value = kernel_sums(outer.head(i + 1), outer, True)[i]
    normal = 1j * sc.dz1[i] / abs(sc.dz1[i])

    for sign in (1.0, -1.0):
        deltas = np.array([1e-2, 5e-3, 2.5e-3])
        values = np.array(
            [
                kernel_integral(
                    np.array([sc.z1[i] + sign * d * normal]), (sc.z1, sc.dz1), "off_curve"
                )[0]
                for d in deltas
            ]
        )
        p01 = (deltas[0] * values[1] - deltas[1] * values[0]) / (deltas[0] - deltas[1])
        p12 = (deltas[1] * values[2] - deltas[2] * values[1]) / (deltas[1] - deltas[2])
        limit = (deltas[0] * p12 - deltas[2] * p01) / (deltas[0] - deltas[2])
        assert abs(limit - on_value) < 1e-6


def test_pointwise_residual_trivial():
    sc = sample(perturbed_annulus(0.44, 1, 1), 128)
    r1, r2 = vstate_residual_pointwise(sc, 0.2)
    assert np.abs(r1).max() < 1e-13
    assert np.abs(r2).max() < 1e-13


def test_pointwise_residual_converged_state(reference_state):
    sc = sample(reference_state.coeffs, 256)
    r1, r2 = vstate_residual_pointwise(sc, 0.1520)
    assert max(np.abs(r1).max(), np.abs(r2).max()) < 1e-12


def test_unconverged_residual_lives_on_fold_harmonics():
    sc = sample(perturbed_annulus(0.85, 12, 1, a1_1=0.06), 768)
    r1, r2 = vstate_residual_pointwise(sc, 0.09011)
    for r in (r1, r2):
        spectrum = np.abs(np.fft.rfft(r))
        mask = np.ones(len(spectrum), bool)
        mask[::12] = False  # keep only bins that are NOT multiples of the fold
        assert spectrum[mask].max() < 1e-10 * spectrum.max()
    # the inner boundary sees the seed mostly at its own wavenumber
    spectrum2 = np.abs(np.fft.rfft(r2))
    assert int(np.argmax(spectrum2[1:])) + 1 == 12
    assert spectrum2[12] > 10 * np.delete(spectrum2, 12).max()


def test_sector_values_tile_the_full_grid(rng):
    coeffs = random_coeffs(rng, fold=4, modes=6, scale=0.05)
    sc = sample(coeffs, 192)
    r1, r2 = vstate_residual_pointwise(sc, 0.17)
    assert np.abs(r1.reshape(4, -1) - r1[None, :48]).max() < 1e-13
    assert np.abs(r2.reshape(4, -1) - r2[None, :48]).max() < 1e-13
    # the half sector sums the rotated copies of the sector nodes in closed form
    s1, s2 = _pointwise(*_sample(coeffs, 192), 0.17, 48 // 2 + 1)
    assert np.abs(s1 - r1[: 48 // 2 + 1]).max() < 1e-13
    assert np.abs(s2 - r2[: 48 // 2 + 1]).max() < 1e-13
