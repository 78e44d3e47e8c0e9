"""Contour representation: coefficients, sampling, symmetry, distance."""

import re
import tracemalloc

import numpy as np
import pytest

from vstates import (
    InvalidContour,
    VortexContourCoeffs,
    boundary_distance,
    kernels,
    perturbed_annulus,
    sample,
)
from vstates.contour import _basis
from oracles import all_pairs_distance


def traced_peak(call):
    """Peak bytes allocated during call(), numpy's buffers included."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_coeffs(rng, b=0.6, fold=4, modes=8, scale=0.04):
    """Smooth random shape with geometrically decaying coefficients."""
    decay = 0.5 ** np.arange(modes)
    a1 = scale * decay * rng.uniform(-1, 1, modes)
    a2 = scale * decay * rng.uniform(-1, 1, modes)
    return VortexContourCoeffs(b=b, fold=fold, modes=modes, a1=a1, a2=a2)


def test_annulus_sampling_exact():
    sc = sample(perturbed_annulus(0.63, 1, 1), 64)
    theta = 2 * np.pi * np.arange(64) / 64
    assert np.abs(sc.z1 - np.exp(1j * theta)).max() < 1e-15
    assert np.abs(sc.z2 - 0.63 * np.exp(1j * theta)).max() < 1e-15
    assert np.abs(sc.dz1 - 1j * sc.z1).max() < 1e-15
    assert np.abs(sc.dz2 - 1j * sc.z2).max() < 1e-15


def test_single_mode_radii_extremes():
    # cosine bump: rho_1(0) = 1 + a, rho_1(pi/m) = 1 - a
    sc = sample(perturbed_annulus(0.85, 12, 1, a1_1=0.06), 768)
    assert abs(abs(sc.z1[0]) - 1.06) < 1e-14
    half_sector = 768 // 24
    assert abs(abs(sc.z1[half_sector]) - 0.94) < 1e-14


def test_vector_roundtrip(rng):
    coeffs = random_coeffs(rng)
    vec = coeffs.as_vector()
    assert vec.shape == (16,)
    back = VortexContourCoeffs.from_vector(vec, b=coeffs.b, fold=coeffs.fold, modes=8)
    assert np.array_equal(back.a1, coeffs.a1)
    assert np.array_equal(back.a2, coeffs.a2)
    assert back.b == coeffs.b and back.fold == coeffs.fold
    with pytest.raises(ValueError, match="expected vector of length 16"):
        VortexContourCoeffs.from_vector(vec[:-1], b=coeffs.b, fold=coeffs.fold, modes=8)

    replaced = coeffs.replace_coefficients(2 * coeffs.a1, coeffs.a2)
    assert np.array_equal(replaced.a1, 2 * coeffs.a1)
    assert replaced.b == coeffs.b


def test_coefficients_frozen(rng):
    a1 = np.zeros(3)
    a2 = np.zeros(3)
    coeffs = VortexContourCoeffs(b=0.5, fold=3, modes=3, a1=a1, a2=a2)
    a1[0] = 99.0  # caller mutation must not leak in
    assert coeffs.a1[0] == 0.0
    with pytest.raises(ValueError):
        coeffs.a1[0] = 1.0


def test_coefficients_compare_by_value():
    shape = perturbed_annulus(0.6, 4, 3, a1_1=0.01)
    assert shape == perturbed_annulus(0.6, 4, 3, a1_1=0.01)
    assert shape != perturbed_annulus(0.6, 4, 3, a1_1=0.02)
    assert shape != perturbed_annulus(0.6, 4, 3, a2_1=0.01)
    assert shape != perturbed_annulus(0.5, 4, 3, a1_1=0.01)
    assert shape != perturbed_annulus(0.6, 3, 3, a1_1=0.01)
    assert shape != perturbed_annulus(0.6, 4, 4, a1_1=0.01)
    assert shape != "annulus"
    sc = sample(shape, 48)
    assert sc == sc and sc != sample(shape, 48)


def test_coefficient_validation():
    ok = np.zeros(2)
    with pytest.raises(ValueError):
        VortexContourCoeffs(b=0.0, fold=3, modes=2, a1=ok, a2=ok)
    with pytest.raises(ValueError):
        VortexContourCoeffs(b=1.0, fold=3, modes=2, a1=ok, a2=ok)
    with pytest.raises(ValueError):
        VortexContourCoeffs(b=0.5, fold=0, modes=2, a1=ok, a2=ok)
    with pytest.raises(ValueError):
        VortexContourCoeffs(b=0.5, fold=3, modes=0, a1=ok, a2=ok)
    with pytest.raises(ValueError):
        VortexContourCoeffs(b=0.5, fold=3, modes=2, a1=np.zeros(3), a2=ok)
    with pytest.raises(ValueError):
        VortexContourCoeffs(b=0.5, fold=3, modes=2, a1=np.array([np.nan, 0]), a2=ok)


def test_sampling_guards():
    coeffs = perturbed_annulus(0.5, 4, 8)
    with pytest.raises(ValueError):
        sample(coeffs, 66)  # not a multiple of the fold
    with pytest.raises(ValueError):
        sample(coeffs, 64)  # below the alias-free bound 2*4*8 + 1
    for shape, message in (
        (  # inner radius driven negative
            perturbed_annulus(0.1, 4, 1, a2_1=-0.2),
            "inner radius must stay positive; rho_2(0.000000) = -1.000000e-01",
        ),
        (  # outer radius driven negative
            perturbed_annulus(0.1, 4, 1, a1_1=-1.2),
            "outer radius must stay positive; rho_1(0.000000) = -2.000000e-01",
        ),
        (  # boundaries crossing
            perturbed_annulus(0.9, 4, 1, a1_1=-0.08, a2_1=0.08),
            "boundaries must not cross; (rho_1 - rho_2)(0.000000) = -6.000000e-02",
        ),
    ):
        with pytest.raises(InvalidContour, match=f"^{re.escape(message)}$"):
            sample(shape, 128)


def test_fold_symmetry(rng):
    """Rotating by one sector multiplies both boundaries by a fixed phase."""
    for fold in (3, 4, 12):
        coeffs = random_coeffs(rng, fold=fold, modes=6, scale=0.03)
        nodes = 48 * fold
        sc = sample(coeffs, nodes)
        shift = nodes // fold
        phase = np.exp(2j * np.pi / fold)
        assert np.abs(np.roll(sc.z1, -shift) - phase * sc.z1).max() < 1e-13
        assert np.abs(np.roll(sc.z2, -shift) - phase * sc.z2).max() < 1e-13


def test_reflection_conjugates(rng):
    coeffs = random_coeffs(rng, fold=5, modes=6)
    sc = sample(coeffs, 160)
    for z in (sc.z1, sc.z2):
        reflected = np.conj(z[1:][::-1])
        assert np.abs(z[1:] - reflected).max() < 1e-12


def test_derivative_matches_finite_differences():
    """Analytic tangent against 4th-order central differences.

    The FD error scales like (mk)^5 * dtheta^4 / 30, so the achievable
    agreement depends on the highest excited frequency; fourth-order
    decay under grid refinement is the meaningful check.
    """
    coeffs = perturbed_annulus(0.6, 4, 3, a1_1=0.1, a2_1=-0.05)

    def fd_error(nodes):
        sc = sample(coeffs, nodes)
        h = 2 * np.pi / nodes
        worst = 0.0
        for z, dz in ((sc.z1, sc.dz1), (sc.z2, sc.dz2)):
            fd = (
                -np.roll(z, -2) + 8 * np.roll(z, -1) - 8 * np.roll(z, 1) + np.roll(z, 2)
            ) / (12 * h)
            worst = max(worst, np.abs(fd - dz).max())
        return worst

    coarse = fd_error(256)
    fine = fd_error(512)
    assert fine < 2e-7
    assert coarse / fine > 14  # 4th order gives 16


def test_boundary_distance_annulus():
    sc = sample(perturbed_annulus(0.63, 1, 1), 128)
    assert abs(boundary_distance(sc) - 0.37) < 1e-13


def test_boundary_distance_single_bump():
    # inner boundary bulges outward at theta = 0, where both grids have a node
    sc = sample(perturbed_annulus(0.6, 4, 1, a2_1=0.05), 128)
    assert abs(boundary_distance(sc) - (1 - 0.6 - 0.05)) < 1e-14


def test_boundary_distance_on_half_sector_matches_all_pairs(rng):
    """Folds 1-12, with N/m odd and even: the half sector reaches the minimum."""
    for fold in range(1, 13):
        coeffs = random_coeffs(rng, b=rng.uniform(0.3, 0.7), fold=fold, modes=6, scale=0.05)
        sc = sample(coeffs, fold * (32 + fold))
        assert sc.fold == fold
        assert abs(boundary_distance(sc) - all_pairs_distance(sc)) < 1e-15


def test_boundary_distance_in_row_blocks_is_exact(rng, monkeypatch):
    """The minimum over blocks of 3 rows is the minimum over the whole
    table, to the bit, and the blocks of one call at N = 3072, m = 12
    (a 129 x 3072 table, 6.3 MB whole) peak under 2 MiB."""
    for fold in (1, 4, 12):
        coeffs = random_coeffs(rng, b=rng.uniform(0.3, 0.7), fold=fold, modes=6, scale=0.05)
        sc = sample(coeffs, fold * 40)
        whole = boundary_distance(sc)
        with monkeypatch.context() as patch:
            patch.setattr(kernels, "_BLOCK_BYTES", 3 * 16 * sc.nodes)
            assert boundary_distance(sc) == whole
    sc = sample(perturbed_annulus(0.85, 12, 31, a1_1=0.03, a2_1=-0.02), 3072)
    assert traced_peak(lambda: boundary_distance(sc)) < 2 << 20


def test_sample_repeats_the_sector_radii(rng):
    """Folds 1-12, N/m odd, even and a multiple of 4: every sector of
    `sample` is e^{i theta} times the fundamental sector's radii, bit for
    bit, so the sample is exactly m-periodic in its radii."""
    for fold in (1, 3, 4, 12):
        for count in (63, 64, 66):
            for modes in (6, 31):
                coeffs = random_coeffs(rng, fold=fold, modes=modes, scale=0.05)
                nodes = fold * count
                cos, sin, unit = _basis(nodes, fold, modes)
                cos, sin = cos[:count], sin[:count]
                sc = sample(coeffs, nodes)
                for z, dz, base, a in (
                    (sc.z1, sc.dz1, 1.0, coeffs.a1), (sc.z2, sc.dz2, coeffs.b, coeffs.a2)
                ):
                    rho, drho = base + cos @ a, -(sin @ a)
                    assert np.array_equal(z, unit * np.tile(rho, fold))
                    assert np.array_equal(dz, unit * np.tile(1j * rho + drho, fold))


def test_sampling_tables_hold_the_sector():
    """The cached cosine and sine tables hold the N/m sector nodes only,
    and e^{i theta} all N."""
    nodes, fold, modes = 768, 12, 31
    sample(perturbed_annulus(0.85, fold, modes, a1_1=0.06), nodes)
    cos, sin, unit = _basis(nodes, fold, modes)
    assert cos.shape == sin.shape == (nodes // fold, modes)
    assert unit.shape == (nodes,)
