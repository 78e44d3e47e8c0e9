"""The numpy kernel sums against a plain loop over the trapezoid rule."""

import numpy as np

from vstates import kernels, sample

from test_contour import random_coeffs


def workload(rng, nodes=120):
    coeffs = random_coeffs(rng, fold=3, modes=6, scale=0.05)
    sc = sample(coeffs, nodes)
    return sc


def test_repeat_calls_bit_identical(rng):
    sc = workload(rng)
    first = kernels.kernel_sums(sc.z1, sc.z1, sc.dz1, True)
    second = kernels.kernel_sums(sc.z1, sc.z1, sc.dz1, True)
    assert np.array_equal(first, second)


def manual_sums(targets, z, dz, self_source):
    """Term-by-term trapezoid sums; the aligned diagonal takes conj(dz_i)."""
    out = np.empty(len(targets), dtype=complex)
    for i, target in enumerate(targets):
        total = 0.0 + 0.0j
        for k in range(len(z)):
            if self_source and k == i:
                total += np.conj(dz[i])
            else:
                d = z[k] - target
                total += np.conj(d) / d * dz[k]
        out[i] = total / (1j * len(z))
    return out


def test_diagonal_replacement_against_manual_loop(rng):
    """All three call shapes of the residual: full self-source, the
    leading-sector self-source and a sum over the other boundary."""
    sc = workload(rng, 60)
    for targets, z, dz, self_source in (
        (sc.z1, sc.z1, sc.dz1, True),
        (sc.z1[: 60 // 3], sc.z1, sc.dz1, True),
        (sc.z1[: 60 // 3], sc.z2, sc.dz2, False),
    ):
        got = kernels.kernel_sums(targets, z, dz, self_source)
        assert np.abs(got - manual_sums(targets, z, dz, self_source)).max() < 1e-14


def test_min_separation():
    targets = np.array([0.0 + 0.0j, 3.0 + 4.0j])
    source = np.array([1.0 + 0.0j, 3.0 + 3.0j])
    assert abs(kernels.min_separation(targets, source) - 1.0) < 1e-15
