"""The numpy kernel sums against a plain loop over the trapezoid rule.

The loop runs over all N nodes; `kernel_sums` is given one sector of
them and sums the rotated copies in closed form, in row blocks of its
table.
"""

import numpy as np

from vstates import kernels, perturbed_annulus, sample

from test_contour import random_coeffs, traced_peak


def workload(rng, nodes=120, fold=3):
    coeffs = random_coeffs(rng, fold=fold, modes=6, scale=0.05)
    sc = sample(coeffs, nodes)
    return sc


def test_repeat_calls_bit_identical(rng):
    sc = workload(rng)
    nodes = kernels._nodes(sc.z1, sc.dz1, 1)
    first = kernels.kernel_sums(nodes, nodes, True)
    second = kernels.kernel_sums(nodes, nodes, True)
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


def test_diagonal_replacement_against_manual_loop(rng, monkeypatch):
    """One sector of sources against the loop over all N nodes, at every
    fold the residual meets: self-source with the whole sector or a
    leading slice of it as targets, and a sum over the other boundary.

    Each case runs as one table and again in blocks of 5 rows, where the
    24 sector targets span five blocks and the self-source diagonals of
    the later four sit at columns 5-23."""
    whole = kernels._BLOCK_BYTES
    for fold in (1, 3, 4, 12):
        nodes = 24 * fold
        sector = nodes // fold
        sc = workload(rng, nodes, fold)
        for targets, z, dz, self_source in (
            (sc.z1[:sector], sc.z1, sc.dz1, True),
            (sc.z2[:sector], sc.z2, sc.dz2, True),
            (sc.z1[:5], sc.z1, sc.dz1, True),
            (sc.z1[:sector], sc.z2, sc.dz2, False),
            (sc.z2[:sector], sc.z1, sc.dz1, False),
        ):
            want = manual_sums(targets, z, dz, self_source)
            source = kernels._nodes(z[:sector], dz[:sector], fold)
            target = kernels._nodes(targets, np.zeros_like(targets), fold)
            for budget in (whole, 5 * 16 * sector):
                monkeypatch.setattr(kernels, "_BLOCK_BYTES", budget)
                got = kernels.kernel_sums(target, source, self_source)
                assert np.abs(got - want).max() < 1e-14, (fold, len(targets), self_source, budget)


def test_diagonal_rotated_copies_explicitly(rng):
    """A node's m - 1 rotated copies each contribute -conj(z) dz / z.

    A one-node sector holds only the diagonal: its value is the limit
    conj(dz_i) plus the explicit sum over the copies on the full grid.
    """
    for fold in (3, 4, 12):
        nodes = 24 * fold
        sector = nodes // fold
        sc = workload(rng, nodes, fold)
        for i in (0, 5, sector - 1):
            z, dz = sc.z1[i : i + 1], sc.dz1[i : i + 1]
            copies = np.arange(1, fold) * sector + i
            d = sc.z1[copies] - z[0]
            explicit = np.conj(dz[0]) + np.sum(np.conj(d) / d * sc.dz1[copies])
            node = kernels._nodes(z, dz, fold)
            got = kernels.kernel_sums(node, node, True)[0]
            assert abs(got - explicit / (1j * fold)) < 1e-14


def test_sums_never_read_a_target_derivative(rng):
    """Targets whose dz is NaN give, bit for bit, the sums of the same
    targets with their own dz, for self and cross sums at every fold the
    residual meets."""
    sector, half = 24, 13
    for fold in (1, 3, 4, 12):
        sc = workload(rng, sector * fold, fold)
        outer = kernels._nodes(sc.z1[:sector], sc.dz1[:sector], fold)
        inner = kernels._nodes(sc.z2[:sector], sc.dz2[:sector], fold)
        target = outer.head(half)
        blind = kernels._nodes(target.z, np.full(half, np.nan + 0j), fold)
        for source, self_source in ((outer, True), (inner, False)):
            want = kernels.kernel_sums(target, source, self_source)
            got = kernels.kernel_sums(blind, source, self_source)
            assert got.tobytes() == want.tobytes(), (fold, self_source)


def test_kernel_table_working_set_is_bounded():
    """A table of 513 x 1024 entries, the size of the 16N refinement grid
    of an m = 12, N = 768 solve (8.4 MB whole), is built in blocks, and
    the call's allocations peak under 2 MiB."""
    fold, nodes = 12, 16 * 768
    sector = nodes // fold
    sc = sample(perturbed_annulus(0.85, fold, 31, a1_1=0.03, a2_1=-0.02), nodes)
    source = kernels._nodes(sc.z1[:sector], sc.dz1[:sector], fold)
    targets = source.head(sector // 2 + 1)
    assert traced_peak(lambda: kernels.kernel_sums(targets, source, True)) < 2 << 20


def per_block_sums(target, source, self_source):
    """`kernel_sums` with each block's table formed by one broadcast
    subtraction into a fresh array, then the placeholder, the reciprocal
    and the product with the weights: the formula that the in-place
    build must match bit for bit."""
    fold, count, rows = source.fold, len(source), len(target)
    sums = np.empty((rows, 2), dtype=np.complex128)
    step = kernels._block_rows(16 * count)
    for start in range(0, rows, step):
        table = np.subtract(source.zm, target.zm[start : start + step, None])
        if self_source:
            diag = table.reshape(-1)[start :: count + 1]
            diag[:] = 1.0
        np.reciprocal(table, out=table)
        if self_source:
            diag[:] = 0.0
        np.matmul(table, source.weights, out=sums[start : start + step])
    total = fold * (target.power * sums[:, 0] - target.conj * sums[:, 1])
    if self_source:
        dz = source.dz[:rows]
        total += np.conj(dz) - (fold - 1) * target.conj * dz / target.z
    return total / (1j * fold * count)


def test_multi_block_tables_match_the_per_block_formula():
    """The half-sector tables of the 8N and 16N refinement grids, N/m = 512
    and 1024, span 3 and 9 row blocks; their self and cross sums at folds
    4 and 12 are bit for bit those of the per-block formula."""
    for fold in (4, 12):
        coeffs = perturbed_annulus(0.6, fold, 31, a1_1=0.03, a2_1=-0.02)
        for count, blocks in ((512, 3), (1024, 9)):
            sc = sample(coeffs, fold * count)
            outer = kernels._nodes(sc.z1[:count], sc.dz1[:count], fold)
            inner = kernels._nodes(sc.z2[:count], sc.dz2[:count], fold)
            targets = outer.head(count // 2 + 1)
            assert -(-len(targets) // kernels._block_rows(16 * count)) == blocks
            for source, self_source in ((outer, True), (inner, False)):
                got = kernels.kernel_sums(targets, source, self_source)
                want = per_block_sums(targets, source, self_source)
                assert got.tobytes() == want.tobytes(), (fold, count, self_source)
