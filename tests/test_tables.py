import dataclasses
import math
import os
import struct

import numpy as np
import pytest

from nlfb import (KernelTables, RunConfig, cosine_bump_kernel, custom_kernel, j_tilde,
                  j_tilde_row, kernels, logistic, power_tail_kernel, run, uniform_kernel)
from nlfb.solver import _slopes
from nlfb.tables import _HEADER, MAGIC, cache_dir


@pytest.fixture()
def count_rows(monkeypatch):
    """Count j_tilde_row calls and the rho values they evaluate."""
    seen = {"calls": 0, "entries": 0}
    inner = kernels.j_tilde_row

    def counting(kernel, r, rho, *args, **kw):
        seen["calls"] += 1
        seen["entries"] += np.size(rho)
        return inner(kernel, r, rho, *args, **kw)

    monkeypatch.setattr(kernels, "j_tilde_row", counting)
    return seen


def _entry(tab, i, j):
    """Table entry (i, j): Jtilde(i*dr, j*dr), 0 outside a stored band."""
    return float(tab.row_values(i, j + 1)[j])


def test_values_match_direct_evaluation(tables_disc2, disc2):
    tab = tables_disc2
    for i, j in ((0, 10), (7, 12), (25, 30), (30, 25), (40, 40)):
        direct = j_tilde(disc2, i * tab.dr, j * tab.dr)
        assert abs(_entry(tab, i, j) - direct) < 1e-8, (i, j)


def test_banded_zero_outside_band(tables_disc2):
    tab = tables_disc2
    assert _entry(tab, 10, 10 + tab.bw + 5) == 0.0
    assert _entry(tab, 80, 10) == 0.0


@pytest.mark.parametrize("dr", [1.0, 1.5])
def test_band_grid_must_resolve_the_support(dr):
    # at dr >= K only the diagonal entry is live: row 0 would hold mass 0 and
    # its tail row a NaN, and the eigen operator would be diagonal
    with pytest.raises(ValueError, match="support radius"):
        KernelTables(uniform_kernel(2), dr)


def test_band_grid_just_inside_the_support():
    # dr = 0.9 < K = 1: a neighbour column is live, so every row has mass
    tab = KernelTables(uniform_kernel(2), 0.9)
    assert np.all(tab.row_mass(10) > 0.0)


def test_dense_table_values():
    k = power_tail_kernel(2, 3.5)
    tab = KernelTables(k, 0.2)
    assert not tab.banded
    for i, j in ((0, 4), (3, 9), (9, 3)):
        direct = j_tilde(k, i * tab.dr, j * tab.dr)
        assert abs(_entry(tab, i, j) - direct) < 1e-8


def test_dense_growth_mirrors_columns():
    k = power_tail_kernel(2, 3.5)
    tab = KernelTables(k, 0.25)
    tab.ensure(4, 4)
    tab.ensure(40, 40)  # forces capacity growth; column 35 of row 2 is mirrored
    direct = j_tilde(k, 2 * 0.25, 35 * 0.25)
    assert abs(_entry(tab, 2, 35) - direct) < 1e-8


@pytest.mark.parametrize("dim, beta", [(2, 2.8), (3, 3.8)])
def test_dense_triangle_fill_across_growth(dim, beta, count_rows):
    k = power_tail_kernel(dim, beta)
    dr = 0.25
    tab = KernelTables(k, dr)
    # whole 32-row blocks: 4 -> 32 rows, 17 reads them, 40 -> 64 and 90 -> 96
    # grow the capacity to 32, 64 and max(96, 1.5 * 64 + 16) rounded up, 128
    for n, rows, cap in ((4, 32, 32), (17, 32, 32), (40, 64, 64), (90, 96, 128)):
        tab.ensure(n, n)
        assert (tab.rows_filled, tab._data.shape[0]) == (rows, cap)
    n = 90
    # the lower triangle of rows 1..95, no entry twice (exact N = 3), or its
    # near part: rows 1..31 (496 entries) and 32..63 (1,520) in full, and of
    # rows 64..95 the 1,552 entries from column 32 on plus 24 x 24 samples of
    # the far span of columns 0..31 (N = 2)
    assert count_rows["entries"] == (4560 if dim == 3 else 496 + 1520 + 1552 + 576)
    pairs = [(0, 3), (0, 50), (0, 89), (3, 0), (60, 0), (2, 85), (85, 2),
             (16, 17), (17, 16), (39, 41), (41, 39), (10, 10), (89, 89),
             (30, 70), (70, 30)]
    for i, j in pairs:
        direct = j_tilde(k, i * dr, j * dr)
        assert abs(_entry(tab, i, j) - direct) < 1e-8, (i, j)
    # the mirrored upper triangle against direct quadrature of each row
    for i in range(1, n - 1):
        rho = np.arange(i + 1, n) * dr
        direct = j_tilde_row(k, i * dr, rho)
        got = tab.row_values(i, n)[i + 1:]
        assert np.all(np.abs(got - direct) <= 1e-13 * np.abs(direct)), i


@pytest.mark.parametrize("dr", [0.1, 0.25, 1.0])
@pytest.mark.parametrize("dim, beta", [(2, 2.05), (2, 2.3), (2, 2.8), (2, 3.5), (2, 5.0),
                                       (2, 8.0), (4, 4.5)])
def test_dense_fill_matches_direct_quadrature(dim, beta, dr):
    # far spans are interpolated in log space; 512 rows hold every kind of
    # span: beside the near columns, between, and the widest (256 columns),
    # which reaches column 0.  1,024-row tables stay within 3.7e-14.
    k = power_tail_kernel(dim, beta)
    n = 512
    tab = KernelTables(k, dr)
    tab.ensure(n)
    block = np.stack([tab.row_values(i, n) for i in range(n)])
    i, j = np.tril_indices(n)
    direct = np.concatenate([j_tilde_row(k, i[s] * dr, j[s] * dr)
                             for s in np.array_split(np.arange(i.size), 32)])
    assert np.all(np.abs(block[i, j] - direct) <= 1e-13 * direct)
    # the upper triangle against the lower one's direct values, and row 0
    up = j > 0
    mirrored = direct[up] * (i[up] / j[up]) ** (dim - 1)
    assert np.all(np.abs(block[j[up], i[up]] - mirrored) <= 1e-13 * mirrored)
    assert np.array_equal(block[0], j_tilde_row(k, 0.0, np.arange(n) * dr))


def test_dense_fill_samples_under_40_percent_of_the_triangle(count_rows):
    # 512 rows: 23,744 near entries and 45 far spans of 24 x 24 samples
    n = 512
    KernelTables(power_tail_kernel(2, 2.8), 0.25).ensure(n)
    assert count_rows["entries"] == 49664 <= 0.4 * n * (n - 1) / 2


@pytest.mark.parametrize("breakpoints", [(), (1.0,)])
def test_custom_fat_tail_fills_by_quadrature(breakpoints, count_rows):
    # a custom profile may have kinks: no span is interpolated, and every
    # entry of the lower triangle is sampled once (the grouping of entries
    # into calls may move the last bit)
    def profile(r):
        return 0.1 / np.maximum(1.0, r) ** 3 if breakpoints else 0.1 * (1.0 + r) ** -3.0

    k = custom_kernel(profile, 2, breakpoints=breakpoints)
    dr, n = 0.25, 96
    tab = KernelTables(k, dr)
    tab.ensure(n)
    assert count_rows["entries"] == n * (n - 1) // 2
    for i in range(1, n):
        direct = j_tilde_row(k, i * dr, np.arange(1, i + 1) * dr)
        got = tab.row_values(i, i + 1)[1:]
        assert np.all(np.abs(got - direct) <= 1e-15 * direct), i


@pytest.mark.parametrize("kernel", [uniform_kernel(2), cosine_bump_kernel(2)],
                         ids=["disc2", "cos2"])
@pytest.mark.parametrize("dr", [0.1, 0.05, 0.01])
def test_band_edge_entries_are_zero(kernel, dr):
    # at |r - rho| = K the sphere touches the support in one point: Jtilde = 0,
    # not the angle of a chord that rounding put an ulp inside K
    tab = KernelTables(kernel, dr)
    edge = round(kernel.support_radius / dr)
    n = round(60.0 / dr) + 1
    tab.ensure(n)
    for i in range(1, n):
        row = tab.row_values(i, i + edge + 1)
        assert row[i + edge] == 0.0, (i, i + edge)
        if i >= edge:
            assert row[i - edge] == 0.0, (i, i - edge)


def _assert_rows_match_single_row_fill(tab, n):
    """Rows < n against one j_tilde_row call per row, edge columns aside."""
    k, dr = tab.kernel, tab.dr
    edge = round(k.support_radius / dr)
    for i in range(n):
        cols = np.arange(max(i - tab.bw, 0), i + tab.bw + 1)
        keep = (np.abs(cols - i) != edge) | (i == 0)
        ref = j_tilde_row(k, i * dr, cols * dr)[keep]
        got = tab.row_values(i, cols[-1] + 1)[cols][keep]
        assert np.all(np.abs(got - ref) <= 1e-15 * np.abs(ref)), i


@pytest.mark.parametrize("kernel", [uniform_kernel(2), uniform_kernel(3), cosine_bump_kernel(2)],
                         ids=["disc2", "ball3", "cos2"])
@pytest.mark.parametrize("dr", [0.05, 0.0125])
def test_block_fill_matches_single_row_fill(tmp_path, kernel, dr):
    # band rows filled in blocks, across capacity growths (16 -> 48 -> 200)
    # and on top of rows loaded from a cache file
    tab = KernelTables(kernel, dr)
    for n in (10, 17, 200):
        tab.ensure(n)
    assert tab.rows_filled == 200
    _assert_rows_match_single_row_fill(tab, 200)
    cached = KernelTables(kernel, dr)
    cached.ensure(30)
    path = str(tmp_path / "t.nlfbkt")
    cached.save(path)
    loaded = KernelTables(kernel, dr)
    assert loaded.load(path)
    loaded.ensure(120)
    _assert_rows_match_single_row_fill(loaded, 120)


def test_row_mass_close_to_one(tables_disc2):
    mass = tables_disc2.row_mass(60)
    assert np.all(np.abs(mass[1:] - 1.0) < 0.05)


def test_conv_constant_state_is_identity(tables_disc2):
    # with quadrature weights of total mass and row normalization, a
    # constant u far from the boundary convolves to itself
    tab = tables_disc2
    n = 120
    w = np.full(n, tab.dr)
    w[0] = w[-1] = 0.5 * tab.dr
    out = tab.conv(w * np.ones(n))
    interior = out[: n - tab.bw - 1]
    assert np.abs(interior - 1.0).max() < 1e-12


def test_conv_matches_dense_matvec(tables_disc2):
    tab = tables_disc2
    n = 80
    rng = np.random.default_rng(7)
    v = rng.uniform(0.0, 1.0, n)
    rows = np.stack([tab.row_values(i, n) for i in range(n)])
    expect = rows @ v / tab.row_mass(n)
    assert np.abs(tab.conv(v) - expect).max() < 1e-12


def test_conv_after_a_longer_call_matches_fresh_table(disc2):
    # sweep and find_mu_star reuse one table while n shrinks: conv must read
    # nothing past the shorter vector
    v = np.random.default_rng(5).uniform(0.0, 1.0, 120)
    shared = KernelTables(disc2, 0.05)
    shared.conv(v)
    assert np.array_equal(shared.conv(v[:50]), KernelTables(disc2, 0.05).conv(v[:50]))


def _row_by_row_conv(tab, v):
    """conv(v) by rows: each row_values . v summed exactly, over the row mass."""
    n = v.size
    mass = tab.row_mass(n)
    return np.array([math.fsum(tab.row_values(i, n) * v) / mass[i] for i in range(n)])


@pytest.mark.parametrize("kernel", [uniform_kernel(2), uniform_kernel(3),
                                    cosine_bump_kernel(2)], ids=["disc", "ball", "cosine"])
@pytest.mark.parametrize("after_longer", [False, True])
def test_band_conv_matches_row_trapezoid(kernel, after_longer):
    # v = w * u for the trapezoid weights w, so conv(v) is the row-by-row
    # trapezoid of row_values * u over the row mass; n < 2 bw + 1 goes through
    # band_matvec's zero padding, on a fresh table and right after a longer call
    tab = KernelTables(kernel, 0.05)
    bw = tab.bw
    rng = np.random.default_rng(11)
    for n in (1, 2, bw, 2 * bw, 2 * bw + 1, 2 * bw + 2, 3 * bw):
        if after_longer:
            tab.conv(rng.uniform(0.5, 1.0, 2 * bw))
        w = np.full(n, tab.dr)
        w[0] = w[-1] = 0.5 * tab.dr
        v = w * rng.uniform(0.0, 1.0, n)
        expect = _row_by_row_conv(tab, v)
        got = tab.conv(v)
        assert got.shape == (n,)
        assert np.abs(got - expect).max() <= 1e-14 * np.abs(expect).max(), n


def test_band_steps_do_no_table_work(disc2, count_rows, monkeypatch):
    # once the rows exist, a step only reads the table: no row fill and no
    # cumulative sums of band rows
    cumsums = []
    inner = np.cumsum

    def counting(*args, **kw):
        cumsums.append(1)
        return inner(*args, **kw)

    tab = KernelTables(disc2, 0.05)
    m = 60
    tab.ensure(m + 2)
    cfg = RunConfig(kernel=disc2, d=1.0, mu=1.0, reaction=logistic(), h0=3.0)
    u = np.linspace(1.0, 0.0, m + 1)
    before = count_rows["calls"]
    monkeypatch.setattr(np, "cumsum", counting)
    for _ in range(100):
        _slopes(u, (m + 0.4) * tab.dr, cfg, tab)
    assert count_rows["calls"] == before
    assert not cumsums


def test_tail_mass_limits(tables_disc2):
    tab = tables_disc2
    assert tab.tail_mass(10, 10 + tab.bw) == 0.0
    t0 = tab.tail_mass(40, 40)
    assert 0.0 < t0 < 1.0
    # the full line: everything lies beyond rho = 0
    assert abs(tab.tail_mass(40, 0) - 1.0) < 1e-12


def test_tail_mass_monotone_in_boundary(tables_disc2):
    tab = tables_disc2
    vals = [tab.tail_mass(40, j) for j in range(40, 40 + tab.bw + 1)]
    assert all(a >= b - 1e-12 for a, b in zip(vals[:-1], vals[1:]))


def test_tail_mass_vector_dense_accuracy():
    # compare against the exact angular-measure integral at a few rows
    from scipy.integrate import quad

    k = power_tail_kernel(2, 3.5)
    tab = KernelTables(k, 0.25)
    h = 20.0
    j = int(round(h / tab.dr))
    tv = tab.tail_mass_vector(j + 1, j)

    def t_exact(r):
        def f(s):
            c = (h * h - r * r - s * s) / (2.0 * r * s)
            if c >= 1.0:
                return 0.0
            ang = 2.0 * np.pi if c <= -1.0 else 2.0 * np.arccos(c)
            return float(k(s)) * s * ang
        v1 = quad(f, h - r, h + r, limit=200)[0]
        v2 = quad(lambda s: float(k(s)) * s * 2.0 * np.pi, h + r, np.inf,
                  limit=200)[0]
        return v1 + v2

    for i in (8, 40, 72):
        exact = t_exact(i * tab.dr)
        assert abs(tv[i] - exact) < 0.02 * exact + 1e-4, (i, tv[i], exact)


@pytest.mark.parametrize("kernel", [power_tail_kernel(2, 3.5), uniform_kernel(2)],
                         ids=["dense", "banded"])
def test_tail_mass_vector_at_fractional_column(kernel):
    # one call at j + f is the linear interpolation of the calls at the
    # bracketing integer columns, and an integer column fills no extra row
    # beyond the 32-row block holding the kink windows of dense rows (reach
    # = 8 rows ahead) or the capacity of band rows (16, then 2 * 16 + 16)
    tab = KernelTables(kernel, 0.25)
    for j, band_rows, dense_rows in ((0, 16, 32), (3, 16, 32), (12, 16, 32), (30, 48, 64)):
        n = j + 1
        t_j = tab.tail_mass_vector(n, j)
        assert tab.rows_filled == (band_rows if tab.banded else dense_rows)
        t_next = tab.tail_mass_vector(n, j + 1)
        for f in (0.0, 0.3, 0.999):
            got = tab.tail_mass_vector(n, j + f)
            assert np.abs(got - ((1.0 - f) * t_j + f * t_next)).max() <= 1e-15, (j, f)


def test_cache_round_trip(tmp_path, disc2):
    tab = KernelTables(disc2, 0.1)
    tab.ensure(30)
    path = str(tmp_path / "t.nlfbkt")
    tab.save(path)
    fresh = KernelTables(disc2, 0.1)
    assert fresh.load(path)
    assert fresh.rows_filled == 30
    for i, j in ((3, 7), (20, 25)):
        assert _entry(fresh, i, j) == _entry(tab, i, j)


@pytest.mark.parametrize("kernel", [uniform_kernel(2), uniform_kernel(3)],
                         ids=["disc2", "ball3"])
def test_loaded_band_table_matches_fresh_table(tmp_path, kernel):
    # a loaded table derives row masses, tail rows and the conv buffer like
    # a filled one, before and after it grows past its 30 cached rows
    dr = 0.1
    cached = KernelTables(kernel, dr)
    cached.ensure(30)
    path = str(tmp_path / "t.nlfbkt")
    cached.save(path)

    def loaded():
        tab = KernelTables(kernel, dr)
        assert tab.load(path)
        return tab

    tab, fresh = loaded(), KernelTables(kernel, dr)
    rng = np.random.default_rng(11)
    for n in (20, 30, 90):
        v = rng.uniform(0.0, 1.0, n)
        assert np.array_equal(tab.conv(v), fresh.conv(v)), n
        assert np.array_equal(tab.row_mass(n), fresh.row_mass(n)), n
        for j in (n - 1, n - 0.7):
            assert np.array_equal(tab.tail_mass_vector(n, j), fresh.tail_mass_vector(n, j))
    cfg = RunConfig(kernel=kernel, d=1.0, mu=2.0, reaction=logistic(), h0=2.5, dr=dr,
                    t_end=20.0)
    traj = run(cfg, tables=loaded())
    assert traj.h[0] < 3.0 < traj.h[-1]
    assert np.array_equal(traj.h, run(cfg, tables=KernelTables(kernel, dr)).h)


def test_custom_kernels_without_params_are_not_cached(tmp_path, monkeypatch):
    # two profiles equal at the hash's probe radii, different between them
    monkeypatch.setenv("NLFB_CACHE_DIR", str(tmp_path))
    probe = np.geomspace(1e-3, 64.0, 96)
    i = np.searchsorted(probe, 0.5)
    a, b = probe[i - 1] + np.array([1.0, 2.0]) / 3.0 * (probe[i] - probe[i - 1])

    def disc(r):
        return np.where(r <= 1.0, 1.0 / np.pi, 0.0)

    def dented(r):
        return np.where((r > a) & (r < b), 0.5 / np.pi, disc(r))

    plain = custom_kernel(disc, 2, support_radius=1.0, label="disc")
    other = custom_kernel(dented, 2, support_radius=1.0, label="disc")
    tab = KernelTables(plain, 0.1)
    tab.ensure(20)
    tab.save(tab.cache_path())
    assert not KernelTables(other, 0.1).load(tab.cache_path())
    assert os.listdir(tmp_path) == []


def _write_v1(path, tab):
    """A cache file in the retired v1 layout: per-row column offset and count."""
    with open(path, "wb") as fh:
        fh.write(b"NLFBKT1\x00")
        fh.write(struct.pack("<id16sii", tab.kernel.dim, tab.dr,
                             tab.kernel.hash().encode(), tab.rows_filled, 1))
        fh.write(struct.pack("<i", tab.bw))
        for i in range(tab.rows_filled):
            lo = max(i - tab.bw, 0)
            vals = tab.row_values(i, i + tab.bw + 1)[lo:]
            fh.write(struct.pack("<ii", lo, vals.size))
            fh.write(vals.astype("<f8").tobytes())


def test_cache_rejects_v1_file(tmp_path, disc2):
    tab = KernelTables(disc2, 0.1)
    tab.ensure(10)
    path = str(tmp_path / "v1.nlfbkt")
    _write_v1(path, tab)
    fresh = KernelTables(disc2, 0.1)
    assert not fresh.load(path)
    assert fresh.rows_filled == 0


def test_cache_rejects_v2_file(tmp_path):
    # v2 shares the v4 layout, but its N = 3 rows hold angular-quadrature values
    tab = KernelTables(power_tail_kernel(3, 3.8), 0.25)
    tab.tail_mass_vector(10, 9)
    path = str(tmp_path / "v2.nlfbkt")
    tab.save(path)
    with open(path, "r+b") as fh:
        fh.write(b"NLFBKT2\x00")
    fresh = KernelTables(power_tail_kernel(3, 3.8), 0.25)
    assert not fresh.load(path)
    assert fresh.rows_filled == 0


def test_cache_rejects_v3_file(tmp_path):
    # v3 shares the v4 layout, but its kink corrections came from the graded angular rule
    tab = KernelTables(power_tail_kernel(2, 2.8), 0.25)
    tab.tail_mass_vector(10, 9)
    path = str(tmp_path / "v3.nlfbkt")
    tab.save(path)
    with open(path, "r+b") as fh:
        fh.write(b"NLFBKT3\x00")
    fresh = KernelTables(power_tail_kernel(2, 2.8), 0.25)
    assert not fresh.load(path)
    assert fresh.rows_filled == 0
    assert fresh._kink_corr.size == 0


def test_cache_rejects_v4_file(tmp_path):
    # v4 shares the v5 layout, but its N = 2 entries came from order-48 panels
    # on the cosine form of the chord (up to ~7e-12 off)
    tab = KernelTables(power_tail_kernel(2, 2.8), 0.25)
    tab.tail_mass_vector(10, 9)
    path = str(tmp_path / "v4.nlfbkt")
    tab.save(path)
    with open(path, "r+b") as fh:
        fh.write(b"NLFBKT4\x00")
    fresh = KernelTables(power_tail_kernel(2, 2.8), 0.25)
    assert not fresh.load(path)
    assert fresh.rows_filled == 0
    assert fresh._kink_corr.size == 0


def test_cache_rejects_v5_file(tmp_path):
    # v5 shares the v6 layout, but its dense files hold any number of rows
    tab = KernelTables(power_tail_kernel(2, 2.8), 0.25)
    tab.ensure(64)
    path = str(tmp_path / "v5.nlfbkt")
    tab.save(path)
    with open(path, "r+b") as fh:
        fh.write(b"NLFBKT5\x00")
    fresh = KernelTables(power_tail_kernel(2, 2.8), 0.25)
    assert not fresh.load(path)
    assert fresh.rows_filled == 0


def test_cache_rejects_v6_file(tmp_path):
    # v6 shares the v7 layout, but its fat-tail entries came from per-entry
    # angular edges instead of the fixed ladder (up to ~1.5e-15 apart)
    tab = KernelTables(power_tail_kernel(2, 2.8), 0.25)
    tab.tail_mass_vector(10, 9)
    path = str(tmp_path / "v6.nlfbkt")
    tab.save(path)
    with open(path, "r+b") as fh:
        fh.write(b"NLFBKT6\x00")
    fresh = KernelTables(power_tail_kernel(2, 2.8), 0.25)
    assert not fresh.load(path)
    assert fresh.rows_filled == 0
    assert fresh._kink_corr.size == 0


def test_cache_rejects_dense_rows_off_the_block(tmp_path):
    # a dense file holds whole 32-row blocks; 40 rows are refused
    k = power_tail_kernel(2, 2.8)
    tab = KernelTables(k, 0.25)
    tab.ensure(64)
    path = str(tmp_path / "t.nlfbkt")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_HEADER.pack(2, 0.25, k.hash().encode(), 40, 0, 40, 0))
        fh.write(np.stack([tab.row_values(i, 40) for i in range(40)]).astype("<f8").tobytes())
    fresh = KernelTables(k, 0.25)
    assert not fresh.load(path)
    assert fresh.rows_filled == 0
    tab.save(path)
    assert fresh.load(path)
    assert fresh.rows_filled == 64


def test_dense_front_fills_each_row_once(count_rows):
    # the front reaches h = 41 dr, so with the kink windows it reads two
    # 32-row blocks: rows 1..31 (row 0 is the exact center formula) and
    # 32..63 over their whole lower triangles, no entry twice, 496 and 1,520
    # entries in 1 and 2 calls of at most FILL_BLOCK = 1,024; the kink
    # windows evaluate nothing
    k = power_tail_kernel(2, 2.8)
    tab = KernelTables(k, 0.25)
    cfg = RunConfig(kernel=k, d=1.0, mu=1.0, reaction=logistic(), h0=5.0, dr=0.25,
                    t_end=10.0)
    traj = run(cfg, tables=tab)
    n = tab.rows_filled
    assert n == 64 > traj.h[-1] / 0.25
    assert count_rows["calls"] == 3
    assert count_rows["entries"] == n * (n - 1) // 2 == 496 + 1520


@pytest.mark.parametrize("dim, beta, exact", [(3, 3.8, True), (2, 2.8, False),
                                               (2, None, True), (3, None, True)])
def test_exact_n3_tables_do_no_angular_quadrature(dim, beta, exact, monkeypatch):
    # power tails (beta) at dr = 0.25, and the band tables of the uniform disc
    # and ball (beta None) at dr = 0.05: the cap formula, or H for the ball
    calls = []
    inner = kernels._j_tilde_panels

    def counting(*args, **kw):
        calls.append(1)
        return inner(*args, **kw)

    monkeypatch.setattr(kernels, "_j_tilde_panels", counting)
    tab = (KernelTables(power_tail_kernel(dim, beta), 0.25) if beta
           else KernelTables(uniform_kernel(dim), 0.05))
    tab.ensure(90, 90)
    tab.tail_mass_vector(90, 89)
    assert (len(calls) == 0) == exact


def test_kink_corrections_match_nested_quad(shell_quad):
    # accurate window integral minus the trapezoid of the stored row
    k = power_tail_kernel(2, 2.8)
    tab = KernelTables(k, 0.25)
    reach = tab._kink_reach()
    tab.ensure(300 + reach + 1)
    corr = tab._kink_corrections(301)
    for i in (1, 5, 50, 300):
        lo, hi = max(0, i - reach), i + reach
        exact = shell_quad(k, i * tab.dr, lo * tab.dr, hi * tab.dr)
        trap = np.trapezoid(tab.row_values(i, hi + 1)[lo:], dx=tab.dr)
        assert abs(corr[i] - (exact - trap)) <= 1e-12, (i, corr[i], exact - trap)


def test_kink_corrections_read_filled_rows(monkeypatch):
    # a window reads stored entries only: rows past its end are filled as
    # whole 32-row blocks, and nothing else is evaluated
    calls = []
    inner = kernels._j_tilde_panels

    def counting(*args, **kw):
        calls.append(1)
        return inner(*args, **kw)

    monkeypatch.setattr(kernels, "_j_tilde_panels", counting)
    tab = KernelTables(power_tail_kernel(2, 2.8), 0.25)
    reach = tab._kink_reach()
    tab.ensure(60, 60)
    filled = len(calls)
    # rows 1..31 (row 0 is the exact center formula) in one call of 496
    # entries, rows 32..63 in two of 1,024 and 496
    assert filled == 3
    assert tab.rows_filled == 64
    tab._kink_corrections(64 - reach)  # every window ends below column 64
    assert len(calls) == filled
    assert tab.rows_filled == 64
    tab._kink_corrections(64 - reach + 1)  # the last window reaches column 64
    # rows 64..95: 1,552 near entries and 24 x 24 far samples, 1,024 per call
    assert len(calls) == filled + 3
    assert tab.rows_filled == 96


def test_kink_corrections_grow_row_by_row():
    # window masses come in blocks; trapezoids read whatever columns are filled
    k = power_tail_kernel(3, 3.8)
    step, once = KernelTables(k, 0.25), KernelTables(k, 0.25)
    for n in range(1, 71):
        step.tail_mass_vector(n, n - 1)
    once.ensure(70)
    assert np.abs(step._kink_corrections(70) - once._kink_corrections(70)).max() <= 1e-15


def test_kink_corrections_come_once_per_filled_block():
    # a front that grows a row at a time corrects every row whose window is
    # filled when it first asks, and then reads them until the next block
    tab = KernelTables(power_tail_kernel(2, 2.8), 0.25)
    reach = tab._kink_reach()
    tab.tail_mass_vector(10, 9)
    assert tab.rows_filled == 32
    corr = tab._kink_corr
    assert corr.size == 32 - reach
    for n in range(11, 33 - reach):
        tab.tail_mass_vector(n, n - 1)
    assert tab._kink_corr is corr
    tab.tail_mass_vector(33 - reach, 32 - reach)
    assert tab.rows_filled == 64
    assert tab._kink_corr.size == 64 - reach
    assert np.array_equal(tab._kink_corr[:corr.size], corr)


def test_dense_cache_restores_kink_corrections(tmp_path, count_rows):
    k = power_tail_kernel(2, 3.5)
    tab = KernelTables(k, 0.25)
    tail = tab.tail_mass_vector(40, 39)
    path = str(tmp_path / "t.nlfbkt")
    tab.save(path)
    assert os.listdir(tmp_path) == ["t.nlfbkt"]  # no temporary file left behind
    fresh = KernelTables(k, 0.25)
    before = count_rows["calls"]
    assert fresh.load(path)
    assert fresh.rows_filled == 64  # the block holding the kink windows of rows < 40
    assert np.array_equal(fresh.tail_mass_vector(40, 39), tail)
    assert fresh._kink_corrections(40).tobytes() == tab._kink_corrections(40).tobytes()
    assert fresh.row_values(7, 40).tobytes() == tab.row_values(7, 40).tobytes()
    assert count_rows["calls"] == before


def test_loaded_dense_table_takes_window_masses_for_new_rows_only(tmp_path, monkeypatch):
    # 56 corrections saved; 80 rows need 88, so rows 56..87 are new: one block of 32
    k = power_tail_kernel(2, 3.5)
    tab = KernelTables(k, 0.25)
    tab.tail_mass_vector(40, 39)
    assert tab._kink_corr.size == 56
    path = str(tmp_path / "t.nlfbkt")
    tab.save(path)
    fresh = KernelTables(k, 0.25)
    assert fresh.load(path)
    rows = []
    inner = kernels.shell_mass

    def counting(kernel, r, a, b):
        rows.append(np.size(r))
        return inner(kernel, r, a, b)

    monkeypatch.setattr(kernels, "shell_mass", counting)
    tail = fresh.tail_mass_vector(80, 79)
    assert sum(rows) == 32
    monkeypatch.undo()
    assert np.array_equal(tail, KernelTables(k, 0.25).tail_mass_vector(80, 79))


@pytest.mark.parametrize("dense", [False, True])
def test_truncated_cache_leaves_table_unchanged(tmp_path, disc2, dense):
    kernel = power_tail_kernel(2, 3.5) if dense else disc2
    big = KernelTables(kernel, 0.1)
    big.ensure(30)
    path = str(tmp_path / "t.nlfbkt")
    big.save(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    with open(path, "wb") as fh:
        fh.write(raw[:len(raw) // 2])
    tab = KernelTables(kernel, 0.1)
    tab.ensure(10)
    # a dense table fills a 32-row block, a band table its first capacity, 16 rows
    filled = 32 if dense else 16
    assert tab.rows_filled == filled
    rows = np.stack([tab.row_values(i, 10) for i in range(10)])
    assert not tab.load(path)
    assert tab.rows_filled == filled
    assert np.array_equal(np.stack([tab.row_values(i, 10) for i in range(10)]), rows)


def test_cache_rejects_mismatch(tmp_path, disc2, ball3):
    tab = KernelTables(disc2, 0.1)
    tab.ensure(10)
    path = str(tmp_path / "t.nlfbkt")
    tab.save(path)
    assert not KernelTables(ball3, 0.1).load(path)
    assert not KernelTables(disc2, 0.05).load(path)


def test_cache_rejects_the_angular_disc(tmp_path, disc2):
    # a table filled by the angular rule (uniform_height cleared) keys its file
    # apart from the disc's, which takes the cap formula and does not adopt it
    angular = KernelTables(dataclasses.replace(disc2, uniform_height=None), 0.1)
    angular.ensure(10)
    path = str(tmp_path / "t.nlfbkt")
    angular.save(path)
    assert not KernelTables(uniform_kernel(2), 0.1).load(path)
    assert KernelTables(dataclasses.replace(disc2, uniform_height=None), 0.1).load(path)


def test_cache_ignores_corrupt_file(tmp_path, disc2):
    path = str(tmp_path / "junk.nlfbkt")
    with open(path, "wb") as fh:
        fh.write(b"NLFBKT1\x00garbage")
    tab = KernelTables(disc2, 0.1)
    assert not tab.load(path)
    assert not tab.load(str(tmp_path / "missing.nlfbkt"))
    tab.ensure(5)  # still usable after a failed load
    assert tab.rows_filled == 16  # a band table fills its first capacity


def test_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("NLFB_CACHE_DIR", str(tmp_path))
    assert cache_dir() == str(tmp_path)
    monkeypatch.delenv("NLFB_CACHE_DIR")
    assert cache_dir() == os.path.join(".", ".nlfb_cache")


def test_dense_growth_matches_single_fill():
    """Growing a dense table in uneven steps gives the entries of one fill."""
    k = power_tail_kernel(2, 3.5)
    tab = KernelTables(k, 0.25)
    for n in [5, 23, 9, 41, 17, 60, 33, 50]:
        tab.ensure(n, n + 1)
    tab.ensure(61)
    single = KernelTables(k, 0.25)
    single.ensure(61)
    assert tab.rows_filled == 64
    block = np.stack([tab.row_values(i, 61) for i in range(61)])
    expect = np.stack([single.row_values(i, 61) for i in range(61)])
    assert np.array_equal(block, expect)


def test_rejects_nonpositive_dr(disc2):
    with pytest.raises(ValueError):
        KernelTables(disc2, 0.0)
