import os
import struct
import threading

import numpy as np
import pytest

from nlfb import (KernelTables, j_tilde, j_tilde_row, kernels, power_tail_kernel,
                  uniform_kernel)
from nlfb.tables import FILL_ORDER, cache_dir


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


def test_values_match_direct_evaluation(tables_disc2, disc2):
    tab = tables_disc2
    for i, j in ((0, 10), (7, 12), (25, 30), (30, 25), (40, 40)):
        direct = j_tilde(disc2, i * tab.dr, j * tab.dr)
        assert abs(tab.value(i, j) - direct) < 1e-8, (i, j)


def test_banded_zero_outside_band(tables_disc2):
    tab = tables_disc2
    assert tab.value(10, 10 + tab.bw + 5) == 0.0
    assert tab.value(80, 10) == 0.0


def test_dense_table_values():
    k = power_tail_kernel(2, 3.5)
    tab = KernelTables(k, 0.2)
    assert not tab.banded
    for i, j in ((0, 4), (3, 9), (9, 3)):
        direct = j_tilde(k, i * tab.dr, j * tab.dr)
        assert abs(tab.value(i, j) - direct) < 1e-8


def test_dense_growth_mirrors_columns():
    k = power_tail_kernel(2, 3.5)
    tab = KernelTables(k, 0.25)
    tab.ensure(4, 4)
    tab.ensure(40, 40)  # forces capacity growth; column 35 of row 2 is mirrored
    direct = j_tilde(k, 2 * 0.25, 35 * 0.25)
    assert abs(tab.value(2, 35) - direct) < 1e-8


@pytest.mark.parametrize("dim, beta", [(2, 2.8), (3, 3.8)])
def test_dense_triangle_fill_across_growth(dim, beta, count_rows):
    k = power_tail_kernel(dim, beta)
    dr = 0.25
    tab = KernelTables(k, dr)
    for n in (4, 17, 40, 90):  # 4 -> 17 and 40 -> 90 grow the capacity
        tab.ensure(n, n)
        assert tab.rows_filled == n
    n = 90
    assert count_rows["entries"] <= n * (n + 1) // 2 + n
    pairs = [(0, 3), (0, 50), (0, 89), (3, 0), (60, 0), (2, 85), (85, 2),
             (16, 17), (17, 16), (39, 41), (41, 39), (10, 10), (89, 89),
             (30, 70), (70, 30)]
    for i, j in pairs:
        direct = j_tilde(k, i * dr, j * dr)
        assert abs(tab.value(i, j) - direct) < 1e-8, (i, j)
    # the mirrored upper triangle against direct quadrature of each row
    for i in range(1, n - 1):
        rho = np.arange(i + 1, n) * dr
        direct = j_tilde_row(k, i * dr, rho, FILL_ORDER)
        got = tab.row_values(i, n)[i + 1:]
        assert np.all(np.abs(got - direct) <= 1e-13 * np.abs(direct)), i


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


def test_jstar_cache_and_moment(tables_disc2, disc2):
    from nlfb import j_star
    vals = tables_disc2.jstar_vals(10)
    direct = j_star(disc2, np.arange(10) * tables_disc2.dr)
    assert np.abs(vals - direct).max() < 1e-10
    assert abs(tables_disc2.moment1_jstar - 2.0 / (3.0 * np.pi)) < 1e-8


def test_cache_round_trip(tmp_path, disc2):
    tab = KernelTables(disc2, 0.1)
    tab.ensure(30)
    path = str(tmp_path / "t.nlfbkt")
    tab.save(path)
    fresh = KernelTables(disc2, 0.1)
    assert fresh.load(path)
    assert fresh.rows_filled == 30
    for i, j in ((3, 7), (20, 25)):
        assert fresh.value(i, j) == tab.value(i, j)


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
    assert fresh.rows_filled == 40
    assert np.array_equal(fresh.tail_mass_vector(40, 39), tail)
    assert fresh._kink_corrections(40).tobytes() == tab._kink_corrections(40).tobytes()
    assert fresh.row_values(7, 40).tobytes() == tab.row_values(7, 40).tobytes()
    assert count_rows["calls"] == before


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
    rows = np.stack([tab.row_values(i, 10) for i in range(10)])
    assert not tab.load(path)
    assert tab.rows_filled == 10
    assert np.array_equal(np.stack([tab.row_values(i, 10) for i in range(10)]), rows)


def test_cache_rejects_mismatch(tmp_path, disc2, ball3):
    tab = KernelTables(disc2, 0.1)
    tab.ensure(10)
    path = str(tmp_path / "t.nlfbkt")
    tab.save(path)
    assert not KernelTables(ball3, 0.1).load(path)
    assert not KernelTables(disc2, 0.05).load(path)


def test_cache_ignores_corrupt_file(tmp_path, disc2):
    path = str(tmp_path / "junk.nlfbkt")
    with open(path, "wb") as fh:
        fh.write(b"NLFBKT1\x00garbage")
    tab = KernelTables(disc2, 0.1)
    assert not tab.load(path)
    assert not tab.load(str(tmp_path / "missing.nlfbkt"))
    tab.ensure(5)  # still usable after a failed load
    assert tab.rows_filled == 5


def test_cache_dir_env(monkeypatch, tmp_path):
    monkeypatch.setenv("NLFB_CACHE_DIR", str(tmp_path))
    assert cache_dir() == str(tmp_path)
    monkeypatch.delenv("NLFB_CACHE_DIR")
    assert cache_dir() == os.path.join(".", ".nlfb_cache")


def test_concurrent_fills_are_consistent(disc2):
    tab = KernelTables(disc2, 0.1)
    results = [None] * 8

    def worker(idx):
        tab.ensure(20 + 3 * idx)
        results[idx] = tab.value(5, 8)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({r for r in results}) == 1
    direct = j_tilde(disc2, 0.5, 0.8)
    assert abs(results[0] - direct) < 1e-8


def test_concurrent_dense_growth_matches_serial_fill():
    import sys

    k = power_tail_kernel(2, 3.5)
    tab = KernelTables(k, 0.25)
    sizes = [5, 23, 9, 41, 17, 60, 33, 50]
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=tab.ensure, args=(n, n + 1)) for n in sizes]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    serial = KernelTables(k, 0.25)
    serial.ensure(61)
    assert tab.rows_filled == 61
    block = np.stack([tab.row_values(i, 61) for i in range(61)])
    expect = np.stack([serial.row_values(i, 61) for i in range(61)])
    assert np.array_equal(block, expect)


def test_rejects_nonpositive_dr(disc2):
    with pytest.raises(ValueError):
        KernelTables(disc2, 0.0)
