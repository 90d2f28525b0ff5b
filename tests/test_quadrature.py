import math

import numpy as np

from nlfb.quadrature import gl_panels, graded_edges_around, octave_integral


def test_gl_exact_on_polynomials():
    # order-n Gauss is exact up to degree 2n-1
    val = gl_panels(lambda x: 3.0 * x ** 2, [0.0, 2.0], order=8)
    assert abs(val - 8.0) < 1e-13


def test_gl_panels_additive():
    f = np.sin
    whole = gl_panels(f, [0.0, 3.0], 32)
    split = gl_panels(f, [0.0, 1.0, 2.5, 3.0], 32)
    assert abs(whole - split) < 1e-13


def test_gl_panels_edge_array_matches_one_list_calls():
    def f(x):
        return np.exp(-x) * np.cos(3.0 * x)

    edges = np.sort(np.random.default_rng(5).uniform(0.0, 3.0, (4, 5)), axis=1)
    rows = gl_panels(f, edges, 16)
    assert rows.shape == (4,)
    for e, row in zip(edges, rows):
        assert abs(row - gl_panels(f, e, 16)) <= 1e-15


def test_gl_panels_calls_f_once():
    shapes = []

    def f(x):
        shapes.append(x.shape)
        return x * x

    assert abs(gl_panels(f, [0.0, 0.5, 1.0, 3.0], 8) - 9.0) < 1e-13
    assert shapes == [(3 * 8,)]
    shapes.clear()
    vals = gl_panels(f, np.array([[0.0, 1.0, 2.0], [0.0, 0.5, 3.0]]), 8)
    assert np.abs(vals - [8.0 / 3.0, 9.0]).max() < 1e-13
    assert shapes == [(2, 2 * 8)]


def test_gl_panels_k_integrals_from_one_edge_list():
    # int_0^2 x^p dx for p = 0..3 at once, f returning (k, nodes)
    ps = np.arange(4.0)
    vals = gl_panels(lambda x: x[None, :] ** ps[:, None], [0.0, 1.0, 2.0], 4)
    assert vals.shape == (4,)
    assert np.abs(vals - 2.0 ** (ps + 1) / (ps + 1)).max() < 1e-13


def test_graded_edges_stay_inside_interval():
    # the center may lie left of, inside or right of [a, b]
    for center in (-3.0, -0.2, 0.0, 0.4, 1.0, 1.7, 5.0):
        for first in (0.01, 0.5, 2.0):
            e = graded_edges_around(center, 0.0, 1.0, first)
            assert e[0] == 0.0 and e[-1] == 1.0, (center, first, e)
            assert np.all(np.diff(e) > 0.0), (center, first, e)
    assert list(graded_edges_around(5.0, 0.0, 1.0, 0.5)) == [0.0, 1.0]


def test_graded_edges_refine_toward_center():
    e = graded_edges_around(1.0, 0.0, 4.0, first=0.125)
    assert e[0] == 0.0 and e[-1] == 4.0
    gaps = np.diff(e)
    k = np.searchsorted(e, 1.0)
    # the panels adjacent to the center are the smallest
    assert gaps[k - 1] <= gaps.min() + 1e-15


def test_tail_integral_power_law():
    # int_1^inf x^-p dx = 1/(p - 1), even where the octaves shrink slowly
    for p in (1.05, 1.5, 3.0):
        val = octave_integral(lambda x: x ** -p, 1.0)
        assert abs(val - 1.0 / (p - 1.0)) < 1e-10 / (p - 1.0), p
    for p in (0.9, 1.0):
        assert octave_integral(lambda x: x ** -p, 1.0) == math.inf, p
    # k integrals at once: int_1^inf x^-p dx per row, inf in the divergent row
    ps = np.array([1.05, 3.0, 1.0])
    rows = octave_integral(lambda x: x[None, :] ** -ps[:, None], 1.0)
    assert rows.shape == (3,)
    assert np.abs(rows[:2] * (ps[:2] - 1.0) - 1.0).max() < 1e-10
    assert rows[2] == math.inf


def test_octave_integral_log_divergent_from_zero():
    # int_0^inf dx / (c + x) diverges; for c < 1 the octave parts fall to
    # ln 2 and their ratio creeps up to 1 from below, which must not be
    # taken for a geometric tail
    for c in (0.25, 0.5, 1.0, 2.0):
        for first in (0.5, 1.0, 3.0):
            val = octave_integral(lambda x: 1.0 / (c + x), 0.0, first)
            assert val == math.inf, (c, first, val)
