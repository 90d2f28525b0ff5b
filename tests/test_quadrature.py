import math

import numpy as np

from nlfb.quadrature import (gl_integrate, gl_panels, graded_edges_around,
                             octave_integral)


def test_gl_exact_on_polynomials():
    # order-n Gauss is exact up to degree 2n-1
    val = gl_integrate(lambda x: 3.0 * x ** 2, 0.0, 2.0, order=8)
    assert abs(val - 8.0) < 1e-13


def test_gl_panels_additive():
    f = np.sin
    whole = gl_integrate(f, 0.0, 3.0, 32)
    split = gl_panels(f, [0.0, 1.0, 2.5, 3.0], 32)
    assert abs(whole - split) < 1e-13


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
