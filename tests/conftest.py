"""Shared fixtures: kernels and kernel tables reused across test modules."""

import functools
import math

import numpy as np
import pytest
from scipy.integrate import quad

from nlfb import KernelTables, logistic, uniform_kernel, unit_sphere_area


@pytest.fixture(scope="session")
def disc2():
    return uniform_kernel(2, 1.0)


@pytest.fixture(scope="session")
def ball3():
    return uniform_kernel(3, 1.0)


@pytest.fixture(scope="session")
def tables_disc2(disc2):
    return KernelTables(disc2, 0.05)


@pytest.fixture(scope="session")
def tables_disc2_fine(disc2):
    return KernelTables(disc2, 0.01)


@pytest.fixture(scope="session")
def logistic_f():
    return logistic()


@pytest.fixture()
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def shell_quad():
    """int_a^b Jtilde(r, rho) d rho by nested scipy quad of the angular form.

    Jtilde(r, rho) = w_{N-1} rho^{N-1} int_0^pi sin^{N-2} t J(chord) dt, with
    chord^2 = (r - rho)^2 + 4 r rho sin^2(t/2) (no cancellation near t = 0).
    The inner integral splits at the angles of the kernel breakpoints and
    geometrically toward the peak at t = 0; the outer one at rho = r and at
    the tangencies |r - b|, r + b of every breakpoint b.  Results are cached.
    """

    @functools.lru_cache(maxsize=None)
    def integral(k, r, a, b):
        n = k.dim
        w = unit_sphere_area(n - 1)

        def jtilde(rho):
            def g(t):
                chord = math.sqrt((r - rho) ** 2 + 4.0 * r * rho * math.sin(0.5 * t) ** 2)
                return math.sin(t) ** (n - 2) * float(k(chord))

            pts = []
            if r * rho > 0.0:
                t = 1.0 / (1.0 + math.sqrt(r * rho))
                while t < math.pi:
                    pts.append(t)
                    t *= 4.0
                for bp in k.breakpoints:
                    c = (r * r + rho * rho - bp * bp) / (2.0 * r * rho)
                    if -1.0 < c < 1.0:
                        pts.append(math.acos(c))
            return w * rho ** (n - 1) * quad(g, 0.0, math.pi, epsabs=0.0, epsrel=1e-13,
                                             limit=400, points=sorted(pts) or None)[0]

        kinks = [r, *(abs(r - bp) for bp in k.breakpoints), *(r + bp for bp in k.breakpoints)]
        pts = sorted(p for p in kinks if a < p < b)
        return quad(jtilde, a, b, epsabs=0.0, epsrel=1e-13, limit=400, points=pts or None)[0]

    return integral
