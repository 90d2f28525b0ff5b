"""Monostable (KPP-type) reaction terms.

A reaction f satisfies f(0) = 0 < f'(0), has a unique positive zero
u_star, and f(u) < 0 for u > u_star.  The lipschitz bound on [0, M] is
what the explicit time-stepping stability check needs.  f(u) returns a
new array, into which the explicit update is accumulated.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class Reaction:
    f: Callable[[np.ndarray], np.ndarray]
    fprime0: float
    u_star: float
    label: str = ""
    #: f(u) <= f'(0) u on u >= 0, set only where a constructor below proves it
    kpp: bool = field(default=False, init=False, compare=False)

    def __call__(self, u):
        return self.f(np.asarray(u, dtype=float))

    def lipschitz(self, m: float) -> float:
        """max |f'| over [0, m], by dense sampling of a difference quotient."""
        u = np.linspace(0.0, max(m, 1e-6), 2001)
        fu = self(u)
        return float(np.abs(np.diff(fu) / np.diff(u)).max())


def logistic(scale: float = 1.0) -> Reaction:
    """f(u) = scale * u * (1 - u); f'(0) = scale, u_star = 1."""
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    reaction = Reaction(f=lambda u: scale * u * (1.0 - u), fprime0=scale, u_star=1.0,
                        label=f"logistic(scale={scale:g})")
    object.__setattr__(reaction, "kpp", True)  # scale u (1 - u) <= scale u
    return reaction


def tabulated(u_points, f_points) -> Reaction:
    """Piecewise-linear reaction through the given samples.

    Requires f(0) = 0, a positive initial slope, and exactly one sign
    change back through zero (the positive equilibrium u_star).
    """
    u_points = np.asarray(u_points, dtype=float)
    f_points = np.asarray(f_points, dtype=float)
    if u_points[0] != 0.0 or f_points[0] != 0.0:
        raise ValueError("table must start at (0, 0)")
    fp0 = (f_points[1] - f_points[0]) / (u_points[1] - u_points[0])
    if fp0 <= 0.0:
        raise ValueError("need f'(0) > 0")
    sign_drops = np.nonzero((f_points[:-1] > 0) & (f_points[1:] <= 0))[0]
    if sign_drops.size != 1:
        raise ValueError("need exactly one positive equilibrium")
    k = sign_drops[0]
    # linear interpolation of the zero crossing
    u_star = u_points[k] + f_points[k] * (u_points[k + 1] - u_points[k]) \
        / (f_points[k] - f_points[k + 1])

    def f(u):
        return np.interp(u, u_points, f_points)

    reaction = Reaction(f=f, fprime0=float(fp0), u_star=float(u_star), label="tabulated")
    # f - f'(0) u is linear between the points and falls beyond the last one;
    # fp0 is f_1 / u_1 itself, so the first point passes exactly
    object.__setattr__(reaction, "kpp", bool(np.all(f_points[1:] / u_points[1:] <= fp0)))
    return reaction
