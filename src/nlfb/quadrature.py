"""Gauss-Legendre panel quadrature helpers.

Every integral in the kernel machinery is a sum of fixed-order
Gauss-Legendre panels, so results are deterministic: no adaptive
subdivision is driven by error estimates.  gl_panels is the one panel
rule: it calls the integrand once, on the nodes of every panel of one
edge list or of k lists.  Only kernels._j_tilde_panels loops over its
panels itself: all its panels at once raise the peak memory of a dense
fat-tail table fill, and one call per panel is slower (measured there).

Half-line integrals int_a^inf f go through octave_integral, which sums
panels [a, a + w], [a + w, a + 3w], ... whose widths double, so a
power-law integrand costs a fixed number of nodes per octave.  After
each octave one of three rules may end the sum:

* converged: the octave added at most OCTAVE_REL_TOL of the total;
* geometric tail: successive octave parts shrink by a ratio q that has
  settled (two successive ratios agree to OCTAVE_Q_TOL) and stays clear
  of 1 (q in (0, OCTAVE_Q_MAX)), as for an integrand ~ x^-p with p > 1,
  where q -> 2^(1-p); the rest of the series, part * q / (1 - q), is
  added in closed form;
* divergent: math.inf once OCTAVE_CAP octaves pass without either.

The remainder is trusted only for q clear of 1.  A log-divergent
integrand such as 1/(c + x) with c < 1 has octave parts falling to ln 2,
so q creeps up to 1 from below by O(2^-k) and passes the settling test
about 2e-10 below 1, where part * q / (1 - q) would be ~1e10 instead of
inf.  Its relative error is about OCTAVE_Q_TOL / (1 - q) in any case.

A ratio q >= 1 is never read as divergence: s -> J(sqrt(l^2 + s^2))
s^(N-2) grows by a factor close to 2^(N-1) per octave while s << l and
decays only beyond s ~ l.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

#: Gauss-Legendre order of every octave panel
OCTAVE_ORDER = 96
#: an octave below this fraction of the running total ends the sum
OCTAVE_REL_TOL = 1e-12
#: two successive octave ratios this close count as a settled geometric tail
OCTAVE_Q_TOL = 1e-10
#: largest settled octave ratio whose geometric remainder is added
OCTAVE_Q_MAX = 1.0 - 1e-6
#: octaves summed before an integral is declared divergent
OCTAVE_CAP = 100


@lru_cache(maxsize=32)
def gl_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the order-point Gauss-Legendre rule on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(order)
    return x, w


def gl_panels(f, edges, order: int = 64):
    """Integrate f over the panels between consecutive sorted edges.

    edges is one edge list (the result is a float) or a (k, p+1) array of
    k lists (a length-k array).  f is called once, on nodes of shape
    (p*order,) or (k, p*order); from 1-D nodes it may return (k, nodes).
    """
    x, w = gl_rule(order)
    e = np.asarray(edges, dtype=float)
    half = 0.5 * np.diff(e, axis=-1)
    nodes = e[..., :-1, None] + half[..., None] * (x + 1.0)
    vals = np.asarray(f(nodes.reshape(*e.shape[:-1], -1)), dtype=float)
    parts = vals.reshape(*vals.shape[:-1], half.shape[-1], order) @ w
    return (half * parts).sum(axis=-1)


def graded_edges_around(center: float, a: float, b: float, first: float = 0.5) -> np.ndarray:
    """Panel edges on [a, b] refined geometrically toward `center`.

    For integrands peaked at `center` (e.g. rho -> Jtilde(r, rho) peaks at
    rho = r) this resolves the peak without wasting nodes on the tails.
    """
    if b <= a:
        return np.array([a, a])
    pts = {a, b}
    if a < center < b:
        pts.add(center)
    step = first
    lo, hi = center - step, center + step
    while lo > a or hi < b:
        if a < lo < b:
            pts.add(lo)
        if a < hi < b:
            pts.add(hi)
        step *= 2.0
        lo, hi = center - step, center + step
    return np.array(sorted(pts))


def octave_integral(f, a: float = 0.0, first: float = 1.0):
    """int_a^inf f by octave-doubling panels; math.inf when divergent.

    f maps an array of nodes to one value per node, or to a (k, nodes)
    array for k integrals at once; the result is then a length-k array,
    finished when every entry meets one of the stopping rules, with inf
    in the entries that meet none within OCTAVE_CAP octaves.
    """
    lo, width = a, first
    total = 0.0
    prev = q_prev = math.nan
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(OCTAVE_CAP):
            part = gl_panels(f, [lo, lo + width], OCTAVE_ORDER)
            total = total + part
            lo += width
            width *= 2.0
            q = part / prev
            converged = np.abs(part) <= OCTAVE_REL_TOL * np.abs(total)
            geometric = (q > 0.0) & (q < OCTAVE_Q_MAX) & (np.abs(q - q_prev) <= OCTAVE_Q_TOL)
            if np.all(converged | geometric):
                break
            prev, q_prev = part, q
        out = np.where(converged | geometric,
                       total + np.where(geometric, part * q / (1.0 - q), 0.0),
                       math.inf)
    return float(out) if out.ndim == 0 else out
