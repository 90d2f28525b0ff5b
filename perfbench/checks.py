"""Checks of nlfb results against independent computations or properties.

Nothing here imports nlfb.  Fits are plain numpy least squares on the
second half of a run, oracles are closed-form geometry integrated with
scipy, and the remaining checks are properties the method must have
(monotonicity, sign changes, bounds).  Every check raises CheckFailed
with a message that names the offending numbers.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad

SPREADING = "Spreading"
VANISHING = "Vanishing"


class CheckFailed(Exception):
    """A result contradicts its oracle or a property the method must have."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def require_close(value: float, oracle: float, rel: float, what: str) -> None:
    err = abs(value - oracle) / abs(oracle)
    require(err <= rel, f"{what}: {value!r} vs {oracle!r} (rel {err:.3g} > {rel:g})")


# -- fits on the tail half of a trajectory -------------------------------------

def _tail_half(t: np.ndarray) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    return t >= 0.5 * t[-1]


def front_slope(t, h) -> float:
    """Least-squares slope of h against t over t >= t_end / 2."""
    t, h = np.asarray(t, dtype=float), np.asarray(h, dtype=float)
    m = _tail_half(t)
    return float(np.polyfit(t[m], h[m], 1)[0])


def lag_coefficient(t, h, c0: float) -> float:
    """a in c0 t - h(t) ~ a ln t + b, fitted over t >= t_end / 2."""
    t, h = np.asarray(t, dtype=float), np.asarray(h, dtype=float)
    m = _tail_half(t) & (t > 0.0)
    return float(np.polyfit(np.log(t[m]), c0 * t[m] - h[m], 1)[0])


def growth_exponent(t, h) -> float:
    """p in ln h ~ p ln t + q, fitted over t >= t_end / 2."""
    t, h = np.asarray(t, dtype=float), np.asarray(h, dtype=float)
    m = _tail_half(t) & (t > 0.0)
    return float(np.polyfit(np.log(t[m]), np.log(h[m]), 1)[0])


def check_front_speed(t, h, c0: float, rel: float = 0.05) -> None:
    require(math.isfinite(c0) and c0 > 0.0, f"c0 = {c0!r} is not a finite positive speed")
    require_close(front_slope(t, h), c0, rel, "front slope vs c0")


def check_log_lag(t, h, c0: float) -> None:
    a = lag_coefficient(t, h, c0)
    require(a > 0.0, f"ln t lag coefficient {a:.4g} is not positive")


def check_exponent_near(t, h, target: float, rel: float = 0.15) -> None:
    require_close(growth_exponent(t, h), target, rel, "growth exponent vs 1/(beta-N)")


def check_exponent_above(t, h, bound: float = 1.0) -> None:
    p = growth_exponent(t, h)
    require(p > bound, f"growth exponent {p:.4g} is not above {bound:g}")


def check_invariants(h, hdot, u_max, profiles, u_star: float = 1.0) -> None:
    """0 <= u <= u_star, h non-decreasing and hdot >= 0 along a run."""
    h, hdot, u_max = (np.asarray(x, dtype=float) for x in (h, hdot, u_max))
    require(bool(np.all(np.diff(h) >= 0.0)), "h decreases along the run")
    require(bool(np.all(hdot >= 0.0)), f"hdot takes negative values (min {hdot.min():.3g})")
    top = u_star * (1.0 + 1e-12)
    require(bool(np.all(u_max <= top)), f"u exceeds u* = {u_star:g} (max {u_max.max()!r})")
    for u in profiles:
        require(bool(np.all(np.asarray(u) >= 0.0)), "a profile takes negative values")
        require(bool(np.all(np.asarray(u) <= top)), "a profile exceeds u*")


def check_infinite_speed(c) -> None:
    require(c == math.inf, f"speed {c!r} should be infinite for a divergent N-th moment")


# -- initial boundary speed oracles ---------------------------------------------

def lens_area(dist: float, r1: float, r2: float) -> float:
    """Area of the intersection of two discs with centres dist apart."""
    if dist >= r1 + r2:
        return 0.0
    if dist <= abs(r1 - r2):
        return math.pi * min(r1, r2) ** 2
    a1 = r1 * r1 * math.acos((dist * dist + r1 * r1 - r2 * r2) / (2.0 * dist * r1))
    a2 = r2 * r2 * math.acos((dist * dist + r2 * r2 - r1 * r1) / (2.0 * dist * r2))
    kite = 0.5 * math.sqrt(max((-dist + r1 + r2) * (dist + r1 - r2)
                               * (dist - r1 + r2) * (dist + r1 + r2), 0.0))
    return a1 + a2 - kite


def ball_overlap(dist: float, r1: float, r2: float) -> float:
    """Volume of the intersection of two balls with centres dist apart."""
    if dist >= r1 + r2:
        return 0.0
    if dist <= abs(r1 - r2):
        return 4.0 / 3.0 * math.pi * min(r1, r2) ** 3
    return (math.pi * (r1 + r2 - dist) ** 2
            * (dist * dist + 2.0 * dist * (r1 + r2) - 3.0 * (r1 - r2) ** 2)
            / (12.0 * dist))


def uniform_outward_mass(dim: int, r: float, h: float) -> float:
    """Mass of the uniform unit-ball kernel centred at |x| = r lying beyond |y| = h."""
    if dim == 2:
        return 1.0 - lens_area(r, h, 1.0) / math.pi
    return 1.0 - ball_overlap(r, h, 1.0) / (4.0 / 3.0 * math.pi)


def hdot0_oracle(dim: int, h0: float, u0, outward, mu: float = 1.0) -> float:
    """h'(0) = mu / h0^(N-1) * int_0^h0 r^(N-1) u0(r) outward(r) dr by scipy quad."""
    val = quad(lambda r: r ** (dim - 1) * u0(r) * outward(r), 0.0, h0, limit=200)[0]
    return mu * val / h0 ** (dim - 1)


# -- eigenvalue problem ----------------------------------------------------------

def check_lambda_ladder(L, lam, d: float, a: float) -> None:
    """lambda1 strictly increasing, near a - d at the first rung and a at L = 60."""
    L, lam = np.asarray(L, dtype=float), np.asarray(lam, dtype=float)
    require(bool(np.all(np.diff(lam) > 0.0)), f"lambda1 is not increasing in L: {lam.tolist()}")
    require(abs(lam[0] - (a - d)) < 0.02,
            f"lambda1({L[0]:g}) = {lam[0]:.5g} is not within 0.02 of a - d = {a - d:g}")
    require(L[-1] >= 60.0 and abs(lam[-1] - a) < 0.05,
            f"lambda1({L[-1]:g}) = {lam[-1]:.5g} is not within 0.05 of a = {a:g}")


def dense_lambda1(G, w, d: float, a: float) -> float:
    """Largest real eigenvalue of d G diag(w) - d + a by numpy's dense solver."""
    M = d * np.asarray(G) * np.asarray(w)[None, :]
    return float(np.linalg.eigvals(M).real.max()) - d + a


def check_sign_change(lam_lo: float, lam_hi: float) -> None:
    require(lam_lo < 0.0 <= lam_hi,
            f"lambda1 does not change sign across the L* bracket ({lam_lo:.3g}, {lam_hi:.3g})")


def check_mu_star(mu_lo: float, mu_hi: float, history) -> None:
    """Bracket ends Vanishing / Spreading and verdicts monotone in mu."""
    verdicts = dict(history)
    require(mu_lo < mu_hi, f"empty mu* bracket [{mu_lo:g}, {mu_hi:g}]")
    require(verdicts.get(mu_lo) == VANISHING,
            f"mu_lo = {mu_lo:g} gave {verdicts.get(mu_lo)!r}, not {VANISHING}")
    require(verdicts.get(mu_hi) == SPREADING,
            f"mu_hi = {mu_hi:g} gave {verdicts.get(mu_hi)!r}, not {SPREADING}")
    seen_spreading = False
    for mu in sorted(verdicts):
        if verdicts[mu] == SPREADING:
            seen_spreading = True
        require(not (seen_spreading and verdicts[mu] == VANISHING),
                f"mu* history is not monotone: {sorted(verdicts.items())}")


def check_steady_state(u, u_star: float = 1.0) -> None:
    u = np.asarray(u, dtype=float)
    require(bool(np.all(u > 0.0)), f"steady state is not positive (min {u.min():.3g})")
    require(bool(np.all(u <= u_star * (1.0 + 1e-9))),
            f"steady state exceeds u* = {u_star:g} (max {u.max()!r})")


# -- sweeps ----------------------------------------------------------------------

def check_sweep_rows(values, verdicts, h_finals, errors) -> None:
    """Every row Spreading without error, h_final strictly increasing in mu."""
    values, h_finals = np.asarray(values, dtype=float), np.asarray(h_finals, dtype=float)
    for v, verdict, err in zip(values, verdicts, errors):
        require(not err and verdict == SPREADING,
                f"row mu = {v:g} gave {verdict!r} {err}".rstrip())
    require(bool(np.all(np.diff(values) > 0.0)), "sweep values are not increasing")
    require(bool(np.all(np.diff(h_finals) > 0.0)),
            f"h_final does not increase in mu: {h_finals.tolist()}")


def check_same_run(h_row: float, h_single: float, rel: float = 1e-12) -> None:
    require_close(h_row, h_single, rel, "sweep row vs single run h_final")
