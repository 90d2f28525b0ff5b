"""Explicit time stepping of the radial nonlocal free boundary problem.

State: u on the uniform grid r_i = i * dr for r_i <= h(t), plus the
moving boundary radius h where u vanishes.  One step updates

    u_i += dt * [ d ( int_0^h Jtilde(r_i, rho) u(rho) d rho - u_i ) + f(u_i) ]
    h   += dt * mu / h^{N-1} * int_0^h r^{N-1} u(r) T(r, h) dr

with trapezoid quadrature including the partial cell [r_m, h] (the
boundary value u(h) = 0 is exact), and T(r, h) = int_h^inf Jtilde(r, rho) d rho
the kernel mass leaking beyond the boundary, read from the table at the
fractional column h / dr.  The grid only grows: nodes crossed by h are
appended with value 0, the boundary value at crossing time.  Each state
is evaluated once: _slopes gives both slopes and the mass from one set
of weights, _advance is the time-stepping scheme, run records the rest.

The explicit scheme is stable under dt * (d + Lip f) < 0.9 because the
nonlocal operator is bounded; under that condition the update is also
monotone in (u, h), which preserves the comparison principle at the
discrete level.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalError, SolvabilityError
from .kernels import RadialKernel, unit_sphere_area
from .reactions import Reaction
from .tables import KernelTables
from . import eigen as emod

SPREADING = "Spreading"
VANISHING = "Vanishing"
UNDECIDED = "Undecided"

#: the vanishing window needs h to grow slower than this times h0 per unit time
EPS_H_FACTOR = 1e-5
#: ... and max u to have fallen below this times u_star
EPS_U_FACTOR = 1e-3
#: find_mu_star doubles t_end of an Undecided run up to this times cfg.t_end
T_END_FACTOR = 8.0


@dataclass
class RunConfig:
    kernel: RadialKernel
    d: float
    mu: float
    reaction: Reaction
    h0: float
    u0_amplitude: float = 1.0
    u0: Callable[[np.ndarray], np.ndarray] | None = None
    dr: float = 0.05
    dt: float | None = None
    t_end: float = 100.0
    snapshot_stride: float = 0.0  # time between full profile snapshots; 0 = none

    def initial_profile(self, r: np.ndarray) -> np.ndarray:
        if self.u0 is not None:
            return np.asarray(self.u0(r), dtype=float)
        return self.u0_amplitude * (1.0 - (r / self.h0) ** 2)


@dataclass
class SimState:
    t: float
    h: float
    u: np.ndarray  # values at r_i = i*dr, i <= floor(h/dr)


@dataclass
class Trajectory:
    """One record per step: t_k, h(t_k), u(0, t_k) as u_center, max u as u_max;
    hdot[k] is the slope of the step that ended at t_k (h' at t_{k-1}), and
    hdot[0] = hdot[1] = h'(0); mass = |S^{N-1}| int_0^h r^{N-1} u dr, the
    solver's trapezoid rule with the boundary cell [r_m, h].  snapshots hold
    (t, r, u) every snapshot_stride from t = 0; meta the dt, dr, L_star and
    early-stop verdict."""

    t: np.ndarray
    h: np.ndarray
    hdot: np.ndarray
    u_center: np.ndarray
    u_max: np.ndarray
    mass: np.ndarray
    snapshots: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)


def initial_state(cfg: RunConfig) -> SimState:
    m = int(np.floor(cfg.h0 / cfg.dr + 1e-9))
    if m < 1:
        raise ValueError(f"h0 = {cfg.h0:g} < dr = {cfg.dr:g}: r = 0 alone carries no flux")
    r = np.arange(m + 1) * cfg.dr
    u = cfg.initial_profile(r)
    # the last node may lie 1e-9 * dr beyond h0, where u0 dips by ~1e-10
    if np.any(u < -1e-9 * max(1.0, float(np.abs(u).max()))):
        raise ValueError("initial profile must be nonnegative")
    return SimState(t=0.0, h=float(cfg.h0), u=np.clip(u, 0.0, None))


def _quad_weights(m: int, dr: float, h: float) -> np.ndarray:
    """Trapezoid weights on [0, h] for nodes 0..m plus the boundary cell."""
    w = np.full(m + 1, dr)
    w[0] = 0.5 * dr
    w[m] = 0.5 * dr + 0.5 * (h - m * dr)
    return w


def _slopes(u: np.ndarray, h: float, cfg: RunConfig,
            tables: KernelTables) -> tuple[np.ndarray, float, float]:
    """du/dt, dh/dt and the mass |S^{N-1}| int_0^h r^{N-1} u dr of one state."""
    m = u.size - 1
    dr = cfg.dr
    w = _quad_weights(m, dr, h)
    conv = tables.conv(w * u)
    dudt = cfg.d * (conv - u) + np.asarray(cfg.reaction(u))
    nm1 = cfg.kernel.dim - 1
    ru = (np.arange(m + 1) * dr) ** nm1 * u
    tail = tables.tail_mass_vector(m + 1, h / dr)
    flux = float(np.dot(w, ru * tail))
    mass = unit_sphere_area(cfg.kernel.dim) * float(np.dot(w, ru))
    return dudt, cfg.mu / h ** nm1 * flux, mass


def _advance(state: SimState, cfg: RunConfig, tables: KernelTables, dt: float,
             dudt: np.ndarray, hdot: float) -> SimState:
    """The scheme, from state's slopes: Euler, clipped at 0, on the grown grid."""
    u_new = state.u + dt * dudt
    h_new = state.h + dt * hdot
    low = u_new.min()
    if low < -1e-12 * max(1.0, np.abs(u_new).max()):
        raise NumericalError(
            f"scheme produced negative values ({low:g}); reduce dt or dr")
    np.clip(u_new, 0.0, None, out=u_new)
    m_new = int(np.floor(h_new / cfg.dr + 1e-9))
    if m_new > u_new.size - 1:
        u_new = np.concatenate((u_new, np.zeros(m_new - (u_new.size - 1))))
    return SimState(t=state.t + dt, h=float(h_new), u=u_new)


def step(state: SimState, cfg: RunConfig, tables: KernelTables,
         dt: float) -> tuple[SimState, float]:
    """One explicit step; returns (new state, hdot at the old time)."""
    dudt, hdot, _ = _slopes(state.u, state.h, cfg, tables)
    return _advance(state, cfg, tables, dt, dudt, hdot), hdot


def _stability_rate(cfg: RunConfig) -> float:
    u0_max = float(np.abs(cfg.initial_profile(np.linspace(0.0, cfg.h0, 512))).max())
    return cfg.d + cfg.reaction.lipschitz(max(u0_max, cfg.reaction.u_star))


def default_dt(cfg: RunConfig) -> float:
    return 0.4 / _stability_rate(cfg)


def run(cfg: RunConfig, tables: KernelTables | None = None,
        early_stop: bool = False, L_star: float | None = None) -> Trajectory:
    """Advance the simulation to t_end; deterministic given the config.

    With early_stop the run halts as soon as the final verdict is
    certain: h has reached the threshold radius (spreading is then
    guaranteed) or the vanishing heuristic has latched.
    """
    if cfg.t_end < 0.0:
        raise ValueError(f"t_end = {cfg.t_end:g} must be nonnegative")
    if tables is None:
        tables = KernelTables(cfg.kernel, cfg.dr)
    dt = cfg.dt if cfg.dt is not None else default_dt(cfg)
    if cfg.dt is not None and cfg.dt * _stability_rate(cfg) >= 0.9:
        raise NumericalError(
            "explicit stability violated: dt * (d + Lip f) must stay below 0.9")
    if early_stop and L_star is None and cfg.reaction.fprime0 < cfg.d:
        L_star = _L_star_or_inf(cfg, tables)

    state = initial_state(cfg)
    n_steps = int(math.ceil(cfg.t_end / dt - 1e-12))
    # columns in Trajectory field order: t, h, hdot, u_center, u_max, mass
    rec = np.empty((n_steps + 1, 6))
    snapshots = []
    next_snap = 0.0 if cfg.snapshot_stride > 0 else math.inf
    stopped = None
    for k in range(n_steps + 1):
        if k:
            state = _advance(state, cfg, tables, dt, dudt, hdot)
        dudt, hdot, mass = _slopes(state.u, state.h, cfg, tables)
        rec[k] = state.t, state.h, hdot, state.u[0], state.u.max(), mass
        if state.t >= next_snap - 1e-12:
            snapshots.append((state.t, np.arange(state.u.size) * cfg.dr, state.u.copy()))
            next_snap += cfg.snapshot_stride
        if early_stop and k > 0 and k % 50 == 0:
            verdict = _verdict(rec[:k + 1, 0], rec[:k + 1, 1], rec[:k + 1, 4], cfg, L_star)
            if verdict != UNDECIDED:
                stopped = verdict
                break
    rec[1:k + 1, 2] = rec[:k, 2]  # hdot[k]: the slope of the step that ended at t_k
    return Trajectory(*rec[:k + 1].T.copy(), snapshots=snapshots,
                      meta={"dt": dt, "dr": cfg.dr, "L_star": L_star,
                            "early_verdict": stopped})


def _vanishing_window(t: np.ndarray, h: np.ndarray, u_max: np.ndarray,
                      cfg: RunConfig) -> bool:
    """Heuristic: boundary stalled and the solution is uniformly tiny."""
    if t.size < 20 or t[-1] <= 0.0:
        return False
    window = t >= t[-1] - 0.1 * (t[-1] - t[0])
    if window.sum() < 3:
        return False
    tw, hw, uw = t[window], h[window], u_max[window]
    span = tw[-1] - tw[0]
    if span <= 0.0:
        return False
    growth_rate = (hw[-1] - hw[0]) / span
    eps_h = EPS_H_FACTOR * cfg.h0
    eps_u = EPS_U_FACTOR * cfg.reaction.u_star
    return (growth_rate < eps_h and uw[-1] < eps_u
            and uw[-1] <= uw[0] * (1.0 + 1e-12))


def classify(traj: Trajectory, cfg: RunConfig,
             tables: KernelTables | None = None,
             L_star: float | None = None) -> str:
    """Spreading / Vanishing / Undecided verdict for a finished run.

    Spreading is certified through the eigenvalue threshold: once h(t)
    reaches the radius where the principal eigenvalue of the linearized
    operator turns nonnegative, spreading is guaranteed.  Vanishing is a
    finite-time heuristic (stalled boundary plus uniform decay) and is
    flagged as such in the metadata.
    """
    if traj.t.size < 20:
        raise ValueError("trajectory too short to classify (need 20 records)")
    if traj.meta.get("early_verdict"):
        return traj.meta["early_verdict"]
    if L_star is None:
        L_star = traj.meta.get("L_star")
    if L_star is None and cfg.reaction.fprime0 < cfg.d:
        L_star = _L_star_or_inf(cfg, tables or KernelTables(cfg.kernel, cfg.dr))
    return _verdict(traj.t, traj.h, traj.u_max, cfg, L_star)


def _L_star_or_inf(cfg: RunConfig, tables: KernelTables) -> float:
    """The threshold radius L_star, or inf where the eigenproblem has none."""
    try:
        return emod.find_L_star(cfg.d, cfg.reaction.fprime0, tables)[0]
    except SolvabilityError:
        return math.inf


def _verdict(t: np.ndarray, h: np.ndarray, u_max: np.ndarray, cfg: RunConfig,
             L_star: float | None) -> str:
    """The rule of run(early_stop=True) and classify: f'(0) >= d or h >= L_star
    spreads (L_star is unused when f'(0) >= d), then the vanishing window."""
    if cfg.reaction.fprime0 >= cfg.d or h.max() >= L_star:
        return SPREADING
    if _vanishing_window(t, h, u_max, cfg):
        return VANISHING
    return UNDECIDED


@dataclass
class MuStarResult:
    mu_lo: float
    mu_hi: float
    history: list  # (mu, verdict) in evaluation order
    warning: str | None = None


def find_mu_star(cfg_template: RunConfig, mu_bracket: tuple[float, float],
                 tol_mu: float = 0.05, tables: KernelTables | None = None) -> MuStarResult:
    """Bisect the threshold mu_star between vanishing and spreading.

    Requires f'(0) < d and h0 < L_star (otherwise spreading happens for
    every mu and no threshold exists).  The verdict is monotone in mu,
    so plain bisection in log mu applies; Undecided runs escalate t_end.
    """
    cfg = cfg_template
    if cfg.reaction.fprime0 >= cfg.d:
        raise SolvabilityError("f'(0) >= d: spreading for every mu, no threshold")
    if tables is None:
        tables = KernelTables(cfg.kernel, cfg.dr)
    L_star = emod.find_L_star(cfg.d, cfg.reaction.fprime0, tables)[0]
    if cfg.h0 >= L_star:
        raise SolvabilityError(
            f"h0 = {cfg.h0:g} >= L_star = {L_star:g}: spreading for every mu")

    history: list = []

    def verdict_for(mu: float) -> str:
        t_end = cfg.t_end
        while True:
            c = dataclasses.replace(cfg, mu=mu, t_end=t_end)
            traj = run(c, tables=tables, early_stop=True, L_star=L_star)
            v = classify(traj, c, tables=tables, L_star=L_star)
            if v != UNDECIDED or t_end >= cfg.t_end * T_END_FACTOR:
                history.append((mu, v))
                return v
            t_end *= 2.0

    lo, hi = mu_bracket
    v_lo, v_hi = verdict_for(lo), verdict_for(hi)
    if v_lo != VANISHING or v_hi != SPREADING:
        raise SolvabilityError(
            f"bracket endpoints do not straddle the threshold: "
            f"mu={lo:g} -> {v_lo}, mu={hi:g} -> {v_hi}")
    warning = None
    while hi / lo > 1.0 + tol_mu:
        mid = math.sqrt(lo * hi)
        v = verdict_for(mid)
        if v == SPREADING:
            hi = mid
        elif v == VANISHING:
            lo = mid
        else:
            warning = (f"persistent Undecided at mu = {mid:g}; returning the "
                       f"widest resolved bracket")
            break
    return MuStarResult(mu_lo=lo, mu_hi=hi, history=history, warning=warning)
