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
is evaluated once: _slopes gives the Euler update, dh/dt and the mass from
one set of weights, _advance clips an update that dipped below 0 and grows
the grid, run records the rest.  A step builds no grid-only array: one table
read gives the tails at h and conv(w * u, dt d, dt, f(u)) in f(u)'s array, the
update less (1 - dt d) u; r_i^{N-1} and |S^{N-1}| come from the table, and a band
flux sums only the <= 2 bw + 1 rows next to the boundary, the only ones leaking.

The explicit scheme is stable under dt * (d + Lip f) < 0.9 because the
nonlocal operator is bounded; under that condition the update is also
monotone in (u, h), which preserves the comparison principle at the
discrete level.  The verdicts are comparison arguments: h >= L_star spreads,
and an upper solution on a ball, from its principal eigenpair, proves vanishing.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NumericalError, SolvabilityError
from .kernels import RadialKernel
from .reactions import Reaction
from .tables import KernelTables
from . import eigen as emod

SPREADING = "Spreading"
VANISHING = "Vanishing"
UNDECIDED = "Undecided"

#: find_mu_star runs each mu up to this times cfg.t_end, to its first certain check
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
    (t, r, u) every snapshot_stride from t = 0; u_final the last state's u;
    meta the dt, dr, L_star, early-stop verdict and its rule (see _verdict)."""

    t: np.ndarray
    h: np.ndarray
    hdot: np.ndarray
    u_center: np.ndarray
    u_max: np.ndarray
    mass: np.ndarray
    snapshots: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    u_final: np.ndarray | None = None


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


def _slopes(u: np.ndarray, h: float, cfg: RunConfig, tables: KernelTables,
            dt: float) -> tuple[np.ndarray, float, float]:
    """One state's Euler update u + dt (d (conv - u) + f(u)), unclipped, dh/dt and mass."""
    m, dr = u.size - 1, cfg.dr
    # w * u for the trapezoid weights w on [0, h]: dr at the nodes, halved at
    # r = 0, and the boundary cell [r_m, h] added at r_m
    wu = u * dr
    wu[0] *= 0.5
    wu[m] = (0.5 * dr + 0.5 * (h - m * dr)) * u[m]
    # dt d conv + dt f(u), accumulated into f(u), then (1 - dt d) u; the tails at h
    u_new, first, tails = tables._conv_tails(wu, h / dr, dt * cfg.d, dt, cfg.reaction.f(u))
    u_new += (1.0 - dt * cfg.d) * u
    wu *= tables._r_power[:m + 1]  # w r^{N-1} u, for the flux and the mass
    flux = float(np.dot(wu[first:], tails))
    mass = tables._sphere_area * float(wu.sum())
    return u_new, cfg.mu / h ** (cfg.kernel.dim - 1) * flux, mass


def _advance(state: SimState, cfg: RunConfig, dt: float, u_new: np.ndarray,
             hdot: float) -> SimState:
    """The step from state's update and slope: u_new clipped at 0, in place, on the grown grid."""
    h_new = state.h + dt * hdot
    low = u_new.min()
    if low < 0.0:
        if low < -1e-12 * max(1.0, np.abs(u_new).max()):
            raise NumericalError(
                f"scheme produced negative values ({low:g}); reduce dt or dr")
        np.clip(u_new, 0.0, None, out=u_new)
    m_new = math.floor(h_new / cfg.dr + 1e-9)
    if m_new > u_new.size - 1:
        u_new = np.concatenate((u_new, np.zeros(m_new - (u_new.size - 1))))
    return SimState(t=state.t + dt, h=float(h_new), u=u_new)


def step(state: SimState, cfg: RunConfig, tables: KernelTables,
         dt: float) -> tuple[SimState, float]:
    """One explicit step; returns (new state, hdot at the old time)."""
    u_new, hdot, _ = _slopes(state.u, state.h, cfg, tables, dt)
    return _advance(state, cfg, dt, u_new, hdot), hdot


def _stability_rate(cfg: RunConfig) -> float:
    u0_max = float(np.abs(cfg.initial_profile(np.linspace(0.0, cfg.h0, 512))).max())
    return cfg.d + cfg.reaction.lipschitz(max(u0_max, cfg.reaction.u_star))


def default_dt(cfg: RunConfig) -> float:
    return 0.4 / _stability_rate(cfg)


def run(cfg: RunConfig, tables: KernelTables | None = None,
        early_stop: bool = False, L_star: float | None = None) -> Trajectory:
    """Advance the simulation to t_end; deterministic given the config.

    With early_stop the run halts at the first check (every 50 steps)
    where the verdict is certain: h has reached the threshold radius
    (spreading is then guaranteed) or an upper solution proves vanishing.
    """
    if cfg.t_end < 0.0:
        raise ValueError(f"t_end = {cfg.t_end:g} must be nonnegative")
    if cfg.dt is not None and not cfg.dt > 0.0:  # NaN fails the test too
        raise ValueError(f"dt = {cfg.dt:g} must be positive")
    tables = tables or KernelTables(cfg.kernel, cfg.dr)
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
    stopped, why = None, {"rule": None, "certificate": None}
    for k in range(n_steps + 1):
        if k:
            state = _advance(state, cfg, dt, u_new, hdot)
        u_new, hdot, mass = _slopes(state.u, state.h, cfg, tables, dt)
        rec[k] = state.t, state.h, hdot, state.u[0], state.u.max(), mass
        if state.t >= next_snap - 1e-12:
            snapshots.append((state.t, np.arange(state.u.size) * cfg.dr, state.u.copy()))
            next_snap += cfg.snapshot_stride
        if early_stop and k > 0 and k % 50 == 0:
            verdict, why = _verdict(state.u, state.h, cfg, tables, L_star)
            if verdict != UNDECIDED:
                stopped = verdict
                break
    rec[1:k + 1, 2] = rec[:k, 2]  # hdot[k]: the slope of the step that ended at t_k
    return Trajectory(*rec[:k + 1].T.copy(), snapshots=snapshots,
                      meta={"dt": dt, "dr": cfg.dr, "L_star": L_star,
                            "early_verdict": stopped, **why}, u_final=state.u)


def classify(traj: Trajectory, cfg: RunConfig,
             tables: KernelTables | None = None,
             L_star: float | None = None) -> str:
    """Spreading / Vanishing / Undecided verdict for a finished run.

    Spreading is certified through the eigenvalue threshold: once h(t)
    reaches the radius where the principal eigenvalue of the linearized
    operator turns nonnegative, spreading is guaranteed.  Vanishing is
    certified by an upper solution built on the final state (_certificate).
    The rule behind the verdict and L_star go into traj.meta.
    """
    if traj.t.size < 20:
        raise ValueError("trajectory too short to classify (need 20 records)")
    if traj.meta.get("early_verdict"):
        return traj.meta["early_verdict"]
    if L_star is None:
        L_star = traj.meta.get("L_star")
    tables = tables or KernelTables(cfg.kernel, cfg.dr)
    if L_star is None and cfg.reaction.fprime0 < cfg.d:
        L_star = _L_star_or_inf(cfg, tables)
    verdict, why = _verdict(traj.u_final, float(traj.h[-1]), cfg, tables, L_star)
    traj.meta.update(why, L_star=L_star)
    return verdict


def _L_star_or_inf(cfg: RunConfig, tables: KernelTables) -> float:
    """The threshold radius L_star, or inf where the eigenproblem has none."""
    try:
        return emod.find_L_star(cfg.d, cfg.reaction.fprime0, tables)[0]
    except SolvabilityError:
        return math.inf


def _certificate(u: np.ndarray, h: float, cfg: RunConfig, tables: KernelTables,
                 L_star: float) -> dict | None:
    """The best vanishing certificate {L, margin} of the state (u, h), or None.

    At L in (h, L_star), lambda = lambda1(L) < 0 with eigenfunction phi_L; take
    M = max u / phi_L on [0, h] and F = int_0^L r^{N-1} phi_L T(r, h) dr.  If
    margin = -lambda (L - h) - mu M F / h^{N-1} >= 0, then M e^{lambda s} phi_L
    on [0, L - (L - h) e^{lambda s}] is an upper solution (f(u) <= f'(0) u, and
    T(r, .) decreases), so h stays below L.  L runs over the grid nodes nearest
    h + {1/4, 1/2, 3/4}(L_star - h), else the midpoint; T at an off-grid L is
    read at the next node, no smaller for a nonincreasing J.  The eigenpairs
    at grid nodes are kept with the table.
    """
    if not (cfg.reaction.kpp and h < L_star < math.inf):
        return None
    dr, pw, best, a = cfg.dr, cfg.kernel.dim - 1, None, cfg.reaction.fprime0
    radii = {round((h + q * (L_star - h)) / dr) * dr for q in (0.25, 0.5, 0.75)}
    for L in [L for L in radii if h < L < L_star] or [0.5 * (h + L_star)]:
        key = ("eigenpair", cfg.d, a, L)
        eig = tables._solved.get(key) or emod.lambda1(emod.EigenProblem(cfg.d, a, L, tables))
        if L in radii:  # grid nodes only: the grid bounds the keys
            tables._solved[key] = eig
        lam, nodes, phi = eig.lambda1, eig.nodes, eig.eigenfunction
        flux = np.trapezoid(nodes ** pw * phi * tables.tail_mass_vector(nodes.size, h / dr), nodes)
        margin = -lam * (L - h) - cfg.mu * float(np.max(u / phi[:u.size]) * flux) / h ** pw
        if margin >= 0.0 and (best is None or margin > best["margin"]):
            best = {"L": L, "margin": margin}
    return best


def _verdict(u: np.ndarray, h: float, cfg: RunConfig, tables: KernelTables,
             L_star: float | None) -> tuple[str, dict]:
    """The rule of run(early_stop=True) and classify at the state (u, h), with
    its name for meta: f'(0) >= d or h >= L_star spreads (L_star is unused
    when f'(0) >= d), a certificate vanishes, else undecided."""
    if cfg.reaction.fprime0 >= cfg.d or h >= L_star:
        rule = "f'(0) >= d" if cfg.reaction.fprime0 >= cfg.d else "h >= L_star"
        return SPREADING, {"rule": rule, "certificate": None}
    cert = _certificate(u, h, cfg, tables, L_star)
    return (VANISHING if cert else UNDECIDED), {"rule": cert and "certificate",
                                                 "certificate": cert}


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
    so plain bisection in log mu applies.  Each run stops at its first
    certain check, by T_END_FACTOR * t_end at the latest.
    """
    lo, hi = mu_bracket
    if not (tol_mu > 0.0 and 0.0 < lo < hi):
        raise ValueError(f"need tol_mu > 0 and 0 < mu_lo < mu_hi; got tol_mu = {tol_mu!r}, "
                         f"mu_bracket = {mu_bracket!r}")
    cfg = cfg_template
    if cfg.reaction.fprime0 >= cfg.d:
        raise SolvabilityError("f'(0) >= d: spreading for every mu, no threshold")
    tables = tables or KernelTables(cfg.kernel, cfg.dr)
    L_star = emod.find_L_star(cfg.d, cfg.reaction.fprime0, tables)[0]
    if cfg.h0 >= L_star:
        raise SolvabilityError(
            f"h0 = {cfg.h0:g} >= L_star = {L_star:g}: spreading for every mu")

    history: list = []

    def verdict_for(mu: float) -> str:
        c = dataclasses.replace(cfg, mu=mu, t_end=cfg.t_end * T_END_FACTOR)
        traj = run(c, tables=tables, early_stop=True, L_star=L_star)
        history.append((mu, classify(traj, c, tables=tables, L_star=L_star)))
        return history[-1][1]

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
