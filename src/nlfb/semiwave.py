"""Semi-wave profiles and the spreading speed.

The pair (c0, phi0) solves, on the half line x <= 0,

    d (P * phi)(x) - d phi(x) + c phi'(x) + f(phi(x)) = 0,   phi(0) = 0,
    phi(-inf) = u_star_hat,
    c = mu int_0^inf P(y) int_{-y}^0 phi(x) dx dy,

where P is an even 1-D kernel (the marginal of a radial kernel for the
free boundary application) and u_star_hat is the positive root of
d (||P||_1 - 1) u + f(u) = 0.  A solution with finite c exists exactly
when P has a finite first moment; the solver reports an infinite-speed
verdict otherwise.

Numerics: for a trial speed c the profile equation is solved by Picard
iteration that freezes the convolution term and integrates the
remaining first-order equation upwind from x = 0 leftward; the speed is
then pinned by brentq on g(c) = c - c_map(c), where c_map evaluates
the flux integral on the computed profile.  The domain truncation at
x = -M is corrected analytically by treating phi as the constant
u_star_hat beyond the window.  A profile that rises anywhere is not a
semi-wave (the explicit march is unstable once dx (d - f'(u_star_hat)) / c
exceeds 2), and neither is one that still misses the plateau at M_cap:
both raise NumericalError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq

from . import kernels as kmod
from .errors import NumericalError, SolvabilityError
from .kernels import RadialKernel
from .quadrature import gl_panels, octave_integral
from .reactions import Reaction

#: Picard sweeps of a profile stop once no value moves more than this times max(u*, 1)
TOL_PICARD = 1e-9
#: Picard sweeps of a profile before the Newton fallback takes over
MAX_PICARD = 1000
#: brentq's absolute tolerance on c0, times max(1, c_lo)
TOL_SPEED = 1e-8


def _integral_beyond(f, y: float, support: float, panels: int):
    """int_y^inf f(x) dx, y >= 0, for f vanishing beyond support; math.inf when divergent."""
    if y >= support:
        return 0.0
    if math.isfinite(support):
        return gl_panels(f, np.linspace(y, support, panels + 1), 64)
    return octave_integral(f, y, max(y, 1.0))


@dataclass
class Marginal1D:
    """Even 1-D kernel with cached mass, first moment, and tail integrals."""

    p: Callable[[np.ndarray], np.ndarray]
    support: float = math.inf
    label: str = ""
    norm1: float = field(default=None)  # type: ignore[assignment]
    moment1: float = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        if self.norm1 is None:
            self.norm1 = 2.0 * _integral_beyond(self.p, 0.0, self.support, 7)
        if self.moment1 is None:
            self.moment1 = _integral_beyond(lambda x: x * self.p(x), 0.0, self.support, 7)

    def __call__(self, x):
        return self.p(np.abs(np.asarray(x, dtype=float)))

    def tail_beyond(self, y: float) -> float:
        """int_y^inf P(x) dx, y >= 0."""
        return _integral_beyond(self.p, y, self.support, 5)

    def partial_first_moment_beyond(self, y: float) -> float:
        """int_y^inf (x - y) P(x) dx, y >= 0 (finite first moment assumed)."""
        return _integral_beyond(lambda x: (x - y) * self.p(x), y, self.support, 5)


def marginal_from_kernel(kernel: RadialKernel) -> Marginal1D:
    """P = Jstar of a validated radial kernel."""
    support = kernel.support_radius if kernel.kind == kmod.COMPACT else math.inf
    return Marginal1D(
        p=lambda x: np.asarray(kmod.j_star(kernel, np.abs(x))),
        support=support,
        label=f"jstar[{kernel.label}]",
        moment1=kmod.j_star_first_moment(kernel),
    )


@dataclass
class SemiWaveProblem:
    P: Marginal1D
    d: float
    mu: float
    f: Reaction
    dx: float = None  # type: ignore[assignment]
    M: float = 20.0
    M_cap: float = 400.0
    tol_tail: float = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.dx is None:
            self.dx = min(0.02, self.P.support / 50.0) \
                if math.isfinite(self.P.support) else 0.02
        if self.tol_tail is None:
            # algebraic tails approach the plateau slowly; the analytic
            # plateau correction keeps the equations consistent anyway, so
            # the truncation barely moves c0 and a loose gap is enough
            self.tol_tail = 1e-8 if math.isfinite(self.P.support) else 5e-3
        if not math.isfinite(self.P.support):
            self.M_cap = min(self.M_cap, 160.0)


@dataclass
class SemiWaveSolution:
    c0: float
    x: np.ndarray
    phi: np.ndarray
    u_star_hat: float
    residual_pde: float
    residual_speed: float
    M: float
    dx: float
    norm1: float
    moment1: float
    tail_gap: float


def u_star_hat(P: Marginal1D, d: float, f: Reaction) -> float:
    """Positive root of d (||P||_1 - 1) u + f(u) = 0."""
    slack = d * (P.norm1 - 1.0)

    def g(u):
        return slack * u + float(f(u))

    if slack + f.fprime0 <= 0.0:
        raise SolvabilityError(
            "d (||P||_1 - 1) + f'(0) <= 0: no positive equilibrium for the "
            "perturbed reaction")
    hi = max(1.0, f.u_star)
    for _ in range(60):
        if g(hi) < 0.0:
            break
        hi *= 2.0
    else:
        raise SolvabilityError("perturbed reaction has no positive root")
    return float(brentq(g, 1e-14, hi, xtol=1e-14, rtol=1e-14))


class _Discretization:
    """Grid quantities shared by every trial speed at fixed (M, dx)."""

    def __init__(self, prob: SemiWaveProblem, ustar: float, M: float):
        self.prob = prob
        self.ustar = ustar
        self.dx = prob.dx
        self.n = max(int(round(M / self.dx)), 50)
        self.M = self.n * self.dx
        self.x = (np.arange(self.n + 1) - self.n) * self.dx
        k = np.arange(self.n + 1) * self.dx
        self.p_grid = np.asarray(prob.P(k), dtype=float)
        rem = prob.P.tail_beyond(self.M)
        # rescale the samples so the discrete window mass is exact: kernels
        # with kinks otherwise shift the plateau equilibrium off u_star_hat
        # by the trapezoid error and the truncation check never settles
        exact_window = prob.P.tail_beyond(0.0) - rem
        disc_window = float(np.trapezoid(self.p_grid, dx=self.dx))
        if disc_window > 0.0:
            self.p_grid *= exact_window / disc_window
        # Ptail[k] = int_{k dx}^inf P, grid trapezoid plus the exact remainder
        rev = self.p_grid[::-1]
        cum = np.concatenate(([0.0], np.cumsum(0.5 * (rev[1:] + rev[:-1]) * self.dx)))
        self.ptail = cum[::-1] + rem
        self.p_full = np.concatenate((self.p_grid[::-1], self.p_grid[1:]))
        # int_M^inf (y - M) P(y) dy: flux carried by the plateau beyond -M
        self.mom_tail = prob.P.partial_first_moment_beyond(self.M)
        self.w = np.full(self.n + 1, self.dx)
        self.w[0] = self.w[-1] = 0.5 * self.dx

    def convolution(self, phi: np.ndarray) -> np.ndarray:
        """(P * phi)(x_j) over the half line, plateau-corrected."""
        conv = np.convolve(phi, self.p_full)[self.n:2 * self.n + 1] * self.dx
        # trapezoid endpoint correction at y = -M (phi(0) = 0 kills the other)
        conv -= 0.5 * self.dx * phi[0] * self.p_grid
        conv += self.ustar * self.ptail
        return conv

    def march(self, conv: np.ndarray, c: float, f) -> np.ndarray:
        """Integrate c phi' = d phi - d conv - f(phi) leftward from phi(0)=0."""
        d = self.prob.d
        dx_c = self.dx / c
        phi = np.empty(self.n + 1)
        phi[self.n] = 0.0
        cap = 2.0 * self.ustar
        v = 0.0
        for j in range(self.n, 0, -1):
            v = v - dx_c * (d * v - d * conv[j] - f(v))
            if v < 0.0:
                v = 0.0
            elif v > cap:
                v = cap
            phi[j - 1] = v
        return phi

    def solve_profile(self, c: float, f: Reaction, phi0: np.ndarray) -> np.ndarray:
        tol = TOL_PICARD * max(self.ustar, 1.0)
        phi = phi0
        damp = 0.5
        prev_update = None
        prev_norm = 0.0
        for _ in range(MAX_PICARD):
            # the march steps one Python float at a time: call the raw f
            new = self.march(self.convolution(phi), c, f.f)
            update = new - phi
            delta = np.abs(update).max()
            if delta < tol:
                return new
            norm = float(np.linalg.norm(update))
            if prev_update is not None and prev_norm > 0.0 and norm > 0.0:
                cos = float(prev_update @ update) / (prev_norm * norm)
                rho = norm / prev_norm
                if cos > 0.999 and rho < 1.0:
                    # near the minimal wave speed the correction front creeps
                    # with an almost constant contraction ratio; jump to the
                    # extrapolated limit of the geometric tail
                    damp = min(1.0 / (1.0 - rho * cos), 2000.0)
                elif cos > 0.0:
                    damp = min(1.5 * damp, 1.0)
                else:
                    damp = 0.5
            phi = np.clip(phi + damp * update, 0.0, 2.0 * self.ustar)
            prev_update = update
            prev_norm = norm
        # creeping front: Picard contracts too slowly near the minimal wave
        # speed, so switch to Newton from a smooth initial guess
        return self._newton_profile(
            c, f, self.ustar * (1.0 - np.exp(self.x)), tol)

    def _newton_profile(self, c: float, f: Reaction, phi0: np.ndarray,
                        tol: float) -> np.ndarray:
        """Damped Newton on the discrete profile equations.

        Residual of the upwind recurrence for the unknowns
        phi_0 .. phi_{n-1} (phi_n = 0 is pinned), rows j = 1 .. n:

            R_j = phi_{j-1} - phi_j + (dx/c) (d phi_j - d conv_j - f(phi_j)).
        """
        n = self.n
        if n > 3000:
            raise NumericalError("profile iteration stalled; refine the grid")
        d = self.prob.d
        dx_c = self.dx / c
        # conv_j = sum_m K[j, m] phi_m + fixed plateau/endpoint terms, with
        # the same trapezoid weights self.convolution applies implicitly
        idx = np.abs(np.arange(n + 1)[:, None] - np.arange(n)[None, :])
        K = self.p_grid[idx]
        K[:, 0] *= 0.5
        K *= self.dx
        eps = 1e-7 * max(self.ustar, 1.0)
        j = np.arange(1, n + 1)
        rows = np.arange(n)

        def residual(u):
            full = np.concatenate((u, [0.0]))
            conv = self.convolution(full)
            return u[j - 1] - full[j] + dx_c * (d * full[j] - d * conv[j]
                                                - f(full[j]))

        phi = phi0[:n].copy()
        res = residual(phi)
        for _ in range(60):
            nrm = np.abs(res).max()
            if nrm < tol:
                return np.concatenate((phi, [0.0]))
            fpj = (f(phi[j % n] + eps) - f(phi[j % n])) / eps
            jac = -dx_c * d * K[j, :]
            jac[rows, j - 1] += 1.0
            on_diag = j <= n - 1
            jac[rows[on_diag], j[on_diag]] += -1.0 + dx_c * (d - fpj[on_diag])
            try:
                delta = np.linalg.solve(jac, -res)
            except np.linalg.LinAlgError as exc:
                raise NumericalError(
                    "profile iteration stalled; refine the grid") from exc
            step = 1.0
            for _ in range(30):
                trial = np.clip(phi + step * delta, 0.0, 2.0 * self.ustar)
                trial_res = residual(trial)
                if np.abs(trial_res).max() < nrm:
                    phi, res = trial, trial_res
                    break
                step *= 0.5
            else:
                raise NumericalError(
                    "profile iteration stalled; refine the grid")
        raise NumericalError("profile iteration stalled; refine the grid")

    def c_map(self, phi: np.ndarray) -> float:
        """mu int_0^inf P(y) int_{-y}^0 phi dx dy on the computed profile."""
        flux = float(np.dot(self.w * phi, self.ptail[::-1]))
        return self.prob.mu * (flux + self.ustar * self.mom_tail)

    def residual_pde(self, phi: np.ndarray, c: float) -> float:
        conv = self.convolution(phi)
        d = self.prob.d
        dphi = (phi[1:] - phi[:-1]) / self.dx
        res = d * conv[1:] - d * phi[1:] + c * dphi + np.asarray(self.prob.f(phi[1:]))
        return float(np.abs(res).max())


def solve_semiwave(prob: SemiWaveProblem) -> SemiWaveSolution:
    """Solve for (c0, phi0); raises SolvabilityError on infinite speed."""
    P = prob.P
    if float(P(0.0)) <= 0.0:
        raise SolvabilityError("P(0) must be positive")
    if not math.isfinite(P.moment1):
        raise SolvabilityError(
            "infinite speed: the first moment of P diverges (finite-moment "
            "condition fails)")
    ustar = u_star_hat(P, prob.d, prob.f)

    tol = prob.tol_tail * max(1.0, ustar)
    M = prob.M
    while True:
        sol = _solve_at_truncation(prob, _Discretization(prob, ustar, M), ustar)
        rise = float(np.diff(sol.phi).max())
        if rise > tol:
            raise NumericalError(
                f"profile at c = {sol.c0:.6g} rises by {rise:.2g}: not a semi-wave; "
                "refine dx")
        # signed: converged compact profiles sit just above the plateau
        if sol.tail_gap < tol:
            return sol
        if M >= prob.M_cap:
            raise NumericalError(
                f"tail gap {sol.tail_gap:.2g} at M_cap = {prob.M_cap:g}: the "
                "profile never reaches the plateau")
        M = min(2.0 * M, prob.M_cap)


def _solve_at_truncation(prob: SemiWaveProblem, disc: _Discretization,
                         ustar: float) -> SemiWaveSolution:
    phi = ustar * (1.0 - np.exp(disc.x))

    def g(c: float) -> float:
        nonlocal phi
        phi = disc.solve_profile(c, prob.f, phi)
        return c - disc.c_map(phi)

    # c_map(phi) <= mu ustar int_0^inf y P(y) dy for any profile below the
    # plateau, so the root lies under this bound; keeping c_hi tight also
    # keeps the root search away from the slow region near the minimal wave
    # speed, where phi detaches from the plateau
    c_hi = prob.mu * ustar * prob.P.moment1 * (1.0 + 1e-6) + 1e-9
    c_lo = min(1e-3 * c_hi, 0.1)
    while g(c_lo) > 0.0:
        c_lo *= 0.25
        if c_lo < 1e-13:
            raise NumericalError("no sign change found for the speed equation")
    while g(c_hi) <= 0.0:
        c_hi *= 2.0
        if c_hi > 1e6:
            raise NumericalError("speed upper bound violated; check P and f")
    c0 = brentq(g, c_lo, c_hi, xtol=TOL_SPEED * max(1.0, c_lo))
    phi = disc.solve_profile(c0, prob.f, phi)
    return SemiWaveSolution(
        c0=float(c0),
        x=disc.x,
        phi=phi,
        u_star_hat=ustar,
        residual_pde=disc.residual_pde(phi, c0),
        residual_speed=abs(c0 - disc.c_map(phi)),
        M=disc.M,
        dx=disc.dx,
        norm1=prob.P.norm1,
        moment1=prob.P.moment1,
        tail_gap=float(ustar - phi[0]),
    )


def speed_from_kernel(kernel: RadialKernel, d: float, mu: float, f: Reaction,
                      dx: float | None = None) -> float:
    """Spreading speed of the free boundary: c0, or math.inf.

    The speed is finite exactly when the N-th moment of the radial
    kernel is finite (fat tails need beta > N + 1); the infinite case is
    reported as math.inf rather than an error.
    """
    if not math.isfinite(kmod.moment_n(kernel)):
        return math.inf
    prob = SemiWaveProblem(P=marginal_from_kernel(kernel), d=d, mu=mu, f=f)
    if dx is not None:
        prob.dx = dx
    return solve_semiwave(prob).c0
