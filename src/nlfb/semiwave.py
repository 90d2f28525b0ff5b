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

Numerics: the half line is cut at x = -M and sampled with step dx.
The profile equation is differenced upwind,

    c (phi_{j-1} - phi_j) = dx (d phi_j - d conv_j - f(phi_j)),   phi_n = 0,

and the speed equation evaluates the flux integral on the grid (c_map).
Both form one system for (phi_0 .. phi_{n-1}, c), solved by
Newton-Krylov (Knoll & Keyes, J. Comput. Phys. 193, 2004) with
pseudo-transient continuation (Kelley & Keyes, SIAM J. Numer. Anal. 35,
1998).  The convolution is affine in phi, so the Jacobian's action is
exact in it; GMRES is preconditioned by the Jacobian without it.  The
iteration starts from u_star_hat (1 - e^x) at the smaller of the flux
bound and the Cauchy speed c* of the sampled kernel.  The convolution
runs over the kernel's support window only (out to its last nonzero
grid sample, the whole grid for unbounded P).  The domain truncation is
corrected analytically by treating phi as the constant u_star_hat
beyond the window, and M doubles until phi(-M) reaches the plateau.  A
profile that rises anywhere is not a semi-wave, and neither is one that
still misses the plateau at M_cap: both raise NumericalError.  Profiles
rise below the upwind limit c = dx (d - f'(u_star_hat)) / 2, but not
only then: cosine bump N = 2, d = 4, mu = 1 (limit 0.05) rises at c = 0.0586.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import brentq
from scipy.sparse.linalg import LinearOperator, gmres

from . import kernels as kmod
from .errors import NumericalError, SolvabilityError
from .kernels import RadialKernel
from .quadrature import gl_panels, octave_integral
from .reactions import Reaction

#: the solve stops once no equation misses by more than this times max(u*, 1)
TOL_RESIDUAL = 1e-12
#: pseudo-time steps before the solve gives up
MAX_STEPS = 200
#: first pseudo-time step; later ones grow as the residual falls
DELTA0 = 100.0


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
    """Grid quantities of one truncation window (M, dx)."""

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
        # the two-sided kernel out to its last nonzero sample: compact
        # marginals reach a few dozen cells, unbounded ones the whole grid
        self.reach = int(np.flatnonzero(self.p_grid)[-1])
        window = self.p_grid[:self.reach + 1]
        self.p_window = np.concatenate((window[::-1], window[1:]))
        # int_M^inf (y - M) P(y) dy: flux carried by the plateau beyond -M
        self.mom_tail = prob.P.partial_first_moment_beyond(self.M)
        self.w = np.full(self.n + 1, self.dx)
        self.w[0] = self.w[-1] = 0.5 * self.dx

    def convolution(self, phi: np.ndarray) -> np.ndarray:
        """(P * phi)(x_j) over the half line, plateau-corrected."""
        r = self.reach
        conv = np.convolve(phi, self.p_window)[r:r + self.n + 1] * self.dx
        # trapezoid endpoint correction at y = -M (phi(0) = 0 kills the other)
        conv -= 0.5 * self.dx * phi[0] * self.p_grid
        conv += self.ustar * self.ptail
        return conv

    def c_star(self, fprime0: float) -> float:
        """Cauchy speed min_lam (d (M(lam) - 1) + f'(0)) / lam of the sampled marginal.

        M is the moment-generating function of the grid samples; it is
        finite only for compact marginals, so unbounded ones give math.inf.
        """
        if not math.isfinite(self.prob.P.support):
            return math.inf
        y = (np.arange(self.p_window.size) - self.reach) * self.dx
        # lam * y stays below 50, so exp cannot overflow
        lam = np.geomspace(1e-3, 50.0, 400) / max(self.reach * self.dx, self.dx)
        mgf = np.exp(np.outer(lam, y)) @ self.p_window * self.dx
        return float(((self.prob.d * (mgf - 1.0) + fprime0) / lam).min())

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


def require_positive(d: float, mu: float, dx: float | None = None) -> None:
    """Raise ValueError unless d, mu and dx (when given) are > 0; NaN fails too."""
    if not (d > 0.0 and mu > 0.0 and (dx is None or dx > 0.0)):
        raise ValueError(f"need d, mu and dx > 0; got d = {d!r}, mu = {mu!r}, dx = {dx!r}")


def solve_semiwave(prob: SemiWaveProblem) -> SemiWaveSolution:
    """Solve for (c0, phi0); raises SolvabilityError on infinite speed."""
    P = prob.P
    if float(P(0.0)) <= 0.0:
        raise SolvabilityError("P(0) must be positive")
    # checked here, not at construction: callers may set dx and M afterwards
    require_positive(prob.d, prob.mu, prob.dx)
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
    """One Newton-Krylov solve of the profile equations and the speed equation.

    Unknowns u = (phi_0 .. phi_{n-1}, c), phi_n = 0; equations, j = 1 .. n,

        E_j = c (phi_{j-1} - phi_j) + dx (d phi_j - d conv_j - f(phi_j)),
        E_{n+1} = c - c_map(phi).

    Each pseudo-time step solves (J + I / delta) s = -E by one GMRES cycle,
    preconditioned by J without the convolution (an upper bidiagonal
    matrix, for LAPACK's dtbtrs, bordered by the speed row and column).
    """
    n, dx, d, f = disc.n, disc.dx, prob.d, prob.f
    eps = 1e-7 * max(ustar, 1.0)

    def fprime(u):
        return (f(u + eps) - f(u)) / eps

    # c_map(phi) <= mu ustar int_0^inf y P(y) dy for any profile below the
    # plateau; c0 also lies below the Cauchy speed c*, which is the better
    # start when it is the smaller: above it the iteration can stall
    c_start = min(prob.mu * ustar * prob.P.moment1 * (1.0 + 1e-6) + 1e-9,
                  disc.c_star(f.fprime0))
    phi, c = ustar * (1.0 - np.exp(disc.x)), c_start
    conv0 = disc.convolution(np.zeros(n + 1))[1:]
    dflux = prob.mu * disc.w[:n] * disc.ptail[:0:-1]  # d c_map / d phi_m
    shape = (n + 1, n + 1)

    def residual(phi, c):
        e = c * (phi[:-1] - phi[1:]) + dx * (d * phi[1:] - d * disc.convolution(phi)[1:]
                                             - f(phi[1:]))
        return np.append(e, c - disc.c_map(phi))

    res, delta = residual(phi, c), DELTA0
    for _ in range(MAX_STEPS):
        if np.abs(res).max() < TOL_RESIDUAL * max(ustar, 1.0):
            return SemiWaveSolution(
                c0=float(c),
                x=disc.x,
                phi=phi,
                u_star_hat=ustar,
                residual_pde=disc.residual_pde(phi, c),
                residual_speed=abs(c - disc.c_map(phi)),
                M=disc.M,
                dx=disc.dx,
                tail_gap=float(ustar - phi[0]),
            )
        upper = dx * (d - fprime(phi[1:])) - c  # dE_j / dphi_j
        slope = phi[:-1] - phi[1:]  # dE_j / dc
        banded = np.zeros((2, n))
        banded[0, 1:] = upper[:-1]
        banded[1] = c + 1.0 / delta

        def jacobian(v):
            w = np.append(v[:n], 0.0)
            e = c * w[:-1] + upper * w[1:] + v[n] * slope \
                - dx * d * (disc.convolution(w)[1:] - conv0)
            return np.append(e, v[n] - dflux @ v[:n]) + v / delta

        def precondition(r):
            p = dtbtrs(banded, r[:n])[0]
            s_c = (r[n] + dflux @ p) / corner
            return np.append(p - q * s_c, s_c)

        # below the upwind limit the bidiagonal solves amplify without
        # bound; a step that overflows ends the iteration
        with np.errstate(all="ignore"):
            q = dtbtrs(banded, slope)[0]
            corner = 1.0 + 1.0 / delta + dflux @ q
            step, _ = gmres(LinearOperator(shape, jacobian), -res,
                            M=LinearOperator(shape, precondition), restart=40, maxiter=1)
        if not np.isfinite(step).all():
            break
        phi[:n] = np.clip(phi[:n] + step[:n], 0.0, 2.0 * ustar)
        c = min(c + step[n], c_start)
        if c <= 0.0:
            break
        new = residual(phi, c)
        delta *= np.linalg.norm(res) / np.linalg.norm(new)
        res = new
    limit = 0.5 * dx * (d - float(fprime(ustar)))
    if c < limit:
        raise NumericalError(
            f"no semi-wave at c = {c:.6g}: below the upwind limit {limit:.3g} the "
            "profile rises; refine dx")
    raise NumericalError("profile iteration stalled; refine the grid")


def speed_from_kernel(kernel: RadialKernel, d: float, mu: float, f: Reaction,
                      dx: float | None = None) -> float:
    """Spreading speed of the free boundary: c0, or math.inf.

    The speed is finite exactly when the N-th moment of the radial
    kernel is finite (fat tails need beta > N + 1); the infinite case is
    reported as math.inf rather than an error; bad d, mu or dx raise first.
    """
    require_positive(d, mu, dx)
    if not math.isfinite(kmod.moment_n(kernel)):
        return math.inf
    prob = SemiWaveProblem(P=marginal_from_kernel(kernel), d=d, mu=mu, f=f, dx=dx)
    return solve_semiwave(prob).c0
