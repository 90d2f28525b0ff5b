"""Radial dispersal kernels and their derived transforms.

A kernel is a radial profile J(r) on [0, inf) that integrates to 1 over
R^N.  Two derived objects drive everything else:

* the sphere-to-sphere kernel  Jtilde(r, rho) = integral of J(|x - y|)
  over the sphere |y| = rho, for |x| = r, and
* the one-dimensional marginal  Jstar(l) = integral of J over the
  hyperplane at signed distance l from the origin.

Jtilde is evaluated through its angular representation

    Jtilde(r, rho) = w_{N-1} rho^{N-1}
                     int_0^pi (sin t)^{N-2} J(sqrt(r^2+rho^2-2 r rho cos t)) dt,

which is smooth in t (the eta-substitution form has endpoint
singularities for N = 2), unless N = 3 and the kernel carries
H(s) = int_s^inf t J(t) dt in closed form (tail_antiderivative, as the
built-in kernels do).  Then s^2 = r^2 + rho^2 - 2 r rho cos t gives the
exact Jtilde(r, rho) = (2 pi rho / r) (H(|r - rho|) - H(r + rho)).
Jstar is evaluated through

    Jstar(l) = w_{N-1} int_0^inf J(sqrt(l^2 + s^2)) s^{N-2} ds.

Here w_k is the area of the unit sphere in R^k (w_1 = 2, w_2 = 2*pi,
w_3 = 4*pi).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import betainc
from scipy.special import gamma as gamma_fn

from .errors import KernelValidationError, SolvabilityError
from .quadrature import gl_panels, gl_rule, graded_edges_around, octave_integral

COMPACT = "compact"
FAT_TAIL = "fat_tail"
CUSTOM = "custom"

#: default Gauss-Legendre order for single kernel-transform evaluations
DEFAULT_ORDER = 64
#: relative agreement required between consecutive quadrature orders
ORDER_DOUBLING_TOL = 1e-9
#: Gauss-Legendre order of each half panel of shell_mass
SHELL_ORDER = 48


def unit_sphere_area(k: int) -> float:
    """Area of the unit sphere in R^k (w_1 = 2, w_2 = 2*pi, w_3 = 4*pi)."""
    return 2.0 * math.pi ** (k / 2.0) / gamma_fn(k / 2.0)


@dataclass(frozen=True)
class RadialKernel:
    """Radial profile J(r) with the metadata the transforms need.

    profile must be vectorized (accept and return numpy arrays).
    breakpoints lists radii where the profile is non-smooth (e.g. the
    support edge of a truncated kernel); quadrature panels split there.
    For fat-tail kernels, tail_scale is the asymptotic coefficient A in
    J(r) ~ A r^(-beta) and tail_start the radius beyond which the
    two-sided power bound holds.  tail_antiderivative, when known in
    closed form, is H(s) = int_s^inf t J(t) dt (vectorized); for N = 3
    it makes Jtilde exact.  It is not part of hash().
    """

    profile: Callable[[np.ndarray], np.ndarray]
    dim: int
    kind: str
    support_radius: float | None = None
    tail_exponent: float | None = None
    tail_scale: float | None = None
    tail_start: float = 1.0
    breakpoints: tuple[float, ...] = ()
    label: str = ""
    params: tuple = field(default_factory=tuple)
    tail_antiderivative: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("dimension must be >= 2")
        if self.kind == COMPACT and self.support_radius is None:
            raise ValueError("compact kernel needs a support radius")
        if self.kind == FAT_TAIL and self.tail_exponent is None:
            raise ValueError("fat-tail kernel needs a tail exponent")

    def __call__(self, r):
        return self.profile(np.asarray(r, dtype=float))

    def hash(self) -> str:
        """Stable identity used to key the on-disk kernel-table cache."""
        probe = np.geomspace(1e-3, 64.0, 96)
        vals = np.asarray(self(probe), dtype=float)
        h = hashlib.sha256()
        h.update(repr((self.label, self.kind, self.dim, self.params)).encode())
        h.update(vals.tobytes())
        return h.hexdigest()[:16]


def uniform_kernel(dim: int, radius: float = 1.0) -> RadialKernel:
    """Uniform density on the ball of the given radius (disc for N=2)."""
    height = dim / (unit_sphere_area(dim) * radius ** dim)

    def profile(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= radius, height, 0.0)

    def tail(s):
        return 0.5 * height * np.maximum((radius - s) * (radius + s), 0.0)

    return RadialKernel(
        profile=profile,
        dim=dim,
        kind=COMPACT,
        support_radius=radius,
        breakpoints=(radius,),
        label=f"uniform{dim}d",
        params=(radius,),
        tail_antiderivative=tail,
    )


def _x_minus_sin(x: np.ndarray) -> np.ndarray:
    """x - sin(x), by its Taylor series below x = 1 where the difference cancels."""
    series = sum((-1) ** k * x ** (2 * k + 3) / math.factorial(2 * k + 3) for k in range(8))
    return np.where(x < 1.0, series, x - np.sin(x))


def cosine_bump_kernel(dim: int, radius: float = 1.0) -> RadialKernel:
    """Smooth compactly supported kernel (1 + cos(pi r / K)) / 2, normalized."""
    wN = unit_sphere_area(dim)

    def raw(r):
        r = np.asarray(r, dtype=float)
        return np.where(r <= radius, 0.5 * (1.0 + np.cos(np.pi * r / radius)), 0.0)

    mass = wN * gl_panels(lambda r: raw(r) * r ** (dim - 1), [0.0, radius], 96)

    def profile(r):
        return raw(r) / mass

    def tail(s):
        # with u = pi (K - s) / K: int_s^K x (1 + cos(pi x / K)) dx
        # = (K/pi)^2 [(pi - u)(u - sin u) + 2 (u/2 - sin(u/2)) (u/2 + sin(u/2))],
        # a sum of non-negative terms, so nothing cancels as s -> K
        u = np.pi * np.clip(1.0 - s / radius, 0.0, 1.0)
        bracket = ((np.pi - u) * _x_minus_sin(u)
                   + 2.0 * _x_minus_sin(0.5 * u) * (0.5 * u + np.sin(0.5 * u)))
        return (radius / np.pi) ** 2 * bracket / (2.0 * mass)

    return RadialKernel(
        profile=profile,
        dim=dim,
        kind=COMPACT,
        support_radius=radius,
        breakpoints=(radius,),
        label=f"cosbump{dim}d",
        params=(radius,),
        tail_antiderivative=tail,
    )


def power_tail_kernel(dim: int, beta: float) -> RadialKernel:
    """Fat-tail kernel J(r) = A (1 + r)^(-beta), normalized in closed form.

    Requires beta > N so that J is integrable over R^N.  The normalizing
    constant uses int_0^inf r^(N-1) (1+r)^(-beta) dr = B(N, beta - N).
    """
    if beta <= dim:
        raise ValueError("need beta > N for an integrable fat-tail kernel")
    wN = unit_sphere_area(dim)
    b = gamma_fn(dim) * gamma_fn(beta - dim) / gamma_fn(beta)
    amp = 1.0 / (wN * b)

    def profile(r):
        r = np.asarray(r, dtype=float)
        return amp * (1.0 + r) ** (-beta)

    def tail(s):
        return (amp * (1.0 + s) ** (1.0 - beta) * (1.0 + (beta - 1.0) * s)
                / ((beta - 1.0) * (beta - 2.0)))

    return RadialKernel(
        profile=profile,
        dim=dim,
        kind=FAT_TAIL,
        tail_exponent=beta,
        tail_scale=amp,
        tail_start=1.0,
        label=f"powertail{dim}d",
        params=(beta,),
        tail_antiderivative=tail,
    )


def custom_kernel(profile, dim: int, support_radius: float | None = None,
                  breakpoints: tuple[float, ...] = (), label: str = "custom",
                  params: tuple = ()) -> RadialKernel:
    kind = COMPACT if support_radius is not None else CUSTOM
    return RadialKernel(profile=profile, dim=dim, kind=kind,
                        support_radius=support_radius,
                        breakpoints=breakpoints, label=label, params=params)


# ---------------------------------------------------------------------------
# radial moments and validation
# ---------------------------------------------------------------------------

def _radial_integral(kernel: RadialKernel, power: int) -> float:
    """int_0^inf J(r) r^power dr with panels split at profile breakpoints."""

    def f(r):
        return kernel(r) * r ** power

    if kernel.kind == COMPACT:
        edges = sorted({0.0, kernel.support_radius,
                        *[b for b in kernel.breakpoints if b < kernel.support_radius]})
        return gl_panels(f, edges, 96)
    return octave_integral(f)


def normalization(kernel: RadialKernel) -> float:
    """w_N int_0^inf J(r) r^(N-1) dr; equals 1 for an admissible kernel."""
    return unit_sphere_area(kernel.dim) * _radial_integral(kernel, kernel.dim - 1)


def moment_n(kernel: RadialKernel) -> float:
    """The (J1) moment int_0^inf J(r) r^N dr; math.inf when divergent.

    For a power tail J ~ r^-beta the moment is finite for every
    beta > N + 1 (the octave sum adds its geometric remainder in closed
    form) and math.inf for beta <= N + 1.
    """
    if kernel.kind == FAT_TAIL and kernel.tail_exponent <= kernel.dim + 1:
        return math.inf
    return _radial_integral(kernel, kernel.dim)


@dataclass(frozen=True)
class ValidationReport:
    normalization: float
    value_at_zero: float
    min_value: float
    moment_n: float
    moment_finite: bool
    accepted: bool
    failures: tuple[str, ...]


def validate_kernel(kernel: RadialKernel, tol_norm: float = 1e-6) -> ValidationReport:
    """Check the admissibility conditions: sign, J(0) > 0, unit mass.

    The finite-N-th-moment verdict is reported but is not an
    admissibility requirement (it only controls whether the spreading
    speed is finite).
    """
    horizon = kernel.support_radius if kernel.kind == COMPACT else 1e3
    probe = np.concatenate(([0.0], np.geomspace(1e-6, horizon, 4096)))
    vals = np.asarray(kernel(probe), dtype=float)
    failures = []
    j0 = float(vals[0])
    vmin = float(vals.min())
    if vmin < 0.0:
        failures.append("profile takes negative values")
    if j0 <= 0.0:
        failures.append("J(0) must be positive")
    norm = normalization(kernel)
    if abs(norm - 1.0) > tol_norm:
        failures.append(f"normalization {norm!r} deviates from 1 by more than {tol_norm}")
    mn = moment_n(kernel)
    return ValidationReport(
        normalization=norm,
        value_at_zero=j0,
        min_value=vmin,
        moment_n=mn,
        moment_finite=math.isfinite(mn),
        accepted=not failures,
        failures=tuple(failures),
    )


def require_valid(kernel: RadialKernel, tol_norm: float = 1e-6) -> ValidationReport:
    report = validate_kernel(kernel, tol_norm)
    if not report.accepted:
        raise KernelValidationError("; ".join(report.failures))
    return report


# ---------------------------------------------------------------------------
# the marginal kernel Jstar
# ---------------------------------------------------------------------------

def j_star(kernel: RadialKernel, l) -> np.ndarray | float:
    """Marginal kernel Jstar(l); vectorized over l, even in l."""
    ls = np.atleast_1d(np.abs(np.asarray(l, dtype=float)))
    out = _j_star_abs(kernel, ls)
    return float(out[0]) if np.isscalar(l) or np.ndim(l) == 0 else out


def _j_star_abs(kernel: RadialKernel, ls: np.ndarray) -> np.ndarray:
    n = kernel.dim
    w = unit_sphere_area(n - 1)
    out = np.zeros_like(ls)

    def f(s, l):
        # s is (len(l), nodes) for per-l edges, or 1-D nodes shared by every l
        return kernel(np.sqrt(l[:, None] ** 2 + s * s)) * s ** (n - 2)

    if kernel.kind == COMPACT:
        K = kernel.support_radius
        inside = ls < K
        if not np.any(inside):
            return out
        li = ls[inside]
        # s runs to the support edge; extra panel splits at interior kinks
        smax = np.sqrt(K * K - li * li)
        breaks = [b for b in kernel.breakpoints if b < K]
        edge_list = [np.zeros_like(li)]
        for b in breaks:
            sb = np.sqrt(np.clip(b * b - li * li, 0.0, None))
            edge_list.append(np.minimum(sb, smax))
        edge_list.append(smax)
        edges = np.sort(np.stack(edge_list, axis=1), axis=1)
        out[inside] = w * gl_panels(lambda s: f(s, li), edges, 96)
        return out

    # unbounded support: one octave sum over s for every l at once
    return w * octave_integral(lambda s: f(s, ls))


def j_star_first_moment(kernel: RadialKernel) -> float:
    """int_0^inf l Jstar(l) dl; finite exactly when (J1) holds."""
    if not math.isfinite(moment_n(kernel)):
        return math.inf

    def f(l):
        return np.atleast_1d(j_star(kernel, l)) * np.asarray(l)

    if kernel.kind == COMPACT:
        # the integrand can lose smoothness at the support edge (square-root
        # behavior for truncated kernels), so grade the panels toward it
        K = kernel.support_radius
        edges = sorted({*graded_edges_around(K, 0.0, K, first=K / 64.0),
                        *[b for b in kernel.breakpoints if b < K]})
        return gl_panels(f, edges, 64)
    return octave_integral(f)


def moment_identity_check(kernel: RadialKernel) -> tuple[float, float, float]:
    """Cross-check int l Jstar(l) dl against w_{N-1}/(N-1) int J r^N dr."""
    mn = moment_n(kernel)
    if not math.isfinite(mn):
        raise SolvabilityError(
            "the N-th moment of J diverges; both sides of the identity are infinite")
    rhs = unit_sphere_area(kernel.dim - 1) / (kernel.dim - 1) * mn
    lhs = j_star_first_moment(kernel)
    rel = abs(lhs - rhs) / max(abs(rhs), 1e-300)
    return lhs, rhs, rel


# ---------------------------------------------------------------------------
# the sphere-to-sphere kernel Jtilde
# ---------------------------------------------------------------------------

def _theta_breaks(kernel: RadialKernel, r: float, rho: np.ndarray) -> np.ndarray:
    """Angular panel edges, shape (len(rho), nb + 2), sorted along axis 1.

    A profile breakpoint at radius b maps to the polar angle where the
    chord length sqrt(r^2 + rho^2 - 2 r rho cos t) equals b.
    """
    cols = [np.zeros_like(rho)]
    denom = 2.0 * r * rho
    for b in kernel.breakpoints:
        arg = (r * r + rho * rho - b * b) / denom
        cols.append(np.arccos(np.clip(arg, -1.0, 1.0)))
    cols.append(np.full_like(rho, math.pi))
    return np.sort(np.stack(cols, axis=1), axis=1)


def _fat_theta_edges(r: float, rho: np.ndarray) -> np.ndarray:
    """Angular edges graded toward theta = 0 for unbounded-support kernels.

    J(dist(theta)) is peaked at theta = 0 with width ~ 1/sqrt(r rho)
    once the spheres are large, so a single panel over [0, pi] loses
    the peak entirely; geometric panels keep a fixed node density per
    octave of the peak scale.
    """
    theta0 = 1.0 / (1.0 + np.sqrt(r * rho))
    cols = [np.zeros_like(rho)]
    scale = theta0.copy()
    for _ in range(40):
        cols.append(np.minimum(scale, math.pi))
        if np.all(scale >= math.pi):
            break
        scale = scale * 4.0
    return np.stack(cols, axis=1)


def _j_tilde_panels(kernel: RadialKernel, r: float, rho: np.ndarray,
                    edges: np.ndarray, order: int) -> np.ndarray:
    # One panel at a time, not gl_panels: in the benchmark's fat_tail_front
    # (seed 901, 2-vCPU Xeon VM) all panels at once raised peak RSS from
    # 86.4 to 89.6-89.9 MB (+3.9 %), and one gl_panels call per panel made the
    # N=2 beta=2.8 front 6-16 % slower (min of 3: 1.90-1.99 s -> 2.02-2.30 s).
    n = kernel.dim
    x, gw = gl_rule(order)
    acc = np.zeros_like(rho)
    for p in range(edges.shape[1] - 1):
        a, b = edges[:, p], edges[:, p + 1]
        half = 0.5 * (b - a)
        t = a[:, None] + half[:, None] * (x[None, :] + 1.0)
        dist = np.sqrt(r * r + rho[:, None] ** 2
                       - 2.0 * r * rho[:, None] * np.cos(t))
        vals = kernel(dist)
        if n > 2:
            vals = vals * np.sin(t) ** (n - 2)
        acc += half * (vals @ gw)
    return unit_sphere_area(n - 1) * rho ** (n - 1) * acc


def _exact_n3(kernel: RadialKernel) -> bool:
    """True when Jtilde has the closed form (2 pi rho / r)(H(|r - rho|) - H(r + rho))."""
    return kernel.dim == 3 and kernel.tail_antiderivative is not None


def j_tilde_center(kernel: RadialKernel, rho):
    """Jtilde(0, rho) = w_N rho^{N-1} J(rho), exact: J is constant on the sphere."""
    return unit_sphere_area(kernel.dim) * rho ** (kernel.dim - 1) * kernel(rho)


def j_tilde_row(kernel: RadialKernel, r: float, rho, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Jtilde(r, rho) for a fixed r and an array of sphere radii rho.

    order (Gauss-Legendre nodes per angular panel) is unused where Jtilde is exact.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    out = np.zeros_like(rho)
    pos = rho > 0.0
    if not np.any(pos):
        return out
    if r == 0.0:
        out[pos] = j_tilde_center(kernel, rho[pos])
        return out
    rp = rho[pos]
    if _exact_n3(kernel):
        H = kernel.tail_antiderivative
        out[pos] = 2.0 * math.pi * rp / r * (H(np.abs(r - rp)) - H(r + rp))
        return out
    if kernel.kind == COMPACT:
        K = kernel.support_radius
        reach = np.abs(rp - r) < K
        if not np.any(reach):
            return out
        vals = np.zeros_like(rp)
        rr = rp[reach]
        vals[reach] = _j_tilde_panels(kernel, r, rr, _theta_breaks(kernel, r, rr), order)
        out[pos] = vals
        return out
    edges = _fat_theta_edges(r, rp)
    if kernel.breakpoints:
        edges = np.sort(np.concatenate(
            (edges, _theta_breaks(kernel, r, rp)), axis=1), axis=1)
    out[pos] = _j_tilde_panels(kernel, r, rp, edges, order)
    return out


def j_tilde(kernel: RadialKernel, r: float, rho: float,
            order: int = DEFAULT_ORDER) -> float:
    """Jtilde(r, rho) with an order-doubling fallback for accuracy."""
    if rho <= 0.0:
        return 0.0
    prev = float(j_tilde_row(kernel, r, np.array([rho]), order)[0])
    if r == 0.0 or _exact_n3(kernel):
        return prev  # exact: order is ignored, a second call gives the same value
    for _ in range(3):
        cur = float(j_tilde_row(kernel, r, np.array([rho]), 2 * order)[0])
        if abs(cur - prev) <= ORDER_DOUBLING_TOL * max(1.0, abs(cur)):
            return cur
        prev, order = cur, 2 * order
    return prev


# ---------------------------------------------------------------------------
# rho-integrals of Jtilde and the boundary flux
# ---------------------------------------------------------------------------

def shell_mass(kernel: RadialKernel, r, a, b):
    """int_a^b Jtilde(r, rho) d rho: the mass of J(|x - y|) over a < |y| < b, |x| = r.

    Every rho-integral of Jtilde is such a shell mass, for every kernel:
    interior_rho_integral, outward_rho_integral, boundary_flux and the
    kink corrections of the kernel tables.  Polar coordinates around x
    make it one integral over s = |y - x|,

        int_a^b Jtilde(r, rho) d rho = int_0^{r+b} J(s) s^{N-1} Omega(s) ds,

    Omega(s) being the measure of the directions from x whose point at
    distance s lies in the shell.  That point lies inside |y| < c when the
    cosine of its angle to x is below c_c = clip((c^2 - r^2 - s^2) / (2 r s),
    -1, 1), so Omega = 2 (arccos c_a - arccos c_b) for N = 2,
    2 pi (c_b - c_a) for N = 3, and w_N (I_{(1-c_a)/2}(m, m) -
    I_{(1-c_b)/2}(m, m)) with m = (N-1)/2 in general (I the regularized
    incomplete beta function).  At r = 0, c_c = +-1.

    Omega has corners (square roots for N = 2) only at s in
    {|r - a|, r + a, |b - r|, r + b}.  [0, r + b] is split there and at
    the kernel's breakpoints, each piece is halved, and each half takes
    s = end +- u^2 toward its own end, which makes a square root there
    smooth in u, and one SHELL_ORDER-point Gauss-Legendre rule.  r, a and
    b (0 <= a <= b) broadcast together.
    """
    r, a, b = np.broadcast_arrays(*(np.asarray(v, dtype=float) for v in (r, a, b)))
    n = kernel.dim
    top = r + b
    cuts = [np.zeros_like(r), np.abs(r - a), r + a, np.abs(b - r), top,
            *(np.full_like(r, bp) for bp in kernel.breakpoints)]
    edges = np.sort(np.minimum(np.stack(cuts, axis=-1), top[..., None]), axis=-1)
    lo, hi = edges[..., :-1, None], edges[..., 1:, None]
    rr = r[..., None, None]
    radii = np.stack((a, b))[..., None, None]

    def density(s):
        # c_a and c_b at once; at r = 0, c = +1 inside the radius and -1 outside
        with np.errstate(divide="ignore", invalid="ignore"):
            cos = np.clip(((radii - rr) * (radii + rr) - s * s) / (2.0 * rr * s), -1.0, 1.0)
        ca, cb = np.where(rr > 0.0, cos, np.where(s < radii, 1.0, -1.0))
        if n == 2:
            omega = 2.0 * (np.arccos(ca) - np.arccos(cb))
        elif n == 3:
            omega = 2.0 * math.pi * (cb - ca)
        else:
            m = 0.5 * (n - 1)
            omega = unit_sphere_area(n) * (betainc(m, m, 0.5 * (1.0 - ca))
                                           - betainc(m, m, 0.5 * (1.0 - cb)))
        return kernel(s) * s ** (n - 1) * omega

    def halves(u):
        # both halves of every piece in one call; u = 0 only on the empty
        # pieces of repeated cuts, where 0/0 can give nan
        u2 = u * u
        both = density(np.concatenate((lo + u2, hi - u2), axis=-1))
        k = u.shape[-1]
        return np.where(u > 0.0, 2.0 * u * (both[..., :k] + both[..., k:]), 0.0)

    umax = np.sqrt(0.5 * (hi - lo))
    spans = np.concatenate((np.zeros_like(umax), umax), axis=-1)
    return gl_panels(halves, spans, SHELL_ORDER).sum(axis=-1)


def interior_rho_integral(kernel: RadialKernel, r, h: float):
    """int_0^h Jtilde(r, rho) d rho = shell_mass(kernel, r, 0, h).

    Every rho-integral of Jtilde is a shell mass.  Broadcasts over r: a
    scalar r gives a float.
    """
    return shell_mass(kernel, r, 0.0, max(h, 0.0))


def outward_rho_integral(kernel: RadialKernel, r, h: float):
    """int_h^inf Jtilde(r, rho) d rho, as a shell mass; broadcasts over r.

    Compact kernels take shell_mass(kernel, r, h, max(h, r + K)), exactly
    0.0 once h >= r + K (the shell is empty); fat tails take
    1 - interior, which follows from the unit normalization of J.
    """
    if kernel.kind == COMPACT:
        return shell_mass(kernel, r, h, np.maximum(h, r + kernel.support_radius))
    return np.clip(1.0 - interior_rho_integral(kernel, r, h), 0.0, 1.0)


def boundary_flux(kernel: RadialKernel, h: float) -> float:
    """F(h) = int_0^h int_h^inf Jtilde(r, rho) d rho d r.

    The inner integral is outward_rho_integral, a shell mass, on all
    outer nodes at once.  When (J1) holds, F(h) converges to
    int_0^inf l Jstar(l) dl as h grows; for fat tails with beta in
    (N, N+1] it grows like h^(N+1-beta), or ln h at the endpoint
    beta = N+1.
    """
    if kernel.kind == COMPACT:
        lo = max(0.0, h - kernel.support_radius)
        outer_edges = np.linspace(lo, h, 7)
    else:
        outer_edges = graded_edges_around(h, 0.0, h, first=1.0)
    return gl_panels(lambda rs: outward_rho_integral(kernel, rs, h), outer_edges, 24)
