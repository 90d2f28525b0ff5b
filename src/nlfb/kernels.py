"""Radial dispersal kernels and their derived transforms.

A kernel is a radial profile J(r) on [0, inf) that integrates to 1 over
R^N.  Two derived objects drive everything else:

* the sphere-to-sphere kernel  Jtilde(r, rho) = integral of J(|x - y|)
  over the sphere |y| = rho, for |x| = r, and
* the one-dimensional marginal  Jstar(l) = integral of J over the
  hyperplane at signed distance l from the origin.

Jtilde is evaluated through its angular representation

    Jtilde(r, rho) = w_{N-1} rho^{N-1} int_0^pi (sin t)^{N-2} J(chord(t)) dt,
    chord(t)^2 = (r - rho)^2 + 4 r rho sin^2(t/2)  (= r^2 + rho^2 - 2 r rho cos t),

which is smooth in t (the eta-substitution form has endpoint singularities
for N = 2).  Every entry, a table's or a single pair's, takes the same rule:
ANGULAR_ORDER Gauss-Legendre nodes on each angular panel.  Unbounded kernels
without breakpoints share one ladder of edges e_k = pi 4^-k, an entry's panels
[0, e_K], [e_K, e_{K-1}], ..., [e_1, pi] from the largest e_K within the width of
its angular peak, so sin^2(t/2) and sin(t)^(N-2) are tabulated once; others split
at their support angle and breakpoints.  Three cases are exact instead: r = 0,
where J is constant on the sphere; N = 3 when the kernel carries H(s) = int_s^inf
t J(t) dt in closed form (tail_antiderivative), where Jtilde(r, rho) = (2 pi rho
/ r) (H(|r - rho|) - H(r + rho)); and a uniform kernel of height c in any N, c times
the cap of |y| = rho inside |y - x| < K, c w_N rho^{N-1} I_x((N-1)/2, (N-1)/2), x =
sin^2(theta_K / 2), theta_K the support angle (I the regularized incomplete beta).
Jstar is evaluated through

    Jstar(l) = w_{N-1} int_0^inf J(sqrt(l^2 + s^2)) s^{N-2} ds.

Here w_k is the area of the unit sphere in R^k (w_1 = 2, w_2 = 2*pi,
w_3 = 4*pi).
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields
from functools import lru_cache
from typing import Callable

import numpy as np
from scipy.special import betainc
from scipy.special import gamma as gamma_fn

from .errors import KernelValidationError, SolvabilityError
from .quadrature import gl_panels, gl_rule, graded_edges_around, octave_integral

COMPACT = "compact"
FAT_TAIL = "fat_tail"
CUSTOM = "custom"

#: Gauss-Legendre order per angular panel of every Jtilde entry that is not exact,
#: a table's or a single pair's.  Largest error against 40-digit mpmath at 24 on the
#: ladder (48 on the cosine chord before): beta = 2.8, 3.5, N = 2 rows at dr = 0.05-0.25
#: and pairs at r = 1e3, 1e5 to |r - rho| = 0.001, 1.1e-15 relative (7.3e-12); cosine
#: N = 2 band rows, 3.7e-15 of the row maximum; off-grid pairs of lambda1, 3.7e-15.
ANGULAR_ORDER = 24
#: Gauss-Legendre order of each half panel of shell_mass
SHELL_ORDER = 48
#: edges pi 4^-k, k = 40..0, of the fixed angular ladder of unbounded kernels, ascending
_LADDER = math.pi * 0.25 ** np.arange(40, -1, -1)
#: largest deviation of the kernel's mass from 1 that validate_kernel accepts
TOL_NORM = 1e-6


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
    J(r) ~ A r^(-beta).  tail_antiderivative, when known in
    closed form, is H(s) = int_s^inf t J(t) dt (vectorized); for N = 3
    it makes Jtilde exact.  uniform_height (set by uniform_kernel) is the
    profile's value below support_radius, 0 beyond; Jtilde is then exact in any N.
    """

    profile: Callable[[np.ndarray], np.ndarray]
    dim: int
    kind: str
    support_radius: float | None = None
    tail_exponent: float | None = None
    tail_scale: float | None = None
    breakpoints: tuple[float, ...] = ()
    label: str = ""
    params: tuple = field(default_factory=tuple)
    tail_antiderivative: Callable[[np.ndarray], np.ndarray] | None = None
    uniform_height: float | None = None

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
        """Stable identity keying the on-disk table cache: every field, callables
        by their samples at probe radii (blind between probes; see KernelTables.save)."""
        probe = np.geomspace(1e-3, 64.0, 96)
        h = hashlib.sha256()
        for f in fields(self):
            value = getattr(self, f.name)
            if callable(value):
                value = np.asarray(value(probe), dtype=float).tobytes()
            h.update(repr((f.name, value)).encode())
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
        uniform_height=height,
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


def validate_kernel(kernel: RadialKernel) -> ValidationReport:
    """Check admissibility: sign, J(0) > 0, unit mass, a compact profile 0 past its support.

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
    c, beyond = kernel.uniform_height, horizon * (1.0 + np.geomspace(1e-6, 1e3, 4096))
    spill = kernel.kind == COMPACT and bool(np.any(kernel(beyond) != 0.0))
    if c is not None and (np.any(vals[probe < horizon] != c) or spill):
        failures.append(f"profile is not uniform_height = {c!r} inside the support, 0 beyond")
    elif spill:
        failures.append(f"profile is not 0 beyond support_radius = {horizon!r}")
    norm = normalization(kernel)
    if abs(norm - 1.0) > TOL_NORM:
        failures.append(f"normalization {norm!r} deviates from 1 by more than {TOL_NORM}")
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


def require_valid(kernel: RadialKernel) -> ValidationReport:
    report = validate_kernel(kernel)
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

def _chord_angle(r, rho: np.ndarray, b: float) -> np.ndarray:
    """Polar angle where the chord sqrt((r - rho)^2 + 4 r rho sin^2(t/2)) equals b.

    2 arcsin(sqrt((b - d)(b + d) / (4 r rho))) with d = |r - rho|: 0 for b <= d,
    pi for b >= r + rho, and no cancellation near 0 as with arccos.  r, rho > 0.
    """
    d = np.abs(r - rho)
    return 2.0 * np.arcsin(np.sqrt(np.clip((b - d) * (b + d) / (4.0 * r * rho), 0.0, 1.0)))


def _theta_breaks(kernel: RadialKernel, r, rho: np.ndarray) -> np.ndarray:
    """Angular panel edges, shape (len(rho), nb + 2), sorted along axis 1.

    A profile breakpoint at radius b maps to _chord_angle(r, rho, b), the
    polar angle where the chord equals b.
    """
    cols = [np.zeros_like(rho), *(_chord_angle(r, rho, b) for b in kernel.breakpoints),
            np.full_like(rho, math.pi)]
    return np.sort(np.stack(cols, axis=1), axis=1)


def _ladder_start(r, rho: np.ndarray) -> np.ndarray:
    """Index into _LADDER of each entry's first edge, the largest at or below its scale.

    J(chord(theta)) peaks at theta = 0 with width theta0 = (1 + |r - rho|) /
    (1 + sqrt(r rho)), the chord being ~ sqrt((r - rho)^2 + r rho theta^2).
    The chord vanishes at theta ~ +-i |r - rho| / sqrt(r rho), a branch point
    of J(chord) unless J is even in the chord.  Where that is within theta0 / 5,
    the scale is 5 times its distance instead (power tails at |r - rho| = 0.05
    and 0.001 were 1e-10 and 1e-6 off); pairs |r - rho| >= 0.25 keep theta0.
    """
    gap, root = np.abs(r - rho), np.sqrt(r * rho)
    theta0, near = (1.0 + gap) / (1.0 + root), 5.0 * gap / root
    scale = np.where((near > 0.0) & (near < theta0), near, theta0)
    return np.maximum(np.searchsorted(_LADDER, scale, side="right") - 1, 0)


@lru_cache(maxsize=8)
def _ladder_panels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """sin^2(t/2) at the nodes of the ladder's panels, and the node weights times
    sin(t)^(N-2), one column per panel: its 40 rungs, then [0, e] for each edge e of _LADDER."""
    x, gw = gl_rule(ANGULAR_ORDER)
    lo = np.concatenate((_LADDER[:-1], np.zeros_like(_LADDER)))
    half = 0.5 * (np.concatenate((_LADDER[1:], _LADDER)) - lo)
    t = lo + half * (x[:, None] + 1.0)
    return np.sin(0.5 * t) ** 2, half * gw[:, None] * np.sin(t) ** (n - 2)


def _j_tilde_panels(kernel: RadialKernel, r, rho: np.ndarray,
                    edges: np.ndarray | None = None) -> np.ndarray:
    # One panel at a time, over its live entries only: all at once raised fat_tail_front's
    # peak RSS from 87.0-87.2 to 88.4-88.7 MB and wall_s from 0.53-0.64 s to 0.75-0.97 s
    # (seeds 1-3, 2-vCPU VM).  edges: per entry, or None for the fixed ladder's nodes.
    n = kernel.dim
    gap2, span = (r - rho) ** 2, 4.0 * r * rho
    acc = np.zeros_like(rho)

    def add(live, s2, w):
        # chord^2 = (r - rho)^2 + 4 r rho sin^2(t/2), without cancellation near t = 0;
        # s2 and w hold one row per node, and one column per entry or one for all
        vals = kernel(np.sqrt(s2 * span[live] + gap2[live]))
        acc[live] += w @ vals if w.ndim == 1 else np.einsum("ij,ij->j", w, vals)

    if edges is None:
        # entries in order of their first edge, so that each rung's are a prefix
        first = _ladder_start(r, rho)
        order = np.argsort(first, kind="stable")
        first, gap2, span, (s2, w) = first[order], gap2[order], span[order], _ladder_panels(n)
        add(slice(None), s2[:, first - _LADDER.size], w[:, first - _LADDER.size])
        for k in range(first[0], _LADDER.size - 1):
            add(slice(np.searchsorted(first, k, "right")), s2[:, k, None], w[:, k])
        acc[order] = acc.copy()
    else:
        x, gw = gl_rule(ANGULAR_ORDER)
        for p in range(edges.shape[1] - 1):
            live = np.flatnonzero(edges[:, p + 1] > edges[:, p])
            a = edges[live, p]
            half = 0.5 * (edges[live, p + 1] - a)
            t = a + half * (x[:, None] + 1.0)
            add(live, np.sin(0.5 * t) ** 2,
                half * gw[:, None] * (np.sin(t) ** (n - 2) if n > 2 else 1.0))
    return unit_sphere_area(n - 1) * rho ** (n - 1) * acc


def _exact_n3(kernel: RadialKernel) -> bool:
    """True when Jtilde has the closed form (2 pi rho / r)(H(|r - rho|) - H(r + rho))."""
    return kernel.dim == 3 and kernel.tail_antiderivative is not None


def j_tilde_center(kernel: RadialKernel, rho):
    """Jtilde(0, rho) = w_N rho^{N-1} J(rho), exact: J is constant on the sphere."""
    return unit_sphere_area(kernel.dim) * rho ** (kernel.dim - 1) * kernel(rho)


def j_tilde_row(kernel: RadialKernel, r, rho) -> np.ndarray:
    """Jtilde(r, rho) elementwise over sphere radii rho and r, a scalar or rho's shape.

    A scalar r gives one table row; an array r gives any set of entries in
    one call.  Entries at r = 0, N = 3 entries with tail_antiderivative and
    uniform-kernel entries are exact, in that order of precedence; every other
    entry takes ANGULAR_ORDER Gauss-Legendre nodes per angular panel.
    """
    rho = np.atleast_1d(np.asarray(rho, dtype=float))
    r = np.zeros_like(rho) + r
    out = np.zeros(rho.shape)
    pos = rho > 0.0
    center = pos & (r == 0.0)
    if center.any():
        out[center] = j_tilde_center(kernel, rho[center])
        pos &= ~center
    if not pos.any():
        return out
    r, rp = r[pos], rho[pos]
    if _exact_n3(kernel):
        H = kernel.tail_antiderivative
        out[pos] = 2.0 * math.pi * rp / r * (H(np.abs(r - rp)) - H(r + rp))
        return out
    if kernel.uniform_height is not None:
        # c times the cap of |y| = rho inside |y - x| < K; x = sin^2(theta_K / 2)
        K, n, d = kernel.support_radius, kernel.dim, np.abs(r - rp)
        x = np.clip((K - d) * (K + d) / (4.0 * r * rp), 0.0, 1.0)
        out[pos] = (kernel.uniform_height * unit_sphere_area(n) * rp ** (n - 1)
                    * betainc(0.5 * (n - 1), 0.5 * (n - 1), x))
        return out
    edges = None
    if kernel.kind == COMPACT:
        # pairs within reach of the support; J = 0 beyond the support angle: the edges stop there
        reach = np.abs(rp - r) < kernel.support_radius
        r, rp, pos[pos] = r[reach], rp[reach], reach
        edges = np.minimum(_theta_breaks(kernel, r, rp),
                           _chord_angle(r, rp, kernel.support_radius)[:, None])
    elif kernel.breakpoints:
        first = _ladder_start(r, rp)
        edges = np.sort(np.concatenate((np.maximum(_LADDER[first.min():], _LADDER[first, None]),
                                        _theta_breaks(kernel, r, rp)), axis=1), axis=1)
    out[pos] = _j_tilde_panels(kernel, r, rp, edges)
    return out


def j_tilde(kernel: RadialKernel, r: float, rho: float) -> float:
    """Jtilde(r, rho) of one pair: the rule of j_tilde_row, which every table entry takes."""
    return float(j_tilde_row(kernel, r, rho)[0])


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
