"""Principal eigenvalue of the nonlocal operator on a ball.

For the radial operator

    A[phi](r) = d * int_0^L Jtilde(r, rho) phi(rho) d rho - d phi(r) + a phi(r)

the principal eigenvalue lambda1(L) is computed by discretizing the
integral with trapezoid weights, conjugating with
diag(r^{(N-1)/2} sqrt(w)) to obtain a symmetric nonnegative matrix S
(valid by the symmetry identity r^{N-1} Jtilde(r, rho) =
rho^{N-1} Jtilde(rho, r)), and finding its largest eigenvalue eta:
lambda1 = d*eta - d + a.

No n x n matrix is formed: G is read from the table as its diagonals
|i - j| <= reach (bw + 1 for a band table, its support plus the off-grid
node L; the full width for a dense one), products with G are one BLAS
dgbmv on that band (tables.band_matvec), and S goes into LAPACK lower
band storage.  For v > 0 the
quotients (S v)_i / v_i bracket eta, the Perron root of S
(Collatz-Wielandt); inverse iteration from v = 1, shifted just above
the bracket so that v stays positive, runs until it closes.

lambda1(L) is strictly increasing in L with limits a - d (L -> 0) and
a (L -> infinity), which gives the threshold radius L_star when
0 < a < d; find_L_star keeps it with the table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dsbmv
from scipy.linalg.lapack import dpbsv

from . import kernels as kmod
from .errors import NumericalError, SolvabilityError
from .reactions import Reaction
from .tables import KernelTables, band_matvec

#: find_L_star's final bracket width, and the radius where its doubling search gives up
TOL_L = 1e-4
L_MAX = 200.0
#: steady_state stops once no value moves more than TOL_SS * dt in a step, and
#: fails after MAX_SS_STEPS steps
TOL_SS = 1e-8
MAX_SS_STEPS = 2_000_000
#: lambda1's inverse iteration shifts by sigma = (1 + BRACKET_TOL) max(S v / v), and its
#: last pass starts from min and max of S v / v within BRACKET_TOL (4 to 8 passes)
BRACKET_TOL = 1e-12
MAX_SHIFTS = 30


@dataclass(frozen=True)
class EigenProblem:
    d: float
    a: float
    L: float
    tables: KernelTables

    def __post_init__(self):
        if self.d <= 0.0 or self.a <= 0.0 or self.L <= 0.0:
            raise ValueError("need d > 0, a > 0 and L > 0")


@dataclass
class EigenResult:
    lambda1: float
    nodes: np.ndarray
    eigenfunction: np.ndarray
    iterations: int  # factorizations of sigma*I - S, one per shifted pass
    residual: float


def _grid(L: float, dr: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Nodes 0, dr, ..., m*dr plus L itself when L is off-grid; weights."""
    m = int(np.floor(L / dr + 1e-9))
    delta = L - m * dr
    if delta > 1e-12 * max(1.0, L):
        nodes = np.append(np.arange(m + 1) * dr, L)
    else:
        nodes = np.arange(m + 1) * dr
    w = np.empty_like(nodes)
    w[1:-1] = 0.5 * (nodes[2:] - nodes[:-2])
    w[0] = 0.5 * (nodes[1] - nodes[0])
    w[-1] = 0.5 * (nodes[-1] - nodes[-2])
    return nodes, w, m


def _assemble(p: EigenProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Grid, weights and the diagonals of G[i, j] = Jtilde(r_i, r_j) over the grid of _grid.

    G comes row by row as KernelTables.diagonals lays it out: G[i, reach + k]
    is entry (i, i + k).
    """
    t = p.tables
    nodes, w, m = _grid(p.L, t.dr)
    n = nodes.size
    reach = min(t.bw + 1, n - 1) if t.banded else n - 1
    G = np.zeros((n, 2 * reach + 1))
    G[:m + 1] = t.diagonals(m + 1, reach)
    if n == m + 2:
        # off-grid endpoint: one j_tilde_row row, column via the symmetry
        # identity (exact center value for the r = 0 entry)
        kern = t.kernel
        lo = n - 1 - reach
        G[m + 1, :reach + 1] = kmod.j_tilde_row(kern, p.L, nodes[lo:])
        i = np.arange(max(lo, 1), m + 1)
        G[i, reach + m + 1 - i] = (p.L / nodes[i]) ** (kern.dim - 1) * G[m + 1, i - lo]
        if lo == 0:
            G[0, reach + m + 1] = kmod.j_tilde_center(kern, p.L)
    return nodes, w, G


def lambda1(p: EigenProblem) -> EigenResult:
    """Principal eigenvalue and positive radial eigenfunction on [0, L]."""
    return _principal(p, *_assemble(p))


def _principal(p: EigenProblem, nodes, w, G) -> EigenResult:
    """lambda1 of p from its assembled grid, weights and kernel diagonals."""
    n, reach = nodes.size, G.shape[1] // 2
    pw = 0.5 * (p.tables.kernel.dim - 1)
    # S[a, b] = sqrt(w_a w_b) (G_ab (r_a/r_b)^pw + G_ba (r_b/r_a)^pw) / 2 over the
    # nodes r > 0, as S_band[k, b - 1] = S[b + k, b].  The r = 0 node carries a
    # zero column (Jtilde(r, 0) = 0), so dropping it leaves the nonzero
    # spectrum untouched.
    k = np.arange(min(reach, n - 2) + 1)
    b = np.arange(1, n)[:, None]
    a = np.minimum(b + k, n - 1)
    ratio = (nodes[a] / nodes[b]) ** pw
    S = np.where(b + k < n, 0.5 * np.sqrt(w[a] * w[b])
                 * (G[a, reach - k] * ratio + G[b, reach + k] / ratio), 0.0).T
    v = np.ones(n - 1)
    for iterations in range(1, MAX_SHIFTS + 1):
        q = dsbmv(S.shape[0] - 1, 1.0, S, v, lower=1) / v
        hi, lo = q.max(), q.min()
        shifted = -S
        shifted[0] += (1.0 + BRACKET_TOL) * hi
        _, v, info = dpbsv(shifted, v, lower=1, overwrite_ab=1)
        positive = not info and np.isfinite(hi) and v.min() > 0.0
        if not positive or hi - lo <= BRACKET_TOL * hi:
            break
        v /= v.max()
    if not positive or hi - lo > BRACKET_TOL * hi:
        raise NumericalError(f"lambda1 at L = {p.L:g}: v not positive or S v / v apart "
                             f"by {hi - lo:.3g} after {iterations} shifted solves")
    eta = float(v @ dsbmv(S.shape[0] - 1, 1.0, S, v, lower=1) / (v @ v))
    lam = p.d * eta - p.d + p.a
    # unsymmetrized eigenfunction, extended to the center node
    phi = np.empty(n)
    phi[1:] = np.abs(v) / (nodes[1:] ** pw * np.sqrt(w[1:]))
    phi[0] = float(G[0, reach + 1:] @ (w * phi)[1:reach + 1]) / eta if eta > 0 else phi[1]
    phi /= phi.max()
    conv = band_matvec(G, w * phi)
    resid = np.abs(p.d * conv - p.d * phi + p.a * phi - lam * phi).max()
    return EigenResult(lambda1=float(lam), nodes=nodes, eigenfunction=phi,
                       iterations=iterations, residual=float(resid))


def lambda1_sweep(d: float, a: float, L_values, tables: KernelTables) -> list[EigenResult]:
    """lambda1 over many radii, one independent solve each."""
    return [lambda1(EigenProblem(d=d, a=a, L=float(L), tables=tables)) for L in L_values]


def find_L_star(d: float, a: float, tables: KernelTables) -> tuple[float, tuple[float, float]]:
    """Radius where lambda1 crosses zero; requires 0 < a < d.

    Monotonicity of lambda1 in L makes the zero unique; plain bisection
    after a doubling search for the sign change.  The result is kept
    with the table, once per (d, a).
    """
    if not 0.0 < a < d:
        raise SolvabilityError("L_star exists only for 0 < a < d")
    key = ("L_star", d, a)
    if key in tables._solved:
        return tables._solved[key]

    def lam(L):
        return lambda1(EigenProblem(d=d, a=a, L=L, tables=tables)).lambda1

    lo = tables.dr
    if lam(lo) >= 0.0:
        return tables._solved.setdefault(key, (lo, (0.0, lo)))
    hi = 2.0 * lo
    while lam(hi) < 0.0:
        lo = hi
        hi *= 2.0
        if hi > L_MAX:
            raise SolvabilityError(
                f"lambda1 still negative at L = {lo:g}; a may be too close to d "
                f"for the search horizon {L_MAX:g}")
    while hi - lo > TOL_L:
        mid = 0.5 * (lo + hi)
        if lam(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return tables._solved.setdefault(key, (0.5 * (lo + hi), (lo, hi)))


def steady_state(L: float, d: float, reaction: Reaction,
                 tables: KernelTables) -> tuple[np.ndarray, np.ndarray]:
    """Positive steady state of the fixed-boundary problem on [0, L].

    Exists exactly when lambda1(L) > 0 with a = f'(0); reached by
    explicit time-marching from the constant state u_star / 2.
    """
    prob = EigenProblem(d=d, a=reaction.fprime0, L=L, tables=tables)
    nodes, w, G = _assemble(prob)
    lam = _principal(prob, nodes, w, G).lambda1
    if lam <= 0.0:
        raise SolvabilityError(
            f"no positive steady state: lambda1(L) = {lam:g} <= 0 (solution decays)")
    # normalize rows by the discrete full-line kernel mass so the march
    # cannot equilibrate above u_star through quadrature bias
    m = int(np.floor(L / tables.dr + 1e-9))
    G[:m + 1] /= tables.row_mass(m + 1)[:, None]
    dt = 0.4 / (d + reaction.lipschitz(max(1.0, reaction.u_star)))
    wvec = np.full(nodes.size, 0.5 * reaction.u_star)
    for _ in range(MAX_SS_STEPS):  # the solver's update: dt (d conv + f) + (1 - dt d) v
        new = band_matvec(G, w * wvec, dt * d, dt, reaction.f(wvec)) + (1.0 - dt * d) * wvec
        delta = np.abs(new - wvec).max()
        wvec = new
        if delta < TOL_SS * dt:
            return nodes, wvec
    raise NumericalError("steady-state march did not converge")
