"""Principal eigenvalue of the nonlocal operator on a ball.

For the radial operator

    A[phi](r) = d * int_0^L Jtilde(r, rho) phi(rho) d rho - d phi(r) + a phi(r)

the principal eigenvalue lambda1(L) is computed by discretizing the
integral with trapezoid weights, conjugating with
diag(r^{(N-1)/2} sqrt(w)) to obtain a symmetric nonnegative matrix S
(valid by the symmetry identity r^{N-1} Jtilde(r, rho) =
rho^{N-1} Jtilde(rho, r)), and one symmetric eigensolve: the largest
eigenvalue eta of S gives lambda1 = d*eta - d + a.

lambda1(L) is strictly increasing in L with limits a - d (L -> 0) and
a (L -> infinity), which gives the threshold radius L_star when
0 < a < d.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from . import kernels as kmod
from .errors import NumericalError, SolvabilityError
from .reactions import Reaction
from .tables import KernelTables

#: find_L_star's final bracket width, and the radius where its doubling search gives up
TOL_L = 1e-4
L_MAX = 200.0
#: steady_state stops once no value moves more than TOL_SS * dt in a step, and
#: fails after MAX_SS_STEPS steps
TOL_SS = 1e-8
MAX_SS_STEPS = 2_000_000


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
    iterations: int  # 1, for the one direct solve; kept for callers that read it
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
    """Dense G[i, j] = Jtilde(r_i, r_j) over the grid of _grid, with weights."""
    t = p.tables
    nodes, w, m = _grid(p.L, t.dr)
    n = nodes.size
    t.ensure(m + 1, m + 1)
    G = np.zeros((n, n))
    for i in range(m + 1):
        G[i, :m + 1] = t.row_values(i, m + 1)
    if n == m + 2:
        # off-grid endpoint: one quadrature row, column via the symmetry
        # identity (exact center value for the r = 0 entry)
        kern = t.kernel
        G[m + 1, :] = kmod.j_tilde_row(kern, p.L, nodes)
        nm1 = kern.dim - 1
        ri = nodes[1:m + 1]
        G[1:m + 1, m + 1] = (p.L / ri) ** nm1 * G[m + 1, 1:m + 1]
        G[0, m + 1] = kmod.j_tilde_center(kern, p.L)
    return nodes, w, G


def _symmetrized(nodes, w, G, dim: int) -> np.ndarray:
    """Similarity transform of G @ diag(w) restricted to nodes r > 0.

    The r = 0 node carries a zero column (Jtilde(r, 0) = 0), so dropping
    it leaves the nonzero spectrum untouched.
    """
    p = 0.5 * (dim - 1)
    r = nodes[1:]
    s = r ** p * np.sqrt(w[1:])
    S = G[1:, 1:] * np.outer(s, 1.0 / s) * w[1:][None, :]
    return 0.5 * (S + S.T)


def lambda1(p: EigenProblem) -> EigenResult:
    """Principal eigenvalue and positive radial eigenfunction on [0, L]."""
    return _principal(p, *_assemble(p))


def _principal(p: EigenProblem, nodes, w, G) -> EigenResult:
    """lambda1 of p from its assembled grid, weights and kernel matrix."""
    S = _symmetrized(nodes, w, G, p.tables.kernel.dim)
    n = S.shape[0]
    top, vecs = eigh(S, subset_by_index=[n - 1, n - 1])
    eta = float(top[0])  # Perron root of G @ diag(w)
    lam = p.d * eta - p.d + p.a
    # unsymmetrized eigenfunction, extended to the center node
    phi = np.empty(nodes.size)
    pw = 0.5 * (p.tables.kernel.dim - 1)
    phi[1:] = np.abs(vecs[:, 0]) / (nodes[1:] ** pw * np.sqrt(w[1:]))
    phi[0] = float(G[0, 1:] @ (w[1:] * phi[1:])) / eta if eta > 0 else phi[1]
    phi /= phi.max()
    resid = np.abs(p.d * (G @ (w * phi)) - p.d * phi + p.a * phi - lam * phi).max()
    return EigenResult(lambda1=float(lam), nodes=nodes, eigenfunction=phi,
                       iterations=1, residual=float(resid))


def lambda1_sweep(d: float, a: float, L_values, tables: KernelTables) -> list[EigenResult]:
    """lambda1 over many radii, one independent solve each."""
    return [lambda1(EigenProblem(d=d, a=a, L=float(L), tables=tables)) for L in L_values]


def find_L_star(d: float, a: float, tables: KernelTables) -> tuple[float, tuple[float, float]]:
    """Radius where lambda1 crosses zero; requires 0 < a < d.

    Monotonicity of lambda1 in L makes the zero unique; plain bisection
    after a doubling search for the sign change.
    """
    if not 0.0 < a < d:
        raise SolvabilityError("L_star exists only for 0 < a < d")

    def lam(L):
        return lambda1(EigenProblem(d=d, a=a, L=L, tables=tables)).lambda1

    lo = tables.dr
    if lam(lo) >= 0.0:
        return lo, (0.0, lo)
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
    return 0.5 * (lo + hi), (lo, hi)


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
    mass = np.ones(nodes.size)
    mass[:m + 1] = tables.row_mass(m + 1)
    G = G / mass[:, None]
    dt = 0.4 / (d + reaction.lipschitz(max(1.0, reaction.u_star)))
    wvec = np.full(nodes.size, 0.5 * reaction.u_star)
    for _ in range(MAX_SS_STEPS):
        conv = G @ (w * wvec)
        new = wvec + dt * (d * (conv - wvec) + reaction(wvec))
        delta = np.abs(new - wvec).max()
        wvec = new
        if delta < TOL_SS * dt:
            return nodes, wvec
    raise NumericalError("steady-state march did not converge")
