import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvals_banded

from nlfb import (EigenProblem, KernelTables, SolvabilityError, cosine_bump_kernel,
                  find_L_star, j_tilde_row, kernels, lambda1, lambda1_sweep, logistic,
                  power_tail_kernel, steady_state, tabulated)
from nlfb import eigen
from nlfb.eigen import _assemble


def _lam(L, tables, d=1.0, a=0.5):
    return lambda1(EigenProblem(d=d, a=a, L=L, tables=tables)).lambda1


@pytest.fixture(scope="module")
def tables_ball3(ball3):
    return KernelTables(ball3, 0.05)


@pytest.fixture(scope="module")
def tables_beta28():
    return KernelTables(power_tail_kernel(2, 2.8), 0.25)


# banded disc and ball, an off-grid endpoint, a dense fat-tail table
@pytest.fixture(params=[("tables_disc2", 4.0), ("tables_ball3", 4.0),
                        ("tables_disc2", 2.013), ("tables_beta28", 5.0)],
                ids=["disc", "ball", "off_grid", "dense_beta2.8"])
def problem(request):
    name, L = request.param
    return EigenProblem(d=1.0, a=0.5, L=L, tables=request.getfixturevalue(name))


def _dense_operator(p):
    """Nodes, trapezoid weights and the dense G[i, j] = Jtilde(r_i, r_j) of p.

    Grid rows come from row_values; an off-grid L gets its row from
    j_tilde_row and its column from the symmetry identity
    r^{N-1} Jtilde(r, rho) = rho^{N-1} Jtilde(rho, r), with the exact center
    value at r = 0.
    """
    tab, k = p.tables, p.tables.kernel
    m = int(np.floor(p.L / tab.dr + 1e-9))
    nodes = np.arange(m + 1) * tab.dr
    if p.L - nodes[-1] > 1e-12 * max(1.0, p.L):
        nodes = np.append(nodes, p.L)
    n = nodes.size
    w = np.zeros(n)
    w[:-1] += 0.5 * np.diff(nodes)
    w[1:] += 0.5 * np.diff(nodes)
    G = np.zeros((n, n))
    G[:m + 1, :m + 1] = [tab.row_values(i, m + 1) for i in range(m + 1)]
    if n == m + 2:
        G[-1] = j_tilde_row(k, p.L, nodes)
        G[1:-1, -1] = (p.L / nodes[1:-1]) ** (k.dim - 1) * G[-1, 1:-1]
        G[0, -1] = kernels.j_tilde_center(k, p.L)
    return nodes, w, G


def _band_oracle(p):
    """lambda1 of p from LAPACK's banded symmetric eigensolver on the same band.

    S is the symmetrized operator over the nodes r > 0 in lower band storage,
    S_band[k, b - 1] = S[b + k, b], built from the diagonals _assemble reads.
    """
    nodes, w, G = _assemble(p)
    n, reach = nodes.size, G.shape[1] // 2
    s = nodes ** (0.5 * (p.tables.kernel.dim - 1)) * np.sqrt(w)
    S = np.zeros((min(reach, n - 2) + 1, n - 1))
    for k in range(S.shape[0]):
        a, b = np.arange(1 + k, n), np.arange(1, n - k)
        S[k, :n - 1 - k] = 0.5 * (s[a] * G[a, reach - k] * w[b] / s[b]
                                  + s[b] * G[b, reach + k] * w[a] / s[a])
    eta = eigvals_banded(S, lower=True, select="i", select_range=(n - 2, n - 2))[0]
    return p.d * eta - p.d + p.a


@pytest.fixture(scope="module")
def tables_cos2():
    return KernelTables(cosine_bump_kernel(2), 0.05)


@pytest.mark.parametrize("L", [0.025, 0.4, 2.013, 20.0, 60.0])
@pytest.mark.parametrize("name", ["tables_disc2", "tables_ball3", "tables_cos2"])
def test_lambda1_matches_banded_eigensolver(name, L, request):
    # L = dr / 2 leaves one node r > 0; L = 60 is a 1,200-node band
    p = EigenProblem(d=1.0, a=0.5, L=L, tables=request.getfixturevalue(name))
    res = lambda1(p)
    assert abs(res.lambda1 - _band_oracle(p)) <= 1e-14
    assert res.iterations <= 8
    assert res.residual < 1e-14


@pytest.mark.parametrize("L", [0.125, 0.4, 2.013, 20.0, 50.0])
def test_lambda1_matches_dense_symmetric_eigensolve(L, tables_beta28):
    # dense beta = 2.8 table at dr = 0.25: at most 201 nodes
    p = EigenProblem(d=1.0, a=0.5, L=L, tables=tables_beta28)
    nodes, w, G = _dense_operator(p)
    s = nodes[1:] ** 0.5 * np.sqrt(w[1:])  # r^{(N-1)/2} sqrt(w), N = 2
    S = s[:, None] * G[1:, 1:] * (w[1:] / s)[None, :]
    top = np.linalg.eigvalsh(0.5 * (S + S.T))[-1]
    res = lambda1(p)
    assert abs(res.lambda1 - (p.d * top - p.d + p.a)) <= 1e-14
    assert res.iterations <= 8
    assert res.residual < 1e-14


def test_lambda1_matches_general_eigensolve(problem):
    # the unsymmetrized operator d*G*diag(w) - d + a, solved without symmetry
    _, w, G = _dense_operator(problem)
    top = np.linalg.eigvals(problem.d * G * w[None, :]).real.max()
    assert abs(lambda1(problem).lambda1 - (top - problem.d + problem.a)) <= 1e-10


def test_limits_small_and_large_L(tables_disc2):
    # lambda1 -> a - d as L -> 0 and -> a as L -> infinity
    lam_small = _lam(0.05, tables_disc2)
    assert abs(lam_small - (-0.5)) < 0.02
    lam_large = _lam(30.0, tables_disc2)
    assert abs(lam_large - 0.5) < 0.1
    assert lam_large > 0.0


def test_bounds_and_monotonicity(tables_disc2):
    results = lambda1_sweep(1.0, 0.5, [0.5, 1.0, 2.0, 4.0, 8.0], tables_disc2)
    lams = [r.lambda1 for r in results]
    for lam in lams:
        assert -0.5 - 1e-8 <= lam <= 0.5 + 1e-8
    assert all(a < b for a, b in zip(lams[:-1], lams[1:]))


def test_sweep_equals_separate_solves_in_any_order(tables_disc2):
    Ls = [8.0, 0.5, 2.013, 4.0, 1.0]
    separate = {L: _lam(L, tables_disc2) for L in Ls}
    for order in (Ls, sorted(Ls), sorted(Ls, reverse=True)):
        swept = [r.lambda1 for r in lambda1_sweep(1.0, 0.5, order, tables_disc2)]
        assert swept == [separate[L] for L in order]


def test_rayleigh_lower_bound(tables_disc2):
    # any test vector gives a lower bound for the top symmetric eigenvalue
    p = EigenProblem(d=1.0, a=0.5, L=3.0, tables=tables_disc2)
    nodes, w, G = _dense_operator(p)
    s = np.sqrt(nodes[1:] * w[1:])  # r^{(N-1)/2} sqrt(w), N = 2
    S = G[1:, 1:] * np.outer(s, 1.0 / s) * w[None, 1:]
    S = 0.5 * (S + S.T)
    v = np.ones(S.shape[0])
    rayleigh = float(v @ (S @ v) / (v @ v))
    lower = p.d * rayleigh + p.a - p.d
    assert lambda1(p).lambda1 >= lower - 1e-10


def test_eigenfunction_positive_small_residual(problem):
    res = lambda1(problem)
    assert np.all(res.eigenfunction > 0.0)
    assert res.eigenfunction.max() == 1.0
    assert res.residual < 1e-10
    # the residual against the dense operator, not the band product lambda1 uses
    _, w, G = _dense_operator(problem)
    phi, p = res.eigenfunction, problem
    dense = p.d * (G @ (w * phi)) - p.d * phi + p.a * phi - res.lambda1 * phi
    assert np.abs(dense).max() < 1e-10


def test_lambda1_forms_no_dense_matrix(disc2):
    # the band solve at L = 60 on a filled table: G alone would be 1,201^2
    # doubles (11.5 MB)
    tab = KernelTables(disc2, 0.05)
    tab.ensure(1201)
    tracemalloc.start()
    try:
        res = lambda1(EigenProblem(d=1.0, a=0.5, L=60.0, tables=tab))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.residual < 1e-10
    assert peak < 3e6, peak


def test_off_grid_endpoint_consistent(tables_disc2):
    # L off the grid must land between the bracketing on-grid radii
    lam_lo = _lam(2.0, tables_disc2)
    lam_mid = _lam(2.013, tables_disc2)
    lam_hi = _lam(2.05, tables_disc2)
    assert lam_lo < lam_mid < lam_hi


def test_a_equal_d_positive_lambda(tables_disc2):
    # at a = d the eigenvalue is strictly positive for every radius
    for L in (0.5, 2.0):
        lam = _lam(L, tables_disc2, d=1.0, a=1.0)
        assert 0.0 < lam < 1.0


def test_problem_requires_positive_a(tables_disc2):
    with pytest.raises(ValueError):
        lambda1(EigenProblem(d=1.0, a=-0.1, L=1.0, tables=tables_disc2))


def test_grid_refinement_converges(disc2):
    lams = []
    for dr in (0.1, 0.05, 0.025):
        tab = KernelTables(disc2, dr)
        lams.append(_lam(2.0, tab))
    d1 = abs(lams[1] - lams[0])
    d2 = abs(lams[2] - lams[1])
    assert d2 < d1  # refinement contracts
    assert d1 < 5e-3


def test_find_L_star_zero_crossing(tables_disc2):
    L_star, (lo, hi) = find_L_star(1.0, 0.5, tables_disc2)
    assert hi - lo <= 1e-4
    assert abs(_lam(L_star, tables_disc2)) < 1e-3
    assert _lam(L_star - 0.05, tables_disc2) < 0.0
    assert _lam(L_star + 0.05, tables_disc2) > 0.0


def test_L_star_decreases_as_a_grows(tables_disc2):
    # lambda1 increases pointwise in a, so the zero crossing moves left
    L_half = find_L_star(1.0, 0.5, tables_disc2)[0]
    L_near = find_L_star(1.0, 0.999, tables_disc2)[0]
    assert L_near < L_half


def test_L_star_requires_bistable_range(tables_disc2):
    with pytest.raises(SolvabilityError):
        find_L_star(1.0, 1.5, tables_disc2)
    with pytest.raises(SolvabilityError):
        find_L_star(1.0, 0.0, tables_disc2)


def test_steady_state_below_u_star(tables_disc2, logistic_f):
    nodes, u = steady_state(8.0, 1.0, logistic_f, tables_disc2)
    assert np.all(u > 0.0)
    assert 0.9 < u.max() < 1.0 + 1e-6
    # radially nonincreasing toward the fixed boundary
    assert u[0] > u[-1]


def test_steady_state_assembles_once(monkeypatch, tables_disc2, logistic_f):
    calls = []

    def counting(p):
        calls.append(p.L)
        return _assemble(p)

    monkeypatch.setattr(eigen, "_assemble", counting)
    steady_state(2.5, 2.0, logistic_f, tables_disc2)
    assert calls == [2.5]


@pytest.mark.parametrize("L", [0.3, 1.3])
def test_short_steady_state_matches_a_dense_march(L, tables_disc2, logistic_f):
    # n < 2 * reach + 1 nodes, so every march step pads v for dgbmv; the same
    # march on the dense rows over their row masses
    tab = tables_disc2
    n = int(round(L / tab.dr)) + 1
    assert n < 2 * (tab.bw + 1) + 1
    G = np.stack([tab.row_values(i, n) for i in range(n)]) / tab.row_mass(n)[:, None]
    w = np.full(n, tab.dr)
    w[0] = w[-1] = 0.5 * tab.dr
    dt = 0.4 / (1.0 + logistic_f.lipschitz(1.0))
    u = np.full(n, 0.5)
    while True:
        new = u + dt * ((G @ (w * u) - u) + logistic_f(u))
        done = np.abs(new - u).max() < eigen.TOL_SS * dt
        u = new
        if done:
            break
    nodes, got = steady_state(L, 1.0, logistic_f, tab)
    assert nodes.size == n
    assert np.abs(got - u).max() <= 1e-12


def test_steady_state_positive_for_tabulated_reaction(tables_disc2):
    # a Newton solve from u_star / 2 fell to u = 0 on this case; the march
    # must reach the positive state
    f = tabulated([0.0, 0.5, 1.0, 2.0], [0.0, 0.3, 0.0, -1.0])
    _, u = steady_state(3.0, 1.0, f, tables_disc2)
    assert np.all(u > 0.0)
    assert 0.9 < u.max() <= f.u_star


def test_steady_state_nonexistent_below_threshold(tables_disc2, logistic_f):
    # d > f'(0) and L below the eigenvalue crossing: only u = 0 remains
    with pytest.raises(SolvabilityError):
        steady_state(0.5, 2.0, logistic_f, tables_disc2)


def test_steady_state_monotone_in_L(tables_disc2, logistic_f):
    _, u_small = steady_state(4.0, 1.0, logistic_f, tables_disc2)
    _, u_large = steady_state(8.0, 1.0, logistic_f, tables_disc2)
    n = u_small.size
    assert np.all(u_large[: n - 1] >= u_small[: n - 1] - 1e-8)
