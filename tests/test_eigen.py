import numpy as np
import pytest

from nlfb import (EigenProblem, KernelTables, SolvabilityError, find_L_star,
                  lambda1, lambda1_sweep, logistic, power_tail_kernel,
                  steady_state, tabulated)
from nlfb import eigen
from nlfb.eigen import _assemble, _symmetrized


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


def test_lambda1_matches_general_eigensolve(problem):
    # the unsymmetrized operator d*G*diag(w) - d + a, solved without symmetry
    _, w, G = _assemble(problem)
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
    nodes, w, G = _assemble(p)
    S = _symmetrized(nodes, w, G, 2)
    v = np.ones(S.shape[0])
    rayleigh = float(v @ (S @ v) / (v @ v))
    lower = p.d * rayleigh + p.a - p.d
    assert lambda1(p).lambda1 >= lower - 1e-10


def test_eigenfunction_positive_small_residual(problem):
    res = lambda1(problem)
    assert np.all(res.eigenfunction > 0.0)
    assert res.eigenfunction.max() == 1.0
    assert res.residual < 1e-10


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
