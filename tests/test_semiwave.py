import math

import numpy as np
import pytest
from scipy.linalg import solve_banded
from scipy.linalg.lapack import dtbtrs
from scipy.optimize import minimize_scalar
from scipy.special import iv

from nlfb import (Marginal1D, NumericalError, SemiWaveProblem, SolvabilityError,
                  Reaction, cosine_bump_kernel, j_star, logistic, marginal_from_kernel,
                  power_tail_kernel, solve_semiwave, speed_from_kernel, tabulated,
                  uniform_kernel)
from nlfb import semiwave
from nlfb.semiwave import _Discretization, u_star_hat


def _bump(height: float, half_width: float) -> Marginal1D:
    def p(x):
        x = np.asarray(x, dtype=float)
        return height * np.clip(1.0 - (x / half_width) ** 2, 0.0, None)

    return Marginal1D(p=p, support=half_width,
                      label=f"bump({height:g},{half_width:g})")


def _unit_bump() -> Marginal1D:
    # mass 2 * h * (2/3) * w = 1 for h = 0.75, w = 1
    return _bump(0.75, 1.0)


def test_u_star_hat_unit_mass_recovers_u_star(logistic_f):
    P = _unit_bump()
    assert abs(P.norm1 - 1.0) < 1e-12
    assert abs(u_star_hat(P, 1.0, logistic_f) - 1.0) < 1e-10


def test_u_star_hat_shifts_with_mass(logistic_f):
    # d (||P|| - 1) u + u (1 - u) = 0 -> u = 1 + d (||P|| - 1)
    P = _bump(0.9, 1.0)  # mass 1.2
    assert abs(u_star_hat(P, 1.0, logistic_f) - 1.2) < 1e-10
    P = _bump(0.6, 1.0)  # mass 0.8
    assert abs(u_star_hat(P, 1.0, logistic_f) - 0.8) < 1e-10


def test_semiwave_bump_profile_properties(logistic_f):
    prob = SemiWaveProblem(P=_unit_bump(), d=1.0, mu=1.0, f=logistic_f)
    sol = solve_semiwave(prob)
    assert sol.c0 > 0.0
    assert sol.residual_pde < 1e-6
    assert sol.residual_speed < 1e-6
    assert abs(sol.phi[-1]) == 0.0
    # monotone decrease up to the iteration tolerance on the plateau
    diffs = np.diff(sol.phi)
    assert diffs.max() <= 1e-8 * sol.u_star_hat
    assert sol.tail_gap < 1e-6
    # strict interior positivity
    assert np.all(sol.phi[:-1] > 0.0)


def test_semiwave_exponential_tail(logistic_f):
    prob = SemiWaveProblem(P=_unit_bump(), d=1.0, mu=1.0, f=logistic_f)
    sol = solve_semiwave(prob)
    gap = sol.u_star_hat - sol.phi
    sel = (gap > 1e-8 * sol.u_star_hat) & (gap < 0.1 * sol.u_star_hat)
    assert sel.sum() > 10
    x, y = sol.x[sel], np.log(gap[sel])
    slope, intercept = np.polyfit(x, y, 1)
    fit = slope * x + intercept
    ss_res = np.sum((y - fit) ** 2)
    ss_tot = np.sum((y - y.mean()) ** 2)
    assert 1.0 - ss_res / ss_tot > 0.99
    assert slope > 0.0  # gap shrinks leftward


def test_speed_monotone_in_kernel(logistic_f, rng):
    # pointwise-larger kernels give a faster (or equal) semi-wave
    base = _unit_bump()
    # perturbed kernels have mass > 1 and approach their plateau slowly;
    # a fixed moderate window keeps the runs fast and the comparison fair
    opts = dict(d=1.0, mu=1.0, f=logistic_f, tol_tail=1e-6, M_cap=80.0)
    c_base = solve_semiwave(SemiWaveProblem(P=base, **opts)).c0
    for _ in range(5):
        height = rng.uniform(0.02, 0.1)
        width = rng.uniform(0.3, 0.9)

        def bigger(x, h=height, w=width):
            x = np.asarray(x, dtype=float)
            extra = h * np.clip(1.0 - (x / w) ** 2, 0.0, None)
            return base.p(x) + extra

        P2 = Marginal1D(p=bigger, support=1.0)
        assert P2.norm1 > base.norm1
        c2 = solve_semiwave(SemiWaveProblem(P=P2, **opts)).c0
        assert c2 >= c_base - 1e-8


def test_speed_monotone_in_mu(logistic_f):
    P = _unit_bump()
    c1 = solve_semiwave(SemiWaveProblem(P=P, d=1.0, mu=1.0, f=logistic_f)).c0
    c2 = solve_semiwave(SemiWaveProblem(P=P, d=1.0, mu=2.0, f=logistic_f)).c0
    assert c2 > c1


def test_truncated_fat_marginal_speeds_grow(logistic_f):
    # truncations of a first-moment-divergent marginal have speeds that
    # grow without bound as the truncation radius increases
    def make(R):
        c_norm = 0.45  # keeps the mass moderate; exact value irrelevant

        def p(x):
            x = np.asarray(x, dtype=float)
            return np.where(x <= R, c_norm * (1.0 + x) ** -1.5, 0.0)

        return Marginal1D(p=p, support=R)

    speeds = []
    for R in (3.0, 6.0, 12.0):
        prob = SemiWaveProblem(P=make(R), d=1.0, mu=1.0, f=logistic_f)
        speeds.append(solve_semiwave(prob).c0)
    assert speeds[0] < speeds[1] < speeds[2]
    assert speeds[2] > 1.3 * speeds[0]


def test_infinite_speed_detected(logistic_f):
    def p(x):
        x = np.asarray(x, dtype=float)
        return 0.45 * (1.0 + x) ** -1.9

    P = Marginal1D(p=p, support=math.inf)
    assert math.isinf(P.moment1)
    with pytest.raises(SolvabilityError, match="infinite speed"):
        solve_semiwave(SemiWaveProblem(P=P, d=1.0, mu=1.0, f=logistic_f))


def test_log_divergent_first_moment_is_inf():
    # P = (c/2) (c + |x|)^-2 has unit mass and int_0^inf x P dx = inf
    for c in (0.25, 0.5, 1.0):
        P = Marginal1D(p=lambda x, c=c: 0.5 * c * (c + np.asarray(x, dtype=float)) ** -2.0)
        assert abs(P.norm1 - 1.0) < 1e-12
        assert math.isinf(P.moment1), c


def test_speed_from_kernel_moment_dichotomy(logistic_f):
    assert math.isinf(speed_from_kernel(power_tail_kernel(2, 2.5), 1.0, 1.0,
                                        logistic_f))
    assert math.isinf(speed_from_kernel(power_tail_kernel(2, 3.0), 1.0, 1.0,
                                        logistic_f))


def test_dx_refinement_consistency(logistic_f):
    P = _unit_bump()
    prob_a = SemiWaveProblem(P=P, d=1.0, mu=1.0, f=logistic_f, dx=0.02)
    prob_b = SemiWaveProblem(P=P, d=1.0, mu=1.0, f=logistic_f, dx=0.01)
    c_a = solve_semiwave(prob_a).c0
    c_b = solve_semiwave(prob_b).c0
    assert abs(c_a - c_b) / c_b < 0.005


def test_marginal_from_kernel_matches_jstar(disc2):
    P = marginal_from_kernel(disc2)
    assert abs(P.norm1 - 1.0) < 1e-6
    assert abs(P.moment1 - 2.0 / (3.0 * math.pi)) < 1e-8
    assert abs(float(P(0.0)) - 2.0 / math.pi) < 1e-8


@pytest.mark.parametrize("d", [1.0, 2.0])
def test_rising_profile_is_rejected_in_the_first_round(monkeypatch, logistic_f, d):
    # at mu = 0.1 the root search lands where dx (d + 1) / c > 2 and the
    # leftward march oscillates instead of settling on the plateau
    rounds = []
    inner = semiwave._solve_at_truncation

    def counting(prob, disc, ustar):
        rounds.append(prob.M)
        return inner(prob, disc, ustar)

    monkeypatch.setattr(semiwave, "_solve_at_truncation", counting)
    prob = SemiWaveProblem(P=marginal_from_kernel(uniform_kernel(2)), d=d, mu=0.1,
                           f=logistic_f)
    with pytest.raises(NumericalError, match="rises"):
        solve_semiwave(prob)
    assert rounds == [20.0]  # the first window, SemiWaveProblem.M


def test_unconverged_tail_at_M_cap_is_rejected(logistic_f):
    prob = SemiWaveProblem(P=marginal_from_kernel(power_tail_kernel(2, 4.0)), d=1.0,
                           mu=1.0, f=logistic_f, tol_tail=1e-4, M_cap=20.0)
    with pytest.raises(NumericalError, match="M_cap"):
        solve_semiwave(prob)


def test_reaction_label_does_not_change_c0(disc2):
    # f(u) = u (1 - u)(1 + u) is not logistic, whatever its label says
    def cubic(label):
        return Reaction(f=lambda u: u * (1.0 - u) * (1.0 + u), fprime0=1.0, u_star=1.0,
                        label=label)

    c_named = speed_from_kernel(disc2, 1.0, 1.0, cubic("logistic-like"))
    c_plain = speed_from_kernel(disc2, 1.0, 1.0, cubic("cubic"))
    assert c_named == c_plain
    assert abs(c_plain - speed_from_kernel(disc2, 1.0, 1.0, logistic())) > 1e-3


def test_solve_leaves_the_problem_unchanged(logistic_f):
    # the power tail needs a second, doubled window; it must not be written
    # back into the caller's problem, so a second solve repeats the first
    prob = SemiWaveProblem(P=marginal_from_kernel(power_tail_kernel(2, 3.5)), d=1.0,
                           mu=1.0, f=logistic_f)
    first = solve_semiwave(prob)
    assert prob.M == 20.0 and first.M > prob.M
    second = solve_semiwave(prob)
    assert prob.M == 20.0
    assert second.c0 == first.c0 and second.M == first.M


def _discretization(P, f):
    prob = SemiWaveProblem(P=P, d=1.0, mu=1.0, f=f)
    return _Discretization(prob, u_star_hat(P, 1.0, f), prob.M)


def _reference_march(disc, conv, c, f):
    # the upwind recurrence solved for phi_{j-1}, one cell at a time from phi_n = 0
    d = disc.prob.d
    dx_c = disc.dx / c
    phi = np.empty(disc.n + 1)
    phi[disc.n] = 0.0
    cap = 2.0 * disc.ustar
    v = 0.0
    for j in range(disc.n, 0, -1):
        v = v - dx_c * (d * v - d * conv[j] - f(v))
        if v < 0.0:
            v = 0.0
        elif v > cap:
            v = cap
        phi[j - 1] = v
    return phi


_TABULATED = tabulated([0.0, 0.25, 0.5, 1.0, 1.5, 3.0], [0.0, 0.2, 0.25, 0.0, -0.75, -6.0])


#: c0 at d = mu = 1 from brentq over Picard profiles, the solver that the Newton-Krylov
#: solve replaced; that solver pinned c0 to 1e-8
_PICARD_C0 = {("uniform2d", "logistic(scale=1)"): 0.10818707920832954,
              ("uniform3d", "logistic(scale=1)"): 0.09631034581823136,
              ("cosbump2d", "logistic(scale=1)"): 0.07268977724055917,
              ("uniform2d", "tabulated"): 0.10180520100511695,
              ("uniform3d", "tabulated"): 0.09067736791991458,
              ("cosbump2d", "tabulated"): 0.0684837384575983}


@pytest.mark.parametrize("kernel", [uniform_kernel(2), uniform_kernel(3),
                                    cosine_bump_kernel(2)], ids=lambda k: k.label)
@pytest.mark.parametrize("f", [logistic(), _TABULATED], ids=lambda f: f.label)
def test_solution_is_the_root_of_the_upwind_march(kernel, f):
    # marching the converged convolution at c0 gives the profile back, and
    # c0 is the value of the previous solver for the same discrete equations
    prob = SemiWaveProblem(P=marginal_from_kernel(kernel), d=1.0, mu=1.0, f=f)
    sol = solve_semiwave(prob)
    disc = _Discretization(prob, sol.u_star_hat, sol.M)
    ref = _reference_march(disc, disc.convolution(sol.phi), sol.c0, f.f)
    assert np.abs(ref - sol.phi).max() <= 1e-8 * sol.u_star_hat
    assert abs(sol.c0 - _PICARD_C0[kernel.label, f.label]) <= 2e-8


def _full_grid_convolution(disc, phi):
    # (P * phi) with the whole two-sided grid as the kernel window
    n, dx = disc.n, disc.dx
    p_full = np.concatenate((disc.p_grid[::-1], disc.p_grid[1:]))
    conv = np.convolve(phi, p_full)[n:2 * n + 1] * dx
    conv -= 0.5 * dx * phi[0] * disc.p_grid
    return conv + disc.ustar * disc.ptail


def _random_profile(disc, rng):
    phi = disc.ustar * rng.uniform(0.0, 1.0, disc.n + 1)
    phi[-1] = 0.0
    return phi


@pytest.mark.parametrize("P", [marginal_from_kernel(uniform_kernel(2)),
                               marginal_from_kernel(uniform_kernel(3)),
                               marginal_from_kernel(cosine_bump_kernel(2)),
                               marginal_from_kernel(cosine_bump_kernel(3)),
                               _unit_bump()], ids=lambda P: P.label)
def test_convolution_over_the_support_matches_the_full_grid(P, logistic_f, rng):
    disc = _discretization(P, logistic_f)
    assert disc.reach < disc.n // 10  # the window is the support, not the grid
    for _ in range(3):
        phi = _random_profile(disc, rng)
        ref = _full_grid_convolution(disc, phi)
        assert np.abs(disc.convolution(phi) - ref).max() <= 1e-15 * np.abs(ref).max()


def test_convolution_of_an_unbounded_marginal_is_the_full_grid(logistic_f, rng):
    disc = _discretization(marginal_from_kernel(power_tail_kernel(2, 3.5)), logistic_f)
    assert disc.reach == disc.n
    phi = _random_profile(disc, rng)
    assert np.array_equal(disc.convolution(phi), _full_grid_convolution(disc, phi))


@pytest.mark.parametrize("d, mu, dx", [(1.0, -1.0, None), (1.0, 0.0, None),
                                       (0.0, 1.0, None), (-1.0, 1.0, None),
                                       (1.0, 1.0, 0.0), (1.0, 1.0, -0.02),
                                       (1.0, math.nan, None)])
def test_invalid_inputs_are_rejected_before_solving(disc2, logistic_f, d, mu, dx):
    with pytest.raises(ValueError, match="need d, mu and dx > 0"):
        speed_from_kernel(disc2, d, mu, logistic_f, dx=dx)


@pytest.mark.parametrize("d, mu, dx", [(1.0, -1.0, None), (0.0, 1.0, -1.0), (1.0, 1.0, 0.0)])
def test_invalid_inputs_are_rejected_before_the_moment_test(logistic_f, d, mu, dx):
    # the divergent moment would return inf; the inputs are checked first
    with pytest.raises(ValueError, match="need d, mu and dx > 0"):
        speed_from_kernel(power_tail_kernel(2, 2.5), d, mu, logistic_f, dx=dx)


def test_dx_set_after_construction_is_checked(disc2, logistic_f):
    prob = SemiWaveProblem(P=marginal_from_kernel(disc2), d=1.0, mu=1.0, f=logistic_f)
    prob.dx = 0.0
    with pytest.raises(ValueError, match="dx = 0.0"):
        solve_semiwave(prob)


def _c_star(mgf, d, fprime0=1.0):
    """Cauchy speed min over lam > 0 of (d (M(lam) - 1) + f'(0)) / lam."""
    res = minimize_scalar(lambda lam: (d * (mgf(lam) - 1.0) + fprime0) / lam,
                          bounds=(1e-3, 50.0), method="bounded",
                          options={"xatol": 1e-10})
    return res.fun


# moment-generating functions of one coordinate of a uniform point in the
# unit disc and the unit ball: the marginals J* of the uniform kernels
_MGF = {2: lambda lam: 2.0 * iv(1, lam) / lam,
        3: lambda lam: 3.0 * (lam * np.cosh(lam) - np.sinh(lam)) / lam ** 3}
_C_STAR = {(2, 0.5): 0.598912, (2, 1.0): 0.790840, (3, 0.5): 0.540439, (3, 1.0): 0.711665,
           ("cosine2", 0.5): 0.420136, ("cosine2", 1.0): 0.550034}


def _j_star_mgf(kernel):
    """M(lam) = int J*(l) e^(lam l) dl over [-1, 1] with l = sin(t): the square
    root of the disc's J* at l = +-1 becomes cos(t), the integrand is entire
    in t, and 64 Gauss-Legendre nodes integrate it to rounding."""
    x, w = np.polynomial.legendre.leggauss(64)
    t = 0.5 * math.pi * x
    weights = 0.5 * math.pi * w * j_star(kernel, np.sin(t)) * np.cos(t)
    return lambda lam: float(np.sum(weights * np.exp(lam * np.sin(t))))


@pytest.mark.parametrize("dim", [2, 3])
def test_j_star_moment_generating_function_matches_closed_form(dim):
    mgf = _j_star_mgf(uniform_kernel(dim))
    for lam in (0.5, 2.0, 5.0):
        got, exact = mgf(lam), _MGF[dim](lam)
        assert abs(got - exact) <= 1e-14 * exact, (lam, got, exact)


@pytest.mark.parametrize("name", [2, 3, "cosine2"])
@pytest.mark.parametrize("d", [0.5, 1.0])
def test_c0_rises_with_mu_below_the_cauchy_speed(logistic_f, name, d):
    # c0 < c*, the minimal speed of the Cauchy problem with kernel J*, and
    # c0 increases strictly with mu (c0 -> c* as mu -> inf, far beyond 1e3);
    # the N = 2 cosine bump has no closed-form M(lam), so _j_star_mgf gives it
    kernel = cosine_bump_kernel(2) if name == "cosine2" else uniform_kernel(name)
    c_star = _c_star(_MGF.get(name) or _j_star_mgf(kernel), d)
    assert abs(c_star - _C_STAR[name, d]) < 1e-6
    speeds = [speed_from_kernel(kernel, d, mu, logistic_f)
              for mu in (0.5, 1.0, 3.0, 10.0, 30.0, 50.0, 100.0, 1e3)]
    assert np.all(np.diff(speeds) > 0.0), speeds
    assert speeds[-1] < c_star


def test_triangular_band_solve_matches_solve_banded(rng):
    # the preconditioner's upper bidiagonal systems by dtbtrs, without a
    # factorization, give solve_banded's bits
    n = 700
    band = np.zeros((2, n))
    band[0, 1:] = rng.uniform(-1.0, 0.0, n - 1)
    band[1] = rng.uniform(0.5, 2.0, n)
    b = rng.uniform(-1.0, 1.0, n)
    x, info = dtbtrs(band, b)
    assert info == 0
    assert np.array_equal(x, solve_banded((0, 1), band, b, check_finite=False))


@pytest.mark.parametrize("dim", [2, 3])
@pytest.mark.parametrize("d, mu", [(0.5, 0.1), (1.0, 0.1), (2.0, 0.1), (2.0, 0.2)])
def test_slow_fronts_are_rejected(logistic_f, dim, d, mu):
    # too slow for dx = 0.02: near the upwind limit dx (d - f'(u*)) / 2 the
    # discrete profile rises
    with pytest.raises(NumericalError):
        speed_from_kernel(uniform_kernel(dim), d, mu, logistic_f)
