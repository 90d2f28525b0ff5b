import math

import numpy as np
import pytest

from nlfb import (Marginal1D, NumericalError, SemiWaveProblem, SolvabilityError,
                  Reaction, logistic, marginal_from_kernel, power_tail_kernel, solve_semiwave,
                  speed_from_kernel, uniform_kernel)
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


@pytest.mark.parametrize("d, mu, c", [(1.0, 1.0, 0.12), (0.5, 10.0, 0.3)])
def test_newton_profile_matches_picard(disc2, logistic_f, d, mu, c):
    # the Newton fallback of solve_profile solves the same discrete equations
    prob = SemiWaveProblem(P=marginal_from_kernel(disc2), d=d, mu=mu, f=logistic_f)
    ustar = u_star_hat(prob.P, d, logistic_f)
    disc = _Discretization(prob, ustar, prob.M)
    guess = ustar * (1.0 - np.exp(disc.x))
    picard = disc.solve_profile(c, logistic_f, guess)
    newton = disc._newton_profile(c, logistic_f, guess,
                                  semiwave.TOL_PICARD * max(ustar, 1.0))
    assert np.abs(newton - picard).max() <= 1e-8


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
