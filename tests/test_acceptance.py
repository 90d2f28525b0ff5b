"""End-to-end acceptance gate: one check per numbered criterion.

Each test prints a single [PASS]/[FAIL] line on the terminal (bypassing
capture) so the gate can be audited from the pytest log alone.  Oracles
are closed forms (marginal kernels, disc/ball overlap geometry) or
values frozen from independent runs at finer resolution.
"""

import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad

from nlfb import (EigenProblem, KernelTables, Marginal1D, RunConfig,
                  SemiWaveProblem, SolvabilityError, SPREADING, VANISHING,
                  classify, find_mu_star, lambda1, lambda1_sweep, logistic,
                  power_tail_kernel, run, solve_semiwave, speed_from_kernel,
                  uniform_kernel)
from nlfb.fitting import (estimate_log_shift, estimate_power, estimate_speed,
                          estimate_t_log_t)
from nlfb.kernels import (boundary_flux, interior_rho_integral, j_star,
                          j_tilde, moment_identity_check, outward_rho_integral)

C0_DISC_REFERENCE = 0.108187076  # d = mu = 1, logistic, dx = 0.02


def _report(capsys, num: int, ok: bool, detail: str) -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


@pytest.fixture(scope="module")
def kernels2d3d():
    return uniform_kernel(2), uniform_kernel(3)


@pytest.fixture(scope="module")
def tables_ref(kernels2d3d):
    return KernelTables(kernels2d3d[0], 0.05)


@pytest.fixture(scope="module")
def reference_run(kernels2d3d, tables_ref):
    cfg = RunConfig(kernel=kernels2d3d[0], d=1.0, mu=1.0, reaction=logistic(),
                    h0=4.0, dr=0.05, t_end=300.0)
    return run(cfg, tables=tables_ref)


@pytest.fixture(scope="module")
def c0_disc(kernels2d3d):
    return speed_from_kernel(kernels2d3d[0], 1.0, 1.0, logistic(), dx=0.02)


def test_criterion_1_kernel_identities(capsys, kernels2d3d):
    rng = np.random.default_rng(20240817)
    worst_norm = worst_sym = worst_star = 0.0
    for k in kernels2d3d:
        n = k.dim
        for r, rho in rng.uniform(0.05, 3.0, size=(20, 2)):
            mass = interior_rho_integral(k, r, r + 1.0)
            worst_norm = max(worst_norm, abs(mass - 1.0))
            a = r ** (n - 1) * j_tilde(k, r, rho)
            b = rho ** (n - 1) * j_tilde(k, rho, r)
            worst_sym = max(worst_sym, abs(a - b) / max(abs(a), abs(b), 1e-300))
        for ell in rng.uniform(0.0, 0.999, size=20):
            exact = (2.0 / math.pi * math.sqrt(1.0 - ell * ell) if n == 2
                     else 0.75 * (1.0 - ell * ell))
            worst_star = max(worst_star, abs(float(j_star(k, ell)) - exact))
    ok = worst_norm < 1e-6 and worst_sym < 1e-8 and worst_star < 1e-8
    _report(capsys, 1, ok,
            f"row mass err {worst_norm:.2e}, symmetry {worst_sym:.2e}, "
            f"marginal closed form {worst_star:.2e}")


def test_criterion_2_moment_identity(capsys, kernels2d3d):
    targets = {2: 2.0 / (3.0 * math.pi), 3: 3.0 / 16.0}
    worst_rel = worst_closed = 0.0
    for k in kernels2d3d:
        lhs, rhs, rel = moment_identity_check(k)
        worst_rel = max(worst_rel, rel)
        t = targets[k.dim]
        worst_closed = max(worst_closed, abs(lhs - t) / t)
    ok = worst_rel < 1e-6 and worst_closed < 1e-6
    _report(capsys, 2, ok,
            f"lhs-rhs rel {worst_rel:.2e}, closed-form rel {worst_closed:.2e}")


def test_criterion_3_flux_limits(capsys, kernels2d3d):
    disc, _ = kernels2d3d
    target = 2.0 / (3.0 * math.pi)
    rel_compact = abs(boundary_flux(disc, 50.0) - target) / target
    hs = np.array([50.0, 100.0, 200.0, 400.0])
    f25 = np.array([boundary_flux(power_tail_kernel(2, 2.5), h) for h in hs])
    slope = float(np.polyfit(np.log(hs), np.log(f25), 1)[0])
    f30 = np.array([boundary_flux(power_tail_kernel(2, 3.0), h) for h in hs])
    ratio = f30 / np.log(hs)
    band = float(ratio.max() / ratio.min())
    ok = rel_compact < 0.05 and abs(slope - 0.6) <= 0.1 and band < 2.0
    _report(capsys, 3, ok,
            f"compact flux rel {rel_compact:.3f}, beta=2.5 slope {slope:.3f}, "
            f"beta=3 F/ln h max/min {band:.3f}")


def test_criterion_4_eigenvalue_limits(capsys, tables_ref):
    d, a = 1.0, 0.5
    Ls = [0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 40.0]
    lams = [r.lambda1 for r in lambda1_sweep(d, a, Ls, tables_ref)]
    monotone = all(x <= y + 1e-12 for x, y in zip(lams[:-1], lams[1:]))
    lam_small = lambda1(EigenProblem(d=d, a=a, L=0.02, tables=tables_ref)).lambda1
    lam_large = lambda1(EigenProblem(d=d, a=a, L=60.0, tables=tables_ref)).lambda1
    ok = (monotone and abs(lam_small - (a - d)) < 0.02
          and abs(lam_large - a) < 0.05)
    _report(capsys, 4, ok,
            f"monotone {monotone}, lambda1(0.02)={lam_small:.4f} "
            f"(target {a - d}), lambda1(60)={lam_large:.4f} (target {a})")


def test_criterion_5_semiwave_consistency(capsys, c0_disc):
    f = logistic()

    def bump(height, width):
        def p(x):
            x = np.asarray(x, dtype=float)
            return height * np.clip(1.0 - (x / width) ** 2, 0.0, None)
        return Marginal1D(p=p, support=width)

    base = bump(0.75, 1.0)
    opts = dict(d=1.0, mu=1.0, f=f, tol_tail=1e-6, M_cap=80.0)
    sol = solve_semiwave(SemiWaveProblem(P=base, **opts))
    residuals_ok = sol.residual_pde < 1e-6 and sol.residual_speed < 1e-6
    decreasing = bool(np.all(np.diff(sol.phi) <= 1e-8 * sol.u_star_hat)
                      and np.all(sol.phi[:-1] > 0.0))
    rng = np.random.default_rng(20240817)
    monotone = True
    for _ in range(5):
        height = rng.uniform(0.02, 0.1)
        width = rng.uniform(0.3, 0.9)

        def larger(x, h=height, w=width):
            x = np.asarray(x, dtype=float)
            return base.p(x) + h * np.clip(1.0 - (x / w) ** 2, 0.0, None)

        c2 = solve_semiwave(
            SemiWaveProblem(P=Marginal1D(p=larger, support=1.0), **opts)).c0
        monotone = monotone and c2 >= sol.c0 - 1e-8
    c_fine = speed_from_kernel(uniform_kernel(2), 1.0, 1.0, f, dx=0.01)
    rel = abs(c0_disc - c_fine) / c_fine
    frozen = abs(c0_disc - C0_DISC_REFERENCE) < 1e-6
    ok = residuals_ok and decreasing and monotone and rel < 0.005 and frozen
    _report(capsys, 5, ok,
            f"residuals ({sol.residual_pde:.1e}, {sol.residual_speed:.1e}), "
            f"profile decreasing {decreasing}, 5 kernel pairs ordered "
            f"{monotone}, dx-halving rel {rel:.4f}")


def test_criterion_6_spreading_speed(capsys, reference_run, c0_disc):
    fit = estimate_speed(reference_run)
    rel = abs(fit.params["slope"] - c0_disc) / c0_disc
    ok = rel < 0.05
    _report(capsys, 6, ok,
            f"front slope {fit.params['slope']:.5f} vs c0 {c0_disc:.5f} "
            f"(rel {rel:.3f}, R2 {fit.r2:.5f})")


def test_criterion_7_logarithmic_shift(capsys, reference_run, c0_disc):
    fit = estimate_log_shift(reference_run, c0_disc)
    a, r2 = fit.params["a"], fit.r2
    ok = a > 0.0 and r2 > 0.9
    _report(capsys, 7, ok, f"lag ~ a ln t with a={a:.3f} (>0), R2={r2:.4f}")


def test_criterion_8_accelerated_spreading(capsys):
    f = logistic()
    common = dict(d=1.0, mu=1.0, reaction=f, h0=20.0,
                  u0=lambda r: 1.0 - (r / 20.0) ** 8, dr=0.25)
    traj = run(RunConfig(kernel=power_tail_kernel(2, 2.8), t_end=100.0,
                         **common))
    exponent = estimate_power(traj).params["exponent"]
    target = 1.0 / (2.8 - 2.0)  # 1.25
    rel = abs(exponent - target) / target
    traj = run(RunConfig(kernel=power_tail_kernel(2, 3.0), t_end=120.0,
                         **common))
    fit = estimate_t_log_t(traj)
    t1, t2 = fit.window
    mask = (traj.t >= t1) & (traj.t <= t2)
    ratio = traj.h[mask] / (traj.t[mask] * np.log(traj.t[mask]))
    band = float(ratio.max() / ratio.min())
    ok = rel < 0.15 and band < 2.0
    _report(capsys, 8, ok,
            f"beta=2.8 exponent {exponent:.3f} vs 1.25 (rel {rel:.3f}); "
            f"beta=3 h/(t ln t) max/min {band:.3f}")


def test_criterion_9_dichotomy_and_threshold(capsys, kernels2d3d, tables_ref):
    disc, _ = kernels2d3d
    f = logistic()

    def cfg(**kw):
        base = dict(kernel=disc, d=2.0, mu=1.0, reaction=f, h0=2.0,
                    u0_amplitude=0.8, dr=0.05, t_end=30.0)
        base.update(kw)
        return RunConfig(**base)

    c_fast = cfg(d=0.5, t_end=5.0)  # f'(0) = 1 >= d
    fast_ok = classify(run(c_fast, tables=tables_ref), c_fast,
                       tables=tables_ref) == SPREADING
    c_big = cfg(t_end=10.0)  # h0 = 2 above L_star ~ 0.79
    big_ok = classify(run(c_big, tables=tables_ref), c_big,
                      tables=tables_ref) == SPREADING
    c_small = cfg(h0=0.4, u0_amplitude=0.1, mu=0.01, t_end=60.0)
    small_ok = classify(run(c_small, tables=tables_ref, early_stop=True),
                        c_small, tables=tables_ref) == VANISHING
    res = find_mu_star(cfg(h0=0.4, u0_amplitude=0.1, t_end=40.0),
                       (0.01, 100.0), tol_mu=0.01, tables=tables_ref)
    bracket_ok = res.mu_lo < res.mu_hi and res.mu_hi / res.mu_lo <= 1.01 + 1e-9
    # every bisection step is decided: no Undecided entry, no early return
    decided = res.warning is None and all(v != "Undecided" for _, v in res.history)
    verdicts = dict(res.history)
    mus = sorted(verdicts)
    seen = False
    hist_ok = True
    for m in mus:
        if verdicts[m] == SPREADING:
            seen = True
        elif seen:
            hist_ok = False
    ok = fast_ok and big_ok and small_ok and bracket_ok and decided and hist_ok
    _report(capsys, 9, ok,
            f"f'(0)>=d spreads {fast_ok}, h0>=L* spreads {big_ok}, tiny mu "
            f"vanishes {small_ok}, mu* in [{res.mu_lo:.3f}, {res.mu_hi:.3f}] "
            f"with {len(res.history)} entries all decided {decided}, monotone "
            f"history {hist_ok}")


def test_criterion_10_comparison_principle(capsys, kernels2d3d, tables_ref):
    disc, _ = kernels2d3d
    f = logistic()
    rng = np.random.default_rng(20240817)
    tol = 1e-10 + 1e-6
    ordered = True

    def cfg(**kw):
        base = dict(kernel=disc, d=1.0, mu=1.0, reaction=f, h0=2.0,
                    dr=0.05, t_end=6.0, snapshot_stride=1.0)
        base.update(kw)
        return RunConfig(**base)

    for _ in range(3):
        amp = rng.uniform(0.2, 0.7)
        factor = rng.uniform(1.1, 1.4)
        ta = run(cfg(u0_amplitude=amp), tables=tables_ref)
        tb = run(cfg(u0_amplitude=amp * factor), tables=tables_ref)
        n = min(ta.h.size, tb.h.size)
        ordered = ordered and bool(np.all(tb.h[:n] >= ta.h[:n] - tol))
        for sa, sb in zip(ta.snapshots, tb.snapshots):
            m = min(sa[2].size, sb[2].size)
            ordered = ordered and bool(np.all(sb[2][:m] >= sa[2][:m] - tol))
    ta = run(cfg(u0_amplitude=0.5, mu=0.5), tables=tables_ref)
    tb = run(cfg(u0_amplitude=0.5, mu=1.0), tables=tables_ref)
    n = min(ta.h.size, tb.h.size)
    mu_ordered = bool(np.all(tb.h[:n] >= ta.h[:n] - tol))
    ok = ordered and mu_ordered
    _report(capsys, 10, ok,
            f"3 initial-data pairs ordered {ordered}, mu pair ordered "
            f"{mu_ordered} (tol {tol:g})")


def test_criterion_11_initial_flux_oracle(capsys, kernels2d3d):
    disc, ball = kernels2d3d
    f = logistic()
    h0, amp, dr = 2.0, 0.8, 0.0125

    def lens_area(d_, r1, r2):
        if d_ >= r1 + r2:
            return 0.0
        if d_ <= abs(r1 - r2):
            return math.pi * min(r1, r2) ** 2
        a1 = r1 * r1 * math.acos((d_ * d_ + r1 * r1 - r2 * r2) / (2 * d_ * r1))
        a2 = r2 * r2 * math.acos((d_ * d_ + r2 * r2 - r1 * r1) / (2 * d_ * r2))
        tri = 0.5 * math.sqrt(max((-d_ + r1 + r2) * (d_ + r1 - r2)
                                  * (d_ - r1 + r2) * (d_ + r1 + r2), 0.0))
        return a1 + a2 - tri

    def ball_overlap(d_, R, r):
        if d_ >= R + r:
            return 0.0
        if d_ <= abs(R - r):
            return 4.0 / 3.0 * math.pi * min(R, r) ** 3
        return (math.pi * (R + r - d_) ** 2
                * (d_ * d_ + 2.0 * d_ * (r + R) - 3.0 * (r - R) ** 2)
                / (12.0 * d_))

    def tail_exact(k, r):
        if k.dim == 2:
            return 1.0 - lens_area(r, h0, 1.0) / math.pi
        return 1.0 - ball_overlap(r, h0, 1.0) / (4.0 / 3.0 * math.pi)

    worst = 0.0
    for k in (disc, ball):
        n = k.dim

        def integrand(r):
            return (r ** (n - 1) * amp * (1.0 - (r / h0) ** 2)
                    * tail_exact(k, r))

        oracle = quad(integrand, 0.0, h0, limit=200)[0] / h0 ** (n - 1)
        cfg = RunConfig(kernel=k, d=1.0, mu=1.0, reaction=f, h0=h0,
                        u0_amplitude=amp, dr=dr, t_end=0.0)
        hd = run(cfg, tables=KernelTables(k, dr)).hdot[0]
        worst = max(worst, abs(hd - oracle) / oracle)
    ok = worst < 0.005
    _report(capsys, 11, ok,
            f"h'(0) vs overlap-geometry quadrature, worst rel {worst:.2e} "
            f"(N=2 and N=3)")
