import dataclasses
import functools
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlfb import (EigenProblem, KernelTables, NumericalError, RunConfig, SimState,
                  SolvabilityError, SPREADING, UNDECIDED, VANISHING, classify,
                  cosine_bump_kernel, find_L_star, find_mu_star, lambda1, logistic,
                  power_tail_kernel, run, step, tabulated, uniform_kernel, unit_sphere_area)
from nlfb import solver
from nlfb.solver import default_dt, initial_state


def _cfg(**kw):
    base = dict(kernel=uniform_kernel(2), d=1.0, mu=1.0, reaction=logistic(),
                h0=2.0, u0_amplitude=0.8, dr=0.1, t_end=10.0)
    base.update(kw)
    return RunConfig(**base)


def _trapezoid_weights(m, dr, h):
    """Trapezoid weights on [0, h] for nodes 0..m plus the boundary cell."""
    w = np.full(m + 1, dr)
    w[0] = 0.5 * dr
    w[m] = 0.5 * dr + 0.5 * (h - m * dr)
    return w


def _reference_slopes(u, h, cfg, tables):
    """_slopes in its one-weight-vector form: the trapezoid weights w, then
    w * u, r^{N-1} u and |S^{N-1}| built on every call."""
    m = u.size - 1
    dr = cfg.dr
    w = _trapezoid_weights(m, dr, h)
    conv = tables.conv(w * u)
    dudt = cfg.d * (conv - u) + np.asarray(cfg.reaction(u))
    nm1 = cfg.kernel.dim - 1
    ru = (np.arange(m + 1) * dr) ** nm1 * u
    tail = tables.tail_mass_vector(m + 1, h / dr)
    flux = float(np.dot(w, ru * tail))
    mass = unit_sphere_area(cfg.kernel.dim) * float(np.dot(w, ru))
    return dudt, cfg.mu / h ** nm1 * flux, mass


def test_slopes_match_the_reference_quadrature(tmp_path, rng):
    # trapezoid nodes plus a partial last cell whose far end carries no
    # weight (the integrand vanishes at h)
    w = _trapezoid_weights(10, 0.1, 1.04)
    assert w.size == 11
    assert abs(w.sum() - (1.0 + 0.04 / 2)) < 1e-14
    # banded and dense tables, filled or loaded from a cache file (into empty
    # storage, or storage that already holds more rows than the file), h on a
    # node and between nodes, grids within the first storage and past it
    path = str(tmp_path / "t.nlfbkt")
    for kernel, dr in [(uniform_kernel(2), 0.05), (uniform_kernel(3), 0.1),
                       (power_tail_kernel(2, 2.8), 0.25), (power_tail_kernel(3, 3.8), 0.25)]:
        cached = KernelTables(kernel, dr)
        cached.ensure(20)
        cached.save(path)
        loaded, reloaded = KernelTables(kernel, dr), KernelTables(kernel, dr)
        reloaded.ensure(100)
        assert loaded.load(path) and reloaded.load(path)
        assert loaded.rows_filled == reloaded.rows_filled == cached.rows_filled < 90
        cfg = _cfg(kernel=kernel, dr=dr, mu=1.7, d=1.3)
        for tab, m in itertools.product((KernelTables(kernel, dr), loaded, reloaded),
                                        (1, 12, 90)):
            u = rng.uniform(0.0, 1.2, m + 1)
            for h in (m * dr, (m + 0.4) * dr):
                dudt, hdot, mass = solver._slopes(u, h, cfg, tab)
                ref_dudt, ref_hdot, ref_mass = _reference_slopes(u, h, cfg, tab)
                assert np.array_equal(dudt, ref_dudt), (kernel.label, m, h)
                assert abs(hdot - ref_hdot) <= 1e-14 * abs(ref_hdot), (kernel.label, m, h)
                assert abs(mass - ref_mass) <= 1e-14 * ref_mass, (kernel.label, m, h)
        # m = 90 grew the table loaded into empty storage past the file's rows
        assert loaded.rows_filled > 90


def _per_call_band_tails(tab, n, j):
    """Band tails as tail_mass_vector once computed them on every call:
    reversed cumulative sums of the band rows, gathered at the bracketing
    columns, over row masses summed from the whole filled block."""
    lo = int(np.floor(j + 1e-9))
    frac = j - lo
    cols = np.arange(lo, lo + 1 + (frac != 0))
    rows = np.arange(n)[:, None]
    first = min(max(lo - tab.bw + 1, 0), n)
    band = tab._data[first:n]
    k = np.maximum(cols - rows[first:] + tab.bw, 0)
    beyond = np.cumsum(band[:, ::-1], axis=1)[:, ::-1]
    tail = np.take_along_axis(beyond - 0.5 * band, k, axis=1)
    mass = tab._data[:tab.rows_filled].sum(axis=1) * tab.dr
    tails = np.zeros((n, cols.size))
    tails[first:] = np.clip(tab.dr * tail / mass[first:n, None], 0.0, 1.0)
    return tails[:, 0] + frac * (tails[:, -1] - tails[:, 0])


@pytest.mark.parametrize("dim, dr", [(2, 0.05), (3, 0.1)])
def test_banded_tail_vector_matches_row_loop(dim, dr):
    # the array expression over the band rows against, row by row, the
    # trapezoid of the stored row beyond the column over the row mass, and
    # bit for bit against the per-call expression
    tab = KernelTables(uniform_kernel(dim), dr)

    def tail(i, j):
        row = tab.row_values(i, max(i, j) + tab.bw + 1)
        return np.trapezoid(row[j:], dx=dr) / tab.row_mass(i + 1)[i]

    for m in (0, 1, 5, tab.bw - 1, tab.bw, 40, 75):
        for frac in (0.0, 0.3, 0.999):
            t_lo = np.array([tail(i, m) for i in range(m + 1)])
            t_hi = np.array([tail(i, m + 1) for i in range(m + 1)])
            expect = t_lo + frac * (t_hi - t_lo)
            got = tab.tail_mass_vector(m + 1, m + frac)
            assert got.shape == expect.shape
            assert np.abs(got - expect).max() <= 1e-15, (m, frac)
            assert np.array_equal(got, _per_call_band_tails(tab, m + 1, m + frac)), (m, frac)


@pytest.mark.parametrize("kernel, dr", [(uniform_kernel(2), 0.05), (uniform_kernel(3), 0.1),
                                        (cosine_bump_kernel(2), 0.05)])
def test_banded_tail_vector_before_and_past_the_anti_diagonals(kernel, dr):
    # bit for bit against the per-call expression also where the rows end
    # before the anti-diagonals (n - 1 > lo + bw: every row past them reads
    # its whole-row tail) and where they start after them (n - 1 < lo - bw +
    # 1: no row leaks), and on the solver's n = lo + 1
    tab = KernelTables(kernel, dr)
    bw = tab.bw
    cases = [(m + 1, m) for m in (0, 3, bw, 3 * bw)]
    cases += [(bw + 7, 3), (3 * bw, bw), (5 * bw, 2 * bw)]  # past lo + bw
    cases += [(1, bw), (bw, 3 * bw), (2, 2 * bw)]  # before lo - bw + 1
    for n, lo in cases:
        for frac in (0.0, 0.3, 0.999):
            got = tab.tail_mass_vector(n, lo + frac)
            assert got.shape == (n,)
            assert np.array_equal(got, _per_call_band_tails(tab, n, lo + frac)), (n, lo, frac)
    assert np.all(tab.tail_mass_vector(bw, 3 * bw + 0.5) == 0.0)
    assert np.all(tab.tail_mass_vector(5 * bw, 2 * bw + 0.5)[3 * bw + 1:] > 0.99)


def test_negative_update_raises_past_the_stability_bound(tables_disc2):
    # one spike under dt = 10, twenty times the bound dt (d + Lip f) < 0.9:
    # the spike falls to about 1 - dt
    cfg = _cfg(dr=0.05)
    u = np.zeros(41)
    u[20] = 1.0
    with pytest.raises(NumericalError, match="negative values"):
        step(SimState(t=0.0, h=2.0, u=u), cfg, tables_disc2, 10.0)


def test_rounding_dip_is_clipped_and_a_nonnegative_update_is_not(monkeypatch, tables_disc2):
    clips = []
    inner = np.clip

    def counting(*args, **kw):
        clips.append(1)
        return inner(*args, **kw)

    monkeypatch.setattr(np, "clip", counting)
    cfg = _cfg(dr=0.1)
    state = SimState(t=0.0, h=0.25, u=np.array([1.0, 0.5, 1e-14]))
    # a dip of about -1e-14, far inside the 1e-12 rounding allowance
    dudt = np.array([0.25, -0.5, -2e-14])
    new = solver._advance(state, cfg, tables_disc2, 1.0, dudt, 0.0)
    assert clips and new.u[2] == 0.0 and not np.signbit(new.u[2])
    assert np.array_equal(new.u[:2], [1.25, 0.0])
    # a nonnegative update is the Euler step itself, with no clip pass
    clips.clear()
    dudt = np.array([0.25, -0.5, 2e-14])
    new = solver._advance(state, cfg, tables_disc2, 1.0, dudt, 0.0)
    assert not clips
    assert np.array_equal(new.u, state.u + 1.0 * dudt)
    assert new.t == 1.0 and new.h == 0.25


def test_negative_initial_profile_is_rejected():
    # cos(r) < 0 on (pi/2, 4]: the profile must not be clipped to 0 silently
    with pytest.raises(ValueError, match="nonnegative"):
        initial_state(_cfg(h0=4.0, u0=lambda r: np.cos(r)))


def test_default_profile_dip_at_the_last_node_is_accepted():
    # the last node may lie up to 1e-9 * dr beyond h0, where the default
    # profile is slightly negative; it is clipped to 0, not rejected
    cfg = _cfg(h0=0.3, dr=0.1)
    assert 3 * cfg.dr > cfg.h0
    u = cfg.initial_profile(np.arange(4) * cfg.dr)
    assert -1e-9 < u[-1] < 0.0
    state = initial_state(cfg)
    assert state.u.size == 4 and state.u[-1] == 0.0


def test_step_preserves_equilibrium_interior(tables_disc2, logistic_f):
    # u = u_star away from the boundary is a fixed point of the update
    cfg = _cfg(dr=0.05, h0=10.0, u0=lambda r: np.ones_like(r))
    state = SimState(t=0.0, h=10.0, u=np.ones(201))
    new, _ = step(state, cfg, tables_disc2, 0.1)
    interior = new.u[:150]  # r <= 7.5, more than one support radius inside
    assert np.abs(interior - 1.0).max() < 1e-12


def test_step_zero_state_stays_zero(tables_disc2):
    cfg = _cfg(dr=0.05)
    state = SimState(t=0.0, h=2.0, u=np.zeros(41))
    new, hdot = step(state, cfg, tables_disc2, 0.1)
    assert np.all(new.u == 0.0)
    assert hdot == 0.0
    assert new.h == 2.0


def test_run_invariants(tables_disc2):
    cfg = _cfg(dr=0.05, t_end=8.0, snapshot_stride=2.0)
    traj = run(cfg, tables=tables_disc2)
    assert np.all(np.diff(traj.t) > 0.0)
    assert np.all(np.diff(traj.h) >= 0.0)
    assert np.all(traj.hdot >= 0.0)
    assert np.all(traj.u_max <= max(0.8, 1.0) + 1e-12)
    assert np.all(traj.u_center >= 0.0)
    assert np.all(traj.mass > 0.0)
    assert len(traj.snapshots) == 5  # t = 0, 2, 4, 6, 8
    t0, r0, u0 = traj.snapshots[0]
    assert t0 == 0.0 and u0[0] == 0.8


def test_stability_guard():
    cfg = _cfg(dt=0.5)  # dt (d + Lip) ~ 0.5 * 2.6 > 0.9 for amplitude 0.8
    with pytest.raises(Exception):
        run(cfg)


def test_initial_slope_against_geometry_oracle(disc2):
    # h'(0) = mu/h int_0^h r u0(r) T(r, h) dr with T from the exact
    # disc-overlap area: the kernel is uniform on the unit disc.  The
    # angular kernel has square-root kinks at the support edge, so the
    # discrete flux converges at roughly dr^(3/2); 0.5% needs a fine grid
    from scipy.integrate import quad

    cfg = _cfg(dr=0.0125, h0=2.0, u0_amplitude=0.8)
    h0 = cfg.h0

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

    def integrand(r):
        t_exact = 1.0 - lens_area(r, h0, 1.0) / math.pi
        return r * 0.8 * (1.0 - (r / h0) ** 2) * t_exact

    oracle = cfg.mu / h0 * quad(integrand, 0.0, h0, limit=200)[0]
    tab = KernelTables(disc2, cfg.dr)
    traj = run(dataclasses.replace(cfg, t_end=0.0), tables=tab)
    assert abs(traj.hdot[0] - oracle) / oracle < 0.005


def test_comparison_in_initial_data(tables_disc2, rng):
    # ordered initial data stay ordered: h and u at every recorded time
    for _ in range(3):
        amp = rng.uniform(0.2, 0.7)
        bump = rng.uniform(1.1, 1.4)
        cfg_a = _cfg(dr=0.05, t_end=6.0, u0_amplitude=amp,
                     snapshot_stride=1.0)
        cfg_b = dataclasses.replace(cfg_a, u0_amplitude=amp * bump)
        ta = run(cfg_a, tables=tables_disc2)
        tb = run(cfg_b, tables=tables_disc2)
        n = min(ta.h.size, tb.h.size)
        assert np.all(tb.h[:n] >= ta.h[:n] - 1e-10)
        for (sa, sb) in zip(ta.snapshots, tb.snapshots):
            m = min(sa[2].size, sb[2].size)
            assert np.all(sb[2][:m] >= sa[2][:m] - 1e-10)


def test_comparison_in_mu(tables_disc2):
    cfg_a = _cfg(dr=0.05, t_end=6.0, mu=0.5)
    cfg_b = dataclasses.replace(cfg_a, mu=1.0)
    ta = run(cfg_a, tables=tables_disc2)
    tb = run(cfg_b, tables=tables_disc2)
    n = min(ta.h.size, tb.h.size)
    assert np.all(tb.h[:n] >= ta.h[:n] - 1e-10)


def test_refinement_changes_little(disc2):
    cfg = _cfg(dr=0.1, dt=0.1, t_end=8.0)
    fine = dataclasses.replace(cfg, dr=0.05, dt=0.05)
    h_c = run(cfg).h[-1]
    h_f = run(fine).h[-1]
    assert abs(h_c - h_f) / h_f < 0.01


def test_classify_fast_reaction_spreads(tables_disc2):
    cfg = _cfg(dr=0.05, d=0.5, t_end=5.0)  # f'(0) = 1 >= d
    traj = run(cfg, tables=tables_disc2)
    assert classify(traj, cfg, tables=tables_disc2) == SPREADING


def test_classify_past_threshold_spreads(tables_disc2):
    cfg = _cfg(dr=0.05, h0=2.0, t_end=5.0)  # h0 already above L_star ~ 0.79
    traj = run(cfg, tables=tables_disc2)
    assert classify(traj, cfg, tables=tables_disc2) == SPREADING


def test_classify_vanishing_small_mu(tables_disc2):
    cfg = _cfg(dr=0.05, d=2.0, h0=0.4, u0_amplitude=0.1, mu=0.01, t_end=60.0)
    traj = run(cfg, tables=tables_disc2, early_stop=True)
    assert classify(traj, cfg, tables=tables_disc2) == VANISHING


def _small_ball(**kw):
    """Criterion 9's small-ball setting: L_star = 0.7907 and mu_star in (25.71, 25.95)."""
    base = dict(dr=0.05, d=2.0, h0=0.4, u0_amplitude=0.1, t_end=80.0)
    base.update(kw)
    return _cfg(**base)


@pytest.mark.parametrize("mu", [0.01, 20.0, 25.0, 25.7])
def test_certified_run_stays_under_its_upper_solution(tables_disc2, mu):
    # past the certificate time T: h <= L - (L - h_T) e^{lambda (t - T)} and
    # u <= M e^{lambda (t - T)} phi_L at every step; mu = 25.7 certifies at an
    # off-grid L, since h_T is above the last grid node 0.75 below L_star
    cfg = _small_ball(mu=mu)
    short = run(cfg, tables=tables_disc2, early_stop=True)
    assert short.meta["early_verdict"] == VANISHING
    assert short.meta["rule"] == "certificate" and short.meta["certificate"]["margin"] >= 0.0
    L, t_T, h_T = short.meta["certificate"]["L"], short.t[-1], short.h[-1]
    assert h_T < L < short.meta["L_star"]
    eig = lambda1(EigenProblem(d=cfg.d, a=cfg.reaction.fprime0, L=L, tables=tables_disc2))
    phi = eig.eigenfunction
    M = np.max(short.u_final / phi[:short.u_final.size])
    state = SimState(t=t_T, h=h_T, u=short.u_final.copy())
    for _ in range(1500):
        state, _ = step(state, cfg, tables_disc2, short.meta["dt"])
        decay = math.exp(eig.lambda1 * (state.t - t_T))
        assert state.h <= L - (L - h_T) * decay, state.t
        assert np.all(state.u <= M * decay * phi[:state.u.size]), state.t


@pytest.mark.parametrize("mu", [26.0, 27.0, 28.0, 30.0])
def test_spreading_runs_never_certify(tables_disc2, mu):
    # negative control: every 50-step check before h reaches L_star fails the
    # certificate, or the early-stopped run would end Vanishing
    cfg = _small_ball(mu=mu)
    traj = run(cfg, tables=tables_disc2, early_stop=True)
    assert traj.meta["early_verdict"] == SPREADING
    assert traj.meta["rule"] == "h >= L_star" and traj.meta["certificate"] is None
    assert traj.h[-1] >= traj.meta["L_star"]


def test_non_kpp_reaction_is_never_certified(tables_disc2):
    # f = 1.2 u > f'(0) u at u = 0.5: no certificate at any check, nor at t_end
    kpp = tabulated([0.0, 0.1, 0.5, 1.0, 2.0], [0.0, 0.1, 0.25, 0.0, -1.0])
    bump = tabulated([0.0, 0.1, 0.5, 1.0, 2.0], [0.0, 0.1, 0.6, 0.0, -1.0])
    assert kpp.kpp and not bump.kpp and kpp.fprime0 == bump.fprime0 == 1.0
    cfg = _small_ball(mu=0.01, reaction=kpp)
    traj = run(cfg, tables=tables_disc2, early_stop=True)
    assert classify(traj, cfg, tables=tables_disc2) == VANISHING
    cfg = _small_ball(mu=0.01, reaction=bump, t_end=40.0)
    traj = run(cfg, tables=tables_disc2, early_stop=True)
    assert traj.meta["early_verdict"] is None and traj.u_max[-1] < 1e-3
    assert classify(traj, cfg, tables=tables_disc2) == UNDECIDED
    assert traj.meta["rule"] is None and traj.meta["certificate"] is None


@pytest.mark.parametrize("kw, rule", [(dict(d=0.5), "f'(0) >= d"), (dict(h0=2.0), "h >= L_star"),
                                      (dict(mu=0.01), "certificate"), (dict(mu=25.7), None)])
def test_classify_records_its_rule(tables_disc2, kw, rule):
    # a run to t_end, without early stop, is classified from its last state
    cfg = _small_ball(t_end=40.0, **kw)
    traj = run(cfg, tables=tables_disc2)
    assert traj.meta["rule"] is None and traj.u_final.size == int(traj.h[-1] / cfg.dr + 1e-9) + 1
    verdict = classify(traj, cfg, tables=tables_disc2)
    assert traj.meta["rule"] == rule
    assert verdict == {None: UNDECIDED, "certificate": VANISHING}.get(rule, SPREADING)
    cert = traj.meta["certificate"]
    assert (cert is not None) == (rule == "certificate")
    if cert:
        assert traj.h[-1] < cert["L"] < traj.meta["L_star"] and cert["margin"] >= 0.0


def test_runs_next_to_mu_star_need_a_longer_t_end(tables_disc2):
    # why find_mu_star runs to T_END_FACTOR * t_end: at t_end = 40 both ends of the 1 %
    # bracket are Undecided; the vanishing end certifies after t = 70 and the
    # spreading end reaches L_star after t = 110
    for mu, verdict in ((25.7132, VANISHING), (25.9455, SPREADING)):
        cfg = _small_ball(mu=mu, t_end=40.0)
        assert classify(run(cfg, tables=tables_disc2, early_stop=True), cfg,
                        tables=tables_disc2) == UNDECIDED
        cfg = dataclasses.replace(cfg, t_end=160.0)
        assert classify(run(cfg, tables=tables_disc2, early_stop=True), cfg,
                        tables=tables_disc2) == verdict


def _trajectories_equal(a, b):
    return (all(np.array_equal(getattr(a, f), getattr(b, f))
                for f in ("t", "h", "hdot", "u_center", "u_max", "mass", "u_final"))
            and a.meta == b.meta)


def test_run_on_a_shared_table_equals_a_fresh_table_run(disc2):
    # a longer earlier run leaves filled rows and kept eigen solves behind; a
    # small-ball run (n < 2 bw + 1) and its certificate read them bit for bit
    # as a fresh table would give them
    shared = KernelTables(disc2, 0.05)
    run(_cfg(dr=0.05, h0=4.0, t_end=20.0), tables=shared)
    for mu in (0.01, 27.0):
        cfg = _small_ball(mu=mu)
        first = run(cfg, tables=shared, early_stop=True)
        again = run(cfg, tables=shared, early_stop=True)
        fresh = run(cfg, tables=KernelTables(disc2, 0.05), early_stop=True)
        assert first.meta["early_verdict"] == (VANISHING if mu < 1.0 else SPREADING)
        assert _trajectories_equal(first, fresh) and _trajectories_equal(again, fresh)


def test_find_mu_star_solves_each_eigenproblem_once_per_table(monkeypatch, disc2):
    # L_star from the caller's table, and certificate eigenpairs at grid nodes
    # once per table: a second bisection solves only off-grid radii
    tab = KernelTables(disc2, 0.05)
    L_star = find_L_star(2.0, 1.0, tab)[0]
    solved = []
    inner = solver.emod.lambda1

    def counting(p):
        solved.append(p.L)
        return inner(p)

    monkeypatch.setattr(solver.emod, "lambda1", counting)

    def on_grid(L):
        return abs(L / 0.05 - round(L / 0.05)) < 1e-9

    cfg = _small_ball(t_end=40.0)
    res = find_mu_star(cfg, (0.01, 100.0), tol_mu=0.5, tables=tab)
    first = [L for L in solved if on_grid(L)]
    assert first and len(first) == len(set(first)) and max(first) < L_star
    del solved[:]
    again = find_mu_star(cfg, (0.01, 100.0), tol_mu=0.5, tables=tab)
    assert not any(on_grid(L) for L in solved)
    assert (again.mu_lo, again.mu_hi, again.history) == (res.mu_lo, res.mu_hi, res.history)


def test_classify_requires_enough_records(tables_disc2):
    cfg = _cfg(dr=0.05, t_end=0.0)
    traj = run(cfg, tables=tables_disc2)
    with pytest.raises(ValueError):
        classify(traj, cfg, tables=tables_disc2)


def test_find_mu_star_preconditions(tables_disc2):
    with pytest.raises(SolvabilityError):
        find_mu_star(_cfg(d=0.5), (0.01, 10.0), tables=tables_disc2)
    with pytest.raises(SolvabilityError):
        # h0 over the threshold: spreading for every mu
        find_mu_star(_cfg(d=2.0, h0=2.0), (0.01, 10.0), tables=tables_disc2)


@pytest.mark.parametrize("mu_bracket, tol_mu", [((0.01, 10.0), 0.0), ((0.01, 10.0), -0.1),
                                                 ((0.01, 10.0), math.nan), ((0.0, 100.0), 0.05),
                                                 ((-1.0, 100.0), 0.05), ((10.0, 0.01), 0.05)])
def test_find_mu_star_rejects_a_bad_bracket_or_tolerance(monkeypatch, tables_disc2,
                                                          mu_bracket, tol_mu):
    # tol_mu <= 0 bisected forever; lo = 0 divided by zero; lo < 0 was returned
    calls = []
    monkeypatch.setattr(solver, "run", lambda *args, **kwargs: calls.append(args))
    cfg = _cfg(dr=0.05, d=2.0, h0=0.4, u0_amplitude=0.1, t_end=40.0)
    with pytest.raises(ValueError, match="tol_mu > 0 and 0 < mu_lo < mu_hi"):
        find_mu_star(cfg, mu_bracket, tol_mu=tol_mu, tables=tables_disc2)
    assert calls == []


def test_find_mu_star_brackets_threshold(tables_disc2):
    cfg = _cfg(dr=0.05, d=2.0, h0=0.4, u0_amplitude=0.1, t_end=40.0)
    res = find_mu_star(cfg, (0.01, 50.0), tol_mu=0.5, tables=tables_disc2)
    assert 0.01 <= res.mu_lo < res.mu_hi <= 50.0
    assert res.mu_hi / res.mu_lo <= 1.5 + 1e-9
    verdicts = dict(res.history)
    assert verdicts[0.01] == VANISHING
    assert verdicts[50.0] == SPREADING
    # verdicts are monotone in mu across the whole history
    mus = sorted(m for m, v in res.history if v != UNDECIDED)
    seen_spreading = False
    for m in mus:
        if verdicts[m] == SPREADING:
            seen_spreading = True
        else:
            assert not seen_spreading


def test_default_dt_stability_margin():
    cfg = _cfg()
    dt = default_dt(cfg)
    assert dt * (cfg.d + cfg.reaction.lipschitz(1.0)) < 0.9
    # run steps by default_dt when cfg.dt is None
    assert run(dataclasses.replace(cfg, t_end=0.0)).meta["dt"] == dt


def test_h0_below_dr_is_rejected():
    # the grid would hold only r = 0, whose weight r^{N-1} is 0: the flux and
    # the mass vanish and the front never moves
    cfg = _cfg(d=0.5, mu=50.0, h0=0.03, dr=0.05, t_end=20.0)
    with pytest.raises(ValueError, match="< dr"):
        initial_state(cfg)
    with pytest.raises(ValueError, match="< dr"):
        run(cfg)
    assert initial_state(dataclasses.replace(cfg, h0=0.06)).u.size == 2


def test_negative_t_end_is_rejected():
    with pytest.raises(ValueError, match="t_end"):
        run(_cfg(t_end=-1.0))


@pytest.mark.parametrize("dt", [0.0, -1.0, math.nan])
def test_nonpositive_dt_is_rejected(dt):
    with pytest.raises(ValueError, match="dt"):
        run(_cfg(dt=dt))


def _step_loop(cfg, tables):
    """run as a loop of public step calls: the records and every state."""
    state = initial_state(cfg)
    states, hdots = [state], []
    for _ in range(int(math.ceil(cfg.t_end / cfg.dt - 1e-12))):
        state, hdot = step(state, cfg, tables, cfg.dt)
        states.append(state)
        hdots.append(hdot)
    # hdot[k] is the slope of the step that ended at t_k; hdot[0] = h'(0)
    hdot = np.array(hdots[:1] + hdots)
    return states, hdot


@pytest.mark.parametrize("kernel, dr, h0", [(uniform_kernel(2), 0.1, 2.0),
                                            (power_tail_kernel(2, 2.8), 0.25, 4.0)])
def test_run_equals_a_loop_of_steps(monkeypatch, kernel, dr, h0):
    # banded and dense tables: one slope evaluation per recorded state, and
    # the records and snapshots of the step loop bit for bit
    cfg = RunConfig(kernel=kernel, d=1.0, mu=2.0, reaction=logistic(), h0=h0, dr=dr,
                    dt=0.1, t_end=6.0, snapshot_stride=1.5)
    states, hdot = _step_loop(cfg, KernelTables(kernel, dr))
    calls = []
    inner = solver._slopes

    def counting(*args):
        calls.append(1)
        return inner(*args)

    monkeypatch.setattr(solver, "_slopes", counting)
    traj = run(cfg, tables=KernelTables(kernel, dr))
    assert len(calls) == traj.t.size == len(states)
    assert np.array_equal(traj.t, [s.t for s in states])
    assert np.array_equal(traj.h, [s.h for s in states])
    assert np.array_equal(traj.hdot, hdot)
    assert traj.hdot[1] == traj.hdot[0]
    assert np.array_equal(traj.u_center, [s.u[0] for s in states])
    assert np.array_equal(traj.u_max, [s.u.max() for s in states])
    # one snapshot every 15 steps of dt = 0.1, from t = 0
    assert [t for t, _, _ in traj.snapshots] == [s.t for s in states[::15]]
    for (t, r, u), s in zip(traj.snapshots, states[::15]):
        assert np.array_equal(r, np.arange(s.u.size) * dr)
        assert np.array_equal(u, s.u)


def test_accelerated_front_h_final_is_pinned():
    # the first run of acceptance criterion 8 (beta = 2.8, N = 2, dense table):
    # the dense fill, kink corrections and tail vectors end to end.  A change
    # that moves h(100) beyond 1e-12 relative must update the pin on purpose
    pin = 315.6690019059819
    traj = run(RunConfig(kernel=power_tail_kernel(2, 2.8), d=1.0, mu=1.0, reaction=logistic(),
                         h0=20.0, u0=lambda r: 1.0 - (r / 20.0) ** 8, dr=0.25, t_end=100.0))
    assert abs(traj.h[-1] - pin) <= 1e-12 * pin, repr(traj.h[-1])


@pytest.mark.parametrize("dim, dr", [(2, 0.05), (3, 0.1)])
def test_mass_is_the_trapezoid_of_the_profile(dim, dr):
    # |S^{N-1}| int_0^h r^{N-1} u dr with the boundary cell [r_m, h], u(h) = 0
    cfg = _cfg(kernel=uniform_kernel(dim), dr=dr, h0=2.03, t_end=6.0,
               snapshot_stride=1.0)
    traj = run(cfg)
    assert len(traj.snapshots) == 7
    for t, r, u in traj.snapshots:
        k = int(np.flatnonzero(traj.t == t)[0])
        expect = unit_sphere_area(dim) * np.trapezoid(
            np.append(r ** (dim - 1) * u, 0.0), np.append(r, traj.h[k]))
        assert abs(traj.mass[k] - expect) <= 1e-13 * expect, t


@pytest.mark.parametrize("kw", [dict(h0=0.4, u0_amplitude=0.1, mu=0.01), dict(h0=2.0)])
def test_early_stop_is_a_prefix_of_the_full_run(tables_disc2, kw):
    # criterion 9's vanishing run and a spreading one (h0 above L_star)
    cfg = _cfg(dr=0.05, d=2.0, t_end=30.0, snapshot_stride=1.0, **kw)
    short = run(cfg, tables=tables_disc2, early_stop=True)
    full = run(cfg, tables=tables_disc2)
    n = short.t.size
    assert short.meta["early_verdict"] in (VANISHING, SPREADING)
    assert full.meta["early_verdict"] is None
    assert 1 < n < full.t.size
    for name in ("t", "h", "hdot", "u_center", "u_max", "mass"):
        assert np.array_equal(getattr(short, name), getattr(full, name)[:n]), name
    assert 0 < len(short.snapshots) < len(full.snapshots)
    for (ts, rs, us), (tf, rf, uf) in zip(short.snapshots, full.snapshots):
        assert ts == tf and np.array_equal(rs, rf) and np.array_equal(us, uf)


def test_initial_state_grid(disc2):
    cfg = _cfg(h0=1.27, dr=0.1)
    st = initial_state(cfg)
    assert st.u.size == 13  # nodes 0 .. 1.2
    assert st.h == 1.27
    assert st.u[0] == 0.8


# ---------------------------------------------------------------------------
# discrete invariants of short banded runs, property-based
# ---------------------------------------------------------------------------

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None, derandomize=True,
                             database=None)
BAND_GRIDS = st.sampled_from([(2, 0.05), (2, 0.1), (3, 0.05), (3, 0.1)])
#: ordering slack: the monotone update is exact only up to rounding
ORDER_TOL = 1e-12


@functools.cache
def _band_tables(dim, dr):
    """One table per grid, shared by every example like sweep shares one."""
    return KernelTables(uniform_kernel(dim), dr)


@functools.cache
def _fat_tables(dim, beta):
    """One dense power-tail table per kernel at dr = 0.25, shared likewise."""
    return KernelTables(power_tail_kernel(dim, beta), 0.25)


def _short_run(grid, tables=_band_tables, **kw):
    # a fixed dt keeps the runs of a pair on the same time grid; dt (d + Lip f)
    # stays <= 0.3 for amplitudes up to 1.5
    tab = tables(*grid)
    return run(RunConfig(kernel=tab.kernel, d=1.0, reaction=logistic(), dr=tab.dr, dt=0.1,
                         t_end=4.0, snapshot_stride=0.5, **kw), tables=tab)


def _check_bounds_and_monotone_front(traj, amp):
    bound = max(amp, 1.0) * (1.0 + ORDER_TOL)  # max(|u0|_inf, u_star)
    assert np.all(np.diff(traj.h) >= 0.0)
    assert traj.u_max.max() <= bound
    for _, _, u in traj.snapshots:
        assert u.min() >= 0.0 and u.max() <= bound


@PROPERTY_SETTINGS
@given(grid=BAND_GRIDS, h0=st.floats(0.5, 3.0), amp=st.floats(0.05, 1.5),
       mu=st.floats(0.1, 5.0))
def test_band_run_bounds_and_monotone_front(grid, h0, amp, mu):
    _check_bounds_and_monotone_front(_short_run(grid, h0=h0, u0_amplitude=amp, mu=mu), amp)


@settings(max_examples=15, deadline=None, derandomize=True, database=None)
@given(kernel=st.sampled_from([(2, 2.8), (3, 3.8)]), h0=st.floats(0.5, 3.0),
       amp=st.floats(0.05, 1.5), mu=st.floats(0.1, 5.0))
def test_fat_tail_run_bounds_and_monotone_front(kernel, h0, amp, mu):
    # dense power-tail tables, beta in (N, N + 1): the same invariants
    traj = _short_run(kernel, tables=_fat_tables, h0=h0, u0_amplitude=amp, mu=mu)
    _check_bounds_and_monotone_front(traj, amp)


@PROPERTY_SETTINGS
@given(grid=BAND_GRIDS, h0=st.floats(0.5, 2.5), dh=st.floats(0.0, 0.5),
       amp=st.floats(0.05, 1.2), gain=st.floats(1.0, 1.25), mu=st.floats(0.1, 4.0),
       mu_gain=st.floats(1.0, 3.0))
def test_band_comparison_principle(grid, h0, dh, amp, gain, mu, mu_gain):
    # amp (1 - (r/h0)^2) grows with amp and h0: larger data, or a larger mu,
    # keep h and u above the smaller run at every recorded time
    low = _short_run(grid, h0=h0, u0_amplitude=amp, mu=mu)
    for high in (_short_run(grid, h0=h0 + dh, u0_amplitude=amp * gain, mu=mu),
                 _short_run(grid, h0=h0, u0_amplitude=amp, mu=mu * mu_gain)):
        assert np.all(high.h >= low.h - ORDER_TOL)
        for (_, _, u_low), (_, _, u_high) in zip(low.snapshots, high.snapshots):
            m = min(u_low.size, u_high.size)
            assert np.all(u_high[:m] >= u_low[:m] - ORDER_TOL)
