import dataclasses
import math

import numpy as np
import pytest

from nlfb import (KernelTables, RunConfig, SimState, SolvabilityError,
                  SPREADING, UNDECIDED, VANISHING, classify, find_mu_star,
                  logistic, run, step, uniform_kernel)
from nlfb.solver import _quad_weights, _tail_vector, default_dt, initial_state


def _cfg(**kw):
    base = dict(kernel=uniform_kernel(2), d=1.0, mu=1.0, reaction=logistic(),
                h0=2.0, u0_amplitude=0.8, dr=0.1, t_end=10.0)
    base.update(kw)
    return RunConfig(**base)


def test_quad_weights_sum():
    # trapezoid nodes plus a partial last cell whose far end carries no
    # weight (the integrand vanishes at h)
    w = _quad_weights(10, 0.1, 1.04)
    assert w.size == 11
    assert abs(w.sum() - (1.0 + 0.04 / 2)) < 1e-14


@pytest.mark.parametrize("dim, dr", [(2, 0.05), (3, 0.1)])
def test_banded_tail_vector_matches_row_loop(dim, dr):
    # the array expression over the band rows against one tail_mass call
    # per row and column
    tab = KernelTables(uniform_kernel(dim), dr)
    for m in (0, 1, 5, tab.bw - 1, tab.bw, 40, 75):
        for frac in (0.0, 0.3, 0.999):
            h = (m + frac) * dr
            t_lo, t_hi = np.zeros(m + 1), np.zeros(m + 1)
            for i in range(max(m - tab.bw, 0), m + 1):
                t_lo[i] = tab.tail_mass(i, m)
                t_hi[i] = tab.tail_mass(i, m + 1)
            expect = t_lo + frac * (t_hi - t_lo)
            got = _tail_vector(tab, m, h)
            assert got.shape == expect.shape
            assert np.abs(got - expect).max() <= 1e-15, (m, frac)


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


def test_heun_close_to_euler(tables_disc2):
    cfg_e = _cfg(dr=0.05, t_end=5.0, dt=0.1)
    cfg_h = dataclasses.replace(cfg_e, scheme="heun")
    h_e = run(cfg_e, tables=tables_disc2).h[-1]
    h_h = run(cfg_h, tables=tables_disc2).h[-1]
    assert abs(h_e - h_h) / h_h < 0.01


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


def test_initial_state_grid(disc2):
    cfg = _cfg(h0=1.27, dr=0.1)
    st = initial_state(cfg)
    assert st.u.size == 13  # nodes 0 .. 1.2
    assert st.h == 1.27
    assert st.u[0] == 0.8
