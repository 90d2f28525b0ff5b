"""The benchmark's four workloads.

A workload draws its free parameters from the seed (ranges chosen so the
work stays nearly constant) and builds its kernels; that is set-up.  Each
round then makes the same timed calls into nlfb's public API, on fresh
kernel tables so that every round pays for its table fill, and each
call's result is checked afterwards, untimed, by an Op.check.  Oracles
that do not change between rounds are computed once per process.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable

import numpy as np

import nlfb
import checks

D, MU = 1.0, 1.0
F = nlfb.logistic()


@dataclasses.dataclass
class Op:
    """One checked call: `call` is timed, `check(value, results)` is not."""

    name: str
    call: Callable[[], object]
    check: Callable[[object, dict], None]


def _check_run_invariants(traj):
    checks.check_invariants(traj.h, traj.hdot, traj.u_max,
                            [u for _t, _r, u in traj.snapshots])


class CompactFront:
    """Uniform disc and ball fronts against c0, plus the h'(0) overlap oracle."""

    name = "compact_front"
    dr, t_end = 0.05, 300.0
    hdot_dr = 0.0125

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.kernels = {n: nlfb.uniform_kernel(n) for n in (2, 3)}
        self.h0 = float(rng.uniform(3.8, 4.2))
        self.amp = float(rng.uniform(0.8, 1.0))
        self.hdot_h0 = float(rng.uniform(1.8, 2.2))
        self.hdot_amp = float(rng.uniform(0.6, 0.9))
        self._oracles: dict[int, float] = {}

    def _front(self, kernel):
        cfg = nlfb.RunConfig(kernel=kernel, d=D, mu=MU, reaction=F, h0=self.h0,
                             u0_amplitude=self.amp, dr=self.dr, t_end=self.t_end,
                             snapshot_stride=self.t_end / 10.0)
        return nlfb.run(cfg, tables=nlfb.KernelTables(kernel, self.dr))

    def _hdot0(self, kernel):
        cfg = nlfb.RunConfig(kernel=kernel, d=D, mu=MU, reaction=F, h0=self.hdot_h0,
                             u0_amplitude=self.hdot_amp, dr=self.hdot_dr, t_end=0.0)
        return float(nlfb.run(cfg, tables=nlfb.KernelTables(kernel, self.hdot_dr)).hdot[0])

    def _hdot0_oracle(self, n: int) -> float:
        if n not in self._oracles:
            h0, amp = self.hdot_h0, self.hdot_amp
            self._oracles[n] = checks.hdot0_oracle(
                n, h0, lambda r: amp * (1.0 - (r / h0) ** 2),
                lambda r: checks.uniform_outward_mass(n, r, h0), mu=MU)
        return self._oracles[n]

    def operations(self) -> list[Op]:
        ops = []
        for n, k in self.kernels.items():
            def check_front(traj, res, n=n):
                c0 = res[f"c0_N{n}"]
                checks.check_front_speed(traj.t, traj.h, c0)
                checks.check_log_lag(traj.t, traj.h, c0)
                _check_run_invariants(traj)

            def check_hdot0(hd, res, n=n):
                checks.require_close(hd, self._hdot0_oracle(n), 0.005, f"h'(0) N={n}")

            ops += [
                Op(f"c0_N{n}", lambda k=k: nlfb.speed_from_kernel(k, D, MU, F),
                   lambda c, res: checks.require(math.isfinite(c) and c > 0.0,
                                                 f"c0 = {c!r}")),
                Op(f"front_N{n}", lambda k=k: self._front(k), check_front),
                Op(f"hdot0_N{n}", lambda k=k: self._hdot0(k), check_hdot0),
            ]
        return ops


class FatTailFront:
    """Power-tail fronts with beta in (N, N+1): accelerated spreading."""

    name = "fat_tail_front"
    betas = {2: 2.8, 3: 3.8}
    dr, t_end, h0 = 0.25, 60.0, 10.0

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.kernels = {n: nlfb.power_tail_kernel(n, b) for n, b in self.betas.items()}
        self.amp = float(rng.uniform(0.9, 1.0))
        self._oracles: dict[int, float] = {}

    def u0(self, r):
        return self.amp * (1.0 - (np.asarray(r) / self.h0) ** 8)

    def _front(self, kernel):
        cfg = nlfb.RunConfig(kernel=kernel, d=D, mu=MU, reaction=F, h0=self.h0,
                             u0=self.u0, dr=self.dr, t_end=self.t_end,
                             snapshot_stride=self.t_end / 10.0)
        return nlfb.run(cfg, tables=nlfb.KernelTables(kernel, self.dr))

    def _hdot0_oracle(self, n: int) -> float:
        if n not in self._oracles:
            k = self.kernels[n]
            self._oracles[n] = checks.hdot0_oracle(
                n, self.h0, lambda r: float(self.u0(r)),
                lambda r: nlfb.kernels.outward_rho_integral(k, r, self.h0), mu=MU)
        return self._oracles[n]

    def operations(self) -> list[Op]:
        ops = []
        for n, k in self.kernels.items():
            def check_front(traj, res, n=n):
                if n == 2:
                    checks.check_exponent_near(traj.t, traj.h, 1.0 / (self.betas[n] - n))
                else:
                    checks.check_exponent_above(traj.t, traj.h, 1.0)
                checks.require_close(float(traj.hdot[0]), self._hdot0_oracle(n), 0.005,
                                     f"h'(0) N={n}")
                _check_run_invariants(traj)

            ops += [
                Op(f"front_N{n}", lambda k=k: self._front(k), check_front),
                Op(f"speed_N{n}", lambda k=k: nlfb.speed_from_kernel(k, D, MU, F),
                   lambda c, res: checks.check_infinite_speed(c)),
            ]
        return ops


class Threshold:
    """lambda1 ladder to L = 60, L*, mu* and steady states on the disc."""

    name = "threshold"
    dr = 0.05
    ladder_d, ladder_a = 1.0, 0.5
    dense_L = 20.0  # on the grid, so the dense check needs no extra node
    # criterion-9 settings: f'(0) = 1 < d = 2, L* ~ 0.79
    star_d = 2.0

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.kernel = nlfb.uniform_kernel(2)
        self.ladder = [float(rng.uniform(0.02, 0.04)), float(rng.uniform(1.0, 2.0)),
                       float(rng.uniform(5.0, 6.0)), float(rng.uniform(10.0, 12.0)),
                       self.dense_L, float(rng.uniform(40.0, 42.0)), 60.0]
        self.mu_h0 = float(rng.uniform(0.35, 0.45))
        self.mu_amp = float(rng.uniform(0.08, 0.12))
        self.radii = [float(rng.uniform(1.0, 1.5)), float(rng.uniform(2.0, 3.0)),
                      float(rng.uniform(4.0, 5.0))]
        self._dense: float | None = None
        self._bracket_lams: dict[tuple, tuple] = {}

    def _dense_lambda1(self, tables) -> float:
        if self._dense is None:
            m = int(round(self.dense_L / self.dr))
            G = np.array([tables.row_values(i, m + 1) for i in range(m + 1)])
            w = np.full(m + 1, self.dr)
            w[0] = w[-1] = 0.5 * self.dr
            self._dense = checks.dense_lambda1(G, w, self.ladder_d, self.ladder_a)
        return self._dense

    def _check_ladder(self, value, res):
        lams, tables = value
        checks.check_lambda_ladder(self.ladder, lams, self.ladder_d, self.ladder_a)
        lam = lams[self.ladder.index(self.dense_L)]
        dense = self._dense_lambda1(tables)
        checks.require(abs(lam - dense) <= 1e-9,
                       f"lambda1({self.dense_L:g}) = {lam!r} vs dense {dense!r}")

    def _check_L_star(self, value, res):
        (_L, (lo, hi)), tables = value
        if (lo, hi) not in self._bracket_lams:
            self._bracket_lams[(lo, hi)] = tuple(
                nlfb.lambda1(nlfb.EigenProblem(d=self.star_d, a=F.fprime0, L=x,
                                               tables=tables)).lambda1
                for x in (lo, hi))
        checks.check_sign_change(*self._bracket_lams[(lo, hi)])

    def _check_steady(self, value, res):
        nodes, u = value
        checks.check_steady_state(u, F.u_star)

    def operations(self) -> list[Op]:
        tables = nlfb.KernelTables(self.kernel, self.dr)
        mu_cfg = nlfb.RunConfig(kernel=self.kernel, d=self.star_d, mu=1.0, reaction=F,
                                h0=self.mu_h0, u0_amplitude=self.mu_amp, dr=self.dr,
                                t_end=40.0)

        def ladder():
            res = nlfb.lambda1_sweep(self.ladder_d, self.ladder_a, self.ladder, tables)
            return [r.lambda1 for r in res], tables

        ops = [
            Op("lambda1_ladder", ladder, self._check_ladder),
            Op("L_star", lambda: (nlfb.find_L_star(self.star_d, F.fprime0, tables), tables),
               self._check_L_star),
            Op("mu_star", lambda: nlfb.find_mu_star(mu_cfg, (0.01, 100.0), tol_mu=0.5,
                                                    tables=tables),
               lambda r, res: checks.check_mu_star(r.mu_lo, r.mu_hi, r.history)),
        ]
        for i, L in enumerate(self.radii):
            ops.append(Op(f"steady_state_{i}",
                          lambda L=L: nlfb.steady_state(L, self.star_d, F, tables),
                          self._check_steady))
        return ops


class MuSweep:
    """nlfb.sweep over six mu values on one shared disc table, jobs = 2."""

    name = "mu_sweep"
    dr, t_end, jobs = 0.05, 200.0, 2
    mu_base = (0.5, 0.75, 1.0, 1.5, 2.0, 3.0)

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.mus = [float(m * rng.uniform(0.95, 1.05)) for m in self.mu_base]
        self.template = nlfb.RunConfig(
            kernel=nlfb.uniform_kernel(2), d=D, mu=MU, reaction=F,
            h0=float(rng.uniform(3.9, 4.1)), u0_amplitude=float(rng.uniform(0.8, 1.0)),
            dr=self.dr, t_end=self.t_end)
        self.single_row = int(rng.integers(len(self.mus)))
        self._single: float | None = None

    def _single_run(self) -> float:
        if self._single is None:
            cfg = dataclasses.replace(self.template, mu=self.mus[self.single_row])
            self._single = float(nlfb.run(cfg).h[-1])
        return self._single

    def _check(self, rows, res):
        checks.check_sweep_rows([r.value for r in rows], [r.verdict for r in rows],
                                [r.h_final for r in rows], [r.error for r in rows])
        checks.check_same_run(rows[self.single_row].h_final, self._single_run())

    def operations(self) -> list[Op]:
        return [Op("sweep", lambda: nlfb.sweep(self.template, "mu", self.mus,
                                               jobs=self.jobs), self._check)]


WORKLOADS = {w.name: w for w in (CompactFront, FatTailFront, Threshold, MuSweep)}
