"""Command-line entry point.

Subcommands: simulate, semiwave, eigen, kernel-table, fit, sweep,
validate.  Exit codes: 0 success, 1 model-input rejection, 2 numerical
failure, 64 usage error, 66 unreadable or invalid config.  Commands that write
files also write a manifest.json listing every output.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from types import SimpleNamespace

import numpy as np

from . import __version__
from . import config as cfgmod
from . import eigen as emod
from . import fitting
from . import kernels as kmod
from . import semiwave as swmod
from . import solver as solvermod
from .sweep import SWEEPABLE, sweep as run_sweep
from .config import ConfigError
from .errors import KernelValidationError, NumericalError, SolvabilityError
from .tables import KernelTables, cache_dir

EXIT_OK = 0
EXIT_MODEL = 1
EXIT_NUMERICAL = 2
EXIT_USAGE = 64
EXIT_CONFIG = 66


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(EXIT_USAGE)


def _full(x: float) -> str:
    return repr(float(x))


def _json_print(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


class _Manifest:
    def __init__(self, command: str, cfg: dict, kernel_hash: str | None):
        self.data = {
            "version": __version__,
            "command": command,
            "config": cfg,
            "kernel_hash": kernel_hash,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "outputs": [],
        }

    def add(self, path: str) -> None:
        self.data["outputs"].append(path)

    def write(self, out_dir: str) -> None:
        self.data["finished"] = time.strftime("%Y-%m-%dT%H:%M:%S")
        path = os.path.join(out_dir, "manifest.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)


def _tables_with_cache(kernel, dr: float) -> KernelTables:
    tables = KernelTables(kernel, dr)
    tables.load(tables.cache_path())  # a missing or unfit file leaves the table empty
    return tables


def _save_cache(tables: KernelTables) -> None:
    try:
        os.makedirs(cache_dir(), exist_ok=True)
        tables.save(tables.cache_path())
    except OSError:
        pass  # caching is best-effort


# -- subcommands --------------------------------------------------------------

def cmd_validate(args) -> int:
    cfg = cfgmod.parse_config(args.config)
    kernel = cfgmod.kernel_from_config(cfg)
    report = kmod.validate_kernel(kernel)
    _json_print({
        "kernel": kernel.label,
        "normalization": report.normalization,
        "value_at_zero": report.value_at_zero,
        "min_value": report.min_value,
        "moment_n": report.moment_n if math.isfinite(report.moment_n) else "divergent",
        "moment_finite": report.moment_finite,
        "accepted": report.accepted,
        "failures": list(report.failures),
    })
    return EXIT_OK if report.accepted else EXIT_MODEL


def cmd_kernel_table(args) -> int:
    cfg = cfgmod.parse_config(args.config)
    kernel = cfgmod.kernel_from_config(cfg)
    dr = cfg.get("dr", 0.05)
    tables = _tables_with_cache(kernel, dr)
    n = int(round(args.r_max / dr)) + 1
    tables.ensure(n, n)
    jstar = kmod.j_star(kernel, np.arange(2 * n) * dr)
    out_dir = cfgmod.out_dir_from_config(cfg)
    manifest = _Manifest("kernel-table", cfg, kernel.hash())
    path = os.path.join(out_dir, "kernel_table.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("r,rho,jtilde,jstar_of_diff\n")
        for i in range(n):
            row = tables.row_values(i, n)
            for j in range(n):
                if tables.banded and abs(i - j) > tables.bw:
                    continue
                fh.write(f"{_full(i * dr)},{_full(j * dr)},{_full(row[j])},"
                         f"{_full(jstar[abs(i - j)])}\n")
    manifest.add(path)
    _save_cache(tables)
    manifest.write(out_dir)
    print(path)
    return EXIT_OK


def cmd_eigen(args) -> int:
    cfg = cfgmod.parse_config(args.config)
    kernel = cfgmod.kernel_from_config(cfg)
    d = cfg.get("d", 1.0)
    a = cfg.get("a", cfgmod.reaction_from_config(cfg).fprime0)
    dr = cfg.get("dr", 0.05)
    tables = _tables_with_cache(kernel, dr)
    if args.find_lstar:
        lstar, bracket = emod.find_L_star(d, a, tables)
        _json_print({"L_star": lstar, "bracket": list(bracket)})
    else:
        L = args.L if args.L is not None else cfg.get("L")
        if L is None:
            raise ConfigError("eigen needs --L or an L key in the config")
        res = emod.lambda1(emod.EigenProblem(d=d, a=a, L=float(L), tables=tables))
        _json_print({"lambda1": res.lambda1, "residual": res.residual,
                     "iterations": res.iterations})
    _save_cache(tables)
    return EXIT_OK


def cmd_semiwave(args) -> int:
    cfg = cfgmod.parse_config(args.config)
    kernel = cfgmod.kernel_from_config(cfg)
    reaction = cfgmod.reaction_from_config(cfg)
    d, mu = cfg.get("d", 1.0), cfg.get("mu", 1.0)
    swmod.require_positive(d, mu, cfg.get("dx"))  # exit 66 ahead of a divergent moment
    if not math.isfinite(kmod.moment_n(kernel)):
        sys.stderr.write("infinite speed: the kernel moment condition fails "
                         "(fat tail too heavy), no finite semi-wave exists\n")
        return EXIT_MODEL
    prob = swmod.SemiWaveProblem(P=swmod.marginal_from_kernel(kernel),
                                 d=d, mu=mu, f=reaction,
                                 **{k: cfg[k] for k in ("dx", "M") if k in cfg})
    sol = swmod.solve_semiwave(prob)
    _json_print({"c0": sol.c0, "u_star_hat": sol.u_star_hat,
                 "residual_pde": sol.residual_pde,
                 "residual_speed": sol.residual_speed})
    if args.profile_csv:
        with open(args.profile_csv, "w", encoding="utf-8") as fh:
            fh.write("x,phi\n")
            for x, phi in zip(sol.x, sol.phi):
                fh.write(f"{_full(x)},{_full(phi)}\n")
    return EXIT_OK


def _write_trajectory_csv(path: str, traj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,h,hdot,u_at_0,u_max,mass\n")
        for k in range(traj.t.size):
            fh.write(",".join(_full(v) for v in
                              (traj.t[k], traj.h[k], traj.hdot[k],
                               traj.u_center[k], traj.u_max[k], traj.mass[k]))
                     + "\n")


def cmd_simulate(args) -> int:
    cfg = cfgmod.parse_config(args.config)
    run_cfg = cfgmod.runconfig_from_config(cfg)
    kmod.require_valid(run_cfg.kernel)
    tables = _tables_with_cache(run_cfg.kernel, run_cfg.dr)
    traj = solvermod.run(run_cfg, tables=tables)
    try:
        verdict = solvermod.classify(traj, run_cfg, tables=tables)
    except ValueError:
        verdict = solvermod.UNDECIDED  # run too short for a verdict
    out_dir = cfgmod.out_dir_from_config(cfg)
    manifest = _Manifest("simulate", cfg, run_cfg.kernel.hash())
    traj_path = os.path.join(out_dir, "trajectory.csv")
    _write_trajectory_csv(traj_path, traj)
    manifest.add(traj_path)
    for t_snap, r, u in traj.snapshots:
        snap_path = os.path.join(out_dir, f"snapshot_{t_snap:g}.csv")
        with open(snap_path, "w", encoding="utf-8") as fh:
            fh.write("r,u\n")
            for rv, uv in zip(r, u):
                fh.write(f"{_full(rv)},{_full(uv)}\n")
        manifest.add(snap_path)
    summary = {"verdict": verdict, "rule": traj.meta.get("rule"),
               "certificate": traj.meta.get("certificate"), "h_final": float(traj.h[-1]),
               "t_final": float(traj.t[-1]), "config_echo": cfg}
    summary_path = os.path.join(out_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    manifest.add(summary_path)
    _save_cache(tables)
    manifest.write(out_dir)
    _json_print(summary)
    return EXIT_OK


def _load_trajectory(path: str) -> SimpleNamespace:
    try:
        data = np.genfromtxt(path, delimiter=",", names=True)
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory {path!r}: {exc}") from exc
    return SimpleNamespace(t=np.atleast_1d(data["t"]), h=np.atleast_1d(data["h"]))


def cmd_fit(args) -> int:
    traj = _load_trajectory(args.traj)
    if args.model == "speed":
        fit = fitting.estimate_speed(traj, args.window_fraction)
    elif args.model == "logshift":
        if args.c0 is None:
            raise ConfigError("logshift fit needs --c0")
        fit = fitting.estimate_log_shift(traj, args.c0, args.window_fraction)
    elif args.model == "power":
        fit = fitting.estimate_power(traj, args.window_fraction)
    else:
        fit = fitting.estimate_t_log_t(traj, args.window_fraction)
    _json_print({"model": fit.model, "params": fit.params,
                 "window": list(fit.window), "r2": fit.r2,
                 "flags": list(fit.flags)})
    if args.plot_data:
        mask = (traj.t >= fit.window[0]) & (traj.t <= fit.window[1])
        with open(args.plot_data, "w", encoding="utf-8") as fh:
            for t, h in zip(traj.t[mask], traj.h[mask]):
                fh.write(f"{_full(t)} {_full(h)}\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = cfgmod.parse_config(args.config)
    template = cfgmod.runconfig_from_config(cfg)
    values = [float(v) for v in args.values.split(",")] if args.values else []
    rows = run_sweep(template, args.param, values)
    out_dir = cfgmod.out_dir_from_config(cfg)
    manifest = _Manifest("sweep", cfg, template.kernel.hash())
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("value,verdict,h_final,speed_est,error\n")
        for row in rows:
            fh.write(f"{_full(row.value)},{row.verdict},{_full(row.h_final)},"
                     f"{_full(row.speed_est)},{row.error}\n")
    manifest.add(path)
    manifest.write(out_dir)
    print(path)
    return EXIT_OK


# -- dispatch ------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="nlfb", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("validate", cmd_validate, help="check a kernel config")
    p.add_argument("--config", required=True)

    p = add("kernel-table", cmd_kernel_table, help="emit kernel table CSV")
    p.add_argument("--config", required=True)
    p.add_argument("--r-max", type=float, default=5.0)

    p = add("eigen", cmd_eigen, help="principal eigenvalue / threshold radius")
    p.add_argument("--config", required=True)
    p.add_argument("--L", type=float)
    p.add_argument("--find-lstar", action="store_true")

    p = add("semiwave", cmd_semiwave, help="semi-wave speed and profile")
    p.add_argument("--config", required=True)
    p.add_argument("--profile-csv")

    p = add("simulate", cmd_simulate, help="run the free boundary simulation")
    p.add_argument("--config", required=True)

    p = add("fit", cmd_fit, help="fit an asymptotic law to a trajectory CSV")
    p.add_argument("--model", required=True,
                   choices=("speed", "logshift", "power", "tlogt"))
    p.add_argument("--traj", required=True)
    p.add_argument("--c0", type=float)
    p.add_argument("--window-fraction", type=float, default=0.5)
    p.add_argument("--plot-data")

    p = add("sweep", cmd_sweep, help="parameter sweep of simulations")
    p.add_argument("--config", required=True)
    p.add_argument("--param", required=True, choices=SWEEPABLE)
    p.add_argument("--values", required=True)
    return parser


def dispatch(argv) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # ConfigError, and bad values the model code rejects
        sys.stderr.write(f"config error: {exc}\n")
        return EXIT_CONFIG
    except (KernelValidationError, SolvabilityError) as exc:
        sys.stderr.write(f"model rejected: {exc}\n")
        return EXIT_MODEL
    except NumericalError as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return EXIT_NUMERICAL


def main() -> None:
    raise SystemExit(dispatch(sys.argv[1:]))
