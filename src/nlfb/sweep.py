"""Parameter sweeps over independent simulations."""

from __future__ import annotations

import dataclasses
import math

from . import kernels as kmod
from .fitting import estimate_speed
from .solver import RunConfig, UNDECIDED, classify, run
from .tables import KernelTables

SWEEPABLE = ("mu", "h0", "d", "beta")


@dataclasses.dataclass(frozen=True)
class SweepRow:
    value: float
    verdict: str
    h_final: float
    speed_est: float
    error: str = ""


def _config_for(template: RunConfig, parameter: str, value: float) -> RunConfig:
    if parameter == "beta":
        kernel = kmod.power_tail_kernel(template.kernel.dim, value)
        return dataclasses.replace(template, kernel=kernel)
    return dataclasses.replace(template, **{parameter: value})


def sweep(template: RunConfig, parameter: str, values, jobs: int = 1) -> list[SweepRow]:
    """Run one simulation per value, in input order; failures become rows, not crashes.

    Simulations sharing the same kernel reuse one table set.  ``jobs`` is
    ignored: rows always run one after another.
    """
    if parameter not in SWEEPABLE:
        raise ValueError(f"parameter must be one of {SWEEPABLE}")
    values = [float(v) for v in values]
    if not values:
        return []
    shared_tables = None
    if parameter != "beta":
        shared_tables = KernelTables(template.kernel, template.dr)

    def one(value: float) -> SweepRow:
        try:
            cfg = _config_for(template, parameter, value)
            tables = shared_tables if shared_tables is not None \
                else KernelTables(cfg.kernel, cfg.dr)
            traj = run(cfg, tables=tables)
            verdict = classify(traj, cfg, tables=tables)
            speed = math.nan
            if verdict != UNDECIDED:
                try:
                    speed = estimate_speed(traj).params["slope"]
                except ValueError:
                    pass
            return SweepRow(value=value, verdict=verdict,
                            h_final=float(traj.h[-1]), speed_est=speed)
        except Exception as exc:  # noqa: BLE001 - per-row fault isolation
            return SweepRow(value=value, verdict="Error", h_final=math.nan,
                            speed_est=math.nan, error=str(exc))

    return [one(v) for v in values]
