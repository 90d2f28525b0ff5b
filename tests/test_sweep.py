import dataclasses
import math

import numpy as np
import pytest

from nlfb import RunConfig, logistic, uniform_kernel
from nlfb.sweep import sweep


def _template(**kw):
    base = dict(kernel=uniform_kernel(2), d=2.0, mu=1.0, reaction=logistic(),
                h0=0.4, u0_amplitude=0.1, dr=0.1, t_end=40.0)
    base.update(kw)
    return RunConfig(**base)


def test_empty_values():
    assert sweep(_template(), "mu", []) == []


def test_unknown_parameter_rejected():
    with pytest.raises(ValueError):
        sweep(_template(), "dt", [0.1])


def test_mu_sweep_verdict_flips_once():
    rows = sweep(_template(), "mu", [0.01, 50.0])
    assert [r.value for r in rows] == [0.01, 50.0]
    assert rows[0].verdict == "Vanishing"
    assert rows[1].verdict == "Spreading"
    assert math.isfinite(rows[1].h_final)


def test_error_rows_do_not_crash():
    rows = sweep(_template(kernel=__import__("nlfb").power_tail_kernel(2, 3.5),
                           t_end=10.0),
                 "beta", [3.5, 1.0])  # beta = 1.0 < N is invalid
    assert rows[0].verdict in ("Spreading", "Vanishing", "Undecided")
    assert rows[1].verdict == "Error"
    assert rows[1].error
    assert math.isnan(rows[1].h_final)


def test_h0_sweep_monotone_outcome():
    rows = sweep(_template(mu=1.0, u0_amplitude=0.5, t_end=30.0), "h0",
                 [0.2, 2.0])
    verdicts = [r.verdict for r in rows]
    assert verdicts[1] == "Spreading"
    # a larger initial radius never does worse
    order = {"Vanishing": 0, "Undecided": 1, "Spreading": 2}
    assert order[verdicts[1]] >= order[verdicts[0]]


def _bits(row):
    """A row with its floats as repr strings, so NaN compares equal to NaN."""
    return (repr(row.value), row.verdict, repr(row.h_final), repr(row.speed_est),
            row.error)


def test_rows_equal_separate_runs_in_input_order():
    from nlfb import KernelTables, UNDECIDED, classify, estimate_speed, run
    from nlfb.sweep import SweepRow

    template = _template(mu=1.0, u0_amplitude=0.5, t_end=30.0)
    values = [2.0, 0.2, 1.0]
    rows = sweep(template, "h0", values)
    for row, h0 in zip(rows, values, strict=True):
        cfg = dataclasses.replace(template, h0=h0)
        tables = KernelTables(cfg.kernel, cfg.dr)
        traj = run(cfg, tables=tables)
        verdict = classify(traj, cfg, tables=tables)
        speed = math.nan
        if verdict != UNDECIDED:
            speed = estimate_speed(traj).params["slope"]
        assert _bits(row) == _bits(SweepRow(h0, verdict, float(traj.h[-1]), speed))


def test_jobs_keyword_is_ignored():
    values = [0.01, 1.0, 50.0]
    default = sweep(_template(), "mu", values)
    assert [_bits(r) for r in sweep(_template(), "mu", values, jobs=2)] == \
        [_bits(r) for r in default]
