"""Each benchmark check accepts a right input and rejects a wrong one.

    python3 -m pytest perfbench

The inputs are synthetic, so no check can pass vacuously: a trajectory
h = c t - a ln t must match c and reject 1.1 c, a power law t^1.0 must
fail the beta = 2.8 exponent check, and so on.
"""

import json
import math
import pathlib
import sys

import numpy as np
import pytest

import checks
from checks import CheckFailed

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

T = np.linspace(0.0, 300.0, 1501)
C0 = 0.108


def front(c=C0, a=0.8):
    return c * T - a * np.log1p(T) + 4.0


def test_front_speed_accepts_c0_and_rejects_c0_off_by_ten_percent():
    h = front()
    checks.check_front_speed(T, h, C0)
    with pytest.raises(CheckFailed):
        checks.check_front_speed(T, h, 1.1 * C0)
    with pytest.raises(CheckFailed):
        checks.check_front_speed(T, h, math.inf)


def test_log_lag_rejects_a_front_ahead_of_c0_t():
    checks.check_log_lag(T, front(a=0.8), C0)
    with pytest.raises(CheckFailed):
        checks.check_log_lag(T, front(a=-0.8), C0)


def test_growth_exponent_rejects_linear_growth_for_beta_2_8():
    t = np.linspace(0.0, 60.0, 601)
    target = 1.0 / (2.8 - 2.0)
    checks.check_exponent_near(t, 10.0 + t ** 1.25, target)
    with pytest.raises(CheckFailed):
        checks.check_exponent_near(t, t ** 1.0, target)
    checks.check_exponent_above(t, t ** 1.2, 1.0)
    with pytest.raises(CheckFailed):
        checks.check_exponent_above(t, t ** 0.9, 1.0)


def test_invariants_reject_each_broken_property():
    h = front(a=0.05)
    hdot = np.gradient(h, T)
    u_max = np.full(T.size, 0.99)
    good = [np.linspace(1.0, 0.0, 50)]
    checks.check_invariants(h, hdot, u_max, good)
    bad_h = h.copy()
    bad_h[700] = bad_h[699] - 1e-9
    cases = [
        (bad_h, hdot, u_max, good),
        (h, hdot - 1.0, u_max, good),
        (h, hdot, u_max + 0.02, good),
        (h, hdot, u_max, [np.array([0.5, -1e-9, 0.0])]),
        (h, hdot, u_max, [np.array([1.0 + 1e-9, 0.5, 0.0])]),
    ]
    for args in cases:
        with pytest.raises(CheckFailed):
            checks.check_invariants(*args)


def test_infinite_speed_rejects_a_finite_speed():
    checks.check_infinite_speed(math.inf)
    with pytest.raises(CheckFailed):
        checks.check_infinite_speed(0.5)


def test_overlap_geometry_limits():
    assert checks.lens_area(0.0, 2.0, 1.0) == pytest.approx(math.pi)
    assert checks.lens_area(3.0, 2.0, 1.0) == 0.0
    assert checks.ball_overlap(0.5, 2.0, 1.0) == pytest.approx(4.0 / 3.0 * math.pi)
    # two unit discs / balls with centres one apart
    assert checks.lens_area(1.0, 1.0, 1.0) == pytest.approx(
        2.0 * math.pi / 3.0 - math.sqrt(3.0) / 2.0, rel=1e-12)
    assert checks.ball_overlap(1.0, 1.0, 1.0) == pytest.approx(5.0 * math.pi / 12.0, rel=1e-12)


def test_hdot0_oracle_matches_a_closed_form_and_rejects_one_percent():
    # u0 = 1 and outward mass 1 give h'(0) = h0 / N
    oracle = checks.hdot0_oracle(3, 2.0, lambda r: 1.0, lambda r: 1.0)
    assert oracle == pytest.approx(2.0 / 3.0, rel=1e-12)
    checks.require_close(oracle * 1.004, oracle, 0.005, "h'(0)")
    with pytest.raises(CheckFailed):
        checks.require_close(oracle * 1.01, oracle, 0.005, "h'(0)")


LADDER = [0.03, 1.5, 5.5, 11.0, 20.0, 41.0, 60.0]
LAMS = [-0.4991, 0.2871, 0.4749, 0.4903, 0.4941, 0.4954, 0.4956]


def test_lambda_ladder_rejects_decrease_and_wrong_limits():
    checks.check_lambda_ladder(LADDER, LAMS, 1.0, 0.5)
    bad = [
        (LADDER, LAMS[:5] + [LAMS[6], LAMS[5]]),  # decreases at the top
        (LADDER, [-0.45] + LAMS[1:]),  # small-L limit off by 0.05
        (LADDER, LAMS[:5] + [0.43, 0.44]),  # L = 60 limit off by 0.06
        (LADDER[:-1], LAMS[:-1]),  # stops short of L = 60
    ]
    for L, lam in bad:
        with pytest.raises(CheckFailed):
            checks.check_lambda_ladder(L, lam, 1.0, 0.5)


def test_dense_lambda1_is_the_perron_root_of_a_known_matrix():
    # G w = 2 x 2 stochastic-like matrix with Perron root 1: lambda1 = a
    G = np.array([[0.5, 0.5], [0.25, 0.75]])
    assert checks.dense_lambda1(G, np.ones(2), 1.0, 0.5) == pytest.approx(0.5, abs=1e-14)


def test_sign_change_rejects_brackets_on_one_side():
    checks.check_sign_change(-0.01, 0.02)
    for lo, hi in ((-0.02, -0.01), (0.01, 0.02)):
        with pytest.raises(CheckFailed):
            checks.check_sign_change(lo, hi)


def test_mu_star_rejects_swapped_ends_and_non_monotone_history():
    V, S = checks.VANISHING, checks.SPREADING
    good = [(0.01, V), (100.0, S), (1.0, S), (0.1, V), (0.3, V), (0.5, S)]
    checks.check_mu_star(0.3, 0.5, good)
    with pytest.raises(CheckFailed):
        checks.check_mu_star(0.5, 0.3, good)
    with pytest.raises(CheckFailed):
        checks.check_mu_star(0.3, 0.5, good + [(2.0, V)])
    with pytest.raises(CheckFailed):
        checks.check_mu_star(0.1, 0.3, good)


def test_steady_state_rejects_zero_and_overshoot():
    checks.check_steady_state(np.array([0.9, 0.5, 0.1]))
    for u in (np.array([0.9, 0.5, 0.0]), np.array([1.0 + 1e-6, 0.5, 0.1])):
        with pytest.raises(CheckFailed):
            checks.check_steady_state(u)


def test_sweep_rows_reject_error_undecided_and_non_increasing_rows():
    mus, hs = [0.5, 1.0, 2.0], [16.0, 24.0, 35.0]
    ok = ["Spreading"] * 3
    checks.check_sweep_rows(mus, ok, hs, ["", "", ""])
    cases = [
        (mus, ["Spreading", "Error", "Spreading"], hs, ["", "boom", ""]),
        (mus, ["Spreading", "Undecided", "Spreading"], hs, ["", "", ""]),
        (mus, ok, [16.0, 24.0, 24.0], ["", "", ""]),
        ([0.5, 2.0, 1.0], ok, hs, ["", "", ""]),
    ]
    for args in cases:
        with pytest.raises(CheckFailed):
            checks.check_sweep_rows(*args)


def test_sweep_row_rejects_a_row_that_differs_from_its_single_run():
    checks.check_same_run(24.589200619186286, 24.589200619186286)
    with pytest.raises(CheckFailed):
        checks.check_same_run(24.589200619186286 * (1 + 1e-9), 24.589200619186286)


def test_benchmark_json_lists_exactly_the_metrics_the_benchmark_prints():
    import tracing
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {m: tracing.unit(m)
                     for m in [*tracing.LAYER_METRICS, *tracing.ROUND_METRICS]}
    assert [m["name"] for m in spec["end_to_end"]] == ["wall_s", "setup_s", "peak_rss_mb"]
    import workloads
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_workload_parameters_repeat_for_a_seed_and_change_with_it():
    import workloads
    for cls in workloads.WORKLOADS.values():
        a, b, c = cls(7), cls(7), cls(8)
        pa, pb, pc = ({k: v for k, v in vars(w).items() if isinstance(v, (float, list))}
                      for w in (a, b, c))
        assert pa == pb
        assert pa != pc
