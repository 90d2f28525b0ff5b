import json
import os
import subprocess
import sys

import numpy as np
import pytest

from nlfb import __version__, logistic, speed_from_kernel, uniform_kernel
from nlfb.cli import (EXIT_CONFIG, EXIT_MODEL, EXIT_OK, EXIT_USAGE, dispatch)

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("NLFB_CACHE_DIR", str(tmp_path / "cache"))


def _cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


SIM = """
kernel.kind = uniform
N = 2
h0 = 1.5
dr = 0.1
t_end = 3
snapshot_stride = 1
out_dir = {out}
"""


def test_usage_errors():
    assert dispatch(["no-such-command"]) == EXIT_USAGE
    assert dispatch([]) == EXIT_USAGE
    assert dispatch(["simulate"]) == EXIT_USAGE  # missing --config


def test_missing_config_file(tmp_path):
    assert dispatch(["simulate", "--config",
                     str(tmp_path / "nope.cfg")]) == EXIT_CONFIG


def test_bad_config_key(tmp_path):
    path = _cfg(tmp_path, "velocity = 3\n")
    assert dispatch(["validate", "--config", path]) == EXIT_CONFIG


@pytest.mark.parametrize("line", [
    "N = 2.0", "N = 1", "kernel.kind = fat_tail\nkernel.beta = 2.0", "f.scale = -1",
    "dr = 0", "dr = 1.0", "dr = 1.5", "u0.amplitude = -1", "dt = 0", "dt = -1", "N = two"],
    ids=["N=2.0", "N=1", "beta=2.0", "f.scale=-1", "dr=0", "dr=1.0", "dr=1.5", "amplitude=-1",
         "dt=0", "dt=-1", "N=two"])
def test_simulate_bad_value_is_config_error(tmp_path, capsys, line):
    # values the model code rejects with ValueError end in exit 66, not a traceback
    path = _cfg(tmp_path, SIM.format(out=tmp_path / "out") + line + "\n")
    assert dispatch(["simulate", "--config", path]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ")
    if line in ("N = 2.0", "N = two"):
        # the appended line is line 9 of the file
        assert err.strip() == f"config error: {path}:9: bad integer {line[4:]!r}"


def _python_m_nlfb(*args):
    """Run python -m nlfb from this checkout's src/."""
    path = os.pathsep.join(filter(None, (SRC, os.environ.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, "-m", "nlfb", *args], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))


def test_python_m_nlfb_runs_the_cli(tmp_path):
    done = _python_m_nlfb("--version")
    assert (done.returncode, done.stdout.strip()) == (EXIT_OK, __version__)
    done = _python_m_nlfb("validate", "--config", _cfg(tmp_path, "N = 2.0\n"))
    assert done.returncode == EXIT_CONFIG
    assert done.stderr.startswith("config error: ")


def test_validate_ok(tmp_path, capsys):
    path = _cfg(tmp_path, "kernel.kind = uniform\nN = 2\n")
    assert dispatch(["validate", "--config", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["accepted"] is True
    assert abs(out["normalization"] - 1.0) < 1e-6


def test_validate_reports_divergent_moment(tmp_path, capsys):
    path = _cfg(tmp_path, "kernel.kind = fat_tail\nkernel.beta = 2.5\nN = 2\n")
    assert dispatch(["validate", "--config", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["moment_finite"] is False
    assert out["moment_n"] == "divergent"


def test_semiwave_infinite_speed_is_model_error(tmp_path, capsys):
    path = _cfg(tmp_path, "kernel.kind = fat_tail\nkernel.beta = 2.5\nN = 2\n")
    assert dispatch(["semiwave", "--config", path]) == EXIT_MODEL
    assert "infinite speed" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["mu = -1", "d = 0", "dx = 0"])
def test_semiwave_bad_parameter_is_config_error(tmp_path, capsys, line):
    path = _cfg(tmp_path, f"kernel.kind = uniform\nN = 2\n{line}\n")
    assert dispatch(["semiwave", "--config", path]) == EXIT_CONFIG
    assert "need d, mu and dx > 0" in capsys.readouterr().err


@pytest.mark.parametrize("line", ["mu = -1", "dx = 0"])
def test_semiwave_bad_parameter_beats_infinite_speed(tmp_path, capsys, line):
    # a divergent moment (exit 1) is reported only for valid parameters
    path = _cfg(tmp_path, f"kernel.kind = fat_tail\nkernel.beta = 2.5\nN = 2\n{line}\n")
    assert dispatch(["semiwave", "--config", path]) == EXIT_CONFIG
    assert "need d, mu and dx > 0" in capsys.readouterr().err


def test_semiwave_disc_speed_and_profile(tmp_path, capsys):
    path = _cfg(tmp_path, "kernel.kind = uniform\nN = 2\n")
    csv = str(tmp_path / "profile.csv")
    assert dispatch(["semiwave", "--config", path, "--profile-csv", csv]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert abs(out["c0"] - speed_from_kernel(uniform_kernel(2), 1.0, 1.0, logistic())) <= 1e-12
    profile = np.genfromtxt(csv, delimiter=",", names=True)
    assert profile.size > 100
    # non-increasing up to the plateau wiggle criterion 5 allows (1e-8 u*)
    assert np.all(np.diff(profile["phi"]) <= 1e-8 * out["u_star_hat"])
    assert profile["phi"][-1] == 0.0


def test_eigen_lambda(tmp_path, capsys):
    path = _cfg(tmp_path, "kernel.kind = uniform\nN = 2\na = 0.5\ndr = 0.1\n")
    assert dispatch(["eigen", "--config", path, "--L", "2.0"]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert -0.5 < out["lambda1"] < 0.5
    assert out["residual"] < 1e-6
    # factorizations of the shifted inverse iteration, not a placeholder
    assert 2 <= out["iterations"] <= 8


def test_eigen_needs_L(tmp_path):
    path = _cfg(tmp_path, "kernel.kind = uniform\nN = 2\na = 0.5\ndr = 0.1\n")
    assert dispatch(["eigen", "--config", path]) == EXIT_CONFIG


def test_simulate_outputs_and_manifest(tmp_path, capsys):
    out = tmp_path / "out"
    path = _cfg(tmp_path, SIM.format(out=out))
    assert dispatch(["simulate", "--config", path]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["verdict"] in ("Spreading", "Vanishing", "Undecided")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "simulate"
    assert manifest["kernel_hash"]
    for rel in manifest["outputs"]:
        assert os.path.exists(rel), rel
    traj = (out / "trajectory.csv").read_text().splitlines()
    assert traj[0] == "t,h,hdot,u_at_0,u_max,mass"
    assert len(traj) > 10
    assert (out / "snapshot_0.csv").exists()
    assert json.loads((out / "summary.json").read_text())["verdict"] \
        == summary["verdict"]


@pytest.mark.parametrize("extra, verdict, rule", [
    ("d = 2\nmu = 0.01\nh0 = 0.4\nu0.amplitude = 0.1\ndr = 0.05\nt_end = 20\n",
     "Vanishing", "certificate"),
    ("d = 2\nh0 = 1.5\ndr = 0.1\nt_end = 3\n", "Spreading", "h >= L_star"),
    ("h0 = 1.5\ndr = 0.1\nt_end = 5\n", "Spreading", "f'(0) >= d"),
], ids=["vanishing", "past L_star", "fast reaction"])
def test_simulate_summary_names_the_rule(tmp_path, capsys, extra, verdict, rule):
    out = tmp_path / "out"
    path = _cfg(tmp_path, f"kernel.kind = uniform\nN = 2\n{extra}out_dir = {out}\n")
    assert dispatch(["simulate", "--config", path]) == EXIT_OK
    summary = json.loads((out / "summary.json").read_text())
    assert json.loads(capsys.readouterr().out) == summary
    assert (summary["verdict"], summary["rule"]) == (verdict, rule)
    if rule == "certificate":
        assert summary["h_final"] < summary["certificate"]["L"] < 0.7907
        assert summary["certificate"]["margin"] >= 0.0
    else:
        assert summary["certificate"] is None


def test_simulate_deterministic(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    pa = _cfg(tmp_path, SIM.format(out=out_a), "a.cfg")
    pb = _cfg(tmp_path, SIM.format(out=out_b), "b.cfg")
    assert dispatch(["simulate", "--config", pa]) == EXIT_OK
    assert dispatch(["simulate", "--config", pb]) == EXIT_OK
    assert (out_a / "trajectory.csv").read_bytes() \
        == (out_b / "trajectory.csv").read_bytes()


def test_fit_on_written_trajectory(tmp_path, capsys):
    out = tmp_path / "out"
    path = _cfg(tmp_path, SIM.format(out=out).replace("t_end = 3", "t_end = 8"))
    assert dispatch(["simulate", "--config", path]) == EXIT_OK
    capsys.readouterr()
    traj = str(out / "trajectory.csv")
    assert dispatch(["fit", "--model", "speed", "--traj", traj]) == EXIT_OK
    fit = json.loads(capsys.readouterr().out)
    assert fit["model"] == "linear"
    assert fit["params"]["slope"] > 0.0
    plot = str(tmp_path / "fitdata.txt")
    assert dispatch(["fit", "--model", "speed", "--traj", traj,
                     "--plot-data", plot]) == EXIT_OK
    assert os.path.getsize(plot) > 0


def test_fit_logshift_requires_c0(tmp_path):
    out = tmp_path / "out"
    path = _cfg(tmp_path, SIM.format(out=out))
    dispatch(["simulate", "--config", path])
    traj = str(out / "trajectory.csv")
    assert dispatch(["fit", "--model", "logshift", "--traj", traj]) \
        == EXIT_CONFIG


def test_kernel_table_csv(tmp_path, capsys):
    out = tmp_path / "kt"
    path = _cfg(tmp_path, f"kernel.kind = uniform\nN = 2\ndr = 0.25\n"
                          f"out_dir = {out}\n")
    assert dispatch(["kernel-table", "--config", path, "--r-max", "1.0"]) \
        == EXIT_OK
    lines = (out / "kernel_table.csv").read_text().splitlines()
    assert lines[0] == "r,rho,jtilde,jstar_of_diff"
    assert len(lines) > 5


def test_kernel_table_cache_round_trip(tmp_path):
    out = tmp_path / "kt"
    path = _cfg(tmp_path, f"kernel.kind = uniform\nN = 2\ndr = 0.25\n"
                          f"out_dir = {out}\n")
    assert dispatch(["kernel-table", "--config", path, "--r-max", "1.0"]) \
        == EXIT_OK
    cache = os.environ["NLFB_CACHE_DIR"]
    assert os.listdir(cache)  # cache file written
    first = (out / "kernel_table.csv").read_bytes()
    assert dispatch(["kernel-table", "--config", path, "--r-max", "1.0"]) \
        == EXIT_OK
    assert (out / "kernel_table.csv").read_bytes() == first


def test_sweep_csv(tmp_path):
    out = tmp_path / "sw"
    path = _cfg(tmp_path, f"kernel.kind = uniform\nN = 2\nh0 = 1.5\ndr = 0.1\n"
                          f"t_end = 3\nout_dir = {out}\n")
    assert dispatch(["sweep", "--config", path, "--param", "mu",
                     "--values", "0.5,1.0"]) == EXIT_OK
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "value,verdict,h_final,speed_est,error"
    assert len(lines) == 3
    assert lines[1].startswith("0.5,")
    assert lines[2].startswith("1.0,")
    # sweeps run their rows in order; there is no worker count to set
    assert dispatch(["sweep", "--config", path, "--param", "mu",
                     "--values", "0.5,1.0", "--jobs", "2"]) == EXIT_USAGE
