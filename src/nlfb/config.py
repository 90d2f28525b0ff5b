"""Flat key=value configuration files.

Example::

    # reference spreading run
    kernel.kind = uniform
    kernel.radius = 1.0
    N = 2
    d = 1.0
    mu = 1.0
    f.kind = logistic
    f.scale = 1.0
    h0 = 4.0
    u0.amplitude = 1.0
    dr = 0.05
    dt = 0.2
    t_end = 300
    snapshot_stride = 50
    out_dir = runs/reference

Blank lines and '#' comments are ignored.  Recognized keys are listed
in KNOWN_KEYS; unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import os

from . import kernels as kmod
from . import reactions
from .kernels import RadialKernel
from .reactions import Reaction
from .solver import RunConfig

KNOWN_KEYS = {
    "kernel.kind", "kernel.radius", "kernel.beta",
    "N", "d", "mu",
    "f.kind", "f.scale",
    "h0", "u0.amplitude",
    "dr", "dt", "t_end", "snapshot_stride", "out_dir",
    # semiwave extras
    "dx", "M",
    # eigen extras
    "a", "L",
}

_FLOAT_KEYS = KNOWN_KEYS - {"kernel.kind", "f.kind", "out_dir", "N"}
DEFAULT_OUT_DIR = "nlfb_out"


class ConfigError(ValueError):
    pass


def parse_config(path: str) -> dict:
    """Read a flat key=value file into a dict with typed values."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from exc
    out: dict = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in KNOWN_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "N" or key in _FLOAT_KEYS:
            cast, kind = (int, "integer") if key == "N" else (float, "number")
            try:
                out[key] = cast(value)
            except ValueError as exc:
                raise ConfigError(f"{path}:{lineno}: bad {kind} {value!r}") from exc
        else:
            out[key] = value
    return out


def kernel_from_config(cfg: dict) -> RadialKernel:
    dim = int(cfg.get("N", 2))
    kind = cfg.get("kernel.kind", "uniform")
    if kind == "uniform":
        return kmod.uniform_kernel(dim, cfg.get("kernel.radius", 1.0))
    if kind == "cosine":
        return kmod.cosine_bump_kernel(dim, cfg.get("kernel.radius", 1.0))
    if kind == "fat_tail":
        if "kernel.beta" not in cfg:
            raise ConfigError("fat_tail kernel requires kernel.beta")
        return kmod.power_tail_kernel(dim, cfg["kernel.beta"])
    raise ConfigError(f"unknown kernel.kind {kind!r}")


def reaction_from_config(cfg: dict) -> Reaction:
    kind = cfg.get("f.kind", "logistic")
    if kind == "logistic":
        return reactions.logistic(cfg.get("f.scale", 1.0))
    raise ConfigError(f"unknown f.kind {kind!r}")


def runconfig_from_config(cfg: dict) -> RunConfig:
    for required in ("h0", "t_end"):
        if required not in cfg:
            raise ConfigError(f"missing required key {required!r}")
    return RunConfig(
        kernel=kernel_from_config(cfg),
        d=cfg.get("d", 1.0),
        mu=cfg.get("mu", 1.0),
        reaction=reaction_from_config(cfg),
        h0=cfg["h0"],
        u0_amplitude=cfg.get("u0.amplitude", 1.0),
        dr=cfg.get("dr", 0.05),
        dt=cfg.get("dt"),
        t_end=cfg["t_end"],
        snapshot_stride=cfg.get("snapshot_stride", 0.0),
    )


def out_dir_from_config(cfg: dict) -> str:
    path = cfg.get("out_dir", DEFAULT_OUT_DIR)
    os.makedirs(path, exist_ok=True)
    return path
