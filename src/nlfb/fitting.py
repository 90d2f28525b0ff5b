"""Least-squares fits of the asymptotic spreading laws to trajectories.

All fits operate on a tail window of the time series (late times are
what the asymptotic statements describe): the first EXCLUDE_INITIAL of
the span is always excluded and, by default, the fit uses the last half.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: fraction of the span at the start of a series that no fit window includes
EXCLUDE_INITIAL = 0.2


@dataclass(frozen=True)
class FitResult:
    model: str  # linear | log_shift | power | t_log_t
    params: dict
    window: tuple[float, float]
    r2: float
    flags: tuple[str, ...] = field(default=())


def _window_mask(t: np.ndarray, window_fraction: float) -> np.ndarray:
    t0, t1 = float(t[0]), float(t[-1])
    span = t1 - t0
    start = max(t1 - window_fraction * span, t0 + EXCLUDE_INITIAL * span)
    return t >= start


def _r2(y: np.ndarray, fit: np.ndarray) -> float:
    ss_res = float(np.sum((y - fit) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        return 1.0 if ss_res <= 1e-28 else 0.0
    return max(0.0, min(1.0, 1.0 - ss_res / ss_tot))


def _check_window(t: np.ndarray, mask: np.ndarray) -> None:
    if mask.sum() < 10:
        raise ValueError("fit window too short: need at least 10 samples")


def estimate_speed(traj, window_fraction: float = 0.5) -> FitResult:
    """Linear fit h ~ slope * t + intercept on the tail window."""
    t, h = np.asarray(traj.t), np.asarray(traj.h)
    mask = _window_mask(t, window_fraction)
    _check_window(t, mask)
    tw, hw = t[mask], h[mask]
    slope, intercept = np.polyfit(tw, hw, 1)
    return FitResult(
        model="linear",
        params={"slope": float(slope), "intercept": float(intercept)},
        window=(float(tw[0]), float(tw[-1])),
        r2=_r2(hw, slope * tw + intercept),
    )


def estimate_log_shift(traj, c0: float, window_fraction: float = 0.5) -> FitResult:
    """Fit c0*t - h(t) ~ a*ln t + b on the tail window.

    The lag behind linear motion grows logarithmically for compactly
    supported kernels; a should come out positive.  Degenerate fits
    (lag constant or negative, suggesting a c0 mismatch) are flagged.
    """
    t, h = np.asarray(traj.t), np.asarray(traj.h)
    mask = _window_mask(t, window_fraction) & (t > 0)
    _check_window(t, mask)
    tw = t[mask]
    y = c0 * tw - h[mask]
    flags = []
    if np.all(y <= 0.0):
        flags.append("lag negative throughout window: c0 likely too small")
    lnt = np.log(tw)
    a, b = np.polyfit(lnt, y, 1)
    fit = a * lnt + b
    r2 = _r2(y, fit)
    if abs(a) * (lnt[-1] - lnt[0]) < 0.05 * max(np.abs(y).max(), 1e-12):
        flags.append("degenerate log coefficient: constant fit dominates")
    return FitResult(
        model="log_shift",
        params={"a": float(a), "b": float(b)},
        window=(float(tw[0]), float(tw[-1])),
        r2=r2,
        flags=tuple(flags),
    )


def estimate_power(traj, window_fraction: float = 0.5,
                   r2_threshold: float = 0.9) -> FitResult:
    """Fit ln h ~ p * ln t + q: the accelerated-spreading power law."""
    t, h = np.asarray(traj.t), np.asarray(traj.h)
    mask = _window_mask(t, window_fraction) & (t > 0) & (h > 0)
    _check_window(t, mask)
    lnt, lnh = np.log(t[mask]), np.log(h[mask])
    p, q = np.polyfit(lnt, lnh, 1)
    r2 = _r2(lnh, p * lnt + q)
    flags = () if r2 >= r2_threshold else ("low R2: asymptotic regime not reached",)
    return FitResult(
        model="power",
        params={"exponent": float(p), "coefficient": float(np.exp(q))},
        window=(float(t[mask][0]), float(t[mask][-1])),
        r2=r2,
        flags=flags,
    )


def estimate_t_log_t(traj, window_fraction: float = 0.5,
                     r2_threshold: float = 0.9) -> FitResult:
    """Fit h ~ C * t ln t through the origin; reports the ratio spread too."""
    t, h = np.asarray(traj.t), np.asarray(traj.h)
    mask = _window_mask(t, window_fraction) & (t > 1.0)
    _check_window(t, mask)
    tw, hw = t[mask], h[mask]
    z = tw * np.log(tw)
    coeff = float(np.dot(z, hw) / np.dot(z, z))
    ratio = hw / z
    spread = float((ratio.max() - ratio.min()) / ratio.mean())
    r2 = _r2(hw, coeff * z)
    flags = () if r2 >= r2_threshold else ("low R2: asymptotic regime not reached",)
    return FitResult(
        model="t_log_t",
        params={"coefficient": coeff, "ratio_mean": float(ratio.mean()),
                "ratio_spread": spread},
        window=(float(tw[0]), float(tw[-1])),
        r2=r2,
        flags=flags,
    )
