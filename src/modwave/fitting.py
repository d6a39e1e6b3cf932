"""Log-log decay-rate fitting with optional logarithmic correction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["DecayFit", "fit_decay"]


@dataclass(frozen=True)
class DecayFit:
    """Least-squares power law: value ~ C * t^slope * (1+log t)^p."""

    slope: float
    intercept: float
    r_squared: float
    n_points: int
    log_correction_power: int = 0

    def __post_init__(self):
        if not (0.0 <= self.r_squared <= 1.0):
            raise ValueError(f"r_squared must lie in [0, 1], got {self.r_squared}")
        if self.n_points < 3:
            raise ValueError(f"fit needs at least 3 points, got {self.n_points}")


def fit_decay(times, values, log_correction_power: int = 0) -> DecayFit:
    """Fit log(value) - p*log(1+log t) against log t by ordinary least squares.

    Requires at least 3 finite samples at strictly increasing positive times
    with strictly positive values; the correction power p is divided out before
    the fit so a pure t^m (1+log t)^p series recovers slope m exactly.  A
    positive p needs every time above 1/e, where 1 + log t is positive.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError("times and values must be 1D arrays of equal length")
    if not (np.all(np.isfinite(t)) and np.all(np.isfinite(v))):
        raise ValueError("times and values must be finite")
    if t.size < 3:
        raise ValueError(f"fit needs at least 3 samples, got {t.size}")
    if np.any(t <= 0) or np.any(np.diff(t) <= 0):
        raise ValueError("times must be positive and strictly increasing")
    if np.any(v <= 0):
        raise ValueError("values must be strictly positive for a log-log fit")
    if log_correction_power < 0:
        raise ValueError(f"log correction power must be >= 0, got {log_correction_power}")

    x = np.log(t)
    y = np.log(v)
    if log_correction_power > 0:
        if np.any(x <= -1.0):
            raise ValueError("a log correction needs every time above 1/e, where 1 + log t > 0")
        y -= log_correction_power * np.log(1.0 + x)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0
    else:
        r2 = 1.0 - float(np.sum(resid**2)) / ss_tot
    return DecayFit(
        slope=float(slope),
        intercept=float(intercept),
        r_squared=float(min(max(r2, 0.0), 1.0)),
        n_points=int(t.size),
        log_correction_power=int(log_correction_power),
    )
