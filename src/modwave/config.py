"""Plain key = value experiment configuration with strict validation.

Unknown keys are hard errors, every diagnostic carries its line number,
and constraint violations name the key and state the violated constraint:
every sweep cell and the final-data band are checked here, by the code that
would refuse them at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

from .profile import FINAL_DATA_KINDS, SolverParams, _check_band
from .spectral import SpectralGrid

__all__ = ["ExperimentConfig", "ConfigError", "parse_config", "load_config"]


class ConfigError(ValueError):
    """Raised on malformed or inconsistent configuration text."""


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully validated run configuration; parse_config fills every field,
    from the defaults of _KEYS where the text leaves a key out."""

    params: SolverParams
    data_kind: str
    seed: int
    bandwidth: float
    fit_window: tuple
    tol: float
    max_iter: int
    eps0_values: tuple
    T_values: tuple

    def __post_init__(self):
        lo, hi = self.fit_window
        if not (self.params.T <= lo < hi <= self.params.t_max):
            raise ConfigError(
                f"fit window [{lo}, {hi}] must lie inside [T, t_max] = "
                f"[{self.params.T}, {self.params.t_max}]"
            )
        if self.data_kind not in FINAL_DATA_KINDS:
            raise ConfigError(
                f"data_kind must be one of {FINAL_DATA_KINDS}, got {self.data_kind!r}"
            )
        if self.max_iter < 1:
            raise ConfigError(f"max_iter must be at least 1, got {self.max_iter}")
        if self.tol <= 0:
            raise ConfigError(f"tol must be positive, got {self.tol}")
        try:
            _check_band(self.data_kind, self.bandwidth, self.params.grid)
        except ValueError as exc:
            raise ConfigError(f"bandwidth = {self.bandwidth}: {exc}") from None
        self.sweep_params()

    def key_values(self) -> dict:
        """Every key of _KEYS with its value here, the fit window as resolved:
        parse_config of these as key = value text gives this config back."""
        grid, (lo, hi) = self.params.grid, self.fit_window
        held = {"num_points": grid.num_points, "box_length": grid.box_length,
                "fit_t_min": lo, "fit_t_max": hi}
        return {key: held[key] if key in held
                else getattr(self.params if key in _SOLVER_KEYS else self, key)
                for key in _KEYS}

    def sweep_params(self) -> list[SolverParams]:
        """The SolverParams of every sweep cell, nested eps0, T, lam, with
        t_max raised to 10 T where a cell needs it."""
        base = self.params
        try:
            return [replace(base, eps0=eps0, T=T, lam=lam, t_max=max(base.t_max, 10.0 * T))
                    for eps0 in self.eps0_values for T in self.T_values for lam in (1, -1)]
        except ValueError as exc:
            raise ConfigError(f"a sweep cell of eps0_values x T_values: {exc}") from None


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _finite_list(raw: str) -> tuple:
    vals = tuple(_finite(p) for p in raw.split(",") if p.strip())
    if not vals:
        raise ValueError("empty list")
    return vals


_SOLVER = SolverParams()

# Every key with its parser and its default.  The solver keys and the grid
# default to the fields of SolverParams(), which parse_config rebuilds.
_KEYS = {
    "lam": (int, _SOLVER.lam),
    "delta": (_finite, _SOLVER.delta),
    "alpha": (_finite, _SOLVER.alpha),
    "eps0": (_finite, _SOLVER.eps0),
    "T": (_finite, _SOLVER.T),
    "t_max": (_finite, _SOLVER.t_max),
    "time_grid_points": (int, _SOLVER.time_grid_points),
    "num_points": (int, _SOLVER.grid.num_points),
    "box_length": (_finite, _SOLVER.grid.box_length),
    "data_kind": (str, "gaussian"),
    "seed": (int, 0),
    "bandwidth": (_finite, 1.0),
    "fit_t_min": (_finite, None),
    "fit_t_max": (_finite, None),
    "tol": (_finite, 1e-9),
    "max_iter": (int, 15),
    "eps0_values": (_finite_list, (0.05, 0.025)),
    "T_values": (_finite_list, (10.0, 20.0)),
}
_SOLVER_KEYS = ("lam", "delta", "alpha", "eps0", "T", "t_max", "time_grid_points")


def parse_config(text: str) -> ExperimentConfig:
    """Parse key = value lines ('#' starts a comment) into a validated config.

    An empty file yields all defaults.  Unknown keys, duplicate keys, and
    unparsable values are errors that carry the offending line number.
    """
    values = {key: default for key, (_, default) in _KEYS.items()}
    seen = set()
    for line_no, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError(f"line {line_no}: expected 'key = value', got {body!r}")
        key, raw = (part.strip() for part in body.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"line {line_no}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {line_no}: duplicate key {key!r}")
        seen.add(key)
        try:
            values[key] = _KEYS[key][0](raw)
        except ValueError as exc:
            raise ConfigError(f"line {line_no}: cannot parse {key} = {raw!r}: {exc}") from None

    try:
        grid = SpectralGrid(values["num_points"], values["box_length"])
        params = SolverParams(grid=grid, **{key: values[key] for key in _SOLVER_KEYS})
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    fit_lo = values["fit_t_min"] if values["fit_t_min"] is not None else params.T
    fit_hi = values["fit_t_max"] if values["fit_t_max"] is not None else params.t_max
    return ExperimentConfig(
        params=params,
        data_kind=values["data_kind"],
        seed=values["seed"],
        bandwidth=values["bandwidth"],
        fit_window=(fit_lo, fit_hi),
        tol=values["tol"],
        max_iter=values["max_iter"],
        eps0_values=values["eps0_values"],
        T_values=values["T_values"],
    )


def load_config(path) -> ExperimentConfig:
    """parse_config on the text of the file at path, which must be UTF-8."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text ({exc})") from None
    return parse_config(text)
