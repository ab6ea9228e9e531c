"""Flat key=value configuration for the simulation harness.

A config file is plain text: one `key = value` pair per line, `#` starts a
comment, blank lines ignored. Every key has a default, so an empty file is
a complete configuration. Unknown keys are rejected rather than ignored;
the CLI maps that rejection to exit code 1.
"""

from dataclasses import dataclass, fields

import numpy as np

__all__ = ["ConfigError", "ScenarioConfig", "load_config", "parse_config"]


class ConfigError(ValueError):
    """Malformed configuration text or an unknown/ill-typed key."""


@dataclass(frozen=True)
class ScenarioConfig:
    horizon: int = 1000
    seed: int = 20260819
    runs: int = 100
    x0: tuple = (0.0, 2.5, 0.0, 10.0)
    p0_scale: float = 10.0
    alpha: float = 0.01
    phi: float = 0.15
    control_delta: float = 0.0
    control_accel: float = 0.0
    attack: str = "vehicle"
    l_f: float = 1.25
    l_r: float = 1.25
    t_s: float = 0.01
    pd_window_start: int = 100
    alarm_start: int = 110
    alarm_end: int = 600

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha must lie in (0, 1)")
        if not 0.0 <= self.phi < 1.0:
            raise ConfigError("phi must lie in [0, 1)")
        if self.attack not in ("vehicle", "none"):
            raise ConfigError("attack must be 'vehicle' or 'none'")
        if len(self.x0) != 4:
            raise ConfigError("x0 needs exactly four components")
        if self.runs < 1:
            raise ConfigError("runs must be positive")
        for name in ("x0", "p0_scale", "control_delta", "control_accel", "l_f", "l_r", "t_s"):
            if not np.isfinite(getattr(self, name)).all():
                raise ConfigError(f"{name} must be finite")
        for name in ("p0_scale", "l_f", "l_r", "t_s"):
            if getattr(self, name) <= 0.0:
                raise ConfigError(f"{name} must be positive")
        for name in ("seed", "pd_window_start", "alarm_start"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be nonnegative")
        if self.alarm_start > self.alarm_end:
            raise ConfigError("alarm_start must not exceed alarm_end")


def _coerce(name, kind, raw):
    raw = raw.strip()
    try:
        if kind is int:
            return int(raw)
        if kind is float:
            return float(raw)
        if kind is tuple:
            return tuple(float(part) for part in raw.split(","))
        return raw
    except ValueError:
        raise ConfigError(f"cannot parse value {raw!r} for key {name!r}") from None


def parse_config(text: str) -> ScenarioConfig:
    types = {f.name: f.type for f in fields(ScenarioConfig)}
    updates = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        updates[key] = _coerce(key, types[key], raw)
    try:
        return ScenarioConfig(**updates)
    except ConfigError:
        raise
    except Exception as err:  # dataclass-level validation
        raise ConfigError(str(err)) from None


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
