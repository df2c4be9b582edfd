"""Transient quantum Otto engine simulator.

Spin-1/2 working substance driven between two field configurations, coupled
during the heating stroke to a population-inverted two-level environment.
The package computes time-local dissipation rates, propagates the truncated
cycle, and extracts efficiency and memory-effect figures.
"""

import math
from dataclasses import fields

__version__ = "0.1.0"


class ConfigError(ValueError):
    """An input value breaks a rule of the type that owns it."""


def require_finite(obj) -> None:
    """Reject a dataclass instance any of whose float fields is nan or inf."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")
