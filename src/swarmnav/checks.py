"""Field checks for the config dataclasses, and the error they raise.

Each check names the field it reads and raises `ConfigError`, a
`ValueError`, on failure. A bool is never a number or a count here, though
Python would compare it as 0 or 1: YAML reads `true` as one.
"""

from __future__ import annotations

import math
import numbers

import numpy as np


class ConfigError(ValueError):
    """Invalid or incomplete simulation configuration."""


def _finite_real(value):
    try:
        return (not isinstance(value, bool) and isinstance(value, numbers.Real)
                and math.isfinite(value))
    except OverflowError:  # an int too large for a float
        return False


def number(name, value, low=-math.inf, high=math.inf, positive=False):
    """A finite real in [low, high], and above zero when `positive`."""
    if not (_finite_real(value) and low <= value <= high and (value > 0 or not positive)):
        span = "(0" if positive else f"[{low:g}" if low > -math.inf else "(-inf"
        span += f", {high:g}]" if high < math.inf else ", inf)"
        raise ConfigError(f"{name} must be a finite number in {span}, got {value!r}")


def vector(name, value, n):
    """`value` as a tuple of n finite floats."""
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if not (isinstance(value, (list, tuple)) and len(value) == n
            and all(_finite_real(v) for v in value)):
        raise ConfigError(f"{name} must be {n} finite numbers, got {value!r}")
    return tuple(float(v) for v in value)


def flag(name, value):
    """A real bool: a string such as "no" would otherwise read as true."""
    if not isinstance(value, bool):
        raise ConfigError(f"{name} must be true or false, got {value!r}")


def count(name, value, low):
    """An integer of at least `low`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or not value >= low:
        raise ConfigError(f"{name} must be an integer >= {low}, got {value!r}")
