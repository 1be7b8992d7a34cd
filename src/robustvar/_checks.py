"""The checks every setting goes through where it enters; a bad value raises one
``ValueError`` whose message starts with the setting's name."""

import math
import sys

import numpy as np


def _check_int(name: str, value, low: int | None = None, high: int | None = None) -> None:
    """Reject a non-integer ``value`` or one outside [low, high); a bound of None is open."""
    kind = "a nonnegative integer" if low == 0 and high is None else "an integer"
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be {kind}, got {value!r}")
    if high is not None and not low <= value < high:
        raise ValueError(f"{name} must be in [{low}, {high}), got {value}")
    if low is not None and value < low:
        raise ValueError(f"{name} must be {kind if low == 0 else f'at least {low}'}, got {value}")


def _check_real(name: str, value, low=-math.inf, high=math.inf, *, include_low=False) -> None:
    """Reject ``value`` unless it is a finite real (not a bool) or a nest of lists, tuples
    and numeric arrays of them, each in (low, high], or [low, high] if ``include_low``.
    A scalar is checked without numpy: configs built per replication pass through here."""
    if type(value) in (float, int) or isinstance(value, (np.floating, np.integer)):  # no bool
        finite = abs(value) <= sys.float_info.max if type(value) is int else math.isfinite(value)
        if finite and value <= high and (low <= value if include_low else low < value):
            return
    elif isinstance(value, (list, tuple)):
        for part in value:
            _check_real(name, part, low, high, include_low=include_low)
        return
    elif isinstance(value, np.ndarray) and value.dtype.kind in "iuf":
        # a NaN is its array's min and max, and an infinite or out-of-range entry one of them
        for extreme in (value.min(), value.max()) if value.size else ():
            _check_real(name, extreme.item(), low, high, include_low=include_low)
        return
    interval = f"{'[' if include_low else '('}{low:g}, {high:g}{']' if high < math.inf else ')'}"
    raise ValueError(f"{name} must be real, finite and in {interval}, got {value!r}")
