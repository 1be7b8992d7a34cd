"""The checks every setting and data array goes through where it enters; a bad value
raises one ``ValueError`` whose message starts with its name.  ``_check_int`` and
``_check_real`` check a value's kind and range; ``_check_shape`` also checks the shape
of a matrix, vector or data array and returns it as a float64 array.  What the package
makes from checked values (a drawn truth, a fitted estimate) is not checked again."""

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
        # unbounded, all finite is enough; else a NaN is its array's min and max, and an
        # infinite or out-of-range entry one of them
        if value.size and (low > -math.inf or high < math.inf or not np.isfinite(value).all()):
            for extreme in np.minimum.reduce(value, None), np.maximum.reduce(value, None):
                _check_real(name, extreme.item(), low, high, include_low=include_low)
        return
    interval = f"{'[' if include_low else '('}{low:g}, {high:g}{']' if high < math.inf else ')'}"
    got = (f"array(..., shape={value.shape}, dtype={value.dtype})"  # not its data: it may be big
           if isinstance(value, np.ndarray) else repr(value))
    raise ValueError(f"{name} must be real, finite and in {interval}, got {got}")


def _check_shape(name: str, value, shape: tuple, low=-math.inf, high=math.inf, *,
                 include_low=False) -> np.ndarray:
    """``value`` as a float64 array of ``shape``, its entries checked as ``_check_real``
    checks them.  Each entry of ``shape`` is a length or a label, and every use of a
    label has the same length, so ``("p", "p")`` is a square matrix; no length may be 0."""
    # the nest is walked before numpy converts it, so that no bool or string passes
    _check_real(name, value, low, high, include_low=include_low)
    try:
        arr = np.asarray(value, dtype=np.float64)
    except ValueError:  # a ragged nest
        arr = None
    sizes: dict = {}
    if arr is None or arr.ndim != len(shape) or any(
        n == 0 or n != (sizes.setdefault(want, n) if isinstance(want, str) else want)
        for n, want in zip(arr.shape, shape)
    ):
        form = f"({', '.join(map(str, shape))}{',' if len(shape) == 1 else ''})"
        got = "a ragged nest" if arr is None else f"shape {arr.shape}" if arr.ndim else repr(value)
        raise ValueError(f"{name} must be a nonempty array of shape {form}, got {got}")
    return arr
