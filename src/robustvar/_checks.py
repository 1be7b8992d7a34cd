"""The integer check shared by every setting that counts or indexes something."""

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
