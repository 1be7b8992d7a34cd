"""Sparsity penalties (l1 and group l2,1), their duals, and proximal operators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import _check_int

__all__ = [
    "Penalty",
    "dual_value",
    "prox",
]


@dataclass(frozen=True)
class Penalty:
    """Penalty norm selector.

    ``kind="l1"`` is the elementwise absolute-value norm.  ``kind="group"``
    is the sum of Euclidean norms over ``groups``, a partition of the
    0-based coordinate indices into disjoint nonempty blocks.
    """

    kind: str = "l1"
    groups: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.kind not in ("l1", "group"):
            raise ValueError(f"unknown penalty kind {self.kind!r}")
        if self.kind == "group":
            groups = tuple(map(tuple, self.groups or ()))  # walked once: it may be an iterator
            if not groups:
                raise ValueError("group penalty requires groups")
            seen: set[int] = set()
            for g in groups:
                if not g:
                    raise ValueError("groups must be nonempty")
                for i in g:
                    _check_int("group index", i, 0)
                if seen.intersection(g):
                    raise ValueError("groups must be disjoint")
                seen.update(g)
            object.__setattr__(self, "groups", tuple(tuple(map(int, g)) for g in groups))
        elif self.groups is not None:
            raise ValueError("groups are only valid with kind='group'")

    def check_coverage(self, q: int) -> None:
        """Raise unless the groups partition {0, ..., q-1} exactly."""
        if self.kind != "group":
            return
        covered = sorted(i for g in self.groups for i in g)
        if covered != list(range(q)):
            raise ValueError(f"groups do not partition the {q} coordinates")


def dual_value(pen: Penalty, v: np.ndarray) -> float | np.ndarray:
    """Dual norm of ``v``: max |v_j| (l1) or max block norm (group).  A vector
    (q,) gives a float, a (q, k) matrix the k norms of its columns."""
    v = np.asarray(v, dtype=np.float64)
    if pen.kind == "l1":
        out = np.max(np.abs(v), axis=0)
    else:
        pen.check_coverage(v.shape[0])
        out = np.max([np.linalg.norm(v[list(g)], axis=0) for g in pen.groups], axis=0)
    return float(out) if v.ndim == 1 else out


def prox(pen: Penalty, v: np.ndarray, alpha: float) -> np.ndarray:
    """Proximal operator of alpha times the penalty norm on each column of the
    float64 (q, k) matrix ``v``, for alpha >= 0 and groups that partition the q
    rows (not validated); a column comes out finite exactly when it goes in."""
    if pen.kind == "l1":  # sign(v) * max(|v| - alpha, 0), into one buffer
        out = np.abs(v)
        np.maximum(np.subtract(out, alpha, out=out), 0.0, out=out)
        return np.multiply(out, np.sign(v), out=out)
    out = np.zeros_like(v)
    for g in pen.groups:
        idx = list(g)
        nrm = np.linalg.norm(v[idx], axis=0)
        keep = nrm > alpha
        out[idx] = v[idx] * np.where(keep, 1.0 - alpha / np.where(keep, nrm, 1.0), 0.0)
    return out
