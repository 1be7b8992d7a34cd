"""Sparsity penalties (l1 and group l2,1), their duals, and proximal operators."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "Penalty",
    "penalty_value",
    "dual_value",
    "soft_threshold",
    "group_soft_threshold",
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
            if not self.groups:
                raise ValueError("group penalty requires groups")
            groups = tuple(tuple(int(i) for i in g) for g in self.groups)
            seen: set[int] = set()
            for g in groups:
                if not g:
                    raise ValueError("groups must be nonempty")
                if seen.intersection(g):
                    raise ValueError("groups must be disjoint")
                seen.update(g)
            object.__setattr__(self, "groups", groups)
        elif self.groups is not None:
            raise ValueError("groups are only valid with kind='group'")

    def check_coverage(self, q: int) -> None:
        """Raise unless the groups partition {0, ..., q-1} exactly."""
        if self.kind != "group":
            return
        covered = sorted(i for g in self.groups for i in g)
        if covered != list(range(q)):
            raise ValueError(f"groups do not partition the {q} coordinates")


def penalty_value(pen: Penalty, v: np.ndarray) -> float:
    """Penalty norm of ``v``: sum |v_j| (l1) or sum of block norms (group)."""
    v = np.asarray(v, dtype=np.float64)
    if pen.kind == "l1":
        return float(np.sum(np.abs(v)))
    pen.check_coverage(v.shape[0])
    return float(sum(np.linalg.norm(v[list(g)]) for g in pen.groups))


def dual_value(pen: Penalty, v: np.ndarray) -> float:
    """Dual norm of ``v``: max |v_j| (l1) or max block norm (group)."""
    v = np.asarray(v, dtype=np.float64)
    if pen.kind == "l1":
        return float(np.max(np.abs(v)))
    pen.check_coverage(v.shape[0])
    return float(max(np.linalg.norm(v[list(g)]) for g in pen.groups))


def _checked(v: np.ndarray, alpha: float, who: str) -> np.ndarray:
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")
    v = np.asarray(v, dtype=np.float64)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{who} requires finite input")
    return v


def soft_threshold(v: np.ndarray, alpha: float) -> np.ndarray:
    """Coordinatewise shrinkage sign(v) * (|v| - alpha)_+.

    Exact minimizer of 0.5*||z - v||^2 + alpha*||z||_1.
    """
    return prox(Penalty("l1"), _checked(v, alpha, "soft_threshold"), alpha)


def group_soft_threshold(v: np.ndarray, pen: Penalty, alpha: float) -> np.ndarray:
    """Blockwise shrinkage v_G * (1 - alpha/||v_G||)_+ per column, zeroing small blocks."""
    if pen.kind != "group":
        raise ValueError("group_soft_threshold requires a group penalty")
    v = _checked(v, alpha, "group_soft_threshold")
    pen.check_coverage(v.shape[0])
    return prox(pen, v, alpha)


def prox(pen: Penalty, v: np.ndarray, alpha: float) -> np.ndarray:
    """Proximal operator of alpha times the penalty norm, applied to each column
    of the finite float64 (q, k) matrix ``v``, for alpha >= 0 and, with a group
    penalty, groups that partition the q rows; inputs are not validated."""
    if pen.kind == "l1":
        return np.sign(v) * np.maximum(np.abs(v) - alpha, 0.0)
    out = np.zeros_like(v)
    for g in pen.groups:
        idx = list(g)
        nrm = np.linalg.norm(v[idx], axis=0)
        keep = nrm > alpha
        out[idx] = v[idx] * np.where(keep, 1.0 - alpha / np.where(keep, nrm, 1.0), 0.0)
    return out
