"""Uncertainty hyper-rectangles (paper Eq. (9)-(10) and Figure 2(a)).

Each candidate configuration carries an axis-aligned box in QoR space.
Boxes are built from GP predictions (``mu ± sqrt(tau) sigma``), shrink
monotonically via intersection across iterations, and collapse to the
observed point once a configuration has been evaluated by the tool.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class UncertaintyRegions:
    """Per-candidate uncertainty boxes over the objective space.

    Attributes:
        lo: ``(n, m)`` optimistic corners (``min(U(x))`` — for
            minimization the best believable outcome).
        hi: ``(n, m)`` pessimistic corners (``max(U(x))``).
    """

    lo: np.ndarray
    hi: np.ndarray

    @classmethod
    def unbounded(cls, n: int, m: int) -> "UncertaintyRegions":
        """The initial ``U_-1 = R^m`` regions (paper Section 3.2.2)."""
        return cls(
            lo=np.full((n, m), -np.inf), hi=np.full((n, m), np.inf)
        )

    def __post_init__(self) -> None:
        self.lo = np.atleast_2d(np.asarray(self.lo, dtype=float))
        self.hi = np.atleast_2d(np.asarray(self.hi, dtype=float))
        if self.lo.shape != self.hi.shape:
            raise ValueError("lo/hi shape mismatch")

    @property
    def n(self) -> int:
        """Number of candidates."""
        return self.lo.shape[0]

    @property
    def m(self) -> int:
        """Number of objectives."""
        return self.lo.shape[1]

    def intersect(
        self,
        indices: np.ndarray,
        new_lo: np.ndarray,
        new_hi: np.ndarray,
    ) -> None:
        """Apply ``U_t = U_{t-1} ∩ R`` (Eq. (10)) for ``indices``.

        If a fresh prediction is disjoint from the accumulated region
        (possible when the GP moves after refitting), the intersection
        degenerates; we then collapse to the point of the *previous*
        region nearest the new prediction — staying inside the old
        region preserves monotone non-growth while acknowledging the
        new evidence's direction.
        """
        indices = np.asarray(indices)
        if indices.size == 0:
            return  # nothing active this iteration — a cheap no-op
        prev_lo = self.lo[indices]
        prev_hi = self.hi[indices]
        lo = np.maximum(prev_lo, new_lo)
        hi = np.minimum(prev_hi, new_hi)
        empty = lo > hi
        if empty.any():
            new_mid = 0.5 * (np.asarray(new_lo) + np.asarray(new_hi))
            nearest = np.clip(new_mid, prev_lo, prev_hi)
            lo = np.where(empty, nearest, lo)
            hi = np.where(empty, nearest, hi)
        self.lo[indices] = lo
        self.hi[indices] = hi

    def collapse(self, index: int, value: np.ndarray) -> None:
        """Pin a region to an observed QoR point (evaluated by the tool).

        Idempotent: re-collapsing an already-collapsed index simply
        re-pins it (the tool's golden value is authoritative).

        Raises:
            ValueError: If ``value`` does not have one entry per
                objective.
        """
        value = np.asarray(value, dtype=float).ravel()
        if value.shape != (self.m,):
            raise ValueError(
                f"expected {self.m} objective values, got {value.shape}"
            )
        self.lo[index] = value
        self.hi[index] = value

    def collapse_partial(self, index: int, value: np.ndarray) -> None:
        """Pin only the *finite* metrics of a partial QoR observation.

        A tool run can come back with some metrics unparsable (NaN).
        The observed metrics are authoritative and collapse to points;
        the missing metrics keep their accumulated interval, so the
        region stays a valid (non-grown) Eq. (10) intersection and the
        candidate remains eligible for δ-decisions once predictions
        tighten the open metrics.

        Raises:
            ValueError: If ``value`` does not have one entry per
                objective.
        """
        value = np.asarray(value, dtype=float).ravel()
        if value.shape != (self.m,):
            raise ValueError(
                f"expected {self.m} objective values, got {value.shape}"
            )
        observed = np.isfinite(value)
        self.lo[index, observed] = value[observed]
        self.hi[index, observed] = value[observed]

    def _rows(self, ids) -> tuple[np.ndarray, np.ndarray]:
        if ids is None:
            return self.lo, self.hi
        return self.lo[ids], self.hi[ids]

    def diameters(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Euclidean diagonal length of each box (Eq. (13) diameter).

        Unbounded boxes have infinite diameter.  ``ids`` (indices or a
        boolean mask) restricts the result to those rows; each value is
        row-local, so ``diameters(ids) == diameters()[ids]`` bit for bit.
        """
        lo, hi = self._rows(ids)
        span = hi - lo
        return np.sqrt(np.sum(span * span, axis=1))

    def is_bounded(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Mask of candidates whose boxes are finite in every objective
        (restricted to ``ids`` as in :meth:`diameters`)."""
        lo, hi = self._rows(ids)
        return np.all(np.isfinite(lo) & np.isfinite(hi), axis=1)


def prediction_rectangle(
    mean: np.ndarray, std: np.ndarray, tau: float
) -> tuple[np.ndarray, np.ndarray]:
    """Build the per-iteration rectangle R(x) of Eq. (9).

    Args:
        mean: ``(n, m)`` predicted QoR means.
        std: ``(n, m)`` predicted QoR standard deviations.
        tau: Scaling coefficient (half-width is ``sqrt(tau) * std``).

    Returns:
        ``(lo, hi)`` corner arrays.
    """
    mean = np.atleast_2d(np.asarray(mean, dtype=float))
    std = np.atleast_2d(np.asarray(std, dtype=float))
    if mean.shape != std.shape:
        raise ValueError("mean/std shape mismatch")
    if np.any(std < 0):
        raise ValueError("negative standard deviation")
    half = np.sqrt(tau) * std
    return mean - half, mean + half
