"""Pareto-set quality indicators: ADRS (paper Eq. (3)) and helpers."""

from __future__ import annotations

import numpy as np

from .dominance import dominance_matrix


def adrs(reference_set: np.ndarray, approx_set: np.ndarray) -> float:
    """Average distance from reference set, Eq. (3).

    For each golden point ``a`` the distance to the closest approximation
    point under ``delta(a, p) = max_k |(a_k - p_k) / a_k|`` (the maximum
    relative per-objective deviation), averaged over the golden set.

    Args:
        reference_set: ``(n, m)`` golden Pareto objective points (non-zero
            in every coordinate, since deviations are relative).
        approx_set: ``(k, m)`` approximated Pareto objective points.

    Returns:
        The ADRS value (0.0 iff every golden point is matched exactly).

    Raises:
        ValueError: On empty inputs or dimension mismatch.
    """
    ref = np.atleast_2d(np.asarray(reference_set, dtype=float))
    approx = np.atleast_2d(np.asarray(approx_set, dtype=float))
    if ref.size == 0 or approx.size == 0:
        raise ValueError("ADRS needs non-empty reference and approx sets")
    if ref.shape[1] != approx.shape[1]:
        raise ValueError(
            f"objective mismatch: {ref.shape[1]} vs {approx.shape[1]}"
        )
    if np.any(ref == 0):
        raise ValueError("reference set has a zero coordinate")
    # (n, k, m) relative deviations.
    dev = np.abs(ref[:, None, :] - approx[None, :, :]) / np.abs(
        ref[:, None, :]
    )
    delta = dev.max(axis=2)  # (n, k)
    return float(delta.min(axis=1).mean())


def coverage(set_a: np.ndarray, set_b: np.ndarray) -> float:
    """C-metric: fraction of ``set_b`` weakly dominated by ``set_a``.

    Zitzler and Thiele's set coverage: a point of ``set_b`` counts as
    covered when some point of ``set_a`` is no worse in every objective
    (``a <= b``), so a point both sets share is covered and
    ``coverage(P, P) == 1.0``.  A supplementary indicator (not in the
    paper's tables) useful for pairwise method comparison.

    Raises:
        ValueError: On empty sets or an objective-count mismatch.
    """
    a = np.atleast_2d(np.asarray(set_a, dtype=float))
    b = np.atleast_2d(np.asarray(set_b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("coverage needs non-empty sets")
    if a.shape[1] != b.shape[1]:
        raise ValueError(
            f"objective mismatch: {a.shape[1]} vs {b.shape[1]}"
        )
    covered = dominance_matrix(a, b, strict=False).any(axis=0)
    return int(np.count_nonzero(covered)) / len(b)


def spacing(front: np.ndarray) -> float:
    """Schott's spacing: uniformity of a front (0 = perfectly even).

    Supplementary diversity indicator.
    """
    pts = np.atleast_2d(np.asarray(front, dtype=float))
    if len(pts) < 2:
        return 0.0
    # Manhattan nearest-neighbour distances.
    dist = np.abs(pts[:, None, :] - pts[None, :, :]).sum(axis=2)
    np.fill_diagonal(dist, np.inf)
    d = dist.min(axis=1)
    return float(np.sqrt(np.mean((d - d.mean()) ** 2)))
