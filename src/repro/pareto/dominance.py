"""Dominance relations and Pareto-front extraction (minimization).

All objective values are *minimized*, matching the paper (power, area,
delay are all smaller-is-better).
"""

from __future__ import annotations

import numpy as np


def dominates(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether point ``a`` Pareto-dominates ``b`` (minimization).

    ``a`` dominates ``b`` iff it is no worse in every objective and
    strictly better in at least one.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a <= b) and np.any(a < b))


def epsilon_dominates(
    a: np.ndarray, b: np.ndarray, epsilon: np.ndarray | float
) -> bool:
    """Whether ``a`` additively ε-dominates ``b``: ``a - ε <= b`` in all
    objectives (the paper's δ-domination, Eq. (11) sense)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return bool(np.all(a - np.asarray(epsilon, dtype=float) <= b))


#: Row-block size of the vectorized non-dominated sweep; 512 rows keep
#: the (block, block, m) comparison intermediates inside the L2 cache.
_ND_BLOCK = 512


def non_dominated_mask(
    points: np.ndarray, block: int = _ND_BLOCK
) -> np.ndarray:
    """Boolean mask of the non-dominated rows of ``points``.

    Duplicated points are all kept (none strictly dominates its copy).
    NaN rows are kept too — a comparison against NaN is False, so they
    neither dominate nor are dominated.

    Blocked whole-array sweep in lexicographic order: a dominator is
    always lexicographically no later than its victim, so each sorted
    block only needs comparing against (a) itself, strictly-earlier
    rows only, and (b) the *survivors* of earlier blocks — by dominance
    transitivity any dominator eliminated earlier is itself dominated
    by a surviving point, so checking survivors alone yields the exact
    same mask as checking everything (property-tested against a
    per-point reference sweep and a definition-direct double loop).

    Args:
        points: ``(n, m)`` objective matrix.
        block: Row-chunk size of the sweep.

    Returns:
        Length-``n`` boolean mask.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(pts)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort(pts.T[::-1])
    sorted_pts = pts[order]
    keep = np.ones(n, dtype=bool)  # in sorted order
    for s in range(0, n, block):
        e = min(s + block, n)
        B = sorted_pts[s:e]
        nb = e - s
        dom = np.zeros(nb, dtype=bool)
        # (a) survivors of the earlier blocks.
        prev = np.nonzero(keep[:s])[0]
        for cs in range(0, len(prev), block):
            S = sorted_pts[prev[cs:cs + block]]
            le = np.all(S[:, None, :] <= B[None, :, :], axis=2)
            lt = np.any(S[:, None, :] < B[None, :, :], axis=2)
            dom |= np.any(le & lt, axis=0)
            if dom.all():
                break
        # (b) within the block: only strictly-earlier rows (i < j) can
        # dominate — a lexicographically later row that is <= everywhere
        # would have to be equal, and equals never strictly dominate.
        if not dom.all():
            le = np.all(B[:, None, :] <= B[None, :, :], axis=2)
            lt = np.any(B[:, None, :] < B[None, :, :], axis=2)
            earlier = np.tri(nb, nb, -1, dtype=bool).T  # i < j
            dom |= np.any(le & lt & earlier, axis=0)
        keep[s:e] = ~dom
    mask = np.empty(n, dtype=bool)
    mask[order] = keep
    return mask


def pareto_front(points: np.ndarray) -> np.ndarray:
    """The unique non-dominated rows of ``points``, lexicographically sorted.

    Args:
        points: ``(n, m)`` objective matrix.

    Returns:
        ``(k, m)`` matrix of distinct Pareto-optimal points.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    front = pts[non_dominated_mask(pts)]
    front = np.unique(front, axis=0)
    order = np.lexsort(front.T[::-1])
    return front[order]


def pareto_indices(points: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated rows of ``points`` (ascending)."""
    return np.nonzero(non_dominated_mask(points))[0]
