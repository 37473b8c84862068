"""Exact hypervolume computation (minimization).

The hypervolume of a point set ``S`` w.r.t. a reference point ``r`` is the
Lebesgue measure of the region dominated by ``S`` and bounded by ``r``:
``vol( U_{p in S} [p, r] )``.  2-D uses the classic sweep; higher
dimensions use the WFG exclusive-hypervolume recursion, which is exact and
fast for the front sizes that occur here (tens of points).
"""

from __future__ import annotations

import numpy as np

from .dominance import non_dominated_mask


def hypervolume(points: np.ndarray, reference: np.ndarray) -> float:
    """Hypervolume of ``points`` w.r.t. ``reference`` (minimization).

    Points not strictly better than the reference in every objective
    contribute nothing and are dropped.  Dominated points are filtered.

    Args:
        points: ``(n, m)`` objective matrix.
        reference: Length-``m`` reference point (the "worst corner").

    Returns:
        The dominated hypervolume (0.0 for an empty contributing set).

    Raises:
        ValueError: On dimension mismatch.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    ref = np.asarray(reference, dtype=float)
    if pts.shape[1] != len(ref):
        raise ValueError(
            f"points have {pts.shape[1]} objectives, reference {len(ref)}"
        )
    pts = pts[np.all(pts < ref, axis=1)]
    if len(pts) == 0:
        return 0.0
    pts = pts[non_dominated_mask(pts)]
    pts = np.unique(pts, axis=0)
    if pts.shape[1] == 1:
        return float(ref[0] - pts[:, 0].min())
    if pts.shape[1] == 2:
        return _hv_2d(pts, ref)
    return _wfg(pts, ref)


def _hv_2d(pts: np.ndarray, ref: np.ndarray) -> float:
    """Sweep for the 2-D case; ``pts`` non-dominated, unique.

    Vectorized: sorted by x, each point's strip is ``(ref_x - x_i)``
    wide and ``(y_{i-1} - y_i)`` tall (y of the previous point, the
    reference for the first) — one shifted subtraction and a dot
    product instead of a Python sweep.  This sits on the hot path of
    every anytime convergence curve (called once per tool run per
    method).
    """
    order = np.argsort(pts[:, 0])
    x = pts[order, 0]
    y = pts[order, 1]
    prev_y = np.concatenate(([ref[1]], y[:-1]))
    return float(np.dot(ref[0] - x, prev_y - y))


def _inclusive(p: np.ndarray, ref: np.ndarray) -> float:
    """Volume of the single box [p, ref]."""
    return float(np.prod(ref - p))


def _wfg(pts: np.ndarray, ref: np.ndarray) -> float:
    """WFG hypervolume: sum of exclusive contributions."""
    # Sorting improves limit-set domination pruning.
    order = np.lexsort(pts.T[::-1])
    pts = pts[order]
    total = 0.0
    for i in range(len(pts)):
        total += _exclusive(pts[i], pts[i + 1:], ref)
    return float(total)


def _exclusive(p: np.ndarray, rest: np.ndarray, ref: np.ndarray) -> float:
    """Exclusive contribution of ``p`` over the set ``rest``."""
    if len(rest) == 0:
        return _inclusive(p, ref)
    # Limit set: each q in rest, clipped to the region dominated by p.
    limited = np.maximum(rest, p)
    mask = non_dominated_mask(limited)
    limited = np.unique(limited[mask], axis=0)
    return _inclusive(p, ref) - _wfg(limited, ref)


def reference_point(Y: np.ndarray) -> np.ndarray:
    """Scoring reference point of a pool: its worst corner, padded by
    10% of each objective's range.

    The scenario tables, the convergence curves and ``repro tune`` all
    score a front against the reference point of the whole pool, so
    every method run on one pool is measured against the same volume.

    Args:
        Y: ``(n, m)`` objective values of the pool.
    """
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    worst = Y.max(axis=0)
    best = Y.min(axis=0)
    return worst + 0.1 * np.maximum(worst - best, 1e-12)


def hypervolume_error(
    approx_front: np.ndarray,
    golden_front: np.ndarray,
    reference: np.ndarray | None = None,
) -> float:
    """The paper's hypervolume error, Eq. (2).

    ``e = (H(P) - H(P_hat)) / H(P)`` with ``P`` the golden Pareto set.

    Args:
        approx_front: Objective points of the approximated Pareto set.
        golden_front: Objective points of the golden Pareto set.
        reference: Reference point; defaults to
            :func:`reference_point` over both sets (a standard
            convention the paper leaves unspecified).

    Returns:
        The relative error (can be negative only if ``approx_front``
        contains points that dominate the "golden" set).

    Raises:
        ValueError: If the golden hypervolume is zero.
    """
    approx = np.atleast_2d(np.asarray(approx_front, dtype=float))
    golden = np.atleast_2d(np.asarray(golden_front, dtype=float))
    if reference is None:
        reference = reference_point(np.vstack([approx, golden]))
    h_golden = hypervolume(golden, reference)
    if h_golden <= 0:
        raise ValueError("golden front has zero hypervolume")
    h_approx = hypervolume(approx, reference)
    return (h_golden - h_approx) / h_golden
