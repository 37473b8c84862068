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


def dominance_matrix(
    A: np.ndarray, B: np.ndarray, strict: bool = True
) -> np.ndarray:
    """Pairwise dominance of the rows of ``A`` over the rows of ``B``.

    Entry ``[i, j]`` says whether ``A[i]`` dominates ``B[j]``: no worse
    in every objective and, when ``strict``, strictly better in at least
    one (Pareto dominance); ``strict=False`` gives weak dominance,
    ``A[i] <= B[j]`` everywhere.  Built one objective at a time by
    ``&=``/``|=`` over ``(len(A), len(B))`` comparisons, so no
    ``(len(A), len(B), m)`` intermediate exists; the result equals the
    ``np.all``/``np.any`` broadcast bit for bit.  A comparison against
    NaN is False, so a row with a NaN coordinate neither dominates nor
    is dominated.

    Args:
        A: ``(na, m)`` dominator candidates.
        B: ``(nb, m)`` victim candidates.
        strict: Pareto (default) or weak dominance.

    Returns:
        ``(na, nb)`` boolean matrix.
    """
    le = np.ones((len(A), len(B)), dtype=bool)
    lt = np.zeros((len(A), len(B)), dtype=bool)
    for k in range(A.shape[1]):
        a, b = A[:, k, None], B[None, :, k]
        le &= a <= b
        if strict:
            lt |= a < b
    if strict:
        le &= lt
    return le


#: Row-block cap of the non-dominated sweep: bounds each step's
#: ``(survivors, block)`` and ``(block, block)`` comparison matrices.
_ND_BLOCK = 512

#: First block of the sweep.  It has no earlier survivors to thin it,
#: so its within-block step is a full square; the later blocks, which
#: the survivors thin, double from here up to the cap.
_ND_FIRST_BLOCK = 32


def non_dominated_mask(
    points: np.ndarray, block: int = _ND_BLOCK
) -> np.ndarray:
    """Boolean mask of the non-dominated rows of ``points``.

    Duplicated points are all kept (none strictly dominates its copy).
    NaN rows are kept too — a comparison against NaN is False, so they
    neither dominate nor are dominated.

    Blocked sweep in lexicographic order.  A dominator is always
    lexicographically earlier than its victim, so each sorted block is
    compared against (a) the *survivors* of earlier blocks — any
    dominator eliminated earlier is itself dominated by a survivor, by
    transitivity — and then (b) itself, but only on the rows no survivor
    dominates: if a row of the block dominates one of those, no survivor
    can dominate it either (else that survivor would dominate both), so
    every within-block dominator of a remaining row is itself a
    remaining row.  None of this depends on where the blocks end.  The
    first block has no survivors, so (b) compares all of it: blocks
    therefore start at ``_ND_FIRST_BLOCK`` = 32 rows and double up to
    ``block``.  On pools whose front is small, (a) then eliminates
    almost every row and (b) runs on a handful, so a sweep costs about
    ``n * front`` comparisons plus the lexsort.  The mask is exactly
    the definition's (property-tested against a per-point reference
    sweep and a definition-direct double loop).

    Args:
        points: ``(n, m)`` objective matrix.
        block: Cap on the sweep's row blocks; below 32 every block has
            this size.

    Returns:
        Length-``n`` boolean mask.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(pts)
    if n == 0:
        return np.zeros(0, dtype=bool)
    order = np.lexsort(pts.T[::-1])
    sorted_pts = pts[order]
    keep = np.empty(n, dtype=bool)  # in sorted order
    survivors = sorted_pts[:0]
    s, size = 0, min(block, _ND_FIRST_BLOCK)
    while s < n:
        B = sorted_pts[s:s + size]
        # (a) survivors of the earlier blocks.
        dom = np.zeros(len(B), dtype=bool)
        for cs in range(0, len(survivors), block):
            dom |= dominance_matrix(survivors[cs:cs + block], B).any(axis=0)
            if dom.all():
                break
        # (b) within the block, among the rows (a) left.  No earlier-row
        # mask is needed: a lexicographically later row dominates no
        # earlier one, and no row dominates itself.
        rest = np.nonzero(~dom)[0]
        if len(rest) > 1:
            R = B[rest]
            dom[rest] = dominance_matrix(R, R).any(axis=0)
        keep[s:s + size] = ~dom
        if not dom.all():
            survivors = np.concatenate([survivors, B[~dom]])
        s, size = s + size, min(2 * size, block)
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
