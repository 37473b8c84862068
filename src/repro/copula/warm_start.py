"""Copula-ranked seed selection (PPATuner's ``warm_start="copula"``).

Replaces the random ``init_fraction`` draw: fit a Gaussian copula on
the source records, predict every pool candidate's objectives through
the latent conditional median, and pick seeds by cycling a
deterministic sweep of scalarization weight anchors over the
rank-normalized predictions — one-hot extremes, the uniform blend, and
their midpoints — so the initial design spans the *predicted trade-off
front* rather than clustering at its knee.  Every step is deterministic
given the derived seed — exact-tie ranks break by a permutation drawn
from the supplied :class:`~numpy.random.SeedSequence`, never from the
session's main generator, so the random-init path stays bit-identical
and memoized/replayed runs are unaffected.
"""

from __future__ import annotations

import numpy as np

from .model import GaussianCopula

#: Spawn-key tag for the warm-start stream (see ``derive_rng``'s
#: convention in :mod:`repro.runner.spec`).
WARM_START_KEY = 0xC09A


def _weight_anchors(m: int) -> np.ndarray:
    """Deterministic scalarization weights sweeping the ``m``-objective
    trade-off: each one-hot extreme, the uniform blend, and the
    midpoints between them (``2m + 1`` anchors, rows sum to one)."""
    eye = np.eye(m)
    uniform = np.full((1, m), 1.0 / m)
    mids = 0.5 * (eye + uniform)
    return np.vstack([eye, uniform, mids]) if m > 1 else uniform


def _round_robin(orders, take: int) -> np.ndarray:
    """Pick ``take`` distinct items cycling over per-anchor orders.

    ``orders[a]`` ranks every item best first under anchor ``a``; each
    anchor contributes its best not-yet-chosen item in turn, so the
    picks spread across the predicted front instead of piling onto
    whichever anchor scores highest overall.  ``take`` must not exceed
    the number of items.
    """
    taken = np.zeros(len(orders[0]), dtype=bool)
    cursors = [0] * len(orders)
    chosen: list[int] = []
    while len(chosen) < take:
        a = len(chosen) % len(orders)
        c = cursors[a]
        while taken[orders[a][c]]:
            c += 1
        cursors[a] = c + 1
        pick = int(orders[a][c])
        taken[pick] = True
        chosen.append(pick)
    return np.asarray(chosen, dtype=int)


def copula_seed_indices(
    X_pool: np.ndarray,
    sources: list[tuple[np.ndarray, np.ndarray]],
    n_init: int,
    seed: int | np.random.SeedSequence,
) -> np.ndarray | None:
    """Pick ``n_init`` pool rows the source copula rates as promising.

    Args:
        X_pool: ``(n, d)`` raw target candidate features.
        sources: ``(X_k, Y_k)`` historical archives (stacked for the
            fit).
        n_init: Seeds to select.
        seed: Base seed or pre-spawned sequence; only consumed to break
            exact prediction-rank ties deterministically.

    Returns:
        ``(n_init,)`` unique pool indices, or ``None`` when the sources
        cannot support a copula fit (the caller falls back to the
        random draw).
    """
    X_pool = np.atleast_2d(np.asarray(X_pool, dtype=float))
    if not sources:
        return None
    Xs = np.vstack([np.atleast_2d(np.asarray(X, float)) for X, _ in sources])
    Ys = np.vstack([np.atleast_2d(np.asarray(Y, float)) for _, Y in sources])
    n, d = X_pool.shape
    if len(Xs) < 3 or Xs.shape[1] != d or n_init > n:
        return None

    cop = GaussianCopula().fit(np.hstack([Xs, Ys]))
    m = Ys.shape[1]
    pred = cop.predict(X_pool, np.arange(d), np.arange(d, d + m))
    # Rank-normalize each predicted objective to [0, 1]: the weight
    # anchors then trade off positions along the predicted front.
    ranks = np.argsort(np.argsort(pred, axis=0), axis=0) / max(n - 1, 1)
    anchors = _weight_anchors(m)
    scores = anchors @ ranks.T  # (a, n), lower is better

    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed, spawn_key=(WARM_START_KEY,))
    rng = np.random.default_rng(seed)
    tie_break = rng.permutation(n)
    # Ties in one anchor's weighted rank sum break first by the overall
    # score total (prefer the candidate every anchor likes), then by
    # the seed-derived permutation.
    total = scores.sum(axis=0)
    orders = [
        np.lexsort((tie_break, total, scores[a]))
        for a in range(len(anchors))
    ]
    return _round_robin(orders, n_init)


def copula_warm_start_indices(
    X_pool: np.ndarray,
    sources: list[tuple[np.ndarray, np.ndarray]],
    n_init: int,
    seed: int,
) -> np.ndarray | None:
    """Blended initial design for the GP-based tuner: half
    copula-anchored seeds, half a seed-derived uniform fill.

    A purely front-concentrated design starves the transfer GPs of
    global coverage — calibration then over-prunes and the run plateaus
    above the random arm's front.  Blending keeps the copula's few-shot
    head start on the front while the uniform half preserves the
    surrogate's view of the rest of the space.  The fill is drawn from
    its own spawn-keyed stream, so (like the anchored half) it never
    touches the session's main generator.

    Returns ``None`` when the sources cannot support a copula fit.
    """
    k = max(1, (n_init + 1) // 2)
    anchored = copula_seed_indices(X_pool, sources, min(k, n_init), seed)
    if anchored is None:
        return None
    if n_init <= len(anchored):
        return anchored[:n_init]
    rng = np.random.default_rng(
        np.random.SeedSequence(seed, spawn_key=(WARM_START_KEY, 1))
    )
    rest = np.setdiff1d(np.arange(len(X_pool)), anchored)
    fill = rng.choice(rest, size=n_init - len(anchored), replace=False)
    return np.concatenate([anchored, fill])
