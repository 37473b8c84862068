"""Decision-making rules (paper Eq. (11)-(12) and Figure 2(b)).

Minimization semantics.  With uncertainty boxes ``[lo(x), hi(x)]``:

- **Drop** an undecided ``x`` if some other live point ``x'`` δ-dominates
  it even when ``x'`` is judged pessimistically and ``x`` optimistically:
  ``hi(x') <= lo(x) + δ`` in every objective, strictly in one (Eq. (11)).
- **Classify Pareto** an undecided ``x`` if no live point could δ-dominate
  it even when ``x`` is judged pessimistically and the rival
  optimistically: no ``x'`` with ``lo(x') <= hi(x) - δ`` everywhere and
  strict somewhere (Eq. (12) rearranged) — the resulting set is
  δ-accurate.

Both rules only ever compare against the *Pareto front* of the relevant
corner values (a dominator must itself be non-dominated among the
corners), so a pass costs one front sweep per rule plus a
``(front, candidates)`` comparison.  A sweep is a lexsort plus about
``live * front`` pairwise comparisons, and 32² more for its first
block, which no earlier survivor thins.  A pass reads the geometry of
the live rows only, so its cost is linear in the live set for a fixed
front size, quadratic only when most of the live set is on the front.
"""

from __future__ import annotations

import time

import numpy as np

from ..obs.events import DecisionSummary
from ..pareto.dominance import dominance_matrix, pareto_indices
from .uncertainty import UncertaintyRegions


#: Chunk size of the blocked δ-domination reduction: each step builds
#: one (block, block) boolean matrix at most, 4 MB at 2048 rows, where a
#: single-shot comparison over pools of 10^5-10^6 candidates would need
#: gigabytes.
_DOM_BLOCK = 2048


def _dominated_by_any(
    front: np.ndarray,
    front_ids: np.ndarray,
    queries: np.ndarray,
    query_ids: np.ndarray,
    slack: np.ndarray,
    block: int = _DOM_BLOCK,
) -> np.ndarray:
    """Which queries are δ-dominated by some front point other than itself.

    A front point ``f`` δ-dominates query ``q`` iff
    ``f <= q + slack`` componentwise with strict ``<`` somewhere.

    Evaluated in (query × front) blocks with
    :func:`~repro.pareto.dominance.dominance_matrix` — pure elementwise
    comparisons plus an ``any`` reduction over a partitioned axis, so
    the result is bit-identical to the single-shot broadcast for every
    input; query chunks whose rows are all already dominated stop
    scanning the remaining front blocks early.

    Args:
        front: ``(nf, m)`` dominator corner values.
        front_ids: Candidate ids of the front rows (for self-exclusion).
        queries: ``(nq, m)`` query corner values.
        query_ids: Candidate ids of the query rows.
        slack: Length-``m`` δ vector.
        block: Row-chunk size of the reduction.

    Returns:
        Length-``nq`` boolean mask.
    """
    nf, nq = len(front), len(queries)
    if nf == 0 or nq == 0:
        return np.zeros(nq, dtype=bool)
    out = np.empty(nq, dtype=bool)
    for qs in range(0, nq, block):
        qe = min(qs + block, nq)
        relaxed = queries[qs:qe] + slack[None, :]  # (bq, m)
        qid = query_ids[qs:qe]
        dom_q = np.zeros(qe - qs, dtype=bool)
        for fs in range(0, nf, block):
            fe = min(fs + block, nf)
            # (bf, bq): does front i dominate query j?
            dom = dominance_matrix(front[fs:fe], relaxed)
            dom &= front_ids[fs:fe, None] != qid[None, :]
            dom_q |= dom.any(axis=0)
            if dom_q.all():
                break
        out[qs:qe] = dom_q
    return out


def _dominated_with_second_pass(
    all_values: np.ndarray,
    all_ids: np.ndarray,
    queries: np.ndarray,
    query_ids: np.ndarray,
    slack: np.ndarray,
) -> np.ndarray:
    """δ-domination against the full candidate set, front-accelerated.

    Comparing against the Pareto front of ``all_values`` is sufficient for
    every query *except* one whose only front dominator is itself — for
    those (rare) queries a second pass checks the full set.
    """
    front_rows = pareto_indices(all_values)
    result = _dominated_by_any(
        all_values[front_rows], all_ids[front_rows],
        queries, query_ids, slack,
    )
    # Queries not flagged but sitting on the front themselves might be
    # dominated by second-layer points the front filtered out.
    on_front = np.isin(query_ids, all_ids[front_rows])
    recheck = ~result & on_front
    if recheck.any():
        result[recheck] = _dominated_by_any(
            all_values, all_ids,
            queries[recheck], query_ids[recheck], slack,
        )
    return result


def apply_decision_rules(
    regions: UncertaintyRegions,
    undecided: np.ndarray,
    pareto: np.ndarray,
    delta: np.ndarray,
    pareto_delta: np.ndarray | None = None,
    recorder=None,
    iteration: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """One decision-making pass over the live candidates.

    Args:
        regions: Current uncertainty boxes for the whole pool.
        undecided: Mask of undecided candidates.
        pareto: Mask of candidates already classified Pareto-optimal.
        delta: Length-``m`` absolute relaxation vector δ used by the
            *drop* rule (Eq. (11)).
        pareto_delta: Relaxation used by the *classification* rule
            (Eq. (12)); defaults to ``delta``.  The costs are
            asymmetric — a wrong drop loses a true front point forever,
            while a generous classification is corrected by the final
            tool-verification pass — so classifying with a larger δ than
            dropping is the safe direction.
        recorder: Optional :class:`~repro.obs.recorder.TraceRecorder`
            fed one ``DecisionSummary`` per pass.
        iteration: Loop iteration tag for the emitted event.

    Returns:
        ``(newly_dropped, newly_pareto)`` index arrays (disjoint).
    """
    undecided = np.asarray(undecided, dtype=bool)
    pareto = np.asarray(pareto, dtype=bool)
    start = time.perf_counter() if recorder else 0.0
    newly_dropped, newly_pareto = _decide(
        regions, undecided, pareto, delta, pareto_delta
    )
    if recorder:
        n = len(undecided)
        n_dropped = (
            n - int(undecided.sum()) - int(pareto.sum())
            + len(newly_dropped)
        )
        recorder.emit(DecisionSummary(
            iteration=iteration,
            n_live=n - n_dropped,
            n_undecided=(
                int(undecided.sum()) - len(newly_dropped)
                - len(newly_pareto)
            ),
            n_pareto=int(pareto.sum()) + len(newly_pareto),
            n_dropped=n_dropped,
            newly_dropped=len(newly_dropped),
            newly_pareto=len(newly_pareto),
            seconds=time.perf_counter() - start,
        ))
    return newly_dropped, newly_pareto


def _decide(
    regions: UncertaintyRegions,
    undecided: np.ndarray,
    pareto: np.ndarray,
    delta: np.ndarray,
    pareto_delta: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The decision pass proper (see :func:`apply_decision_rules`)."""
    delta = np.asarray(delta, dtype=float).ravel()
    if delta.shape != (regions.m,):
        raise ValueError(
            f"delta must have {regions.m} entries, got {delta.shape}"
        )
    if pareto_delta is None:
        pareto_delta = delta
    pareto_delta = np.asarray(pareto_delta, dtype=float).ravel()
    if pareto_delta.shape != (regions.m,):
        raise ValueError("pareto_delta must match the objective count")
    if not undecided.any():
        return np.empty(0, dtype=int), np.empty(0, dtype=int)
    live_ids = np.nonzero(undecided | pareto)[0]

    # Only candidates with bounded boxes participate in decisions; the
    # rest wait for their first prediction.
    bounded = regions.is_bounded(live_ids)
    und_ids = live_ids[bounded & undecided[live_ids]]
    live_ids = live_ids[bounded]
    if len(live_ids) == 0 or len(und_ids) == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)

    pess = regions.hi[live_ids]  # max(U(x')) per live point

    # Eq. (11): drop x if some live x' has hi(x') <= lo(x) + delta.
    dropped_mask = _dominated_with_second_pass(
        pess, live_ids, regions.lo[und_ids], und_ids, delta,
    )
    newly_dropped = und_ids[dropped_mask]

    # Eq. (12): classify x Pareto if no live x' has
    # lo(x') <= hi(x) - delta (i.e. hi(x) <= lo(x') + delta fails for no
    # potential dominator).  Compare against the front of optimistic
    # corners of the *surviving* live set.
    survivors = np.setdiff1d(live_ids, newly_dropped, assume_unique=True)
    if len(survivors) == 0:
        return newly_dropped, np.empty(0, dtype=int)
    surv_opt = regions.lo[survivors]
    candidates = np.setdiff1d(und_ids, newly_dropped, assume_unique=True)
    if len(candidates) == 0:
        return newly_dropped, np.empty(0, dtype=int)
    could_be_dominated = _dominated_with_second_pass(
        surv_opt,
        survivors,
        regions.hi[candidates] - pareto_delta[None, :],
        candidates,
        np.zeros_like(pareto_delta),
    )
    newly_pareto = candidates[~could_be_dominated]
    return newly_dropped, newly_pareto
