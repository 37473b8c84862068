"""Selection rule (paper Eq. (13)) and its batched q-point extension.

The next configuration sent to the PD tool is the live (undecided or
predicted-Pareto), not-yet-evaluated candidate whose uncertainty region has
the longest diameter — sampling where a single tool run shrinks belief the
most.  Batch mode takes the top-k diameters (the paper's parallel-license
trials).

:func:`select_batch` generalizes the rule to q *diverse* picks per
synchronous round: after each greedy max-diameter pick the chosen
rectangle is hallucinated ("fantasy") collapsed to its posterior mean —
the centre of ``mu ± sqrt(tau) sigma`` is exactly ``mu`` — and the
remaining candidates' scores are damped by a pairwise distance penalty
against the already-chosen batch, so one batch spreads across the live
front instead of re-sampling the same region q times.
"""

from __future__ import annotations

import numpy as np

from ..obs.events import BatchSelected, SelectionMade
from .uncertainty import UncertaintyRegions


def select_next(
    regions: UncertaintyRegions,
    eligible: np.ndarray,
    batch_size: int = 1,
    recorder=None,
    iteration: int = 0,
) -> np.ndarray:
    """Pick the next configurations to evaluate.

    Args:
        regions: Current uncertainty boxes.
        eligible: Mask of candidates that may be selected (live and
            unsampled).
        batch_size: How many to select.
        recorder: Optional :class:`~repro.obs.recorder.TraceRecorder`
            fed one ``SelectionMade`` per call (with the chosen
            candidates' rectangle diameters).
        iteration: Loop iteration tag for the emitted event.

    Returns:
        Up to ``batch_size`` candidate indices, longest diameter first
        (empty if nothing is eligible).
    """
    eligible = np.asarray(eligible, dtype=bool)
    ids = np.nonzero(eligible)[0]
    if len(ids) == 0 or batch_size < 1:
        chosen = np.empty(0, dtype=int)
    else:
        diam = regions.diameters(ids)
        # Unbounded (never-predicted) regions have infinite diameter and
        # are naturally prioritized.
        order = np.argsort(-diam, kind="stable")
        chosen = ids[order[:batch_size]]
    if recorder:
        recorder.emit(SelectionMade(
            iteration=iteration,
            selected=[int(i) for i in chosen],
            diameters=[float(d) for d in regions.diameters(chosen)],
        ))
    return chosen


def select_batch(
    regions: UncertaintyRegions,
    eligible: np.ndarray,
    q: int,
    recorder=None,
    iteration: int = 0,
    penalty: float = 1.0,
) -> np.ndarray:
    """Greedy q-point selection with fantasy collapse (batched Eq. (13)).

    The first pick is the plain Eq. (13) argmax — identical to
    :func:`select_next` with ``batch_size=1``.  Each chosen rectangle is
    then collapsed (on a scratch copy — the caller's regions are never
    mutated) to its midpoint, the GP posterior mean, and every remaining
    candidate's diameter is multiplied by ``1 - exp(-d / (penalty *
    scale))`` per already-chosen batch member, where ``d`` is the
    QoR-space distance between rectangle centres and ``scale`` is the
    chosen member's pre-collapse diameter.  A candidate sitting on top
    of a pending pick scores ~0; a candidate one diameter away is barely
    penalized.  Unbounded (never-predicted) rectangles have no finite
    centre, take no penalty, and keep their infinite score — they are
    prioritized exactly as in the serial rule.

    Emits one aggregate :class:`SelectionMade` (same shape a serial
    top-q pick would produce, so serial trace consumers keep working)
    plus one :class:`BatchSelected` carrying the greedy order and the
    penalized scores.

    Args:
        regions: Current uncertainty boxes (read-only here).
        eligible: Mask of candidates that may be selected.
        q: Batch size (picks per synchronous round).
        recorder: Optional trace recorder.
        iteration: Loop iteration tag for emitted events.
        penalty: Diversity-penalty length scale multiplier
            (``PPATunerConfig.q_penalty``).

    Returns:
        Up to ``q`` candidate indices in greedy pick order (empty if
        nothing is eligible).
    """
    eligible = np.asarray(eligible, dtype=bool)
    ids = np.nonzero(eligible)[0]
    if len(ids) == 0 or q < 1:
        chosen = np.empty(0, dtype=int)
        scores_out: list[float] = []
    else:
        lo = regions.lo[ids]
        hi = regions.hi[ids]
        true_diam = regions.diameters(ids)
        with np.errstate(invalid="ignore"):
            # -inf + inf = nan for unbounded rectangles; they are
            # filtered by finite_center and never take a penalty.
            centers = 0.5 * (lo + hi)
        finite_center = np.all(np.isfinite(centers), axis=1)
        score = true_diam.astype(float).copy()
        alive = np.ones(len(ids), dtype=bool)
        picks: list[int] = []
        scores_out = []
        tiny = 1e-12
        for _ in range(min(q, len(ids))):
            masked = np.where(alive, score, -np.inf)
            # Stable argmax: ties break toward the lowest pool index,
            # matching select_next's stable argsort.
            best = int(np.argmax(masked))
            if not np.isfinite(masked[best]) and masked[best] < 0:
                break  # every remaining score is -inf (nothing alive)
            picks.append(best)
            scores_out.append(float(masked[best]))
            alive[best] = False
            if not alive.any():
                break
            # Fantasy collapse: the pick's rectangle shrinks to its
            # centre; neighbours of the (hallucinated) observation are
            # damped so the batch spreads out.
            if finite_center[best]:
                scale = true_diam[best]
                if not np.isfinite(scale) or scale <= 0.0:
                    scale = tiny
                others = alive & finite_center
                if others.any():
                    dist = np.linalg.norm(
                        centers[others] - centers[best], axis=1
                    )
                    factor = -np.expm1(-dist / (penalty * scale))
                    score[others] = score[others] * factor
        chosen = ids[np.asarray(picks, dtype=int)]
    if recorder:
        selected = [int(i) for i in chosen]
        diameters = [float(d) for d in regions.diameters(chosen)]
        recorder.emit(SelectionMade(
            iteration=iteration, selected=selected, diameters=diameters,
        ))
        recorder.emit(BatchSelected(
            iteration=iteration, selected=selected, diameters=diameters,
            scores=scores_out,
        ))
    return chosen
