"""Equivalence harness for the hot-path fast implementations.

The blocked vectorized non-dominated sweep, the blocked δ-domination
reduction, the batched rectangle intersection/collapse and the blocked
pool prediction caches are locked to reference implementations here:

- vectorized δ-dominance / intersection / collapse return *identical*
  index sets to the per-point reference and scalar oracles in
  :mod:`tests.reference_oracles`, across random pools, degenerate
  (zero-width) rectangles, exact ties, and NaN-imputed rows;
- the sweeps hold at scale — inputs spanning several blocks, all-front
  sets, ties, NaN rows — and on pools whose sizes straddle the ends of
  the growing blocks (±inf and −0.0 rows too); the survivor-restricted
  within-block step catches a dominator that only its own block holds,
  and a sweep over a small front compares about ``n * front`` pairs;
- pool caches built, extended and border-updated in small blocks equal
  the single-shot path bit for bit, and never move seeded trajectories;
- the cross-covariance cache grown in place by border updates equals
  copy-based growth bit for bit, with rows dropped and appended in
  between, and every rebuild releases its buffer;
- a build holds only the whitened sums, the cross-covariance is cached
  at the first border update for the kept rows, and means over fixed
  request-order chunks equal one ``gemv`` over the request (the BLAS
  rounding this rests on is pinned);
- a border update that hits a non-positive-definite Schur complement
  falls back to an exact per-GP refactorization without crashing,
  flagged via ``last_update_fallback``, including when the new row
  exactly duplicates a training configuration.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.gp.multisource as multisource
import repro.pareto.dominance as dominance
from repro.core import PoolOracle, PPATuner, PPATunerConfig
from repro.core.calibration import CalibrationEngine
from repro.core.decision import _DOM_BLOCK, _dominated_by_any, apply_decision_rules
from repro.core.uncertainty import UncertaintyRegions
from repro.gp import MultiSourceTransferGP, NotPositiveDefiniteError, RBFKernel
from repro.pareto import non_dominated_mask
from repro.pareto.dominance import _ND_BLOCK, dominance_matrix

from .reference_oracles import (
    decide_reference,
    dominated_by_any_reference,
    dominated_by_any_scalar,
    intersect_scalar,
    non_dominated_mask_blocked_reference,
    non_dominated_mask_reference,
    non_dominated_mask_scalar,
    update_copy_reference,
)

pytestmark = pytest.mark.fastpath

moderate = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------


@st.composite
def objective_pools(draw):
    """Random objective matrices with ties, duplicates and NaN rows."""
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(0, 40))
    m = draw(st.integers(1, 4))
    quantize = draw(st.booleans())
    with_nans = draw(st.booleans())
    rng = np.random.default_rng(seed)
    pts = rng.normal(size=(n, m))
    if quantize:
        # Coarse rounding manufactures exact ties and duplicate rows.
        pts = np.round(pts, 1)
    if with_nans and n:
        pts[rng.random(n) < 0.2] = np.nan
    return pts


def _scale_points(rng, n, m, kind):
    """``(n, m)`` objectives of one ``kind``: ``"front"`` (anti-correlated,
    every row non-dominated), ``"ties"`` (a few levels per objective, so
    exact ties and duplicate rows abound), ``"nan"`` (whole-NaN and
    partial-NaN rows among ties), ``"inf"`` (±inf entries among ties) or
    ``"zero"`` (−0.0 beside 0.0, which compare equal)."""
    if kind == "front":
        return rng.dirichlet(np.ones(m), size=n)
    if kind == "zero":
        return rng.choice([-0.0, 0.0, 1.0], size=(n, m))
    pts = rng.integers(0, 4, size=(n, m)).astype(float)
    if kind == "nan":
        pts[rng.random(n) < 0.05] = np.nan
        pts[rng.random((n, m)) < 0.05] = np.nan
    if kind == "inf":
        hit = rng.random((n, m)) < 0.05
        pts[hit] = rng.choice([-np.inf, np.inf], size=int(hit.sum()))
    return pts


@st.composite
def scale_pools(draw):
    """600-1500-row objective matrices: several sweep blocks each."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n = draw(st.integers(600, 1500))
    m = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["front", "ties", "nan"]))
    return _scale_points(rng, n, m, kind)


#: Where the default sweep's first five blocks (32, 64, 128, 256 and
#: 512 rows) end.
_GROWTH_ENDS = (32, 96, 224, 480, 992)


@st.composite
def boundary_pools(draw):
    """Objective matrices whose row count is within two of a block end
    of the growing schedule."""
    rng = np.random.default_rng(draw(st.integers(0, 10_000)))
    n = draw(st.sampled_from(_GROWTH_ENDS)) + draw(st.integers(-2, 2))
    m = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["front", "ties", "nan", "inf", "zero"]))
    return _scale_points(rng, n, m, kind)


@st.composite
def domination_cases(draw):
    """Random (front, queries, slack) triples with overlapping ids."""
    seed = draw(st.integers(0, 10_000))
    nf = draw(st.integers(0, 25))
    nq = draw(st.integers(0, 25))
    m = draw(st.integers(1, 3))
    quantize = draw(st.booleans())
    rng = np.random.default_rng(seed)
    front = rng.normal(size=(nf, m))
    queries = rng.normal(size=(nq, m))
    if quantize:
        front, queries = np.round(front, 1), np.round(queries, 1)
    # Ids drawn from a small range so self-exclusion genuinely bites.
    front_ids = rng.integers(0, max(nf + nq, 1), size=nf)
    query_ids = rng.integers(0, max(nf + nq, 1), size=nq)
    slack = rng.uniform(0.0, 0.5, size=m)
    return front, front_ids, queries, query_ids, slack


@st.composite
def region_cases(draw):
    """Random uncertainty boxes: collapsed, unbounded, tied corners."""
    seed = draw(st.integers(0, 10_000))
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    lo = np.round(rng.normal(size=(n, m)), 1)
    width = rng.uniform(0.0, 1.0, size=(n, m))
    width[rng.random(n) < 0.3] = 0.0  # degenerate (collapsed) boxes
    hi = lo + width
    unbounded = rng.random(n) < 0.2
    lo[unbounded], hi[unbounded] = -np.inf, np.inf
    undecided = rng.random(n) < 0.6
    pareto = ~undecided & (rng.random(n) < 0.3)
    delta = rng.uniform(0.0, 0.3, size=m)
    return lo, hi, undecided, pareto, delta


# ---------------------------------------------------------------------
# vectorized dominance == reference == scalar oracle
# ---------------------------------------------------------------------


class TestNonDominatedMask:
    @given(objective_pools())
    @moderate
    def test_matches_reference_and_scalar(self, pts):
        fast = non_dominated_mask(pts)
        np.testing.assert_array_equal(
            fast, non_dominated_mask_reference(pts)
        )
        np.testing.assert_array_equal(
            fast, non_dominated_mask_scalar(pts)
        )

    @given(objective_pools(), st.integers(1, 7))
    @moderate
    def test_block_size_irrelevant(self, pts, block):
        """Tiny blocks force many cross-block survivor checks."""
        np.testing.assert_array_equal(
            non_dominated_mask(pts, block=block),
            non_dominated_mask_reference(pts),
        )

    def test_all_nan_and_empty(self):
        assert non_dominated_mask(np.empty((0, 2))).shape == (0,)
        pts = np.full((4, 2), np.nan)
        # NaN rows neither dominate nor are dominated: all kept.
        assert non_dominated_mask(pts).all()
        assert non_dominated_mask_scalar(pts).all()

    def test_exact_duplicates_all_kept(self):
        pts = np.array([[1.0, 2.0]] * 5 + [[0.5, 3.0]])
        np.testing.assert_array_equal(
            non_dominated_mask(pts), non_dominated_mask_scalar(pts)
        )
        assert non_dominated_mask(pts).all()

    @given(scale_pools())
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_reference_at_scale(self, pts):
        """Inputs spanning several default blocks: all-front sets
        (every within-block step runs in full), ties and NaN rows."""
        assert len(pts) > _ND_BLOCK
        fast = non_dominated_mask(pts)
        np.testing.assert_array_equal(
            fast, non_dominated_mask_reference(pts)
        )
        np.testing.assert_array_equal(
            fast, non_dominated_mask_blocked_reference(pts)
        )

    @given(boundary_pools())
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_reference_at_growth_boundaries(self, pts):
        """Sizes that end a growing block exactly, or spill one or two
        rows into the next; all-front, tied, NaN, ±inf and −0.0 rows."""
        fast = non_dominated_mask(pts)
        np.testing.assert_array_equal(
            fast, non_dominated_mask_reference(pts)
        )
        np.testing.assert_array_equal(
            fast, non_dominated_mask_blocked_reference(pts)
        )

    @pytest.mark.parametrize("lead", [4, *_GROWTH_ENDS, _ND_BLOCK])
    def test_dominator_only_in_own_block(self, lead):
        """A row whose one dominator is an earlier row of its own block
        that no earlier survivor dominates: the within-block step must
        still run on the rows the survivor check left.  The pair opens
        a block of fixed 4-row sweeps and, for ``lead`` in
        ``_GROWTH_ENDS``, a block of the default growing sweep."""
        t = np.arange(lead, dtype=float)
        first = np.column_stack([t, 2.0 * lead - t])  # a front
        second = np.array([
            [lead + 0.0, 2.0],  # survives: y below every earlier row
            [lead + 1.0, 2.0],  # dominated by the row above, only
            [lead + 2.0, 1.0],
            [lead + 3.0, 0.5],
        ])
        pts = np.vstack([first, second])
        victim = lead + 1
        dominators = [
            i for i in range(len(pts))
            if np.all(pts[i] <= pts[victim]) and np.any(pts[i] < pts[victim])
        ]
        assert dominators == [lead]
        expected = np.ones(len(pts), dtype=bool)
        expected[victim] = False
        perm = np.random.default_rng(0).permutation(len(pts))
        for block in (4, _ND_BLOCK):
            np.testing.assert_array_equal(
                non_dominated_mask(pts[perm], block=block), expected[perm]
            )
        np.testing.assert_array_equal(
            non_dominated_mask_reference(pts[perm]), expected[perm]
        )

    def test_small_front_costs_few_pairs(self, monkeypatch):
        """One sweep of 727 rows, m=2, with a 5-point front (the shape of
        ``mac_transfer``'s decision passes) compares few pairs.

        The first 32-row block has no earlier survivors: 32² = 1,024
        pairs.  Every survivor is a final front row (a dominator sorts
        before its victim, so a row that outlives its block is never
        dominated later), so each of the other 695 rows meets at most 5
        survivors: 3,475 pairs.  The within-block step then sees only
        rows whose dominator shares their block.  This pool takes 4,800
        pairs; a fixed 512-row first block alone would take 512² =
        262,144.
        """
        rng = np.random.default_rng(0)
        front = np.column_stack([np.arange(5.0), 4.0 - np.arange(5.0)])
        rest = front[rng.integers(0, 5, size=722)] + rng.uniform(
            0.01, 3.0, size=(722, 2)
        )
        pts = rng.permutation(np.vstack([front, rest]))
        pairs = []

        def counting(A, B, strict=True):
            pairs.append(len(A) * len(B))
            return dominance_matrix(A, B, strict)

        monkeypatch.setattr(dominance, "dominance_matrix", counting)
        assert non_dominated_mask(pts).sum() == 5
        assert sum(pairs) <= 8_192


def _broadcast_dominance(A, B, strict=True):
    """The ``(na, nb, m)`` ``np.all``/``np.any`` broadcast."""
    le = np.all(A[:, None, :] <= B[None, :, :], axis=2)
    if not strict:
        return le
    return le & np.any(A[:, None, :] < B[None, :, :], axis=2)


class TestDominanceMatrix:
    @given(st.integers(0, 10_000), st.integers(1, 4), st.booleans())
    @moderate
    def test_equals_broadcast(self, seed, m, strict):
        """Bit for bit, with ties, signed zeros, infinities and NaNs."""
        rng = np.random.default_rng(seed)
        values = np.array([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf,
                           np.nan])
        A = rng.choice(values, size=(rng.integers(0, 30), m))
        B = rng.choice(values, size=(rng.integers(0, 30), m))
        got = dominance_matrix(A, B, strict=strict)
        assert got.dtype == bool and got.shape == (len(A), len(B))
        np.testing.assert_array_equal(
            got, _broadcast_dominance(A, B, strict)
        )


class TestDeltaDomination:
    @given(domination_cases())
    @moderate
    def test_matches_reference_and_scalar(self, case):
        front, fids, queries, qids, slack = case
        fast = _dominated_by_any(front, fids, queries, qids, slack)
        np.testing.assert_array_equal(
            fast,
            dominated_by_any_reference(front, fids, queries, qids, slack),
        )
        np.testing.assert_array_equal(
            fast,
            dominated_by_any_scalar(front, fids, queries, qids, slack),
        )

    @given(domination_cases(), st.integers(1, 5))
    @moderate
    def test_block_size_irrelevant(self, case, block):
        front, fids, queries, qids, slack = case
        np.testing.assert_array_equal(
            _dominated_by_any(
                front, fids, queries, qids, slack, block=block
            ),
            _dominated_by_any(
                front, fids, queries, qids, slack, block=_DOM_BLOCK
            ),
        )

    @given(st.integers(0, 10_000), st.integers(1, 4),
           st.sampled_from(["front", "ties", "nan"]))
    @settings(max_examples=10, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_matches_reference_at_scale(self, seed, m, kind):
        """600-1500 rows a side, in default-size and in 512-row blocks."""
        rng = np.random.default_rng(seed)
        nf, nq = rng.integers(600, 1501, size=2)
        front = _scale_points(rng, nf, m, kind)
        queries = _scale_points(rng, nq, m, kind)
        fids = rng.permutation(nf + nq)[:nf]
        qids = rng.permutation(nf + nq)[:nq]
        slack = np.where(rng.random(m) < 0.5, 0.0, 0.01)
        expected = dominated_by_any_reference(
            front, fids, queries, qids, slack
        )
        for block in (_DOM_BLOCK, 512):
            np.testing.assert_array_equal(
                _dominated_by_any(
                    front, fids, queries, qids, slack, block=block
                ),
                expected,
            )


class TestDecisionBackends:
    @given(region_cases())
    @moderate
    def test_identical_index_sets(self, case):
        lo, hi, undecided, pareto, delta = case
        regions_v = UncertaintyRegions(lo.copy(), hi.copy())
        regions_r = UncertaintyRegions(lo.copy(), hi.copy())
        drop_v, par_v = apply_decision_rules(
            regions_v, undecided, pareto, delta,
            pareto_delta=3.0 * delta,
        )
        drop_r, par_r = decide_reference(
            regions_r, undecided, pareto, delta, 3.0 * delta,
        )
        np.testing.assert_array_equal(drop_v, drop_r)
        np.testing.assert_array_equal(par_v, par_r)


# ---------------------------------------------------------------------
# batched rectangle updates == per-point oracles
# ---------------------------------------------------------------------


class TestRectangleBatches:
    @given(st.integers(0, 10_000), st.booleans())
    @moderate
    def test_intersect_matches_scalar(self, seed, force_disjoint):
        rng = np.random.default_rng(seed)
        n, m = 20, 3
        lo = rng.normal(size=(n, m))
        hi = lo + rng.uniform(0.1, 1.0, size=(n, m))
        idx = rng.choice(n, size=8, replace=False)
        new_lo = rng.normal(size=(8, m))
        new_hi = new_lo + rng.uniform(0.0, 1.0, size=(8, m))
        if force_disjoint:
            # Push some rectangles entirely outside the accumulated box
            # so the degenerate clip-to-previous fallback fires.
            new_lo[:4] += 10.0
            new_hi[:4] += 10.0
        vec = UncertaintyRegions(lo.copy(), hi.copy())
        ref = UncertaintyRegions(lo.copy(), hi.copy())
        vec.intersect(idx, new_lo, new_hi)
        intersect_scalar(ref, idx, new_lo, new_hi)
        np.testing.assert_array_equal(vec.lo, ref.lo)
        np.testing.assert_array_equal(vec.hi, ref.hi)


# ---------------------------------------------------------------------
# duplicate rows and the border-update fallback (jitter regression)
# ---------------------------------------------------------------------


def _make_engine(m=3, d=3, seed=0, n_pool=30):
    """A one-source engine over a synthetic pool; pool row 10 duplicates
    row 3 so later evaluations can append exact-duplicate configs."""
    rng = np.random.default_rng(seed)
    X_pool = rng.uniform(size=(n_pool, d))
    X_pool[10] = X_pool[3]
    Y_pool = rng.normal(size=(n_pool, m))
    Xs = rng.uniform(size=(20, d))
    Ys = rng.normal(size=(20, m))
    cfg = PPATunerConfig(reopt_every=0, n_restarts=0)
    models = [
        MultiSourceTransferGP(
            kernel=RBFKernel(np.full(d, 0.4)), optimize=False
        )
        for _ in range(m)
    ]
    engine = CalibrationEngine(models, cfg, sources=[(Xs, Ys)])
    engine.register_pool(X_pool)
    return engine, X_pool, Y_pool


def _calibrate_init(engine, X_pool, Y_pool, init=(0, 1, 2, 3, 4, 5)):
    n, m = len(X_pool), Y_pool.shape[1]
    sampled = np.zeros(n, dtype=bool)
    sampled[list(init)] = True
    y_obs = np.full((n, m), np.nan)
    y_obs[sampled] = Y_pool[sampled]
    engine.calibrate(0, X_pool, sampled, y_obs, list(init))
    return sampled, y_obs


def _refit(X_pool, sampled, y_obs):
    """An engine calibrated from scratch on every sampled row."""
    ref, _, _ = _make_engine()
    ref.calibrate(0, X_pool, sampled, y_obs, list(np.nonzero(sampled)[0]))
    return ref


class TestSharedFallback:
    def test_exact_duplicate_rows_do_not_crash(self):
        """Pool row 10 equals row 3; absorbing it appends an exact
        duplicate of a training config.  The incremental path must
        survive (with or without jitter fallback) and match a
        from-scratch refit."""
        eng, X_pool, Y_pool = _make_engine()
        sampled, y_obs = _calibrate_init(eng, X_pool, Y_pool)
        eng.predict(np.arange(len(X_pool)))  # materialize the caches
        sampled[10] = True
        y_obs[10] = Y_pool[10]
        eng.calibrate(1, X_pool, sampled, y_obs, [10])
        assert eng.stats.n_incremental == len(eng.models)

        ref = _refit(X_pool, sampled, y_obs)
        idx = np.arange(len(X_pool))
        mean_f, std_f = eng.predict(idx)
        mean_r, std_r = ref.predict(idx)
        np.testing.assert_allclose(mean_f, mean_r, atol=1e-6)
        np.testing.assert_allclose(std_f, std_r, atol=1e-6)

    def test_forced_fallback_goes_per_gp(self, monkeypatch):
        """When the border update is rejected (non-PD Schur complement),
        every model refactorizes exactly, the flags propagate, and the
        posterior still matches the exact refit."""
        eng, X_pool, Y_pool = _make_engine()
        sampled, y_obs = _calibrate_init(eng, X_pool, Y_pool)

        def boom(*args, **kwargs):
            raise NotPositiveDefiniteError("forced")

        monkeypatch.setattr(multisource, "cholesky_append_rows", boom)
        sampled[[6, 7]] = True
        y_obs[[6, 7]] = Y_pool[[6, 7]]
        eng.calibrate(1, X_pool, sampled, y_obs, [6, 7])

        assert all(m.last_update_fallback for m in eng.models)
        assert eng.stats.n_fallbacks == len(eng.models)
        monkeypatch.undo()

        ref = _refit(X_pool, sampled, y_obs)
        idx = np.arange(len(X_pool))
        mean_f, std_f = eng.predict(idx)
        mean_r, std_r = ref.predict(idx)
        np.testing.assert_allclose(mean_f, mean_r, atol=1e-8)
        np.testing.assert_allclose(std_f, std_r, atol=1e-8)


# ---------------------------------------------------------------------
# blocked pool caches == the single-shot build
# ---------------------------------------------------------------------


class TestFloat32Pool:
    def test_blocked_f64_cache_bit_identical(self, monkeypatch):
        """Cached values are row-local: caches built, pool-extended and
        border-updated in 17-row blocks equal the single-shot path
        exactly."""
        rng = np.random.default_rng(5)
        d = 3
        Xs, Xt = rng.uniform(size=(20, d)), rng.uniform(size=(10, d))
        pool = rng.uniform(size=(100, d))
        X_more = rng.uniform(size=(40, d))
        X_new, y_new = rng.uniform(size=(3, d)), rng.normal(size=3)

        def trajectory():
            r = np.random.default_rng(5)
            model = MultiSourceTransferGP(
                kernel=RBFKernel(np.full(d, 0.4)), optimize=False
            ).fit([(Xs, r.normal(size=20))], Xt, r.normal(size=10))
            model.register_pool(pool)
            out = [model.predict_pool(np.arange(100))]
            model.extend_pool(X_more)
            out.append(model.predict_pool(np.arange(140)))
            model.update(X_new, y_new)
            out.append(model.predict_pool(np.arange(140)))
            return out

        one_shot = trajectory()
        monkeypatch.setattr(multisource, "POOL_BLOCK", 17)
        blocked = trajectory()
        for (m1, v1), (m2, v2) in zip(one_shot, blocked):
            np.testing.assert_array_equal(m1, m2)
            np.testing.assert_array_equal(v1, v2)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_golden_trajectory_unchanged(self, seed, monkeypatch):
        """Blocked border updates agree with the single-shot ones only
        to roundoff — far below the decision margins on these seeded
        runs, so the selected and Pareto index sets must not move."""
        rng = np.random.default_rng(seed)
        X = rng.uniform(size=(60, 3))
        Y = rng.uniform(0.5, 2.0, size=(60, 2))

        def run():
            cfg = PPATunerConfig(max_iterations=15, seed=seed)
            return PPATuner(cfg).tune(X, PoolOracle(Y))

        ref = run()
        monkeypatch.setattr(multisource, "POOL_BLOCK", 16)
        fast = run()
        np.testing.assert_array_equal(
            ref.evaluated_indices, fast.evaluated_indices
        )
        np.testing.assert_array_equal(
            ref.pareto_indices, fast.pareto_indices
        )
        assert [h.selected for h in ref.history] == [
            h.selected for h in fast.history
        ]


# ---------------------------------------------------------------------
# the cross-covariance cache grown in place == copy-based growth
# ---------------------------------------------------------------------


def _growth_model(rng, d=3):
    """A fixed-hyperparameter one-source model on 20 + 10 rows."""
    Xs, Xt = rng.uniform(size=(20, d)), rng.uniform(size=(10, d))
    return MultiSourceTransferGP(
        kernel=RBFKernel(np.full(d, 0.4)), optimize=False
    ).fit([(Xs, rng.normal(size=20))], Xt, rng.normal(size=10))


class TestInPlacePoolGrowth:
    @pytest.mark.parametrize("pool_block", [None, 17, 120])
    def test_matches_copy_growth(self, pool_block, monkeypatch):
        """More border updates than the spare columns hold, with pool
        extensions and dropped rows in between: every ``predict_pool``
        equals copy-based growth of a never-shrunk twin bit for bit, the
        cached ``K*`` equals a fresh cross-covariance of its rows, and
        the ``K*`` buffer is allocated by the first update after the
        build (which keeps no ``K*``) and reallocated only when its
        spare columns run out.  ``None`` keeps one block, 17 forces
        several, and 120 lets the extensions carry the cache across a
        block boundary."""
        if pool_block is not None:
            monkeypatch.setattr(multisource, "POOL_BLOCK", pool_block)
        rng = np.random.default_rng(11)
        pool = rng.uniform(size=(100, 3))
        fast = _growth_model(np.random.default_rng(3))
        ref = _growth_model(np.random.default_rng(3))
        for model in (fast, ref):
            model.register_pool(pool)
            model.predict_pool(np.arange(len(pool)))
        keep = np.ones(len(pool), dtype=bool)
        n_updates = 2 * multisource.POOL_SPARE + 5
        reallocations = 0
        for step in range(n_updates):
            k = 1 + step % 3
            X_new, y_new = rng.uniform(size=(k, 3)), rng.normal(size=k)
            before = fast._pool_K
            room = -1 if before is None else before.shape[1] - len(fast._L)
            fast.update(X_new, y_new)
            update_copy_reference(ref, X_new, y_new)
            assert not fast.last_update_fallback
            if room >= k:
                assert fast._pool_K is before
            else:
                assert fast._pool_K.shape[1] == (
                    len(fast._L) + multisource.POOL_SPARE
                )
                reallocations += 1
            if step in (4, n_updates - 4):
                X_more = rng.uniform(size=(15, 3))
                fast.extend_pool(X_more)
                ref.extend_pool(X_more)
                keep = np.append(keep, np.ones(15, dtype=bool))
            if step % 5 == 2:
                kept = np.flatnonzero(keep)
                keep[rng.choice(kept, size=3, replace=False)] = False
                fast.keep_pool_rows(keep)
            idx = rng.permutation(np.flatnonzero(keep))
            for got, want in zip(fast.predict_pool(idx),
                                 ref.predict_pool(idx)):
                np.testing.assert_array_equal(got, want)
            rows = fast._pool_rows
            np.testing.assert_array_equal(
                fast._pool_K[:len(rows), :len(fast._L)],
                fast._cross_cov(fast._pool_X[rows]),
            )
        assert reallocations > 2
        assert fast.pool_cache_rows == keep.sum()

    @staticmethod
    def _grown_pair():
        """Two models in one state: ``fast`` has grown its ``K*`` cache
        in place, into a buffer with spare columns; ``ref`` by
        copying."""
        rng = np.random.default_rng(4)
        fast = _growth_model(np.random.default_rng(3))
        ref = _growth_model(np.random.default_rng(3))
        pool = rng.uniform(size=(60, 3))
        for model in (fast, ref):
            model.register_pool(pool)
            model.predict_pool(np.arange(len(pool)))
        for _ in range(3):
            X_new, y_new = rng.uniform(size=(2, 3)), rng.normal(size=2)
            fast.update(X_new, y_new)
            update_copy_reference(ref, X_new, y_new)
        assert fast._pool_K.shape[1] > len(fast._L)
        return fast, ref, pool, rng

    @staticmethod
    def _check_rebuilt(fast, ref, pool, rng):
        """The rebuild released the buffer, so the next border updates
        extend the rebuilt caches, not the stale columns."""
        assert fast._pool_K is None and fast.pool_cache_rows == 0
        idx = np.arange(len(pool))
        for _ in range(3):
            for got, want in zip(fast.predict_pool(idx),
                                 ref.predict_pool(idx)):
                np.testing.assert_array_equal(got, want)
            X_new, y_new = rng.uniform(size=(2, 3)), rng.normal(size=2)
            fast.update(X_new, y_new)
            update_copy_reference(ref, X_new, y_new)

    def test_reoptimising_fit_releases_buffers(self):
        fast, ref, pool, rng = self._grown_pair()
        for model in (fast, ref):
            src = model._tasks == 0
            model.optimize = True
            model.fit(
                [(model._X[src], model._y_raw[src])],
                model._X[~src], model._y_raw[~src],
            )
        self._check_rebuilt(fast, ref, pool, rng)

    def test_fallback_releases_buffers(self, monkeypatch):
        fast, ref, pool, rng = self._grown_pair()

        def boom(*args, **kwargs):
            raise NotPositiveDefiniteError("forced")

        X_new, y_new = rng.uniform(size=(2, 3)), rng.normal(size=2)
        monkeypatch.setattr(multisource, "cholesky_append_rows", boom)
        fast.update(X_new, y_new)
        monkeypatch.undo()
        assert fast.last_update_fallback
        # The exact refit the fallback performs: same rows, same order.
        src = ref._tasks == 0
        ref.optimize = False
        ref.fit(
            [(ref._X[src], ref._y_raw[src])],
            np.vstack([ref._X[~src], X_new]),
            np.concatenate([ref._y_raw[~src], y_new]),
        )
        self._check_rebuilt(fast, ref, pool, rng)

    def test_register_pool_releases_buffers(self):
        fast, ref, _, rng = self._grown_pair()
        other = rng.uniform(size=(25, 3))
        for model in (fast, ref):
            model.register_pool(other)
        self._check_rebuilt(fast, ref, other, rng)


# ---------------------------------------------------------------------
# the build holds only s, and its means round as one gemv
# ---------------------------------------------------------------------


class TestSumsOnlyBuild:
    # 44 x 205 stays below OpenBLAS's threading threshold for gemv
    # (m * n < 9216), so every call runs on one thread whatever the
    # machine; 44 is no multiple of 8, 16 or 32, so chunks end in tails.
    ROWS, COLS = 44, 205

    def _gemv_case(self):
        rng = np.random.default_rng(0)
        return (
            rng.normal(size=(self.ROWS, self.COLS)),
            rng.normal(size=self.COLS),
        )

    def test_gemv_rounds_rows_in_fours(self):
        """The BLAS fact the chunked means rest on: request-order chunks
        whose length is a multiple of four round every row as one
        ``gemv`` over the whole request does; other chunk lengths put
        rows in a call's tail, which rounds another way.  A BLAS that
        breaks the first half breaks bit-identical pool means."""
        K, alpha = self._gemv_case()
        whole = K @ alpha

        def chunked(c):
            return np.concatenate([
                K[a:a + c] @ alpha for a in range(0, len(K), c)
            ])

        for c in (4, 8, 16, 32, 64, multisource._MEAN_CHUNK):
            np.testing.assert_array_equal(chunked(c), whole, err_msg=str(c))
        for c in (1, 2, 3, 7, 17):
            assert (chunked(c) != whole).any(), c

    def test_chunked_mean_matches_one_gemv(self, monkeypatch):
        """Rows fed in pieces of any size (as pool blocks yield them)
        give the means of one ``gemv`` over the request."""
        monkeypatch.setattr(multisource, "_MEAN_CHUNK", 8)
        K, alpha = self._gemv_case()
        means = multisource._ChunkedMean(alpha, len(K))
        for a, b in [(0, 17), (17, 20), (20, 20), (20, 29), (29, 44)]:
            means.add(K[a:b])
        np.testing.assert_array_equal(means.mean, K @ alpha)

    def test_build_holds_no_pool_by_n_array(self):
        """After a build the model holds O(pool) bytes, not a
        ``(pool, n)`` cross-covariance; ``k*`` is cached at the first
        border update, for the rows still kept."""
        import tracemalloc

        rng = np.random.default_rng(2)
        p, n, d = 20_000, 160, 3
        model = MultiSourceTransferGP(
            kernel=RBFKernel(np.full(d, 0.4)), optimize=False
        ).fit([], rng.uniform(size=(n, d)), rng.normal(size=n))
        model.register_pool(rng.uniform(size=(p, d)))
        keep = rng.random(p) < 0.1
        X_new, y_new = rng.uniform(size=(1, d)), rng.normal(size=1)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            mean, var = model.predict_pool(np.arange(p))
            built = tracemalloc.get_traced_memory()[0] - base
            del mean, var
            model.keep_pool_rows(keep)
            model.update(X_new, y_new)
            updated = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        # s, the slot maps and the returned mean and variance: a few
        # floats per pool row (a (pool, n) array would be n of them).
        assert built < 8 * p * 8, built
        # The k* buffer of the kept rows, with its spare columns, plus
        # the same few floats per pool row.
        cache = keep.sum() * (n + 1 + multisource.POOL_SPARE) * 8
        assert model._pool_K.nbytes == cache
        assert cache < updated < cache + 8 * p * 8, (updated, cache)
