"""Test-only reference implementations of the hot paths.

The vectorized/blocked fast paths in :mod:`repro.core.decision`,
:mod:`repro.core.uncertainty` and :mod:`repro.pareto.dominance` are
required to return *identical* index sets to the code they replaced.
This module keeps that replaced code alive, verbatim, as the oracles the
equivalence property tests in ``tests/test_fastpath_equivalence.py``
compare against: the per-point reference sweeps, the blocked sweep that
compared every block against itself in full, and scalar double loops
straight off the paper's Eq. (10)-(12) definitions — slow, but
obviously correct.  It also keeps two forms of the GP pool caches of
:class:`~repro.gp.MultiSourceTransferGP`: growth by copying, which the
in-place growth must match bit for bit, and the whole-pool whitened
cache ``V = L^-1 K*^T`` the row-local caches replaced, which they must
match bit for bit until the first border update.

The GP section keeps the kernels' ``(n1, n2, d)`` broadcast and the
list-of-``dK/dtheta`` marginal-likelihood gradient that the ``cdist``
evaluation and the single-contraction gradients of :mod:`repro.gp`
replaced, ``MultiSourceTransferGP``'s marginal-likelihood objective as
it was before its trims, and the objective of the single-task GP
regressor the no-source model replaced;
``tests/test_gp_gradients.py`` compares against them.  It
also writes out the paper's two-task transfer GP densely — the Eq. (7)
covariance and the Eq. (8) posterior — which the one-source
``MultiSourceTransferGP`` must reproduce
(``tests/test_calibration_equivalence.py``).

Nothing here is on the hot path; clarity beats speed throughout.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import solve_triangular

from repro.core.uncertainty import UncertaintyRegions
from repro.gp import Matern52Kernel, RBFKernel
from repro.gp.likelihood import gaussian_log_marginal
from repro.gp.multisource import pool_indices
from repro.gp.linalg import (
    cholesky_append_rows,
    cholesky_inverse,
    cholesky_solve,
    log_det_from_cholesky,
    robust_cholesky,
)

__all__ = [
    "ard_eval_reference",
    "ard_eval_with_grads_reference",
    "gaussian_log_marginal_reference",
    "lml_grads_reference",
    "multisource_grads_reference",
    "multisource_objective_reference",
    "regressor_objective_reference",
    "transfer_eval_with_grads_reference",
    "transfer_posterior_reference",
    "decide_reference",
    "dominated_by_any_reference",
    "dominated_by_any_scalar",
    "intersect_scalar",
    "non_dominated_mask_blocked_reference",
    "non_dominated_mask_reference",
    "non_dominated_mask_scalar",
    "pareto_indices_reference",
    "update_copy_reference",
    "whitened_pool_predict_reference",
]


def non_dominated_mask_reference(points: np.ndarray) -> np.ndarray:
    """Per-point reference implementation of
    :func:`~repro.pareto.dominance.non_dominated_mask`.

    The retained pre-vectorization sweep (one Python iteration per
    point).  Returns identical masks.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(pts)
    mask = np.ones(n, dtype=bool)
    # Sort by first objective so a point can only be dominated by earlier
    # (or equal-first-coordinate) points; cuts the quadratic constant.
    order = np.lexsort(pts.T[::-1])
    sorted_pts = pts[order]
    for i in range(n):
        if not mask[order[i]]:
            continue
        p = sorted_pts[i]
        # Points after i in sort order can't dominate p unless equal in
        # the first objective, but p may dominate them.
        later = sorted_pts[i + 1:]
        dominated = np.all(p <= later, axis=1) & np.any(p < later, axis=1)
        mask[order[i + 1:][dominated]] = False
    return mask


def non_dominated_mask_blocked_reference(
    points: np.ndarray, block: int = 512
) -> np.ndarray:
    """The blocked sweep that compared each block against itself in full.

    Lexicographic order, survivors of earlier blocks compared against
    the whole block, then a ``(block, block, m)`` within-block broadcast
    over strictly-earlier rows — every row of the block, not only the
    ones no survivor dominates.
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
        prev = np.nonzero(keep[:s])[0]
        for cs in range(0, len(prev), block):
            S = sorted_pts[prev[cs:cs + block]]
            le = np.all(S[:, None, :] <= B[None, :, :], axis=2)
            lt = np.any(S[:, None, :] < B[None, :, :], axis=2)
            dom |= np.any(le & lt, axis=0)
            if dom.all():
                break
        if not dom.all():
            le = np.all(B[:, None, :] <= B[None, :, :], axis=2)
            lt = np.any(B[:, None, :] < B[None, :, :], axis=2)
            earlier = np.tri(nb, nb, -1, dtype=bool).T  # i < j
            dom |= np.any(le & lt & earlier, axis=0)
        keep[s:e] = ~dom
    mask = np.empty(n, dtype=bool)
    mask[order] = keep
    return mask


def pareto_indices_reference(points: np.ndarray) -> np.ndarray:
    """Indices of the non-dominated rows (per-point loop baseline)."""
    return np.nonzero(non_dominated_mask_reference(points))[0]


def dominated_by_any_reference(
    front: np.ndarray,
    front_ids: np.ndarray,
    queries: np.ndarray,
    query_ids: np.ndarray,
    slack: np.ndarray,
) -> np.ndarray:
    """Pre-vectorization δ-domination check: one (nf, nq, m) broadcast."""
    if len(front) == 0 or len(queries) == 0:
        return np.zeros(len(queries), dtype=bool)
    relaxed = queries[None, :, :] + slack[None, None, :]
    weak = np.all(front[:, None, :] <= relaxed, axis=2)
    strict = np.any(front[:, None, :] < relaxed, axis=2)
    dom = weak & strict
    not_self = front_ids[:, None] != query_ids[None, :]
    return np.any(dom & not_self, axis=0)


def _dominated_with_second_pass_reference(
    all_values: np.ndarray,
    all_ids: np.ndarray,
    queries: np.ndarray,
    query_ids: np.ndarray,
    slack: np.ndarray,
) -> np.ndarray:
    """Pre-vectorization front-accelerated domination with the on-front
    recheck."""
    front_rows = pareto_indices_reference(all_values)
    result = dominated_by_any_reference(
        all_values[front_rows], all_ids[front_rows],
        queries, query_ids, slack,
    )
    on_front = np.isin(query_ids, all_ids[front_rows])
    recheck = ~result & on_front
    if recheck.any():
        result[recheck] = dominated_by_any_reference(
            all_values, all_ids,
            queries[recheck], query_ids[recheck], slack,
        )
    return result


def decide_reference(
    regions: UncertaintyRegions,
    undecided: np.ndarray,
    pareto: np.ndarray,
    delta: np.ndarray,
    pareto_delta: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """The pre-vectorization decision pass (Eq. (11)/(12)), kept verbatim.

    Same contract as ``repro.core.decision._decide``; the vectorized
    backend must return identical ``(newly_dropped, newly_pareto)``
    index arrays for every input.
    """
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
    live = undecided | pareto
    live_ids = np.nonzero(live)[0]
    und_ids = np.nonzero(undecided)[0]
    if len(und_ids) == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)

    bounded = regions.is_bounded()
    live_ids = live_ids[bounded[live_ids]]
    und_ids = und_ids[bounded[und_ids]]
    if len(live_ids) == 0 or len(und_ids) == 0:
        return np.empty(0, dtype=int), np.empty(0, dtype=int)

    pess = regions.hi[live_ids]
    opt = regions.lo[live_ids]  # noqa: F841 — kept for parity

    dropped_mask = _dominated_with_second_pass_reference(
        pess, live_ids, regions.lo[und_ids], und_ids, delta,
    )
    newly_dropped = und_ids[dropped_mask]

    survivors = np.setdiff1d(live_ids, newly_dropped, assume_unique=True)
    if len(survivors) == 0:
        return newly_dropped, np.empty(0, dtype=int)
    surv_opt = regions.lo[survivors]
    candidates = np.setdiff1d(und_ids, newly_dropped, assume_unique=True)
    if len(candidates) == 0:
        return newly_dropped, np.empty(0, dtype=int)
    could_be_dominated = _dominated_with_second_pass_reference(
        surv_opt,
        survivors,
        regions.hi[candidates] - pareto_delta[None, :],
        candidates,
        np.zeros_like(pareto_delta),
    )
    newly_pareto = candidates[~could_be_dominated]
    return newly_dropped, newly_pareto


# ---------------------------------------------------------------------
# scalar oracles for the property tests — definition-direct double loops


def non_dominated_mask_scalar(points: np.ndarray) -> np.ndarray:
    """O(n²) definitional non-dominated mask (no sorting, no blocks)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    n = len(pts)
    mask = np.ones(n, dtype=bool)
    for j in range(n):
        for i in range(n):
            if i == j:
                continue
            if bool(
                np.all(pts[i] <= pts[j]) and np.any(pts[i] < pts[j])
            ):
                mask[j] = False
                break
    return mask


def dominated_by_any_scalar(
    front: np.ndarray,
    front_ids: np.ndarray,
    queries: np.ndarray,
    query_ids: np.ndarray,
    slack: np.ndarray,
) -> np.ndarray:
    """Double-loop δ-domination straight off Eq. (11)."""
    front = np.atleast_2d(np.asarray(front, dtype=float))
    queries = np.atleast_2d(np.asarray(queries, dtype=float))
    slack = np.asarray(slack, dtype=float).ravel()
    out = np.zeros(len(queries), dtype=bool)
    for j in range(len(queries)):
        relaxed = queries[j] + slack
        for i in range(len(front)):
            if front_ids[i] == query_ids[j]:
                continue
            if bool(
                np.all(front[i] <= relaxed)
                and np.any(front[i] < relaxed)
            ):
                out[j] = True
                break
    return out


def intersect_scalar(
    regions: UncertaintyRegions,
    indices: np.ndarray,
    new_lo: np.ndarray,
    new_hi: np.ndarray,
) -> None:
    """Per-point Eq. (10) intersection with the degenerate fallback.

    Mutates ``regions`` exactly like
    :meth:`~repro.core.uncertainty.UncertaintyRegions.intersect`, one
    candidate at a time.
    """
    indices = np.asarray(indices)
    new_lo = np.atleast_2d(np.asarray(new_lo, dtype=float))
    new_hi = np.atleast_2d(np.asarray(new_hi, dtype=float))
    for r, idx in enumerate(indices):
        prev_lo = regions.lo[idx].copy()
        prev_hi = regions.hi[idx].copy()
        lo = np.maximum(prev_lo, new_lo[r])
        hi = np.minimum(prev_hi, new_hi[r])
        empty = lo > hi
        if empty.any():
            new_mid = 0.5 * (new_lo[r] + new_hi[r])
            nearest = np.clip(new_mid, prev_lo, prev_hi)
            lo = np.where(empty, nearest, lo)
            hi = np.where(empty, nearest, hi)
        regions.lo[idx] = lo
        regions.hi[idx] = hi


# ---------------------------------------------------------------------
# GP pool caches — copy-based growth and the whole-pool whitened cache


def update_copy_reference(model, X_new: np.ndarray, y_new: np.ndarray):
    """``MultiSourceTransferGP.update`` growing the pool caches by copying.

    The same border-update arithmetic over all cached rows at once,
    with no spare capacity: every call rebuilds the cross-covariance
    cache one training column larger with ``np.hstack`` and the
    whitened sums as a new array (after a build, which keeps only the
    whitened sums, the cross-covariance is computed first).  No
    validation and no fallback — the callers feed well-conditioned
    points.
    """
    X_new = np.atleast_2d(np.asarray(X_new, dtype=float))
    y_new = np.asarray(y_new, dtype=float).ravel()
    n_old, k = len(model._L), len(y_new)
    K_cross = model._cross_cov(X_new).T
    K_block = model._kernel.eval(X_new) + float(
        np.exp(model._log_noise[-1])
    ) * np.eye(k)
    if model._jitter:
        K_block = K_block + model._jitter * np.eye(k)
    L_ext = cholesky_append_rows(model._L, K_cross, K_block)
    model._X = np.vstack([model._X, X_new])
    model._tasks = np.append(model._tasks, np.full(k, model._n_sources))
    model._y_raw = np.concatenate([model._y_raw, y_new])
    model._L = L_ext
    model._alpha = cholesky_solve(L_ext, model._standardize())
    if model._pool_rows is not None:
        r = len(model._pool_rows)
        if model._pool_K is None:  # a build keeps s only
            K_old = model._cross_cov(
                model._pool_X[model._pool_rows], slice(0, n_old)
            )
        else:
            K_old = model._pool_K[:r, :n_old]
        K_new = model._cross_cov(
            model._pool_X[model._pool_rows], slice(n_old, n_old + k)
        )
        W = solve_triangular(
            L_ext[:n_old, :n_old], L_ext[n_old:, :n_old].T,
            lower=True, trans="T",
        )
        KW = np.matmul(K_old[:, None, :], W)[:, 0, :]
        rhs = (K_new - KW).T
        if r == 1:  # (LAPACK solves a lone column another way)
            rhs = np.hstack([rhs, rhs])
        V = solve_triangular(L_ext[n_old:, n_old:], rhs, lower=True)[:, :r]
        model._pool_K = np.hstack([K_old, K_new])
        model._pool_s = model._pool_s[:r] + np.sum(V * V, axis=0)
    return model


def whitened_pool_predict_reference(
    model, indices, block: int = 32768
) -> tuple[np.ndarray, np.ndarray]:
    """``predict_pool`` from the whole-pool whitened cache.

    How pool prediction worked before the caches became row-local:
    ``K*`` and ``V = L^-1 K*^T`` are built for every registered row in
    ``block``-row column blocks (``V`` column-major for one block,
    row-major for several), and a request gathers its columns.
    """
    X, L = model._pool_X, model._L
    p, n = len(X), len(L)
    K = np.empty((p, n))
    V = np.empty((n, p), order="F" if p <= block else "C")
    for s in range(0, p, block):
        e = min(s + block, p)
        Kb = model._cross_cov(X[s:e])
        K[s:e] = Kb
        V[:, s:e] = solve_triangular(L, Kb.T, lower=True)
    idx = pool_indices(indices)
    V_cols = V[:, idx]
    mean_z = K[idx] @ model._alpha
    var_z = model._kernel.diag(X[idx]) - np.sum(V_cols * V_cols, axis=0)
    var_z = np.maximum(var_z, 1e-12)
    return (
        mean_z * model._y_std + model._y_mean,
        var_z * model._y_std**2,
    )


# ---------------------------------------------------------------------
# GP kernels and likelihood gradients — the list-of-matrices form


def _sq_dists_per_dim(X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    """Per-dimension squared differences, shape ``(n1, n2, d)``."""
    diff = X1[:, None, :] - X2[None, :, :]
    return diff * diff


def _scaled_sq_dists(kernel, X1: np.ndarray, X2: np.ndarray) -> np.ndarray:
    ls = kernel.lengthscales
    return _sq_dists_per_dim(X1 / ls, X2 / ls)


def ard_eval_reference(
    kernel, X1: np.ndarray, X2: np.ndarray | None = None
) -> np.ndarray:
    """``RBFKernel.eval`` / ``Matern52Kernel.eval`` by the broadcast."""
    X1 = np.atleast_2d(X1)
    X2 = X1 if X2 is None else np.atleast_2d(X2)
    if isinstance(kernel, RBFKernel):
        sq = _scaled_sq_dists(kernel, X1, X2).sum(axis=2)
        return kernel.variance * np.exp(-0.5 * sq)
    assert isinstance(kernel, Matern52Kernel)
    r2 = _scaled_sq_dists(kernel, X1, X2).sum(axis=2)
    r = np.sqrt(np.maximum(r2, 0.0))
    s5r = np.sqrt(5.0) * r
    return kernel.variance * (1.0 + s5r + 5.0 / 3.0 * r2) * np.exp(-s5r)


def ard_eval_with_grads_reference(
    kernel, X: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Symmetric covariance plus one ``dK/dtheta_i`` matrix per
    hyperparameter (RBF or Matérn-5/2)."""
    X = np.atleast_2d(X)
    sq_dims = _scaled_sq_dists(kernel, X, X)
    if isinstance(kernel, RBFKernel):
        K = kernel.variance * np.exp(-0.5 * sq_dims.sum(axis=2))
        grads: list[np.ndarray] = [
            K * sq_dims[:, :, j] for j in range(kernel.dim)
        ]
        grads.append(K.copy())  # d/dlog var
        return K, grads
    assert isinstance(kernel, Matern52Kernel)
    r2 = sq_dims.sum(axis=2)
    r = np.sqrt(np.maximum(r2, 0.0))
    s5r = np.sqrt(5.0) * r
    expo = np.exp(-s5r)
    K = kernel.variance * (1.0 + s5r + 5.0 / 3.0 * r2) * expo
    # dk/d(r^2) = -(5/6) * variance * (1 + sqrt(5) r) * exp(-sqrt5 r)
    dk_dr2 = -(5.0 / 6.0) * kernel.variance * (1.0 + s5r) * expo
    grads = []
    for j in range(kernel.dim):
        # d(r^2)/d(log ls_j) = -2 * scaled_sq_dist_j
        grads.append(dk_dr2 * (-2.0 * sq_dims[:, :, j]))
    grads.append(K.copy())  # d/dlog var
    return K, grads


def transfer_eval_with_grads_reference(
    base, a: float, b: float, X: np.ndarray, tasks: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray]]:
    """The paper's two-task covariance (Eq. (7)) and its gradients.

    ``K = K_base * (1 + cross * (lambda - 1))`` with ``cross`` marking
    the pairs whose ``tasks`` labels differ and ``lambda = 2 (1 + a)^-b
    - 1``.  One gradient matrix per ``base.theta`` entry, then ``log a``
    and ``log b``.
    """
    K_base, base_grads = ard_eval_with_grads_reference(base, X)
    cross = (tasks[:, None] != tasks[None, :]).astype(float)
    lam = 2.0 * (1.0 + a) ** (-b) - 1.0
    factor = 1.0 + cross * (lam - 1.0)
    K = K_base * factor
    grads = [g * factor for g in base_grads]
    # d lambda / d log a = -2 b a (1+a)^(-b-1)
    dlam_dloga = -2.0 * b * a * (1.0 + a) ** (-b - 1.0)
    # d lambda / d log b = -2 b log(1+a) (1+a)^(-b)
    dlam_dlogb = -2.0 * b * np.log1p(a) * (1.0 + a) ** (-b)
    grads.append(K_base * cross * dlam_dloga)
    grads.append(K_base * cross * dlam_dlogb)
    return K, grads


def transfer_posterior_reference(
    base,
    a: float,
    b: float,
    noise_source: float,
    noise_target: float,
    Xs: np.ndarray,
    ys: np.ndarray,
    Xt: np.ndarray,
    yt: np.ndarray,
    Xq: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The paper's two-task posterior (Eq. (8)) at target queries ``Xq``.

    Source and target rows are stacked and standardized jointly; the
    Eq. (7) covariance plus the per-task noise ``Lambda`` is solved
    densely (no Cholesky, no caches).  Returns the mean and the
    epistemic variance (without ``noise_target``) in the original scale.
    """
    X = np.vstack([Xs, Xt])
    y = np.concatenate([ys, yt])
    tasks = np.repeat([0, 1], [len(ys), len(yt)])
    K, _ = transfer_eval_with_grads_reference(base, a, b, X, tasks)
    K = K + np.diag(np.where(tasks == 0, noise_source, noise_target))
    lam = 2.0 * (1.0 + a) ** (-b) - 1.0
    # Target queries against source columns cross tasks.
    K_star = ard_eval_reference(base, Xq, X) * np.where(tasks == 0, lam, 1.0)
    y_mean, y_std = y.mean(), y.std() or 1.0
    z = (y - y_mean) / y_std
    mean = K_star @ np.linalg.solve(K, z)
    var = np.diag(ard_eval_reference(base, Xq, Xq)) - np.sum(
        K_star * np.linalg.solve(K, K_star.T).T, axis=1
    )
    var = np.maximum(var, 1e-12)
    return mean * y_std + y_mean, var * y_std**2


def multisource_grads_reference(
    kernel,
    X: np.ndarray,
    tasks: np.ndarray,
    log_a: np.ndarray,
    log_b: np.ndarray,
    log_noise: np.ndarray,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """``MultiSourceTransferGP``'s noisy covariance and its gradient
    matrices in theta order (kernel, log a, log b, log noise), with one
    ``dB`` loop per source."""
    n_src = len(log_a)
    task_masks = [tasks == k for k in range(n_src + 1)]
    a = np.exp(log_a)
    b = np.exp(log_b)
    coeffs = np.append(2.0 * (1.0 + a) ** (-b) - 1.0, 1.0)
    B = np.outer(coeffs, coeffs)
    np.fill_diagonal(B, 1.0)
    K_base, base_grads = ard_eval_with_grads_reference(kernel, X)
    B_exp = B[np.ix_(tasks, tasks)]
    K = K_base * B_exp
    noise = np.exp(log_noise)[tasks]
    K = K + np.diag(noise)

    grads: list[np.ndarray] = [g * B_exp for g in base_grads]
    dlam_da = -2.0 * b * a * (1.0 + a) ** (-b - 1.0)
    dlam_db = -2.0 * b * np.log1p(a) * (1.0 + a) ** (-b)
    for s in range(n_src):
        # dB/dc_s: row/col s become the other coeffs; diagonal
        # stays 1.
        dB = np.zeros_like(B)
        dB[s, :] = coeffs
        dB[:, s] = coeffs
        dB[s, s] = 0.0
        dB_exp = dB[np.ix_(tasks, tasks)]
        grads.append(K_base * dB_exp * dlam_da[s])
    for s in range(n_src):
        dB = np.zeros_like(B)
        dB[s, :] = coeffs
        dB[:, s] = coeffs
        dB[s, s] = 0.0
        dB_exp = dB[np.ix_(tasks, tasks)]
        grads.append(K_base * dB_exp * dlam_db[s])
    for k in range(n_src + 1):
        grads.append(np.diag(
            np.exp(log_noise[k]) * task_masks[k].astype(float)
        ))
    return K, grads


def lml_grads_reference(
    K: np.ndarray, y: np.ndarray, K_grads: list[np.ndarray]
) -> np.ndarray:
    """LML gradient ``0.5 * tr((alpha alpha^T - K^-1) dK/dtheta)`` per
    matrix, with ``K^-1`` solved against the identity."""
    L, _ = robust_cholesky(K)
    alpha = cholesky_solve(L, y)
    K_inv = cholesky_solve(L, np.eye(len(y)))
    inner = np.outer(alpha, alpha) - K_inv
    return np.array(
        [0.5 * np.sum(inner * dK) for dK in K_grads]
    )


def gaussian_log_marginal_reference(
    K: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """``gaussian_log_marginal`` with a finiteness-checked ``alpha``
    solve."""
    L, _ = robust_cholesky(K)
    alpha = cholesky_solve(L, y)
    lml = float(
        -0.5 * y @ alpha
        - 0.5 * log_det_from_cholesky(L)
        - 0.5 * len(y) * np.log(2.0 * np.pi)
    )
    W = np.outer(alpha, alpha)
    W -= cholesky_inverse(L)
    W *= 0.5
    return lml, W, alpha


def multisource_objective_reference(model, X, tasks, z):
    """``MultiSourceTransferGP``'s negative-LML objective before its
    trims: ``B`` expanded by ``np.ix_`` and the noises added as a
    diagonal matrix.  Each task's noise gradient sums its block of
    ``W``'s diagonal with ``ndarray.sum``, as the model does.  Like the
    model's own objective it sets the model's kernel and Gamma
    parameters from ``theta``."""
    kernel = model._kernel
    n_src = model._n_sources
    n_kernel = kernel.n_params
    onehot = np.eye(n_src + 1)[tasks]

    def unpack(theta):
        kernel.theta = theta[:n_kernel]
        log_a = theta[n_kernel:n_kernel + n_src]
        log_b = theta[n_kernel + n_src:n_kernel + 2 * n_src]
        log_noise = theta[n_kernel + 2 * n_src:]
        return log_a, log_b, log_noise

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        log_a, log_b, log_noise = unpack(theta)
        model._log_a, model._log_b = log_a, log_b
        a = np.exp(log_a)
        b = np.exp(log_b)
        coeffs = model._coeffs()
        B_exp = model._task_matrix(coeffs)[np.ix_(tasks, tasks)]
        K_base, base_grad = kernel.eval_and_grad(X)
        noise = np.exp(log_noise)
        K = K_base * B_exp + np.diag(noise[tasks])
        lml, W, _ = gaussian_log_marginal_reference(K, z)

        T = onehot.T @ (W * K_base) @ onehot
        dc = (T @ coeffs + T.T @ coeffs - 2.0 * np.diag(T) * coeffs)
        dc = dc[:n_src]
        dlam_da = -2.0 * b * a * (1.0 + a) ** (-b - 1.0)
        dlam_db = -2.0 * b * np.log1p(a) * (1.0 + a) ** (-b)
        W_task_diag = np.array([
            np.diag(W)[tasks == k].sum() for k in range(n_src + 1)
        ])
        g = np.concatenate([
            base_grad(W * B_exp),
            dc * dlam_da,
            dc * dlam_db,
            noise * W_task_diag,
        ])
        return -lml, -g

    return objective


def regressor_objective_reference(kernel, X, z):
    """The negative-LML objective of the single-task GP regressor
    (paper Eq. (1)) the no-source ``MultiSourceTransferGP`` replaced:
    ``theta`` is the kernel's log-hyperparameters then the log noise,
    the noise is added as ``noise * I`` and its gradient is
    ``noise * trace(W)``.  It sets ``kernel.theta`` from ``theta``."""
    n = len(X)

    def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
        kernel.theta = theta[:-1]
        noise = float(np.exp(theta[-1]))
        K, grad = kernel.eval_and_grad(X)
        K = K + noise * np.eye(n)
        lml, W, _ = gaussian_log_marginal(K, z)
        g = np.append(grad(W), noise * np.trace(W))
        return -lml, -g

    return objective
