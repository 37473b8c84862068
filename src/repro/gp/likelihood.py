"""Marginal-likelihood evaluation and hyperparameter optimization.

The gradient of ``log N(y | 0, K)`` with respect to any hyperparameter
``theta_i`` is ``<W, dK/dtheta_i>`` with the single weight matrix

    W = 0.5 * (alpha alpha^T - K^-1),      alpha = K^-1 y,

so :func:`gaussian_log_marginal` returns ``W`` and each kernel's
``eval_and_grad`` contracts it against its own derivatives (see
:mod:`repro.gp.kernels`).  Per evaluation this costs one O(n^3)
factorization and inverse plus an O(n^2 d) contraction; no ``n x n``
derivative matrix is formed.

:func:`maximize_objective` runs its first L-BFGS-B start in the caller
and, at the same time, its random restarts in the GP worker
(:mod:`repro.gp.worker`).  Once its own start is done the caller runs
the restarts too, until the worker's results arrive, so a worker short
of CPU costs no more than the serial loop.  The results are compared in
start order, as the serial loop does, and both sides compute the same
ones, so the chosen vector does not depend on where a start ran.  The
caller runs every start itself whenever the worker cannot take them
(see :mod:`repro.gp.worker`; an objective must pickle to go there).
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy.linalg import cho_solve
from scipy.optimize import minimize

from . import worker
from .linalg import (
    cholesky_inverse_lower,
    log_det_from_cholesky,
    robust_cholesky,
)

#: Objective = callable(theta) -> (negative log marginal likelihood, grad).
Objective = Callable[[np.ndarray], tuple[float, np.ndarray]]


def gaussian_log_marginal(
    K: np.ndarray, y: np.ndarray
) -> tuple[float, np.ndarray, np.ndarray]:
    """Log marginal likelihood of ``y ~ N(0, K)`` and its gradient weights.

    Args:
        K: Covariance (including noise on the diagonal).
        y: Observations (zero-mean; finite — not checked here).

    Returns:
        ``(lml, W, alpha)`` where ``alpha = K^-1 y`` and
        ``W = 0.5 * (alpha alpha^T - K^-1)``: the gradient of the LML
        with respect to a hyperparameter is ``sum(W * dK/dtheta)``.
    """
    L, _ = robust_cholesky(K)
    # No finiteness check: the factor comes from robust_cholesky and the
    # models check y on entry.
    alpha = cho_solve((L, True), y, check_finite=False)
    lml = float(
        -0.5 * y @ alpha
        - 0.5 * log_det_from_cholesky(L)
        - 0.5 * len(y) * np.log(2.0 * np.pi)
    )
    # W in one buffer: dpotri gives K^-1's lower triangle over L's zero
    # upper one, so subtract it, then its strict part transposed.
    inv = cholesky_inverse_lower(L)
    W = np.outer(alpha, alpha)
    W -= inv
    np.fill_diagonal(inv, 0.0)
    W -= inv.T
    W *= 0.5
    return lml, W, alpha


def maximize_objective(
    objective: Objective,
    theta0: np.ndarray,
    bounds: list[tuple[float, float]],
    n_restarts: int = 2,
    seed: int | None = None,
    maxiter: int = 120,
) -> np.ndarray:
    """L-BFGS-B maximization with random restarts.

    ``objective`` returns the *negative* LML and its gradient, so this is
    a minimization under the hood.  The restarts run in the GP worker
    while the first start runs here, when the worker can take them (see
    the module docstring); the result is the same either way.

    Args:
        objective: Function of the log-hyperparameter vector.
        theta0: Starting point (first restart starts here).
        bounds: Box constraints per hyperparameter.
        n_restarts: Additional uniform-random restarts inside ``bounds``.
        seed: RNG seed for the restart draws.
        maxiter: L-BFGS iteration budget per restart.

    Returns:
        The best hyperparameter vector found (falls back to ``theta0``
        if every restart fails numerically).
    """
    rng = np.random.default_rng(seed)
    lo = np.array([b[0] for b in bounds])
    hi = np.array([b[1] for b in bounds])
    starts = [np.clip(theta0, lo, hi)]
    # Restarts draw from a moderate sub-box; full-range draws often start
    # in flat likelihood plateaus.  Pinned parameters (lo == hi, possibly
    # outside the sub-box) keep their pinned value.
    draw_lo = np.maximum(lo, -3.0)
    draw_hi = np.minimum(hi, 3.0)
    inverted = draw_lo > draw_hi
    draw_lo[inverted] = lo[inverted]
    draw_hi[inverted] = hi[inverted]
    for _ in range(max(n_restarts, 0)):
        starts.append(rng.uniform(draw_lo, draw_hi))

    job = (
        worker.hand_over(_run_starts, objective, starts[1:], bounds, maxiter)
        if len(starts) > 1 else None
    )
    if job is None:
        outcomes = _run_starts(objective, starts, bounds, maxiter)
    else:
        with job:
            first = _run_start(objective, starts[0], bounds, maxiter)
            _, rest = job.race(lambda check: _run_starts(
                _checked(objective, check), starts[1:], bounds, maxiter
            ))
        outcomes = [first, *rest]

    best_theta = starts[0]
    best_value = np.inf
    for outcome in outcomes:
        if outcome is None:
            continue
        fun, x = outcome
        if np.isfinite(fun) and fun < best_value:
            best_value = float(fun)
            best_theta = np.asarray(x)
    return best_theta


def _run_start(objective, start, bounds, maxiter):
    """One L-BFGS-B start: ``(fun, x)``, or ``None`` if it fails
    numerically."""
    try:
        result = minimize(
            objective,
            start,
            jac=True,
            method="L-BFGS-B",
            bounds=bounds,
            options={"maxiter": maxiter},
        )
    except (np.linalg.LinAlgError, FloatingPointError):
        return None
    return result.fun, result.x


def _run_starts(objective, starts, bounds, maxiter) -> list:
    """Outcomes of the L-BFGS-B ``starts``, in order (module level so
    the GP worker can run them)."""
    return [_run_start(objective, s, bounds, maxiter) for s in starts]


def _checked(objective: Objective, check) -> Objective:
    """``objective`` calling ``check()`` before each evaluation."""
    def checked(theta):
        check()
        return objective(theta)
    return checked
