"""Numerically robust linear algebra for GP inference."""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_solve, lapack, solve_triangular

#: Initial diagonal jitter added when a covariance factorization fails.
DEFAULT_JITTER = 1e-8
#: Factor by which jitter grows between attempts.
_JITTER_GROWTH = 10.0
#: Maximum factorization attempts before giving up.
_MAX_TRIES = 8


class NotPositiveDefiniteError(np.linalg.LinAlgError):
    """Covariance matrix could not be factorized even with jitter."""


def require_finite(name: str, values: np.ndarray) -> None:
    """Raise ``ValueError`` naming ``name`` if ``values`` holds NaN/inf.

    GP inputs are checked on entry: a non-finite value would otherwise
    surface only deep inside a factorization, as an anonymous error.
    """
    if not np.all(np.isfinite(values)):
        raise ValueError(f"{name} contains NaN or inf")


def robust_cholesky(
    matrix: np.ndarray, jitter: float = DEFAULT_JITTER
) -> tuple[np.ndarray, float]:
    """Lower-Cholesky factor of ``matrix`` with adaptive jitter.

    Args:
        matrix: Symmetric matrix to factorize.
        jitter: Starting diagonal boost used when the plain factorization
            fails.

    Returns:
        ``(L, used_jitter)`` where ``L @ L.T ≈ matrix + used_jitter * I``.

    Raises:
        NotPositiveDefiniteError: If the matrix stays indefinite after
            ``_MAX_TRIES`` jitter escalations.
    """
    matrix = np.asarray(matrix, dtype=float)
    try:
        return np.linalg.cholesky(matrix), 0.0
    except np.linalg.LinAlgError:
        pass
    current = jitter * (float(np.mean(np.diag(matrix))) or 1.0)
    for _ in range(_MAX_TRIES):
        try:
            L = np.linalg.cholesky(
                matrix + current * np.eye(len(matrix))
            )
            return L, current
        except np.linalg.LinAlgError:
            current *= _JITTER_GROWTH
    raise NotPositiveDefiniteError(
        f"matrix not PD after jitter up to {current:.3g}"
    )


def cholesky_solve(L: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve ``(L @ L.T) x = b`` given the lower factor ``L``."""
    return cho_solve((L, True), b)


def cholesky_inverse_lower(L: np.ndarray) -> np.ndarray:
    """Lower triangle of ``(L @ L.T)^-1`` via LAPACK ``dpotri``.

    ``L`` must be zero above the diagonal, as :func:`robust_cholesky`
    returns it; the result keeps those zeros.
    """
    inv, info = lapack.dpotri(L, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dpotri failed (info={info})")
    return inv


def cholesky_inverse(L: np.ndarray) -> np.ndarray:
    """``(L @ L.T)^-1`` from a lower factor ``L`` via LAPACK ``dpotri``.

    ``L`` must be zero above the diagonal, as :func:`robust_cholesky`
    returns it.  About twice as fast as ``cholesky_solve(L, I)``.
    """
    inv = cholesky_inverse_lower(L)
    full = inv + inv.T
    full[np.diag_indices_from(full)] *= 0.5
    return full


def log_det_from_cholesky(L: np.ndarray) -> float:
    """``log |A|`` for ``A = L @ L.T``."""
    return float(2.0 * np.sum(np.log(np.diag(L))))


def cholesky_append_rows(
    L: np.ndarray, K_cross: np.ndarray, K_new: np.ndarray
) -> np.ndarray:
    """Border-extend a lower-Cholesky factor by ``k`` new rows.

    Given ``L`` with ``L @ L.T = A`` and the blocks of the bordered matrix

        A_ext = [[A,          K_cross],
                 [K_cross.T,  K_new  ]]

    returns the lower factor ``L_ext`` of ``A_ext`` in O(k n^2) instead of
    the O((n+k)^3) full refactorization:

        L_ext = [[L,    0  ],
                 [B.T,  L22]],   B = L^-1 K_cross,
                                 L22 = chol(K_new - B.T B).

    Args:
        L: ``(n, n)`` lower-triangular factor of the existing block.
        K_cross: ``(n, k)`` covariance between existing and new rows.
        K_new: ``(k, k)`` covariance (plus any noise/jitter diagonal)
            among the new rows.

    Returns:
        The ``(n + k, n + k)`` extended lower factor.

    Raises:
        NotPositiveDefiniteError: If the Schur complement
            ``K_new - B.T B`` is not positive definite — the caller
            should fall back to a full (jittered) refactorization.
    """
    L = np.asarray(L, dtype=float)
    K_cross = np.atleast_2d(np.asarray(K_cross, dtype=float))
    K_new = np.atleast_2d(np.asarray(K_new, dtype=float))
    n = len(L)
    k = K_new.shape[0]
    if K_cross.shape != (n, k) or K_new.shape != (k, k):
        raise ValueError(
            f"block shapes mismatch: L {L.shape}, K_cross {K_cross.shape},"
            f" K_new {K_new.shape}"
        )
    B = solve_triangular(L, K_cross, lower=True) if n else K_cross
    S = K_new - B.T @ B
    try:
        L22 = np.linalg.cholesky(S)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            "Schur complement of appended rows is not PD"
        ) from exc
    L_ext = np.zeros((n + k, n + k))
    L_ext[:n, :n] = L
    L_ext[n:, :n] = B.T
    L_ext[n:, n:] = L22
    return L_ext


__all__ = [
    "DEFAULT_JITTER",
    "NotPositiveDefiniteError",
    "cholesky_append_rows",
    "cholesky_inverse",
    "cholesky_inverse_lower",
    "cholesky_solve",
    "log_det_from_cholesky",
    "require_finite",
    "robust_cholesky",
]
