"""Numerically robust linear algebra for GP inference."""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve, lapack, solve_triangular

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


def triangular_solve(
    L: np.ndarray, b: np.ndarray, lower: bool = True
) -> np.ndarray:
    """Solve ``L x = b`` for triangular ``L``."""
    return solve_triangular(L, b, lower=lower)


def log_det_from_cholesky(L: np.ndarray) -> float:
    """``log |A|`` for ``A = L @ L.T``."""
    return float(2.0 * np.sum(np.log(np.diag(L))))


def solve_psd(matrix: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a PSD system with jitter fallback (convenience wrapper)."""
    L, _ = robust_cholesky(matrix)
    return cholesky_solve(L, b)


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


def cholesky_append_row(
    L: np.ndarray, k_cross: np.ndarray, k_new: float
) -> np.ndarray:
    """Rank-1 border update: extend ``L`` by a single new row.

    Convenience wrapper over :func:`cholesky_append_rows` for the common
    one-observation-per-iteration case.

    Args:
        L: ``(n, n)`` lower factor.
        k_cross: Length-``n`` covariance vector against existing rows.
        k_new: Variance of the new row (plus noise/jitter).

    Returns:
        The ``(n + 1, n + 1)`` extended lower factor.

    Raises:
        NotPositiveDefiniteError: If the new diagonal pivot is not
            positive.
    """
    k_cross = np.asarray(k_cross, dtype=float).reshape(-1, 1)
    return cholesky_append_rows(L, k_cross, np.array([[float(k_new)]]))


def cholesky_rank1_update(L: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Factor of ``L @ L.T + v v^T`` in O(n^2) (hyperbolic rotations).

    Args:
        L: ``(n, n)`` lower factor.
        v: Length-``n`` update vector.

    Returns:
        A new lower factor (inputs are not mutated).
    """
    L = np.array(L, dtype=float)
    v = np.array(v, dtype=float).ravel()
    n = len(v)
    if L.shape != (n, n):
        raise ValueError("L and v size mismatch")
    for i in range(n):
        r = float(np.hypot(L[i, i], v[i]))
        c = r / L[i, i]
        s = v[i] / L[i, i]
        L[i, i] = r
        if i + 1 < n:
            L[i + 1:, i] = (L[i + 1:, i] + s * v[i + 1:]) / c
            v[i + 1:] = c * v[i + 1:] - s * L[i + 1:, i]
    return L


def cholesky_rank1_downdate(L: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Factor of ``L @ L.T - v v^T`` in O(n^2) (low-rank downdate).

    Used to retract an observation's contribution without refactorizing
    (e.g. outlier rejection or sliding-window forgetting).

    Args:
        L: ``(n, n)`` lower factor.
        v: Length-``n`` downdate vector.

    Returns:
        A new lower factor (inputs are not mutated).

    Raises:
        NotPositiveDefiniteError: If the downdated matrix is not
            positive definite.
    """
    L = np.array(L, dtype=float)
    v = np.array(v, dtype=float).ravel()
    n = len(v)
    if L.shape != (n, n):
        raise ValueError("L and v size mismatch")
    for i in range(n):
        r2 = L[i, i] ** 2 - v[i] ** 2
        if r2 <= 0.0:
            raise NotPositiveDefiniteError(
                "rank-1 downdate makes the matrix indefinite"
            )
        r = float(np.sqrt(r2))
        c = r / L[i, i]
        s = v[i] / L[i, i]
        L[i, i] = r
        if i + 1 < n:
            L[i + 1:, i] = (L[i + 1:, i] - s * v[i + 1:]) / c
            v[i + 1:] = c * v[i + 1:] - s * L[i + 1:, i]
    return L


__all__ = [
    "DEFAULT_JITTER",
    "NotPositiveDefiniteError",
    "cho_factor",
    "cholesky_append_row",
    "cholesky_append_rows",
    "cholesky_inverse",
    "cholesky_inverse_lower",
    "cholesky_rank1_downdate",
    "cholesky_rank1_update",
    "cholesky_solve",
    "log_det_from_cholesky",
    "require_finite",
    "robust_cholesky",
    "solve_psd",
    "triangular_solve",
]
