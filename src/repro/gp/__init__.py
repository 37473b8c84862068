"""Gaussian-process substrate (from scratch on numpy/scipy).

One GP model, the transfer GP of paper Section 3.1:
:class:`MultiSourceTransferGP` damps the base kernel across tasks by the
Gamma-integrated factor ``lambda = 2 (1 + a)^-b - 1`` (Eq. (5)-(7),
:func:`transfer_factor`), carries per-task noise and predicts by
Eq. (8).  With one source archive it is exactly the paper's two-task
model; it also takes several archives, or none, which is the standard
GP regression of Eq. (1).
"""

from .kernels import Kernel, Matern52Kernel, RBFKernel, make_kernel
from .likelihood import gaussian_log_marginal, maximize_objective
from .multisource import MultiSourceTransferGP, transfer_factor
from .linalg import (
    NotPositiveDefiniteError,
    cholesky_append_rows,
    cholesky_solve,
    log_det_from_cholesky,
    robust_cholesky,
)

__all__ = [
    "Kernel",
    "Matern52Kernel",
    "MultiSourceTransferGP",
    "NotPositiveDefiniteError",
    "RBFKernel",
    "cholesky_append_rows",
    "cholesky_solve",
    "gaussian_log_marginal",
    "log_det_from_cholesky",
    "make_kernel",
    "maximize_objective",
    "robust_cholesky",
    "transfer_factor",
]
