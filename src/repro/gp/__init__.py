"""Gaussian-process substrate (from scratch on numpy/scipy).

Standard GP regression (paper Eq. (1)), the transfer kernel (Eq. (5)-(7)),
and the two-task transfer GP (Eq. (8)).
"""

from .gp_regression import GPRegressor
from .incremental import IncrementalGPMixin
from .kernels import Kernel, Matern52Kernel, RBFKernel, make_kernel
from .likelihood import gaussian_log_marginal, maximize_objective
from .multisource import MultiSourceTransferGP
from .linalg import (
    NotPositiveDefiniteError,
    cholesky_append_row,
    cholesky_append_rows,
    cholesky_rank1_downdate,
    cholesky_rank1_update,
    cholesky_solve,
    log_det_from_cholesky,
    robust_cholesky,
    solve_psd,
)
from .transfer_gp import SOURCE_TASK, TARGET_TASK, TransferGP
from .transfer_kernel import TransferKernel, transfer_factor

__all__ = [
    "SOURCE_TASK",
    "TARGET_TASK",
    "GPRegressor",
    "IncrementalGPMixin",
    "Kernel",
    "Matern52Kernel",
    "MultiSourceTransferGP",
    "NotPositiveDefiniteError",
    "RBFKernel",
    "TransferGP",
    "TransferKernel",
    "cholesky_append_row",
    "cholesky_append_rows",
    "cholesky_rank1_downdate",
    "cholesky_rank1_update",
    "cholesky_solve",
    "gaussian_log_marginal",
    "log_det_from_cholesky",
    "make_kernel",
    "maximize_objective",
    "robust_cholesky",
    "solve_psd",
    "transfer_factor",
]
