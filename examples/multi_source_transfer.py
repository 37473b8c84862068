#!/usr/bin/env python3
"""Extension: transferring from *multiple* historical tuning tasks.

The paper transfers from one source task; a real tuning archive holds
several.  ``MultiSourceTransferGP`` generalizes the Eq. (7) transfer
kernel to K sources with a learned per-source similarity — useful when
some archives are relevant and some are not, because the model discovers
which is which.

This example models Target2's power from (a) the related Source2 archive
and (b) a deliberately misleading archive (Source2's power negated), and
shows the learned per-source similarities plus the accuracy gain over a
target-only GP.

Run (~30 s):
    python examples/multi_source_transfer.py
"""

from __future__ import annotations

import numpy as np

from repro.bench import generate_benchmark
from repro.gp import MultiSourceTransferGP


def main() -> None:
    source = generate_benchmark("source2")
    target = generate_benchmark("target2")

    rng = np.random.default_rng(0)

    def normalize(X, lo, span):
        return (X - lo) / span

    stacked = np.vstack([source.X, target.X])
    lo, hi = stacked.min(axis=0), stacked.max(axis=0)
    span = np.where(hi > lo, hi - lo, 1.0)

    src_idx = rng.choice(source.n, 150, replace=False)
    Xs = normalize(source.X[src_idx], lo, span)
    ys_good = source.metric_column("power")[src_idx]
    # A hostile archive: same inputs, anti-correlated responses.
    ys_bad = ys_good.max() + ys_good.min() - ys_good

    tgt_idx = rng.choice(target.n, 25, replace=False)
    Xt = normalize(target.X[tgt_idx], lo, span)
    yt = target.metric_column("power")[tgt_idx]

    holdout = np.setdiff1d(np.arange(target.n), tgt_idx)[:300]
    Xq = normalize(target.X[holdout], lo, span)
    yq = target.metric_column("power")[holdout]

    multi = MultiSourceTransferGP(seed=0).fit(
        [(Xs, ys_good), (Xs, ys_bad)], Xt, yt
    )
    solo = MultiSourceTransferGP(n_restarts=2, seed=0).fit([], Xt, yt)

    rmse_multi = float(np.sqrt(np.mean((multi.predict(Xq)[0] - yq) ** 2)))
    rmse_solo = float(np.sqrt(np.mean((solo.predict(Xq)[0] - yq) ** 2)))

    lams = multi.lambdas
    print("Learned per-source similarity (lambda):")
    print(f"  related archive (Source2 power):   {lams[0]:+.3f}")
    print(f"  hostile archive (negated power):   {lams[1]:+.3f}")
    print()
    print(f"Hold-out RMSE, multi-source transfer: {rmse_multi:.4f} mW")
    print(f"Hold-out RMSE, target-only GP:        {rmse_solo:.4f} mW")
    print(f"Improvement: {100 * (1 - rmse_multi / rmse_solo):.1f}%")


if __name__ == "__main__":
    main()
