"""Ablation (extension): multi-source vs single-source transfer models.

Compares surrogate accuracy on Target2 power with 25 target samples:
target-only GP, the paper's two-task transfer GP (the transfer GP with
one archive), and the multi-source extension fed one related and one
hostile archive.  The multi-source model should match or beat two-task
transfer while isolating the hostile archive (lambda near -1 exploits
anti-correlation rather than suffering from it).
"""

from __future__ import annotations

import numpy as np

from repro.bench import generate_benchmark
from repro.gp import MultiSourceTransferGP

from _util import run_once


def test_ablation_multisource_transfer(benchmark):
    def run():
        source = generate_benchmark("source2")
        target = generate_benchmark("target2")
        rng = np.random.default_rng(0)

        stacked = np.vstack([source.X, target.X])
        lo, hi = stacked.min(axis=0), stacked.max(axis=0)
        span = np.where(hi > lo, hi - lo, 1.0)

        src_idx = rng.choice(source.n, 150, replace=False)
        Xs = (source.X[src_idx] - lo) / span
        ys = source.metric_column("power")[src_idx]
        ys_bad = ys.max() + ys.min() - ys

        tgt_idx = rng.choice(target.n, 25, replace=False)
        Xt = (target.X[tgt_idx] - lo) / span
        yt = target.metric_column("power")[tgt_idx]
        hold = np.setdiff1d(np.arange(target.n), tgt_idx)[:300]
        Xq = (target.X[hold] - lo) / span
        yq = target.metric_column("power")[hold]

        def rmse(model_mean):
            return float(np.sqrt(np.mean((model_mean - yq) ** 2)))

        solo = MultiSourceTransferGP(n_restarts=2, seed=0).fit([], Xt, yt)
        two = MultiSourceTransferGP(seed=0).fit([(Xs, ys)], Xt, yt)
        multi = MultiSourceTransferGP(seed=0).fit(
            [(Xs, ys), (Xs, ys_bad)], Xt, yt
        )
        return {
            "target-only": (rmse(solo.predict(Xq)[0]), None),
            "two-task": (rmse(two.predict(Xq)[0]), list(two.lambdas)),
            "multi-source": (
                rmse(multi.predict(Xq)[0]), list(multi.lambdas),
            ),
        }

    rows = run_once(benchmark, run)

    print("\n=== Ablation: multi-source transfer (Target2 power) ===")
    for name, (rmse, lams) in rows.items():
        lam_text = (
            "  lambdas=" + ", ".join(f"{v:+.3f}" for v in lams)
            if lams else ""
        )
        print(f"{name:<14} RMSE={rmse:.4f}{lam_text}")

    assert rows["two-task"][0] <= rows["target-only"][0] * 1.05
    assert rows["multi-source"][0] <= rows["target-only"][0] * 1.05
    # The hostile archive must be detected (negative lambda).
    assert rows["multi-source"][1][1] < 0
