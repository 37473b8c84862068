"""Ablation: τ (uncertainty scaling, Eq. (9)) and batch trials.

τ controls how conservative the uncertainty boxes are — small τ decides
early from narrow boxes, large τ samples more before deciding.  Batch
mode models the paper's parallel tool licenses: larger batches finish in
fewer iterations at a modest run-count premium.
"""

from __future__ import annotations

from repro.core import PPATunerConfig

from _util import bench_workers, ppatuner_outcomes, run_once, tune_job

TAUS = (1.0, 4.0, 16.0, 36.0)
BATCHES = (1, 2, 4)


def test_ablation_tau_sweep(benchmark):
    names = ("power", "delay")

    def sweep():
        jobs = [
            tune_job(
                "target2", "source2", names,
                PPATunerConfig(max_iterations=50, seed=0, tau=tau),
            )
            for tau in TAUS
        ]
        outs = ppatuner_outcomes(jobs, workers=bench_workers())
        return dict(zip(TAUS, outs))

    rows = run_once(benchmark, sweep)

    print("\n=== Ablation: tau sweep (Target2 power-delay) ===")
    print(f"{'tau':>6} {'HV':>8} {'ADRS':>8} {'Runs':>8}")
    for tau, o in rows.items():
        print(f"{tau:>6} {o.hv_error:8.3f} {o.adrs:8.3f} {o.runs:8d}")

    # Wider boxes must not *reduce* sampling.
    assert rows[TAUS[-1]].runs >= rows[TAUS[0]].runs - 5


def test_ablation_batch_trials(benchmark):
    names = ("power", "delay")

    def sweep():
        jobs = [
            tune_job(
                "target2", "source2", names,
                PPATunerConfig(
                    max_iterations=50, seed=0, q=batch
                ),
            )
            for batch in BATCHES
        ]
        outs = ppatuner_outcomes(jobs, workers=bench_workers())
        return {
            batch: (o, o.result.n_iterations)
            for batch, o in zip(BATCHES, outs)
        }

    rows = run_once(benchmark, sweep)

    print("\n=== Ablation: batch trials (parallel licenses) ===")
    print(f"{'batch':>6} {'HV':>8} {'ADRS':>8} {'Runs':>8} {'Iters':>6}")
    for batch, (o, iters) in rows.items():
        print(f"{batch:>6} {o.hv_error:8.3f} {o.adrs:8.3f} "
              f"{o.runs:8d} {iters:6d}")

    # Batching shrinks wall-clock iterations.
    assert rows[BATCHES[-1]][1] <= rows[BATCHES[0]][1]
