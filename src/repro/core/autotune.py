"""Workload-specialised TSKD parameter tuning (Section 8, future work).

The paper closes with: "One topic for future work is to develop ML models
that decide TSKD parameters specialized for given workloads."  This
module implements that specialisation as a pilot-run search — a
successive-halving sweep over the TsDEFER knob grid (#lookups, deferp%,
future depth) driven by measured throughput on a sample of the bundle:

1. draw a sample of the workload (the same kind of partial information a
   learned model would train on),
2. race all candidate configurations on the sample,
3. keep the top half, double the sample, repeat until one remains.

The tuner is estimator-free and model-free on purpose: with a
deterministic simulator, direct measurement on pilot bundles dominates a
learned proxy.  The interface mirrors what an ML policy would expose, so
a model can be slotted in later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..common.config import ExperimentConfig, TsDeferConfig
from ..common.rng import Rng
from ..txn.workload import Workload

#: The default candidate grid: the Table 1 ranges for #lookups/deferp%,
#: plus the bounded-future-probing depths Section 5 sanctions.
DEFAULT_GRID: tuple[TsDeferConfig, ...] = tuple(
    TsDeferConfig(num_lookups=nl, defer_prob=dp, future_depth=fd)
    for nl in (1, 2, 5)
    for dp in (0.4, 0.6, 0.8)
    for fd in (1, 2)
)


def grid_axes(
    grid: Sequence[TsDeferConfig] = DEFAULT_GRID,
) -> dict[str, tuple]:
    """Sorted unique values along each tunable axis of ``grid``.

    The online controller (:mod:`repro.predict.policy`) steps one notch
    at a time along these axes rather than re-racing the full grid, so
    offline tuner and online retuner always agree on the legal settings.
    """
    return {
        "num_lookups": tuple(sorted({c.num_lookups for c in grid})),
        "defer_prob": tuple(sorted({c.defer_prob for c in grid})),
        "future_depth": tuple(sorted({c.future_depth for c in grid})),
    }


@dataclass
class TuningTrial:
    """One measured (configuration, sample size) pilot run."""

    config: TsDeferConfig
    sample_size: int
    throughput: float
    retries_per_100k: float


@dataclass
class TuningReport:
    """Everything the tuner measured, plus the winning configuration."""

    best: TsDeferConfig
    trials: list[TuningTrial] = field(default_factory=list)

    def rounds(self) -> list[int]:
        return sorted({t.sample_size for t in self.trials})


def tune_tsdefer(
    workload: Workload,
    exp: ExperimentConfig,
    instance: str = "CC",
    grid: Sequence[TsDeferConfig] = DEFAULT_GRID,
    initial_sample: int = 150,
    rng: Optional[Rng] = None,
) -> TuningReport:
    """Pick the TsDEFER configuration that maximises pilot throughput.

    ``instance`` selects which TSKD instance to tune ("CC", "S", ...).
    Runs |grid| pilot executions on ``initial_sample`` transactions, then
    halves the field while doubling the sample.  Cost: roughly
    2 * |grid| * initial_sample transaction-executions.
    """
    from ..bench.runner import run_system  # local import: avoids a cycle
    from .tskd import TSKD

    rng = rng or Rng(exp.seed * 11 + 3)
    candidates = list(grid)
    if not candidates:
        raise ValueError("tuning grid is empty")
    sample_size = min(initial_sample, len(workload))
    report = TuningReport(best=candidates[0])

    txns = list(workload)
    while True:
        sample = Workload(txns[:sample_size], name=f"{workload.name}-pilot")
        scored: list[tuple[float, int, TsDeferConfig]] = []
        for idx, cfg in enumerate(candidates):
            system = TSKD.instance(instance, tsdefer=cfg)
            result = run_system(sample, system, exp, name=f"pilot-{idx}")
            report.trials.append(TuningTrial(
                config=cfg, sample_size=sample_size,
                throughput=result.throughput,
                retries_per_100k=result.retries_per_100k,
            ))
            scored.append((result.throughput, idx, cfg))
        scored.sort(reverse=True)
        candidates = [cfg for _tput, _idx, cfg in scored[:max(1, len(scored) // 2)]]
        if len(candidates) == 1 or sample_size >= len(workload):
            break
        sample_size = min(len(workload), sample_size * 2)

    report.best = candidates[0]
    return report
