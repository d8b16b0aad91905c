#!/usr/bin/env python3
"""How sensitive is scheduling to cost-estimate quality? (Section 3 / 6.2)

TsPAR "does not rely on the actual transaction execution time; instead it
is only sensitive to the relative length of transactions".  This example
schedules the same skewed YCSB bundle with:

* a perfect oracle estimator,
* the default warm-up history estimator (coarse, class-averaged),
* increasingly noisy estimators (up to +/-80% multiplicative noise),
* the access-set-size fallback (ignores runtimes entirely),

and shows throughput degrading gracefully — TsDEFER and CC guard the
queues against the runtime conflicts that bad estimates let through.

Run:  python examples/estimate_sensitivity.py
"""

from repro import (
    ExperimentConfig,
    RuntimeSkewConfig,
    SimConfig,
    StrifePartitioner,
    TSKD,
    YcsbConfig,
    YcsbGenerator,
    apply_runtime_skew,
    run_system,
    warm_up_history,
)
from repro.common import Rng
from repro.txn import AccessSetSizeCostModel, NoisyCostModel, PerfectCostModel


def main() -> None:
    exp = ExperimentConfig(sim=SimConfig(num_threads=20, cc="occ"))
    gen = YcsbGenerator(YcsbConfig(num_records=2_000_000, theta=0.8), seed=4)
    workload = gen.make_workload(1_500)
    apply_runtime_skew(workload, RuntimeSkewConfig(), exp.sim)

    baseline = run_system(workload, StrifePartitioner(), exp)
    print(f"Strife baseline: {baseline.throughput:,.0f} txn/s, "
          f"{baseline.retries_per_100k:,.0f} retries/100k\n")

    perfect = PerfectCostModel(exp.sim)
    estimators = [
        ("perfect oracle", perfect),
        ("warm-up history (default)", warm_up_history(workload, exp.sim)),
        ("oracle + 20% noise", NoisyCostModel(perfect, 0.2, Rng(1))),
        ("oracle + 50% noise", NoisyCostModel(perfect, 0.5, Rng(2))),
        ("oracle + 80% noise", NoisyCostModel(perfect, 0.8, Rng(3))),
        ("access-set size fallback", AccessSetSizeCostModel()),
    ]
    print(f"{'estimator':28s} {'tput':>11s} {'retries/100k':>13s} "
          f"{'queue retr':>11s} {'s%':>5s}")
    for label, cost in estimators:
        result = run_system(workload, TSKD.instance("S"), exp, cost=cost)
        print(f"{label:28s} {result.throughput:>11,.0f} "
              f"{result.retries_per_100k:>13,.0f} "
              f"{result.queue_retries:>11,} "
              f"{result.scheduled_pct * 100:>5.0f}")

    print("\nEven with missing estimates TSKD stays correct: CC + TsDEFER "
          "execute the queues, so bad estimates cost retries, never "
          "isolation.")


if __name__ == "__main__":
    main()
