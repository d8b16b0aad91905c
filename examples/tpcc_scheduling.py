#!/usr/bin/env python3
"""TPC-C scheduling: the paper's partitioning-based evaluation in miniature.

Generates a full-mix TPC-C bundle (all five transaction types, inserts,
cross-warehouse traffic), partitions it with each of Strife, Schism and
Horticulture, then refines each partitioning with TSKD (TsPAR + TsDEFER)
and compares throughput, retries, and load balance — the Fig. 4g/4h story.

Run:  python examples/tpcc_scheduling.py [c%]
      e.g. python examples/tpcc_scheduling.py 0.35
"""

import sys

from repro import (
    ExperimentConfig,
    HorticulturePartitioner,
    RuntimeSkewConfig,
    SchismPartitioner,
    SimConfig,
    StrifePartitioner,
    TSKD,
    TpccConfig,
    TpccGenerator,
    apply_runtime_skew,
    run_system,
)
from repro.common.stats import improvement_pct, reduction_pct


def main() -> None:
    cross_pct = float(sys.argv[1]) if len(sys.argv) > 1 else 0.25
    exp = ExperimentConfig(sim=SimConfig(num_threads=20, cc="occ"))

    print(f"Generating full-mix TPC-C (40 warehouses, c%={cross_pct:.0%})...")
    generator = TpccGenerator(TpccConfig(num_warehouses=40,
                                         cross_pct=cross_pct), seed=2)
    workload = generator.make_workload(2_000)
    apply_runtime_skew(workload, RuntimeSkewConfig(), exp.sim)
    print(f"  mix: {workload.templates()}")

    pairs = [
        ("Strife", StrifePartitioner(), TSKD.instance("S")),
        ("Schism", SchismPartitioner(), TSKD.instance("C")),
        ("Horticulture", HorticulturePartitioner(), TSKD.instance("H")),
    ]
    print(f"\n{'partitioner':14s} {'baseline tput':>14s} {'TSKD tput':>12s} "
          f"{'gain':>7s} {'retry cut':>10s} {'s%':>5s}")
    for name, baseline, tskd in pairs:
        base = run_system(workload, baseline, exp)
        ours = run_system(workload, tskd, exp)
        print(f"{name:14s} {base.throughput:>14,.0f} {ours.throughput:>12,.0f} "
              f"{improvement_pct(ours.throughput, base.throughput):>+6.0f}% "
              f"{reduction_pct(ours.retries_per_100k, base.retries_per_100k):>9.0f}% "
              f"{ours.scheduled_pct * 100:>5.0f}")

    print("\nTSKD[0] (no input partitioning) for comparison:")
    zero = run_system(workload, TSKD.instance("0"), exp)
    print(f"  {zero.throughput:,.0f} txn/s, "
          f"{zero.retries_per_100k:,.0f} retries/100k, "
          f"s%={zero.scheduled_pct * 100:.0f}")


if __name__ == "__main__":
    main()
