#!/usr/bin/env python3
"""Quickstart: run a contended YCSB bundle with and without TSKD.

Builds a skewed YCSB workload (the paper's default configuration:
theta=0.8, runtime-skew extension on), executes it on the simulated
20-core engine under plain OCC (DBCC), under the Strife partitioner, and
under TSKD[S] (Strife + scheduling + proactive deferment), then prints
the throughput and retry comparison.

Run:  python examples/quickstart.py
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
)


def main() -> None:
    exp = ExperimentConfig(sim=SimConfig(num_threads=20, cc="occ"))

    print("Generating a YCSB bundle (2,000 transactions, theta=0.8)...")
    generator = YcsbGenerator(YcsbConfig(num_records=2_000_000, theta=0.8),
                              seed=1)
    workload = generator.make_workload(2_000)
    apply_runtime_skew(workload, RuntimeSkewConfig(), exp.sim)

    systems = [
        ("DBCC (round-robin + OCC)", "dbcc"),
        ("Strife partitioner", StrifePartitioner()),
        ("TSKD[S] (Strife + TsPAR + TsDEFER)", TSKD.instance("S")),
        ("TSKD[CC] (TsDEFER only)", TSKD.instance("CC")),
    ]

    results = []
    for label, system in systems:
        result = run_system(workload, system, exp, name=label)
        results.append(result)
        extra = ""
        if result.scheduled_pct is not None:
            extra = (f"  scheduled {result.scheduled_pct * 100:.0f}% of the "
                     f"residual, queue retries {result.queue_retries}")
        print(f"  {label:38s} {result.throughput:>10,.0f} txn/s   "
              f"{result.retries_per_100k:>9,.0f} retries/100k{extra}")

    base, tskd_s = results[1], results[2]
    gain = (tskd_s.throughput / base.throughput - 1) * 100
    print(f"\nTSKD[S] over Strife: {gain:+.0f}% throughput "
          f"(paper reports large positive improvements that grow with "
          f"contention and runtime skew)")


if __name__ == "__main__":
    main()
