#!/usr/bin/env python3
"""Proactive deferment on unbundled YCSB transactions (the Fig. 5 story).

Runs DBCC (round-robin assignment + CC, DBx1000's default) against
TSKD[CC] (the same pipeline with the TsDEFER filter installed) across a
contention sweep, then explores the #lookups / deferp% trade-off of
Section 5.

Run:  python examples/ycsb_deferment.py
"""

from repro import (
    ExperimentConfig,
    RuntimeSkewConfig,
    SimConfig,
    TSKD,
    TsDeferConfig,
    YcsbConfig,
    YcsbGenerator,
    apply_runtime_skew,
    run_system,
)
from repro.common.stats import improvement_pct, reduction_pct


def make_workload(theta: float, exp: ExperimentConfig):
    gen = YcsbGenerator(YcsbConfig(num_records=2_000_000, theta=theta), seed=3)
    w = gen.make_workload(1_500)
    apply_runtime_skew(w, RuntimeSkewConfig(), exp.sim)
    return w


def main() -> None:
    exp = ExperimentConfig(sim=SimConfig(num_threads=20, cc="occ"))

    print("Contention sweep (theta): DBCC vs TSKD[CC]")
    print(f"{'theta':>6} {'DBCC tput':>12} {'TSKD[CC]':>12} {'gain':>7} "
          f"{'retry cut':>10} {'deferrals':>10}")
    for theta in (0.7, 0.8, 0.9):
        w = make_workload(theta, exp)
        base = run_system(w, "dbcc", exp)
        ours = run_system(w, TSKD.instance("CC"), exp)
        print(f"{theta:>6} {base.throughput:>12,.0f} {ours.throughput:>12,.0f} "
              f"{improvement_pct(ours.throughput, base.throughput):>+6.0f}% "
              f"{reduction_pct(ours.retries_per_100k, base.retries_per_100k):>9.0f}% "
              f"{ours.deferrals:>10,}")

    print("\nTrade-off: #lookups at theta=0.8 "
          "(0 disables TsDEFER; more probes catch more conflicts but cost "
          "more per dispatch)")
    w = make_workload(0.8, exp)
    base = run_system(w, "dbcc", exp)
    print(f"  DBCC baseline: {base.throughput:,.0f} txn/s, "
          f"{base.retries_per_100k:,.0f} retries/100k")
    for lookups in (0, 1, 2, 5):
        cfg = (TsDeferConfig(num_lookups=lookups) if lookups
               else TsDeferConfig(num_lookups=0))
        r = run_system(w, TSKD.instance("CC", tsdefer=cfg), exp)
        print(f"  #lookups={lookups}: {r.throughput:>10,.0f} txn/s, "
              f"{r.retries_per_100k:>8,.0f} retries/100k, "
              f"{r.deferrals:>5,} deferrals")


if __name__ == "__main__":
    main()
