"""Execution-time estimation for transactions (Sections 2.2 and 3).

TsPAR only needs estimates that "roughly preserve the relative costs of
transactions".  The models here mirror the paper's cascade:

* :class:`HistoryCostModel` — the default: look up an execution history
  keyed by (template, parameters); exact parameter match first, then the
  template's average ("a T' with parameters close to that of T"), then a
  fallback model.
* :class:`OpCountCostModel` — the "brute-force one that counts reads and
  writes" (used for Example 1 in the paper) and as the dry-run estimate.
* :class:`AccessSetSizeCostModel` — the extreme fallback: the size of the
  access set.
* :class:`PerfectCostModel` — the engine's exact abort-free serial cost;
  used by controlled tests, not by the benchmarked configurations.
* :class:`NoisyCostModel` — wraps another model with multiplicative noise
  for the estimate-sensitivity experiments.
"""

from __future__ import annotations

from typing import Protocol

from ..common.config import SimConfig
from ..common.rng import Rng
from .transaction import Transaction


def serial_cost_cycles(txn: Transaction, sim: SimConfig) -> int:
    """Exact serial (abort-free) execution time of ``txn`` in cycles.

    This is the engine's own cost model: dispatch, per-op work plus CC
    bookkeeping, commit-time validation, then the runtime-skew lower bound
    and the commit-time I/O stall.
    """
    base = (
        sim.dispatch_cost
        + txn.num_ops * (sim.op_cost + sim.cc_op_overhead)
        + sim.commit_overhead
    )
    return max(base, txn.min_runtime_cycles) + txn.io_delay_cycles


class CostModel(Protocol):
    """Anything that maps a transaction to an estimated runtime in cycles."""

    def time(self, txn: Transaction) -> int: ...


class PerfectCostModel:
    """Exact serial cost; the oracle estimator."""

    def __init__(self, sim: SimConfig):
        self._sim = sim

    def time(self, txn: Transaction) -> int:
        return serial_cost_cycles(txn, self._sim)


class OpCountCostModel:
    """Estimate by counting reads and writes (the dry-run estimate).

    Blind to runtime-skew bounds and I/O stalls, which is exactly why the
    paper pairs scheduling with TsDEFER as a safety net.
    """

    def __init__(self, sim: SimConfig | None = None):
        self._op_cost = (sim.op_cost + sim.cc_op_overhead) if sim else 1

    def time(self, txn: Transaction) -> int:
        return max(1, txn.num_ops * self._op_cost)


class AccessSetSizeCostModel:
    """The extreme fallback: |access set| as the cost."""

    def time(self, txn: Transaction) -> int:
        return max(1, len(txn.access_set))


class HistoryCostModel:
    """Estimate from an execution history (the paper's default).

    Call :meth:`record` with observed runtimes (the engine's warm-up
    dry-run does this); :meth:`time` resolves estimates via the cascade
    described in Section 3.
    """

    def __init__(self, fallback: CostModel | None = None):
        self._fallback = fallback or AccessSetSizeCostModel()
        # [sum, count] per signature: the integer mean needs nothing else,
        # so a long-running server's history stays O(signatures).
        self._by_instance: dict[tuple, list[int]] = {}
        self._by_template: dict[str, list[int]] = {}

    def record(self, txn: Transaction, observed_cycles: int) -> None:
        """Add an observed execution to the history."""
        for table, sig in ((self._by_instance, (txn.template, txn.param_signature())),
                           (self._by_template, txn.template)):
            acc = table.setdefault(sig, [0, 0])
            acc[0] += observed_cycles
            acc[1] += 1

    def __len__(self) -> int:
        return sum(count for _, count in self._by_template.values())

    def time(self, txn: Transaction) -> int:
        acc = (self._by_instance.get((txn.template, txn.param_signature()))
               or self._by_template.get(txn.template))
        if acc is not None:
            return max(1, acc[0] // acc[1])
        return self._fallback.time(txn)


class NoisyCostModel:
    """Multiplicative uniform noise over a base model.

    ``rel_noise = 0.3`` perturbs each estimate by up to +/-30%, with a
    deterministic per-transaction draw so repeated calls agree.
    """

    def __init__(self, base: CostModel, rel_noise: float, rng: Rng):
        self._base = base
        self._rel = rel_noise
        self._rng = rng
        self._memo: dict[int, int] = {}

    def time(self, txn: Transaction) -> int:
        got = self._memo.get(txn.tid)
        if got is None:
            factor = 1.0 + self._rng.uniform(-self._rel, self._rel)
            got = max(1, int(self._base.time(txn) * factor))
            self._memo[txn.tid] = got
        return got
