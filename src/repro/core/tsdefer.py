"""TsDEFER — proactive transaction deferment (Sections 2.3 and 5).

TsDEFER sits between a thread-local buffer and the execution engine.
Before thread i runs its next transaction T, it issues ``#lookups``
constant-cost probes into the write sets of transactions active at other
threads (via the :class:`ProgressTable`).  If the probes witness a likely
runtime conflict, T is deferred — moved to the back of the buffer — with
probability ``deferp%``, and the thread moves on to the next transaction.

Two trigger rules are provided (see DESIGN.md, interpretation note 1):

* ``witness`` (default): a probe *witnesses* a conflict when the probed
  item intersects T's access set under the active isolation level —
  the behaviour of the paper's Example 5;
* ``duplicates``: the literal Section 5 counting rule
  (#lookups − distinct items ≥ threshold).

The filter never defers when the buffer has nothing else to run, and each
transaction is deferred at most ``max_defers`` times, so it can only
reorder work, never starve it.  It is *not* a replacement for CC: the
engine still runs its protocol underneath.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..common.config import TsDeferConfig
from ..common.rng import Rng
from ..txn.conflicts import IsolationLevel
from ..txn.transaction import Transaction
from .progress_table import ProgressTable


@dataclass
class TsDeferStats:
    """Filter-side tallies, merged into run results by the harness."""

    checks: int = 0
    lookups: int = 0
    #: Probed items that hit the candidate's access set (witness rule) or
    #: duplicated another probe (duplicates rule) — the numerator of the
    #: probe hit rate.
    probe_hits: int = 0
    conflicts_witnessed: int = 0
    deferrals: int = 0
    max_defer_hits: int = 0

    @property
    def probe_hit_rate(self) -> float:
        """Fraction of probes that witnessed a likely conflict."""
        return self.probe_hits / self.lookups if self.lookups else 0.0

    @property
    def defer_rate(self) -> float:
        """Fraction of dispatch checks that ended in a deferral."""
        return self.deferrals / self.checks if self.checks else 0.0

    def as_dict(self) -> dict[str, int]:
        return {
            "checks": self.checks,
            "lookups": self.lookups,
            "probe_hits": self.probe_hits,
            "conflicts_witnessed": self.conflicts_witnessed,
            "deferrals": self.deferrals,
            "max_defer_hits": self.max_defer_hits,
        }


class TsDefer:
    """Dispatch filter + progress hooks implementing proactive deferment."""

    def __init__(
        self,
        config: TsDeferConfig,
        num_threads: int,
        rng: Rng,
        isolation: IsolationLevel = IsolationLevel.SERIALIZABLE,
    ):
        self.config = config
        self.isolation = isolation
        self._rng = rng
        self.table = ProgressTable(
            num_threads,
            rng.fork(101),
            stale_prob=config.stale_prob,
            accuracy=config.access_set_accuracy,
        )
        self.stats = TsDeferStats()
        #: Deferrals per not-yet-committed tid (bounds each by max_defers).
        self._defer_count: dict[int, int] = {}
        #: Optional conflict predictor (:class:`repro.predict.OnlinePolicy`).
        #: When set, transactions touching a key of its ``hot_set``
        #: snapshot are checked with the policy's boosted knobs
        #: (``hot_num_lookups`` / ``hot_defer_prob``) instead of the base
        #: config — the deferment budget concentrates on the traffic the
        #: sketch says conflicts.
        #: None keeps filtering bit-identical to the unpredicted path.
        self.heat = None

    def publish(self, registry) -> None:
        """Push the filter's tallies into a metrics registry.

        ``registry`` is a :class:`repro.obs.MetricsRegistry`; counters go
        under ``tsdefer.*``, derived rates become gauges, and the probing
        structure's own counters land under ``progress_table.*``.
        """
        registry.ingest(self.stats.as_dict(), prefix="tsdefer.")
        registry.gauge("tsdefer.probe_hit_rate",
                       "fraction of probes witnessing a likely conflict"
                       ).set(self.stats.probe_hit_rate)
        registry.gauge("tsdefer.defer_rate",
                       "fraction of dispatch checks that deferred"
                       ).set(self.stats.defer_rate)
        registry.ingest(
            {"probes": self.table.probes,
             "stale_observations": self.table.stale_observations,
             "corrupted_observations": self.table.corrupted_observations},
            prefix="progress_table.",
        )

    def bind(self, engine) -> None:
        """Wire the progress table to the engine that runs this filter.

        Bounded future probing reads the engine's remote queues past
        headp; an enabled fault plan's corruption windows force stale
        probes; a profiled engine times probes as
        ``progress_table.probe``.
        """
        self.table.bind_buffers(engine.buffer_of)
        faults = engine.faults
        if faults is not None and faults.enabled:
            self.table.bind_corruption(faults.probe_corrupt)
        if engine.instrument is not None:
            engine.instrument.wrap(self.table, probe="progress_table.probe")

    # -- ProgressHooks ---------------------------------------------------
    def on_dispatch(self, thread_id: int, txn: Transaction, now: int) -> None:
        self.table.on_dispatch(thread_id, txn, now)

    def on_commit(self, thread_id: int, txn: Transaction, now: int) -> None:
        self.table.on_commit(thread_id, txn, now)
        self._defer_count.pop(txn.tid, None)

    # -- DispatchFilter ----------------------------------------------------
    def filter(self, thread_id: int, txn: Transaction, now: int) -> tuple[bool, int]:
        """Decide whether to defer ``txn``; returns (defer, cycle cost)."""
        cfg = self.config
        if not cfg.enabled:
            return False, 0
        self.stats.checks += 1
        num_lookups, defer_prob = cfg.num_lookups, cfg.defer_prob
        heat = self.heat
        if heat is not None and not heat.hot_set.isdisjoint(txn.access_set):
            num_lookups = max(num_lookups, heat.hot_num_lookups)
            defer_prob = max(defer_prob, heat.hot_defer_prob)
            heat.note_boosted()
        items = self.table.probe(
            thread_id,
            num_lookups,
            scope=cfg.lookup_scope,
            future_depth=cfg.future_depth,
            now=now,
        )
        cost = len(items) * cfg.lookup_cost
        self.stats.lookups += len(items)
        if not items:
            return False, cost

        if cfg.trigger == "witness":
            target = (
                txn.write_set
                if self.isolation is IsolationLevel.SNAPSHOT
                else txn.access_set
            )
            hits = sum(map(target.__contains__, items))
            likely_conflict = hits >= cfg.threshold
        else:  # the literal "#lookups - d" duplicate-counting rule
            hits = len(items) - len(set(items))
            likely_conflict = hits >= cfg.threshold
        self.stats.probe_hits += hits

        if not likely_conflict:
            return False, cost
        self.stats.conflicts_witnessed += 1
        deferred = self._defer_count.get(txn.tid, 0)
        if deferred >= cfg.max_defers:
            self.stats.max_defer_hits += 1
            return False, cost
        if not self._rng.chance(defer_prob):
            return False, cost
        self._defer_count[txn.tid] = deferred + 1
        self.stats.deferrals += 1
        return True, cost + cfg.defer_cost
