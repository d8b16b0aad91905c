"""Configuration dataclasses.

:class:`SimConfig` is the simulated-hardware cost model, and the workload
configs capture Table 1 of the paper (ranges and defaults).  Every knob in
Table 1 appears here under the same name where Python allows it:

==============  =====================================================
Paper knob      Field
==============  =====================================================
c%              TpccConfig.cross_pct
#whn            TpccConfig.num_warehouses
theta           YcsbConfig.theta
#core           SimConfig.num_threads
CC              SimConfig.cc  (one of repro.cc protocol names)
minT            RuntimeSkewConfig.min_t
p               RuntimeSkewConfig.p
theta_T         RuntimeSkewConfig.theta_t
l_IO            IoLatencyConfig.l_io
theta_IO        IoLatencyConfig.theta_io
#lookups        TsDeferConfig.num_lookups
deferp%         TsDeferConfig.defer_prob
==============  =====================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import ConfigError

#: Simulated clock frequency used only to convert cycles into seconds when
#: reporting throughput as transactions/second.  Matches a 2.0 GHz core.
CYCLES_PER_SECOND = 2_000_000_000

#: Minimum I/O delay in cycles — "minIO is set to 5000 CPU cycles" (Sec 6.1).
MIN_IO_CYCLES = 5_000

#: Restart policies the engine can apply after an abort (repro.faults.policies).
RESTART_POLICIES = ("immediate", "backoff", "defer_coldest")

#: DES engine implementations (repro.sim.make_engine).  "fast" is the
#: flattened batched-advance loop, "reference" the didactic oracle; the
#: two are bit-identical (tests/sim/test_engine_differential.py).
ENGINES = ("fast", "reference")


@dataclass(frozen=True)
class SimConfig:
    """Cost model and shape of the simulated multicore engine.

    All costs are in abstract CPU cycles on the simulated clock.  The
    defaults put an average short TPC-C transaction around 30k cycles,
    matching the paper's statement that 5000 cycles is ~1/6 of the average
    TPC-C transaction runtime.
    """

    num_threads: int = 20
    cc: str = "occ"
    #: Cycles charged for each read/write/insert operation's useful work.
    op_cost: int = 1_000
    #: Per-operation CC bookkeeping charged on every access (CC overhead
    #: type (a) of Section 2.1).
    cc_op_overhead: int = 60
    #: One-off cost of a commit-time validation / lock-release phase.
    commit_overhead: int = 400
    #: Penalty charged when a transaction aborts, before its retry
    #: re-executes.  DBx1000 — the paper's testbed — backs aborted
    #: transactions off for ABORT_PENALTY (tens of microseconds) before
    #: restarting; 25,000 cycles is 12.5 us on the simulated 2 GHz core.
    abort_penalty: int = 25_000
    #: Cost of fetching the next transaction from the thread-local buffer.
    dispatch_cost: int = 100
    seed: int = 0
    #: What an aborted transaction does next (repro.faults.policies):
    #: "immediate" retries in place after penalty + uniform jitter (the
    #: DBx1000 rule), "backoff" applies capped randomised exponential
    #: backoff, "defer_coldest" migrates the retry to the least-busy
    #: thread.
    restart_policy: str = "immediate"
    #: Initial jitter span for the "backoff" policy (cycles); doubles per
    #: attempt until it saturates at ``backoff_cap``.
    backoff_base: int = 2_000
    backoff_cap: int = 200_000
    #: Which event-loop implementation executes the run ("fast" or
    #: "reference").  Both produce byte-identical artifacts; "reference"
    #: is retained as the oracle the differential suite checks against.
    engine: str = "fast"

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ConfigError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}")
        if self.num_threads <= 0:
            raise ConfigError(f"num_threads must be positive, got {self.num_threads}")
        if self.op_cost <= 0:
            raise ConfigError(f"op_cost must be positive, got {self.op_cost}")
        for name in ("cc_op_overhead", "commit_overhead", "abort_penalty", "dispatch_cost"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.restart_policy not in RESTART_POLICIES:
            raise ConfigError(
                f"unknown restart policy {self.restart_policy!r}; "
                f"choose from {RESTART_POLICIES}")
        if self.backoff_base <= 0:
            raise ConfigError(f"backoff_base must be positive, got {self.backoff_base}")
        if self.backoff_cap < self.backoff_base:
            raise ConfigError("backoff_cap must be >= backoff_base")

    def with_(self, **kw) -> "SimConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)


@dataclass(frozen=True)
class TsDeferConfig:
    """TsDEFER knobs (Section 5, Table 1 gray rows).

    ``num_lookups = 0`` disables proactive deferment entirely ("in the
    extreme case, one can disable TsDEFER with #lookups = 0").
    """

    num_lookups: int = 2
    defer_prob: float = 0.6
    #: Number of witnessed conflicting probes needed to treat T as a
    #: deferral candidate ("above a threshold (typically 1)").
    threshold: int = 1
    #: Trigger rule: "witness" (default; a probe hit T's access set, per
    #: Example 5) or "duplicates" (the literal #lookups - d counting rule).
    trigger: str = "witness"
    #: Probe scope: "per_thread" issues #lookups probes against *each*
    #: remote active transaction (the interpretation under which the
    #: paper's Example 5 arithmetic and the widening gain with #core in
    #: Fig 5c both hold — see DESIGN.md note 1); "global" issues #lookups
    #: probes total across all remote threads (the literal reading).
    lookup_scope: str = "per_thread"
    #: How far past headp probes may look into each remote thread's queue
    #: (Section 5: "check transactions that are further in the future
    #: w.r.t. the one it sees from headp, within bounded steps").
    #: 1 = active transaction only.
    future_depth: int = 2
    #: Cycles charged per lookup probe: one shared-structure read plus one
    #: local access-set read — constant, per Section 5.
    lookup_cost: int = 30
    #: Cycles to move a transaction to the back of the local queue.
    defer_cost: int = 60
    #: Upper bound on how many times a single transaction may be deferred,
    #: so the filter can never livelock a thread-local buffer.
    max_defers: int = 32
    #: Probability that a lookup observes the *previous* headp of a remote
    #: thread, modelling the benign staleness of the lock-free structure.
    stale_prob: float = 0.05
    #: Fraction of each transaction's true access set visible to lookups —
    #: the alpha knob of the "inaccurate access sets" experiment (Fig 5h).
    access_set_accuracy: float = 1.0

    def __post_init__(self):
        if self.num_lookups < 0:
            raise ConfigError(f"num_lookups must be >= 0, got {self.num_lookups}")
        if not 0.0 <= self.defer_prob <= 1.0:
            raise ConfigError(f"defer_prob must be in [0,1], got {self.defer_prob}")
        if self.trigger not in ("witness", "duplicates"):
            raise ConfigError(f"unknown trigger rule {self.trigger!r}")
        if self.lookup_scope not in ("per_thread", "global"):
            raise ConfigError(f"unknown lookup scope {self.lookup_scope!r}")
        if self.future_depth < 1:
            raise ConfigError(f"future_depth must be >= 1, got {self.future_depth}")
        if not 0.0 <= self.access_set_accuracy <= 1.0:
            raise ConfigError("access_set_accuracy must be in [0,1]")
        if self.threshold < 1:
            raise ConfigError(f"threshold must be >= 1, got {self.threshold}")

    @property
    def enabled(self) -> bool:
        return self.num_lookups > 0

    def with_(self, **kw) -> "TsDeferConfig":
        return replace(self, **kw)


#: A TsDeferConfig that turns the module off.
TSDEFER_DISABLED = TsDeferConfig(num_lookups=0)


@dataclass(frozen=True)
class YcsbConfig:
    """YCSB core-A workload (Section 6.1).

    The paper uses a 20M-record table; ``num_records`` is scaled down by
    default so the pure-Python engine stays laptop-sized — contention is
    governed by ``theta`` and ``ops_per_txn``, not the absolute table size,
    once the table is much larger than a bundle's working set.
    """

    num_records: int = 200_000
    ops_per_txn: int = 16
    read_ratio: float = 0.5  # YCSB-A: 50% reads / 50% writes
    theta: float = 0.8
    record_size: int = 128
    #: Probability an operation is a short range scan instead of a point
    #: access (YCSB-E flavour).  Scan-bearing transactions are flagged
    #: ``has_range`` and stay under CC (Section 3, Limitations).
    scan_ratio: float = 0.0
    #: Keys per range scan.
    scan_length: int = 20

    def __post_init__(self):
        if self.num_records <= 0:
            raise ConfigError("num_records must be positive")
        if self.ops_per_txn <= 0:
            raise ConfigError("ops_per_txn must be positive")
        if not 0.0 <= self.read_ratio <= 1.0:
            raise ConfigError("read_ratio must be in [0,1]")
        if not 0.0 <= self.scan_ratio <= 1.0:
            raise ConfigError("scan_ratio must be in [0,1]")
        if self.scan_length <= 0:
            raise ConfigError("scan_length must be positive")

    def with_(self, **kw) -> "YcsbConfig":
        return replace(self, **kw)


def ycsb_core_workload(which: str, **kw) -> YcsbConfig:
    """YCSB core workload presets A/B/C/E [12, 55].

    A = 50/50 update-heavy (the paper's default), B = 95/5 read-mostly,
    C = read-only, E = short range scans (95% scan / 5% insert-ish
    update).  Extra keyword arguments override any field.
    """
    presets = {
        "a": dict(read_ratio=0.5),
        "b": dict(read_ratio=0.95),
        "c": dict(read_ratio=1.0),
        "e": dict(read_ratio=0.95, scan_ratio=0.5, ops_per_txn=4),
    }
    base = presets.get(which.lower())
    if base is None:
        raise ConfigError(f"unknown YCSB core workload {which!r}; "
                          f"known: {sorted(presets)}")
    base.update(kw)
    return YcsbConfig(**base)


@dataclass(frozen=True)
class TpccConfig:
    """Full-mix TPC-C (Section 6.1): five transaction types with inserts.

    ``cross_pct`` is the paper's c% knob — the fraction of NewOrder /
    Payment transactions that touch a remote warehouse.  The standard
    TPC-C mix percentages are kept as explicit fields so tests can pin
    single-type workloads.
    """

    num_warehouses: int = 40
    cross_pct: float = 0.25
    districts_per_warehouse: int = 10
    customers_per_district: int = 300
    items: int = 1_000
    #: Standard TPC-C mix: NewOrder 45, Payment 43, OrderStatus 4,
    #: Delivery 4, StockLevel 4.
    mix: tuple[float, float, float, float, float] = (0.45, 0.43, 0.04, 0.04, 0.04)

    def __post_init__(self):
        if self.num_warehouses <= 0:
            raise ConfigError("num_warehouses must be positive")
        if not 0.0 <= self.cross_pct <= 1.0:
            raise ConfigError("cross_pct must be in [0,1]")
        if abs(sum(self.mix) - 1.0) > 1e-9:
            raise ConfigError(f"transaction mix must sum to 1, got {sum(self.mix)}")

    def with_(self, **kw) -> "TpccConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class RuntimeSkewConfig:
    """Runtime-skew extension (Section 6.1, red rows of Table 1).

    Each transaction gets a minimum runtime drawn from
    ``[min_t * t_avg, p * min_t * t_avg]`` under Zipf(theta_t), where
    ``t_avg`` is the average transaction runtime of the unextended
    workload.  A transaction that finishes earlier than its bound delays
    its commit until the bound elapses.
    """

    min_t: float = 0.5
    p: int = 48
    theta_t: float = 0.8
    enabled: bool = True

    def __post_init__(self):
        if self.min_t <= 0:
            raise ConfigError("min_t must be positive")
        if self.p < 1:
            raise ConfigError("p must be >= 1")

    def with_(self, **kw) -> "RuntimeSkewConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class IoLatencyConfig:
    """Commit-time I/O latency extension (Section 6.1).

    Delays are drawn from ``[0, l_io * MIN_IO_CYCLES]`` under
    Zipf(theta_io); larger ``l_io`` means a longer worst case and larger
    ``theta_io`` a longer-tailed distribution.  ``l_io = 0`` disables the
    extension (the paper's default outside the I/O experiments).
    """

    l_io: int = 0
    theta_io: float = 1.2

    def __post_init__(self):
        if self.l_io < 0:
            raise ConfigError("l_io must be >= 0")

    @property
    def enabled(self) -> bool:
        return self.l_io > 0

    def with_(self, **kw) -> "IoLatencyConfig":
        return replace(self, **kw)


#: Epoch-buffer assignment strategies the serving subsystem accepts.
SERVE_ASSIGNMENTS = ("round_robin", "least_loaded")


@dataclass(frozen=True)
class ServeConfig:
    """The live scheduling service (:mod:`repro.serve`).

    An epoch closes when it reaches ``epoch_max_txns`` transactions or
    ``epoch_max_ms`` wall milliseconds after its first admission,
    whichever comes first.  ``queue_limit`` bounds the transactions
    admitted but not yet responded to — beyond it, submits are rejected
    with a retry-after hint (explicit backpressure).
    """

    host: str = "127.0.0.1"
    #: TCP port; 0 binds an ephemeral port (tests / loopback drives).
    port: int = 0
    #: System spec executed per epoch (repro.bench.runner.SYSTEM_SPECS,
    #: enforced "!" variants excluded — see serve.pipeline.SERVABLE_SYSTEMS).
    system: str = "tskd-0"
    epoch_max_txns: int = 256
    epoch_max_ms: float = 50.0
    queue_limit: int = 4_096
    #: Suggested client wait before retrying a rejected submit.
    retry_after_ms: float = 25.0
    #: How the epoch's CC-executed buffers are dealt to threads:
    #: "round_robin" (the engine default) or "least_loaded" (admission
    #: balances buffers by estimated cost; repro.sim.stream).
    assignment: str = "round_robin"
    #: Record each epoch's transaction ids in the drain artifact so a
    #: batch run can replay the exact epoch composition.
    record_epoch_tids: bool = False
    #: Engine shards serving the key space
    #: (:class:`~repro.serve.server.ServeServer`): each shard owns a
    #: hash partition of the affinity-group space and runs the TSKD
    #: pipeline against its own persistent database, with cross-shard
    #: transactions committed through epoch-aligned deterministic order
    #: agreement (see docs/sharding.md).  1 is the single-engine server,
    #: its shard in-process; N > 1 runs one worker process per shard.
    shards: int = 1

    def __post_init__(self):
        if not 0 <= self.port <= 65_535:
            raise ConfigError(f"port must be in [0, 65535], got {self.port}")
        if self.epoch_max_txns <= 0:
            raise ConfigError("epoch_max_txns must be positive")
        if self.epoch_max_ms <= 0:
            raise ConfigError("epoch_max_ms must be positive")
        if self.queue_limit <= 0:
            raise ConfigError("queue_limit must be positive")
        if self.retry_after_ms < 0:
            raise ConfigError("retry_after_ms must be >= 0")
        if self.assignment not in SERVE_ASSIGNMENTS:
            raise ConfigError(
                f"unknown assignment {self.assignment!r}; "
                f"choose from {SERVE_ASSIGNMENTS}")
        if self.shards < 1:
            raise ConfigError(f"shards must be >= 1, got {self.shards}")

    def with_(self, **kw) -> "ServeConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class PredictConfig:
    """Conflict prediction + online adaptation (:mod:`repro.predict`).

    A decayed count-min sketch over recently committed write sets feeds a
    per-transaction conflict score.  The :class:`~repro.predict.OnlinePolicy`
    spends that signal three ways, each individually switchable: ``steer``
    biases TSgen placement toward queues already holding a transaction's
    predicted-hot keys (same-queue conflicts serialise instead of
    aborting), ``retune`` adjusts ``#lookups``/``deferp%`` per epoch from
    observed conflict-witness rates (an online extension of
    :mod:`repro.core.autotune`), and ``admission`` rejects hot,
    conflict-prone transactions first under serve backpressure.
    """

    enabled: bool = True
    #: Count-min sketch geometry.
    width: int = 1_024
    depth: int = 4
    #: Multiplicative per-epoch decay of every sketch cell; 1.0 never
    #: forgets, smaller values track a moving hot set faster.
    decay: float = 0.5
    #: Decayed estimate at or above which a key counts as hot.
    hot_threshold: float = 3.0
    #: Candidate keys the sketch tracks for heat reporting / steering.
    hot_capacity: int = 64
    #: Hot keys exported in the live stats frame and artifacts.
    top_k: int = 8
    steer: bool = True
    retune: bool = True
    admission: bool = True
    #: Per-transaction knob boost: when TsDEFER checks a transaction
    #: touching a currently-hot key, its defer decision uses at least
    #: these knob values instead of the base config.  Cold traffic keeps
    #: the cheap defaults; the deferment budget concentrates where the
    #: sketch says conflicts live.
    hot_num_lookups: int = 5
    hot_defer_prob: float = 1.0
    #: Batch mode: transactions per adaptive epoch (the granularity at
    #: which the policy observes, decays, and retunes).
    epoch_txns: int = 256
    #: Consecutive same-direction epochs required before a retune fires.
    hysteresis_epochs: int = 2
    #: Conflict-witness-rate deadband: below ``witness_lo`` the controller
    #: steps the TsDEFER knobs down, above ``witness_hi`` up, in between
    #: it holds (hysteresis resets).
    witness_lo: float = 0.02
    witness_hi: float = 0.20
    #: Conflict-score weight of read-set keys relative to write-set keys.
    read_weight: float = 0.5
    #: Queue occupancy (pending / queue_limit) above which admission
    #: starts rejecting hot transactions first.
    admission_occupancy: float = 0.75

    def __post_init__(self):
        if self.width <= 0 or self.depth <= 0:
            raise ConfigError("sketch width and depth must be positive")
        if not 0.0 < self.decay <= 1.0:
            raise ConfigError(f"decay must be in (0, 1], got {self.decay}")
        if self.hot_threshold <= 0:
            raise ConfigError("hot_threshold must be positive")
        if self.hot_capacity <= 0 or self.top_k <= 0:
            raise ConfigError("hot_capacity and top_k must be positive")
        if self.epoch_txns <= 0:
            raise ConfigError("epoch_txns must be positive")
        if self.hysteresis_epochs < 1:
            raise ConfigError("hysteresis_epochs must be >= 1")
        if not 0.0 <= self.witness_lo <= self.witness_hi:
            raise ConfigError("need 0 <= witness_lo <= witness_hi")
        if self.read_weight < 0:
            raise ConfigError("read_weight must be >= 0")
        if not 0.0 <= self.admission_occupancy <= 1.0:
            raise ConfigError("admission_occupancy must be in [0, 1]")
        if self.hot_num_lookups < 1:
            raise ConfigError("hot_num_lookups must be >= 1")
        if not 0.0 <= self.hot_defer_prob <= 1.0:
            raise ConfigError("hot_defer_prob must be in [0, 1]")

    def with_(self, **kw) -> "PredictConfig":
        return replace(self, **kw)


@dataclass(frozen=True)
class ExperimentConfig:
    """Top-level bundle of everything one experiment run needs."""

    sim: SimConfig = field(default_factory=SimConfig)
    tsdefer: TsDeferConfig = field(default_factory=TsDeferConfig)
    skew: Optional[RuntimeSkewConfig] = None
    io: IoLatencyConfig = field(default_factory=IoLatencyConfig)
    #: Transactions per bundle ("by default, each bundle consists of
    #: 10,000 transactions"); scaled down by default for the simulator.
    bundle_size: int = 2_000
    seed: int = 0
    #: Optional chaos: a repro.faults.FaultSpec compiled into a FaultPlan
    #: by the bench runner.  Typed loosely to keep repro.common free of a
    #: dependency on repro.faults; None means no faults.
    faults: Optional[object] = None
    #: Optional conflict prediction + online adaptation.  None (the
    #: default) keeps every run bit-identical to the pre-predictor code
    #: paths; artifacts omit the field entirely when unset.
    predict: Optional[PredictConfig] = None

    def with_(self, **kw) -> "ExperimentConfig":
        return replace(self, **kw)
