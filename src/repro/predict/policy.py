"""Online adaptive scheduling policy driven by the conflict sketch.

:class:`OnlinePolicy` is the glue between observation and action.  It
observes by sitting in the engine's progress-hook fanout — every commit
folds the transaction's write set into the decayed sketch — and it acts
at three points, each individually switchable:

* **steer** — TSgen's residual assignment consults :meth:`hot_keys` to
  co-locate transactions that share predicted-hot keys on one queue
  (same-queue conflicts run serially and are exempt from runtime
  conflict checks, so co-location converts aborts into scheduled work);
* **retune** — per-transaction and per-epoch control of TsDEFER's
  knobs.  Transactions touching predicted-hot keys are checked with
  boosted ``hot_num_lookups``/``hot_defer_prob`` (the deferment budget
  concentrates where the sketch says conflicts are), and an online
  evidence walk over the :data:`~repro.core.autotune.DEFAULT_GRID` axes
  nudges the base knobs: each visited setting accrues an abort-rate EMA,
  witness pressure from :class:`~repro.core.tsdefer.TsDeferStats` deltas
  decides which unexplored neighbour is worth probing, and hotspot drift
  (hot-set turnover) wipes the stale evidence;
* **admission** — under queue backpressure, :meth:`should_reject` sheds
  predicted-hot transactions first so the cold (conflict-free) traffic
  keeps flowing.

Determinism contract: the policy holds no randomness of its own — the
sketch's salts come from the configured seed, and every decision is a
pure function of the committed-transaction sequence.  The epoch pipeline
serialises schedule/execute when a policy is installed so that sequence
is itself deterministic (see ``docs/adaptive.md``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Optional, Sequence

from ..common.config import PredictConfig
from .score import conflict_score
from .sketch import DecayedCountMinSketch

if TYPE_CHECKING:  # pragma: no cover
    from ..core.tsdefer import TsDefer
    from ..obs.metrics import MetricsRegistry
    from ..txn.transaction import Transaction

#: How many retune decisions the snapshot/artifact keeps.
RETUNE_TAIL = 16


class HookFanout:
    """Broadcast engine progress callbacks to several hooks.

    The TsDEFER progress table, the policy and the serve commit log all
    want commit events; :func:`fan_out` builds one only when needed.
    """

    def __init__(self, hooks: Iterable[object]):
        self.hooks = [h for h in hooks if h is not None]

    def on_dispatch(self, thread_id: int, txn: "Transaction", now: int) -> None:
        for h in self.hooks:
            h.on_dispatch(thread_id, txn, now)

    def on_commit(self, thread_id: int, txn: "Transaction", now: int) -> None:
        for h in self.hooks:
            h.on_commit(thread_id, txn, now)


def fan_out(*hooks):
    """One progress-hooks object for the given hooks (None entries skipped).

    A single hook is returned as is and no hook as None, so an engine
    with one listener pays no fanout call per dispatch and commit.
    """
    live = [h for h in hooks if h is not None]
    if len(live) > 1:
        return HookFanout(live)
    return live[0] if live else None


def _step(axis: Sequence, value, direction: int):
    """Move one notch along ``axis`` from the entry nearest ``value``.

    The live knob may sit off-grid (hand-set config); snapping to the
    nearest entry first keeps the controller inside the sanctioned grid.
    Clamps at the ends: returns an axis value, possibly unchanged.
    """
    nearest = min(range(len(axis)), key=lambda i: (abs(axis[i] - value), i))
    return axis[max(0, min(len(axis) - 1, nearest + direction))]


class OnlinePolicy:
    """Sketch-fed steer/retune/admission controller (one per engine)."""

    def __init__(self, config: PredictConfig, seed: int):
        self.config = config
        self._seed = seed
        self.sketch = DecayedCountMinSketch(
            width=config.width,
            depth=config.depth,
            decay=config.decay,
            seed=seed,
            hot_capacity=config.hot_capacity,
        )
        self.epoch = 0
        self.hot_set: frozenset = frozenset()
        self.commits_observed = 0
        self.steer_reorders = 0
        self.defer_boosts = 0
        self.admission_rejected_hot = 0
        self.admission_checked = 0
        self.retunes: list[dict] = []
        self.retune_events = 0
        self.knobs: Optional[dict] = None
        self.drift_events = 0
        self._last_stats: Optional[tuple[int, int]] = None  # (checks, witnessed)
        # Retune controller state (see _maybe_retune): per-knob-setting
        # abort-rate EMAs and epochs spent at the current setting.
        self._rates: dict[tuple, float] = {}
        self._settled = 0

    # -- wiring -------------------------------------------------------------
    def install(self, tskd, tsdefer: Optional["TsDefer"]) -> None:
        """Steer ``tskd``'s TSgen pass and retune ``tsdefer``, as configured.

        The policy also has to observe commits: pass it to the engine's
        progress hooks (:func:`fan_out`).
        """
        if self.config.steer and tskd.use_tspar:
            tskd.tspar.tsgen_kwargs["heat"] = self
        if self.config.retune and tsdefer is not None:
            tsdefer.heat = self

    def uninstall(self, tskd) -> None:
        """Stop steering ``tskd``, which may outlive this policy's run."""
        if tskd.tspar.tsgen_kwargs.get("heat") is self:
            del tskd.tspar.tsgen_kwargs["heat"]

    # -- observation (engine progress hooks) ------------------------------
    def on_dispatch(self, thread_id: int, txn: "Transaction", now: int) -> None:
        pass

    def on_commit(self, thread_id: int, txn: "Transaction", now: int) -> None:
        self.commits_observed += 1
        for key in txn.write_set:
            self.sketch.update(key)

    # -- steering (consulted by tsgen's residual assignment) ---------------
    def hot_keys(self, txn: "Transaction") -> frozenset:
        """Predicted-hot keys this transaction touches (epoch snapshot).

        Reads the frozen per-epoch snapshot, not the live sketch, so a
        whole epoch steers against one consistent view of the heat.
        """
        if not self.hot_set:
            return self.hot_set
        return self.hot_set & txn.access_set

    def note_steered(self) -> None:
        self.steer_reorders += 1

    # -- per-transaction knob boost (consulted by TsDefer.filter) -----------
    @property
    def hot_num_lookups(self) -> int:
        return self.config.hot_num_lookups

    @property
    def hot_defer_prob(self) -> float:
        return self.config.hot_defer_prob

    def note_boosted(self) -> None:
        self.defer_boosts += 1

    # -- admission (consulted by serve under backpressure) -----------------
    def score(self, txn: "Transaction") -> float:
        return conflict_score(txn, self.sketch, self.config.read_weight)

    def should_reject(self, txn: "Transaction", occupancy: float) -> bool:
        """Shed predicted-hot transactions once the queue runs hot.

        Below ``admission_occupancy`` everything is admitted; above it,
        transactions whose conflict score reaches ``hot_threshold`` are
        rejected first — the cold tail still gets through.
        """
        if not self.config.admission:
            return False
        if occupancy < self.config.admission_occupancy:
            return False
        self.admission_checked += 1
        if self.score(txn) >= self.config.hot_threshold:
            self.admission_rejected_hot += 1
            return True
        return False

    # -- epoch boundary ----------------------------------------------------
    def end_epoch(
        self,
        tsdefer: Optional["TsDefer"] = None,
        aborts: Optional[int] = None,
        dispatched: Optional[int] = None,
    ) -> None:
        """Decay, refresh the hot snapshot, and maybe retune TsDEFER.

        ``aborts``/``dispatched`` are the closing epoch's engine-level
        outcome — the feedback signal the retune controller judges its
        probes by.  Without them retuning stays dormant (knob tracking
        only).
        """
        self.epoch += 1
        prev_hot = self.hot_set
        self.sketch.decay()
        threshold = self.config.hot_threshold
        self.hot_set = frozenset(
            key for key, est in self.sketch.hot_items() if est >= threshold
        )
        # Hot-set turnover = the hotspot moved: abort rates measured
        # against the old hotspot no longer describe any knob setting,
        # so forget them and let the controller re-explore.
        if prev_hot and self.hot_set:
            union = len(prev_hot | self.hot_set)
            if len(prev_hot & self.hot_set) / union < 0.5:
                self.drift_events += 1
                self._rates.clear()
        if tsdefer is not None:
            self._maybe_retune(tsdefer, aborts, dispatched)

    def adopt_merged(
        self, sketches: Iterable[DecayedCountMinSketch]
    ) -> None:
        """Epoch boundary for a cluster coordinator: merge shard views.

        The coordinator keeps one decayed sketch per shard (fed from the
        commit outcomes it already holds) and replaces this policy's
        sketch with their cell-wise merge at each epoch boundary.  The
        caller decays the per-shard sketches; the merged view is not
        decayed again.  Retuning stays per shard — each shard worker's
        own policy drives its TsDEFER filter — so only the hot snapshot
        (admission + observability) is refreshed here.
        """
        merged = DecayedCountMinSketch(
            width=self.config.width,
            depth=self.config.depth,
            decay=self.config.decay,
            seed=self._seed,
            hot_capacity=self.config.hot_capacity,
        )
        for sketch in sketches:
            merged.merge(sketch)
        self.sketch = merged
        self.epoch += 1
        threshold = self.config.hot_threshold
        self.hot_set = frozenset(
            key for key, est in merged.hot_items() if est >= threshold
        )

    def _maybe_retune(
        self,
        tsdefer: "TsDefer",
        aborts: Optional[int],
        dispatched: Optional[int],
    ) -> None:
        """Evidence-driven walk over TsDEFER's grid knobs.

        Each knob setting the controller has sat at accrues an EMA of
        the abort rate it produced.  After ``hysteresis_epochs`` at the
        current setting it may move one notch: to a *neighbouring*
        setting whose recorded rate beats the current one ("move"), or
        — when the witnessed-conflict rate is outside the deadband and
        the neighbour in that direction is unexplored — to probe it
        ("probe").  A probed setting that turns out worse loses the next
        comparison and the controller walks back; its bad record keeps
        it from being re-probed until hotspot drift wipes the evidence.
        Every decision is a pure function of the observed counters.
        """
        cfg = tsdefer.config
        self.knobs = {"num_lookups": cfg.num_lookups,
                      "defer_prob": cfg.defer_prob}
        if not self.config.retune:
            return
        stats = tsdefer.stats
        now = (stats.checks, stats.conflicts_witnessed)
        last = self._last_stats
        self._last_stats = now
        if aborts is None or dispatched is None or dispatched <= 0:
            return
        rate = aborts / dispatched
        key = (cfg.num_lookups, cfg.defer_prob)
        ema = self._rates.get(key)
        self._rates[key] = rate if ema is None else 0.5 * ema + 0.5 * rate
        self._settled += 1
        if self._settled < self.config.hysteresis_epochs:
            return
        witness_rate = None
        if last is not None and now[0] > last[0]:
            witness_rate = (now[1] - last[1]) / (now[0] - last[0])
        from ..core.autotune import grid_axes  # local import: avoids a cycle

        axes = grid_axes()
        current = self._rates[key]
        target = None
        action = None
        for direction in (+1, -1):
            nl = _step(axes["num_lookups"], cfg.num_lookups, direction)
            dp = _step(axes["defer_prob"], cfg.defer_prob, direction)
            if (nl, dp) == key:
                continue  # pinned at this end of both axes
            known = self._rates.get((nl, dp))
            if known is None:
                # Unexplored: probe only where witness pressure points.
                pressed = (witness_rate is not None
                           and ((direction > 0
                                 and witness_rate > self.config.witness_hi)
                                or (direction < 0
                                    and witness_rate < self.config.witness_lo)))
                if pressed and target is None:
                    target, action = (nl, dp), "probe"
            elif known < current and (
                    target is None or action == "probe"
                    or known < self._rates[target]):
                target, action = (nl, dp), "move"
        if target is None:
            return
        self._settled = 0
        tsdefer.config = cfg.with_(num_lookups=target[0], defer_prob=target[1])
        self.knobs = {"num_lookups": target[0], "defer_prob": target[1]}
        self._record(action, rate, tsdefer.config)

    def _record(self, action: str, rate: float, cfg) -> None:
        self.retune_events += 1
        self.retunes.append({
            "epoch": self.epoch,
            "action": action,
            "rate": round(rate, 6),
            "num_lookups": cfg.num_lookups,
            "defer_prob": cfg.defer_prob,
        })
        if len(self.retunes) > RETUNE_TAIL:
            del self.retunes[:-RETUNE_TAIL]

    # -- observability -----------------------------------------------------
    def publish(self, registry: "MetricsRegistry") -> None:
        registry.counter("predict.commits_observed").inc(self.commits_observed)
        registry.counter("predict.sketch_updates").inc(self.sketch.updates)
        registry.counter("predict.steer_reorders").inc(self.steer_reorders)
        registry.counter("predict.defer_boosts").inc(self.defer_boosts)
        registry.counter("predict.admission_checked").inc(self.admission_checked)
        registry.counter("predict.admission_rejected_hot").inc(
            self.admission_rejected_hot)
        registry.counter("predict.retunes").inc(self.retune_events)
        registry.counter("predict.drift_events").inc(self.drift_events)
        registry.gauge("predict.epochs").set(float(self.epoch))
        registry.gauge("predict.hot_keys").set(float(len(self.hot_set)))
        registry.gauge("predict.heat_total").set(self.sketch.total_mass())

    def snapshot(self) -> dict:
        """JSON-ready state for artifacts and the live ``stats`` frame."""
        return {
            "epoch": self.epoch,
            "commits_observed": self.commits_observed,
            "hot_keys": len(self.hot_set),
            "heat_total": round(self.sketch.total_mass(), 6),
            "top_k": [[repr(key), round(est, 4)]
                      for key, est in self.sketch.top_k(self.config.top_k)],
            "steer_reorders": self.steer_reorders,
            "defer_boosts": self.defer_boosts,
            "admission_checked": self.admission_checked,
            "admission_rejected_hot": self.admission_rejected_hot,
            "drift_events": self.drift_events,
            "knobs": self.knobs,
            "retunes": list(self.retunes),
        }


def make_policy(
    predict: Optional[PredictConfig], seed: int,
) -> Optional[OnlinePolicy]:
    """The policy for an experiment, or None when prediction is off."""
    if predict is None or not predict.enabled:
        return None
    return OnlinePolicy(predict, seed)
