"""Chrome trace-event export: span logs → Perfetto-viewable JSON.

Converts the two span sources this repo produces into the Chrome
trace-event format (the ``{"traceEvents": [...]}`` JSON object format,
viewable at https://ui.perfetto.dev or ``chrome://tracing``):

* **engine span logs** — :class:`~repro.obs.tracing.TraceEvent` streams
  written by ``run/faults/serve --trace``.  Virtual cycles map onto the
  trace timeline as microseconds at the simulated clock rate
  (:data:`~repro.common.config.CYCLES_PER_SECOND`), so a 2 GHz virtual
  engine renders 2000 cycles per displayed microsecond.  Each simulated
  thread becomes one track; a transaction's dispatch→finish window is a
  complete ("X") event, lock-blocked intervals nest inside it, and
  aborts/deferrals/faults show as instants.  Serve traces additionally
  carry ``epoch`` events, rendered as an epoch track on their own
  process row.
* **serve artifacts** — the ``epochs`` list of a ``repro.serve/1``
  document holds wall-clock sched/exec windows for every epoch;
  :func:`chrome_from_serve_epochs` renders them as two pipeline tracks
  (the stage-overlap picture docs/serving.md describes, but zoomable).

Only the four keys Perfetto requires are emitted per event (``name``,
``ph``, ``ts``, ``pid``/``tid``; ``dur`` for complete events), so the
output validates against the trace-event schema and stays small.
"""

from __future__ import annotations

import json
from typing import Iterable, Sequence

from ..common.config import CYCLES_PER_SECOND
from .tracing import TraceEvent

#: Virtual cycles per displayed microsecond.
CYCLES_PER_US = CYCLES_PER_SECOND / 1_000_000.0

#: pid of the simulated-thread tracks / the epoch pipeline track.
ENGINE_PID = 0
PIPELINE_PID = 1


def _us(cycles: int) -> float:
    return cycles / CYCLES_PER_US


def _meta(pid: int, name: str, tid: int | None = None,
          thread_name: str | None = None) -> list[dict]:
    events = [{"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
               "args": {"name": name}}]
    if tid is not None:
        events.append({"name": "thread_name", "ph": "M", "pid": pid,
                       "tid": tid, "args": {"name": thread_name}})
    return events


def chrome_trace_events(
    events: Iterable[TraceEvent],
    include_ops: bool = False,
) -> list[dict]:
    """Convert one engine span log into Chrome trace events.

    ``include_ops`` adds one instant per operation access — faithful but
    large; off by default so big traces stay loadable.
    """
    out: list[dict] = []
    threads_seen: set[int] = set()
    #: thread -> (tid, dispatch cycles) of the open transaction span.
    open_txn: dict[int, tuple[int, int]] = {}
    #: thread -> block-start cycles of the open lock-wait span.
    open_block: dict[int, int] = {}
    epochs = 0
    max_t = 0

    def instant(e: TraceEvent, name: str, args: dict) -> dict:
        return {"name": name, "ph": "i", "s": "t", "ts": _us(e.t),
                "pid": ENGINE_PID, "tid": e.thread, "args": args}

    def close_txn(thread: int, end_t: int, args: dict) -> None:
        tid, began = open_txn.pop(thread)
        out.append({"name": f"T{tid}", "cat": "txn", "ph": "X",
                    "ts": _us(began), "dur": _us(end_t - began),
                    "pid": ENGINE_PID, "tid": thread,
                    "args": dict(args, tid=tid)})

    def close_block(thread: int, end_t: int) -> None:
        began = open_block.pop(thread, None)
        if began is None:
            return
        out.append({"name": "blocked", "cat": "lock", "ph": "X",
                    "ts": _us(began), "dur": _us(end_t - began),
                    "pid": ENGINE_PID, "tid": thread, "args": {}})

    for e in events:
        max_t = max(max_t, e.t)
        if e.kind == "epoch":
            # Serve traces: one complete event per executed epoch on the
            # pipeline track, spanning its virtual execution window.
            start = e.attrs.get("start_cycles", e.t)
            out.append({"name": f"epoch {e.attrs.get('epoch', epochs)}",
                        "cat": "epoch", "ph": "X", "ts": _us(start),
                        "dur": _us(e.t - start), "pid": PIPELINE_PID,
                        "tid": 0, "args": dict(e.attrs)})
            epochs += 1
            continue
        threads_seen.add(e.thread)
        if e.kind == "dispatch":
            open_txn[e.thread] = (e.tid, e.t)
        elif e.kind == "finish":
            close_block(e.thread, e.t)
            if e.thread in open_txn:
                close_txn(e.thread, e.t,
                          {"attempts": e.attrs.get("attempts", 0),
                           "outcome": "committed"})
        elif e.kind == "abort":
            close_block(e.thread, e.t)
            out.append(instant(e, "abort",
                               {"tid": e.tid,
                                "reason": e.attrs.get("reason", ""),
                                "attempt": e.attrs.get("attempt", 0)}))
            if "requeue" in e.attrs and e.thread in open_txn:
                # The retry migrated to another thread's buffer: this
                # thread's transaction window ends here.
                close_txn(e.thread, e.t, {"outcome": "aborted"})
        elif e.kind == "block":
            open_block[e.thread] = e.t
        elif e.kind == "wake":
            close_block(e.thread, e.t)
        elif e.kind == "defer":
            out.append(instant(e, "defer", {"tid": e.tid}))
        elif e.kind == "fault":
            out.append(instant(e, f"fault:{e.attrs.get('fault', '?')}",
                               {"applied": e.attrs.get("applied"),
                                "duration": e.attrs.get("duration", 0)}))
        elif e.kind == "commit":
            out.append(instant(e, "commit", {"tid": e.tid}))
        elif include_ops and e.kind in ("op", "validate"):
            out.append(instant(e, e.kind, dict(e.attrs, tid=e.tid)))

    # Close anything left open at the end of the log (a trace truncated
    # mid-run still renders).
    for thread in list(open_block):
        close_block(thread, max_t)
    for thread in list(open_txn):
        close_txn(thread, max_t, {"outcome": "open"})

    meta = _meta(ENGINE_PID, "simulated engine")
    for thread in sorted(threads_seen):
        meta += _meta(ENGINE_PID, "simulated engine", thread,
                      f"thread {thread}")[1:]
    if epochs:
        meta += _meta(PIPELINE_PID, "epoch pipeline", 0, "execute")
    return meta + out


def chrome_from_serve_epochs(epochs: Sequence[dict]) -> list[dict]:
    """Render a serve artifact's epoch spans as pipeline-stage tracks.

    Wall seconds become microseconds relative to the first epoch's
    ``opened_at``; the sched and exec stages get one track each.
    """
    if not epochs:
        return []
    base = min(e.get("opened_at", e["sched_start"]) for e in epochs)

    def us(wall_s: float) -> float:
        return (wall_s - base) * 1_000_000.0

    out = _meta(PIPELINE_PID, "epoch pipeline", 0, "schedule")
    out += _meta(PIPELINE_PID, "epoch pipeline", 1, "execute")[1:]
    for e in epochs:
        args = {"size": e["size"], "reason": e["reason"],
                "committed": e["committed"], "aborts": e["aborts"]}
        out.append({"name": f"e{e['epoch']} sched", "cat": "sched",
                    "ph": "X", "ts": us(e["sched_start"]),
                    "dur": us(e["sched_end"]) - us(e["sched_start"]),
                    "pid": PIPELINE_PID, "tid": 0, "args": args})
        out.append({"name": f"e{e['epoch']} exec", "cat": "exec",
                    "ph": "X", "ts": us(e["exec_start"]),
                    "dur": us(e["exec_end"]) - us(e["exec_start"]),
                    "pid": PIPELINE_PID, "tid": 1, "args": args})
    return out


def chrome_trace_doc(trace_events: list[dict]) -> dict:
    """Wrap converted events in the JSON-object container format."""
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {"source": "repro.obs.chrome",
                      "cycles_per_us": CYCLES_PER_US},
    }


def write_chrome_trace(path, trace_events: list[dict]) -> dict:
    """Write a Chrome trace JSON file; returns the document."""
    doc = chrome_trace_doc(trace_events)
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f)
        f.write("\n")
    return doc


def validate_chrome_events(trace_events: Iterable[dict]) -> str | None:
    """Structural check against the trace-event schema; None when clean.

    Dependency-free (the container has no jsonschema): every event needs
    ``name``/``ph``/``pid``/``tid``; non-metadata events need a numeric
    ``ts``; complete events need a non-negative ``dur``; instants need a
    valid scope.
    """
    for i, e in enumerate(trace_events):
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                return f"event {i}: missing {key!r}"
        ph = e["ph"]
        if ph == "M":
            continue
        if ph not in ("X", "i", "B", "E", "C"):
            return f"event {i}: unsupported phase {ph!r}"
        ts = e.get("ts")
        if not isinstance(ts, (int, float)) or isinstance(ts, bool) or ts < 0:
            return f"event {i}: bad ts {ts!r}"
        if ph == "X":
            dur = e.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                return f"event {i}: complete event with bad dur {dur!r}"
        if ph == "i" and e.get("s") not in ("t", "p", "g"):
            return f"event {i}: instant with bad scope {e.get('s')!r}"
    return None
