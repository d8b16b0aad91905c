"""repro.obs — observability: tracing, metrics, profiling, artifacts.

Cooperating layers, all optional and zero-overhead when unused:

* :mod:`repro.obs.tracing` — structured span events the engine emits on
  the virtual clock (dispatch / op / block / commit / abort / ...);
* :mod:`repro.obs.metrics` — a registry of named counters, gauges, and
  fixed-bucket histograms (with streaming P² quantile estimates) that
  subsumes the engine's flat ``Counters`` and collects every component's
  instrumentation in one namespace;
* :mod:`repro.obs.prof` — a sampling-free section profiler attributing
  wall self-time and deterministic virtual cycles to named engine
  sections (``run --profile``);
* :mod:`repro.obs.instrument` — the engines' one hook over a tracer
  and/or a profiler: event sites and wall-time sections;
* :mod:`repro.obs.chrome` — Chrome trace-event export of span logs and
  serve epoch windows (``trace --chrome``, Perfetto-viewable);
* :mod:`repro.obs.live` — sliding-window latency quantiles and the
  ``repro watch`` terminal dashboard for a live serving session;
* :mod:`repro.obs.artifact` — one JSON document per run (result +
  metrics + config + optional span-log pointer + optional profile), with
  dependency-free schema validators CI leans on — including the
  ``repro.bench/1`` perf-trajectory schema behind ``BENCH_<rev>.json``;
  :mod:`repro.obs.report` renders artifacts, traces, and profiles for
  humans.

See docs/observability.md for the event schema, the metric-name
inventory, and the artifact format; docs/perf.md for the BENCH schema.
"""

from .artifact import (
    BENCH_SCHEMA_ID,
    SCHEMA_ID,
    SERVE_SCHEMA_ID,
    ArtifactError,
    build_artifact,
    build_serve_artifact,
    export_run,
    export_serve,
    load_artifact,
    run_result_to_dict,
    validate_artifact,
    validate_bench_artifact,
    validate_serve_artifact,
)
from .chrome import (
    chrome_from_serve_epochs,
    chrome_trace_doc,
    chrome_trace_events,
    validate_chrome_events,
    write_chrome_trace,
)
from .instrument import Instrument
from .live import LIVE_WINDOW_S, SlidingWindow, render_dashboard, watch
from .metrics import (
    LATENCY_BUCKETS_CYCLES,
    RETRY_BUCKETS,
    STREAM_QUANTILES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    P2Quantile,
)
from .prof import (
    Profiler,
    activate_profiler,
    deactivate_profiler,
    get_active_profiler,
)
from .report import (
    render_artifact,
    render_histogram,
    render_profile,
    render_serve_artifact,
    render_timeline,
    render_trace_summary,
)
from .tracing import (
    EVENT_KINDS,
    JsonlTracer,
    ListTracer,
    TraceEvent,
    Tracer,
    load_trace,
    span_sequence,
    validate_events,
)

__all__ = [
    "ArtifactError",
    "BENCH_SCHEMA_ID",
    "Counter",
    "EVENT_KINDS",
    "Gauge",
    "Histogram",
    "Instrument",
    "JsonlTracer",
    "LATENCY_BUCKETS_CYCLES",
    "LIVE_WINDOW_S",
    "ListTracer",
    "MetricsRegistry",
    "P2Quantile",
    "Profiler",
    "RETRY_BUCKETS",
    "SCHEMA_ID",
    "SERVE_SCHEMA_ID",
    "STREAM_QUANTILES",
    "SlidingWindow",
    "TraceEvent",
    "Tracer",
    "activate_profiler",
    "build_artifact",
    "build_serve_artifact",
    "chrome_from_serve_epochs",
    "chrome_trace_doc",
    "chrome_trace_events",
    "deactivate_profiler",
    "export_run",
    "export_serve",
    "get_active_profiler",
    "load_artifact",
    "load_trace",
    "render_artifact",
    "render_dashboard",
    "render_histogram",
    "render_profile",
    "render_serve_artifact",
    "render_timeline",
    "render_trace_summary",
    "run_result_to_dict",
    "span_sequence",
    "validate_artifact",
    "validate_bench_artifact",
    "validate_chrome_events",
    "validate_events",
    "validate_serve_artifact",
    "watch",
    "write_chrome_trace",
]
