"""Observability for the reproduction's own runs (spans, metrics, export).

See :mod:`repro.obs.spans` for the tracing model, :mod:`repro.obs.metrics`
for the process-wide metrics registry, and :mod:`repro.obs.export` for the
JSONL / Chrome ``trace_event`` / terminal exporters.
"""

from .export import (
    chrome_trace,
    export_trace,
    summarize,
    trace_events,
    validate_trace_events,
    write_chrome_trace,
    write_jsonl,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    diff_snapshots,
    registry,
)
from .spans import (
    SIM,
    WALL,
    CounterSample,
    Span,
    SpanBatch,
    Tracer,
    current_tracer,
    maybe_span,
    sim_track_pid,
    start_tracing,
    stop_tracing,
    trace_path_from_env,
    tracing_enabled,
    use_tracing,
    wall_now_us,
)

__all__ = [
    "SIM",
    "WALL",
    "CounterSample",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "Span",
    "SpanBatch",
    "Tracer",
    "chrome_trace",
    "current_tracer",
    "diff_snapshots",
    "export_trace",
    "maybe_span",
    "registry",
    "sim_track_pid",
    "start_tracing",
    "stop_tracing",
    "summarize",
    "trace_events",
    "trace_path_from_env",
    "tracing_enabled",
    "use_tracing",
    "validate_trace_events",
    "wall_now_us",
    "write_chrome_trace",
    "write_jsonl",
]
