"""repro.obs — observability for the mining stack.

Tracing, metrics, and search-progress instrumentation, built with the
same **zero-cost-when-disabled** discipline as :mod:`repro.contracts`:
nothing is installed by default, instrumented code guards every
recording site with one local ``None`` check, and enabling is always
explicit and scoped.

Submodules
----------
:mod:`repro.obs.clock`
    The single injectable monotonic clock every timestamp flows through.
:mod:`repro.obs.trace`
    Span-based tracing (``span()`` context manager, ``@traced``
    decorator, JSONL exporter, in-memory collector).
:mod:`repro.obs.metrics`
    Registry of named counters, gauges, and fixed-bucket histograms with
    a JSON-able snapshot.
:mod:`repro.obs.progress`
    Throttled search heartbeats (every N nodes or T seconds).
:mod:`repro.obs.live`
    Live shard telemetry bus for sharded runs: worker-side
    :class:`~repro.obs.live.LiveSink` heartbeats, parent-side
    :class:`~repro.obs.live.LiveAggregator` lanes/ETA/stragglers
    (CLI ``mine --live``).
:mod:`repro.obs.costmodel`
    Per-root / per-level search cost attribution: which search-tree
    roots the time, states, and prune work go to, merged
    deterministically across shards (CLI ``mine --cost-profile``).
:mod:`repro.obs.provenance`
    Pattern provenance and prune-decision audit: per emitted pattern
    the supporting sids plus one witness embedding each, per killed
    candidate the prune site/level/root, merged deterministically
    across shards (CLI ``mine --provenance``, ``ptpminer explain`` /
    ``why-not`` / ``diff --patterns``).
:mod:`repro.obs.seam`
    The :class:`~repro.obs.seam.CollectorSeam` primitive behind every
    module-global sink (metrics, costmodel, provenance): ``active()``,
    ``install()``, and scoped ``scope()`` defined exactly once.
:mod:`repro.obs.ledger`
    Persistent append-only run ledger with config/environment
    fingerprints and cross-run regression diffing (imported on
    demand; CLI ``mine --ledger-dir``, ``ptpminer history``/``diff``).
:mod:`repro.obs.warnonce`
    Once-per-file warning dedup shared by every reader that skips
    garbage lines (trace, live log, ledger), so joined sources don't
    repeat the same corruption warning.
:mod:`repro.obs.chrometrace`
    Chrome trace-event / Perfetto exporter for JSONL span traces
    (imported on demand; run as ``python -m repro.obs.chrometrace``).
:mod:`repro.obs.runreport`
    Unified run reports joining a trace, metrics snapshot, and live
    frame log (imported on demand; CLI ``ptpminer report``).
:mod:`repro.obs.report`
    Renders a snapshot as per-phase / per-depth summary tables
    (imported on demand; run as ``python -m repro.obs.report``).
:mod:`repro.obs.profile`
    Per-phase profiling hooks: one ``cProfile`` profile per top-level
    phase span, a collapsed-stack ("folded") exporter for flamegraph
    tooling, and a tracemalloc-based per-phase allocation attributor
    (imported on demand; render with ``python -m repro.obs.profile``).

Enabling
--------
>>> from repro import obs
>>> with obs.observe(metrics=True) as handles:
...     pass  # any mining call here records into handles.registry
>>> sorted(handles.registry.snapshot())
['counters', 'gauges', 'histograms']

or install pieces individually with ``metrics.use_registry(...)``,
``trace.use_tracer(...)``, ``progress.use_reporter(...)``. The CLI flags
``--trace``, ``--metrics-out`` and ``--progress`` wrap the same calls.
"""

from __future__ import annotations

from collections.abc import Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from typing import Optional, Union

from repro.obs import (
    clock,
    costmodel,
    live,
    metrics,
    progress,
    provenance,
    seam,
    trace,
)
from repro.obs.costmodel import CostCollector, use_collector
from repro.obs.live import LiveCollector, LiveConfig, use_live
from repro.obs.provenance import ProvenanceCollector
from repro.obs.seam import CollectorSeam
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.progress import ProgressReporter, use_reporter
from repro.obs.trace import (
    JsonlTraceWriter,
    TraceCollector,
    span,
    traced,
    use_tracer,
)

__all__ = [
    "CollectorSeam",
    "CostCollector",
    "JsonlTraceWriter",
    "LiveCollector",
    "LiveConfig",
    "MetricsRegistry",
    "ObsHandles",
    "ProgressReporter",
    "ProvenanceCollector",
    "TraceCollector",
    "clock",
    "costmodel",
    "is_active",
    "live",
    "metrics",
    "observe",
    "progress",
    "provenance",
    "seam",
    "span",
    "trace",
    "traced",
    "use_collector",
    "use_live",
    "use_registry",
    "use_reporter",
    "use_tracer",
]


def is_active() -> bool:
    """True when any observability sink (tracer/registry/progress) is on."""
    return (
        trace.active_tracer() is not None
        or metrics.active_registry() is not None
        or progress.active_reporter() is not None
    )


@dataclass(frozen=True, slots=True)
class ObsHandles:
    """What :func:`observe` installed for the duration of its scope."""

    registry: Optional[MetricsRegistry]
    tracer: Optional[trace.Tracer]
    reporter: Optional[ProgressReporter]


@contextmanager
def observe(
    *,
    metrics: Union[MetricsRegistry, bool, None] = None,
    tracer: Union[trace.Tracer, bool, None] = None,
    reporter: Union[ProgressReporter, bool, None] = None,
) -> Iterator[ObsHandles]:
    """Install any combination of observability sinks for a scope.

    ``obs.observe(metrics=True)`` installs a fresh registry;
    ``tracer=True`` installs an in-memory :class:`TraceCollector`;
    ``reporter=True`` a default stderr :class:`ProgressReporter`.
    Existing instances may be passed instead of ``True``. Everything is
    uninstalled (previous sinks restored) on exit.
    """
    registry: Optional[MetricsRegistry]
    if metrics is True:
        registry = MetricsRegistry()
    elif metrics is False or metrics is None:
        registry = None
    else:
        registry = metrics
    trace_sink: Optional[trace.Tracer]
    if tracer is True:
        trace_sink = TraceCollector()
    elif tracer is False or tracer is None:
        trace_sink = None
    else:
        trace_sink = tracer
    progress_sink: Optional[ProgressReporter]
    if reporter is True:
        progress_sink = ProgressReporter()
    elif reporter is False or reporter is None:
        progress_sink = None
    else:
        progress_sink = reporter
    with ExitStack() as stack:
        if registry is not None:
            stack.enter_context(use_registry(registry))
        if trace_sink is not None:
            stack.enter_context(use_tracer(trace_sink))
        if progress_sink is not None:
            stack.enter_context(use_reporter(progress_sink))
        yield ObsHandles(registry, trace_sink, progress_sink)
