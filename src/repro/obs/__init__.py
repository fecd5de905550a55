"""repro.obs — observability for the mining stack.

Tracing, metrics, and search-progress instrumentation, built with the
same **zero-cost-when-disabled** discipline as :mod:`repro.contracts`:
nothing is installed by default, instrumented code guards every
recording site with one local ``None`` check, and enabling is always
explicit and scoped.

The search reaches every collector as a subscriber of one
:class:`~repro.obs.events.SearchEvents` stream. Collectors install
through one table: :func:`observe` and :func:`collect` for a scope,
plus :func:`installed`, :func:`silence` and :func:`absorb_shard` for
the sharded engine's workers and merge.

Submodules
----------
:mod:`repro.obs.events`
    The search-event stream and its subscribers.
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
    module-global sink (metrics, costmodel, provenance, progress,
    live): ``active()``, ``install()``, and scoped ``scope()`` defined
    exactly once.
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
    Unified run reports joining a trace, metrics snapshot (phase,
    per-depth, per-length and histogram tables), live frame log, cost
    profile and provenance (imported on demand; CLI ``ptpminer
    report``).
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

from collections.abc import Callable, Collection, Iterator, Mapping
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Optional, Union

from repro.obs import (
    clock,
    costmodel,
    events,
    live,
    metrics,
    progress,
    provenance,
    seam,
    trace,
)
from repro.obs.costmodel import CostCollector, use_collector
from repro.obs.live import LiveCollector, LiveConfig, use_live
from repro.obs.metrics import MetricsRegistry, use_registry
from repro.obs.progress import ProgressReporter, use_reporter
from repro.obs.provenance import ProvenanceCollector
from repro.obs.seam import CollectorSeam
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
    "absorb_shard",
    "clock",
    "collect",
    "costmodel",
    "events",
    "installed",
    "is_active",
    "live",
    "metrics",
    "observe",
    "progress",
    "provenance",
    "seam",
    "silence",
    "span",
    "trace",
    "traced",
    "use_collector",
    "use_live",
    "use_registry",
    "use_reporter",
    "use_tracer",
]

#: Every installable collector: ``name -> (active, install, factory)``.
_COLLECTORS: dict[str, tuple[Callable[[], Any], Callable[[Any], None], Any]] = {
    "metrics": (metrics.active_registry, metrics.set_registry, MetricsRegistry),
    "trace": (trace.active_tracer, trace.set_tracer, TraceCollector),
    "cost": (costmodel.active_collector, costmodel.set_collector, CostCollector),
    "provenance": (
        provenance.active_collector,
        provenance.set_collector,
        ProvenanceCollector,
    ),
    "progress": (progress.active_reporter, progress.set_reporter, ProgressReporter),
    "live": (live.active_live, live.set_live, LiveCollector),
}

#: The collectors a sharded run replicates in each worker and merges
#: home; progress and live report from the worker as it runs instead.
_SHARD_COLLECTORS = ("metrics", "trace", "cost", "provenance")


def is_active() -> bool:
    """True when any observability sink (tracer/registry/progress) is on."""
    return any(
        _COLLECTORS[name][0]() is not None
        for name in ("trace", "metrics", "progress")
    )


@contextmanager
def _installed(instances: Mapping[str, Any]) -> Iterator[None]:
    """Install ``name -> collector`` for a scope; restore on exit."""
    previous = {name: _COLLECTORS[name][0]() for name in instances}
    for name, instance in instances.items():
        _COLLECTORS[name][1](instance)
    try:
        yield
    finally:
        for name, instance in previous.items():
            _COLLECTORS[name][1](instance)


def installed() -> frozenset[str]:
    """The installed collectors a shard worker replicates: a picklable spec
    (names out of ``metrics``, ``trace``, ``cost``, ``provenance``)."""
    return frozenset(
        name for name in _SHARD_COLLECTORS if _COLLECTORS[name][0]() is not None
    )


def silence() -> None:
    """Uninstall every collector (a forked worker's inherited ones)."""
    for _active, install, _factory in _COLLECTORS.values():
        install(None)


@contextmanager
def collect(names: Collection[str]) -> Iterator[dict[str, Any]]:
    """Scope fresh collectors for ``names``; yield their shard snapshot.

    The yielded dict is filled on exit with one entry per name: each
    collector's ``snapshot()``, or the trace's event list.
    """
    fresh = {name: _COLLECTORS[name][2]() for name in sorted(names)}
    snapshot: dict[str, Any] = {}
    with _installed(fresh):
        yield snapshot
    for name, collector in fresh.items():
        snapshot[name] = (
            collector.events if name == "trace" else collector.snapshot()
        )


def absorb_shard(
    shard: int,
    snapshot: Mapping[str, Any],
    *,
    elapsed: float,
    parent_span: Optional[int],
) -> None:
    """Merge one shard's :func:`collect` snapshot into the installed collectors.

    Metrics land under the ``shard.`` prefix plus one
    ``engine.shard_elapsed_s[shard=<i>]`` gauge; trace events are
    re-emitted as ``shard<i>:<id>`` spans under ``parent_span``; cost
    and provenance snapshots are keyed unions. Every merge is
    order-independent, so shards may arrive in any order.
    """
    registry = metrics.active_registry()
    if registry is not None:
        if snapshot.get("metrics"):
            registry.absorb_snapshot(snapshot["metrics"], prefix="shard.")
        registry.gauge("engine.shard_elapsed_s", shard=shard).set(elapsed)
    tracer = trace.active_tracer()
    if tracer is not None:
        trace.reemit(tracer, snapshot.get("trace", []), shard, parent_span)
    for name in ("cost", "provenance"):
        collector = _COLLECTORS[name][0]()
        if collector is not None and snapshot.get(name):
            collector.absorb(snapshot[name])


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
    chosen = {"metrics": metrics, "trace": tracer, "progress": reporter}
    sinks: dict[str, Any] = {
        name: _COLLECTORS[name][2]() if value is True else value
        for name, value in chosen.items()
        if value is not None and value is not False
    }
    with _installed(sinks):
        yield ObsHandles(
            sinks.get("metrics"), sinks.get("trace"), sinks.get("progress")
        )
