"""Measurement utilities for the experiment harness.

Wraps a mining call with wall-clock timing and Python-heap peak-memory
tracking (``tracemalloc``), returning a flat :class:`RunMetrics` record
the table/figure renderers consume. Peak memory is the *additional* bytes
allocated during the call — the quantity the paper's memory figure plots
(the candidate sets / projected databases), not the interpreter baseline.
Timing flows through the injectable :mod:`repro.obs.clock`, and
``collect_obs=True`` installs a fresh metrics registry for the call so
sweeps can attach per-run observability snapshots to their rows.
"""

from __future__ import annotations

import tracemalloc
from contextlib import ExitStack
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro import obs as _obs
from repro.obs import clock as _obs_clock

__all__ = ["RunMetrics", "measure"]


@dataclass(frozen=True, slots=True)
class RunMetrics:
    """One measured run of a callable.

    ``peak_mem_bytes`` is ``None`` when memory tracking was off — the
    renderers show "—" rather than a misleading ``0``. Each snapshot
    field (``obs``, ``profile``, ``live_summary``, ``cost_profile``,
    ``provenance``) is ``None`` unless :func:`measure` collected it;
    ``live_summary`` also stays ``None`` when the callable never ran
    the sharded engine. ``workers`` (engine workers the callable was
    configured with, 1 for sequential runs) and ``config_fingerprint``
    (:func:`repro.obs.ledger.config_fingerprint`) are provenance stamped
    by the caller: sweeps surface ``workers`` as a column so parallel
    and serial rows are never conflated, and the fingerprint joins
    measured rows against ledger entries.
    """

    result: Any
    elapsed_s: float
    peak_mem_bytes: Optional[int]
    obs: Optional[dict[str, Any]] = None
    profile: Optional[dict[str, Any]] = None
    workers: int = 1
    live_summary: Optional[dict[str, Any]] = None
    cost_profile: Optional[dict[str, Any]] = None
    config_fingerprint: Optional[str] = None
    provenance: Optional[dict[str, Any]] = None

    @property
    def peak_mem_mb(self) -> Optional[float]:
        """Peak additional heap in MiB (``None`` when untracked)."""
        if self.peak_mem_bytes is None:
            return None
        return self.peak_mem_bytes / (1024 * 1024)


def measure(
    fn: Callable[[], Any],
    *,
    track_memory: bool = True,
    collect_obs: bool = False,
    collect_profile: bool = False,
    collect_live: bool = False,
    collect_cost: bool = False,
    collect_provenance: bool = False,
    workers: int = 1,
    fingerprint: Optional[str] = None,
) -> RunMetrics:
    """Run ``fn`` once, measuring wall time and peak heap growth.

    ``track_memory=False`` skips tracemalloc (which itself slows
    allocation-heavy code noticeably) for pure-runtime experiments;
    ``peak_mem_bytes`` is then ``None``, not ``0``. ``collect_obs=True``
    scopes a fresh :class:`~repro.obs.metrics.MetricsRegistry` around the
    call and returns its snapshot in :attr:`RunMetrics.obs`.
    ``collect_profile=True`` additionally scopes a per-phase
    :class:`~repro.obs.profile.PhaseProfiler` (memory attribution on iff
    ``track_memory``) and returns its serialised report in
    :attr:`RunMetrics.profile`. ``collect_live=True`` scopes a silent
    (``render=False``) live telemetry collector around the call — if the
    callable runs :func:`repro.engine.mine_sharded`, the engine streams
    shard heartbeats into it and :attr:`RunMetrics.live_summary` carries
    the final lane summary (shard imbalance, stragglers); callables that
    never hit the engine leave it ``None``. ``collect_cost=True`` scopes
    a fresh :class:`~repro.obs.costmodel.CostCollector` around the call
    and returns its snapshot in :attr:`RunMetrics.cost_profile` —
    sharded callables merge worker snapshots into it through the engine,
    so the profile is identical to a serial run's.
    ``collect_provenance=True`` scopes a fresh
    :class:`~repro.obs.provenance.ProvenanceCollector` the same way and
    returns its snapshot in :attr:`RunMetrics.provenance` — the engine
    merges worker snapshots order-independently, so sharded provenance
    is bit-for-bit equal to a serial run's.

    Measurement hygiene — how the flags interact:

    * ``collect_obs=True`` with ``track_memory=True`` installs the
      registry *outside* the tracemalloc window, so the registry's own
      allocations (counter/histogram dicts) **do** count toward
      ``peak_mem_bytes`` while instrumented code runs. The effect is a
      few KiB — negligible next to candidate sets, but not zero; a
      memory *baseline* must therefore come from a plain
      ``track_memory=True`` run with both collection flags off, which is
      exactly what :mod:`repro.perf` enforces by timing and
      memory-measuring in separate, un-instrumented runs.
    * ``collect_profile=True`` inflates ``elapsed_s`` (cProfile hooks
      every call; tracemalloc every allocation) — profile numbers
      attribute cost, they are not benchmark timings.
    * ``collect_provenance=True`` records every emitted pattern's
      support set and every prune decision: the heaviest collector by
      memory and time (×1.4 on scalebench's hybrid-observed, where cost
      and metrics are not separable from 1), so benchmark timings keep
      every collector off.
    * If tracemalloc is *already tracing* when ``measure`` is called
      (nested ``measure``, or an enclosing
      :func:`~repro.obs.profile.profile_scope`), the inner call reuses
      the outer trace: it resets the peak, measures growth relative to
      the current heap, and leaves tracemalloc running on exit.

    ``workers`` is pure provenance: it does not change how ``fn`` runs
    (the callable itself decides that, e.g. via
    :func:`repro.engine.mine_sharded`), it only stamps the returned
    :attr:`RunMetrics.workers` so downstream rows carry the setting.
    ``fingerprint`` is provenance the same way — it is stamped onto
    :attr:`RunMetrics.config_fingerprint` unchanged. Note that with
    ``workers > 1`` and a process executor, ``peak_mem_bytes`` only
    tracks the parent process's heap — worker allocations are invisible
    to tracemalloc.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    names = {
        name
        for name, wanted in (
            ("metrics", collect_obs),
            ("cost", collect_cost),
            ("provenance", collect_provenance),
        )
        if wanted
    }
    with ExitStack() as stack:
        profiler = None
        if collect_profile:
            from repro.obs.profile import profile_scope

            profiler = stack.enter_context(
                profile_scope(memory=track_memory)
            )
        snapshots = stack.enter_context(_obs.collect(names))
        live = (
            stack.enter_context(
                _obs.use_live(_obs.LiveConfig(render=False))
            )
            if collect_live
            else None
        )
        result, elapsed, peak_mem_bytes = _run(fn, track_memory)
    return RunMetrics(
        result,
        elapsed,
        peak_mem_bytes,
        obs=snapshots.get("metrics"),
        profile=None if profiler is None else profiler.report().as_dict(),
        workers=workers,
        live_summary=None if live is None else live.summary,
        cost_profile=snapshots.get("cost"),
        config_fingerprint=fingerprint,
        provenance=snapshots.get("provenance"),
    )


def _run(
    fn: Callable[[], Any], track_memory: bool
) -> tuple[Any, float, Optional[int]]:
    """Call ``fn``: its result, wall seconds and peak heap growth."""
    if not track_memory:
        started = _obs_clock.now()
        result = fn()
        return result, _obs_clock.now() - started, None
    already_tracing = tracemalloc.is_tracing()
    if not already_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    base, _ = tracemalloc.get_traced_memory()
    started = _obs_clock.now()
    try:
        result = fn()
        elapsed = _obs_clock.now() - started
        _, peak = tracemalloc.get_traced_memory()
    finally:
        if not already_tracing:
            tracemalloc.stop()
    return result, elapsed, max(0, peak - base)
