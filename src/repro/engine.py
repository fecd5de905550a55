"""Parallel sharded mining engine.

The engine parallelizes P-TPMiner by sharding its **level-1 fan-out**:
the parent process runs the root of the search exactly once
(:meth:`~repro.core.ptpminer.PTPMiner.plan_root` — validation, point
pruning, encoding, pair tables, and the root candidate gather with full
root-node accounting), partitions the root candidates into serializable
:class:`ShardTask`s, and hands each shard to a worker that expands only
its candidates' subtrees
(:meth:`~repro.core.ptpminer.PTPMiner.search_shard`). Per-shard
patterns, :class:`~repro.core.pruning.PruneCounters`, and observability
data are then merged into a single :class:`~repro.core.ptpminer.MiningResult`.

Determinism guarantee
---------------------
The merged result's pattern list — patterns *and* supports, in the
canonical result order — is identical to the sequential miner's, for any
worker count and any shard partition. So are the merged counters: the
parent accounts the root node once, workers skip root accounting and sum
only their subtrees, and subtree accounting is independent across root
candidates, so ``parent + Σ shards`` reproduces the serial counters
exactly. ``perf compare``'s exact counter gate therefore holds with
``workers > 1``.

Executors
---------
``serial``
    Runs every shard in-process, sequentially. The default (and the
    debugging surface: pure Python stack traces, no pickling).
``process``
    Runs shards on a :class:`concurrent.futures.ProcessPoolExecutor`.
    The database is shipped once per worker via the pool initializer;
    tasks themselves stay small. This module is the **only** place in
    the repository allowed to construct a process pool (lint rule R008).

Observability merge semantics
-----------------------------
The parent's installed collectors become one picklable spec
(:func:`repro.obs.installed`, a set of names). A worker first drops
whatever it inherited (:func:`repro.obs.silence` — a forked child must
not write to inherited handles), then runs each shard under fresh
private collectors of the same kinds (:func:`repro.obs.collect`) and
ships their snapshots home as one :attr:`ShardResult.obs` dict. The
serial executor takes the same path in-process. The parent folds each
shard in with one call, :func:`repro.obs.absorb_shard`, in shard order:

* re-emits trace events with span ids rewritten to ``"shard<i>:<id>"``
  and orphan parents re-hung under the engine's dispatching span, so
  ``--trace`` files stay a single well-formed tree;
* absorbs metrics snapshots under the ``shard.`` prefix
  (:meth:`~repro.obs.metrics.MetricsRegistry.absorb_snapshot`):
  counters add across shards, histograms merge bound-for-bound;
* records one ``engine.shard_elapsed_s[shard=<i>]`` gauge per shard, so
  metrics snapshots carry the load-balance picture (the harness's
  ``shard_imbalance`` column derives from them);
* absorbs cost and provenance snapshots as keyed unions, so they equal
  a serial run's bit for bit.

A worker process that dies breaks the pool; the engine then raises
:class:`ShardCrashError`, naming every unfinished shard and its root
tokens, instead of returning the shards that did finish.

Live telemetry
--------------
``mine_sharded(live=...)`` (or an installed
:func:`repro.obs.live.use_live` scope — what the CLI's ``--live`` and
the harness's ``collect_live=True`` use) streams worker heartbeats to
the parent **during** the run over the :mod:`repro.obs.live` bus:
workers publish throttled frames as each root candidate finishes (the
worker's :class:`~repro.obs.live.LiveSink` subscribes to the search's
``root_done`` event), the
parent drains them from its result-collection loop (a ``multiprocessing``
manager queue for the process executor, a direct callback for the
serial one), and a :class:`~repro.obs.live.LiveAggregator` merges them
into per-shard lanes with a global ETA and straggler callouts. The bus
is never constructed unless live mode is requested — the disabled path
costs one ``None`` check per run.
"""

from __future__ import annotations

import multiprocessing
import queue as _queue
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, field
from typing import Any, Optional, Sequence, Union

from repro import contracts, obs
from repro.core.config import MinerConfig
from repro.core.pruning import PruneCounters
from repro.core.ptpminer import (
    MiningResult,
    PTPMiner,
    RootCandidates,
    _run_snapshot,
)
from repro.model.database import ESequenceDatabase
from repro.model.pattern import PatternWithSupport
from repro.obs import clock as obs_clock
from repro.obs import live as obs_live
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.temporal.endpoint import EncodedDatabase

__all__ = [
    "EXECUTORS",
    "ShardCrashError",
    "ShardResult",
    "ShardTask",
    "ShardedMiner",
    "mine_sharded",
    "plan_shards",
]

#: Valid executor names (``"auto"`` resolves by worker count).
EXECUTORS = ("auto", "serial", "process")

#: One root candidate shipped to a worker:
#: ``((ext_kind, sym, pocc), (weight, (sid, ...)))``.
_TaskCandidate = tuple[tuple[int, int, int], tuple[float, tuple[int, ...]]]


@dataclass(frozen=True, slots=True)
class ShardTask:
    """One worker's slice of the level-1 fan-out. Frozen and picklable.

    The database itself is *not* part of the task — it is shipped once
    per worker process through the pool initializer; tasks carry only
    the shard's root candidates plus enough configuration to rebuild the
    miner identically.
    """

    shard: int
    num_shards: int
    config: MinerConfig
    threshold: float
    candidates: tuple[_TaskCandidate, ...]

    def candidate_map(self) -> RootCandidates:
        """Rebuild the ``candidate -> (weight, sids)`` map the search eats."""
        return {
            cand: (weight, list(sids))
            for cand, (weight, sids) in self.candidates
        }


@dataclass(slots=True)
class ShardResult:
    """What one shard sends home to be merged.

    ``obs`` is the worker's :func:`repro.obs.collect` snapshot — one
    entry per collector the parent had installed — which the parent
    folds in with :func:`repro.obs.absorb_shard`.
    """

    shard: int
    patterns: list[PatternWithSupport]
    counters: PruneCounters
    obs: dict[str, Any] = field(default_factory=dict)
    elapsed: float = 0.0


class ShardCrashError(RuntimeError):
    """A worker process died before its shards finished.

    ``shards`` maps each unfinished shard id to the text of its root
    candidates' tokens, so the failure names the subtrees that were
    never mined rather than returning a partial result.
    """

    def __init__(self, shards: dict[int, list[str]]) -> None:
        self.shards = shards
        listing = "; ".join(
            f"shard {shard} (roots {', '.join(roots)})"
            for shard, roots in sorted(shards.items())
        )
        super().__init__(
            f"a worker process died; unfinished: {listing}"
        )


def plan_shards(
    root: RootCandidates,
    config: MinerConfig,
    threshold: float,
    num_shards: int,
) -> list[ShardTask]:
    """Partition the root candidates into at most ``num_shards`` tasks.

    Candidates are dealt round-robin in canonical (sorted) order, which
    spreads the heavy low-index prefixes across shards. Empty shards are
    never produced; with fewer candidates than shards you get fewer
    tasks. The partition has no effect on the merged result — only on
    load balance (see the module docstring's determinism guarantee).
    """
    if num_shards < 1:
        raise ValueError(f"num_shards must be >= 1, got {num_shards}")
    ordered = sorted(root)
    count = min(num_shards, len(ordered))
    if count == 0:
        return []
    buckets: list[list[_TaskCandidate]] = [[] for _ in range(count)]
    for index, cand in enumerate(ordered):
        weight, sids = root[cand]
        buckets[index % count].append((cand, (weight, tuple(sids))))
    return [
        ShardTask(
            shard=shard,
            num_shards=count,
            config=config,
            threshold=threshold,
            candidates=tuple(bucket),
        )
        for shard, bucket in enumerate(buckets)
    ]


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
#: Per-worker-process payload installed by :func:`_init_worker`.
_WORKER_PAYLOAD: dict[str, Any] = {}


def _init_worker(
    db: ESequenceDatabase,
    weights: Sequence[float],
    collectors: frozenset[str],
    live_queue: Optional[Any] = None,
    live_interval: float = 0.5,
) -> None:
    """Pool initializer: receive the database once, silence inherited obs.

    A forked child inherits the parent's installed collectors; writing
    to those copies would be lost at best and interleave with the
    parent's output at worst, so the worker starts observability from a
    clean slate and scopes its own per-shard ``collectors`` (the
    parent's :func:`repro.obs.installed` spec) in :func:`_run_shard`.
    ``live_queue`` (a manager-queue proxy, present only in live mode)
    is where the worker's :class:`~repro.obs.live.LiveSink` publishes
    heartbeat frames.
    """
    obs.silence()
    _init_payload_inline(
        db,
        weights,
        collectors,
        live_publish=None if live_queue is None else live_queue.put,
        live_interval=live_interval,
    )


def _init_payload_inline(
    db: ESequenceDatabase,
    weights: Sequence[float],
    collectors: frozenset[str],
    *,
    live_publish: Optional[Callable[[dict[str, Any]], None]] = None,
    live_interval: float = 0.5,
) -> None:
    """Point the payload at this run's data (no obs silencing).

    The serial executor calls this directly: same process, so
    ``live_publish`` feeds frames straight to the parent aggregator.
    """
    _WORKER_PAYLOAD["db"] = db
    _WORKER_PAYLOAD["weights"] = list(weights)
    _WORKER_PAYLOAD["collectors"] = collectors
    _WORKER_PAYLOAD["live_publish"] = live_publish
    _WORKER_PAYLOAD["live_interval"] = live_interval


def _run_shard(task: ShardTask) -> ShardResult:
    """Expand one shard (runs inside a worker process, or in-process)."""
    publish = _WORKER_PAYLOAD["live_publish"]
    sink = (
        None
        if publish is None
        else obs_live.LiveSink(
            task.shard,
            len(task.candidates),
            publish,
            min_interval_s=_WORKER_PAYLOAD["live_interval"],
        )
    )
    miner = PTPMiner.from_config(task.config)
    started = obs_clock.now()
    # Private collectors even on the serial executor: the parent's stay
    # shadowed during the search and the snapshots come home through
    # ShardResult, so both executors merge identically.
    with ExitStack() as stack:
        snapshot = stack.enter_context(
            obs.collect(_WORKER_PAYLOAD["collectors"])
        )
        if sink is not None:  # it publishes each root, then a final frame
            stack.enter_context(
                obs_live.use_live(obs_live.LiveCollector(sink=sink))
            )
        patterns, counters = miner.search_shard(
            _WORKER_PAYLOAD["db"],
            _WORKER_PAYLOAD["weights"],
            task.threshold,
            task.candidate_map(),
        )
    elapsed = obs_clock.now() - started
    return ShardResult(task.shard, patterns, counters, snapshot, elapsed)


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
def _run_serial(tasks: list[ShardTask]) -> list[ShardResult]:
    """Run every shard in-process, sequentially."""
    return [_run_shard(task) for task in tasks]


def _run_process(
    tasks: list[ShardTask],
    db: ESequenceDatabase,
    weights: Sequence[float],
    workers: int,
    collectors: frozenset[str],
    live_queue: Optional[Any] = None,
    live_interval: float = 0.5,
    on_frame: Optional[Callable[[dict[str, Any]], None]] = None,
) -> list[ShardResult]:
    """Run shards on a process pool, shipping the database once per worker.

    One future per task. In live mode (``live_queue`` + ``on_frame``
    given) the parent drains heartbeat frames off the queue *while*
    waiting for results — the telemetry bus needs no extra thread, just
    this loop's blocking ``get(timeout=...)``. A worker that dies
    (``BrokenProcessPool``) surfaces as :class:`ShardCrashError`.
    """
    # The one sanctioned process-pool construction site (lint rule R008).
    with ProcessPoolExecutor(
        max_workers=min(workers, len(tasks)),
        initializer=_init_worker,
        initargs=(db, weights, collectors, live_queue, live_interval),
    ) as pool:
        futures = [pool.submit(_run_shard, task) for task in tasks]
        if live_queue is not None and on_frame is not None:
            pending = set(futures)
            poll_s = max(0.05, live_interval / 2)
            while pending:
                try:
                    payload = live_queue.get(timeout=poll_s)
                except _queue.Empty:
                    pass
                else:
                    on_frame(payload)
                pending = {f for f in pending if not f.done()}
            while True:  # drain whatever arrived after the last result
                try:
                    payload = live_queue.get_nowait()
                except _queue.Empty:
                    break
                on_frame(payload)
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            unfinished = [
                task
                for task, future in zip(tasks, futures, strict=True)
                if not future.done()
                or future.cancelled()
                or future.exception() is not None
            ]
            raise ShardCrashError(
                _root_tokens(db, unfinished)
            ) from exc


def _root_tokens(
    db: ESequenceDatabase, tasks: Sequence[ShardTask]
) -> dict[int, list[str]]:
    """Each task's shard id mapped to its root candidates' token text."""
    encoded = EncodedDatabase(db)
    return {
        task.shard: [
            str(encoded.decode_token((sym, pocc)))
            for (_ext, sym, pocc), _support in task.candidates
        ]
        for task in tasks
    }


# ----------------------------------------------------------------------
# the engine entry points
# ----------------------------------------------------------------------
def _resolve_executor(workers: int, executor: str) -> str:
    """Validate ``workers``/``executor``; resolve ``"auto"`` by count."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}"
        )
    if executor == "auto":
        return "serial" if workers == 1 else "process"
    return executor


def _resolve_live(
    live: Union[None, bool, "obs_live.LiveConfig", "obs_live.LiveCollector"],
) -> Optional[obs_live.LiveCollector]:
    """Normalize ``mine_sharded``'s ``live=`` argument to a collector.

    ``None`` defers to the installed :func:`repro.obs.live.use_live`
    scope (so the CLI and harness can enable live mode without plumbing
    an argument through every layer); ``False`` forces it off even with
    a scope installed; ``True`` / a config / a collector turn it on.
    """
    if live is None:
        return obs_live.active_live()
    if live is False:
        return None
    if live is True:
        return obs_live.LiveCollector()
    if isinstance(live, obs_live.LiveConfig):
        return obs_live.LiveCollector(config=live)
    if isinstance(live, obs_live.LiveCollector):
        return live
    raise TypeError(
        "live must be None, a bool, a LiveConfig, or a LiveCollector; "
        f"got {type(live).__name__}"
    )


def mine_sharded(
    db: ESequenceDatabase,
    config: MinerConfig,
    *,
    workers: int = 1,
    executor: str = "auto",
    live: Union[
        None, bool, "obs_live.LiveConfig", "obs_live.LiveCollector"
    ] = None,
) -> MiningResult:
    """Mine ``db`` with the sharded engine.

    Returns a result whose patterns, supports, and counters are
    identical to ``PTPMiner.from_config(config).mine(db)`` for every
    ``workers`` value (see the module docstring for why). ``executor``
    is one of :data:`EXECUTORS`; ``"auto"`` picks ``serial`` for one
    worker and ``process`` otherwise. ``live`` streams shard telemetry
    during the run (see the module docstring); the determinism guarantee
    is unaffected — live mode only changes *when* progress is visible,
    never what is mined.
    """
    resolved = _resolve_executor(workers, executor)
    collector = _resolve_live(live)
    miner = PTPMiner.from_config(config)
    threshold = float(db.absolute_support(config.min_sup))
    weights = [1.0] * len(db)
    collectors = obs.installed()
    live_interval = (
        collector.config.interval_s if collector is not None else 0.5
    )
    started = obs_clock.now()
    with obs_trace.span(
        "mine",
        miner="P-TPMiner",
        mode=config.mode,
        sequences=len(db),
        workers=workers,
        executor=resolved,
    ):
        mining_db, counters, root = miner.plan_root(db, weights, threshold)
        tasks = plan_shards(root, config, threshold, workers)
        aggregator: Optional[obs_live.LiveAggregator] = None
        on_frame: Optional[Callable[[dict[str, Any]], None]] = None
        if collector is not None:
            aggregator = obs_live.LiveAggregator(
                collector.config,
                shard_totals={
                    task.shard: len(task.candidates) for task in tasks
                },
            )
            collector.aggregator = aggregator
            aggregator.open_log()

            def _on_frame(
                payload: dict[str, Any],
                _agg: obs_live.LiveAggregator = aggregator,
            ) -> None:
                _agg.ingest(payload)
                _agg.maybe_render()

            on_frame = _on_frame
        manager: Optional[Any] = None
        try:
            parent_span = obs_trace.current_span_id()
            with obs_trace.span("shards", count=len(tasks)):
                if not tasks:
                    shard_results: list[ShardResult] = []
                elif resolved == "serial":
                    # In-process: point the payload at this run's data.
                    _init_payload_inline(
                        mining_db,
                        weights,
                        collectors,
                        live_publish=on_frame,
                        live_interval=live_interval,
                    )
                    try:
                        shard_results = _run_serial(tasks)
                    finally:  # don't keep the database alive
                        _WORKER_PAYLOAD.clear()
                else:
                    live_queue: Optional[Any] = None
                    if on_frame is not None:
                        # Manager-queue proxies survive the executor's
                        # pickling initargs; plain mp.Queue does not.
                        manager = multiprocessing.Manager()
                        live_queue = manager.Queue()
                    shard_results = _run_process(
                        tasks,
                        mining_db,
                        weights,
                        workers,
                        collectors,
                        live_queue=live_queue,
                        live_interval=live_interval,
                        on_frame=on_frame,
                    )
            with obs_trace.span("merge", shards=len(shard_results)):
                patterns: list[PatternWithSupport] = []
                for result in sorted(shard_results, key=lambda r: r.shard):
                    patterns.extend(result.patterns)
                    counters.merge(result.counters)
                    obs.absorb_shard(
                        result.shard,
                        result.obs,
                        elapsed=result.elapsed,
                        parent_span=parent_span,
                    )
                patterns.sort(key=PatternWithSupport.sort_key)
        finally:
            if manager is not None:
                manager.shutdown()
            if aggregator is not None:
                aggregator.maybe_render(force=True)
                aggregator.close_log()
                if collector is not None:
                    collector.summary = aggregator.summary()
    if contracts.checking:
        counters.check_consistency()
        miner._oracle_check(db, weights, threshold, patterns)
    elapsed = obs_clock.now() - started
    return MiningResult(
        patterns=patterns,
        threshold=threshold,
        db_size=len(db),
        elapsed=elapsed,
        counters=counters,
        metrics=_run_snapshot(
            obs_metrics.active_registry(),
            counters,
            patterns=len(patterns),
            elapsed=elapsed,
            db_size=len(db),
            threshold=threshold,
        ),
        miner="P-TPMiner",
        params={
            **config.describe(),
            "workers": workers,
            "executor": resolved,
            "shards": len(tasks),
        },
    )


class ShardedMiner:
    """P-TPMiner behind the sharded engine; satisfies the Miner protocol.

    A drop-in for :class:`~repro.core.ptpminer.PTPMiner` whose
    :meth:`mine` runs the engine instead of the sequential search —
    with an identical result, per the determinism guarantee.
    """

    def __init__(
        self,
        min_sup: float = 0.1,
        *,
        workers: int = 1,
        executor: str = "auto",
        live: Union[
            None, bool, "obs_live.LiveConfig", "obs_live.LiveCollector"
        ] = None,
        config: Optional[MinerConfig] = None,
        **kwargs: Any,
    ) -> None:
        if config is not None:
            if kwargs:
                raise TypeError(
                    "pass either config= or individual miner options, "
                    "not both"
                )
            self.config = config
        else:
            self.config = MinerConfig.from_kwargs(min_sup=min_sup, **kwargs)
        _resolve_executor(workers, executor)  # fail at construction
        self.workers = workers
        self.executor = executor
        self.live = live

    @classmethod
    def from_config(
        cls,
        config: MinerConfig,
        *,
        workers: int = 1,
        executor: str = "auto",
        live: Union[
            None, bool, "obs_live.LiveConfig", "obs_live.LiveCollector"
        ] = None,
    ) -> "ShardedMiner":
        """Build from a ready-made :class:`MinerConfig`."""
        return cls(
            config=config, workers=workers, executor=executor, live=live
        )

    def mine(self, db: ESequenceDatabase) -> MiningResult:
        """Mine ``db`` through :func:`mine_sharded`."""
        return mine_sharded(
            db,
            self.config,
            workers=self.workers,
            executor=self.executor,
            live=self.live,
        )
