"""The search-event stream: the one seam between the search and its collectors.

P-TPMiner's depth-first search reports what it does through a single
:class:`SearchEvents` object. :func:`open_search` builds it once per
search from whatever collectors are installed and returns ``None`` when
none is, so the disabled path costs one ``events is not None`` branch
per recording site (the :mod:`repro.contracts` discipline).

================  ====================================================
event             raised when
================  ====================================================
``node``          a search node gathered its candidate extensions
``killed``        a candidate (or, with ``cand=None``, a node's whole
                  subtree) died at one of
                  :data:`repro.core.pruning.PRUNE_SITES`
``frequent``      a candidate passed the support check and was projected
``emitted``       a complete pattern was emitted, with its projection
``root_started``  the search entered a level-1 root candidate
``root_done``     the search left it (expanded or killed)
``done``          the search finished
================  ====================================================

A subscriber implements ``on_<event>`` for the events it uses. One is
built per installed collector: the metrics registry, cost collector,
provenance collector, progress reporter and live sink. The tracer is
not a subscriber: spans bracket work rather than report facts, so the
search keeps its ``obs_on`` span guard.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from typing import Any, Optional

from repro.obs import clock, costmodel, live, metrics, progress, provenance

__all__ = ["EVENTS", "SearchEvents", "open_search"]

EVENTS = (
    "node", "killed", "frequent", "emitted", "root_started", "root_done", "done"
)

#: A candidate extension as the search holds it: ``(ext, sym, pocc)``.
Candidate = tuple[int, int, int]

#: A projection: ``(sid, states)`` pairs.
Projection = Sequence[tuple[int, Sequence[Any]]]

#: Histogram bounds for candidates discovered per search node.
_CANDIDATE_BUCKETS = (0.0, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0)


class SearchEvents:
    """One search's event stream, fanned out to its subscribers.

    Subscribers may read the search's live ``counters``
    (:class:`~repro.core.pruning.PruneCounters`), its ``encoded``
    database and its ``pointsets`` (the pattern state, mutated in place
    along the DFS) while they handle an event. :attr:`root` is the token
    of the root being expanded (``""`` outside any root); :attr:`tally`
    collects projection-side counts (``states_deduped``) that have no
    search counter.
    """

    __slots__ = ("counters", "encoded", "pointsets", "root", "tally", "_on")

    def __init__(
        self, counters: Any, encoded: Any, pointsets: Sequence[Any]
    ) -> None:
        self.counters = counters
        self.encoded = encoded
        self.pointsets = pointsets
        self.root = ""
        self.tally: dict[str, int] = {}
        self._on: dict[str, list[Callable[..., None]]] = {
            name: [] for name in EVENTS
        }

    def subscribe(self, subscriber: object) -> None:
        """Route every event ``subscriber`` has an ``on_<event>`` for."""
        for name in EVENTS:
            handler = getattr(subscriber, f"on_{name}", None)
            if handler is not None:
                self._on[name].append(handler)

    def token_text(self, cand: Candidate) -> str:
        """Display text of ``cand``'s endpoint token (e.g. ``A+``)."""
        return str(self.encoded.decode_token((cand[1], cand[2])))

    def node(self, depth: int, candidates: Mapping[Candidate, Any]) -> None:
        """A node at ``depth`` tokens gathered ``candidates``."""
        for handler in self._on["node"]:
            handler(depth, candidates)

    def killed(
        self,
        site: str,
        level: int,
        cand: Optional[Candidate] = None,
        *,
        support: Optional[float] = None,
        threshold: Optional[float] = None,
    ) -> None:
        """A candidate reaching ``level`` tokens died at ``site``.

        ``cand=None`` means the current node's whole subtree died
        (``postfix_branch``, ``max_tokens``); ``level`` is then the
        node's own depth.
        """
        for handler in self._on["killed"]:
            handler(site, level, cand, support, threshold)

    def frequent(self, level: int, projected: Projection) -> None:
        """A frequent candidate of ``level`` tokens was projected."""
        for handler in self._on["frequent"]:
            handler(level, projected)

    def emitted(
        self, level: int, pattern: Any, support: float, projected: Projection
    ) -> None:
        """A complete pattern of ``level`` tokens was emitted."""
        for handler in self._on["emitted"]:
            handler(level, pattern, support, projected)

    def enter_root(self, cand: Candidate) -> None:
        """Start root candidate ``cand``, finishing the previous root.

        Raising ``root_done`` here and in :meth:`done`, not at the end
        of a root's loop iteration, also covers the roots the search
        kills with a bare ``continue``.
        """
        self._leave_root()
        self.root = self.token_text(cand)
        for handler in self._on["root_started"]:
            handler(self.root)

    def done(self) -> None:
        """The search finished."""
        self._leave_root()
        for handler in self._on["done"]:
            handler()

    def _leave_root(self) -> None:
        if self.root:
            for handler in self._on["root_done"]:
                handler(self.root)
            self.root = ""


def open_search(
    counters: Any, encoded: Any, pointsets: Sequence[Any]
) -> Optional[SearchEvents]:
    """The event stream for one search, or ``None`` with nothing installed."""
    live_handle = live.active_live()
    installed = (
        metrics.active_registry(),
        costmodel.active_collector(),
        provenance.active_collector(),
        progress.active_reporter(),
        None if live_handle is None else live_handle.sink,
    )
    if all(collector is None for collector in installed):
        return None
    registry, cost, prov, reporter, sink = installed
    events = SearchEvents(counters, encoded, pointsets)
    if registry is not None:
        events.subscribe(_SearchShape(registry, events.tally))
    if cost is not None:
        events.subscribe(_CostFunnel(cost, counters.as_dict))
    if prov is not None:
        events.subscribe(provenance.ProvenanceSubscriber(prov, events))
    if reporter is not None:
        events.subscribe(_Heartbeat(reporter, counters))
    if sink is not None:
        events.subscribe(_LiveRoots(sink, counters))
    return events


class _SearchShape:
    """Metrics: the DFS shape, as ``search.*`` counters and a histogram."""

    def __init__(
        self, registry: metrics.MetricsRegistry, tally: Mapping[str, int]
    ) -> None:
        self.registry = registry
        self.tally = tally
        self.candidates_by_ext = [0, 0]
        self.pruned_by_ext = [0, 0]

    def on_node(self, depth: int, candidates: Mapping[Candidate, Any]) -> None:
        self.registry.histogram(
            "search.candidates_per_node", buckets=_CANDIDATE_BUCKETS
        ).observe(len(candidates))
        for cand in candidates:
            self.candidates_by_ext[cand[0]] += 1

    def on_killed(
        self, site: str, level: int, cand: Optional[Candidate], *_: Any
    ) -> None:
        if site == "pair" and cand is not None:
            self.pruned_by_ext[cand[0]] += 1

    def on_frequent(self, level: int, projected: Projection) -> None:
        self.registry.counter("search.states_by_depth", depth=level).inc(
            sum(len(states) for _sid, states in projected)
        )

    def on_emitted(self, level: int, *_: Any) -> None:
        self.registry.counter("search.patterns_by_length", tokens=level).inc()

    def on_done(self) -> None:
        for ext_kind, ext_name in enumerate(("I", "S")):
            self.registry.counter("search.candidates", ext=ext_name).inc(
                self.candidates_by_ext[ext_kind]
            )
            self.registry.counter("search.pruned_pair", ext=ext_name).inc(
                self.pruned_by_ext[ext_kind]
            )
        if self.tally:
            self.registry.counter("search.states_deduped").inc(
                self.tally.get("states_deduped", 0)
            )


class _CostFunnel:
    """Cost: the per-level funnel and per-root subtree attribution."""

    def __init__(
        self,
        collector: costmodel.CostCollector,
        counter_totals: Callable[[], Mapping[str, int]],
    ) -> None:
        self.collector = collector
        self.counter_totals = counter_totals
        self.root_t0 = 0.0
        self.root_before: Mapping[str, int] = {}

    def on_node(self, depth: int, candidates: Mapping[Candidate, Any]) -> None:
        # Funnel rows are keyed by *candidate* level (the pattern length
        # an extension would reach), so a node at depth d feeds row d+1
        # — the same row its frequent survivors and patterns land in.
        self.collector.record_node(depth + 1, len(candidates))

    def on_frequent(self, level: int, *_: Any) -> None:
        self.collector.record_frequent(level)

    def on_emitted(self, level: int, *_: Any) -> None:
        self.collector.record_pattern(level)

    def on_root_started(self, root: str) -> None:
        self.root_t0 = clock.now()
        self.root_before = self.counter_totals()

    def on_root_done(self, root: str) -> None:
        # A root the support check killed did no work and gets no row.
        # Each expanded root lives in exactly one shard, so merged
        # profiles are unions, never sums.
        after = self.counter_totals()
        before = self.root_before
        if after["candidates_frequent"] != before["candidates_frequent"]:
            self.collector.record_root(
                root, clock.now() - self.root_t0, before, after
            )


class _Heartbeat:
    """Progress: one tick per expanded node, a final beat at ``done``."""

    def __init__(
        self, reporter: progress.ProgressReporter, counters: Any
    ) -> None:
        self.reporter = reporter
        self.counters = counters

    def _totals(self) -> dict[str, int]:
        counters = self.counters
        return {
            "patterns": counters.patterns_emitted,
            "candidates": counters.candidates_considered,
            "pruned": counters.pruned_pair,
        }

    def on_node(self, depth: int, candidates: Mapping[Candidate, Any]) -> None:
        self.reporter.tick(depth=depth, **self._totals())

    def on_killed(
        self, site: str, level: int, cand: Optional[Candidate], *_: Any
    ) -> None:
        if cand is None:  # a node that was expanded, then cut whole
            self.reporter.tick(depth=level, **self._totals())

    def on_done(self) -> None:
        self.reporter.finish(depth=0, **self._totals())


class _LiveRoots:
    """Live: a (throttled) shard frame per finished root, a final at ``done``."""

    def __init__(self, sink: live.LiveSink, counters: Any) -> None:
        self.sink = sink
        self.counters = counters
        self.roots_done = 0

    def on_root_done(self, root: str) -> None:
        self.roots_done += 1
        self.sink.on_root(
            self.roots_done,
            self.sink.roots_total,
            self.counters.patterns_emitted,
            self.counters.as_dict(),
        )

    def on_done(self) -> None:
        totals = self.counters.as_dict()
        self.sink.finish(
            totals["patterns_emitted"],
            {key: float(value) for key, value in totals.items()},
        )
