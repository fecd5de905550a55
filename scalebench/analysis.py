"""Pure arithmetic of the scale benchmark: spans, layers, checks, metrics.

Nothing here imports ``repro`` or touches a clock, so all of it is
testable on synthetic inputs (``scalebench/tests``).

* :func:`spans_from_events` pairs the ``B``/``E`` events that
  ``repro.obs.trace`` emits into :class:`Span` records.
* :func:`self_time` is a span's duration less the union of its
  children's intervals (clipped to the span), so the self times of a
  subtree add up to the duration of its root.
* :func:`serial_layers` / :func:`sharded_layers` fold one traced mine
  into named layers; :func:`layer_metrics` turns them, and the run's
  untraced samples, into the per-layer metrics.
* :func:`count_failures` is the correctness gate: an operation fails if
  it raised, or if its result differs from the reference.
"""

from __future__ import annotations

import statistics
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any, Optional

#: The exact search counters, as ``PruneCounters.as_dict()`` names them.
COUNTERS = (
    "nodes_expanded",
    "candidates_considered",
    "candidates_frequent",
    "states_created",
    "pruned_dead_states",
    "pruned_pair",
    "pruned_postfix_branches",
    "pruned_point_labels",
    "patterns_emitted",
)

#: Reference speed: a run's times are scaled to a box on which the
#: calibration loop (``measure._calibration_s``, timed next to every
#: sample) takes this long, by the run's median loop time. The shared
#: host this benchmark runs on drifts by up to 2x in speed over tens of
#: seconds; the loop drifts with it.
CALIBRATION_REF_S = 0.008

#: Collector settings of the collector-cost pass; ``all`` installs the
#: other three together.
COLLECTORS = ("all", "cost", "provenance", "metrics")

# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Span:
    """One finished span: ``[start, end]`` with its parent link."""

    id: Any
    parent: Any
    name: str
    start: float
    end: float
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def dur(self) -> float:
        """Duration in seconds."""
        return self.end - self.start


_EVENT_KEYS = frozenset({"ev", "span", "parent", "name", "ts"})


def spans_from_events(events: Iterable[Mapping[str, Any]]) -> dict[Any, Span]:
    """Pair begin/end events into spans, keyed by id, in start order.

    Spans that never ended are dropped: they cover no measurable time.
    """
    begins: dict[Any, Mapping[str, Any]] = {}
    ends: dict[Any, float] = {}
    for event in events:
        if event["ev"] == "B":
            begins[event["span"]] = event
        elif event["ev"] == "E":
            ends[event["span"]] = float(event["ts"])
    return {
        span_id: Span(
            id=span_id,
            parent=begin.get("parent"),
            name=str(begin["name"]),
            start=float(begin["ts"]),
            end=ends[span_id],
            attrs={k: v for k, v in begin.items() if k not in _EVENT_KEYS},
        )
        for span_id, begin in begins.items()
        if span_id in ends
    }


def children_index(spans: Mapping[Any, Span]) -> dict[Any, list[Span]]:
    """Map each span id to its direct children, in start order."""
    index: dict[Any, list[Span]] = {span_id: [] for span_id in spans}
    for span in spans.values():
        if span.parent in index:
            index[span.parent].append(span)
    return index


def descendants(index: Mapping[Any, list[Span]], root: Span) -> list[Span]:
    """``root`` and every span below it, depth first."""
    out = [root]
    stack = list(reversed(index.get(root.id, [])))
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(reversed(index.get(span.id, [])))
    return out


def self_time(span: Span, children: Sequence[Span]) -> float:
    """``span``'s duration less the union of its children's intervals.

    Children are clipped to the span, and overlapping children (worker
    spans that run side by side) are counted once.
    """
    intervals = sorted(
        (max(child.start, span.start), min(child.end, span.end))
        for child in children
    )
    covered = 0.0
    cursor = span.start
    for lo, hi in intervals:
        lo = max(lo, cursor)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.dur - covered


def shard_of(span_id: Any) -> Optional[int]:
    """The shard index of a worker span id ``"shard<i>:<id>"``, else None."""
    if isinstance(span_id, str) and span_id.startswith("shard"):
        head, sep, _ = span_id.partition(":")
        if sep and head[5:].isdigit():
            return int(head[5:])
    return None


#: Serial layers, in the order the report lists them. Their self times
#: add up to the traced mine; ``gap`` is the part no layer span covers.
SERIAL_LAYERS = (
    "prune",
    "encode",
    "pair_tables",
    "search.root",
    "search.gather",
    "search.project",
    "search.self",
    "gap",
)


def _serial_layer(span: Span) -> str:
    if span.name in ("prune", "encode", "pair_tables"):
        return span.name
    if span.name == "extend":
        return "search.root" if span.attrs.get("depth") == 0 else "search.gather"
    if span.name == "project":
        return "search.project"
    if span.name == "search":
        return "search.self"
    return "gap"


def serial_layers(
    index: Mapping[Any, list[Span]], root: Span
) -> dict[str, float]:
    """Fold one traced serial mine (the span ``root``) into its layers.

    Returns the self seconds of every :data:`SERIAL_LAYERS` entry, plus
    ``total`` (the root's duration) and the ``gather_calls`` /
    ``project_calls`` span counts.
    """
    out = dict.fromkeys(SERIAL_LAYERS, 0.0)
    out.update(total=root.dur, gather_calls=0.0, project_calls=0.0)
    for span in descendants(index, root):
        layer = _serial_layer(span)
        out[layer] += self_time(span, index.get(span.id, []))
        if layer == "search.gather":
            out["gather_calls"] += 1
        elif layer == "search.project":
            out["project_calls"] += 1
    return out


def sharded_layers(
    index: Mapping[Any, list[Span]], root: Span
) -> dict[str, float]:
    """Fold one traced sharded mine (the span ``root``) into engine layers.

    Worker spans are the ones re-emitted under ``shard<i>:`` ids. A
    worker's busy time is the sum of its top-level spans; ``dispatch``
    is the ``shards`` span less the busiest worker, i.e. pool start-up,
    pickling and result transport on the critical path.
    """
    busy: dict[int, float] = {}
    search: dict[int, float] = {}
    prepare = shards = merge = 0.0
    for span in descendants(index, root):
        shard = shard_of(span.id)
        if shard is None:
            if span.name == "shards":
                shards += span.dur
            elif span.name == "merge":
                merge += span.dur
            continue
        busy.setdefault(shard, 0.0)
        search.setdefault(shard, 0.0)
        if shard_of(span.parent) != shard:
            busy[shard] += span.dur
        if span.name in ("encode", "pair_tables"):
            prepare += span.dur
        elif span.name == "search":
            search[shard] += span.dur
    workers = len(search)
    return {
        "worker_prepare": prepare,
        "worker_search_max": max(search.values(), default=0.0),
        "worker_search_mean": sum(search.values()) / workers if workers else 0.0,
        "dispatch": shards - max(busy.values(), default=0.0),
        "merge": merge,
        "shards": float(workers),
    }


def bench_roots(spans: Mapping[Any, Span], name: str) -> list[Span]:
    """The benchmark-owned spans called ``name``, in start order."""
    return [span for span in spans.values() if span.name == name]


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median_or_zero(values: Sequence[float]) -> float:
    """Median of ``values``; 0.0 for an empty list."""
    return float(statistics.median(values)) if values else 0.0


def ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, 0.0 when the base is 0."""
    return numerator / denominator if denominator else 0.0


def speed_factor(ops: Sequence[Mapping[str, Any]]) -> float:
    """Factor that puts a run's times on the reference speed.

    One factor per run, from the median of all its calibration samples:
    a single loop is too short to say how fast one mine ran, but the
    run's median says how fast the box ran while the run lasted.
    """
    return ratio(CALIBRATION_REF_S, median_or_zero([op["cal"] for op in ops]))


def samples(
    ops: Sequence[Mapping[str, Any]],
    kind: str,
    key: str = "wall",
    collectors: Optional[str] = None,
) -> list[float]:
    """``key`` of every successful untraced op of ``kind``.

    With ``collectors`` only mines run with that collector setting count.
    """
    return [
        op[key]
        for op in ops
        if op["kind"] == kind
        and not op.get("error")
        and not op.get("traced")
        and (collectors is None or op.get("collectors") == collectors)
    ]


def paired_ratios(
    ops: Sequence[Mapping[str, Any]], setting: str
) -> list[float]:
    """On/off wall ratios of the collector pass for one ``setting``.

    Ops carry a ``pair`` id ``(setting, round)``; each pair holds one
    mine with ``setting`` on and one with every collector off.
    """
    on: dict[tuple[Any, ...], float] = {}
    off: dict[tuple[Any, ...], float] = {}
    for op in ops:
        pair = op.get("pair")
        if pair is None or op.get("error") or pair[0] != setting:
            continue
        (on if op["collectors"] == setting else off)[tuple(pair)] = op["wall"]
    return [on[key] / off[key] for key in sorted(on) if off.get(key)]


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def count_failures(
    ops: Sequence[Mapping[str, Any]],
    reference: Optional[Mapping[str, Any]] = None,
) -> int:
    """Number of failed operations.

    An operation fails if it raised (``error`` set). A mine also fails if
    any field of its ``result`` (pattern digest, counters, snapshot
    digests) differs from the expected result: the first successful
    serial mine's, overridden by ``reference`` where given. Fields a
    result lacks are not compared, so a mine with collectors off is
    checked on digest and counters only.
    """
    expected: dict[str, Any] = {}
    for op in ops:
        if op["kind"] == "mine" and not op.get("error"):
            expected = dict(op["result"])
            break
    expected.update(reference or {})
    failed = 0
    for op in ops:
        if op.get("error"):
            failed += 1
            continue
        result = op.get("result")
        if result is None:
            continue
        if any(key in result and result[key] != value for key, value in expected.items()):
            failed += 1
    return failed


# ----------------------------------------------------------------------
# metric assembly
# ----------------------------------------------------------------------
def end_to_end_metrics(
    ops: Sequence[Mapping[str, Any]], peak_rss_mib: float
) -> dict[str, float]:
    """The end-to-end metrics of an untraced run: calibrated medians."""
    factor = speed_factor(ops)
    return {
        "setup_s": median_or_zero(samples(ops, "load")) * factor,
        "mine_s": median_or_zero(samples(ops, "mine")) * factor,
        "mine_w2_s": median_or_zero(samples(ops, "mine_w2")) * factor,
        "peak_rss_mib": peak_rss_mib,
    }


def layer_metrics(
    events: Iterable[Mapping[str, Any]],
    ops: Sequence[Mapping[str, Any]],
    *,
    bytes_in: int,
    payload_bytes: int,
    observed: bool,
) -> dict[str, float]:
    """The per-layer metrics of a traced run.

    ``events`` is the run's trace; ``ops`` its operation records, where
    the traced mines carry ``traced: True`` and the collector pass
    carries ``pair`` ids. With ``observed`` the workload's own setting is
    ``all`` collectors, else ``off``.
    """
    spans = spans_from_events(events)
    index = children_index(spans)
    factor = speed_factor(ops)
    counts = ("gather_calls", "project_calls", "shards")

    def calibrated(row: dict[str, float]) -> dict[str, float]:
        return {k: v if k in counts else v * factor for k, v in row.items()}

    serial = [
        calibrated(serial_layers(index, root)) for root in bench_roots(spans, "bench.mine")
    ]
    sharded = [
        calibrated(sharded_layers(index, root))
        for root in bench_roots(spans, "bench.mine_w2")
    ]

    def total(rows: Sequence[Mapping[str, float]], key: str) -> float:
        return sum(row[key] for row in rows)

    prepare = sum(total(serial, layer) for layer in ("prune", "encode", "pair_tables"))
    traced_total = total(serial, "total")
    counters = {name: 0.0 for name in COUNTERS}
    for op in ops:
        if op["kind"] == "mine" and op.get("traced") and not op.get("error"):
            for name in COUNTERS:
                counters[name] += op["result"]["counters"][name]

    setting = "all" if observed else "off"
    serial_s = median_or_zero(samples(ops, "mine", collectors=setting))
    metrics: dict[str, float] = {
        "io.bytes_in": float(bytes_in),
        "prepare.prune_s": total(serial, "prune"),
        "prepare.encode_s": total(serial, "encode"),
        "prepare.pair_tables_s": total(serial, "pair_tables"),
        "prepare.share": ratio(prepare, traced_total),
        "search.root_s": total(serial, "search.root"),
        "search.gather_s": total(serial, "search.gather"),
        "search.gather_calls": total(serial, "gather_calls"),
        "search.project_s": total(serial, "search.project"),
        "search.project_calls": total(serial, "project_calls"),
        "search.self_s": total(serial, "search.self"),
    }
    metrics.update({f"search.{name}": counters[name] for name in COUNTERS})
    metrics["search.frequent_ratio"] = ratio(
        counters["candidates_frequent"], counters["candidates_considered"]
    )
    metrics["search.live_state_ratio"] = ratio(
        counters["states_created"],
        counters["states_created"] + counters["pruned_dead_states"],
    )
    search_max = total(sharded, "worker_search_max")
    search_mean = total(sharded, "worker_search_mean")
    metrics.update(
        {
            "engine.deal_s": factor
            * sum(s.dur for s in bench_roots(spans, "bench.deal")),
            "engine.worker_prepare_s": total(sharded, "worker_prepare"),
            "engine.worker_search_s.max": search_max,
            "engine.worker_search_s.mean": search_mean,
            "engine.dispatch_s": total(sharded, "dispatch"),
            "engine.merge_s": total(sharded, "merge"),
            "engine.shard_imbalance": ratio(search_max, search_mean),
            "engine.payload_bytes": float(payload_bytes),
            "engine.speedup_w2": ratio(
                serial_s, median_or_zero(samples(ops, "mine_w2"))
            ),
            "engine.cpu_ratio_w2": ratio(
                median_or_zero(samples(ops, "mine_w2", "cpu")),
                median_or_zero(samples(ops, "mine", "cpu", setting)),
            ),
        }
    )
    for name in COLLECTORS:
        metrics[f"obs.enabled_ratio.{name}"] = median_or_zero(
            paired_ratios(ops, name)
        )
    metrics["bench.trace_overhead"] = ratio(traced_total, serial_s * factor)
    metrics["trace.gap_s"] = total(serial, "gap")
    return metrics
