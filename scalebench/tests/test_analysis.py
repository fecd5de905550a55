"""Arithmetic of the scale benchmark on synthetic spans and operations."""

from __future__ import annotations

import re
from typing import Any

import pytest

from scalebench import analysis
from scalebench.analysis import (
    Span,
    children_index,
    count_failures,
    self_time,
    serial_layers,
    sharded_layers,
    spans_from_events,
)
from scalebench.run import declared_metrics

#: Metric names: a letter or digit, then letters, digits, ``_ . -``.
NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _events(rows: list[tuple[Any, Any, str, float, float, dict[str, Any]]]) -> list[dict[str, Any]]:
    """``(id, parent, name, start, end, attrs)`` rows -> trace events."""
    events = []
    for span_id, parent, name, start, end, attrs in rows:
        events.append(
            {"ev": "B", "span": span_id, "parent": parent, "name": name, "ts": start, **attrs}
        )
        events.append({"ev": "E", "span": span_id, "name": name, "ts": end, "dur": end - start})
    return events


SERIAL = [
    (1, None, "bench.mine", 0.0, 10.0, {}),
    (2, 1, "mine", 0.5, 9.5, {}),
    (3, 2, "prune", 1.0, 2.0, {}),
    (4, 2, "encode", 2.0, 3.0, {}),
    (5, 2, "pair_tables", 3.0, 4.0, {}),
    (6, 2, "search", 4.0, 9.0, {}),
    (7, 6, "extend", 4.0, 4.5, {"depth": 0}),
    (8, 6, "extend", 5.0, 6.0, {"depth": 1}),
    (9, 6, "project", 6.0, 8.0, {"depth": 1}),
]

SHARDED = [
    (10, None, "bench.mine_w2", 20.0, 26.0, {}),
    (11, 10, "mine", 20.0, 26.0, {}),
    (12, 11, "shards", 21.0, 25.0, {}),
    ("shard0:1", 11, "encode", 21.5, 22.0, {}),
    ("shard0:2", 11, "search", 22.0, 24.0, {}),
    ("shard0:3", "shard0:2", "project", 22.5, 23.0, {}),
    ("shard1:1", 11, "encode", 21.5, 21.8, {}),
    ("shard1:2", 11, "search", 21.8, 23.0, {}),
    (13, 11, "merge", 25.0, 25.2, {}),
]


def _root(spans: dict[Any, Span], name: str) -> Span:
    (root,) = analysis.bench_roots(spans, name)
    return root


def test_self_time_counts_overlap_once_and_clips_children() -> None:
    parent = Span(1, None, "p", 0.0, 10.0)
    children = [
        Span(2, 1, "a", 1.0, 4.0),
        Span(3, 1, "b", 3.0, 5.0),  # overlaps a
        Span(4, 1, "c", 9.0, 12.0),  # runs past the parent's end
    ]
    assert self_time(parent, children) == pytest.approx(10.0 - 4.0 - 1.0)
    assert self_time(parent, []) == 10.0


def test_serial_layers_sum_to_the_traced_mine() -> None:
    spans = spans_from_events(_events(SERIAL))
    layers = serial_layers(children_index(spans), _root(spans, "bench.mine"))
    assert layers["prune"] == layers["encode"] == layers["pair_tables"] == 1.0
    assert layers["search.root"] == 0.5
    assert layers["search.gather"] == 1.0 and layers["gather_calls"] == 1
    assert layers["search.project"] == 2.0 and layers["project_calls"] == 1
    assert layers["search.self"] == pytest.approx(1.5)
    # 0.5 s at each end of `mine`, and 0.5 s at each end of `bench.mine`
    assert layers["gap"] == pytest.approx(2.0)
    assert sum(layers[name] for name in analysis.SERIAL_LAYERS) == pytest.approx(
        layers["total"]
    )


def test_sharded_layers_attribute_worker_spans_to_their_shard() -> None:
    spans = spans_from_events(_events(SHARDED))
    layers = sharded_layers(children_index(spans), _root(spans, "bench.mine_w2"))
    assert layers["shards"] == 2
    assert layers["worker_prepare"] == pytest.approx(0.8)
    assert layers["worker_search_max"] == pytest.approx(2.0)
    assert layers["worker_search_mean"] == pytest.approx(1.6)
    # shards span (4 s) less the busiest worker (shard 0: 0.5 + 2.0 s)
    assert layers["dispatch"] == pytest.approx(1.5)
    assert layers["merge"] == pytest.approx(0.2)


def test_shard_of_parses_only_worker_ids() -> None:
    assert analysis.shard_of("shard3:17") == 3
    assert analysis.shard_of(17) is None
    assert analysis.shard_of("shardx:1") is None
    assert analysis.shard_of("shard1") is None


def _mine(wall: float, *, digest: str = "d", **extra: Any) -> dict[str, Any]:
    counters = dict.fromkeys(analysis.COUNTERS, 1)
    counters.update(
        candidates_considered=10, candidates_frequent=4, states_created=30, pruned_dead_states=10
    )
    op = {
        "kind": "mine",
        "wall": wall,
        "cpu": wall,
        "cal": analysis.CALIBRATION_REF_S,
        "collectors": "off",
        "error": None,
        "traced": False,
        "pair": None,
        "result": {"digest": digest, "patterns": 1, "counters": counters},
    }
    op.update(extra)
    return op


def test_layer_metrics_ratios_state_their_bases() -> None:
    ops = [
        _mine(9.0, traced=True),
        _mine(4.0),
        _mine(2.0, kind="mine_w2", cpu=6.0),
        _mine(6.0, collectors="all", pair=["all", 0]),
        _mine(3.0, pair=["all", 0]),
        _mine(100.0, error="RuntimeError: boom"),
    ]
    metrics = analysis.layer_metrics(
        _events(SERIAL + SHARDED), ops, bytes_in=5, payload_bytes=7, observed=False
    )
    assert set(metrics) == set(declared_metrics("per_layer"))
    assert metrics["search.frequent_ratio"] == pytest.approx(4 / 10)
    assert metrics["search.live_state_ratio"] == pytest.approx(30 / 40)
    assert metrics["prepare.share"] == pytest.approx(3.0 / 10.0)
    # untraced collectors-off serial median is median(4, 3) = 3.5
    assert metrics["engine.speedup_w2"] == pytest.approx(3.5 / 2.0)
    assert metrics["engine.cpu_ratio_w2"] == pytest.approx(6.0 / 3.5)
    assert metrics["obs.enabled_ratio.all"] == pytest.approx(2.0)
    assert metrics["obs.enabled_ratio.cost"] == 0.0  # no pair measured
    assert metrics["bench.trace_overhead"] == pytest.approx(10.0 / 3.5)
    assert metrics["engine.shard_imbalance"] == pytest.approx(2.0 / 1.6)
    assert metrics["trace.gap_s"] == pytest.approx(2.0)
    assert metrics["io.bytes_in"] == 5 and metrics["engine.payload_bytes"] == 7


def test_observed_workloads_use_the_all_collectors_baseline() -> None:
    ops = [
        _mine(4.0),
        _mine(8.0, collectors="all"),
        _mine(2.0, kind="mine_w2", collectors="all"),
    ]
    metrics = analysis.layer_metrics([], ops, bytes_in=1, payload_bytes=1, observed=True)
    assert metrics["engine.speedup_w2"] == pytest.approx(8.0 / 2.0)


def test_end_to_end_metrics_are_medians_of_successful_samples() -> None:
    ref = analysis.CALIBRATION_REF_S
    ops = [{"kind": "load", "wall": w, "error": None, "cal": ref} for w in (1.0, 3.0, 2.0)] + [
        _mine(5.0),
        _mine(7.0),
        _mine(6.0),
        _mine(2.0, kind="mine_w2"),
        _mine(99.0, kind="mine_w2", error="RuntimeError: boom"),
    ]
    metrics = analysis.end_to_end_metrics(ops, peak_rss_mib=12.5)
    assert metrics == {"setup_s": 2.0, "mine_s": 6.0, "mine_w2_s": 2.0, "peak_rss_mib": 12.5}


def test_times_are_scaled_by_the_run_median_calibration() -> None:
    slow = 2 * analysis.CALIBRATION_REF_S  # the box ran at half speed
    ops = [_mine(4.0, cal=slow), _mine(6.0, cal=slow), _mine(5.0)]
    assert analysis.speed_factor(ops) == pytest.approx(0.5)
    metrics = analysis.end_to_end_metrics(ops, peak_rss_mib=1.0)
    assert metrics["mine_s"] == pytest.approx(2.5)
    traced = _mine(20.0, traced=True, cal=slow)
    metrics = analysis.layer_metrics(
        _events(SERIAL), [traced, *ops], bytes_in=1, payload_bytes=1, observed=False
    )
    assert metrics["prepare.prune_s"] == pytest.approx(0.5)
    assert metrics["search.project_calls"] == 1
    # traced 10 s, untraced median 5 s, both scaled alike
    assert metrics["bench.trace_overhead"] == pytest.approx(2.0)


@pytest.mark.parametrize(
    ("name", "ok"),
    [
        ("setup_s", True),
        ("engine.worker_search_s.max", True),
        ("obs.enabled_ratio.all", True),
        ("9-lives", True),
        ("-leading", False),
        ("has space", False),
        ("slash/name", False),
        ("x" * 65, False),
    ],
)
def test_metric_name_grammar(name: str, ok: bool) -> None:
    assert bool(NAME_RE.fullmatch(name)) is ok


def test_metric_sets_are_exactly_the_declared_ones() -> None:
    end_to_end = analysis.end_to_end_metrics([_mine(1.0)], peak_rss_mib=1.0)
    per_layer = analysis.layer_metrics(
        [], [_mine(1.0)], bytes_in=1, payload_bytes=1, observed=False
    )
    assert set(end_to_end) == set(declared_metrics("end_to_end"))
    assert set(per_layer) == set(declared_metrics("per_layer"))
    for name in [*end_to_end, *per_layer]:
        assert NAME_RE.fullmatch(name), name


def test_digest_mismatch_counts_as_a_failed_operation() -> None:
    ops = [_mine(1.0), _mine(1.0, kind="mine_w2", digest="other")]
    assert count_failures(ops) == 1


def test_counter_mismatch_and_errors_fail() -> None:
    bad = _mine(1.0, kind="mine_w2")
    bad["result"]["counters"] = {**bad["result"]["counters"], "states_created": 31}
    ops = [
        _mine(1.0),
        bad,
        {"kind": "load", "wall": 0.1, "error": "OSError: gone"},
        {"kind": "load", "wall": 0.1, "error": None},
    ]
    assert count_failures(ops) == 2


def test_reference_mismatch_fails_every_mine() -> None:
    ops = [_mine(1.0), _mine(1.0, kind="mine_w2")]
    assert count_failures(ops, {"digest": "expected"}) == 2
    assert count_failures(ops, {"digest": "d"}) == 0


def test_snapshot_digests_compare_only_where_both_sides_have_them() -> None:
    on = _mine(1.0, collectors="all")
    on["result"]["cost"] = "c1"
    off = _mine(1.0)  # collectors off: no snapshot digest to compare
    sharded = _mine(1.0, kind="mine_w2", collectors="all")
    sharded["result"]["cost"] = "c2"
    assert count_failures([on, off]) == 0
    assert count_failures([on, off, sharded]) == 1
