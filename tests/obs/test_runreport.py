"""Tests for unified run reports (``repro.obs.runreport``)."""

import json

import pytest

from repro.obs.live import LiveFrame
from repro.obs.runreport import build_run_report, render_markdown


def write_jsonl(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))


def trace_rows():
    return [
        {"ev": "B", "span": 1, "parent": None, "name": "mine", "ts": 0.0},
        {"ev": "B", "span": 2, "parent": 1, "name": "shards", "ts": 0.1},
        {"ev": "B", "span": "shard0:1", "parent": 2, "name": "search",
         "ts": 50.0},
        {"ev": "B", "span": "shard0:2", "parent": "shard0:1",
         "name": "extend", "ts": 50.1},
        {"ev": "E", "span": "shard0:2", "name": "extend", "ts": 50.2,
         "dur": 0.1},
        {"ev": "E", "span": "shard0:1", "name": "search", "ts": 51.0,
         "dur": 1.0},
        {"ev": "B", "span": "shard1:1", "parent": 2, "name": "search",
         "ts": 70.0},
        {"ev": "E", "span": "shard1:1", "name": "search", "ts": 73.0,
         "dur": 3.0},
        {"ev": "E", "span": 2, "name": "shards", "ts": 3.2, "dur": 3.1},
        {"ev": "E", "span": 1, "name": "mine", "ts": 3.4, "dur": 3.4},
    ]


def live_rows(*, skewed=False):
    slow_done = 2 if skewed else 18
    rows = []
    for shard, done in ((0, 20), (1, 20), (2, slow_done)):
        rows.append(
            LiveFrame(shard=shard, ts=0.0, roots_done=0,
                      roots_total=20, patterns=0).as_dict()
        )
        rows.append(
            LiveFrame(shard=shard, ts=10.0, roots_done=done,
                      roots_total=20, patterns=done // 2,
                      final=not skewed or shard != 2).as_dict()
        )
    return rows


def metrics_snapshot():
    return {
        "counters": {
            "search.nodes_expanded": 500,
            "search.candidates_considered": 9000,
            "search.candidates_frequent": 480,
            "search.pruned_pair": 8000,
            "search.patterns_emitted": 133,
            "phase_seconds[phase=mine]": 3.4,
        },
        "gauges": {},
        "histograms": {},
    }


class TestBuildRunReport:
    def test_needs_at_least_one_source(self):
        with pytest.raises(ValueError):
            build_run_report()

    def test_phase_table_from_trace_excludes_shard_spans(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_jsonl(trace, trace_rows())
        report = build_run_report(trace_path=str(trace))
        phases = {row["phase"]: row for row in report["phases"]}
        assert set(phases) == {"mine", "shards"}
        assert phases["mine"]["total_s"] == pytest.approx(3.4)
        assert phases["shards"]["count"] == 1

    def test_shards_from_trace_use_root_spans_only(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        write_jsonl(trace, trace_rows())
        report = build_run_report(trace_path=str(trace))
        rows = {row["shard"]: row["busy_s"] for row in report["shards"]}
        # shard0's nested "extend" span must not double-count.
        assert rows == {0: pytest.approx(1.0), 1: pytest.approx(3.0)}
        assert report["shard_imbalance"] == pytest.approx(1.5)

    def test_live_log_preferred_for_shard_section(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        live = tmp_path / "frames.jsonl"
        write_jsonl(trace, trace_rows())
        write_jsonl(live, live_rows())
        report = build_run_report(
            trace_path=str(trace), live_log_path=str(live)
        )
        assert len(report["shards"]) == 3
        assert all("roots_done" in row for row in report["shards"])
        assert report["stragglers"] == []

    def test_prune_funnel_from_metrics(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(metrics_snapshot()))
        report = build_run_report(metrics_path=str(metrics))
        stages = [row["stage"] for row in report["prune_funnel"]]
        assert stages == [
            "search nodes expanded",
            "candidates considered",
            "pruned: pair",
            "candidates frequent",
            "patterns emitted",
        ]
        counts = {r["stage"]: r["count"] for r in report["prune_funnel"]}
        assert counts["patterns emitted"] == 133

    def test_skewed_workload_triggers_exactly_one_straggler(self, tmp_path):
        live = tmp_path / "frames.jsonl"
        write_jsonl(live, live_rows(skewed=True))
        report = build_run_report(
            live_log_path=str(live), straggler_factor=0.5
        )
        assert report["stragglers"] == [2]
        markdown = render_markdown(report)
        callouts = [
            line for line in markdown.splitlines()
            if "fell below the straggler threshold" in line
        ]
        assert len(callouts) == 1
        assert "shard 2" in callouts[0]

    def test_rejects_non_object_metrics_file(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text("[1, 2, 3]")
        with pytest.raises(ValueError):
            build_run_report(metrics_path=str(metrics))


class TestRenderMarkdown:
    def test_full_report_renders_all_sections(self, tmp_path):
        trace = tmp_path / "trace.jsonl"
        metrics = tmp_path / "metrics.json"
        live = tmp_path / "frames.jsonl"
        write_jsonl(trace, trace_rows())
        metrics.write_text(json.dumps(metrics_snapshot()))
        write_jsonl(live, live_rows())
        report = build_run_report(
            trace_path=str(trace),
            metrics_path=str(metrics),
            live_log_path=str(live),
        )
        markdown = render_markdown(report)
        for heading in (
            "# ptpminer run report",
            "## Phases",
            "## Shards",
            "## Straggler callouts",
            "## Prune funnel",
            "## Live summary",
        ):
            assert heading in markdown
        assert "Shard imbalance (max/mean busy)" in markdown
        assert "None detected." in markdown

    def test_sections_without_data_are_omitted(self, tmp_path):
        metrics = tmp_path / "metrics.json"
        metrics.write_text(json.dumps(metrics_snapshot()))
        report = build_run_report(metrics_path=str(metrics))
        markdown = render_markdown(report)
        assert "## Prune funnel" in markdown
        assert "## Phases" not in markdown
        assert "## Shards" not in markdown


def cost_rows():
    return {
        "schema": 1, "kind": "repro-cost", "levels": {},
        "roots": {
            "A+": {"wall_s": 3.0, "states_created": 30,
                   "nodes_expanded": 12, "patterns_emitted": 5},
            "B+": {"wall_s": 1.0, "states_created": 10,
                   "nodes_expanded": 4, "patterns_emitted": 2},
        },
    }


class TestLiveCostAndProvenanceSources:
    def test_cost_source_yields_heaviest_roots(self, tmp_path):
        cost = tmp_path / "cost.json"
        cost.write_text(json.dumps(cost_rows()))
        report = build_run_report(cost_path=str(cost))
        assert report["heaviest_roots"][0]["root"] == "A+"
        markdown = render_markdown(report)
        assert "## Heaviest roots (realized)" in markdown
        assert "`A+`" in markdown

    def test_provenance_source_yields_counts(self, tmp_path):
        prov = tmp_path / "prov.json"
        prov.write_text(json.dumps({
            "schema": 1, "kind": "repro-provenance",
            "patterns": {"p1": {}, "p2": {}}, "pruned": {"x": {}},
            "labels": {},
        }))
        report = build_run_report(provenance_path=str(prov))
        assert report["provenance"] == {
            "patterns": 2, "pruned": 1, "labels": 0,
        }
        assert "## Provenance summary" in render_markdown(report)

    def test_live_log_fills_realized_imbalance(self, tmp_path):
        live = tmp_path / "frames.jsonl"
        write_jsonl(live, live_rows())
        report = build_run_report(live_log_path=str(live))
        assert report["shard_imbalance"] is not None
        assert (
            report["shard_imbalance"] == report["live"]["shard_imbalance"]
        )
