"""Tests for the metrics-snapshot tables of ``ptpminer report``.

A ``--metrics`` source renders the DFS shape next to the prune funnel:
phase seconds with shares, projection states per depth, patterns per
length, candidates per extension kind, plain totals and histograms
(:func:`repro.obs.runreport.build_run_report`).
"""

import json

from repro.cli import main
from repro.obs.runreport import build_run_report, render_markdown


def sample_snapshot() -> dict:
    return {
        "counters": {
            "phase_seconds[phase=encode]": 0.2,
            "phase_seconds[phase=search]": 1.8,
            "search.states_by_depth[depth=1]": 30,
            "search.states_by_depth[depth=2]": 12,
            "search.patterns_by_length[tokens=2]": 5,
            "search.candidates[ext=I]": 3,
            "search.candidates[ext=S]": 9,
            "search.pruned_pair": 44,
        },
        "gauges": {"run.patterns": 5},
        "histograms": {
            "search.candidates_per_node": {
                "buckets": {"le_1": 2, "inf": 1},
                "count": 3,
                "sum": 7.0,
                "mean": 7.0 / 3,
            }
        },
    }


def render_report(snapshot, tmp_path) -> str:
    """Markdown of a metrics-only run report over ``snapshot``."""
    path = tmp_path / "metrics.json"
    path.write_text(json.dumps(snapshot))
    return render_markdown(build_run_report(metrics_path=str(path)))


def section(text: str, title: str) -> str:
    """The markdown section headed ``## <title>...``, up to the next one."""
    start = text.index(f"## {title}")
    end = text.find("\n## ", start + 1)
    return text[start:] if end < 0 else text[start:end]


class TestRenderReport:
    def test_sections_present(self, tmp_path):
        text = render_report(sample_snapshot(), tmp_path)
        assert "## Phase seconds (metrics)" in text
        assert "## Projection states per DFS depth" in text
        assert "## Patterns emitted per length" in text
        assert "## Candidates per extension kind" in text
        assert "## Totals" in text
        assert "## Histogram search.candidates_per_node" in text

    def test_phase_breakdown_sorted_by_time_with_share(self, tmp_path):
        text = render_report(sample_snapshot(), tmp_path)
        phase_section = section(text, "Phase seconds")
        assert phase_section.index("search") < phase_section.index("encode")
        assert "90.0%" in phase_section
        assert "10.0%" in phase_section

    def test_depth_rows_sorted_numerically(self, tmp_path):
        snapshot = {
            "counters": {
                "search.states_by_depth[depth=10]": 1,
                "search.states_by_depth[depth=2]": 2,
            }
        }
        text = section(
            render_report(snapshot, tmp_path), "Projection states"
        )
        assert text.index("| 2 |") < text.index("| 10 |")

    def test_totals_include_plain_counters_and_gauges(self, tmp_path):
        totals = section(render_report(sample_snapshot(), tmp_path), "Totals")
        assert "search.pruned_pair" in totals
        assert "run.patterns" in totals

    def test_empty_snapshot(self, tmp_path):
        for snapshot in ({}, {"counters": {}, "gauges": {}, "histograms": {}}):
            text = render_report(snapshot, tmp_path)
            assert "## Totals" not in text
            assert "no search.* counters" in text

    def test_null_sections_never_raise(self, tmp_path):
        # A partial run may serialise explicit nulls; skip, don't crash.
        text = render_report(
            {"counters": None, "gauges": None, "histograms": None}, tmp_path
        )
        assert "## Totals" not in text
        assert "no search.* counters" in text

    def test_degenerate_histogram_never_raises(self, tmp_path):
        snapshot = {
            "histograms": {
                "h_empty": {},
                "h_null_sum": {"buckets": {"inf": 1}, "count": 1,
                               "sum": None},
                "h_null": None,
            }
        }
        text = render_report(snapshot, tmp_path)
        assert "Histogram h_empty" in text
        assert "Histogram h_null_sum" in text
        assert "Histogram h_null" in text

    def test_counters_only_partial_run(self, tmp_path):
        # Only a couple of counters landed before the run died.
        text = render_report(
            {"counters": {"search.nodes_expanded": 3}}, tmp_path
        )
        assert "search.nodes_expanded" in section(text, "Totals")


class TestMain:
    def test_renders_file(self, tmp_path, capsys):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps(sample_snapshot()))
        assert main(["report", "--metrics", str(path)]) == 0
        out = capsys.readouterr().out
        assert "## Phase seconds (metrics)" in out
        assert "## Projection states per DFS depth" in out

    def test_usage_errors(self, tmp_path, capsys):
        assert main(["report"]) == 2
        assert "at least one of" in capsys.readouterr().err
        assert main(["report", "--metrics", str(tmp_path / "nope")]) == 2
        assert "error:" in capsys.readouterr().err
