"""Unified run reports: join a run's observability artifacts.

``ptpminer report`` turns the artifacts one ``mine`` run can emit — a
JSONL span trace (``--trace``), a metrics snapshot (``--metrics-out``),
a live frame log (``--live-log``), a cost profile (``--cost-profile``),
and a provenance snapshot (``--provenance``) — into one markdown (or
JSON) report: a phase table, per-shard utilization with an imbalance
figure, the prune funnel, straggler callouts, the realized
heaviest-roots table, and a provenance summary. A metrics snapshot also
gives the DFS shape: phase seconds with their shares, projection states
per depth, patterns per length, candidates per extension kind, plain
totals and every histogram. Any subset of the
sources works: sections without data are omitted and the report instead
carries a ``notes`` list saying *why* each section is absent (source
not given vs. given but empty), so a partial report is an answer, not
an error. The trace and live-log parsers tolerate the truncated tails
of killed runs (see :func:`repro.obs.trace.read_trace` /
:func:`repro.obs.live.read_live_log`).

The shard section prefers the live frame log (it has roots/patterns/rss
per lane); with only a trace it falls back to the re-emitted
``shard<i>:<id>`` span durations. The prune funnel reads the parent
registry's ``search.*`` counters, which by construction mirror
:class:`repro.core.pruning.PruneCounters` totals.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping, Sequence
from typing import Any, Optional

from repro.obs.live import LiveAggregator, LiveConfig, read_live_log
from repro.obs.trace import read_trace

__all__ = [
    "build_run_report",
    "render_markdown",
]

#: Rows shown in the realized heaviest-roots table.
_TOP_ROOTS_SHOWN = 10

#: ``search.*`` counter suffixes in funnel order: work done, then what
#: each pruning stage removed, then what survived.
_FUNNEL_STAGES: tuple[tuple[str, str], ...] = (
    ("nodes_expanded", "search nodes expanded"),
    ("candidates_considered", "candidates considered"),
    ("pruned_point_labels", "pruned: point-label"),
    ("pruned_pair", "pruned: pair"),
    ("pruned_postfix_branches", "pruned: postfix branch"),
    ("pruned_dead_states", "pruned: dead state"),
    ("candidates_frequent", "candidates frequent"),
    ("states_created", "states created"),
    ("patterns_emitted", "patterns emitted"),
)


#: A labelled metrics key: ``name[k=v,...]``.
_LABELLED = re.compile(r"^(?P<name>[^\[]+)\[(?P<labels>.*)\]$")

#: Labelled counter families shown as tables: title, counter, label,
#: and the value column's name.
_SHAPE_TABLES = (
    ("Projection states per DFS depth", "search.states_by_depth", "depth",
     "states"),
    ("Patterns emitted per length (endpoint tokens)",
     "search.patterns_by_length", "tokens", "patterns"),
    ("Candidates per extension kind", "search.candidates", "ext",
     "candidates"),
)


def _labelled_rows(
    counters: Mapping[str, Any], name: str, label: str
) -> list[list[Any]]:
    """``[label value, count]`` rows of one counter family, numerically."""
    rows = []
    for key, value in counters.items():
        match = _LABELLED.match(key)
        if match is None or match.group("name") != name:
            continue
        labels = {
            lab: text
            for lab, text in (
                part.split("=", 1)
                for part in match.group("labels").split(",")
                if "=" in part
            )
        }
        if label in labels:
            rows.append([labels[label], value])

    def numeric(row: list[Any]) -> float:
        try:
            return float(row[0])
        except ValueError:
            return 0.0

    return sorted(rows, key=numeric)


def _metrics_tables(snapshot: Mapping[str, Any]) -> list[dict[str, Any]]:
    """The DFS-shape tables of a metrics snapshot, as titled row lists.

    Tolerant of partial snapshots (a run that died mid-mine, or JSON
    with explicit ``null`` sections): absent data yields no table,
    never a traceback.
    """
    counters: Mapping[str, Any] = snapshot.get("counters") or {}
    gauges: Mapping[str, Any] = snapshot.get("gauges") or {}
    tables: list[dict[str, Any]] = []

    def add(title: str, columns: Sequence[str], rows: list[Any]) -> None:
        if rows:
            tables.append({"title": title, "columns": columns, "rows": rows})

    phases = _labelled_rows(counters, "phase_seconds", "phase")
    total = sum(float(seconds) for _, seconds in phases)
    add(
        "Phase seconds (metrics)",
        ("phase", "seconds", "share"),
        [
            [phase, seconds, f"{seconds / total:.1%}" if total else None]
            for phase, seconds in sorted(phases, key=lambda row: -row[1])
        ],
    )
    for title, name, label, column in _SHAPE_TABLES:
        add(title, (label, column), _labelled_rows(counters, name, label))
    add(
        "Totals",
        ("metric", "value"),
        sorted([key, value] for key, value in counters.items() if "[" not in key)
        + sorted([key, value] for key, value in gauges.items()),
    )
    for key, hist in sorted((snapshot.get("histograms") or {}).items()):
        hist = hist or {}
        buckets = hist.get("buckets") or {}
        tables.append({
            "title": f"Histogram {key} (count={hist.get('count') or 0}, "
            f"sum={float(hist.get('sum') or 0.0):g})",
            "columns": ("bucket", "observations"),
            "rows": [
                [bound, buckets[bound]]
                for bound in sorted(buckets, key=_bucket_bound)
            ],
        })
    return tables


def _bucket_bound(key: str) -> float:
    """Upper bound of a histogram bucket key (``le_<b>``; ``inf`` last)."""
    try:
        return float(key[3:]) if key.startswith("le_") else float("inf")
    except ValueError:
        return float("inf")


def _phase_table(
    events: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Aggregate main-track end events into per-phase rows.

    Shard-re-emitted spans (string ids) are excluded — they are the
    shard section's job — so totals here are parent wall-clock phases.
    """
    totals: dict[str, list[float]] = {}
    order: list[str] = []
    for event in events:
        if event.get("ev") != "E" or isinstance(event.get("span"), str):
            continue
        duration = event.get("dur")
        if not isinstance(duration, (int, float)):
            continue
        name = str(event.get("name", "?"))
        if name not in totals:
            totals[name] = []
            order.append(name)
        totals[name].append(float(duration))
    return [
        {
            "phase": name,
            "count": len(durations),
            "total_s": round(sum(durations), 6),
            "mean_s": round(sum(durations) / len(durations), 6),
        }
        for name in order
        if (durations := totals[name])
    ]


def _shards_from_trace(
    events: Sequence[Mapping[str, Any]],
) -> list[dict[str, Any]]:
    """Per-shard busy time from re-emitted ``shard<i>:<id>`` spans.

    A shard's busy time is the summed duration of its *root* spans —
    the re-hung ones whose parent is back in the parent trace (not a
    ``shard...`` string id) — so nested spans are not double-counted.
    """
    begin_parent: dict[str, Any] = {}
    for event in events:
        if event.get("ev") == "B" and isinstance(event.get("span"), str):
            begin_parent[str(event["span"])] = event.get("parent")
    roots: dict[int, float] = {}
    for event in events:
        span_id = event.get("span")
        if event.get("ev") != "E" or not isinstance(span_id, str):
            continue
        if not span_id.startswith("shard") or ":" not in span_id:
            continue
        if isinstance(begin_parent.get(span_id), str):
            continue  # nested under another shard span
        try:
            shard = int(span_id[len("shard"):span_id.index(":")])
        except ValueError:
            continue
        duration = event.get("dur")
        if isinstance(duration, (int, float)):
            roots[shard] = roots.get(shard, 0.0) + float(duration)
    return [
        {"shard": shard, "busy_s": round(roots[shard], 6)}
        for shard in sorted(roots)
    ]


def _imbalance(busies: Sequence[float]) -> Optional[float]:
    """Max/mean busy time across shards (``None`` below two shards)."""
    positive = [b for b in busies if b > 0]
    if len(positive) < 2:
        return None
    mean = sum(positive) / len(positive)
    if mean <= 0:
        return None
    return round(max(positive) / mean, 6)


def _load_json_object(path: str, what: str) -> dict[str, Any]:
    """Load a JSON file that must hold an object (caller-error raise)."""
    with open(path, encoding="utf-8") as handle:
        loaded = json.load(handle)
    if not isinstance(loaded, dict):
        raise ValueError(f"{path}: expected a {what} object")
    return loaded


def build_run_report(
    *,
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
    live_log_path: Optional[str] = None,
    cost_path: Optional[str] = None,
    provenance_path: Optional[str] = None,
    straggler_factor: float = 0.5,
) -> dict[str, Any]:
    """Join the given artifacts into one JSON-ready report dict.

    At least one source must be given, but any subset works: each
    section that cannot be built lands one line in the report's
    ``notes`` list explaining whether its source was absent or present
    but empty. Missing *files* still raise — a wrong path is a caller
    error, not a degraded run. The live log is re-aggregated
    through :class:`repro.obs.live.LiveAggregator` (rendering off) with
    ``straggler_factor``, so the report's straggler callouts use the
    same rule as the live display.

    ``cost_path`` (a ``--cost-profile`` snapshot) adds the realized
    heaviest-roots table; ``provenance_path`` a pattern/prune-record
    summary.
    """
    if not (
        trace_path
        or metrics_path
        or live_log_path
        or cost_path
        or provenance_path
    ):
        raise ValueError(
            "build_run_report needs at least one of trace_path, "
            "metrics_path, live_log_path, cost_path, provenance_path"
        )
    report: dict[str, Any] = {
        "sources": {
            "trace": trace_path,
            "metrics": metrics_path,
            "live_log": live_log_path,
            "cost": cost_path,
            "provenance": provenance_path,
        }
    }
    notes: list[str] = []
    snapshot: Optional[Mapping[str, Any]] = None
    if metrics_path is not None:
        snapshot = _load_json_object(metrics_path, "metrics snapshot")
    events: list[dict[str, Any]] = []
    if trace_path is not None:
        events = read_trace(trace_path)
        phases = _phase_table(events)
        if phases:
            report["phases"] = phases
        else:
            notes.append(
                "phase table omitted: the trace has no completed "
                "main-track spans"
            )
    else:
        notes.append("phase table omitted: no trace given")
    if snapshot is not None:
        tables = _metrics_tables(snapshot)
        if tables:
            report["metrics_tables"] = tables
        counters = snapshot.get("counters") or {}
        funnel = [
            {"stage": label, "count": counters[key]}
            for suffix, label in _FUNNEL_STAGES
            if (key := f"search.{suffix}") in counters
        ]
        if funnel:
            report["prune_funnel"] = funnel
        else:
            notes.append(
                "prune funnel omitted: the metrics snapshot has no "
                "search.* counters"
            )
    else:
        notes.append("prune funnel omitted: no metrics snapshot given")
    live_summary: Optional[dict[str, Any]] = None
    if live_log_path is not None:
        frames = read_live_log(live_log_path)
        aggregator = LiveAggregator(
            LiveConfig(render=False, straggler_factor=straggler_factor)
        )
        for frame in frames:
            aggregator.ingest(frame)
        if aggregator.frames_ingested:
            live_summary = aggregator.summary()
            report["live"] = live_summary
        else:
            notes.append(
                "live summary omitted: the live log has no frames"
            )
    if live_summary is not None:
        lanes = live_summary["shards"]
        report["shards"] = [
            {"shard": int(shard), **lane} for shard, lane in lanes.items()
        ]
        report["shard_imbalance"] = live_summary["shard_imbalance"]
        report["stragglers"] = live_summary["stragglers"]
    elif events:
        shard_rows = _shards_from_trace(events)
        if shard_rows:
            report["shards"] = shard_rows
            report["shard_imbalance"] = _imbalance(
                [row["busy_s"] for row in shard_rows]
            )
        else:
            notes.append(
                "shard table omitted: no live log given and the trace "
                "has no shard spans (serial run?)"
            )
    elif live_log_path is None:
        notes.append("shard table omitted: no live log or trace given")
    if cost_path is not None:
        from repro.obs import costmodel

        cost_snapshot = _load_json_object(cost_path, "cost profile")
        heavy = costmodel.top_roots(cost_snapshot, _TOP_ROOTS_SHOWN)
        if heavy:
            report["heaviest_roots"] = heavy
        else:
            notes.append(
                "heaviest-roots table omitted: the cost profile "
                "records no roots"
            )
    else:
        notes.append("heaviest-roots table omitted: no cost profile given")
    if provenance_path is not None:
        prov = _load_json_object(provenance_path, "provenance snapshot")
        report["provenance"] = {
            "patterns": len(dict(prov.get("patterns", {}))),
            "pruned": len(dict(prov.get("pruned", {}))),
            "labels": len(dict(prov.get("labels", {}))),
        }
    if notes:
        report["notes"] = notes
    return report


def _format_cell(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, bool):
        return "yes" if value else ""
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _markdown_table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> list[str]:
    lines = [
        "| " + " | ".join(headers) + " |",
        "|" + "|".join(" --- " for _ in headers) + "|",
    ]
    for row in rows:
        lines.append(
            "| " + " | ".join(_format_cell(cell) for cell in row) + " |"
        )
    return lines


def render_markdown(report: Mapping[str, Any]) -> str:
    """Render a :func:`build_run_report` dict as a markdown document."""
    lines: list[str] = ["# ptpminer run report", ""]
    sources = report.get("sources", {})
    named = [
        f"{kind}: `{path}`"
        for kind, path in sources.items()
        if path is not None
    ]
    if named:
        lines.append("Sources — " + ", ".join(named))
        lines.append("")
    phases = report.get("phases")
    if phases:
        lines.append("## Phases")
        lines.append("")
        lines.extend(
            _markdown_table(
                ("phase", "count", "total (s)", "mean (s)"),
                [
                    (
                        row["phase"],
                        row["count"],
                        row["total_s"],
                        row["mean_s"],
                    )
                    for row in phases
                ],
            )
        )
        lines.append("")
    shards = report.get("shards")
    if shards:
        lines.append("## Shards")
        lines.append("")
        detailed = any("roots_done" in row for row in shards)
        if detailed:
            lines.extend(
                _markdown_table(
                    (
                        "shard",
                        "roots",
                        "patterns",
                        "busy (s)",
                        "rate (roots/s)",
                        "rss (MiB)",
                        "straggler",
                    ),
                    [
                        (
                            row["shard"],
                            f"{row.get('roots_done', 0)}/"
                            f"{row.get('roots_total', 0)}",
                            row.get("patterns"),
                            row.get("busy_s"),
                            row.get("rate_roots_per_s"),
                            row.get("rss_mb"),
                            bool(row.get("straggler")),
                        )
                        for row in shards
                    ],
                )
            )
        else:
            lines.extend(
                _markdown_table(
                    ("shard", "busy (s)"),
                    [(row["shard"], row.get("busy_s")) for row in shards],
                )
            )
        imbalance = report.get("shard_imbalance")
        lines.append("")
        if imbalance is not None:
            lines.append(
                f"Shard imbalance (max/mean busy): **{imbalance:g}** "
                "(1.0 = perfectly balanced)"
            )
            lines.append("")
    stragglers = report.get("stragglers")
    if stragglers is not None:
        lines.append("## Straggler callouts")
        lines.append("")
        if stragglers:
            lane_map = {
                row["shard"]: row for row in report.get("shards", [])
            }
            for shard in stragglers:
                lane = lane_map.get(shard, {})
                rate = lane.get("rate_roots_per_s")
                rate_text = "unknown rate" if rate is None else (
                    f"{rate:g} roots/s"
                )
                lines.append(
                    f"- **shard {shard}** fell below the straggler "
                    f"threshold ({rate_text})"
                )
        else:
            lines.append("None detected.")
        lines.append("")
    heavy = report.get("heaviest_roots")
    if heavy:
        lines.append("## Heaviest roots (realized)")
        lines.append("")
        lines.extend(
            _markdown_table(
                (
                    "root",
                    "wall (s)",
                    "states",
                    "nodes expanded",
                    "patterns",
                ),
                [
                    (
                        f"`{row.get('root')}`",
                        row.get("wall_s"),
                        row.get("states_created"),
                        row.get("nodes_expanded"),
                        row.get("patterns_emitted"),
                    )
                    for row in heavy
                ],
            )
        )
        lines.append("")
    provenance = report.get("provenance")
    if provenance:
        lines.append("## Provenance summary")
        lines.append("")
        lines.append(
            f"- {provenance.get('patterns')} pattern record(s), "
            f"{provenance.get('pruned')} prune record(s), "
            f"{provenance.get('labels')} label(s)"
        )
        lines.append("")
    for table in report.get("metrics_tables", []):
        lines.extend([f"## {table['title']}", ""])
        lines.extend(_markdown_table(table["columns"], table["rows"]))
        lines.append("")
    funnel = report.get("prune_funnel")
    if funnel:
        lines.append("## Prune funnel")
        lines.append("")
        lines.extend(
            _markdown_table(
                ("stage", "count"),
                [(row["stage"], row["count"]) for row in funnel],
            )
        )
        lines.append("")
    live = report.get("live")
    if live:
        lines.append("## Live summary")
        lines.append("")
        lines.append(
            f"- roots: {live['roots_done']}/{live['roots_total']}, "
            f"patterns: {live['patterns']}, "
            f"frames ingested: {live['frames']}"
        )
        lines.append("")
    notes = report.get("notes")
    if notes:
        lines.append("## Notes")
        lines.append("")
        for note in notes:
            lines.append(f"- {note}")
        lines.append("")
    return "\n".join(lines).rstrip() + "\n"
