"""End-to-end checks of the measuring process at sizes that run in seconds."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

from repro.datagen import standard_dataset
from repro.io.text_format import write_database
from repro.model.database import ESequenceDatabase

from scalebench import analysis, measure
from scalebench.run import declared_metrics
from scalebench.workloads import WORKLOADS, Workload

ROOT = Path(__file__).resolve().parents[2]

TINY = Workload(
    name="tiny",
    generator="tiny",
    pool=60,
    sequences=40,
    min_sup=0.25,
    mode="tp",
    observed=True,
)


def _session(tmp_path: Path) -> measure.Session:
    pool = list(standard_dataset("tiny", num_sequences=TINY.pool))
    path = tmp_path / "tiny.txt"
    write_database(ESequenceDatabase([pool[i] for i in TINY.pick(1)]), path)
    return measure.Session(TINY, str(path))


def test_untraced_run_makes_every_kind_of_sample(tmp_path: Path) -> None:
    session = _session(tmp_path)
    measure.untraced_run(session, seconds=0.0)
    counts = {kind: 0 for kind in ("load", "mine", "mine_w2")}
    for op in session.ops:
        counts[op["kind"]] += 1
    rounds = measure.MIN_ROUNDS
    assert counts == {
        "load": rounds * measure.LOADS_PER_ROUND,
        "mine": rounds,
        "mine_w2": 2 * rounds,
    }
    assert analysis.count_failures(session.ops) == 0
    metrics = analysis.end_to_end_metrics(session.ops, peak_rss_mib=1.0)
    assert all(value > 0 for value in metrics.values())


def test_traced_run_yields_every_layer_metric(tmp_path: Path) -> None:
    session = _session(tmp_path)
    trace = tmp_path / "trace.jsonl"
    payload = measure.traced_run(session, seconds=0.0, trace_path=trace)
    events = [json.loads(line) for line in trace.read_text("utf-8").splitlines()]
    # Serial and sharded runs with every collector on agree on snapshots.
    assert analysis.count_failures(session.ops) == 0
    metrics = analysis.layer_metrics(
        events, session.ops, bytes_in=1, payload_bytes=payload, observed=True
    )
    assert set(metrics) == set(declared_metrics("per_layer"))
    assert metrics["engine.worker_prepare_s"] > 0
    assert metrics["engine.payload_bytes"] > 0
    assert {op["pair"][0] for op in session.ops if op.get("pair")} == set(
        analysis.COLLECTORS
    )


def test_seeds_draw_distinct_databases_from_the_pool() -> None:
    for workload in WORKLOADS.values():
        picks = [workload.pick(seed) for seed in (1, 2)]
        assert picks[0] == workload.pick(1)
        assert picks[0] != picks[1]
        for pick in picks:
            assert len(set(pick)) == workload.sequences
            assert max(pick) < workload.pool


def test_run_fails_without_printing_a_result_when_sources_are_missing(
    tmp_path: Path,
) -> None:
    shutil.copytree(
        ROOT / "scalebench", tmp_path / "scalebench", ignore=shutil.ignore_patterns("__pycache__")
    )
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "scalebench/run.py", "--workload", "dense-deep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert "src" in proc.stderr
