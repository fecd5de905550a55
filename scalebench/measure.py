"""Measuring process of the scale benchmark: it only loads and mines.

``run.py`` generates the workload's database, writes it to a file, and
starts this script on that file, so the peak resident memory this
process reports covers loading and mining alone. It writes one JSON
document: every operation it ran (kind, database, wall and CPU seconds,
result signature, error), its peak RSS, and — in a traced run — the
trace file it wrote once at the end.

Untraced run (``--trace 0``): rounds until the time budget is spent, at
least ``MIN_ROUNDS``; each round loads the database ``LOADS_PER_ROUND``
times, then mines it with ``mine_sharded(workers=2)``, serially, and
sharded again.

Traced run (``--trace 1``): first a traced pass, where a
``TraceCollector`` records the library's spans under spans owned by this
script (``bench.load``, ``bench.mine``, ``bench.mine_w2``,
``bench.plan_root``, ``bench.deal``); then ``BASELINE_ROUNDS`` untraced
serial and sharded mines with the workload's collector setting; then
on/off pairs until the budget is spent, at least one per collector
setting: a serial mine with collectors off next to one with the setting
under test, which follows ``PAIR_ROTATION`` from pair to pair.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import pickle
import resource
import sys
import time
from collections.abc import Callable, Iterator
from contextlib import ExitStack, contextmanager, nullcontext
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.config import MinerConfig  # noqa: E402
from repro.core.ptpminer import PTPMiner  # noqa: E402
from repro.engine import mine_sharded, plan_shards  # noqa: E402
from repro.io.text_format import read_database  # noqa: E402
from repro.model.database import ESequenceDatabase  # noqa: E402
from repro.obs import costmodel, metrics, provenance  # noqa: E402
from repro.obs import trace as obs_trace  # noqa: E402

from scalebench.analysis import COLLECTORS  # noqa: E402
from scalebench.workloads import WORKERS, WORKLOADS, Workload  # noqa: E402

#: Untraced rounds always run at least this often, for a median.
MIN_ROUNDS = 3
#: Untraced serial + sharded rounds of a traced run (the baseline of
#: ``engine.speedup_w2``, ``engine.cpu_ratio_w2``, ``bench.trace_overhead``).
BASELINE_ROUNDS = 3
#: Loads per untraced round (loads are cheap; ``setup_s`` is the median
#: of many).
LOADS_PER_ROUND = 3
#: Collector settings of successive on/off pairs. ``all`` gets half the
#: pairs: it is the figure the collector pass exists to resolve.
PAIR_ROTATION = ("all", "cost", "all", "provenance", "all", "metrics")
#: Iterations of the calibration loop (about 8 ms on a 2.1 GHz core).
CALIBRATION_LOOPS = 100_000


def _calibration_s() -> float:
    """Seconds this box takes for a fixed pure-Python loop (best of 3).

    Timed before and after every sample, and the sample keeps the mean
    of the two. The host's speed drifts by up to 2x over tens of
    seconds; ``analysis.speed_factor`` scales all of a run's times by
    the median of these values over the whole run.
    """
    best = float("inf")
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for i in range(CALIBRATION_LOOPS):
            total += i * i % 7
        best = min(best, time.perf_counter() - started)
    return best


def _cpu_seconds() -> float:
    """CPU seconds of this process plus its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _digest(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


@contextmanager
def _collectors(setting: str) -> Iterator[dict[str, Any]]:
    """Install the collectors of ``setting`` (``off`` installs none)."""
    wanted = set(COLLECTORS[1:]) if setting == "all" else {setting}
    with ExitStack() as stack:
        installed: dict[str, Any] = {}
        if "cost" in wanted:
            installed["cost"] = stack.enter_context(costmodel.use_collector())
        if "provenance" in wanted:
            installed["provenance"] = stack.enter_context(
                provenance.use_collector()
            )
        if "metrics" in wanted:
            stack.enter_context(metrics.use_registry())
        yield installed


class Session:
    """One workload's database file, mining config and operation log."""

    def __init__(self, workload: Workload, path: str) -> None:
        self.workload = workload
        self.path = path
        self.config = MinerConfig(min_sup=workload.min_sup, mode=workload.mode)
        self.setting = "all" if workload.observed else "off"
        self.ops: list[dict[str, Any]] = []

    def load(self, *, span: Optional[str] = None) -> Optional[ESequenceDatabase]:
        """Time one ``read_database`` of the workload file."""
        gc.collect()
        op: dict[str, Any] = {"kind": "load", "error": None}
        cal = _calibration_s()
        started = time.perf_counter()
        try:
            with obs_trace.span(span) if span else nullcontext():
                db: Optional[ESequenceDatabase] = read_database(self.path)
        except Exception as exc:  # a failed load is counted, not fatal
            op["error"] = f"{type(exc).__name__}: {exc}"
            db = None
        op["wall"] = time.perf_counter() - started
        op["cal"] = (cal + _calibration_s()) / 2
        if db is not None and len(db) != self.workload.sequences:
            op["error"] = f"loaded {len(db)} sequences"
        self.ops.append(op)
        return db

    def mine(
        self,
        kind: str,
        db: ESequenceDatabase,
        setting: Optional[str] = None,
        *,
        span: Optional[str] = None,
        pair: Optional[tuple[str, int]] = None,
    ) -> None:
        """Time one serial (``mine``) or sharded (``mine_w2``) mine.

        With ``span`` the library call runs inside a benchmark-owned span
        of that name (the traced pass); ``pair`` tags a collector-pass
        mine with its on/off pair.
        """
        setting = self.setting if setting is None else setting
        op: dict[str, Any] = {
            "kind": kind,
            "collectors": setting,
            "error": None,
            "traced": span is not None,
            "pair": pair,
        }
        # Collect the previous sample's garbage outside the timed region.
        gc.collect()
        cal = _calibration_s()
        with _collectors(setting) as installed:
            cpu0 = _cpu_seconds()
            started = time.perf_counter()
            try:
                with obs_trace.span(span) if span else nullcontext():
                    if kind == "mine":
                        result = PTPMiner.from_config(self.config).mine(db)
                    else:
                        result = mine_sharded(db, self.config, workers=WORKERS)
            except Exception as exc:  # a failed mine is counted, not fatal
                op["error"] = f"{type(exc).__name__}: {exc}"
                result = None
            op["wall"] = time.perf_counter() - started
            op["cpu"] = _cpu_seconds() - cpu0
        op["cal"] = (cal + _calibration_s()) / 2
        if result is not None:
            op["result"] = {
                "digest": provenance.patterns_digest(result.patterns),
                "patterns": len(result.patterns),
                "counters": result.counters.as_dict(),
            }
            if "cost" in installed:
                op["result"]["cost"] = costmodel.profile_digest(
                    installed["cost"].snapshot()
                )
            if "provenance" in installed:
                op["result"]["provenance"] = _digest(
                    installed["provenance"].snapshot()
                )
        self.ops.append(op)


def _rounds(seconds: float, min_rounds: int, body: Callable[[int], None]) -> None:
    """Call ``body(round)`` until another round would overrun ``seconds``."""
    started = time.perf_counter()
    done = 0
    while True:
        elapsed = time.perf_counter() - started
        if done >= max(min_rounds, 1) and elapsed + elapsed / done > seconds:
            return
        body(done)
        done += 1


def untraced_run(session: Session, seconds: float) -> None:
    """Rounds of loads, then a sharded, a serial and a sharded mine."""

    def one_round(index: int) -> None:
        db = None
        for _ in range(LOADS_PER_ROUND):
            loaded = session.load()
            db = loaded if loaded is not None else db
        if db is None:
            return
        # The sharded path is the noisier one, so it gets two samples,
        # on either side of the serial one.
        for kind in ("mine_w2", "mine", "mine_w2"):
            session.mine(kind, db)

    _rounds(seconds, MIN_ROUNDS, one_round)


def traced_run(session: Session, seconds: float, trace_path: Path) -> int:
    """Traced pass, baseline rounds, then collector pairs; returns payload bytes."""
    started = time.perf_counter()
    collector = obs_trace.TraceCollector()
    with obs_trace.use_tracer(collector):
        db = session.load(span="bench.load")
        if db is None:
            raise RuntimeError(f"{session.path} failed to load")
        session.mine("mine", db, span="bench.mine")
        session.mine("mine_w2", db, span="bench.mine_w2")
        miner = PTPMiner.from_config(session.config)
        threshold = float(db.absolute_support(session.config.min_sup))
        with obs_trace.span("bench.plan_root"):
            mining_db, _, root = miner.plan_root(db, [1.0] * len(db), threshold)
        with obs_trace.span("bench.deal"):
            tasks = plan_shards(root, session.config, threshold, WORKERS)
    payload = len(pickle.dumps(mining_db)) + sum(
        len(pickle.dumps(task)) for task in tasks
    )
    with trace_path.open("w", encoding="utf-8") as handle:
        for event in collector.events:
            handle.write(json.dumps(event, separators=(",", ":")) + "\n")

    for index in range(BASELINE_ROUNDS):
        kinds = ("mine", "mine_w2") if index % 2 == 0 else ("mine_w2", "mine")
        for kind in kinds:
            session.mine(kind, db)

    def one_pair(index: int) -> None:
        cycle, slot = divmod(index, len(PAIR_ROTATION))
        tested = PAIR_ROTATION[slot]
        # The order within a pair alternates from one pair of a setting
        # to its next.
        seen = cycle * PAIR_ROTATION.count(tested) + PAIR_ROTATION[:slot].count(tested)
        arms = ("off", tested) if seen % 2 == 0 else (tested, "off")
        for setting in arms:
            session.mine("mine", db, setting, pair=(tested, index))

    remaining = seconds - (time.perf_counter() - started)
    _rounds(remaining, len(PAIR_ROTATION), one_pair)
    return payload


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--file", required=True, help="the workload database")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out", required=True, help="result JSON to write")
    args = parser.parse_args(argv)

    session = Session(WORKLOADS[args.workload], args.file)
    out_path = Path(args.out)
    report: dict[str, Any] = {}
    if args.trace:
        trace_path = out_path.with_suffix(".trace.jsonl")
        report["payload_bytes"] = traced_run(session, args.seconds, trace_path)
        report["trace"] = str(trace_path)
    else:
        untraced_run(session, args.seconds)
    report["ops"] = session.ops
    report["peak_rss_mib"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    out_path.write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
