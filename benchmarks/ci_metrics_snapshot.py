"""CI perf breadcrumb: one small instrumented mine, snapshot to JSON.

Standalone script (no pytest): mines the F1 sparse workload at a single
support threshold with the full observability stack on, writes the
metrics snapshot as JSON, and prints the rendered report to the job
log (the ``ptpminer report --metrics`` view). CI uploads the JSON as an artifact on every push, so phase
timings, DFS shape, and prune counters form a breadcrumb trail across
commits without running the full benchmark suite.

Usage::

    PYTHONPATH=src python benchmarks/ci_metrics_snapshot.py --out metrics.json
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from repro import obs
from repro.core.ptpminer import PTPMiner
from repro.datagen import standard_dataset
from repro.obs.runreport import build_run_report, render_markdown

NUM_SEQUENCES = 120
MIN_SUP = 0.10


def main(argv: Sequence[str] | None = None) -> int:
    """Mine once with metrics on; write the snapshot; print the report."""
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", default="metrics.json", help="snapshot output path"
    )
    args = parser.parse_args(argv)

    db = standard_dataset("sparse", num_sequences=NUM_SEQUENCES)
    with obs.observe(metrics=True):
        result = PTPMiner(MIN_SUP).mine(db)

    snapshot = result.metrics
    counters = snapshot["counters"]
    expected = result.counters.as_dict()
    mismatched = [
        name
        for name, value in expected.items()
        if counters.get(f"search.{name}") != value
    ]
    if mismatched:
        print(
            "snapshot disagrees with PruneCounters for: "
            + ", ".join(mismatched),
            file=sys.stderr,
        )
        return 1

    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(snapshot, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"{result.miner}: {len(result.patterns)} patterns from "
        f"{len(db)} sequences at min_sup={MIN_SUP} "
        f"({result.elapsed:.2f}s) -> {args.out}\n"
    )
    print(render_markdown(build_run_report(metrics_path=args.out)), end="")
    return 0


if __name__ == "__main__":
    sys.exit(main())
