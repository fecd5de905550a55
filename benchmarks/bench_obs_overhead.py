"""Disabled-path overhead check for the search-event stream.

The search reaches every collector through one hoisted local,
``events``, which is ``None`` when nothing is installed; each recording
site then costs one ``events is not None`` branch, which must stay in
the noise (budget: <= ~1% median on wall time). The script builds an
event-free twin of ``repro.core.ptpminer`` by stripping every statement
that touches the stream from the module AST, checks that the twin mines
identical patterns and counters, and times interleaved pairs -- twin vs.
shipped miner with collectors off -- so slow drift cancels out instead
of biasing one arm. Each collector's enabled cost is scalebench's
``obs.enabled_ratio.*``.

Usage::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py --pairs 10

Prints per-pair timings and the median relative overhead. Standalone
(no pytest); run when the search hot path changes.
"""

from __future__ import annotations

import argparse
import ast
import statistics
import sys
import time
import types
from collections.abc import Sequence

import repro.core.ptpminer as _ptpminer_module
from repro.core.config import MinerConfig
from repro.core.ptpminer import PTPMiner
from repro.datagen import standard_dataset

NUM_SEQUENCES = 2000
MIN_SUP = 0.08

#: Names that exist only to feed the event stream. Every statement
#: mentioning one of them is an event site.
_EVENT_NAMES = frozenset({"events", "obs_events", "span_skipped"})


class _StripEvents(ast.NodeTransformer):
    """Drop every event-stream statement; the dedupe tally becomes None."""

    def _is_event_site(self, node: ast.stmt) -> bool:
        if isinstance(node, ast.ImportFrom):
            return any(alias.asname in _EVENT_NAMES for alias in node.names)
        return any(
            isinstance(inner, ast.Name) and inner.id in _EVENT_NAMES
            for inner in ast.walk(node)
        )

    def visit_Name(self, node: ast.Name) -> ast.AST:
        if node.id == "dedupe_stats" and isinstance(node.ctx, ast.Load):
            return ast.copy_location(ast.Constant(None), node)
        return node

    def generic_visit(self, node: ast.AST) -> ast.AST:
        node = super().generic_visit(node)
        for field in ("body", "orelse", "finalbody"):
            stmts = getattr(node, field, None)
            if isinstance(stmts, list) and stmts and (
                isinstance(stmts[0], ast.stmt)
            ):
                kept = [s for s in stmts if not self._is_event_site(s)]
                if not kept and field == "body":
                    kept = [ast.Pass()]
                setattr(node, field, kept)
        return node


def build_stripped_miner() -> type:
    """A PTPMiner twin compiled from event-free module source."""
    source_file = _ptpminer_module.__file__
    assert source_file is not None
    with open(source_file, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    tree = ast.fix_missing_locations(_StripEvents().visit(tree))
    assert not any(
        isinstance(node, ast.Name) and node.id in _EVENT_NAMES
        for node in ast.walk(tree)
    ), "an event site survived stripping"
    stripped = ast.unparse(tree)
    module = types.ModuleType("repro.core._ptpminer_eventfree")
    module.__file__ = source_file
    # dataclass machinery resolves string annotations through
    # sys.modules[cls.__module__], so the twin must be importable.
    sys.modules[module.__name__] = module
    exec(  # noqa: S102 -- our own transformed source
        compile(stripped, source_file, "exec"), module.__dict__
    )
    return module.PTPMiner


def _time_mine(db, config, miner_cls) -> float:
    miner = miner_cls.from_config(config)
    t0 = time.perf_counter()
    miner.mine(db)
    return time.perf_counter() - t0


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--pairs", type=int, default=10, help="number of interleaved pairs"
    )
    args = parser.parse_args(argv)

    db = standard_dataset("sparse", num_sequences=NUM_SEQUENCES)
    config = MinerConfig(min_sup=MIN_SUP)
    stripped_cls = build_stripped_miner()

    # The twin must be behaviourally identical before its timings mean
    # anything.
    reference = PTPMiner.from_config(config).mine(db)
    twin = stripped_cls.from_config(config).mine(db)
    assert twin.as_dict() == reference.as_dict(), (
        "event-free twin mines different patterns"
    )
    assert twin.counters == reference.counters, (
        "event-free twin reports different counters"
    )

    # Warm-up: one run of each arm so import/alloc effects hit neither.
    _time_mine(db, config, stripped_cls)
    _time_mine(db, config, PTPMiner)

    ratios = []
    for pair in range(args.pairs):
        eventfree = _time_mine(db, config, stripped_cls)
        disabled = _time_mine(db, config, PTPMiner)
        ratios.append(disabled / eventfree - 1.0)
        print(
            f"pair {pair}: event-free={eventfree:.4f}s "
            f"disabled={disabled:.4f}s "
            f"overhead={100 * ratios[-1]:+.2f}%"
        )
    quartiles = statistics.quantiles(ratios, n=4)
    print(
        f"median disabled-path overhead: "
        f"{100 * statistics.median(ratios):+.2f}% "
        f"(IQR {100 * quartiles[0]:+.2f}% .. {100 * quartiles[2]:+.2f}%; "
        "budget <= ~1%)"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
