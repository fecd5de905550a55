"""Sweep runner: execute miners over parameter grids, collect rows.

The benchmark files are thin: they declare which dataset, which miners,
and which sweep axis an experiment uses, and delegate the mechanics
(measurement, row assembly, table + figure rendering) to
:class:`ExperimentRunner`. Every experiment's output is also persisted as
rows so `EXPERIMENTS.md` can quote them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.harness.figures import ascii_chart
from repro.harness.metrics import measure
from repro.harness.tables import render_table
from repro.model.database import ESequenceDatabase

__all__ = ["MinerSpec", "ExperimentRunner", "SweepResult", "write_rows_csv"]


@dataclass(frozen=True, slots=True)
class MinerSpec:
    """A named miner factory: ``build(param)`` returns an object with
    ``.mine(db)``; ``param`` is the current sweep value (e.g. min_sup)."""

    name: str
    build: Callable[[float], object]


@dataclass(slots=True)
class SweepResult:
    """All rows of one experiment sweep."""

    experiment: str
    x_name: str
    rows: list[dict] = field(default_factory=list)

    def series(self, y_name: str) -> dict[str, list[tuple[float, float]]]:
        """Extract ``{miner: [(x, y), ...]}`` for charting."""
        out: dict[str, list[tuple[float, float]]] = {}
        for row in self.rows:
            out.setdefault(row["miner"], []).append(
                (row[self.x_name], row[y_name])
            )
        return out

    def table(self, columns: Sequence[str] | None = None) -> str:
        """Render the rows as an ASCII table.

        Nested dict columns (the ``"obs"`` snapshots attached by
        ``collect_obs``) are skipped unless requested explicitly.
        """
        if columns is None:
            seen: dict[str, None] = {}
            for row in self.rows:
                for key, value in row.items():
                    if not isinstance(value, dict):
                        seen.setdefault(key)
            columns = list(seen)
        return render_table(self.rows, columns, title=self.experiment)

    def chart(self, y_name: str, *, log_y: bool = True, **kwargs: Any) -> str:
        """Render one metric as an ASCII figure."""
        return ascii_chart(
            self.series(y_name),
            title=f"{self.experiment}: {y_name} vs {self.x_name}",
            x_label=self.x_name,
            y_label=y_name,
            log_y=log_y,
            **kwargs,
        )


class ExperimentRunner:
    """Run miners across a sweep of one parameter on given databases."""

    def __init__(self, experiment: str, x_name: str = "min_sup") -> None:
        self.experiment = experiment
        self.x_name = x_name
        self.result = SweepResult(experiment, x_name)

    def run_point(
        self,
        db: ESequenceDatabase,
        x_value: float,
        miners: Iterable[MinerSpec],
        *,
        track_memory: bool = False,
        collect_obs: bool = False,
        collect_profile: bool = False,
        collect_live: bool = False,
        collect_cost: bool = False,
        collect_provenance: bool = False,
        workers: int = 1,
        extra: dict | None = None,
    ) -> list[dict]:
        """Run every miner at one sweep point, appending result rows.

        ``collect_obs=True`` scopes a metrics registry around each run,
        flattens its per-phase timings into ``phase_<name>_s`` columns,
        and attaches the full snapshot under the row's ``"obs"`` key
        (excluded from tables, JSON-encoded in CSV exports).
        ``collect_profile=True`` attaches each run's per-phase profile
        under ``"profile"`` plus its hottest self-time function as the
        ``"profile_top"`` column — note profiling inflates ``runtime_s``
        (see :func:`repro.harness.metrics.measure`).
        ``workers`` routes each built miner through the sharded engine
        when > 1 (the spec's miner must be a
        :class:`~repro.core.ptpminer.PTPMiner`) and is emitted as a
        ``workers`` row column either way, so speedup sweeps can plot
        runtime against worker count without conflating rows.
        ``collect_live=True`` scopes a silent live telemetry collector
        around each run; sharded-engine runs then emit a
        ``shard_imbalance`` column (max/mean lane busy time, 1.0 =
        perfectly balanced, ``None`` below two reporting shards) and
        attach the lane summary under the row's ``"live"`` key.
        ``collect_cost=True`` scopes a search cost collector around
        each run and attaches its snapshot under the row's ``"cost"``
        key (JSON-encoded in CSV exports).
        ``collect_provenance=True`` scopes a pattern provenance
        collector around each run and attaches its snapshot under the
        row's ``"provenance"`` key, same encoding rules as ``"cost"``.

        Every row also carries a ``config_fingerprint`` column — the
        :func:`repro.obs.ledger.config_fingerprint` over the database's
        content digest, the spec name, its built config, and the worker
        count — so sweep rows are directly joinable against run-ledger
        entries for the same configuration.
        """
        from repro.obs.ledger import config_fingerprint, dataset_digest

        db_digest = dataset_digest(db)
        new_rows = []
        for spec in miners:
            miner = spec.build(x_value)
            if workers != 1:
                from repro.core.ptpminer import PTPMiner
                from repro.engine import ShardedMiner

                if not isinstance(miner, PTPMiner):
                    raise ValueError(
                        "workers > 1 requires a PTPMiner spec; "
                        f"{spec.name!r} built {type(miner).__name__}"
                    )
                miner = ShardedMiner.from_config(
                    miner.config, workers=workers
                )
            built_config = getattr(miner, "config", None)
            fingerprint = config_fingerprint(
                dataset_digest=db_digest,
                miner=spec.name,
                min_sup=getattr(built_config, "min_sup", x_value),
                mode=getattr(built_config, "mode", None),
                workers=workers,
            )
            metrics = measure(
                lambda m=miner: m.mine(db),
                track_memory=track_memory,
                collect_obs=collect_obs,
                collect_profile=collect_profile,
                collect_live=collect_live,
                collect_cost=collect_cost,
                collect_provenance=collect_provenance,
                workers=workers,
                fingerprint=fingerprint,
            )
            mining = metrics.result
            row = {
                "miner": spec.name,
                self.x_name: x_value,
                "dataset": db.name,
                "workers": metrics.workers,
                "config_fingerprint": metrics.config_fingerprint,
                "runtime_s": round(metrics.elapsed_s, 4),
                "patterns": len(mining.patterns),
            }
            if track_memory:
                peak = metrics.peak_mem_mb
                row["peak_mem_mb"] = (
                    None if peak is None else round(peak, 3)
                )
            row.update(mining.counters.as_dict())
            if metrics.obs is not None:
                for key, seconds in metrics.obs["counters"].items():
                    if key.startswith("phase_seconds[phase="):
                        phase = key[len("phase_seconds[phase="):-1]
                        row[f"phase_{phase}_s"] = round(seconds, 4)
                row["obs"] = metrics.obs
            if metrics.profile is not None:
                from repro.obs.profile import hottest_function

                row["profile_top"] = hottest_function(metrics.profile)
                row["profile"] = metrics.profile
            if collect_cost and metrics.cost_profile is not None:
                row["cost"] = metrics.cost_profile
            if collect_provenance and metrics.provenance is not None:
                row["provenance"] = metrics.provenance
            if collect_live:
                summary = metrics.live_summary
                row["shard_imbalance"] = (
                    None if summary is None
                    else summary["shard_imbalance"]
                )
                if summary is not None:
                    row["live"] = summary
            if extra:
                row.update(extra)
            self.result.rows.append(row)
            new_rows.append(row)
        return new_rows

    def sweep(
        self,
        db: ESequenceDatabase,
        x_values: Sequence[float],
        miners: Sequence[MinerSpec],
        **kwargs: Any,
    ) -> SweepResult:
        """Run the full grid ``x_values x miners`` on one database."""
        for x_value in x_values:
            self.run_point(db, x_value, miners, **kwargs)
        return self.result


def write_rows_csv(result: SweepResult, path: str | Path) -> None:
    """Export a sweep's rows as CSV (for external plotting tools).

    Columns are the union of all row keys in first-seen order; missing
    cells are left empty. Nested dict values (attached ``"obs"``
    snapshots) are JSON-encoded into their cell.
    """
    import csv
    import json

    columns: dict[str, None] = {}
    for row in result.rows:
        for key in row:
            columns.setdefault(key)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=list(columns))
        writer.writeheader()
        for row in result.rows:
            writer.writerow(
                {
                    key: json.dumps(value, sort_keys=True)
                    if isinstance(value, dict)
                    else value
                    for key, value in row.items()
                }
            )
