"""Run one workload of the layered scale benchmark.

Usage, from the root of a checkout::

    python3 scalebench/run.py --workload dense-deep --seed 1 --seconds 50 --trace 0

The runner draws the workload's database from ``--seed`` (see
``scalebench/workloads.py``), writes it to a file under
``.scalebench_work/``, and starts ``scalebench/measure.py`` on that file in
a process that only loads and mines. It then checks the results,
prints every metric by name with its unit, and ends with one JSON line::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer metrics (see ``scalebench/README.md``). The exit code is 0
only when every operation succeeded and every result matched; without
the program's sources (``src/repro``) it is 2 and no result is printed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Optional

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
WORK_DIR = ROOT / ".scalebench_work"
#: The measuring process must finish well inside the run's time limit.
CHILD_TIMEOUT_S = 160


def _fail(message: str) -> int:
    print(f"scalebench: {message}", file=sys.stderr)
    return 2


def draw_database(workload: Any, seed: int) -> Any:
    """The workload's database for ``seed``, drawn from its fixed pool."""
    from repro.datagen import standard_dataset
    from repro.model.database import ESequenceDatabase

    pool = list(standard_dataset(workload.generator, num_sequences=workload.pool))
    return ESequenceDatabase(
        [pool[index] for index in workload.pick(seed)],
        name=f"{workload.name}-{seed}",
    )


def _measure(
    workload: str, path: Path, seconds: float, trace: int, out: Path
) -> dict[str, Any]:
    """Run ``measure.py`` in its own session and read its report."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_CONTRACTS"] = "0"
    command = [
        sys.executable,
        str(HERE / "measure.py"),
        "--workload", workload,
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out", str(out),
        "--file", str(path),
    ]
    proc = subprocess.Popen(command, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=CHILD_TIMEOUT_S)
    finally:
        # Take down the measuring process and any pool workers it left.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    if code != 0:
        raise RuntimeError(f"measure.py exited with code {code}")
    return json.loads(out.read_text(encoding="utf-8"))


def declared_metrics(section: str) -> dict[str, str]:
    """Name -> unit of the ``section`` metrics that ``BENCHMARK.json`` declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def _reference(workload: str, seed: int) -> Optional[dict[str, Any]]:
    """The recorded result for ``seed``, if any."""
    from scalebench.workloads import REFERENCE_SEED

    if seed != REFERENCE_SEED:
        return None
    table = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    return table["workloads"][workload]


def _print_results(ops: list[dict[str, Any]]) -> None:
    """Print the first serial and the first sharded result."""
    seen: dict[str, dict[str, Any]] = {}
    for op in ops:
        if op["kind"] != "load" and not op.get("error"):
            seen.setdefault(op["kind"], op["result"])
    for kind, result in sorted(seen.items()):
        counters = json.dumps(result["counters"], sort_keys=True)
        print(
            f"result {kind:<8} digest={result['digest']} "
            f"patterns={result['patterns']} counters={counters}"
        )


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the layered scale benchmark."
    )
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        return _fail(f"no program sources at {ROOT / 'src' / 'repro'}")
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
        from scalebench import analysis
        from scalebench.workloads import WORKLOADS
    except ImportError as exc:
        return _fail(f"cannot import the program: {exc}")
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        return _fail(
            f"unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}"
        )

    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_DIR))
    try:
        from repro.io.text_format import write_database

        path = work / f"{workload.name}-{args.seed}.txt"
        write_database(draw_database(workload, args.seed), path)
        report = _measure(
            workload.name, path, args.seconds, args.trace, work / "measure.json"
        )
        ops = report["ops"]
        reference = _reference(workload.name, args.seed)
        failed = analysis.count_failures(ops, reference)
        if args.trace:
            events = [
                json.loads(line)
                for line in Path(report["trace"]).read_text("utf-8").splitlines()
            ]
            metrics = analysis.layer_metrics(
                events,
                ops,
                bytes_in=path.stat().st_size,
                payload_bytes=report["payload_bytes"],
                observed=workload.observed,
            )
        else:
            metrics = analysis.end_to_end_metrics(ops, report["peak_rss_mib"])
        catalog = declared_metrics("per_layer" if args.trace else "end_to_end")
        if set(metrics) != set(catalog):
            raise RuntimeError(
                "metrics differ from BENCHMARK.json: "
                f"{sorted(set(metrics) ^ set(catalog))}"
            )
    except Exception as exc:  # report, then fail without a result line
        return _fail(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = len(ops)
    print(
        f"workload {workload.name} seed {args.seed} trace {args.trace}: "
        f"{workload.sequences} of {workload.pool} {workload.generator} sequences, "
        f"min_sup {workload.min_sup}, mode {workload.mode}, "
        f"collectors {'all' if workload.observed else 'off'}"
    )
    _print_results(ops)
    if reference is not None:
        print(f"reference: checked against reference.json (seed {args.seed})")
    samples: dict[str, int] = {}
    for op in ops:
        samples[op["kind"]] = samples.get(op["kind"], 0) + 1
    print("samples " + " ".join(f"{k}={v}" for k, v in sorted(samples.items())))
    print(f"failed_ratio {analysis.ratio(failed, attempted):.6f} ({failed}/{attempted})")
    print(
        f"host slowdown {analysis.ratio(1.0, analysis.speed_factor(ops)):.3f} "
        "(median calibration loop / "
        f"{analysis.CALIBRATION_REF_S * 1000:g} ms; the host, not the program)"
    )
    if args.trace:
        print(
            f"trace gap: {metrics['trace.gap_s']:.6f} s of the traced serial "
            "mines is covered by no layer span"
        )
    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {catalog[name]}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": value, "unit": catalog[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
