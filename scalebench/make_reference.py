"""Regenerate ``scalebench/reference.json``.

Records, for every workload at ``REFERENCE_SEED``, the pattern digest,
pattern count and exact search counters of its database, mined
serially with the shipped defaults. ``run.py`` checks every mine of a
run with that seed against this file. Run from the root of a checkout::

    python3 scalebench/make_reference.py

Regenerate only when a change is meant to alter mined results or
counters, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from repro.core.config import MinerConfig  # noqa: E402
from repro.core.ptpminer import PTPMiner  # noqa: E402
from repro.obs.provenance import patterns_digest  # noqa: E402

from scalebench.run import draw_database  # noqa: E402
from scalebench.workloads import REFERENCE_SEED, WORKLOADS  # noqa: E402


def main() -> int:
    table: dict[str, dict[str, object]] = {}
    for name, workload in WORKLOADS.items():
        db = draw_database(workload, REFERENCE_SEED)
        config = MinerConfig(min_sup=workload.min_sup, mode=workload.mode)
        result = PTPMiner.from_config(config).mine(db)
        table[name] = {
            "digest": patterns_digest(result.patterns),
            "patterns": len(result.patterns),
            "counters": result.counters.as_dict(),
        }
    out = {"seed": REFERENCE_SEED, "workloads": table}
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
