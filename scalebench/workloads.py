"""The scale benchmark's named workloads.

A workload's database is ``sequences`` sequences that ``--seed`` draws,
in random order, from a fixed pool: the registered ``repro.datagen``
standard dataset of that generator, generated at ``pool`` sequences with
its registered seed. Every seed thus mines a different database with the
same planted templates. Letting the seed also redraw the templates (as
``standard_dataset(..., seed=seed)`` would) changes the search cost from
seed to seed by more than any useful regression bound. Drawing 80% of
the pool keeps the seed-to-seed spread of the sharded path's load
balance, which a smaller draw leaves at over 10%, near that of the
machine.

This module imports nothing from ``repro``, so the runner can read it
before it checks that the program's sources are present.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Worker count of the sharded path (``mine_sharded(workers=2)``).
WORKERS = 2

#: The seed whose reference digest and counters ``reference.json`` holds.
REFERENCE_SEED = 1


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a generator, a size, and a mining config."""

    name: str
    generator: str
    pool: int
    sequences: int
    min_sup: float
    mode: str
    #: Mine with the cost, provenance and metrics collectors installed.
    observed: bool

    def pick(self, seed: int) -> list[int]:
        """Pool indices of the database for ``seed``, in mining order."""
        return random.Random(seed).sample(range(self.pool), self.sequences)


WORKLOADS: dict[str, Workload] = {
    wl.name: wl
    for wl in (
        Workload(
            name="sparse-wide",
            generator="sparse",
            pool=10000,
            sequences=8000,
            min_sup=0.25,
            mode="tp",
            observed=False,
        ),
        Workload(
            name="dense-deep",
            generator="dense",
            pool=1000,
            sequences=800,
            min_sup=0.2,
            mode="tp",
            observed=False,
        ),
        Workload(
            name="hybrid-observed",
            generator="hybrid",
            pool=1250,
            sequences=1000,
            min_sup=0.05,
            mode="htp",
            observed=True,
        ),
    )
}
