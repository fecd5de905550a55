"""Fixture: R015 — plan-cache consumer purity.

Linted under the synthetic path ``src/repro/core/ptpminer.py`` so the
production cache-consumer seeds (``PTPMiner.plan_root`` /
``PTPMiner.search_shard``) apply. The second finding is reached by
propagation: ``candidates`` flows into ``self._drain`` and is mutated
there.
"""


class PTPMiner:
    """Carrier for the cache-consumer seed methods."""

    def plan_root(self, db: dict, weights: dict, threshold: float) -> dict:
        """Directly mutates a protected parameter."""
        db["cached"] = True  # expect: R015
        return db

    def search_shard(
        self, encoded: dict, weights: dict, candidates: list
    ) -> list:
        """Pure itself, but leaks ``candidates`` to an impure callee."""
        self._drain(candidates)
        return sorted(weights)

    def _drain(self, items: list) -> None:
        """Mutates what it is given."""
        items.pop()  # expect: R015
