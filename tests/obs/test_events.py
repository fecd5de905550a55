"""Tests for the search-event stream (``repro.obs.events``)."""

from repro.core.config import MinerConfig
from repro.core.ptpminer import PTPMiner
from repro.core.pruning import PruningConfig
from repro.datagen import standard_dataset
from repro.obs import live, metrics
from repro.obs.clock import ManualClock, clock_scope
from repro.obs.events import open_search


def test_no_collector_means_no_stream():
    assert open_search(None, None, []) is None
    with metrics.use_registry():
        assert open_search(None, None, []) is not None


def test_live_sink_sees_every_root_candidate_once():
    """``root_done`` covers killed roots too: the shard's sink gets one
    frame per root candidate, in order, then the final frame."""
    db = standard_dataset("tiny")
    # Without point pruning, infrequent labels reach the root, so some
    # root candidates die at the support check instead of expanding.
    miner = PTPMiner.from_config(
        MinerConfig(min_sup=0.3, pruning=PruningConfig(point=False))
    )
    threshold = float(db.absolute_support(0.3))
    weights = [1.0] * len(db)
    mining_db, _, root = miner.plan_root(db, weights, threshold)
    frames = []
    sink = live.LiveSink(0, len(root), frames.append, min_interval_s=0.0)
    with clock_scope(ManualClock()), live.use_live(live.LiveCollector(sink=sink)):
        patterns, counters = miner.search_shard(
            mining_db, weights, threshold, root
        )
    assert [f["roots_done"] for f in frames] == [
        *range(1, len(root) + 1),
        len(root),
    ]
    assert [f["final"] for f in frames] == [False] * len(root) + [True]
    assert frames[-1]["patterns"] == len(patterns)
    assert frames[-1]["counters"] == {
        key: float(value) for key, value in counters.as_dict().items()
    }
    assert any(weight < threshold for weight, _ in root.values())
