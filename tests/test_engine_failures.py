"""Failure semantics of the sharded engine: a dead worker is a typed error.

A worker process that dies mid-run (OOM kill, segfault, ``os._exit``)
breaks the whole process pool. The engine must not return the shards
that did finish as if they were the answer: it raises
:class:`~repro.engine.ShardCrashError` naming every unfinished shard
and its root tokens, and still shuts the live-telemetry manager down.
"""

import multiprocessing
import os

import pytest

from repro import engine
from repro.core.config import MinerConfig
from repro.datagen import standard_dataset
from repro.engine import ShardCrashError, mine_sharded
from repro.obs import live as obs_live

pytestmark = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="forked workers inherit the patched shard runner",
)

_real_run_shard = engine._run_shard


def _die_on_shard_one(task):
    """Stand-in shard runner: kill the worker process on shard 1."""
    if task.shard == 1:
        os._exit(1)
    return _real_run_shard(task)


@pytest.fixture
def crashing_worker(monkeypatch):
    monkeypatch.setattr(engine, "_run_shard", _die_on_shard_one)


@pytest.mark.parametrize("live", [False, True], ids=["plain", "live"])
def test_worker_death_names_unfinished_shards(crashing_worker, live):
    db = standard_dataset("tiny")
    collector = (
        obs_live.LiveCollector(obs_live.LiveConfig(render=False))
        if live
        else False
    )
    with pytest.raises(ShardCrashError) as info:
        mine_sharded(
            db,
            MinerConfig(min_sup=0.3),
            workers=2,
            executor="process",
            live=collector,
        )
    error = info.value
    assert isinstance(error, RuntimeError)
    assert 1 in error.shards
    assert all(error.shards.values()), error.shards
    assert "shard 1 (roots " in str(error)
    for roots in error.shards.values():
        for token in roots:
            assert token in str(error)
    if live:
        # The live run still closed out: the aggregator's summary is
        # filled in by the engine's cleanup path.
        assert collector.summary is not None


def test_error_lists_shards_in_order():
    error = ShardCrashError({3: ["B+"], 1: ["A+", "A."]})
    assert str(error) == (
        "a worker process died; unfinished: "
        "shard 1 (roots A+, A.); shard 3 (roots B+)"
    )
