"""The Monte Carlo engine hands its cache writer one batch per chunk.

Every hand-off to :meth:`ResultCache.writer`'s thread wakes that
thread, and a woken thread competes with the solving thread for the
interpreter.  The engine therefore hands over the fresh results of a
chunk together, after the chunk's last value: a cold campaign makes at
most one hand-off per chunk that solved anything, plus one for the
healthy flow; the round's entry rides with its last chunk.  The
write-behind's own batch rules are tested here too.
"""

import math
import queue
import threading
from types import SimpleNamespace

import pytest

from repro import PathSet
from repro.core.config import MonteCarloConfig
from repro.failures.availability import estimate_availability_parallel
from repro.network.builder import from_edges
from repro.runner import cache as cache_module
from repro.runner.cache import ResultCache

CHUNK_SIZE = 4


@pytest.fixture
def instance():
    topology = from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
    ], failure_probability=0.2)
    paths = PathSet.k_shortest(topology, [("a", "d")], num_primary=2,
                               num_backup=0)
    return topology, {("a", "d"): 12.0}, paths


@pytest.fixture
def handoffs(monkeypatch):
    """The batches handed to every writer thread, in order."""
    batches = []

    class CountingQueue(queue.SimpleQueue):
        def put(self, item, *args, **kwargs):
            if item is not None:  # None only tells the thread to stop
                batches.append(list(item))
            super().put(item, *args, **kwargs)

    monkeypatch.setattr(cache_module, "queue",
                        SimpleNamespace(SimpleQueue=CountingQueue))
    return batches


def writer_threads():
    return [t for t in threading.enumerate() if t.name == "cache-writer"]


@pytest.mark.parametrize("workers", [1, 2])
def test_a_cold_campaign_hands_over_one_batch_per_chunk(
        instance, tmp_path, handoffs, workers):
    config = MonteCarloConfig(samples=60, seed=5, num_workers=workers,
                              chunk_size=CHUNK_SIZE)
    estimate = estimate_availability_parallel(*instance, config,
                                              cache=tmp_path)
    chunks = math.ceil(estimate.fresh_solves / CHUNK_SIZE)
    assert estimate.fresh_solves > chunks  # some chunk holds several
    assert len(handoffs) <= chunks + 1
    # Every entry is handed over once: the healthy flow, then the
    # fresh solves in chunk order, the round's entry with the last.
    keys = [key for batch in handoffs for key, _ in batch]
    assert len(keys) == len(set(keys)) == \
        estimate.fresh_solves + 1 + estimate.rounds
    assert "healthy_flow" in handoffs[0][0][1]
    assert len(handoffs[-1][-1][1]["delivered"]) == estimate.samples
    assert sorted(path.stem for path in tmp_path.glob("*.json")) == \
        sorted(keys)


def test_extend_of_nothing_starts_no_thread(tmp_path, handoffs):
    cache = ResultCache(tmp_path)
    with cache.writer() as write:
        write.extend([])
        write.extend(iter(()))
        assert not writer_threads()
    assert handoffs == []
    assert not list(tmp_path.iterdir())


def test_batches_are_put_in_order_one_entry_at_a_time(
        tmp_path, handoffs, monkeypatch):
    puts = []
    put = ResultCache.put

    def recording_put(self, key, result):
        puts.append(key)
        put(self, key, result)

    monkeypatch.setattr(ResultCache, "put", recording_put)
    cache = ResultCache(tmp_path)
    keys = [f"{i:064x}" for i in range(7)]
    with cache.writer() as write:
        write(keys[0], {"delivered": 0.0})
        write.extend((key, {"delivered": float(i)})
                     for i, key in enumerate(keys[1:4], start=1))
        write.extend([(key, {"delivered": float(i)})
                      for i, key in enumerate(keys[4:], start=4)])
    assert [len(batch) for batch in handoffs] == [1, 3, 3]
    assert puts == keys
    assert [cache.get(key) for key in keys] == [
        {"delivered": float(i)} for i in range(len(keys))]
    assert not writer_threads()


def test_a_failed_put_drops_the_rest_of_its_batch_and_later_ones(
        tmp_path, monkeypatch):
    put = ResultCache.put

    def failing_put(self, key, result):
        if key == "b":
            raise OSError("disk full")
        put(self, key, result)

    monkeypatch.setattr(ResultCache, "put", failing_put)
    cache = ResultCache(tmp_path)
    with pytest.raises(OSError, match="disk full"):
        with cache.writer() as write:
            write.extend([("a", 1), ("b", 2), ("c", 3)])
            # Refused if the failure is already known, else dropped.
            write.extend([("d", 4)])
    assert sorted(path.stem for path in tmp_path.glob("*.json")) == ["a"]
    assert not writer_threads()
