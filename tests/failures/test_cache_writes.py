"""The Monte Carlo engine writes its cache entries behind the solves.

Fresh results go to :meth:`ResultCache.writer`'s one thread, one chunk
at a time, while the next chunk solves.  When a campaign returns, every
entry is on disk, staged and renamed like any :meth:`ResultCache.put`,
and the thread is gone; a failed write fails the campaign.
"""

import os
import stat
import sys
import threading

import pytest

from repro import PathSet
from repro.core.config import MonteCarloConfig
from repro.failures.availability import estimate_availability_parallel
from repro.network.builder import from_edges
from repro.resilience.faults import FaultPlan, FaultPoint
from repro.runner.cache import ResultCache

DEMANDS = {("a", "d"): 12.0}


@pytest.fixture
def instance():
    topology = from_edges([
        ("a", "b", 10), ("b", "d", 10), ("a", "c", 6), ("c", "d", 6),
    ], failure_probability=0.2)
    paths = PathSet.k_shortest(topology, [("a", "d")], num_primary=2,
                               num_backup=0)
    return topology, DEMANDS, paths


def config(workers=1):
    return MonteCarloConfig(samples=60, seed=5, num_workers=workers,
                            chunk_size=4)


def writer_threads():
    return [t for t in threading.enumerate() if t.name == "cache-writer"]


@pytest.mark.parametrize("workers", [1, 2])
def test_every_entry_is_on_disk_when_the_campaign_returns(
        instance, tmp_path, workers):
    cache = ResultCache(tmp_path)
    estimate = estimate_availability_parallel(
        *instance, config(workers), cache=cache)
    assert estimate.fresh_solves > 3
    entries = sorted(tmp_path.glob("*.json"))
    # One entry per fresh solve, plus the healthy flow and one per
    # sampled round.
    assert len(entries) == estimate.fresh_solves + 1 + estimate.rounds
    assert not list(tmp_path.glob("*.tmp"))
    assert not writer_threads()
    for path in entries:
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        assert cache.get(path.stem) is not None
    warm = estimate_availability_parallel(
        *instance, config(workers), cache=cache)
    assert warm.fresh_solves == 0
    assert warm.degradations == estimate.degradations


def test_a_warm_campaign_starts_no_writer(instance, tmp_path, monkeypatch):
    estimate_availability_parallel(*instance, config(), cache=tmp_path)
    started = []
    monkeypatch.setattr(threading.Thread, "start",
                        lambda self: started.append(self))
    estimate_availability_parallel(*instance, config(), cache=tmp_path)
    assert started == []


def test_a_failed_write_fails_the_campaign(instance, tmp_path, monkeypatch):
    calls = []
    put = ResultCache.put

    def failing_put(self, key, result):
        calls.append(key)
        if len(calls) == 3:
            raise OSError("disk full")
        put(self, key, result)

    monkeypatch.setattr(ResultCache, "put", failing_put)
    with pytest.raises(OSError, match="disk full"):
        estimate_availability_parallel(*instance, config(), cache=tmp_path)
    assert not writer_threads()
    assert not list(tmp_path.glob("*.tmp"))


def test_a_failed_write_is_raised_after_the_block_raised(tmp_path):
    cache = ResultCache(tmp_path)
    with pytest.raises(TypeError, match="not JSON serializable") as raised:
        with cache.writer() as write:
            write("bad", {"value": {1, 2}})  # a set: json.dumps refuses
            raise RuntimeError("the campaign failed")
    assert isinstance(raised.value.__context__, RuntimeError)
    assert not writer_threads()
    assert not list(tmp_path.iterdir())


def test_a_torn_write_is_quarantined_on_the_next_get(instance, tmp_path):
    cache = ResultCache(tmp_path)
    plan = FaultPlan(seed=0, points=[
        FaultPoint("cache.torn_write", max_fires=1)])
    clean = estimate_availability_parallel(*instance, config(),
                                           cache=cache, chaos=plan)
    keys = [path.stem for path in tmp_path.glob("*.json")]
    assert len(keys) == clean.fresh_solves + 1 + clean.rounds
    torn = [key for key in keys if cache.get(key) is None]
    assert len(torn) == 1
    assert cache.quarantined() == [cache.quarantine_path_for(torn[0])]
    again = estimate_availability_parallel(*instance, config(), cache=cache)
    assert again.degradations == clean.degradations


def test_concurrent_writers_share_one_cache(tmp_path):
    # Four writer blocks on four threads put the same keys at once,
    # under frequent thread switches: every entry lands whole, and no
    # staging file or writer thread is left behind.
    cache = ResultCache(tmp_path)
    keys = [f"{i:064x}" for i in range(100)]

    def campaign():
        with cache.writer() as write:
            for i, key in enumerate(keys):
                write(key, {"delivered": float(i)})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=campaign) for _ in range(4)]
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
            assert not caller.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert [cache.get(key) for key in keys] == [
        {"delivered": float(i)} for i in range(len(keys))]
    assert not cache.quarantined()
    assert not list(tmp_path.glob("*.tmp"))
    assert not writer_threads()
