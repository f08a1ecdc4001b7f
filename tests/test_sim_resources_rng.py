"""Unit tests for FIFO locks and seeded RNG substreams."""

import numpy as np
import pytest

from repro.sim.engine import Simulator
from repro.sim.process import Timeout, spawn
from repro.sim.resources import FifoLock
from repro.sim.rng import RngFactory, substream_seed


def test_uncontended_acquire_grants_immediately():
    sim = Simulator()
    lock = FifoLock(sim)
    grant = lock.acquire()
    assert grant.triggered
    assert lock.locked


def test_release_unlocks():
    sim = Simulator()
    lock = FifoLock(sim)
    lock.acquire()
    lock.release()
    assert not lock.locked


def test_release_without_hold_raises():
    with pytest.raises(RuntimeError):
        FifoLock(Simulator()).release()


def test_waiters_granted_fifo():
    sim = Simulator()
    lock = FifoLock(sim)
    order = []

    def worker(name, hold):
        grant = lock.acquire(holder=name)
        yield grant
        order.append(name)
        yield Timeout(hold)
        lock.release()

    spawn(sim, worker("a", 1.0))
    spawn(sim, worker("b", 1.0))
    spawn(sim, worker("c", 1.0))
    sim.run()
    assert order == ["a", "b", "c"]


def test_priority_waiters_jump_queue():
    sim = Simulator()
    lock = FifoLock(sim)
    order = []

    def worker(name, priority):
        grant = lock.acquire(priority=priority, holder=name)
        yield grant
        order.append(name)
        yield Timeout(1.0)
        lock.release()

    def launch():
        yield Timeout(0.0)
        spawn(sim, worker("low-1", 0))
        spawn(sim, worker("low-2", 0))
        spawn(sim, worker("high", 1))

    spawn(sim, worker("holder", 0))
    spawn(sim, launch())
    sim.run()
    assert order == ["holder", "high", "low-1", "low-2"]


def test_waiters_granted_by_priority_then_fifo():
    """Grant order is (-priority, arrival) over many interleaved
    priority classes, including waiters that cancel."""
    sim = Simulator()
    lock = FifoLock(sim)
    priorities = [0, 2, 1, 2, 0, 1, 3, 0, 2, 1]
    granted_order = []
    assert lock.acquire(holder="holder").triggered
    grants = []
    for i, priority in enumerate(priorities):
        grant = lock.acquire(priority=priority, holder=str(i))
        grant.add_callback(lambda _s, i=i: granted_order.append(i))
        grants.append(grant)
    assert lock.cancel(grants[3]) and lock.cancel(grants[7])
    for _ in range(len(priorities) - 2):
        lock.release()
    expected = sorted((i for i in range(len(priorities)) if i not in (3, 7)),
                      key=lambda i: (-priorities[i], i))
    assert granted_order == expected
    lock.release()
    assert not lock.locked


def test_lock_stays_held_across_handoff():
    sim = Simulator()
    lock = FifoLock(sim)

    def a():
        yield lock.acquire()
        yield Timeout(1.0)
        lock.release()

    def b():
        yield lock.acquire()
        assert lock.locked
        lock.release()

    spawn(sim, a())
    spawn(sim, b())
    sim.run()
    assert not lock.locked


def test_substream_seed_is_deterministic():
    assert substream_seed(42, "alpha") == substream_seed(42, "alpha")


def test_substream_seed_varies_by_name():
    assert substream_seed(42, "alpha") != substream_seed(42, "beta")


def test_substream_seed_varies_by_root():
    assert substream_seed(1, "alpha") != substream_seed(2, "alpha")


def test_substream_seed_is_nonnegative_63bit():
    seed = substream_seed(123456789, "some-very-long-name")
    assert 0 <= seed < 2**63


def test_rng_factory_streams_are_reproducible():
    a = RngFactory(7).stream("arrivals").random(5)
    b = RngFactory(7).stream("arrivals").random(5)
    assert np.allclose(a, b)


def test_rng_factory_streams_are_independent():
    a = RngFactory(7).stream("arrivals").random(5)
    b = RngFactory(7).stream("jitter").random(5)
    assert not np.allclose(a, b)
