"""Unit tests for the discrete-event engine."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.engine import SimulationError, Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0.0


def test_clock_starts_at_custom_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_call_at_runs_callback_at_time():
    sim = Simulator()
    seen = []
    sim.call_at(1.5, lambda: seen.append(sim.now))
    sim.run()
    assert seen == [1.5]


def test_call_in_is_relative():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda: sim.call_in(0.5, lambda: seen.append(sim.now)))
    sim.run()
    assert seen == [1.5]


def test_events_run_in_time_order():
    sim = Simulator()
    order = []
    sim.call_at(2.0, lambda: order.append("b"))
    sim.call_at(1.0, lambda: order.append("a"))
    sim.call_at(3.0, lambda: order.append("c"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_run_in_schedule_order():
    sim = Simulator()
    order = []
    for tag in ("first", "second", "third"):
        sim.call_at(1.0, lambda t=tag: order.append(t))
    sim.run()
    assert order == ["first", "second", "third"]


def test_reserved_seq_orders_as_of_the_reservation():
    sim = Simulator()
    order = []
    later = sim.reserve_seq()
    now = sim.reserve_seq()
    sim.call_at(1.0, lambda: order.append("after"))
    sim.call_soon(lambda: order.append("soon"))
    sim.call_at(1.0, lambda: order.append("reserved"), seq=later)
    handle = sim.call_at(0.0, lambda: order.append("reserved-now"), seq=now)
    assert handle.active
    sim.run()
    assert order == ["reserved-now", "soon", "reserved", "after"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    handle = sim.call_at(1.0, lambda: seen.append("x"))
    handle.cancel()
    sim.run()
    assert seen == []


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.call_at(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    assert not handle.active


def test_scheduling_in_past_raises():
    sim = Simulator()
    sim.call_at(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(0.5, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        Simulator().call_in(-1.0, lambda: None)


def test_nan_time_raises():
    with pytest.raises(SimulationError):
        Simulator().call_at(float("nan"), lambda: None)


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    assert sim.run(until=3.0) == 3.0
    assert sim.now == 3.0


def test_run_until_leaves_future_events_pending():
    sim = Simulator()
    seen = []
    sim.call_at(5.0, lambda: seen.append("late"))
    sim.run(until=1.0)
    assert seen == []
    sim.run()
    assert seen == ["late"]


def test_run_max_events():
    sim = Simulator()
    seen = []
    for i in range(10):
        sim.call_at(float(i + 1), lambda i=i: seen.append(i))
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


def test_stop_halts_run():
    sim = Simulator()
    seen = []

    def first():
        seen.append(1)
        sim.stop()

    sim.call_at(1.0, first)
    sim.call_at(2.0, lambda: seen.append(2))
    sim.run()
    assert seen == [1]


def test_run_is_not_reentrant():
    sim = Simulator()

    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.call_at(1.0, reenter)
    sim.run()


def test_events_scheduled_during_run_execute():
    sim = Simulator()
    seen = []

    def chain(n):
        seen.append(n)
        if n < 5:
            sim.call_in(1.0, lambda: chain(n + 1))

    sim.call_at(0.0, lambda: chain(0))
    sim.run()
    assert seen == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_peek_skips_cancelled_events():
    sim = Simulator()
    h1 = sim.call_at(1.0, lambda: None)
    sim.call_at(2.0, lambda: None)
    h1.cancel()
    assert sim.peek() == 2.0


def test_peek_empty_returns_none():
    assert Simulator().peek() is None


def test_step_returns_false_when_drained():
    sim = Simulator()
    sim.call_at(1.0, lambda: None)
    assert sim.step() is True
    assert sim.step() is False


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.call_at(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_zero_delay_event_runs_at_current_time():
    sim = Simulator()
    times = []
    sim.call_at(1.0, lambda: sim.call_in(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [1.0]


def test_clock_monotonic_across_many_events():
    sim = Simulator()
    times = []
    import random

    rng = random.Random(7)
    for _ in range(200):
        sim.call_at(rng.uniform(0, 10), lambda: times.append(sim.now))
    sim.run()
    assert times == sorted(times)
    assert len(times) == 200


def test_active_is_false_after_firing():
    sim = Simulator()
    handle = sim.call_at(1.0, lambda: None)
    assert handle.active
    sim.run()
    assert handle.fired and not handle.active
    handle.cancel()  # no-op once fired
    assert handle.fired and not handle.cancelled


def test_zero_delay_calls_keep_schedule_order_with_timers():
    """Zero-delay calls (the ready lane) and timers due at the same
    instant run in the order they were scheduled."""
    sim = Simulator()
    order = []

    def at_one():
        order.append("timer")
        sim.call_soon(lambda: order.append("soon"))
        sim.call_at(1.0, lambda: order.append("at-now"))
        sim.call_in(0.0, lambda: order.append("in-0"))
        sim.call_later(0.0, lambda: order.append("later-0"))

    sim.call_at(1.0, at_one)
    sim.call_at(1.0, lambda: order.append("timer-2"))
    sim.call_soon(lambda: order.append("first"))
    sim.run()
    assert order == ["first", "timer", "timer-2", "soon", "at-now",
                     "in-0", "later-0"]


def test_call_later_checks_its_delay():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_later(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.call_later(float("nan"), lambda: None)


def test_cancelled_ready_entry_does_not_fire():
    sim = Simulator()
    seen = []
    handle = sim.call_in(0.0, lambda: seen.append("x"))
    sim.call_soon(lambda: seen.append("y"))
    handle.cancel()
    assert sim.peek() == 0.0
    sim.run()
    assert seen == ["y"] and not handle.active


# ----------------------------------------------------------------------
# Property test: the calendar against a list-scan reference
# ----------------------------------------------------------------------
KINDS = ("at", "in", "later", "soon", "cancel")
DELAYS = (0.0, 0.0, 0.5, 1.0, 2.0)


class _ListCalendar:
    """Reference calendar: a flat list scanned for the least
    (time, seq) live entry."""

    class Handle:
        def __init__(self, entry):
            self.entry = entry

        def cancel(self):
            self.entry[3] = True

    def __init__(self):
        self.now = 0.0
        self.entries = []
        self.seq = 0

    def call_at(self, time, callback):
        entry = [time, self.seq, callback, False]
        self.seq += 1
        self.entries.append(entry)
        return self.Handle(entry)

    def call_in(self, delay, callback):
        return self.call_at(self.now + delay, callback)

    def call_later(self, delay, callback):
        self.call_in(delay, callback)

    def call_soon(self, callback):
        self.call_in(0.0, callback)

    def run(self):
        while True:
            live = [e for e in self.entries if not e[3]]
            if not live:
                return
            entry = min(live, key=lambda e: (e[0], e[1]))
            self.entries.remove(entry)
            self.now = entry[0]
            entry[2]()


class _Program:
    """Replays a generated program of schedule and cancel ops on a
    calendar.  Op ``i`` is issued at the start, or from inside the
    callback of the op that is its parent, at that callback's time."""

    def __init__(self, ops, calendar):
        self.ops = ops
        self.cal = calendar
        self.children = {i: [] for i in range(-1, len(ops))}
        for i, (kind, _, parent, _) in enumerate(ops):
            parent = parent % (i + 1) - 1
            if parent >= 0 and ops[parent][0] == "cancel":
                parent = -1
            self.children[parent].append(i)
        self.handles = {}
        self.log = []  # (op index, time fired)
        self.cancelled = set()  # ops cancelled before they fired

    def start(self):
        for i in self.children[-1]:
            self._issue(i)

    def _issue(self, i):
        kind, delay, _, target = self.ops[i]
        cal = self.cal

        def fire():
            self._fire(i)

        if kind == "cancel":
            target %= max(i, 1)
            handle = self.handles.get(target)
            if handle is not None:
                handle.cancel()
                if target not in self.fired_ops:
                    self.cancelled.add(target)
        elif kind == "soon":
            cal.call_soon(fire)
        elif kind == "later":
            cal.call_later(delay, fire)
        elif kind == "at":
            self.handles[i] = cal.call_at(cal.now + delay, fire)
        else:
            self.handles[i] = cal.call_in(delay, fire)

    @property
    def fired_ops(self):
        return {i for i, _ in self.log}

    def _fire(self, i):
        self.log.append((i, self.cal.now))
        for child in self.children[i]:
            self._issue(child)


_ops = st.lists(st.tuples(st.sampled_from(KINDS), st.sampled_from(DELAYS),
                          st.integers(0, 64), st.integers(0, 64)),
                min_size=1, max_size=40)
_drives = st.lists(st.one_of(
    st.just(("step",)), st.just(("peek",)),
    st.tuples(st.just("until"), st.sampled_from((0.0, 0.25, 0.5, 1.0, 1.5))),
    st.tuples(st.just("max"), st.integers(0, 4))), max_size=24)


@settings(max_examples=300, deadline=None)
@given(_ops, _drives)
def test_calendar_matches_reference_order(ops, drives):
    reference = _Program(ops, _ListCalendar())
    reference.start()
    reference.cal.run()
    expected = reference.log

    program = _Program(ops, Simulator())
    sim = program.cal
    program.start()
    for drive in drives:
        before = len(program.log)
        if drive[0] == "peek":
            assert sim.peek() == (expected[before][1]
                                  if before < len(expected) else None)
        elif drive[0] == "step":
            assert sim.step() is (before < len(expected))
            assert len(program.log) == min(before + 1, len(expected))
        elif drive[0] == "max":
            sim.run(max_events=drive[1])
            assert len(program.log) == min(before + drive[1], len(expected))
        else:
            until = sim.now + drive[1]
            assert sim.run(until=until) == until
            done = len(program.log)
            assert all(t <= until for _, t in expected[before:done])
            assert done == len(expected) or expected[done][1] > until
        assert program.log == expected[:len(program.log)]
        for i, handle in program.handles.items():
            assert handle.active is (i not in program.fired_ops
                                     and i not in program.cancelled)
    sim.run()
    assert program.log == expected
    assert sim.events_processed == len(expected)
    for i, handle in program.handles.items():
        assert not handle.active
        assert handle.fired is (i not in program.cancelled)
