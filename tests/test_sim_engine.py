"""Tests for the discrete-event engine."""

from __future__ import annotations

import pytest

from repro.sim.clock import SECOND
from repro.sim.engine import SimulationError, Simulator
from repro.sim.sanitizer import OrderShuffleSimulator


def test_events_run_in_time_order(sim):
    order = []
    sim.schedule(30, order.append, "c")
    sim.schedule(10, order.append, "a")
    sim.schedule(20, order.append, "b")
    sim.run_until_idle()
    assert order == ["a", "b", "c"]


def test_ties_break_by_insertion_order(sim):
    order = []
    for label in "abcde":
        sim.schedule(100, order.append, label)
    sim.run_until_idle()
    assert order == list("abcde")


def test_clock_advances_to_event_time(sim):
    seen = []
    sim.schedule(250, lambda: seen.append(sim.now))
    sim.run_until_idle()
    assert seen == [250]
    assert sim.now == 250


def test_zero_delay_runs_after_queued_same_instant_events(sim):
    order = []

    def first():
        order.append("first")
        sim.call_soon(lambda: order.append("soon"))

    sim.schedule(10, first)
    sim.schedule(10, lambda: order.append("second"))
    sim.run_until_idle()
    assert order == ["first", "second", "soon"]


def test_cancelled_event_does_not_fire(sim):
    fired = []
    event = sim.schedule(10, fired.append, 1)
    event.cancel()
    sim.run_until_idle()
    assert fired == []
    assert not event.pending


def test_cancel_is_idempotent(sim):
    event = sim.schedule(10, lambda: None)
    event.cancel()
    event.cancel()
    sim.run_until_idle()


def test_negative_delay_rejected(sim):
    with pytest.raises(SimulationError):
        sim.schedule(-1, lambda: None)


def test_scheduling_in_past_rejected(sim):
    sim.schedule(100, lambda: None)
    sim.run_until_idle()
    with pytest.raises(SimulationError):
        sim.at(50, lambda: None)


def test_run_until_horizon_stops_and_advances_clock(sim):
    fired = []
    sim.schedule(1 * SECOND, fired.append, "early")
    sim.schedule(10 * SECOND, fired.append, "late")
    sim.run(until=5 * SECOND)
    assert fired == ["early"]
    assert sim.now == 5 * SECOND
    sim.run(until=20 * SECOND)
    assert fired == ["early", "late"]


def test_run_until_exact_event_time_includes_event(sim):
    fired = []
    sim.schedule(5 * SECOND, fired.append, "x")
    sim.run(until=5 * SECOND)
    assert fired == ["x"]


def test_events_scheduled_during_run_execute(sim):
    order = []

    def chain(n):
        order.append(n)
        if n < 5:
            sim.schedule(10, chain, n + 1)

    sim.schedule(0, chain, 0)
    sim.run_until_idle()
    assert order == [0, 1, 2, 3, 4, 5]


def test_max_events_guard(sim):
    def forever():
        sim.schedule(1, forever)

    sim.schedule(1, forever)
    with pytest.raises(SimulationError):
        sim.run_until_idle(max_events=100)


def test_step_executes_exactly_one(sim):
    fired = []
    sim.schedule(1, fired.append, "a")
    sim.schedule(2, fired.append, "b")
    assert sim.step()
    assert fired == ["a"]
    assert sim.step()
    assert fired == ["a", "b"]
    assert not sim.step()


def test_events_pending_counts_uncancelled(sim):
    e1 = sim.schedule(10, lambda: None)
    sim.schedule(20, lambda: None)
    assert sim.events_pending == 2
    e1.cancel()
    assert sim.events_pending == 1


def test_run_not_reentrant(sim):
    def reenter():
        with pytest.raises(SimulationError):
            sim.run()

    sim.schedule(1, reenter)
    sim.run_until_idle()


def test_kwargs_passed_to_callback(sim):
    seen = {}
    sim.schedule(1, lambda **kw: seen.update(kw), value=42)
    sim.run_until_idle()
    assert seen == {"value": 42}


def test_events_executed_counter(sim):
    for delay in range(1, 6):
        sim.schedule(delay, lambda: None)
    sim.run_until_idle()
    assert sim.events_executed == 5


def test_determinism_same_schedule_same_order():
    def build():
        order = []
        local = Simulator()
        for index in range(50):
            local.schedule((index * 7) % 13, order.append, index)
        local.run_until_idle()
        return order

    assert build() == build()


def test_same_timestamp_total_order():
    """The heap's (time, seq) entry prefix stays a total order at scale.

    1000 events on one timestamp must run in exact registration order,
    identically across fresh simulators, and interleaved cancellation
    must not reorder the survivors (a cancelled entry keeps its heap
    slot and is skipped at pop, never re-keyed).  ``Event`` has no
    ordering of its own: only the unique ``seq`` breaks ties.
    """
    def run_once(cancel_every=None):
        sim = Simulator()
        order = []
        events = [sim.at(1000, order.append, index) for index in range(1000)]
        if cancel_every is not None:
            for index in range(0, 1000, cancel_every):
                events[index].cancel()
        sim.run_until_idle()
        return order

    full = run_once()
    assert full == list(range(1000))
    assert run_once() == full

    survivors = run_once(cancel_every=3)
    assert survivors == [i for i in range(1000) if i % 3 != 0]
    assert run_once(cancel_every=3) == survivors


def test_cancellation_during_dispatch_keeps_equal_time_order():
    """Cancelling a later equal-time event from inside an earlier one
    must not disturb the ordering of the remaining events."""
    sim = Simulator()
    order = []
    events = []

    def head():
        order.append("head")
        events[2].cancel()  # a same-timestamp victim further down

    sim.at(500, head)
    for index in range(5):
        events.append(sim.at(500, order.append, index))
    sim.run_until_idle()
    assert order == ["head", 0, 1, 3, 4]


def test_events_are_unordered():
    """The heap compares (time, seq) only; comparing events is an error."""
    sim = Simulator()
    first = sim.at(10, lambda: None)
    second = sim.at(10, lambda: None)
    with pytest.raises(TypeError):
        first < second


@pytest.mark.parametrize("budget", [0, -1])
def test_run_with_non_positive_budget_executes_nothing(sim, budget):
    fired = []
    sim.schedule(1, fired.append, "a")
    assert sim.run(max_events=budget) == 0
    assert fired == []
    assert sim.events_executed == 0
    assert sim.events_pending == 1


def _tie_heavy_schedule(sim, order):
    """1000 events on 20 timestamps, some spawning same-instant work."""
    def fire(index):
        order.append(index)
        if index % 7 == 0:
            sim.call_soon(order.append, -index)

    for index in range(1000):
        sim.at((index * 13) % 20 * 50, fire, index)


def test_chunked_runs_compose_to_one_run():
    """Back-to-back ``run(until=...)`` calls give the same order as one
    ``run()``: a horizon chunk may end on a tie without reordering it."""
    whole_sim = Simulator()
    whole = []
    _tie_heavy_schedule(whole_sim, whole)
    whole_sim.run()

    chunked_sim = Simulator()
    chunked = []
    _tie_heavy_schedule(chunked_sim, chunked)
    executed = 0
    for until in range(0, 1001, 25):
        executed += chunked_sim.run(until=until)
    assert chunked == whole
    assert executed == chunked_sim.events_executed == whole_sim.events_executed
    assert chunked_sim.now == 1000


def test_order_shuffle_keys_keep_same_instant_fifo():
    """Tuple seqs fill the entry's middle slot: equal-time events
    registered in one instant still run FIFO."""
    sim = OrderShuffleSimulator(order_salt=3)
    order = []
    for index in range(100):
        sim.at(500, order.append, index)
    sim.run()
    assert order == list(range(100))


def test_exploration_hooks_skip_cancelled_entries(sim):
    fired = []
    first = sim.at(10, fired.append, "first")
    second = sim.at(10, fired.append, "second")
    third = sim.at(10, fired.append, "third")
    later = sim.at(20, fired.append, "later")
    first.cancel()
    third.cancel()
    assert sim.head_events() == [second]
    assert not sim.is_queued(first)  # pruned from the head by head_events
    assert sim.is_queued(third)      # cancelled but still holding its slot
    assert sim.is_queued(later)
    with pytest.raises(SimulationError):
        sim.step_event(third)
    sim.step_event(second)
    assert fired == ["second"]
    assert not sim.is_queued(second)
    assert sim.head_events() == [later]
    assert sim.pending_events() == [later]


def test_run_keeps_counters_current_during_dispatch():
    """``events_executed`` and a profiler attached mid-run see every event
    as it is dispatched, as in ``step`` and ``step_event``."""
    sim = Simulator()
    seen = []

    class Counting:
        def __init__(self):
            self.events = 0

        def count(self, _event):
            self.events += 1

    profiler = Counting()

    def attach():
        sim.profiler = profiler

    for t in range(1, 6):
        sim.at(t, lambda: seen.append(sim.events_executed))
    sim.at(2, attach)
    sim.run()
    assert seen == [1, 2, 4, 5, 6]
    assert profiler.events == 3  # the three events after the attach
    assert sim.events_executed == 6
