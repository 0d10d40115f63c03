"""The discrete-event engine.

A :class:`Simulator` owns a priority queue of :class:`Event` objects and
executes them in timestamp order.  Ties are broken by insertion order,
which keeps runs fully deterministic.  The queue holds ``(time, seq,
event)`` tuples, so ``heapq`` orders entries by comparing C tuples;
``seq`` is unique, so the third slot is never compared and
:class:`Event` itself is unordered.  There are no threads: a "device"
in this reproduction is just an object whose methods schedule further
events.

The engine deliberately mirrors the shape of a kernel event loop rather
than a generator-based process model (as in simpy): the paper's code is
interrupt-driven C, and callback-style events map onto interrupt
handlers and timeouts one-for-one.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, Optional

from repro.sim.clock import format_time


class SimulationError(RuntimeError):
    """Raised for illegal engine operations (e.g. scheduling in the past)."""


class Event:
    """A single scheduled callback.

    Events are returned by :meth:`Simulator.schedule` / :meth:`Simulator.at`
    and may be cancelled before they fire.  Cancellation is O(1): the
    event is flagged and skipped when it reaches the head of the queue.
    """

    __slots__ = ("time", "seq", "fn", "args", "kwargs", "cancelled", "label")

    def __init__(
        self,
        time: int,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        kwargs: dict,
        label: str = "",
    ) -> None:
        self.time = time
        self.seq = seq
        self.fn = fn
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.label = label

    def cancel(self) -> None:
        """Prevent this event from firing.  Idempotent."""
        self.cancelled = True

    @property
    def pending(self) -> bool:
        """True while the event is still queued and not cancelled."""
        return not self.cancelled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        name = self.label or getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event {name} @{format_time(self.time)} {state}>"


class Simulator:
    """Deterministic single-threaded discrete-event loop.

    Typical use::

        sim = Simulator()
        sim.schedule(10 * MS, device.transmit, frame)
        sim.run(until=5 * SECOND)

    All components in the reproduction share one ``Simulator`` and
    consult :attr:`now` for the current time.
    """

    def __init__(self) -> None:
        # Heap of (time, seq, event).  The (time, seq) prefix is a total
        # order: ``seq`` is unique per simulator, so two entries never
        # tie and the event slot is never compared -- were that ever
        # broken, the heap would raise TypeError (Event defines no
        # ordering) rather than misorder silently.  Cancellation never
        # touches the key: a cancelled entry keeps its slot and is
        # skipped at pop, so it cannot reorder equal-time survivors.
        self._queue: list[tuple[int, Any, Event]] = []
        self._seq = 0
        self._now = 0
        self._running = False
        self._events_executed = 0
        #: Optional SimProfiler (repro.obs.profile); like tracer.flight,
        #: a single attribute that keeps the off-cost to one None test.
        self.profiler = None

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------

    @property
    def now(self) -> int:
        """Current simulated time in microseconds."""
        return self._now

    @property
    def events_executed(self) -> int:
        """Total number of events dispatched so far (for diagnostics).

        :meth:`run` adds its count when it returns, so a callback reading
        this mid-run sees the total before the run in progress.
        """
        return self._events_executed

    @property
    def events_pending(self) -> int:
        """Number of not-yet-cancelled events still in the queue."""
        return sum(1 for _time, _seq, event in self._queue if not event.cancelled)

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(
        self,
        delay: int,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn(*args, **kwargs)`` to run ``delay`` ticks from now.

        ``delay`` must be non-negative; a zero delay runs after all events
        already queued for the current instant (FIFO within a timestamp).
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        return self.at(self._now + delay, fn, *args, label=label, **kwargs)

    def at(
        self,
        time: int,
        fn: Callable[..., Any],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> Event:
        """Schedule ``fn`` at an absolute simulated time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {format_time(time)}; now is {format_time(self._now)}"
            )
        seq = self._next_seq(time)
        event = Event(time, seq, fn, args, kwargs, label)
        heapq.heappush(self._queue, (time, seq, event))
        return event

    def _next_seq(self, time: int):
        """Tie-break key for a new event at ``time``.

        The default — a monotonic integer — gives strict registration
        (FIFO) order among equal-time events.  The SimSanitizer's
        shuffle simulator overrides this to perturb *cross-instant*
        ties while preserving FIFO among events scheduled in the same
        instant; any override must keep keys unique and totally ordered,
        or the heap falls through to comparing :class:`Event` objects
        and raises ``TypeError``.
        """
        self._seq += 1
        return self._seq

    def call_soon(self, fn: Callable[..., Any], *args: Any, label: str = "", **kwargs: Any) -> Event:
        """Schedule ``fn`` at the current instant (after already-queued work).

        This is the analogue of a software interrupt: a device interrupt
        handler uses it to defer protocol processing out of "interrupt
        context", exactly as the paper's driver defers IP input.
        """
        return self.schedule(0, fn, *args, label=label, **kwargs)

    # ------------------------------------------------------------------
    # exploration hooks (repro.check drives these)
    # ------------------------------------------------------------------

    def head_events(self) -> "list[Event]":
        """All pending events at the earliest queued timestamp, in seq order.

        These are exactly the schedules a real kernel could execute next:
        the engine's default is FIFO (lowest ``seq`` first), but any of
        them firing first is a legal interleaving.  The model checker
        (:mod:`repro.check`) enumerates them; normal runs never call this.
        Cancelled events are pruned from the head of the queue as a side
        effect, exactly as :meth:`step` would.
        """
        queue = self._queue
        while queue and queue[0][2].cancelled:
            heapq.heappop(queue)
        if not queue:
            return []
        head_time = queue[0][0]
        return [event for time, _seq, event in sorted(
                    entry for entry in queue if entry[0] == head_time)
                if not event.cancelled]

    def pending_events(self) -> "list[Event]":
        """Every not-yet-cancelled queued event, in no particular order.

        Read-only diagnostics: reprocheck folds the pending set (as
        now-relative times plus labels) into its state fingerprint.
        """
        return [event for _time, _seq, event in self._queue if not event.cancelled]

    def is_queued(self, event: Event) -> bool:
        """True while ``event`` sits in this simulator's queue.

        Identity-based on purpose (``Event`` defines no ``__eq__``, so
        the entry's third slot matches only this very event): a fired
        event keeps ``cancelled == False`` but leaves the queue, and
        reprocheck's stuck-FSM
        invariant needs to tell "armed timer" apart from "stale
        reference to a timer that already fired".
        """
        return (event.time, event.seq, event) in self._queue

    def step_event(self, event: Event) -> None:
        """Execute one specific pending head event (exploration only).

        ``event`` must come from :meth:`head_events` on this simulator.
        The queue is small at the head (a handful of same-instant
        events), so remove + re-heapify is cheap; correctness matters
        more than speed on this path.
        """
        if event.cancelled:
            raise SimulationError(f"cannot step cancelled event {event!r}")
        try:
            self._queue.remove((event.time, event.seq, event))
        except ValueError:
            raise SimulationError(f"event {event!r} is not queued here") from None
        heapq.heapify(self._queue)
        if event.time < self._now:
            raise SimulationError(f"event {event!r} lies in the past")
        self._now = event.time
        self._events_executed += 1
        if self.profiler is not None:
            self.profiler.count(event)
        event.fn(*event.args, **event.kwargs)

    # ------------------------------------------------------------------
    # running
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the single next pending event.

        Returns False when the queue is empty (nothing was run).
        """
        while self._queue:
            _time, _seq, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            self._now = event.time
            self._events_executed += 1
            if self.profiler is not None:
                self.profiler.count(event)
            event.fn(*event.args, **event.kwargs)
            return True
        return False

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` is reached, or ``max_events``.

        ``until`` is an absolute time: the clock is advanced to exactly
        ``until`` when the horizon is hit, so back-to-back ``run`` calls
        compose.  Returns the number of events executed by this call.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not reentrant")
        self._running = True
        queue = self._queue
        heappop = heapq.heappop
        # Sentinels instead of two ``is not None`` tests per event.  An
        # infinite horizon compares exactly with int times, and a budget
        # of 0 or below runs nothing because the test is ``<``.
        horizon = math.inf if until is None else until
        budget = math.inf if max_events is None else max_events
        executed = 0
        try:
            while queue and executed < budget:
                time, _seq, event = queue[0]
                if event.cancelled:
                    heappop(queue)
                    continue
                if time > horizon:
                    break
                heappop(queue)
                self._now = time
                executed += 1
                self._events_executed += 1
                if self.profiler is not None:
                    self.profiler.count(event)
                event.fn(*event.args, **event.kwargs)
        finally:
            self._running = False
        if until is not None and self._now < until:
            self._now = until
        return executed

    def run_until_idle(self, max_events: int = 10_000_000) -> int:
        """Run until no events remain.  Guards against runaway loops."""
        executed = self.run(max_events=max_events)
        if self._queue and self.events_pending:
            if executed >= max_events:
                raise SimulationError(
                    f"simulation did not go idle within {max_events} events"
                )
        return executed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Simulator now={format_time(self._now)} "
            f"pending={self.events_pending} executed={self._events_executed}>"
        )
