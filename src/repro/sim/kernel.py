"""A simpy-style discrete-event simulation kernel.

The kernel is deliberately small but complete enough for this project:

* :class:`Environment` owns the simulation clock and the event heap.
* :class:`Event` is a one-shot waitable; processes waiting on it are resumed
  when it succeeds (or receive the exception when it fails).
* :class:`Timeout` is an event that fires after a fixed delay.
* :class:`Process` wraps a generator; yielding an event suspends the process
  until the event fires; a process is itself an event that fires when the
  generator returns.
* :class:`AllOf` / :class:`AnyOf` compose events.
* :meth:`Process.interrupt` injects an :class:`Interrupt` exception into a
  suspended process (used by the fault injector to cancel repairs etc.).

Determinism: events scheduled for the same time fire in scheduling order
(FIFO), which makes simulations reproducible without tie-breaking hacks.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Generator, Iterable, Optional

from repro.errors import SimulationError

#: Type of the generators that implement simulation processes.
ProcessGenerator = Generator["Event", Any, Any]


class Interrupt(Exception):
    """Thrown inside a process when another process interrupts it."""

    def __init__(self, cause: Any = None) -> None:
        super().__init__(cause)
        self.cause = cause


class Event:
    """A one-shot occurrence that processes can wait on.

    An event starts *pending*, becomes *triggered* when :meth:`succeed` or
    :meth:`fail` is called, and its callbacks run when the environment pops
    it off the schedule.  After that it is *processed* and its :attr:`value`
    is stable.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        self.callbacks: Optional[list[Callable[[Event], None]]] = []
        self._value: Any = None
        self._ok: Optional[bool] = None

    @property
    def triggered(self) -> bool:
        """True once succeed()/fail() has been called."""
        return self._ok is not None

    @property
    def processed(self) -> bool:
        """True once callbacks have run (the event left the queue)."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only meaningful once triggered."""
        if self._ok is None:
            raise SimulationError("event value read before it was triggered")
        return self._ok

    @property
    def value(self) -> Any:
        """The success value or failure exception."""
        if self._ok is None:
            raise SimulationError("event value read before it was triggered")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self._ok is not None:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._enqueue_triggered(self)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        Waiting processes receive the exception via ``throw``.
        """
        if self._ok is not None:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() requires an exception instance")
        self._ok = False
        self._value = exception
        self.env._enqueue_triggered(self)
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Run ``callback(event)`` when the event is processed."""
        if self.callbacks is None:
            # Already processed: run immediately so late waiters still fire.
            callback(self)
        else:
            self.callbacks.append(callback)

    def _process_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        if callbacks:
            for callback in callbacks:
                callback(self)


class Timeout(Event):
    """An event that fires ``delay`` time units after it is created."""

    __slots__ = ("delay", "_value_on_fire")

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if delay < 0:
            raise ValueError(f"negative timeout delay: {delay}")
        super().__init__(env)
        self.delay = delay
        # The timeout only *triggers* when the clock reaches it (step()
        # fires it); until then it must look pending to AnyOf/AllOf.
        self._value_on_fire = value
        env._enqueue_at(env.now + delay, self)


class Process(Event):
    """A running simulation process wrapping a generator.

    The process is itself an event: it triggers with the generator's return
    value when the generator finishes, or fails with the uncaught exception.
    """

    __slots__ = ("_generator", "name", "_waiting_on")

    def __init__(self, env: "Environment", generator: ProcessGenerator,
                 name: str = "") -> None:
        super().__init__(env)
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on: Optional[Event] = None
        # Bootstrap: resume the generator at the current simulation time.
        bootstrap = Event(env)
        bootstrap.succeed()
        bootstrap.add_callback(self._resume)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return self._ok is None

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time."""
        if not self.is_alive:
            raise SimulationError(f"cannot interrupt finished process {self.name}")
        if self._waiting_on is not None:
            # Detach from whatever it was waiting for.
            waited = self._waiting_on
            self._waiting_on = None
            if waited.callbacks is not None and self._resume in waited.callbacks:
                waited.callbacks.remove(self._resume)
        poke = Event(self.env)
        poke.fail(Interrupt(cause))
        poke.add_callback(self._resume)

    def _resume(self, event: Event) -> None:
        if not self.is_alive:
            return
        self._waiting_on = None
        try:
            if event._ok:
                target = self._generator.send(event._value)
            else:
                target = self._generator.throw(event._value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except Interrupt as exc:
            # An un-handled interrupt terminates the process abnormally.
            self.fail(exc)
            return
        except BaseException as exc:
            self.fail(exc)
            return
        if not isinstance(target, Event):
            raise SimulationError(
                f"process {self.name!r} yielded {target!r}; processes must "
                "yield Event instances (Timeout, Process, ...)"
            )
        if target.env is not self.env:
            raise SimulationError("yielded an event from a different Environment")
        self._waiting_on = target
        target.add_callback(self._resume)


class _Condition(Event):
    """Base for AllOf/AnyOf composition events."""

    __slots__ = ("_events", "_pending")

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env)
        self._events = list(events)
        self._pending = 0
        for event in self._events:
            if event.processed:
                self._observe(event)
            else:
                self._pending += 1
                event.add_callback(self._observe)
        self._check()

    def _observe(self, event: Event) -> None:
        if self.triggered:
            return
        if not event._ok:
            self.fail(event._value)
            return
        self._pending = max(0, self._pending - 1)
        self._check()

    def _check(self) -> None:  # pragma: no cover - abstract hook
        raise NotImplementedError


class AllOf(_Condition):
    """Fires when every component event has fired; value is the list of values."""

    __slots__ = ()

    def _check(self) -> None:
        if not self.triggered and all(e.triggered for e in self._events):
            self.succeed([e._value for e in self._events])


class AnyOf(_Condition):
    """Fires when the first component event fires; value is that event's value."""

    __slots__ = ()

    def _check(self) -> None:
        for event in self._events:
            if event.triggered and not self.triggered:
                self.succeed(event._value)
                return


class Environment:
    """The simulation environment: clock, schedule, and run loop."""

    __slots__ = ("_now", "_heap", "_sequence")

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now = float(initial_time)
        self._heap: list[tuple[float, int, Event]] = []
        self._sequence = itertools.count()

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    # -- event construction helpers -------------------------------------

    def event(self) -> Event:
        """Create a fresh pending event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event that fires after ``delay`` time units."""
        return Timeout(self, delay, value)

    def process(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from ``generator`` at the current time."""
        return Process(self, generator, name=name)

    # -- scheduling internals --------------------------------------------

    def _enqueue_at(self, when: float, event: Event) -> None:
        heapq.heappush(self._heap, (when, next(self._sequence), event))

    def _enqueue_triggered(self, event: Event) -> None:
        self._enqueue_at(self._now, event)

    # -- run loop ---------------------------------------------------------

    def step(self) -> None:
        """Process the single next event.  Raises IndexError when empty."""
        when, _seq, event = heapq.heappop(self._heap)
        if when < self._now:
            raise SimulationError("event scheduled in the past")
        self._now = when
        if event._ok is None:
            # A delayed event (Timeout) fires when the clock reaches it.
            event._ok = True
            event._value = getattr(event, "_value_on_fire", None)
        event._process_callbacks()

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._heap[0][0] if self._heap else float("inf")

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until no events remain;
        * a number — run until the clock reaches that time;
        * an :class:`Event` — run until that event is processed and return
          its value (raising its exception if it failed).
        """
        if isinstance(until, Event):
            sentinel = until
            while not sentinel.processed:
                if not self._heap:
                    raise SimulationError(
                        "simulation ran out of events before the awaited "
                        "event triggered"
                    )
                self.step()
            if sentinel._ok:
                return sentinel._value
            raise sentinel._value
        horizon = float("inf") if until is None else float(until)
        if horizon < self._now:
            raise ValueError("cannot run to a time in the past")
        while self._heap and self._heap[0][0] <= horizon:
            self.step()
        if horizon != float("inf"):
            self._now = horizon
        return None
