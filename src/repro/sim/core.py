"""Heap-driven discrete-event simulator with generator processes."""

import functools
import heapq
import time
from collections import deque
from typing import Any, Callable, Dict, Generator, Iterable, List, Optional


class SimulationError(Exception):
    """Raised for illegal simulator operations (e.g. scheduling in
    the past)."""


class Event:
    """A callback scheduled at a simulated time.

    Events are created through :meth:`Simulator.schedule` and may be
    cancelled with :meth:`Simulator.cancel` (or :meth:`cancel`) any time
    before they fire, or moved with :meth:`reschedule` /
    :meth:`reschedule_at`.

    The heap stores ``(time, seq, event)`` tuples, so ordering is
    decided by C-level tuple comparison — the event object itself never
    participates in heap sift comparisons.  ``time`` on the event is the
    *target* fire time; ``_key_time`` is the time of the heap entry that
    currently carries the event.  Rescheduling to a later time only
    moves ``time`` (the stale entry re-keys itself lazily when it pops);
    rescheduling earlier pushes a fresh entry under a fresh ``seq`` and
    the old entry is skipped as stale when it surfaces.
    """

    __slots__ = ("sim", "time", "seq", "callback", "args",
                 "cancelled", "fired", "_key_time")

    def __init__(self, sim: "Simulator", time: float, seq: int,
                 callback: Callable[..., Any], args: tuple):
        self.sim = sim
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.fired = False
        self._key_time = time

    def cancel(self) -> None:
        """Mark the event so the loop skips (and counts) it when it
        pops.  Idempotent; a no-op once the event has fired."""
        if self.cancelled or self.fired:
            return
        self.cancelled = True
        sim = self.sim
        sim._live -= 1
        sim._note_dead()

    def reschedule(self, delay: float) -> "Event":
        """Move a pending event to ``now + delay`` without cancel/
        re-schedule churn (see :meth:`reschedule_at`)."""
        return self.reschedule_at(self.sim.now + delay)

    def reschedule_at(self, when: float) -> "Event":
        """Move a pending event to absolute time ``when``.

        Moving *later* is free: only the target time changes, and the
        existing heap entry lazily re-keys itself when it pops.  Moving
        *earlier* pushes one fresh heap entry (the old one is skipped as
        stale when it surfaces).  Raises if the event already fired or
        was cancelled — a fired event cannot be revived (arm a fresh
        one; :class:`Wakeup` does exactly that).
        """
        if self.fired:
            raise SimulationError("cannot reschedule fired %r" % self)
        if self.cancelled:
            raise SimulationError("cannot reschedule cancelled %r" % self)
        sim = self.sim
        if when < sim.now:
            raise SimulationError(
                "cannot reschedule to %.9f, %.9fs in the past"
                % (when, sim.now - when))
        if when == self.time:
            return self
        if when >= self._key_time:
            # deferred: the queued entry pops at _key_time and re-keys
            # itself to the new target — no heap operation now
            self.time = when
            return self
        # earlier than the queued entry: re-key under a fresh seq; the
        # old entry goes stale and is skipped when it pops
        self.time = when
        self._key_time = when
        self.seq = sim._seq
        sim._seq += 1
        heapq.heappush(sim._heap, (when, self.seq, self))
        sim._note_dead()
        return self

    def __lt__(self, other: "Event") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:
        if self.cancelled:
            state = "cancelled"
        elif self.fired:
            state = "fired"
        else:
            state = "pending"
        return "Event(t=%.9f, seq=%d, %s, %s)" % (
            self.time, self.seq, state, classify_callback(self.callback))


class Wakeup:
    """A re-armable timer for recurring consumers.

    One-shot :class:`Signal` does not fit a consumer that sleeps and
    wakes thousands of times (a pull driver parked on an empty queue):
    every fire would need a fresh signal plus re-subscription.  A
    ``Wakeup`` wraps one callback and keeps re-arming cheap:

    * :meth:`arm` / :meth:`arm_at` — schedule the callback; if already
      armed, the pending event is *rescheduled* (no cancel churn; see
      :meth:`Event.reschedule_at`).
    * :meth:`arm_before` — only pull an armed deadline earlier, never
      push it later (the "wake me no later than" operation a notifier
      listener wants).
    * :meth:`disarm` — cancel the pending shot, keep the wakeup.

    The scheduled callback is the consumer's own bound method, so
    dispatch accounting attributes the work to the consumer, not to
    this wrapper.
    """

    __slots__ = ("sim", "callback", "args", "event")

    def __init__(self, sim: "Simulator", callback: Callable[..., Any],
                 *args: Any):
        self.sim = sim
        self.callback = callback
        self.args = args
        self.event: Optional[Event] = None

    @property
    def armed(self) -> bool:
        event = self.event
        return (event is not None and not event.fired
                and not event.cancelled)

    def arm(self, delay: float) -> Event:
        """Fire ``delay`` seconds from now (move the shot if armed)."""
        return self.arm_at(self.sim.now + delay)

    def arm_at(self, when: float) -> Event:
        """Fire at absolute time ``when`` (move the shot if armed)."""
        sim = self.sim
        if when < sim.now:
            when = sim.now
        event = self.event
        if event is not None and not event.fired and not event.cancelled:
            return event.reschedule_at(when)
        event = sim.schedule_at(when, self.callback, *self.args)
        self.event = event
        return event

    def arm_before(self, when: float) -> Event:
        """Ensure the wakeup fires no later than ``when`` — arms if
        idle, pulls an armed shot earlier, never pushes it later."""
        event = self.event
        if (event is not None and not event.fired
                and not event.cancelled and event.time <= when):
            return event
        return self.arm_at(when)

    def disarm(self) -> None:
        event = self.event
        if event is not None:
            event.cancel()
            self.event = None

    def __repr__(self) -> str:
        state = "armed@%.9f" % self.event.time if self.armed else "idle"
        return "Wakeup(%s, %s)" % (classify_callback(self.callback), state)


def classify_callback(callback: Callable[..., Any]) -> str:
    """The *kind* of an event: ``module.Qualname`` of the callback's
    owner, with the package prefix dropped — a link delivery event
    classifies as ``netem.link.Link._deliver``, a Click timer as
    ``click.element.Element._on_timer``, and so on.  Partials are
    unwrapped to the function they carry."""
    while isinstance(callback, functools.partial):
        callback = callback.func
    func = getattr(callback, "__func__", callback)
    module = getattr(func, "__module__", "") or ""
    name = (getattr(func, "__qualname__", None)
            or getattr(func, "__name__", None)
            or type(callback).__name__)
    if module.startswith("repro."):
        module = module[len("repro."):]
    elif module in ("builtins", "__main__"):
        module = ""
    return "%s.%s" % (module, name) if module else name


class KindStat:
    """Dispatch totals for one event kind (callback owner)."""

    __slots__ = ("kind", "count", "self_seconds")

    def __init__(self, kind: str):
        self.kind = kind
        self.count = 0
        self.self_seconds = 0.0

    @property
    def per_call(self) -> float:
        """Mean self seconds per dispatch of this kind."""
        return self.self_seconds / self.count if self.count else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"count": self.count, "self_s": self.self_seconds,
                "per_call_s": self.per_call}

    def __repr__(self) -> str:
        return "KindStat(%s, count=%d, self=%.6fs)" % (
            self.kind, self.count, self.self_seconds)


class DispatchAccounting:
    """Event-loop introspection: who the dispatcher works for.

    The profiler answers *how much* time ``sim.event.dispatch`` burns;
    this layer answers *on what*.  When enabled, every dispatched event
    is classified by its callback owner (see :func:`classify_callback`)
    and charged wall-clock self-time — nested dispatches (``step``
    pumping inside a callback) are subtracted from the outer event, so
    kind self-times sum to the loop's inclusive dispatch time without
    double counting.  Alongside the per-kind table it tracks:

    * *coalescability* — events that fire at exactly the timestamp of
      the event dispatched before them.  This is the packet-train
      headroom number: a batch dispatcher could hand all such events to
      their callbacks without re-entering the heap.
    * *scheduling lag* — how late an event fired relative to its
      scheduled time.  Zero today (pops are time-ordered and the clock
      only advances); the histogram is the tripwire for a batching
      dispatcher that would run events at a clock already past their
      timestamp.
    * *cancelled churn* — cancelled events the loop popped and threw
      away, plus dead entries swept by heap compaction (counted even
      while accounting is disabled: the discards happen regardless and
      the counter costs nothing on the live path).
    * *wakeups vs polls* — pull-driver activations split by cause:
      notifier-driven wakeups and exact rate-credit shots versus blind
      interval polls (counted always-on by the Click drivers; the
      event-driven pull path should drive polls to ~zero).
    * *peak heap depth* — the deepest backlog observed while enabled.

    Off by default.  The disabled dispatch path pays a single attribute
    check, the same contract (and the same <5% benchmark guard) as the
    profiler.
    """

    LAG_WINDOW = 2048  # positive lags kept for percentile queries

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or time.perf_counter
        self.enabled = False
        self.kinds: Dict[str, KindStat] = {}
        self._kind_cache: Dict[Any, str] = {}
        self._stack: List[list] = []
        self.dispatched = 0
        self.self_seconds = 0.0
        self.coalescable = 0
        self._last_time: Optional[float] = None
        self.cancelled_popped = 0
        self.wakeups = 0
        self.polls = 0
        self.late = 0
        self.lag_sum = 0.0
        self.lag_max = 0.0
        self._lags: deque = deque(maxlen=self.LAG_WINDOW)
        self.max_heap_depth = 0

    # -- control -----------------------------------------------------------

    def enable(self) -> "DispatchAccounting":
        self.enabled = True
        return self

    def disable(self) -> "DispatchAccounting":
        self.enabled = False
        self._stack = []
        return self

    def reset(self) -> None:
        """Drop every recorded number (keeps the enabled state and the
        kind cache — classifications do not go stale)."""
        self._stack = []
        self.kinds = {}
        self.dispatched = 0
        self.self_seconds = 0.0
        self.coalescable = 0
        self._last_time = None
        self.cancelled_popped = 0
        self.wakeups = 0
        self.polls = 0
        self.late = 0
        self.lag_sum = 0.0
        self.lag_max = 0.0
        self._lags.clear()
        self.max_heap_depth = 0

    # -- recording (called by the Simulator loop) --------------------------

    def begin(self, event: Event, now: float,
              heap_depth: int = 0) -> list:
        """Pre-dispatch bookkeeping; returns the frame for
        :meth:`finish`.  ``now`` is the clock *before* it advances to
        the event's timestamp; ``heap_depth`` is the backlog left
        behind the popped event (sampled here so the disabled
        ``schedule`` path stays untouched)."""
        if heap_depth > self.max_heap_depth:
            self.max_heap_depth = heap_depth
        time_stamp = event.time
        if time_stamp == self._last_time:
            self.coalescable += 1
        self._last_time = time_stamp
        lag = now - time_stamp
        if lag > 0.0:
            self.late += 1
            self.lag_sum += lag
            if lag > self.lag_max:
                self.lag_max = lag
            self._lags.append(lag)
        callback = event.callback
        func = getattr(callback, "__func__", callback)
        try:
            kind = self._kind_cache.get(func)
            if kind is None:
                kind = classify_callback(callback)
                self._kind_cache[func] = kind
        except TypeError:  # unhashable callable: classify uncached
            kind = classify_callback(callback)
        frame = [kind, self._clock(), 0.0]
        self._stack.append(frame)
        return frame

    def finish(self, frame: list, end: float) -> None:
        stack = self._stack
        if stack:
            stack.pop()
        elapsed = end - frame[1]
        if elapsed < 0.0:
            elapsed = 0.0
        self_s = elapsed - frame[2]
        if self_s < 0.0:
            self_s = 0.0
        kind = frame[0]
        stat = self.kinds.get(kind)
        if stat is None:
            stat = self.kinds[kind] = KindStat(kind)
        stat.count += 1
        stat.self_seconds += self_s
        self.dispatched += 1
        self.self_seconds += self_s
        if stack:
            stack[-1][2] += elapsed

    # -- queries -----------------------------------------------------------

    def kind_stats(self) -> List[KindStat]:
        """All kinds, hottest (most self-time) first."""
        return sorted(self.kinds.values(),
                      key=lambda stat: (-stat.self_seconds, stat.kind))

    @property
    def coalescable_ratio(self) -> float:
        """Fraction of dispatched events sharing a timestamp with their
        predecessor — the same-timestamp batching headroom."""
        return self.coalescable / self.dispatched if self.dispatched \
            else 0.0

    def _lag_percentile(self, p: float) -> Optional[float]:
        if not self._lags:
            return None
        ordered = sorted(self._lags)
        rank = max(1, int(-(-p * len(ordered) // 100)))  # ceil
        return ordered[rank - 1]

    def report(self) -> Dict[str, Any]:
        """The machine-readable dispatch section (bundle schema 2 /
        attribution reports)."""
        total = self.self_seconds
        kinds: Dict[str, Any] = {}
        for stat in self.kind_stats():
            entry = stat.to_dict()
            entry["share"] = stat.self_seconds / total if total else 0.0
            kinds[stat.kind] = entry
        return {
            "enabled": self.enabled,
            "dispatched": self.dispatched,
            "self_seconds": self.self_seconds,
            "kinds": kinds,
            "coalescable": self.coalescable,
            "coalescable_ratio": self.coalescable_ratio,
            "cancelled_popped": self.cancelled_popped,
            "wakeups": self.wakeups,
            "polls": self.polls,
            "lag": {
                "late": self.late,
                "sum_s": self.lag_sum,
                "max_s": self.lag_max,
                "p50_s": self._lag_percentile(50),
                "p99_s": self._lag_percentile(99),
                "window": len(self._lags),
            },
            "heap": {"max_depth": self.max_heap_depth},
        }

    def render_top(self, limit: int = 10) -> str:
        """A ``top``-style per-kind table, most self-time first.
        ``limit=0`` shows every kind."""
        stats = self.kind_stats()
        if limit > 0:
            stats = stats[:limit]
        if not stats:
            return ("no dispatch accounting recorded "
                    "(accounting %s)" % ("on" if self.enabled else "off"))
        total = self.self_seconds or 1.0
        lines = ["%-44s %10s %12s %8s %12s"
                 % ("event kind", "count", "self(s)", "self%",
                    "per-call")]
        for stat in stats:
            lines.append("%-44s %10d %12.6f %7.1f%% %12.9f"
                         % (stat.kind, stat.count, stat.self_seconds,
                            100.0 * stat.self_seconds / total,
                            stat.per_call))
        lines.append(
            "dispatched %d event(s), %.6fs self; coalescable %d "
            "(%.1f%%), cancelled churn %d, wakeups %d / polls %d, "
            "late %d (max lag %.6fs), peak heap %d"
            % (self.dispatched, self.self_seconds, self.coalescable,
               100.0 * self.coalescable_ratio, self.cancelled_popped,
               self.wakeups, self.polls,
               self.late, self.lag_max, self.max_heap_depth))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "DispatchAccounting(%s, %d kinds, %d dispatched)" % (
            "on" if self.enabled else "off", len(self.kinds),
            self.dispatched)


class Signal:
    """One-shot wakeup primitive.

    A :class:`Process` can ``yield`` a signal to suspend until someone
    calls :meth:`fire`.  The value passed to ``fire`` becomes the result
    of the ``yield`` expression inside the process.
    """

    __slots__ = ("sim", "_waiters", "fired", "value")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self._waiters: list = []
        self.fired = False
        self.value: Any = None

    def fire(self, value: Any = None) -> None:
        """Wake every process waiting on this signal (idempotent).
        Waiters resume in the order they started waiting: each gets a
        fresh zero-delay event, and the heap breaks timestamp ties by
        schedule sequence."""
        if self.fired:
            return
        self.fired = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for proc in waiters:
            self.sim.schedule(0.0, proc._resume, value)

    def _add_waiter(self, proc: "Process") -> None:
        if self.fired:
            self.sim.schedule(0.0, proc._resume, self.value)
        else:
            self._waiters.append(proc)


class Process:
    """A generator-based coroutine running in simulated time.

    The generator may yield:

    * a number — sleep that many simulated seconds,
    * a :class:`Signal` — suspend until it fires,
    * another :class:`Process` — suspend until that process finishes,
    * ``None`` — yield the floor (resume on the next event tick).

    When the generator returns, :attr:`done` becomes ``True`` and the
    completion signal fires with the generator's return value.
    """

    def __init__(self, sim: "Simulator",
                 gen: Generator[Any, Any, Any], name: str = ""):
        self.sim = sim
        self.gen = gen
        self.name = name or getattr(gen, "__name__", "process")
        self.done = False
        self.result: Any = None
        self.completion = Signal(sim)
        self._pending_event: Optional[Event] = None

    def start(self) -> "Process":
        """Schedule the first step of the generator at the current time."""
        self.sim.schedule(0.0, self._resume, None)
        return self

    def interrupt(self) -> None:
        """Stop the process; its generator is closed, completion fires."""
        if self.done:
            return
        if self._pending_event is not None:
            self._pending_event.cancel()
            self._pending_event = None
        self.gen.close()
        self._finish(None)

    def _finish(self, result: Any) -> None:
        self.done = True
        self.result = result
        self.completion.fire(result)

    def _resume(self, value: Any) -> None:
        if self.done:
            return
        self._pending_event = None
        try:
            target = self.gen.send(value)
        except StopIteration as stop:
            self._finish(stop.value)
            return
        if target is None:
            self._pending_event = self.sim.schedule(0.0, self._resume, None)
        elif isinstance(target, (int, float)):
            self._pending_event = self.sim.schedule(
                float(target), self._resume, None)
        elif isinstance(target, Signal):
            target._add_waiter(self)
        elif isinstance(target, Process):
            target.completion._add_waiter(self)
        else:
            raise SimulationError(
                "process %r yielded unsupported value %r"
                % (self.name, target))

    def __repr__(self) -> str:
        state = "done" if self.done else "running"
        return "Process(%s, %s)" % (self.name, state)


class Simulator:
    """Deterministic discrete-event loop with a floating-point clock.

    The heap holds ``(time, seq, event)`` tuples so sift comparisons
    stay in C.  Entries can go *dead* without being popped: a cancelled
    event, or the stale entry left behind by an earlier-bound
    :meth:`Event.reschedule_at`.  Dead entries are skipped (and
    counted) when they surface; when they outnumber live entries the
    heap is compacted in place so a cancel-heavy workload can't bloat
    the backlog.  A live-entry counter keeps :attr:`pending` O(1) — it
    is sampled into gauges every 0.25s of sim time by the recurring
    series sampler, which used to make it an O(n) scan on the hot path.
    """

    COMPACT_MIN = 64  # never bother compacting tiny heaps

    def __init__(self):
        self._heap: list = []
        self._seq = 0
        self.now = 0.0
        self._running = False
        self._processed = 0
        self._live = 0   # not-cancelled events still queued
        self._dead = 0   # cancelled + stale entries awaiting discard
        self.compactions = 0
        # dataplane observer slot (repro.telemetry.observer): None
        # while nothing observes the network; the owning Observer is
        # kept in observer_owner either way
        self.observer = None
        self.observer_owner = None
        # the repro.telemetry bundle built on this simulator, if any
        # (Telemetry(sim) records itself): where this network's
        # call-time events go, see repro.telemetry.of
        self.telemetry = None
        # optional repro.telemetry Profiler (duck-typed to avoid a
        # sim->telemetry dependency); when set and enabled, every event
        # callback runs inside a "sim.event.dispatch" region — the root
        # of the framework's flamegraph
        self.profiler = None
        # dispatch accounting: always present, off by default — the
        # flight deck enables it to attribute dispatch time to event
        # kinds (see DispatchAccounting)
        self.accounting = DispatchAccounting()

    # -- scheduling ------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> Event:
        """Run ``callback(*args)`` after ``delay`` simulated seconds."""
        if delay < 0:
            raise SimulationError("cannot schedule %.9fs in the past" % delay)
        when = self.now + delay
        seq = self._seq
        self._seq = seq + 1
        event = Event(self, when, seq, callback, args)
        heapq.heappush(self._heap, (when, seq, event))
        self._live += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> Event:
        """Run ``callback(*args)`` at absolute simulated time ``time``."""
        return self.schedule(time - self.now, callback, *args)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event (no-op if it already fired)."""
        event.cancel()

    def wakeup(self, callback: Callable[..., Any], *args: Any) -> Wakeup:
        """Create a re-armable :class:`Wakeup` around ``callback``."""
        return Wakeup(self, callback, *args)

    def process(self, gen: Generator[Any, Any, Any],
                name: str = "") -> Process:
        """Wrap a generator into a :class:`Process` and start it."""
        return Process(self, gen, name).start()

    def signal(self) -> Signal:
        """Create a fresh :class:`Signal` bound to this simulator."""
        return Signal(self)

    # -- heap hygiene ------------------------------------------------------

    def _note_dead(self) -> None:
        """One more heap entry went dead (cancel or stale reschedule);
        compact when the dead outnumber the live."""
        self._dead += 1
        if self._dead * 2 > len(self._heap) and \
                len(self._heap) >= self.COMPACT_MIN:
            self._compact()

    def _compact(self) -> None:
        """Rebuild the heap in place, dropping dead entries.

        Cancelled events swept here count into the always-on
        ``cancelled_popped`` churn counter exactly as if the loop had
        popped them.  Deferred entries (target time moved later) are
        re-keyed at their target so they stop surfacing early.
        """
        heap = self._heap
        live: list = []
        swept_cancelled = 0
        for entry in heap:
            event = entry[2]
            if event.cancelled:
                swept_cancelled += 1
                continue
            if event.fired or entry[1] != event.seq:
                continue  # stale duplicate from an earlier reschedule
            if event.time > entry[0]:
                event._key_time = event.time
                live.append((event.time, entry[1], event))
            else:
                live.append(entry)
        heap[:] = live
        heapq.heapify(heap)
        self._dead = 0
        self.compactions += 1
        self.accounting.cancelled_popped += swept_cancelled

    def _surface(self) -> Optional[tuple]:
        """Discard dead heap heads and lazily re-key deferred ones;
        return the live head entry (still queued) or None."""
        heap = self._heap
        acct = self.accounting
        while heap:
            entry = heap[0]
            event = entry[2]
            if event.cancelled:
                heapq.heappop(heap)
                self._dead -= 1
                acct.cancelled_popped += 1
                continue
            if event.fired or entry[1] != event.seq:
                heapq.heappop(heap)  # stale reschedule leftover
                self._dead -= 1
                continue
            if event.time > entry[0]:
                # deferred: re-key at the target time, keep the seq
                heapq.heappop(heap)
                event._key_time = event.time
                heapq.heappush(heap, (event.time, event.seq, event))
                continue
            return entry
        return None

    # -- running ---------------------------------------------------------

    def run(self, until: Optional[float] = None,
            max_events: Optional[int] = None) -> int:
        """Drain the event heap.

        Runs until the heap empties, the clock would pass ``until``, or
        ``max_events`` callbacks have executed.  Returns the number of
        callbacks executed by this call.
        """
        if self._running:
            raise SimulationError("simulator is not reentrant")
        self._running = True
        executed = 0
        heap = self._heap
        acct = self.accounting
        surface = self._surface
        pop = heapq.heappop
        try:
            while heap:
                if max_events is not None and executed >= max_events:
                    break
                entry = surface()
                if entry is None:
                    break
                event = entry[2]
                if until is not None and entry[0] > until:
                    # nested step() pumping (e.g. a recovery action
                    # blocking on an RPC reply) may already have moved
                    # the clock past the horizon; never rewind it
                    self.now = max(self.now, until)
                    break
                pop(heap)
                event.fired = True
                self._live -= 1
                profiler = self.profiler
                if acct.enabled or (profiler is not None
                                    and profiler.enabled):
                    self._dispatch(event, entry[0], len(heap) + 1)
                else:
                    self.now = entry[0]
                    event.callback(*event.args)
                executed += 1
            else:
                if until is not None and until > self.now:
                    self.now = until
            if not heap and until is not None and until > self.now:
                self.now = until
        finally:
            self._running = False
            self._processed += executed
        return executed

    def step(self) -> bool:
        """Execute exactly one pending event; return False when idle.

        Unlike :meth:`run`, ``step`` is safe to call from *inside* a
        running simulation: blocking-style code (``PendingReply.
        result``, recovery actions reacting to fault events) pumps the
        shared heap one event at a time until its condition holds.
        Events pop in time order, so nested pumping never reorders or
        rewinds the clock — it only advances it early.
        """
        entry = self._surface()
        if entry is None:
            return False
        heapq.heappop(self._heap)
        event = entry[2]
        event.fired = True
        self._live -= 1
        self._dispatch(event, entry[0], len(self._heap) + 1)
        self._processed += 1
        return True

    def _dispatch(self, event: Event, when: float, depth: int) -> None:
        """Fire one popped event at ``when`` (``depth``: the backlog
        behind it) — :meth:`step` always, :meth:`run` while accounting
        or the profiler is on.  Accounting and the
        ``sim.event.dispatch`` region share one clock pair per event."""
        acct = self.accounting
        profiler = self.profiler
        if profiler is not None and not profiler.enabled:
            profiler = None
        if acct.enabled:
            frame = acct.begin(event, self.now, depth)
            clock, start = acct._clock, frame[1]
        elif profiler is not None:
            frame = None
            clock = profiler._clock
            start = clock()
        else:
            self.now = when
            event.callback(*event.args)
            return
        self.now = when
        pframe = (None if profiler is None
                  else profiler.open_frame("sim.event.dispatch", start))
        try:
            event.callback(*event.args)
        finally:
            end = clock()
            if pframe is not None:
                profiler.close_frame(pframe, end)
            if frame is not None:
                acct.finish(frame, end)

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None when the heap is empty."""
        entry = self._surface()
        return entry[0] if entry is not None else None

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1) — a
        live counter, not a heap scan)."""
        return self._live

    @property
    def heap_depth(self) -> int:
        """Raw heap length, cancelled entries included — the backlog
        the dispatcher actually wades through."""
        return len(self._heap)

    @property
    def scheduled(self) -> int:
        """Total events ever scheduled on this simulator."""
        return self._seq

    @property
    def processed(self) -> int:
        """Total callbacks executed over the simulator's lifetime."""
        return self._processed

    def run_all(self, batches: Iterable[float] = ()) -> int:
        """Convenience: run to exhaustion (optionally in until= batches)."""
        total = 0
        for until in batches:
            total += self.run(until=until)
        total += self.run()
        return total

    def __repr__(self) -> str:
        return "Simulator(now=%.9f, pending=%d)" % (self.now, self.pending)
