"""Deterministic wall-clock profiling of the framework itself.

Metrics/traces/events (PRs 1-2) observe the *simulated* system; this
module observes the *simulator* — where the reproduction's own Python
code spends host wall-clock time.  Components bracket their hot
sections in scoped *regions*::

    with profiler.profile("core.mapping.solve"):
        mapping = mapper.map(sg, view)

Regions nest (the region stack mirrors the call stack), so every
region accumulates

* ``calls`` — how many times it was entered,
* ``cum`` — cumulative (inclusive) seconds, children included,
* ``self`` — seconds minus time spent in nested regions,

and every unique region *path* accumulates self-time separately, which
is exactly the collapsed-stack format flamegraph tooling consumes
(``sim.event.dispatch;netem.link.transmit 1234``).

The profiler is off by default and dataplane sites reach it through
their network's observer slot, so the disabled path is one ``is None``
check — instrumentation stays in place permanently and the no-profile
dataplane cost is guarded below 5% by
``benchmarks/test_bench_observability.py``.  When enabled, the
profiler meters *its own* bookkeeping cost too (:attr:`overhead`):
telemetry that cannot account for itself would silently poison the
numbers it reports.
"""

import time
from typing import Any, Callable, Dict, List, Optional


class RegionStat:
    """Aggregate timing of one named region across all its entries."""

    __slots__ = ("name", "calls", "cum", "self_time")

    def __init__(self, name: str):
        self.name = name
        self.calls = 0
        self.cum = 0.0
        self.self_time = 0.0

    @property
    def per_call(self) -> float:
        """Mean self seconds per entry."""
        return self.self_time / self.calls if self.calls else 0.0

    def to_dict(self) -> Dict[str, Any]:
        return {"calls": self.calls, "cum_s": self.cum,
                "self_s": self.self_time, "per_call_s": self.per_call}

    def __repr__(self) -> str:
        return "RegionStat(%s, calls=%d, self=%.6fs, cum=%.6fs)" % (
            self.name, self.calls, self.self_time, self.cum)


class _NullRegion:
    """No-op stand-in handed out while the profiler is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullRegion":
        return self

    def __exit__(self, *_exc) -> bool:
        return False


NULL_REGION = _NullRegion()


class _Region:
    """One live region entry (context manager).

    Frame layout on the profiler stack: ``[name, start, child_seconds,
    path]``.  ``start`` is stamped *after* the enter bookkeeping and
    the exit timestamp is read *before* the exit bookkeeping, so the
    region's measured span excludes the profiler's own work.  Exit
    bookkeeping is charged to :attr:`Profiler.overhead`; the (smaller)
    enter bookkeeping leaks into the parent's self time rather than
    paying a second clock read per entry.
    """

    __slots__ = ("profiler", "name")

    def __init__(self, profiler: "Profiler", name: str):
        self.profiler = profiler
        self.name = name

    def __enter__(self) -> "_Region":
        # bookkeeping first, *then* stamp: the enter cost leaks into
        # the parent's self time (sub-microsecond) instead of paying a
        # second clock read per entry — these run per event on the hot
        # path, so clock reads are budgeted
        prof = self.profiler
        prof.open_frame(self.name, 0.0)[1] = prof._clock()
        return self

    def __exit__(self, _exc_type, _exc, _tb) -> bool:
        prof = self.profiler
        end = prof._clock()
        stack = prof._stack
        # LIFO discipline is guaranteed by with-nesting; be lenient
        # about a foreign frame on top (a region closed twice).
        while stack:
            frame = stack.pop()
            if frame[0] == self.name:
                break
        else:
            return False
        prof._finish_frame(frame, end)
        prof.overhead += prof._clock() - end
        return False


class Profiler:
    """Scoped wall-clock regions with self/cumulative attribution.

    ``clock`` defaults to :func:`time.perf_counter`; tests inject a
    fake clock to make attribution assertions exact.
    """

    def __init__(self, clock: Optional[Callable[[], float]] = None):
        self._clock = clock or time.perf_counter
        self.enabled = False
        self._stack: List[list] = []
        self.stats: Dict[str, RegionStat] = {}
        self._paths: Dict[str, float] = {}
        # _Region keeps no per-entry state (frames live on _stack), so
        # one instance per name serves every entry — hot regions skip
        # an allocation per call
        self._regions: Dict[str, _Region] = {}
        self.entries = 0          # region entries recorded
        self.overhead = 0.0       # seconds spent on profiler bookkeeping
        self.observer = None  # network Observer refreshed on toggle

    # -- control -----------------------------------------------------------

    def enable(self) -> "Profiler":
        self.enabled = True
        if self.observer is not None:
            self.observer.refresh()
        return self

    def disable(self) -> "Profiler":
        self.enabled = False
        self._stack = []
        if self.observer is not None:
            self.observer.refresh()
        return self

    def reset(self) -> None:
        """Drop every recorded sample (keeps the enabled state)."""
        self._stack = []
        self.stats = {}
        self._paths = {}
        self.entries = 0
        self.overhead = 0.0

    # -- recording ---------------------------------------------------------

    def profile(self, name: str):
        """A region context manager (:data:`NULL_REGION` when off)."""
        if not self.enabled:
            return NULL_REGION
        region = self._regions.get(name)
        if region is None:
            region = self._regions[name] = _Region(self, name)
        return region

    def open_frame(self, name: str, start: float) -> list:
        """Push a region frame with a caller-provided start stamp.

        The frame-protocol half of :class:`_Region` for callers that
        already hold a timestamp (the simulator's fused dispatch path
        shares one clock pair between dispatch accounting and the
        ``sim.event.dispatch`` region instead of stamping four).  Must
        be balanced with :meth:`close_frame`.
        """
        stack = self._stack
        if stack:
            frame = [name, start, 0.0, stack[-1][3] + ";" + name]
        else:
            frame = [name, start, 0.0, name]
        stack.append(frame)
        return frame

    def close_frame(self, frame: list, end: float) -> None:
        """Pop + record a frame opened by :meth:`open_frame` (lenient
        about foreign frames a callback failed to close)."""
        stack = self._stack
        if stack and stack[-1] is frame:
            stack.pop()
            self._finish_frame(frame, end)
            return
        while stack:
            if stack.pop() is frame:
                self._finish_frame(frame, end)
                return

    def _finish_frame(self, frame: list, end: float) -> None:
        """Record a popped frame: stat, flame path, parent child-time."""
        elapsed = end - frame[1]
        if elapsed < 0.0:
            elapsed = 0.0
        self_time = elapsed - frame[2]
        if self_time < 0.0:
            self_time = 0.0
        name = frame[0]
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = RegionStat(name)
        stat.calls += 1
        stat.cum += elapsed
        stat.self_time += self_time
        path = frame[3]
        paths = self._paths
        paths[path] = paths.get(path, 0.0) + self_time
        stack = self._stack
        if stack:
            stack[-1][2] += elapsed
        self.entries += 1

    # -- queries -----------------------------------------------------------

    def region(self, name: str) -> Optional[RegionStat]:
        return self.stats.get(name)

    def regions(self) -> List[RegionStat]:
        """All region stats, hottest (most self-time) first."""
        return sorted(self.stats.values(),
                      key=lambda stat: (-stat.self_time, stat.name))

    @property
    def total_self(self) -> float:
        return sum(stat.self_time for stat in self.stats.values())

    def report(self) -> Dict[str, Dict[str, Any]]:
        """{region name: stat dict} — the ``regions`` payload of an
        attribution report (:mod:`repro.telemetry.introspect`)."""
        return {name: stat.to_dict()
                for name, stat in sorted(self.stats.items())}

    def collapsed(self, unit: float = 1e-6) -> List[str]:
        """Collapsed-stack lines (``path value``), flamegraph.pl /
        speedscope compatible.  ``unit`` scales seconds to the integer
        sample value (default: microseconds)."""
        lines = []
        for path in sorted(self._paths):
            value = int(round(self._paths[path] / unit))
            lines.append("%s %d" % (path, value))
        return lines

    def render_flame(self) -> str:
        return "\n".join(self.collapsed())

    def render_top(self, limit: int = 10) -> str:
        """A ``top``-style hot-path table, most self-time first.
        ``limit=0`` shows every region."""
        regions = self.regions()
        if limit > 0:
            regions = regions[:limit]
        if not regions:
            return ("no profile data recorded "
                    "(profiler %s)" % ("on" if self.enabled else "off"))
        total = self.total_self or 1.0
        lines = ["%-36s %10s %12s %12s %8s %12s"
                 % ("region", "calls", "self(s)", "cum(s)", "self%",
                    "per-call")]
        for stat in regions:
            lines.append("%-36s %10d %12.6f %12.6f %7.1f%% %12.9f"
                         % (stat.name, stat.calls, stat.self_time,
                            stat.cum, 100.0 * stat.self_time / total,
                            stat.per_call))
        lines.append("profiler: %d entries, %.6fs self-overhead (%s)"
                     % (self.entries, self.overhead,
                        "on" if self.enabled else "off"))
        return "\n".join(lines)

    def __repr__(self) -> str:
        return "Profiler(%s, %d regions, %d entries)" % (
            "on" if self.enabled else "off", len(self.stats),
            self.entries)
