"""Unit tests for repro.telemetry.profiler (scoped wall-clock regions).

A fake monotonic clock makes attribution assertions exact: each clock
read advances by a scripted amount, so self/cumulative splits and
overhead accounting can be checked to the tick.
"""

import pytest

from repro.sim import Simulator
from repro.telemetry import NULL_REGION, Profiler


class FakeClock:
    """Monotonic clock advancing a fixed step per read."""

    def __init__(self, step=1.0):
        self.now = 0.0
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value

    def advance(self, seconds):
        self.now += seconds


class TestProfilerCore:
    def test_disabled_profiler_hands_out_null_region(self):
        profiler = Profiler()
        assert not profiler.enabled
        region = profiler.profile("core.mapping.solve")
        assert region is NULL_REGION
        with region:
            pass
        assert profiler.stats == {}
        assert profiler.entries == 0

    def test_enable_disable_reset(self):
        profiler = Profiler()
        assert profiler.enable() is profiler
        assert profiler.enabled
        with profiler.profile("a.b"):
            pass
        assert profiler.entries == 1
        profiler.reset()
        assert profiler.entries == 0
        assert profiler.stats == {}
        assert profiler.enabled  # reset keeps the on/off state
        profiler.disable()
        assert not profiler.enabled

    def test_single_region_attribution(self):
        clock = FakeClock(step=0.0)
        profiler = Profiler(clock=clock).enable()
        with profiler.profile("netem.link.transmit"):
            clock.advance(2.0)
        stat = profiler.region("netem.link.transmit")
        assert stat.calls == 1
        assert stat.cum == pytest.approx(2.0)
        assert stat.self_time == pytest.approx(2.0)
        assert stat.per_call == pytest.approx(2.0)

    def test_nested_regions_split_self_and_cum(self):
        clock = FakeClock(step=0.0)
        profiler = Profiler(clock=clock).enable()
        with profiler.profile("outer"):
            clock.advance(1.0)
            with profiler.profile("inner"):
                clock.advance(3.0)
            clock.advance(1.0)
        outer = profiler.region("outer")
        inner = profiler.region("inner")
        assert inner.cum == pytest.approx(3.0)
        assert inner.self_time == pytest.approx(3.0)
        assert outer.cum == pytest.approx(5.0)  # includes the child
        assert outer.self_time == pytest.approx(2.0)  # child excluded
        assert profiler.total_self == pytest.approx(5.0)

    def test_repeated_entries_accumulate(self):
        clock = FakeClock(step=0.0)
        profiler = Profiler(clock=clock).enable()
        for _ in range(4):
            with profiler.profile("sim.event.dispatch"):
                clock.advance(0.5)
        stat = profiler.region("sim.event.dispatch")
        assert stat.calls == 4
        assert stat.cum == pytest.approx(2.0)
        assert stat.per_call == pytest.approx(0.5)
        assert profiler.entries == 4

    def test_collapsed_stacks_for_flamegraphs(self):
        clock = FakeClock(step=0.0)
        profiler = Profiler(clock=clock).enable()
        with profiler.profile("dispatch"):
            clock.advance(1.0)
            with profiler.profile("transmit"):
                clock.advance(2.0)
        with profiler.profile("dispatch"):
            clock.advance(0.5)
        lines = profiler.collapsed(unit=0.5)
        assert "dispatch 3" in lines  # (1.0 + 0.5) / 0.5
        assert "dispatch;transmit 4" in lines  # 2.0 / 0.5
        assert profiler.render_flame() == "\n".join(profiler.collapsed())

    def test_exception_still_closes_region(self):
        clock = FakeClock(step=0.0)
        profiler = Profiler(clock=clock).enable()
        with pytest.raises(ValueError):
            with profiler.profile("failing"):
                clock.advance(1.0)
                raise ValueError("boom")
        stat = profiler.region("failing")
        assert stat.calls == 1
        assert stat.cum == pytest.approx(1.0)
        assert profiler._stack == []

    def test_overhead_accounting(self):
        # every clock read costs one tick: 3 reads per region (enter
        # bookkeeping runs before the start stamp, so it costs no extra
        # read), and the measured span must exclude the exit bookkeeping
        clock = FakeClock(step=1.0)
        profiler = Profiler(clock=clock).enable()
        with profiler.profile("a.b"):
            pass
        stat = profiler.region("a.b")
        # start is read at tick 1, end at tick 2 -> span exactly 1 tick
        assert stat.cum == pytest.approx(1.0)
        # exit bookkeeping charged 1 tick (end->done)
        assert profiler.overhead == pytest.approx(1.0)

    def test_disable_clears_live_stack(self):
        profiler = Profiler().enable()
        region = profiler.profile("stuck")
        region.__enter__()
        assert profiler._stack
        profiler.disable()
        assert profiler._stack == []

    def test_report_and_render_top(self):
        clock = FakeClock(step=0.0)
        profiler = Profiler(clock=clock).enable()
        with profiler.profile("hot"):
            clock.advance(3.0)
        with profiler.profile("cold"):
            clock.advance(1.0)
        report = profiler.report()
        assert set(report) == {"hot", "cold"}
        assert report["hot"]["self_s"] == pytest.approx(3.0)
        assert report["hot"]["calls"] == 1
        text = profiler.render_top(limit=1)
        assert "hot" in text and "cold" not in text
        # hottest-first ordering and limit=0 meaning "all"
        full = profiler.render_top(limit=0)
        assert full.index("hot") < full.index("cold")
        names = [stat.name for stat in profiler.regions()]
        assert names == ["hot", "cold"]


class TestSimIntegration:
    def test_dispatch_region_wraps_events(self):
        sim = Simulator()
        profiler = Profiler().enable()
        sim.profiler = profiler
        fired = []
        sim.schedule(0.1, fired.append, "a")
        sim.schedule(0.2, fired.append, "b")
        sim.run(until=1.0)
        assert fired == ["a", "b"]
        assert profiler.region("sim.event.dispatch").calls == 2

    def test_step_also_profiled_and_disabled_is_free(self):
        sim = Simulator()
        profiler = Profiler()  # disabled
        sim.profiler = profiler
        sim.schedule(0.1, lambda: None)
        sim.step()
        assert profiler.stats == {}
