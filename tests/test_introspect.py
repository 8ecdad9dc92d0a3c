"""repro.telemetry.introspect — attribution reports and perf diffing."""

import json
import os

import pytest

from repro.sim import Simulator
from repro.telemetry import Profiler
from repro.telemetry.introspect import (DEFAULT_GUARDED, IntrospectError,
                                        build_report, calibrate,
                                        coerce_report, diff_reports,
                                        load_report, render_diff,
                                        render_report)

BASELINE = os.path.join(os.path.dirname(__file__), os.pardir,
                        "BENCH_profile.json")


class _StillClock:
    """A clock that only moves when the test moves it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _measured_sim():
    """A tiny run watched by both layers; returns (profiler, sim)."""
    sim = Simulator()
    profiler = Profiler().enable()
    sim.profiler = profiler
    sim.accounting.enable()

    def tick():
        # enough per-callback work that measurement bookkeeping is
        # noise next to it, as in a real dataplane event
        sum(index * 3 % 7 for index in range(3000))
        if sim.now < 0.05:
            sim.schedule(0.001, tick)
    sim.schedule(0.0, tick)
    sim.run()
    profiler.disable()
    sim.accounting.disable()
    return profiler, sim


class TestBuildReport:
    def test_merges_all_three_sources(self):
        profiler, sim = _measured_sim()
        report = build_report(profiler, sim.accounting,
                              throughput={"udp_pps_wall": 100.0},
                              calibration=1e-6, meta={"note": "t"})
        assert report["kind"] == "attribution"
        assert report["calibration_s"] == 1e-6
        assert "sim.event.dispatch" in report["regions"]
        kinds = report["dispatch"]["kinds"]
        assert len(kinds) == 1
        entry = next(iter(kinds.values()))
        assert entry["count"] == report["dispatch"]["dispatched"]
        assert entry["score"] == pytest.approx(
            entry["per_call_s"] / 1e-6)
        assert report["throughput"] == {"udp_pps_wall": 100.0}
        assert report["meta"] == {"note": "t"}

    def test_sources_may_be_absent(self):
        report = build_report()
        assert report["regions"] == {}
        assert report["dispatch"] == {}
        assert render_report(report)  # still renders

    def test_accepts_prerendered_dispatch_dict(self):
        _profiler, sim = _measured_sim()
        kept = sim.accounting.report()
        report = build_report(accounting=kept, calibration=1e-6)
        assert report["dispatch"]["dispatched"] == kept["dispatched"]
        for entry in report["dispatch"]["kinds"].values():
            assert "score" in entry


class TestCoerceAndLoad:
    def test_coerce_detects_profile_snapshot(self):
        """The retired regions-only snapshot shape (no ``kind``) is no
        longer a perf source: the attribution report replaced it."""
        snapshot = {
            "regions": {"sim.event.dispatch":
                        {"calls": 10, "cum_s": 0.01, "self_s": 0.01,
                         "per_call_s": 0.001}},
            "throughput": {"udp_pps_wall": 50.0},
            "calibration_s": 0.001,
        }
        with pytest.raises(IntrospectError):
            coerce_report(snapshot)

    def test_coerce_detects_bundle(self):
        bundle = {
            "schema": 2, "seed": 7,
            "scenario": {"name": "demo"},
            "workload": {},
            "dispatch": {"dispatched": 4, "self_seconds": 0.004,
                         "kinds": {"netem.link.Link._deliver":
                                   {"count": 4, "self_s": 0.004,
                                    "per_call_s": 0.001}}},
            "throughput": {"udp_pps_wall": 10.0},
            "calibration_s": 0.001,
        }
        report = coerce_report(bundle)
        assert report["meta"]["scenario"] == "demo"
        assert report["meta"]["seed"] == 7
        kind = report["dispatch"]["kinds"]["netem.link.Link._deliver"]
        assert kind["score"] == pytest.approx(1.0)

    def test_coerce_rejects_unknown_shape(self):
        with pytest.raises(IntrospectError):
            coerce_report({"what": "ever"})
        with pytest.raises(IntrospectError):
            coerce_report([1, 2])

    def test_load_report_from_file_and_dir(self, tmp_path):
        profiler, sim = _measured_sim()
        report = build_report(profiler, sim.accounting,
                              calibration=1e-6)
        path = tmp_path / "attribution.json"
        path.write_text(json.dumps(report))
        loaded = load_report(path)
        assert loaded["dispatch"]["dispatched"] == \
            report["dispatch"]["dispatched"]
        # a results dir holding exactly one bundle.json
        run_dir = tmp_path / "results" / "seed-1"
        run_dir.mkdir(parents=True)
        bundle = {"schema": 2, "seed": 1, "scenario": {"name": "x"},
                  "dispatch": report["dispatch"], "throughput": {},
                  "calibration_s": 1e-6}
        (run_dir / "bundle.json").write_text(json.dumps(bundle))
        from_dir = load_report(tmp_path / "results")
        assert from_dir["meta"]["seed"] == 1

    def test_load_report_errors(self, tmp_path):
        with pytest.raises(IntrospectError):
            load_report(tmp_path / "missing.json")
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(IntrospectError):
            load_report(empty)
        bad = tmp_path / "bad.json"
        bad.write_text("{nope")
        with pytest.raises(IntrospectError):
            load_report(bad)


class TestDiffReports:
    def _report(self):
        profiler, sim = _measured_sim()
        return build_report(profiler, sim.accounting,
                            throughput={"udp_pps_wall": 100.0},
                            calibration=1e-6)

    def _scored(self, scores, throughput=None):
        """An attribution report whose regions carry exactly the given
        calibration-normalized scores (one call each)."""
        clock = _StillClock()
        profiler = Profiler(clock=clock).enable()
        for name, score in scores.items():
            with profiler.profile(name):
                clock.now += score * 0.001
        return build_report(profiler, calibration=0.001,
                            throughput=throughput)

    def test_diff_with_itself_is_exactly_zero(self):
        report = self._report()
        diff = diff_reports(report, report)
        assert diff["max_abs_delta"] == 0.0
        assert diff["findings"] == []
        assert diff["normalized"] is True
        for section in ("regions", "dispatch", "throughput"):
            for item in diff[section]:
                assert item["delta"] == 0.0

    def test_diff_normalizes_out_machine_speed(self):
        """The same per-call times on a 2x-slower machine (2x the
        calibration unit) halve every score; raw-time deltas would
        scream regression, normalized ones cancel."""
        report = self._report()
        slower = json.loads(json.dumps(report))
        slower["calibration_s"] = report["calibration_s"] * 2
        for entry in slower["regions"].values():
            entry["per_call_s"] *= 2
            entry["score"] = (entry["per_call_s"]
                              / slower["calibration_s"])
        for entry in slower["dispatch"]["kinds"].values():
            entry["per_call_s"] *= 2
            entry["score"] = (entry["per_call_s"]
                              / slower["calibration_s"])
        diff = diff_reports(report, slower)
        for item in diff["regions"] + diff["dispatch"]:
            assert item["delta"] == pytest.approx(0.0)

    def test_regression_beyond_threshold_is_a_finding(self):
        report = self._report()
        worse = json.loads(json.dumps(report))
        region = worse["regions"]["sim.event.dispatch"]
        region["score"] *= 1.5
        region["per_call_s"] *= 1.5
        diff = diff_reports(report, worse, threshold=0.15)
        assert [(f["kind"], f["name"]) for f in diff["findings"]] == [
            ("region", "sim.event.dispatch")]
        assert diff["findings"][0]["change"] == pytest.approx(0.5)
        text = render_diff(diff)
        assert "FAIL" in text and "sim.event.dispatch" in text

    def test_throughput_drop_is_a_finding(self):
        report = self._report()
        worse = json.loads(json.dumps(report))
        worse["throughput"]["udp_pps_wall"] = 50.0
        diff = diff_reports(report, worse)
        assert any(finding["name"] == "udp_pps_wall"
                   for finding in diff["findings"])

    def test_render_diff_mentions_gate_state(self):
        report = self._report()
        text = render_diff(diff_reports(report, report))
        assert "PASS" in text

    def test_slow_guarded_region_is_a_finding(self):
        base = self._scored({"core.mapping.solve": 2.0,
                             "netem.link.transmit": 1.0})
        cur = self._scored({"core.mapping.solve": 2.5,  # +25%
                            "netem.link.transmit": 1.0})
        diff = diff_reports(base, cur, threshold=0.15)
        assert [(f["kind"], f["name"]) for f in diff["findings"]] == [
            ("region", "core.mapping.solve")]
        assert diff["findings"][0]["change"] == pytest.approx(0.25)
        text = render_diff(diff)
        assert "FAIL" in text and "core.mapping.solve" in text

    def test_unguarded_throughput_drop_is_a_finding(self):
        """Any throughput number both reports carry is checked, not
        only the guarded floor."""
        base = self._scored({"core.mapping.solve": 2.0},
                            throughput={"udp_pps": 1000.0})
        cur = self._scored({"core.mapping.solve": 2.0},
                           throughput={"udp_pps": 700.0})  # -30%
        diff = diff_reports(base, cur, threshold=0.15)
        assert [(f["kind"], f["name"]) for f in diff["findings"]] == [
            ("throughput", "udp_pps")]

    def test_change_within_threshold_passes(self):
        base = self._scored({"core.mapping.solve": 2.0,
                             "netem.link.transmit": 1.0})
        cur = self._scored({"core.mapping.solve": 2.2,
                            "netem.link.transmit": 1.05})
        assert base["regions"]["core.mapping.solve"]["score"] == \
            pytest.approx(2.0)
        assert diff_reports(base, cur)["findings"] == []

    def test_missing_guarded_throughput_is_a_finding(self):
        base = self._scored({"core.mapping.solve": 2.0},
                            throughput={"udp_pps_wall": 1500.0})
        cur = self._scored({"core.mapping.solve": 2.0}, throughput={})
        diff = diff_reports(base, cur)
        assert [(f["kind"], f["name"]) for f in diff["findings"]] == [
            ("throughput_missing", "udp_pps_wall")]
        text = render_diff(diff)
        assert "MISSING" in text and "udp_pps_wall" in text

    def test_missing_unguarded_throughput_is_skipped(self):
        base = self._scored({"core.mapping.solve": 2.0},
                            throughput={"sim_ratio": 3.0})
        cur = self._scored({"core.mapping.solve": 2.0}, throughput={})
        assert diff_reports(base, cur)["findings"] == []

    def test_absent_regions_are_skipped(self):
        base = self._scored({"core.mapping.solve": 2.0,
                             "pox.steering.install": 1.0})
        cur = self._scored({"core.mapping.solve": 2.0})
        assert diff_reports(base, cur)["findings"] == []

    def test_unguarded_region_is_ignored(self):
        base = self._scored({"some.experimental.region": 1.0})
        cur = self._scored({"some.experimental.region": 10.0})
        diff = diff_reports(base, cur)
        assert diff["regions"][0]["delta"] == pytest.approx(9.0)
        assert diff["findings"] == []

    def test_committed_baseline_self_diffs_clean(self):
        baseline = load_report(BASELINE)
        assert baseline["throughput"]["udp_pps_wall"] > 0.0
        assert diff_reports(baseline, baseline)["findings"] == []
        slow = json.loads(json.dumps(baseline))
        slow["throughput"]["udp_pps_wall"] *= 0.8  # -20%
        findings = diff_reports(baseline, slow)["findings"]
        assert ("throughput", "udp_pps_wall") in [
            (f["kind"], f["name"]) for f in findings]

    def test_guard_list_covers_all_layers(self):
        prefixes = {name.split(".")[0] for name in DEFAULT_GUARDED}
        assert {"sim", "netem", "click", "openflow", "netconf",
                "core", "pox"} <= prefixes

    def test_calibration_is_positive(self):
        assert calibrate(loops=10_000) > 0.0


class TestRendering:
    def test_render_report_tables(self):
        profiler, sim = _measured_sim()
        report = build_report(profiler, sim.accounting,
                              throughput={"udp_pps_wall": 42.0},
                              calibration=1e-6)
        text = render_report(report)
        assert "dispatch accounting" in text
        assert "profiler regions" in text
        assert "udp_pps_wall" in text
