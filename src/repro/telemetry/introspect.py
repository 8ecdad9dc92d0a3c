"""The event-core flight deck: the perf artifact and its comparator.

The measurement layers each answer one question — the profiler *how
much* wall-clock the framework burns per region, the simulator's
dispatch accounting *which event kinds* the dispatcher works for, the
workload drivers *what throughput* came out the other end.  This module
merges the three into one **attribution report**: a machine-readable
JSON structure plus a top-consumers rendering, built from live objects
(:func:`build_report`), from a scenario result bundle
(:func:`report_from_bundle`), or loaded back from either JSON shape
(:func:`load_report`).

The attribution report is the only perf artifact: the committed
``BENCH_profile.json`` baseline is one, and so is what
``benchmarks/run_profile.py --out`` writes.  Every report embeds a
*calibration unit* (:func:`calibrate`, the measured cost of a fixed
pure-Python loop on the same machine), so :func:`diff_reports` — the
only comparator, ``escape perf diff`` on the command line and the CI
perf gate — compares two reports taken on different machines by their
calibration-normalized scores (``per_call_s / calibration_s``).
"""

import json
import os
import time
from typing import Any, Dict, List, Optional

REPORT_SCHEMA = 1

#: Regions the perf gate guards: present in every run of the standard
#: workload and hot enough that a slowdown there is a real finding,
#: not noise.
DEFAULT_GUARDED = (
    "sim.event.dispatch",
    "netem.link.transmit",
    "click.element.push",
    "openflow.wire.encode",
    "openflow.wire.decode",
    "netconf.rpc.encode",
    "netconf.rpc.decode",
    "core.mapping.solve",
    "pox.steering.install",
)

#: Throughput numbers the gate *requires*: unlike the opportunistic
#: baseline-driven comparison (any shared number is checked), a guarded
#: throughput key missing from the current report is itself a failure
#: — a workload change cannot silently drop the floor.
GUARDED_THROUGHPUT = (
    "udp_pps_wall",
)

CALIBRATION_LOOPS = 200_000


class IntrospectError(Exception):
    """Unreadable or unrecognizable perf source."""


def calibrate(loops: int = CALIBRATION_LOOPS) -> float:
    """Seconds one fixed arithmetic loop takes on this machine — the
    normalization unit embedded in every attribution report."""
    best = None
    for _ in range(3):
        started = time.perf_counter()
        total = 0
        for index in range(loops):
            total += index * 3 % 7
        elapsed = time.perf_counter() - started
        if best is None or elapsed < best:
            best = elapsed
    return best


def _scored(entries: Dict[str, Any],
            calibration: Optional[float]) -> Dict[str, Any]:
    """Copy of ``entries`` with a calibration-normalized ``score``
    (``per_call_s / calibration``) on every record."""
    scored: Dict[str, Any] = {}
    for name in sorted(entries):
        entry = dict(entries[name])
        if calibration and calibration > 0:
            entry["score"] = entry.get("per_call_s", 0.0) / calibration
        else:
            entry.setdefault("score", 0.0)
        scored[name] = entry
    return scored


def _report(calibration: Optional[float], regions: Dict[str, Any],
            dispatch: Optional[Dict[str, Any]],
            throughput: Optional[Dict[str, float]],
            meta: Optional[Dict[str, Any]]) -> Dict[str, Any]:
    """The one attribution-report constructor: scores regions and
    dispatch kinds against ``calibration``."""
    dispatch = dict(dispatch or {})
    if dispatch.get("kinds"):
        dispatch["kinds"] = _scored(dispatch["kinds"], calibration)
    return {
        "schema": REPORT_SCHEMA,
        "kind": "attribution",
        "calibration_s": calibration,
        "regions": _scored(regions, calibration),
        "dispatch": dispatch,
        "throughput": dict(throughput or {}),
        "meta": dict(meta or {}),
    }


def build_report(profiler=None, accounting=None,
                 throughput: Optional[Dict[str, float]] = None,
                 calibration: Optional[float] = None,
                 meta: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """One attribution report from live measurement objects.

    Any of the three sources may be absent (``None``); the report
    carries whatever was measured.  ``calibration`` is the
    machine-speed unit from :func:`calibrate` — without it scores
    default to 0 and the report can still be rendered, but not
    meaningfully diffed across machines.
    """
    regions: Dict[str, Any] = {}
    if profiler is not None:
        regions = {name: stat.to_dict()
                   for name, stat in profiler.stats.items()}
    dispatch: Dict[str, Any] = {}
    if accounting is not None:
        # a live DispatchAccounting, or an already-rendered report
        # dict (e.g. kept from the best benchmark round)
        dispatch = (accounting if isinstance(accounting, dict)
                    else accounting.report())
    return _report(calibration, regions, dispatch, throughput, meta)


def report_from_bundle(bundle: Dict[str, Any]) -> Dict[str, Any]:
    """An attribution report out of a scenario result bundle
    (schema 2: carries ``dispatch`` and ``calibration_s``; a
    ``profiler`` section appears when the scenario enabled
    profiling)."""
    meta = {
        "source": "bundle",
        "scenario": bundle.get("scenario", {}).get("name"),
        "seed": bundle.get("seed"),
        "sim_duration": bundle.get("sim_duration"),
        "wall_seconds": bundle.get("wall_seconds"),
    }
    return _report(bundle.get("calibration_s"),
                   bundle.get("profiler") or {}, bundle.get("dispatch"),
                   bundle.get("throughput"), meta)


def coerce_report(data: Dict[str, Any],
                  source: str = "<data>") -> Dict[str, Any]:
    """Normalize a perf JSON source into an attribution report.

    Recognized shapes: an attribution report (passed through) and a
    scenario result bundle (``seed`` + ``workload``/``scenario``)."""
    if not isinstance(data, dict):
        raise IntrospectError("%s: perf source must be a JSON object"
                              % source)
    if data.get("kind") == "attribution":
        return data
    if "seed" in data and ("workload" in data or "scenario" in data):
        return report_from_bundle(data)
    raise IntrospectError(
        "%s: not an attribution report or result bundle (keys: %s)"
        % (source, ", ".join(sorted(data)[:8])))


def load_report(path) -> Dict[str, Any]:
    """Attribution report from a JSON file or a results directory
    containing exactly one ``bundle.json``."""
    path = os.fspath(path)
    if os.path.isdir(path):
        found: List[str] = []
        for root, _dirs, names in os.walk(path):
            found.extend(os.path.join(root, name) for name in names
                         if name == "bundle.json")
        if not found:
            raise IntrospectError("%s: no bundle.json underneath" % path)
        if len(found) > 1:
            raise IntrospectError(
                "%s: %d bundles underneath — name one (%s, ...)"
                % (path, len(found), sorted(found)[0]))
        path = found[0]
    if not os.path.isfile(path):
        raise IntrospectError("no such perf source: %s" % path)
    with open(path) as handle:
        try:
            data = json.load(handle)
        except ValueError as exc:
            raise IntrospectError("%s: invalid JSON (%s)" % (path, exc))
    return coerce_report(data, source=path)


# -- diffing ------------------------------------------------------------------


def _score_deltas(base: Dict[str, Any], cur: Dict[str, Any],
                  value_key: str = "score") -> List[Dict[str, Any]]:
    """Fractional change of every name present in both maps with a
    positive baseline value, biggest mover first."""
    deltas = []
    for name in sorted(set(base) & set(cur)):
        base_value = base[name].get(value_key, 0.0) or 0.0
        cur_value = cur[name].get(value_key, 0.0) or 0.0
        if base_value <= 0.0:
            continue
        deltas.append({
            "name": name,
            "baseline": base_value,
            "current": cur_value,
            "delta": cur_value / base_value - 1.0,
        })
    deltas.sort(key=lambda item: (-abs(item["delta"]), item["name"]))
    return deltas


def _findings(baseline: Dict[str, Any], current: Dict[str, Any],
              threshold: float) -> List[Dict[str, Any]]:
    """The perf gate: regressions of ``current`` against ``baseline``.

    A :data:`DEFAULT_GUARDED` region regresses when its
    calibration-normalized score grew by more than ``threshold``
    (fractional); a throughput number regresses when it *dropped* by
    more than ``threshold``.  Names absent from either report are
    skipped (a renamed region is a baseline update, not a regression)
    — except the :data:`GUARDED_THROUGHPUT` names, which the current
    report must carry whenever the baseline does: a run that stops
    measuring ``udp_pps_wall`` would otherwise pass the gate with the
    floor silently gone."""
    findings: List[Dict[str, Any]] = []
    base_regions = baseline.get("regions") or {}
    cur_regions = current.get("regions") or {}
    for name in DEFAULT_GUARDED:
        base = base_regions.get(name)
        cur = cur_regions.get(name)
        if base is None or cur is None:
            continue
        base_score = base.get("score", 0.0)
        cur_score = cur.get("score", 0.0)
        if base_score <= 0.0:
            continue
        change = cur_score / base_score - 1.0
        if change > threshold:
            findings.append({
                "kind": "region", "name": name,
                "baseline_score": base_score, "current_score": cur_score,
                "change": change,
            })
    base_tp = baseline.get("throughput") or {}
    cur_tp = current.get("throughput") or {}
    for name in sorted(base_tp):
        if name not in cur_tp:
            if name in GUARDED_THROUGHPUT and base_tp[name] > 0.0:
                findings.append({
                    "kind": "throughput_missing", "name": name,
                    "baseline": base_tp[name],
                })
            continue
        if base_tp[name] <= 0.0:
            continue
        change = cur_tp[name] / base_tp[name] - 1.0
        if change < -threshold:
            findings.append({
                "kind": "throughput", "name": name,
                "baseline": base_tp[name], "current": cur_tp[name],
                "change": change,
            })
    return findings


def diff_reports(baseline: Dict[str, Any], current: Dict[str, Any],
                 threshold: float = 0.15) -> Dict[str, Any]:
    """Calibration-normalized comparison of two attribution reports.

    ``regions`` and ``dispatch`` deltas compare normalized scores
    (machine speed cancels), ``throughput`` compares raw numbers.
    ``findings`` is the perf gate (:func:`_findings`): guarded regions
    that slowed beyond ``threshold``, throughput floors that dropped
    or vanished.  An empty findings list means the gate passes."""
    baseline = coerce_report(baseline, "<baseline>")
    current = coerce_report(current, "<current>")
    region_deltas = _score_deltas(baseline.get("regions") or {},
                                  current.get("regions") or {})
    kind_deltas = _score_deltas(
        (baseline.get("dispatch") or {}).get("kinds") or {},
        (current.get("dispatch") or {}).get("kinds") or {})
    throughput_deltas = []
    base_tp = baseline.get("throughput") or {}
    cur_tp = current.get("throughput") or {}
    for name in sorted(set(base_tp) & set(cur_tp)):
        if not base_tp[name]:
            continue
        throughput_deltas.append({
            "name": name, "baseline": base_tp[name],
            "current": cur_tp[name],
            "delta": cur_tp[name] / base_tp[name] - 1.0,
        })
    all_deltas = [item["delta"] for item in
                  region_deltas + kind_deltas + throughput_deltas]
    return {
        "threshold": threshold,
        "guarded": list(DEFAULT_GUARDED),
        "normalized": bool(baseline.get("calibration_s")
                           and current.get("calibration_s")),
        "regions": region_deltas,
        "dispatch": kind_deltas,
        "throughput": throughput_deltas,
        "max_abs_delta": max((abs(d) for d in all_deltas), default=0.0),
        "findings": _findings(baseline, current, threshold),
    }


# -- rendering ----------------------------------------------------------------


def _fmt_seconds(value: Optional[float]) -> str:
    return "%.6f" % value if value is not None else "-"


def render_report(report: Dict[str, Any], limit: int = 12) -> str:
    """The human top-consumers view of one attribution report."""
    report = coerce_report(report)
    lines: List[str] = []
    meta = report.get("meta") or {}
    header = "perf attribution"
    if meta.get("scenario") is not None:
        header += " — %s seed %s" % (meta["scenario"], meta.get("seed"))
    calibration = report.get("calibration_s")
    if calibration:
        header += " (calibration %.6fs)" % calibration
    lines.append(header)

    dispatch = report.get("dispatch") or {}
    kinds = dispatch.get("kinds") or {}
    if kinds:
        total = dispatch.get("self_seconds") or sum(
            entry.get("self_s", 0.0) for entry in kinds.values()) or 1.0
        lines.append("dispatch accounting — %d event(s), %ss self"
                     % (dispatch.get("dispatched", 0),
                        _fmt_seconds(dispatch.get("self_seconds"))))
        lines.append("  %-42s %9s %11s %7s %10s"
                     % ("event kind", "count", "self(s)", "self%",
                        "score"))
        ordered = sorted(kinds.items(),
                         key=lambda item: -item[1].get("self_s", 0.0))
        for name, entry in ordered[:limit] if limit else ordered:
            lines.append("  %-42s %9d %11.6f %6.1f%% %10.4g"
                         % (name, entry.get("count", 0),
                            entry.get("self_s", 0.0),
                            100.0 * entry.get("self_s", 0.0) / total,
                            entry.get("score", 0.0)))
        if limit and len(kinds) > limit:
            lines.append("  ... %d more kind(s)" % (len(kinds) - limit))
        lines.append(
            "  coalescable %d/%d (%.1f%%), cancelled churn %d, "
            "late %d, peak heap %d"
            % (dispatch.get("coalescable", 0),
               dispatch.get("dispatched", 0),
               100.0 * dispatch.get("coalescable_ratio", 0.0),
               dispatch.get("cancelled_popped", 0),
               (dispatch.get("lag") or {}).get("late", 0),
               (dispatch.get("heap") or {}).get("max_depth", 0)))

    regions = report.get("regions") or {}
    if regions:
        lines.append("profiler regions")
        lines.append("  %-42s %9s %11s %11s %10s"
                     % ("region", "calls", "self(s)", "cum(s)", "score"))
        ordered = sorted(regions.items(),
                         key=lambda item: -item[1].get("self_s", 0.0))
        for name, entry in ordered[:limit] if limit else ordered:
            lines.append("  %-42s %9d %11.6f %11.6f %10.4g"
                         % (name, entry.get("calls", 0),
                            entry.get("self_s", 0.0),
                            entry.get("cum_s", 0.0),
                            entry.get("score", 0.0)))
        if limit and len(regions) > limit:
            lines.append("  ... %d more region(s)"
                         % (len(regions) - limit))

    throughput = report.get("throughput") or {}
    if throughput:
        lines.append("throughput: " + "  ".join(
            "%s=%.4g" % item for item in sorted(throughput.items())))
    if len(lines) == 1:
        lines.append("(no dispatch, region, or throughput data)")
    return "\n".join(lines)


def render_diff(diff: Dict[str, Any], limit: int = 10) -> str:
    """The human view of :func:`diff_reports` output."""
    lines: List[str] = []
    lines.append(
        "perf diff (%s scores, threshold %.0f%%): max |delta| %.2f%%"
        % ("calibration-normalized" if diff.get("normalized")
           else "raw per-call", diff["threshold"] * 100,
           100.0 * diff.get("max_abs_delta", 0.0)))
    for section, label in (("regions", "region"),
                           ("dispatch", "dispatch kind"),
                           ("throughput", "throughput")):
        deltas = diff.get(section) or []
        if not deltas:
            continue
        lines.append("%s deltas (%d compared):" % (label, len(deltas)))
        for item in deltas[:limit]:
            lines.append("  %-44s %10.4g -> %10.4g  %+7.2f%%"
                         % (item["name"], item["baseline"],
                            item["current"], item["delta"] * 100))
        if len(deltas) > limit:
            lines.append("  ... %d more" % (len(deltas) - limit))
    findings = diff.get("findings") or []
    percent = diff["threshold"] * 100
    if not findings:
        lines.append("perf gate PASS: no guarded region or throughput "
                     "number regressed beyond %.0f%%" % percent)
        return "\n".join(lines)
    lines.append("perf gate FAIL: %d regression(s) beyond %.0f%%"
                 % (len(findings), percent))
    for finding in findings:
        if finding["kind"] == "region":
            lines.append(
                "  region %-36s score %.3f -> %.3f (%+.1f%%)"
                % (finding["name"], finding["baseline_score"],
                   finding["current_score"], finding["change"] * 100))
        elif finding["kind"] == "throughput_missing":
            lines.append(
                "  throughput %-32s %.1f -> MISSING (guarded floor "
                "not measured)" % (finding["name"], finding["baseline"]))
        else:
            lines.append(
                "  throughput %-32s %.1f -> %.1f (%+.1f%%)"
                % (finding["name"], finding["baseline"],
                   finding["current"], finding["change"] * 100))
    return "\n".join(lines)
