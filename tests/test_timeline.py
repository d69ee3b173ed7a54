"""Timeline sampler: bit-exact per-window series + sink isolation.

Pins the two exactness properties promised by ``repro.obs.timeline``
— the cumulative per-component cycle series reconciles bit-exactly
with ``RunResult.cycles_total`` in every figure-12 mode, and merging
per-cell timelines is bit-deterministic regardless of worker count —
plus the JSONL roundtrip, the rendering smoke, the sampling-window
override, and the tracer's faulty-sink quarantine (a raising sink is
detached with a warning, never corrupting the run or its account).
"""

import json
import warnings

import pytest

from repro.config import RunConfig
from repro.modes import ALL_MODES, Mode
from repro.obs.profile import RunObserver
from repro.obs.timeline import (
    DEFAULT_WINDOW_CYCLES,
    TIMELINE_SCHEMA,
    TIMELINE_WINDOW_ENV,
    TimelineSampler,
    merge_timelines,
    read_timeline,
    render_timeline,
    timeline_total,
    validate_timeline_jsonl,
    validate_timeline_records,
    window_cycles_requested,
    write_timeline,
)
from repro.obs.tracer import TRACE
from repro.sim.runner import run_benchmark
from repro.sim.setups import ALL_SETUPS, BRCM_SETUP, MLX_SETUP

FAST = RunConfig(fast=True)


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    TRACE.reset()
    yield
    TRACE.reset()


def _observed_run(setup, mode, benchmark="stream", **kwargs):
    with RunObserver(clock_hz=setup.clock_hz) as observer:
        result = run_benchmark(setup, mode, benchmark, config=FAST, **kwargs)
    return result, observer


# -- bit-exact reconciliation --------------------------------------------


@pytest.mark.parametrize("mode", ALL_MODES, ids=lambda m: m.label)
@pytest.mark.parametrize("setup", ALL_SETUPS, ids=lambda s: s.name)
def test_timeline_total_is_bit_exact_in_every_mode(setup, mode):
    """The windows' final ``cum`` snapshot == cycles_total, to the bit.

    brcm is the hard case: its non-integral cost scales make the fold's
    float association observable, so ``==`` (not approx) matters here.
    """
    result, observer = _observed_run(setup, mode)
    summary = observer.timeline.summary()
    assert summary["windows"], "observed run produced no windows"
    assert timeline_total(summary) == result.cycles_total
    assert summary["cycles_total"] == result.cycles_total


def test_per_window_deltas_and_cum_are_consistent():
    _result, observer = _observed_run(MLX_SETUP, Mode.STRICT)
    summary = observer.timeline.summary()
    windows = summary["windows"]
    # In reset-free windows the cycle delta equals the change in the
    # cum totals (up to float association of the display-only sum).
    # A reset window legitimately breaks this: cum drops as warmup
    # rolls out of the measured phase.
    prev_total = 0.0
    for record in windows:
        cum_total = sum(sum(c.values()) for c in record["cum"].values())
        if not record["resets"]:
            delta = sum(record["cycles"].values())
            assert delta == pytest.approx(cum_total - prev_total, abs=1e-6)
        prev_total = cum_total
    # Windows are strictly ordered and aligned to the sampling grid.
    width = summary["window_cycles"]
    for a, b in zip(windows, windows[1:]):
        assert a["w"] < b["w"]
    for record in windows:
        assert record["t1"] - record["t0"] == pytest.approx(width)


def test_warmup_resets_roll_into_warmup_cycles_not_measured():
    _result, observer = _observed_run(MLX_SETUP, Mode.STRICT)
    summary = observer.timeline.summary()
    windows = summary["windows"]
    assert sum(w["resets"] for w in windows) > 0
    assert sum(w["warmup_cycles"] for w in windows) > 0


# -- gauges and rates -----------------------------------------------------


def test_defer_mode_timeline_shows_defer_queue_and_open_windows():
    _result, observer = _observed_run(MLX_SETUP, Mode.DEFER)
    windows = observer.timeline.summary()["windows"]
    assert max(w["defer_pending_max"] for w in windows) > 0
    assert max(w["open_windows_max"] for w in windows) > 0


def test_strict_mode_timeline_shows_qi_depth_but_no_open_windows():
    _result, observer = _observed_run(MLX_SETUP, Mode.STRICT)
    windows = observer.timeline.summary()["windows"]
    assert max(w["qi_depth_max"] for w in windows) > 0
    assert max(w["open_windows_max"] for w in windows) == 0


def test_hit_rate_and_gbps_populated_once_traffic_flows():
    _result, observer = _observed_run(MLX_SETUP, Mode.RIOMMU)
    windows = observer.timeline.summary()["windows"]
    rates = [w["iotlb_hit_rate"] for w in windows if w["iotlb_hit_rate"] is not None]
    assert rates and all(0.0 <= r <= 1.0 for r in rates)
    speeds = [w["gbps"] for w in windows if w["gbps"] is not None]
    assert speeds and all(s > 0 for s in speeds)


# -- standalone sinks == the fused observer --------------------------------


def test_standalone_sinks_match_the_fused_observer():
    """Profiler, auditor and sampler subscribed on their own agree with
    the one fused ``RunObserver`` on the same cell, bit for bit."""
    from repro.config import RunConfig
    from repro.obs.attribution import CycleProfiler
    from repro.obs.audit import ProtectionAuditor
    from repro.sim.runner import run_with_config

    fused = run_with_config(
        MLX_SETUP, Mode.DEFER, "stream", RunConfig(fast=True, observe="full")
    ).obs
    TRACE.reset()
    profiler = CycleProfiler()
    auditor = ProtectionAuditor()
    sampler = TimelineSampler(clock_hz=MLX_SETUP.clock_hz, auditor=auditor)
    for sink in (profiler, auditor, sampler):  # the auditor before the sampler
        TRACE.subscribe(sink)
    run_with_config(MLX_SETUP, Mode.DEFER, "stream", RunConfig(fast=True))
    auditor.finalize(TRACE.now)
    sampler.finalize(TRACE.now)
    TRACE.reset()
    assert sampler.summary() == fused["timeline"]
    assert {**auditor.report(), "mode": "defer", "mode_expected_safe": False} == (
        fused["audit"]
    )
    profile = profiler.summary()
    assert profile == {
        key: fused["profile"][key] for key in profile
    }


# -- deterministic merging ------------------------------------------------


def test_merge_is_bit_deterministic_across_worker_counts():
    """jobs=1 and jobs=2 grids yield byte-identical merged timelines."""
    from repro.sim.runner import run_figure12

    def merged(jobs):
        TRACE.reset()
        grid = run_figure12(
            setups=[MLX_SETUP],
            benchmarks=("stream", "rr"),
            modes=[Mode.STRICT, Mode.DEFER],
            config=FAST,
            jobs=jobs,
            observe=True,
        )
        summaries = [
            result.obs["timeline"]
            for by_bench in grid.results.values()
            for by_mode in by_bench.values()
            for result in by_mode.values()
            if result.obs and result.obs.get("timeline")
        ]
        assert len(summaries) == 4
        return merge_timelines(summaries)

    serial = merged(1)
    parallel = merged(2)
    assert json.dumps(serial, sort_keys=True) == json.dumps(
        parallel, sort_keys=True
    )
    assert serial["merged_from"] == 4


def test_merge_sums_counters_and_totals():
    _r1, obs1 = _observed_run(MLX_SETUP, Mode.STRICT)
    TRACE.reset()
    _r2, obs2 = _observed_run(MLX_SETUP, Mode.RIOMMU)
    s1, s2 = obs1.timeline.summary(), obs2.timeline.summary()
    merged = merge_timelines([s1, s2])
    assert merged["cycles_total"] == s1["cycles_total"] + s2["cycles_total"]
    assert sum(w["packets"] for w in merged["windows"]) == sum(
        w["packets"] for w in s1["windows"]
    ) + sum(w["packets"] for w in s2["windows"])
    # Per-cell cumulative series stay distinguishable after the merge.
    assert any(
        key.startswith("cell0:") for key in merged["windows"][-1]["cum"]
    )


def test_merge_rejects_mismatched_window_widths():
    a = {"window_cycles": 100.0, "windows": [], "cycles_total": 0.0}
    b = {"window_cycles": 200.0, "windows": [], "cycles_total": 0.0}
    with pytest.raises(ValueError, match="window width mismatch"):
        merge_timelines([a, b])
    with pytest.raises(ValueError, match="nothing to merge"):
        merge_timelines([])


# -- window width control -------------------------------------------------


def test_window_env_override(monkeypatch):
    monkeypatch.setenv(TIMELINE_WINDOW_ENV, "12500")
    assert window_cycles_requested() == 12500.0
    assert TimelineSampler().window_cycles == 12500.0
    # A malformed override is an error naming the variable, never a
    # silent fall back to the default width.
    for bad in ("not-a-number", "-5", "0"):
        monkeypatch.setenv(TIMELINE_WINDOW_ENV, bad)
        with pytest.raises(ValueError, match=TIMELINE_WINDOW_ENV):
            window_cycles_requested()
    monkeypatch.delenv(TIMELINE_WINDOW_ENV)
    assert window_cycles_requested() == DEFAULT_WINDOW_CYCLES


def test_narrower_windows_same_total():
    _result, wide = _observed_run(MLX_SETUP, Mode.STRICT)
    TRACE.reset()
    with RunObserver(clock_hz=MLX_SETUP.clock_hz, timeline_window=10_000) as narrow:
        result = run_benchmark(MLX_SETUP, Mode.STRICT, "stream", config=FAST)
    wide_summary = wide.timeline.summary()
    narrow_summary = narrow.timeline.summary()
    assert len(narrow_summary["windows"]) > len(wide_summary["windows"])
    assert timeline_total(narrow_summary) == result.cycles_total
    assert timeline_total(wide_summary) == timeline_total(narrow_summary)


def test_bad_window_width_rejected():
    with pytest.raises(ValueError, match="positive"):
        TimelineSampler(window_cycles=-1.0)


# -- JSONL roundtrip + validation ----------------------------------------


def test_timeline_jsonl_roundtrip(tmp_path):
    _result, observer = _observed_run(BRCM_SETUP, Mode.DEFER)
    summary = observer.timeline.summary()
    path = tmp_path / "timeline.jsonl"
    count = write_timeline(summary, path)
    assert count == len(summary["windows"])
    assert validate_timeline_jsonl(path) == []
    loaded = read_timeline(path)
    assert loaded["schema"] == TIMELINE_SCHEMA
    assert timeline_total(loaded) == timeline_total(summary)
    assert loaded["cycles_total"] == summary["cycles_total"]


def test_timeline_validation_catches_damage(tmp_path):
    _result, observer = _observed_run(MLX_SETUP, Mode.STRICT)
    records = list(observer.timeline.summary()["windows"])
    meta = {
        "event": "timeline_meta",
        "schema": TIMELINE_SCHEMA,
        "window_cycles": DEFAULT_WINDOW_CYCLES,
        "windows": len(records),
    }
    # Backwards window index.
    damaged = [meta, *records]
    damaged[1], damaged[2] = damaged[2], damaged[1]
    assert any("backwards" in e for e in validate_timeline_records(damaged))
    # Wrong schema and missing header.
    assert any(
        "schema" in e
        for e in validate_timeline_records([{**meta, "schema": "nope"}])
    )
    assert validate_timeline_records([]) != []
    assert validate_timeline_records([records[0]]) != []
    # Corrupt counter and corrupt cum.
    bad = dict(records[0])
    bad["packets"] = -3
    assert any("counter" in e for e in validate_timeline_records([meta, bad]))
    bad = dict(records[0])
    bad["cum"] = "not-a-dict"
    assert any("cumulative" in e for e in validate_timeline_records([meta, bad]))


def test_read_timeline_rejects_foreign_jsonl(tmp_path):
    path = tmp_path / "other.jsonl"
    path.write_text(json.dumps({"event": "trace_meta"}) + "\n")
    with pytest.raises(ValueError, match="not a timeline artifact"):
        read_timeline(path)


# -- rendering ------------------------------------------------------------


def test_render_timeline_smoke():
    _result, observer = _observed_run(MLX_SETUP, Mode.DEFER)
    text = render_timeline(observer.timeline.summary(), width=40, title="[defer]")
    assert text.startswith("[defer]")
    assert "cycles/window" in text
    assert "defer queue" in text
    for line in text.splitlines():
        if "|" in line:
            bar = line.split("|")[1]
            assert len(bar) <= 40


def test_sparkline_downsamples_and_scales():
    from repro.analysis.ascii_plot import sparkline

    flat = sparkline([0.0] * 10, width=10)
    assert flat == " " * 10
    ramp = sparkline(list(range(200)), width=20)
    assert len(ramp) == 20
    # Monotone input renders monotone glyph heights.
    from repro.analysis.ascii_plot import SPARK_GLYPHS

    levels = [SPARK_GLYPHS.index(ch) for ch in ramp]
    assert levels == sorted(levels)
    assert sparkline([], width=10) == ""


# -- faulty-sink quarantine (tracer isolation) ----------------------------


def test_raising_sink_is_detached_with_warning_and_run_survives():
    calls = []

    def faulty(ts, etype, fields):
        calls.append(etype)
        raise RuntimeError("sink exploded")

    good = []
    TRACE.subscribe(faulty)
    TRACE.subscribe(lambda ts, etype, fields: good.append(etype))
    with pytest.warns(RuntimeWarning, match="detached"):
        TRACE.emit("map", bdf=1)
    # The faulty sink ran once, was detached, and never sees another
    # event; the good sink keeps observing.
    TRACE.emit("unmap", bdf=1)
    assert calls == ["map"]
    assert good == ["map", "unmap"]


def test_quarantine_warning_names_the_sink_class_and_raising_event():
    class ExplodingAuditor:
        def __call__(self, ts, etype, fields):
            raise RuntimeError("sink exploded")

    TRACE.subscribe(ExplodingAuditor())
    with pytest.warns(RuntimeWarning) as caught:
        TRACE.emit("iotlb_miss", bdf=1)
    assert len(caught) == 1
    message = str(caught[0].message)
    # Diagnosable from the warning alone: which sink, which event.
    assert "ExplodingAuditor" in message
    assert "'iotlb_miss'" in message
    assert "detached" in message

    # The charge fast path reports its fixed event type the same way.
    from repro.perf.cycles import Component, CycleAccount

    TRACE.subscribe(ExplodingAuditor())
    with pytest.warns(RuntimeWarning, match="'cycle_charge'") as caught:
        CycleAccount().charge(Component.MAP_OTHER, 44.0)
    assert "ExplodingAuditor" in str(caught[0].message)


def test_raising_sink_never_corrupts_the_cycle_account():
    from repro.perf.cycles import Component, CycleAccount

    def faulty(ts, etype, fields):
        raise RuntimeError("boom")

    account = CycleAccount()
    TRACE.subscribe(faulty)
    with pytest.warns(RuntimeWarning):
        account.charge(Component.MAP_OTHER, 44.0)
    account.charge(Component.MAP_OTHER, 44.0)
    assert account.total() == 88.0
    # The clock advanced for the first charge despite the raise; after
    # the quarantine no sinks remain, so the tracer is inactive again
    # and the cursor (correctly) stops advancing.
    assert TRACE.now == 44.0
    assert not TRACE.active


def test_observed_run_is_bit_identical_with_a_faulty_sink_attached():
    result_clean, observer_clean = _observed_run(MLX_SETUP, Mode.STRICT)
    TRACE.reset()

    def faulty(ts, etype, fields):
        raise ValueError("observability must never change the model")

    TRACE.subscribe(faulty)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        result_faulty, observer_faulty = _observed_run(MLX_SETUP, Mode.STRICT)
    assert result_faulty.cycles_total == result_clean.cycles_total
    assert result_faulty.gbps == result_clean.gbps
    assert timeline_total(observer_faulty.timeline.summary()) == timeline_total(
        observer_clean.timeline.summary()
    )
