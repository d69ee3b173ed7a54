"""Unit tests for the tracing/metrics bus and its exporters."""

import json

import pytest

from repro.obs.export import (
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    chrome_trace,
    export_all,
    metrics_summary,
    read_jsonl,
    validate_jsonl,
    validate_records,
    write_jsonl,
)
from repro.obs.metrics import (
    Counter,
    Histogram,
    MetricsRegistry,
    collect_machine_metrics,
)
from repro.obs.tracer import EVENT_TYPES, TRACE, Tracer, parse_filter
from repro.perf.cycles import Component, CycleAccount


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    """Never leak an enabled global tracer into other tests."""
    yield
    TRACE.reset()


# -- Tracer ----------------------------------------------------------------


def test_disabled_tracer_records_nothing():
    tracer = Tracer()
    tracer.emit("map", bdf=1)
    tracer.emit_reset(0)
    assert len(tracer) == 0
    assert tracer.now == 0.0


def test_enable_emit_disable_cycle():
    tracer = Tracer()
    tracer.enable()
    tracer.emit("map", bdf=0x300, phys_addr=0x1000)
    tracer.emit_charge(0, "map.other", 100.0, 1, 1)
    tracer.emit("unmap", bdf=0x300)
    tracer.disable()
    tracer.emit("map", bdf=0x300)  # ignored once disabled
    assert len(tracer) == 3
    ts = [event[0] for event in tracer.events]
    assert ts == [0.0, 0.0, 100.0]  # charge stamps its start, advances after
    assert tracer.now == 100.0
    assert tracer.event_counts() == {"cycle_charge": 1, "map": 1, "unmap": 1}


def test_filter_drops_events_but_clock_still_advances():
    tracer = Tracer()
    tracer.enable(filter={"map"})
    tracer.emit("map", bdf=1)
    tracer.emit("unmap", bdf=1)  # filtered out
    tracer.emit_charge(0, "other", 50.0, 1, 4)  # filtered out, still clocks
    tracer.emit("map", bdf=2)
    assert tracer.event_counts() == {"map": 2}
    assert tracer.now == 200.0
    assert tracer.events[-1][0] == 200.0


def test_enable_rejects_unknown_filter_types():
    tracer = Tracer()
    with pytest.raises(ValueError, match="specint"):
        tracer.enable(filter={"map", "specint"})


def test_max_events_counts_overflow_as_dropped():
    tracer = Tracer()
    tracer.enable(max_events=2)
    for i in range(5):
        tracer.emit("map", i=i)
    assert len(tracer) == 2
    assert tracer.dropped == 3


def test_parse_filter():
    assert parse_filter(None) is None
    assert parse_filter("") is None
    assert parse_filter("map, unmap") == frozenset({"map", "unmap"})
    with pytest.raises(ValueError, match="bogus"):
        parse_filter("map,bogus")


def test_event_vocabulary_is_closed():
    assert "cycle_charge" in EVENT_TYPES
    assert "trace_meta" not in EVENT_TYPES  # header is not an event type


# -- CycleAccount integration ---------------------------------------------


def test_charge_paths_emit_and_reconcile_bit_exactly():
    """Replaying the trace rebuilds the exact account totals.

    Covers all three charge paths — scalar charge, charge_many folds,
    and staged/coalesced charges — plus a mid-run reset.
    """
    TRACE.enable()
    account = CycleAccount()
    account.charge(Component.IOVA_ALLOC, 123.0)
    account.charge_many(Component.PROCESSING, 1500.25, 7)
    for _ in range(5):
        account.stage(Component.IOTLB_INV, 2000.0)
    account.reset()  # warmup boundary
    account.charge(Component.IOVA_ALLOC, 3986.0)
    for _ in range(3):
        account.stage(Component.PROCESSING, 777.5)
    account.charge_many(Component.UNMAP_PAGE_TABLE, 588.0, 4)
    TRACE.disable()

    summary = metrics_summary(TRACE)
    replayed = summary["cycles_by_account"][str(account.trace_id)]
    live = {c.value: cyc for c, cyc in account.cycles.items()}
    assert replayed == live
    assert summary["schema"] == METRICS_SCHEMA
    # The cursor advanced by every cycle charged, pre- and post-reset.
    assert TRACE.now == pytest.approx(
        123.0 + 1500.25 * 7 + 2000.0 * 5 + 3986.0 + 777.5 * 3 + 588.0 * 4
    )


def test_tracing_does_not_change_account_numbers():
    def spend(account):
        account.charge(Component.IOVA_ALLOC, 100.5)
        for _ in range(9):
            account.stage(Component.PROCESSING, 33.25)
        account.charge_many(Component.IOTLB_INV, 12.0, 3)
        return dict(account.cycles), dict(account.events)

    plain = spend(CycleAccount())
    TRACE.enable()
    traced = spend(CycleAccount())
    TRACE.disable()
    assert plain == traced


# -- the typed charge channel ----------------------------------------------


class _TypedSink:
    """Takes charges on the typed channel, every other event as a dict."""

    def __init__(self):
        self.charges = []
        self.events = []

    def on_charge(self, ts, account, component, cycles, events, n):
        self.charges.append((ts, account, component, cycles, events, n))

    def __call__(self, ts, etype, fields):
        self.events.append(etype)


def test_typed_sink_gets_account_and_component_objects():
    sink = _TypedSink()
    TRACE.subscribe(sink)
    account = CycleAccount(label="typed")
    account.charge(Component.IOVA_ALLOC, 10.0)
    account.charge_many(Component.PROCESSING, 5.0, 3)
    TRACE.emit("map", bdf=1)
    assert sink.charges == [
        (0.0, account, Component.IOVA_ALLOC, 10.0, 1, 1),
        (10.0, account, Component.PROCESSING, 5.0, 1, 3),
    ]
    assert sink.events == ["map"]  # no cycle_charge dict on the dict path
    assert TRACE.now == 25.0


def test_typed_sinks_alone_build_no_charge_dict(monkeypatch):
    def no_dict(*args):
        raise AssertionError("cycle_charge dict built with no consumer")

    monkeypatch.setattr(Tracer, "_charge_event", no_dict)
    TRACE.subscribe(_TypedSink())
    CycleAccount().charge(Component.MAP_OTHER, 44.0)
    assert TRACE.now == 44.0


def test_untyped_sinks_and_recording_still_get_the_charge_dict():
    seen = []
    TRACE.enable()
    TRACE.subscribe(_TypedSink())
    TRACE.subscribe(lambda ts, etype, fields: seen.append((etype, dict(fields))))
    account = CycleAccount(label="dict")
    account.stage_many(Component.IOTLB_INV, 7.0, 4)
    expected = {
        "acct": account.trace_id,
        "comp": "unmap.iotlb_inv",
        "cycles": 7.0,
        "events": 1,
        "n": 4,
        "label": "dict",
    }
    assert seen == [("cycle_charge", expected)]
    assert TRACE.events == [(0.0, "cycle_charge", expected)]


def test_raising_typed_sink_is_detached_and_other_sinks_keep_streaming():
    class ExplodingProfiler:
        def on_charge(self, ts, account, component, cycles, events, n):
            raise RuntimeError("typed sink exploded")

        def __call__(self, ts, etype, fields):
            pass

    exploding = ExplodingProfiler()
    typed = _TypedSink()
    untyped = []
    TRACE.subscribe(exploding)
    TRACE.subscribe(typed)
    TRACE.subscribe(lambda ts, etype, fields: untyped.append(etype))
    account = CycleAccount()
    with pytest.warns(RuntimeWarning) as caught:
        account.charge(Component.MAP_OTHER, 44.0)
    assert len(caught) == 1
    message = str(caught[0].message)
    assert "ExplodingProfiler" in message
    assert "'cycle_charge'" in message
    assert "detached" in message
    assert exploding not in TRACE.sinks and exploding not in TRACE.typed
    # The charge landed, and both other sinks saw it and keep streaming.
    account.charge(Component.MAP_OTHER, 44.0)
    assert account.total() == 88.0
    assert [charge[0] for charge in typed.charges] == [0.0, 44.0]
    assert untyped == ["cycle_charge", "cycle_charge"]


def test_reset_is_emitted_before_the_account_clears():
    totals = []

    def sink(ts, etype, fields):
        if etype == "cycle_reset":
            totals.append(account.total())

    TRACE.subscribe(sink)
    account = CycleAccount()
    account.stage(Component.PROCESSING, 30.0)
    account.stage(Component.PROCESSING, 30.0)
    account.reset()
    assert totals == [60.0]
    assert account.total() == 0.0


# -- repro table1 --trace artefacts, pinned byte for byte -------------------

#: sha256 of each artefact ``repro table1 --fast --trace t.jsonl`` writes.
#: The trace carries process-global account ids, so it is only
#: reproducible from a fresh interpreter.
TABLE1_TRACE_SHA256 = {
    "t.jsonl": "49d4ec234fc00ece0ece6c546a39ec43872f3433fd2fe0c8c683cd6b117e45ef",
    "t.chrome.json": "fa5314953768247b8fddcae6e069e83d4e2b166efe13477948a66e5e101d1cca",
    "t.metrics.json": "6d2a544b74cedee3717c7f3e92d20568c0b45f2249dd3f76e3dc7941335ea60a",
}


def test_table1_trace_artefacts_are_byte_identical(tmp_path):
    import hashlib
    import os
    import pathlib
    import subprocess
    import sys

    import repro

    src = str(pathlib.Path(repro.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = src
    subprocess.run(
        [sys.executable, "-m", "repro", "table1", "--fast", "--trace", "t.jsonl"],
        cwd=tmp_path,
        env=env,
        check=True,
        capture_output=True,
    )
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in TABLE1_TRACE_SHA256
    }
    assert digests == TABLE1_TRACE_SHA256


# -- exporters -------------------------------------------------------------


def _sample_tracer() -> Tracer:
    """A small hand-built trace exercising every exporter shape."""
    tracer = Tracer()
    tracer.enable()
    tracer.emit("map", layer="iommu", bdf=0x300, phys_addr=4096, size=1500)
    tracer.emit_charge(0, "map.iova_alloc", 3986.0, 1, 1)
    tracer.emit("translate", layer="iommu", bdf=0x300, iova=0x1000)
    tracer.emit("iotlb_miss", layer="iommu", bdf=0x300, vpn=1)
    tracer.emit_charge(0, "unmap.iotlb_inv", 2127.0, 1, 2)
    tracer.emit("fault", type="TranslationFault", bdf=0x300, iova=0x2000)
    tracer.disable()
    return tracer


def test_jsonl_round_trip_and_validation(tmp_path):
    tracer = _sample_tracer()
    path = tmp_path / "trace.jsonl"
    count = write_jsonl(tracer, path)
    assert count == len(tracer)
    records = read_jsonl(path)
    assert records[0]["schema"] == TRACE_SCHEMA
    assert records[0]["events"] == len(tracer)
    assert validate_records(records) == []
    assert validate_jsonl(path) == []
    # Events round-trip with their payload fields intact.
    assert records[1]["event"] == "map"
    assert records[1]["bdf"] == 0x300


def test_validation_catches_schema_violations(tmp_path):
    tracer = _sample_tracer()
    records = list(read_jsonl_via(tracer, tmp_path))
    assert validate_records([]) != []
    assert validate_records(records[1:]) != []  # missing meta header
    bad_type = [records[0], {"ts": 0.0, "event": "specint"}]
    assert any("unknown event" in e for e in validate_records(bad_type))
    backwards = [
        records[0],
        {"ts": 5.0, "event": "map"},
        {"ts": 1.0, "event": "unmap"},
    ]
    assert any("backwards" in e for e in validate_records(backwards))
    incomplete = [records[0], {"ts": 0.0, "event": "cycle_charge"}]
    assert any("missing fields" in e for e in validate_records(incomplete))


def read_jsonl_via(tracer, tmp_path):
    path = tmp_path / "roundtrip.jsonl"
    write_jsonl(tracer, path)
    return read_jsonl(path)


def test_chrome_trace_shapes():
    tracer = _sample_tracer()
    payload = chrome_trace(tracer)
    events = payload["traceEvents"]
    slices = [e for e in events if e["ph"] == "X"]
    instants = [e for e in events if e["ph"] == "i"]
    assert len(slices) == 2
    assert slices[1]["dur"] == 2127.0 * 2  # cycles * n
    assert {e["name"] for e in instants} == {
        "map", "translate", "iotlb_miss", "fault",
    }
    # Valid JSON for chrome://tracing / Perfetto.
    json.dumps(payload)


def test_export_all_writes_three_artefacts(tmp_path):
    tracer = _sample_tracer()
    paths = export_all(tracer, tmp_path / "run.jsonl")
    assert sorted(paths) == ["chrome", "jsonl", "metrics"]
    assert validate_jsonl(paths["jsonl"]) == []
    chrome = json.loads(open(paths["chrome"]).read())
    assert chrome["otherData"]["schema"] == TRACE_SCHEMA
    metrics = json.loads(open(paths["metrics"]).read())
    assert metrics["schema"] == METRICS_SCHEMA
    assert metrics["cycles_by_component"]["map.iova_alloc"] == 3986.0
    assert metrics["cycles_by_component"]["unmap.iotlb_inv"] == 2127.0 * 2


# -- metrics registry ------------------------------------------------------


def test_counter_and_histogram():
    counter = Counter("iotlb.hits")
    counter.inc()
    counter.inc(4)
    assert counter.value == 5
    histogram = Histogram("dma.bytes")
    for value in (10, 30, 20):
        histogram.observe(value)
    assert histogram.mean == 20
    flat = histogram.flatten()
    assert flat["dma.bytes.count"] == 3
    assert flat["dma.bytes.min"] == 10
    assert flat["dma.bytes.max"] == 30


def test_registry_snapshot_and_adapters():
    class FakeStats:
        def __init__(self):
            self.hits = 7
            self.misses = 3
            self.hit_rate = 0.7  # plain numbers ARE included
            self._private = 99  # underscore names are not
            self.flag = True  # bools are not

    registry = MetricsRegistry()
    registry.counter("runs").inc()
    registry.adapt("iotlb", FakeStats())
    snap = registry.snapshot()
    assert snap["runs"] == 1
    assert snap["iotlb.hits"] == 7
    assert "iotlb._private" not in snap
    assert "iotlb.flag" not in snap
    assert list(snap) == sorted(snap)


def test_registry_merge_semantics():
    a = {"iotlb.hits": 5, "lat.min": 2.0, "lat.max": 9.0}
    b = {"iotlb.hits": 3, "lat.min": 1.0, "lat.max": 4.0, "qi.submitted": 1}
    merged = MetricsRegistry.merge([a, b])
    assert merged["iotlb.hits"] == 8
    assert merged["lat.min"] == 1.0
    assert merged["lat.max"] == 9.0
    assert merged["qi.submitted"] == 1
    assert list(merged) == sorted(merged)


def test_collect_machine_metrics_covers_layers():
    from repro.kernel.machine import Machine
    from repro.modes import Mode

    strict = collect_machine_metrics(Machine(Mode.STRICT))
    assert any(key.startswith("iotlb.") for key in strict)
    assert any(key.startswith("qi.") for key in strict)
    riommu = collect_machine_metrics(Machine(Mode.RIOMMU))
    assert any(key.startswith("riotlb.") for key in riommu)
    none = collect_machine_metrics(Machine(Mode.NONE))
    assert any(key.startswith("dma_bus.") for key in none)
