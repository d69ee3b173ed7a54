"""Cycle-attribution profiler: streaming fold == account totals, exactly.

The tentpole guarantee of the attribution layer — the profiler's
per-primitive cycle sum reconciles **bit-exactly** with the run's
``RunResult.cycles_total``, for every mode in the figure-12 grid —
plus the sink mechanics it rides on and the strict observational-parity
property (observers on never change a modelled number).
"""

import pytest

from repro.config import RunConfig
from repro.modes import ALL_MODES, Mode
from repro.obs.profile import CycleProfiler, RunObserver, observe_requested
from repro.obs.tracer import TRACE
from repro.perf.cycles import Component, CycleAccount, exact_add
from repro.sim.runner import run_benchmark, run_figure12
from repro.sim.setups import ALL_SETUPS, MLX_SETUP

FAST = RunConfig(fast=True)


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    TRACE.reset()
    yield
    TRACE.reset()


# -- sink mechanics ------------------------------------------------------


def test_subscribe_activates_and_unsubscribe_deactivates():
    seen = []
    sink = lambda ts, etype, fields: seen.append(etype)
    assert not TRACE.active
    TRACE.subscribe(sink)
    assert TRACE.active and not TRACE.recording
    TRACE.emit("map", bdf=1)
    TRACE.unsubscribe(sink)
    assert not TRACE.active
    TRACE.emit("map", bdf=2)
    assert seen == ["map"]
    # Sinks never store events.
    assert len(TRACE.events) == 0


def test_sinks_see_filtered_out_event_types():
    seen = []
    TRACE.enable(filter={"map"})
    TRACE.subscribe(lambda ts, etype, fields: seen.append(etype))
    TRACE.emit("map", bdf=1)
    TRACE.emit("unmap", bdf=1)
    assert seen == ["map", "unmap"]
    # ... while the recording filter still gates storage.
    assert TRACE.event_counts() == {"map": 1}


def test_disable_keeps_tracer_active_while_sinks_remain():
    sink = lambda ts, etype, fields: None
    TRACE.enable()
    TRACE.subscribe(sink)
    TRACE.disable()
    assert TRACE.active and not TRACE.recording
    TRACE.unsubscribe(sink)
    assert not TRACE.active


def test_reset_clears_sinks():
    TRACE.subscribe(lambda ts, etype, fields: None)
    TRACE.reset()
    assert TRACE.sinks == () and not TRACE.active


def test_sink_sees_charge_timestamp_before_clock_advances():
    stamps = []
    TRACE.subscribe(lambda ts, etype, fields: stamps.append((ts, TRACE.now)))
    acct = CycleAccount()
    acct.charge(Component.PROCESSING, 100.0)
    (ts, now_after), = stamps
    assert ts == 0.0 and now_after == 100.0


# -- exact_add -----------------------------------------------------------


@pytest.mark.parametrize(
    "total,cycles,count",
    [
        (0.0, 3.0, 1000),
        (1e15, 7.0, 12),          # bulk add would stay exact
        (0.1, 0.2, 37),           # non-integral: loop replay
        (float(1 << 52), 3.0, 9999),  # near the exactness boundary
    ],
)
def test_exact_add_matches_repeated_addition(total, cycles, count):
    looped = total
    for _ in range(count):
        looped += cycles
    assert exact_add(total, cycles, count) == looped


# -- CycleProfiler against a hand-driven account -------------------------


def test_profiler_reproduces_account_total_bit_exactly():
    profiler = CycleProfiler()
    TRACE.subscribe(profiler)
    acct = CycleAccount(label="hand")
    acct.charge(Component.IOVA_ALLOC, 30.5)
    for _ in range(500):
        acct.stage(Component.PROCESSING, 17.0)
    acct.charge_many(Component.IOTLB_INV, 2011.0, 250)
    acct.charge(Component.MAP_OTHER, 0.25, events=2)
    assert profiler.total() == acct.total()
    assert profiler.by_layer()["hand"][Component.PROCESSING.value] == (
        acct.cycles[Component.PROCESSING]
    )
    assert profiler.event_counts()[Component.IOTLB_INV.value] == 250


def test_profiler_moves_pre_reset_cycles_to_warmup_phase():
    profiler = CycleProfiler()
    TRACE.subscribe(profiler)
    acct = CycleAccount()
    acct.charge(Component.PROCESSING, 100.0)
    acct.reset()
    acct.charge(Component.PROCESSING, 40.0)
    phases = profiler.by_phase()
    assert phases["warmup"] == {Component.PROCESSING.value: 100.0}
    assert phases["measured"] == {Component.PROCESSING.value: 40.0}
    assert profiler.total() == 40.0


# -- reconciliation: every figure-12 mode --------------------------------


@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.label for m in ALL_MODES])
@pytest.mark.parametrize("bench", ["stream", "rr"])
def test_attribution_reconciles_for_every_mode(mode, bench):
    result = run_benchmark(MLX_SETUP, mode, bench, config=FAST, observe=True)
    profile = result.obs["profile"]
    assert profile["reconciles"] is True
    assert profile["reconcile_delta"] == 0.0
    assert profile["total_cycles"] == result.cycles_total
    # Per-primitive decomposition sums to the same number too.
    assert sum(profile["by_primitive"].values()) == pytest.approx(
        result.cycles_total, rel=0, abs=1e-6
    )


def test_layer_breakdown_names_the_charging_driver():
    strict = run_benchmark(MLX_SETUP, Mode.STRICT, "rr", config=FAST, observe=True)
    riommu = run_benchmark(MLX_SETUP, Mode.RIOMMU, "rr", config=FAST, observe=True)
    assert "iommu-driver" in strict.obs["profile"]["by_layer"]
    assert "riommu-driver" in riommu.obs["profile"]["by_layer"]


# -- strict observational parity -----------------------------------------


def _slice_dict(**kwargs):
    return run_figure12(
        setups=ALL_SETUPS,
        benchmarks=("rr", "memcached"),
        modes=(Mode.NONE, Mode.STRICT, Mode.DEFER, Mode.RIOMMU),
        config=FAST,
        **kwargs,
    ).to_dict()


def test_figure12_slice_bit_identical_with_observation_on():
    assert _slice_dict(observe=True) == _slice_dict()


def test_observation_composes_with_recording_tracer():
    plain = run_benchmark(MLX_SETUP, Mode.DEFER, "rr", config=FAST)
    TRACE.enable()
    observed = run_benchmark(MLX_SETUP, Mode.DEFER, "rr", config=FAST, observe=True)
    TRACE.disable()
    assert observed.to_dict() == plain.to_dict()
    assert observed.obs["profile"]["reconciles"] is True
    assert len(TRACE.events) > 0


def test_observed_grid_identical_serial_vs_parallel():
    serial = run_figure12(
        setups=(MLX_SETUP,),
        benchmarks=("rr",),
        modes=(Mode.STRICT, Mode.DEFER, Mode.RIOMMU),
        config=FAST,
        jobs=1,
        observe=True,
    )
    parallel = run_figure12(
        setups=(MLX_SETUP,),
        benchmarks=("rr",),
        modes=(Mode.STRICT, Mode.DEFER, Mode.RIOMMU),
        config=FAST,
        jobs=2,
        observe=True,
    )
    assert serial.to_dict() == parallel.to_dict()
    for mode in (Mode.STRICT, Mode.DEFER, Mode.RIOMMU):
        s = serial.get("mlx", "rr", mode).obs
        p = parallel.get("mlx", "rr", mode).obs
        assert s is not None and p is not None
        assert s == p  # whole summary: profile, audit, percentiles, metrics


def test_observe_env_flag(monkeypatch):
    monkeypatch.delenv("REPRO_OBSERVE", raising=False)
    assert not observe_requested()
    monkeypatch.setenv("REPRO_OBSERVE", "0")
    assert not observe_requested()
    monkeypatch.setenv("REPRO_OBSERVE", "1")
    assert observe_requested()
    result = run_benchmark(MLX_SETUP, Mode.NONE, "rr", config=RunConfig.from_env(fast=True))
    assert result.obs is not None


def test_unobserved_run_attaches_no_summary():
    result = run_benchmark(MLX_SETUP, Mode.STRICT, "rr", config=FAST)
    assert result.obs is None
    assert not TRACE.active  # observer cleaned up, nothing left behind


def test_run_observer_detaches_even_on_error():
    with pytest.raises(RuntimeError):
        with RunObserver():
            raise RuntimeError("boom")
    assert not TRACE.active
