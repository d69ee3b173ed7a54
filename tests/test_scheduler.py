"""Unit tests for the event-scheduled simulation kernel.

Covers the kernel's plain-data pieces in isolation: shard knob
resolution, the monotonic cycle clock, the deterministic event heap,
bounded EventSim runs, the round-robin shard planner, and the
checkpoint guards (tracer refusal, schema and datapath-build
validation).  Parity against the golden outputs lives in
``test_event_parity.py`` and ``test_scaling_golden.py``;
checkpoint/resume determinism in ``test_checkpoint.py``.
"""

from __future__ import annotations

import os
import pickle

import pytest

from repro.modes import Mode
from repro.obs.tracer import TRACE
from repro.perf.cycles import Component, CycleAccount, MonotonicClock
from repro.sim.netperf import NetperfRR
from repro.sim.multiring import MultiRingStream
from repro.sim.scheduler import (
    CHECKPOINT_SCHEMA,
    SHARDS_ENV,
    EventScheduler,
    EventSim,
    load_checkpoint,
    resolve_shards,
    run_events,
    save_checkpoint,
    set_shards,
    shard_plan,
)
from repro.sim.setups import MLX_SETUP


@pytest.fixture(autouse=True)
def _clean_knobs(monkeypatch):
    monkeypatch.delenv(SHARDS_ENV, raising=False)
    TRACE.reset()
    yield
    TRACE.reset()


# -- shard knob resolution -----------------------------------------------


def test_resolve_shards_defaults_env_and_cpu(monkeypatch):
    assert resolve_shards() == 1
    assert resolve_shards(3) == 3
    monkeypatch.setenv(SHARDS_ENV, "5")
    assert resolve_shards() == 5
    monkeypatch.setenv(SHARDS_ENV, "not-a-number")
    with pytest.raises(ValueError, match=SHARDS_ENV):
        resolve_shards()
    # An explicit argument never reads the environment.
    assert resolve_shards(2) == 2
    # 0 and negatives mean one shard per CPU.
    assert resolve_shards(0) == (os.cpu_count() or 1)
    assert resolve_shards(-2) == (os.cpu_count() or 1)


def test_set_shards_exports_to_workers():
    assert set_shards(4) == 4
    assert os.environ[SHARDS_ENV] == "4"


# -- the monotonic cycle clock -------------------------------------------


def test_monotonic_clock_tracks_account():
    account = CycleAccount()
    clock = MonotonicClock(account)
    assert clock.now() == 0.0
    account.charge(Component.IOVA_ALLOC, 10.0)
    assert clock.now() == 10.0
    account.charge(Component.IOVA_ALLOC, 2.5)
    assert clock.now() == 12.5


def test_monotonic_clock_survives_resets():
    """The warmup->measure reset must not make time jump backwards."""
    account = CycleAccount()
    clock = MonotonicClock(account)
    account.charge(Component.IOVA_ALLOC, 100.0)
    assert clock.now() == 100.0
    account.reset()
    # Time holds (never decreases) and keeps advancing from the fold.
    assert clock.now() == 100.0
    account.charge(Component.IOVA_ALLOC, 7.0)
    assert clock.now() == 107.0
    account.reset()
    account.charge(Component.IOVA_ALLOC, 1.0)
    assert clock.now() == 108.0


# -- the event heap ------------------------------------------------------


def test_scheduler_dispatches_in_cycle_order():
    sched = EventScheduler()
    sched.post(30.0, 0)
    sched.post(10.0, 1)
    sched.post(20.0, 2)
    assert len(sched) == 3
    assert [sched.pop() for _ in range(3)] == [(10.0, 1), (20.0, 2), (30.0, 0)]
    assert len(sched) == 0
    assert sched.events_dispatched == 3


def test_scheduler_breaks_ties_by_posting_order():
    sched = EventScheduler()
    for actor in (4, 2, 7):
        sched.post(5.0, actor)
    assert [sched.pop()[1] for _ in range(3)] == [4, 2, 7]


def test_scheduler_pickles_mid_flight():
    sched = EventScheduler()
    sched.post(1.0, 0)
    sched.post(2.0, 1)
    sched.pop()
    clone = pickle.loads(pickle.dumps(sched))
    assert len(clone) == 1
    assert clone.events_dispatched == 1
    assert clone.pop() == (2.0, 1)
    # The seq counter survives too: new posts keep deterministic order.
    clone.post(2.0, 5)
    clone.post(2.0, 6)
    assert [clone.pop()[1] for _ in range(2)] == [5, 6]


# -- EventSim ------------------------------------------------------------


def _small_rr():
    return NetperfRR(transactions=40, warmup=10)


def test_event_sim_bounded_run_then_completes():
    sim = EventSim(_small_rr(), MLX_SETUP, Mode.STRICT)
    assert not sim.finished
    with pytest.raises(RuntimeError, match="pending events"):
        sim.result()
    assert sim.run(max_events=3) is False
    assert sim.scheduler.events_dispatched == 3
    assert sim.run() is True
    assert sim.finished
    reference = run_events(_small_rr(), MLX_SETUP, Mode.STRICT)
    assert sim.result().to_dict() == reference.to_dict()


def test_event_sim_counts_multi_domain_actors():
    workload = MultiRingStream(domains=3, packets=40, warmup=10)
    sim = EventSim(workload, MLX_SETUP, Mode.NONE)
    assert len(sim.actors) == 3
    assert sorted(actor.domain for actor in sim.actors) == [0, 1, 2]
    assert len(sim.scheduler) == 3


# -- shard planning ------------------------------------------------------


def test_shard_plan_round_robin_stripes():
    workload = MultiRingStream(domains=8)
    assert shard_plan(workload, 4) == [
        (0, 4),
        (1, 5),
        (2, 6),
        (3, 7),
    ]
    # More shards than domains clamps to one domain per shard.
    assert shard_plan(workload, 100) == [(d,) for d in range(8)]


def test_shard_plan_inapplicable_cases():
    assert shard_plan(MultiRingStream(domains=8), 1) is None
    assert shard_plan(MultiRingStream(domains=1), 4) is None
    # Single-domain figure-12 workloads have no per-domain protocol.
    assert shard_plan(_small_rr(), 4) is None


# -- checkpoint guards ---------------------------------------------------


def test_checkpoint_refused_while_tracing(tmp_path):
    sim = EventSim(_small_rr(), MLX_SETUP, Mode.STRICT)
    TRACE.enable()
    try:
        with pytest.raises(RuntimeError, match="tracer"):
            save_checkpoint(sim, tmp_path / "ckpt.pkl")
    finally:
        TRACE.disable()
        TRACE.reset()


def test_load_rejects_foreign_files(tmp_path):
    path = tmp_path / "not-a-checkpoint.pkl"
    with open(path, "wb") as handle:
        pickle.dump({"schema": "someone/elses", "sim": None}, handle)
    with pytest.raises(ValueError, match="not a simulation checkpoint"):
        load_checkpoint(path)


def test_load_rejects_datapath_build_mismatch(tmp_path):
    from repro import datapath

    sim = EventSim(_small_rr(), MLX_SETUP, Mode.STRICT)
    path = tmp_path / "ckpt.pkl"
    save_checkpoint(sim, path)
    with open(path, "rb") as handle:
        payload = pickle.load(handle)
    assert payload["schema"] == CHECKPOINT_SCHEMA
    assert payload["datapath"] == datapath.current_build()
    payload["datapath"] = "some-other-build"
    with open(path, "wb") as handle:
        pickle.dump(payload, handle)
    with pytest.raises(ValueError, match="datapath build"):
        load_checkpoint(path)
