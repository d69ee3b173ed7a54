"""Event-kernel parity: every run reproduces the frozen reference outputs.

The golden files hold what the original fixed call-order loop produced
before it was removed: ``figure12_fast_golden.json`` for every
figure-12 cell and ``scaling_fast_golden.json`` for the multi-domain
workloads.  The event-scheduled kernel must reproduce them bit-exactly
in every figure-12 mode, with observers on or off; the multi-ring
workload must additionally be bit-identical between the serial event
heap and sharded worker-pool execution — shard count, like ``--jobs``,
is invisible in the results.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from repro.config import RunConfig
from repro.modes import ALL_MODES, Mode
from repro.obs.tracer import TRACE
from repro.sim.multiring import MultiRingStream
from repro.sim.registry import BENCHMARKS
from repro.sim.runner import BENCHMARK_NAMES, run_benchmark
from repro.sim.scheduler import SHARDS_ENV, run_events
from repro.sim.setups import MLX_SETUP

GOLDEN = json.loads(
    (pathlib.Path(__file__).parent / "data" / "figure12_fast_golden.json").read_text()
)


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    monkeypatch.delenv(SHARDS_ENV, raising=False)
    TRACE.reset()
    yield
    TRACE.reset()


def _run(mode, observe, benchmark="rr"):
    config = RunConfig(fast=True, observe=observe)
    return run_benchmark(MLX_SETUP, mode, benchmark, config=config)


# -- the matrix: every mode x observers on/off, against the golden -------


@pytest.mark.parametrize("observe", [False, True], ids=["observe-off", "observe-on"])
@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.label for m in ALL_MODES])
def test_parity_matrix(mode, observe):
    result = _run(mode, observe)
    assert result.to_dict() == GOLDEN["mlx"]["rr"][mode.label]
    if observe:
        assert result.obs["profile"]["reconciles"] is True
        assert result.obs["profile"]["reconcile_delta"] == 0.0
    else:
        assert result.obs is None


# -- every figure-12 benchmark, spot-checked on two modes each -----------


@pytest.mark.parametrize("bench_name", BENCHMARK_NAMES)
def test_every_benchmark_is_engine_invariant(bench_name):
    for mode in (Mode.STRICT, Mode.RIOMMU):
        result = _run(mode, False, bench_name)
        assert result.to_dict() == GOLDEN["mlx"][bench_name][mode.label], mode


# -- multi-ring: serial events == sharded events -------------------------


_MSTREAM = dict(domains=4, packets=120, warmup=30)


@pytest.mark.parametrize("mode", [Mode.STRICT, Mode.DEFER, Mode.RIOMMU],
                         ids=lambda m: m.label)
def test_mstream_sharding_is_invisible(mode):
    serial = run_events(MultiRingStream(**_MSTREAM), MLX_SETUP, mode, shards=1)
    for shards in (2, 4):
        sharded = run_events(MultiRingStream(**_MSTREAM), MLX_SETUP, mode, shards)
        assert sharded.to_dict() == serial.to_dict(), shards


def test_mstream_shards_env_knob(monkeypatch):
    serial = run_events(MultiRingStream(**_MSTREAM), MLX_SETUP, Mode.STRICT)
    monkeypatch.setenv(SHARDS_ENV, "2")
    sharded = run_events(MultiRingStream(**_MSTREAM), MLX_SETUP, Mode.STRICT)
    assert sharded.to_dict() == serial.to_dict()


def test_mstream_registered_but_not_figure12():
    assert "mstream" in BENCHMARKS
    assert BENCHMARKS["mstream"].figure12 is False
    assert "mstream" not in BENCHMARK_NAMES


def test_mstream_runs_serially_while_tracing():
    """With a tracer attached the sharded path must stay in-process —
    worker events could never reach this process's trace buffer."""
    TRACE.enable()
    try:
        result = run_events(
            MultiRingStream(**_MSTREAM), MLX_SETUP, Mode.RIOMMU, shards=4
        )
        assert len(TRACE.events) > 0
    finally:
        TRACE.disable()
    reference = run_events(MultiRingStream(**_MSTREAM), MLX_SETUP, Mode.RIOMMU)
    assert result.to_dict() == reference.to_dict()
