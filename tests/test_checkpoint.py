"""Checkpoint/resume determinism: save mid-run, reload, finish — same bits.

The event kernel's checkpoint contract (satellite of the scheduler
tentpole): pickling a simulation at any burst boundary and resuming it
— in the same process or from the serialized bytes alone — completes
bit-identically to the uninterrupted run, across protection modes and
across single- and multi-domain workloads.
"""

from __future__ import annotations

import pickle

import pytest

from repro.modes import Mode
from repro.sim.multiring import MultiRingStream
from repro.sim.netperf import NetperfRR, NetperfStream
from repro.sim.scheduler import (
    EventSim,
    load_checkpoint,
    run_events,
    save_checkpoint,
)
from repro.sim.setups import MLX_SETUP


def _rr():
    return NetperfRR(transactions=60, warmup=15)


@pytest.mark.parametrize(
    "mode", [Mode.STRICT, Mode.DEFER, Mode.RIOMMU], ids=lambda m: m.label
)
def test_resume_is_bit_identical_across_modes(tmp_path, mode):
    """Save a third of the way in, reload from disk, finish: the
    completed RunResult matches the uninterrupted run bit-for-bit."""
    uninterrupted = EventSim(_rr(), MLX_SETUP, mode)
    uninterrupted.run()
    reference = uninterrupted.result().to_dict()
    total_events = uninterrupted.scheduler.events_dispatched

    interrupted = EventSim(_rr(), MLX_SETUP, mode)
    assert interrupted.run(max_events=total_events // 3) is False
    path = tmp_path / f"{mode.label}.ckpt"
    save_checkpoint(interrupted, path)

    resumed = load_checkpoint(path)
    assert resumed is not interrupted  # a genuine from-bytes reload
    assert not resumed.finished
    assert resumed.run() is True
    assert resumed.result().to_dict() == reference
    assert resumed.scheduler.events_dispatched == total_events


def test_resume_at_every_phase_boundary(tmp_path):
    """Checkpoints straddling the warmup reset resume exactly too."""
    reference_sim = EventSim(_rr(), MLX_SETUP, Mode.RIOMMU)
    reference_sim.run()
    reference = reference_sim.result().to_dict()
    total_events = reference_sim.scheduler.events_dispatched

    for cut in (1, total_events // 2, total_events - 1):
        sim = EventSim(_rr(), MLX_SETUP, Mode.RIOMMU)
        sim.run(max_events=cut)
        path = tmp_path / f"cut-{cut}.ckpt"
        save_checkpoint(sim, path)
        resumed = load_checkpoint(path)
        resumed.run()
        assert resumed.result().to_dict() == reference, cut


def test_stream_checkpoint_roundtrip(tmp_path):
    workload = NetperfStream(packets=120, warmup=30)
    reference = run_events(workload, MLX_SETUP, Mode.STRICT)
    sim = EventSim(workload, MLX_SETUP, Mode.STRICT)
    sim.run(max_events=2)
    path = tmp_path / "stream.ckpt"
    save_checkpoint(sim, path)
    resumed = load_checkpoint(path)
    resumed.run()
    assert resumed.result().to_dict() == reference.to_dict()


def test_multi_domain_checkpoint_roundtrip(tmp_path):
    """A mid-run multi-domain sim (interleaved heap) resumes exactly."""
    spec = dict(domains=3, packets=80, warmup=20)
    reference = run_events(MultiRingStream(**spec), MLX_SETUP, Mode.DEFER)
    sim = EventSim(MultiRingStream(**spec), MLX_SETUP, Mode.DEFER)
    sim.run(max_events=4)
    path = tmp_path / "mstream.ckpt"
    save_checkpoint(sim, path)
    resumed = load_checkpoint(path)
    resumed.run()
    assert resumed.result().to_dict() == reference.to_dict()


def test_checkpoint_bytes_are_self_contained(tmp_path):
    """Resuming twice from the same bytes gives the same result — the
    checkpoint is a value, not a reference to live state."""
    sim = EventSim(_rr(), MLX_SETUP, Mode.STRICT)
    sim.run(max_events=5)
    path = tmp_path / "rr.ckpt"
    save_checkpoint(sim, path)
    raw = path.read_bytes()

    first = load_checkpoint(path)
    first.run()
    once = first.result().to_dict()
    assert path.read_bytes() == raw  # loading mutated nothing on disk
    second = load_checkpoint(path)
    second.run()
    assert second.result().to_dict() == once


def test_in_memory_pickle_roundtrip_mid_run():
    sim = EventSim(_rr(), MLX_SETUP, Mode.RIOMMU)
    sim.run(max_events=7)
    clone = pickle.loads(pickle.dumps(sim))
    sim.run()
    clone.run()
    assert clone.result().to_dict() == sim.result().to_dict()
