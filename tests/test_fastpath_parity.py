"""The hot-path fast paths must be observably invisible.

``repro.memory.physical`` and ``repro.devices.dma`` gate their
single-page fast paths and the per-burst translation memo behind the
one datapath flag, ``repro.datapath.COLUMNAR_ENABLED``.  These tests
run under the scalar build and check that simulation results, memory
semantics, and error behaviour are bit-for-bit unchanged — the fast
paths may only change wall-clock time, never a modelled number.
"""

import pytest

from repro import datapath
from repro.config import RunConfig
from repro.memory import MemorySystem, PAGE_SIZE, PhysicalMemory
from repro.modes import Mode
from repro.sim.runner import run_benchmark, run_mode_sweep
from repro.sim.setups import MLX_SETUP

FAST = RunConfig(fast=True)


def _cell(setup=MLX_SETUP, mode=Mode.STRICT, benchmark="stream"):
    return run_benchmark(setup, mode, benchmark, config=FAST).to_dict()


def test_fastpath_flag_defaults_on():
    assert datapath.COLUMNAR_ENABLED


@pytest.mark.parametrize("bench", ["stream", "rr", "memcached"])
@pytest.mark.parametrize("mode", [Mode.STRICT, Mode.RIOMMU, Mode.DEFER])
def test_cell_results_identical_without_fastpath(scalar_build, bench, mode):
    """Slow-path RunResults equal the fast-path ones for every field."""
    with scalar_build():
        slow = _cell(mode=mode, benchmark=bench)
    assert slow == _cell(mode=mode, benchmark=bench)


def test_mode_sweep_identical_without_fastpath(scalar_build):
    """A whole Figure 12 panel is unchanged, including mode ordering."""
    modes = (Mode.NONE, Mode.STRICT, Mode.RIOMMU)
    with scalar_build():
        slow = run_mode_sweep(MLX_SETUP, "rr", modes=modes, config=FAST)
    fast = run_mode_sweep(MLX_SETUP, "rr", modes=modes, config=FAST)
    assert list(slow) == list(fast)
    for mode in slow:
        assert slow[mode].to_dict() == fast[mode].to_dict()


def test_memory_roundtrip_identical_without_fastpath(scalar_build):
    """Byte-level memory semantics are the slow path's, exactly."""
    with scalar_build():
        mem = PhysicalMemory(size_bytes=1 << 20)
        mem.write(PAGE_SIZE - 4, b"spanning!")  # crosses a page: slow path
        mem.write(0x2000, b"single page")  # would be fast path when enabled
        assert mem.read(PAGE_SIZE - 4, 9) == b"spanning!"
        assert mem.read(0x2000, 11) == b"single page"
        mem.write_u64(0x3000, 0x1122334455667788)
        assert mem.read_u64(0x3000) == 0x1122334455667788


def test_fastpath_rejects_same_inputs_as_slow_path():
    """Bad inputs raise the same exceptions with the fast paths on.

    The fast-path guards deliberately fall through to ``_check_range``
    for anything unusual, so error types must match the slow path.
    """
    mem = PhysicalMemory(size_bytes=1 << 20)
    with pytest.raises(ValueError):
        mem.read(0, -1)
    with pytest.raises(ValueError):
        mem.write(mem.size_bytes - 2, b"toolong")
    with pytest.raises(ValueError):
        mem.read(-8, 4)
    with pytest.raises(TypeError):
        mem.read(1.5, 4)


def test_translation_memo_invalidated_by_detach(scalar_build):
    """Memo parity holds across attach/detach (epoch) invalidation.

    Runs the rr cell, whose driver attaches and detaches buffers
    constantly, under DEFER (deferred invalidation is the riskiest
    regime for a stale memo) with the memo on and off.
    """
    with scalar_build():
        slow = _cell(mode=Mode.DEFER, benchmark="rr")
    assert slow == _cell(mode=Mode.DEFER, benchmark="rr")


def test_memo_is_opt_in():
    """A raw DmaBus backend never memoises unless explicitly enabled.

    analysis/miss_penalty.py builds its own DmaBus and reasons about
    IOTLB hit/miss counters — the memo must not engage there.
    """
    mem = MemorySystem(size_bytes=1 << 22)
    from repro.devices.dma import DmaBus, IommuBackend
    from repro.iommu.hardware import Iommu

    iommu = Iommu(mem)
    backend = IommuBackend(iommu)
    assert backend.memo_enabled is False
    bus = DmaBus(mem, backend)
    assert backend.memo_enabled is False
    bus.enable_translation_memo()
    assert backend.memo_enabled is True
