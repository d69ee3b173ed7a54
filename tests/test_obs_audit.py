"""Protection auditor: the §3.2 vulnerability-window trade-off, audited.

Mode-level acceptance: the deferred modes expose DMAs to open
teardown windows (``stale_window_dmas > 0``), while strict and rIOMMU
report exactly zero stale bytes; plus unit tests driving the auditor
with synthetic event streams, and an end-to-end stale *serve* through
a real rIOTLB entry.
"""

import pytest

from repro.config import RunConfig
from repro.dma import DmaDirection, MapRequest, UnmapRequest
from repro.modes import ALL_MODES, Mode
from repro.obs.audit import ProtectionAuditor
from repro.obs.tracer import TRACE
from repro.sim.runner import run_benchmark
from repro.sim.setups import MLX_SETUP


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    TRACE.reset()
    yield
    TRACE.reset()


# -- mode-level acceptance ----------------------------------------------


def _audit(mode, benchmark="stream"):
    config = RunConfig(fast=True, observe=True)
    return run_benchmark(MLX_SETUP, mode, benchmark, config=config).obs["audit"]


@pytest.mark.parametrize("mode", [Mode.DEFER, Mode.DEFER_PLUS])
def test_deferred_modes_expose_dmas_to_open_windows(mode):
    audit = _audit(mode)
    assert audit["windows_opened"] > 0
    assert audit["stale_window_dmas"] > 0
    assert audit["stale_window_bytes"] > 0
    assert audit["worst_window_cycles"] > 0
    assert audit["exposed"] is True
    # Exposure is not a breach: nothing was actually served stale.
    assert audit["protected"] is True


@pytest.mark.parametrize(
    "mode", [Mode.STRICT, Mode.STRICT_PLUS, Mode.RIOMMU, Mode.RIOMMU_NC]
)
@pytest.mark.parametrize("bench", ["stream", "rr"])
def test_protecting_modes_report_exactly_zero_stale_bytes(mode, bench):
    audit = _audit(mode, bench)
    assert audit["stale_bytes"] == 0
    assert audit["stale_dmas"] == 0
    assert audit["stale_window_dmas"] == 0
    assert audit["protected"] is True
    assert audit["mode_expected_safe"] is mode.safe


@pytest.mark.parametrize("bench", ["stream", "rr"])
def test_strict_modes_never_open_a_window(bench):
    for mode in (Mode.STRICT, Mode.STRICT_PLUS):
        audit = _audit(mode, bench)
        assert audit["windows_opened"] == 0
        assert audit["worst_window_cycles"] == 0


def test_every_mode_reports_a_verdict():
    for mode in ALL_MODES:
        audit = _audit(mode, "rr")
        assert audit["protected"] in (True, False)
        assert audit["mode"] == mode.label


# -- synthetic event streams --------------------------------------------


def test_page_window_opens_on_deferred_unmap_and_closes_on_global_flush():
    auditor = ProtectionAuditor()
    auditor(0.0, "unmap", {"layer": "iommu", "bdf": 1, "device_addr": 0x2000,
                           "pages": 2, "domain": 7, "deferred": True})
    auditor(50.0, "dma_read", {"bdf": 1, "addr": 0x2000, "size": 64})
    auditor(90.0, "invalidate", {"kind": "global"})
    auditor.finalize(100.0)
    report = auditor.report()
    assert report["windows_opened"] == 2          # one per page
    assert report["windows_closed"] == 2
    assert report["open_at_end"] == 0
    assert report["stale_window_dmas"] == 1
    assert report["stale_window_bytes"] == 64
    assert report["worst_window_cycles"] == 90.0
    assert report["stale_bytes"] == 0             # never actually served


def test_strict_unmap_opens_no_window():
    auditor = ProtectionAuditor()
    auditor(0.0, "unmap", {"layer": "iommu", "bdf": 1, "device_addr": 0x2000,
                           "pages": 1, "domain": 7, "deferred": False})
    auditor(10.0, "dma_read", {"bdf": 1, "addr": 0x2000, "size": 64})
    auditor.finalize(20.0)
    assert auditor.windows_opened == 0
    assert auditor.stale_window_dmas == 0


def test_page_selective_invalidation_closes_only_its_window():
    auditor = ProtectionAuditor()
    for vpn in (2, 3):
        auditor(0.0, "unmap", {"layer": "iommu", "bdf": 1,
                               "device_addr": vpn << 12, "pages": 1,
                               "domain": 7, "deferred": True})
    auditor(40.0, "invalidate", {"kind": "page", "tag": 7, "vpn": 2})
    auditor.finalize(100.0)
    assert auditor.windows_closed == 1
    assert auditor.open_at_end == 1               # vpn 3 stayed open
    assert auditor.worst_window_cycles == 100.0


def test_dma_served_through_stale_entry_counts_once():
    auditor = ProtectionAuditor()
    auditor(0.0, "unmap", {"layer": "iommu", "bdf": 1, "device_addr": 0x1000,
                           "pages": 4, "domain": 7, "deferred": True})
    auditor(10.0, "dma_write", {"bdf": 1, "addr": 0x1000, "size": 4096})
    # A multi-page DMA may report several stale pages — one DMA though.
    auditor(10.0, "iotlb_stale", {"bdf": 1})
    auditor(10.0, "iotlb_stale", {"bdf": 1})
    auditor.finalize(20.0)
    assert auditor.stale_dmas == 1
    assert auditor.stale_bytes == 4096
    assert auditor.protected is False


def test_ring_window_needs_the_entry_cached():
    auditor = ProtectionAuditor()
    # Unmap of an rentry the rIOTLB does not cache: no reachability.
    auditor(0.0, "unmap", {"layer": "riommu", "bdf": 1, "rid": 0,
                           "rentry": 5, "end_of_burst": False})
    assert auditor.windows_opened == 0
    # Cached, then torn down: the window opens...
    auditor(5.0, "translate", {"layer": "riommu", "bdf": 1, "rid": 0, "rentry": 6})
    auditor(10.0, "unmap", {"layer": "riommu", "bdf": 1, "rid": 0,
                            "rentry": 6, "end_of_burst": False})
    assert auditor.windows_opened == 1
    # ... and the next translation to a different rentry (the design's
    # implicit invalidation) closes it.
    auditor(30.0, "translate", {"layer": "riommu", "bdf": 1, "rid": 0, "rentry": 7})
    assert auditor.windows_closed == 1
    assert auditor.worst_window_cycles == 20.0


def test_ring_window_closed_by_explicit_ring_invalidation():
    auditor = ProtectionAuditor()
    auditor(0.0, "translate", {"layer": "riommu", "bdf": 1, "rid": 0, "rentry": 2})
    auditor(4.0, "unmap", {"layer": "riommu", "bdf": 1, "rid": 0,
                           "rentry": 2, "end_of_burst": False})
    auditor(9.0, "invalidate", {"kind": "ring", "bdf": 1, "rid": 0})
    assert auditor.windows_closed == 1
    assert auditor.worst_window_cycles == 5.0


# -- end-to-end stale serve through a real rIOTLB ------------------------


def test_riotlb_stale_serve_detected_end_to_end():
    """Tear down an rPTE while cached, translate again: a stale serve.

    This is the paper's §3.2 exposure made concrete in the rIOMMU
    model: the rIOTLB still answers for an rPTE the OS already
    invalidated in memory, the hardware counts a ``stale_hit`` and the
    auditor (fed by the ``iotlb_stale`` event) flags the breach.
    """
    from repro.core.driver import RIommuDriver
    from repro.core.riotlb import RIommuHardware
    from repro.core.structures import RIova
    from repro.memory.physical import MemorySystem

    mem = MemorySystem()
    hardware = RIommuHardware()
    driver = RIommuDriver(mem, hardware, bdf=0x100)
    rid = driver.create_ring(8)

    auditor = ProtectionAuditor()
    TRACE.subscribe(auditor)

    result = driver.map_request(
        MapRequest(phys_addr=0x4000, size=64, direction=DmaDirection.FROM_DEVICE,
                   ring=rid)
    )
    iova = RIova(offset=0, rentry=0, rid=rid)
    # Prime the rIOTLB with the entry, then tear the rPTE down without
    # the end-of-burst invalidation.
    auditor(TRACE.now, "dma_write", {"bdf": 0x100, "addr": 0, "size": 64})
    hardware.rtranslate(0x100, iova, DmaDirection.FROM_DEVICE)
    driver.unmap_request(UnmapRequest(device_addr=result.device_addr))

    # The stale entry still translates — and is counted doing so.
    auditor(TRACE.now, "dma_write", {"bdf": 0x100, "addr": 0, "size": 64})
    phys = hardware.rtranslate(0x100, iova, DmaDirection.FROM_DEVICE)
    assert phys == 0x4000
    assert hardware.riotlb.stats.stale_hits == 1
    assert auditor.stale_dmas == 1
    assert auditor.stale_bytes == 64
    assert auditor.protected is False

    # An explicit ring invalidation ends the exposure: the next access
    # misses and faults on the invalid rPTE instead of being served.
    hardware.riotlb.invalidate(0x100, rid)
    from repro.faults import TranslationFault

    with pytest.raises(TranslationFault):
        hardware.rtranslate(0x100, iova, DmaDirection.FROM_DEVICE)
