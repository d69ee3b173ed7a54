"""Unit tests for the queued-invalidation (QI) interface."""

import contextlib

import pytest

from repro.dma import DmaDirection
from repro.faults import IoPageFault
from repro.iommu import (
    BaselineIommuDriver,
    Iommu,
    Iotlb,
    IotlbEntry,
    QueueFullError,
    QueuedInvalidation,
    make_bdf,
)
from repro.iommu.invalidation import StrictInvalidation
from repro.iova import LinuxIovaAllocator
from repro.memory import MemorySystem
from repro.modes import Mode
from tests.dma_helpers import dma_map, dma_unmap

BDF = make_bdf(0, 3, 0)


@pytest.fixture
def qi():
    mem = MemorySystem(size_bytes=1 << 24)
    iotlb = Iotlb(capacity=16)
    return QueuedInvalidation(mem, iotlb, entries=8), iotlb, mem


def cache(iotlb, bdf, vpn):
    iotlb.insert(IotlbEntry(tag=bdf, vpn=vpn, frame_addr=vpn << 12, perms=0b111))


def test_queue_validation():
    mem = MemorySystem(size_bytes=1 << 24)
    with pytest.raises(ValueError):
        QueuedInvalidation(mem, Iotlb(), entries=1)


def test_page_invalidation_through_queue(qi):
    queue, iotlb, _mem = qi
    cache(iotlb, BDF, 5)
    queue.submit_page_invalidation(BDF, 5)
    assert (BDF, 5) in iotlb  # nothing happens until the doorbell
    assert queue.ring_doorbell() == 1
    assert (BDF, 5) not in iotlb


def test_device_invalidation(qi):
    queue, iotlb, _mem = qi
    cache(iotlb, BDF, 1)
    cache(iotlb, BDF, 2)
    cache(iotlb, BDF + 1, 1)
    queue.submit_device_invalidation(BDF)
    queue.ring_doorbell()
    assert (BDF, 1) not in iotlb and (BDF, 2) not in iotlb
    assert (BDF + 1, 1) in iotlb


def test_global_invalidation(qi):
    queue, iotlb, _mem = qi
    for vpn in range(4):
        cache(iotlb, BDF, vpn)
    queue.submit_global_invalidation()
    queue.ring_doorbell()
    assert len(iotlb) == 0


def test_wait_descriptor_writes_status(qi):
    queue, _iotlb, mem = qi
    status = queue.alloc_status_addr()
    queue.submit_wait(status, 0xABC)
    assert mem.ram.read_u64(status) == 0
    queue.ring_doorbell()
    assert mem.ram.read_u64(status) == 0xABC
    assert queue.stats.waits_completed == 1


def _build(scalar_build, build):
    return scalar_build() if build == "scalar" else contextlib.nullcontext()


@pytest.mark.parametrize("build", ["scalar", "columnar"])
def test_strict_unmap_handshake(qi, scalar_build, build):
    """A strict unmap's handshake: the invalidation, then a wait
    descriptor whose status word the hardware writes, and the queue is
    drained when the unmap returns."""
    queue, iotlb, mem = qi
    allocator = LinuxIovaAllocator(limit_pfn=1 << 20)
    strict = StrictInvalidation(iotlb, allocator, qi=queue)
    rng = allocator.alloc(1)
    cache(iotlb, BDF, rng.pfn_lo)
    assert mem.ram.read_u64(strict._status_addr) == 0
    with _build(scalar_build, build):
        assert strict.on_unmap(BDF, rng) == 1
    assert (BDF, rng.pfn_lo) not in iotlb
    assert mem.ram.read_u64(strict._status_addr) == 1
    assert queue.head == queue.tail
    assert queue.stats.submitted == queue.stats.processed == 2
    assert queue.stats.waits_completed == 1
    assert allocator.live_count() == 0


@pytest.mark.parametrize("pages, entries", [(255, None), (1, 2)])
@pytest.mark.parametrize("build", ["scalar", "columnar"])
def test_strict_unmap_drains_the_queue_for_its_wait(scalar_build, build, pages, entries):
    """The page descriptors leave no slot for the wait descriptor: a
    255-page unmap on the default 256-entry queue, and every one-page
    unmap on a 2-entry queue.  The unmap drains the queue and retries,
    so it completes and frees its IOVA range."""
    mem = MemorySystem(size_bytes=1 << 26)
    iommu = Iommu(mem)
    if entries is None:
        assert iommu.qi.entries == 256
    else:
        iommu.qi = QueuedInvalidation(mem, iommu.iotlb, entries=entries)
    with _build(scalar_build, build):
        driver = BaselineIommuDriver(mem, iommu, BDF, Mode.STRICT)
        for _ in range(2):
            phys = mem.alloc_dma_buffer(pages * 4096)
            iova = dma_map(driver, phys, pages * 4096, DmaDirection.FROM_DEVICE)
            iommu.translate(BDF, iova + (pages - 1) * 4096, DmaDirection.FROM_DEVICE)
            dma_unmap(driver, iova)
            with pytest.raises(IoPageFault):
                iommu.translate(BDF, iova, DmaDirection.FROM_DEVICE)
    qi = iommu.qi
    assert driver.live_mappings() == 0
    assert driver.allocator.live_count() == 0
    assert qi.head == qi.tail
    assert qi.stats.submitted == qi.stats.processed == 2 * (pages + 1)
    assert qi.stats.waits_completed == 2
    assert mem.ram.read_u64(driver.invalidation._status_addr) == 1


def test_queue_wraps_and_fills(qi):
    queue, iotlb, _mem = qi
    # 8 entries, one kept open: 7 submissions fill it.
    for i in range(7):
        queue.submit_page_invalidation(BDF, i)
    with pytest.raises(QueueFullError):
        queue.submit_page_invalidation(BDF, 99)
    queue.ring_doorbell()
    # Space again, across the wrap point.
    for i in range(7):
        queue.submit_page_invalidation(BDF, 10 + i)
    assert queue.ring_doorbell() == 7


def test_descriptors_live_in_simulated_memory(qi):
    queue, _iotlb, mem = qi
    queue.submit_page_invalidation(BDF, 0x1234)
    raw = mem.ram.read(queue.base_addr, 16)
    assert int.from_bytes(raw[0:4], "little") == 1  # IOTLB_PAGE opcode
    assert int.from_bytes(raw[4:12], "little") == 0x1234


def test_strict_driver_uses_qi_end_to_end():
    mem = MemorySystem(size_bytes=1 << 26)
    iommu = Iommu(mem)
    driver = BaselineIommuDriver(mem, iommu, BDF, Mode.STRICT)
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver, phys, 1024, DmaDirection.FROM_DEVICE)
    iommu.translate(BDF, iova, DmaDirection.FROM_DEVICE)
    dma_unmap(driver, iova)
    # The invalidation went through the memory-resident queue ...
    assert iommu.qi.stats.processed >= 2  # inv + wait
    assert iommu.qi.stats.waits_completed >= 1
    # ... and it worked.
    with pytest.raises(IoPageFault):
        iommu.translate(BDF, iova, DmaDirection.FROM_DEVICE)


def test_deferred_driver_flush_uses_qi():
    mem = MemorySystem(size_bytes=1 << 26)
    iommu = Iommu(mem)
    driver = BaselineIommuDriver(mem, iommu, BDF, Mode.DEFER, flush_threshold=2)
    for _ in range(2):
        phys = mem.alloc_dma_buffer(4096)
        dma_unmap(driver, dma_map(driver, phys, 64, DmaDirection.FROM_DEVICE))
    assert iommu.qi.stats.waits_completed == 1  # one batched flush handshake
    assert iommu.iotlb.stats.global_invalidations == 1
