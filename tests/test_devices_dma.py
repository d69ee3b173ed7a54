"""Unit tests for DMA direction flags, descriptors and the DMA bus."""

import pytest

from repro.core import RIommuDriver, RIommuHardware
from repro.devices import (
    Descriptor,
    DmaBus,
    FLAG_DONE,
    FLAG_VALID,
    IdentityBackend,
    IommuBackend,
    RIommuBackend,
)
from repro.dma import DmaDirection
from repro.faults import BoundsFault, IoPageFault
from repro.iommu import BaselineIommuDriver, Iommu, make_bdf
from repro.memory import MemorySystem
from repro.modes import Mode
from tests.dma_helpers import dma_map, dma_unmap, ring_map

BDF = make_bdf(0, 4, 0)


# -- DmaDirection --------------------------------------------------------


def test_direction_reads_writes():
    assert DmaDirection.TO_DEVICE.device_reads
    assert not DmaDirection.TO_DEVICE.device_writes
    assert DmaDirection.FROM_DEVICE.device_writes
    assert DmaDirection.BIDIRECTIONAL.device_reads
    assert DmaDirection.BIDIRECTIONAL.device_writes


def test_direction_permits():
    assert DmaDirection.BIDIRECTIONAL.permits(DmaDirection.TO_DEVICE)
    assert DmaDirection.BIDIRECTIONAL.permits(DmaDirection.FROM_DEVICE)
    assert not DmaDirection.TO_DEVICE.permits(DmaDirection.FROM_DEVICE)
    assert not DmaDirection.TO_DEVICE.permits(DmaDirection.BIDIRECTIONAL)
    assert DmaDirection.TO_DEVICE.permits(DmaDirection.TO_DEVICE)


def test_direction_permits_keeps_the_intflag_truth_table():
    # permits() computes in ints; the reference is the IntFlag
    # expression, whose ``~`` complements within the two direction bits.
    grants = [
        DmaDirection(0),
        DmaDirection.TO_DEVICE,
        DmaDirection.FROM_DEVICE,
        DmaDirection.BIDIRECTIONAL,
    ]
    for granted in grants:
        for access in [*range(8), *grants]:
            expected = bool(granted & access) and (access & ~granted) == 0
            assert granted.permits(access) is expected, (granted, access)


# -- Descriptor encoding ----------------------------------------------------


def test_descriptor_roundtrip_two_segments():
    desc = Descriptor(segments=[(0x1000, 128), (0x2000, 1372)], flags=FLAG_VALID)
    again = Descriptor.decode(desc.encode())
    assert again.segments == desc.segments
    assert again.valid and not again.done


def test_descriptor_roundtrip_one_segment():
    desc = Descriptor(segments=[(0xABCDEF, 64)], flags=FLAG_VALID | FLAG_DONE)
    again = Descriptor.decode(desc.encode())
    assert again.segments == [(0xABCDEF, 64)]
    assert again.done


def test_descriptor_total_length():
    assert Descriptor(segments=[(0, 10), (0, 20)]).total_length == 30


def test_descriptor_rejects_three_segments():
    with pytest.raises(ValueError):
        Descriptor(segments=[(0, 1), (0, 1), (0, 1)])


def test_descriptor_rejects_zero_length_segment():
    with pytest.raises(ValueError):
        Descriptor(segments=[(0, 0)])


def test_descriptor_decode_rejects_wrong_size():
    with pytest.raises(ValueError):
        Descriptor.decode(b"\x00" * 16)


# -- DmaBus with the three backends --------------------------------------------


def test_identity_backend_passthrough():
    mem = MemorySystem(size_bytes=1 << 24)
    bus = DmaBus(mem, IdentityBackend())
    addr = mem.alloc_dma_buffer(4096)
    bus.dma_write(BDF, addr, b"device wrote this")
    assert mem.ram.read(addr, 17) == b"device wrote this"
    assert bus.dma_read(BDF, addr, 6) == b"device"
    assert bus.stats.writes == 1 and bus.stats.reads == 1


def test_iommu_backend_translates_and_protects():
    mem = MemorySystem(size_bytes=1 << 26)
    iommu = Iommu(mem)
    driver = BaselineIommuDriver(mem, iommu, BDF, Mode.STRICT)
    bus = DmaBus(mem, IommuBackend(iommu))
    phys = mem.alloc_dma_buffer(4096)
    iova = dma_map(driver, phys, 4096, DmaDirection.BIDIRECTIONAL)
    bus.dma_write(BDF, iova, b"through the iommu")
    assert mem.ram.read(phys, 17) == b"through the iommu"
    dma_unmap(driver, iova)
    with pytest.raises(IoPageFault):
        bus.dma_read(BDF, iova, 4)


def test_iommu_backend_splits_page_crossing_access():
    mem = MemorySystem(size_bytes=1 << 26)
    iommu = Iommu(mem)
    driver = BaselineIommuDriver(mem, iommu, BDF, Mode.STRICT)
    bus = DmaBus(mem, IommuBackend(iommu))
    phys = mem.alloc_dma_buffer(2 * 4096)
    iova = dma_map(driver, phys, 2 * 4096, DmaDirection.BIDIRECTIONAL)
    data = bytes(range(200)) * 41  # 8200 > one page
    bus.dma_write(BDF, iova, data[:8192])
    assert mem.ram.read(phys, 8192) == data[:8192]


def test_riommu_backend_full_access_bounds_checked():
    mem = MemorySystem(size_bytes=1 << 24)
    hw = RIommuHardware()
    driver = RIommuDriver(mem, hw, BDF, Mode.RIOMMU)
    rid = driver.create_ring(8)
    bus = DmaBus(mem, RIommuBackend(hw))
    phys = mem.alloc_dma_buffer(4096)
    iova = ring_map(driver, rid, phys, 128, DmaDirection.BIDIRECTIONAL)
    bus.dma_write(BDF, iova.packed(), b"x" * 128)  # exactly fits
    with pytest.raises(BoundsFault):
        bus.dma_write(BDF, iova.packed(), b"x" * 129)  # one byte too many


def test_bus_rejects_empty_operations():
    mem = MemorySystem(size_bytes=1 << 24)
    bus = DmaBus(mem, IdentityBackend())
    with pytest.raises(ValueError):
        bus.dma_read(BDF, 0, 0)
    with pytest.raises(ValueError):
        bus.dma_write(BDF, 0, b"")


def test_bus_stats_accumulate():
    mem = MemorySystem(size_bytes=1 << 24)
    bus = DmaBus(mem, IdentityBackend())
    addr = mem.alloc_dma_buffer(4096)
    for _ in range(3):
        bus.dma_write(BDF, addr, b"abcd")
    assert bus.stats.bytes_written == 12
    bus.stats.reset()
    assert bus.stats.writes == 0
