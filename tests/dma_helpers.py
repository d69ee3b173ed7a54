"""Request-protocol shorthands for tests that map and unmap by hand.

Every mapping layer — the kernel DMA API, the baseline IOMMU driver and
the rIOMMU driver — speaks ``map_request``/``unmap_request``; these
helpers spell one request per call so hand-driven tests stay short.
"""

from repro.core.structures import RIova, unpack_iova
from repro.dma import DmaDirection, MapRequest, UnmapRequest


def dma_map(mapper, phys: int, size: int, direction: DmaDirection, ring=None) -> int:
    """Map ``[phys, phys + size)``; returns the device address."""
    request = MapRequest(phys_addr=phys, size=size, direction=direction, ring=ring)
    return mapper.map_request(request).device_addr


def dma_unmap(mapper, device_addr: int, end_of_burst: bool = False) -> int:
    """Unmap ``device_addr``; returns the buffer's physical address."""
    request = UnmapRequest(device_addr=device_addr, end_of_burst=end_of_burst)
    return mapper.unmap_request(request).phys_addr


def ring_map(driver, rid: int, phys: int, size: int, direction: DmaDirection) -> RIova:
    """Map into rIOMMU ring ``rid``; returns the unpacked rIOVA."""
    return unpack_iova(dma_map(driver, phys, size, direction, ring=rid))


def ring_unmap(driver, iova: RIova, end_of_burst: bool = False) -> int:
    """Unmap an rIOVA (any offset); returns the buffer's physical address."""
    return dma_unmap(driver, iova.packed(), end_of_burst)
