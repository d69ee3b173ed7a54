"""The columnar build's fused baseline-IOMMU bodies against the scalar oracle.

The columnar build folds the baseline IOMMU's per-page helper chains
into one frame each: the hardware page walk, the PTE store with its
coherency maintenance, the cached context-entry lookup, the strict
unmap's queued-invalidation handshake and the IOVA free that follows a
find.  Each test drives the same operations under the scalar build and
the default build and compares everything they leave behind: the
exception raised, the simulated memory, and every counter.
"""

import itertools
from dataclasses import asdict

import pytest

from repro.dma import DmaDirection
from repro.faults import IoPageFault, PermissionFault, TranslationFault
from repro.iommu import (
    BaselineIommuDriver,
    Iommu,
    QueuedInvalidation,
    make_bdf,
)
from repro.iommu import page_table
from repro.iommu.page_table import (
    PTE_ADDR_MASK,
    PTE_FLAG_MASK,
    PTE_PRESENT,
    RadixPageTable,
)
from repro.iova import IovaNotFoundError, LinuxIovaAllocator
from repro.memory import CoherencyDomain, MemorySystem, PAGE_SIZE, StaleReadError
from repro.memory.address import radix_indices
from repro.modes import Mode
from tests.dma_helpers import dma_map, dma_unmap

BDF = make_bdf(0, 3, 0)
IOVA = 0x10000


def _translate_outcome(case, coherent):
    """Translate one IOVA on a one-page table; the result or the error."""
    mem = MemorySystem(size_bytes=1 << 24)
    iommu = Iommu(mem, coherency=CoherencyDomain(coherent=coherent))
    table = RadixPageTable(mem, iommu.coherency)
    iommu.attach_device(BDF, table)
    phys = mem.alloc_dma_buffer(PAGE_SIZE)
    if case != "empty table":
        table.map_page(IOVA, phys, DmaDirection.FROM_DEVICE)
    target, access = IOVA, DmaDirection.FROM_DEVICE
    if case == "level 1":
        target = IOVA + (1 << 39)  # another root-table slot
    elif case == "leaf":
        target = IOVA + PAGE_SIZE  # same leaf table, empty entry
    elif case == "permission":
        access = DmaDirection.TO_DEVICE
    elif case == "stale context":
        iommu.translate(BDF, IOVA, access)  # caches the context lookup
        # a root-table store the driver never flushed
        iommu.coherency.cpu_write(iommu.contexts.root_table_addr, 8)
    elif case in ("corrupted leaf", "past memory"):
        # Overwrite table memory behind the driver's back: the walker
        # must see the new contents, not a remembered translation.
        indices = radix_indices(IOVA)
        if case == "corrupted leaf":
            table_addr = table.root_addr
            for index in indices[:-1]:
                table_addr = mem.ram.read_u64(table_addr + index * 8) & PTE_ADDR_MASK
            leaf_addr = table_addr + indices[-1] * 8
            flags = mem.ram.read_u64(leaf_addr) & PTE_FLAG_MASK
            mem.ram.write_u64(leaf_addr, 0x7000 | flags)
        else:
            root_entry = table.root_addr + indices[0] * 8
            mem.ram.write_u64(root_entry, (1 << 30) | PTE_PRESENT)
    try:
        outcome = iommu.translate(BDF, target, access)
    except (IoPageFault, StaleReadError, ValueError) as error:
        outcome = (type(error), str(error))
    return (
        outcome,
        asdict(iommu.coherency.stats),
        asdict(iommu.stats),
        asdict(iommu.iotlb.stats),
        iommu.coherency.dirty_lines,
    )


TRANSLATE_CASES = (
    "mapped",
    "empty table",
    "level 1",
    "leaf",
    "permission",
    "corrupted leaf",
    "past memory",
    "stale context",
)


@pytest.mark.parametrize("coherent", [False, True])
@pytest.mark.parametrize("case", TRANSLATE_CASES)
def test_translate_outcome_and_counters_match_scalar(scalar_build, case, coherent):
    with scalar_build():
        scalar = _translate_outcome(case, coherent)
    columnar = _translate_outcome(case, coherent)
    assert columnar == scalar
    if case in ("level 1", "leaf", "empty table"):
        assert scalar[0][0] is TranslationFault
    elif case == "permission":
        assert scalar[0][0] is PermissionFault
    elif case == "past memory":
        assert scalar[0][0] is ValueError
    elif case == "corrupted leaf":
        assert scalar[0] == 0x7000
    elif case == "stale context" and not coherent:
        assert scalar[0][0] is StaleReadError


def _iotlb_script(monkeypatch):
    """Translations through a 4-entry IOTLB: repeats refresh LRU
    recency, new pages evict, and a deferred unmap leaves a stale entry
    for the last translation to hit."""
    monkeypatch.setattr(page_table, "_domain_ids", itertools.count(1))
    mem = MemorySystem(size_bytes=1 << 24)
    iommu = Iommu(mem, iotlb_capacity=4)
    driver = BaselineIommuDriver(mem, iommu, BDF, Mode.DEFER)
    iovas = [
        dma_map(driver, mem.alloc_dma_buffer(PAGE_SIZE), 64, DmaDirection.FROM_DEVICE)
        for _ in range(6)
    ]
    log = [
        iommu.translate(BDF, iovas[i], DmaDirection.FROM_DEVICE)
        for i in (0, 1, 2, 3, 0, 4, 1, 5, 0, 2, 0)
    ]
    dma_unmap(driver, iovas[0])
    log.append(iommu.translate(BDF, iovas[0], DmaDirection.FROM_DEVICE))
    return (
        log,
        asdict(iommu.iotlb.stats),
        list(iommu.iotlb._entries),
        asdict(iommu.stats),
        asdict(iommu.coherency.stats),
    )


def test_iotlb_recency_evictions_and_stale_hits_match_scalar(scalar_build, monkeypatch):
    with scalar_build():
        scalar = _iotlb_script(monkeypatch)
    assert _iotlb_script(monkeypatch) == scalar
    iotlb_stats = scalar[1]
    assert iotlb_stats["evictions"] > 0 and iotlb_stats["stale_hits"] == 1


def _strict_unmaps(mode, monkeypatch):
    """Map and unmap a mix of 1-, 2- and 4-page buffers on a 4-entry QI.

    Single-page unmaps on an empty queue take the fused handshake; the
    multi-page ones shift the tail so later handshakes would wrap, and
    the 4-page ones fill the queue (``QueueFullError``, drain, retry).
    """
    # Descriptors carry the domain ID, drawn from a process-wide
    # counter: restart it so both builds' rings hold the same tag.
    monkeypatch.setattr(page_table, "_domain_ids", itertools.count(1))
    mem = MemorySystem(size_bytes=1 << 26)
    iommu = Iommu(mem)
    iommu.qi = QueuedInvalidation(mem, iommu.iotlb, entries=4)
    driver = BaselineIommuDriver(mem, iommu, BDF, mode)
    qi = iommu.qi
    doorbell_calls = []
    ring_doorbell = qi.ring_doorbell

    def counting_doorbell():
        doorbell_calls.append(qi.tail)
        return ring_doorbell()

    qi.ring_doorbell = counting_doorbell
    live = []
    for round_ in range(12):
        if round_ % 4 == 1:
            # A descriptor queued without a doorbell: the next unmap's
            # handshake queues behind it instead of taking the fused path.
            phys = mem.alloc_dma_buffer(PAGE_SIZE)
            iova = dma_map(driver, phys, 64, DmaDirection.TO_DEVICE)
            qi.submit_device_invalidation(BDF)
            dma_unmap(driver, iova)
        for pages in (1, 2, 1, 4, 1, 1):
            phys = mem.alloc_dma_buffer(pages * PAGE_SIZE)
            size = pages * PAGE_SIZE - 100
            iova = dma_map(driver, phys, size, DmaDirection.FROM_DEVICE)
            iommu.translate(BDF, iova, DmaDirection.FROM_DEVICE)  # fill the IOTLB
            live.append(iova)
        # Unmap out of order, one at a time and as a burst, so frees
        # interleave with finds and maps between them.
        dma_unmap(driver, live.pop(1))
        dma_unmap(driver, live.pop(0))
        driver.unmap_burst([live.pop(), live.pop(2)])
        if round_ % 3 == 2:
            driver.unmap_burst(live[:5])
            del live[:5]
    driver.unmap_burst(live)
    # The ring's whole frame, so a store past the ring's end shows.
    ring = mem.ram.read(qi.base_addr, PAGE_SIZE)
    allocator = driver.allocator
    tree = allocator._backend.tree if mode is Mode.STRICT_PLUS else allocator.tree
    return (
        {
            "ring": ring,
            "head": qi.head,
            "tail": qi.tail,
            "qi": asdict(qi.stats),
            "status": mem.ram.read_u64(driver.invalidation._status_addr),
            "iotlb": asdict(iommu.iotlb.stats),
            "generation": iommu.iotlb.generation,
            "iotlb_entries": len(iommu.iotlb),
            "invalidation": asdict(driver.invalidation.stats),
            "allocator": asdict(allocator.stats),
            "tree_visits": tree.visits,
            "coherency": asdict(iommu.coherency.stats),
            "mapped_pages": driver.page_table.mapped_pages,
            "cycles": driver.account.total(),
        },
        len(doorbell_calls),
    )


@pytest.mark.parametrize("mode", [Mode.STRICT, Mode.STRICT_PLUS])
def test_strict_unmaps_leave_identical_queue_and_allocator(
    scalar_build, monkeypatch, mode
):
    with scalar_build():
        scalar, scalar_doorbells = _strict_unmaps(mode, monkeypatch)
    columnar, columnar_doorbells = _strict_unmaps(mode, monkeypatch)
    assert columnar == scalar
    # Both builds rang as many doorbells; the columnar build rang most
    # of them inside the fused handshake, without a ring_doorbell call.
    assert scalar["qi"]["doorbells"] == scalar_doorbells
    assert 0 < columnar_doorbells < scalar_doorbells
    assert scalar["qi"]["waits_completed"] == scalar["allocator"]["frees"]
    if mode is Mode.STRICT:
        # frees searched the tree (or added a find's visits) every time
        assert scalar["allocator"]["free_visits"] > scalar["allocator"]["frees"]


def _two_entry_queue_unmaps(monkeypatch):
    """Strict unmaps on a 2-entry QI: each wait descriptor finds it full,
    so the unmap drains the page invalidation first and retries."""
    monkeypatch.setattr(page_table, "_domain_ids", itertools.count(1))
    mem = MemorySystem(size_bytes=1 << 24)
    iommu = Iommu(mem)
    iommu.qi = QueuedInvalidation(mem, iommu.iotlb, entries=2)
    driver = BaselineIommuDriver(mem, iommu, BDF, Mode.STRICT)
    for size in (64, 2 * PAGE_SIZE, 64):
        phys = mem.alloc_dma_buffer(size)
        iova = dma_map(driver, phys, size, DmaDirection.TO_DEVICE)
        iommu.translate(BDF, iova, DmaDirection.TO_DEVICE)
        dma_unmap(driver, iova)
    qi = iommu.qi
    return (
        mem.ram.read(qi.base_addr, qi.entries * 16),
        qi.head,
        qi.tail,
        asdict(qi.stats),
        mem.ram.read_u64(driver.invalidation._status_addr),
        asdict(iommu.iotlb.stats),
        asdict(driver.invalidation.stats),
        asdict(driver.allocator.stats),
        driver.live_mappings(),
        driver.allocator.live_count(),
    )


def test_two_entry_queue_unmaps_complete_as_scalar(scalar_build, monkeypatch):
    with scalar_build():
        scalar = _two_entry_queue_unmaps(monkeypatch)
    assert _two_entry_queue_unmaps(monkeypatch) == scalar
    _ring, head, tail, qi_stats, status, *_, live, allocated = scalar
    assert head == tail and status == 1
    assert qi_stats["waits_completed"] == 3
    assert live == allocated == 0


def _allocator_script():
    """Frees that do and do not follow their own find, and a bad free."""
    allocator = LinuxIovaAllocator(limit_pfn=1 << 20)
    ranges = [allocator.alloc(pages) for pages in (1, 2, 1, 3, 1, 1, 2, 1) * 4]
    log = []
    # find then free: the free may reuse the find's node
    allocator.free(allocator.find(ranges[5].pfn_lo))
    # find, then the tree changes (allocs, a free of another range)
    found = allocator.find(ranges[9].pfn_hi)
    allocator.alloc(2)
    allocator.free(found)
    lone = LinuxIovaAllocator(limit_pfn=1 << 20)
    first = lone.find(lone.alloc(1).pfn_lo)  # the root: one visit
    for _ in range(6):
        lone.alloc(1)
    lone.free(first)  # rebalanced since: deeper than one visit
    log.append(asdict(lone.stats))
    found = allocator.find(ranges[12].pfn_lo)
    allocator.free(ranges[13])
    allocator.free(found)
    # find one range, free another
    allocator.find(ranges[20].pfn_lo)
    allocator.free(ranges[21])
    # a second free of the range just found and freed
    found = allocator.find(ranges[25].pfn_lo)
    allocator.free(found)
    with pytest.raises(IovaNotFoundError):
        allocator.free(found)
    log.append(asdict(allocator.stats))
    log.append(allocator.tree.visits)
    log.append(list(allocator.tree))
    return log


def test_free_searches_again_once_the_tree_changed(scalar_build):
    with scalar_build():
        scalar = _allocator_script()
    assert _allocator_script() == scalar
    lone_stats = scalar[0]
    assert lone_stats["last_find_visits"] == 1 < lone_stats["last_free_visits"]
