"""The baseline IOMMU hardware datapath (paper Figure 5).

Every DMA a device performs carries its requester ID (BDF) and an IOVA;
:meth:`Iommu.translate` consults the IOTLB, walks the device's radix
page table on a miss, and returns the physical address — or raises an
I/O page fault.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro import datapath as _datapath
from repro.dma import DmaDirection
from repro.faults import ContextFault, PermissionFault
from repro.iommu.context import ContextTables
from repro.iommu.iotlb import Iotlb, IotlbEntry, DEFAULT_IOTLB_CAPACITY
from repro.iommu.page_table import RadixPageTable, direction_allowed
from repro.iommu.qi import QueuedInvalidation
from repro.memory.address import PAGE_MASK, PAGE_SHIFT
from repro.memory.coherency import CoherencyDomain
from repro.memory.physical import MemorySystem
from repro.obs.tracer import TRACE


@dataclass
class TranslationStats:
    """Datapath counters: translations, walks, walk depth."""

    translations: int = 0
    walks: int = 0
    walk_levels: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.translations = 0
        self.walks = 0
        self.walk_levels = 0


class Iommu:
    """Baseline Intel-style IOMMU: context tables + radix walks + IOTLB."""

    def __init__(
        self,
        mem: MemorySystem,
        coherency: CoherencyDomain = None,
        iotlb_capacity: int = DEFAULT_IOTLB_CAPACITY,
    ) -> None:
        self.mem = mem
        self.coherency = coherency if coherency is not None else CoherencyDomain()
        self.contexts = ContextTables(mem, self.coherency)
        self.iotlb = Iotlb(iotlb_capacity)
        self.qi = QueuedInvalidation(mem, self.iotlb)
        self.stats = TranslationStats()
        self._tables_by_root: Dict[int, RadixPageTable] = {}
        self._tables_by_bdf: Dict[int, RadixPageTable] = {}
        #: bumped whenever the bdf -> page-table association changes;
        #: translation memos include it in their validity token.
        self.epoch = 0
        #: optional hook called as (bdf, vpn) on every translation — used
        #: by the DMA-trace recorder for the §5.4 prefetcher study
        self.trace_hook = None

    # -- OS side ------------------------------------------------------------

    def attach_device(self, bdf: int, page_table: RadixPageTable) -> None:
        """Associate ``bdf`` with a page table via the context tables."""
        self.epoch += 1
        self.contexts.attach(bdf, page_table.root_addr)
        self._tables_by_root[page_table.root_addr] = page_table
        self._tables_by_bdf[bdf] = page_table

    def detach_device(self, bdf: int) -> None:
        """Remove ``bdf``'s context entry and flush its domain's entries.

        If other devices still share the domain, their next accesses
        simply re-walk and re-fill the cache.
        """
        self.epoch += 1
        self.contexts.detach(bdf)
        table = self._tables_by_bdf.pop(bdf, None)
        if table is not None:
            if table not in self._tables_by_bdf.values():
                self._tables_by_root.pop(table.root_addr, None)
            self.iotlb.invalidate_device(table.domain_id)

    def page_table_of(self, bdf: int) -> RadixPageTable:
        """The page table currently attached for ``bdf``."""
        try:
            return self._tables_by_bdf[bdf]
        except KeyError:
            raise ContextFault(f"no device attached at bdf {bdf:#06x}", bdf=bdf)

    # -- hardware side ------------------------------------------------------

    def translate(self, bdf: int, iova: int, access: DmaDirection) -> int:
        """Translate ``iova`` for a DMA of direction ``access``.

        Cached translations are tagged with the *domain* ID of the
        device's page table (VT-d semantics), so devices sharing a
        domain share cached translations — and one invalidation covers
        them all.  IOTLB hit: permissions come from the cached entry —
        a stale entry therefore still grants access, which is precisely
        the deferred mode's vulnerability window.
        """
        stats = self.stats
        stats.translations += 1
        vpn = iova >> PAGE_SHIFT
        if self.trace_hook is not None:
            self.trace_hook(bdf, vpn)
        if TRACE.active:
            TRACE.emit("translate", layer="iommu", bdf=bdf, iova=iova)

        contexts = self.contexts
        coherency = self.coherency
        cached = (
            contexts._lookup_cache.get(bdf)
            if _datapath.COLUMNAR_ENABLED
            and (coherency.coherent or not coherency._dirty)
            else None
        )
        if cached is not None:
            # Fused ContextTables.lookup hit: with no dirty line to trip
            # over, its two hardware reads only count.
            coherency.stats.hardware_reads += 2
            root_addr = cached[2]
        else:
            root_addr = contexts.lookup(bdf)
        table = self._tables_by_root.get(root_addr)
        if table is None:
            raise ContextFault(
                f"context entry for bdf {bdf:#06x} points at unknown table", bdf=bdf
            )
        iotlb = self.iotlb
        key = (table.domain_id, vpn)
        if _datapath.COLUMNAR_ENABLED:
            # Iotlb.lookup inlined: LRU touch and hit/miss/stale counts.
            entry = iotlb._entries.get(key)
            if entry is None:
                iotlb.stats.misses += 1
            else:
                iotlb._entries.move_to_end(key)
                iotlb.stats.hits += 1
                if not entry.backing_valid:
                    iotlb.stats.stale_hits += 1
        else:
            entry = iotlb.lookup(table.domain_id, vpn)
        if entry is not None:
            if TRACE.active:
                TRACE.emit("iotlb_hit", layer="iommu", bdf=bdf, vpn=vpn)
                if not entry.backing_valid:
                    TRACE.emit("iotlb_stale", layer="iommu", bdf=bdf, vpn=vpn)
            if not direction_allowed(entry.perms, access):
                raise PermissionFault(
                    f"IOVA {iova:#x} does not permit {access!r}", bdf=bdf, iova=iova
                )
            return entry.frame_addr | (iova & PAGE_MASK)

        if TRACE.active:
            TRACE.emit("iotlb_miss", layer="iommu", bdf=bdf, vpn=vpn)
        result = table.walk(iova, access)
        stats.walks += 1
        stats.walk_levels += result.levels_read
        entry = IotlbEntry(
            tag=table.domain_id,
            vpn=vpn,
            frame_addr=result.frame_addr,
            perms=result.perms,
        )
        if _datapath.COLUMNAR_ENABLED:
            # Iotlb.insert inlined for a key the lookup above missed: the
            # walk leaves the IOTLB alone, so the key is still absent and
            # a new key lands at the LRU tail.
            entries = iotlb._entries
            if len(entries) >= iotlb.capacity:
                entries.popitem(last=False)
                iotlb.stats.evictions += 1
            entries[key] = entry
            iotlb.stats.insertions += 1
        else:
            iotlb.insert(entry)
        return result.frame_addr | (iova & PAGE_MASK)
