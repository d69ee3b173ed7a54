"""The rIOMMU hardware logic (paper Figure 10).

``rtranslate`` is the entry point for every DMA: it locates the single
rIOTLB entry of the target ring (there is at most one per rRING by
design), re-synchronises it when the DMA moved to a new ring entry
(ideally from the prefetched ``next`` rPTE), validates direction and
offset, and produces the physical address.

Because each ring owns exactly one rIOTLB entry, every new translation
*implicitly* invalidates the previous one — which is why the software
driver only needs an explicit invalidation at the end of a burst.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.core.structures import (
    _DIR_BY_BITS,
    _RPTE_STRUCT as _U64_PAIR,
    MAX_OFFSET,
    MAX_RENTRY,
    MAX_RID,
    MAX_RPTE_SIZE,
    OFFSET_BITS,
    RENTRY_BITS,
    RPTE_BYTES,
    RRING_ENTRY_BYTES,
    RDevice,
    RIotlbEntry,
    RIova,
    RPte,
)
from repro.dma import DmaDirection
from repro.faults import BoundsFault, ContextFault, PermissionFault, TranslationFault
from repro.memory.address import PAGE_MASK, PAGE_SHIFT, PAGE_SIZE
from repro.obs.tracer import TRACE


@dataclass
class RIotlbStats:
    """rIOTLB behaviour counters."""

    translations: int = 0
    #: rIOTLB lookups that found the ring's entry
    hits: int = 0
    #: lookups that found no entry for the ring (cold / post-invalidation)
    misses: int = 0
    #: entry syncs satisfied by the prefetched ``next`` rPTE
    prefetch_hits: int = 0
    #: entry syncs that had to walk the flat table
    sync_walks: int = 0
    #: full table walks (miss path)
    walks: int = 0
    invalidations: int = 0
    #: translations served by an entry whose backing rPTE was torn down
    stale_hits: int = 0

    def reset(self) -> None:
        """Zero all counters."""
        self.translations = 0
        self.hits = 0
        self.misses = 0
        self.prefetch_hits = 0
        self.sync_walks = 0
        self.walks = 0
        self.invalidations = 0
        self.stale_hits = 0


class RIotlb:
    """The rIOTLB: at most one entry per (bdf, rid)."""

    def __init__(self) -> None:
        self._entries: Dict[Tuple[int, int], RIotlbEntry] = {}
        self.stats = RIotlbStats()

    def find(self, bdf: int, rid: int) -> Optional[RIotlbEntry]:
        """``riotlb_find`` — the ring's single entry, or None."""
        return self._entries.get((bdf, rid))

    def insert(self, entry: RIotlbEntry) -> None:
        """``riotlb_insert`` — replaces any previous entry for the ring."""
        self._entries[(entry.bdf, entry.rid)] = entry

    def invalidate(self, bdf: int, rid: int) -> bool:
        """``riotlb_invalidate`` — drop the ring's entry; True if present."""
        self.stats.invalidations += 1
        if TRACE.active:
            TRACE.emit("invalidate", kind="ring", bdf=bdf, rid=rid)
        return self._entries.pop((bdf, rid), None) is not None

    def mark_backing_invalid(self, bdf: int, rid: int, rentry: int) -> None:
        """Note that a cached entry's backing rPTE was torn down.

        Called by the OS driver when it clears an rPTE's valid bit: if
        the ring's single entry currently caches exactly that
        ``rentry``, any translation it serves before invalidation or
        implicit replacement is a *stale* serve (counted by
        ``stats.stale_hits`` and emitted as ``iotlb_stale``).
        """
        entry = self._entries.get((bdf, rid))
        if entry is not None and entry.rentry == rentry:
            entry.backing_valid = False

    def invalidate_device(self, bdf: int) -> int:
        """Drop all entries of one device (device teardown)."""
        keys = [k for k in self._entries if k[0] == bdf]
        for key in keys:
            del self._entries[key]
        return len(keys)

    def __len__(self) -> int:
        return len(self._entries)

    def entries_for_ring(self, bdf: int, rid: int) -> int:
        """0 or 1 — the invariant the design rests on."""
        return 1 if (bdf, rid) in self._entries else 0


class RIommuHardware:
    """The rIOMMU datapath: Figure 10's four routines.

    When constructed with a memory system and coherency domain, the
    requester-ID lookup goes through real memory-backed root/context
    tables (the paper's Figure 2, with the context entry pointing at the
    rDEVICE array instead of a radix root); stand-alone construction
    falls back to a plain registry, which is convenient for unit tests.
    """

    def __init__(self, mem=None, coherency=None, prefetch_enabled: bool = True) -> None:
        self.riotlb = RIotlb()
        self._devices: Dict[int, RDevice] = {}
        self._devices_by_table: Dict[int, RDevice] = {}
        #: the paper notes the design "works just as well without"
        #: prefetching (§4); disabling it is an ablation knob.
        self.prefetch_enabled = prefetch_enabled
        self.contexts = None
        if mem is not None and coherency is not None:
            from repro.iommu.context import ContextTables

            self.contexts = ContextTables(mem, coherency)

    # -- OS side -------------------------------------------------------------

    def attach_device(self, device: RDevice) -> None:
        """Register a device's rDEVICE structure via the context tables."""
        self._devices[device.bdf] = device
        self._devices_by_table[device.table_addr] = device
        if self.contexts is not None:
            self.contexts.attach(device.bdf, device.table_addr)

    def detach_device(self, bdf: int) -> None:
        """Remove a device and flush its rIOTLB entries."""
        device = self._devices.pop(bdf, None)
        if device is not None:
            self._devices_by_table.pop(device.table_addr, None)
        if self.contexts is not None and device is not None:
            self.contexts.detach(bdf)
        self.riotlb.invalidate_device(bdf)

    def get_domain(self, bdf: int) -> RDevice:
        """``get_domain`` — the rDEVICE for a requester ID.

        With context tables present this is a hardware lookup: two
        memory reads resolving bus then devfn, exactly like the baseline
        IOMMU's Figure 2 path.
        """
        if self.contexts is not None:
            table_addr = self.contexts.lookup(bdf)  # raises ContextFault
            device = self._devices_by_table.get(table_addr)
            if device is None:
                raise ContextFault(
                    f"context entry for bdf {bdf:#06x} points at unknown rDEVICE",
                    bdf=bdf,
                )
            return device
        device = self._devices.get(bdf)
        if device is None:
            raise ContextFault(f"no rDEVICE for bdf {bdf:#06x}", bdf=bdf)
        return device

    # -- hardware memory reads --------------------------------------------------

    @staticmethod
    def _hardware_read_rpte(device: RDevice, table_addr: int, rentry: int) -> RPte:
        """Walker load of one rPTE from the flat table in memory."""
        addr = table_addr + rentry * RPTE_BYTES
        device.coherency.hardware_read(addr, RPTE_BYTES)
        return RPte.decode(device.mem.ram.read(addr, RPTE_BYTES))

    # -- hardware routines (Figure 10) --------------------------------------

    def rtranslate(self, bdf: int, iova: RIova, direction: DmaDirection) -> int:
        """Translate a rIOVA to a physical address, or raise an IOPF."""
        riotlb = self.riotlb
        stats = riotlb.stats
        stats.translations += 1
        if TRACE.active:
            TRACE.emit(
                "translate", layer="riommu", bdf=bdf, rid=iova.rid, rentry=iova.rentry
            )
        entry = riotlb.find(bdf, iova.rid)
        if entry is None:
            stats.misses += 1
            if TRACE.active:
                TRACE.emit("iotlb_miss", layer="riommu", bdf=bdf, rid=iova.rid)
            entry = self.rtable_walk(bdf, iova)
            riotlb.insert(entry)
        else:
            stats.hits += 1
            if TRACE.active:
                TRACE.emit("iotlb_hit", layer="riommu", bdf=bdf, rid=iova.rid)
            if entry.rentry != iova.rentry:
                entry = self.riotlb_entry_sync(bdf, iova, entry)
                riotlb.insert(entry)
            elif not entry.backing_valid:
                # The entry still answers for an rPTE the OS already
                # tore down — a DMA is being served through a stale
                # translation (the §3.2 vulnerability made concrete).
                stats.stale_hits += 1
                if TRACE.active:
                    TRACE.emit(
                        "iotlb_stale",
                        layer="riommu",
                        bdf=bdf,
                        rid=iova.rid,
                        rentry=iova.rentry,
                    )
        rpte = entry.rpte
        offset = iova.offset
        if offset >= rpte.size or not rpte.direction.permits(direction):
            self._io_page_fault(bdf, iova, entry, direction)
        return rpte.phys_addr + offset

    def rtranslate_span(
        self, bdf: int, packed: int, size: int, direction: DmaDirection
    ) -> int:
        """Translate a packed rIOVA and bounds-check ``size`` bytes.

        Bit-identical to :meth:`rtranslate` on the start offset followed
        (for ``size > 1``) by a second call on the last byte's offset.
        Two cases are folded into one frame with both calls' counter
        updates applied at once, with the tracer off:

        * the ring's entry is current and the access is in bounds;
        * the sequential advance (paper §4): the access is to the ring
          entry after the cached one, whose rPTE was prefetched into
          ``entry.next``.  The scalar pair would look the context up
          (two reads), read the rRING descriptor to sync, promote
          ``next``, read the descriptor again to prefetch and read the
          following rPTE; this counts the same five hardware reads and
          reads that rPTE from memory into the new ``next``.

        Anything else — cold entry, table-walk sync, disabled prefetch,
        a dirty line pending on a non-coherent domain, a lookup not yet
        in the context cache, a one-entry ring, any fault — re-runs the
        exact scalar pair.
        """
        rid = (packed >> (OFFSET_BITS + RENTRY_BITS)) & MAX_RID
        rentry = (packed >> OFFSET_BITS) & MAX_RENTRY
        offset = packed & MAX_OFFSET
        entry = self.riotlb._entries.get((bdf, rid))
        if entry is not None and not TRACE.active:
            n = 2 if size > 1 else 1
            end = offset + size - 1 if size > 1 else offset
            wanted = int(direction)
            if entry.rentry == rentry:
                rpte = entry.rpte
                granted = int(rpte.direction)
                if (
                    end < rpte.size
                    and granted & wanted
                    and not wanted & (3 ^ granted)
                ):
                    stats = self.riotlb.stats
                    stats.translations += n
                    stats.hits += n
                    if not entry.backing_valid:
                        stats.stale_hits += n
                    return rpte.phys_addr + offset
            elif self.prefetch_enabled:
                phys = self._advance(entry, bdf, rentry, offset, end, wanted, n)
                if phys is not None:
                    return phys
        iova = RIova(offset=offset, rentry=rentry, rid=rid)
        phys = self.rtranslate(bdf, iova, direction)
        if size > 1:
            self.rtranslate(bdf, iova.with_offset(offset + size - 1), direction)
        return phys

    def _advance(
        self,
        entry: RIotlbEntry,
        bdf: int,
        rentry: int,
        offset: int,
        end: int,
        wanted: int,
        n: int,
    ) -> Optional[int]:
        """The sequential advance of :meth:`rtranslate_span`, or None.

        Returns None, having changed nothing, whenever the scalar pair
        could do anything but promote ``entry.next``: its caller then
        runs that pair.
        """
        nxt = entry.next
        contexts = self.contexts
        if nxt is None or not nxt.valid or contexts is None:
            return None
        cached = contexts._lookup_cache.get(bdf)
        ctx_coherency = contexts.coherency
        if cached is None or (not ctx_coherency.coherent and ctx_coherency._dirty):
            return None
        device = self._devices_by_table.get(cached[2])
        if device is None:
            return None
        coherency = device.coherency
        if not coherency.coherent and coherency._dirty:
            return None
        granted = int(nxt.direction)
        if end >= nxt.size or not granted & wanted or wanted & (3 ^ granted):
            return None
        # The rRING descriptor and the rPTE after ``rentry``, read from
        # the frame store as hardware_read + ram.read would return them.
        ram = device.mem.ram
        frames = ram._frames
        desc_addr = device.table_addr + entry.rid * RRING_ENTRY_BYTES
        page = frames.get(desc_addr >> PAGE_SHIFT)
        if page is None:
            return None
        table_addr, ring_size = _U64_PAIR.unpack_from(page, desc_addr & PAGE_MASK)
        if ring_size <= 1 or (entry.rentry + 1) % ring_size != rentry:
            return None
        pte_addr = table_addr + ((rentry + 1) % ring_size) * RPTE_BYTES
        if (pte_addr & PAGE_MASK) > PAGE_SIZE - RPTE_BYTES:
            return None
        page = frames.get(pte_addr >> PAGE_SHIFT)
        if page is not None:
            word0, word1 = _U64_PAIR.unpack_from(page, pte_addr & PAGE_MASK)
        elif pte_addr + RPTE_BYTES <= ram.size_bytes:
            word0 = word1 = 0  # an untouched frame reads as zero
        else:
            return None  # past the end of memory: the scalar read raises
        stats = self.riotlb.stats
        stats.translations += n
        stats.hits += n
        stats.prefetch_hits += 1
        ctx_coherency.stats.hardware_reads += 2
        coherency.stats.hardware_reads += 3
        entry.rpte = nxt
        entry.rentry = rentry
        entry.backing_valid = True
        entry.next = (
            RPte(word0, word1 & MAX_RPTE_SIZE, _DIR_BY_BITS[(word1 >> 30) & 3], True)
            if (word1 >> 32) & 1
            else None
        )
        return nxt.phys_addr + offset

    def rtable_walk(self, bdf: int, iova: RIova) -> RIotlbEntry:
        """Validate the rIOVA against the structures and fetch its rPTE.

        Every read — the rRING descriptor in the rDEVICE array and the
        rPTE in the flat table — is a hardware memory access through the
        coherency domain.
        """
        device = self.get_domain(bdf)
        if iova.rid >= device.size:
            raise TranslationFault(
                f"rid {iova.rid} out of range for bdf {bdf:#06x}",
                bdf=bdf,
                iova=iova.packed(),
            )
        table_addr, ring_size = device.hardware_ring_descriptor(iova.rid)
        if iova.rentry >= ring_size:
            raise TranslationFault(
                f"rentry {iova.rentry} out of range for ring {iova.rid}",
                bdf=bdf,
                iova=iova.packed(),
            )
        rpte = self._hardware_read_rpte(device, table_addr, iova.rentry)
        if not rpte.valid:
            raise TranslationFault(
                f"rPTE {iova.rid}/{iova.rentry} is invalid",
                bdf=bdf,
                iova=iova.packed(),
            )
        self.riotlb.stats.walks += 1
        entry = RIotlbEntry(
            bdf=bdf, rid=iova.rid, rentry=iova.rentry, rpte=rpte.copy()
        )
        self.rprefetch(device, entry)
        return entry

    def riotlb_entry_sync(
        self, bdf: int, iova: RIova, entry: RIotlbEntry
    ) -> RIotlbEntry:
        """Advance the ring's entry to the rIOVA's rPTE.

        In the common sequential case the prefetched ``next`` rPTE is
        exactly what is needed; otherwise fall back to a table walk
        (this is the only cost of out-of-order access — paper §4).
        """
        device = self.get_domain(bdf)
        _table_addr, ring_size = device.hardware_ring_descriptor(entry.rid)
        next_rentry = (entry.rentry + 1) % ring_size
        if entry.next is not None and entry.next.valid and iova.rentry == next_rentry:
            self.riotlb.stats.prefetch_hits += 1
            entry.rpte = entry.next
            entry.rentry = next_rentry
            entry.next = None
            entry.backing_valid = True
        else:
            self.riotlb.stats.sync_walks += 1
            entry = self.rtable_walk(bdf, iova)
        self.rprefetch(device, entry)
        return entry

    def rprefetch(self, device: RDevice, entry: RIotlbEntry) -> None:
        """Opportunistically copy the subsequent rPTE into ``entry.next``.

        The paper notes prefetch can be asynchronous and that the design
        works without it; it only matters in sub-microsecond user-level
        I/O setups (§5.3).
        """
        if not self.prefetch_enabled:
            return
        table_addr, ring_size = device.hardware_ring_descriptor(entry.rid)
        if ring_size <= 1:
            return
        next_rentry = (entry.rentry + 1) % ring_size
        rpte = self._hardware_read_rpte(device, table_addr, next_rentry)
        if rpte.valid:
            entry.next = rpte.copy()

    # -- fault helper -----------------------------------------------------------

    @staticmethod
    def _io_page_fault(
        bdf: int, iova: RIova, entry: RIotlbEntry, direction: DmaDirection
    ) -> None:
        if iova.offset >= entry.rpte.size:
            raise BoundsFault(
                f"offset {iova.offset} >= mapped size {entry.rpte.size} "
                f"(ring {iova.rid} entry {iova.rentry})",
                bdf=bdf,
                iova=iova.packed(),
            )
        raise PermissionFault(
            f"direction {direction!r} not permitted by rPTE "
            f"({entry.rpte.direction!r}) at ring {iova.rid} entry {iova.rentry}",
            bdf=bdf,
            iova=iova.packed(),
        )
