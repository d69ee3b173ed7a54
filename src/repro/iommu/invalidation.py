"""IOTLB invalidation policies: strict (immediate) vs deferred (batched).

Strict protection invalidates each IOTLB entry as part of the unmap, at
~2,100 cycles per invalidation.  Deferred protection queues the freed
IOVAs and, once 250 accumulate, flushes the *entire* IOTLB and only then
returns the IOVAs to the allocator (paper §3.2).  Deferral buys speed
at the price of a vulnerability window: until the flush, the device can
still reach the unmapped buffers through stale IOTLB entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro import datapath as _datapath
from repro.iommu.iotlb import Iotlb
from repro.iommu.qi import (
    _DESC_PAIR,
    _OP_PAGE,
    _OP_WAIT,
    QI_DESCRIPTOR_BYTES,
    QueueFullError,
)
from repro.iova.base import IovaAllocator, IovaRange
from repro.obs.tracer import TRACE

#: Linux's deferred-mode batch size (paper §3.2).
DEFAULT_FLUSH_THRESHOLD = 250


@dataclass
class InvalidationStats:
    """How many invalidation operations each policy performed."""

    single: int = 0
    global_flushes: int = 0
    queued: int = 0


class StrictInvalidation:
    """Invalidate each entry immediately; free the IOVA right away.

    When a :class:`~repro.iommu.qi.QueuedInvalidation` interface is
    supplied, invalidations go through the real memory-resident queue
    with a wait-descriptor handshake — the mechanism whose round trip
    costs the ~2,100 cycles of Table 1.
    """

    def __init__(self, iotlb: Iotlb, allocator: IovaAllocator, qi=None) -> None:
        self.iotlb = iotlb
        self.allocator = allocator
        self.qi = qi
        self._status_addr = qi.alloc_status_addr() if qi is not None else 0
        self.stats = InvalidationStats()

    def on_unmap(self, tag: int, rng: IovaRange) -> int:
        """Invalidate the range's pages (by domain tag) and free the range.

        Returns the number of single-entry invalidations issued.
        """
        qi = self.qi
        if qi is not None:
            head = qi.head
            entries = qi.entries
            if (
                _datapath.COLUMNAR_ENABLED
                and rng[0] == rng[1]
                and head == qi.tail
                and entries > 2
                and head + 2 <= entries
                and not TRACE.active
            ):
                # Fused handshake for one page on an empty queue whose
                # next two slots do not wrap: the invalidation and wait
                # descriptors go into the ring as one 32-byte store, the
                # hardware reads both back at once, invalidates, writes
                # the status word and leaves the queue empty again.
                # Ring bytes, head/tail and every counter end as the
                # submit/doorbell/drain calls below leave them.
                ram = qi.mem.ram
                slot_addr = qi.base_addr + head * QI_DESCRIPTOR_BYTES
                ram.write(
                    slot_addr,
                    _DESC_PAIR.pack(
                        _OP_PAGE, rng[0], tag, _OP_WAIT, self._status_addr, 1
                    ),
                )
                _, vpn, inv_tag, _, status_addr, status_value = _DESC_PAIR.unpack(
                    ram.read(slot_addr, 2 * QI_DESCRIPTOR_BYTES)
                )
                iotlb = qi.iotlb
                iotlb.generation += 1
                iotlb.stats.single_invalidations += 1
                iotlb._entries.pop((inv_tag, vpn), None)
                ram.write_u64(status_addr, status_value)
                qi.head = qi.tail = (head + 2) % entries
                qi_stats = qi.stats
                qi_stats.submitted += 2
                qi_stats.doorbells += 1
                qi_stats.processed += 2
                qi_stats.waits_completed += 1
                self.stats.single += 1
                self.allocator.free(rng)
                return 1
            # One queued handshake covers the range (page-selective
            # invalidation); per-page submission for multi-page ranges.
            # Whenever the queue fills — large unmaps can exceed its
            # depth, and the wait descriptor can find the last slot
            # taken — the doorbell drains it and the submit is retried,
            # as Linux's qi_submit_sync waits for free slots.
            for vpn in range(rng.pfn_lo, rng.pfn_hi + 1):
                try:
                    qi.submit_page_invalidation(tag, vpn)
                except QueueFullError:
                    qi.ring_doorbell()
                    qi.submit_page_invalidation(tag, vpn)
                self.stats.single += 1
            try:
                qi.submit_wait(self._status_addr, 1)
            except QueueFullError:
                qi.ring_doorbell()
                qi.submit_wait(self._status_addr, 1)
            qi.ring_doorbell()
        else:
            for vpn in range(rng.pfn_lo, rng.pfn_hi + 1):
                self.iotlb.invalidate(tag, vpn)
                self.stats.single += 1
        self.allocator.free(rng)
        return rng.pages

    def drain(self) -> int:
        """Nothing is ever queued in strict mode."""
        return 0

    @property
    def pending(self) -> int:
        """Queued-but-unflushed unmaps (always 0 for strict)."""
        return 0


class DeferredInvalidation:
    """Queue invalidations; flush everything once the batch fills."""

    def __init__(
        self,
        iotlb: Iotlb,
        allocator: IovaAllocator,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
        on_flush: Optional[Callable[[], None]] = None,
        qi=None,
    ) -> None:
        if flush_threshold <= 0:
            raise ValueError("flush_threshold must be positive")
        self.iotlb = iotlb
        self.allocator = allocator
        self.flush_threshold = flush_threshold
        self.stats = InvalidationStats()
        self._queue: List[Tuple[int, IovaRange]] = []
        self._on_flush = on_flush
        self.qi = qi
        self._status_addr = qi.alloc_status_addr() if qi is not None else 0

    def on_unmap(self, tag: int, rng: IovaRange) -> int:
        """Queue the range; flush the whole IOTLB when the batch fills.

        Returns the number of global flushes triggered (0 or 1).
        """
        self._queue.append((tag, rng))
        self.stats.queued += 1
        if len(self._queue) >= self.flush_threshold:
            self.flush()
            return 1
        return 0

    def flush(self) -> int:
        """Flush the IOTLB and release every queued IOVA range."""
        if not self._queue:
            return 0
        if self.qi is not None:
            self.qi.submit_global_invalidation()
            self.qi.submit_wait(self._status_addr, 1)
            self.qi.ring_doorbell()
        else:
            self.iotlb.invalidate_all()
        self.stats.global_flushes += 1
        drained = len(self._queue)
        for _tag, rng in self._queue:
            self.allocator.free(rng)
        self._queue.clear()
        if self._on_flush is not None:
            self._on_flush()
        return drained

    def drain(self) -> int:
        """Force a flush regardless of queue depth (device teardown)."""
        return self.flush()

    @property
    def pending(self) -> int:
        """Number of unmaps waiting for the batched flush."""
        return len(self._queue)
