"""Simulated physical memory: sparse DRAM plus a frame allocator.

The simulation needs a byte-addressable physical memory so that device
DMAs performed through (r)IOMMU translations are *functionally* checked:
the bytes a device writes through an IOVA must be the bytes the driver
later reads from the physical buffer.  Memory is sparse — only frames
that are actually touched consume space.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set

from repro import datapath as _datapath
from repro.memory.address import (
    PAGE_MASK,
    PAGE_SHIFT,
    PAGE_SIZE,
    check_addr,
    page_number,
    page_offset,
)


class OutOfMemoryError(RuntimeError):
    """The frame allocator has no free frames left."""


class PinError(RuntimeError):
    """An operation violated page-pinning rules."""


class PhysicalMemory:
    """Sparse byte-addressable physical memory.

    Frames are materialised lazily on first write.  Reads of untouched
    memory return zero bytes, mirroring zero-filled DRAM after
    allocation.
    """

    def __init__(self, size_bytes: int = 1 << 32) -> None:
        if size_bytes <= 0 or size_bytes % PAGE_SIZE != 0:
            raise ValueError("memory size must be a positive multiple of the page size")
        self.size_bytes = size_bytes
        self.num_frames = size_bytes // PAGE_SIZE
        self._frames: Dict[int, bytearray] = {}

    # -- raw byte access ------------------------------------------------

    def _check_range(self, addr: int, size: int) -> None:
        check_addr(addr)
        if size < 0:
            raise ValueError(f"size must be non-negative, got {size}")
        if addr + size > self.size_bytes:
            raise ValueError(
                f"access [{addr:#x}, {addr + size:#x}) exceeds physical memory "
                f"of {self.size_bytes:#x} bytes"
            )

    def write(self, addr: int, data: bytes) -> None:
        """Write ``data`` starting at physical address ``addr``."""
        size = len(data)
        # Fast path: the access stays inside one frame (the overwhelmingly
        # common case — descriptors, PTEs, sub-page buffers).  Byte-for-byte
        # identical to the chunk loop below, which remains the slow path
        # for frame-crossing accesses; the inline guards subsume
        # ``_check_range`` (anything they reject falls through and gets
        # the canonical error from the slow path).
        if (
            _datapath.COLUMNAR_ENABLED
            and type(addr) is int
            and 0 <= addr
            and 0 < size
            and (addr & PAGE_MASK) + size <= PAGE_SIZE
            and addr + size <= self.size_bytes
        ):
            frame = addr >> PAGE_SHIFT
            page = self._frames.get(frame)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._frames[frame] = page
            off = addr & PAGE_MASK
            page[off : off + size] = data
            return
        self._check_range(addr, size)
        pos = 0
        while pos < len(data):
            frame = page_number(addr + pos)
            off = page_offset(addr + pos)
            chunk = min(PAGE_SIZE - off, len(data) - pos)
            page = self._frames.get(frame)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._frames[frame] = page
            page[off : off + chunk] = data[pos : pos + chunk]
            pos += chunk

    def read(self, addr: int, size: int) -> bytes:
        """Read ``size`` bytes starting at physical address ``addr``."""
        # Fast path: single-frame access (see ``write``).
        if (
            _datapath.COLUMNAR_ENABLED
            and type(addr) is int
            and type(size) is int
            and 0 <= addr
            and 0 < size
            and (addr & PAGE_MASK) + size <= PAGE_SIZE
            and addr + size <= self.size_bytes
        ):
            page = self._frames.get(addr >> PAGE_SHIFT)
            if page is None:
                return bytes(size)
            off = addr & PAGE_MASK
            return bytes(page[off : off + size])
        self._check_range(addr, size)
        out = bytearray(size)
        pos = 0
        while pos < size:
            frame = page_number(addr + pos)
            off = page_offset(addr + pos)
            chunk = min(PAGE_SIZE - off, size - pos)
            page = self._frames.get(frame)
            if page is not None:
                out[pos : pos + chunk] = page[off : off + chunk]
            pos += chunk
        return bytes(out)

    def write_u64(self, addr: int, value: int) -> None:
        """Write a little-endian 64-bit value at ``addr``."""
        # Dedicated fast path: PTE/descriptor stores are the hottest
        # writes in the simulator, worth skipping one call layer.
        if (
            _datapath.COLUMNAR_ENABLED
            and type(addr) is int
            and 0 <= addr
            and (addr & PAGE_MASK) <= PAGE_SIZE - 8
            and addr + 8 <= self.size_bytes
        ):
            frame = addr >> PAGE_SHIFT
            page = self._frames.get(frame)
            if page is None:
                page = bytearray(PAGE_SIZE)
                self._frames[frame] = page
            off = addr & PAGE_MASK
            page[off : off + 8] = value.to_bytes(8, "little")
            return
        self.write(addr, value.to_bytes(8, "little"))

    def read_u64(self, addr: int) -> int:
        """Read a little-endian 64-bit value at ``addr``."""
        if (
            _datapath.COLUMNAR_ENABLED
            and type(addr) is int
            and 0 <= addr
            and (addr & PAGE_MASK) <= PAGE_SIZE - 8
            and addr + 8 <= self.size_bytes
        ):
            page = self._frames.get(addr >> PAGE_SHIFT)
            if page is None:
                return 0
            off = addr & PAGE_MASK
            return int.from_bytes(page[off : off + 8], "little")
        return int.from_bytes(self.read(addr, 8), "little")

    # -- bulk extent access (scatter-gather datapath) -------------------

    def read_bulk(self, extents: Iterable[tuple]) -> bytes:
        """Read ``[(addr, size), ...]`` extents into one byte string.

        Equivalent to concatenating :meth:`read` over the extents, but
        fills a single preallocated buffer through ``memoryview`` slices
        so a multi-page extent costs one Python iteration per frame and
        no intermediate ``bytes`` objects.
        """
        extents = list(extents)
        # Fast path: one single-frame extent (most descriptor fetches and
        # sub-page packet buffers) — one dict probe, one slice.
        if _datapath.COLUMNAR_ENABLED and len(extents) == 1:
            addr, size = extents[0]
            if (
                type(addr) is int
                and type(size) is int
                and 0 <= addr
                and 0 < size
                and (addr & PAGE_MASK) + size <= PAGE_SIZE
                and addr + size <= self.size_bytes
            ):
                page = self._frames.get(addr >> PAGE_SHIFT)
                if page is None:
                    return bytes(size)
                off = addr & PAGE_MASK
                return bytes(page[off : off + size])
        total = 0
        for _, size in extents:
            total += size
        out = bytearray(total)
        view = memoryview(out)
        frames = self._frames
        pos = 0
        for addr, size in extents:
            # Single-frame extent: one slice assignment (common case).
            if (
                type(addr) is int
                and type(size) is int
                and 0 <= addr
                and 0 < size
                and (addr & PAGE_MASK) + size <= PAGE_SIZE
                and addr + size <= self.size_bytes
            ):
                page = frames.get(addr >> PAGE_SHIFT)
                if page is not None:
                    off = addr & PAGE_MASK
                    view[pos : pos + size] = page[off : off + size]
                pos += size
                continue
            self._check_range(addr, size)
            done = 0
            while done < size:
                off = (addr + done) & PAGE_MASK
                chunk = min(PAGE_SIZE - off, size - done)
                page = frames.get((addr + done) >> PAGE_SHIFT)
                if page is not None:
                    view[pos : pos + chunk] = page[off : off + chunk]
                done += chunk
                pos += chunk
        return bytes(out)

    def write_bulk(self, extents: Iterable[tuple], data: bytes) -> None:
        """Write ``data`` across ``[(addr, size), ...]`` extents in order.

        Equivalent to slicing ``data`` and calling :meth:`write` per
        extent, but consumes a ``memoryview`` so no per-extent ``bytes``
        copies are made.  ``data`` must be exactly as long as the
        extents' combined size.
        """
        extents = list(extents)
        # Fast path: one single-frame extent covering all of ``data``.
        if _datapath.COLUMNAR_ENABLED and len(extents) == 1:
            addr, size = extents[0]
            if (
                type(addr) is int
                and size == len(data)
                and 0 <= addr
                and 0 < size
                and (addr & PAGE_MASK) + size <= PAGE_SIZE
                and addr + size <= self.size_bytes
            ):
                frame = addr >> PAGE_SHIFT
                page = self._frames.get(frame)
                if page is None:
                    page = bytearray(PAGE_SIZE)
                    self._frames[frame] = page
                off = addr & PAGE_MASK
                page[off : off + size] = data
                return
        total = 0
        for _, size in extents:
            total += size
        if total != len(data):
            raise ValueError(
                f"data length {len(data)} does not match extents ({total} bytes)"
            )
        view = memoryview(data)
        frames = self._frames
        pos = 0
        for addr, size in extents:
            if (
                type(addr) is int
                and type(size) is int
                and 0 <= addr
                and 0 < size
                and (addr & PAGE_MASK) + size <= PAGE_SIZE
                and addr + size <= self.size_bytes
            ):
                frame = addr >> PAGE_SHIFT
                page = frames.get(frame)
                if page is None:
                    page = bytearray(PAGE_SIZE)
                    frames[frame] = page
                off = addr & PAGE_MASK
                page[off : off + size] = view[pos : pos + size]
                pos += size
                continue
            self._check_range(addr, size)
            done = 0
            while done < size:
                frame = (addr + done) >> PAGE_SHIFT
                off = (addr + done) & PAGE_MASK
                chunk = min(PAGE_SIZE - off, size - done)
                page = frames.get(frame)
                if page is None:
                    page = bytearray(PAGE_SIZE)
                    frames[frame] = page
                page[off : off + chunk] = view[pos : pos + chunk]
                done += chunk
                pos += chunk

    def touched_frames(self) -> int:
        """Number of frames that have been materialised by writes."""
        return len(self._frames)

    def discard_frame(self, frame: int) -> None:
        """Drop a frame's contents; subsequent reads return zeros.

        The frame allocator calls this when handing a previously-freed
        frame back out, so every allocation observes zero-filled memory
        regardless of what the frame's prior owner left behind (the
        analogue of the kernel's ``__GFP_ZERO``).
        """
        self._frames.pop(frame, None)


class FrameAllocator:
    """Allocates physical frames from a :class:`PhysicalMemory`.

    Supports pinning, which the DMA path requires: the OS pins target
    buffers before mapping them into the IOMMU because DMAs are not
    restartable (paper §2.2 — no I/O page faults on valid DMAs).
    """

    def __init__(self, memory: PhysicalMemory, reserved_frames: int = 16) -> None:
        self.memory = memory
        #: frames below this index are reserved (e.g. for firmware/tables)
        self.reserved_frames = reserved_frames
        self._next_frame = reserved_frames
        self._free: List[int] = []
        self._allocated: Set[int] = set()
        self._pinned: Set[int] = set()

    # -- allocation -----------------------------------------------------

    def alloc_frame(self) -> int:
        """Allocate one frame; returns its frame number.

        Reused frames are zero-filled (their stale contents discarded),
        so allocation always hands out memory that reads as zeros — the
        invariant the page-table and context-table layers rely on.
        """
        if self._free:
            frame = self._free.pop()
            self.memory.discard_frame(frame)
        else:
            if self._next_frame >= self.memory.num_frames:
                raise OutOfMemoryError("no free physical frames")
            frame = self._next_frame
            self._next_frame += 1
        self._allocated.add(frame)
        return frame

    def alloc_frames(self, count: int) -> List[int]:
        """Allocate ``count`` frames (not necessarily contiguous)."""
        return [self.alloc_frame() for _ in range(count)]

    def alloc_contiguous(self, count: int) -> int:
        """Allocate ``count`` physically-contiguous frames.

        Returns the first frame number.  Ring buffers and page-table
        pages want contiguous backing.

        Freed frames are reused: the free list is scanned for a run of
        ``count`` consecutive frames before the high-water mark is
        bumped, so a long-running simulation that continually allocates
        and frees buffers no longer leaks contiguous space until it
        hits :class:`OutOfMemoryError`.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if count == 1 and self._free:
            # A run of one is any free frame; same LIFO reuse as
            # :meth:`alloc_frame`, without the run scan.
            return self.alloc_frame()
        first = self._find_free_run(count)
        if first is not None:
            run = set(range(first, first + count))
            self._free = [f for f in self._free if f not in run]
            for frame in sorted(run):
                self.memory.discard_frame(frame)
                self._allocated.add(frame)
            return first
        if self._next_frame + count > self.memory.num_frames:
            raise OutOfMemoryError(f"no {count} contiguous frames available")
        first = self._next_frame
        self._next_frame += count
        for frame in range(first, first + count):
            self._allocated.add(frame)
        return first

    def _find_free_run(self, count: int) -> Optional[int]:
        """First frame of a run of ``count`` consecutive free frames, if any."""
        if len(self._free) < count:
            return None
        ordered = sorted(self._free)
        run_start = ordered[0]
        run_len = 1
        for prev, frame in zip(ordered, ordered[1:]):
            if frame == prev + 1:
                run_len += 1
            else:
                run_start = frame
                run_len = 1
            if run_len >= count:
                return run_start
        return None

    def alloc_page(self) -> int:
        """Allocate one frame and return its *physical address*."""
        return self.alloc_frame() * PAGE_SIZE

    def alloc_buffer(self, size: int) -> int:
        """Allocate a physically-contiguous buffer; returns its address."""
        if size <= 0:
            raise ValueError("size must be positive")
        frames = (size + PAGE_SIZE - 1) // PAGE_SIZE
        return self.alloc_contiguous(frames) * PAGE_SIZE

    def free_frame(self, frame: int) -> None:
        """Return a frame to the allocator."""
        if frame not in self._allocated:
            raise ValueError(f"frame {frame} is not allocated")
        if frame in self._pinned:
            raise PinError(f"cannot free pinned frame {frame}")
        self._allocated.remove(frame)
        self._free.append(frame)

    def free_buffer(self, addr: int, size: int) -> None:
        """Free the frames backing a buffer allocated by :meth:`alloc_buffer`."""
        first = page_number(addr)
        frames = (size + PAGE_SIZE - 1) // PAGE_SIZE
        for frame in range(first, first + frames):
            self.free_frame(frame)

    # -- pinning ----------------------------------------------------------

    def pin(self, addr: int, size: int = PAGE_SIZE) -> None:
        """Pin the pages backing ``[addr, addr+size)`` to memory."""
        for frame in self._frames_of(addr, size):
            if frame not in self._allocated:
                raise PinError(f"cannot pin unallocated frame {frame}")
            self._pinned.add(frame)

    def unpin(self, addr: int, size: int = PAGE_SIZE) -> None:
        """Unpin the pages backing ``[addr, addr+size)``."""
        for frame in self._frames_of(addr, size):
            self._pinned.discard(frame)

    def is_pinned(self, addr: int) -> bool:
        """True if the page containing ``addr`` is pinned."""
        return page_number(addr) in self._pinned

    def is_allocated(self, addr: int) -> bool:
        """True if the page containing ``addr`` is allocated."""
        return page_number(addr) in self._allocated

    @staticmethod
    def _frames_of(addr: int, size: int) -> Iterable[int]:
        first = page_number(addr)
        last = page_number(addr + max(size, 1) - 1)
        return range(first, last + 1)

    # -- introspection ----------------------------------------------------

    @property
    def allocated_count(self) -> int:
        """Number of currently-allocated frames."""
        return len(self._allocated)

    @property
    def pinned_count(self) -> int:
        """Number of currently-pinned frames."""
        return len(self._pinned)


class MemorySystem:
    """Convenience bundle of :class:`PhysicalMemory` and :class:`FrameAllocator`."""

    def __init__(self, size_bytes: int = 1 << 32, reserved_frames: int = 16) -> None:
        self.ram = PhysicalMemory(size_bytes)
        self.allocator = FrameAllocator(self.ram, reserved_frames)

    def alloc_dma_buffer(self, size: int, pin: bool = True) -> int:
        """Allocate (and by default pin) a DMA target buffer; returns its address.

        Single-page pinned buffers (every per-packet buffer) take an
        inlined fast path replicating ``alloc_frame`` + ``pin`` exactly:
        same LIFO frame reuse, same zero-fill, same allocator state.
        Exhaustion falls through to the slow path for the canonical
        :class:`OutOfMemoryError`.
        """
        if _datapath.COLUMNAR_ENABLED and pin and 0 < size <= PAGE_SIZE:
            allocator = self.allocator
            free = allocator._free
            if free:
                frame = free.pop()
                self.ram.discard_frame(frame)
            else:
                frame = allocator._next_frame
                if frame >= self.ram.num_frames:
                    frame = -1  # exhausted: take the slow path below
                else:
                    allocator._next_frame = frame + 1
            if frame >= 0:
                allocator._allocated.add(frame)
                allocator._pinned.add(frame)
                return frame << PAGE_SHIFT
        addr = self.allocator.alloc_buffer(size)
        if pin:
            self.allocator.pin(addr, size)
        return addr

    def free_dma_buffer(self, addr: int, size: int) -> None:
        """Unpin and free a DMA target buffer.

        The aligned single-page case is inlined (``unpin`` +
        ``free_frame`` with identical state transitions); anything else
        — including the not-allocated error case, so the canonical
        ``ValueError`` is raised — uses the generic path.
        """
        if (
            _datapath.COLUMNAR_ENABLED
            and type(addr) is int
            and 0 < size <= PAGE_SIZE
            and addr >= 0
            and addr & PAGE_MASK == 0
        ):
            frame = addr >> PAGE_SHIFT
            allocator = self.allocator
            allocated = allocator._allocated
            if frame in allocated:
                allocator._pinned.discard(frame)
                allocated.remove(frame)
                allocator._free.append(frame)
                return
        self.allocator.unpin(addr, size)
        self.allocator.free_buffer(addr, size)
