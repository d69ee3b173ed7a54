"""Queued invalidation (QI) — how the OS really invalidates the IOTLB.

Intel VT-d's invalidation interface is itself a ring: the driver writes
*invalidation descriptors* into a memory-resident circular queue, bumps
a tail register, and the IOMMU consumes them asynchronously.  To learn
that an invalidation completed, the driver queues a *wait descriptor*
whose completion makes the hardware write a status word to memory that
the driver spins on — that round trip is the ~2,100 cycles the paper's
Table 1 charges per strict-mode invalidation.

This module implements the mechanism for real: descriptors are bytes in
simulated DRAM, the hardware parses them, performs the IOTLB operation
and the status write, and the driver polls the status word.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass

from repro.iommu.iotlb import Iotlb
from repro.memory.physical import MemorySystem
from repro.obs.tracer import TRACE

QI_DESCRIPTOR_BYTES = 16

#: 16-byte descriptor layout: u32 opcode, u64 operand0, u32 operand1.
_DESC = struct.Struct("<IQI")
assert _DESC.size == QI_DESCRIPTOR_BYTES
#: Two consecutive descriptors: a page invalidation and the wait behind
#: it, stored and read back in one go by the strict unmap's handshake.
_DESC_PAIR = struct.Struct("<IQIIQI")
assert _DESC_PAIR.size == 2 * QI_DESCRIPTOR_BYTES


class QiOpcode(enum.Enum):
    """Invalidation-descriptor types (subset of the VT-d set)."""

    #: invalidate one (bdf, vpn) translation
    IOTLB_PAGE = 1
    #: invalidate everything cached for one device
    IOTLB_DEVICE = 2
    #: flush the entire IOTLB
    IOTLB_GLOBAL = 3
    #: write a status value to memory once prior descriptors retire
    WAIT = 4


#: raw opcode values for the drain loop's dispatch (comparing ints avoids
#: constructing an enum member per descriptor on the QI hot path)
_OP_PAGE = QiOpcode.IOTLB_PAGE.value
_OP_DEVICE = QiOpcode.IOTLB_DEVICE.value
_OP_GLOBAL = QiOpcode.IOTLB_GLOBAL.value
_OP_WAIT = QiOpcode.WAIT.value


@dataclass
class QiStats:
    """Queue activity counters."""

    submitted: int = 0
    processed: int = 0
    waits_completed: int = 0
    doorbells: int = 0


class QueueFullError(RuntimeError):
    """The invalidation queue has no free slot."""


class QueuedInvalidation:
    """A memory-resident invalidation queue shared by driver and IOMMU."""

    def __init__(self, mem: MemorySystem, iotlb: Iotlb, entries: int = 256) -> None:
        if entries < 2:
            raise ValueError("queue needs at least two entries")
        self.mem = mem
        self.iotlb = iotlb
        self.entries = entries
        self.base_addr = mem.allocator.alloc_buffer(entries * QI_DESCRIPTOR_BYTES)
        mem.allocator.pin(self.base_addr, entries * QI_DESCRIPTOR_BYTES)
        #: driver-owned: next slot to fill (the "tail register" value)
        self.tail = 0
        #: hardware-owned: next slot to consume
        self.head = 0
        self.stats = QiStats()

    # -- driver side -------------------------------------------------------

    def _slot_addr(self, index: int) -> int:
        return self.base_addr + index * QI_DESCRIPTOR_BYTES

    def _submit(self, opcode_value: int, operand0: int, operand1: int) -> None:
        # Takes the raw opcode value: the submit wrappers pass the module
        # constants, sparing an enum ``.value`` descriptor read per
        # descriptor on the strict-mode unmap path.
        next_tail = (self.tail + 1) % self.entries
        if next_tail == self.head:
            raise QueueFullError("invalidation queue is full")
        raw = _DESC.pack(opcode_value, operand0, operand1)
        self.mem.ram.write(self.base_addr + self.tail * QI_DESCRIPTOR_BYTES, raw)
        self.tail = next_tail
        self.stats.submitted += 1
        if TRACE.active:
            TRACE.emit(
                "qi_submit", opcode=opcode_value, operand0=operand0, operand1=operand1
            )

    def submit_page_invalidation(self, bdf: int, vpn: int) -> None:
        """Queue an invalidation of one cached translation."""
        self._submit(_OP_PAGE, vpn, bdf)

    def submit_device_invalidation(self, bdf: int) -> None:
        """Queue an invalidation of all of one device's translations."""
        self._submit(_OP_DEVICE, 0, bdf)

    def submit_global_invalidation(self) -> None:
        """Queue a full IOTLB flush."""
        self._submit(_OP_GLOBAL, 0, 0)

    def submit_wait(self, status_addr: int, status_value: int) -> None:
        """Queue a wait descriptor: hardware writes the value when done."""
        self._submit(_OP_WAIT, status_addr, status_value)

    def ring_doorbell(self) -> int:
        """Tell the hardware the tail moved; it drains the queue.

        (The simulation is synchronous, so the drain happens inline.)
        Returns the number of descriptors processed.
        """
        self.stats.doorbells += 1
        return self._drain()

    def alloc_status_addr(self) -> int:
        """Allocate a pinned status dword for wait descriptors."""
        addr = self.mem.allocator.alloc_page()
        self.mem.allocator.pin(addr)
        return addr

    # -- hardware side ----------------------------------------------------------

    def _drain(self) -> int:
        processed = 0
        ram = self.mem.ram
        stats = self.stats
        base = self.base_addr
        while self.head != self.tail:
            raw = ram.read(base + self.head * QI_DESCRIPTOR_BYTES, QI_DESCRIPTOR_BYTES)
            opcode, operand0, operand1 = _DESC.unpack(raw)
            if opcode == _OP_PAGE:
                self.iotlb.invalidate(operand1, operand0)
                if TRACE.active:
                    TRACE.emit("invalidate", kind="page", tag=operand1, vpn=operand0)
            elif opcode == _OP_WAIT:
                ram.write_u64(operand0, operand1)
                stats.waits_completed += 1
                if TRACE.active:
                    TRACE.emit("qi_wait", status_addr=operand0, status_value=operand1)
            elif opcode == _OP_DEVICE:
                self.iotlb.invalidate_device(operand1)
                if TRACE.active:
                    TRACE.emit("invalidate", kind="device", tag=operand1)
            elif opcode == _OP_GLOBAL:
                self.iotlb.invalidate_all()
                if TRACE.active:
                    TRACE.emit("invalidate", kind="global")
            else:
                # Same rejection the enum constructor used to raise.
                raise ValueError(f"{opcode} is not a valid QiOpcode")
            self.head = (self.head + 1) % self.entries
            processed += 1
            stats.processed += 1
        return processed
