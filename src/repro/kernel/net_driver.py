"""The NIC device driver: the OS side of the paper's Figures 4 and 6.

The driver owns the Rx/Tx descriptor rings, keeps the Rx ring filled
with freshly mapped buffers, transmits by mapping payload buffers and
posting descriptors, and — on each (coalesced) completion interrupt —
walks the burst of finished descriptors, unmapping every buffer and
flagging ``end_of_burst`` on the last one, exactly the loop the paper
describes in §2.3/§4.

The driver is mode-agnostic: all protection work happens behind the
:class:`~repro.kernel.dma_api.DmaApi`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from operator import itemgetter
from typing import Callable, Deque, List, Optional, Sequence, Tuple

from repro import datapath as _datapath
from repro.devices.descriptor import _CODEC, DESCRIPTOR_BYTES, FLAG_VALID, Descriptor
from repro.devices.nic import SimulatedNic
from repro.devices.ring import Ring
from repro.dma import DmaDirection, MapRequest, _map_request, _unmap_request
from repro.kernel.interrupts import InterruptCoalescer
from repro.kernel.machine import Machine
from repro.obs.tracer import TRACE


class MappedBuffer(tuple):
    """One mapped DMA target buffer behind a posted descriptor.

    Tuple-backed (like the ``repro.dma`` records): the driver creates
    two of these per packet, and the C-level tuple constructor is ~3x
    cheaper than a dataclass ``__init__`` while keeping the attribute
    access the tests and callers use.
    """

    __slots__ = ()

    def __new__(cls, device_addr: int, phys_addr: int, size: int) -> "MappedBuffer":
        return tuple.__new__(cls, (device_addr, phys_addr, size))

    def __getnewargs__(self):
        # tuple.__reduce_ex__ would rebuild via __new__(cls) with no
        # arguments; spelling the args out makes the record picklable
        # (simulation checkpoints serialise the posted-buffer deques).
        return tuple(self)

    device_addr: int = property(itemgetter(0))
    phys_addr: int = property(itemgetter(1))
    size: int = property(itemgetter(2))


class _CompletionAdapter:
    """Picklable bridge from a NIC completion callback to a coalescer.

    A bound-lambda (``lambda idx, n: coalescer.completion((idx, n))``)
    would pin the driver's object graph to the process: lambdas cannot
    be pickled, and simulation checkpoints serialise the whole driver.
    This adapter is plain data with a ``__call__``, so it round-trips.
    """

    __slots__ = ("coalescer",)

    def __init__(self, coalescer: "InterruptCoalescer") -> None:
        self.coalescer = coalescer

    def __call__(self, index: int, nbytes: int) -> None:
        self.coalescer.completion((index, nbytes))

    def __getstate__(self):
        return self.coalescer

    def __setstate__(self, state):
        self.coalescer = state


@dataclass
class NetDriverStats:
    """Driver-side packet counters."""

    packets_received: int = 0
    packets_transmitted: int = 0
    rx_bursts: int = 0
    tx_bursts: int = 0


PacketSink = Callable[[bytes], None]


class NetDriver:
    """OS driver for a :class:`~repro.devices.nic.SimulatedNic`."""

    def __init__(
        self,
        machine: Machine,
        nic: SimulatedNic,
        coalesce_threshold: int = 200,
        ring_slack: int = 2,
        packet_sink: Optional[PacketSink] = None,
        mtu: int = 1500,
    ) -> None:
        self.machine = machine
        self.nic = nic
        self.profile = nic.profile
        self.mtu = mtu
        self.api = machine.dma_api(nic.bdf)
        self.account = self.api.account
        self.stats = NetDriverStats()
        self.packet_sink = packet_sink
        # Ring-slot and descriptor DMAs hammer the same few pages; the
        # per-burst translation memo shortcuts those repeats without
        # changing any observable stat or model cycle.
        machine.bus.enable_translation_memo()

        # Allocate the descriptor rings and map them persistently.  Under
        # the rIOMMU each device ring gets two rRINGs (paper §4): one for
        # the ring pages themselves (a single long-lived rPTE) and one
        # for the per-DMA target buffers.
        mem = machine.mem
        self.rx_ring = Ring(mem, self.profile.rx_entries)
        self.tx_ring = Ring(mem, self.profile.tx_entries)
        self._rx_desc_rid = self.api.create_ring(1)
        self._tx_desc_rid = self.api.create_ring(1)
        buffers_per_ring = self.profile.buffers_per_packet * self.profile.rx_entries
        self._rx_buf_rid = self.api.create_ring(ring_slack * buffers_per_ring)
        self._tx_buf_rid = self.api.create_ring(
            ring_slack * self.profile.buffers_per_packet * self.profile.tx_entries
        )
        self.rx_ring.device_base = self.api.map_request(
            MapRequest(
                phys_addr=self.rx_ring.base_phys,
                size=self.rx_ring.size_bytes,
                direction=DmaDirection.BIDIRECTIONAL,
                ring=self._rx_desc_rid,
            )
        ).device_addr
        self.tx_ring.device_base = self.api.map_request(
            MapRequest(
                phys_addr=self.tx_ring.base_phys,
                size=self.tx_ring.size_bytes,
                direction=DmaDirection.BIDIRECTIONAL,
                ring=self._tx_desc_rid,
            )
        ).device_addr
        nic.attach_rings(self.rx_ring, self.tx_ring)

        # Completion plumbing with interrupt coalescing.
        self._rx_coalescer: InterruptCoalescer = InterruptCoalescer(
            self._handle_rx_burst, coalesce_threshold
        )
        self._tx_coalescer: InterruptCoalescer = InterruptCoalescer(
            self._handle_tx_burst, coalesce_threshold
        )
        nic.on_rx_complete = _CompletionAdapter(self._rx_coalescer)
        nic.on_tx_complete = _CompletionAdapter(self._tx_coalescer)

        # Completions arrive in ring order, so posted descriptors are
        # matched to completions FIFO.  (A dict keyed by ring index would
        # break once an index is reused before its coalesced completion
        # is handled.)
        self._rx_posted: Deque[Tuple[int, List[MappedBuffer]]] = deque()
        self._tx_posted: Deque[Tuple[int, List[MappedBuffer]]] = deque()

    # -- buffer segmentation ---------------------------------------------------

    def _segment_sizes(self, payload_len: int) -> List[int]:
        """Split a packet across the profile's buffers (header + data).

        Frames that fit entirely in the header buffer use one buffer
        even on a two-buffer NIC — tiny RR messages need no split.
        """
        if (
            self.profile.buffers_per_packet == 1
            or payload_len <= self.profile.header_split_bytes
        ):
            return [payload_len]
        header = self.profile.header_split_bytes
        return [header, payload_len - header]

    # -- receive path -----------------------------------------------------------

    def fill_rx(self) -> int:
        """Post Rx descriptors until the ring is full; returns posts made."""
        posted = 0
        while self.rx_ring.free_slots > 0:
            self._post_rx_descriptor(self.mtu)
            posted += 1
        return posted

    def _post_rx_descriptor(self, mtu: int) -> None:
        buffers: List[MappedBuffer] = []
        segments: List[Tuple[int, int]] = []
        mem = self.machine.mem
        api_map = self.api.map_request
        ring = self._rx_buf_rid
        for size in self._segment_sizes(mtu):
            phys = mem.alloc_dma_buffer(size)
            device_addr = api_map(
                _map_request(phys, size, DmaDirection.FROM_DEVICE, ring)
            ).device_addr
            buffers.append(MappedBuffer(device_addr, phys, size))
            segments.append((device_addr, size))
        index = self._post(self.rx_ring, segments)
        self._rx_posted.append((index, buffers))

    def _post(self, ring: Ring, segments: List[Tuple[int, int]]) -> int:
        """Post a VALID descriptor; columnar builds pack the wire bytes
        directly (identical encoding, no ``Descriptor`` object)."""
        if _datapath.COLUMNAR_ENABLED:
            (addr0, len0), (addr1, len1) = (
                (segments[0], segments[1])
                if len(segments) > 1
                else (segments[0], (0, 0))
            )
            return ring.post_raw(_CODEC.pack(addr0, len0, FLAG_VALID, addr1, len1))
        return ring.post(Descriptor(segments=segments, flags=FLAG_VALID))

    def _handle_rx_burst(self, burst: List[Tuple[int, int]]) -> None:
        """Interrupt handler: unmap the burst, hand packets up, refill."""
        self.stats.rx_bursts += 1
        # Match completions to posted descriptors, then unmap the whole
        # burst in one call (end_of_burst lands on the very last buffer,
        # exactly like the per-buffer loop this replaces).
        completed: List[Tuple[List[MappedBuffer], int]] = []
        addrs: List[int] = []
        for index, nbytes in burst:
            posted_index, buffers = self._rx_posted.popleft()
            if posted_index != index:
                raise RuntimeError(
                    f"rx completion order broke: expected descriptor "
                    f"{posted_index}, device completed {index}"
                )
            completed.append((buffers, nbytes))
            for buf in buffers:
                addrs.append(buf.device_addr)
        self.api.unmap_burst(addrs, True)
        free_dma_buffer = self.machine.mem.free_dma_buffer
        stats = self.stats
        for buffers, nbytes in completed:
            # Only after the unmap is the buffer safe to touch (paper §2.1
            # footnote); now read the payload and hand it up the stack.
            payload = self._gather(buffers, nbytes)
            if self.packet_sink is not None:
                self.packet_sink(payload)
            for buf in buffers:
                free_dma_buffer(buf.phys_addr, buf.size)
            stats.packets_received += 1
        self.fill_rx()

    def _gather(self, buffers: List[MappedBuffer], nbytes: int) -> bytes:
        # One bulk copy across the packet's buffers instead of a
        # read-and-concatenate loop.
        extents = []
        remaining = nbytes
        for buf in buffers:
            if remaining <= 0:
                break
            take = min(buf.size, remaining)
            extents.append((buf.phys_addr, take))
            remaining -= take
        return self.machine.mem.ram.read_bulk(extents)

    def flush_rx(self) -> None:
        """Deliver any coalesced-but-pending Rx completions (timer fired)."""
        self._rx_coalescer.flush()

    # -- transmit path --------------------------------------------------------------

    def transmit(self, payload: bytes) -> bool:
        """Map the payload and post a Tx descriptor.

        Returns False when the Tx ring is full (caller should pump the
        device and retry — normal back-pressure).  The columnar build
        posts it as a one-frame :meth:`transmit_train`.
        """
        if not payload:
            raise ValueError("payload must be non-empty")
        if _datapath.COLUMNAR_ENABLED:
            return self.transmit_train((payload,)) == 1
        if self.tx_ring.free_slots == 0:
            return False
        buffers: List[MappedBuffer] = []
        segments: List[Tuple[int, int]] = []
        pos = 0
        mem = self.machine.mem
        api_map = self.api.map_request
        ring = self._tx_buf_rid
        for size in self._segment_sizes(len(payload)):
            phys = mem.alloc_dma_buffer(size)
            chunk = payload[pos : pos + size]
            if chunk:
                mem.ram.write(phys, chunk)
            pos += size
            device_addr = api_map(
                _map_request(phys, size, DmaDirection.TO_DEVICE, ring)
            ).device_addr
            buffers.append(MappedBuffer(device_addr, phys, size))
            segments.append((device_addr, size))
        index = self._post(self.tx_ring, segments)
        self._tx_posted.append((index, buffers))
        return True

    def transmit_train(self, payloads: Sequence[bytes]) -> int:
        """Transmit the leading frames of ``payloads`` that the Tx ring
        has room for; returns how many were posted.

        Exactly :meth:`transmit` on each frame in order until the ring
        is full: 0 means the ring is full (pump the device and retry).
        While the tracer is active a train is one frame, so the trace
        keeps each frame's map events next to whatever the caller
        charges per frame.

        The columnar body is one loop: the map callable is resolved
        once, each frame writes its payload and maps its buffers (one,
        or a header and a data buffer) in :meth:`transmit`'s order, and
        its descriptor is packed raw and written straight to its ring
        slot, advancing the tail as :meth:`Ring.post_raw` does.
        """
        ring = self.tx_ring
        count = min(len(payloads), ring.free_slots)
        if TRACE.active and count > 1:
            count = 1
        if not _datapath.COLUMNAR_ENABLED:
            for i in range(count):
                self.transmit(payloads[i])
            return count
        mem = self.machine.mem
        alloc = mem.alloc_dma_buffer
        ram = mem.ram
        write = ram.write
        api_map = self.api.map_request
        rid = self._tx_buf_rid
        to_device = DmaDirection.TO_DEVICE
        profile = self.profile
        header = (
            profile.header_split_bytes if profile.buffers_per_packet > 1 else None
        )
        pack = _CODEC.pack
        posted = self._tx_posted
        slots = ring.base_phys
        entries = ring.entries
        tail = ring.tail
        for i in range(count):
            payload = payloads[i]
            size = len(payload)
            if not size:
                raise ValueError("payload must be non-empty")
            if header is None or size <= header:
                phys = alloc(size)
                write(phys, payload)
                addr = api_map(_map_request(phys, size, to_device, rid))[0]
                buffers = [tuple.__new__(MappedBuffer, (addr, phys, size))]
                raw = pack(addr, size, FLAG_VALID, 0, 0)
            else:
                phys = alloc(header)
                write(phys, payload[:header])
                addr = api_map(_map_request(phys, header, to_device, rid))[0]
                rest = size - header
                phys1 = alloc(rest)
                write(phys1, payload[header:])
                addr1 = api_map(_map_request(phys1, rest, to_device, rid))[0]
                buffers = [
                    tuple.__new__(MappedBuffer, (addr, phys, header)),
                    tuple.__new__(MappedBuffer, (addr1, phys1, rest)),
                ]
                raw = pack(addr, header, FLAG_VALID, addr1, rest)
            write(slots + tail * DESCRIPTOR_BYTES, raw)
            posted.append((tail, buffers))
            tail = (tail + 1) % entries
            ring.tail = tail
        return count

    def _handle_tx_burst(self, burst: List[Tuple[int, int]]) -> None:
        self.stats.tx_bursts += 1
        freed: List[MappedBuffer] = []
        addrs: List[int] = []
        npackets = 0
        for index, _nbytes in burst:
            posted_index, buffers = self._tx_posted.popleft()
            if posted_index != index:
                raise RuntimeError(
                    f"tx completion order broke: expected descriptor "
                    f"{posted_index}, device completed {index}"
                )
            for buf in buffers:
                addrs.append(buf.device_addr)
                freed.append(buf)
            npackets += 1
        self.api.unmap_burst(addrs, True)
        free_dma_buffer = self.machine.mem.free_dma_buffer
        for buf in freed:
            free_dma_buffer(buf.phys_addr, buf.size)
        self.stats.packets_transmitted += npackets

    def pump_tx(self, max_frames: Optional[int] = None) -> int:
        """Let the device consume posted Tx descriptors; returns frames sent."""
        return self.nic.process_tx(max_frames)

    def flush_tx(self) -> None:
        """Deliver pending Tx completions (coalescing timer)."""
        self._tx_coalescer.flush()

    # -- teardown -----------------------------------------------------------------------

    def shutdown(self) -> None:
        """Unmap everything and release driver state."""
        self.flush_rx()
        self.flush_tx()
        for posted in (self._rx_posted, self._tx_posted):
            for _index, buffers in posted:
                for buf in buffers:
                    self.api.unmap_request(
                        _unmap_request(buf.device_addr, True)
                    )
                    self.machine.mem.free_dma_buffer(buf.phys_addr, buf.size)
            posted.clear()
        self.api.unmap_request(_unmap_request(self.rx_ring.device_base))
        self.api.unmap_request(_unmap_request(self.tx_ring.device_base))
