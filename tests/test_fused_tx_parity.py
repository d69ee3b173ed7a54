"""The columnar build's fused Tx chain against the scalar oracle.

Both sides of the Tx ring take one step per frame in the columnar
build: the driver maps and posts a train of frames in one loop
(``NetDriver.transmit_train``), and the rIOMMU serves the sequential
advance of a ring's rIOTLB entry to its prefetched ``next`` rPTE in one
frame (``RIommuHardware.rtranslate_span``).  Each test drives the same
operations under the scalar build and the default build and compares
everything they leave behind: the outcome or exception, the simulated
memory, every counter and, with the tracer on, the trace.
"""

import itertools
from dataclasses import asdict

import pytest

from repro.config import RunConfig
from repro.core import RIommuDriver
from repro.core.riotlb import RIommuHardware
from repro.core.structures import RRING_ENTRY_BYTES
from repro.devices.dma import DmaBus, RIommuBackend
from repro.devices.nic import NicProfile, SimulatedNic
from repro.dma import DmaDirection
from repro.faults import BoundsFault, PermissionFault
from repro.iommu import page_table
from repro.kernel.machine import Machine
from repro.kernel.net_driver import NetDriver
from repro.memory import CoherencyDomain, MemorySystem, StaleReadError
from repro.modes import Mode
from repro.obs.metrics import collect_machine_metrics
from repro.obs.tracer import TRACE
from repro.sim.runner import run_with_config
from repro.sim.setups import BRCM_SETUP, MLX_SETUP
from tests.dma_helpers import dma_map, dma_unmap

BDF = 0x0300


@pytest.fixture(autouse=True)
def _no_tracer():
    TRACE.reset()
    yield
    TRACE.reset()


def _normalised_trace():
    """Recorded events with account ids renumbered by first appearance
    (ids come from a process-wide counter, so two runs differ)."""
    ids = {}
    events = []
    for ts, etype, fields in TRACE.events:
        fields = dict(fields)
        if "acct" in fields:
            fields["acct"] = ids.setdefault(fields["acct"], len(ids))
        events.append((ts, etype, fields))
    return events


# -- the rIOTLB entry's sequential advance -------------------------------


def _advance_outcome(case, monkeypatch):
    """Map a ring's buffers, then DMA through them in ring order.

    Every access after the first moves the ring's rIOTLB entry on by one
    ring entry; ``case`` picks what stands in the way of the prefetched
    ``next`` rPTE.  Returns each access's result (or error), the
    rIOTLB entry and every counter, plus how often the columnar body
    fell back to the scalar ``rtranslate``.
    """
    if case == "device domain dirty":
        # The rDEVICE's domain is not the context tables' domain.
        mem = MemorySystem(size_bytes=1 << 24)
        hardware = RIommuHardware(mem, CoherencyDomain(coherent=True))
        coherency = CoherencyDomain(coherent=False)
        driver = RIommuDriver(mem, hardware, BDF, Mode.RIOMMU_NC, coherency=coherency)
        bus = DmaBus(mem, RIommuBackend(hardware))
    else:
        machine = Machine(
            Mode.RIOMMU_NC if case == "dirty line" else Mode.RIOMMU,
            mem=MemorySystem(size_bytes=1 << 24),
            riommu_prefetch=case != "no prefetch",
        )
        mem, hardware, coherency, bus = (
            machine.mem, machine.riommu, machine.coherency, machine.bus
        )
        driver = machine.dma_api(BDF).driver
    fallbacks = []
    rtranslate = RIommuHardware.rtranslate

    def counting_rtranslate(self, bdf, iova, direction):
        fallbacks.append(iova.rentry)
        return rtranslate(self, bdf, iova, direction)

    monkeypatch.setattr(RIommuHardware, "rtranslate", counting_rtranslate)
    rid = driver.create_ring(2 if case == "wrap" else 8)
    sizes = [1500, 1500, 1500, 64]
    directions = [DmaDirection.TO_DEVICE] * 4
    if case == "direction":
        directions[1] = DmaDirection.FROM_DEVICE
    mapped = 2 if case in ("wrap", "invalid next") else 4
    addrs = []
    for size, direction in zip(sizes[:mapped], directions):
        phys = mem.alloc_dma_buffer(4096)
        mem.ram.write(phys, bytes([len(addrs) + 1]) * size)
        addrs.append(dma_map(driver, phys, size, direction, ring=rid))
    # (device address, size) per access, in ring order
    accesses = [(addr, size) for addr, size in zip(addrs, sizes)]
    if case == "wrap":
        accesses.append(accesses[0])  # entry 1 -> entry 0
    if case == "overrun":
        accesses[2] = (addrs[2], sizes[2] + 1)
    if case == "one byte":
        accesses = [(addr, 1) for addr, _ in accesses]
    if case == "offset":
        accesses = [(addr + 10, size - 10) for addr, size in accesses]
    if case == "stale entry":
        # buffer 0 is unmapped after the first access (no burst end):
        # the entry serves it stale once, then advances to a live rPTE
        accesses = [accesses[0], accesses[0], accesses[1], accesses[1]]
    if case == "tracer":
        TRACE.enable()
    outcomes = []
    for i, (addr, size) in enumerate(accesses):
        if case in ("dirty line", "device domain dirty") and i == 2:
            # A store to the rRING descriptor the driver never flushed.
            coherency.cpu_write(
                driver.device.table_addr + rid * RRING_ENTRY_BYTES, RRING_ENTRY_BYTES
            )
        try:
            outcomes.append(bus.dma_read(BDF, addr, size))
        except (BoundsFault, PermissionFault, StaleReadError) as error:
            outcomes.append((type(error), str(error)))
        if i == 0 and case == "stale entry":
            dma_unmap(driver, addrs[0])
        if i == 0 and case == "prefetch switched off":
            # ``next`` was prefetched; the next advance promotes it but
            # prefetches nothing, so the one after walks the table.
            hardware.prefetch_enabled = False
        if i == 1 and case == "invalid next":
            # The entry after this one was empty when this access
            # prefetched it; map it now, so the next access must walk.
            phys = mem.alloc_dma_buffer(4096)
            addrs.append(dma_map(driver, phys, 1500, DmaDirection.TO_DEVICE, ring=rid))
            accesses.append((addrs[-1], 1500))
    trace = _normalised_trace() if case == "tracer" else None
    TRACE.reset()
    entry = hardware.riotlb.find(BDF, rid)
    return (
        {
            "outcomes": outcomes,
            "entry": None if entry is None else asdict(entry),
            "riotlb": asdict(hardware.riotlb.stats),
            "coherency": asdict(coherency.stats),
            "context_coherency": asdict(hardware.contexts.coherency.stats),
            "dirty_lines": coherency.dirty_lines,
            "dma": asdict(bus.stats),
            "trace": trace,
        },
        fallbacks,
    )


ADVANCE_CASES = (
    "advance",
    "one byte",
    "offset",
    "dirty line",
    "device domain dirty",
    "stale entry",
    "no prefetch",
    "prefetch switched off",
    "wrap",
    "invalid next",
    "overrun",
    "direction",
    "tracer",
)


@pytest.mark.parametrize("case", ADVANCE_CASES)
def test_advance_outcome_and_counters_match_scalar(scalar_build, monkeypatch, case):
    with scalar_build():
        scalar, _ = _advance_outcome(case, monkeypatch)
    columnar, fallbacks = _advance_outcome(case, monkeypatch)
    assert columnar == scalar
    riotlb = scalar["riotlb"]
    outcomes = scalar["outcomes"]
    if case in ("advance", "one byte", "offset", "wrap"):
        # Only the cold first access runs the scalar pair (or its one
        # call for a one-byte access); every advance is fused.
        assert riotlb["prefetch_hits"] == len(outcomes) - 1
        assert fallbacks == [0] * (1 if case == "one byte" else 2)
        assert all(isinstance(out, bytes) for out in outcomes)
    elif case in ("dirty line", "device domain dirty"):
        assert outcomes[2][0] is StaleReadError
    elif case == "stale entry":
        assert riotlb["stale_hits"] == 2  # both calls of the second access
        assert riotlb["prefetch_hits"] == 1
    elif case == "prefetch switched off":
        assert riotlb["prefetch_hits"] == 1
        assert riotlb["sync_walks"] == 2
    elif case == "no prefetch":
        assert riotlb["prefetch_hits"] == 0
        assert riotlb["sync_walks"] == len(outcomes) - 1
    elif case == "invalid next":
        assert riotlb["sync_walks"] == 1
    elif case == "overrun":
        assert outcomes[2][0] is BoundsFault
        assert riotlb["prefetch_hits"] == 3
    elif case == "direction":
        assert outcomes[1][0] is PermissionFault
    elif case == "tracer":
        assert scalar["trace"] and riotlb["prefetch_hits"] == 3
        assert len(fallbacks) == 2 * len(outcomes)


# -- the driver-side frame train -----------------------------------------

#: small Tx rings, so a train fills one partway through
ONE_BUFFER = NicProfile("tiny-1", 10.0, 1, 0, rx_entries=8, tx_entries=8)
TWO_BUFFERS = NicProfile("tiny-2", 40.0, 2, 128, rx_entries=8, tx_entries=8)

FRAMES = [bytes([i]) * size for i, size in enumerate(
    (60, 1448, 1500, 100, 128, 129, 1448, 60, 900, 1448, 1448, 64, 1500)
)]


def _train_script(monkeypatch, mode, profile, traced, per_frame=False):
    """Send FRAMES as trains on a 8-entry Tx ring (7 free slots).

    The first train fits, the second fills the ring partway through,
    the third finds it full; a partial pump, a one-frame train and full
    pumps come between.  ``per_frame`` sends the same frames with one
    ``transmit`` call each, pumping at the same points.
    """
    # Trace events carry the domain ID, drawn from a process-wide
    # counter: restart it so both builds' traces hold the same tag.
    monkeypatch.setattr(page_table, "_domain_ids", itertools.count(1))
    machine = Machine(mode, mem=MemorySystem(size_bytes=1 << 26))
    nic = SimulatedNic(machine.bus, BDF, profile)
    driver = NetDriver(machine, nic, coalesce_threshold=3)
    driver.fill_rx()
    if traced:
        TRACE.enable()
    log = []

    def train(frames):
        if not per_frame:
            return driver.transmit_train(frames)
        posted = 0
        while posted < len(frames) and driver.transmit(frames[posted]):
            posted += 1
        return posted

    log.append(train(FRAMES[:5]))
    log.append(train(FRAMES[5:11]))  # room for 2 of 6
    log.append(train(FRAMES[7:11]))  # ring full
    log.append(driver.pump_tx(3))
    log.append(train(FRAMES[7:11]))  # room for 3 of 4
    log.append(driver.pump_tx())
    log.append(train(FRAMES[10:11]))  # a one-frame train
    log.append(train(FRAMES[11:]))
    log.append(driver.pump_tx())
    driver.flush_tx()
    trace = _normalised_trace() if traced else None
    TRACE.reset()
    tx = driver.tx_ring
    account = driver.account
    return {
        "log": log,
        "trace": trace,
        "cycles": {c.name: v for c, v in account.cycles.items()},
        "events": {c.name: v for c, v in account.events.items()},
        "total": account.total(),
        "driver": asdict(driver.stats),
        "nic": asdict(nic.stats),
        "wire": list(nic.wire),
        "tx_ring": machine.mem.ram.read(tx.base_phys, tx.size_bytes),
        "head_tail": (tx.head, tx.tail),
        "metrics": collect_machine_metrics(machine),
    }


TRAIN_MODES = (Mode.NONE, Mode.STRICT, Mode.DEFER, Mode.RIOMMU, Mode.RIOMMU_NC)


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("profile", [ONE_BUFFER, TWO_BUFFERS], ids=lambda p: p.name)
@pytest.mark.parametrize("mode", TRAIN_MODES, ids=lambda m: m.label)
def test_train_matches_scalar(scalar_build, monkeypatch, mode, profile, traced):
    with scalar_build():
        scalar = _train_script(monkeypatch, mode, profile, traced)
    columnar = _train_script(monkeypatch, mode, profile, traced)
    assert columnar == scalar
    # (posted, pumped) counts: under the tracer a train is one frame
    if traced:
        assert scalar["log"] == [1, 1, 1, 3, 1, 1, 1, 1, 2]
    else:
        assert scalar["log"] == [5, 2, 0, 3, 3, 7, 1, 2, 3]
    assert scalar["driver"]["packets_transmitted"] == len(scalar["wire"])


@pytest.mark.parametrize("profile", [ONE_BUFFER, TWO_BUFFERS], ids=lambda p: p.name)
@pytest.mark.parametrize("mode", [Mode.STRICT, Mode.RIOMMU], ids=lambda m: m.label)
def test_train_matches_per_frame_transmits(monkeypatch, mode, profile):
    train = _train_script(monkeypatch, mode, profile, traced=False)
    per_frame = _train_script(monkeypatch, mode, profile, traced=False, per_frame=True)
    assert train == per_frame


def test_empty_payload_in_a_train_raises_after_the_frames_before_it(scalar_build):
    def run():
        machine = Machine(Mode.RIOMMU, mem=MemorySystem(size_bytes=1 << 24))
        driver = NetDriver(machine, SimulatedNic(machine.bus, BDF, ONE_BUFFER))
        with pytest.raises(ValueError, match="non-empty"):
            driver.transmit_train([b"a" * 64, b""])
        return driver.tx_ring.tail, len(driver._tx_posted)

    with scalar_build():
        scalar = run()
    assert run() == scalar == (1, 1)


# -- whole cells -----------------------------------------------------------


@pytest.mark.parametrize("observe", ["off", "full"])
@pytest.mark.parametrize("mode", [Mode.NONE, Mode.RIOMMU, Mode.RIOMMU_NC], ids=lambda m: m.label)
@pytest.mark.parametrize("workload", ["stream", "apache 1M"])
@pytest.mark.parametrize("setup", [MLX_SETUP, BRCM_SETUP], ids=lambda s: s.name)
def test_cells_match_scalar(scalar_build, setup, workload, mode, observe):
    config = RunConfig(fast=True, observe=observe)
    with scalar_build():
        scalar = run_with_config(setup, mode, workload, config)
    columnar = run_with_config(setup, mode, workload, config)
    assert columnar.to_dict() == scalar.to_dict()
    assert columnar.metrics == scalar.metrics
    assert columnar.obs == scalar.obs
