"""Netperf workload models: TCP stream and UDP request-response.

Both run the *functional* simulation — real rings, real mappings, real
DMAs — and convert the measured cycles-per-packet into throughput /
latency / CPU with the paper's validated model (§3.3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.devices.nic import SimulatedNic
from repro.iommu.context import make_bdf
from repro.kernel.machine import Machine
from repro.kernel.net_driver import NetDriver
from repro.modes import Mode
from repro.obs.metrics import collect_machine_metrics
from repro.perf.cycles import Component
from repro.perf.model import (
    ETHERNET_MTU_BYTES,
    request_response,
    throughput_with_line_rate,
)
from repro.sim.results import RunResult
from repro.sim.scheduler import PhasedActor
from repro.sim.setups import Setup

#: default BDF of the simulated NIC
NIC_BDF = make_bdf(0, 3, 0)


def build_machine(setup: Setup, mode: Mode, **machine_kwargs) -> Machine:
    """Create a machine configured with the setup's cost calibration.

    Explicit ``machine_kwargs`` win over the setup's defaults, so
    workloads that model contention (the tenancy scenario) can swap in
    inflated primitive costs without tripping a duplicate-kwarg error.
    """
    machine_kwargs.setdefault("cost_scale", setup.cost_scale(mode))
    machine_kwargs.setdefault("cost_primitives", setup.riommu_primitives)
    return Machine(mode, **machine_kwargs)


@dataclass
class NetperfStream:
    """Netperf TCP stream: saturate one connection with MTU-size packets.

    The sender maps/unmaps every packet's buffers; ~200 completions
    coalesce per Tx interrupt, so rIOMMU pays one rIOTLB invalidation
    per ~200 packets.
    """

    name: str = "stream"
    packets: int = 2000
    warmup: int = 400
    pump_interval: int = 64
    #: extra Machine() arguments (cost policy/overrides for ablations)
    machine_kwargs: Dict = field(default_factory=dict)
    #: extra NetDriver() arguments (ring sizing/coalescing for ablations)
    driver_kwargs: Dict = field(default_factory=dict)

    def _build(self, setup: Setup, mode: Mode) -> Tuple[Machine, NetDriver]:
        """Construct the machine + driver complex one run (or actor) owns."""
        machine = build_machine(setup, mode, **self.machine_kwargs)
        nic = SimulatedNic(machine.bus, NIC_BDF, setup.nic_profile)
        driver_kwargs = dict(self.driver_kwargs)
        driver_kwargs.setdefault("coalesce_threshold", setup.stream_burst)
        driver = NetDriver(machine, nic, **driver_kwargs)
        driver.fill_rx()
        return machine, driver

    def _result(
        self, machine: Machine, driver: NetDriver, setup: Setup, mode: Mode, measured: int
    ) -> RunResult:
        """Fold the finished run's account into the Figure-12 result."""
        account = driver.account
        cycles_per_packet = account.total() / measured
        perf = throughput_with_line_rate(
            cycles_per_packet, setup.clock_hz, setup.nic_profile.line_rate_gbps
        )
        return RunResult(
            setup_name=setup.name,
            mode=mode,
            benchmark=self.name,
            packets=measured,
            cycles_total=account.total(),
            cycles_per_packet=cycles_per_packet,
            throughput_metric=perf.gbps,
            cpu=perf.cpu_utilization,
            gbps=perf.gbps,
            line_rate_limited=perf.line_rate_limited,
            per_packet_breakdown=account.per_packet(measured),
            metrics=collect_machine_metrics(machine),
        )

    def build_actors(self, setup: Setup, mode: Mode) -> List["StreamActor"]:
        """The event-kernel form of this workload: one stream actor."""
        return [StreamActor(self, setup, mode, self.packets)]

    def finalize_events(
        self, actors: List["StreamActor"], setup: Setup, mode: Mode
    ) -> RunResult:
        """Build the result from completed actors (event-kernel path)."""
        actor = actors[0]
        return self._result(actor.machine, actor.driver, setup, mode, actor.measured)


class StreamActor(PhasedActor):
    """:class:`NetperfStream` as an event-kernel actor.

    One burst = one pump interval of transmits (the driver's natural
    synchronization point: Tx completions coalesce and unmap there).
    """

    progress_in_packets = True

    def _burst(self, count: int) -> bool:
        """Transmit up to the next pump boundary.

        Returns True when the phase (including its trailing pump+flush)
        has completed.
        """
        driver, setup = self.driver, self.setup
        interval = self.workload.pump_interval
        payload = b"\xab" * ETHERNET_MTU_BYTES
        while self.i < count:
            # A train runs up to the next pump boundary at most.
            todo = min(interval - self.i % interval, count - self.i)
            posted = driver.transmit_train([payload] * todo)
            if posted:
                driver.account.stage_many(
                    Component.PROCESSING, setup.c_none_stream, posted
                )
                self.i += posted
                if self.i % interval == 0:
                    driver.pump_tx()
                    if self.i < count:
                        return False
            else:
                driver.pump_tx()
        driver.pump_tx()
        driver.flush_tx()
        return True


@dataclass
class NetperfRR:
    """Netperf UDP request-response: 1-byte ping-pong, strictly serial.

    At RR rates the NIC's adaptive interrupt moderation still groups a
    handful of completions per interrupt (the round trip is about the
    same length as the moderation window), so unmap bursts are short —
    a few messages — and rIOMMU's per-burst invalidation is amortized
    over only ``burst`` transactions rather than ~200.  That is why its
    RR win is modest (Table 3).
    """

    name: str = "rr"
    transactions: int = 400
    warmup: int = 100
    #: completions grouped per interrupt by adaptive moderation
    burst: int = 4
    #: Rx buffers posted for the tiny messages (single-buffer descriptors)
    rx_buffer_bytes: int = 64
    #: extra Machine() arguments (cost policy/overrides for ablations)
    machine_kwargs: Dict = field(default_factory=dict)
    #: extra NetDriver() arguments (ring sizing/coalescing for ablations)
    driver_kwargs: Dict = field(default_factory=dict)

    def _build(self, setup: Setup, mode: Mode) -> Tuple[Machine, NetDriver]:
        """Construct the machine + driver complex one run (or actor) owns."""
        machine = build_machine(setup, mode, **self.machine_kwargs)
        nic = SimulatedNic(machine.bus, NIC_BDF, setup.nic_profile)
        driver_kwargs = dict(self.driver_kwargs)
        driver_kwargs.setdefault("coalesce_threshold", self.burst)
        driver_kwargs.setdefault("mtu", self.rx_buffer_bytes)
        driver = NetDriver(machine, nic, **driver_kwargs)
        driver.fill_rx()
        return machine, driver

    def _result(
        self, machine: Machine, driver: NetDriver, setup: Setup, mode: Mode
    ) -> RunResult:
        """Fold the finished run's account into the Figure-12 result."""
        account = driver.account
        processing = account.cycles.get(Component.PROCESSING, 0.0)
        overhead_per_txn = (account.total() - processing) / self.transactions
        busy_per_txn = 2 * setup.rr_stack_cycles_per_packet
        latency = request_response(
            setup.rr_base_rtt_us, overhead_per_txn, busy_per_txn, setup.clock_hz
        )
        packets = 2 * self.transactions
        return RunResult(
            setup_name=setup.name,
            mode=mode,
            benchmark=self.name,
            packets=packets,
            cycles_total=account.total(),
            cycles_per_packet=account.total() / packets,
            throughput_metric=latency.transactions_per_second,
            cpu=latency.cpu_utilization,
            transactions_per_sec=latency.transactions_per_second,
            rtt_us=latency.rtt_us,
            per_packet_breakdown=account.per_packet(packets),
            metrics=collect_machine_metrics(machine),
        )

    def build_actors(self, setup: Setup, mode: Mode) -> List["RRActor"]:
        """The event-kernel form of this workload: one RR actor."""
        return [RRActor(self, setup, mode, self.transactions)]

    def finalize_events(
        self, actors: List["RRActor"], setup: Setup, mode: Mode
    ) -> RunResult:
        """Build the result from completed actors (event-kernel path)."""
        actor = actors[0]
        return self._result(actor.machine, actor.driver, setup, mode)


class RRActor(PhasedActor):
    """:class:`NetperfRR` as an event-kernel actor.

    One burst = one interrupt-moderation window (``burst`` ping-pong
    transactions): completions flush, Tx/Rx buffers unmap, and — under
    rIOMMU — the per-burst invalidation fires exactly there, so burst
    boundaries are the workload's synchronization events.
    """

    def _burst(self, count: int) -> bool:
        """Exchange up to the next moderation boundary."""
        driver, setup = self.driver, self.setup
        moderation = self.workload.burst
        while self.i < count:
            # Send the 1-byte request ...
            while not driver.transmit(b"\x01"):
                driver.pump_tx()
            driver.pump_tx()
            driver.account.stage(
                Component.PROCESSING, setup.rr_stack_cycles_per_packet
            )
            # ... and receive the 1-byte response.
            driver.nic.deliver_frame(b"\x02")
            driver.account.stage(
                Component.PROCESSING, setup.rr_stack_cycles_per_packet
            )
            self.i += 1
            # Interrupt moderation delivers completions every few messages.
            if self.i % moderation == 0:
                driver.flush_tx()
                driver.flush_rx()
                if self.i < count:
                    return False
        driver.flush_tx()
        driver.flush_rx()
        return True
