"""Apache/ApacheBench workload model (paper §5.1): static-file HTTP serving.

Each request costs heavy application-side processing (~245K cycles —
calibrated so the no-IOMMU setups serve the paper's ~12K requests/s of
1 KB files) plus the per-packet network work: a small request frame in,
the file as MTU-size frames out, and the TCP connection-management
frames ApacheBench's non-keep-alive requests incur.

For 1 KB files the application cycles dominate and the IOMMU matters
little; for 1 MB files the ~725 data frames per request make the
workload behave like Netperf stream (paper §5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

from repro.devices.nic import SimulatedNic
from repro.kernel.machine import Machine
from repro.kernel.net_driver import NetDriver
from repro.kernel.stack import DEFAULT_APP_COSTS
from repro.modes import Mode
from repro.obs.metrics import collect_machine_metrics
from repro.perf.cycles import Component
from repro.perf.model import requests_per_second
from repro.sim.netperf import NIC_BDF, build_machine
from repro.sim.results import RunResult
from repro.sim.scheduler import PhasedActor
from repro.sim.setups import Setup

#: TCP MSS carried per full-size response frame
MSS_BYTES = 1448
#: request frame size (GET line + headers)
REQUEST_BYTES = 200
#: connection-management frames per non-keep-alive request: SYN in,
#: SYN-ACK out, FIN in, FIN-ACK out
CONN_RX_FRAMES = 2
CONN_TX_FRAMES = 2


@dataclass
class ApacheBench:
    """ApacheBench against a static file of ``file_bytes``."""

    file_bytes: int
    requests: int = 60
    warmup: int = 10
    app_cycles: float = DEFAULT_APP_COSTS.apache_request
    #: extra Machine() arguments (cost policy/overrides for ablations)
    machine_kwargs: Dict = field(default_factory=dict)

    @property
    def name(self) -> str:
        """Benchmark label matching the paper's figure captions."""
        if self.file_bytes >= 1 << 20:
            return "apache 1M"
        return "apache 1K"

    @property
    def response_frames(self) -> int:
        """Full-size frames needed to carry the file."""
        return max(1, (self.file_bytes + MSS_BYTES - 1) // MSS_BYTES)

    @property
    def frames_per_request(self) -> int:
        """All frames the server handles per request."""
        return 1 + CONN_RX_FRAMES + self.response_frames + CONN_TX_FRAMES

    def _build(self, setup: Setup, mode: Mode) -> Tuple[Machine, NetDriver]:
        """Construct the machine + driver complex one run (or actor) owns."""
        machine = build_machine(setup, mode, **self.machine_kwargs)
        nic = SimulatedNic(machine.bus, NIC_BDF, setup.nic_profile)
        driver = NetDriver(machine, nic, coalesce_threshold=setup.stream_burst)
        driver.fill_rx()
        return machine, driver

    def _result(
        self, machine: Machine, driver: NetDriver, setup: Setup, mode: Mode
    ) -> RunResult:
        """Fold the finished run's account into the Figure-12 result."""
        account = driver.account
        packets = self.requests * self.frames_per_request
        cycles_per_request = account.total() / self.requests
        perf = requests_per_second(
            cycles_per_request,
            setup.clock_hz,
            line_rate_gbps=setup.nic_profile.line_rate_gbps,
            bytes_per_request=self.file_bytes + REQUEST_BYTES,
        )
        return RunResult(
            setup_name=setup.name,
            mode=mode,
            benchmark=self.name,
            packets=packets,
            cycles_total=account.total(),
            cycles_per_packet=account.total() / packets,
            throughput_metric=perf.pps,
            cpu=perf.cpu_utilization,
            requests_per_sec=perf.pps,
            gbps=perf.gbps,
            line_rate_limited=perf.line_rate_limited,
            per_packet_breakdown=account.per_packet(packets),
            metrics=collect_machine_metrics(machine),
        )

    def _serve_one(self, driver: NetDriver, setup: Setup) -> None:
        """Serve one complete non-keep-alive request."""
        # Inbound: SYN, request, FIN.
        for frame in (b"S" * 60, b"G" * REQUEST_BYTES, b"F" * 60):
            driver.nic.deliver_frame(frame)
            driver.account.stage(Component.PROCESSING, setup.c_none_stream)
        # Outbound: SYN-ACK, the file, FIN-ACK — as trains of frames,
        # pumping the device whenever the Tx ring is full.
        full, last = divmod(self.file_bytes, MSS_BYTES)
        frames = [b"A" * 60] + [b"D" * MSS_BYTES] * full
        if last:
            frames.append(b"D" * last)
        frames.append(b"K" * 60)
        sent = 0
        while sent < len(frames):
            posted = driver.transmit_train(frames[sent:])
            if posted:
                driver.account.stage_many(
                    Component.PROCESSING, setup.c_none_stream, posted
                )
                sent += posted
            else:
                driver.pump_tx()
        driver.pump_tx()
        # The application work for this request.
        driver.account.stage(Component.PROCESSING, self.app_cycles)

    def build_actors(self, setup: Setup, mode: Mode) -> List["ApacheActor"]:
        """The event-kernel form of this workload: one server actor."""
        return [ApacheActor(self, setup, mode, self.requests)]

    def finalize_events(
        self, actors: List["ApacheActor"], setup: Setup, mode: Mode
    ) -> RunResult:
        """Build the result from completed actors (event-kernel path)."""
        actor = actors[0]
        return self._result(actor.machine, actor.driver, setup, mode)


class ApacheActor(PhasedActor):
    """:class:`ApacheBench` as an event-kernel actor.

    One burst = one served request — connection setup, the whole file
    (up to ~725 frames for 1 MB), teardown, and the application work.
    Every request ends at a pump boundary, the workload's natural
    synchronization point.
    """

    def _burst(self, count: int) -> bool:
        """Serve one request; True once the phase (incl. tail) completes."""
        driver = self.driver
        if self.i < count:
            self.workload._serve_one(driver, self.setup)
            self.i += 1
            if self.i < count:
                return False
        driver.pump_tx()
        driver.flush_tx()
        driver.flush_rx()
        return True
