"""The full observe tier: one fused observer per run.

:class:`RunObserver` makes the paper's attribution claim (IOMMU cost
*is* Table 1's per-primitive driver cycles) observable per run, with
everything that needs event order: it bundles the cycle-attribution
profiler (:mod:`repro.obs.attribution`), the protection-window auditor
(:mod:`repro.obs.audit`), the timeline sampler
(:mod:`repro.obs.timeline`) and log2 histograms of per-packet cycles
and map→unmap mapping lifetimes into one ``obs`` summary.

It is a single trace sink: each event type is dispatched through one
handler table to only the consumers that need it, and cycle charges
arrive on the tracer's typed channel without a fields dict.
Observation is strictly observational: golden results are
bit-identical with the observer on or off (the parity tests pin this).

Enable per call (``run_benchmark(..., observe=True)``), or process-wide
with the ``REPRO_OBSERVE`` environment variable — which the parallel
runner's worker processes inherit, so grid runs stay parallel while
each cell observes itself.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.obs.attribution import CycleProfiler, reconcile
from repro.obs.audit import ProtectionAuditor
from repro.obs.metrics import Log2Histogram, MetricsRegistry
from repro.obs.timeline import TimelineSampler
from repro.obs.tracer import TRACE, route
from repro.perf.cycles import Component

#: Schema identifier stamped into every ``RunResult.obs`` summary.
OBS_SCHEMA = "riommu-repro/obs/v1"

# The observe knob lives in repro.config (the single RunConfig.from_env
# path); the historical names stay importable from here.
from repro.config import OBSERVE_ENV, observe_from_env

_PROCESSING = Component.PROCESSING


def observe_requested() -> bool:
    """True when ``REPRO_OBSERVE`` asks for any per-run observation."""
    return observe_from_env() != "off"


class RunObserver:
    """Profiler + auditor + timeline + distribution histograms for one run.

    Subscribe/unsubscribe via the context-manager protocol::

        with RunObserver() as obs:
            result = run_events(bench, setup, mode)
        result.obs = obs.summary(result)

    The per-packet cycle histogram holds the deltas between successive
    PROCESSING charges of one account; the lifetime histogram, the
    cycles between a mapping's map and unmap.  Nothing retains events.
    """

    def __init__(
        self,
        clock_hz: Optional[float] = None,
        timeline_window: Optional[float] = None,
    ) -> None:
        self.profiler = CycleProfiler()
        self.registry = MetricsRegistry()
        histogram = self.registry.log2_histogram
        #: cycles between successive per-packet PROCESSING charges
        self.packet_cycles: Log2Histogram = histogram("packet_cycles")
        #: modelled cycles each mapping stayed live (map -> unmap)
        self.mapping_lifetime: Log2Histogram = histogram("mapping_lifetime")
        #: cycles each torn-down mapping stayed reachable
        self.window_cycles: Log2Histogram = histogram("stale_window_cycles")
        self.auditor = ProtectionAuditor(window_histogram=self.window_cycles)
        #: fixed-width cycle-window time-series of the whole run; reads
        #: the profiler's accounts and the auditor's open-window gauge
        self.timeline = TimelineSampler(
            window_cycles=timeline_window,
            clock_hz=clock_hz,
            auditor=self.auditor,
            profiler=self.profiler,
        )
        #: account -> ts of its previous PROCESSING charge
        self._last_processing: Dict[object, float] = {}
        #: mapping key -> map-event ts (baseline and rIOMMU keys differ)
        self._live_maps: Dict[Tuple, float] = {}
        self._finalized = False
        # The auditor runs before the timeline, which samples its gauge.
        self._route = route(
            self.profiler.handlers,
            self.auditor.handlers,
            self.timeline.handlers,
            dict(map=self._on_map, unmap=self._on_unmap, cycle_reset=self._on_reset),
        )

    # -- sink entry points -----------------------------------------------

    def __call__(self, ts: float, etype: str, fields: Dict[str, object]) -> None:
        if ts < self.timeline.edge:
            for handler in self._route[etype]:
                handler(ts, fields)
        else:
            self.timeline.dispatch(ts, self._route[etype], fields)

    def on_charge(self, ts, account, component, cycles, events, n) -> None:
        if account not in self.profiler.views:
            self.profiler.register(account)
        self.timeline.count_charge(ts, component, cycles, events, n)
        if component is _PROCESSING:
            prev = self._last_processing.get(account)
            if prev is not None:
                self.packet_cycles.observe(ts - prev)
            self._last_processing[account] = ts

    # -- event handlers --------------------------------------------------

    @staticmethod
    def _map_key(fields: Dict[str, object]) -> Tuple:
        if fields["layer"] == "riommu":
            return (fields["bdf"], fields["rid"], fields["rentry"])
        return (fields["bdf"], fields["device_addr"])

    def _on_map(self, ts: float, fields: Dict[str, object]) -> None:
        self._live_maps[self._map_key(fields)] = ts

    def _on_unmap(self, ts: float, fields: Dict[str, object]) -> None:
        opened = self._live_maps.pop(self._map_key(fields), None)
        if opened is not None:
            self.mapping_lifetime.observe(ts - opened)

    def _on_reset(self, ts: float, fields: Dict[str, object]) -> None:
        # Phase boundary: the next packet's delta would span the reset,
        # so restart the delta chain (warmup packets still contributed
        # their own deltas before this point).
        acct = fields["acct"]
        for account in self._last_processing:
            if account.trace_id == acct:
                del self._last_processing[account]
                return

    # -- lifecycle -------------------------------------------------------

    def __enter__(self) -> "RunObserver":
        # Durations are differences of absolute timestamps, so a clock
        # left running by earlier runs would round them differently:
        # restart it at 0 unless a recording or another sink reads it.
        if not TRACE.recording and not TRACE.sinks:
            TRACE.now = 0.0
        self.timeline.origin = TRACE.now
        TRACE.subscribe(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        TRACE.unsubscribe(self)
        self.finalize()

    def finalize(self, end_ts: Optional[float] = None) -> None:
        """Close still-open vulnerability windows at the run's end."""
        if not self._finalized:
            final_ts = TRACE.now if end_ts is None else end_ts
            self.auditor.finalize(final_ts)
            self.timeline.finalize(final_ts)
            self._finalized = True

    # -- summary ---------------------------------------------------------

    def percentiles(self) -> Dict[str, Dict[str, float]]:
        """p50/p95/p99 for each tracked distribution."""
        return {
            hist.name: hist.percentiles()
            for hist in (self.packet_cycles, self.mapping_lifetime)
        }

    def summary(self, result=None) -> Dict[str, object]:
        """One JSON-friendly dict for ``RunResult.obs``.

        With ``result`` given, the profile section gains the
        reconciliation fields (``reconciles`` is the bit-exact equality
        the acceptance tests pin) and the audit section the mode's
        expectation.
        """
        self.finalize()
        profile = self.profiler.summary()
        audit = self.auditor.report()
        if result is not None:
            reconcile(profile, result)
            audit["mode"] = result.mode.label
            audit["mode_expected_safe"] = result.mode.safe
        return {
            "schema": OBS_SCHEMA,
            "profile": profile,
            "audit": audit,
            "percentiles": self.percentiles(),
            "metrics": self.registry.snapshot(),
            "timeline": self.timeline.summary(),
        }
