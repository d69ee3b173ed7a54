"""The structured tracing bus: typed events on a modelled-cycle timeline.

The paper's methodology (§3.3) reduces IOMMU cost to a sum of
per-primitive driver events — map, unmap, IOTLB invalidation,
page-table write, coherency flush.  The simulator executes each of
those primitives for real; this module lets you *see* them.  Every hot
layer emits typed events through the process-local :data:`TRACE`
singleton, guarded so that a disabled tracer costs exactly one
attribute check per site::

    if TRACE.active:
        TRACE.emit("translate", bdf=bdf, iova=iova, layer="iommu")

Timestamps are **modelled cycles**, not wall-clock: the tracer keeps a
cursor that advances by every cycle charged to any
:class:`~repro.perf.cycles.CycleAccount`, so an event's ``ts`` answers
"after how many charged CPU cycles did this happen".  The hardware
datapath (translations, DMAs) is modelled as free for the core — the
paper's central point — so hardware events share the timestamp of the
software work around them.

Tracing is strictly observational: enabling it may never change a
modelled number.  The parity tests pin figure-12 results bit-identical
with tracing on and off.

Besides recording, the tracer supports streaming *sinks*
(:meth:`Tracer.subscribe`): callables invoked as ``sink(ts, etype,
fields)`` for every event, without the event being retained.  The
cycle-attribution profiler, the protection auditor and the timeline
are sinks, so observing a long run costs O(1) memory instead of a full
trace buffer.  Sinks see every event type regardless of the recording
``filter`` (the filter only gates what is *stored*), and a tracer with
sinks but no recording is ``active``.

Cycle charges, the hottest event, have a *typed channel*: a sink with
an ``on_charge`` method gets ``sink.on_charge(ts, account, component,
cycles, events, n)`` with the account and component objects instead of
a ``cycle_charge`` dict, which is only built for a recording or a sink
without ``on_charge``.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: Every event type the bus can carry (the schema's closed vocabulary).
EVENT_TYPES = frozenset(
    {
        # driver-side mapping primitives
        "map",
        "unmap",
        # hardware datapath
        "translate",
        "iotlb_hit",
        "iotlb_miss",
        "iotlb_stale",
        "invalidate",
        # queued-invalidation interface
        "qi_submit",
        "qi_wait",
        # protection outcomes
        "fault",
        # device-initiated memory traffic
        "dma_read",
        "dma_write",
        # cycle accounting (drives the timeline cursor)
        "cycle_charge",
        "cycle_reset",
    }
)

#: One recorded event: (timestamp in modelled cycles, type, payload).
TraceEvent = Tuple[float, str, Dict[str, object]]

#: A streaming observer: called as ``sink(ts, etype, fields)`` per event.
TraceSink = Callable[[float, str, Dict[str, object]], None]

#: One event type's consumer inside a sink: ``handler(ts, fields)``.
Handler = Callable[[float, Dict[str, object]], None]


def route(*tables: Dict[str, Handler]) -> Dict[str, Tuple[Handler, ...]]:
    """Merge per-event-type handler tables into one dispatch table.

    Every event type gets an entry (empty when nothing handles it), so a
    sink dispatches with one subscript; handlers of one type run in
    argument order.
    """
    merged: Dict[str, Tuple[Handler, ...]] = dict.fromkeys(EVENT_TYPES, ())
    for table in tables:
        for etype, handler in table.items():
            merged[etype] += (handler,)
    return merged


def _checked(names: frozenset) -> Optional[frozenset]:
    unknown = names - EVENT_TYPES
    if unknown:
        raise ValueError(
            f"unknown trace event type(s) {sorted(unknown)}; "
            f"known: {', '.join(sorted(EVENT_TYPES))}"
        )
    return names or None


def parse_filter(spec: Optional[str]) -> Optional[frozenset]:
    """Parse a ``--trace-filter`` comma-separated event list.

    Returns None for an empty/absent spec (= record everything);
    raises ValueError naming the unknown types otherwise.
    """
    if not spec:
        return None
    return _checked(frozenset(part.strip() for part in spec.split(",") if part.strip()))


class Tracer:
    """Process-local event recorder with a modelled-cycle clock.

    ``active`` is the one-word gate every instrumentation site checks;
    everything else only runs once a site has passed it.  ``now`` is
    the cumulative modelled cycles charged process-wide since
    :meth:`reset` — see the module docstring for its semantics.
    """

    __slots__ = (
        "active",
        "recording",
        "sinks",
        "typed",
        "untyped",
        "events",
        "now",
        "filter",
        "max_events",
        "dropped",
    )

    def __init__(self) -> None:
        #: True when any site should emit: recording on, or sinks present
        self.active: bool = False
        #: True when events are being stored into :attr:`events`
        self.recording: bool = False
        #: streaming observers fed every event (never filtered, never stored)
        self.sinks: Tuple[TraceSink, ...] = ()
        #: the sinks taking charges on the typed channel, and the rest
        self.typed: Tuple[TraceSink, ...] = ()
        self.untyped: Tuple[TraceSink, ...] = ()
        self.events: List[TraceEvent] = []
        self.now: float = 0.0
        self.filter: Optional[frozenset] = None
        #: optional cap on recorded events; overflow is counted, not kept
        self.max_events: Optional[int] = None
        self.dropped: int = 0

    # -- lifecycle -------------------------------------------------------

    def enable(
        self,
        filter: Optional[Iterable[str]] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Start recording (clears any previous trace).

        ``filter`` restricts recording to the given event types (the
        clock still advances on filtered-out charges); ``max_events``
        bounds memory on very long runs — overflowing events are
        counted in :attr:`dropped` instead of stored.
        """
        self.filter = None if filter is None else _checked(frozenset(filter))
        self.events = []
        self.now = 0.0
        self.max_events = max_events
        self.dropped = 0
        self.recording = True
        self.active = True

    def disable(self) -> None:
        """Stop recording; the captured events stay readable.

        Subscribed sinks keep streaming (the tracer stays ``active``
        until the last sink unsubscribes).
        """
        self.recording = False
        self.active = bool(self.sinks)

    def reset(self) -> None:
        """Drop everything — events and sinks — and return to disabled."""
        self.active = False
        self.recording = False
        self._set_sinks(())
        self.events = []
        self.now = 0.0
        self.filter = None
        self.max_events = None
        self.dropped = 0

    # -- streaming sinks -------------------------------------------------

    def subscribe(self, sink: TraceSink) -> None:
        """Attach a streaming sink; activates the tracer if it was off.

        The sink is called as ``sink(ts, etype, fields)`` for every
        event, including types excluded by the recording ``filter``.
        A sink with an ``on_charge`` method takes cycle charges on the
        typed channel instead (see the module docstring).  Sinks must
        not mutate ``fields`` and must never charge cycles (that would
        feed the bus its own output).
        """
        self._set_sinks(self.sinks + (sink,))
        self.active = True

    def unsubscribe(self, sink: TraceSink) -> None:
        """Detach a previously subscribed sink (no-op if absent)."""
        self._set_sinks(tuple(s for s in self.sinks if s is not sink))
        self.active = self.recording or bool(self.sinks)

    def _set_sinks(self, sinks: Tuple[TraceSink, ...]) -> None:
        self.sinks = sinks
        self.typed = tuple(s for s in sinks if hasattr(s, "on_charge"))
        self.untyped = tuple(s for s in sinks if not hasattr(s, "on_charge"))

    def _quarantine(
        self, sink: TraceSink, error: BaseException, etype: str
    ) -> None:
        """Detach a sink that raised, loudly but non-fatally.

        Observation must never corrupt the observed run: the cycle
        charge (or event) that triggered the sink has already been
        applied to its account, so the only safe response is to drop
        the faulty sink, warn, and carry on.  Other sinks keep
        streaming.  The warning names the offending sink class and the
        event type whose delivery raised, so a quarantined profiler or
        auditor is diagnosable from the warning alone.
        """
        import warnings

        self.unsubscribe(sink)
        warnings.warn(
            f"trace sink {type(sink).__name__} ({sink!r}) raised {error!r} "
            f"while handling a {etype!r} event and was detached; "
            "the run continues unobserved by it",
            RuntimeWarning,
            stacklevel=3,
        )

    # -- emission --------------------------------------------------------

    def emit(self, etype: str, **fields: object) -> None:
        """Record one event at the current modelled-cycle timestamp.

        Callers guard with ``if TRACE.active`` so a disabled tracer
        costs one attribute check; the re-check here only defends
        against unguarded use.
        """
        if not self.active:
            return
        for sink in self.sinks:
            try:
                sink(self.now, etype, fields)
            except Exception as error:
                self._quarantine(sink, error, etype)
        if self.recording:
            self._record(self.now, etype, fields)

    def _record(self, ts: float, etype: str, fields: Dict[str, object]) -> None:
        f = self.filter
        if f is not None and etype not in f:
            return
        if self.max_events is not None and len(self.events) >= self.max_events:
            self.dropped += 1
            return
        self.events.append((ts, etype, fields))

    def charge(self, account, component, cycles: float, events: int, n: int) -> None:
        """Deliver one cycle charge on the typed channel; advance the cursor.

        :class:`~repro.perf.cycles.CycleAccount` calls this (guarded by
        ``TRACE.active``); the ``cycle_charge`` dict is built only for a
        recording or an untyped sink.
        """
        ts = self.now
        self.now = ts + cycles * n
        for sink in self.typed:
            try:
                sink.on_charge(ts, account, component, cycles, events, n)
            except Exception as error:
                self._quarantine(sink, error, "cycle_charge")
        if self.recording or self.untyped:
            self._charge_event(
                ts, account.trace_id, component.value, cycles, events, n, account.label
            )

    def emit_charge(
        self,
        acct: int,
        comp: str,
        cycles: float,
        events: int,
        n: int,
        label: Optional[str] = None,
    ) -> None:
        """Record one cycle charge as a dict event and advance the cursor.

        ``acct`` identifies the charged :class:`CycleAccount`, ``comp``
        is the Table 1 component, ``cycles`` the per-invocation cost,
        ``events`` the invocations per charge and ``n`` the repeat
        count (so ``charge_many`` folds arrive as one event).  ``label``
        is the account's layer tag, carried only when set.  The cursor
        advances by ``cycles * n`` even when ``cycle_charge`` is
        filtered out — the clock must not depend on the filter.  Only
        untyped sinks see it: typed ones need the account itself.
        """
        ts = self.now
        self.now = ts + cycles * n
        self._charge_event(ts, acct, comp, cycles, events, n, label)

    def _charge_event(self, ts, acct, comp, cycles, events, n, label) -> None:
        fields: Dict[str, object] = {
            "acct": acct,
            "comp": comp,
            "cycles": cycles,
            "events": events,
            "n": n,
        }
        if label is not None:
            fields["label"] = label
        for sink in self.untyped:
            try:
                sink(ts, "cycle_charge", fields)
            except Exception as error:
                self._quarantine(sink, error, "cycle_charge")
        if self.recording:
            self._record(ts, "cycle_charge", fields)

    def emit_reset(self, acct: int) -> None:
        """Record that an account is being zeroed (e.g. after warmup).

        ``CycleAccount.reset`` emits this *before* clearing, so sinks can
        still read the totals the reset discards.
        """
        self.emit("cycle_reset", acct=acct)

    # -- introspection ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.events)

    def event_counts(self) -> Dict[str, int]:
        """Recorded events per type, sorted by type name."""
        counts: Dict[str, int] = {}
        for _ts, etype, _fields in self.events:
            counts[etype] = counts.get(etype, 0) + 1
        return dict(sorted(counts.items()))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.active else "off"
        return f"Tracer({state}, {len(self.events)} events, now={self.now:.0f})"


#: The process-local tracing bus every instrumented layer emits into.
TRACE = Tracer()
