"""Time-resolved observability: the timeline sampler (see ISSUE 5).

The paper's argument is inherently temporal — deferred-mode
vulnerability windows open and close over modelled cycles (§3.2), the
defer queue flushes in bursts, and rIOTLB behaviour depends on ring
phase — but the profiler and auditor only produce end-of-run
aggregates.  :class:`TimelineSampler` is a streaming trace sink that
folds the event stream into fixed-width cycle-window time-series:

* cycles charged per Table 1 component (cumulative *and* per-window),
* packets retired and modelled throughput (Gbps via the §3.3 model),
* (r)IOTLB hit / miss / stale counts and the per-window hit rate,
* invalidation-queue depth and defer-queue occupancy (watermarks),
* open-vulnerability-window count (via an attached
  :class:`~repro.obs.audit.ProtectionAuditor`),
* map/unmap/invalidate/fault/DMA counts and DMA bytes.

Two exactness properties, both pinned by ``tests/test_timeline.py``:

1. **Bit-exact reconciliation.**  The cumulative per-component cycle
   series are snapshots of the charged accounts themselves, so the
   final window's ``cum`` snapshot sums to ``RunResult.cycles_total``
   to the last bit (:func:`timeline_total`) in every figure-12 mode.
   Per-window ``cycles`` deltas are derived from successive snapshots
   and are display-only.
2. **Deterministic merging.**  :func:`merge_timelines` folds per-cell
   summaries in the caller's (serial grid) order, summing counters and
   carry-forward cumulative series window by window — so a merged
   timeline is bit-identical no matter how many ``--jobs`` workers
   produced the cells.

Timelines serialise to JSONL (schema ``riommu-repro/timeline/v1``):
one ``timeline_meta`` header line, then one ``window`` record per
non-empty window.  :func:`render_timeline` draws the series as ASCII
sparklines for ``repro report --timeline`` and the HTML dashboard.
"""

from __future__ import annotations

import json
import math
from typing import Dict, Iterable, List, Optional, Sequence

from repro.obs.attribution import CycleProfiler
from repro.obs.tracer import TRACE, route
from repro.perf.cycles import Component

#: Schema identifier stamped into every exported timeline.
TIMELINE_SCHEMA = "riommu-repro/timeline/v1"

# The knob name lives in repro.config (the single RunConfig.from_env
# path); the historical name stays importable from here.
from repro.config import TIMELINE_WINDOW_ENV, timeline_window_from_env

#: Default window width: ~25 strict-mode packets per window, giving
#: fast runs tens of windows and full runs hundreds.
DEFAULT_WINDOW_CYCLES = 50_000.0

_PROCESSING = Component.PROCESSING

#: Per-window event counters, in presentation order.
_COUNTERS = (
    "packets",
    "charges",
    "maps",
    "unmaps",
    "unmaps_deferred",
    "invalidates",
    "qi_submits",
    "iotlb_hits",
    "iotlb_misses",
    "iotlb_stale",
    "faults",
    "dma_reads",
    "dma_writes",
    "dma_bytes",
    "resets",
)

#: Per-window gauge watermarks (max of a running level over the window).
_GAUGES = ("qi_depth_max", "defer_pending_max", "open_windows_max")

_WINDOW_KEYS = _COUNTERS + _GAUGES

#: Event types whose only timeline effect is one counter increment.
_COUNTED = {
    "cycle_reset": "resets",
    "iotlb_hit": "iotlb_hits",
    "iotlb_miss": "iotlb_misses",
    "iotlb_stale": "iotlb_stale",
    "map": "maps",
    "fault": "faults",
}


def window_cycles_requested() -> float:
    """The sampling window width, honouring ``REPRO_TIMELINE_WINDOW``."""
    override = timeline_window_from_env()
    return override if override is not None else DEFAULT_WINDOW_CYCLES


class TimelineSampler:
    """A trace sink folding the event stream into cycle-window series.

    Use as ``TRACE.subscribe(sampler)``, or let
    :class:`~repro.obs.profile.RunObserver` attach one per run.  Windows
    start at :attr:`origin` (the observer sets it at subscribe time;
    otherwise the first event's timestamp).

    Cumulative cycles are snapshots of the accounts a
    :class:`~repro.obs.attribution.CycleProfiler` registered — the
    sampler's own, or ``profiler``, which it then only reads.  A window
    closes as soon as a charge moves the clock past its edge, so its
    snapshot holds exactly the charges stamped inside it.

    ``auditor`` (optional) is read — never driven — for the
    open-vulnerability-window gauge; dispatch it *before* this sampler.
    """

    def __init__(
        self,
        window_cycles: Optional[float] = None,
        clock_hz: Optional[float] = None,
        auditor=None,
        profiler: Optional[CycleProfiler] = None,
    ) -> None:
        self.window_cycles = (
            float(window_cycles) if window_cycles else window_cycles_requested()
        )
        if self.window_cycles <= 0:
            raise ValueError("window_cycles must be positive")
        self.clock_hz = clock_hz
        self.auditor = auditor
        #: run-relative clock origin (set by the observer at subscribe)
        self.origin: Optional[float] = None
        #: an event stamped at or past this may open a new window;
        #: -inf while no window is open
        self.edge = -math.inf
        self.profiler = CycleProfiler() if profiler is None else profiler

        self._records: List[Dict[str, object]] = []
        self._w: Optional[int] = None
        self._win: Optional[Dict[str, int]] = None
        self._prev_cum: Dict[str, Dict[str, float]] = {}
        self._prev_warmup = 0.0
        #: running gauge levels (watermarked per window)
        self._qi_depth = 0
        self._defer_pending = 0
        self._finalized = False
        #: per-event-type handlers, called as ``handler(ts, fields)``
        self.handlers = {
            etype: self._counter(name) for etype, name in _COUNTED.items()
        }
        self.handlers.update(
            unmap=self._on_unmap,
            invalidate=self._on_invalidate,
            qi_submit=self._on_qi_submit,
            qi_wait=self._on_qi_wait,
            dma_read=self._dma("dma_reads"),
            dma_write=self._dma("dma_writes"),
        )
        # Standalone, this sampler also feeds its own profiler.
        owned = (self.profiler.handlers,) if profiler is None else ()
        self._route = route(*owned, self.handlers)

    # -- sink entry points (standalone use) ------------------------------

    def __call__(self, ts: float, etype: str, fields: Dict[str, object]) -> None:
        if not self._finalized:
            self.dispatch(ts, self._route[etype], fields)

    def on_charge(self, ts, account, component, cycles, events, n) -> None:
        if self._finalized:
            return
        self.profiler.on_charge(ts, account, component, cycles, events, n)
        self.count_charge(ts, component, cycles, events, n)

    # -- windowing -------------------------------------------------------

    def dispatch(self, ts: float, handlers, fields: Dict[str, object]) -> None:
        """Run one event's handlers in the window ``ts`` falls in."""
        opening = ts >= self.edge
        if opening:
            self._roll(ts)
        for handler in handlers:
            handler(ts, fields)
        if opening:
            self._sample_gauges()

    def count_charge(self, ts: float, component, cycles, events: int, n: int) -> None:
        """Count one charge; close the window if it moves the clock out."""
        if ts >= self.edge:
            self._roll(ts)
            self._sample_gauges()
        win = self._win
        win["charges"] += 1
        if component is _PROCESSING:
            win["packets"] += events * n
        end = ts + cycles * n
        if end >= self.edge and self._index(end) > self._w:
            self._snapshot()
            self._win = None
            self.edge = -math.inf

    def _index(self, ts: float) -> int:
        return int((ts - self.origin) // self.window_cycles)

    def _roll(self, ts: float) -> None:
        """Make the window ``ts`` falls in the open one."""
        if self.origin is None:
            self.origin = ts
        w = self._index(ts)
        if self._win is not None:
            if w <= self._w:
                return  # within the edge's rounding slack
            self._snapshot()
        self._w = w
        self._win = dict.fromkeys(_WINDOW_KEYS, 0)
        # Slightly early, so no float rounding can skip a boundary; the
        # exact index is recomputed whenever a timestamp reaches it.
        self.edge = (self.origin + (w + 1) * self.window_cycles) * (1.0 - 1e-12)

    def _sample_gauges(self) -> None:
        """Raise each gauge's watermark to its current level.

        Runs after a window's first event and after every event that can
        raise a level, which is all a per-event max needs.
        """
        win = self._win
        if self._qi_depth > win["qi_depth_max"]:
            win["qi_depth_max"] = self._qi_depth
        if self._defer_pending > win["defer_pending_max"]:
            win["defer_pending_max"] = self._defer_pending
        auditor = self.auditor
        if auditor is not None and auditor.open_windows > win["open_windows_max"]:
            win["open_windows_max"] = auditor.open_windows

    # -- event handlers --------------------------------------------------

    def _counter(self, name: str):
        def count(ts, fields) -> None:
            self._win[name] += 1

        return count

    def _on_unmap(self, ts, fields) -> None:
        win = self._win
        win["unmaps"] += 1
        if fields.get("deferred"):
            win["unmaps_deferred"] += 1
            self._defer_pending += 1
        # Also the only event that opens vulnerability windows.
        self._sample_gauges()

    def _on_invalidate(self, ts, fields) -> None:
        self._win["invalidates"] += 1
        kind = fields["kind"]
        if kind in ("global", "page", "device"):  # queued (not ring) flushes
            if self._qi_depth > 0:
                self._qi_depth -= 1
            if kind == "global":
                self._defer_pending = 0
            elif self._defer_pending > 0:
                self._defer_pending -= 1

    def _on_qi_submit(self, ts, fields) -> None:
        self._win["qi_submits"] += 1
        self._qi_depth += 1
        self._sample_gauges()

    def _on_qi_wait(self, ts, fields) -> None:
        self._qi_depth = 0

    def _dma(self, name: str):
        def count(ts, fields) -> None:
            win = self._win
            win[name] += 1
            win["dma_bytes"] += fields["size"]

        return count

    # -- window snapshots ------------------------------------------------

    def _snapshot(self) -> None:
        """Close the current window into a record."""
        w = self._w
        width = self.window_cycles
        views = list(self.profiler.views.values())
        keys = self._account_keys(views)
        cum: Dict[str, Dict[str, float]] = {
            key: view.cumulative() for key, view in zip(keys, views)
        }
        prev = self._prev_cum
        deltas: Dict[str, float] = {}
        for key, comps in cum.items():
            prev_comps = prev.get(key, {})
            for comp, value in comps.items():
                deltas[comp] = deltas.get(comp, 0.0) + (
                    value - prev_comps.get(comp, 0.0)
                )
        warmup_total = 0.0
        for view in views:
            warmup_total += view.warmup_total
        record: Dict[str, object] = {
            "event": "window",
            "w": w,
            # Run-relative times: the absolute clock origin may differ
            # across runs sharing one tracer.
            "t0": w * width,
            "t1": (w + 1) * width,
        }
        win = self._win
        for name in _WINDOW_KEYS:
            record[name] = win[name]
        record["cycles"] = deltas
        record["warmup_cycles"] = warmup_total - self._prev_warmup
        record["cum"] = cum
        _add_rates(record, self.clock_hz)
        self._records.append(record)
        self._prev_cum = cum
        self._prev_warmup = warmup_total

    @staticmethod
    def _account_keys(views) -> List[str]:
        """One series key per account: its label, ``#n`` on repeats."""
        keys: List[str] = []
        taken: Dict[str, int] = {}
        for view in views:
            label = view.account.label
            base = str(label) if label else "acct"
            seen = taken[base] = taken.get(base, 0) + 1
            keys.append(base if seen == 1 else f"{base}#{seen}")
        return keys

    def finalize(self, end_ts: Optional[float] = None) -> None:
        """End the run at ``end_ts`` (default: the clock now); ignore later events."""
        if self._finalized:
            return
        self._finalized = True
        self._end_ts = TRACE.now if end_ts is None else end_ts
        if self._win is not None:
            self._snapshot()

    # -- reads -----------------------------------------------------------

    def total_cycles(self) -> float:
        """Measured-phase cycles across all accounts (bit-exact)."""
        return self.profiler.total()

    def summary(self) -> Dict[str, object]:
        """The timeline as one JSON-friendly dict (finalizes if needed)."""
        self.finalize()
        origin = self.origin or 0.0
        return {
            "schema": TIMELINE_SCHEMA,
            "window_cycles": self.window_cycles,
            "clock_hz": self.clock_hz,
            "span_cycles": self._end_ts - origin if self._records else 0.0,
            "windows": list(self._records),
            "cycles_total": self.total_cycles(),
            "merged_from": 1,
        }


def _add_rates(record: Dict[str, object], clock_hz: Optional[float]) -> None:
    """A window record's (r)IOTLB hit rate and modelled Gbps.

    ``Gbps = bytes x 8 x S / C`` via the §3.3 model, with C the
    window's cycles per retired packet — an MTU-frame estimate,
    display-only.
    """
    hits = record["iotlb_hits"]
    lookups = hits + record["iotlb_misses"]
    record["iotlb_hit_rate"] = (hits / lookups) if lookups else None
    cycles_delta = sum(record["cycles"].values())
    packets = record["packets"]
    record["gbps"] = None
    if clock_hz and packets > 0 and cycles_delta > 0:
        from repro.perf.model import gbps_from_cycles

        record["gbps"] = gbps_from_cycles(cycles_delta / packets, clock_hz)


# -- the artifact-side total ----------------------------------------------


def timeline_total(summary: Dict[str, object]) -> float:
    """``cycles_total`` recomputed from the windows alone (bit-exact).

    The final window's ``cum`` snapshot holds each account's chained
    measured-phase fold; summing per account, then across accounts —
    the profiler's own association — reproduces
    ``RunResult.cycles_total`` to the last bit.
    """
    windows = summary.get("windows") or ()
    if not windows:
        return 0.0
    cum = windows[-1]["cum"]
    return sum(sum(comps.values()) for comps in cum.values())


# -- merging across grid cells --------------------------------------------


def merge_timelines(summaries: Sequence[Dict[str, object]]) -> Dict[str, object]:
    """Fold per-cell timeline summaries into one, in the given order.

    Counters sum, gauge watermarks take the max, per-window ``cycles``
    deltas sum, and the cumulative series carry forward each cell's
    last snapshot — all folded in the caller's order, so the result is
    bit-identical regardless of how many workers produced the cells
    (the parallel grid merges in serial iteration order).  All inputs
    must share ``window_cycles``.
    """
    if not summaries:
        raise ValueError("nothing to merge")
    width = summaries[0]["window_cycles"]
    for summary in summaries:
        if summary["window_cycles"] != width:
            raise ValueError(
                f"window width mismatch: {summary['window_cycles']} != {width}"
            )
    clocks = {s.get("clock_hz") for s in summaries}
    clock_hz = clocks.pop() if len(clocks) == 1 else None
    max_w = -1
    indexed: List[Dict[int, Dict[str, object]]] = []
    for summary in summaries:
        by_w = {record["w"]: record for record in summary["windows"]}
        indexed.append(by_w)
        if by_w:
            max_w = max(max_w, max(by_w))

    def _namespaced(i: int, key: str) -> str:
        return key if len(summaries) == 1 else f"cell{i}:{key}"

    merged_windows: List[Dict[str, object]] = []
    carry: List[Dict[str, Dict[str, float]]] = [{} for _ in summaries]
    for w in range(max_w + 1):
        rows = [by_w.get(w) for by_w in indexed]
        if not any(rows):
            continue
        record: Dict[str, object] = {"event": "window", "w": w}
        record["t0"] = w * width
        record["t1"] = (w + 1) * width
        for name in _COUNTERS:
            record[name] = sum(row[name] for row in rows if row)
        for name in _GAUGES:
            record[name] = max((row[name] for row in rows if row), default=0)
        deltas: Dict[str, float] = {}
        for row in rows:
            if not row:
                continue
            for comp, value in row["cycles"].items():
                deltas[comp] = deltas.get(comp, 0.0) + value
        record["cycles"] = deltas
        record["warmup_cycles"] = sum(
            row["warmup_cycles"] for row in rows if row
        )
        cum: Dict[str, Dict[str, float]] = {}
        for i, row in enumerate(rows):
            if row:
                carry[i] = row["cum"]
            for key, comps in carry[i].items():
                cum[_namespaced(i, key)] = dict(comps)
        record["cum"] = cum
        _add_rates(record, clock_hz)
        merged_windows.append(record)

    total = 0.0
    for summary in summaries:
        total += summary["cycles_total"]
    return {
        "schema": TIMELINE_SCHEMA,
        "window_cycles": width,
        "clock_hz": clock_hz,
        "span_cycles": max(
            (s["span_cycles"] for s in summaries), default=0.0
        ),
        "windows": merged_windows,
        "cycles_total": total,
        "merged_from": sum(int(s.get("merged_from", 1)) for s in summaries),
    }


# -- JSONL export / import / validation -----------------------------------


def timeline_records(summary: Dict[str, object]) -> Iterable[Dict[str, object]]:
    """The summary as JSONL-ready records: meta header, then windows."""
    meta = {"event": "timeline_meta"}
    meta.update({k: v for k, v in summary.items() if k != "windows"})
    meta["windows"] = len(summary["windows"])
    yield meta
    for record in summary["windows"]:
        yield record


def write_timeline(summary: Dict[str, object], path) -> int:
    """Write the timeline JSONL; returns the window-record count."""
    count = 0
    with open(path, "w") as handle:
        for record in timeline_records(summary):
            handle.write(json.dumps(record, separators=(",", ":")) + "\n")
            count += 1
    return count - 1  # meta line excluded


def read_timeline(path) -> Dict[str, object]:
    """Parse a timeline JSONL file back into a summary dict."""
    from repro.obs.export import read_jsonl

    records = read_jsonl(path)
    if not records or records[0].get("event") != "timeline_meta":
        raise ValueError(f"{path}: not a timeline artifact")
    summary = {k: v for k, v in records[0].items() if k != "event"}
    summary["windows"] = records[1:]
    return summary


def validate_timeline_records(records: Sequence[Dict[str, object]]) -> List[str]:
    """Validate JSONL records against ``timeline/v1``; returns errors."""
    errors: List[str] = []
    records = list(records)
    if not records:
        return ["empty timeline: expected a timeline_meta header line"]
    meta = records[0]
    if meta.get("event") != "timeline_meta":
        return ["line 1: expected a timeline_meta header record"]
    if meta.get("schema") != TIMELINE_SCHEMA:
        errors.append(
            f"line 1: schema {meta.get('schema')!r} != {TIMELINE_SCHEMA!r}"
        )
    width = meta.get("window_cycles")
    if not isinstance(width, (int, float)) or width <= 0:
        errors.append(f"line 1: bad window_cycles {width!r}")
    last_w = -1
    for lineno, record in enumerate(records[1:], start=2):
        if record.get("event") != "window":
            errors.append(
                f"line {lineno}: expected a window record, "
                f"got {record.get('event')!r}"
            )
            continue
        w = record.get("w")
        if not isinstance(w, int) or w < 0:
            errors.append(f"line {lineno}: bad window index {w!r}")
        elif w <= last_w:
            errors.append(
                f"line {lineno}: window index {w} went backwards "
                f"(previous {last_w})"
            )
        else:
            last_w = w
        for name in _COUNTERS:
            value = record.get(name)
            if not isinstance(value, int) or value < 0:
                errors.append(f"line {lineno}: bad counter {name}={value!r}")
                break
        cum = record.get("cum")
        if not isinstance(cum, dict) or not all(
            isinstance(comps, dict)
            and all(isinstance(v, (int, float)) for v in comps.values())
            for comps in cum.values()
        ):
            errors.append(f"line {lineno}: bad cumulative series")
    declared = meta.get("windows")
    if isinstance(declared, int) and declared != len(records) - 1:
        errors.append(
            f"line 1: meta declares {declared} windows, file has "
            f"{len(records) - 1}"
        )
    return errors


def validate_timeline_jsonl(path) -> List[str]:
    """Validate a timeline JSONL file; empty list means valid."""
    from repro.obs.export import read_jsonl

    try:
        records = read_jsonl(path)
    except (OSError, ValueError) as exc:
        return [f"unreadable timeline: {exc}"]
    return validate_timeline_records(records)


# -- ASCII rendering -------------------------------------------------------


def _series(summary: Dict[str, object], pick) -> List[float]:
    """One value per window index 0..max_w, gaps filled with 0."""
    windows = summary.get("windows") or ()
    if not windows:
        return []
    by_w = {record["w"]: record for record in windows}
    out: List[float] = []
    for w in range(max(by_w) + 1):
        record = by_w.get(w)
        value = pick(record) if record else None
        out.append(float(value) if value is not None else 0.0)
    return out


def render_timeline(
    summary: Dict[str, object], width: int = 64, title: Optional[str] = None
) -> str:
    """The timeline's headline series as labelled ASCII sparklines."""
    from repro.analysis.ascii_plot import sparkline

    rows = [
        ("cycles/window", _series(summary, lambda r: sum(r["cycles"].values()))),
        ("Gbps", _series(summary, lambda r: r.get("gbps"))),
        ("packets", _series(summary, lambda r: r["packets"])),
        ("iotlb hit rate", _series(summary, lambda r: r.get("iotlb_hit_rate"))),
        ("qi depth", _series(summary, lambda r: r["qi_depth_max"])),
        ("defer queue", _series(summary, lambda r: r["defer_pending_max"])),
        ("open windows", _series(summary, lambda r: r["open_windows_max"])),
    ]
    window = summary.get("window_cycles", 0)
    n = len(summary.get("windows") or ())
    lines: List[str] = []
    if title:
        lines.append(title)
    lines.append(
        f"{n} windows x {window:,.0f} cycles "
        f"(span {summary.get('span_cycles', 0.0):,.0f} cycles)"
    )
    label_width = max(len(name) for name, _values in rows)
    for name, values in rows:
        if not values or not any(values):
            continue
        peak = max(values)
        shown = f"{peak:,.2f}" if peak < 100 else f"{peak:,.0f}"
        lines.append(
            f"{name:>{label_width}} |{sparkline(values, width)}| peak {shown}"
        )
    return "\n".join(lines)
