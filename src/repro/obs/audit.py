"""Protection-window auditor: quantify deferred-mode vulnerability.

The paper's §3.2 trade-off in numbers, per run: deferred invalidation
batches IOTLB flushes, so between an ``unmap`` and the batched flush
the device can still reach the torn-down buffer through a stale IOTLB
entry.  :class:`ProtectionAuditor` is a streaming trace sink that
reconstructs every such *vulnerability window* from the event stream
and reports

* how many cycles each torn-down mapping stayed reachable (worst case
  and total),
* how many DMAs (count and bytes) the device issued **while a window
  was open** — the exposure the deferred modes accept
  (``stale_window_dmas``), and
* how many DMAs were actually **served through a stale entry**
  (``stale_dmas`` / ``stale_bytes``, correlated from ``iotlb_stale``
  events) — which must be exactly zero for the strict and rIOMMU
  modes, in any run.

Window semantics per layer:

* **Baseline (strict modes)** — the unmap invalidates synchronously
  before it returns, so no window ever opens (unmap events carry
  ``deferred=False``).
* **Baseline (deferred modes)** — each unmapped page opens a window
  keyed ``(domain, vpn)``, closed by the matching page-selective,
  device-selective or global ``invalidate`` (§3.2's policy-level
  window, regardless of IOTLB residency — the flush is what ends the
  exposure).
* **rIOMMU** — reachability is modelled exactly: a ring has at most
  one rIOTLB entry, so a non-burst unmap opens a window only if that
  entry currently caches the torn-down ``rentry``; the window closes
  when the ring entry is replaced by a translation for a different
  ``rentry`` (the design's implicit invalidation) or explicitly
  invalidated at end of burst (``invalidate`` with ``kind="ring"``).

The auditor is a pure observer — it reads events, charges nothing, and
its numbers feed the pass/fail protection report of ``repro report``.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.memory.address import PAGE_SHIFT


class ProtectionAuditor:
    """A trace sink reconstructing stale-translation windows.

    Use as ``TRACE.subscribe(auditor)``; call :meth:`finalize` with the
    run's final timestamp to close still-open windows, then read
    :meth:`report`.  ``window_histogram`` (optional) receives each
    closed window's duration in cycles.
    """

    def __init__(self, window_histogram=None) -> None:
        #: (domain, vpn) -> (open_ts, bdf) — baseline deferred teardowns
        self._page_windows: Dict[Tuple[int, int], Tuple[float, int]] = {}
        #: (bdf, rid) -> (rentry, open_ts) — rIOMMU stale ring entries
        self._ring_windows: Dict[Tuple[int, int], Tuple[int, float]] = {}
        #: (bdf, rid) -> rentry currently cached by the ring's rIOTLB entry
        self._ring_cached: Dict[Tuple[int, int], int] = {}
        #: open-window count per device, for the DMA exposure check
        self._open_by_bdf: Dict[int, int] = {}
        self._window_histogram = window_histogram
        #: vulnerability windows open right now, across all devices — a
        #: live gauge the timeline sampler plots over modelled time
        self.open_windows = 0

        self.windows_opened = 0
        self.windows_closed = 0
        self.open_at_end = 0
        self.total_window_cycles = 0.0
        self.worst_window_cycles = 0.0
        #: DMAs issued while >= 1 window was open on the issuing device
        self.stale_window_dmas = 0
        self.stale_window_bytes = 0
        #: DMAs actually served through a stale entry (iotlb_stale)
        self.stale_dmas = 0
        self.stale_bytes = 0
        self.dmas_total = 0

        #: the in-flight DMA (dma_* events precede their translations)
        self._dma_seq = 0
        self._last_dma: Optional[Tuple[int, int]] = None  # (seq, bytes)
        self._stale_counted_seq = -1
        self._finalized = False
        #: per-event-type handlers, called as ``handler(ts, fields)``
        self.handlers = {
            "dma_read": self._on_dma,
            "dma_write": self._on_dma,
            "iotlb_stale": self._on_stale,
            "translate": self._on_translate,
            "unmap": self._on_unmap,
            "invalidate": self._on_invalidate,
        }

    # -- sink entry point ------------------------------------------------

    def __call__(self, ts: float, etype: str, fields: Dict[str, object]) -> None:
        handler = self.handlers.get(etype)
        if handler is not None:
            handler(ts, fields)

    # -- event handlers --------------------------------------------------

    def _on_dma(self, ts: float, fields: Dict[str, object]) -> None:
        size = fields["size"]
        self.dmas_total += 1
        self._dma_seq += 1
        self._last_dma = (self._dma_seq, size)
        if self.open_windows and fields["bdf"] in self._open_by_bdf:
            self.stale_window_dmas += 1
            self.stale_window_bytes += size

    def _on_stale(self, ts: float, fields: Dict[str, object]) -> None:
        # dma_read/dma_write are emitted before their translations, so
        # the stale hit belongs to the most recent DMA; a multi-page DMA
        # with several stale pages still counts once.
        last = self._last_dma
        if last is None or last[0] == self._stale_counted_seq:
            return
        self._stale_counted_seq = last[0]
        self.stale_dmas += 1
        self.stale_bytes += last[1]

    def _on_unmap(self, ts: float, fields: Dict[str, object]) -> None:
        bdf = fields["bdf"]
        if fields["layer"] == "riommu":
            if fields["end_of_burst"]:
                # The end-of-burst unmap explicitly invalidated the
                # ring's entry (kind="ring" already closed its window).
                return
            rentry = fields["rentry"]
            key = (bdf, fields["rid"])
            if self._ring_cached.get(key) == rentry and key not in self._ring_windows:
                self._ring_windows[key] = (rentry, ts)
                self._open_window(bdf)
            return
        if not fields["deferred"]:
            return  # strict: invalidated synchronously inside the unmap
        domain = fields["domain"]
        vpn = fields["device_addr"] >> PAGE_SHIFT
        for i in range(fields["pages"]):
            key = (domain, vpn + i)
            if key not in self._page_windows:
                self._page_windows[key] = (ts, bdf)
                self._open_window(bdf)

    def _on_invalidate(self, ts: float, fields: Dict[str, object]) -> None:
        kind = fields["kind"]
        if kind == "ring":
            key = (fields["bdf"], fields["rid"])
            self._ring_cached.pop(key, None)
            window = self._ring_windows.pop(key, None)
            if window is not None:
                self._close_window(key[0], ts - window[1])
        elif kind == "page":
            key = (fields["tag"], fields["vpn"])
            window = self._page_windows.pop(key, None)
            if window is not None:
                self._close_window(window[1], ts - window[0])
        elif kind == "device":
            tag = fields["tag"]
            for key in [k for k in self._page_windows if k[0] == tag]:
                window = self._page_windows.pop(key)
                self._close_window(window[1], ts - window[0])
        elif kind == "global":
            for window in self._page_windows.values():
                self._close_window(window[1], ts - window[0])
            self._page_windows.clear()

    def _on_translate(self, ts: float, fields: Dict[str, object]) -> None:
        if fields["layer"] != "riommu":
            return
        key = (fields["bdf"], fields["rid"])
        rentry = fields["rentry"]
        window = self._ring_windows.get(key)
        if window is not None and window[0] != rentry:
            # The ring's single entry gets replaced by this translation
            # — the design's implicit invalidation ends the window.  A
            # translation *to* the stale rentry is a stale serve and
            # keeps it open (the iotlb_stale event counts it).
            del self._ring_windows[key]
            self._close_window(key[0], ts - window[1])
        self._ring_cached[key] = rentry

    # -- window bookkeeping ----------------------------------------------

    def _open_window(self, bdf) -> None:
        self.windows_opened += 1
        self.open_windows += 1
        self._open_by_bdf[bdf] = self._open_by_bdf.get(bdf, 0) + 1

    def _close_window(self, bdf, duration: float) -> None:
        self.windows_closed += 1
        self.open_windows -= 1
        remaining = self._open_by_bdf.get(bdf, 0) - 1
        if remaining > 0:
            self._open_by_bdf[bdf] = remaining
        else:
            self._open_by_bdf.pop(bdf, None)
        self.total_window_cycles += duration
        if duration > self.worst_window_cycles:
            self.worst_window_cycles = duration
        if self._window_histogram is not None:
            self._window_histogram.observe(duration)

    def finalize(self, end_ts: float) -> None:
        """Close still-open windows at the run's final timestamp.

        A window still open when the run ends is maximal exposure; its
        duration (to ``end_ts``) joins the totals and it is counted in
        ``open_at_end`` rather than ``windows_closed``.
        """
        if self._finalized:
            return
        self._finalized = True
        still_open = [(bdf, ts) for ts, bdf in self._page_windows.values()]
        still_open += [(key[0], ts) for key, (_, ts) in self._ring_windows.items()]
        self._page_windows.clear()
        self._ring_windows.clear()
        for bdf, open_ts in still_open:
            self.open_at_end += 1
            self._close_window(bdf, end_ts - open_ts)
            self.windows_closed -= 1

    # -- report ----------------------------------------------------------

    @property
    def protected(self) -> bool:
        """True when no DMA was served through a stale entry."""
        return self.stale_bytes == 0 and self.stale_dmas == 0

    @property
    def exposed(self) -> bool:
        """True when the device could have reached torn-down memory."""
        return self.stale_window_dmas > 0 or self.stale_dmas > 0

    def report(self) -> Dict[str, object]:
        """The audit verdict as one JSON-friendly dict."""
        return {
            "windows_opened": self.windows_opened,
            "windows_closed": self.windows_closed,
            "open_at_end": self.open_at_end,
            "total_window_cycles": self.total_window_cycles,
            "worst_window_cycles": self.worst_window_cycles,
            "stale_window_dmas": self.stale_window_dmas,
            "stale_window_bytes": self.stale_window_bytes,
            "stale_dmas": self.stale_dmas,
            "stale_bytes": self.stale_bytes,
            "dmas_total": self.dmas_total,
            "protected": self.protected,
            "exposed": self.exposed,
        }
