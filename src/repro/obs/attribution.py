"""Cycle attribution (Table 1 per run) as a view over the charged accounts.

An account already holds its per-component totals bit-exactly (staged
charges fold with :func:`~repro.perf.cycles.exact_add`), so attribution
keeps a reference to every charged account plus the warmup totals each
``account.reset()`` discards, and reads everything else off the
accounts.  :func:`attribution` builds the ``profile`` section for both
the full tier's :class:`CycleProfiler` and the lite tier's
:class:`~repro.obs.lite.LiteCounters`, so the tiers agree to the bit.

Nothing from :mod:`repro.perf` is imported at load time:
``repro.perf.cycles`` imports the lite tier, which imports this.
"""

from __future__ import annotations

from typing import Dict, List, Optional

#: Component -> Table 1 name, in Table 1 order (see :func:`table1_names`).
_NAMES: Optional[Dict[object, str]] = None


def table1_names() -> Dict[object, str]:
    """``{Component: name}`` in Table 1 order, resolved on first use."""
    global _NAMES
    if _NAMES is None:
        from repro.perf.cycles import Component

        _NAMES = {component: component.value for component in Component}
    return _NAMES


class AccountView:
    """One charged account plus the warmup it shed; nothing mirrored."""

    __slots__ = ("account", "warmup", "warmup_events", "warmup_total", "resets")

    def __init__(self, account) -> None:
        self.account = account
        self.warmup: Dict[str, float] = {}
        self.warmup_events: Dict[str, int] = {}
        #: warmup cycles summed in charge order (the timeline's series)
        self.warmup_total = 0.0
        self.resets = 0

    def on_reset(self) -> None:
        """Fold the phase ending now into warmup (before the clear)."""
        names = table1_names()
        warmup = self.warmup
        total = self.warmup_total
        for component, cycles in self.account.cycles.items():
            key = names[component]
            warmup[key] = warmup.get(key, 0.0) + cycles
            total += cycles
        self.warmup_total = total
        warmup_events = self.warmup_events
        for component, n in self.account.events.items():
            key = names[component]
            warmup_events[key] = warmup_events.get(key, 0) + n
        self.resets += 1

    def cumulative(self) -> Dict[str, float]:
        """Measured-phase cycles per Table 1 name, in charge order."""
        names = table1_names()
        return {names[c]: v for c, v in self.account.cycles.items()}

    def state(self) -> Optional[Dict[str, object]]:
        """This view as plain picklable data; None if never charged.

        Skipping never-charged accounts (e.g. the ``dma-api`` account a
        driver-backed DMA API replaces) keeps a registration-order list
        aligned with the first-charge order.
        """
        cycles = self.cumulative()
        if not cycles and not self.warmup:
            return None
        names = table1_names()
        account = self.account
        return {
            "acct": account.trace_id,
            "label": account.label,
            "cycles": cycles,
            "events": {names[c]: n for c, n in account.events.items()},
            "warmup": dict(self.warmup),
            "warmup_events": dict(self.warmup_events),
            "resets": self.resets,
        }


def _merge(folds: List[Dict[str, object]], key: str) -> Dict[str, float]:
    merged: Dict[str, float] = {}
    for fold in folds:
        for comp, value in fold[key].items():
            merged[comp] = merged.get(comp, 0) + value
    return {comp: merged[comp] for comp in table1_names().values() if comp in merged}


def reconcile(profile: Dict[str, object], result) -> None:
    """Stamp ``profile`` with its bit-exact check against ``result``."""
    profile["cycles_total"] = result.cycles_total
    delta = profile["total_cycles"] - result.cycles_total
    profile["reconcile_delta"] = delta
    profile["reconciles"] = delta == 0.0


def attribution(folds: List[Dict[str, object]]) -> Dict[str, object]:
    """The ``profile`` section of a run from its account states."""
    by_layer: Dict[str, Dict[str, float]] = {}
    for fold in folds:
        label = fold["label"]
        name = label if label is not None else f"acct-{fold['acct']}"
        layer = by_layer.setdefault(name, {})
        for comp, cycles in fold["cycles"].items():
            layer[comp] = layer.get(comp, 0.0) + cycles
    measured = _merge(folds, "cycles")
    return {
        # per account, then across accounts (the accounts' own order)
        "total_cycles": sum(sum(fold["cycles"].values()) for fold in folds),
        "by_primitive": measured,
        "by_layer": by_layer,
        "by_phase": {"warmup": _merge(folds, "warmup"), "measured": measured},
        "event_counts": {
            comp: int(n) for comp, n in _merge(folds, "events").items()
        },
        "accounts": len(folds),
    }


class CycleProfiler:
    """A trace sink attributing cycles per primitive, layer and phase.

    Use as ``TRACE.subscribe(profiler)``.  A typed charge only registers
    its account, the first time (so first-seen order, and with it every
    merged float, follows the charge stream); ``cycle_reset`` captures
    warmup totals.  Reads are views over the registered accounts.
    """

    def __init__(self) -> None:
        #: account -> view, in first-charge order
        self.views: Dict[object, AccountView] = {}
        #: per-event-type handlers, called as ``handler(ts, fields)``
        self.handlers = {"cycle_reset": self._on_reset}

    def register(self, account) -> None:
        self.views[account] = AccountView(account)

    def on_charge(self, ts, account, component, cycles, events, n) -> None:
        if account not in self.views:
            self.register(account)

    def __call__(self, ts: float, etype: str, fields: Dict[str, object]) -> None:
        if etype == "cycle_reset":
            self._on_reset(ts, fields)

    def _on_reset(self, ts: float, fields: Dict[str, object]) -> None:
        acct = fields["acct"]
        for view in self.views.values():
            if view.account.trace_id == acct:
                view.on_reset()
                return

    def folds(self) -> List[Dict[str, object]]:
        """Every charged account's state, in first-charge order."""
        states = (view.state() for view in self.views.values())
        return [state for state in states if state is not None]

    def total(self) -> float:
        """Measured-phase cycles across all accounts (bit-exact)."""
        return self.summary()["total_cycles"]

    def summary(self) -> Dict[str, object]:
        """The attribution breakdown as one JSON-friendly dict."""
        return attribution(self.folds())

    def by_layer(self) -> Dict[str, Dict[str, float]]:
        """Measured cycles per layer per Table 1 component."""
        return self.summary()["by_layer"]

    def by_phase(self) -> Dict[str, Dict[str, float]]:
        """``{"warmup": {comp: cycles}, "measured": {comp: cycles}}``."""
        return self.summary()["by_phase"]

    def event_counts(self) -> Dict[str, int]:
        """Measured-phase charge counts per component."""
        return self.summary()["event_counts"]
