"""Toggleable design components: the ablation engine's sim-layer half.

The paper derives rIOMMU's win from a per-component decomposition
(Table 1, §5); the repo's design adds its own components on top (the
magazine allocator of the "+" modes, the datapath builds, ring sizing).
This module declares each toggleable component **once**, as a named
knob over the run surface, so ``repro ablate``
(:mod:`repro.analysis.ablate`) can generate, execute and rank a
baseline-plus-one-off grid without any per-component code:

* :class:`ArmSpec` — one ablation arm as plain, picklable, canonically
  serialisable data: (setup, benchmark, mode, datapath, fast) plus
  three override surfaces — ``machine_kwargs`` (forwarded to
  :class:`~repro.kernel.machine.Machine`), ``workload_kwargs``
  (replaced onto the registry-made workload dataclass, e.g.
  ``driver_kwargs``) and ``setup_overrides`` (replaced onto the frozen
  :class:`~repro.sim.setups.Setup`).  :func:`arm_id` content-hashes the
  canonical JSON, so identical arms get identical IDs across
  invocations, interpreters and worker layouts.
* :class:`ComponentSpec` / :data:`COMPONENTS` — the registry: each
  component names the arm *with* it present and the arm with it
  *removed*, both as override dicts over the shared baseline arm.
* :func:`run_arm` — the module-level worker the executor fans out over
  :func:`~repro.sim.parallel.parallel_map`: one lite-telemetry pass for
  the bit-exact Table-1 attribution (the ranked evidence) and one
  full-observer pass for the :class:`~repro.obs.audit.ProtectionAuditor`
  window accounting, cross-checked against each other.  Every field of
  the returned record is a modelled (deterministic) quantity — no
  wall-clock, no timestamps — so reports assembled from arm records are
  bit-identical for any ``--jobs`` worker count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from typing import Dict

from repro.config import DEFAULT_BUILD, RunConfig, resolve_datapath_flags
from repro.modes import Mode

#: Schema tag carried by each persisted per-arm evidence record.
ARM_SCHEMA = "riommu-repro/ablation-arm/v1"

#: Audit counters copied verbatim from the full-observer pass into each
#: arm record (the protection-window evidence of the ranked report).
AUDIT_FIELDS = (
    "windows_opened",
    "worst_window_cycles",
    "total_window_cycles",
    "stale_window_dmas",
    "stale_window_bytes",
    "stale_dmas",
    "stale_bytes",
)


@dataclass(frozen=True)
class ArmSpec:
    """One ablation arm, as canonical plain data.

    ``machine_kwargs`` values must be JSON-plain; ``cost_overrides``
    keys are spelled as Table-1 component value strings (e.g.
    ``"map.iova_alloc"``) and converted to the
    :class:`~repro.perf.cycles.Component` enum inside the worker.
    """

    setup: str = "mlx"
    benchmark: str = "stream"
    mode: str = "riommu"
    fast: bool = False
    datapath: str = DEFAULT_BUILD
    machine_kwargs: Dict[str, object] = field(default_factory=dict)
    workload_kwargs: Dict[str, object] = field(default_factory=dict)
    setup_overrides: Dict[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        Mode(self.mode)  # raises on unknown labels, like RunConfig does
        resolve_datapath_flags(self.datapath)

    def to_dict(self) -> Dict[str, object]:
        """Canonical JSON-plain form (the content that is hashed)."""
        return {
            "setup": self.setup,
            "benchmark": self.benchmark,
            "mode": self.mode,
            "fast": self.fast,
            "datapath": self.datapath,
            "machine_kwargs": dict(self.machine_kwargs),
            "workload_kwargs": dict(self.workload_kwargs),
            "setup_overrides": dict(self.setup_overrides),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, object]) -> "ArmSpec":
        return cls(**payload)

    def with_overrides(self, overrides: Dict[str, object]) -> "ArmSpec":
        """A new arm with a component's override surfaces applied.

        Scalar fields (``mode``/``datapath``/``setup``/``benchmark``)
        replace; the kwarg dicts merge key-wise, so a component can
        perturb one ``Machine`` argument without clobbering another
        component's surface.
        """
        updates: Dict[str, object] = {}
        for key, value in overrides.items():
            if key in ("machine_kwargs", "workload_kwargs", "setup_overrides"):
                merged = dict(getattr(self, key))
                merged.update(value)
                updates[key] = merged
            else:
                updates[key] = value
        return replace(self, **updates) if updates else self


def arm_id(spec: ArmSpec) -> str:
    """Stable content-hashed run ID for one arm.

    SHA-256 over the canonical (sorted-key, separator-pinned) JSON of
    :meth:`ArmSpec.to_dict`, truncated to 12 hex digits — the same arm
    always gets the same ID, which is what lets re-invocations skip
    already-completed arms and lets reports reference arms stably.
    """
    blob = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class ComponentSpec:
    """One toggleable component: the with/without arm override pair.

    ``present`` perturbs the shared baseline into the arm *with* the
    component (empty when the baseline already includes it); ``removed``
    into the arm *without* it.  Both are override dicts consumed by
    :meth:`ArmSpec.with_overrides`.
    """

    name: str
    description: str
    present: Dict[str, object] = field(default_factory=dict)
    removed: Dict[str, object] = field(default_factory=dict)
    #: where the paper (or DESIGN.md) motivates the component
    reference: str = ""


#: The component registry, in declaration (presentation) order.
COMPONENTS: Dict[str, ComponentSpec] = {}


def register_component(spec: ComponentSpec) -> ComponentSpec:
    """Add (or replace) a component under ``spec.name``; returns it."""
    COMPONENTS[spec.name] = spec
    return spec


register_component(
    ComponentSpec(
        name="prefetcher",
        description="rIOTLB next-rPTE prefetch on ring advance",
        present={},
        removed={"machine_kwargs": {"riommu_prefetch": False}},
        reference="paper §4: the design 'works just as well without'",
    )
)
register_component(
    ComponentSpec(
        name="magazine-allocator",
        description="per-core magazine IOVA allocator (the '+' modes)",
        present={"mode": "strict+"},
        removed={"mode": "strict"},
        reference="paper §2.2 / Table 1 iova_alloc row",
    )
)
register_component(
    ComponentSpec(
        name="fastpath",
        description="columnar build: fast paths, staged charging and "
        "struct-of-arrays burst loops (wall-clock build; modelled numbers "
        "are parity-pinned identical)",
        present={},
        removed={"datapath": "scalar"},
        reference="docs/performance.md: the columnar datapath build",
    )
)
register_component(
    ComponentSpec(
        name="defer-threshold",
        description="deferred-mode invalidation batching (250-unmap "
        "flush batches vs a flush per unmap)",
        present={"mode": "defer"},
        removed={"mode": "defer", "machine_kwargs": {"flush_threshold": 1}},
        reference="paper §2.2: Linux's deferred batch size of 250",
    )
)
register_component(
    ComponentSpec(
        name="iotlb-capacity",
        description="baseline IOMMU IOTLB capacity (64 entries vs 1)",
        present={"mode": "defer"},
        removed={"mode": "defer", "machine_kwargs": {"iotlb_capacity": 1}},
        reference="paper §5.3 / docs/methodology.md: insensitive above ~64",
    )
)
register_component(
    ComponentSpec(
        name="ring-sizing",
        description="rRING slack (flat tables sized 2x the ring vs exact)",
        present={},
        removed={"workload_kwargs": {"driver_kwargs": {"ring_slack": 1}}},
        reference="paper §4: N vs L, overflow is legal back-pressure",
    )
)

#: The name the harmful-knob injection registers under (CI exercises the
#: harmful-component exit-code path through it; never registered by
#: default).
INJECTED_HARMFUL = "injected-overhead"


def injected_harmful_component() -> ComponentSpec:
    """A deliberately harmful component for gate tests.

    Its *present* arm inflates deferred mode's Table-1 IOVA-allocation
    constant 8x via ``cost_overrides`` (the scale needs a Table-1 mode
    to multiply), so removing it improves throughput well past any
    noise floor — the ranked report must flag it harmful and gate the
    exit code.  Registered only on explicit request
    (``repro ablate --inject-harmful``).
    """
    return ComponentSpec(
        name=INJECTED_HARMFUL,
        description="injected 8x IOVA-alloc overhead (gate self-test: "
        "removal must rank as an improvement and flag harmful)",
        present={
            "mode": "defer",
            "machine_kwargs": {"cost_overrides": {"map.iova_alloc": 8.0}},
        },
        removed={"mode": "defer"},
        reference="CI ablate-smoke: harmful-component exit-code path",
    )


def _decode_machine_kwargs(
    machine_kwargs: Dict[str, object], mode: Mode
) -> Dict[str, object]:
    """JSON-plain machine kwargs -> real ``Machine()`` arguments.

    ``cost_overrides`` travels as {component value string: scale}; the
    scale multiplies the arm's mode's Table-1 constant, so specs stay
    calibration-independent plain data.
    """
    decoded = dict(machine_kwargs)
    scales = decoded.pop("cost_overrides", None)
    if scales:
        from repro.perf.costs import TABLE1_CYCLES
        from repro.perf.cycles import Component

        table = TABLE1_CYCLES.get(mode, {})
        decoded["cost_overrides"] = {
            Component(name): table.get(Component(name), 0.0) * float(scale)
            for name, scale in scales.items()
        }
    return decoded


def _instantiate(spec: ArmSpec, mode: Mode):
    """Build the arm's workload instance from the registry."""
    from repro.sim.registry import make_benchmark

    bench = make_benchmark(spec.benchmark, spec.fast)
    updates: Dict[str, object] = dict(spec.workload_kwargs)
    machine_kwargs = _decode_machine_kwargs(spec.machine_kwargs, mode)
    if machine_kwargs:
        merged = dict(getattr(bench, "machine_kwargs", {}))
        merged.update(machine_kwargs)
        updates["machine_kwargs"] = merged
    return replace(bench, **updates) if updates else bench


def run_arm(payload: Dict[str, object]) -> Dict[str, object]:
    """Execute one arm; returns its deterministic evidence record.

    A module-level function taking JSON-plain data so it pickles into
    :func:`~repro.sim.parallel.parallel_map` worker processes.  Two
    passes through :func:`~repro.sim.runner.run_prepared`:

    1. ``observe="lite"`` under the arm's datapath build — the ranked
       evidence: modelled throughput/cycles plus the per-Table-1-
       component attribution that must reconcile bit-exactly with
       ``cycles_total``.
    2. ``observe="full"`` — the :class:`~repro.obs.audit.
       ProtectionAuditor` window accounting (the full tier runs the
       traced per-event semantics regardless of build; results are
       parity-pinned identical, which ``passes_agree`` re-checks here).
    """
    from repro import datapath
    from repro.sim.runner import run_prepared
    from repro.sim.setups import setup_by_name

    spec = ArmSpec.from_dict(payload)
    mode = Mode(spec.mode)
    setup = setup_by_name(spec.setup)
    if spec.setup_overrides:
        setup = replace(setup, **spec.setup_overrides)

    previous_build = datapath.current_build()
    datapath.set_datapath(spec.datapath)
    try:
        lite_config = RunConfig(fast=spec.fast, observe="lite")
        lite = run_prepared(_instantiate(spec, mode), setup, mode, lite_config)
        full_config = RunConfig(fast=spec.fast, observe="full")
        full = run_prepared(_instantiate(spec, mode), setup, mode, full_config)
    finally:
        datapath.set_datapath(previous_build)

    profile = lite.telemetry["profile"]
    audit = full.obs["audit"]
    return {
        "schema": ARM_SCHEMA,
        "id": arm_id(spec),
        "spec": spec.to_dict(),
        "packets": lite.packets,
        "throughput": lite.throughput_metric,
        "cycles_total": lite.cycles_total,
        "cycles_per_packet": lite.cycles_per_packet,
        "cpu": lite.cpu,
        "attribution": dict(profile["by_primitive"]),
        "attributed_cycles": profile["total_cycles"],
        "reconcile_delta": profile["reconcile_delta"],
        "reconciles": bool(profile["reconciles"]),
        "audit": {key: audit[key] for key in AUDIT_FIELDS},
        "passes_agree": (
            lite.cycles_total == full.cycles_total
            and lite.throughput_metric == full.throughput_metric
        ),
    }
