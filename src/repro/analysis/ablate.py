"""``repro ablate`` — the declarative ablation engine.

The paper's Table 1 derives rIOMMU's win from a per-component cost
decomposition; this module turns that question — *which component buys
what* — into a first-class, gated subsystem over the component registry
in :mod:`repro.sim.components`:

1. **Plan**: :func:`build_plan` expands the registry into the
   baseline-plus-one-off arm grid.  Arms are content-hashed
   (:func:`~repro.sim.components.arm_id`), so the shared baseline
   appears exactly once and identical arms across components coalesce.
2. **Execute**: :func:`execute_plan` fans missing arms out over
   :func:`~repro.sim.parallel.parallel_map`; arms whose
   ``arm-<id>.json`` record already sits in the output directory are
   loaded and skipped (repeat avoidance) — re-invocations only run what
   changed.
3. **Rank**: :func:`build_report` pairs each component's present/removed
   arms into a row — throughput delta, cycles-per-packet delta,
   protection-window delta (ProtectionAuditor) — ranked by the
   throughput the component buys.  Every row is backed by per-Table-1-
   component cycle attribution that reconciled bit-exactly with
   ``cycles_total`` in its arms.
4. **Gate**: components whose *removal improves* throughput beyond the
   noise floor (the same 1% tolerance the bench-history sentinel uses
   for regressions) are flagged **harmful** and fail the report
   (exit 1), as does any arm whose attribution failed to reconcile.

Reports render in the terminal (:meth:`AblationReport.render`), as
``riommu-repro/ablation-report/v1`` JSON (understood by
``repro obs validate``) and as a dashboard-styled HTML page
(:meth:`AblationReport.save_html`).

Every number in a report is a modelled, deterministic quantity: serial
and ``--jobs N`` invocations emit byte-identical report JSON, and the
run IDs are stable across processes and machines (pinned by test).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.sim.components import (
    AUDIT_FIELDS,
    COMPONENTS,
    ArmSpec,
    ComponentSpec,
    arm_id,
    injected_harmful_component,
    run_arm,
)
from repro.sim.parallel import parallel_map, resolve_jobs

ABLATION_SCHEMA = "riommu-repro/ablation-report/v1"

#: Relative throughput tolerance under which a removal-improves delta is
#: timer-free modelling noise, not a harmful component.  Matches the
#: bench-history sentinel's regression tolerance so "harmful here" and
#: "regression there" mean the same magnitude of effect.
NOISE_FLOOR = 0.01

#: Default output directory for arm records and reports.
DEFAULT_OUT = os.path.join("benchmarks", "output", "ablation")


# -- plan -----------------------------------------------------------------


@dataclass(frozen=True)
class AblationPlan:
    """The expanded baseline-plus-one-off grid for one ablation run."""

    baseline: ArmSpec
    #: every distinct arm, keyed by content-hashed ID
    arms: Dict[str, ArmSpec]
    #: (component, present arm ID, removed arm ID) per selected component
    pairs: List[tuple]
    components: Dict[str, ComponentSpec]


def select_components(
    names: Optional[Sequence[str]] = None, inject_harmful: bool = False
) -> Dict[str, ComponentSpec]:
    """Resolve a ``--components`` selection against the registry.

    ``names=None`` selects every registered component.  The injected
    harmful component (CI's gate self-test) only ever appears on
    explicit request.
    """
    registry = dict(COMPONENTS)
    if inject_harmful:
        injected = injected_harmful_component()
        registry[injected.name] = injected
    if names is None:
        return registry
    unknown = [name for name in names if name not in registry]
    if unknown:
        raise KeyError(
            f"unknown component(s) {', '.join(sorted(unknown))}: "
            f"expected a subset of {', '.join(registry)}"
        )
    return {name: registry[name] for name in registry if name in set(names)}


def build_plan(
    components: Dict[str, ComponentSpec], baseline: Optional[ArmSpec] = None
) -> AblationPlan:
    """Expand components into the deduplicated arm grid.

    Each component contributes a *present* and a *removed* arm derived
    from the shared baseline; arms with identical content (e.g. the
    untouched baseline that several components use as their present
    arm) share one ID and run once.
    """
    base = baseline if baseline is not None else ArmSpec()
    arms: Dict[str, ArmSpec] = {arm_id(base): base}
    pairs: List[tuple] = []
    for name, comp in components.items():
        present = base.with_overrides(comp.present)
        removed = base.with_overrides(comp.removed)
        present_id, removed_id = arm_id(present), arm_id(removed)
        arms.setdefault(present_id, present)
        arms.setdefault(removed_id, removed)
        pairs.append((name, present_id, removed_id))
    return AblationPlan(baseline=base, arms=arms, pairs=pairs, components=components)


# -- execute --------------------------------------------------------------


def _arm_path(out_dir: str, arm: str) -> str:
    return os.path.join(out_dir, f"arm-{arm}.json")


def _load_record(path: str, arm: str) -> Optional[Dict]:
    """A completed arm record from disk, or ``None`` if absent, unreadable
    (not a JSON object) or stale."""
    try:
        with open(path) as handle:
            record = json.load(handle)
    except (OSError, ValueError):
        return None
    # The ID embeds the spec content: a record whose ID mismatches its
    # filename is from an older spec of the same name and must re-run.
    if not isinstance(record, dict) or record.get("id") != arm:
        return None
    return record


def execute_plan(
    plan: AblationPlan, out_dir: str, jobs: Optional[int] = None
) -> Dict[str, Dict]:
    """Run every arm of ``plan`` not already completed in ``out_dir``.

    Returns {arm ID: record}.  Completed arms (an ``arm-<id>.json``
    whose embedded ID matches) are loaded, not re-run — the
    repeat-avoidance that makes re-invocations incremental.  Skip/run
    counts go to stderr only, never into the records, so reports stay
    byte-identical across invocation patterns.
    """
    os.makedirs(out_dir, exist_ok=True)
    records: Dict[str, Dict] = {}
    pending: List[str] = []
    for arm in plan.arms:
        record = _load_record(_arm_path(out_dir, arm), arm)
        if record is not None:
            records[arm] = record
        else:
            pending.append(arm)
    if pending:
        payloads = [plan.arms[arm].to_dict() for arm in pending]
        fresh = parallel_map(run_arm, payloads, resolve_jobs(jobs))
        for arm, record in zip(pending, fresh):
            records[arm] = record
            with open(_arm_path(out_dir, arm), "w") as handle:
                json.dump(record, handle, indent=2, sort_keys=True)
    print(
        f"ablation arms: {len(plan.arms) - len(pending)} cached, "
        f"{len(pending)} executed",
        file=sys.stderr,
    )
    return records


# -- rank + report --------------------------------------------------------


def _rank_rows(
    plan: AblationPlan, records: Dict[str, Dict], noise_floor: float
) -> List[Dict]:
    rows: List[Dict] = []
    for name, present_id, removed_id in plan.pairs:
        present, removed = records[present_id], records[removed_id]
        tp_p, tp_r = present["throughput"], removed["throughput"]
        delta = tp_p - tp_r
        rows.append(
            {
                "component": name,
                "description": plan.components[name].description,
                "present_id": present_id,
                "removed_id": removed_id,
                "throughput_present": tp_p,
                "throughput_removed": tp_r,
                "throughput_delta": delta,
                "throughput_delta_pct": (100.0 * delta / tp_r) if tp_r else 0.0,
                "cycles_per_packet_delta": (
                    removed["cycles_per_packet"] - present["cycles_per_packet"]
                ),
                "window_delta_cycles": (
                    removed["audit"]["total_window_cycles"]
                    - present["audit"]["total_window_cycles"]
                ),
                "reconciles": bool(
                    present["reconciles"] and removed["reconciles"]
                ),
                "harmful": tp_r > tp_p * (1.0 + noise_floor),
            }
        )
    # Rank by what the component buys; name tiebreak keeps the order
    # total (and the report byte-stable) when deltas tie.
    rows.sort(key=lambda r: (-r["throughput_delta_pct"], r["component"]))
    return rows


@dataclass
class AblationReport:
    """One ranked ablation run: rows, per-arm evidence, verdict."""

    rows: List[Dict]
    arms: Dict[str, Dict]
    baseline_id: str
    noise_floor: float = NOISE_FLOOR
    quick: bool = False

    @property
    def harmful(self) -> List[str]:
        """Components whose removal improved the ranked metric."""
        return [row["component"] for row in self.rows if row["harmful"]]

    @property
    def unreconciled(self) -> List[str]:
        """Arm IDs whose cycle attribution missed ``cycles_total``."""
        return sorted(
            arm for arm, rec in self.arms.items() if not rec["reconciles"]
        )

    @property
    def disagreeing(self) -> List[str]:
        """Arm IDs whose lite and full observation passes diverged."""
        return sorted(
            arm for arm, rec in self.arms.items() if not rec["passes_agree"]
        )

    @property
    def passed(self) -> bool:
        """The gate: reconciled evidence, agreeing passes, no harm."""
        return not (self.harmful or self.unreconciled or self.disagreeing)

    # -- serialisation ----------------------------------------------------

    def to_dict(self) -> Dict:
        return {
            "schema": ABLATION_SCHEMA,
            "baseline_id": self.baseline_id,
            "noise_floor": self.noise_floor,
            "quick": self.quick,
            "ranking": self.rows,
            "arms": self.arms,
            "harmful": self.harmful,
            "passed": self.passed,
        }

    def to_json(self) -> str:
        """Canonical JSON — byte-identical for identical modelled runs."""
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    def save_json(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    # -- terminal rendering -----------------------------------------------

    def render(self) -> str:
        """The ranked report as aligned plain text."""
        from repro.analysis.report import format_table

        table_rows = []
        for rank, row in enumerate(self.rows, start=1):
            table_rows.append(
                [
                    rank,
                    row["component"],
                    f"{row['throughput_delta']:+,.2f}",
                    f"{row['throughput_delta_pct']:+.1f}%",
                    f"{row['cycles_per_packet_delta']:+,.1f}",
                    f"{row['window_delta_cycles']:+,.0f}",
                    "yes" if row["reconciles"] else "NO",
                    "HARMFUL" if row["harmful"] else "",
                ]
            )
        table = format_table(
            [
                "#",
                "component",
                "tput delta",
                "tput %",
                "cyc/pkt delta",
                "window cyc delta",
                "reconciles",
                "flag",
            ],
            table_rows,
            title="Component importance (present minus removed, ranked)",
        )
        lines = [
            f"Ablation over {len(self.rows)} components, "
            f"{len(self.arms)} distinct arms "
            f"(baseline {self.baseline_id}"
            f"{', quick sizing' if self.quick else ''})",
            "",
            table,
            "",
        ]
        if self.unreconciled:
            lines.append(
                "FAIL: attribution did not reconcile in arms "
                + ", ".join(self.unreconciled)
            )
        if self.disagreeing:
            lines.append(
                "FAIL: lite/full observation passes disagreed in arms "
                + ", ".join(self.disagreeing)
            )
        if self.harmful:
            lines.append(
                f"FAIL: harmful component(s) — removal improves throughput "
                f"beyond the {self.noise_floor:.0%} noise floor: "
                + ", ".join(self.harmful)
            )
        if self.passed:
            lines.append(
                "PASS: all arms reconciled bit-exactly; no component is "
                "harmful at the noise floor"
            )
        return "\n".join(lines)

    # -- HTML rendering ---------------------------------------------------

    def html_section(self) -> str:
        """The ablation ranking as a dashboard-styled ``<h2>`` section."""
        import html as _html

        verdict_cls = "pass" if self.passed else "fail"
        parts = [
            f'<h2>Ablation ranking <span class="badge {verdict_cls}">'
            f'{"PASS" if self.passed else "FAIL"}</span></h2>',
            f'<p class="meta">{_html.escape(ABLATION_SCHEMA)} &middot; '
            f"{len(self.rows)} components &middot; {len(self.arms)} arms "
            f"&middot; baseline {_html.escape(self.baseline_id)} &middot; "
            f"noise floor {self.noise_floor:.0%}</p>",
        ]
        widest = max(
            (abs(r["throughput_delta_pct"]) for r in self.rows), default=1.0
        ) or 1.0
        body = []
        for rank, row in enumerate(self.rows, start=1):
            width = abs(row["throughput_delta_pct"]) / widest * 100.0
            color = "#c62828" if row["harmful"] else "#1565c0"
            bar = (
                f'<div class="barouter" style="width:60%">'
                f'<div class="seg" style="width:{width:.2f}%;'
                f'background:{color}"></div></div>'
            )
            flag = (
                '<span class="badge fail">HARMFUL</span>'
                if row["harmful"]
                else ""
            )
            body.append(
                f"<tr><td>{rank}</td>"
                f'<td title="{_html.escape(row["description"])}">'
                f'{_html.escape(row["component"])}</td>'
                f'<td>{row["throughput_delta"]:+,.2f}</td>'
                f'<td>{row["throughput_delta_pct"]:+.1f}%</td>'
                f'<td>{row["cycles_per_packet_delta"]:+,.1f}</td>'
                f'<td>{row["window_delta_cycles"]:+,.0f}</td>'
                f"<td>{bar}</td><td>{flag}</td></tr>"
            )
        parts.append(
            "<table><tr><th>#</th><th>component</th><th>tput delta</th>"
            "<th>tput %</th><th>cyc/pkt delta</th><th>window cyc delta</th>"
            "<th>importance</th><th>flag</th></tr>" + "".join(body) + "</table>"
        )
        return "\n".join(parts)

    def to_html(self) -> str:
        """A standalone HTML page reusing the dashboard's styling."""
        from repro.analysis.dashboard import _HTML_HEAD

        return "\n".join(
            [
                _HTML_HEAD,
                "<h1>rIOMMU ablation report</h1>",
                self.html_section(),
                "</body></html>",
            ]
        )

    def save_html(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_html())


def build_report(
    plan: AblationPlan,
    records: Dict[str, Dict],
    noise_floor: float = NOISE_FLOOR,
    quick: bool = False,
) -> AblationReport:
    """Rank executed arm records into the gated report."""
    return AblationReport(
        rows=_rank_rows(plan, records, noise_floor),
        arms={arm: records[arm] for arm in sorted(plan.arms)},
        baseline_id=arm_id(plan.baseline),
        noise_floor=noise_floor,
        quick=quick,
    )


# -- validation (consumed by ``repro obs validate``) ----------------------

_ROW_KEYS = (
    "component",
    "present_id",
    "removed_id",
    "throughput_present",
    "throughput_removed",
    "throughput_delta",
    "throughput_delta_pct",
    "cycles_per_packet_delta",
    "window_delta_cycles",
    "reconciles",
    "harmful",
)

_ARM_KEYS = (
    "id",
    "spec",
    "packets",
    "throughput",
    "cycles_total",
    "cycles_per_packet",
    "attribution",
    "attributed_cycles",
    "reconcile_delta",
    "reconciles",
    "audit",
    "passes_agree",
)


def validate_ablation_report(payload: Dict) -> List[str]:
    """Schema-validate one ``ablation-report/v1`` payload.

    Returns a list of problems (empty = valid), matching the validator
    convention of :mod:`repro.obs.validate`.
    """
    errors: List[str] = []
    if payload.get("schema") != ABLATION_SCHEMA:
        errors.append(f"schema {payload.get('schema')!r} != {ABLATION_SCHEMA!r}")
    for key in ("baseline_id", "noise_floor", "ranking", "arms", "passed"):
        if key not in payload:
            errors.append(f"missing top-level key {key!r}")
    ranking = payload.get("ranking")
    if not isinstance(ranking, list) or not ranking:
        errors.append("'ranking' must be a non-empty list")
        ranking = []
    arms = payload.get("arms")
    if not isinstance(arms, dict) or not arms:
        errors.append("'arms' must be a non-empty map of arm records")
        arms = {}
    for i, row in enumerate(ranking, start=1):
        if not isinstance(row, dict):
            errors.append(f"ranking row {i}: not an object")
            continue
        missing = [key for key in _ROW_KEYS if key not in row]
        if missing:
            errors.append(f"ranking row {i}: missing {missing}")
            continue
        for side in ("present_id", "removed_id"):
            if row[side] not in arms:
                errors.append(
                    f"ranking row {i} ({row['component']}): "
                    f"{side} {row[side]!r} has no arm record"
                )
    for arm, record in arms.items():
        errors.extend(_arm_errors(arm, record))
    return errors


def _arm_errors(arm: str, record: Dict) -> List[str]:
    """Problems in one per-arm evidence record (empty = valid)."""
    if not isinstance(record, dict):
        return [f"arm {arm}: record is not an object"]
    missing = [key for key in _ARM_KEYS if key not in record]
    if missing:
        return [f"arm {arm}: missing {missing}"]
    errors: List[str] = []
    if record["id"] != arm:
        errors.append(f"arm {arm}: embedded id {record['id']!r} mismatches key")
    try:
        spec_id = arm_id(ArmSpec.from_dict(record["spec"]))
    except (TypeError, ValueError) as exc:
        errors.append(f"arm {arm}: unparseable spec ({exc})")
    else:
        if spec_id != record["id"]:
            errors.append(
                f"arm {arm}: spec content hashes to {spec_id} (stale record?)"
            )
    audit = record["audit"]
    if not isinstance(audit, dict):
        errors.append(f"arm {arm}: audit is not an object")
    else:
        bad_audit = [key for key in AUDIT_FIELDS if key not in audit]
        if bad_audit:
            errors.append(f"arm {arm}: audit missing {bad_audit}")
    if record["reconciles"] and record["reconcile_delta"] != 0.0:
        errors.append(
            f"arm {arm}: claims reconciliation but delta is "
            f"{record['reconcile_delta']!r}"
        )
    return errors


def validate_ablation_arm(payload: Dict) -> List[str]:
    """Schema-validate one persisted ``ablation-arm/v1`` record."""
    from repro.sim.components import ARM_SCHEMA

    if payload.get("schema") != ARM_SCHEMA:
        return [f"schema {payload.get('schema')!r} != {ARM_SCHEMA!r}"]
    return _arm_errors(str(payload.get("id")), payload)


# -- CLI ------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    """``repro ablate`` — plan, execute, rank, gate.

    Exit codes: 0 report passed, 1 harmful component or failed
    reconciliation, 2 usage error.
    """
    parser = argparse.ArgumentParser(
        prog="repro ablate",
        description="Ranked component-importance ablation over the "
        "declared component registry.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="fast workload sizing (CI smoke)"
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="worker processes for arm execution (0 = one per CPU)",
    )
    parser.add_argument(
        "--components",
        default=None,
        help="comma-separated subset of the registry (default: all)",
    )
    parser.add_argument(
        "--setup", default="mlx", help="setup for every arm (default: mlx)"
    )
    parser.add_argument(
        "--benchmark",
        default="stream",
        help="workload for every arm (default: stream)",
    )
    parser.add_argument(
        "--out",
        default=DEFAULT_OUT,
        help=f"arm-record/report directory (default: {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--json", default=None, help="also write the report JSON here"
    )
    parser.add_argument(
        "--html", default=None, help="also write the standalone HTML report here"
    )
    parser.add_argument(
        "--noise-floor",
        type=float,
        default=NOISE_FLOOR,
        help=f"harmful-component tolerance (default: {NOISE_FLOOR})",
    )
    parser.add_argument(
        "--inject-harmful",
        action="store_true",
        help="register the deliberately-harmful self-test component "
        "(the report must then fail with exit 1)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list registered components and exit"
    )
    try:
        args = parser.parse_args(list(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2

    if args.list:
        from repro.analysis.report import format_table

        rows = [
            [comp.name, comp.description, comp.reference]
            for comp in select_components(
                None, inject_harmful=args.inject_harmful
            ).values()
        ]
        print(format_table(["component", "description", "reference"], rows))
        return 0

    names = (
        [name.strip() for name in args.components.split(",") if name.strip()]
        if args.components
        else None
    )
    try:
        components = select_components(names, inject_harmful=args.inject_harmful)
    except KeyError as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2

    baseline = ArmSpec(setup=args.setup, benchmark=args.benchmark, fast=args.quick)
    plan = build_plan(components, baseline)
    records = execute_plan(plan, args.out, jobs=args.jobs)
    report = build_report(
        plan, records, noise_floor=args.noise_floor, quick=args.quick
    )

    report.save_json(os.path.join(args.out, "ablation-report.json"))
    if args.json:
        report.save_json(args.json)
    if args.html:
        report.save_html(args.html)
    print(report.render())
    return 0 if report.passed else 1


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    sys.exit(main())
