"""Perf-history regression sentinel: the append-only wall-clock log.

``BENCH_runner.json`` is a snapshot — it remembers exactly one previous
run, so the regression gate compares against whatever happened to run
last and a single noisy baseline can mask (or fabricate) a regression.
This module gives the harness a *trajectory*: every run appends one
line to ``BENCH_history.jsonl`` (schema-versioned JSONL, git-trackable,
append-only) and the gate compares the new time against the **rolling
median** of the last few entries, which a single outlier cannot move.

Used by ``perf_harness.py --max-regression`` (the CI perf job) and
directly::

    PYTHONPATH=src python benchmarks/perf_harness.py --quick \
        --max-regression 0.25 --history BENCH_history.jsonl
"""

from __future__ import annotations

import json
import pathlib
import statistics
from typing import Dict, List, Optional, Sequence, Tuple

#: Schema identifier carried by every history line.  v2 added the
#: ``datapath`` build field; v3 adds the ``observe`` tier.  Older
#: entries are still read (the build is inferred from
#: ``fastpath_enabled``, the tier defaults to ``off`` — nothing before
#: v3 ever timed an observed run).
HISTORY_SCHEMA = "riommu-repro/bench-history/v3"

#: The tracked history log at the repo root (``benchmarks/output/`` is
#: gitignored scratch, the trajectory belongs in version control).
ROOT_HISTORY = pathlib.Path(__file__).parent.parent / "BENCH_history.jsonl"

#: Entries folded into the rolling baseline by default.
DEFAULT_WINDOW = 5

#: The gate's default cell — the paper's headline benchmark under the
#: most expensive protection regime (same default as the snapshot gate).
DEFAULT_CELL: Tuple[str, str, str] = ("mlx", "stream", "strict")


def cell_key(setup: str, benchmark: str, mode: str) -> str:
    """The history key for one grid cell: ``setup/benchmark/mode``."""
    return f"{setup}/{benchmark}/{mode}"


def report_datapath(report: Dict[str, object]) -> str:
    """The datapath build a report (or history entry) was taken under.

    v2 artifacts carry it explicitly; for v1 artifacts it is inferred
    from ``fastpath_enabled`` (the only build toggle that existed then:
    fastpath off meant the scalar loops, on meant the batched ones).
    """
    build = report.get("datapath")
    if isinstance(build, str) and build:
        return build
    return "batched" if report.get("fastpath_enabled", True) else "scalar"


def report_observe(report: Dict[str, object]) -> str:
    """The observe tier a report (or history entry) was taken under.

    v3 artifacts carry it explicitly; anything older predates the lite
    tier and was always timed unobserved, so the default is ``off``.
    """
    observe = report.get("observe")
    if isinstance(observe, str) and observe:
        return observe
    return "off"


def history_entry(report: Dict[str, object]) -> Dict[str, object]:
    """Fold one ``BENCH_runner.json`` report into a history line."""
    rows = list(report.get("cells") or ())
    cells = {
        cell_key(row["setup"], row["benchmark"], row["mode"]): float(row["seconds"])
        for row in rows
    }
    entry = {
        "schema": HISTORY_SCHEMA,
        "timestamp": report.get("timestamp"),
        "python": report.get("python"),
        "cpu_count": report.get("cpu_count"),
        "datapath": report_datapath(report),
        "fastpath_enabled": report.get("fastpath_enabled"),
        # v3: the observe tier the timings ran under — like the build,
        # the sentinel never compares medians across tiers.
        "observe": report_observe(report),
        "quick": report.get("quick"),
        "fast": bool(rows[0]["fast"]) if rows else True,
        "cells": cells,
    }
    # v2/v3 extensions carried through when the report has them: the
    # intra-run sharding measurement (serial vs sharded wall-clock on
    # the multi-ring cell) and the observe=off vs observe=lite overhead
    # column.  (Older v2 entries also carry an ``engine`` field from
    # when a second engine existed; readers ignore it.)
    if report.get("sharding") is not None:
        entry["sharding"] = report["sharding"]
    if report.get("observe_lite") is not None:
        entry["observe_lite"] = report["observe_lite"]
    return entry


def append_history(
    report: Dict[str, object], path: pathlib.Path = ROOT_HISTORY
) -> Dict[str, object]:
    """Append the report's history line to ``path``; returns the entry."""
    entry = history_entry(report)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a") as handle:
        handle.write(json.dumps(entry, sort_keys=True) + "\n")
    return entry


def load_history(path: pathlib.Path = ROOT_HISTORY) -> List[Dict[str, object]]:
    """All well-formed history entries, oldest first.

    Malformed lines and entries with a foreign schema are skipped — an
    append-only log that survives merges must tolerate damage without
    taking the perf gate down with it.
    """
    if not pathlib.Path(path).exists():
        return []
    entries: List[Dict[str, object]] = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except ValueError:
                continue
            if (
                isinstance(entry, dict)
                and str(entry.get("schema", "")).startswith("riommu-repro/bench-history/")
                and isinstance(entry.get("cells"), dict)
            ):
                entries.append(entry)
    return entries


def rolling_baseline(
    history: Sequence[Dict[str, object]],
    cell: Tuple[str, str, str] = DEFAULT_CELL,
    window: int = DEFAULT_WINDOW,
    datapath: Optional[str] = None,
    quick: Optional[bool] = None,
    observe: Optional[str] = None,
) -> Optional[float]:
    """Median seconds of the cell's last ``window`` history entries.

    With ``datapath`` set, only entries taken under that build
    contribute — a columnar run must never be judged against scalar
    medians (or vice versa).  With ``quick`` set, only entries with the
    matching quick flag contribute: quick runs (representative cells
    only) and full runs (with the grid sweep warm in the process) have
    different cache behaviour and must never share a baseline.  Entries
    predating the quick field count as full runs.  With ``observe``
    set, only entries timed under that tier contribute (entries
    predating the field count as ``off`` — no pre-v3 run was observed).
    """
    key = cell_key(*cell)
    series = [
        float(entry["cells"][key])
        for entry in history
        if key in entry["cells"]
        and float(entry["cells"][key]) > 0
        and (datapath is None or report_datapath(entry) == datapath)
        and (quick is None or bool(entry.get("quick")) == quick)
        and (observe is None or report_observe(entry) == observe)
    ]
    if not series:
        return None
    return statistics.median(series[-max(window, 1):])


def check_history_regression(
    report: Dict[str, object],
    history: Sequence[Dict[str, object]],
    max_regression: float,
    cell: Tuple[str, str, str] = DEFAULT_CELL,
    window: int = DEFAULT_WINDOW,
) -> Optional[str]:
    """Error string if ``cell`` exceeds the rolling baseline's tolerance.

    Compares the fresh report's wall-clock against the median of the
    last ``window`` history entries taken under the same datapath
    build, the same quick flag *and* the same observe tier; ``None``
    when within ``baseline * (1 + max_regression)`` or when there is
    no comparable baseline.
    """
    build = report_datapath(report)
    quick = bool(report.get("quick"))
    observe = report_observe(report)
    baseline = rolling_baseline(
        history, cell, window, datapath=build, quick=quick, observe=observe
    )
    if baseline is None:
        return None
    current = None
    for row in report.get("cells") or ():
        if (row["setup"], row["benchmark"], row["mode"]) == cell:
            current = float(row["seconds"])
            break
    if current is None or current <= 0:
        return None
    limit = baseline * (1.0 + max_regression)
    if current > limit:
        kind = "quick" if quick else "full"
        tier = "" if observe == "off" else f" observe={observe}"
        return (
            f"{cell_key(*cell)} regressed: {current:.4f}s > {limit:.4f}s "
            f"(rolling median of last {min(len(history), window)} "
            f"{build}-build {kind}{tier} runs is {baseline:.4f}s, "
            f"tolerance {max_regression:.0%})"
        )
    return None
