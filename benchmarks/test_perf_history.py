"""Tests for the perf-history regression sentinel.

All pure-arithmetic and file-shape tests — no timed runs — so they
always run (no ``perf`` mark needed).  The seeded repo-root
``BENCH_history.jsonl`` is itself pinned: it must parse and carry a
baseline for the gate's default cell.
"""

from __future__ import annotations

import json
import pathlib

import pytest

from perf_history import (
    DEFAULT_CELL,
    HISTORY_SCHEMA,
    ROOT_HISTORY,
    append_history,
    cell_key,
    check_history_regression,
    history_entry,
    load_history,
    report_datapath,
    report_observe,
    rolling_baseline,
)


def _report(seconds, timestamp="2026-08-07T00:00:00"):
    """A minimal BENCH_runner-shaped report timing the default cell."""
    return {
        "schema": "riommu-repro/bench-runner/v1",
        "timestamp": timestamp,
        "python": "3.11.7",
        "cpu_count": 4,
        "fastpath_enabled": True,
        "quick": True,
        "cells": [
            {
                "setup": "mlx",
                "benchmark": "stream",
                "mode": "strict",
                "fast": True,
                "seconds": seconds,
                "best_of": 1,
            }
        ],
    }


def test_entry_append_load_roundtrip(tmp_path):
    path = tmp_path / "history.jsonl"
    entry = append_history(_report(0.07), path)
    assert entry["schema"] == HISTORY_SCHEMA
    assert entry["cells"] == {"mlx/stream/strict": 0.07}
    append_history(_report(0.08), path)
    loaded = load_history(path)
    assert [e["cells"]["mlx/stream/strict"] for e in loaded] == [0.07, 0.08]
    # Append-only: each run adds exactly one line.
    assert len(path.read_text().splitlines()) == 2


def test_load_skips_malformed_and_foreign_lines(tmp_path):
    path = tmp_path / "history.jsonl"
    append_history(_report(0.07), path)
    with open(path, "a") as handle:
        handle.write("this is not json\n")
        handle.write(json.dumps({"schema": "someone/elses", "cells": {}}) + "\n")
        handle.write(json.dumps({"schema": HISTORY_SCHEMA}) + "\n")  # no cells
        handle.write("\n")
    append_history(_report(0.08), path)
    assert len(load_history(path)) == 2


def test_load_missing_file_is_empty(tmp_path):
    assert load_history(tmp_path / "nope.jsonl") == []


def test_rolling_baseline_is_median_of_last_window(tmp_path):
    path = tmp_path / "history.jsonl"
    for seconds in (0.10, 0.07, 0.08, 0.07, 0.09, 0.07, 0.08):
        append_history(_report(seconds), path)
    history = load_history(path)
    # Last 5: .08 .07 .09 .07 .08 -> median .08; the early 0.10 outlier
    # has rolled out of the window.
    assert rolling_baseline(history, DEFAULT_CELL, window=5) == 0.08
    assert rolling_baseline(history, DEFAULT_CELL, window=3) == 0.08
    assert rolling_baseline(history, ("mlx", "rr", "strict")) is None
    assert rolling_baseline([], DEFAULT_CELL) is None


def test_median_shrugs_off_a_single_outlier(tmp_path):
    path = tmp_path / "history.jsonl"
    for seconds in (0.07, 0.07, 0.07, 0.07, 5.0):
        append_history(_report(seconds), path)
    assert rolling_baseline(load_history(path), DEFAULT_CELL, window=5) == 0.07


def test_regression_detected_and_tolerated(tmp_path):
    path = tmp_path / "history.jsonl"
    for seconds in (0.07, 0.08, 0.07, 0.08, 0.07):
        append_history(_report(seconds), path)
    history = load_history(path)
    # Within tolerance: 0.08 <= 0.07 * 1.25.
    assert check_history_regression(_report(0.08), history, 0.25) is None
    # Beyond tolerance: named, quantified error.
    error = check_history_regression(_report(0.20), history, 0.25)
    assert error is not None
    assert "mlx/stream/strict regressed" in error
    assert "rolling median" in error
    # No baseline -> no verdict.
    assert check_history_regression(_report(0.20), [], 0.25) is None
    other = _report(0.20)
    other["cells"][0]["mode"] = "none"
    assert check_history_regression(other, history, 0.25) is None


def test_cell_key_shape():
    assert cell_key("mlx", "stream", "strict") == "mlx/stream/strict"
    assert cell_key(*DEFAULT_CELL) == "mlx/stream/strict"


def test_seeded_root_history_is_a_valid_baseline():
    """The committed BENCH_history.jsonl seeds the sentinel from day one."""
    assert ROOT_HISTORY.name == "BENCH_history.jsonl"
    assert ROOT_HISTORY.exists()
    history = load_history(ROOT_HISTORY)
    assert history, "seeded history must parse"
    baseline = rolling_baseline(history, DEFAULT_CELL)
    assert baseline is not None and baseline > 0


def test_rolling_baseline_keys_on_quick_flag(tmp_path):
    """Quick and full runs must never share a baseline.

    Quick runs (representative cells only) and full runs (grid sweep
    warm in the process) have different cache behaviour; one pool of
    fast full-run entries must not mask a quick-run regression, nor
    slow quick entries fabricate a full-run one.
    """
    path = tmp_path / "history.jsonl"
    for seconds in (0.05, 0.05):
        append_history(_report(seconds), path)  # quick entries
    full = _report(0.20)
    full["quick"] = False
    for _ in range(2):
        append_history(full, path)
    history = load_history(path)
    assert rolling_baseline(history, DEFAULT_CELL, quick=True) == 0.05
    assert rolling_baseline(history, DEFAULT_CELL, quick=False) == 0.20
    # Unkeyed, the pools blur together — exactly what the gate must not do.
    assert rolling_baseline(history, DEFAULT_CELL, quick=None) not in (0.05, 0.20)


def test_entries_predating_quick_field_count_as_full(tmp_path):
    path = tmp_path / "history.jsonl"
    legacy = _report(0.30)
    del legacy["quick"]
    append_history(legacy, path)
    history = load_history(path)
    assert rolling_baseline(history, DEFAULT_CELL, quick=False) == 0.30
    assert rolling_baseline(history, DEFAULT_CELL, quick=True) is None


def test_regression_check_compares_within_quick_pool(tmp_path):
    """A quick report is judged only against quick history (and names
    the pool in its verdict), even with slower full entries present."""
    path = tmp_path / "history.jsonl"
    for seconds in (0.05, 0.05, 0.05, 0.05, 0.05):
        append_history(_report(seconds), path)
    full = _report(0.50)
    full["quick"] = False
    for _ in range(5):
        append_history(full, path)
    history = load_history(path)
    # 0.12s is fine against the 0.50s full pool but a 2.4x quick
    # regression; the quick-keyed gate must catch it.
    error = check_history_regression(_report(0.12), history, 0.25)
    assert error is not None and "quick runs" in error
    # The same seconds in a full report passes against the full pool.
    ok = _report(0.12)
    ok["quick"] = False
    assert check_history_regression(ok, history, 0.25) is None


def test_history_entry_carries_engine_and_sharding(tmp_path):
    report = _report(0.07)
    report["sharding"] = {"cell": "mlx/mstream/strict", "speedup_vs_serial": 2.1}
    entry = history_entry(report)
    assert entry["sharding"]["speedup_vs_serial"] == 2.1
    # Reports without the v2 extensions produce entries without them.
    bare = history_entry(_report(0.07))
    assert "engine" not in bare and "sharding" not in bare
    # A literal v2 entry written while a second engine existed still
    # loads and still serves as a baseline; its engine field is ignored.
    old = (
        '{"cells": {"mlx/stream/strict": 0.07}, "cpu_count": 4, '
        '"datapath": "batched", "engine": "events", "fast": true, '
        '"fastpath_enabled": true, "python": "3.11.7", "quick": true, '
        '"schema": "riommu-repro/bench-history/v2", '
        '"timestamp": "2026-08-07T00:00:00"}'
    )
    path = tmp_path / "history.jsonl"
    path.write_text(old + "\n")
    history = load_history(path)
    assert history[0]["engine"] == "events"
    assert check_history_regression(_report(0.07), history, 0.25) is None
    assert check_history_regression(_report(0.2), history, 0.25) is not None


def test_batched_entries_load_but_never_join_another_build(tmp_path):
    """Literal v2 lines from the removed ``batched`` build still load and
    gate, but only against each other — never in a columnar or scalar
    median."""
    batched = (
        '{"cells": {"mlx/stream/strict": 0.5}, "cpu_count": 4, '
        '"datapath": "batched", "fast": true, "fastpath_enabled": true, '
        '"python": "3.11.7", "quick": true, '
        '"schema": "riommu-repro/bench-history/v2", '
        '"timestamp": "2026-08-07T00:00:00"}'
    )
    path = tmp_path / "history.jsonl"
    path.write_text((batched + "\n") * 3)
    columnar = dict(_report(0.07), datapath="columnar")
    for _ in range(2):
        append_history(columnar, path)
    history = load_history(path)
    assert [report_datapath(entry) for entry in history] == [
        "batched", "batched", "batched", "columnar", "columnar"
    ]
    assert rolling_baseline(history, DEFAULT_CELL, datapath="batched") == 0.5
    assert rolling_baseline(history, DEFAULT_CELL, datapath="columnar") == 0.07
    assert rolling_baseline(history, DEFAULT_CELL, datapath="scalar") is None
    # Mixed in, the batched lines would lift the median to 0.5 and hide
    # this columnar regression.
    assert check_history_regression(
        dict(_report(0.3), datapath="columnar"), history, 0.25
    ) is not None
    assert check_history_regression(
        dict(_report(100.0), datapath="scalar"), history, 0.25
    ) is None


def test_history_entry_carries_the_observe_tier():
    """v3: entries record the observe tier; older artifacts infer off.

    No run before v3 ever timed an observed cell, so the inference is
    exact, not a guess — and the sentinel's medians never mix an
    always-on-lite trajectory with the unobserved one.
    """
    report = _report(0.07)
    assert report_observe(report) == "off"        # v1/v2: no field
    assert history_entry(report)["observe"] == "off"
    report["observe"] = "lite"
    entry = history_entry(report)
    assert entry["observe"] == "lite"
    assert report_observe(entry) == "lite"
    # The overhead column rides along when the report has one.
    report["observe_lite"] = [
        {"cell": "mlx/stream/strict", "overhead_vs_off": 0.01}
    ]
    assert history_entry(report)["observe_lite"][0]["overhead_vs_off"] == 0.01
    assert "observe_lite" not in history_entry(_report(0.07))


def test_rolling_baseline_keys_on_observe_tier(tmp_path):
    """A lite-tier run is judged only against lite-tier history."""
    path = tmp_path / "history.jsonl"
    for seconds in (0.05, 0.05):
        append_history(_report(seconds), path)    # observe=off entries
    lite = _report(0.20)
    lite["observe"] = "lite"
    for _ in range(2):
        append_history(lite, path)
    history = load_history(path)
    assert rolling_baseline(history, DEFAULT_CELL, observe="off") == 0.05
    assert rolling_baseline(history, DEFAULT_CELL, observe="lite") == 0.20
    assert rolling_baseline(history, DEFAULT_CELL, observe="full") is None
    # The regression check resolves the pool from the report itself:
    # 0.06s would be a 20% lite regression but is clean against the
    # off pool, and vice versa for a slow off run against lite history.
    for _ in range(3):
        append_history(_report(0.05), path)
        append_history(lite, path)
    history = load_history(path)
    fresh_lite = _report(0.21)
    fresh_lite["observe"] = "lite"
    assert check_history_regression(fresh_lite, history, 0.25) is None
    slow_off = _report(0.21)
    error = check_history_regression(slow_off, history, 0.25)
    assert error is not None and "observe=" not in error
    breach = _report(0.30)
    breach["observe"] = "lite"
    error = check_history_regression(breach, history, 0.25)
    assert error is not None and "observe=lite" in error


def test_history_entry_captures_environment():
    entry = history_entry(_report(0.07))
    assert entry["python"] == "3.11.7"
    assert entry["cpu_count"] == 4
    assert entry["fastpath_enabled"] is True
    assert entry["quick"] is True
    assert entry["fast"] is True
    assert entry["timestamp"] == "2026-08-07T00:00:00"
    # Degenerate report: no cells.
    empty = history_entry({"cells": []})
    assert empty["cells"] == {} and empty["fast"] is True
