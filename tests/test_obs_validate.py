"""The ``python -m repro.obs.validate`` CLI: exit codes and messages.

A real captured trace validates clean (exit 0, ``path: OK``); targeted
corruptions — unknown event type, non-monotonic timestamps, a wrong
schema header — each produce a ``path: line N: ...`` error and exit 1;
no arguments prints usage and exits 2.
"""

import json

import pytest

from repro.config import RunConfig
from repro.modes import Mode
from repro.obs.export import write_jsonl
from repro.obs.tracer import TRACE
from repro.obs.validate import main
from repro.sim.runner import run_benchmark
from repro.sim.setups import MLX_SETUP

FAST = RunConfig(fast=True)


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    TRACE.reset()
    yield
    TRACE.reset()


@pytest.fixture()
def trace_path(tmp_path):
    """A real JSONL trace captured from one fast benchmark run."""
    TRACE.enable()
    run_benchmark(MLX_SETUP, Mode.RIOMMU, "rr", config=FAST)
    TRACE.disable()
    path = tmp_path / "run.jsonl"
    write_jsonl(TRACE, path)
    return path


def _rewrite(path, mutate):
    """Apply ``mutate(record) -> record|None`` to every line of a trace."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    out = [r for r in (mutate(rec) for rec in records) if r is not None]
    path.write_text("".join(json.dumps(r) + "\n" for r in out))


def test_valid_trace_passes(trace_path, capsys):
    assert main([str(trace_path)]) == 0
    assert capsys.readouterr().out.strip() == f"{trace_path}: OK"


def test_no_arguments_prints_usage_and_exits_2(capsys):
    assert main([]) == 2
    assert "usage:" in capsys.readouterr().out


def test_missing_file_is_an_error(tmp_path, capsys):
    path = tmp_path / "nope.jsonl"
    assert main([str(path)]) == 1
    assert "unreadable trace" in capsys.readouterr().out


def test_unknown_event_type_fails(trace_path, capsys):
    def corrupt(record):
        if record.get("event") == "translate":
            record["event"] = "teleport"
        return record

    _rewrite(trace_path, corrupt)
    assert main([str(trace_path)]) == 1
    assert "unknown event type 'teleport'" in capsys.readouterr().out


def test_negative_timestamp_fails(trace_path, capsys):
    state = {"done": False}

    def corrupt(record):
        if not state["done"] and record.get("event") != "trace_meta":
            record["ts"] = -5.0
            state["done"] = True
        return record

    _rewrite(trace_path, corrupt)
    assert main([str(trace_path)]) == 1
    assert "bad timestamp" in capsys.readouterr().out


def test_non_monotonic_timestamps_fail(trace_path, capsys):
    records = [json.loads(line) for line in trace_path.read_text().splitlines()]
    # Rewind the last event's clock below its predecessor's.
    records[-1]["ts"] = 0.0
    assert records[-2].get("ts", 0) > 0  # the trace really is long enough
    trace_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main([str(trace_path)]) == 1
    assert "went backwards" in capsys.readouterr().out


def test_wrong_schema_header_fails(trace_path, capsys):
    def corrupt(record):
        if record.get("event") == "trace_meta":
            record["schema"] = "riommu-repro/trace/v0"
        return record

    _rewrite(trace_path, corrupt)
    assert main([str(trace_path)]) == 1
    assert "schema" in capsys.readouterr().out


def test_one_bad_file_among_good_still_exits_1(trace_path, tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("")  # empty: no trace_meta header
    assert main([str(trace_path), str(bad)]) == 1
    out = capsys.readouterr().out
    assert f"{trace_path}: OK" in out
    assert "empty trace" in out

# -- multi-artifact dispatch (timeline / diff / history / directories) ---


@pytest.fixture()
def timeline_path(tmp_path):
    """A timeline JSONL exported from one observed run."""
    from repro.obs.timeline import write_timeline

    result = run_benchmark(MLX_SETUP, Mode.DEFER, "rr", config=FAST, observe=True)
    path = tmp_path / "timeline.jsonl"
    write_timeline(result.obs["timeline"], path)
    return path


def test_valid_timeline_passes(timeline_path, capsys):
    assert main([str(timeline_path)]) == 0
    assert capsys.readouterr().out.strip() == f"{timeline_path}: OK"


def test_corrupt_timeline_window_index_fails(timeline_path, capsys):
    records = [json.loads(line) for line in timeline_path.read_text().splitlines()]
    assert len(records) > 3
    records[1], records[2] = records[2], records[1]
    timeline_path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert main([str(timeline_path)]) == 1
    assert "went backwards" in capsys.readouterr().out


def test_valid_diff_report_passes(tmp_path, capsys):
    from repro.obs.diffing import diff_metrics

    report = diff_metrics({"x": 1}, {"x": 2})
    path = tmp_path / "diff.json"
    report.save_json(path)
    assert main([str(path)]) == 0
    assert f"{path}: OK" in capsys.readouterr().out

    payload = json.loads(path.read_text())
    payload["kind"] = "nonsense"
    path.write_text(json.dumps(payload))
    assert main([str(path)]) == 1


def test_valid_bench_history_passes(tmp_path, capsys):
    path = tmp_path / "BENCH_history.jsonl"
    entry = {
        "schema": "riommu-repro/bench-history/v1",
        "timestamp": "2026-08-07T00:00:00",
        "cells": {"mlx/stream/strict": 0.07},
    }
    path.write_text(json.dumps(entry) + "\n")
    assert main([str(path)]) == 0

    entry["cells"] = {"not-a-cell-key": -1.0}
    path.write_text(json.dumps(entry) + "\n")
    assert main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "setup/bench/mode" in out and "bad seconds" in out


def test_directory_scan_validates_mixed_artifacts(
    trace_path, timeline_path, tmp_path, capsys
):
    art_dir = tmp_path / "artifacts"
    art_dir.mkdir()
    (art_dir / "run.jsonl").write_text(trace_path.read_text())
    (art_dir / "timeline.jsonl").write_text(timeline_path.read_text())
    # A foreign JSONL (no recognisable header) is skipped, not failed.
    (art_dir / "foreign.jsonl").write_text('{"hello": "world"}\n')
    # A foreign JSON is skipped too.
    (art_dir / "foreign.json").write_text('{"schema": "someone/elses"}\n')
    assert main([str(art_dir)]) == 0
    out = capsys.readouterr().out
    assert out.count(": OK") == 2
    assert out.count("SKIP") == 2


def test_directory_scan_fails_on_bad_member(trace_path, tmp_path, capsys):
    art_dir = tmp_path / "artifacts"
    art_dir.mkdir()
    (art_dir / "bad.jsonl").write_text('{"event": "trace_meta"}\n{"event": "warp"}\n')
    assert main([str(art_dir)]) == 1
    assert "unknown event type" in capsys.readouterr().out


def test_empty_directory_is_an_error(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert main([str(empty)]) == 1
    assert "empty directory" in capsys.readouterr().out


def test_explicit_unrecognized_artifact_is_an_error(tmp_path, capsys):
    path = tmp_path / "mystery.json"
    path.write_text('{"schema": "someone/elses"}')
    assert main([str(path)]) == 1
    assert "unrecognized schema" in capsys.readouterr().out


# -- telemetry/v1 dispatch and the scan tally -----------------------------


@pytest.fixture()
def telemetry_path(tmp_path):
    """A telemetry/v1 JSONL dumped from one lite run."""
    from repro.config import RunConfig
    from repro.obs.lite import write_telemetry

    result = run_benchmark(
        MLX_SETUP,
        Mode.RIOMMU,
        "rr",
        config=RunConfig(fast=True, observe="lite"),
    )
    path = tmp_path / "telemetry.jsonl"
    write_telemetry(result.telemetry, path)
    return path


def test_valid_telemetry_passes(telemetry_path, capsys):
    assert main([str(telemetry_path)]) == 0
    assert capsys.readouterr().out.strip() == f"{telemetry_path}: OK"


def test_corrupt_telemetry_event_fails(telemetry_path, capsys):
    def corrupt(record):
        if record.get("event") == "metrics":
            record["event"] = "vibes"
        return record

    _rewrite(telemetry_path, corrupt)
    assert main([str(telemetry_path)]) == 1
    assert "unknown telemetry event 'vibes'" in capsys.readouterr().out


def test_telemetry_without_profile_fails(telemetry_path, capsys):
    _rewrite(
        telemetry_path,
        lambda record: None if record.get("event") == "profile" else record,
    )
    assert main([str(telemetry_path)]) == 1
    assert "exactly one profile record" in capsys.readouterr().out


def test_directory_scan_ends_with_a_tally(telemetry_path, tmp_path, capsys):
    art_dir = tmp_path / "artifacts"
    art_dir.mkdir()
    (art_dir / "telemetry.jsonl").write_text(telemetry_path.read_text())
    (art_dir / "foreign.jsonl").write_text('{"hello": "world"}\n')
    (art_dir / "bad.jsonl").write_text(
        '{"event": "trace_meta"}\n{"event": "warp"}\n'
    )
    assert main([str(art_dir)]) == 1
    out = capsys.readouterr().out
    assert out.rstrip().splitlines()[-1] == "1 ok / 1 skipped / 1 failed"
    # Explicit file arguments keep the terse historical output: no tally.
    assert main([str(telemetry_path)]) == 0
    assert "ok /" not in capsys.readouterr().out


def _arm_record(**changes):
    """A well-formed ``ablation-arm/v1`` record, with ``changes`` applied."""
    from repro.sim.components import ARM_SCHEMA, ArmSpec, arm_id

    spec = ArmSpec(fast=True)
    record = {
        "schema": ARM_SCHEMA,
        "id": arm_id(spec),
        "spec": spec.to_dict(),
        "packets": 10,
        "throughput": 1.0,
        "cycles_total": 100.0,
        "cycles_per_packet": 10.0,
        "attribution": {},
        "attributed_cycles": 100.0,
        "reconcile_delta": 0.0,
        "reconciles": True,
        "audit": {},
        "passes_agree": True,
    }
    record.update(changes)
    return record


def test_arm_record_with_null_audit_is_a_validation_error(tmp_path, capsys):
    path = tmp_path / "arm.json"
    path.write_text(json.dumps(_arm_record(audit=None)))
    assert main([str(path)]) == 1
    assert "audit is not an object" in capsys.readouterr().out


def test_report_with_non_object_row_and_arm_is_a_validation_error(
    tmp_path, capsys
):
    from repro.analysis.ablate import ABLATION_SCHEMA

    path = tmp_path / "report.json"
    path.write_text(
        json.dumps(
            {
                "schema": ABLATION_SCHEMA,
                "baseline_id": "x",
                "noise_floor": 0.0,
                "ranking": [3],
                "arms": {"x": None},
                "passed": True,
            }
        )
    )
    assert main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "ranking row 1: not an object" in out
    assert "arm x: record is not an object" in out
