"""The run-report dashboard: aggregation, rendering, and the gate.

Built over a small observed slice of the figure-12 grid (one setup,
two benchmarks, three modes) so the whole file stays fast; the full
grid's behaviour is pinned by the reconciliation tests and the golden
figure-12 snapshot in ``test_obs_profile.py`` / ``test_golden_observed``.
"""

import json
import pathlib

import pytest

from repro.config import RunConfig
from repro.analysis.dashboard import RunReport, run_report
from repro.cli import build_parser, main as cli_main
from repro.modes import Mode
from repro.obs.tracer import TRACE
from repro.sim.runner import run_figure12
from repro.sim.setups import MLX_SETUP

GOLDEN = pathlib.Path(__file__).parent / "data" / "figure12_fast_golden.json"

SLICE_MODES = (Mode.STRICT, Mode.DEFER, Mode.RIOMMU)


@pytest.fixture(autouse=True)
def _clean_global_tracer():
    TRACE.reset()
    yield
    TRACE.reset()


@pytest.fixture(scope="module")
def report():
    TRACE.reset()
    return run_report(
        fast=True,
        setups=(MLX_SETUP,),
        benchmarks=("stream", "rr"),
        modes=SLICE_MODES,
    )


# -- aggregation ---------------------------------------------------------


def test_mode_summaries_fold_every_cell(report):
    summaries = report.mode_summaries()
    assert list(summaries) == list(SLICE_MODES)
    for summary in summaries.values():
        assert summary.cells == 2            # stream + rr
        assert summary.reconciled == 2
        assert summary.cycles_total > 0


def test_report_gate_passes_on_a_clean_run(report):
    assert report.unreconciled() == []
    assert report.reconciles is True
    assert report.audit_ok is True
    assert report.passed is True


def test_audit_aggregates_match_mode_promises(report):
    summaries = report.mode_summaries()
    defer = summaries[Mode.DEFER]
    assert defer.windows_opened > 0
    assert defer.stale_window_dmas > 0
    assert defer.protected and defer.audit_ok   # exposed but never breached
    for mode in (Mode.STRICT, Mode.RIOMMU):
        assert summaries[mode].stale_bytes == 0
        assert summaries[mode].audit_ok


def test_percentiles_merge_across_cells(report):
    for summary in report.mode_summaries().values():
        pct = summary.percentiles()
        assert "packet_cycles" in pct and "mapping_lifetime" in pct
        for dist in pct.values():
            assert dist["p50"] <= dist["p95"] <= dist["p99"]


# -- rendering -----------------------------------------------------------


def test_terminal_render_has_every_section(report):
    text = report.render()
    assert "Run report" in text
    assert "verdict: PASS" in text
    assert "Throughput and CPU (mlx)" in text
    assert "Cycle attribution" in text
    assert "Latency distributions" in text
    assert "Protection audit" in text
    for mode in SLICE_MODES:
        assert mode.label in text


def test_html_is_one_self_contained_page(report, tmp_path):
    page = report.to_html()
    assert page.startswith("<!DOCTYPE html>")
    assert page.rstrip().endswith("</html>")
    assert 'class="badge pass"' in page
    # Self-contained: no external assets to fetch.
    assert "href=" not in page and "src=" not in page
    out = tmp_path / "report.html"
    report.save_html(out)
    assert out.read_text() == page


def test_failed_reconciliation_flips_the_verdict(report):
    grid = report.grid
    tampered = RunReport(grid=grid, fast=True)
    cell = grid.get("mlx", "rr", Mode.DEFER)
    original = cell.obs
    cell.obs = dict(original)
    cell.obs["profile"] = dict(original["profile"])
    cell.obs["profile"]["reconciles"] = False
    cell.obs["profile"]["reconcile_delta"] = 7.0
    try:
        assert tampered.passed is False
        assert ("mlx", "rr", Mode.DEFER, 7.0) in tampered.unreconciled()
        assert "FAIL" in tampered.render()
        assert 'class="badge fail"' in tampered.to_html()
    finally:
        cell.obs = original


# -- CLI -----------------------------------------------------------------


def test_cli_parser_accepts_report_verb():
    args = build_parser().parse_args(["report", "--fast", "--html", "r.html"])
    assert args.experiment == "report"
    assert args.fast is True
    assert args.html == "r.html"


def test_cli_rejects_unknown_experiment(capsys):
    with pytest.raises(SystemExit):
        build_parser().parse_args(["reprot"])
    assert "invalid choice" in capsys.readouterr().err


# -- the acceptance pin: golden grid with observers enabled --------------


def test_golden_figure12_bit_identical_with_observers_on():
    """The full fast grid, observed, still equals the golden snapshot.

    The strongest form of the zero-interference guarantee: running the
    profiler + auditor + histograms over every cell changes not one
    modelled number relative to the snapshot captured before any
    observability existed (``obs`` is deliberately outside
    ``RunResult.to_dict``).
    """
    observed = run_figure12(jobs=1, config=RunConfig(fast=True, observe=True)).to_dict()
    golden = json.loads(GOLDEN.read_text())
    assert observed == golden
