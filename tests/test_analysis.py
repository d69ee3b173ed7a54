"""Tests for the experiment drivers (E1-E9) at reduced scale."""

import pytest

from repro.config import RunConfig
from repro.analysis import (
    format_table,
    run_figure7,
    run_figure8,
    run_miss_penalty,
    run_prefetcher_study,
    run_sata,
    run_table1,
    run_table3,
    table2_from_grid,
)
from repro.analysis.paper_data import PAPER_TABLE2, TABLE2_DENOMINATORS
from repro.modes import ALL_MODES, BASELINE_MODES, Mode
from repro.perf import TABLE1_CYCLES, Component
from repro.sim import run_figure12


def test_format_table_alignment():
    text = format_table(["a", "bb"], [[1, 2.5], ["xxx", 10000.0]], title="T")
    lines = text.splitlines()
    assert lines[0] == "T"
    assert "a" in lines[1] and "bb" in lines[1]
    assert "10,000" in text


# -- E1 ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def table1():
    return run_table1(packets=200, warmup=50)


def test_table1_reproduces_constants(table1):
    for mode in BASELINE_MODES:
        for component, paper_value in TABLE1_CYCLES[mode].items():
            measured = table1.averages[mode][component]
            assert measured == pytest.approx(paper_value, rel=0.02), (
                mode,
                component,
            )


def test_table1_render_contains_sums(table1):
    text = table1.render()
    assert "4,618" in text or "4618" in text
    assert "iova alloc" in text


# -- E2 ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def figure7():
    return run_figure7(packets=200, warmup=50)


def test_figure7_strict_near_10x(figure7):
    assert figure7.relative(Mode.STRICT) == pytest.approx(9.4, abs=0.5)
    assert figure7.relative(Mode.NONE) == pytest.approx(1.0, abs=0.01)


def test_figure7_stacks_ordered(figure7):
    totals = [figure7.total(m) for m in ALL_MODES]
    assert totals == sorted(totals, reverse=True)


def test_figure7_iotlb_inv_vanishes_in_defer(figure7):
    assert figure7.stacks[Mode.DEFER]["iotlb inv"] < 50
    assert figure7.stacks[Mode.STRICT]["iotlb inv"] > 4000


def test_figure7_render(figure7):
    text = figure7.render()
    assert "x of C_none" in text


# -- E3 ------------------------------------------------------------------------


def test_figure8_model_validation():
    figure8 = run_figure8(
        busywait_sweep=(0, 2000, 8000), curve_points=10, packets=120, warmup=30
    )
    # The paper's point: the model coincides with the busy-wait measurements.
    assert figure8.max_model_error() < 0.02
    assert len(figure8.model_curve) == 10
    assert Mode.STRICT in figure8.mode_points
    assert "busy-wait" in figure8.render()


# -- E4/E5 ----------------------------------------------------------------------


@pytest.fixture(scope="module")
def grid():
    return run_figure12(config=RunConfig(fast=True))


def test_grid_covers_everything(grid):
    assert set(grid.results) == {"mlx", "brcm"}
    for setup in ("mlx", "brcm"):
        assert len(grid.results[setup]) == 5
        for panel in grid.results[setup].values():
            assert set(panel) == set(ALL_MODES)


def test_table2_mlx_stream_close_to_paper(grid):
    table2 = table2_from_grid(grid)
    for numerator in (Mode.RIOMMU, Mode.RIOMMU_NC):
        for denominator in TABLE2_DENOMINATORS:
            measured = table2.cell("mlx", "stream", "throughput", numerator, denominator)
            paper = PAPER_TABLE2["mlx"]["stream"]["throughput"][numerator][denominator]
            assert measured == pytest.approx(paper, rel=0.12), (numerator, denominator)


def test_table2_render_includes_paper_rows(grid):
    text = table2_from_grid(grid).render()
    assert "(paper)" in text


# -- E6 ------------------------------------------------------------------------


def test_table3_close_to_paper():
    table3 = run_table3(transactions=60, warmup=10)
    from repro.perf import TABLE3_RTT_US

    for setup_name in ("mlx", "brcm"):
        for mode in ALL_MODES:
            measured = table3.rtt_us[setup_name][mode]
            paper = TABLE3_RTT_US[setup_name][mode]
            assert measured == pytest.approx(paper, rel=0.08), (setup_name, mode)


# -- E7 ------------------------------------------------------------------------


def test_miss_penalty_near_paper():
    result = run_miss_penalty(pool_size=256, sends=1500)
    assert result.single_hit_rate > 0.99
    assert result.pool_hit_rate < 0.3
    # ~1,532 cycles / ~0.5 us in the paper.
    assert 1000 <= result.miss_penalty_cycles <= 1600
    assert 0.3 <= result.miss_penalty_us <= 0.55
    assert "miss penalty" in result.render()


# -- E8 ------------------------------------------------------------------------


def test_prefetcher_study_bottom_line():
    study = run_prefetcher_study(packets=150, history_capacities=(64, 2048))
    assert study.riotlb.served_without_walk > 0.95
    recency_mod = study.best("recency", "modified")
    recency_base = study.best("recency", "baseline")
    assert recency_mod.hit_rate > recency_base.hit_rate
    assert "rIOTLB" in study.render()


# -- E9 ------------------------------------------------------------------------


def test_sata_indistinguishable():
    result = run_sata(requests=6)
    assert result.slowdown < 1.02
    assert result.out_of_order_completions
    assert "slowdown" in result.render()
