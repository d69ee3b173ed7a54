"""Datapath-build parity matrix: scalar == columnar, bit-exactly.

The columnar tentpole's contract: every figure-12 mode, under every
datapath build, with observers on or off, produces bit-identical
modelled numbers (``cycles_total``, statistics, the whole run dict and
metrics summary).  With observers on, the CycleProfiler fold must
reconcile bit-exactly against ``cycles_total`` under every build, and a
single perturbed charge in a columnar-build trace must still localize
to the exact diverging record — observability keeps its teeth no matter
which build ran.
"""

import copy

import pytest

from repro.config import RunConfig
from repro import datapath
from repro.analysis.diff import _run_live
from repro.modes import ALL_MODES
from repro.obs.diffing import diff_traces
from repro.obs.tracer import TRACE
from repro.sim.runner import run_benchmark
from repro.sim.setups import MLX_SETUP

FAST = RunConfig(fast=True)


@pytest.fixture(autouse=True)
def _restore_default_build():
    TRACE.reset()
    yield
    datapath.set_datapath(datapath.DEFAULT_BUILD)
    TRACE.reset()


def _run(mode, build, observe):
    datapath.set_datapath(build)
    return run_benchmark(MLX_SETUP, mode, "rr", config=FAST, observe=observe)


# -- the matrix: every mode x both builds x observers on/off -------------


@pytest.mark.parametrize("observe", [False, True], ids=["observe-off", "observe-on"])
@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.label for m in ALL_MODES])
def test_parity_matrix(mode, observe):
    reference = _run(mode, "scalar", observe)
    result = _run(mode, "columnar", observe)
    assert result.cycles_total == reference.cycles_total
    assert result.to_dict() == reference.to_dict()
    if observe:
        # The whole observability summary — profiler attribution,
        # metrics snapshot, audit — is build-invariant too.
        assert result.obs == reference.obs
        assert result.obs["profile"]["reconciles"] is True
        assert result.obs["profile"]["reconcile_delta"] == 0.0
        assert result.obs["profile"]["total_cycles"] == result.cycles_total
    else:
        assert result.obs is None


# -- observer-on reconciliation is exact under the columnar build --------


@pytest.mark.parametrize("mode", ALL_MODES, ids=[m.label for m in ALL_MODES])
def test_columnar_build_reconciles_with_observers_on(mode):
    datapath.set_datapath("columnar")
    result = run_benchmark(MLX_SETUP, mode, "stream", config=FAST, observe=True)
    profile = result.obs["profile"]
    assert profile["reconciles"] is True
    assert profile["reconcile_delta"] == 0.0
    assert sum(profile["by_primitive"].values()) == pytest.approx(
        result.cycles_total, rel=0, abs=1e-6
    )


# -- perturbation localization survives the columnar build ---------------


def test_perturbed_charge_localizes_exactly_under_columnar():
    """One +7.0-cycle perturbation in a columnar-build trace is pinned
    to the exact record and the exact Table 1 component."""
    datapath.set_datapath("columnar")
    TRACE.reset()
    golden = _run_live("mlx/rr/strict", fast=True)
    TRACE.reset()

    perturbed = copy.deepcopy(golden)
    last_reset = max(
        i for i, r in enumerate(perturbed) if r.get("event") == "cycle_reset"
    )
    charges = [
        i
        for i, r in enumerate(perturbed)
        if r.get("event") == "cycle_charge" and i > last_reset
    ]
    target = charges[len(charges) // 2]
    comp = perturbed[target]["comp"]
    perturbed[target] = dict(
        perturbed[target], cycles=perturbed[target]["cycles"] + 7.0
    )

    report = diff_traces(golden, perturbed, context=2)
    assert not report.clean
    assert report.divergence["index"] == target - 1
    changed = report.divergence["changed_fields"]
    assert list(changed) == ["cycles"]
    a_cycles, b_cycles = changed["cycles"]
    assert b_cycles - a_cycles == 7.0
    assert list(report.component_deltas) == [comp]
    assert report.component_deltas[comp][2] == pytest.approx(7.0)
