"""The unified RunConfig surface: round trips, loud failures, worker parity.

The contract: every run-shaping knob lives in one frozen ``RunConfig``;
the environment is just its wire format (``from_env(to_env()) ==
config``); a malformed variable raises naming it; and grid worker
processes reconstruct the parent's config bit-identically from the
exported environment.
"""

import json
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from repro.config import (
    DATAPATH_ENV,
    DEFAULT_BUILD,
    ENV_VARS,
    OBSERVE_ENV,
    SHARDS_ENV,
    TENANCY_ENV,
    TIMELINE_WINDOW_ENV,
    RunConfig,
    datapath_from_env,
)
from repro.sim.runner import _resolve_config
from repro.sim.tenancy import preset_scenario


@pytest.fixture(autouse=True)
def _clean_knob_env(monkeypatch):
    """Every test sees a pristine knob environment."""
    for name in ENV_VARS:
        monkeypatch.delenv(name, raising=False)


# -- the record itself ---------------------------------------------------


def test_defaults_match_the_documented_knob_defaults():
    config = RunConfig()
    assert [field.name for field in fields(RunConfig)] == [
        "fast", "shards", "observe", "timeline_window", "tenancy"
    ]
    assert config.fast is False
    assert config.shards == 1
    assert config.observe == "off"
    assert config.timeline_window is None
    assert config.tenancy is None


def test_config_is_frozen():
    config = RunConfig()
    with pytest.raises(FrozenInstanceError):
        config.shards = 4


def test_bad_build_and_shards_fail_loudly():
    # The build is a process switch (set_datapath), not a config field.
    with pytest.raises(TypeError, match="datapath"):
        RunConfig(datapath="scalar")
    with pytest.raises(ValueError, match="unknown datapath build"):
        datapath_from_env({DATAPATH_ENV: "vectorized"})
    # A shard count that does not parse is an error, not a silent
    # fallback to a serial run.
    with pytest.raises(ValueError, match="REPRO_SHARDS"):
        RunConfig.from_env({SHARDS_ENV: "not-a-number"})


def test_removed_veto_variables_are_ignored():
    """The old REPRO_DISABLE_* switches no longer select a build."""
    env = {"REPRO_DISABLE_FASTPATH": "1", "REPRO_DISABLE_BATCH": "1"}
    assert datapath_from_env(env) == DEFAULT_BUILD


def test_observe_accepts_levels_and_legacy_bools():
    assert RunConfig(observe="lite").observe == "lite"
    assert RunConfig(observe="full").observe == "full"
    assert RunConfig(observe=True).observe == "full"
    assert RunConfig(observe=False).observe == "off"
    with pytest.raises(ValueError, match="unknown observe level"):
        RunConfig(observe="verbose")


def test_observe_env_round_trips_every_level():
    for level in ("off", "lite", "full"):
        config = RunConfig(observe=level)
        assert config.to_env()[OBSERVE_ENV] == level
        assert RunConfig.from_env(config.to_env()).observe == level
    # The historical boolean wire values still parse.
    assert RunConfig.from_env({OBSERVE_ENV: "1"}).observe == "full"
    assert RunConfig.from_env({OBSERVE_ENV: "0"}).observe == "off"
    with pytest.raises(ValueError, match="REPRO_OBSERVE"):
        RunConfig.from_env({OBSERVE_ENV: "verbose"})


def test_shards_normalize_at_construction():
    assert RunConfig(shards=4).shards == 4
    per_cpu = RunConfig(shards=0).shards
    assert per_cpu == (os.cpu_count() or 1)
    assert RunConfig(shards=-3).shards == per_cpu


@pytest.mark.parametrize(
    "reader, variable, value",
    [
        (RunConfig.from_env, TIMELINE_WINDOW_ENV, "abc"),
        (RunConfig.from_env, TIMELINE_WINDOW_ENV, "-5"),
        (RunConfig.from_env, TIMELINE_WINDOW_ENV, "0"),
        (RunConfig.from_env, TENANCY_ENV, "{bad"),
        (RunConfig.from_env, TENANCY_ENV, json.dumps({"x": 1})),
        (RunConfig.from_env, TENANCY_ENV, json.dumps({"tenants": 3})),
        (datapath_from_env, DATAPATH_ENV, "batchd"),
    ],
    ids=[
        "window-not-a-number",
        "window-negative",
        "window-zero",
        "tenancy-not-json",
        "tenancy-no-tenants",
        "tenancy-tenants-not-a-list",
        "datapath-unknown-build",
    ],
)
def test_malformed_variable_raises_value_error_naming_it(reader, variable, value):
    with pytest.raises(ValueError, match=variable):
        reader({variable: value})


# -- env round trip ------------------------------------------------------


def test_to_env_from_env_round_trips_every_field():
    config = RunConfig(
        fast=True,
        shards=4,
        observe=True,
        timeline_window=5000.0,
        tenancy=preset_scenario("critical"),
    )
    rebuilt = RunConfig.from_env(config.to_env())
    # fast rides in the work item, never the environment.
    assert rebuilt == replace(config, fast=False)
    assert rebuilt.tenancy == config.tenancy
    assert rebuilt.tenancy.slo_gated


def test_to_env_omits_unset_optionals():
    exported = RunConfig().to_env()
    assert TIMELINE_WINDOW_ENV not in exported
    assert TENANCY_ENV not in exported
    assert DATAPATH_ENV not in exported
    assert exported[SHARDS_ENV] == "1"
    assert exported[OBSERVE_ENV] == "off"


def test_from_env_reads_the_documented_variables():
    env = {
        DATAPATH_ENV: "scalar",
        SHARDS_ENV: "3",
        OBSERVE_ENV: "1",
        TIMELINE_WINDOW_ENV: "250000.0",
    }
    config = RunConfig.from_env(env)
    assert datapath_from_env(env) == "scalar"
    assert config.shards == 3
    assert config.observe == "full"
    assert config.timeline_window == 250000.0


def test_exported_sets_then_restores_the_environment():
    os.environ[DATAPATH_ENV] = "scalar"
    os.environ.pop(SHARDS_ENV, None)
    config = RunConfig(shards=2, tenancy=preset_scenario("balanced"))
    with config.exported():
        # The build belongs to set_datapath; exported() leaves it be.
        assert os.environ[DATAPATH_ENV] == "scalar"
        assert os.environ[SHARDS_ENV] == "2"
        assert TENANCY_ENV in os.environ
        assert RunConfig.from_env() == replace(config, fast=False)
    assert os.environ[DATAPATH_ENV] == "scalar"
    assert SHARDS_ENV not in os.environ
    assert TENANCY_ENV not in os.environ


# -- the runner's config resolution ---------------------------------------


def test_observe_kwarg_merges_silently():
    assert _resolve_config(None, observe=True).observe == "full"
    assert _resolve_config(None, observe=None).observe == "off"
    assert _resolve_config(None, observe="lite").observe == "lite"
    explicit = _resolve_config(RunConfig(observe=True), observe=False)
    assert explicit.observe == "off"


def test_config_argument_passes_through_unchanged():
    config = RunConfig(fast=True, shards=2)
    assert _resolve_config(config) is config


def test_worker_pool_reconstructs_an_identical_config():
    """Every pool worker's from_env() equals the parent's exported config."""
    from concurrent.futures import ProcessPoolExecutor

    from repro.sim.parallel import worker_config_probe

    config = RunConfig(
        shards=2,
        observe=True,
        tenancy=preset_scenario("aggressor"),
    )
    with config.exported():
        try:
            with ProcessPoolExecutor(max_workers=2) as pool:
                probes = list(pool.map(worker_config_probe, range(4)))
        except OSError:
            pytest.skip("process pools unavailable on this host")
    expected = replace(config, fast=False)
    assert all(probe == expected for probe in probes)


def _worker_build(_: object) -> str:
    from repro import datapath

    return datapath.current_build()


def test_pool_workers_run_the_parents_build_inside_exported(scalar_build):
    """A freshly spawned worker runs the build the parent set.

    ``exported()`` leaves ``REPRO_DATAPATH`` to ``set_datapath``, so a
    default ``RunConfig()`` export cannot reset the workers to the
    default build.  Spawned (not forked) workers import ``repro`` anew,
    so they see the build only through the environment.
    """
    with scalar_build(), RunConfig().exported():
        try:
            with ProcessPoolExecutor(
                max_workers=1, mp_context=multiprocessing.get_context("spawn")
            ) as pool:
                builds = list(pool.map(_worker_build, range(2)))
        except OSError:
            pytest.skip("process pools unavailable on this host")
    assert builds == ["scalar", "scalar"]
