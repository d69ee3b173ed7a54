"""Parallel execution of the evaluation grid.

Every (setup, benchmark, mode) cell of Figure 12 is an independent
simulation — each ``run_benchmark`` call builds its own machine, so
cells share no state and can run in separate worker processes.  This
module fans cells out over a :class:`~concurrent.futures.ProcessPoolExecutor`
and merges the results back into an :class:`~repro.sim.runner.EvaluationGrid`
whose iteration order is *identical* to the serial runner's nested
loops, so ``to_dict()`` output is byte-for-byte the same regardless of
worker count (the parity tests pin this).

Cells are shipped to workers by name (setup name, benchmark name, mode
label) rather than by object, so nothing fancy needs to pickle; the
worker re-resolves the objects from the registries.  If a pool cannot
be created or dies (no ``fork`` support, resource limits, a worker
killed), the runner falls back to executing the remaining cells
serially in-process — slower, never wrong.
"""

from __future__ import annotations

import os
import pickle
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, TypeVar

from repro.modes import ALL_MODES, Mode
from repro.sim.results import RunResult
from repro.sim.setups import ALL_SETUPS, Setup, setup_by_name

T = TypeVar("T")
U = TypeVar("U")

#: One grid cell, in picklable-by-name form: (setup, benchmark, mode, fast).
GridCell = Tuple[str, str, str, bool]


def resolve_jobs(jobs: Optional[int]) -> int:
    """Normalise a ``--jobs`` request to a worker count.

    ``None`` or ``1`` mean serial; ``0`` (and negatives) mean "one
    worker per available CPU"; anything else is taken literally.
    """
    if jobs is None:
        return 1
    if jobs <= 0:
        return os.cpu_count() or 1
    return jobs


def worker_env_probe(names: Tuple[str, ...]) -> Dict[str, Optional[str]]:
    """Report a worker process's view of the given environment variables.

    A module-level function so it pickles to pool workers; the env
    propagation tests map it across a real pool to pin that the knob
    exports (``set_datapath``/``set_shards``/``REPRO_OBSERVE``) actually
    reach ``run_grid``'s worker processes, not just the parent.  Also
    carries the worker's PID so a test can tell whether a pool was
    really used or the serial fallback ran.
    """
    return dict(
        {name: os.environ.get(name) for name in names},
        _pid=str(os.getpid()),
    )


def worker_config_probe(_: object = None) -> "RunConfig":
    """Reconstruct a worker process's :class:`RunConfig` from its env.

    A module-level function so it pickles to pool workers; the config
    round-trip test maps it across a real pool to pin that a parent's
    ``RunConfig.exported()`` block makes every worker resolve an
    *identical* config — the one-funnel replacement for probing knob
    variables individually.
    """
    from repro.config import RunConfig

    return RunConfig.from_env()


def run_cell(cell: GridCell) -> RunResult:
    """Execute one grid cell (the worker-process entry point).

    The worker's knobs come from the environment the parent exported
    (``RunConfig.from_env()``); only ``fast`` rides in the cell itself,
    because it is per-work-item sizing, not process configuration.
    """
    # Imported lazily: the runner imports this module for its public
    # helpers, so a top-level import would be circular.
    from repro.config import RunConfig
    from repro.sim.runner import run_with_config

    setup_name, benchmark, mode_label, fast = cell
    config = RunConfig.from_env(fast=fast)
    return run_with_config(
        setup_by_name(setup_name), Mode(mode_label), benchmark, config
    )


def parallel_map(
    fn: Callable[[T], U],
    items: Sequence[T],
    max_workers: int,
    chunksize: int = 1,
) -> List[U]:
    """``[fn(x) for x in items]`` across ``max_workers`` processes.

    Result order matches ``items`` order.  Falls back to a plain serial
    loop if the pool cannot be created or breaks mid-flight; exceptions
    raised by ``fn`` itself are *not* swallowed — they propagate exactly
    as they would from the serial loop.
    """
    if max_workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool

    try:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            return list(pool.map(fn, items, chunksize=max(chunksize, 1)))
    except (OSError, BrokenProcessPool, pickle.PicklingError, AttributeError, TypeError):
        # Pool machinery failed (fork unavailable, worker killed, or an
        # unpicklable payload — CPython raises AttributeError/TypeError,
        # not PicklingError, for lambdas and locals).  Not a workload
        # error: degrade to serial, where a genuine fn exception would
        # re-raise identically anyway.
        return [fn(item) for item in items]


def grid_cells(
    setups: Iterable[Setup] = ALL_SETUPS,
    benchmarks: Iterable[str] = (),
    modes: Iterable[Mode] = ALL_MODES,
    fast: bool = False,
) -> List[GridCell]:
    """The grid flattened to cells, in the serial runner's nested order."""
    return [
        (setup.name, benchmark, mode.label, fast)
        for setup in setups
        for benchmark in benchmarks
        for mode in modes
    ]


def run_grid(
    setups: Iterable[Setup] = ALL_SETUPS,
    benchmarks: Iterable[str] = (),
    modes: Iterable[Mode] = ALL_MODES,
    fast: bool = False,
    jobs: Optional[int] = None,
    chunksize: int = 1,
):
    """Run the evaluation grid across ``jobs`` worker processes.

    Returns an :class:`~repro.sim.runner.EvaluationGrid` indistinguishable
    from ``run_figure12(...)`` run serially: cells are merged in the
    serial nested-loop order, so dict iteration (and therefore
    ``to_dict()`` / saved JSON) is identical for any worker count.
    """
    from repro.sim.runner import BENCHMARK_NAMES, EvaluationGrid

    setups = tuple(setups)
    benchmarks = tuple(benchmarks) if benchmarks else BENCHMARK_NAMES
    modes = tuple(modes)
    cells = grid_cells(setups, benchmarks, modes, fast)
    results = parallel_map(run_cell, cells, resolve_jobs(jobs), chunksize)

    grid = EvaluationGrid()
    for (setup_name, benchmark, mode_label, _), result in zip(cells, results):
        grid.results.setdefault(setup_name, {}).setdefault(benchmark, {})[
            Mode(mode_label)
        ] = result
    return grid
