"""Performance trajectory harness for the simulator itself.

Times representative evaluation-grid cells and the serial-vs-parallel
grid, then emits ``BENCH_runner.json`` so successive changes to the
simulator have a comparable wall-clock record (the functional results
are pinned elsewhere — this file is about *speed*, not correctness).

Run directly::

    PYTHONPATH=src python benchmarks/perf_harness.py [--jobs N] [--full]

or through the smoke/perf tests in ``test_perf_harness.py``.  Output
goes to ``benchmarks/output/BENCH_runner.json`` by default.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(1, str(pathlib.Path(__file__).resolve().parent))

from repro import datapath as repro_datapath  # noqa: E402
from repro.config import OBSERVE_ENV, OBSERVE_LEVELS, RunConfig  # noqa: E402
from repro.modes import ALL_MODES, Mode  # noqa: E402
from repro.sim import scheduler as repro_scheduler  # noqa: E402
from repro.sim.parallel import grid_cells, resolve_jobs, run_cell, run_grid  # noqa: E402
from repro.sim.runner import BENCHMARK_NAMES, run_with_config  # noqa: E402
from repro.sim.setups import ALL_SETUPS, setup_by_name  # noqa: E402

DEFAULT_OUTPUT = pathlib.Path(__file__).parent / "output" / "BENCH_runner.json"

#: The tracked copy at the repo root: ``benchmarks/output/`` is
#: gitignored scratch space, so the CLI mirrors each report here to
#: keep the perf trajectory visible (and diffable) across commits.
ROOT_OUTPUT = pathlib.Path(__file__).parent.parent / "BENCH_runner.json"

#: Cells timed individually: the paper's headline benchmark (stream)
#: under the cheapest and the most expensive protection regimes, plus a
#: request-server workload — enough spread to catch a regression in any
#: of the map/unmap, translation, or byte-copy paths.
REPRESENTATIVE_CELLS: Tuple[Tuple[str, str, str], ...] = (
    ("mlx", "stream", "strict"),
    ("mlx", "stream", "riommu"),
    ("mlx", "stream", "none"),
    ("mlx", "rr", "strict"),
    ("mlx", "memcached", "defer"),
    # The event kernel's multi-domain scaling cell (not a figure-12
    # workload): N independent stream domains on one event heap.
    ("mlx", "mstream", "strict"),
    # The multi-tenant interference scenario (balanced preset): four
    # heterogeneous tenants on one contended IOMMU, under the costliest
    # baseline and under rIOMMU — the scenario sweep's wall-clock cells.
    ("mlx", "tenants", "strict"),
    ("mlx", "tenants", "riommu"),
)

#: The cell the intra-run sharding measurement times serial vs sharded.
SHARDING_CELL: Tuple[str, str, str] = ("mlx", "mstream", "strict")

#: Cells the lite-telemetry overhead measurement times observe=off vs
#: observe=lite: the stream cells, whose observer-free columnar loops
#: the lite tier must leave active.
OBSERVE_CELLS: Tuple[Tuple[str, str, str], ...] = tuple(
    cell for cell in REPRESENTATIVE_CELLS if cell[1] == "stream"
)


def time_repeats(fn, repeats: int = 3) -> List[float]:
    """Wall-clock seconds of each of ``repeats`` calls of ``fn()``."""
    times: List[float] = []
    for _ in range(max(repeats, 1)):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return times


def time_call(fn, repeats: int = 3) -> float:
    """Best-of-``repeats`` wall-clock seconds of ``fn()``."""
    return min(time_repeats(fn, repeats))


def time_representative_cells(
    cells: Sequence[Tuple[str, str, str]] = REPRESENTATIVE_CELLS,
    fast: bool = True,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """Best-of wall-clock for each representative cell, in order.

    Each row records the full per-repeat sample (``repeat_seconds``)
    and its relative spread (``(max - min) / min``), so history
    consumers can tell a real regression from timer noise — the
    0.82–0.94 ``speedup_vs_previous`` swings on unchanged cells were
    exactly that noise when ``best_of`` was 1.
    """
    rows: List[Dict[str, object]] = []
    for setup_name, benchmark, mode_label in cells:
        samples = time_repeats(
            lambda: run_cell((setup_name, benchmark, mode_label, fast)), repeats
        )
        best = min(samples)
        rows.append(
            {
                "setup": setup_name,
                "benchmark": benchmark,
                "mode": mode_label,
                "fast": fast,
                "seconds": round(best, 4),
                "best_of": repeats,
                "repeat_seconds": [round(s, 4) for s in samples],
                "spread": round((max(samples) - best) / best, 4) if best else 0.0,
            }
        )
    return rows


def time_grid(
    jobs: Optional[int],
    setups: Iterable[str] = ("mlx", "brcm"),
    benchmarks: Sequence[str] = (),
    modes: Sequence[str] = (),
    fast: bool = True,
) -> Dict[str, object]:
    """Wall-clock the grid serially and with ``jobs`` workers."""
    setup_objs = [setup_by_name(name) for name in setups] or list(ALL_SETUPS)
    mode_objs = [Mode(label) for label in modes] if modes else list(ALL_MODES)
    bench = tuple(benchmarks) or BENCHMARK_NAMES
    n_cells = len(grid_cells(setup_objs, bench, mode_objs, fast))

    workers = resolve_jobs(jobs)
    serial_s = time_call(
        lambda: run_grid(setup_objs, bench, mode_objs, fast, jobs=1), repeats=1
    )
    parallel_s = time_call(
        lambda: run_grid(setup_objs, bench, mode_objs, fast, jobs=workers),
        repeats=1,
    )
    return {
        "cells": n_cells,
        "jobs": workers,
        "serial_seconds": round(serial_s, 3),
        "parallel_seconds": round(parallel_s, 3),
        "serial_cells_per_sec": round(n_cells / serial_s, 3),
        "parallel_cells_per_sec": round(n_cells / parallel_s, 3),
        "speedup_vs_serial": round(serial_s / parallel_s, 3),
    }


def time_sharding(
    shards: int = 4,
    fast: bool = True,
    repeats: int = 1,
    cell: Tuple[str, str, str] = SHARDING_CELL,
) -> Dict[str, object]:
    """Wall-clock the multi-ring cell serially and with ``shards`` shards.

    The serial run is the deterministic
    reference (one event heap, one process), the sharded run fans
    domains over a worker pool.  Results are bit-identical (the parity
    tests and the perf gate pin this) — only wall-clock differs, and
    only meaningfully when the host actually has cores to use
    (``cpu_count`` is recorded so consumers can judge the number).
    """
    setup_name, benchmark, mode_label = cell
    setup = setup_by_name(setup_name)
    mode = Mode(mode_label)
    serial_config = RunConfig.from_env(fast=fast, shards=1)
    sharded_config = RunConfig.from_env(fast=fast, shards=shards)
    serial_s = time_call(
        lambda: run_with_config(setup, mode, benchmark, serial_config),
        repeats,
    )
    sharded_s = time_call(
        lambda: run_with_config(setup, mode, benchmark, sharded_config),
        repeats,
    )
    return {
        "cell": "/".join(cell),
        "fast": fast,
        "shards": shards,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_s, 4),
        "sharded_seconds": round(sharded_s, 4),
        "speedup_vs_serial": round(serial_s / sharded_s, 3),
    }


def time_observe_overhead(
    cells: Sequence[Tuple[str, str, str]] = OBSERVE_CELLS,
    fast: bool = True,
    repeats: int = 3,
) -> List[Dict[str, object]]:
    """Wall-clock each cell under ``observe=off`` and ``observe=lite``.

    The lite tier's contract is "cheap enough to leave on": it reads
    counters at burst boundaries and never touches the trace bus, so
    the columnar fast path stays active in both arms and the overhead
    column should stay within the CI gate's few percent.  (The full
    tier is deliberately not timed here — it vetoes the observer-free
    loops, so its cost is a different build's trajectory, not an
    overhead column.)
    """
    rows: List[Dict[str, object]] = []
    for setup_name, benchmark, mode_label in cells:
        setup = setup_by_name(setup_name)
        mode = Mode(mode_label)
        off_config = RunConfig.from_env(fast=fast, observe="off")
        lite_config = RunConfig.from_env(fast=fast, observe="lite")
        # One untimed pass warms the cell (allocators, memo caches),
        # then the arms alternate so load drift on a shared host hits
        # both equally instead of biasing whichever ran second.
        run_with_config(setup, mode, benchmark, off_config)
        off_s = lite_s = float("inf")
        for _ in range(max(repeats, 1)):
            off_s = min(
                off_s,
                time_call(
                    lambda: run_with_config(setup, mode, benchmark, off_config),
                    repeats=1,
                ),
            )
            lite_s = min(
                lite_s,
                time_call(
                    lambda: run_with_config(setup, mode, benchmark, lite_config),
                    repeats=1,
                ),
            )
        rows.append(
            {
                "cell": f"{setup_name}/{benchmark}/{mode_label}",
                "fast": fast,
                "best_of": repeats,
                "off_seconds": round(off_s, 4),
                "lite_seconds": round(lite_s, 4),
                "overhead_vs_off": round(lite_s / off_s - 1.0, 4),
            }
        )
    return rows


def load_previous_cells(
    output: Optional[pathlib.Path],
) -> Dict[Tuple[str, str, str, bool], float]:
    """Per-cell seconds from an earlier ``BENCH_runner.json``, if any.

    Read *before* the new report overwrites the file, so every run can
    carry a ``speedup_vs_previous`` trajectory marker.  When the
    scratch report is absent (fresh checkout — ``benchmarks/output/`` is
    gitignored) the tracked root copy serves as the baseline, so the
    regression gate works against the committed trajectory.  A missing
    or malformed report just yields no baselines.
    """
    if output is None:
        return {}
    if not output.exists():
        if output != ROOT_OUTPUT and ROOT_OUTPUT.exists():
            return load_previous_cells(ROOT_OUTPUT)
        return {}
    try:
        previous = json.loads(output.read_text())
        return {
            (row["setup"], row["benchmark"], row["mode"], bool(row["fast"])): float(
                row["seconds"]
            )
            for row in previous.get("cells", ())
            if float(row["seconds"]) > 0
        }
    except (ValueError, KeyError, TypeError):
        return {}


def run_harness(
    jobs: Optional[int] = 0,
    fast: bool = True,
    repeats: int = 3,
    setups: Iterable[str] = ("mlx", "brcm"),
    benchmarks: Sequence[str] = (),
    modes: Sequence[str] = (),
    output: Optional[pathlib.Path] = DEFAULT_OUTPUT,
    quick: bool = False,
    shard_bench: Optional[int] = 4,
    observe_bench: bool = True,
) -> Dict[str, object]:
    """Time representative cells + the grid; write ``BENCH_runner.json``.

    ``quick`` times only the representative cells (skipping the
    serial-vs-parallel grid sweep) — the CI perf-smoke configuration.
    Non-quick runs force ``best_of`` to at least 3: single-repeat
    timings polluted the history medians with timer noise, so one-shot
    sampling is reserved for quick smoke runs.
    ``shard_bench`` adds the intra-run sharding measurement (serial vs
    N-shard wall-clock on the multi-ring cell) to the report; None
    skips it.  ``observe_bench`` adds the lite-telemetry overhead
    column (observe=off vs observe=lite on the stream cells).
    """
    if not quick:
        repeats = max(repeats, 3)
    baselines = load_previous_cells(output)
    cells = time_representative_cells(fast=fast, repeats=repeats)
    for row in cells:
        prev = baselines.get(
            (row["setup"], row["benchmark"], row["mode"], bool(row["fast"]))
        )
        if prev is not None and row["seconds"] > 0:
            # > 1.0 means this tree is faster than the committed report.
            row["speedup_vs_previous"] = round(prev / row["seconds"], 3)
    # The one funnel for every knob the timings ran under: the live
    # build plus the same RunConfig.from_env() the grid workers
    # resolve, so the recorded fields can never drift from what
    # actually executed.
    config = RunConfig.from_env()
    build = repro_datapath.current_build()
    report: Dict[str, object] = {
        "schema": "riommu-repro/bench-runner/v2",
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        # v2: which datapath build produced these numbers — consumers
        # must never compare timings across builds.  ``fastpath_enabled``
        # is kept for v1 readers (it mirrors build != scalar).
        "datapath": build,
        "fastpath_enabled": build != "scalar",
        # v2: the shard knob the timings ran under (cells time whatever
        # the knob selects; the sharding section below always compares
        # serial vs sharded explicitly).
        "shards": config.shards,
        # The observe tier the timed cells ran under (off|lite|full) —
        # like datapath, consumers must never compare across tiers.
        "observe": config.observe,
        "quick": quick,
        "cells": cells,
        "sharding": (
            None
            if not shard_bench or shard_bench <= 1
            else time_sharding(shards=shard_bench, fast=fast)
        ),
        "observe_lite": (
            time_observe_overhead(fast=fast, repeats=repeats)
            if observe_bench
            else None
        ),
        "grid": None if quick else time_grid(jobs, setups, benchmarks, modes, fast),
    }
    if output is not None:
        output.parent.mkdir(parents=True, exist_ok=True)
        output.write_text(json.dumps(report, indent=2) + "\n")
        report["output_path"] = str(output)
    return report


def check_regression(
    report: Dict[str, object],
    max_regression: float,
    cell: Tuple[str, str, str] = ("mlx", "stream", "strict"),
) -> Optional[str]:
    """Error string if ``cell`` slowed by more than ``max_regression``.

    Uses ``speedup_vs_previous`` (present only when the previous report
    had the cell): a speedup below ``1 / (1 + max_regression)`` means
    the new time exceeds the old by more than the allowed fraction.
    Returns None when within bounds or when there is no baseline.
    """
    setup_name, benchmark, mode_label = cell
    for row in report["cells"]:
        if (row["setup"], row["benchmark"], row["mode"]) == cell:
            speedup = row.get("speedup_vs_previous")
            if speedup is None:
                return None
            floor = 1.0 / (1.0 + max_regression)
            if speedup < floor:
                return (
                    f"{setup_name}/{benchmark}/{mode_label} regressed: "
                    f"speedup_vs_previous {speedup} < {floor:.3f} "
                    f"(> {max_regression:.0%} slower than the committed baseline)"
                )
            return None
    return None


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--jobs", type=int, default=0, help="parallel workers (0 = one per CPU)"
    )
    parser.add_argument(
        "--full", action="store_true", help="full-size benchmark runs (slow)"
    )
    parser.add_argument("--repeats", type=int, default=3, help="best-of repeats")
    parser.add_argument(
        "--datapath",
        choices=repro_datapath.BUILDS,
        default=None,
        help="datapath build to benchmark (default: REPRO_DATAPATH or "
        "the columnar default); recorded in the report's 'datapath' "
        "field so trajectories never mix builds",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="N",
        help="intra-run shard count the timed cells run under (default: "
        "REPRO_SHARDS or 1); the explicit serial-vs-sharded comparison "
        "in the report's 'sharding' section is controlled by "
        "--shard-bench, not this",
    )
    parser.add_argument(
        "--shard-bench",
        type=int,
        default=4,
        metavar="N",
        help="shard count for the serial-vs-sharded measurement on the "
        "multi-ring cell (default 4; 0/1 to skip)",
    )
    parser.add_argument(
        "--observe",
        choices=OBSERVE_LEVELS,
        default=None,
        help="observe tier the timed cells run under (default: "
        "REPRO_OBSERVE or off); recorded in the report's 'observe' "
        "field so trajectories never mix tiers",
    )
    parser.add_argument(
        "--no-observe-bench",
        action="store_true",
        help="skip the observe=off vs observe=lite overhead column",
    )
    parser.add_argument(
        "-o", "--output", default=str(DEFAULT_OUTPUT), help="report path"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="representative cells only, no grid sweep (CI perf smoke)",
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=None,
        metavar="FRACTION",
        help="exit 1 if mlx/stream/strict is more than FRACTION slower "
        "than the previous report (e.g. 0.25 allows +25%%)",
    )
    parser.add_argument(
        "--trace",
        metavar="FILE",
        default=None,
        help="after the timed runs, replay the representative cells once "
        "with the event tracer on and write FILE (JSONL) plus its "
        ".chrome.json/.metrics.json siblings; the timed numbers above "
        "are never taken with tracing enabled",
    )
    parser.add_argument(
        "--history",
        metavar="FILE",
        default=None,
        help="append this run to the perf-history log (default: the "
        "tracked BENCH_history.jsonl at the repo root) and gate "
        "--max-regression against its rolling median instead of the "
        "single previous report",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="skip the history log: no append, and --max-regression "
        "falls back to the one-report speedup_vs_previous gate",
    )
    args = parser.parse_args(argv)
    if args.datapath is not None:
        repro_datapath.set_datapath(args.datapath)
    if args.shards is not None:
        repro_scheduler.set_shards(args.shards)
    if args.observe is not None:
        os.environ[OBSERVE_ENV] = args.observe
    report = run_harness(
        jobs=args.jobs,
        fast=not args.full,
        repeats=args.repeats,
        output=pathlib.Path(args.output),
        quick=args.quick,
        shard_bench=args.shard_bench,
        observe_bench=not args.no_observe_bench,
    )
    print(json.dumps(report, indent=2))
    # Mirror the report to the tracked root copy so the perf trajectory
    # is visible across commits (run_harness itself stays path-pure for
    # the tests, which write to temporary directories).
    if pathlib.Path(args.output) != ROOT_OUTPUT:
        payload = {k: v for k, v in report.items() if k != "output_path"}
        ROOT_OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"report mirrored to {ROOT_OUTPUT}", file=sys.stderr)
    if args.trace is not None:
        from repro.obs import TRACE, export_all

        TRACE.enable()
        try:
            for setup_name, benchmark, mode_label in REPRESENTATIVE_CELLS:
                run_cell((setup_name, benchmark, mode_label, not args.full))
        finally:
            TRACE.disable()
        for kind, path in export_all(TRACE, args.trace).items():
            print(f"trace {kind} written to {path}", file=sys.stderr)
    error: Optional[str] = None
    if args.no_history:
        if args.max_regression is not None:
            error = check_regression(report, args.max_regression)
    else:
        # The rolling-median sentinel: gate against the history *before*
        # this run is appended, then append unconditionally — the log
        # records what happened, robustly (a median shrugs off the
        # outlier this entry may turn out to be).
        import perf_history

        history_path = (
            pathlib.Path(args.history) if args.history else perf_history.ROOT_HISTORY
        )
        history = perf_history.load_history(history_path)
        if args.max_regression is not None:
            if history:
                error = perf_history.check_history_regression(
                    report, history, args.max_regression
                )
            else:
                error = check_regression(report, args.max_regression)
        perf_history.append_history(report, history_path)
        print(
            f"history appended to {history_path} "
            f"({len(history) + 1} entries)",
            file=sys.stderr,
        )
    if error is not None:
        print(error, file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
