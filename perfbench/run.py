#!/usr/bin/env python3
"""Benchmark of the rIOMMU simulator: host speed, paper fidelity, per-layer split.

Run from the repository root::

    python3 perfbench/run.py --workload netperf-grid --seed 1 --seconds 30 --trace 0

Each workload is a fixed list of simulator cells (setup, benchmark,
mode, observe tiers) at the registry's full-size parameters.  A run

1. sets up: imports ``repro`` from ``src/``, builds the cell list and
   runs one untimed warm-up cell (repeated in fresh child processes, so
   ``setup_s`` is a median);
2. runs passes over the cells, shuffled by ``--seed``, until
   ``--seconds`` have elapsed (at least one whole pass), checking every
   result and timing a fixed calibration loop around every cell, so host
   times can be given in reference-host seconds;
3. with ``--trace 1``, stops after one untraced pass, runs one more pass
   under ``cProfile`` and splits its calls and self time by the
   ``src/repro`` package that defines each function.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer ones with ``--trace 1``.  The exit code is
0 only when every cell passed every check.

The simulator is driven only through ``run_with_config``,
``RunConfig``, ``setup_by_name`` and ``Mode``, serially in this one
process (``shards=1``, no worker pool).
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import heapq
import json
import os
import pstats
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from types import SimpleNamespace
from typing import Dict, List, NamedTuple, Optional, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: The ``src/repro`` packages (and the ``dma`` module) these workloads run.
LAYERS = (
    "memory", "iova", "iommu", "core", "devices",
    "kernel", "dma", "perf", "sim", "obs",
)

#: Table-1 components, by ``Component`` member name, reported as
#: ``model.<name>_cpp``.
COMPONENTS = (
    "IOVA_ALLOC", "MAP_PAGE_TABLE", "MAP_OTHER",
    "IOVA_FIND", "IOVA_FREE", "UNMAP_PAGE_TABLE",
    "IOTLB_INV", "UNMAP_OTHER", "PROCESSING",
)

#: Packets each benchmark is asked for, at (full, tiny) size: the
#: registry's full-size and ``fast`` parameters.  Pinning them keeps the
#: input size fixed; a change to the registry sizes fails the check.
REQUESTED = {
    "stream": (2000, 400),
    "rr": (800, 120),
    "apache 1M": (18250, 2920),
    "apache 1K": (1500, 240),
    "memcached": (800, 120),
    "tenants": (520, 130),
}

#: Setups (in-process plus child processes) whose median is ``setup_s``.
SETUP_REPEATS = 5

#: Seconds the calibration loop takes on the reference host, a 2-vCPU
#: Intel Xeon virtual machine at 2.0 GHz running Python 3.11 (its median
#: there).  Host times are reported in reference-host seconds.
CALIBRATION_REFERENCE_S = 0.016

#: Calibration loops timed after each set-up.
SETUP_CALIBRATIONS = 5

ALL_MODES = ("strict", "strict+", "defer", "defer+", "riommu-", "riommu", "none")


# -- host calibration -----------------------------------------------------


class _Node:
    __slots__ = ("key", "left", "right")

    def __init__(self, key: float) -> None:
        self.key = key
        self.left = None
        self.right = None


def calibration_seconds(inserts: int = 5000) -> float:
    """Time a fixed piece of pure-Python work that never touches repro.

    Tree inserts, dict counting and heap churn, at a fixed size: the
    kind of interpreter work the simulator does.  The host this runs on is shared
    and its speed drifts by tens of percent over minutes; dividing a
    cell's time by the calibration time measured around it cancels that
    drift while leaving every change to the simulator visible.
    """
    start = time.perf_counter()
    rng = random.Random(12345)
    root = _Node(0.5)
    counts: Dict[int, int] = {}
    heap: List[Tuple[float, int]] = []
    for i in range(inserts):
        key = rng.random()
        node = root
        while True:
            child = node.left if key < node.key else node.right
            if child is None:
                if key < node.key:
                    node.left = _Node(key)
                else:
                    node.right = _Node(key)
                break
            node = child
        counts[i & 1023] = counts.get(i & 1023, 0) + 1
        heapq.heappush(heap, (key, i))
        if len(heap) > 256:
            heapq.heappop(heap)
    return time.perf_counter() - start


# -- workloads ------------------------------------------------------------


class Cell(NamedTuple):
    """One simulator cell: run once per observe tier, in order."""

    setup: str
    benchmark: str
    mode: str
    tiers: Tuple[str, ...] = ("off",)

    @property
    def key(self) -> str:
        return f"{self.setup}/{self.benchmark}/{self.mode}"


def _grid(setups, benchmarks, modes) -> List[Cell]:
    return [Cell(s, b, m) for s in setups for b in benchmarks for m in modes]


_DUAL = ("lite", "full")

#: name -> (cells, warm-up cell).  Why each workload exists is recorded
#: in BENCHMARK.json; the layers each one stresses in README.md.
WORKLOADS: Dict[str, Tuple[List[Cell], Cell]] = {
    # The paper's Figure-12 netperf panels: the per-packet map/unmap path.
    "netperf-grid": (
        _grid(("mlx", "brcm"), ("stream", "rr"), ALL_MODES),
        Cell("mlx", "stream", "strict"),
    ),
    # Request/response servers: multi-page mappings and payload copies.
    "server-grid": (
        _grid(
            ("mlx", "brcm"),
            ("apache 1M", "apache 1K", "memcached"),
            ("none", "strict", "riommu"),
        ),
        Cell("mlx", "apache 1K", "strict"),
    ),
    # Observation tiers as `repro ablate` runs them, incl. shared-IOMMU
    # tenants and deferred modes with nonzero stale windows.
    "observed-dual": (
        [
            Cell("mlx", "stream", "defer", _DUAL),
            Cell("mlx", "stream", "riommu", _DUAL),
            Cell("mlx", "tenants", "strict", _DUAL),
            Cell("mlx", "tenants", "riommu", _DUAL),
            Cell("brcm", "stream", "strict", _DUAL),
            Cell("brcm", "memcached", "defer", _DUAL),
        ],
        Cell("brcm", "memcached", "defer", _DUAL),
    ),
}


# -- set-up ---------------------------------------------------------------


def load_repro() -> SimpleNamespace:
    """Import the simulator from this checkout's ``src/`` (never elsewhere)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        raise SystemExit(f"perfbench: no simulator sources under {SRC}")
    # The benchmark measures the default knobs; none leak in from outside.
    for name in [name for name in os.environ if name.startswith("REPRO_")]:
        del os.environ[name]
    sys.path.insert(0, SRC)
    import repro
    from repro.analysis.paper_data import PAPER_TABLE2
    from repro.config import RunConfig
    from repro.modes import Mode
    from repro.sim.runner import run_with_config
    from repro.sim.setups import setup_by_name

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}")
    return SimpleNamespace(
        repro_dir=os.path.dirname(os.path.abspath(repro.__file__)),
        run_with_config=run_with_config,
        RunConfig=RunConfig,
        setup_by_name=setup_by_name,
        Mode=Mode,
        PAPER_TABLE2=PAPER_TABLE2,
    )


def run_cell(sim, cell: Cell, fast: bool, profiler=None) -> list:
    """One result per observe tier.  ``profiler`` is switched on around
    each ``run_with_config`` call and nothing else."""
    setup = sim.setup_by_name(cell.setup)
    mode = sim.Mode(cell.mode)
    results = []
    for tier in cell.tiers:
        config = sim.RunConfig(fast=fast, observe=tier)
        if profiler is None:
            results.append(sim.run_with_config(setup, mode, cell.benchmark, config))
            continue
        profiler.enable()
        try:
            result = sim.run_with_config(setup, mode, cell.benchmark, config)
        finally:
            profiler.disable()
        results.append(result)
    return results


def set_up(workload: str, fast: bool):
    """Import, build the cell list, run the warm-up cell.

    Returns the simulator handle, the cells, and the seconds this took
    both raw and in calibration units (raw over the median of
    ``SETUP_CALIBRATIONS`` calibration loops timed right after).
    """
    start = time.perf_counter()
    sim = load_repro()
    cells, warmup = WORKLOADS[workload]
    run_cell(sim, warmup, fast)
    seconds = time.perf_counter() - start
    host = statistics.median(calibration_seconds() for _ in range(SETUP_CALIBRATIONS))
    return sim, list(cells), (seconds, seconds / host)


def child_set_up(workload: str, size: str) -> Tuple[float, float]:
    """One set-up in a fresh interpreter (imports are per process)."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--setup-only",
         "--workload", workload, "--size", size],
        capture_output=True, text=True, timeout=120, cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    return record["seconds"], record["units"]


# -- checks ---------------------------------------------------------------


def check_cell(sim, cell: Cell, results: list, requested: int,
               reference: Optional[dict]) -> List[str]:
    """Every correctness problem of one executed cell (empty when fine)."""
    problems = []
    expected = reference if reference is not None else results[0].to_dict()
    deferred = sim.Mode(cell.mode).deferred_invalidation
    for tier, result in zip(cell.tiers, results):
        where = f"{cell.key}[{tier}]"
        if result.packets != requested:
            problems.append(f"{where}: {result.packets} packets, asked for {requested}")
        if result.to_dict() != expected:
            problems.append(f"{where}: to_dict() differs from the reference run")
        if tier == "lite" and not result.telemetry["profile"]["reconciles"]:
            problems.append(f"{where}: lite telemetry does not reconcile")
        if tier == "full" and not result.obs["profile"]["reconciles"]:
            problems.append(f"{where}: full profile does not reconcile")
        if deferred:
            continue
        metrics = result.metrics or {}
        for counter in ("iotlb.stale_hits", "riotlb.stale_hits"):
            if metrics.get(counter, 0):
                problems.append(f"{where}: {counter}={metrics[counter]} outside defer")
        if tier == "full" and result.obs["audit"]["stale_window_dmas"]:
            problems.append(f"{where}: stale-window DMAs outside defer")
    return problems


class Tally:
    """Attempted and failed cell executions, with the failure texts."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []

    def execute(self, sim, cell: Cell, fast: bool, reference: Optional[dict],
                profiler=None) -> Tuple[Optional[list], float, float]:
        """Run and check one cell.

        Returns (results or None, seconds, calibration seconds).  Outside
        the timed region, garbage is collected and the calibration loop
        timed both before and after the cell; the calibration is the mean
        of the two, so it brackets the cell.  Every cell starts from the
        same heap, so its time and the peak RSS do not depend on what ran
        before it.
        """
        self.attempted += 1
        gc.collect()
        before = calibration_seconds()
        start = time.perf_counter()
        try:
            results = run_cell(sim, cell, fast, profiler)
        except Exception:  # a raising cell is a failed cell, not a crash
            self._fail([f"{cell.key}: raised\n{traceback.format_exc()}"])
            results = None
        seconds = time.perf_counter() - start
        gc.collect()
        host = (before + calibration_seconds()) / 2.0
        if results is not None:
            requested = REQUESTED[cell.benchmark][1 if fast else 0]
            self._fail(check_cell(sim, cell, results, requested, reference))
        return results, seconds, host

    def _fail(self, problems: List[str]) -> None:
        if problems:
            self.failed += 1
            self.messages.extend(problems)


# -- metrics --------------------------------------------------------------


def model_error_pct(sim, first: Dict[Cell, list]) -> Tuple[float, int]:
    """Mean |modelled / paper - 1| over the Table-2 throughput ratios the
    cells can form, in percent, and how many ratios that is."""
    throughput = {
        (cell.setup, cell.benchmark, cell.mode): results[0].throughput_metric
        for cell, results in first.items()
    }
    errors = []
    for setup, benchmark in sorted({key[:2] for key in throughput}):
        paper = sim.PAPER_TABLE2.get(setup, {}).get(benchmark)
        if paper is None:
            continue
        for numerator, row in paper["throughput"].items():
            for denominator, ratio in row.items():
                n = throughput.get((setup, benchmark, numerator.value))
                d = throughput.get((setup, benchmark, denominator.value))
                if n is not None and d is not None:
                    errors.append(abs(n / d / ratio - 1.0))
    if not errors:
        return 0.0, 0
    return 100.0 * sum(errors) / len(errors), len(errors)


def modelled_metrics(cells: List[Cell], first: Dict[Cell, list]) -> Dict[str, float]:
    """Deterministic per-layer numbers from the untraced results, summed
    over the cells in their canonical order (so any seed gives the same
    bits).  Machine counters include the warm-up; they are divided by
    measured packets."""
    packets = 0
    cycles = dict.fromkeys(COMPONENTS, 0.0)
    counters: Dict[str, float] = {}
    stale_window_dmas = 0
    for cell in cells:
        if cell not in first:
            continue
        results = first[cell]
        result = results[0]
        packets += result.packets
        for component, per_packet in result.per_packet_breakdown.items():
            cycles[component.name] += per_packet * result.packets
        for name, value in (result.metrics or {}).items():
            counters[name] = counters.get(name, 0) + value
        for tier, tiered in zip(cell.tiers, results):
            if tier == "full":
                stale_window_dmas += tiered.obs["audit"]["stale_window_dmas"]
    packets = max(packets, 1)

    def ratio(hits: str, misses: str) -> float:
        looked_up = counters.get(hits, 0) + counters.get(misses, 0)
        return counters.get(hits, 0) / looked_up if looked_up else 0.0

    out = {f"model.{name.lower()}_cpp": total / packets for name, total in cycles.items()}
    out.update({
        "iommu.iotlb_hit_ratio": ratio("iotlb.hits", "iotlb.misses"),
        "iommu.qi_waits_per_pkt": counters.get("qi.waits_completed", 0) / packets,
        "core.riotlb_hit_ratio": ratio("riotlb.hits", "riotlb.misses"),
        "core.riotlb_prefetch_hits_per_pkt": counters.get("riotlb.prefetch_hits", 0) / packets,
        "memory.coherency_flushes_per_pkt": counters.get("coherency.flushes", 0) / packets,
        "devices.dma_bytes_per_pkt": (
            counters.get("dma_bus.bytes_read", 0) + counters.get("dma_bus.bytes_written", 0)
        ) / packets,
        "obs.stale_window_dmas": stale_window_dmas,
    })
    return out


def layer_split(repro_dir: str, profiler: cProfile.Profile) -> Dict[str, float]:
    """Calls and self time per layer from one profile.

    A function belongs to the ``src/repro`` package (or the ``dma``
    module) that defines it.  Builtins and library functions are charged
    to the layer of their direct caller; ``repro`` code outside the
    layers (config, modes, ...) and this runner count only in
    ``calls_total``.
    """
    stats = pstats.Stats(profiler).stats
    owners: Dict[str, Optional[str]] = {}

    def owner(filename: str) -> Optional[str]:
        """Layer name, "" for repro code outside the layers, None for
        code outside repro."""
        if filename not in owners:
            rel = os.path.relpath(filename, repro_dir) if filename != "~" else ".."
            if rel.startswith(".."):
                owners[filename] = None
            else:
                head = rel.split(os.sep)[0]
                head = head[:-3] if head.endswith(".py") else head
                owners[filename] = head if head in LAYERS else ""
        return owners[filename]

    calls = dict.fromkeys(LAYERS, 0)
    self_s = dict.fromkeys(LAYERS, 0.0)
    total_calls = 0
    for (filename, _, _), (_, ncalls, tottime, _, callers) in stats.items():
        total_calls += ncalls
        layer = owner(filename)
        if layer:
            calls[layer] += ncalls
            self_s[layer] += tottime
        elif layer is None:
            for (caller_file, _, _), caller_stats in callers.items():
                caller_layer = owner(caller_file)
                if caller_layer:
                    calls[caller_layer] += caller_stats[1]
                    self_s[caller_layer] += caller_stats[2]
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = self_s[layer]
    out["calls_total"] = total_calls
    return out


#: Unit of every end-to-end metric, in output order.
END_TO_END_UNITS = {
    "sim_pkts_per_s": "pkt/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "model_err_pct": "%",
}


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls") or name in ("calls_total", "obs.stale_window_dmas"):
        return "count"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_cpp"):
        return "cycles/pkt"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "trace_overhead_x":
        return "x"
    if name == "devices.dma_bytes_per_pkt":
        return "B/pkt"
    return "1/pkt"


# -- main -----------------------------------------------------------------


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="shuffles the order of cells within each pass")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time spent on untraced passes (at least one pass; "
                        "a traced run makes exactly one)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a profiled pass and report per-layer metrics")
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the registry's fast sizes (smoke tests)")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    fast = args.size == "tiny"
    if args.setup_only:
        _, _, (seconds, units) = set_up(args.workload, fast)
        print(json.dumps({"seconds": seconds, "units": units}))
        return 0

    sim, cells, own_setup = set_up(args.workload, fast)
    setups = [own_setup] + [
        child_set_up(args.workload, args.size) for _ in range(SETUP_REPEATS - 1)
    ]

    rng = random.Random(args.seed)
    tally = Tally()
    first: Dict[Cell, list] = {}
    reference: Dict[Cell, dict] = {}
    raw: Dict[Cell, List[float]] = {cell: [] for cell in cells}
    units: Dict[Cell, List[float]] = {cell: [] for cell in cells}
    calibrations: List[float] = []
    executions = 0
    # A traced run times one untraced pass (the trace_overhead_x base).
    deadline = time.perf_counter() + (0.0 if args.trace else args.seconds)
    while executions == 0 or time.perf_counter() < deadline:
        order = list(cells)
        rng.shuffle(order)
        for cell in order:
            if executions >= len(cells) and time.perf_counter() >= deadline:
                break
            results, seconds, host = tally.execute(sim, cell, fast, reference.get(cell))
            raw[cell].append(seconds)
            units[cell].append(seconds / host)
            calibrations.append(host)
            executions += 1
            if results is not None and cell not in first:
                first[cell] = results
                reference[cell] = results[0].to_dict()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    untraced_units = sum(statistics.median(samples) for samples in units.values())
    packets = sum(
        REQUESTED[cell.benchmark][1 if fast else 0] * len(cell.tiers) for cell in cells
    )
    raw_pkts_per_s = packets / sum(statistics.median(samples) for samples in raw.values())

    if args.trace:
        profiler = cProfile.Profile()
        order = list(cells)
        rng.shuffle(order)
        traced_units = 0.0
        for cell in order:
            _, seconds, host = tally.execute(
                sim, cell, fast, reference.get(cell), profiler
            )
            traced_units += seconds / host
        metrics = layer_split(sim.repro_dir, profiler)
        metrics["trace_overhead_x"] = traced_units / untraced_units
        metrics.update(modelled_metrics(cells, first))
        metric_units = {name: per_layer_unit(name) for name in metrics}
    else:
        err_pct, ratios = model_error_pct(sim, first)
        metrics = {
            "sim_pkts_per_s": packets / (untraced_units * CALIBRATION_REFERENCE_S),
            "setup_s": statistics.median(u for _, u in setups) * CALIBRATION_REFERENCE_S,
            "peak_rss_mb": peak_rss_mb,
            "model_err_pct": err_pct,
        }
        metric_units = END_TO_END_UNITS

    fail_frac = tally.failed / tally.attempted
    for message in tally.messages[:20]:
        print(f"perfbench: FAIL {message}", file=sys.stderr)
    print(
        f"perfbench workload={args.workload} seed={args.seed} size={args.size} "
        f"trace={args.trace} cells={len(cells)} passes={executions / len(cells):.2f} "
        f"attempted={tally.attempted} failed={tally.failed} fail_frac={fail_frac:g}"
    )
    print(
        f"  host: calibration={statistics.median(calibrations) * 1e3:.2f} ms "
        f"(reference {CALIBRATION_REFERENCE_S * 1e3:g} ms), "
        f"raw sim_pkts_per_s={raw_pkts_per_s:.6g}, "
        f"raw setup_s={statistics.median(s for s, _ in setups):.6g}"
        + ("" if args.trace else f", table2_ratios={ratios}")
    )
    for name, value in metrics.items():
        print(f"  {name:36s} {value:>16.6g} {metric_units[name]}")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": value, "unit": metric_units[name]}
            for name, value in metrics.items()
        },
    }))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
