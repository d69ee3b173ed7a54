"""The two multi-domain workloads pinned byte for byte, serial and sharded.

``tests/data/scaling_fast_golden.json`` holds the ``to_dict()`` of
``MultiRingStream(domains=4, packets=120, warmup=30)`` under strict,
defer and rIOMMU, and the ``to_dict()`` plus per-tenant report of the
fast ``balanced`` tenancy preset under strict and rIOMMU.  It was
captured from the fixed call-order reference loop that drove each
domain to completion one after another, before that loop was removed;
the figure-12 golden plays the same role for the single-domain
workloads.  Both the serial event heap and a four-shard worker pool
must reproduce it exactly.

Regenerate (only when a change to the modelled numbers is intended)::

    PYTHONPATH=src python tests/test_scaling_golden.py
"""

import json
import pathlib

import pytest

from repro.modes import Mode
from repro.sim.multiring import MultiRingStream
from repro.sim.registry import make_benchmark
from repro.sim.scheduler import run_events
from repro.sim.setups import MLX_SETUP

GOLDEN = pathlib.Path(__file__).parent / "data" / "scaling_fast_golden.json"

#: (benchmark, mode label) of every pinned cell.
CELLS = (
    ("mstream", "strict"),
    ("mstream", "defer"),
    ("mstream", "riommu"),
    ("tenants", "strict"),
    ("tenants", "riommu"),
)


def _workload(benchmark: str):
    if benchmark == "mstream":
        return MultiRingStream(domains=4, packets=120, warmup=30)
    return make_benchmark("tenants", fast=True)


def cell(benchmark: str, mode: str, shards: int) -> dict:
    """One cell's pinned fields: ``to_dict()``, plus the tenant report."""
    result = run_events(_workload(benchmark), MLX_SETUP, Mode(mode), shards)
    out = {"result": result.to_dict()}
    if result.tenants is not None:
        out["tenants"] = result.tenants
    return out


def render(shards: int = 1) -> str:
    """Every pinned cell as one JSON object, one cell a line."""
    compact = (",", ":")
    lines = [
        json.dumps("/".join(key))
        + ":"
        + json.dumps(cell(*key, shards), separators=compact, sort_keys=True)
        for key in CELLS
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.mark.parametrize("shards", (1, 4), ids=("serial", "4-shard"))
def test_multi_domain_workloads_match_golden_byte_for_byte(shards):
    assert render(shards) == GOLDEN.read_text()


if __name__ == "__main__":
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
