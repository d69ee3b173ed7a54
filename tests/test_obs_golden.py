"""Full-tier ``obs`` pinned byte for byte, and independent of run history.

``tests/data/obs_full_golden.json`` holds the complete ``RunResult.obs``
dict (profile, audit, percentiles, metrics, timeline) of ten fast cells:
mlx stream in all seven modes, brcm memcached defer, and the shared-IOMMU
mlx tenants scenario under strict and rIOMMU.  Any change to how the
observer attributes cycles, audits windows or samples the timeline shows
up here as a byte difference.

Regenerate (only when a change to the observed numbers is intended)::

    PYTHONPATH=src python tests/test_obs_golden.py
"""

import json
import pathlib

from repro.config import RunConfig
from repro.modes import ALL_MODES, Mode
from repro.sim.runner import run_with_config
from repro.sim.setups import setup_by_name

GOLDEN = pathlib.Path(__file__).parent / "data" / "obs_full_golden.json"

#: (setup, benchmark, mode label) of every pinned cell.
CELLS = (
    *(("mlx", "stream", mode.label) for mode in ALL_MODES),
    ("brcm", "memcached", "defer"),
    ("mlx", "tenants", "strict"),
    ("mlx", "tenants", "riommu"),
)

FULL = RunConfig(fast=True, observe="full")


def observe(setup: str, benchmark: str, mode: str) -> dict:
    """One fast cell's full-tier ``obs`` summary."""
    result = run_with_config(setup_by_name(setup), Mode(mode), benchmark, FULL)
    return result.obs


def render() -> str:
    """Every pinned cell's ``obs`` as one JSON object, one cell a line."""
    compact = (",", ":")
    lines = [
        json.dumps("/".join(cell)) + ":" + json.dumps(observe(*cell), separators=compact)
        for cell in CELLS
    ]
    return "{\n" + ",\n".join(lines) + "\n}\n"


def test_full_tier_obs_matches_golden_byte_for_byte():
    assert render() == GOLDEN.read_text()


def test_repeat_run_obs_does_not_depend_on_earlier_runs():
    """A, then B, then A again: both A summaries are equal.

    The modelled-cycle clock restarts at 0 for each observed run, so no
    duration carries the rounding of an earlier run's timestamps.
    """
    cell_a = ("mlx", "tenants", "strict")
    cell_b = ("brcm", "memcached", "defer")
    first = observe(*cell_a)
    observe(*cell_b)
    assert observe(*cell_a) == first


if __name__ == "__main__":
    GOLDEN.write_text(render())
    print(f"wrote {GOLDEN}")
