"""Datapath build selection: scalar, batched, or columnar.

The simulator has three interchangeable builds of its per-packet inner
loop, all bit-identical in every modelled number (cycles, statistics,
faults, memory contents) and differing only in wall-clock speed:

* ``scalar`` — one Python call per event: per-page translation loops,
  one :meth:`CycleAccount.charge` per cost, per-descriptor object
  construction.  The reference semantics; slowest.
* ``batched`` — the PR-1-era fast paths: single-page translation
  shortcuts, per-burst translation memos, staged (counter-based) cycle
  charges, bulk copies.
* ``columnar`` — the batched paths *plus* struct-of-arrays burst
  processing: whole map/unmap bursts charged with one exact fold per
  component (precomputed per-mode cost vectors), raw-struct descriptor
  and rPTE codecs, and observer-free specializations of the burst loops
  selected when no tracer is active.  The default.

Selection is one documented knob::

    REPRO_DATAPATH={scalar,batched,columnar}

This module is the single source of truth for the three feature flags.
Consumer modules (``repro.devices.dma``, ``repro.memory.physical``,
``repro.perf.cycles``) copy ``FASTPATH_ENABLED``/``BATCH_ENABLED`` into
module globals at import time — tests poke those globals directly, so
:func:`set_datapath` re-pokes them when switching builds at runtime.
Columnar burst loops read ``datapath.COLUMNAR_ENABLED`` through the
module attribute (one lookup per burst, not per event) and additionally
require the tracer to be inactive: with observers on, every build runs
the fully traced per-event semantics so trace streams and profiler
reconciliation stay bit-exact.
"""

from __future__ import annotations

import os

# The knob constants and the resolve truth table live in repro.config —
# the single source every reader (this module, RunConfig.from_env, the
# perf harness) funnels through.  The historical names stay importable
# from here.
from repro.config import (
    BUILDS,
    DEFAULT_BUILD,
    DATAPATH_ENV as ENV_VAR,
    datapath_build_name,
    datapath_from_env,
    resolve_datapath_flags as _resolve,
)

__all__ = [
    "BUILDS",
    "DEFAULT_BUILD",
    "ENV_VAR",
    "FASTPATH_ENABLED",
    "BATCH_ENABLED",
    "COLUMNAR_ENABLED",
    "current_build",
    "set_datapath",
]


#: Single-page / single-frame fast paths and per-burst memos.
FASTPATH_ENABLED: bool
#: Staged (counter-based) cycle charging and bulk SG datapaths.
BATCH_ENABLED: bool
#: Struct-of-arrays burst loops with precomputed cost vectors.
COLUMNAR_ENABLED: bool

FASTPATH_ENABLED, BATCH_ENABLED, COLUMNAR_ENABLED = _resolve(datapath_from_env())


def current_build() -> str:
    """The active build name, derived from the live flags."""
    return datapath_build_name(FASTPATH_ENABLED, BATCH_ENABLED, COLUMNAR_ENABLED)


def set_datapath(build: str) -> None:
    """Switch the active build at runtime.

    Updates this module's flags *and* the copies consumer modules hold
    in their own globals (the names parity tests poke), so a switch is
    complete no matter which spelling a caller reads.
    """
    global FASTPATH_ENABLED, BATCH_ENABLED, COLUMNAR_ENABLED
    fast, batch, columnar = _resolve(build)
    FASTPATH_ENABLED, BATCH_ENABLED, COLUMNAR_ENABLED = fast, batch, columnar

    # Export the selection so spawned worker processes (the parallel
    # grid runner) resolve the same build.
    os.environ[ENV_VAR] = build

    import repro.devices.dma as _dma
    import repro.memory.physical as _physical
    import repro.perf.cycles as _cycles

    _dma.FASTPATH_ENABLED = fast
    _dma.BATCH_ENABLED = batch
    _physical.FASTPATH_ENABLED = fast
    _cycles.BATCH_ENABLED = batch
