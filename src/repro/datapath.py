"""Datapath build selection: scalar or columnar.

The simulator has two interchangeable builds of its per-packet inner
loop, bit-identical in every modelled number (cycles, statistics,
faults, memory contents) and differing only in wall-clock speed:

* ``scalar`` — one Python call per event: per-page translation loops,
  one :meth:`CycleAccount.charge` per cost, per-descriptor object
  construction.  The reference semantics and the parity oracle;
  slowest.
* ``columnar`` — single-page translation shortcuts, per-burst
  translation memos, staged (counter-based) cycle charges and bulk
  scatter-gather copies, plus struct-of-arrays burst processing: whole
  map/unmap bursts charged with one exact fold per component
  (precomputed per-mode cost vectors), raw-struct descriptor and rPTE
  codecs, driver-side Tx frame trains, and observer-free
  specializations of the burst loops selected when no tracer is
  active.  The default.

Selection is one documented knob::

    REPRO_DATAPATH={scalar,columnar}

This module holds the one flag, :data:`COLUMNAR_ENABLED`.  Consumer
modules read it through this module's attribute on every check, so
:func:`set_datapath` switches every layer at once.  The burst loops
additionally require the tracer to be inactive: with observers on,
every build runs the fully traced per-event semantics so trace streams
and profiler reconciliation stay bit-exact.
"""

from __future__ import annotations

import os

# The knob constants and the resolve truth table live in repro.config —
# the single source every reader (this module, the CLI, the perf
# harness) funnels through.  The historical names stay importable from
# here.
from repro.config import (
    BUILDS,
    DEFAULT_BUILD,
    DATAPATH_ENV as ENV_VAR,
    datapath_from_env,
    resolve_datapath_flags as _resolve,
)

__all__ = [
    "BUILDS",
    "DEFAULT_BUILD",
    "ENV_VAR",
    "COLUMNAR_ENABLED",
    "current_build",
    "set_datapath",
]


#: The columnar build's fast paths, staged charging and burst loops.
COLUMNAR_ENABLED: bool = _resolve(datapath_from_env())


def current_build() -> str:
    """The active build name, derived from the live flag."""
    return "columnar" if COLUMNAR_ENABLED else "scalar"


def set_datapath(build: str) -> None:
    """Switch the active build at runtime.

    Also exports the selection as ``REPRO_DATAPATH`` so spawned worker
    processes (the parallel grid runner) resolve the same build.
    """
    global COLUMNAR_ENABLED
    COLUMNAR_ENABLED = _resolve(build)
    os.environ[ENV_VAR] = build
