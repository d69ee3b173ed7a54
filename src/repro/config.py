"""Unified run configuration: one frozen record for every knob.

This module is the single source of truth for how a run is shaped:

* :class:`RunConfig` — a frozen, keyword-only record of every per-run
  knob: intra-run shard count, per-run observation, timeline window
  width, benchmark sizing (``fast``) and the multi-tenant scenario
  (:mod:`repro.sim.tenancy`).
* :meth:`RunConfig.from_env` — the one environment reader.  Every
  module that used to parse ``REPRO_*`` itself (datapath, scheduler,
  profile, timeline, the perf harness) now funnels through the parsing
  helpers defined here, so a knob's spelling and semantics live in
  exactly one place.
* :meth:`RunConfig.to_env` / :meth:`RunConfig.exported` — the one
  export path: grid worker processes reconstruct an identical config
  from the environment (``from_env(to_env()) == config``, pinned by
  test).

The datapath build is a process switch, not a ``RunConfig`` field: its
one setter is :func:`repro.datapath.set_datapath`, whose wire forms are
``REPRO_DATAPATH`` and ``--datapath``.  Every other knob has exactly one
spelling: a ``RunConfig`` field, or its ``REPRO_*`` variable.  A
malformed variable raises a :class:`ValueError` naming it rather than
falling back to a default.

This module sits below the rest of the package: it imports nothing
from ``repro`` at module level (the tenancy parser uses a lazy
import), so ``repro.datapath``, ``repro.sim.scheduler`` and the
observability modules can all re-export their historical constants
from it without cycles.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Dict, Mapping, Optional, Tuple

# -- canonical knob constants (single source of truth) ----------------------

#: The recognised datapath builds: the reference oracle, then the fast one.
BUILDS: Tuple[str, ...] = ("scalar", "columnar")

#: Datapath build used when ``REPRO_DATAPATH`` is unset.
DEFAULT_BUILD = "columnar"

#: The one documented datapath selection knob.
DATAPATH_ENV = "REPRO_DATAPATH"

#: Intra-run shard count knob (exported to grid worker processes).
SHARDS_ENV = "REPRO_SHARDS"

#: Per-run observation knob (exported to grid worker processes).
OBSERVE_ENV = "REPRO_OBSERVE"

#: The recognised observation levels: nothing, the counters-first lite
#: telemetry tier (keeps columnar/sharded execution), and the full
#: per-event trace-bus observer.
OBSERVE_LEVELS: Tuple[str, ...] = ("off", "lite", "full")

#: Timeline sampling window override, in modelled cycles.
TIMELINE_WINDOW_ENV = "REPRO_TIMELINE_WINDOW"

#: Multi-tenant scenario spec, JSON-serialised (exported to workers).
TENANCY_ENV = "REPRO_TENANCY"

#: The variables a :class:`RunConfig` exports, in presentation order.
CONFIG_ENV_VARS: Tuple[str, ...] = (
    SHARDS_ENV,
    OBSERVE_ENV,
    TIMELINE_WINDOW_ENV,
    TENANCY_ENV,
)

#: Every canonical environment variable, in presentation order.
ENV_VARS: Tuple[str, ...] = (DATAPATH_ENV,) + CONFIG_ENV_VARS


# -- knob parsing helpers (the collapsed resolve_* readers) -----------------


def resolve_datapath_flags(build: str, source: str = "") -> bool:
    """Map a build name to the one datapath flag (True = columnar).

    ``source`` names the setting the build came from, so the error for
    an unknown build says which one to fix.
    """
    if build not in BUILDS:
        where = f" in {source}" if source else ""
        raise ValueError(
            f"unknown datapath build {build!r}{where}: "
            f"expected one of {', '.join(BUILDS)}"
        )
    return build == "columnar"


def datapath_from_env(env: Optional[Mapping[str, str]] = None) -> str:
    """The datapath build ``REPRO_DATAPATH`` selects (``ValueError`` if bad)."""
    if env is None:
        env = os.environ
    build = env.get(DATAPATH_ENV, DEFAULT_BUILD)
    resolve_datapath_flags(build, DATAPATH_ENV)
    return build


def normalize_shards(shards: int) -> int:
    """``0`` (and negatives) mean one shard per CPU; else taken literally."""
    if shards <= 0:
        return os.cpu_count() or 1
    return int(shards)


def resolve_shards(shards: Optional[int] = None) -> int:
    """Normalise a shard-count request to a positive worker count.

    ``None`` consults ``REPRO_SHARDS``; ``0`` (and negatives) mean "one
    shard per available CPU"; anything else is taken literally.
    """
    if shards is None:
        return shards_from_env(os.environ)
    return normalize_shards(shards)


def shards_from_env(env: Optional[Mapping[str, str]] = None) -> int:
    """The shard count ``REPRO_SHARDS`` selects (``ValueError`` if bad)."""
    if env is None:
        env = os.environ
    raw = env.get(SHARDS_ENV, "")
    try:
        shards = int(raw) if raw else 1
    except ValueError:
        raise ValueError(
            f"bad shard count {raw!r} in {SHARDS_ENV}: expected an integer "
            "(0 = one per CPU)"
        ) from None
    return normalize_shards(shards)


def normalize_observe(observe) -> str:
    """Normalise an observation request to ``off``/``lite``/``full``.

    Booleans keep their historical meaning (``True`` is the full
    trace-bus observer, ``False`` is off); the string levels pass
    through; anything else raises listing the valid levels.
    """
    if observe is True:
        return "full"
    if observe is False:
        return "off"
    if observe in OBSERVE_LEVELS:
        return observe
    raise ValueError(
        f"unknown observe level {observe!r}: "
        f"expected one of {', '.join(OBSERVE_LEVELS)} (or a bool)"
    )


def observe_from_env(env: Optional[Mapping[str, str]] = None) -> str:
    """The observation level ``REPRO_OBSERVE`` selects.

    ``""``/``"0"`` mean off and ``"1"`` means full (the historical
    boolean spellings); the literal levels pass through; anything else
    raises.
    """
    if env is None:
        env = os.environ
    raw = env.get(OBSERVE_ENV, "")
    if raw in ("", "0"):
        return "off"
    if raw == "1":
        return "full"
    if raw in OBSERVE_LEVELS:
        return raw
    raise ValueError(
        f"unknown observe level {raw!r} in {OBSERVE_ENV}: "
        f"expected one of {', '.join(OBSERVE_LEVELS)} (or 0/1)"
    )


def timeline_window_from_env(
    env: Optional[Mapping[str, str]] = None,
) -> Optional[float]:
    """The ``REPRO_TIMELINE_WINDOW`` override, or None for the default."""
    if env is None:
        env = os.environ
    raw = env.get(TIMELINE_WINDOW_ENV, "")
    if not raw:
        return None
    try:
        value = float(raw)
        if value > 0:
            return value
    except ValueError:
        pass
    raise ValueError(
        f"bad timeline window {raw!r} in {TIMELINE_WINDOW_ENV}: "
        "expected a positive number of cycles"
    )


def tenancy_from_env(env: Optional[Mapping[str, str]] = None):
    """The ``REPRO_TENANCY`` scenario spec, or None when unset."""
    if env is None:
        env = os.environ
    raw = env.get(TENANCY_ENV, "")
    if not raw:
        return None
    from repro.sim.tenancy import ScenarioSpec

    try:
        return ScenarioSpec.from_dict(json.loads(raw))
    except (ValueError, KeyError, TypeError) as error:
        raise ValueError(f"bad scenario in {TENANCY_ENV}: {error!r}") from None


# -- the configuration record -----------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Every run-shaping knob as one frozen, keyword-only record.

    ``fast`` shrinks benchmark sizes (it travels with the work item —
    the grid's :data:`~repro.sim.parallel.GridCell` — not the
    environment).  ``shards``/``observe``/``timeline_window`` are the
    three process knobs, each mirrored by one ``REPRO_*`` variable;
    ``tenancy`` carries an optional
    :class:`~repro.sim.tenancy.ScenarioSpec` for the multi-tenant
    benchmark.  All fields validate at construction, so a config built
    from a bad environment fails loudly at ``from_env`` time.
    """

    fast: bool = False
    shards: int = 1
    observe: str = "off"
    timeline_window: Optional[float] = None
    tenancy: Optional[object] = None

    def __post_init__(self) -> None:
        # Booleans normalise to their historical levels, so
        # ``RunConfig(observe=True)`` keeps meaning the full observer.
        object.__setattr__(self, "observe", normalize_observe(self.observe))
        object.__setattr__(self, "shards", normalize_shards(self.shards))
        if self.timeline_window is not None and self.timeline_window <= 0:
            raise ValueError("timeline_window must be positive (or None)")

    # -- construction ----------------------------------------------------

    @classmethod
    def from_env(
        cls, env: Optional[Mapping[str, str]] = None, **overrides
    ) -> "RunConfig":
        """Build a config from an environment mapping (default: ``os.environ``).

        The single resolve path every knob reader funnels through;
        keyword ``overrides`` replace individual fields after the
        environment is read.
        """
        config = cls(
            shards=shards_from_env(env),
            observe=observe_from_env(env),
            timeline_window=timeline_window_from_env(env),
            tenancy=tenancy_from_env(env),
        )
        return replace(config, **overrides) if overrides else config

    # -- export ----------------------------------------------------------

    def to_env(self) -> Dict[str, str]:
        """The canonical environment variables this config corresponds to.

        The worker export path: applying these to a child process's
        environment makes its ``from_env()`` reconstruct this config
        exactly (``fast`` excepted — benchmark sizing rides in the work
        item, never the environment).  Optional fields that are unset
        are simply absent.
        """
        out = {
            SHARDS_ENV: str(self.shards),
            OBSERVE_ENV: self.observe,
        }
        if self.timeline_window is not None:
            out[TIMELINE_WINDOW_ENV] = repr(self.timeline_window)
        if self.tenancy is not None:
            out[TENANCY_ENV] = json.dumps(self.tenancy.to_dict(), sort_keys=True)
        return out

    class _Exported:
        """Context manager restoring the environment after an export."""

        def __init__(self, config: "RunConfig") -> None:
            self._config = config
            self._saved: Dict[str, Optional[str]] = {}

        def __enter__(self) -> "RunConfig":
            exported = self._config.to_env()
            for name in CONFIG_ENV_VARS:
                self._saved[name] = os.environ.get(name)
                if name in exported:
                    os.environ[name] = exported[name]
                else:
                    os.environ.pop(name, None)
            return self._config

        def __exit__(self, *exc) -> None:
            for name, previous in self._saved.items():
                if previous is None:
                    os.environ.pop(name, None)
                else:
                    os.environ[name] = previous

    def exported(self) -> "RunConfig._Exported":
        """Export :meth:`to_env` for a ``with`` block, then restore.

        What the grid runner wraps its worker fan-out in: every worker
        process inherits exactly this config's environment, and the
        parent's is put back afterwards.  ``REPRO_DATAPATH`` is left
        alone: :func:`repro.datapath.set_datapath` already exported the
        parent's build.
        """
        return RunConfig._Exported(self)
