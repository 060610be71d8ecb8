"""Oracled query catalog.

Each catalog entry is declared once, where it is defined, by the
``@entry`` decorator::

    @entry("lag_daily_events", sql=lambda: SQL_LAG_DAILY)
    def q_lag_daily_events(sf_dir: str) -> pd.DataFrame: ...

``name`` is the catalog key (it may differ from the function name).
``sql`` is a zero-argument callable that returns the entry's DuckDB
oracle; it is called lazily, so the oracle may be defined below the
function or built from an expression such as ``TIER_SQL["1d"]``. An entry
without ``sql`` is rows-only. ``CATALOG`` maps each name to its
``(fn, sql)`` pair in registration order (submodule import order below,
then definition order). Registering a name twice raises ``ValueError``.

Every submodule name stays reachable on the package (``Q.q_lag_daily_events``,
``from forecastframe_ray.pipelines.queries import _read``) through the
module ``__getattr__`` below.
"""

from __future__ import annotations

import importlib
from collections.abc import Callable
from typing import Any

CATALOG: dict[str, tuple[Callable[[str], Any], Callable[[], str] | None]] = {}


def entry(name: str, sql: Callable[[], str] | None = None):
    """Register the decorated function as catalog entry ``name``."""
    def register(fn):
        if name in CATALOG:
            raise ValueError(f"catalog entry {name!r} is already registered "
                             f"(by {CATALOG[name][0].__qualname__})")
        CATALOG[name] = (fn, sql)
        return fn
    return register


# submodules import ``entry`` from this package, so they load after it
_PARTS = tuple(importlib.import_module(f"{__name__}.{part}") for part in (
    "spine", "text", "corpus", "windows", "incremental", "gbm", "annidx"))


def __getattr__(name: str) -> Any:
    if not name.startswith("__"):
        for part in _PARTS:
            if name in vars(part):
                return vars(part)[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
