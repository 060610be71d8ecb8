"""Log hygiene helpers for driver entry points (bench / jobs / selfcheck).

The one noisy message this silences: pyarrow 16 makes any ``pa.Schema``
carrying ``b'pandas'`` metadata UNHASHABLE (``hash(schema)`` raises
``TypeError: unhashable type: 'dict'`` on the metadata dict), and both
pandas-written parquet files and pandas-block conversions attach that
metadata — so Ray Data's schema-dedup fast path
(``transform_pyarrow.unify_schemas``'s ``set(schemas)``) logs ``Failed to
hash the schemas (for deduplication)`` once per reduce task. The fallback
(full unification) is correct, just chatty. Driver entry points install
this filter and keep ``log_to_driver=False`` so worker copies of the same
message stay in the worker logs.

The PRIMARY fix is at the source: the coarse-hash assign stage strips
schema metadata before every shuffle (``stages/agg.py``), and the engine's
Ray-native sorts and the materialize of a lazy join side strip it first
too (``agg.without_schema_metadata``), so the engine's own wide steps no
longer produce unhashable schemas at all. This filter stays as a backstop
for blocks the engine didn't produce (e.g. Ray's read tasks concatenating
pandas-written parquet, or such parquet sorted directly).
"""

from __future__ import annotations

import logging

_MSG = "Failed to hash the schemas"


class _SchemaHashFilter(logging.Filter):
    def filter(self, record: logging.LogRecord) -> bool:  # True = keep
        return _MSG not in record.getMessage()


def silence_schema_hash_warning() -> None:
    """Idempotently filter the benign pyarrow-16 schema-hash warning from
    Ray Data's transform_pyarrow logger (root cause in the module
    docstring)."""
    lg = logging.getLogger("ray.data._internal.arrow_ops.transform_pyarrow")
    if not any(isinstance(f, _SchemaHashFilter) for f in lg.filters):
        lg.addFilter(_SchemaHashFilter())
