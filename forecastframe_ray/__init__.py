"""forecastframe_ray — a Ray-Data-native time-series rollup / downsample /
retention engine with the query and data-processing capabilities of
``ntlind/forecastframe`` (reference, read-only at ``/root/reference``).

This is NOT a port: the reference is single-process pandas
(``/root/reference/forecastframe/main.py``); every operator here is
re-expressed as ``ray.data.Dataset`` transforms — ``map_batches`` over
zero-copy Arrow batches, keyed window stages (hash-partition →
per-partition sort → vectorized group kernels), ``groupby/aggregate`` for
the wide rollup steps, and actor pools for stateful stages (Gorilla
codec).

Public surface:

- :class:`~forecastframe_ray.frame.RayForecastFrame` — the user-facing
  frame mirroring the reference's ``ForecastFrame`` API (lags, rolling
  stats, EWMA, calendar features, gap-fill, scalers, rollups).
- :mod:`forecastframe_ray.pipelines` — web-scale pipelines: tier rollup
  cascade (1h/1d/7d), text extraction, dedup, similarity search, text
  analysis.
- :mod:`forecastframe_ray.stages` — reusable Ray Data stage builders
  (keyed window stage, Gorilla encoder actor pool, salted repartition).
"""

import logging as _logging


class _EmptySchemaBundleFilter(_logging.Filter):
    """Silence Ray Data's spurious schema-mismatch warning for EMPTY bundles.

    The exchange's sort emits column-less empty blocks for id ranges that
    received no rows; those blocks
    bypass every UDF (``map_batches`` fns are never invoked on them) so the
    engine cannot type them, and the executor logs a schema-change warning per
    empty bundle. Only the names=[] / empty-schema variant is filtered —
    genuine schema drift still warns."""

    def filter(self, record: _logging.LogRecord) -> bool:  # noqa: A003
        msg = record.getMessage()
        if "Operator produced a RefBundle with a different schema" in msg:
            return not ("names=[], types=[]" in msg
                        or "new schema: ." in msg)
        return True


_logging.getLogger(
    "ray.data._internal.execution.streaming_executor_state"
).addFilter(_EmptySchemaBundleFilter())

from forecastframe_ray.frame import RayForecastFrame  # noqa: E402

__all__ = ["RayForecastFrame"]
__version__ = "0.1.0"
