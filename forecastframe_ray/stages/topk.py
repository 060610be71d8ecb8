"""Grouped top-k: keep the k best rows per group (e.g. the k highest-quality
documents per domain) without a global sort.

Physical plan (combiner-first, same shape as the tier cascade):

1. per-batch combiner — vectorized ``sort_values`` + ``groupby.head(k)``
   inside ``map_batches``: each batch emits at most k rows per group it saw,
   so the shuffle moves ≤ batches × groups-per-batch × k partial rows, never
   the raw data;
2. one :func:`forecastframe_ray.stages.agg.keyed_map_partitions` exchange
   co-locates each group's partials;
3. the SAME kernel re-applied per partition yields exactly the per-group
   top-k (top-k is idempotent over unions of partial top-ks: any row in the
   true top-k is in its batch's top-k).

Determinism: ties on ``order_col`` are broken by the ``tiebreak`` columns
(always ascending), so results are stable across block layouts and cluster
shapes. Callers MUST pass a tiebreak unless ``order_col`` is duplicate-free
within every group.
"""

from __future__ import annotations

import pandas as pd

from forecastframe_ray.stages.agg import keyed_map_partitions


def _topk_kernel(keys: list[str], order_col: str, k: int, descending: bool,
                 tiebreak: list[str]):
    by = [order_col] + tiebreak
    ascending = [not descending] + [True] * len(tiebreak)

    def fn(b: pd.DataFrame) -> pd.DataFrame:
        if b.empty:
            return b
        srt = b.sort_values(by, ascending=ascending, kind="mergesort")
        return srt.groupby(keys, sort=False, dropna=False,
                           observed=True).head(k)

    return fn


def grouped_topk(ds, keys: list[str], order_col: str, k: int,
                 descending: bool = True, tiebreak: list[str] | None = None,
                 num_partitions: int = 32):
    """Top-``k`` rows of each ``keys`` group ordered by ``order_col``
    (``descending=True`` → largest first). Output rows are exact (set-equal
    to a global per-group sort-and-head) but in no guaranteed order."""
    gk = list(keys)
    tb = list(tiebreak or [])
    kernel = _topk_kernel(gk, order_col, k, descending, tb)

    return keyed_map_partitions(ds.map_batches(kernel, batch_format="pandas"),
                                gk, kernel, num_partitions)
