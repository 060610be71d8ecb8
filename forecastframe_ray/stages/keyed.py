"""The **keyed window stage** — the single physical plan shared by every
group-local operator (SURVEY.md §2 legend, §7.3): lags, differencing, rolling
time-window stats, EWMA, pct-change, threshold-percent, gap-fill, ffill/bfill/
interpolate, days-since-release.

Physical shape (one shuffle or none, many operators): one
:func:`forecastframe_ray.stages.agg.keyed_map_partitions` exchange on the
group keys, so every series (full group) is wholly inside one kernel call.
Over co-partitioned input — a materialized Dataset whose blocks already hold
disjoint sets of partition ids (:func:`forecastframe_ray.stages.agg
.copartitioned_blocks`), such as a tier store read back with the hash it was
written by — there is no exchange: the kernel runs once per block, as one
plain Ray task each. The kernel sorts its input once by ``keys + [ts]``
(stable mergesort → deterministic) and then applies *all* requested ops in
sequence with vectorized pandas/numpy group kernels.

This fuses what the reference does in k separate pandas passes
(``/root/reference/forecastframe/feature_engineering.py`` passim) into one
shuffle + one sorted scan. Each op is one grouped pass over the kernel's
whole input (``groupby().shift/rolling/ewm``, one reindex for gap-fill), so
a kernel's cost grows with its rows, not with its number of series, and a
series' output does not depend on which other series share the call. Scale
note: the kernel's heap is bounded by one partition after an exchange and by
one block (Ray's target block size) without one; upstream bucket
pre-aggregation bounds any single host's series to ≤ one row per bucket,
and P should be ≳ 2–4× total cores.
"""

from __future__ import annotations

from typing import Callable

import pandas as pd
import ray.data

from forecastframe_ray.stages import window_ops
from forecastframe_ray.stages.agg import (_block_partial,
                                          copartitioned_blocks,
                                          keyed_map_partitions)

# op name → kernel fn(df_sorted, keys, ts_col, **params) -> df
OP_REGISTRY: dict[str, Callable] = {}


def register_op(name: str):
    def deco(fn):
        OP_REGISTRY[name] = fn
        return fn
    return deco


class WindowKernel:
    """Callable applied to whole series (a hash partition, or a block of
    co-partitioned input): sort once, run the fused op list."""

    def __init__(self, group_keys: list[str], ts_col: str, ops: list[dict]):
        self.group_keys = list(group_keys)
        self.ts_col = ts_col
        self.ops = ops

    def __call__(self, df: pd.DataFrame) -> pd.DataFrame:
        if df.empty:
            return df
        df = df.sort_values(self.group_keys + [self.ts_col], kind="mergesort").reset_index(drop=True)
        for op in self.ops:
            fn = OP_REGISTRY[op["op"]]
            df = fn(df, self.group_keys, self.ts_col, **{k: v for k, v in op.items() if k != "op"})
        return df


def keyed_window_stage(ds, group_keys: list[str], ts_col: str, ops: list[dict],
                       num_partitions: int = 64):
    """Apply a fused list of group-local window ops to ``ds``.

    ``ops``: list of ``{"op": name, **params}`` descriptors (see
    :mod:`forecastframe_ray.stages.window_ops` for registered ops).

    One exchange on ``group_keys``, or none when ``ds`` is already
    co-partitioned on them (:func:`~forecastframe_ray.stages.agg
    .copartitioned_blocks`): then the kernel runs once per non-empty block,
    one plain Ray task each, its heap bounded by the block, and the result
    is a materialized Dataset of their frames — no Ray Data execution
    starts. Either way each series' rows are identical; only the row order
    across series follows the blocks instead of the partition ids.
    """
    kernel = WindowKernel(group_keys, ts_col, ops)
    blocks = copartitioned_blocks(ds, group_keys, num_partitions)
    if blocks is None:
        return keyed_map_partitions(ds, group_keys, kernel, num_partitions)
    fn = ray.put(kernel)
    return ray.data.from_pandas_refs([_block_partial.remote(fn, ref)
                                      for ref in blocks])


# Import registers the ops into OP_REGISTRY (window_ops imports register_op
# from this module lazily to avoid a cycle).
window_ops._register_all(register_op)
