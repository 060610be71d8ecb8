"""The **keyed window stage** — the single physical plan shared by every
group-local operator (SURVEY.md §2 legend, §7.3): lags, differencing, rolling
time-window stats, EWMA, pct-change, threshold-percent, gap-fill, ffill/bfill/
interpolate, days-since-release.

Physical shape (one shuffle, many operators): one
:func:`forecastframe_ray.stages.agg.keyed_map_partitions` exchange on the
group keys, so every series (full group) is wholly inside one kernel call.
The kernel sorts its partition once by ``keys + [ts]`` (stable mergesort →
deterministic) and then applies *all* requested ops in sequence with
vectorized pandas/numpy group kernels.

This fuses what the reference does in k separate pandas passes
(``/root/reference/forecastframe/feature_engineering.py`` passim) into one
shuffle + one sorted scan. Each op is one grouped pass over the whole
partition (``groupby().shift/rolling/ewm``, one reindex for gap-fill), so a
kernel's cost grows with the partition's rows, not with its number of
series. Scale note: a partition must fit in a worker's heap; upstream bucket
pre-aggregation bounds any single host's series to ≤ one row per bucket, and
P should be ≳ 2–4× total cores.
"""

from __future__ import annotations

from typing import Callable

import pandas as pd

from forecastframe_ray.stages import window_ops
from forecastframe_ray.stages.agg import keyed_map_partitions

# op name → kernel fn(df_sorted, keys, ts_col, **params) -> df
OP_REGISTRY: dict[str, Callable] = {}


def register_op(name: str):
    def deco(fn):
        OP_REGISTRY[name] = fn
        return fn
    return deco


class WindowKernel:
    """Callable applied per hash-partition: sort once, run the fused op list."""

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
    """
    return keyed_map_partitions(ds, group_keys,
                                WindowKernel(group_keys, ts_col, ops),
                                num_partitions)


# Import registers the ops into OP_REGISTRY (window_ops imports register_op
# from this module lazily to avoid a cycle).
window_ops._register_all(register_op)
