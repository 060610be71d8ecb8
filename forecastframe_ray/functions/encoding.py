"""Globally-consistent ordinal encoding of categoricals (SURVEY.md M6/M7).

The reference encodes via pandas ``category`` codes — code = position of the
value in the lexicographically-sorted category list (transform.py:367-396,
pinned by tests/test_transform.py:122-144). Distributed equivalent: one
``agg.reduce`` collects every column's per-block distinct values (one pass
for all columns), the driver sorts them and broadcasts the value→code dict
into a single ``map_batches``.
"""

from __future__ import annotations

import pandas as pd
import pyarrow as pa

from forecastframe_ray.stages.agg import distinct_values


def string_columns(ds) -> list[str]:
    s = ds.schema()
    out = []
    for n, t in zip(s.names, s.types):
        if isinstance(t, pa.DataType):
            if pa.types.is_string(t) or pa.types.is_large_string(t):
                out.append(n)
        elif t is object or t is str:  # pandas-block columns surface as object
            out.append(n)
    return out


def fit_categories(ds, columns: list[str]) -> dict[str, dict[int, str]]:
    """code→value dict per column (reference ``categorical_keys``, main.py:47);
    nulls get no code."""
    return {c: dict(enumerate(v))
            for c, v in distinct_values(ds, list(columns)).items()}


def encode_batch_fn(categorical_keys: dict[str, dict[int, str]]):
    maps = {col: {v: c for c, v in d.items()} for col, d in categorical_keys.items()}

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        for col, m in maps.items():
            # unseen value → -1, the pandas cat.codes NaN convention
            batch[col] = batch[col].map(m).fillna(-1).astype("int32")
        return batch

    return fn


def decode_batch_fn(categorical_keys: dict[str, dict[int, str]]):
    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        for col, d in categorical_keys.items():
            batch[col] = batch[col].map(d)
        return batch

    return fn
