"""Two-phase scalers (SURVEY.md §2.2 M2–M5): one ``agg.reduce`` fit pass
(per-block partials combined on the driver) computes the constants, then a
stateless ``map_batches`` applies the (inverse) formula with the constants
captured in the closure.

Semantics match the reference (``/root/reference/forecastframe/transform.py``):

- log1p with a negatives assertion (transform.py:81-97)
- standardize with **pandas ddof=1** std (transform.py:127-140; the reference
  is tested against sklearn's ddof=0 scaler but the nansum-style tolerance
  hides the difference — we match the reference's actual math), merged
  with Chan's update; an empty or all-null feature gives ``None``
- normalize (x-min)/(max-min) (transform.py:175-186)
- inverses expm1 / x*std+mean / x*(max-min)+min (transform.py:238-243,264-281)

The fitted constants live in a plain ``transforms`` dict ({op: {features,
stats...}}) — the Ray analog of ``ForecastFrame.transforms`` (main.py:46) —
serialized into the pipeline manifest, broadcast into closures.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from forecastframe_ray.stages.agg import column_ranges, merge_moments, reduce


def fit_standardize(ds, features: list[str]) -> dict:
    def partial(b: pd.DataFrame) -> pd.DataFrame:
        x = b[features].astype("float64")
        m = x.mean()
        return pd.DataFrame({"f": features, "n": x.count(), "mean": m,
                             "m2": ((x - m) ** 2).sum()})

    def combine(parts: pd.DataFrame) -> dict:
        out = {"features": list(features), "mean": {}, "stdev": {}}
        parts = parts.reindex(columns=["f", "n", "mean", "m2"])
        for f in features:
            g = parts[parts["f"] == f]
            n, m, m2 = merge_moments(g["n"], g["mean"], g["m2"])
            out["mean"][f] = float(m) if n else None
            out["stdev"][f] = float(np.sqrt(m2 / (n - 1))) if n > 1 \
                else np.nan if n else None
        return out

    return reduce(ds, partial, combine)


def fit_normalize(ds, features: list[str]) -> dict:
    ranges = column_ranges(ds, list(features))
    return {"features": list(features),
            "mins": {f: lo for f, (lo, _) in ranges.items()},
            "maxes": {f: hi for f, (_, hi) in ranges.items()}}


# ---------------------------------------------------------------------------
# batch appliers (forward)
# ---------------------------------------------------------------------------

def apply_log1p(batch: pd.DataFrame, features: list[str]) -> pd.DataFrame:
    vals = batch[features].to_numpy(dtype=np.float64, na_value=np.nan)
    if np.any(vals < 0):
        raise ValueError(
            "There are negative values in your data which will cause problems "
            "during your log transform."
        )
    batch[features] = np.log1p(vals)
    return batch


def apply_standardize(batch: pd.DataFrame, params: dict) -> pd.DataFrame:
    for f in params["features"]:
        batch[f] = (batch[f] - params["mean"][f]) / params["stdev"][f]
    return batch


def apply_normalize(batch: pd.DataFrame, params: dict) -> pd.DataFrame:
    for f in params["features"]:
        lo, hi = params["mins"][f], params["maxes"][f]
        batch[f] = (batch[f] - lo) / (hi - lo)
    return batch


# ---------------------------------------------------------------------------
# batch appliers (inverse)
# ---------------------------------------------------------------------------

def apply_expm1(batch: pd.DataFrame, features: list[str]) -> pd.DataFrame:
    batch[features] = np.expm1(batch[features].to_numpy(dtype=np.float64, na_value=np.nan))
    return batch


def apply_destandardize(batch: pd.DataFrame, params: dict) -> pd.DataFrame:
    for f in params["features"]:
        batch[f] = batch[f] * params["stdev"][f] + params["mean"][f]
    return batch


def apply_denormalize(batch: pd.DataFrame, params: dict) -> pd.DataFrame:
    for f in params["features"]:
        lo, hi = params["mins"][f], params["maxes"][f]
        batch[f] = batch[f] * (hi - lo) + lo
    return batch


_FORWARD = {
    "log1p": lambda b, p: apply_log1p(b, p["features"]),
    "standardize": apply_standardize,
    "normalize": apply_normalize,
}
_INVERSE = {
    "log1p": lambda b, p: apply_expm1(b, p["features"]),
    "standardize": apply_destandardize,
    "normalize": apply_denormalize,
}


def apply_transform_dict(ds, transform_dict: dict, inverse: bool = False):
    """Apply (or invert) every recorded transform — the Ray analog of
    ``_apply_transform_dict`` (transform.py:189-204) / ``descale_features``
    (transform.py:309-364)."""
    table = _INVERSE if inverse else _FORWARD
    if not transform_dict:
        return ds
    items = list(transform_dict.items())

    def fn(batch: pd.DataFrame) -> pd.DataFrame:
        for name, params in items:
            batch = table[name](batch, params)
        return batch

    return ds.map_batches(fn, batch_format="pandas")


def descale_array(values: np.ndarray, transform_dict: dict, target: str) -> np.ndarray:
    """Invert scalings on a bare array (reference ``_descale_target``,
    transform.py:246-306): applies the first transform whose feature list
    contains ``target``."""
    for name, params in transform_dict.items():
        if target in params["features"]:
            if name == "log1p":
                return np.expm1(values)
            if name == "standardize":
                return values * params["stdev"][target] + params["mean"][target]
            if name == "normalize":
                lo, hi = params["mins"][target], params["maxes"][target]
                return values * (hi - lo) + lo
    return values


def winsorize_clip(ds, group_cols: list[str], feature: str,
                   q_lo: float = 0.05, q_hi: float = 0.95,
                   out_name: str | None = None):
    """Per-group winsorization: clip ``feature`` to its group's
    [q_lo, q_hi] exact quantiles (quantile_cont interpolation). Two-phase
    like the other scalers — a distributed quantile fit (one range-partition
    sort, O(groups·2) rows to the driver) then a broadcast + vectorized clip
    map. Not invertible, so deliberately OUTSIDE the transform-dict/descale
    contract."""
    import ray

    from forecastframe_ray.pipelines.interpret import grouped_quantiles

    out_name = out_name or f"{feature}_winsorized"
    lo_col = f"q{int(round(q_lo * 100))}"
    hi_col = f"q{int(round(q_hi * 100))}"
    bounds = grouped_quantiles(ds, list(group_cols), feature,
                               qs=(q_lo, q_hi))
    bounds = bounds.rename(columns={lo_col: "__lo", hi_col: "__hi"})
    ref = ray.put(bounds)

    def clip(batch: pd.DataFrame) -> pd.DataFrame:
        b = batch.merge(ray.get(ref), how="left", on=list(group_cols))
        v = b[feature].to_numpy(dtype=np.float64)
        b[out_name] = np.clip(v, b["__lo"].to_numpy(dtype=np.float64),
                              b["__hi"].to_numpy(dtype=np.float64))
        return b.drop(columns=["__lo", "__hi"])

    return ds.map_batches(clip, batch_format="pandas")
