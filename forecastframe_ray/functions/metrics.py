"""Distributed error metrics (SURVEY.md A6; reference
``/root/reference/forecastframe/interpret.py:47-115``).

The mean metrics (MAPE/MAPA/MSE/RMSE) are null-masked partial+final
aggregates — per-block (sum, count) partials then one ``agg.reduce``, so the
full prediction table is never materialized. Empty input gives ``n = 0``
and NaN metrics.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from forecastframe_ray.stages.agg import hash_aggregate, reduce


def _sums(ds, partials, group_cols, cols: list[str]):
    """NaN-skipping ``sum<col>`` of ``cols`` and row count ``n`` over the rows
    ``partials`` emits: a Dataset per group, or one global-row DataFrame."""
    aggs = {**{f"sum{c}": (c, "sum") for c in cols}, "n": (cols[0], "size")}
    if group_cols:
        return hash_aggregate(ds.map_batches(partials, batch_format="pandas"),
                              list(group_cols), aggs)

    def block(b: pd.DataFrame) -> pd.DataFrame:
        p = partials(b)
        return pd.DataFrame({**{f"sum{c}": [p[c].sum()] for c in cols},
                             "n": [len(p)]})

    return reduce(ds, block, lambda p: p.reindex(columns=list(aggs)).sum()
                  .to_frame().T.astype({"n": "int64"}))


def error_summary(ds, actual_col: str, pred_col: str, group_cols: list[str] | None = None):
    """MAPE / MAPA / MSE / RMSE (+ row count), optionally per group.

    Null actuals are masked out before any mean (reference
    ``_calc_error_metric``, interpret.py:104-115).
    """

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[actual_col].to_numpy(dtype=np.float64, na_value=np.nan)
        p = batch[pred_col].to_numpy(dtype=np.float64, na_value=np.nan)
        mask = ~np.isnan(a)
        a, p = a[mask], p[mask]
        with np.errstate(divide="ignore", invalid="ignore"):
            batch = batch.loc[mask, list(group_cols or [])].copy()
            batch["__ape"] = np.abs((a - p) / a)
            batch["__se"] = (a - p) ** 2
        return batch

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["MAPE"] = df["sum__ape"] / df["n"]
        df["MAPA"] = 1.0 - df["MAPE"]
        df["MSE"] = df["sum__se"] / df["n"]
        df["RMSE"] = np.sqrt(df["MSE"])
        return df.drop(columns=["sum__ape", "sum__se"])

    out = _sums(ds, partials, group_cols, ["__ape", "__se"])
    if isinstance(out, pd.DataFrame):
        return finalize(out)
    return out.map_batches(finalize, batch_format="pandas")


def scaled_error_summary(ds, actual_col: str, pred_col: str,
                         group_cols: list[str] | None = None):
    """SMAPE / WAPE / ME (mean error, the signed forecast bias), optionally
    per group — the scale-robust complements of :func:`error_summary`
    (public definitions; M-competition conventions):

        SMAPE = mean over valid rows of 2|y−ŷ| / (|y|+|ŷ|)
                (rows with |y|+|ŷ| = 0 contribute 0, the common convention)
        WAPE  = Σ|y−ŷ| / Σ|y|
        ME    = Σ(ŷ−y) / n          (positive = over-forecasting)

    Null actuals or predictions are masked out first. Same physical plan as
    ``error_summary``: per-batch vectorized partials → one tiny sum
    aggregate; the driver sees one row per group."""

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[actual_col].to_numpy(dtype=np.float64, na_value=np.nan)
        p = batch[pred_col].to_numpy(dtype=np.float64, na_value=np.nan)
        mask = ~(np.isnan(a) | np.isnan(p))
        a, p = a[mask], p[mask]
        den = np.abs(a) + np.abs(p)
        with np.errstate(divide="ignore", invalid="ignore"):
            sm = np.where(den == 0.0, 0.0, 2.0 * np.abs(a - p) / den)
        out = batch.loc[mask, list(group_cols or [])].copy()
        out["__sm"] = sm
        out["__ae"] = np.abs(a - p)
        out["__aa"] = np.abs(a)
        out["__err"] = p - a
        return out

    out = _sums(ds, partials, group_cols, ["__sm", "__ae", "__aa", "__err"])
    if group_cols:
        out = out.to_pandas()
    with np.errstate(divide="ignore", invalid="ignore"):
        out["SMAPE"] = out["sum__sm"] / out["n"]
        out["WAPE"] = np.where(out["sum__aa"] == 0.0, np.nan,
                               out["sum__ae"] / out["sum__aa"])
        out["ME"] = out["sum__err"] / out["n"]
    return out.drop(columns=["sum__sm", "sum__ae", "sum__aa", "sum__err"])


def quantile_loss(ds, actual_col: str, pred_col: str,
                  quantiles: list[float]) -> pd.DataFrame:
    """Pinball / quantile loss per requested quantile — the reference's M5
    scoring metric (model.py:136-149 ``_get_quantile_function``:
    ``mean(q·(a−p) if a ≥ p else (1−q)·(p−a))``), computed distributed:
    each batch emits one partial (Σloss, n) row per quantile, the driver
    sums |quantiles| rows per block. Null actuals are masked out like
    every other metric here."""
    qs = [float(q) for q in quantiles]

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[actual_col].to_numpy(dtype=np.float64, na_value=np.nan)
        p = batch[pred_col].to_numpy(dtype=np.float64, na_value=np.nan)
        mask = ~(np.isnan(a) | np.isnan(p))
        a, p = a[mask], p[mask]
        rows = []
        for q in qs:
            loss = np.where(a >= p, q * (a - p), (1 - q) * (p - a))
            rows.append({"quantile": q, "sum_loss": float(loss.sum()),
                         "n": len(a)})
        return pd.DataFrame(rows)

    def combine(parts: pd.DataFrame) -> pd.DataFrame:
        out = pd.concat([pd.DataFrame({"quantile": qs, "sum_loss": 0.0,
                                       "n": 0}), parts], ignore_index=True)
        out = out.groupby("quantile", as_index=False).sum()
        out["loss"] = out["sum_loss"] / out["n"]
        out["n"] = out["n"].astype("int64")
        return out.drop(columns=["sum_loss"])

    return reduce(ds, partials, combine)


def asymmetric_loss(ds, actual_col: str, pred_col: str,
                    loss_multiplier: float = 0.9) -> pd.DataFrame:
    """The reference's M5-winning asymmetric validation loss
    (``_custom_asymmetric_valid``, model.py:539-548): residual = a − p,
    ``mean(residual² if residual < 0 else residual² · multiplier)`` —
    negative residuals (over-forecasts) penalized more than positive ones.
    Distributed as per-batch (Σloss, n) partials + one tiny reduce; null
    actuals/preds masked like every metric here. Returns one row
    ``(n, loss)``."""

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        a = batch[actual_col].to_numpy(dtype=np.float64, na_value=np.nan)
        p = batch[pred_col].to_numpy(dtype=np.float64, na_value=np.nan)
        mask = ~(np.isnan(a) | np.isnan(p))
        r = a[mask] - p[mask]
        loss = np.where(r < 0, r * r, r * r * loss_multiplier)
        return pd.DataFrame({"__loss": [float(loss.sum())],
                             "__n": [int(mask.sum())]})

    row = reduce(ds, partials,
                 lambda p: p.reindex(columns=["__loss", "__n"]).sum())
    n = int(row["__n"])
    return pd.DataFrame({"n": pd.array([n], dtype="int64"),
                         "loss": [float(row["__loss"]) / n if n else np.nan]})
