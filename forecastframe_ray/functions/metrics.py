"""Distributed error metrics (SURVEY.md A6; reference
``/root/reference/forecastframe/interpret.py:47-115``).

The mean metrics (MAPE/MAPA/MSE/RMSE) are null-masked partial+final
aggregates — per-batch (sum, count) partials then one tiny reduce, so the
full prediction table is never materialized.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from ray.data.aggregate import Count, Sum


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

    partial = ds.map_batches(partials, batch_format="pandas")
    aggs = [
        Sum("__ape", alias_name="sum_ape"),
        Sum("__se", alias_name="sum_se"),
        Count(alias_name="n"),
    ]
    if group_cols:
        from forecastframe_ray.stages.agg import hash_aggregate

        out = hash_aggregate(partial, list(group_cols), {
            "sum_ape": ("__ape", "sum"), "sum_se": ("__se", "sum"),
            "n": ("__ape", "size"),
        })
    else:
        row = partial.aggregate(*aggs)
        out = pd.DataFrame([row])

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        df["MAPE"] = df["sum_ape"] / df["n"]
        df["MAPA"] = 1.0 - df["MAPE"]
        df["MSE"] = df["sum_se"] / df["n"]
        df["RMSE"] = np.sqrt(df["MSE"])
        return df.drop(columns=["sum_ape", "sum_se"])

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

    partial = ds.map_batches(partials, batch_format="pandas")
    if group_cols:
        from forecastframe_ray.stages.agg import hash_aggregate

        out = hash_aggregate(partial, list(group_cols), {
            "sum_sm": ("__sm", "sum"), "sum_ae": ("__ae", "sum"),
            "sum_aa": ("__aa", "sum"), "sum_err": ("__err", "sum"),
            "n": ("__sm", "size"),
        }).to_pandas()
    else:
        row = partial.aggregate(
            Sum("__sm", alias_name="sum_sm"),
            Sum("__ae", alias_name="sum_ae"),
            Sum("__aa", alias_name="sum_aa"),
            Sum("__err", alias_name="sum_err"),
            Count(alias_name="n"))
        out = pd.DataFrame([row])

    out["SMAPE"] = out["sum_sm"] / out["n"]
    with np.errstate(divide="ignore", invalid="ignore"):
        out["WAPE"] = np.where(out["sum_aa"] == 0.0, np.nan,
                               out["sum_ae"] / out["sum_aa"])
    out["ME"] = out["sum_err"] / out["n"]
    return out.drop(columns=["sum_sm", "sum_ae", "sum_aa", "sum_err"])


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

    parts = ds.map_batches(partials, batch_format="pandas").to_pandas()
    out = parts.groupby("quantile", as_index=False).sum()
    out["loss"] = out["sum_loss"] / out["n"]
    out["n"] = out["n"].astype("int64")
    return out.drop(columns=["sum_loss"]).sort_values("quantile") \
        .reset_index(drop=True)


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

    row = ds.map_batches(partials, batch_format="pandas").aggregate(
        Sum("__loss", alias_name="sum_loss"), Sum("__n", alias_name="n"))
    n = int(row["n"])
    return pd.DataFrame({"n": pd.array([n], dtype="int64"),
                         "loss": [float(row["sum_loss"]) / n if n else np.nan]})
