"""Prediction post-processing (reference ``model.py:27-56``):

- ``set_forecast_minimum`` — clamp every ``predicted_*`` column at a floor
  (reference ``_set_forecast_minimum``, model.py:27-35), a stateless
  vectorized ``map_batches`` pass.
- ``add_confidence_intervals`` — the reference's lightweight normal-theory
  intervals (``_add_simple_confidence_intervals``, model.py:38-56):
  ``pred ± norm.ppf(alpha) * sem(pred)``. The standard error of the mean
  (``pandas.Series.sem()`` = std(ddof=1)/√n) is computed as one
  ``agg.reduce`` of (Σx, Σx², n) partials — the prediction table never
  materializes — then the two bound columns are a broadcast-scalar
  vectorized pass.

``norm_ppf`` is Acklam's rational approximation of the inverse normal CDF
(public algorithm) refined with one Halley step via ``math.erfc``, giving
double-precision agreement with scipy's ``st.norm.ppf`` without a scipy
dependency (scipy is not in this environment).
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from forecastframe_ray.stages.agg import reduce

# Acklam inverse-normal-CDF coefficients (peter.acklam's public algorithm)
_A = (-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
      1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00)
_B = (-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
      6.680131188771972e+01, -1.328068155288572e+01)
_C = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
      -2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00)
_D = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
      3.754408661907416e+00)


def norm_ppf(p: float) -> float:
    """Inverse standard-normal CDF, machine-precision via Acklam + one
    Halley refinement step (agrees with scipy.stats.norm.ppf to ~1 ulp)."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"p must be in (0, 1), got {p}")
    p_low, p_high = 0.02425, 1 - 0.02425
    if p < p_low:
        q = math.sqrt(-2 * math.log(p))
        x = ((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4])
              * q + _C[5])
             / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1))
    elif p <= p_high:
        q = p - 0.5
        r = q * q
        x = ((((((_A[0] * r + _A[1]) * r + _A[2]) * r + _A[3]) * r + _A[4])
              * r + _A[5]) * q
             / (((((_B[0] * r + _B[1]) * r + _B[2]) * r + _B[3]) * r
                 + _B[4]) * r + 1))
    else:
        q = math.sqrt(-2 * math.log(1 - p))
        x = -((((((_C[0] * q + _C[1]) * q + _C[2]) * q + _C[3]) * q + _C[4])
               * q + _C[5])
              / ((((_D[0] * q + _D[1]) * q + _D[2]) * q + _D[3]) * q + 1))
    # one Halley step: e = Phi(x) - p, u = e * sqrt(2*pi) * exp(x^2/2)
    e = 0.5 * math.erfc(-x / math.sqrt(2)) - p
    u = e * math.sqrt(2 * math.pi) * math.exp(x * x / 2)
    return x - u / (1 + x * u / 2)


def set_forecast_minimum(ds, floor: float, pred_cols: list[str] | None = None):
    """Clamp prediction columns at ``floor`` (reference
    ``_set_forecast_minimum``, model.py:27-35: ``preds.where(preds > floor,
    floor)``). ``pred_cols=None`` floors every column whose name contains
    ``predicted_`` — the reference's column-discovery rule."""

    def clamp(batch: pd.DataFrame) -> pd.DataFrame:
        cols = pred_cols if pred_cols is not None else \
            [c for c in batch.columns if "predicted_" in c]
        for c in cols:
            x = batch[c].to_numpy(dtype=np.float64, na_value=np.nan)
            batch[c] = np.where(x > floor, x, floor)
        return batch

    return ds.map_batches(clamp, batch_format="pandas")


def prediction_sem(ds, pred_col: str) -> float:
    """Distributed ``Series.sem()``: std(ddof=1)/√n over non-null values,
    from one (Σx, Σx², n) partial-reduce pass."""

    def partials(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch[pred_col].to_numpy(dtype=np.float64, na_value=np.nan)
        x = x[~np.isnan(x)]
        return pd.DataFrame({"__x": [float(x.sum())],
                             "__xx": [float((x * x).sum())],
                             "__n": [len(x)]})

    row = reduce(ds, partials,
                 lambda p: p.reindex(columns=["__x", "__xx", "__n"]).sum())
    n = int(row["__n"])
    if n < 2:
        return float("nan")
    sx, sxx = float(row["__x"]), float(row["__xx"])
    var = max(sxx - sx * sx / n, 0.0) / (n - 1)
    return math.sqrt(var / n)


def add_confidence_intervals(ds, pred_col: str, alpha: float = 0.975):
    """Reference ``_add_simple_confidence_intervals`` (model.py:38-56):
    ``{pred_col}_upper/lower = pred ± norm.ppf(alpha) * sem(pred)``. The
    sem is one distributed reduce; the bounds are a broadcast-scalar
    vectorized map — no shuffle, no materialization of the prediction
    table on the driver."""
    half_width = norm_ppf(alpha) * prediction_sem(ds, pred_col)

    def bounds(batch: pd.DataFrame) -> pd.DataFrame:
        x = batch[pred_col].to_numpy(dtype=np.float64, na_value=np.nan)
        batch[f"{pred_col}_upper"] = x + half_width
        batch[f"{pred_col}_lower"] = x - half_width
        return batch

    return ds.map_batches(bounds, batch_format="pandas")
