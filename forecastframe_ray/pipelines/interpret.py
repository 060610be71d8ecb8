"""Interpretation stack, data side (SURVEY.md §2.8 scope note).

The reference's interpretation layer mixes three things: the error-table
computations (``/root/reference/forecastframe/interpret.py:128-208``
``get_errors(describe=True)`` / ``_calc_errors``), the CV fit-summary key
stats (``interpret.py:446-653`` ``summarize_cv``: per-sample median +
actuals-weighted-average APE, tail-skew direction, qualitative threshold
scores) and SHAP/plot rendering (``interpret.py:211-429``). The first two
are pure data computations and are implemented here distributed; SHAP and
altair plots need libraries outside this container, so the model-agnostic
**permutation feature importance** (Breiman 2001, §10) stands in for the
importance ranking, built on a distributed OLS fit — the same "which
feature moves the error" question ``plot_shap_importance`` answers.

Scale shape of each piece:

- *moments* (count/mean/std/min/max): per-block partials merged with
  Chan's parallel update (``agg.merge_moments``) on the driver — one
  ``agg.reduce``, no shuffle, numerically stable (never the catastrophic
  Σx²−(Σx)²/n form).
- *quantiles*: exact order statistics via ONE range-partition sort of the
  narrow ``(group, value)`` melt + ``split_at_indices`` point-lookups of
  the ≤ |groups|·|qs|·2 needed rows. Sorting an 8-byte column is the
  exact-quantile lower bound at any scale; only O(groups·qs) rows ever
  reach the driver.
- *OLS fit*: normal-equation cross-product sums via per-block partials +
  one ``agg.reduce``; the k×k solve happens on the driver (k = 2 features
  + intercept) with an explicit Cramer expansion so a SQL oracle can
  reproduce it term-for-term.
- *permutation*: a deterministic cyclic rotation within each series
  (row i takes row i−1's value, the first row takes the last's) — a real
  permutation, reproducible on any cluster shape, and SQL-expressible
  (``LAG`` + partition-wide ``last_value``), unlike an RNG shuffle.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray

from forecastframe_ray.stages.agg import (merge_moments, reduce,
                                          without_schema_metadata)


# ---------------------------------------------------------------------------
# streaming moments (count / mean / std / min / max) per group
# ---------------------------------------------------------------------------

def grouped_moments(ds, group_cols: list[str], value_col: str,
                    weight_col: str | None = None) -> pd.DataFrame:
    """``n, mean, std(ddof=1), min, max`` (+ optional ``wavg`` =
    Σw·x/Σw) per group, one streaming pass.

    Groups must be driver-small (metric labels, folds) — each *block*
    contributes one partial row per group it contains, and the partials
    are merged on the driver with Chan et al.'s parallel-variance update.
    Empty input gives an empty frame.
    Rows with null ``value_col`` are masked out (reference
    ``_calc_weighted_average``, utilities.py:478-481 mask semantics).
    """
    gc = list(group_cols)

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        x = b[value_col].to_numpy(dtype=np.float64, na_value=np.nan)
        mask = np.isfinite(x)
        if weight_col is not None:
            w = b[weight_col].to_numpy(dtype=np.float64, na_value=np.nan)
        rows = []
        sub = b.loc[mask, gc]
        xs = x[mask]
        for key, idx in sub.groupby(gc, sort=False, dropna=False,
                                    observed=True).indices.items():
            v = xs[idx]
            key = key if isinstance(key, tuple) else (key,)
            m = float(v.mean())
            row = dict(zip(gc, key))
            row.update(n=len(v), mean=m, m2=float(((v - m) ** 2).sum()),
                       mn=float(v.min()), mx=float(v.max()))
            if weight_col is not None:
                wv = w[mask][idx]
                row.update(swx=float((v * wv).sum()), sw=float(wv.sum()))
            rows.append(row)
        return pd.DataFrame(rows)

    parts = reduce(ds, partials, lambda p: p)
    out = []
    for key, g in (parts.groupby(gc, sort=True, dropna=False, observed=True)
                   if len(parts) else ()):
        key = key if isinstance(key, tuple) else (key,)
        n, mean, m2 = merge_moments(g["n"], g["mean"], g["m2"])
        row = dict(zip(gc, key))
        row.update(n=n, mean=mean,
                   std=float(np.sqrt(m2 / (n - 1))) if n > 1 else np.nan,
                   min=float(g["mn"].min()), max=float(g["mx"].max()))
        if weight_col is not None:
            row["wavg"] = float(g["swx"].sum()) / float(g["sw"].sum())
        out.append(row)
    return pd.DataFrame(out)


# ---------------------------------------------------------------------------
# exact distributed quantiles (linear interpolation — pandas/duckdb
# quantile_cont semantics)
# ---------------------------------------------------------------------------

@ray.remote
def _values_at(block, col: str, rows: np.ndarray) -> np.ndarray:
    """``col`` at the block-local ``rows`` of one block, as float64."""
    from ray.data.block import BlockAccessor
    taken = BlockAccessor.for_block(block).take(rows.tolist())
    return BlockAccessor.for_block(taken).to_pandas()[col] \
        .to_numpy(dtype=np.float64)


def grouped_quantiles(ds, group_cols: list[str], value_col: str,
                      qs: tuple[float, ...] = (0.25, 0.5, 0.75),
                      counts: pd.DataFrame | None = None) -> pd.DataFrame:
    """Exact per-group quantiles of ``value_col`` with linear interpolation.

    One range-partition sort by ``group_cols + [value_col]`` (nulls must be
    pre-masked by the caller), then the 2·|qs| order statistics per group
    are plucked by global row index in one pass over the sorted blocks:
    block row counts (metadata) place each index, and one plain task per
    block that holds any reads them — constant driver traffic regardless
    of data size, and no Ray Data execution past the sort. ``counts``
    (per-group non-null row counts, columns ``group_cols + ['n']``) is
    computed here if not supplied. Group keys must sort identically under
    Arrow and pandas (ints / ASCII strings — all engine callers).
    """
    gc = list(group_cols)
    if counts is None:
        counts = grouped_moments(ds, gc, value_col)[gc + ["n"]]
    counts = counts.sort_values(gc, kind="mergesort").reset_index(drop=True)
    offsets = np.concatenate([[0], counts["n"].to_numpy().cumsum()])[:-1]

    needed: set[int] = set()
    plan = []  # (group_row, q, lo_idx, hi_idx, frac)
    for gi, (off, n) in enumerate(zip(offsets, counts["n"])):
        for q in qs:
            p = q * (int(n) - 1)
            lo, hi = int(np.floor(p)), int(np.ceil(p))
            needed.update((int(off) + lo, int(off) + hi))
            plan.append((gi, q, int(off) + lo, int(off) + hi, p - lo))

    srt = without_schema_metadata(ds).sort(gc + [value_col]).materialize()
    bounds = np.array(sorted(needed), dtype=np.int64)
    picks, start = [], 0
    for bundle in srt.iter_internal_ref_bundles():
        for ref, meta in bundle.blocks:
            lo, hi = np.searchsorted(bounds, [start, start + meta.num_rows])
            if hi > lo:
                picks.append(_values_at.remote(ref, value_col,
                                               bounds[lo:hi] - start))
            start += meta.num_rows
    vals = np.concatenate(ray.get(picks)) if picks else np.empty(0)
    val_at = dict(zip(bounds.tolist(), vals.tolist()))

    out = counts[gc].copy()
    for q in qs:
        out[f"q{int(round(q * 100))}"] = np.nan
    for gi, q, lo, hi, frac in plan:
        v0, v1 = val_at[lo], val_at[hi]
        out.loc[gi, f"q{int(round(q * 100))}"] = v0 + frac * (v1 - v0)
    return out


# ---------------------------------------------------------------------------
# get_errors(describe=True): the distributed error-table describe
# ---------------------------------------------------------------------------

#: metric label -> (needs_pred, value fn(actual, pred)); masks follow the
#: reference (_calc_errors, interpret.py:158-177): rows with null actuals
#: are dropped for every column, ±inf (APE at actual=0) become NaN and are
#: skipped per-column, exactly like pandas describe().
_DESCRIBE_METRICS = ("AE", "APE", "SE", "actuals", "predictions")


def melt_errors(ds, actual_col: str, pred_col: str):
    """Melt the prediction table into valid ``(metric, x)`` rows — the
    narrow stream both the moments pass and the quantile sort consume."""

    def melt(b: pd.DataFrame) -> pd.DataFrame:
        a = b[actual_col].to_numpy(dtype=np.float64, na_value=np.nan)
        p = b[pred_col].to_numpy(dtype=np.float64, na_value=np.nan)
        keep = ~np.isnan(a)
        a, p = a[keep], p[keep]
        both = ~np.isnan(p)
        with np.errstate(divide="ignore", invalid="ignore"):
            ape = np.abs((a - p) / a)
        cols = {
            "actuals": a,
            "predictions": p[both],
            "AE": np.abs(a - p)[both],
            "APE": ape[both & np.isfinite(ape)],
            "SE": ((a - p) ** 2)[both],
        }
        return pd.DataFrame({
            "metric": np.repeat(list(_DESCRIBE_METRICS),
                                [len(cols[m]) for m in _DESCRIBE_METRICS]),
            "x": np.concatenate([cols[m] for m in _DESCRIBE_METRICS]),
        })

    return ds.map_batches(melt, batch_format="pandas")


def errors_describe(ds, actual_col: str, pred_col: str) -> pd.DataFrame:
    """Distributed ``get_errors(describe=True)``: count/mean/std/min/
    quartiles/max for Actuals, Predictions, AE, APE and SE (the reference's
    ``_get_error_func_dict`` columns, interpret.py:118-126)."""
    melted = melt_errors(ds, actual_col, pred_col).materialize()
    mom = grouped_moments(melted, ["metric"], "x")
    quants = grouped_quantiles(melted, ["metric"], "x",
                               counts=mom[["metric", "n"]])
    out = mom.merge(quants, on="metric")
    return out[["metric", "n", "mean", "std", "min",
                "q25", "q50", "q75", "max"]].sort_values("metric") \
        .reset_index(drop=True)


# ---------------------------------------------------------------------------
# summarize_cv key stats (interpret.py:446-653), data side
# ---------------------------------------------------------------------------

#: reference _get_threshold_dict / _score_absolute_percent_error —
#: first threshold the value does not exceed; > 1 scores NULL.
_SCORE_THRESHOLDS = (("best", 0.10), ("good", 0.15), ("bad", 0.25),
                     ("worst", 1.0))


def score_ape(value: float) -> str | None:
    for label, thr in _SCORE_THRESHOLDS:
        if value <= thr:
            return label
    return None


def cv_fit_summary(fr, n_splits: int = 2, season: str = "dow",
                   blend: float = 0.0,
                   round_digits: int | None = None) -> pd.DataFrame:
    """The ``summarize_cv`` key stats over the LAST fold (reference uses
    ``fold=-1``, interpret.py:446-455): per sample (In-Sample = fold train
    slice, Out-of-Sample = test slice) the null-masked median APE, the
    actuals-weighted average APE, the tail-skew direction
    (``left-tailed`` iff weighted average < median) and the qualitative
    threshold score of the median; plus the fold-level
    ``|oos_median − is_median|`` difference and its score, repeated on
    both rows. Predictions come from the stand-in seasonal-mean estimator
    (the reference scores whatever ``predicted_{target}`` holds)."""
    from forecastframe_ray.pipelines import cv, search

    dtc, tgt = fr.datetime_column, fr.target
    keys = list(fr.hierarchy or [])
    folds = list(cv.fold_frames(fr, n_splits=n_splits, gap=0))
    fold, ffold = folds[-1]
    ds = ffold.dataset.materialize()
    t0 = fold["test_start"]
    fit_fn, score_fn, _ = search.ESTIMATORS["seasonal_mean"]
    train = ds.map_batches(lambda b, t0=t0: b[b[dtc] < t0],
                           batch_format="pandas").materialize()
    state = fit_fn(train, keys, dtc, tgt, season=season, blend=blend)
    scored = score_fn(ds, state, keys, dtc, tgt, "__pred")

    def ape_rows(b: pd.DataFrame) -> pd.DataFrame:
        a = b[tgt].to_numpy(dtype=np.float64, na_value=np.nan)
        p = b["__pred"].to_numpy(dtype=np.float64, na_value=np.nan)
        with np.errstate(divide="ignore", invalid="ignore"):
            ape = np.abs((a - p) / a)
        keep = np.isfinite(ape)
        return pd.DataFrame({
            "sample": np.where(
                b[dtc].to_numpy()[keep] < np.datetime64(t0),
                "In-Sample", "Out-of-Sample"),
            "ape": ape[keep],
            "w": a[keep],
        })

    melted = scored.map_batches(ape_rows, batch_format="pandas").materialize()
    mom = grouped_moments(melted, ["sample"], "ape", weight_col="w")
    quants = grouped_quantiles(melted, ["sample"], "ape", qs=(0.5,),
                               counts=mom[["sample", "n"]])
    out = mom.merge(quants, on="sample").rename(columns={"q50": "median_ape",
                                                         "wavg": "wavg_ape"})
    if round_digits is not None:
        # labels and the median difference compare near-equal floats; round
        # BEFORE deriving them so an oracle rounding to the same digits
        # lands on the same side of every threshold
        for c in ("median_ape", "wavg_ape"):
            out[c] = np.round(out[c].to_numpy(dtype=np.float64), round_digits)
    out["skew"] = np.where(out["wavg_ape"] < out["median_ape"],
                           "left-tailed", "right-tailed")
    out["sample_score"] = [score_ape(v) for v in out["median_ape"]]
    med = dict(zip(out["sample"], out["median_ape"]))
    difference = abs(med["Out-of-Sample"] - med["In-Sample"])
    if round_digits is not None:
        difference = float(np.round(difference, round_digits))
    out["difference"] = difference
    out["difference_score"] = score_ape(difference)
    return out[["sample", "n", "median_ape", "wavg_ape", "skew",
                "sample_score", "difference", "difference_score"]] \
        .sort_values("sample").reset_index(drop=True)


# ---------------------------------------------------------------------------
# permutation feature importance over a distributed OLS fit
# ---------------------------------------------------------------------------

def _det3(m) -> float:
    """Cofactor expansion of a 3×3 — written out so the SQL oracle can
    reproduce the identical floating-point expression term-for-term."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def _ols2_sums(ds, x1: str, x2: str, y: str) -> tuple[float, ...]:
    """The nine cross-product sums of the 2-feature normal equations:
    per-batch partials + one tiny aggregate — rows never leave the
    cluster. Caller must pre-filter rows so x1/x2/y are non-null."""
    names = ["one", "s1", "s2", "s11", "s22", "s12", "sy", "s1y", "s2y"]

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        v1 = b[x1].to_numpy(dtype=np.float64)
        v2 = b[x2].to_numpy(dtype=np.float64)
        vy = b[y].to_numpy(dtype=np.float64)
        return pd.DataFrame({
            "one": np.ones(len(b)), "s1": v1, "s2": v2,
            "s11": v1 * v1, "s22": v2 * v2, "s12": v1 * v2,
            "sy": vy, "s1y": v1 * vy, "s2y": v2 * vy,
        }).sum().to_frame().T

    row = reduce(ds, partials, lambda p: p.reindex(columns=names).sum())
    return tuple(float(row[c]) for c in names)


def _solve_ols2(sums: tuple[float, ...]) -> tuple[float, float, float]:
    """Explicit 3×3 Cramer expansion of the normal equations (written out
    so the SQL oracle reproduces the identical float expression)."""
    n, s1, s2, s11, s22, s12, sy, s1y, s2y = sums
    col0, col1, col2 = (n, s1, s2), (s1, s11, s12), (s2, s12, s22)
    rhs = (sy, s1y, s2y)
    d = _det3((col0, col1, col2))
    b0 = _det3(((rhs[0], col1[0], col2[0]), (rhs[1], col1[1], col2[1]),
                (rhs[2], col1[2], col2[2]))) / d
    b1 = _det3(((col0[0], rhs[0], col2[0]), (col0[1], rhs[1], col2[1]),
                (col0[2], rhs[2], col2[2]))) / d
    b2 = _det3(((col0[0], col1[0], rhs[0]), (col0[1], col1[1], rhs[1]),
                (col0[2], col1[2], rhs[2]))) / d
    return b0, b1, b2


def fit_ols2(ds, x1: str, x2: str, y: str) -> tuple[float, float, float]:
    """Distributed 2-feature + intercept OLS via normal equations: sums by
    :func:`_ols2_sums`, solve by :func:`_solve_ols2` on the driver."""
    return _solve_ols2(_ols2_sums(ds, x1, x2, y))


def linear_shap(ds, x1: str, x2: str, y: str):
    """EXACT SHAP attributions for the fitted 2-feature linear model — the
    engine path of the reference's SHAP explainer (interpret.py:282-286
    ``calc_shap_values``). For a linear model under the background
    distribution of the data itself, the Shapley value has the closed form
    (Lundberg & Lee 2017, "Linear SHAP"):

        φⱼ(x) = βⱼ · (xⱼ − x̄ⱼ),   base value = ȳ,
        prediction ≡ base + φ₁ + φ₂   (exactly, by OLS intercept algebra).

    One distributed fit (nine-sum aggregate + driver Cramer solve) then a
    stateless vectorized ``map_batches`` append — O(rows), zero shuffles,
    no per-row model evaluation. Appends ``{x}_shap`` per feature plus
    ``base_value`` and ``pred``; caller must pre-filter non-null rows."""
    sums = _ols2_sums(ds, x1, x2, y)
    n, s1, s2, _, _, _, sy, _, _ = sums
    b0, b1, b2 = _solve_ols2(sums)
    m1, m2, base = s1 / n, s2 / n, sy / n

    def attribute(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        v1 = b[x1].to_numpy(dtype=np.float64)
        v2 = b[x2].to_numpy(dtype=np.float64)
        b[f"{x1}_shap"] = b1 * (v1 - m1)
        b[f"{x2}_shap"] = b2 * (v2 - m2)
        b["base_value"] = base
        b["pred"] = b0 + b1 * v1 + b2 * v2
        return b

    return ds.map_batches(attribute, batch_format="pandas")


def _rmse_linear(ds, x1: str, x2: str, y: str,
                 betas: tuple[float, float, float]) -> float:
    b0, b1, b2 = betas

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        r = (b[y].to_numpy(dtype=np.float64)
             - (b0 + b1 * b[x1].to_numpy(dtype=np.float64)
                + b2 * b[x2].to_numpy(dtype=np.float64)))
        return pd.DataFrame({"se": [float((r * r).sum())], "n": [len(b)]})

    row = reduce(ds, partials, lambda p: p.reindex(columns=["se", "n"]).sum())
    return float(np.sqrt(row["se"] / row["n"])) if row["n"] else np.nan


def permutation_importance(ds, keys: list[str], ts_col: str,
                           features: tuple[str, str], target: str,
                           num_partitions: int = 64) -> pd.DataFrame:
    """Model-agnostic feature importance (the SHAP-importance stand-in):
    fit the OLS once, then for each feature measure the RMSE increase when
    that feature column is cyclically rotated within each series — the
    classic permutation-importance recipe with a deterministic permutation
    so results are identical on any cluster shape. ``ds`` must already be
    filtered to rows where both features and the target are non-null."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    x1, x2 = features
    base = ds.materialize()
    betas = fit_ols2(base, x1, x2, target)
    rmse_base = _rmse_linear(base, x1, x2, target, betas)
    permuted = keyed_window_stage(
        base, keys, ts_col,
        [{"op": "cyclic_shift", "features": [x1, x2]}],
        num_partitions=num_partitions).materialize()
    rows = []
    for f, other in ((x1, x2), (x2, x1)):
        cols = {f: f + "_perm", other: other}
        rmse_p = _rmse_linear(permuted, cols[x1], cols[x2], target, betas)
        rows.append({"feature": f, "rmse_base": rmse_base,
                     "rmse_permuted": rmse_p,
                     "importance": rmse_p - rmse_base})
    return pd.DataFrame(rows).sort_values("feature").reset_index(drop=True)


# ---------------------------------------------------------------------------
# importance summary + alert flag (reference interpret.py:196-255
# summarize_shap / self.alerts["shap"], data side)
# ---------------------------------------------------------------------------

STAT_SUBSTRINGS = ("ewma_roll", "sum_roll", "mean_roll")
ALERT_THRESHOLD = 0.33


def single_feature_r2(ds, features: list[str], target: str) -> pd.DataFrame:
    """Per-feature importance = R² of the single-feature regression
    (``corr(x, y)²``) against ``target`` — the model-agnostic "how much of
    the target does this feature explain alone" ranking that stands in for
    the reference's mean-|SHAP| bar chart (interpret.py:392-429), scalable
    to any feature count in ONE streaming pass.

    Each batch emits one partial row per feature (count, means and central
    co-moments over the rows where that feature AND the target are both
    finite — pairwise deletion, matching SQL ``corr``'s null handling);
    partials merge on the driver with Chan et al.'s parallel update
    extended to the cross co-moment, so only O(blocks × features) rows
    ever leave the cluster and there is no Σx²−(Σx)²/n cancellation. A
    feature with no valid row gets ``n = 0`` and NaN R²."""
    feats = list(features)

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        y_all = b[target].to_numpy(dtype=np.float64, na_value=np.nan)
        rows = []
        for f in feats:
            x = b[f].to_numpy(dtype=np.float64, na_value=np.nan)
            m = np.isfinite(x) & np.isfinite(y_all)
            xv, yv = x[m], y_all[m]
            if not len(xv):
                continue
            mx, my = float(xv.mean()), float(yv.mean())
            rows.append(dict(feature=f, n=len(xv), mx=mx, my=my,
                             m2x=float(((xv - mx) ** 2).sum()),
                             m2y=float(((yv - my) ** 2).sum()),
                             cxy=float(((xv - mx) * (yv - my)).sum())))
        return pd.DataFrame(rows)

    parts = reduce(ds, partials, lambda p: p.reindex(
        columns=["feature", "n", "mx", "my", "m2x", "m2y", "cxy"]))
    out = []
    for f in feats:
        g = parts[parts["feature"] == f]
        n, _, c = merge_moments(g["n"], g[["mx", "my"]].to_numpy(), g[
            ["m2x", "cxy", "cxy", "m2y"]].to_numpy().reshape(-1, 2, 2))
        r2 = c[0, 1] * c[0, 1] / (c[0, 0] * c[1, 1]) \
            if n and c[0, 0] > 0 and c[1, 1] > 0 else np.nan
        out.append({"feature": f, "n": n, "r2": r2})
    return pd.DataFrame(out)


def importance_summary(ds, features: list[str], target: str,
                       stat_substrings: tuple[str, ...] = STAT_SUBSTRINGS,
                       alert_threshold: float = ALERT_THRESHOLD,
                       round_digits: int = 6) -> pd.DataFrame:
    """The reference's SHAP narrative + alert, data side
    (interpret.py:196-255 ``summarize_shap``): rank features by
    importance, compute each feature's share of total importance, classify
    "statistical" features by the reference's substring rule
    (interpret.py:233-235: ``ewma_roll`` / ``sum_roll`` / ``mean_roll``),
    and raise the alert flag when their combined share exceeds the
    reference's 0.33 threshold (interpret.py:245-248 →
    ``self.alerts["shap"]``).

    Shares, ranks and the alert are all derived from the ROUNDED R² so a
    SQL oracle (``round(corr(x, y)^2, d)``) reproduces them bit-for-bit;
    rank ties break lexicographically on the feature name."""
    imp = single_feature_r2(ds, features, target)
    imp["r2"] = np.round(imp["r2"].to_numpy(), round_digits)
    total = float(np.nansum(imp["r2"].to_numpy()))
    imp["share"] = np.round(imp["r2"].to_numpy() / total, round_digits)
    order = imp.sort_values(["r2", "feature"],
                            ascending=[False, True], kind="mergesort")
    rank = {f: i + 1 for i, f in enumerate(order["feature"])}
    imp["rank"] = imp["feature"].map(rank).astype("int64")
    stat = imp["feature"].str.contains("|".join(stat_substrings), regex=True)
    imp["is_statistical"] = stat.to_numpy()
    stat_share = round(float(imp.loc[stat, "r2"].sum()) / total, round_digits)
    imp["stat_share"] = stat_share
    imp["alert"] = stat_share > alert_threshold
    return imp.drop(columns=["n"]).sort_values("feature") \
        .reset_index(drop=True)


# ---------------------------------------------------------------------------
# exact TreeSHAP for the from-scratch GBM (round 5: retires the
# "tree-model SHAP absent" gap for the engine's own boosted trees;
# reference intent interpret.py:211-286 plot_shap_importance /
# summarize_shap over a fitted LightGBM)
# ---------------------------------------------------------------------------


def _tree_conditional_expectation(tree, feats, F, on_idx):
    """E[tree(x) | x_S] per row under the path-dependent convention
    (Lundberg et al. 2020, TreeSHAP): at a split on a feature IN the
    subset S (``on_idx``) rows follow their value; at a split on an
    absent feature the two children mix by their train COVER weights.
    Vectorized over rows — one recursion per tree NODE, numpy per-row
    masks/blends inside."""
    internal, leaf, cover = tree["internal"], tree["leaf"], tree["cover"]
    n = len(next(iter(F.values())))

    def rec(nid):
        if nid in leaf:
            return np.full(n, leaf[nid])
        fi, thr, left, right = internal[nid]
        if fi in on_idx:
            go_left = F[feats[fi]] <= thr
            return np.where(go_left, rec(left), rec(right))
        wl = cover[left] / (cover[left] + cover[right])
        return wl * rec(left) + (1.0 - wl) * rec(right)

    return rec(0)


def gbm_shap_frame(b: pd.DataFrame, state: dict, dtc: str,
                   prefix: str = "shap_") -> pd.DataFrame:
    """Per-row EXACT Shapley values of the fitted GBM over its calendar
    features, by direct enumeration of the 2^|features| conditional
    expectations per tree (|features| is 2-4 for this estimator family —
    enumeration IS the exact algorithm at that width, and matches
    polynomial TreeSHAP by definition). Additivity holds exactly:
    base + Σ_f shap_f == prediction (pinned in tests/test_gbm_shap.py).

    This is the per-batch kernel; :func:`gbm_shap` maps it over a Dataset
    with the fitted state broadcast once."""
    from itertools import combinations
    from math import factorial

    from forecastframe_ray.pipelines.search import _gbm_feature_frame

    feats = tuple(state["features"])
    lr = state["learning_rate"]
    F = _gbm_feature_frame(b, dtc, feats)
    k = len(feats)
    idx = range(k)

    # v(S) per subset: lr-scaled sum of per-tree conditional expectations
    v = {}
    for r in range(k + 1):
        for S in combinations(idx, r):
            v[S] = lr * sum(
                _tree_conditional_expectation(t, feats, F, set(S))
                for t in state["trees"])

    out = b.copy()
    for i in idx:
        phi = np.zeros(len(b))
        for r in range(k):
            w = factorial(r) * factorial(k - r - 1) / factorial(k)
            for S in combinations([j for j in idx if j != i], r):
                phi += w * (v[tuple(sorted(S + (i,)))] - v[S])
        out[prefix + feats[i]] = phi
    from forecastframe_ray.pipelines.search import _gbm_base_vec
    out[prefix + "base"] = _gbm_base_vec(
        b, state["base"], state.get("series_base"),
        state.get("keys", [])) + v[()]
    return out


def gbm_shap(ds, state: dict, dtc: str, prefix: str = "shap_"):
    """Distributed exact TreeSHAP: the fitted ensemble (a few dicts of
    scalars) broadcasts once; every batch pays 2^|features| tiny-tree
    evaluations — no shuffle, no driver rows."""
    import ray

    ref = ray.put(state)
    return ds.map_batches(
        lambda b: gbm_shap_frame(b, ray.get(ref), dtc, prefix),
        batch_format="pandas")
