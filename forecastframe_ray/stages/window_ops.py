"""Group-local window operator kernels (SURVEY.md §2.7 W1–W9).

Each kernel runs inside a :class:`~forecastframe_ray.stages.keyed.WindowKernel`
on one hash-partition that has already been **sorted by (keys, ts)** — every
series is contiguous and wholly present. Kernels are vectorized pandas/numpy:
each makes one pass over the whole partition with pandas' grouped window
machinery (``groupby().shift / rolling / ewm``, one MultiIndex reindex for
gap-fill), which resets its state at every group boundary, so the result
equals the per-series form bit for bit. Per-group Python is limited to
building each series' date grid in local-range gap-fill, and to the two ops
pandas has no grouped form for (rolling correlation, time interpolation),
which run per series through :func:`_grouped_ts_apply`; LTTB's selection
chain loops per series by design.

Semantics replicate the reference exactly (pinned by its golden tests, ported
in ``tests/``):

- rolling: per group ``x.shift(lag).rolling(f"{w}D", min_periods).agg(...)``
  — calendar-time trailing window ``(t-wD, t]``, NaN-skipping aggs, ddof=1
  std (``/root/reference/forecastframe/feature_engineering.py:368-374``)
- ewma: ``x.shift(lag).ewm(span=w, min_periods, adjust).mean()``
  (``feature_engineering.py:559-567``)
- pct-change: ``(shift(lag) - shift(lag+1)) / shift(lag+1)``, ±inf→NaN
  (``feature_engineering.py:724-743``; computed per group — the reference
  applies pct_change to the concatenated shifted series, leaking the first
  ``lag`` rows across group boundaries; our grouped form matches its golden
  test and its documented intent)
- momentums/percentages: grouped ``shift(lag)`` numerator (the reference uses
  an ungrouped shift, ``feature_engineering.py:408,420`` — a documented
  divergence that its own golden fixture cannot distinguish)
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_DEFAULT_AGGS = ["max", "min", "std", "mean", "median"]
_SID = "__series"


def lag_str(lag: int) -> str:
    return f"_lag{lag}" if lag != 0 else ""


def stat_name(feature: str, agg: str, window, lag: int, grouper_name: str | None = None,
              designator: str = "") -> str:
    """Reference column-naming rule (feature_engineering.py:696-721, 303-311)."""
    g = f"_{grouper_name}" if grouper_name else ""
    a = f"_{agg}" if agg else ""
    return f"{feature}{a}{g}{designator}_roll{window}{lag_str(lag)}"


def default_min_periods(window: int, min_periods) -> int:
    """feature_engineering.py:479-483: ceil(window**0.8) when falsy."""
    if not min_periods:
        return int(np.ceil(window ** 0.8))
    return int(min_periods)


def _grouped(df: pd.DataFrame, keys: list[str]):
    # observed=True: categorical keys (compress()) must not fabricate
    # unobserved-dictionary groups inside a shuffled partition (ADVICE r3)
    return df.groupby(keys, sort=False, dropna=False, group_keys=False,
                      observed=True)


def _grouped_ts_apply(df: pd.DataFrame, keys: list[str], ts_col: str,
                      cols: list[str], fn) -> np.ndarray:
    """Apply ``fn(ts-indexed sub-frame) -> same-length frame`` per group and
    return values aligned positionally with ``df`` (which is sorted by
    keys+ts, so the per-group concat order equals row order). Only for ops
    without a grouped pandas form: ``groupby().rolling().corr`` pairs every
    column with every other, and ``groupby`` has no time interpolation."""
    sub = df[keys + [ts_col] + cols].set_index(ts_col)
    out = sub.groupby(keys, sort=False, dropna=False, group_keys=False,
                      observed=True)[cols].apply(fn)
    return _aligned(out, df)


def _aligned(out, df: pd.DataFrame, cols: list[str] | None = None) -> np.ndarray:
    """Values of a grouped window result, whose rows come group by group in
    appearance order — the row order of ``df``, because the kernel sorts
    by keys+ts and so every group is contiguous. ``cols`` puts the columns
    back in order: a grouped rolling/ewm ``mean()`` sorts them by name."""
    vals = (out if cols is None else out[cols]).to_numpy()
    assert vals.shape[0] == len(df), "grouped window misaligned"
    return vals


def _by_series(df: pd.DataFrame, keys: list[str], ts_col: str, cols: list[str],
               lag: int = 0):
    """``ts_col`` and ``cols`` (grouped ``shift(lag)`` when ``lag``, so no
    trailing window sees its own row) grouped by a series number — the input
    of the grouped window ops. The number (``ngroup``, appearance order)
    stands in for the keys because ``groupby().rolling/ewm`` drop NaN-key
    series whatever ``dropna`` says."""
    sid = _grouped(df, keys).ngroup().rename(_SID)
    vals = df[cols].groupby(sid, sort=False).shift(lag) if lag else df[cols]
    return pd.concat([sid, df[ts_col], vals], axis=1).groupby(_SID, sort=False)


# ---------------------------------------------------------------------------
# W2 lags  /  W3 differencing  /  W5 pct change
# ---------------------------------------------------------------------------

def op_lag(df, keys, ts_col, features, lags):
    g = _grouped(df, keys)[features]
    for lag in lags:
        names = [f"{f}_lag{lag}" for f in features]
        df[names] = g.shift(lag).astype(float)
    return df


def op_difference(df, keys, ts_col, features, periods=1):
    names = [f"{f}_differenced_{periods}" for f in features]
    df[names] = _grouped(df, keys)[features].diff(periods=periods)
    return df


def op_pct_change(df, keys, ts_col, feature, lag=1, out_name=None):
    out_name = out_name or f"{feature}_pct_change_lag{lag}"
    g = _grouped(df, keys)[feature]
    s = g.shift(lag)
    prev = g.shift(lag + 1)
    with np.errstate(divide="ignore", invalid="ignore"):
        r = (s - prev) / prev
    df[out_name] = r.replace([np.inf, -np.inf], np.nan)
    return df


# ---------------------------------------------------------------------------
# W1 rolling time-window stats (+ momentums / percentages)
# ---------------------------------------------------------------------------

def op_rolling_stats(df, keys, ts_col, features, window, aggregations=None, lag=1,
                     min_periods=1, grouper_name=None, momentums=False,
                     percentages=False):
    aggs = list(aggregations or _DEFAULT_AGGS)
    g = _by_series(df, keys, ts_col, features, lag)
    res = g.rolling(f"{window}D", on=ts_col, min_periods=int(min_periods))[features].agg(aggs)
    names = [stat_name(f, a, window, lag, grouper_name) for f in features for a in aggs]
    df[names] = _aligned(res, df, features)

    if momentums or percentages:
        shifted = g.obj[features]
        with np.errstate(divide="ignore", invalid="ignore"):
            if momentums:
                assert "mean" in aggs
                mean_names = [stat_name(f, "mean", window, lag, grouper_name) for f in features]
                df[[f"{n}_momentum" for n in mean_names]] = (
                    shifted.to_numpy() / df[mean_names].to_numpy()
                )
            if percentages:
                assert "sum" in aggs
                sum_names = [stat_name(f, "sum", window, lag, grouper_name) for f in features]
                df[[f"{n}_perc" for n in sum_names]] = (
                    shifted.to_numpy() / df[sum_names].to_numpy()
                )
    return df


def op_rolling_corr(df, keys, ts_col, feature_x, feature_y, window,
                    min_periods=2, out_name=None):
    """Rolling Pearson correlation between two features per series over a
    ROW-count window (engine extension). ``min_periods`` defaults to 2 —
    matching SQL ``corr`` over a ``ROWS (window-1) PRECEDING`` frame, which
    is NULL on a single row and defined from two."""
    out_name = out_name or f"{feature_x}_{feature_y}_corr{window}"
    mp = max(2, int(min_periods))

    def fn(x: pd.DataFrame) -> pd.DataFrame:
        r = x[feature_x].rolling(int(window), min_periods=mp) \
            .corr(x[feature_y])
        return r.to_frame("__corr")

    vals = _grouped_ts_apply(df, keys, ts_col, [feature_x, feature_y], fn)
    df[out_name] = vals[:, 0]
    return df


# ---------------------------------------------------------------------------
# W4 EWMA (+ crossovers are assembled by the caller from multiple windows)
# ---------------------------------------------------------------------------

def op_ewma(df, keys, ts_col, features, window, lag=1, min_periods=1,
            adjust=True, grouper_name=None):
    res = _by_series(df, keys, ts_col, features, lag)[features] \
        .ewm(span=window, min_periods=int(min_periods), adjust=adjust).mean()
    names = [stat_name(f, "", window, lag, grouper_name, designator="_ewma") for f in features]
    df[names] = _aligned(res, df, features)
    return df


def op_shift_ratio(df, keys, ts_col, features, denom_cols, out_names, lag=1):
    """momentum / percentage columns when the stats were computed at a rollup
    level and joined back: grouped shift(lag) of the base feature divided by
    the joined rolled-up column (feature_engineering.py:400-422)."""
    shifted = _grouped(df, keys)[list(features)].shift(lag)
    with np.errstate(divide="ignore", invalid="ignore"):
        df[list(out_names)] = shifted.to_numpy() / df[list(denom_cols)].to_numpy()
    return df


def op_crossover(df, keys, ts_col, first_cols, second_cols, suffix_window):
    """{c}_cross{w2} = ewma(w1)/ewma(w2), columns aligned pairwise."""
    names = [f"{c}_cross{suffix_window}" for c in first_cols]
    with np.errstate(divide="ignore", invalid="ignore"):
        df[names] = df[first_cols].to_numpy() / df[second_cols].to_numpy()
    return df


# ---------------------------------------------------------------------------
# W6 percent relative to threshold
# ---------------------------------------------------------------------------

_THRESH_OPS = {
    "greater": np.greater,
    "less": np.less,
    "equal": np.equal,
    "not equal": np.not_equal,
}


def op_rolling_threshold(df, keys, ts_col, features, window, lag=1, min_periods=1,
                         threshold=0, operator="greater", grouper_name=None):
    cmp = _THRESH_OPS[operator]
    flags = [f"__thr_{f}" for f in features]
    # NaN counts as "not satisfying" via fillna(threshold) before compare
    # (feature_engineering.py:915-917); flags are real observations, not NaN.
    hits = df[keys + [ts_col]].copy()
    hits[flags] = cmp(df[features].fillna(threshold).to_numpy(), threshold).astype(np.float64)
    res = _by_series(hits, keys, ts_col, flags, lag) \
        .rolling(f"{window}D", on=ts_col, min_periods=int(min_periods))[flags].mean()
    names = [
        stat_name(f, "", window, lag, grouper_name, designator=f"_perc_{operator}{threshold}")
        for f in features
    ]
    df[names] = _aligned(res, df, flags)
    return df


# ---------------------------------------------------------------------------
# W7 days since release
# ---------------------------------------------------------------------------

def op_days_since_release(df, keys, ts_col, target, ignore_leading_zeroes=True,
                          out_name="days_since_release"):
    ts = df[ts_col]
    if ignore_leading_zeroes:
        pos = ts.where(df[target].to_numpy() > 0)  # NaN target → False → masked
        first = _grouped(df.assign(__pos_ts=pos), keys)["__pos_ts"].transform("min")
    else:
        first = _grouped(df, keys)[ts_col].transform("min")
    first = first.fillna(ts)  # group never sold → 0 days (main divergence note:
    # the reference's inner merge drops such groups, feature_engineering.py:83-87)
    df[out_name] = (ts - first).dt.days.astype(int)
    return df


# ---------------------------------------------------------------------------
# W8 gap fill  /  W9 fill missings
# ---------------------------------------------------------------------------

def op_gap_fill(df, keys, ts_col, freq="D", start=None, end=None):
    """Reindex each group to a complete grid at ``freq``.

    ``start``/``end`` None → per-group first/last seen (scale-safe default).
    The reference reindexes every group to the *global* range
    (transform.py:454-465, pinned by its test tests/test_transform.py:8-28);
    pass the global min/max in for that mode — the frame API computes them
    with a per-block min/max.

    One ``reindex`` over the (group, ts) grid of every group, groups in
    appearance order; only a local-range grid is built per group. Each key
    column takes the dtype pandas infers from the groups' key values, as if
    every group's key were broadcast from a scalar (so a categorical key
    comes out as its values' dtype).
    """
    value_cols = [c for c in df.columns if c not in keys and c != ts_col]
    g = _grouped(df, keys)
    gid, n_groups = g.ngroup().to_numpy(), g.ngroups
    if start is not None and end is not None:
        grid = pd.date_range(start, end, freq=freq)
        sizes = np.full(n_groups, len(grid))
        ts = grid[np.tile(np.arange(len(grid)), n_groups)]
    else:
        los = g[ts_col].min() if start is None else [start] * n_groups
        his = g[ts_col].max() if end is None else [end] * n_groups
        grids = [pd.date_range(lo, hi, freq=freq) for lo, hi in zip(los, his)]
        sizes = np.array([len(x) for x in grids], dtype=np.int64)
        ts = grids[0].append(grids[1:])
    rows = pd.MultiIndex.from_arrays([np.repeat(np.arange(n_groups), sizes), ts])
    out = df[value_cols].set_axis(pd.MultiIndex.from_arrays([gid, df[ts_col]])) \
        .reindex(rows).reset_index(drop=True)
    first = np.unique(gid, return_index=True)[1]
    out.insert(0, ts_col, ts)
    for i, k in enumerate(keys):
        out.insert(1 + i, k, pd.Series(df[k].iloc[first].tolist()).repeat(sizes).array)
    return out


def op_fill_missing(df, keys, ts_col, features, method="ffill"):
    g = _grouped(df, keys)[features]
    if method == "ffill":
        df[features] = g.ffill()
    elif method == "bfill":
        df[features] = g.bfill()
    elif method == "interpolate":
        # linear-in-time interpolation inside gaps (north_rule addition; the
        # reference only has ffill/bfill, transform.py:475-500)
        def fn(x: pd.DataFrame) -> pd.DataFrame:
            return x.interpolate(method="time", limit_area="inside")
        df[features] = _grouped_ts_apply(df, keys, ts_col, list(features), fn)
    elif method == "median":
        # per-series median of the OBSERVED values fills every hole —
        # the classic robust imputation (SQL twin: join the per-series
        # median back). Rounded to 6dp so engines agree at the boundary.
        med = g.transform("median")
        for f in features:
            df[f] = df[f].fillna(np.round(med[f], 6))
    else:
        raise ValueError(f"unknown fill method: {method}")
    return df


def op_expanding_stats(df, keys, ts_col, features, aggregations=None):
    """Expanding (from-series-start cumulative) stats per group — the
    unbounded-window sibling of ``op_rolling_stats``. Vectorized via the
    grouped cum-kernels (no ``expanding().agg`` Python fallback):
    mean = cumsum / running count."""
    aggregations = aggregations or ["sum"]
    g = _grouped(df, keys)[features]
    n = (_grouped(df, keys).cumcount() + 1).to_numpy()
    for agg in aggregations:
        names = [f"{f}_expanding_{agg}" for f in features]
        if agg == "sum":
            df[names] = g.cumsum().astype(float)
        elif agg == "mean":
            df[names] = g.cumsum().astype(float).div(n, axis=0)
        elif agg == "min":
            df[names] = g.cummin().astype(float)
        elif agg == "max":
            df[names] = g.cummax().astype(float)
        else:
            raise ValueError(f"unsupported expanding aggregation: {agg}")
    return df


def op_row_number(df, keys, ts_col, out_name="row_number"):
    """1-based position of each row within its (sorted-by-ts) series."""
    df[out_name] = (_grouped(df, keys).cumcount() + 1).astype("int64")
    return df


def op_percent_rank(df, keys, ts_col, feature, out_name=None):
    """SQL ``percent_rank()`` twin: ``(rank-1)/(n-1)`` of ``feature`` within
    its series, rank-with-gaps on ties (pandas ``method='min'`` == SQL
    ``rank()``); a single-row series scores 0. Callers must pre-mask NULLs
    in ``feature`` (SQL null-ordering is not replicated). Rounded to 6dp."""
    out_name = out_name or f"{feature}_pct_rank"
    g = _grouped(df, keys)[feature]
    rank = g.rank(method="min").to_numpy(dtype=np.float64)
    n = g.transform("size").to_numpy(dtype=np.float64)
    df[out_name] = np.round(
        np.where(n > 1, (rank - 1.0) / np.maximum(n - 1.0, 1.0), 0.0), 6)
    return df


def op_sessionize(df, keys, ts_col, gap_seconds, out_name="session_id"):
    """Gap-based sessionization (web-analytics extension; not in the
    reference): a new session starts at a group's first row and whenever the
    time since the previous row in the same group exceeds ``gap_seconds``.
    Session ids are 1-based per group and deterministic because the kernel's
    input is sorted by keys+ts (ties impossible when (keys, ts) is a PK;
    callers with tied timestamps should pre-aggregate to unique stamps).
    Vectorized: one grouped diff + one grouped cumsum, no Python loop."""
    delta = _grouped(df, keys)[ts_col].diff()
    brk = (delta.isna() | (delta > pd.Timedelta(seconds=gap_seconds)))
    df[out_name] = _grouped(df.assign(__brk=brk.astype("int64")),
                            keys)["__brk"].cumsum()
    return df


def op_cyclic_shift(df, keys, ts_col, features, suffix="_perm"):
    """Deterministic within-series permutation for permutation importance
    (pipelines/interpret.py): each row takes the previous row's value and
    the first row of the series takes the last's — a fixed cyclic rotation,
    reproducible on any cluster shape and SQL-expressible
    (``LAG`` + partition-wide ``last_value``)."""
    g = _grouped(df, keys)
    first_mask = g.cumcount() == 0
    for f in features:
        shifted = g[f].shift(1)
        shifted[first_mask] = g[f].transform("last")[first_mask]
        df[f + suffix] = shifted
    return df


def op_rolling_quantile(df, keys, ts_col, feature, window, q,
                        min_periods=1, out_name=None):
    """Trailing ROW-window quantile per series — pandas linear
    interpolation == SQL ``quantile_cont`` over a ``ROWS (window-1)
    PRECEDING`` frame. Rounded to 6dp."""
    out_name = out_name or f"{feature}_p{int(q * 100)}_roll{window}"
    res = _by_series(df, keys, ts_col, [feature])[feature] \
        .rolling(int(window), min_periods=int(min_periods)).quantile(q, interpolation="linear")
    df[out_name] = np.round(_aligned(res, df), 6)
    return df


def op_rate(df, keys, ts_col, feature, per_seconds=3600.0, out_name=None):
    """Irregular-gap rate of change: ``(v − v_prev) / (Δts / per_seconds)``
    — the denominator honors the ACTUAL elapsed time between surviving
    rows (gappy spines), not an assumed fixed step. First row of a series
    emits NaN (SQL NULL). Rounded to 6dp."""
    out_name = out_name or f"{feature}_rate"
    g = _grouped(df, keys)
    dv = g[feature].diff().to_numpy(np.float64)
    dt = g[ts_col].diff().dt.total_seconds().to_numpy() / float(per_seconds)
    with np.errstate(invalid="ignore", divide="ignore"):
        df[out_name] = np.round(dv / dt, 6)
    return df


def op_cusum(df, keys, ts_col, feature, threshold=2.0, out_name=None,
             flag_name=None):
    """Standardized CUSUM changepoint statistic (Page 1954, public): within
    each series, the running sum of deviations from the SERIES mean, scaled
    by the series sample std (ddof=1) — a sustained level shift drifts the
    statistic away from 0. ``|cusum| > threshold`` (compared on the 6dp-
    rounded value so a boundary row cannot flip vs the SQL twin) raises the
    shift flag. Series where the std is undefined (single row) or zero
    (constant) emit NaN cusum and flag 0, matching SQL NULL semantics.
    Vectorized: two grouped transforms + one grouped cumsum."""
    out_name = out_name or f"{feature}_cusum"
    flag_name = flag_name or f"{feature}_shift_flag"
    g = _grouped(df, keys)[feature]
    m = g.transform("mean").to_numpy(np.float64)
    s = g.transform("std").to_numpy(np.float64)  # ddof=1: n==1 -> NaN
    x = df[feature].to_numpy(np.float64)
    csum = _grouped(df.assign(__dev=x - m), keys)["__dev"] \
        .cumsum().to_numpy(np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        # + 0.0 canonicalizes IEEE -0.0 (a mean-centered series' final
        # cumsum is ±ε; the rounded sign must not depend on the engine)
        cu = np.where(np.isnan(s) | (s == 0.0), np.nan,
                      np.round(csum / s, 6) + 0.0)
    df[out_name] = cu
    df[flag_name] = np.where(np.isnan(cu), 0,
                             (np.abs(cu) > threshold)).astype("int64")
    return df


def decompose_components(df, keys, ts_col, feature, ma_window=7):
    """UNROUNDED ``(trend, seasonal)`` arrays of the classical additive
    decomposition behind :func:`op_seasonal_decompose`:

    - ``trend``   = centered ``ma_window``-ROW moving average (partial
      windows at the series edges — SQL ``ROWS BETWEEN k PRECEDING AND k
      FOLLOWING``);
    - ``seasonal`` = per-(series, day-of-week) mean of the detrended value.

    Day-of-week is only a grouping key, so the pandas (Mon=0) vs DuckDB
    (Sun=0) numbering difference is immaterial. Vectorized: one grouped
    centered rolling mean + one grouped transform. ``df`` must be sorted by
    keys+ts (the keyed-kernel contract)."""
    trend = _aligned(_by_series(df, keys, ts_col, [feature])[feature]
                     .rolling(int(ma_window), center=True, min_periods=1).mean(), df)
    v = df[feature].to_numpy(np.float64)
    dow = df[ts_col].dt.dayofweek
    seasonal = _grouped(df.assign(__detr=v - trend, __dow=dow),
                        keys + ["__dow"])["__detr"] \
        .transform("mean").to_numpy(np.float64)
    return trend, seasonal


def op_seasonal_decompose(df, keys, ts_col, feature, ma_window=7):
    """Additive decomposition columns per series (the moving-average method
    behind statsmodels' ``seasonal_decompose``, public): trend / seasonal
    from :func:`decompose_components`, resid = value − trend − seasonal
    computed from the UNROUNDED parts on both engines; all three outputs
    round to 6dp."""
    trend, seasonal = decompose_components(df, keys, ts_col, feature,
                                           ma_window)
    v = df[feature].to_numpy(np.float64)
    df[f"{feature}_trend"] = np.round(trend, 6)
    df[f"{feature}_seasonal"] = np.round(seasonal, 6)
    df[f"{feature}_resid"] = np.round(v - trend - seasonal, 6)
    return df


def op_ntile(df, keys, ts_col, n_tiles, out_name="ntile"):
    """SQL ``ntile(k)`` twin in ts order: each series' rows split into ``k``
    ordered groups whose sizes differ by at most 1 — the first ``n mod k``
    tiles take the extra row, exactly the SQL fill rule. 1-based int64.
    Vectorized: cumcount + transform size + closed-form tile index."""
    k = int(n_tiles)
    g = _grouped(df, keys)
    pos = g.cumcount().to_numpy()
    n = g[ts_col].transform("size").to_numpy()
    base, extra = n // k, n % k
    big_span = extra * (base + 1)  # rows covered by the (base+1)-sized tiles
    in_big = pos < big_span
    tile = np.where(
        in_big,
        pos // np.maximum(base + 1, 1),
        extra + (pos - big_span) // np.maximum(base, 1))
    df[out_name] = (tile + 1).astype("int64")
    return df


def op_cume_dist(df, keys, ts_col, feature, out_name=None):
    """SQL ``cume_dist()`` twin over ``feature`` within each series: the
    fraction of rows with value <= the current row's (ties share the max
    rank). Rounded to 6dp."""
    out_name = out_name or f"{feature}_cume_dist"
    g = _grouped(df, keys)[feature]
    rank_max = g.rank(method="max").to_numpy(np.float64)
    n = g.transform("size").to_numpy(np.float64)
    df[out_name] = np.round(rank_max / n, 6)
    return df


def _register_all(register_op):
    register_op("lag")(op_lag)
    register_op("cyclic_shift")(op_cyclic_shift)
    register_op("difference")(op_difference)
    register_op("pct_change")(op_pct_change)
    register_op("rolling_stats")(op_rolling_stats)
    register_op("ewma")(op_ewma)
    register_op("shift_ratio")(op_shift_ratio)
    register_op("crossover")(op_crossover)
    register_op("rolling_threshold")(op_rolling_threshold)
    register_op("days_since_release")(op_days_since_release)
    register_op("gap_fill")(op_gap_fill)
    register_op("fill_missing")(op_fill_missing)
    register_op("sessionize")(op_sessionize)
    register_op("expanding_stats")(op_expanding_stats)
    register_op("row_number")(op_row_number)
    register_op("rolling_corr")(op_rolling_corr)
    register_op("percent_rank")(op_percent_rank)
    register_op("rate")(op_rate)
    register_op("rolling_quantile")(op_rolling_quantile)
    register_op("lttb")(op_lttb)
    register_op("ntile")(op_ntile)
    register_op("cume_dist")(op_cume_dist)
    register_op("cusum")(op_cusum)
    register_op("seasonal_decompose")(op_seasonal_decompose)


def op_lttb(df, keys, ts_col, feature, n_out, out_name="selected"):
    """Largest-Triangle-Three-Buckets downsampling (Steinarsson 2013,
    public) per series: keep ``n_out`` points that best preserve the
    series' visual shape — endpoints always kept, interior buckets each
    contribute the point maximizing the triangle area with the PREVIOUS
    SELECTED point and the next bucket's centroid (a sequential selection
    chain — deliberately not SQL-expressible; pinned by pytest against a
    reference implementation instead of a DuckDB twin).

    Appends a 0/1 ``out_name`` marker column (callers filter) so the op
    fuses into the keyed stage without changing row count. Series with
    ≤ n_out rows keep every point. The per-bucket area computation is
    vectorized; the Python loop is over the n_out−2 buckets only."""
    n_out = int(n_out)
    marks = np.zeros(len(df), dtype=np.int64)
    ts_us = df[ts_col].astype("datetime64[us]").astype("int64").to_numpy()
    vs = df[feature].to_numpy(np.float64)
    start = 0
    for _, g in df.groupby(keys, sort=False, observed=True):
        n = len(g)
        sl = slice(start, start + n)
        x, y = ts_us[sl].astype(np.float64), vs[sl]
        if n <= n_out:
            marks[sl] = 1
            start += n
            continue
        sel = [0]
        # n_out-2 interior buckets over points 1..n-2
        edges = np.linspace(1, n - 1, n_out - 1).astype(np.int64)
        for b in range(n_out - 2):
            lo, hi = edges[b], edges[b + 1]
            if b + 2 <= n_out - 2:
                nlo, nhi = edges[b + 1], edges[b + 2]
            else:
                nlo, nhi = n - 1, n
            ax, ay = x[sel[-1]], y[sel[-1]]
            cx, cy = x[nlo:nhi].mean(), y[nlo:nhi].mean()
            bx, by = x[lo:hi], y[lo:hi]
            area = np.abs((ax - cx) * (by - ay) - (ax - bx) * (cy - ay))
            sel.append(lo + int(np.argmax(area)))
        sel.append(n - 1)
        marks[np.asarray(sel) + start] = 1
        start += n
    df[out_name] = marks
    return df
