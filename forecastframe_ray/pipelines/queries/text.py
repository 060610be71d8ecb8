"""Oracled query catalog — part ``text`` (contiguous split of the former queries.py monolith; order preserved)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

import ray.data

from forecastframe_ray.stages.agg import hash_aggregate, hash_count

from forecastframe_ray.frame import RayForecastFrame
from forecastframe_ray.functions import encoding, metrics, scalers
from forecastframe_ray.pipelines import dedup, rollup, similarity, textstats
from forecastframe_ray.stages import gorilla
from forecastframe_ray.stages.join import broadcast_semi_join
from forecastframe_ray.pipelines.queries.spine import (  # noqa: F401
    DAY_US,
    HOUR_US,
    NULLF,
    SQL_LANG_ID,
    _DAILY_SQL,
    _HOURLY_SQL,
    _NP,
    _bucket_series,
    _daily_frame,
    _fill,
    _read,
    _round,
)
from forecastframe_ray.pipelines.queries import entry



# ---------------------------------------------------------------------------
# JSON property extraction (functions/scalar.extract_json_int)
# ---------------------------------------------------------------------------

@entry("json_props_events", sql=lambda: SQL_JSON_PROPS_EVENTS)
def q_json_props_events(sf_dir: str) -> pd.DataFrame:
    """Extract the integer ``k`` field from the JSON props bag (vectorized
    regex — no per-row parse) and profile it per event type."""
    from forecastframe_ray.functions.scalar import extract_json_int
    from forecastframe_ray.stages.agg import hash_aggregate

    ev = _read(sf_dir, "events", ["event_type", "props"])
    ext = extract_json_int(ev, "props", "k")

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["k"] = b["k"].astype("float64")  # NA -> NaN, skipna aggs below
        return b[["event_type", "k"]]

    out = hash_aggregate(ext.map_batches(pre, batch_format="pandas"),
                         ["event_type"],
                         {"n_k": ("k", "count"), "sum_k": ("k", "sum"),
                          "mean_k": ("k", "mean")},
                         num_partitions=8).to_pandas()
    out["n_k"] = out["n_k"].astype("int64")
    out["sum_k"] = out["sum_k"].astype("int64")
    out = _round(out, ["mean_k"], 6)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_JSON_PROPS_EVENTS = """
    SELECT event_type,
           count(k) AS n_k,
           CAST(sum(k) AS BIGINT) AS sum_k,
           round(avg(k), 6) AS mean_k
    FROM (SELECT event_type,
                 CAST(json_extract(props, '$.k') AS BIGINT) AS k
          FROM events)
    GROUP BY 1
"""


# ---------------------------------------------------------------------------
# per-label embedding centroids (pipelines/similarity.label_centroids)
# ---------------------------------------------------------------------------

@entry("label_centroids_embeddings", sql=lambda: SQL_LABEL_CENTROIDS)
def q_label_centroids_embeddings(sf_dir: str) -> pd.DataFrame:
    """Per-label centroid vectors in long form (label, dim, n, centroid)."""
    from forecastframe_ray.pipelines.similarity import label_centroids

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    out = label_centroids(emb).to_pandas()
    out = out.astype({"label": "int64", "dim": "int64", "n": "int64"})
    return out.sort_values(["label", "dim"]).reset_index(drop=True)


SQL_LABEL_CENTROIDS = """
    SELECT label, CAST(i AS BIGINT) AS dim,
           CAST(count(*) AS BIGINT) AS n, round(avg(v), 6) AS centroid
    FROM (
      SELECT label, unnest(embedding) AS v,
             generate_subscripts(embedding, 1) AS i
      FROM embeddings
    )
    GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# CUSUM changepoint statistic per series (stages/window_ops.op_cusum)
# ---------------------------------------------------------------------------

@entry("cusum_daily_events", sql=lambda: SQL_CUSUM_DAILY)
def q_cusum_daily_events(sf_dir: str) -> pd.DataFrame:
    """Standardized CUSUM level-shift statistic on the daily spine: running
    sum of deviations from the series mean scaled by the series sample std,
    with a |cusum| > 2 shift flag (compared on the 6dp-rounded value on both
    engines). Degenerate series (single row / zero std) emit the NULLF
    sentinel and flag 0."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    daily = _bucket_series(sf_dir, DAY_US, "d")
    out = keyed_window_stage(
        daily, ["event_type"], "d",
        [{"op": "cusum", "feature": "v", "threshold": 2.0}],
        num_partitions=_NP)
    df = out.to_pandas()[["event_type", "d", "v", "v_cusum", "v_shift_flag"]]
    df = _fill(df, ["v_cusum"])
    return df.sort_values(["event_type", "d"],
                          kind="mergesort").reset_index(drop=True)


SQL_CUSUM_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    stats AS (
        SELECT event_type, avg(v) AS m, stddev_samp(v) AS s
        FROM daily GROUP BY 1
    ),
    c AS (
        SELECT d.event_type, d.d, d.v,
               CASE WHEN st.s IS NULL OR st.s = 0 THEN NULL
                    ELSE round(sum(d.v - st.m) OVER (
                             PARTITION BY d.event_type ORDER BY d.d
                             ROWS UNBOUNDED PRECEDING) / st.s, 6) + 0.0
               END AS v_cusum
        FROM daily d JOIN stats st USING (event_type)
    )
    SELECT event_type, d, v,
           COALESCE(v_cusum, {NULLF}) AS v_cusum,
           CAST(COALESCE(abs(v_cusum) > 2.0, FALSE) AS BIGINT)
               AS v_shift_flag
    FROM c
"""


# ---------------------------------------------------------------------------
# additive seasonal decomposition (stages/window_ops.op_seasonal_decompose)
# ---------------------------------------------------------------------------

@entry("seasonal_decompose_daily", sql=lambda: SQL_SEASONAL_DECOMPOSE_DAILY)
def q_seasonal_decompose_daily(sf_dir: str) -> pd.DataFrame:
    """Classical additive decomposition per series: trend = centered 7-ROW
    moving average (partial edges), seasonal = per-(series, weekday) mean of
    the detrended value, resid = v - trend - seasonal (resid computed from
    UNROUNDED parts on both engines; all outputs 6dp)."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    daily = _bucket_series(sf_dir, DAY_US, "d")
    out = keyed_window_stage(
        daily, ["event_type"], "d",
        [{"op": "seasonal_decompose", "feature": "v", "ma_window": 7}],
        num_partitions=_NP)
    df = out.to_pandas()[["event_type", "d", "v", "v_trend", "v_seasonal",
                          "v_resid"]]
    return df.sort_values(["event_type", "d"],
                          kind="mergesort").reset_index(drop=True)


SQL_SEASONAL_DECOMPOSE_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    t AS (
        SELECT event_type, d, v,
               avg(v) OVER (PARTITION BY event_type ORDER BY d
                            ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)
                   AS trend
        FROM daily
    ),
    s AS (
        SELECT event_type, d, v, trend,
               avg(v - trend) OVER (PARTITION BY event_type, dayofweek(d))
                   AS seasonal
        FROM t
    )
    SELECT event_type, d, v,
           round(trend, 6) AS v_trend,
           round(seasonal, 6) AS v_seasonal,
           round(v - trend - seasonal, 6) AS v_resid
    FROM s
"""


# ---------------------------------------------------------------------------
# per-series autocorrelation (distributed raw-moment reduce over lag pairs)
# ---------------------------------------------------------------------------

def _lag_corr_table(sf_dir: str, lags: tuple[int, ...]) -> pd.DataFrame:
    """Per-series pairwise lag-k autocorrelations (the ``corr(v, LAG(v,k))``
    estimator): one keyed lag attach, vectorized per-batch product moments,
    and a tiny per-series sum aggregate — the driver only ever sees one row
    per series. Returns columns event_type, n{k}, r{k} (r NaN for <2 pairs
    or zero variance). Shared by the ACF and PACF queries so the estimator
    can never drift between them."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    daily = _bucket_series(sf_dir, DAY_US, "d")
    lagged = keyed_window_stage(
        daily, ["event_type"], "d",
        [{"op": "lag", "features": ["v"], "lags": list(lags)}],
        num_partitions=_NP)

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        out = {"event_type": b["event_type"]}
        x = b["v"].to_numpy(np.float64)
        for k in lags:
            y = b[f"v_lag{k}"].to_numpy(np.float64)
            ok = ~np.isnan(y)
            xx = np.where(ok, x, 0.0)
            yy = np.where(ok, y, 0.0)
            out[f"n{k}"] = ok.astype(np.int64)
            out[f"sx{k}"], out[f"sy{k}"] = xx, yy
            out[f"sxy{k}"] = xx * yy
            out[f"sxx{k}"], out[f"syy{k}"] = xx * xx, yy * yy
        return pd.DataFrame(out)

    spec = {c: (c, "sum")
            for k in lags
            for c in (f"n{k}", f"sx{k}", f"sy{k}",
                      f"sxy{k}", f"sxx{k}", f"syy{k}")}
    agg = hash_aggregate(lagged.map_batches(moments, batch_format="pandas"),
                         ["event_type"], spec, num_partitions=_NP)
    df = agg.to_pandas()
    res = {"event_type": df["event_type"]}
    for k in lags:
        n = df[f"n{k}"].to_numpy(np.float64)
        sx, sy = df[f"sx{k}"].to_numpy(np.float64), \
            df[f"sy{k}"].to_numpy(np.float64)
        cov = n * df[f"sxy{k}"].to_numpy(np.float64) - sx * sy
        den = ((n * df[f"sxx{k}"].to_numpy(np.float64) - sx * sx)
               * (n * df[f"syy{k}"].to_numpy(np.float64) - sy * sy))
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where((n >= 2) & (den > 0),
                         cov / np.sqrt(np.maximum(den, 1e-300)), np.nan)
        res[f"n{k}"] = df[f"n{k}"].astype("int64")
        res[f"r{k}"] = r
    return pd.DataFrame(res)


@entry("holt_forecast_gate_daily", sql=lambda: SQL_HOLT_FORECAST_GATE)
def q_holt_forecast_gate_daily(sf_dir: str) -> pd.DataFrame:
    """Holt double-exponential-smoothing forecast, oracle-GATED through the
    degenerate closed form: at α=β=1 the recursion collapses to
    l_T = y_T, b_T = y_T − y_{T−1}, so ŷ(T+h) = y_T + h·(y_T − y_{T−1}) —
    exactly SQL-expressible. The gate exercises the full machinery (the
    key-co-located sequential fit kernel, per-series state extraction, the
    future-grid scorer) while the general-(α,β) recursion is pinned by
    pytest against a direct numpy reference."""
    fr = _daily_frame(sf_dir)
    preds = fr.predict(periods=7, freq="D", estimator="holt",
                       alpha=1.0, beta=1.0)
    df = preds.to_pandas()[["event_type", "d", "predicted_v"]]
    df = _round(df, ["predicted_v"], 6)
    return df.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_HOLT_FORECAST_GATE = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d DESC)
                   AS rn
        FROM daily
    ),
    s AS (
        SELECT event_type,
               max(CASE WHEN rn = 1 THEN v END) AS y_last,
               max(CASE WHEN rn = 2 THEN v END) AS y_prev,
               max(CASE WHEN rn = 1 THEN d END) AS d_last
        FROM r GROUP BY 1
    ),
    f AS (  -- engine future grid extends from the GLOBAL max date
        SELECT s.event_type, s.y_last, s.y_prev, s.d_last, fd.d
        FROM s CROSS JOIN (
            SELECT unnest(generate_series(maxd + INTERVAL 1 DAY,
                                          maxd + INTERVAL 7 DAY,
                                          INTERVAL 1 DAY)) AS d
            FROM (SELECT max(d) AS maxd FROM daily)
        ) fd
    )
    SELECT event_type, d,
           round(y_last + datediff('day', d_last, d)
                 * (y_last - COALESCE(y_prev, y_last)), 6) AS predicted_v
    FROM f
"""


@entry("smape_wape_naive_daily", sql=lambda: SQL_SMAPE_WAPE_NAIVE)
def q_smape_wape_naive_daily(sf_dir: str) -> pd.DataFrame:
    """Scale-robust error metrics of the lag-1 naive forecast per daily
    series: SMAPE (M-competition convention, 0 when |y|+|ŷ|=0), WAPE, and
    signed mean error — ``metrics.scaled_error_summary`` over a keyed lag
    attach; the oracle recomputes all three in SQL."""
    from forecastframe_ray.functions.metrics import scaled_error_summary
    from forecastframe_ray.stages.keyed import keyed_window_stage

    daily = _bucket_series(sf_dir, DAY_US, "d")
    lagged = keyed_window_stage(
        daily, ["event_type"], "d",
        [{"op": "lag", "features": ["v"], "lags": [1]}],
        num_partitions=_NP)
    out = scaled_error_summary(lagged, "v", "v_lag1",
                               group_cols=["event_type"])
    out["n"] = out["n"].astype("int64")
    out = _round(out, ["SMAPE", "WAPE", "ME"], 6)
    return out[["event_type", "n", "SMAPE", "WAPE", "ME"]] \
        .sort_values("event_type").reset_index(drop=True)


SQL_SMAPE_WAPE_NAIVE = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, v, LAG(v, 1) OVER (
            PARTITION BY event_type ORDER BY d) AS p
        FROM daily
    ),
    e AS (SELECT * FROM l WHERE p IS NOT NULL)
    SELECT event_type, CAST(count(*) AS BIGINT) AS n,
           round(avg(CASE WHEN abs(v) + abs(p) = 0 THEN 0.0
                          ELSE 2.0 * abs(v - p) / (abs(v) + abs(p)) END), 6)
               AS SMAPE,
           round(sum(abs(v - p)) / sum(abs(v)), 6) AS WAPE,
           round(sum(p - v) / count(*), 6) AS ME
    FROM e GROUP BY 1
"""


@entry("croston_gate_daily", sql=lambda: SQL_CROSTON_GATE)
def q_croston_gate_daily(sf_dir: str) -> pd.DataFrame:
    """Croston intermittent-demand forecast, oracle-GATED through the α=1
    closed form (ẑ = last nonzero size, p̂ = last inter-demand interval,
    forecast = ẑ/p̂). The intermittent series is a deterministic mask of
    the daily series (demand only on Mon/Thu/Sat), applied identically on
    both sides; the gate exercises the sequential per-series kernel, the
    interval bookkeeping, and the rate scorer, while general α is
    pytest-pinned against a direct numpy recursion."""
    from forecastframe_ray.pipelines.search import fit_croston, score_croston

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def mask(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        dow = b["d"].dt.dayofweek.to_numpy()
        b["v"] = np.where(np.isin(dow, (0, 3, 5)),
                          b["v"].to_numpy(np.float64), 0.0)
        return b

    masked = daily.map_batches(mask, batch_format="pandas").materialize()
    state = fit_croston(masked, ["event_type"], "d", "v", alpha=1.0)
    one = masked.map_batches(
        lambda b: b.drop_duplicates("event_type")[["event_type", "d"]],
        batch_format="pandas")
    scored = score_croston(one, state, ["event_type"], "d", "v",
                           "croston_forecast").to_pandas()
    out = scored.drop_duplicates("event_type")[
        ["event_type", "croston_forecast"]]
    out = _round(out, ["croston_forecast"], 6)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_CROSTON_GATE = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (
        SELECT event_type, d,
               CASE WHEN (isodow(d) - 1) IN (0, 3, 5) THEN v ELSE 0 END AS v
        FROM daily
    ),
    start AS (SELECT event_type, min(d) AS d0 FROM m GROUP BY 1),
    nz AS (
        SELECT event_type, d, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d DESC)
                   AS rn
        FROM m WHERE v <> 0
    ),
    lastnz AS (
        SELECT event_type,
               max(CASE WHEN rn = 1 THEN v END) AS q_last,
               max(CASE WHEN rn = 1 THEN d END) AS t1,
               max(CASE WHEN rn = 2 THEN d END) AS t2
        FROM nz GROUP BY 1
    )
    SELECT s.event_type,
           COALESCE(round(l.q_last / CASE
               WHEN l.t2 IS NOT NULL THEN datediff('day', l.t2, l.t1)
               ELSE datediff('day', s.d0, l.t1) + 1 END, 6), 0.0)
               AS croston_forecast
    FROM start s LEFT JOIN lastnz l USING (event_type)
"""


@entry("pushdown_filter_events", sql=lambda: SQL_PUSHDOWN_FILTER)
def q_pushdown_filter_events(sf_dir: str) -> pd.DataFrame:
    """S1 pushdown read: both the column list AND the row predicate
    (ts ≥ median-ish cutoff AND event_type = 'view') are handed to the
    parquet scan itself (``io.load_table`` → pyarrow dataset expression),
    so footer statistics prune row groups before bytes move — no
    post-read filter stage exists in this plan. Aggregate proves the
    surviving rows are exactly the SQL WHERE set."""
    import pyarrow as pa
    import pyarrow.compute as pc

    from forecastframe_ray.io import load_table

    cut = pd.Timestamp("2024-01-15")
    ev = load_table(
        f"{sf_dir}/events.parquet", columns=["event_type", "ts", "value"],
        filter_expr=(pc.field("ts") >= pa.scalar(cut))
        & (pc.field("event_type") == "view"))
    out = hash_aggregate(ev, ["event_type"], {
        "n": ("ts", "size"), "sum_value": ("value", "sum"),
        "min_ts": ("ts", "min"),
    }, num_partitions=4).to_pandas()
    out["n"] = out["n"].astype("int64")
    out = _round(out, ["sum_value"], 4)
    out["min_ts"] = out["min_ts"].astype("datetime64[us]")
    return out[["event_type", "n", "sum_value", "min_ts"]] \
        .sort_values("event_type").reset_index(drop=True)


SQL_PUSHDOWN_FILTER = """
    SELECT event_type, CAST(count(*) AS BIGINT) AS n,
           round(sum(value), 4) AS sum_value, min(ts) AS min_ts
    FROM events
    WHERE ts >= TIMESTAMP '2024-01-15' AND event_type = 'view'
    GROUP BY 1
"""


@entry("spearman_daily_events", sql=lambda: SQL_SPEARMAN_DAILY)
def q_spearman_daily_events(sf_dir: str) -> pd.DataFrame:
    """Grouped Spearman rank correlation between each daily series and its
    own 7-day lag — the outlier-robust monotone-association diagnostic
    (Pearson on average ranks; ties get the mean of their rank range,
    pandas ``rank(method='average')`` ≡ SQL ``RANK() + (tie_count-1)/2``).
    Ranks need every row of a series co-resident, so the plan is the
    key-co-located partition kernel (``keyed_map_partitions``) with a fully
    vectorized in-partition kernel: groupby-transform ranks, then the
    per-series correlation from sum aggregates — one shuffle total, the
    driver sees one row per series."""
    from forecastframe_ray.stages.agg import keyed_map_partitions
    from forecastframe_ray.stages.keyed import keyed_window_stage

    daily = _bucket_series(sf_dir, DAY_US, "d")
    lagged = keyed_window_stage(
        daily, ["event_type"], "d",
        [{"op": "lag", "features": ["v"], "lags": [7]}],
        num_partitions=_NP)
    pairs = lagged.map_batches(
        lambda b: b.loc[b["v_lag7"].notna(),
                        ["event_type", "v", "v_lag7"]],
        batch_format="pandas")

    def rho(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("event_type", sort=False)
        rx = g["v"].rank(method="average").to_numpy(np.float64)
        ry = g["v_lag7"].rank(method="average").to_numpy(np.float64)
        t = pd.DataFrame({"event_type": part["event_type"].to_numpy(),
                          "n": np.ones(len(part), dtype=np.int64),
                          "sx": rx, "sy": ry, "sxy": rx * ry,
                          "sxx": rx * rx, "syy": ry * ry})
        s = t.groupby("event_type", sort=False, observed=True).sum() \
            .reset_index()
        n = s["n"].to_numpy(np.float64)
        sx, sy = s["sx"].to_numpy(), s["sy"].to_numpy()
        cov = n * s["sxy"].to_numpy() - sx * sy
        den = ((n * s["sxx"].to_numpy() - sx * sx)
               * (n * s["syy"].to_numpy() - sy * sy))
        with np.errstate(invalid="ignore", divide="ignore"):
            r = np.where((n >= 2) & (den > 0),
                         cov / np.sqrt(np.maximum(den, 1e-300)), np.nan)
        return pd.DataFrame({"event_type": s["event_type"],
                             "n": s["n"].astype("int64"),
                             "spearman": np.round(r, 6)})

    out = keyed_map_partitions(pairs, ["event_type"], rho,
                               num_partitions=_NP).to_pandas()
    out = _fill(out, ["spearman"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_SPEARMAN_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v, LAG(v, 7) OVER w AS v7
        FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
    ),
    e AS (SELECT * FROM l WHERE v7 IS NOT NULL),
    rk AS (
        SELECT event_type,
               RANK() OVER (PARTITION BY event_type ORDER BY v)
                   + (COUNT(*) OVER (PARTITION BY event_type, v) - 1) / 2.0
                   AS rx,
               RANK() OVER (PARTITION BY event_type ORDER BY v7)
                   + (COUNT(*) OVER (PARTITION BY event_type, v7) - 1) / 2.0
                   AS ry
        FROM e
    )
    SELECT event_type, CAST(count(*) AS BIGINT) AS n,
           COALESCE(round(corr(rx, ry), 6), {NULLF}) AS spearman
    FROM rk GROUP BY 1
"""


@entry("mann_kendall_daily_events", sql=lambda: SQL_MANN_KENDALL_DAILY)
def q_mann_kendall_daily_events(sf_dir: str) -> pd.DataFrame:
    """Mann-Kendall trend statistic per daily series: S = Σ_{i<j}
    sign(vⱼ − vᵢ) ordered by date, plus tau-a = S / (n(n−1)/2) — the
    standard nonparametric monotone-trend test for monitoring pipelines
    (public; Mann 1945 / Kendall). A series' rows are co-located by the
    keyed partition kernel; the in-kernel pair sweep is one vectorized
    sign-matrix per series (n≲few hundred daily points — the pair count
    grows with series LENGTH, not corpus size, so the kernel is scale-safe
    under the engine's fixed-length-series model). Oracle: per-series
    self-join on d_i < d_j."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def mk(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            s = int(np.sign(v[None, :] - v[:, None])
                    [np.triu_indices(n, 1)].sum()) if n >= 2 else 0
            npairs = n * (n - 1) // 2
            rows.append((et, n, s,
                         np.round(s / npairs, 6) if npairs else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "n", "s", "tau"])

    out = keyed_map_partitions(daily, ["event_type"], mk,
                               num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    out["s"] = out["s"].astype("int64")
    out = _fill(out, ["tau"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_MANN_KENDALL_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    pairs AS (
        SELECT a.event_type, sign(b.v - a.v) AS sg
        FROM daily a JOIN daily b
          ON a.event_type = b.event_type AND a.d < b.d
    ),
    agg AS (
        SELECT event_type, CAST(sum(sg) AS BIGINT) AS s,
               CAST(count(*) AS BIGINT) AS npairs
        FROM pairs GROUP BY 1
    ),
    nn AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n
           FROM daily GROUP BY 1)
    SELECT nn.event_type, nn.n, COALESCE(agg.s, 0) AS s,
           COALESCE(round(agg.s / (nn.n * (nn.n - 1) / 2.0), 6), {NULLF})
               AS tau
    FROM nn LEFT JOIN agg USING (event_type)
"""


@entry("acf_daily_events", sql=lambda: SQL_ACF_DAILY)
def q_acf_daily_events(sf_dir: str) -> pd.DataFrame:
    """Lag-1/lag-2 autocorrelation per daily series (estimator and plan:
    :func:`_lag_corr_table`). Matches SQL ``corr(v, LAG(v, k))`` (NULL for
    <2 pairs or zero variance -> NULLF)."""
    df = _lag_corr_table(sf_dir, (1, 2))
    out = pd.DataFrame({"event_type": df["event_type"],
                        "n1": df["n1"], "acf1": np.round(df["r1"], 6),
                        "n2": df["n2"], "acf2": np.round(df["r2"], 6)})
    out = _fill(out, ["acf1", "acf2"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_ACF_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               LAG(v, 1) OVER w AS v1, LAG(v, 2) OVER w AS v2
        FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
    )
    SELECT event_type,
           CAST(count(v1) AS BIGINT) AS n1,
           COALESCE(round(corr(v, v1), 6), {NULLF}) AS acf1,
           CAST(count(v2) AS BIGINT) AS n2,
           COALESCE(round(corr(v, v2), 6), {NULLF}) AS acf2
    FROM l GROUP BY 1
"""


@entry("pacf_daily_events", sql=lambda: SQL_PACF_DAILY)
def q_pacf_daily_events(sf_dir: str) -> pd.DataFrame:
    """Partial autocorrelation (lags 1-3) per daily series via the
    Durbin-Levinson recursion over the lag-k autocorrelations — the
    standard AR-order diagnostic the reference's forecasting workflow
    reads next to the ACF. rₖ uses the same pairwise ``corr(v, LAG(v,k))``
    estimator as ``acf_daily_events`` (documented variant; both sides
    identical), the distributed part is one keyed lag attach + a tiny
    per-series sum aggregate, and the three-level recursion is closed-form
    driver algebra reproduced term-for-term in SQL:

        φ₁₁ = r₁;  φ₂₂ = (r₂−r₁²)/(1−r₁²);  φ₂₁ = r₁(1−φ₂₂);
        φ₃₃ = (r₃ − φ₂₁r₂ − φ₂₂r₁) / (1 − φ₂₁r₁ − φ₂₂r₂).

    Degenerate denominators (|r₁| = 1, e.g. a 3-point series) yield NaN →
    NULLF, matching DuckDB where x/0 is NULL (an unguarded divide would
    emit inf, which ``_fill``/fillna keeps)."""
    df = _lag_corr_table(sf_dir, (1, 2, 3))
    r = {k: df[f"r{k}"].to_numpy(np.float64) for k in (1, 2, 3)}

    def safe_div(num: np.ndarray, den: np.ndarray) -> np.ndarray:
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(den == 0.0, np.nan,
                            num / np.where(den == 0.0, 1.0, den))

    p11 = r[1]
    p22 = safe_div(r[2] - r[1] * r[1], 1.0 - r[1] * r[1])
    p21 = r[1] * (1.0 - p22)
    p33 = safe_div(r[3] - p21 * r[2] - p22 * r[1],
                   1.0 - p21 * r[1] - p22 * r[2])
    out = pd.DataFrame({"event_type": df["event_type"],
                        "pacf1": np.round(p11, 6),
                        "pacf2": np.round(p22, 6),
                        "pacf3": np.round(p33, 6)})
    out = _fill(out, ["pacf1", "pacf2", "pacf3"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_PACF_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               LAG(v, 1) OVER w AS v1, LAG(v, 2) OVER w AS v2,
               LAG(v, 3) OVER w AS v3
        FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
    ),
    r AS (
        SELECT event_type, corr(v, v1) AS r1, corr(v, v2) AS r2,
               corr(v, v3) AS r3
        FROM l GROUP BY 1
    ),
    lvl2 AS (
        SELECT *, (r2 - r1 * r1) / (1.0 - r1 * r1) AS p22 FROM r
    ),
    lvl3 AS (
        SELECT *, r1 * (1.0 - p22) AS p21 FROM lvl2
    )
    SELECT event_type,
           COALESCE(round(r1, 6), {NULLF}) AS pacf1,
           COALESCE(round(p22, 6), {NULLF}) AS pacf2,
           COALESCE(round((r3 - p21 * r2 - p22 * r1)
                          / (1.0 - p21 * r1 - p22 * r2), 6), {NULLF}) AS pacf3
    FROM lvl3
"""


@entry("periodogram_daily_events", sql=lambda: SQL_PERIODOGRAM_DAILY)
def q_periodogram_daily_events(sf_dir: str) -> pd.DataFrame:
    """Single-frequency periodogram power at the weekly and ~monthly
    periods per daily series — the spectral seasonality-strength diagnostic
    (Schuster periodogram, power = (C² + S²)/n over mean-centered values
    with C = Σv·cos − v̄Σcos). The angle uses ``(epoch_day mod P)`` so the
    engine and SQL evaluate cos/sin at identical SMALL arguments (no
    large-argument libm range-reduction divergence). One stateless
    vectorized partials pass + a per-series sum aggregate; the driver sees
    one row per series."""
    ev = _bucket_series(sf_dir, DAY_US, "d")
    periods = (7, 30)

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        out = {"event_type": b["event_type"]}
        v = b["v"].to_numpy(np.float64)
        dn = (b["d"].astype("datetime64[us]").astype("int64")
              // DAY_US).to_numpy()
        out["n"] = np.ones(len(b), dtype=np.int64)
        out["sv"] = v
        for p in periods:
            ang = 2.0 * np.pi * (dn % p) / p
            c, s = np.cos(ang), np.sin(ang)
            out[f"svc{p}"], out[f"svs{p}"] = v * c, v * s
            out[f"sc{p}"], out[f"ss{p}"] = c, s
        return pd.DataFrame(out)

    spec = {"n": ("n", "sum"), "sv": ("sv", "sum")}
    for p in periods:
        spec.update({f"svc{p}": (f"svc{p}", "sum"),
                     f"svs{p}": (f"svs{p}", "sum"),
                     f"sc{p}": (f"sc{p}", "sum"),
                     f"ss{p}": (f"ss{p}", "sum")})
    df = hash_aggregate(ev.map_batches(partials, batch_format="pandas"),
                        ["event_type"], spec,
                        num_partitions=_NP).to_pandas()
    n = df["n"].to_numpy(np.float64)
    vbar = df["sv"].to_numpy(np.float64) / n
    out = {"event_type": df["event_type"],
           "n": df["n"].astype("int64")}
    for p in periods:
        C = df[f"svc{p}"].to_numpy(np.float64) - vbar * df[f"sc{p}"].to_numpy(np.float64)
        S = df[f"svs{p}"].to_numpy(np.float64) - vbar * df[f"ss{p}"].to_numpy(np.float64)
        out[f"power{p}"] = np.round((C * C + S * S) / n, 2)
    return pd.DataFrame(out)[["event_type", "n", "power7", "power30"]] \
        .sort_values("event_type").reset_index(drop=True)


SQL_PERIODOGRAM_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    t AS (
        SELECT event_type, v, epoch_us(d) // {DAY_US} AS dn FROM daily
    ),
    s AS (
        SELECT event_type, CAST(count(*) AS DOUBLE) AS n, sum(v) AS sv,
               sum(v * cos(2 * pi() * (((dn % 7) + 7) % 7) / 7)) AS svc7,
               sum(v * sin(2 * pi() * (((dn % 7) + 7) % 7) / 7)) AS svs7,
               sum(cos(2 * pi() * (((dn % 7) + 7) % 7) / 7)) AS sc7,
               sum(sin(2 * pi() * (((dn % 7) + 7) % 7) / 7)) AS ss7,
               sum(v * cos(2 * pi() * (((dn % 30) + 30) % 30) / 30)) AS svc30,
               sum(v * sin(2 * pi() * (((dn % 30) + 30) % 30) / 30)) AS svs30,
               sum(cos(2 * pi() * (((dn % 30) + 30) % 30) / 30)) AS sc30,
               sum(sin(2 * pi() * (((dn % 30) + 30) % 30) / 30)) AS ss30
        FROM t GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n,
           round(((svc7 - sv / n * sc7) * (svc7 - sv / n * sc7)
                  + (svs7 - sv / n * ss7) * (svs7 - sv / n * ss7)) / n, 2)
               AS power7,
           round(((svc30 - sv / n * sc30) * (svc30 - sv / n * sc30)
                  + (svs30 - sv / n * ss30) * (svs30 - sv / n * ss30)) / n, 2)
               AS power30
    FROM s
"""


# ---------------------------------------------------------------------------
# shingle containment pairs (pipelines/dedup.ngram_containment)
# ---------------------------------------------------------------------------

@entry("containment_pairs_documents", sql=lambda: SQL_CONTAINMENT_PAIRS)
def q_containment_pairs_documents(sf_dir: str) -> pd.DataFrame:
    """Broder containment |A∩B| / min(|A|,|B|) for the fixed (2i, 2i+1)
    pair list — catches excerpt/superset duplicates whose symmetric Jaccard
    is low. Engine compares distinct shingle hashes, oracle the substrings
    themselves (equal barring a 2^-64 collision)."""
    from forecastframe_ray.pipelines.dedup import ngram_containment
    from forecastframe_ray.stages.agg import bucketed_map_groups

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def pair_up(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["pair_id"] = b["doc_id"] // 2
        return b[["pair_id", "doc_id", "text"]]

    def cont(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("doc_id")
        if len(g) != 2:
            return pd.DataFrame({"pair_id": [], "containment": []})
        c = ngram_containment(g["text"].iloc[0] or "",
                              g["text"].iloc[1] or "", width=5)
        return pd.DataFrame({"pair_id": [int(g["pair_id"].iloc[0])],
                             "containment": [c]})

    pairs = bucketed_map_groups(
        docs.map_batches(pair_up, batch_format="pandas"),
        ["pair_id"], cont, num_partitions=8)
    out = pairs.to_pandas()
    out["pair_id"] = out["pair_id"].astype("int64")
    # containment = k / min(|A|,|B|) can land EXACTLY on a decimal half
    # (e.g. 65/128 = .5078125): match DuckDB's round-half-away-from-zero,
    # not numpy's banker's rounding (values are >= 0 so floor(x*1e6+0.5))
    c = out["containment"].to_numpy(np.float64)
    out["containment"] = np.floor(c * 1e6 + 0.5) / 1e6
    return out[["pair_id", "containment"]]


SQL_CONTAINMENT_PAIRS = """
    WITH sh AS (
        SELECT doc_id // 2 AS pair_id, doc_id,
               list_distinct(list_transform(
                   generate_series(1, greatest(strlen(text) - 4, 1)),
                   i -> substr(text, i, 5))) AS s
        FROM documents
    ),
    p AS (
        SELECT a.pair_id, a.s AS sa, b.s AS sb
        FROM sh a JOIN sh b
            ON a.pair_id = b.pair_id AND a.doc_id < b.doc_id
    )
    SELECT pair_id,
           round(CAST(length(list_intersect(sa, sb)) AS DOUBLE)
                 / least(length(sa), length(sb)), 6) AS containment
    FROM p
"""


# ---------------------------------------------------------------------------
# trend / seasonal strength (Hyndman FPP3 §4.4, from the decomposition)
# ---------------------------------------------------------------------------

@entry("decomposition_strength_daily", sql=lambda: SQL_DECOMP_STRENGTH)
def q_decomposition_strength_daily(sf_dir: str) -> pd.DataFrame:
    """Per-series trend strength ``max(0, 1 − Var(R)/Var(T+R))`` and
    seasonal strength ``max(0, 1 − Var(R)/Var(S+R))`` (Hyndman & Athana-
    sopoulos FPP3, public) from the additive decomposition — components
    UNROUNDED on both engines, var is sample variance, degenerate series
    (n<2 or zero variance) emit NULLF."""
    from forecastframe_ray.stages.agg import bucketed_map_groups

    daily = _bucket_series(sf_dir, DAY_US, "d")

    from forecastframe_ray.stages.window_ops import decompose_components

    def strength(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("d", kind="mergesort").reset_index(drop=True)
        v = g["v"].to_numpy(np.float64)
        trend, seasonal = decompose_components(g, ["event_type"], "d", "v")
        detr = v - trend
        resid = v - trend - seasonal
        n = len(v)

        def f(parent: np.ndarray) -> float:
            if n < 2:
                return NULLF
            vr = float(np.var(resid, ddof=1))
            vp = float(np.var(parent, ddof=1))
            if vp == 0.0:
                return NULLF
            return np.round(max(0.0, 1.0 - vr / vp), 6)

        return pd.DataFrame({
            "event_type": [g["event_type"].iloc[0]],
            "n": [np.int64(n)],
            "trend_strength": [f(v - seasonal)],
            "seasonal_strength": [f(detr)],
        })

    out = bucketed_map_groups(daily, ["event_type"], strength,
                              num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DECOMP_STRENGTH = f"""
    WITH daily AS ({_DAILY_SQL}),
    t AS (
        SELECT event_type, d, v,
               avg(v) OVER (PARTITION BY event_type ORDER BY d
                            ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)
                   AS trend
        FROM daily
    ),
    s AS (
        SELECT event_type, d, v, trend,
               avg(v - trend) OVER (PARTITION BY event_type, dayofweek(d))
                   AS seasonal
        FROM t
    ),
    r AS (
        SELECT event_type,
               v - trend - seasonal AS resid,
               v - seasonal AS deseason,
               v - trend AS detr
        FROM s
    )
    SELECT event_type, CAST(count(*) AS BIGINT) AS n,
           COALESCE(CASE WHEN var_samp(deseason) = 0 THEN NULL
                ELSE round(greatest(0.0,
                     1.0 - var_samp(resid) / var_samp(deseason)), 6)
           END, {NULLF}) AS trend_strength,
           COALESCE(CASE WHEN var_samp(detr) = 0 THEN NULL
                ELSE round(greatest(0.0,
                     1.0 - var_samp(resid) / var_samp(detr)), 6)
           END, {NULLF}) AS seasonal_strength
    FROM r GROUP BY 1
"""


# ---------------------------------------------------------------------------
# CDC compaction: latest row per key (stages/agg.compact_latest)
# ---------------------------------------------------------------------------

@entry("latest_order_per_customer", sql=lambda: SQL_LATEST_ORDER)
def q_latest_order_per_customer(sf_dir: str) -> pd.DataFrame:
    """Keep each customer's most recent order (date desc, orderkey desc
    tie-break) — streaming combiner + one coarse-hash exchange, full rows
    ride along."""
    from forecastframe_ray.stages.agg import compact_latest

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate", "o_totalprice"])
    out = compact_latest(orders, ["o_custkey"],
                         ["o_orderdate", "o_orderkey"],
                         num_partitions=_NP).to_pandas()
    out = out[["o_custkey", "o_orderkey", "o_orderdate", "o_totalprice"]]
    return out.sort_values("o_custkey").reset_index(drop=True)


SQL_LATEST_ORDER = """
    SELECT o_custkey, o_orderkey, o_orderdate, o_totalprice
    FROM (
        SELECT o_custkey, o_orderkey, o_orderdate, o_totalprice,
               row_number() OVER (PARTITION BY o_custkey
                                  ORDER BY o_orderdate DESC,
                                           o_orderkey DESC) AS rn
        FROM orders
    ) WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# GROUPING SETS rollup (pipelines/rollup.grouping_sets_rollup)
# ---------------------------------------------------------------------------

@entry("grouping_sets_daily_events", sql=lambda: SQL_GROUPING_SETS_DAILY)
def q_grouping_sets_daily_events(sf_dir: str) -> pd.DataFrame:
    """GROUPING SETS ((event_type, day), (event_type), (day), ()) via the
    partial cascade — one input scan, coarser sets re-aggregate partials.
    Sentinels '_ALL_' / 1900-01-01 stand in for SQL's NULL grouping keys."""
    from forecastframe_ray.pipelines.rollup import grouping_sets_rollup

    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def floor_day(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        return pd.DataFrame({
            "event_type": b["event_type"],
            "d": pd.to_datetime((us // DAY_US) * DAY_US, unit="us"),
            "value": b["value"],
        })

    sets = grouping_sets_rollup(
        ev.map_batches(floor_day, batch_format="pandas"),
        "event_type", "d", "value", num_partitions=_NP)
    SENT_D = pd.Timestamp("1900-01-01")
    ab = sets["ab"].to_pandas()
    a = sets["a"].to_pandas().assign(d=SENT_D)
    b = sets["b"].to_pandas().assign(event_type="_ALL_")
    tot = sets["total"].to_pandas()
    if len(tot) == 0:  # SQL GROUPING SETS always emits the () row
        tot = pd.DataFrame({"n": [np.int64(0)], "sum_v": [NULLF]})
    tot = tot.assign(event_type="_ALL_", d=SENT_D)
    out = pd.concat([ab, a, b, tot], ignore_index=True)
    out = out[["event_type", "d", "n", "sum_v"]]
    out["n"] = out["n"].astype("int64")
    out = _round(out, ["sum_v"], 6)
    return out.sort_values(["event_type", "d"],
                           kind="mergesort").reset_index(drop=True)


SQL_GROUPING_SETS_DAILY = """
    SELECT COALESCE(event_type, '_ALL_') AS event_type,
           COALESCE(d, TIMESTAMP '1900-01-01') AS d,
           CAST(count(*) AS BIGINT) AS n,
           COALESCE(round(sum(value), 6), -999.0) AS sum_v
    FROM (SELECT event_type, date_trunc('day', ts) AS d, value FROM events)
    GROUP BY GROUPING SETS ((event_type, d), (event_type), (d), ())
"""


# ---------------------------------------------------------------------------
# BM25 keyword search (pipelines/tfidf.bm25_scores)
# ---------------------------------------------------------------------------

_BM25_TERMS = ["spark", "join", "window"]


@entry("bm25_search_documents", sql=lambda: SQL_BM25_SEARCH)
def q_bm25_search_documents(sf_dir: str) -> pd.DataFrame:
    """Okapi BM25 (k1=1.2, b=0.75, Lucene idf) for the fixed query
    {spark, join, window}: every matching document with its score — the
    match set is deterministic, so no top-k tie ambiguity."""
    from forecastframe_ray.pipelines.tfidf import bm25_scores

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = bm25_scores(docs, _BM25_TERMS, num_partitions=_NP).to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out[["doc_id", "bm25"]].sort_values("doc_id") \
        .reset_index(drop=True)


SQL_BM25_SEARCH = r"""
    WITH toks AS (
        SELECT doc_id,
               list_filter(string_split_regex(text, '\s+'), x -> x <> '')
                   AS t
        FROM documents
    ),
    dl AS (SELECT doc_id, len(t) AS dl FROM toks),
    stats AS (SELECT count(*) AS n, avg(dl) AS avgdl FROM dl),
    tf AS (
        SELECT doc_id, x AS term, count(*) AS tf
        FROM (SELECT doc_id, unnest(t) AS x FROM toks)
        WHERE x IN ('spark', 'join', 'window')
        GROUP BY 1, 2
    ),
    df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1)
    SELECT tf.doc_id,
           round(sum(
               ln(1 + (stats.n - df.df + 0.5) / (df.df + 0.5))
               * tf.tf * 2.2
               / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl))
           ), 6) AS bm25
    FROM tf JOIN df USING (term) JOIN dl USING (doc_id) CROSS JOIN stats
    GROUP BY 1
"""


# ---------------------------------------------------------------------------
# per-user behavioral entropy (hierarchical aggregate, vectorized kernel)
# ---------------------------------------------------------------------------

@entry("user_entropy_events", sql=lambda: SQL_USER_ENTROPY)
def q_user_entropy_events(sf_dir: str) -> pd.DataFrame:
    """Shannon entropy (nats) of each user's event-type mix: counts reduce
    in one combiner'd aggregate; the per-user −Σ p·ln p finishes in a
    vectorized per-partition kernel (two grouped transforms, no per-user
    Python loop)."""
    from forecastframe_ray.stages.agg import hash_aggregate, keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    counts = hash_aggregate(ev, ["user_id", "event_type"],
                            {"n": ("event_type", "size")},
                            num_partitions=_NP)

    def entropy(part: pd.DataFrame) -> pd.DataFrame:
        n = part["n"].to_numpy(np.float64)
        g = part.groupby("user_id", sort=False)
        tot = g["n"].transform("sum").to_numpy(np.float64)
        p = n / tot
        terms = pd.DataFrame({"user_id": part["user_id"],
                              "__t": -p * np.log(p), "__n": part["n"]})
        out = terms.groupby("user_id", sort=False).agg(
            n_events=("__n", "sum"), entropy=("__t", "sum")).reset_index()
        out["n_events"] = out["n_events"].astype("int64")
        out["entropy"] = np.round(out["entropy"].to_numpy(np.float64), 6) + 0.0
        return out

    out = keyed_map_partitions(counts, ["user_id"], entropy, _NP)
    df = out.to_pandas().astype({"user_id": "int64"})
    return df.sort_values("user_id").reset_index(drop=True)


SQL_USER_ENTROPY = """
    WITH c AS (
        SELECT user_id, event_type, CAST(count(*) AS DOUBLE) AS n
        FROM events GROUP BY 1, 2
    ),
    t AS (SELECT user_id, sum(n) AS tot FROM c GROUP BY 1)
    SELECT c.user_id, CAST(sum(c.n) AS BIGINT) AS n_events,
           round(-sum((c.n / t.tot) * ln(c.n / t.tot)), 6) + 0.0 AS entropy
    FROM c JOIN t USING (user_id)
    GROUP BY 1
"""


# ---------------------------------------------------------------------------
# distributed fixed-width histogram (map-side binning + combiner'd counts)
# ---------------------------------------------------------------------------

@entry("value_histogram_events", sql=lambda: SQL_VALUE_HISTOGRAM)
def q_value_histogram_events(sf_dir: str) -> pd.DataFrame:
    """Fixed-width (50-unit) value histogram per event type — binning is a
    stateless vectorized map; counts combine per batch before the one tiny
    shuffle."""
    from forecastframe_ray.stages.agg import hash_aggregate

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def binify(bt: pd.DataFrame) -> pd.DataFrame:
        bt = bt[["event_type"]].assign(
            bin=np.floor(bt["value"].to_numpy(np.float64) / 50.0)
            .astype(np.int64))
        return bt

    out = hash_aggregate(ev.map_batches(binify, batch_format="pandas"),
                         ["event_type", "bin"], {"n": ("bin", "size")},
                         num_partitions=_NP).to_pandas()
    out = out.astype({"bin": "int64", "n": "int64"})
    return out.sort_values(["event_type", "bin"]).reset_index(drop=True)


SQL_VALUE_HISTOGRAM = """
    SELECT event_type, CAST(floor(value / 50.0) AS BIGINT) AS bin,
           CAST(count(*) AS BIGINT) AS n
    FROM events GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# OHLC bars (pipelines/rollup.ohlc_aggregate)
# ---------------------------------------------------------------------------

@entry("ohlc_daily_events", sql=lambda: SQL_OHLC_DAILY)
def q_ohlc_daily_events(sf_dir: str) -> pd.DataFrame:
    """Daily open/high/low/close bars per event type over the unique-stamp
    series (values summed at identical timestamps first, so the arg-min/max
    open/close rows are unambiguous on both engines)."""
    from forecastframe_ray.pipelines.rollup import ohlc_aggregate

    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])
    uniq = hash_aggregate(ev, ["event_type", "ts"],
                          {"v": ("value", "sum")}, num_partitions=_NP)

    def round_v(b: pd.DataFrame) -> pd.DataFrame:
        b["v"] = np.round(b["v"].to_numpy(np.float64), 6)
        return b

    out = ohlc_aggregate(uniq.map_batches(round_v, batch_format="pandas"),
                         ["event_type"], "ts", "v", DAY_US,
                         num_partitions=_NP).to_pandas()
    out["d"] = pd.to_datetime(out["bucket_us"], unit="us")
    out = out[["event_type", "d", "open", "high", "low", "close", "n"]]
    out = _round(out, ["open", "high", "low", "close"], 6)
    return out.sort_values(["event_type", "d"],
                           kind="mergesort").reset_index(drop=True)


SQL_OHLC_DAILY = """
    WITH s AS (
        SELECT event_type, ts, round(sum(value), 6) AS v
        FROM events GROUP BY 1, 2
    )
    SELECT event_type, date_trunc('day', ts) AS d,
           round(arg_min(v, ts), 6) AS open,
           round(max(v), 6) AS high,
           round(min(v), 6) AS low,
           round(arg_max(v, ts), 6) AS close,
           CAST(count(*) AS BIGINT) AS n
    FROM s GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# irregular-gap rate of change (keyed stage; per-hour units)
# ---------------------------------------------------------------------------

@entry("rate_hourly_events", sql=lambda: SQL_RATE_HOURLY)
def q_rate_hourly_events(sf_dir: str) -> pd.DataFrame:
    """Per-series rate of change on the (gappy) hourly spine:
    ``(v − v_prev) / hours elapsed`` — the denominator honors the ACTUAL
    gap between surviving buckets, the crawl-rate derivative for
    irregularly-sampled series. First row of a series -> NULLF."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    hourly = _bucket_series(sf_dir, HOUR_US, "h")
    out = keyed_window_stage(
        hourly, ["event_type"], "h",
        [{"op": "rate", "feature": "v", "per_seconds": 3600.0,
          "out_name": "rate"}],
        num_partitions=_NP)
    df = out.to_pandas()[["event_type", "h", "v", "rate"]]
    df = _fill(df, ["rate"])
    return df.sort_values(["event_type", "h"],
                          kind="mergesort").reset_index(drop=True)


SQL_RATE_HOURLY = f"""
    WITH hourly AS ({_HOURLY_SQL})
    SELECT event_type, h, v,
           COALESCE(round((v - LAG(v) OVER w)
               / (epoch(h - LAG(h) OVER w) / 3600.0), 6), {NULLF}) AS rate
    FROM hourly WINDOW w AS (PARTITION BY event_type ORDER BY h)
"""


# ---------------------------------------------------------------------------
# TPC-H Q3-style shipping priority (semi-join + hash join + topk)
# ---------------------------------------------------------------------------

_Q3_CUT = "1998-01-01"


@entry("shipping_priority", sql=lambda: SQL_SHIPPING_PRIORITY)
def q_shipping_priority(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q3 shape (public spec): BUILDING-segment customers' orders
    placed before the cutoff, revenue from lineitems shipped after it, top
    10 orders by revenue. Segment keys broadcast as a semi-join filter;
    the big-big orders⋈lineitem edge is the CPU-clamped distributed hash
    join; top-k is a per-batch partial + tiny driver merge (never a global
    sort). Round-then-rank (revenue 6dp desc, orderkey asc) keeps the
    cutoff deterministic across engines."""
    from forecastframe_ray.stages.join import (broadcast_semi_join,
                                               consolidate_for_join,
                                               hash_join)

    cut = pd.Timestamp(_Q3_CUT)
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_mktsegment"]).to_pandas()
    keys = cust.loc[cust["c_mktsegment"] == "BUILDING", ["c_custkey"]] \
        .rename(columns={"c_custkey": "o_custkey"})

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_orderpriority"])
    orders = orders.map_batches(
        lambda b: b[b["o_orderdate"] < cut], batch_format="pandas")
    orders = broadcast_semi_join(orders, keys, ["o_custkey"]) \
        .drop_columns(["o_custkey"])
    # mapped filtered stream -> join input: see consolidate_for_join (the
    # A/B stall measurement in its docstring was taken on THIS query)
    orders = consolidate_for_join(orders, 8)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount", "l_shipdate"])

    def rev(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_shipdate"] > cut]
        return pd.DataFrame({
            "o_orderkey": b["l_orderkey"],
            "part": b["l_extendedprice"].to_numpy(np.float64)
                    * (1.0 - b["l_discount"].to_numpy(np.float64)),
        })

    joined = hash_join(li.map_batches(rev, batch_format="pandas"), orders,
                       on=["o_orderkey"], num_partitions=8)
    agg = hash_aggregate(joined,
                         ["o_orderkey", "o_orderdate", "o_orderpriority"],
                         {"revenue": ("part", "sum")}, num_partitions=_NP)

    def local_top(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["revenue"] = np.round(b["revenue"].to_numpy(np.float64), 6)
        return b.sort_values(["revenue", "o_orderkey"],
                             ascending=[False, True]).head(10)

    out = agg.map_batches(local_top, batch_format="pandas").to_pandas()
    out = out.sort_values(["revenue", "o_orderkey"],
                          ascending=[False, True]).head(10)
    out = out[["o_orderkey", "o_orderdate", "o_orderpriority", "revenue"]]
    return out.reset_index(drop=True)


SQL_SHIPPING_PRIORITY = f"""
    SELECT o_orderkey, o_orderdate, o_orderpriority,
           round(sum(l_extendedprice * (1 - l_discount)), 6) AS revenue
    FROM customer
    JOIN orders ON c_custkey = o_custkey
    JOIN lineitem ON o_orderkey = l_orderkey
    WHERE c_mktsegment = 'BUILDING'
      AND o_orderdate < TIMESTAMP '{_Q3_CUT}'
      AND l_shipdate > TIMESTAMP '{_Q3_CUT}'
    GROUP BY 1, 2, 3
    ORDER BY revenue DESC, o_orderkey
    LIMIT 10
"""


# ---------------------------------------------------------------------------
# cohort retention (web-analytics: first-seen day × activity offset)
# ---------------------------------------------------------------------------

@entry("cohort_retention_events", sql=lambda: SQL_COHORT_RETENTION)
def q_cohort_retention_events(sf_dir: str) -> pd.DataFrame:
    """Classic cohort table: users bucketed by first-active day; for each
    (cohort, day-offset) the distinct active users. JOIN-FREE plan: one
    key-co-located partition kernel (``keyed_map_partitions`` on user_id)
    computes each user's cohort AND offsets in-group (vectorized
    ``groupby().transform('min')`` across the whole partition), replacing
    the former distinct-aggregate + cohort-aggregate + hash-join chain —
    three exchanges become two, and the stall-prone join operator leaves
    the plan entirely (measured 23 s → ~6 s at sf0.1, identical output).
    Per-batch (user, day) pre-dedup bounds the shuffle bytes."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def to_day(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        return pd.DataFrame({
            "user_id": b["user_id"],
            "dn": (us // DAY_US).to_numpy(),
        }).drop_duplicates()  # partial dedup: bounds shuffle bytes

    days = ev.map_batches(to_day, batch_format="pandas")

    def per_user(part: pd.DataFrame) -> pd.DataFrame:
        part = part.drop_duplicates()  # finish the (user, day) distinct
        cohort_dn = part.groupby("user_id", sort=False)["dn"] \
            .transform("min")
        return pd.DataFrame({
            "cohort_dn": cohort_dn.to_numpy(),
            "offset_days": (part["dn"] - cohort_dn).to_numpy(np.int64),
            "one": np.ones(len(part), dtype=np.int64),
        })

    rows = keyed_map_partitions(days, ["user_id"], per_user,
                                num_partitions=_NP)
    out = hash_aggregate(rows, ["cohort_dn", "offset_days"],
                         {"n_users": ("one", "sum")},
                         num_partitions=_NP).to_pandas()
    out["cohort"] = pd.to_datetime(out["cohort_dn"] * DAY_US, unit="us")
    out = out.astype({"offset_days": "int64", "n_users": "int64"})
    return out[["cohort", "offset_days", "n_users"]] \
        .sort_values(["cohort", "offset_days"]).reset_index(drop=True)


SQL_COHORT_RETENTION = """
    WITH d AS (
        SELECT DISTINCT user_id, date_trunc('day', ts) AS d FROM events
    ),
    f AS (SELECT user_id, min(d) AS cohort FROM d GROUP BY 1)
    SELECT f.cohort,
           CAST(date_diff('day', f.cohort, d.d) AS BIGINT) AS offset_days,
           CAST(count(*) AS BIGINT) AS n_users
    FROM d JOIN f USING (user_id)
    GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# MASE: seasonal-naive forecast, scaled error (Hyndman & Koehler 2006)
# ---------------------------------------------------------------------------

@entry("mase_daily_events", sql=lambda: SQL_MASE_DAILY)
def q_mase_daily_events(sf_dir: str) -> pd.DataFrame:
    """Mean Absolute Scaled Error of the ROW-lag-7 seasonal-naive forecast
    per daily series: MAE over forecastable rows divided by the in-sample
    lag-1 naive MAE (the Hyndman & Koehler 2006 scale, public). Per-series
    sums reduce distributed (ACF pattern); NULLF when no forecastable rows
    or a zero scale."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    daily = _bucket_series(sf_dir, DAY_US, "d")
    lagged = keyed_window_stage(
        daily, ["event_type"], "d",
        [{"op": "lag", "features": ["v"], "lags": [1, 7]}],
        num_partitions=_NP)

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        v = b["v"].to_numpy(np.float64)
        l1 = b["v_lag1"].to_numpy(np.float64)
        l7 = b["v_lag7"].to_numpy(np.float64)
        ok1, ok7 = ~np.isnan(l1), ~np.isnan(l7)
        return pd.DataFrame({
            "event_type": b["event_type"],
            "n7": ok7.astype(np.int64),
            "ae7": np.where(ok7, np.abs(v - l7), 0.0),
            "n1": ok1.astype(np.int64),
            "ae1": np.where(ok1, np.abs(v - l1), 0.0),
        })

    agg = hash_aggregate(
        lagged.map_batches(moments, batch_format="pandas"), ["event_type"],
        {c: (c, "sum") for c in ("n7", "ae7", "n1", "ae1")},
        num_partitions=_NP)
    df = agg.to_pandas()
    n7 = df["n7"].to_numpy(np.float64)
    n1 = df["n1"].to_numpy(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        mae7 = df["ae7"].to_numpy(np.float64) / n7
        scale = df["ae1"].to_numpy(np.float64) / n1
        mase = np.where((n7 > 0) & (n1 > 0) & (scale > 0), mae7 / scale,
                        np.nan)
    out = pd.DataFrame({
        "event_type": df["event_type"],
        "n_forecast": df["n7"].astype("int64"),
        "mase": np.round(mase, 6),
    })
    out = _fill(out, ["mase"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_MASE_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, v,
               LAG(v, 1) OVER w AS l1, LAG(v, 7) OVER w AS l7
        FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
    ),
    s AS (
        SELECT event_type,
               CAST(count(l7) AS BIGINT) AS n_forecast,
               sum(abs(v - l7)) / count(l7) AS mae7,
               sum(abs(v - l1)) / count(l1) AS scale
        FROM l GROUP BY 1
    )
    SELECT event_type, n_forecast,
           COALESCE(CASE WHEN n_forecast > 0 AND scale > 0
                         THEN round(mae7 / scale, 6) END, {NULLF}) AS mase
    FROM s
"""


# ---------------------------------------------------------------------------
# conversion funnel (view → purchase within 7 days)
# ---------------------------------------------------------------------------

@entry("funnel_conversion_events", sql=lambda: SQL_FUNNEL_CONVERSION)
def q_funnel_conversion_events(sf_dir: str) -> pd.DataFrame:
    """Classic conversion funnel: users whose FIRST 'view' is followed by a
    'purchase' within 7 days. First-touch reduce + distributed user join;
    the driver only ever sees two counters."""
    from forecastframe_ray.stages.join import hash_join

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def views(b: pd.DataFrame) -> pd.DataFrame:
        return b.loc[b["event_type"] == "view", ["user_id", "ts"]]

    def purchases(b: pd.DataFrame) -> pd.DataFrame:
        b = b.loc[b["event_type"] == "purchase", ["user_id", "ts"]]
        return b.rename(columns={"ts": "p_ts"})

    first_view = hash_aggregate(
        ev.map_batches(views, batch_format="pandas"), ["user_id"],
        {"t0": ("ts", "min")}, num_partitions=_NP) \
        .repartition(4).materialize()
    n_started = first_view.count()

    joined = hash_join(
        ev.map_batches(purchases, batch_format="pandas").repartition(4)
          .materialize(),
        first_view, on=["user_id"], num_partitions=8)

    def in_window(b: pd.DataFrame) -> pd.DataFrame:
        m = (b["p_ts"] > b["t0"]) & \
            (b["p_ts"] <= b["t0"] + pd.Timedelta(days=7))
        return b.loc[m, ["user_id"]].drop_duplicates()

    conv = hash_aggregate(
        joined.map_batches(in_window, batch_format="pandas"), ["user_id"],
        {"one": ("user_id", "size")}, num_partitions=_NP)
    n_converted = conv.count()
    rate = np.round(n_converted / n_started, 6) if n_started else NULLF
    return pd.DataFrame({"n_started": [np.int64(n_started)],
                         "n_converted": [np.int64(n_converted)],
                         "conv_rate": [rate]})


SQL_FUNNEL_CONVERSION = """
    WITH v AS (
        SELECT user_id, min(ts) AS t0 FROM events
        WHERE event_type = 'view' GROUP BY 1
    ),
    c AS (
        SELECT DISTINCT v.user_id
        FROM v JOIN events e ON e.user_id = v.user_id
        WHERE e.event_type = 'purchase'
          AND e.ts > v.t0 AND e.ts <= v.t0 + INTERVAL 7 DAY
    )
    SELECT CAST((SELECT count(*) FROM v) AS BIGINT) AS n_started,
           CAST((SELECT count(*) FROM c) AS BIGINT) AS n_converted,
           COALESCE(round(CAST((SELECT count(*) FROM c) AS DOUBLE)
                 / (SELECT count(*) FROM v), 6), -999.0) AS conv_rate
"""


# ---------------------------------------------------------------------------
# event-type transition counts (first-order Markov over user streams)
# ---------------------------------------------------------------------------

@entry("transition_counts_events", sql=lambda: SQL_TRANSITION_COUNTS)
def q_transition_counts_events(sf_dir: str) -> pd.DataFrame:
    """(prev → next) event-type transition matrix over per-user streams
    ordered by ts ((user_id, ts) is unique in this corpus, so the order is
    total): pairs form inside a partition-id shuffle kernel (whole user
    streams per partition, vectorized grouped shift), counts pre-reduce in
    the kernel before one tiny merge aggregate."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["user_id", "ts"], kind="mergesort")
        nxt = part.groupby("user_id", sort=False)["event_type"].shift(-1)
        ok = nxt.notna()
        sub = pd.DataFrame({"prev_type": part["event_type"][ok],
                            "next_type": nxt[ok]})
        out = (sub.groupby(["prev_type", "next_type"], sort=False)
               .size().reset_index(name="n"))
        out["n"] = out["n"].astype("int64")
        return out

    partial = keyed_map_partitions(ev, ["user_id"], pairs, _NP)
    out = hash_aggregate(partial, ["prev_type", "next_type"],
                         {"n": ("n", "sum")}, num_partitions=4).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["prev_type", "next_type"]).reset_index(drop=True)


SQL_TRANSITION_COUNTS = """
    WITH l AS (
        SELECT event_type,
               LEAD(event_type) OVER (PARTITION BY user_id ORDER BY ts)
                   AS nxt
        FROM events
    )
    SELECT event_type AS prev_type, nxt AS next_type,
           CAST(count(*) AS BIGINT) AS n
    FROM l WHERE nxt IS NOT NULL GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# exact per-group percentiles (bucketed kernel; quantile_cont semantics)
# ---------------------------------------------------------------------------

@entry("value_percentiles_events", sql=lambda: SQL_VALUE_PERCENTILES)
def q_value_percentiles_events(sf_dir: str) -> pd.DataFrame:
    """Exact p50/p90/p99 of value per event type via the range-partition
    order-statistic plan (``interpret.grouped_quantiles``): ONE distributed
    sort + split_at_indices pluck — per-group volume never has to fit one
    task's heap, the true 100 TB path (the mergeable sketch gate is the
    approximate alternative)."""
    from forecastframe_ray.pipelines.interpret import (grouped_moments,
                                                        grouped_quantiles)

    ev = _read(sf_dir, "events", ["event_type", "value"])
    counts = grouped_moments(ev, ["event_type"], "value")[["event_type",
                                                           "n"]]
    out = grouped_quantiles(ev, ["event_type"], "value",
                            qs=(0.5, 0.9, 0.99), counts=counts)
    out = out.rename(columns={"q50": "p50", "q90": "p90", "q99": "p99"})
    out = out.merge(counts, on="event_type")
    for c in ("p50", "p90", "p99"):
        out[c] = np.round(out[c].to_numpy(np.float64), 6)
    out["n"] = out["n"].astype("int64")
    out = out[["event_type", "n", "p50", "p90", "p99"]]
    return out.sort_values("event_type").reset_index(drop=True)


SQL_VALUE_PERCENTILES = """
    SELECT event_type, CAST(count(*) AS BIGINT) AS n,
           round(quantile_cont(value, 0.50), 6) AS p50,
           round(quantile_cont(value, 0.90), 6) AS p90,
           round(quantile_cont(value, 0.99), 6) AS p99
    FROM events GROUP BY 1
"""


# ---------------------------------------------------------------------------
# S1 JSONL source/sink roundtrip
# ---------------------------------------------------------------------------

@entry("jsonl_roundtrip_events", sql=lambda: SQL_JSONL_ROUNDTRIP)
def q_jsonl_roundtrip_events(sf_dir: str) -> pd.DataFrame:
    """S1 JSON-lines sink+source: events (value pre-rounded to 6dp so the
    decimal text round-trips the double exactly) written via
    ``Dataset.write_json`` and read back with ``ray.data.read_json``, then
    aggregated distributed — pins the third source format next to parquet
    and CSV."""
    import shutil

    path = "/tmp/ffray_events_jsonl"
    shutil.rmtree(path, ignore_errors=True)
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        b["value"] = np.round(b["value"].to_numpy(np.float64), 6)
        return b

    ev.map_batches(pre, batch_format="pandas").write_json(path)
    ds = ray.data.read_json(path)
    agg = hash_aggregate(ds, ["event_type"], {
        "n": ("value", "size"), "sum_v": ("value", "sum"),
    }, num_partitions=4).to_pandas()
    agg["n"] = agg["n"].astype("int64")
    return _round(agg, ["sum_v"], 6)[["event_type", "n", "sum_v"]] \
        .sort_values("event_type").reset_index(drop=True)


SQL_JSONL_ROUNDTRIP = """
    SELECT event_type, CAST(count(*) AS BIGINT) AS n,
           round(sum(round(value, 6)), 6) AS sum_v
    FROM events GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Theil–Sen robust trend (median of pairwise slopes) per series
# ---------------------------------------------------------------------------

@entry("theilsen_daily_events", sql=lambda: SQL_THEILSEN_DAILY)
def q_theilsen_daily_events(sf_dir: str) -> pd.DataFrame:
    """Theil–Sen estimator per daily series (public: Theil 1950 / Sen 1968):
    slope = median of all pairwise slopes over integer day numbers,
    intercept = median residual at that slope. The bucketed kernel holds one
    series per call and vectorizes the O(n²) pair sweep (n = series days —
    bounded by retention; unbounded series belong on the OLS path
    ``predict_linear_daily``)."""
    from forecastframe_ray.stages.agg import bucketed_map_groups

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def ts_fit(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values("d", kind="mergesort")
        # day numbers via explicit µs cast — pandas datetimes here are [ns]
        x = (g["d"].astype("datetime64[us]").astype("int64").to_numpy()
             // DAY_US).astype(np.float64)
        v = g["v"].to_numpy(np.float64)
        n = len(v)
        if n < 2:
            return pd.DataFrame({"event_type": [g["event_type"].iloc[0]],
                                 "n": [np.int64(n)], "slope": [NULLF],
                                 "intercept": [NULLF]})
        i, j = np.triu_indices(n, 1)
        slopes = (v[j] - v[i]) / (x[j] - x[i])
        slope = np.median(slopes)
        intercept = np.median(v - slope * x)
        return pd.DataFrame({"event_type": [g["event_type"].iloc[0]],
                             "n": [np.int64(n)],
                             "slope": [np.round(slope, 6)],
                             "intercept": [np.round(intercept, 6)]})

    out = bucketed_map_groups(daily, ["event_type"], ts_fit,
                              num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_THEILSEN_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    pts AS (
        SELECT event_type, epoch_us(d) // {DAY_US} AS x, v FROM daily
    ),
    sl AS (
        SELECT a.event_type,
               median((b.v - a.v) / (b.x - a.x)) AS slope
        FROM pts a JOIN pts b
            ON a.event_type = b.event_type AND a.x < b.x
        GROUP BY 1
    ),
    ic AS (
        SELECT p.event_type, median(p.v - sl.slope * p.x) AS intercept
        FROM pts p JOIN sl USING (event_type) GROUP BY 1
    ),
    nn AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n FROM pts
           GROUP BY 1)
    SELECT nn.event_type, nn.n,
           COALESCE(round(sl.slope, 6), {NULLF}) AS slope,
           COALESCE(round(ic.intercept, 6), {NULLF}) AS intercept
    FROM nn LEFT JOIN sl USING (event_type) LEFT JOIN ic USING (event_type)
"""


# ---------------------------------------------------------------------------
# referential-integrity audit (FK orphan counts via broadcast anti-join)
# ---------------------------------------------------------------------------

@entry("fk_violations", sql=lambda: SQL_FK_VIOLATIONS)
def q_fk_violations(sf_dir: str) -> pd.DataFrame:
    """Data-quality audit: orders whose customer is missing and lineitems
    whose order is missing — broadcast anti-join key-set filters, the
    driver sees only two counters."""
    from forecastframe_ray.stages.join import broadcast_semi_join

    cust_keys = pq.read_table(f"{sf_dir}/customer.parquet",
                              columns=["c_custkey"]).to_pandas() \
        .rename(columns={"c_custkey": "o_custkey"})
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])
    n_orders_orphans = broadcast_semi_join(
        orders, cust_keys, ["o_custkey"], anti=True).count()

    order_keys = pq.read_table(f"{sf_dir}/orders.parquet",
                               columns=["o_orderkey"]).to_pandas() \
        .rename(columns={"o_orderkey": "l_orderkey"})
    li = _read(sf_dir, "lineitem", ["l_orderkey"])
    n_lineitem_orphans = broadcast_semi_join(
        li, order_keys, ["l_orderkey"], anti=True).count()

    return pd.DataFrame({
        "n_orders_orphans": [np.int64(n_orders_orphans)],
        "n_lineitem_orphans": [np.int64(n_lineitem_orphans)],
    })


SQL_FK_VIOLATIONS = """
    SELECT
        CAST((SELECT count(*) FROM orders o
              WHERE NOT EXISTS (SELECT 1 FROM customer c
                                WHERE c.c_custkey = o.o_custkey))
             AS BIGINT) AS n_orders_orphans,
        CAST((SELECT count(*) FROM lineitem l
              WHERE NOT EXISTS (SELECT 1 FROM orders o
                                WHERE o.o_orderkey = l.l_orderkey))
             AS BIGINT) AS n_lineitem_orphans
"""


# ---------------------------------------------------------------------------
# fuzzy token pairs at edit distance 1 (pipelines/corpus.edit1_token_pairs)
# ---------------------------------------------------------------------------

@entry("edit1_pairs_documents", sql=lambda: SQL_EDIT1_PAIRS)
def q_edit1_pairs_documents(sf_dir: str) -> pd.DataFrame:
    """SymSpell deletion-neighborhood blocking + exact verify: every
    distinct-token pair at Levenshtein distance exactly 1."""
    from forecastframe_ray.pipelines.corpus import edit1_token_pairs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    return edit1_token_pairs(docs, num_partitions=_NP)


SQL_EDIT1_PAIRS = r"""
    WITH toks AS (
        SELECT DISTINCT unnest(list_filter(
            string_split_regex(text, '\s+'), x -> x <> '')) AS t
        FROM documents
    )
    SELECT a.t AS tok_a, b.t AS tok_b, CAST(1 AS BIGINT) AS dist
    FROM toks a JOIN toks b
        ON a.t < b.t AND abs(strlen(a.t) - strlen(b.t)) <= 1
    WHERE levenshtein(a.t, b.t) = 1
"""


# ---------------------------------------------------------------------------
# burstiness / index of dispersion per series
# ---------------------------------------------------------------------------

@entry("dispersion_daily_events", sql=lambda: SQL_DISPERSION_DAILY)
def q_dispersion_daily_events(sf_dir: str) -> pd.DataFrame:
    """Index of dispersion (Fano factor, var/mean) and coefficient of
    variation per daily series — one moment aggregate; degenerate series
    (n<2 or zero mean) emit NULLF."""
    daily = _bucket_series(sf_dir, DAY_US, "d")

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        v = b["v"].to_numpy(np.float64)
        return pd.DataFrame({"event_type": b["event_type"],
                             "n": np.ones(len(b), dtype=np.int64),
                             "s": v, "ss": v * v})

    agg = hash_aggregate(
        daily.map_batches(moments, batch_format="pandas"), ["event_type"],
        {c: (c, "sum") for c in ("n", "s", "ss")}, num_partitions=_NP)
    df = agg.to_pandas()
    n = df["n"].to_numpy(np.float64)
    s = df["s"].to_numpy(np.float64)
    ss = df["ss"].to_numpy(np.float64)
    mean = s / n
    with np.errstate(invalid="ignore", divide="ignore"):
        var = (ss - n * mean * mean) / (n - 1.0)   # sample variance
        fano = np.where((n >= 2) & (mean != 0), var / mean, np.nan)
        cv = np.where((n >= 2) & (mean != 0), np.sqrt(np.maximum(var, 0))
                      / mean, np.nan)
    out = pd.DataFrame({"event_type": df["event_type"],
                        "n": df["n"].astype("int64"),
                        "fano": np.round(fano, 6),
                        "cv": np.round(cv, 6)})
    out = _fill(out, ["fano", "cv"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DISPERSION_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, CAST(count(*) AS BIGINT) AS n,
           COALESCE(CASE WHEN count(*) >= 2 AND avg(v) <> 0
                THEN round(var_samp(v) / avg(v), 6) END, {NULLF}) AS fano,
           COALESCE(CASE WHEN count(*) >= 2 AND avg(v) <> 0
                THEN round(stddev_samp(v) / avg(v), 6) END, {NULLF}) AS cv
    FROM daily GROUP BY 1
"""


# ---------------------------------------------------------------------------
# ntile + cume_dist window twins (stages/window_ops.op_ntile / op_cume_dist)
# ---------------------------------------------------------------------------

@entry("ntile_cume_daily", sql=lambda: SQL_NTILE_CUME_DAILY)
def q_ntile_cume_daily(sf_dir: str) -> pd.DataFrame:
    """SQL ntile(4) in time order and cume_dist over the value, fused into
    one keyed window pass."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    daily = _bucket_series(sf_dir, DAY_US, "d")
    out = keyed_window_stage(
        daily, ["event_type"], "d",
        [{"op": "ntile", "n_tiles": 4, "out_name": "quartile"},
         {"op": "cume_dist", "feature": "v", "out_name": "v_cume_dist"}],
        num_partitions=_NP)
    df = out.to_pandas()[["event_type", "d", "v", "quartile",
                          "v_cume_dist"]]
    df["quartile"] = df["quartile"].astype("int64")
    return df.sort_values(["event_type", "d"],
                          kind="mergesort").reset_index(drop=True)


SQL_NTILE_CUME_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           CAST(ntile(4) OVER (PARTITION BY event_type ORDER BY d)
                AS BIGINT) AS quartile,
           round(cume_dist() OVER (PARTITION BY event_type ORDER BY v), 6)
               AS v_cume_dist
    FROM daily
"""


# ---------------------------------------------------------------------------
# vocabulary growth curve (new distinct tokens per doc-id decile)
# ---------------------------------------------------------------------------

@entry("vocab_growth_documents", sql=lambda: SQL_VOCAB_GROWTH)
def q_vocab_growth_documents(sf_dir: str) -> pd.DataFrame:
    """Heaps-law style vocabulary growth: each distinct token is charged to
    the FIRST document (min doc_id) that introduces it; buckets of 10% of
    the id range then count their newly-introduced tokens. One combiner'd
    min-aggregate over (token → min doc) partials; the bucketing is a tiny
    second aggregate."""
    from forecastframe_ray.stages.agg import hash_aggregate

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    hi = pq.read_table(f"{sf_dir}/documents.parquet",
                       columns=["doc_id"]).column("doc_id")
    import pyarrow.compute as pc
    lo_id, hi_id = pc.min(hi).as_py(), pc.max(hi).as_py()
    span = max(hi_id - lo_id + 1, 1)

    def toks(b: pd.DataFrame) -> pd.DataFrame:
        ex = b["text"].str.split().explode().dropna()
        g = pd.DataFrame({
            "token": ex.to_numpy(),
            "doc_id": b["doc_id"].to_numpy()[ex.index.to_numpy()],
        })
        return g.groupby("token", sort=False, as_index=False)["doc_id"] \
            .min()

    first = hash_aggregate(docs.map_batches(toks, batch_format="pandas"),
                           ["token"], {"first_doc": ("doc_id", "min")},
                           num_partitions=_NP)

    def to_bucket(b: pd.DataFrame) -> pd.DataFrame:
        d = b["first_doc"].to_numpy(np.int64)
        decile = np.minimum((d - lo_id) * 10 // span, 9).astype(np.int64)
        return pd.DataFrame({"decile": decile,
                             "one": np.ones(len(b), dtype=np.int64)})

    out = hash_aggregate(first.map_batches(to_bucket, batch_format="pandas"),
                         ["decile"], {"new_tokens": ("one", "sum")},
                         num_partitions=4).to_pandas()
    out = out.astype({"decile": "int64", "new_tokens": "int64"})
    return out.sort_values("decile").reset_index(drop=True)


SQL_VOCAB_GROWTH = r"""
    WITH bounds AS (
        SELECT min(doc_id) AS lo,
               greatest(max(doc_id) - min(doc_id) + 1, 1) AS span
        FROM documents
    ),
    first AS (
        SELECT x AS token, min(doc_id) AS first_doc
        FROM (SELECT doc_id,
                     unnest(list_filter(string_split_regex(text, '\s+'),
                                        t -> t <> '')) AS x
              FROM documents)
        GROUP BY 1
    )
    SELECT CAST(least((first_doc - bounds.lo) * 10 // bounds.span, 9)
                AS BIGINT) AS decile,
           CAST(count(*) AS BIGINT) AS new_tokens
    FROM first CROSS JOIN bounds
    GROUP BY 1
"""


# ---------------------------------------------------------------------------
# inter-event gap statistics per user
# ---------------------------------------------------------------------------

@entry("interevent_gaps_events", sql=lambda: SQL_INTEREVENT_GAPS)
def q_interevent_gaps_events(sf_dir: str) -> pd.DataFrame:
    """Per-user inter-event gap seconds (mean/min/max over consecutive
    events in ts order): whole user streams per partition, vectorized
    grouped diff, in-kernel pre-reduce before one tiny merge. Users with a
    single event emit no row (no gaps), matching the SQL twin."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def gaps(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["user_id", "ts"], kind="mergesort")
        # EXACT integer-µs gaps: the sum is order-independent int64
        # arithmetic, so engines cannot disagree at a rounding boundary
        dt = part.groupby("user_id", sort=False)["ts"].diff() \
            .dt.total_seconds() * 1e6
        ok = dt.notna()
        sub = pd.DataFrame({"user_id": part["user_id"][ok],
                            "gap_us": dt[ok].round().astype("int64")})
        out = sub.groupby("user_id", sort=False).agg(
            n_gaps=("gap_us", "size"), s=("gap_us", "sum"),
            mn=("gap_us", "min"), mx=("gap_us", "max")).reset_index()
        out["n_gaps"] = out["n_gaps"].astype("int64")
        return out

    partial = keyed_map_partitions(ev, ["user_id"], gaps, _NP)
    df = partial.to_pandas()
    out = pd.DataFrame({
        "user_id": df["user_id"].astype("int64"),
        "n_gaps": df["n_gaps"].astype("int64"),
        "mean_gap_s": np.round(df["s"].to_numpy(np.float64)
                               / df["n_gaps"].to_numpy(np.float64)
                               / 1e6, 6),
        "min_gap_s": np.round(df["mn"].to_numpy(np.float64) / 1e6, 6),
        "max_gap_s": np.round(df["mx"].to_numpy(np.float64) / 1e6, 6),
    })
    return out.sort_values("user_id").reset_index(drop=True)


SQL_INTEREVENT_GAPS = """
    WITH l AS (
        SELECT user_id,
               epoch_us(ts) - LAG(epoch_us(ts)) OVER
                   (PARTITION BY user_id ORDER BY ts) AS gap_us
        FROM events
    )
    SELECT user_id, CAST(count(gap_us) AS BIGINT) AS n_gaps,
           round(CAST(sum(gap_us) AS DOUBLE) / count(gap_us) / 1e6, 6)
               AS mean_gap_s,
           round(min(gap_us) / 1e6, 6) AS min_gap_s,
           round(max(gap_us) / 1e6, 6) AS max_gap_s
    FROM l WHERE gap_us IS NOT NULL GROUP BY 1
"""


# ---------------------------------------------------------------------------
# k-means E-step: assignment to broadcast centroids (Lloyd iteration half;
# the M-step is label_centroids_embeddings)
# ---------------------------------------------------------------------------

_KMEANS_K = 8


@entry("kmeans_assign_embeddings", sql=lambda: SQL_KMEANS_ASSIGN)
def q_kmeans_assign_embeddings(sf_dir: str) -> pd.DataFrame:
    """One Lloyd E-step: every vector assigned to the nearest of k=8
    deterministic seed centroids (the k smallest vec_ids) by squared L2;
    ties break to the lowest cluster index (np.argmin first-occurrence ==
    SQL ``ORDER BY dist2, cluster``). Centroids broadcast once; per-batch
    work is one matmul — the M-step re-estimation is the existing
    ``label_centroids`` scatter-reduce, together a full k-means iteration."""
    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    dfc = emb.to_pandas().sort_values("vec_id").head(_KMEANS_K)
    C = np.stack(dfc["embedding"].to_numpy()).astype(np.float64)  # k × d
    c2 = (C * C).sum(axis=1)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        d2 = (X * X).sum(axis=1)[:, None] - 2.0 * (X @ C.T) + c2[None, :]
        cl = np.argmin(d2, axis=1)
        return pd.DataFrame({
            "vec_id": b["vec_id"],
            "cluster": cl.astype(np.int64),
            # + 0.0 folds the −0.0 a centroid's self-distance can round to
            # (expanded-form matmul can land ~−1e−13) onto SQL's +0.0
            "dist2": np.round(d2[np.arange(len(cl)), cl], 6) + 0.0,
        })

    out = ds.map_batches(assign, batch_format="pandas").to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    return out.sort_values("vec_id").reset_index(drop=True)


SQL_KMEANS_ASSIGN = f"""
    WITH c AS (
        SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cluster,
               list_transform(embedding, x -> CAST(x AS DOUBLE)) AS cvec
        FROM embeddings ORDER BY vec_id LIMIT {_KMEANS_K}
    ),
    e AS (
        SELECT vec_id,
               list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
        FROM embeddings
    ),
    d AS (
        SELECT e.vec_id, c.cluster,
               list_dot_product(e.v, e.v)
               - 2 * list_dot_product(e.v, c.cvec)
               + list_dot_product(c.cvec, c.cvec) AS dist2
        FROM e CROSS JOIN c
    ),
    r AS (
        SELECT vec_id, cluster, dist2,
               row_number() OVER (PARTITION BY vec_id
                                  ORDER BY dist2, cluster) AS rn
        FROM d
    )
    SELECT vec_id, CAST(cluster AS BIGINT) AS cluster,
           round(dist2, 6) AS dist2
    FROM r WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# cross-series correlation matrix (pivot + pairwise moment reduce)
# ---------------------------------------------------------------------------

@entry("cross_corr_daily_events", sql=lambda: SQL_CROSS_CORR_DAILY)
def q_cross_corr_daily_events(sf_dir: str) -> pd.DataFrame:
    """Pairwise Pearson correlation between every two event types' daily
    series over their COMMON days (inner-join semantics): the daily spine
    pivots wide (one column per type), per-batch pairwise product moments
    accumulate vectorized, and one tiny reduce finishes — the shuffle
    carries days×types cells, the driver pairs×6 sums. NULLF when <2
    common days or zero variance."""
    from forecastframe_ray.stages.reshape import pivot_wide

    daily = _bucket_series(sf_dir, DAY_US, "d")
    types = sorted(pq.read_table(f"{sf_dir}/events.parquet",
                                 columns=["event_type"])
                   .column("event_type").unique().to_pylist())
    wide = pivot_wide(daily, index_keys=["d"], pivot_col="event_type",
                      value_col="v", categories=types, num_partitions=_NP)
    pairs = [(a, b) for i, a in enumerate(types) for b in types[i + 1:]]

    def moments(bt: pd.DataFrame) -> pd.DataFrame:
        out = {}
        for a, b in pairs:
            x = bt[f"v_{a}"].to_numpy(np.float64)
            y = bt[f"v_{b}"].to_numpy(np.float64)
            ok = ~(np.isnan(x) | np.isnan(y))
            xx, yy = np.where(ok, x, 0.0), np.where(ok, y, 0.0)
            k = f"{a}|{b}"
            out[f"n@{k}"] = [np.int64(ok.sum())]
            out[f"sx@{k}"] = [xx.sum()]
            out[f"sy@{k}"] = [yy.sum()]
            out[f"sxy@{k}"] = [(xx * yy).sum()]
            out[f"sxx@{k}"] = [(xx * xx).sum()]
            out[f"syy@{k}"] = [(yy * yy).sum()]
        return pd.DataFrame(out)

    part = wide.map_batches(moments, batch_format="pandas").to_pandas()
    rows = []
    for a, b in pairs:
        k = f"{a}|{b}"
        n = float(part[f"n@{k}"].sum())
        sx, sy = part[f"sx@{k}"].sum(), part[f"sy@{k}"].sum()
        sxy = part[f"sxy@{k}"].sum()
        sxx, syy = part[f"sxx@{k}"].sum(), part[f"syy@{k}"].sum()
        cov = n * sxy - sx * sy
        den = (n * sxx - sx * sx) * (n * syy - sy * sy)
        r = cov / np.sqrt(den) if n >= 2 and den > 0 else np.nan
        rows.append({"type_a": a, "type_b": b, "n_days": np.int64(n),
                     "corr": np.round(r, 6) if not np.isnan(r) else np.nan})
    out = pd.DataFrame(rows)
    out = _fill(out, ["corr"])
    return out.sort_values(["type_a", "type_b"]).reset_index(drop=True)


SQL_CROSS_CORR_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT a.event_type AS type_a, b.event_type AS type_b,
           CAST(count(*) AS BIGINT) AS n_days,
           COALESCE(round(corr(a.v, b.v), 6), {NULLF}) AS corr
    FROM daily a JOIN daily b
        ON a.d = b.d AND a.event_type < b.event_type
    GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# rolling p90 / WoW growth / median imputation
# ---------------------------------------------------------------------------

@entry("rolling_p90_daily", sql=lambda: SQL_ROLLING_P90_DAILY)
def q_rolling_p90_daily(sf_dir: str) -> pd.DataFrame:
    """Trailing 7-ROW p90 per daily series (quantile_cont frame twin)."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    daily = _bucket_series(sf_dir, DAY_US, "d")
    out = keyed_window_stage(
        daily, ["event_type"], "d",
        [{"op": "rolling_quantile", "feature": "v", "window": 7,
          "q": 0.9, "out_name": "v_p90_roll7"}],
        num_partitions=_NP)
    df = out.to_pandas()[["event_type", "d", "v", "v_p90_roll7"]]
    return df.sort_values(["event_type", "d"],
                          kind="mergesort").reset_index(drop=True)


SQL_ROLLING_P90_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           round(quantile_cont(v, 0.9) OVER (
               PARTITION BY event_type ORDER BY d
               ROWS BETWEEN 6 PRECEDING AND CURRENT ROW), 6) AS v_p90_roll7
    FROM daily
"""


@entry("wow_growth_daily", sql=lambda: SQL_WOW_GROWTH_DAILY)
def q_wow_growth_daily(sf_dir: str) -> pd.DataFrame:
    """Week-over-week growth: (v − v[-7]) / v[-7] per series in ROW terms
    (the gap-filled spine makes row-lag == calendar-lag); NULLF when the
    lag is missing or zero."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    daily = _bucket_series(sf_dir, DAY_US, "d")
    lagged = keyed_window_stage(
        daily, ["event_type"], "d",
        [{"op": "lag", "features": ["v"], "lags": [7]}],
        num_partitions=_NP)
    df = lagged.to_pandas()
    v = df["v"].to_numpy(np.float64)
    l7 = df["v_lag7"].to_numpy(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        g = np.where(np.isnan(l7) | (l7 == 0), np.nan,
                     np.round((v - l7) / l7, 6))
    df["wow_growth"] = g
    df = df[["event_type", "d", "v", "wow_growth"]]
    df = _fill(df, ["wow_growth"])
    return df.sort_values(["event_type", "d"],
                          kind="mergesort").reset_index(drop=True)


SQL_WOW_GROWTH_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               LAG(v, 7) OVER (PARTITION BY event_type ORDER BY d) AS l7
        FROM daily
    )
    SELECT event_type, d, v,
           COALESCE(CASE WHEN l7 IS NOT NULL AND l7 <> 0
                         THEN round((v - l7) / l7, 6) END, {NULLF})
               AS wow_growth
    FROM l
"""


@entry("median_impute_hourly", sql=lambda: SQL_MEDIAN_IMPUTE_HOURLY)
def q_median_impute_hourly(sf_dir: str) -> pd.DataFrame:
    """Gap-fill the hourly spine then impute holes with the per-series
    median of OBSERVED values (the robust alternative to ffill /
    interpolation, fused in the same keyed pass)."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    hourly = _bucket_series(sf_dir, HOUR_US, "h")
    out = keyed_window_stage(
        hourly, ["event_type"], "h",
        [{"op": "gap_fill", "freq": "h"},
         {"op": "fill_missing", "features": ["v"], "method": "median"}],
        num_partitions=_NP)
    df = out.to_pandas()[["event_type", "h", "v"]]
    df = _round(df, ["v"], 6)
    return df.sort_values(["event_type", "h"],
                          kind="mergesort").reset_index(drop=True)


SQL_MEDIAN_IMPUTE_HOURLY = """
    WITH hourly AS (
        SELECT event_type, date_trunc('hour', ts) AS h,
               round(sum(value), 6) AS v
        FROM events GROUP BY 1, 2
    ),
    bounds AS (
        SELECT event_type, min(h) AS lo, max(h) AS hi FROM hourly GROUP BY 1
    ),
    spine AS (
        SELECT b.event_type, g.h
        FROM bounds b,
             LATERAL (SELECT unnest(generate_series(b.lo, b.hi,
                                    INTERVAL 1 HOUR)) AS h) g
    ),
    med AS (
        SELECT event_type, round(median(v), 6) AS m FROM hourly GROUP BY 1
    )
    SELECT s.event_type, s.h,
           round(COALESCE(hourly.v, med.m), 6) AS v
    FROM spine s
    LEFT JOIN hourly USING (event_type, h)
    JOIN med ON med.event_type = s.event_type
"""


# ---------------------------------------------------------------------------
# per-source corpus profile + lang-ID confusion matrix
# ---------------------------------------------------------------------------

@entry("source_profile_documents", sql=lambda: SQL_SOURCE_PROFILE)
def q_source_profile_documents(sf_dir: str) -> pd.DataFrame:
    """Per-source corpus composition: doc count, total/mean chars, distinct
    labeled languages — the ingest-audit query a crawl pipeline runs per
    upstream feed. One combiner'd aggregate."""
    docs = _read(sf_dir, "documents", ["doc_id", "source", "lang",
                                       "n_chars"])

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        return b[["source", "lang", "n_chars"]]

    # distinct langs per source via a (source, lang) pre-distinct then a
    # count — the two-level exact-distinct plan
    sl = hash_aggregate(docs.map_batches(pre, batch_format="pandas"),
                        ["source", "lang"], {"nd": ("lang", "size")},
                        num_partitions=4)
    langs = hash_aggregate(sl, ["source"], {"n_langs": ("nd", "size")},
                           num_partitions=4).to_pandas()
    base = hash_aggregate(docs, ["source"], {
        "n_docs": ("doc_id", "size"),
        "sum_chars": ("n_chars", "sum"),
    }, num_partitions=4).to_pandas()
    out = base.merge(langs, on="source")
    out["mean_chars"] = np.round(
        out["sum_chars"].to_numpy(np.float64)
        / out["n_docs"].to_numpy(np.float64), 6)
    out = out.astype({"n_docs": "int64", "sum_chars": "int64",
                      "n_langs": "int64"})
    out = out[["source", "n_docs", "sum_chars", "mean_chars", "n_langs"]]
    return out.sort_values("source").reset_index(drop=True)


SQL_SOURCE_PROFILE = """
    SELECT source, CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(n_chars) AS BIGINT) AS sum_chars,
           round(CAST(sum(n_chars) AS DOUBLE) / count(*), 6) AS mean_chars,
           CAST(count(DISTINCT lang) AS BIGINT) AS n_langs
    FROM documents GROUP BY 1
"""


@entry("lang_confusion_documents", sql=lambda: SQL_LANG_CONFUSION)
def q_lang_confusion_documents(sf_dir: str) -> pd.DataFrame:
    """Lang-ID evaluation: confusion counts of the n-gram heuristic's
    prediction against the labeled ``lang`` column (zh has no stopword
    profile, so its mass lands in 'und'/confusions — the matrix quantifies
    exactly that)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    pred = docs.map_batches(lambda b: textstats.lang_id_batch(b),
                            batch_format="pandas")

    def pair(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"lang_true": b["lang"],
                             "lang_pred": b["lang_pred"],
                             "one": np.ones(len(b), dtype=np.int64)})

    out = hash_aggregate(pred.map_batches(pair, batch_format="pandas"),
                         ["lang_true", "lang_pred"], {"n": ("one", "sum")},
                         num_partitions=4).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["lang_true", "lang_pred"]).reset_index(drop=True)


_LANG_CONFUSION_TEMPLATE = """
    WITH pred AS ({langid})
    SELECT d.lang AS lang_true, pred.lang_pred,
           CAST(count(*) AS BIGINT) AS n
    FROM documents d JOIN pred USING (doc_id)
    GROUP BY 1, 2
"""

SQL_LANG_CONFUSION = _LANG_CONFUSION_TEMPLATE.format(langid=SQL_LANG_ID)


# ---------------------------------------------------------------------------
# robust (median/MAD) outlier flags per series — two-level scale quantiles
# ---------------------------------------------------------------------------

@entry("robust_zscore_daily", sql=lambda: SQL_ROBUST_ZSCORE)
def q_robust_zscore_daily(sf_dir: str) -> pd.DataFrame:
    """Robust z-score outliers: |v − median| > 3 · 1.4826 · MAD per series
    (Hampel filter constants, public). BOTH medians run on the
    range-partition order-statistic plan — no per-group heap bound — with
    the per-series stats broadcast back into a vectorized flag pass.
    Comparison on 6dp-rounded deviation/threshold so a boundary day cannot
    flip engines. Zero-MAD series (>50% identical values) flag only exact
    deviants — deviation > 0 — matching the SQL CASE."""
    from forecastframe_ray.pipelines.interpret import grouped_quantiles

    daily = _bucket_series(sf_dir, DAY_US, "d").materialize()
    med = grouped_quantiles(daily, ["event_type"], "v", qs=(0.5,))
    med = med.rename(columns={"q50": "med"})
    med_map = dict(zip(med["event_type"], med["med"]))

    def absdev(b: pd.DataFrame) -> pd.DataFrame:
        m = b["event_type"].map(med_map).to_numpy(np.float64)
        b = b.copy()
        b["adev"] = np.abs(b["v"].to_numpy(np.float64) - m)
        return b

    devs = daily.map_batches(absdev, batch_format="pandas").materialize()
    mad = grouped_quantiles(devs, ["event_type"], "adev", qs=(0.5,))
    mad_map = dict(zip(mad["event_type"], mad["q50"]))

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        m = b["event_type"].map(med_map).to_numpy(np.float64)
        md = b["event_type"].map(mad_map).to_numpy(np.float64)
        dev = np.round(np.abs(b["v"].to_numpy(np.float64) - m), 6)
        thr = np.round(3.0 * 1.4826 * md, 6)
        return pd.DataFrame({
            "event_type": b["event_type"], "d": b["d"], "v": b["v"],
            "deviation": dev, "threshold": thr,
            "outlier": (dev > thr).astype("int64"),
        })

    out = daily.map_batches(flag, batch_format="pandas").to_pandas()
    return out.sort_values(["event_type", "d"],
                           kind="mergesort").reset_index(drop=True)


SQL_ROBUST_ZSCORE = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (SELECT event_type, median(v) AS med FROM daily GROUP BY 1),
    a AS (
        SELECT d.event_type, d.d, d.v, abs(d.v - m.med) AS adev
        FROM daily d JOIN m USING (event_type)
    ),
    md AS (SELECT event_type, median(adev) AS mad FROM a GROUP BY 1)
    SELECT a.event_type, a.d, a.v,
           round(a.adev, 6) AS deviation,
           round(3.0 * 1.4826 * md.mad, 6) AS threshold,
           CAST(round(a.adev, 6) > round(3.0 * 1.4826 * md.mad, 6)
                AS BIGINT) AS outlier
    FROM a JOIN md USING (event_type)
"""


# ---------------------------------------------------------------------------
# modal (most frequent) event type per user — grouped top-1 with tie-break
# ---------------------------------------------------------------------------

@entry("favorite_type_per_user", sql=lambda: SQL_FAVORITE_TYPE)
def q_favorite_type_per_user(sf_dir: str) -> pd.DataFrame:
    """Each user's most frequent event type (count desc, type asc on ties)
    — counts pre-reduce in the combiner'd aggregate, the top-1 cut is the
    grouped-top-k partial merge (≤ users×1 rows shuffle)."""
    from forecastframe_ray.stages.topk import grouped_topk

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    counts = hash_aggregate(ev, ["user_id", "event_type"],
                            {"n": ("event_type", "size")},
                            num_partitions=_NP)

    def neg(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["n"] = b["n"].astype("int64")
        return b

    top = grouped_topk(counts.map_batches(neg, batch_format="pandas"),
                       ["user_id"], "n", k=1, descending=True,
                       tiebreak=["event_type"], num_partitions=_NP)
    out = top.to_pandas().astype({"user_id": "int64", "n": "int64"})
    out = out.rename(columns={"event_type": "favorite_type"})
    return out[["user_id", "favorite_type", "n"]] \
        .sort_values("user_id").reset_index(drop=True)


SQL_FAVORITE_TYPE = """
    SELECT user_id, event_type AS favorite_type, n
    FROM (
        SELECT user_id, event_type, CAST(count(*) AS BIGINT) AS n,
               row_number() OVER (PARTITION BY user_id
                                  ORDER BY count(*) DESC, event_type)
                   AS rn
        FROM events GROUP BY 1, 2
    ) WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# LTTB visual downsampling (rows-only: sequential selection chain is not
# SQL-expressible; pinned by tests/test_lttb.py against a reference impl)
# ---------------------------------------------------------------------------

@entry("lttb_daily_events")
def q_lttb_daily_events(sf_dir: str) -> pd.DataFrame:
    """20-point LTTB downsample of each daily series (endpoints kept,
    bucket winners by triangle area)."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    daily = _bucket_series(sf_dir, DAY_US, "d")
    out = keyed_window_stage(
        daily, ["event_type"], "d",
        [{"op": "lttb", "feature": "v", "n_out": 20}],
        num_partitions=_NP)
    df = out.to_pandas()
    df = df[df["selected"] == 1].drop(columns=["selected"])
    df = df[["event_type", "d", "v"]]
    return df.sort_values(["event_type", "d"],
                          kind="mergesort").reset_index(drop=True)


# ---------------------------------------------------------------------------
# daily composition share (fraction-of-day-total per type)
# ---------------------------------------------------------------------------

@entry("daily_share_events", sql=lambda: SQL_DAILY_SHARE)
def q_daily_share_events(sf_dir: str) -> pd.DataFrame:
    """Each type's share of its day's total — the composition dashboard
    query. Day totals reduce first (day-cardinality result), broadcast
    back into a vectorized share pass; zero-total days emit NULLF."""
    daily = _bucket_series(sf_dir, DAY_US, "d").materialize()
    totals = hash_aggregate(daily, ["d"], {"day_total": ("v", "sum")},
                            num_partitions=4).to_pandas()
    tot_map = dict(zip(totals["d"], totals["day_total"]))

    def share(b: pd.DataFrame) -> pd.DataFrame:
        t = b["d"].map(tot_map).to_numpy(np.float64)
        v = b["v"].to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            sh = np.where(t == 0, np.nan, np.round(v / t, 6))
        return pd.DataFrame({"event_type": b["event_type"], "d": b["d"],
                             "v": b["v"], "share": sh})

    out = daily.map_batches(share, batch_format="pandas").to_pandas()
    out = _fill(out, ["share"])
    return out.sort_values(["event_type", "d"],
                           kind="mergesort").reset_index(drop=True)


SQL_DAILY_SHARE = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           COALESCE(CASE WHEN sum(v) OVER (PARTITION BY d) <> 0
                THEN round(v / sum(v) OVER (PARTITION BY d), 6) END,
                {NULLF}) AS share
    FROM daily
"""


# ---------------------------------------------------------------------------
# deterministic train/val/test split (stages/sample.hash_split)
# ---------------------------------------------------------------------------

@entry("dataset_split_orders", sql=lambda: SQL_DATASET_SPLIT)
def q_dataset_split_orders(sf_dir: str) -> pd.DataFrame:
    """80/10/10 hash split of orders by key — membership depends only on
    md5(o_orderkey), so it is identical for any cluster shape, resume, or
    later delivery. Output: per-split counts + value totals."""
    from forecastframe_ray.stages.sample import hash_split

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    tagged = hash_split(orders, "o_orderkey",
                        {"train": 0.8, "val": 0.1, "test": 0.1})
    out = hash_aggregate(tagged, ["split"], {
        "n": ("o_orderkey", "size"),
        "sum_price": ("o_totalprice", "sum"),
    }, num_partitions=4).to_pandas()
    out["n"] = out["n"].astype("int64")
    out = _round(out, ["sum_price"], 2)
    return out[["split", "n", "sum_price"]].sort_values("split") \
        .reset_index(drop=True)


SQL_DATASET_SPLIT = """
    WITH h AS (
        SELECT o_orderkey, o_totalprice,
               CAST(('0x' || substr(md5(CAST(o_orderkey AS VARCHAR)), 1, 8))
                    AS BIGINT) AS b
        FROM orders
    ),
    tagged AS (
        -- floor(), not CAST: DuckDB CAST rounds-to-nearest while the
        -- engine's .astype(int64) truncates — an unfloored cut is off by
        -- one at the split boundary (same convention as SQL_SAMPLE_ORDERS)
        SELECT *,
               CASE WHEN b < CAST(floor(0.8 * 4294967296) AS BIGINT)
                        THEN 'train'
                    WHEN b < CAST(floor(0.9 * 4294967296) AS BIGINT)
                        THEN 'val'
                    ELSE 'test' END AS split
        FROM h
    )
    SELECT split, CAST(count(*) AS BIGINT) AS n,
           round(sum(o_totalprice), 2) AS sum_price
    FROM tagged GROUP BY 1
"""


# ---------------------------------------------------------------------------
# prediction post-processing (reference model.py:27-56) + asymmetric loss
# (model.py:539-548) — the last unported model-layer data-side pieces

_CI_Z = 1.959963984540054   # norm.ppf(0.975); engine recomputes via Acklam
_FLOOR = 2600.0             # clamps ~10% of sf0.01 daily rows (real effect)


@entry("forecast_postprocess_daily", sql=lambda: SQL_FORECAST_POSTPROCESS)
def q_forecast_postprocess_daily(sf_dir: str) -> pd.DataFrame:
    """Reference prediction post-processing chained exactly as
    ``predict()`` applies it: floor the ``predicted_*`` columns
    (``_set_forecast_minimum``, model.py:27-35), then add normal-theory
    intervals ``pred ± norm.ppf(.975)·sem(pred)``
    (``_add_simple_confidence_intervals``, model.py:38-56). The sem is a
    distributed (Σx, Σx², n) reduce; the bounds are a broadcast-scalar
    vectorized pass — the prediction table never lands on the driver."""
    from forecastframe_ray.functions import postprocess

    fr = _daily_frame(sf_dir).lag_features("v", [1])

    def as_pred(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["v_lag1"].notna()].copy()
        return pd.DataFrame({"event_type": b["event_type"], "d": b["d"],
                             "predicted_v": b["v_lag1"]})

    preds = fr.dataset.map_batches(as_pred, batch_format="pandas")
    preds = postprocess.set_forecast_minimum(preds, _FLOOR)
    preds = postprocess.add_confidence_intervals(preds, "predicted_v",
                                                 alpha=0.975)
    out = preds.to_pandas()
    return _round(out[["event_type", "d", "predicted_v",
                       "predicted_v_lower", "predicted_v_upper"]],
                  ["predicted_v", "predicted_v_lower", "predicted_v_upper"], 6)


SQL_FORECAST_POSTPROCESS = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d,
               LAG(v, 1) OVER (PARTITION BY event_type ORDER BY d) AS lv
        FROM daily
    ),
    p AS (
        SELECT event_type, d,
               CASE WHEN lv > {_FLOOR} THEN lv ELSE {_FLOOR} END AS pred
        FROM l WHERE lv IS NOT NULL
    ),
    s AS (SELECT stddev_samp(pred) / sqrt(count(*)) * {_CI_Z!r} AS hw FROM p)
    SELECT event_type, d, round(pred, 6) AS predicted_v,
           round(pred - hw, 6) AS predicted_v_lower,
           round(pred + hw, 6) AS predicted_v_upper
    FROM p, s
"""


@entry("asymmetric_loss_naive", sql=lambda: SQL_ASYMMETRIC_LOSS_NAIVE)
def q_asymmetric_loss_naive(sf_dir: str) -> pd.DataFrame:
    """The M5-winning asymmetric validation loss
    (``_custom_asymmetric_valid``, model.py:539-548) of the naive lag-1
    daily forecast: residual² with over-forecasts weighted 1.0 and
    under-forecasts 0.9 — distributed (Σloss, n) partials, tiny reduce."""
    fr = _daily_frame(sf_dir).lag_features("v", [1])
    out = metrics.asymmetric_loss(fr.dataset, "v", "v_lag1",
                                  loss_multiplier=0.9)
    return _round(out[["n", "loss"]], ["loss"], 2)


SQL_ASYMMETRIC_LOSS_NAIVE = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               LAG(v, 1) OVER (PARTITION BY event_type ORDER BY d) AS lv
        FROM daily
    )
    SELECT count(*) AS n,
           round(avg(CASE WHEN (v - lv) < 0 THEN (v - lv) * (v - lv)
                          ELSE (v - lv) * (v - lv) * 0.9 END), 2) AS loss
    FROM l WHERE lv IS NOT NULL AND v IS NOT NULL
"""


# ---------------------------------------------------------------------------
# GPT-style token-stream packing (pipelines/corpus.pack_token_stream)

_PACK_L = 512          # context length
_PACK_BKT = 128        # small bucket so sf0.01's 500 docs span 4 buckets

_PACK_SQL = rf"""
    WITH t AS (
      SELECT doc_id,
             CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n
      FROM documents
    ),
    o AS (
      SELECT doc_id, n,
             CAST(COALESCE(SUM(n + 1) OVER (ORDER BY doc_id
                  ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                  0) AS BIGINT) AS g0
      FROM t
    ),
    e AS (
      SELECT doc_id, n, g0,
             g0 // {_PACK_L} AS c0, (g0 + n - 1) // {_PACK_L} AS c1
      FROM o WHERE n > 0
    ),
    x AS (
      SELECT doc_id, n, g0, c0,
             unnest(generate_series(0, c1 - c0)) AS i
      FROM e
    ),
    spans AS (
      SELECT doc_id, CAST(c0 + i AS BIGINT) AS chunk_id,
             CAST(GREATEST(0, (c0 + i) * {_PACK_L} - g0) AS BIGINT)
                 AS tok_start,
             CAST(LEAST(n, (c0 + i + 1) * {_PACK_L} - g0) AS BIGINT)
                 AS tok_end
      FROM x
    )
"""


@entry("pack_spans_documents", sql=lambda: SQL_PACK_SPANS)
def q_pack_spans_documents(sf_dir: str) -> pd.DataFrame:
    """GPT-style fixed-context packing of the whitespace token stream
    (docs in doc_id order, 1 EOS separator each, context 512): the
    (doc_id, chunk_id, doc-local token span) assignment, computed by the
    distributed two-pass global prefix sum in
    ``corpus.pack_token_stream`` and pinned row-for-row by the SQL window
    cumsum + generate_series expansion."""
    from forecastframe_ray.pipelines import corpus

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    spans = corpus.pack_token_stream(docs, _PACK_L, sep_tokens=1,
                                     bucket_docs=_PACK_BKT,
                                     num_partitions=8)
    out = spans.to_pandas()
    for c in ["doc_id", "chunk_id", "tok_start", "tok_end"]:
        out[c] = out[c].astype("int64")
    return out[["doc_id", "chunk_id", "tok_start", "tok_end"]]


SQL_PACK_SPANS = _PACK_SQL + """
    SELECT doc_id, chunk_id, tok_start, tok_end FROM spans
"""


@entry("pack_chunk_stats_documents", sql=lambda: SQL_PACK_CHUNK_STATS)
def q_pack_chunk_stats_documents(sf_dir: str) -> pd.DataFrame:
    """Per-chunk composition of the packed stream: how many docs and
    content tokens each fixed 512-token chunk holds (separators excluded)
    — the sequence-boundary profile a packing run reports."""
    from forecastframe_ray.pipelines import corpus

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    spans = corpus.pack_token_stream(docs, _PACK_L, sep_tokens=1,
                                     bucket_docs=_PACK_BKT,
                                     num_partitions=8)
    out = corpus.pack_chunk_stats(spans).to_pandas()
    out["n_docs"] = out["n_docs"].astype("int64")
    out["n_content_tokens"] = out["n_content_tokens"].astype("int64")
    return out[["chunk_id", "n_docs", "n_content_tokens"]]


SQL_PACK_CHUNK_STATS = _PACK_SQL + """
    SELECT chunk_id, count(*) AS n_docs,
           CAST(sum(tok_end - tok_start) AS BIGINT) AS n_content_tokens
    FROM spans GROUP BY 1
"""


# ---------------------------------------------------------------------------
# temperature-based data-mixture sampling (stages/sample.mixture_*)

_MIX_T = 0.5          # 1/T = 2 → pow(p, 2) is the exactly-representable p·p
_MIX_BUDGET = 0.5     # keep half the corpus, redistributed by temperature

_MIX_SQL = """
    WITH s AS (
      SELECT lang, CAST(count(*) AS BIGINT) AS n FROM documents GROUP BY 1
    ),
    t AS (
      SELECT lang, n, n * 1.0 / (SELECT sum(n) FROM s) AS p FROM s
    ),
    wr AS (SELECT lang, n, p, p * p AS w_raw FROM t),
    w AS (
      SELECT lang, n, p,
             w_raw / (SELECT sum(w_raw) FROM wr) AS w
      FROM wr
    ),
    plan AS (
      SELECT lang, n, p, w,
             round(LEAST(1.0, w * 0.5 * (SELECT sum(n) FROM s) / n), 6)
                 AS rate
      FROM w
    )
"""


@entry("mixture_plan_lang", sql=lambda: SQL_MIXTURE_PLAN)
def q_mixture_plan_lang(sf_dir: str) -> pd.DataFrame:
    """Temperature-scaled mixture plan over the corpus languages
    (Lample & Conneau 2019 §3.1 sampling rule, T=0.5): per-lang share p,
    mixture weight w ∝ p^(1/T), and the deterministic keep-rate for a
    half-corpus budget. One coarse aggregate; the plan is one tiny row
    per language."""
    from forecastframe_ray.stages import sample as S

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    w = S.mixture_weights(docs, "lang", temperature=_MIX_T)
    budget = _MIX_BUDGET * w["n"].sum()
    w["rate"] = np.round(np.minimum(
        1.0, w["w"].to_numpy(np.float64) * budget
        / w["n"].to_numpy(np.float64)), 6)
    w["n"] = w["n"].astype("int64")
    return _round(w[["lang", "n", "p", "w", "rate"]], ["p", "w"], 6)


SQL_MIXTURE_PLAN = _MIX_SQL + """
    SELECT lang, n, round(p, 6) AS p, round(w, 6) AS w, rate FROM plan
"""


@entry("mixture_sample_lang", sql=lambda: SQL_MIXTURE_SAMPLE)
def q_mixture_sample_lang(sf_dir: str) -> pd.DataFrame:
    """The mixture plan applied: per-lang deterministic md5-bucket
    downsample at the temperature-reweighted rates — membership depends
    only on md5(doc_id), so it is identical across cluster shapes and
    resumes, and the SQL twin recomputes it row-for-row."""
    from forecastframe_ray.stages import sample as S

    docs = _read(sf_dir, "documents", ["doc_id", "lang"])
    out = S.mixture_sample(docs, "lang", "doc_id",
                           budget_frac=_MIX_BUDGET,
                           temperature=_MIX_T).to_pandas()
    return out[["doc_id", "lang"]].astype({"doc_id": "int64"})


SQL_MIXTURE_SAMPLE = _MIX_SQL + """
    SELECT d.doc_id, d.lang
    FROM documents d JOIN plan USING (lang)
    WHERE CAST(concat('0x', substr(md5(CAST(d.doc_id AS VARCHAR)), 1, 8))
               AS BIGINT)
          < CAST(floor(plan.rate * 4294967296) AS BIGINT)
"""


# ---------------------------------------------------------------------------
# Dickey-Fuller unit-root (stationarity) test per series

_DF_CRIT_5PCT = -2.8614   # MacKinnon asymptotic 5% critical value, constant


@entry("dickey_fuller_daily", sql=lambda: SQL_DICKEY_FULLER_DAILY)
def q_dickey_fuller_daily(sf_dir: str) -> pd.DataFrame:
    """Dickey-Fuller unit-root test per daily series (lag-0, constant):
    regress Δv_t on v_{t−1} by the closed-form 1-regressor OLS and report
    the t-statistic ρ̂/se(ρ̂) plus the 5%-level stationarity flag
    (|MacKinnon| asymptotic critical value −2.8614). The standard
    stationarity diagnostic before differencing/detrending a series
    (Dickey & Fuller 1979 — public). Each series reduces to six sums
    inside the keyed partition kernel; both sides use the identical
    raw-sums algebra so the rounded statistics hash-match."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def df_test(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            m = n - 1
            rho = stat = np.nan
            if m >= 3:
                x, d = v[:-1], np.diff(v)
                mx, md = x.sum() / m, d.sum() / m
                sxx_c = (x * x).sum() - m * mx * mx
                sxy_c = (x * d).sum() - m * mx * md
                sdd_c = (d * d).sum() - m * md * md
                if sxx_c > 0:
                    rho = sxy_c / sxx_c
                    s2 = (sdd_c - rho * sxy_c) / (m - 2)
                    if s2 > 0:
                        stat = rho / np.sqrt(s2 / sxx_c)
            rho_r = np.round(rho, 6)
            stat_r = np.round(stat, 6)
            rows.append((et, m, rho_r, stat_r,
                         bool(stat_r < _DF_CRIT_5PCT)
                         if not np.isnan(stat_r) else False))
        return pd.DataFrame(rows, columns=["event_type", "m", "rho",
                                           "df_stat", "stationary"])

    out = keyed_map_partitions(daily, ["event_type"], df_test,
                               num_partitions=_NP).to_pandas()
    out["m"] = out["m"].astype("int64")
    out["stationary"] = out["stationary"].astype("bool")
    out = _fill(out, ["rho", "df_stat"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DICKEY_FULLER_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type,
               v - LAG(v) OVER w AS dy,
               LAG(v) OVER w AS x
        FROM daily
        WINDOW w AS (PARTITION BY event_type ORDER BY d)
    ),
    e AS (SELECT event_type, dy, x FROM l WHERE x IS NOT NULL),
    s AS (
        SELECT event_type, CAST(count(*) AS BIGINT) AS m,
               sum(x) / count(*) AS mx, sum(dy) / count(*) AS md,
               sum(x * dy) AS sxy, sum(x * x) AS sxx, sum(dy * dy) AS sdd
        FROM e GROUP BY 1
    ),
    c AS (
        SELECT event_type, m,
               sxy - m * mx * md AS sxy_c,
               sxx - m * mx * mx AS sxx_c,
               sdd - m * md * md AS sdd_c
        FROM s
    ),
    r AS (
        SELECT event_type, m,
               CASE WHEN m >= 3 AND sxx_c > 0
                    THEN sxy_c / sxx_c END AS rho,
               sxx_c, sdd_c, sxy_c
        FROM c
    ),
    f AS (
        SELECT event_type, m, rho, sxx_c,
               CASE WHEN rho IS NOT NULL
                    THEN (sdd_c - rho * sxy_c) / (m - 2) END AS s2
        FROM r
    ),
    z AS (
        SELECT event_type, m, round(rho, 6) AS rho,
               round(CASE WHEN s2 > 0
                          THEN rho / sqrt(s2 / sxx_c) END, 6) AS df_stat
        FROM f
    )
    SELECT event_type, m,
           COALESCE(rho, {NULLF}) AS rho,
           COALESCE(df_stat, {NULLF}) AS df_stat,
           COALESCE(df_stat < {_DF_CRIT_5PCT}, false) AS stationary
    FROM z
"""


# ---------------------------------------------------------------------------
# Ljung-Box portmanteau whiteness test (over the shared lag-corr estimator)

_LB_CHI2_3DOF_5PCT = 7.8147   # chi-square 5% critical value, 3 dof (public)


@entry("ljung_box_daily", sql=lambda: SQL_LJUNG_BOX_DAILY)
def q_ljung_box_daily(sf_dir: str) -> pd.DataFrame:
    """Ljung-Box Q over lags 1-3 per daily series:
    ``Q = n(n+2) Σ_k r_k² / (n−k)`` with the engine's shared pairwise
    ``corr(v, LAG(v,k))`` lag-correlation estimator (documented variant —
    identical on both sides, so the statistic hash-matches), plus the
    5%-level reject-whiteness flag against the 3-dof chi-square critical
    value. The distributed part is the one keyed lag attach + tiny
    per-series reduce shared with ACF/PACF (Ljung & Box 1978 — public)."""
    df = _lag_corr_table(sf_dir, (1, 2, 3))
    n = df["n1"].to_numpy(np.float64) + 1.0   # pairs at lag 1 = n − 1
    q = np.zeros(len(df))
    for k in (1, 2, 3):
        r = df[f"r{k}"].to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            q = q + np.where(n - k > 0, r * r / (n - k), np.nan)
    q = np.round(n * (n + 2.0) * q, 6)
    out = pd.DataFrame({
        "event_type": df["event_type"],
        "n": (df["n1"] + 1).astype("int64"),
        "lb_stat": q,
        "reject_white": np.where(np.isnan(q), False,
                                 q > _LB_CHI2_3DOF_5PCT).astype(bool),
    })
    out = _fill(out, ["lb_stat"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_LJUNG_BOX_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, v,
               LAG(v, 1) OVER w AS v1, LAG(v, 2) OVER w AS v2,
               LAG(v, 3) OVER w AS v3
        FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
    ),
    s AS (
        SELECT event_type, CAST(count(*) AS BIGINT) AS n,
               corr(v, v1) AS r1, corr(v, v2) AS r2, corr(v, v3) AS r3
        FROM l GROUP BY 1
    ),
    z AS (
        SELECT event_type, n,
               round(n * (n + 2.0) * (r1 * r1 / (n - 1)
                     + r2 * r2 / (n - 2) + r3 * r3 / (n - 3)), 6) AS lb_stat
        FROM s
    )
    SELECT event_type, n,
           COALESCE(lb_stat, {NULLF}) AS lb_stat,
           COALESCE(lb_stat > {_LB_CHI2_3DOF_5PCT}, false) AS reject_white
    FROM z
"""


@entry("ts_strength_daily", sql=lambda: SQL_TS_STRENGTH_DAILY)
def q_ts_strength_daily(sf_dir: str) -> pd.DataFrame:
    """Trend / seasonal strength per daily series (Hyndman &
    Athanasopoulos, FPP3 §4.3 — public): with the additive decomposition's
    components, ``F_trend = max(0, 1 − var(resid)/var(trend+resid))`` and
    ``F_seasonal = max(0, 1 − var(resid)/var(seasonal+resid))``. Both
    engines compute from the decomposition's 6dp-rounded components (the
    query surface of ``seasonal_decompose_daily``) so the variances agree;
    zero-variance denominators yield NULLF."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    daily = _bucket_series(sf_dir, DAY_US, "d")
    dec = keyed_window_stage(
        daily, ["event_type"], "d",
        [{"op": "seasonal_decompose", "feature": "v", "ma_window": 7}],
        num_partitions=_NP)

    def parts(b: pd.DataFrame) -> pd.DataFrame:
        r = b["v_resid"].to_numpy(np.float64)
        t = b["v_trend"].to_numpy(np.float64)
        s = b["v_seasonal"].to_numpy(np.float64)
        return pd.DataFrame({"event_type": b["event_type"],
                             "__r": r, "__tr": t + r, "__sr": s + r})

    v = hash_aggregate(dec.map_batches(parts, batch_format="pandas"),
                       ["event_type"],
                       {"vr": ("__r", "var"), "vtr": ("__tr", "var"),
                        "vsr": ("__sr", "var")},
                       num_partitions=4).to_pandas()

    def strength(num: pd.Series, den: pd.Series) -> np.ndarray:
        den_a = den.to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            f = np.where(den_a > 0,
                         np.maximum(0.0, 1.0 - num.to_numpy(np.float64)
                                    / np.where(den_a > 0, den_a, 1.0)),
                         np.nan)
        return np.round(f, 6)

    out = pd.DataFrame({"event_type": v["event_type"],
                        "f_trend": strength(v["vr"], v["vtr"]),
                        "f_seasonal": strength(v["vr"], v["vsr"])})
    out = _fill(out, ["f_trend", "f_seasonal"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_TS_STRENGTH_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    t AS (
        SELECT event_type, d, v,
               avg(v) OVER (PARTITION BY event_type ORDER BY d
                            ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING)
                   AS trend
        FROM daily
    ),
    s AS (
        SELECT event_type, d, v, trend,
               avg(v - trend) OVER (PARTITION BY event_type, dayofweek(d))
                   AS seasonal
        FROM t
    ),
    comp AS (
        SELECT event_type,
               round(trend, 6) AS tr,
               round(seasonal, 6) AS se,
               round(v - trend - seasonal, 6) AS re
        FROM s
    ),
    vv AS (
        SELECT event_type, var_samp(re) AS vr,
               var_samp(tr + re) AS vtr, var_samp(se + re) AS vsr
        FROM comp GROUP BY 1
    )
    SELECT event_type,
           COALESCE(round(CASE WHEN vtr > 0
                    THEN GREATEST(0, 1 - vr / vtr) END, 6), {NULLF})
               AS f_trend,
           COALESCE(round(CASE WHEN vsr > 0
                    THEN GREATEST(0, 1 - vr / vsr) END, 6), {NULLF})
               AS f_seasonal
    FROM vv
"""


@entry("demand_classification_users", sql=lambda: SQL_DEMAND_CLASSIFICATION)
def q_demand_classification_users(sf_dir: str) -> pd.DataFrame:
    """Syntetos-Boylan demand-pattern classification per user series
    (Syntetos & Boylan 2005 — public; the diagnostic that decides when the
    Croston estimator applies): ADI = active-span days / demand days and
    CV² of the daily demand sizes, classified at the standard cutoffs
    (ADI 1.32, CV² 0.49) into smooth / intermittent / erratic / lumpy.
    Two coarse-hash aggregates — (user, day) demand sums, then one row per
    user; the class is derived from the 6dp-rounded measures on BOTH sides
    so the label can never straddle a float boundary."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def day_fn(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": b["user_id"],
                             "d": b["ts"].dt.floor("D"),
                             "v": b["value"]})

    daily = hash_aggregate(ev.map_batches(day_fn, batch_format="pandas"),
                           ["user_id", "d"], {"v": ("v", "sum")},
                           num_partitions=_NP, hash_keys=["user_id"])
    per_user = hash_aggregate(
        daily, ["user_id"],
        {"n_days": ("v", "size"), "first_d": ("d", "min"),
         "last_d": ("d", "max"), "mu": ("v", "mean"), "sd": ("v", "std")},
        num_partitions=4).to_pandas()

    span = (per_user["last_d"] - per_user["first_d"]).dt.days.to_numpy(
        np.float64) + 1.0
    n = per_user["n_days"].to_numpy(np.float64)
    adi = np.round(span / n, 6)
    mu = per_user["mu"].to_numpy(np.float64)
    sd = per_user["sd"].to_numpy(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        cv2 = np.round((sd / mu) ** 2, 6)
    # mu == 0 divides to inf in numpy but NULL in SQL — align on NULL
    cv2 = np.where(np.isfinite(cv2), cv2, np.nan)
    cls = np.where(
        np.isnan(cv2), "insufficient",
        np.where(adi < 1.32, np.where(cv2 < 0.49, "smooth", "erratic"),
                 np.where(cv2 < 0.49, "intermittent", "lumpy")))
    out = pd.DataFrame({"user_id": per_user["user_id"],
                        "n_days": per_user["n_days"].astype("int64"),
                        "adi": adi, "cv2": cv2, "demand_class": cls})
    out = _fill(out, ["cv2"])
    return out.sort_values("user_id").reset_index(drop=True)


SQL_DEMAND_CLASSIFICATION = f"""
    WITH daily AS (
        SELECT user_id, date_trunc('day', ts) AS d, sum(value) AS v
        FROM events GROUP BY 1, 2
    ),
    u AS (
        SELECT user_id, CAST(count(*) AS BIGINT) AS n_days,
               min(d) AS first_d, max(d) AS last_d,
               avg(v) AS mu, stddev_samp(v) AS sd
        FROM daily GROUP BY 1
    ),
    m AS (
        SELECT user_id, n_days,
               round((date_diff('day', first_d, last_d) + 1.0)
                     / n_days, 6) AS adi,
               round((sd / mu) * (sd / mu), 6) AS cv2
        FROM u
    )
    SELECT user_id, n_days, adi,
           COALESCE(cv2, {NULLF}) AS cv2,
           CASE WHEN cv2 IS NULL THEN 'insufficient'
                WHEN adi < 1.32 AND cv2 < 0.49 THEN 'smooth'
                WHEN adi < 1.32 THEN 'erratic'
                WHEN cv2 < 0.49 THEN 'intermittent'
                ELSE 'lumpy' END AS demand_class
    FROM m
"""


@entry("theta_forecast_gate_daily", sql=lambda: SQL_THETA_FORECAST_GATE)
def q_theta_forecast_gate_daily(sf_dir: str) -> pd.DataFrame:
    """Theta-method forecast (M3 winner), oracle-GATED through the α=1
    degenerate form: the SES level collapses to the last θ=2 value
    ``2·y_T − theta0_T``, so ŷ(T+h) = ½·theta0(T+h) + ½·(2y_T − theta0_T)
    with theta0 the per-series centered OLS line — every term
    SQL-expressible with the identical centered raw-sums algebra. The gate
    exercises the full machinery (co-located fit kernel, per-series state,
    future-grid scorer); general α is pinned by pytest against a direct
    numpy recursion."""
    fr = _daily_frame(sf_dir)
    preds = fr.predict(periods=7, freq="D", estimator="theta", alpha=1.0)
    df = preds.to_pandas()[["event_type", "d", "predicted_v"]]
    df = _round(df, ["predicted_v"], 6)
    return df.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_THETA_FORECAST_GATE = f"""
    WITH daily AS ({_DAILY_SQL}),
    dn AS (
        SELECT event_type, d, v,
               CAST(epoch_us(d) // 86400000000 AS DOUBLE) AS t
        FROM daily
    ),
    m AS (
        SELECT event_type, avg(t) AS mx, avg(v) AS my FROM dn GROUP BY 1
    ),
    c AS (
        SELECT dn.event_type, dn.d, dn.v, dn.t, m.mx, m.my,
               (dn.t - m.mx) AS tc
        FROM dn JOIN m USING (event_type)
    ),
    s AS (
        SELECT event_type, mx, my,
               sum(tc * (v - my)) AS sxy, sum(tc * tc) AS sxx
        FROM c GROUP BY 1, 2, 3
    ),
    sl AS (
        SELECT event_type, mx, my,
               CASE WHEN sxx > 0 THEN sxy / sxx ELSE 0.0 END AS b
        FROM s
    ),
    r AS (
        SELECT event_type, v, t,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d DESC)
                   AS rn
        FROM dn
    ),
    lastv AS (
        SELECT event_type,
               max(CASE WHEN rn = 1 THEN v END) AS y_last,
               max(CASE WHEN rn = 1 THEN t END) AS t_last
        FROM r GROUP BY 1
    ),
    f AS (  -- engine future grid extends from the GLOBAL max date
        SELECT sl.event_type, sl.mx, sl.my, sl.b,
               lastv.y_last, lastv.t_last, fd.d,
               CAST(epoch_us(fd.d) // 86400000000 AS DOUBLE) AS tf
        FROM sl JOIN lastv USING (event_type)
        CROSS JOIN (
            SELECT unnest(generate_series(maxd + INTERVAL 1 DAY,
                                          maxd + INTERVAL 7 DAY,
                                          INTERVAL 1 DAY)) AS d
            FROM (SELECT max(d) AS maxd FROM daily)
        ) fd
    )
    SELECT event_type, d,
           round(0.5 * (my + b * (tf - mx))
                 + 0.5 * (2 * y_last - (my + b * (t_last - mx))), 6)
               AS predicted_v
    FROM f
"""


@entry("exact_dedup_keep_best_documents",
       sql=lambda: SQL_EXACT_DEDUP_KEEP_BEST)
def q_exact_dedup_keep_best_documents(sf_dir: str) -> pd.DataFrame:
    """Exact dedup with the preferred-provenance keep rule: per distinct
    text keep the copy from the alphabetically-first source (doc_id as
    tie-break) instead of the plain min-id — the crawl-pipeline policy for
    choosing which duplicate survives. Oracle: ROW_NUMBER over
    (digest ORDER BY source, doc_id)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    out = dedup.exact_dedup_keep_best(docs, [("source", True)]).to_pandas()
    return out[["doc_id", "source"]].astype({"doc_id": "int64"}) \
        .sort_values("doc_id").reset_index(drop=True)


SQL_EXACT_DEDUP_KEEP_BEST = """
    WITH r AS (
        SELECT doc_id, source,
               ROW_NUMBER() OVER (PARTITION BY md5(text)
                                  ORDER BY source ASC, doc_id ASC) AS rn
        FROM documents
    )
    SELECT doc_id, source FROM r WHERE rn = 1 ORDER BY doc_id
"""


@entry("croston_sba_gate_daily", sql=lambda: SQL_CROSTON_SBA_GATE)
def q_croston_sba_gate_daily(sf_dir: str) -> pd.DataFrame:
    """SBA-debiased Croston forecast (Syntetos-Boylan Approximation 2005:
    Croston × (1 − α/2)), gated through the same α=1 closed form as
    ``croston_gate_daily`` — at α=1 the factor is exactly 0.5, so the SQL
    oracle is half the Croston gate. Exercises the shared-fit /
    scorer-only-variant estimator registration."""
    from forecastframe_ray.pipelines.search import (fit_croston,
                                                    score_croston_sba)

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def mask(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        dow = b["d"].dt.dayofweek.to_numpy()
        b["v"] = np.where(np.isin(dow, (0, 3, 5)),
                          b["v"].to_numpy(np.float64), 0.0)
        return b

    masked = daily.map_batches(mask, batch_format="pandas").materialize()
    state = fit_croston(masked, ["event_type"], "d", "v", alpha=1.0)
    one = masked.map_batches(
        lambda b: b.drop_duplicates("event_type")[["event_type", "d"]],
        batch_format="pandas")
    scored = score_croston_sba(one, state, ["event_type"], "d", "v",
                               "sba_forecast").to_pandas()
    out = scored.drop_duplicates("event_type")[
        ["event_type", "sba_forecast"]]
    out = _round(out, ["sba_forecast"], 6)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_CROSTON_SBA_GATE = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (
        SELECT event_type, d,
               CASE WHEN (isodow(d) - 1) IN (0, 3, 5) THEN v ELSE 0 END AS v
        FROM daily
    ),
    start AS (SELECT event_type, min(d) AS d0 FROM m GROUP BY 1),
    nz AS (
        SELECT event_type, d, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d DESC)
                   AS rn
        FROM m WHERE v <> 0
    ),
    lastnz AS (
        SELECT event_type,
               max(CASE WHEN rn = 1 THEN v END) AS q_last,
               max(CASE WHEN rn = 1 THEN d END) AS t1,
               max(CASE WHEN rn = 2 THEN d END) AS t2
        FROM nz GROUP BY 1
    )
    SELECT s.event_type,
           COALESCE(round(0.5 * l.q_last / CASE
               WHEN l.t2 IS NOT NULL THEN datediff('day', l.t2, l.t1)
               ELSE datediff('day', s.d0, l.t1) + 1 END, 6), 0.0)
               AS sba_forecast
    FROM start s LEFT JOIN lastnz l USING (event_type)
"""


@entry("seasonal_naive_forecast_daily",
       sql=lambda: SQL_SEASONAL_NAIVE_FORECAST)
def q_seasonal_naive_forecast_daily(sf_dir: str) -> pd.DataFrame:
    """Seasonal-naive baseline forecast (FPP3 §5.2), EXACT oracle — no
    degenerate gate needed: the 7-day-horizon forecast is the most recent
    same-phase (same weekday) observation per series, reproduced in SQL by
    a ROW_NUMBER over (series, day_number mod 7)."""
    fr = _daily_frame(sf_dir)
    preds = fr.predict(periods=7, freq="D", estimator="seasonal_naive",
                       period=7)
    df = preds.to_pandas()[["event_type", "d", "predicted_v"]]
    df = _round(df, ["predicted_v"], 6)
    df = _fill(df, ["predicted_v"])
    return df.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_SEASONAL_NAIVE_FORECAST = f"""
    WITH daily AS ({_DAILY_SQL}),
    dn AS (
        SELECT event_type, d, v,
               epoch_us(d) // 86400000000 AS t
        FROM daily
    ),
    r AS (
        SELECT event_type, t % 7 AS phase, v,
               ROW_NUMBER() OVER (PARTITION BY event_type, t % 7
                                  ORDER BY t DESC) AS rn
        FROM dn
    ),
    ph AS (SELECT event_type, phase, v FROM r WHERE rn = 1),
    series AS (SELECT DISTINCT event_type FROM daily),
    f AS (  -- engine future grid extends from the GLOBAL max date
        SELECT s.event_type, fd.d,
               (epoch_us(fd.d) // 86400000000) % 7 AS phase
        FROM series s CROSS JOIN (
            SELECT unnest(generate_series(maxd + INTERVAL 1 DAY,
                                          maxd + INTERVAL 7 DAY,
                                          INTERVAL 1 DAY)) AS d
            FROM (SELECT max(d) AS maxd FROM daily)
        ) fd
    )
    SELECT f.event_type, f.d,
           COALESCE(round(ph.v, 6), {NULLF}) AS predicted_v
    FROM f LEFT JOIN ph ON f.event_type = ph.event_type
                       AND f.phase = ph.phase
"""


@entry("drift_forecast_daily", sql=lambda: SQL_DRIFT_FORECAST)
def q_drift_forecast_daily(sf_dir: str) -> pd.DataFrame:
    """Drift-method baseline forecast (FPP3 §5.2), EXACT oracle:
    ŷ(t) = y_last + (t − t_last)·(y_last − y_first)/(t_last − t_first)
    per series, i.e. the line through the first and last observations."""
    fr = _daily_frame(sf_dir)
    preds = fr.predict(periods=7, freq="D", estimator="drift")
    df = preds.to_pandas()[["event_type", "d", "predicted_v"]]
    df = _round(df, ["predicted_v"], 6)
    return df.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_DRIFT_FORECAST = f"""
    WITH daily AS ({_DAILY_SQL}),
    dn AS (
        SELECT event_type, d, v,
               CAST(epoch_us(d) // 86400000000 AS DOUBLE) AS t
        FROM daily
    ),
    r AS (
        SELECT event_type, v, t,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY t ASC)
                   AS ra,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY t DESC)
                   AS rd
        FROM dn
    ),
    ends AS (
        SELECT event_type,
               max(CASE WHEN ra = 1 THEN v END) AS y0,
               max(CASE WHEN ra = 1 THEN t END) AS t0,
               max(CASE WHEN rd = 1 THEN v END) AS y1,
               max(CASE WHEN rd = 1 THEN t END) AS t1
        FROM r GROUP BY 1
    ),
    f AS (
        SELECT e.*, fd.d,
               CAST(epoch_us(fd.d) // 86400000000 AS DOUBLE) AS tf
        FROM ends e CROSS JOIN (
            SELECT unnest(generate_series(maxd + INTERVAL 1 DAY,
                                          maxd + INTERVAL 7 DAY,
                                          INTERVAL 1 DAY)) AS d
            FROM (SELECT max(d) AS maxd FROM daily)
        ) fd
    )
    SELECT event_type, d,
           round(y1 + (tf - t1) * CASE WHEN t1 > t0
                 THEN (y1 - y0) / (t1 - t0) ELSE 0.0 END, 6)
               AS predicted_v
    FROM f
"""


@entry("zipf_fit_documents", sql=lambda: SQL_ZIPF_FIT)
def q_zipf_fit_documents(sf_dir: str) -> pd.DataFrame:
    """Zipf power-law fit over the corpus vocabulary (Zipf 1935 — public;
    the classic sanity diagnostic that a text corpus is natural-language-
    like): OLS slope of log(count) on log(rank) over the top-200 tokens,
    plus R². The vocabulary reduce is distributed (combiner + coarse
    merge); the 200-row fit is centered driver algebra reproduced
    term-for-term in SQL."""
    from forecastframe_ray.pipelines.corpus import token_vocabulary

    docs = _read(sf_dir, "documents", ["text"])
    vocab = token_vocabulary(docs, top_k=200, num_partitions=_NP)
    y = np.log(vocab["n"].to_numpy(np.float64))
    x = np.log(np.arange(1, len(vocab) + 1, dtype=np.float64))
    xc, yc = x - x.mean(), y - y.mean()
    sxx, syy, sxy = (xc * xc).sum(), (yc * yc).sum(), (xc * yc).sum()
    slope = sxy / sxx
    r2 = (sxy * sxy) / (sxx * syy)
    return pd.DataFrame({"n_tokens": pd.array([len(vocab)], dtype="int64"),
                         "zipf_slope": [np.round(slope, 6)],
                         "r2": [np.round(r2, 6)]})


SQL_ZIPF_FIT = r"""
    WITH tok AS (
      SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                                x -> x <> '')) AS token
      FROM documents
    ),
    vocab AS (
      SELECT token, CAST(count(*) AS BIGINT) AS n
      FROM tok GROUP BY 1
      ORDER BY n DESC, token LIMIT 200
    ),
    rk AS (
      SELECT ln(CAST(ROW_NUMBER() OVER (ORDER BY n DESC, token) AS DOUBLE))
                 AS x,
             ln(CAST(n AS DOUBLE)) AS y
      FROM vocab
    ),
    m AS (SELECT avg(x) AS mx, avg(y) AS my, count(*) AS k FROM rk),
    s AS (
      SELECT sum((x - mx) * (y - my)) AS sxy,
             sum((x - mx) * (x - mx)) AS sxx,
             sum((y - my) * (y - my)) AS syy,
             max(k) AS k
      FROM rk, m
    )
    SELECT CAST(k AS BIGINT) AS n_tokens,
           round(sxy / sxx, 6) AS zipf_slope,
           round(sxy * sxy / (sxx * syy), 6) AS r2
    FROM s
"""


@entry("baseline_leaderboard_daily", sql=lambda: SQL_BASELINE_LEADERBOARD)
def q_baseline_leaderboard_daily(sf_dir: str) -> pd.DataFrame:
    """Model-selection capstone with a FULL SQL oracle: hold out the last
    7 days of each daily series, fit the three exactly-reproducible
    baseline estimators (per-weekday seasonal mean, seasonal naive,
    drift) on the train window only, score the holdout and rank by RMSE —
    the leaderboard a reference user gets from ``cross_validate`` across
    models (model.py:1356+), restricted to the estimators whose entire
    fit+score is SQL-expressible so the driver verifies every number."""
    from forecastframe_ray.functions.metrics import error_summary
    from forecastframe_ray.pipelines import search

    daily = _bucket_series(sf_dir, DAY_US, "d").materialize()
    split = daily.aggregate(ray.data.aggregate.Max("d"))["max(d)"] \
        - pd.Timedelta(days=7)
    train = daily.map_batches(lambda b: b[b["d"] <= split],
                              batch_format="pandas").materialize()
    test = daily.map_batches(lambda b: b[b["d"] > split],
                             batch_format="pandas").materialize()

    rows = []
    for name, params in [("seasonal_mean", {"season": "dow"}),
                         ("seasonal_naive", {"period": 7}),
                         ("drift", {})]:
        fit_fn, score_fn, _ = search.ESTIMATORS[name]
        state = fit_fn(train, ["event_type"], "d", "v", **params)
        scored = score_fn(test, state, ["event_type"], "d", "v", "pred")
        summ = error_summary(scored, "v", "pred")
        rows.append((name, int(summ["n"].iloc[0]),
                     np.round(float(summ["RMSE"].iloc[0]), 4)))
    out = pd.DataFrame(rows, columns=["estimator", "n", "rmse"])
    return out.sort_values("rmse").reset_index(drop=True)


SQL_BASELINE_LEADERBOARD = f"""
    WITH daily AS ({_DAILY_SQL}),
    split AS (SELECT max(d) - INTERVAL 7 DAY AS sd FROM daily),
    train AS (SELECT daily.* FROM daily, split WHERE d <= sd),
    test AS (SELECT daily.* FROM daily, split WHERE d > sd),
    -- seasonal mean: per-(series, weekday) train mean
    sm AS (
        SELECT event_type, isodow(d) - 1 AS dow, avg(v) AS pred
        FROM train GROUP BY 1, 2
    ),
    sm_err AS (
        SELECT t.v, sm.pred FROM test t
        JOIN sm ON t.event_type = sm.event_type
               AND isodow(t.d) - 1 = sm.dow
    ),
    -- seasonal naive: latest train value per (series, day_number mod 7)
    dn AS (SELECT event_type, d, v,
                  epoch_us(d) // 86400000000 AS t FROM train),
    snr AS (
        SELECT event_type, t % 7 AS phase, v,
               ROW_NUMBER() OVER (PARTITION BY event_type, t % 7
                                  ORDER BY t DESC) AS rn
        FROM dn
    ),
    sn AS (SELECT event_type, phase, v AS pred FROM snr WHERE rn = 1),
    sn_err AS (
        SELECT t.v, sn.pred FROM test t
        JOIN sn ON t.event_type = sn.event_type
               AND (epoch_us(t.d) // 86400000000) % 7 = sn.phase
    ),
    -- drift: line through first/last train observation
    dr AS (
        SELECT event_type, v,
               CAST(epoch_us(d) // 86400000000 AS DOUBLE) AS t,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d ASC)
                   AS ra,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d DESC)
                   AS rd
        FROM train
    ),
    ends AS (
        SELECT event_type,
               max(CASE WHEN ra = 1 THEN v END) AS y0,
               max(CASE WHEN ra = 1 THEN t END) AS t0,
               max(CASE WHEN rd = 1 THEN v END) AS y1,
               max(CASE WHEN rd = 1 THEN t END) AS t1
        FROM dr GROUP BY 1
    ),
    dr_err AS (
        SELECT t.v,
               e.y1 + (CAST(epoch_us(t.d) // 86400000000 AS DOUBLE) - e.t1)
                 * CASE WHEN e.t1 > e.t0
                        THEN (e.y1 - e.y0) / (e.t1 - e.t0) ELSE 0.0 END
                   AS pred
        FROM test t JOIN ends e USING (event_type)
    ),
    all_err AS (
        SELECT 'seasonal_mean' AS estimator, v, pred FROM sm_err
        UNION ALL
        SELECT 'seasonal_naive', v, pred FROM sn_err
        UNION ALL
        SELECT 'drift', v, pred FROM dr_err
    )
    SELECT estimator, CAST(count(*) AS BIGINT) AS n,
           round(sqrt(avg((v - pred) * (v - pred))), 4) AS rmse
    FROM all_err GROUP BY 1 ORDER BY rmse
"""


@entry("ses_naive_gate_daily", sql=lambda: SQL_SES_NAIVE_GATE)
def q_ses_naive_gate_daily(sf_dir: str) -> pd.DataFrame:
    """SES forecast, oracle-GATED through the α=1 degenerate form: the
    level collapses to the last observation, i.e. the naive flat forecast
    per series — exactly SQL-expressible. General α is hypothesis-pinned
    against a direct numpy recursion."""
    fr = _daily_frame(sf_dir)
    preds = fr.predict(periods=7, freq="D", estimator="ses", alpha=1.0)
    df = preds.to_pandas()[["event_type", "d", "predicted_v"]]
    df = _round(df, ["predicted_v"], 6)
    return df.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_SES_NAIVE_GATE = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d DESC)
                   AS rn
        FROM daily
    ),
    lastv AS (SELECT event_type, v FROM r WHERE rn = 1),
    f AS (
        SELECT l.event_type, l.v, fd.d
        FROM lastv l CROSS JOIN (
            SELECT unnest(generate_series(maxd + INTERVAL 1 DAY,
                                          maxd + INTERVAL 7 DAY,
                                          INTERVAL 1 DAY)) AS d
            FROM (SELECT max(d) AS maxd FROM daily)
        ) fd
    )
    SELECT event_type, d, round(v, 6) AS predicted_v FROM f
"""


@entry("heaps_fit_documents", sql=lambda: SQL_HEAPS_FIT)
def q_heaps_fit_documents(sf_dir: str) -> pd.DataFrame:
    """Heaps-law fit (Heaps 1978 — public; the vocabulary-growth twin of
    the Zipf check): OLS of log(cumulative distinct tokens) on
    log(cumulative total tokens) across the ten doc-id deciles — β in
    V(n) ∝ n^β, with R². Reuses the distributed first-introduction reduce
    of ``vocab_growth_documents`` plus one per-decile token-count
    aggregate; the 10-point fit is centered driver algebra mirrored in
    SQL."""
    from forecastframe_ray.stages.agg import hash_aggregate

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    hi = pq.read_table(f"{sf_dir}/documents.parquet",
                       columns=["doc_id"]).column("doc_id")
    import pyarrow.compute as pc
    lo_id, hi_id = pc.min(hi).as_py(), pc.max(hi).as_py()
    span = max(hi_id - lo_id + 1, 1)

    def decile_of(d: np.ndarray) -> np.ndarray:
        return np.minimum((d - lo_id) * 10 // span, 9).astype(np.int64)

    def toks(b: pd.DataFrame) -> pd.DataFrame:
        ex = b["text"].str.split().explode().dropna()
        g = pd.DataFrame({
            "token": ex.to_numpy(),
            "doc_id": b["doc_id"].to_numpy()[ex.index.to_numpy()],
        })
        return g.groupby("token", sort=False, as_index=False)["doc_id"].min()

    first = hash_aggregate(docs.map_batches(toks, batch_format="pandas"),
                           ["token"], {"first_doc": ("doc_id", "min")},
                           num_partitions=_NP)
    new_tok = hash_aggregate(first.map_batches(
        lambda b: pd.DataFrame({"decile": decile_of(
            b["first_doc"].to_numpy(np.int64)),
            "one": np.ones(len(b), dtype=np.int64)}),
        batch_format="pandas"),
        ["decile"], {"new_tokens": ("one", "sum")},
        num_partitions=4).to_pandas()

    def counts(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "decile": decile_of(b["doc_id"].to_numpy(np.int64)),
            "n_tok": b["text"].fillna("").str.count(r"\S+")
            .to_numpy(np.int64)})

    tok_per = hash_aggregate(docs.map_batches(counts, batch_format="pandas"),
                             ["decile"], {"tokens": ("n_tok", "sum")},
                             num_partitions=4).to_pandas()

    # every decile has token mass; deciles introducing NO new vocabulary
    # still belong on the curve (left join + zero-fill) — a tiny synthetic
    # vocabulary otherwise collapses the fit to one point
    m = tok_per.merge(new_tok, on="decile", how="left") \
        .fillna({"new_tokens": 0}).sort_values("decile")
    x = np.log(np.cumsum(m["tokens"].to_numpy(np.float64)))
    y = np.log(np.cumsum(m["new_tokens"].to_numpy(np.float64)))
    xc, yc = x - x.mean(), y - y.mean()
    sxx, syy, sxy = (xc * xc).sum(), (yc * yc).sum(), (xc * yc).sum()
    # epsilon, not > 0: a constant-y fit (all vocabulary introduced in
    # decile 0) leaves syy as a sum of ~1e-16 centering residuals whose
    # exact zero-ness depends on summation order — both numpy and DuckDB
    # are order-flaky there; 1e-12 is far below any real log-log signal
    beta = np.round(sxy / sxx, 6) + 0.0 if sxx > 1e-12 else np.nan
    r2 = np.round(sxy * sxy / (sxx * syy), 6) + 0.0 \
        if sxx > 1e-12 and syy > 1e-12 else np.nan
    out = pd.DataFrame({
        "n_points": pd.array([len(m)], dtype="int64"),
        "heaps_beta": [beta], "r2": [r2]})
    return _fill(out, ["heaps_beta", "r2"])


SQL_HEAPS_FIT = rf"""
    WITH bounds AS (
        SELECT min(doc_id) AS lo,
               greatest(max(doc_id) - min(doc_id) + 1, 1) AS span
        FROM documents
    ),
    first AS (
        SELECT x AS token, min(doc_id) AS first_doc
        FROM (SELECT doc_id,
                     unnest(list_filter(string_split_regex(text, '\s+'),
                                        t -> t <> '')) AS x
              FROM documents)
        GROUP BY 1
    ),
    nt AS (
        SELECT CAST(least((first_doc - bounds.lo) * 10 // bounds.span, 9)
                    AS BIGINT) AS decile,
               CAST(count(*) AS BIGINT) AS new_tokens
        FROM first, bounds GROUP BY 1
    ),
    tp AS (
        SELECT CAST(least((doc_id - bounds.lo) * 10 // bounds.span, 9)
                    AS BIGINT) AS decile,
               CAST(sum(length(regexp_extract_all(text, '\S+')))
                    AS BIGINT) AS tokens
        FROM documents, bounds GROUP BY 1
    ),
    cum AS (
        SELECT tp.decile,
               ln(CAST(sum(tp.tokens) OVER w AS DOUBLE)) AS x,
               ln(CAST(sum(COALESCE(nt.new_tokens, 0)) OVER w AS DOUBLE))
                   AS y
        FROM tp LEFT JOIN nt USING (decile)
        WINDOW w AS (ORDER BY tp.decile
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
    ),
    m AS (SELECT avg(x) AS mx, avg(y) AS my, count(*) AS k FROM cum),
    s AS (
        SELECT sum((x - mx) * (y - my)) AS sxy,
               sum((x - mx) * (x - mx)) AS sxx,
               sum((y - my) * (y - my)) AS syy, max(k) AS k
        FROM cum, m
    )
    SELECT CAST(k AS BIGINT) AS n_points,
           COALESCE(round(CASE WHEN sxx > 1e-12
                          THEN sxy / sxx END, 6) + 0.0,
                    {NULLF}) AS heaps_beta,
           COALESCE(round(CASE WHEN sxx > 1e-12 AND syy > 1e-12
                          THEN sxy * sxy / (sxx * syy) END, 6) + 0.0,
                    {NULLF}) AS r2
    FROM s
"""


@entry("trimmed_mean_events", sql=lambda: SQL_TRIMMED_MEAN_EVENTS)
def q_trimmed_mean_events(sf_dir: str) -> pd.DataFrame:
    """Per-type 10-90% trimmed mean of the raw event values — the robust
    location statistic (drop each group's outer deciles, then mean). The
    decile bounds come from the engine's range-partition order-statistics
    plan (:func:`interpret.grouped_quantiles` — constant driver traffic);
    the trim itself is one broadcast-bounds masked partial-sum pass."""
    from forecastframe_ray.pipelines.interpret import grouped_quantiles

    ev = _read(sf_dir, "events", ["event_type", "value"])
    qb = grouped_quantiles(ev, ["event_type"], "value", qs=(0.1, 0.9))
    lo = dict(zip(qb["event_type"], qb["q10"]))
    hi = dict(zip(qb["event_type"], qb["q90"]))

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        v = b["value"].to_numpy(np.float64)
        l = b["event_type"].map(lo).to_numpy(np.float64)
        h = b["event_type"].map(hi).to_numpy(np.float64)
        keep = (v >= l) & (v <= h)
        g = pd.DataFrame({"event_type": b["event_type"][keep],
                          "__v": v[keep]})
        return g

    out = hash_aggregate(ev.map_batches(partials, batch_format="pandas"),
                         ["event_type"],
                         {"n_kept": ("__v", "size"),
                          "trimmed_mean": ("__v", "mean")},
                         num_partitions=4).to_pandas()
    out["n_kept"] = out["n_kept"].astype("int64")
    out = _round(out, ["trimmed_mean"], 6)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_TRIMMED_MEAN_EVENTS = """
    WITH b AS (
        SELECT event_type,
               percentile_cont(0.1) WITHIN GROUP (ORDER BY value) AS lo,
               percentile_cont(0.9) WITHIN GROUP (ORDER BY value) AS hi
        FROM events GROUP BY 1
    )
    SELECT e.event_type, CAST(count(*) AS BIGINT) AS n_kept,
           round(avg(e.value), 6) AS trimmed_mean
    FROM events e JOIN b USING (event_type)
    WHERE e.value >= b.lo AND e.value <= b.hi
    GROUP BY 1
"""


@entry("rolling_skew_daily", sql=lambda: SQL_ROLLING_SKEW_DAILY)
def q_rolling_skew_daily(sf_dir: str) -> pd.DataFrame:
    """W1 rolling third-moment shape statistic: 7-day lag-1 rolling sample
    skewness (adjusted Fisher-Pearson — the pandas ``rolling().skew()``
    convention DuckDB's ``skewness`` shares) per series. Windows with
    fewer than 3 points are NULL on both sides."""
    fr = _daily_frame(sf_dir).calc_statistical_features(
        "v", windows=7, aggregations=["skew"], lag=1, min_periods=1)
    col = "v_skew_roll7_lag1"
    df = fr.to_pandas()[["event_type", "d", "v", col]]
    df = _round(df, [col], 6)
    return _fill(df, [col])


SQL_ROLLING_SKEW_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v, epoch_us(d) // {DAY_US} AS dn,
               LAG(v, 1) OVER (PARTITION BY event_type ORDER BY d) AS lv
        FROM daily
    )
    SELECT event_type, d, v,
           COALESCE(round(CASE WHEN count(lv) OVER w >= 3
                          THEN skewness(lv) OVER w END, 6), {NULLF})
               AS v_skew_roll7_lag1
    FROM l WINDOW w AS (PARTITION BY event_type ORDER BY dn
                        RANGE BETWEEN 6 PRECEDING AND CURRENT ROW)
"""


@entry("rolling_corr_market_daily", sql=lambda: SQL_ROLLING_CORR_MARKET)
def q_rolling_corr_market_daily(sf_dir: str) -> pd.DataFrame:
    """Rolling co-movement with the market: per series, the 7-day lag-1
    rolling correlation between its daily value and the all-series daily
    total — the rolling-beta-style feature a hierarchical forecaster reads
    per leaf. Day totals reduce to day cardinality (tiny broadcast); the
    windowed correlation is a per-series pandas kernel mirrored by
    DuckDB's windowed corr (NULL for <2 points / zero variance)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d").materialize()
    totals = hash_aggregate(daily, ["d"], {"tot": ("v", "sum")},
                            num_partitions=4).to_pandas()
    tot_map = dict(zip(totals["d"], totals["tot"]))

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            lv = g["v"].shift(1)
            lt = g["d"].map(tot_map).shift(1)
            corr = lv.rolling(7, min_periods=2).corr(lt)
            outs.append(pd.DataFrame({
                "event_type": g["event_type"], "d": g["d"], "v": g["v"],
                "v_corr_market_roll7_lag1":
                    np.round(corr.to_numpy(np.float64), 6) + 0.0,
            }))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v",
                                  "v_corr_market_roll7_lag1"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = _fill(out, ["v_corr_market_roll7_lag1"])
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_ROLLING_CORR_MARKET = f"""
    WITH daily AS ({_DAILY_SQL}),
    tot AS (SELECT d, sum(v) AS tot FROM daily GROUP BY 1),
    l AS (
        SELECT daily.event_type, daily.d, daily.v,
               epoch_us(daily.d) // {DAY_US} AS dn,
               LAG(daily.v, 1) OVER w0 AS lv,
               LAG(tot.tot, 1) OVER w0 AS lt
        FROM daily JOIN tot USING (d)
        WINDOW w0 AS (PARTITION BY daily.event_type ORDER BY daily.d)
    )
    SELECT event_type, d, v,
           COALESCE(round(corr(lv, lt) OVER w, 6) + 0.0, {NULLF})
               AS v_corr_market_roll7_lag1
    FROM l WINDOW w AS (PARTITION BY event_type ORDER BY dn
                        RANGE BETWEEN 6 PRECEDING AND CURRENT ROW)
"""


@entry("geo_harmonic_mean_lineitem", sql=lambda: SQL_GEO_HARMONIC_MEAN)
def q_geo_harmonic_mean_lineitem(sf_dir: str) -> pd.DataFrame:
    """Geometric and harmonic means of quantity per return flag — the two
    classical non-arithmetic means, each an ALGEBRAIC reduce (Σln x and
    Σ1/x respectively) so they cascade like every other tier carry.
    Strictly positive domain (lineitem quantities)."""
    li = _read(sf_dir, "lineitem", ["l_returnflag", "l_quantity"])

    def parts(b: pd.DataFrame) -> pd.DataFrame:
        q = b["l_quantity"].to_numpy(np.float64)
        return pd.DataFrame({"l_returnflag": b["l_returnflag"],
                             "__ln": np.log(q), "__inv": 1.0 / q,
                             "__one": np.ones(len(b), dtype=np.int64)})

    out = hash_aggregate(li.map_batches(parts, batch_format="pandas"),
                         ["l_returnflag"],
                         {"n": ("__one", "sum"), "sln": ("__ln", "sum"),
                          "sinv": ("__inv", "sum")},
                         num_partitions=4).to_pandas()
    n = out["n"].to_numpy(np.float64)
    out["geo_mean"] = np.round(np.exp(out["sln"].to_numpy(np.float64) / n), 6)
    out["harm_mean"] = np.round(n / out["sinv"].to_numpy(np.float64), 6)
    out["n"] = out["n"].astype("int64")
    return out[["l_returnflag", "n", "geo_mean", "harm_mean"]] \
        .sort_values("l_returnflag").reset_index(drop=True)


SQL_GEO_HARMONIC_MEAN = """
    SELECT l_returnflag, CAST(count(*) AS BIGINT) AS n,
           round(exp(sum(ln(l_quantity)) / count(*)), 6) AS geo_mean,
           round(count(*) / sum(1.0 / l_quantity), 6) AS harm_mean
    FROM lineitem GROUP BY 1
"""


@entry("twap_daily_events", sql=lambda: SQL_TWAP_DAILY)
def q_twap_daily_events(sf_dir: str) -> pd.DataFrame:
    """Time-weighted average per (series, day) over the IRREGULAR event
    stream — the TimescaleDB ``time_weight('LOCF')`` continuous-aggregate
    shape: each observation holds until the next one (or the day end), and
    the day's average weighs values by held seconds. One keyed co-located
    kernel (vectorized diff of the sorted in-day timestamps); the oracle
    is LEAD() + day-end COALESCE. Days whose observations all share one
    timestamp fall back to the plain mean of the simultaneous values on
    both sides (zero-weight guard)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def day_fn(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["d"] = b["ts"].dt.floor("D")
        return b

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for (et, d), g in part.groupby(["event_type", "d"], sort=False):
            g = g.sort_values(["ts", "value"], kind="mergesort")
            t = g["ts"].astype("datetime64[us]").astype("int64") \
                .to_numpy()
            v = g["value"].to_numpy(np.float64)
            day_end = (d.value // 1000) + 86_400_000_000  # ns → us
            w = np.diff(np.concatenate([t, [day_end]])).astype(np.float64)
            tw = float((v * w).sum())
            ws = float(w.sum())
            twap = tw / ws if ws > 0 else float(v.mean())
            rows.append((et, d, len(v), np.round(twap, 6)))
        return pd.DataFrame(rows, columns=["event_type", "d", "n", "twap"])

    out = keyed_map_partitions(
        ev.map_batches(day_fn, batch_format="pandas"),
        ["event_type"], kernel, num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_TWAP_DAILY = """
    WITH e AS (
        SELECT event_type, date_trunc('day', ts) AS d, ts, value
        FROM events
    ),
    w AS (
        SELECT event_type, d, value,
               epoch_us(COALESCE(LEAD(ts) OVER (
                            PARTITION BY event_type, d
                            ORDER BY ts, value),
                        d + INTERVAL 1 DAY)) - epoch_us(ts) AS held_us
        FROM e
    )
    SELECT event_type, d, CAST(count(*) AS BIGINT) AS n,
           round(CASE WHEN sum(held_us) > 0
                      THEN sum(value * held_us) / sum(held_us)
                      ELSE avg(value) END, 6) AS twap
    FROM w GROUP BY 1, 2
"""


@entry("counter_increase_users", sql=lambda: SQL_COUNTER_INCREASE)
def q_counter_increase_users(sf_dir: str) -> pd.DataFrame:
    """Counter-agg ``increase()`` per user (the Prometheus/TimescaleDB
    counter-reset rule — public): reading the event values as a counter
    sampled over time, each step contributes ``v_i − v_{i−1}`` when
    monotone and ``v_i`` after a reset (drop ⇒ the counter restarted at
    zero). One keyed co-located kernel (vectorized diff + reset mask);
    oracle is LAG() + CASE. Ties on ts are ordered by value on both
    sides so the scan order is deterministic."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for uid, g in part.groupby("user_id", sort=False):
            g = g.sort_values(["ts", "value"], kind="mergesort")
            v = g["value"].to_numpy(np.float64)
            d = np.diff(v)
            inc = float(np.where(d >= 0, d, v[1:]).sum())
            rows.append((uid, len(v), np.round(inc, 6),
                         int((d < 0).sum())))
        return pd.DataFrame(rows, columns=["user_id", "n", "increase",
                                           "n_resets"])

    out = keyed_map_partitions(ev, ["user_id"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"user_id": "int64", "n": "int64",
                      "n_resets": "int64"})
    return out.sort_values("user_id").reset_index(drop=True)


SQL_COUNTER_INCREASE = """
    WITH l AS (
        SELECT user_id, value,
               LAG(value) OVER (PARTITION BY user_id
                                ORDER BY ts, value) AS pv
        FROM events
    )
    SELECT user_id, CAST(count(*) AS BIGINT) AS n,
           round(COALESCE(sum(CASE WHEN pv IS NULL THEN 0
                                   WHEN value >= pv THEN value - pv
                                   ELSE value END), 0), 6) AS increase,
           CAST(COALESCE(sum(CASE WHEN value < pv THEN 1 END), 0)
                AS BIGINT) AS n_resets
    FROM l GROUP BY 1
"""
