"""Oracled query catalog — part ``text``."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from forecastframe_ray.stages.agg import hash_aggregate

from forecastframe_ray.functions import metrics
from forecastframe_ray.pipelines import dedup
from forecastframe_ray.stages.join import broadcast_semi_join
from forecastframe_ray.pipelines.queries.spine import (
    DAY_US,
    HOUR_US,
    NULLF,
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
    the big-big orders⋈lineitem edge is the distributed hash join; top-k
    is a per-batch partial + tiny driver merge (never a global sort).
    Round-then-rank (revenue 6dp desc, orderkey asc) keeps the cutoff
    deterministic across engines."""
    from forecastframe_ray.stages.join import broadcast_semi_join, hash_join

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
# rolling p90
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
    Croston × (1 − α/2)), gated through the α=1 closed form of plain
    Croston — at α=1 the factor is exactly 0.5, so the SQL oracle is half
    the Croston forecast. Exercises the shared-fit /
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
