"""Oracled query catalog — part ``stats`` (contiguous split of the former queries.py monolith; order preserved)."""

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
    _DAILY_SQL,
    _HOURLY_SQL,
    _NP,
    _bucket_series,
    _fill,
    _read,
)
from forecastframe_ray.pipelines.queries.windows import (  # noqa: F401
    _PAGE_EPOCH_US,
    _PAGE_SPAN_US,
    _PAGE_STRIDE,
)
from forecastframe_ray.pipelines.queries import entry



@entry("sentence_stats_documents", sql=lambda: SQL_SENTENCE_STATS)
def q_sentence_stats_documents(sf_dir: str) -> pd.DataFrame:
    """Per-doc sentence segmentation stats (split on [.!?]+ runs, blank
    segments dropped): sentence count, mean and max whitespace-token
    length — the Gopher-family readability signals at sentence grain.
    Fully per-row parallel."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def kernel(b: pd.DataFrame) -> pd.DataFrame:
        ex = b[["doc_id"]].copy()
        ex["sent"] = b["text"].str.split(r"[.!?]+", regex=True)
        ex = ex.explode("sent")
        ex["sent"] = ex["sent"].str.strip()
        ex = ex[ex["sent"].notna() & (ex["sent"] != "")]
        ex["nw"] = ex["sent"].str.split().str.len()
        g = ex.groupby("doc_id", sort=False)["nw"]
        agg = pd.DataFrame({"ns": g.size(), "mw": g.mean(),
                            "mx": g.max()}).reset_index()
        out = b[["doc_id"]].merge(agg, on="doc_id", how="left")
        return pd.DataFrame({
            "doc_id": out["doc_id"],
            "n_sentences": out["ns"].fillna(0).astype(np.int64),
            "mean_words": np.where(out["ns"].notna(),
                                   np.round(out["mw"].to_numpy(np.float64),
                                            6) + 0.0, NULLF),
            "max_words": out["mx"].fillna(0).astype(np.int64),
        })

    out = docs.map_batches(kernel, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_SENTENCE_STATS = rf"""
    WITH s AS (
        SELECT doc_id, trim(x) AS sent
        FROM (SELECT doc_id,
                     unnest(string_split_regex(text, '[.!?]+')) AS x
              FROM documents)
        WHERE trim(x) <> ''
    ),
    w AS (
        SELECT doc_id,
               len(list_filter(string_split_regex(sent, '\s+'),
                               y -> y <> '')) AS nw
        FROM s
    ),
    a AS (SELECT doc_id, count(*) AS ns, avg(nw) AS mw, max(nw) AS mx
          FROM w GROUP BY 1)
    SELECT d.doc_id,
           CAST(COALESCE(a.ns, 0) AS BIGINT) AS n_sentences,
           COALESCE(round(a.mw, 6) + 0.0, {NULLF}) AS mean_words,
           CAST(COALESCE(a.mx, 0) AS BIGINT) AS max_words
    FROM documents d LEFT JOIN a USING (doc_id)
    ORDER BY d.doc_id
"""


# ---------------------------------------------------------------------------
# days since running peak / Page-Hinkley drift / Hill tail index
# ---------------------------------------------------------------------------

@entry("days_since_peak_daily", sql=lambda: SQL_DAYS_SINCE_PEAK)
def q_days_since_peak_daily(sf_dir: str) -> pd.DataFrame:
    """Age of the running maximum per series row: days since the EARLIEST
    day that achieved the current expanding max (record days reset the
    clock; ties keep the older record — the drawdown-duration twin of the
    record-streak op). One co-located vectorized pass; the oracle uses the
    record-day identity peak_day = max(record day ≤ t)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            v = g["v"].to_numpy(np.float64)
            prev_max = np.concatenate(([-np.inf],
                                       np.maximum.accumulate(v)[:-1]))
            is_record = v > prev_max
            idx = np.where(is_record, np.arange(len(v)), 0)
            peak_idx = np.maximum.accumulate(idx)
            dus = g["d"].astype("datetime64[us]").astype("int64").to_numpy()
            g["days_since_peak"] = (dus - dus[peak_idx]) // DAY_US
            g["is_record"] = is_record
            outs.append(g[["event_type", "d", "v", "is_record",
                           "days_since_peak"]])
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "is_record",
                                  "days_since_peak"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["days_since_peak"] = out["days_since_peak"].astype(np.int64)
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_DAYS_SINCE_PEAK = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d, v,
               v > COALESCE(max(v) OVER (PARTITION BY event_type ORDER BY d
                        ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                    -1e308) AS is_record
        FROM daily
    )
    SELECT event_type, d, v, is_record,
           datediff('day',
                    CAST(max(CASE WHEN is_record THEN d END)
                         OVER (PARTITION BY event_type ORDER BY d
                               ROWS UNBOUNDED PRECEDING) AS DATE),
                    CAST(d AS DATE)) AS days_since_peak
    FROM r
"""


@entry("page_hinkley_daily", sql=lambda: SQL_PAGE_HINKLEY)
def q_page_hinkley_daily(sf_dir: str) -> pd.DataFrame:
    """Page-Hinkley upward-drift statistic per series (Page 1954; Hinkley
    1971, δ=0 form): deviations from the RUNNING mean cumulate into
    m_t = Σᵢ≤t (vᵢ − v̄ᵢ), and the alarm statistic is
    PH = max_T (m_T − min_{t≤T} m_t). Pure prefix algebra — one co-located
    pass engine-side, three nested window sums in the oracle."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            mu = np.cumsum(v) / np.arange(1, len(v) + 1)
            m = np.cumsum(v - mu)
            ph = (m - np.minimum.accumulate(m)).max()
            rows.append((et, len(v), np.round(ph, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "ph_stat"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_PAGE_HINKLEY = f"""
    WITH daily AS ({_DAILY_SQL}),
    a AS (
        SELECT event_type, d, v,
               sum(v) OVER w / ROW_NUMBER() OVER w2 AS mu
        FROM daily
        WINDOW w AS (PARTITION BY event_type ORDER BY d
                     ROWS UNBOUNDED PRECEDING),
               w2 AS (PARTITION BY event_type ORDER BY d)
    ),
    m AS (
        SELECT event_type, d,
               sum(v - mu) OVER (PARTITION BY event_type ORDER BY d
                                 ROWS UNBOUNDED PRECEDING) AS m
        FROM a
    ),
    ph AS (
        SELECT event_type, d,
               m - min(m) OVER (PARTITION BY event_type ORDER BY d
                                ROWS UNBOUNDED PRECEDING) AS excess
        FROM m
    )
    SELECT event_type, CAST(count(*) AS BIGINT) AS n_days,
           round(max(excess), 6) + 0.0 AS ph_stat
    FROM ph GROUP BY 1 ORDER BY 1
"""


@entry("hill_tail_events", sql=lambda: SQL_HILL_TAIL)
def q_hill_tail_events(sf_dir: str) -> pd.DataFrame:
    """Hill tail-index estimator over each type's positive values (Hill
    1975, k=50): ξ = (1/k)Σᵢ₌₁ᵏ ln(x₍ᵢ₎/x₍ₖ₊₁₎) over the descending order
    statistics, α = 1/ξ — the heavy-tail diagnosis that decides whether
    mean-based aggregates are even meaningful. Only the top k+1 per type
    cross the exchange (grouped top-k shape)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    K_TAIL = 50
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def prune(b: pd.DataFrame) -> pd.DataFrame:
        # map-side combiner: only each batch's per-type top k+1 positive
        # values can be in the global top k+1 — the rest never shuffle
        b = b[b["value"] > 0]
        return (b.sort_values("value", ascending=False)
                 .groupby("event_type", sort=False).head(K_TAIL + 1))

    ev = ev.map_batches(prune, batch_format="pandas")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            x = g["value"].to_numpy(np.float64)
            x = np.sort(x[x > 0])[::-1]
            if len(x) < K_TAIL + 1:
                rows.append((et, 0, np.nan, np.nan))
                continue
            xi = float(np.mean(np.log(x[:K_TAIL] / x[K_TAIL])))
            rows.append((et, K_TAIL, np.round(xi, 6) + 0.0,
                         np.round(1.0 / xi, 6) + 0.0 if xi > 0 else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "n_tail",
                                           "hill_xi", "alpha"])

    out = keyed_map_partitions(ev, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_tail"] = out["n_tail"].astype(np.int64)
    out = _fill(out, ["hill_xi", "alpha"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_HILL_TAIL = f"""
    WITH r AS (
        SELECT event_type, value,
               ROW_NUMBER() OVER (PARTITION BY event_type
                                  ORDER BY value DESC) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM events WHERE value > 0
    ),
    thr AS (SELECT event_type, value AS x51 FROM r WHERE rn = 51),
    hill AS (
        SELECT r.event_type, avg(ln(r.value / thr.x51)) AS xi
        FROM r JOIN thr USING (event_type)
        WHERE r.rn <= 50
        GROUP BY 1
    ),
    base AS (SELECT DISTINCT event_type FROM events)
    SELECT b.event_type,
           CAST(CASE WHEN h.xi IS NOT NULL THEN 50 ELSE 0 END AS BIGINT)
               AS n_tail,
           COALESCE(round(h.xi, 6) + 0.0, {NULLF}) AS hill_xi,
           COALESCE(CASE WHEN h.xi > 0
                         THEN round(1.0 / h.xi, 6) + 0.0 END, {NULLF})
               AS alpha
    FROM base b LEFT JOIN hill h USING (event_type)
    ORDER BY 1
"""


# ---------------------------------------------------------------------------
# customer order gaps / hourly typical-day envelope / negative-binomial fit
# ---------------------------------------------------------------------------

@entry("customer_order_gaps", sql=lambda: SQL_CUSTOMER_ORDER_GAPS)
def q_customer_order_gaps(sf_dir: str) -> pd.DataFrame:
    """Repeat-purchase cadence per customer: calendar-day gaps between
    consecutive orders (date order, orderkey tie-break), median
    (quantile_cont interpolation) and mean gap — the replenishment-cycle
    input to demand models. Customers with one order are excluded."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_orderdate"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for ck, g in part.groupby("o_custkey", sort=False):
            if len(g) < 2:
                continue
            g = g.sort_values(["o_orderdate", "o_orderkey"])
            days = (g["o_orderdate"].astype("datetime64[us]")
                    .astype("int64").to_numpy() // DAY_US)
            gaps = np.diff(days).astype(np.float64)
            rows.append((ck, len(g),
                         np.round(np.quantile(gaps, 0.5), 6) + 0.0,
                         np.round(gaps.mean(), 6) + 0.0))
        return pd.DataFrame(rows, columns=["o_custkey", "n_orders",
                                           "median_gap_days",
                                           "mean_gap_days"])

    out = keyed_map_partitions(orders, ["o_custkey"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["o_custkey", "n_orders"]] = out[["o_custkey", "n_orders"]] \
        .astype(np.int64)
    return out.sort_values("o_custkey").reset_index(drop=True)


SQL_CUSTOMER_ORDER_GAPS = """
    WITH g AS (
        SELECT o_custkey,
               datediff('day',
                        CAST(LAG(o_orderdate) OVER w AS DATE),
                        CAST(o_orderdate AS DATE)) AS gap
        FROM orders
        WINDOW w AS (PARTITION BY o_custkey
                     ORDER BY o_orderdate, o_orderkey)
    )
    SELECT o_custkey, CAST(count(*) AS BIGINT) AS n_orders,
           round(quantile_cont(gap, 0.5), 6) + 0.0 AS median_gap_days,
           round(avg(gap), 6) + 0.0 AS mean_gap_days
    FROM g GROUP BY 1 HAVING count(gap) >= 1 ORDER BY 1
"""


@entry("hourly_envelope_events", sql=lambda: SQL_HOURLY_ENVELOPE)
def q_hourly_envelope_events(sf_dir: str) -> pd.DataFrame:
    """Typical-day envelope per series: p10/p50/p90 of the hourly-bucket
    values grouped by hour-of-day (the seasonal band an ops dashboard
    draws around 'today'). Exact quantile_cont interpolation on both
    sides."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    hourly = _bucket_series(sf_dir, HOUR_US, "h")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        part = part.copy()
        us = part["h"].astype("datetime64[us]").astype("int64")
        part["hod"] = (us % DAY_US) // HOUR_US
        g = part.groupby(["event_type", "hod"], sort=False)["v"]
        out = pd.DataFrame({
            "n": g.size(),
            "p10": g.quantile(0.1), "p50": g.quantile(0.5),
            "p90": g.quantile(0.9)}).reset_index()
        for c in ("p10", "p50", "p90"):
            out[c] = np.round(out[c].to_numpy(np.float64), 6) + 0.0
        return out

    out = keyed_map_partitions(hourly, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["hod", "n"]] = out[["hod", "n"]].astype(np.int64)
    return out.sort_values(["event_type", "hod"]).reset_index(drop=True)


SQL_HOURLY_ENVELOPE = f"""
    WITH hourly AS ({_HOURLY_SQL}),
    e AS (SELECT event_type,
                 (epoch_us(h) % {DAY_US}) // {HOUR_US} AS hod, v
          FROM hourly)
    SELECT event_type, CAST(hod AS BIGINT) AS hod,
           CAST(count(*) AS BIGINT) AS n,
           round(quantile_cont(v, 0.1), 6) + 0.0 AS p10,
           round(quantile_cont(v, 0.5), 6) + 0.0 AS p50,
           round(quantile_cont(v, 0.9), 6) + 0.0 AS p90
    FROM e GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("nb_fit_users_events", sql=lambda: SQL_NB_FIT_USERS)
def q_nb_fit_users_events(sf_dir: str) -> pd.DataFrame:
    """Negative-binomial method-of-moments fit of per-user event counts
    (the overdispersed count model behind user-activity simulation):
    p = m/s², r = m²/(s²−m) from the across-user mean and ddof=1 variance.
    NULLF when s² ≤ m (no overdispersion → NB degenerates to Poisson).
    Per-user counts pre-reduce map-side; one moment row leaves."""
    ev = _read(sf_dir, "events", ["user_id"])
    counts = hash_count(ev, ["user_id"], out_col="n",
                        num_partitions=_NP).to_pandas()
    n = counts["n"].to_numpy(np.float64)
    m, s2 = n.mean(), n.var(ddof=1)
    over = s2 > m
    return pd.DataFrame({
        "n_users": [np.int64(len(n))],
        "mean_events": [np.round(m, 6) + 0.0],
        "var_events": [np.round(s2, 6) + 0.0],
        "nb_r": [np.round(m * m / (s2 - m), 6) + 0.0 if over else NULLF],
        "nb_p": [np.round(m / s2, 6) + 0.0 if over else NULLF],
    })


SQL_NB_FIT_USERS = f"""
    WITH c AS (SELECT user_id, count(*)::DOUBLE AS n
               FROM events GROUP BY 1),
    m AS (SELECT count(*) AS n_users, avg(n) AS m, var_samp(n) AS s2 FROM c)
    SELECT CAST(n_users AS BIGINT) AS n_users,
           round(m, 6) + 0.0 AS mean_events,
           round(s2, 6) + 0.0 AS var_events,
           COALESCE(CASE WHEN s2 > m
                         THEN round(m * m / (s2 - m), 6) + 0.0 END,
                    {NULLF}) AS nb_r,
           COALESCE(CASE WHEN s2 > m
                         THEN round(m / s2, 6) + 0.0 END, {NULLF}) AS nb_p
    FROM m
"""


# ---------------------------------------------------------------------------
# co-purchase degree distribution / horizon error profile / p-chart
# ---------------------------------------------------------------------------

@entry("copurchase_degree_lineitem", sql=lambda: SQL_COPURCHASE_DEGREE)
def q_copurchase_degree_lineitem(sf_dir: str) -> pd.DataFrame:
    """Co-purchase graph degree distribution: parts are nodes, an edge is
    'appeared in the same order'; the output is the histogram of distinct-
    partner counts (the degree spectrum recommender blueprints start
    from). Pair emission is per-order co-located, dedup + degree + the
    histogram are three chained integer count-aggregates."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for ok, g in part.groupby("l_orderkey", sort=False):
            p = np.unique(g["l_partkey"].to_numpy(np.int64))
            if len(p) < 2:
                continue
            a, b = np.meshgrid(p, p)
            mask = a != b
            outs.append(pd.DataFrame({"pa": a[mask], "pb": b[mask]}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame({"pa": pd.Series([], dtype="int64"),
                          "pb": pd.Series([], dtype="int64")})

    edges = keyed_map_partitions(li, ["l_orderkey"], pairs,
                                 num_partitions=_NP)
    dedup = hash_aggregate(
        edges.map_batches(lambda b: b.assign(one=1), batch_format="pandas"),
        ["pa", "pb"], {"c": ("one", "sum")}, num_partitions=_NP)
    deg = hash_count(dedup, ["pa"], out_col="deg", num_partitions=_NP)
    hist = hash_count(deg, ["deg"], out_col="n_parts",
                      num_partitions=4).to_pandas()
    hist = hist.astype({"deg": np.int64, "n_parts": np.int64})
    return hist.sort_values("deg").reset_index(drop=True)


SQL_COPURCHASE_DEGREE = """
    WITH p AS (
        SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey <> b.l_partkey
    ),
    d AS (SELECT pa, count(*) AS deg FROM p GROUP BY 1)
    SELECT CAST(deg AS BIGINT) AS deg,
           CAST(count(*) AS BIGINT) AS n_parts
    FROM d GROUP BY 1 ORDER BY 1
"""


@entry("horizon_error_profile_daily", sql=lambda: SQL_HORIZON_ERROR_PROFILE)
def q_horizon_error_profile_daily(sf_dir: str) -> pd.DataFrame:
    """Backtest error curve of the naive-h forecast (v̂_t = v_{t−h}) for
    horizons 1..7, pooled across series: MAE and RMSE per horizon — the
    horizon-degradation profile every forecast evaluation plots. Per-
    series error moments pre-reduce in the co-located kernel; 7 rows per
    partition cross."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            for h in range(1, 8):
                if len(v) <= h:
                    continue
                e = v[h:] - v[:-h]
                rows.append((h, len(e), np.abs(e).sum(), (e * e).sum()))
        return pd.DataFrame(rows, columns=["horizon", "n", "sae", "sse"])

    parts = keyed_map_partitions(daily, ["event_type"], kernel,
                                 num_partitions=_NP)
    agg = hash_aggregate(parts, ["horizon"],
                         {"n": ("n", "sum"), "sae": ("sae", "sum"),
                          "sse": ("sse", "sum")},
                         num_partitions=4).to_pandas()
    n = agg["n"].to_numpy(np.float64)
    return pd.DataFrame({
        "horizon": agg["horizon"].astype(np.int64),
        "n": agg["n"].astype(np.int64),
        "mae": np.round(agg["sae"].to_numpy(np.float64) / n, 6) + 0.0,
        "rmse": np.round(np.sqrt(agg["sse"].to_numpy(np.float64) / n),
                         6) + 0.0,
    }).sort_values("horizon").reset_index(drop=True)


SQL_HORIZON_ERROR_PROFILE = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) AS rn
        FROM daily
    ),
    ks AS (SELECT unnest(range(1, 8)) AS h),
    e AS (
        SELECT ks.h, a.v - b.v AS err
        FROM ks, r a
        JOIN r b ON a.event_type = b.event_type AND a.rn = b.rn + ks.h
    )
    SELECT CAST(h AS BIGINT) AS horizon, CAST(count(*) AS BIGINT) AS n,
           round(avg(abs(err)), 6) + 0.0 AS mae,
           round(sqrt(avg(err * err)), 6) + 0.0 AS rmse
    FROM e GROUP BY 1 ORDER BY 1
"""


@entry("p_chart_hourly_events", sql=lambda: SQL_P_CHART_HOURLY)
def q_p_chart_hourly_events(sf_dir: str) -> pd.DataFrame:
    """Attribute control chart (p-chart, Shewhart): per hourly bucket the
    ERROR-event share p̂ against binomial 3σ limits around the pooled
    p̄ = total errors / total events, with per-bucket limits widening as
    1/√n. Flags compare ROUNDED p̂ to ROUNDED limits so both engines flag
    identically. Two integer sums per hour cross the exchange."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        return pd.DataFrame({
            "h": pd.to_datetime((us // HOUR_US) * HOUR_US, unit="us"),
            "n": 1,
            "err": (b["event_type"] == "error").astype(np.int64)})

    agg = hash_aggregate(ev.map_batches(partial, batch_format="pandas"),
                         ["h"], {"n": ("n", "sum"), "err": ("err", "sum")},
                         num_partitions=_NP).to_pandas()
    n = agg["n"].to_numpy(np.float64)
    err = agg["err"].to_numpy(np.float64)
    pbar = err.sum() / n.sum()
    sig = np.sqrt(pbar * (1.0 - pbar) / n)
    phat = np.round(err / n, 6) + 0.0
    ucl = np.round(np.minimum(pbar + 3.0 * sig, 1.0), 6) + 0.0
    lcl = np.round(np.maximum(pbar - 3.0 * sig, 0.0), 6) + 0.0
    return pd.DataFrame({
        "h": agg["h"], "n": agg["n"].astype(np.int64),
        "n_err": agg["err"].astype(np.int64),
        "phat": phat, "ucl": ucl, "lcl": lcl,
        "out_of_control": (phat > ucl) | (phat < lcl),
    }).sort_values("h").reset_index(drop=True)


SQL_P_CHART_HOURLY = """
    WITH b AS (
        SELECT date_trunc('hour', ts) AS h, count(*)::DOUBLE AS n,
               sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0 END)::DOUBLE
                   AS err
        FROM events GROUP BY 1
    ),
    t AS (SELECT sum(err) / sum(n) AS pbar FROM b),
    c AS (
        SELECT b.h, b.n, b.err,
               round(b.err / b.n, 6) + 0.0 AS phat,
               round(least(t.pbar + 3 * sqrt(t.pbar * (1 - t.pbar) / b.n),
                           1.0), 6) + 0.0 AS ucl,
               round(greatest(t.pbar - 3 * sqrt(t.pbar * (1 - t.pbar) / b.n),
                              0.0), 6) + 0.0 AS lcl
        FROM b CROSS JOIN t
    )
    SELECT h, CAST(n AS BIGINT) AS n, CAST(err AS BIGINT) AS n_err,
           phat, ucl, lcl,
           (phat > ucl OR phat < lcl) AS out_of_control
    FROM c ORDER BY h
"""


# ---------------------------------------------------------------------------
# sample-ratio-mismatch check / dup-size vs quality corr / odds ratio
# ---------------------------------------------------------------------------

@entry("srm_check_orders", sql=lambda: SQL_SRM_CHECK)
def q_srm_check_orders(sf_dir: str) -> pd.DataFrame:
    """Sample-ratio-mismatch audit of the 80/10/10 md5 hash split (the
    experiment-platform guardrail): chi-square goodness of fit of observed
    split counts against the declared shares, with the df=2 α=0.05
    critical value 5.991. A deterministic hash split should never trip it
    — the gate pins that the split logic is actually unbiased."""
    from forecastframe_ray.stages.sample import hash_split

    orders = _read(sf_dir, "orders", ["o_orderkey"])
    tagged = hash_split(orders, "o_orderkey",
                        {"train": 0.8, "val": 0.1, "test": 0.1})
    counts = hash_count(tagged, ["split"], out_col="n",
                        num_partitions=4).to_pandas() \
        .set_index("split")["n"]
    total = float(counts.sum())
    shares = {"train": 0.8, "val": 0.1, "test": 0.1}
    rows = []
    chi2 = 0.0
    for s in ("test", "train", "val"):
        obs = float(counts.get(s, 0))
        exp = shares[s] * total
        chi2 += (obs - exp) ** 2 / exp
    for s in ("test", "train", "val"):
        rows.append((s, int(counts.get(s, 0)),
                     np.round(shares[s] * total, 6) + 0.0))
    out = pd.DataFrame(rows, columns=["split", "n_obs", "n_exp"])
    out["chi2"] = np.round(chi2, 6) + 0.0
    out["srm_ok"] = np.round(chi2, 6) < 5.991
    return out.astype({"n_obs": np.int64})


SQL_SRM_CHECK = """
    WITH h AS (
        SELECT CAST(('0x' || substr(md5(CAST(o_orderkey AS VARCHAR)), 1, 8))
                    AS BIGINT) AS b
        FROM orders
    ),
    tagged AS (
        SELECT CASE WHEN b < CAST(floor(0.8 * 4294967296) AS BIGINT)
                        THEN 'train'
                    WHEN b < CAST(floor(0.9 * 4294967296) AS BIGINT)
                        THEN 'val'
                    ELSE 'test' END AS split
        FROM h
    ),
    c AS (SELECT split, count(*)::DOUBLE AS n FROM tagged GROUP BY 1),
    g AS (
        SELECT c.split, c.n,
               CASE c.split WHEN 'train' THEN 0.8
                            WHEN 'val' THEN 0.1 ELSE 0.1 END
               * (SELECT sum(n) FROM c) AS exp
        FROM c
    ),
    chi AS (SELECT sum((n - exp) * (n - exp) / exp) AS chi2 FROM g)
    SELECT g.split, CAST(g.n AS BIGINT) AS n_obs,
           round(g.exp, 6) + 0.0 AS n_exp,
           round(chi.chi2, 6) + 0.0 AS chi2,
           round(chi.chi2, 6) < 5.991 AS srm_ok
    FROM g CROSS JOIN chi ORDER BY g.split
"""


@entry("dupsize_quality_corr_documents", sql=lambda: SQL_DUPSIZE_QUALITY_CORR)
def q_dupsize_quality_corr_documents(sf_dir: str) -> pd.DataFrame:
    """Curation diagnostic joining two pipeline stages: Pearson correlation
    between each doc's EXACT-dup class size (md5-digest groups) and its
    whitespace token count — 'are duplicated docs systematically shorter?'
    The class-size table joins back broadcast; one moment row leaves."""
    import hashlib

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def digest(b: pd.DataFrame) -> pd.DataFrame:
        dg = [hashlib.md5(t.encode("utf-8")).hexdigest()
              for t in b["text"]]
        return pd.DataFrame({
            "doc_id": b["doc_id"], "dg": dg,
            "ntok": b["text"].str.split().str.len().fillna(0)
            .astype(np.int64)})

    tagged = docs.map_batches(digest, batch_format="pandas").materialize()
    sizes = hash_count(tagged, ["dg"], out_col="csize",
                       num_partitions=_NP).to_pandas()
    smap = dict(zip(sizes["dg"], sizes["csize"]))

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        x = b["dg"].map(smap).to_numpy(np.float64)
        y = b["ntok"].to_numpy(np.float64)
        return pd.DataFrame({"n": [float(len(b))], "sx": [x.sum()],
                             "sy": [y.sum()], "sxx": [(x * x).sum()],
                             "syy": [(y * y).sum()], "sxy": [(x * y).sum()]})

    m = tagged.map_batches(moments, batch_format="pandas").to_pandas().sum()
    n = m["n"]
    cov = m["sxy"] - m["sx"] * m["sy"] / n
    vx = m["sxx"] - m["sx"] ** 2 / n
    vy = m["syy"] - m["sy"] ** 2 / n
    r = cov / np.sqrt(vx * vy) if vx > 0 and vy > 0 else np.nan
    return pd.DataFrame({
        "n_docs": [np.int64(n)],
        "mean_class_size": [np.round(m["sx"] / n, 6) + 0.0],
        "corr_size_tokens": [np.round(r, 6) + 0.0 if np.isfinite(r)
                             else NULLF],
    })


SQL_DUPSIZE_QUALITY_CORR = rf"""
    WITH t AS (
        SELECT doc_id, md5(text) AS dg,
               len(list_filter(string_split_regex(text, '\s+'),
                               x -> x <> '')) AS ntok
        FROM documents
    ),
    s AS (SELECT dg, count(*) AS csize FROM t GROUP BY 1),
    j AS (SELECT t.doc_id, s.csize::DOUBLE AS x, t.ntok::DOUBLE AS y
          FROM t JOIN s USING (dg))
    SELECT CAST(count(*) AS BIGINT) AS n_docs,
           round(avg(x), 6) + 0.0 AS mean_class_size,
           COALESCE(round(corr(y, x), 6) + 0.0, {NULLF})
               AS corr_size_tokens
    FROM j
"""


@entry("conversion_odds_users", sql=lambda: SQL_CONVERSION_ODDS)
def q_conversion_odds_users(sf_dir: str) -> pd.DataFrame:
    """2×2 odds-ratio analysis: does having a signup event associate with
    having a purchase event, across users? Cells, odds ratio, log-OR with
    its Woolf standard error and the 95% CI — the classic epidemiological
    contingency summary. Per-user flags pre-reduce map-side; four cell
    counts leave."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("user_id", sort=False)["event_type"]
        return pd.DataFrame({
            "user_id": g.size().index,
            "s": g.apply(lambda x: int((x == "signup").any())),
            "p": g.apply(lambda x: int((x == "purchase").any()))})

    # per-batch flags may double-count a user split across batches —
    # re-reduce by max (idempotent OR)
    per_user = hash_aggregate(
        ev.map_batches(flags, batch_format="pandas"), ["user_id"],
        {"s": ("s", "max"), "p": ("p", "max")},
        num_partitions=_NP).to_pandas()
    s = per_user["s"].to_numpy(np.int64)
    p = per_user["p"].to_numpy(np.int64)
    a = int(((s == 1) & (p == 1)).sum())
    b_ = int(((s == 1) & (p == 0)).sum())
    c = int(((s == 0) & (p == 1)).sum())
    d = int(((s == 0) & (p == 0)).sum())
    if min(a, b_, c, d) > 0:
        orr = (a * d) / (b_ * c)
        se = np.sqrt(1 / a + 1 / b_ + 1 / c + 1 / d)
        lo = np.log(orr)
        vals = [np.round(orr, 6) + 0.0, np.round(lo, 6) + 0.0,
                np.round(se, 6) + 0.0, np.round(lo - 1.96 * se, 6) + 0.0,
                np.round(lo + 1.96 * se, 6) + 0.0]
    else:
        vals = [NULLF] * 5
    return pd.DataFrame({
        "n_both": [a], "n_signup_only": [b_], "n_purchase_only": [c],
        "n_neither": [d], "odds_ratio": [vals[0]], "log_or": [vals[1]],
        "se": [vals[2]], "ci_lo": [vals[3]], "ci_hi": [vals[4]],
    }).astype({"n_both": np.int64, "n_signup_only": np.int64,
               "n_purchase_only": np.int64, "n_neither": np.int64})


SQL_CONVERSION_ODDS = f"""
    WITH u AS (
        SELECT user_id,
               max(CASE WHEN event_type = 'signup' THEN 1 ELSE 0 END) AS s,
               max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END) AS p
        FROM events GROUP BY 1
    ),
    c AS (
        SELECT sum(CASE WHEN s = 1 AND p = 1 THEN 1 ELSE 0 END)::DOUBLE AS a,
               sum(CASE WHEN s = 1 AND p = 0 THEN 1 ELSE 0 END)::DOUBLE AS b,
               sum(CASE WHEN s = 0 AND p = 1 THEN 1 ELSE 0 END)::DOUBLE AS cc,
               sum(CASE WHEN s = 0 AND p = 0 THEN 1 ELSE 0 END)::DOUBLE AS d
        FROM u
    )
    SELECT CAST(a AS BIGINT) AS n_both,
           CAST(b AS BIGINT) AS n_signup_only,
           CAST(cc AS BIGINT) AS n_purchase_only,
           CAST(d AS BIGINT) AS n_neither,
           COALESCE(CASE WHEN least(a, b, cc, d) > 0
                         THEN round(a * d / (b * cc), 6) + 0.0 END, {NULLF})
               AS odds_ratio,
           COALESCE(CASE WHEN least(a, b, cc, d) > 0
                         THEN round(ln(a * d / (b * cc)), 6) + 0.0 END,
                    {NULLF}) AS log_or,
           COALESCE(CASE WHEN least(a, b, cc, d) > 0
                         THEN round(sqrt(1/a + 1/b + 1/cc + 1/d), 6) + 0.0
                    END, {NULLF}) AS se,
           COALESCE(CASE WHEN least(a, b, cc, d) > 0
                         THEN round(ln(a * d / (b * cc))
                              - 1.96 * sqrt(1/a + 1/b + 1/cc + 1/d), 6)
                              + 0.0 END, {NULLF}) AS ci_lo,
           COALESCE(CASE WHEN least(a, b, cc, d) > 0
                         THEN round(ln(a * d / (b * cc))
                              + 1.96 * sqrt(1/a + 1/b + 1/cc + 1/d), 6)
                              + 0.0 END, {NULLF}) AS ci_hi
    FROM c
"""


# ---------------------------------------------------------------------------
# triangle counting / Haar wavelet energies / SAX symbolization
# ---------------------------------------------------------------------------

@entry("triangle_count_copurchase", sql=lambda: SQL_TRIANGLE_COUNT)
def q_triangle_count_copurchase(sf_dir: str) -> pd.DataFrame:
    """Global clustering of the co-purchase graph via distributed triangle
    counting (the canonical two-join plan: oriented edges a<b, wedge join
    on the middle vertex, closing-edge semi-join — each side materialized
    between joins per the aggregator-pool rule). Reports nodes, edges,
    wedges, triangles and the global clustering coefficient 3T/W."""
    from forecastframe_ray.stages.agg import keyed_map_partitions
    from forecastframe_ray.stages.join import hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in part.groupby("l_orderkey", sort=False):
            p = np.unique(g["l_partkey"].to_numpy(np.int64))
            if len(p) < 2:
                continue
            a, b = np.triu_indices(len(p), k=1)
            outs.append(pd.DataFrame({"a": p[a], "b": p[b]}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame({"a": pd.Series([], dtype="int64"),
                          "b": pd.Series([], dtype="int64")})

    raw = keyed_map_partitions(li, ["l_orderkey"], pairs,
                               num_partitions=_NP)
    edges = hash_aggregate(
        raw.map_batches(lambda b: b.assign(one=1), batch_format="pandas"),
        ["a", "b"], {"c": ("one", "sum")},
        num_partitions=_NP).select_columns(["a", "b"]) \
        .repartition(8).materialize()
    n_edges = edges.count()
    nodes = hash_count(
        edges.map_batches(
            lambda b: pd.DataFrame({"v": np.concatenate(
                [b["a"].to_numpy(), b["b"].to_numpy()])}),
            batch_format="pandas"),
        ["v"], out_col="deg", num_partitions=_NP)
    n_nodes = nodes.count()
    deg_df = nodes.to_pandas()
    d = deg_df["deg"].to_numpy(np.float64)
    n_wedges = int((d * (d - 1) / 2).sum())
    # wedges (a<b<c) around middle vertex b: edge(a,b) x edge(b,c)
    right = edges.map_batches(
        lambda b: b.rename(columns={"a": "b", "b": "c"}),
        batch_format="pandas").repartition(8).materialize()
    wedges = hash_join(edges, right, on=["b"],
                       num_partitions=_NP).materialize()
    closing = wedges.map_batches(
        lambda w: w[["a", "c"]].rename(columns={"c": "b"}),
        batch_format="pandas")
    tri = hash_join(closing,
                    edges.map_batches(lambda b: b.assign(is_edge=1),
                                      batch_format="pandas")
                    .repartition(8).materialize(),
                    on=["a", "b"], num_partitions=_NP)
    n_tri = tri.count()
    cc = 3.0 * n_tri / n_wedges if n_wedges else np.nan
    return pd.DataFrame({
        "n_nodes": [np.int64(n_nodes)], "n_edges": [np.int64(n_edges)],
        "n_wedges": [np.int64(n_wedges)],
        "n_triangles": [np.int64(n_tri)],
        "clustering_coeff": [np.round(cc, 6) + 0.0 if np.isfinite(cc)
                             else NULLF],
    })


SQL_TRIANGLE_COUNT = f"""
    WITH e AS (
        SELECT DISTINCT least(a.l_partkey, b.l_partkey) AS a,
               greatest(a.l_partkey, b.l_partkey) AS b
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
    ),
    nodes AS (SELECT v, count(*) AS deg FROM (
        SELECT a AS v FROM e UNION ALL SELECT b AS v FROM e) GROUP BY 1),
    w AS (SELECT sum(deg * (deg - 1) // 2) AS n_wedges FROM nodes),
    tri AS (
        SELECT count(*) AS t
        FROM e e1 JOIN e e2 ON e2.a = e1.b
        JOIN e e3 ON e3.a = e1.a AND e3.b = e2.b
    )
    SELECT (SELECT count(*) FROM nodes) AS n_nodes,
           (SELECT count(*) FROM e) AS n_edges,
           CAST(w.n_wedges AS BIGINT) AS n_wedges,
           CAST(tri.t AS BIGINT) AS n_triangles,
           COALESCE(CASE WHEN w.n_wedges > 0
                         THEN round(3.0 * tri.t / w.n_wedges, 6) + 0.0 END,
                    {NULLF}) AS clustering_coeff
    FROM w CROSS JOIN tri
"""


@entry("haar_energy_daily", sql=lambda: SQL_HAAR_ENERGY)
def q_haar_energy_daily(sf_dir: str) -> pd.DataFrame:
    """Two-level Haar wavelet energy decomposition of each series' first
    16 days: detail energies at scales 1 and 2 plus the level-2 smooth —
    the multiresolution variance split (E_total = E_d1 + E_d2 + E_s2 is
    an exact orthogonality identity both engines must reproduce)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)[:16]
            if len(v) < 16:
                rows.append((et, np.nan, np.nan, np.nan, np.nan))
                continue
            d1 = (v[0::2] - v[1::2]) / np.sqrt(2.0)
            s1 = (v[0::2] + v[1::2]) / np.sqrt(2.0)
            d2 = (s1[0::2] - s1[1::2]) / np.sqrt(2.0)
            s2 = (s1[0::2] + s1[1::2]) / np.sqrt(2.0)
            rows.append((et, np.round((v * v).sum(), 6) + 0.0,
                         np.round((d1 * d1).sum(), 6) + 0.0,
                         np.round((d2 * d2).sum(), 6) + 0.0,
                         np.round((s2 * s2).sum(), 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "e_total",
                                           "e_d1", "e_d2", "e_s2"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = _fill(out, ["e_total", "e_d1", "e_d2", "e_s2"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_HAAR_ENERGY = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) AS rn
        FROM daily QUALIFY rn <= 16
    ),
    cnt AS (SELECT event_type, count(*) AS n FROM r GROUP BY 1),
    l1 AS (
        SELECT a.event_type, (a.rn + 1) // 2 AS i,
               (a.v - b.v) / sqrt(2) AS d, (a.v + b.v) / sqrt(2) AS s
        FROM r a JOIN r b ON a.event_type = b.event_type
                          AND b.rn = a.rn + 1
        WHERE a.rn % 2 = 1
    ),
    l2 AS (
        SELECT a.event_type, (a.i + 1) // 2 AS j,
               (a.s - b.s) / sqrt(2) AS d, (a.s + b.s) / sqrt(2) AS s
        FROM l1 a JOIN l1 b ON a.event_type = b.event_type
                            AND b.i = a.i + 1
        WHERE a.i % 2 = 1
    ),
    et AS (SELECT event_type, sum(v * v) AS e FROM r GROUP BY 1),
    e1 AS (SELECT event_type, sum(d * d) AS e FROM l1 GROUP BY 1),
    e2 AS (SELECT event_type, sum(d * d) AS ed, sum(s * s) AS es
           FROM l2 GROUP BY 1)
    SELECT cnt.event_type,
           COALESCE(CASE WHEN cnt.n = 16
                         THEN round(et.e, 6) + 0.0 END, {NULLF}) AS e_total,
           COALESCE(CASE WHEN cnt.n = 16
                         THEN round(e1.e, 6) + 0.0 END, {NULLF}) AS e_d1,
           COALESCE(CASE WHEN cnt.n = 16
                         THEN round(e2.ed, 6) + 0.0 END, {NULLF}) AS e_d2,
           COALESCE(CASE WHEN cnt.n = 16
                         THEN round(e2.es, 6) + 0.0 END, {NULLF}) AS e_s2
    FROM cnt
    LEFT JOIN et USING (event_type) LEFT JOIN e1 USING (event_type)
    LEFT JOIN e2 USING (event_type)
    ORDER BY 1
"""


@entry("sax_words_daily", sql=lambda: SQL_SAX_WORDS)
def q_sax_words_daily(sf_dir: str) -> pd.DataFrame:
    """SAX symbolization (Lin, Keogh et al. 2003): z-score each series,
    PAA over the first 28 days in four 7-day segments, map each segment
    mean to {a,b,c,d} at the N(0,1) quartile breakpoints ±0.6745 and 0.
    Segment means are ROUNDED to 6 before classification so both engines
    assign identical letters at boundaries."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    BP = (-0.6745, 0.0, 0.6745)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            if len(v) < 28 or v.std(ddof=1) == 0:
                rows.append((et, ""))
                continue
            z = (v - v.mean()) / v.std(ddof=1)
            word = []
            for i in range(4):
                m = np.round(z[7 * i:7 * (i + 1)].mean(), 6) + 0.0
                word.append("abcd"[int(np.searchsorted(BP, m,
                                                       side="right"))])
            rows.append((et, "".join(word)))
        return pd.DataFrame(rows, columns=["event_type", "sax_word"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


SQL_SAX_WORDS = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (SELECT event_type, avg(v) AS mu, stddev_samp(v) AS sd,
                 count(*) AS n
          FROM daily GROUP BY 1),
    r AS (
        SELECT d.event_type, (d.v - m.mu) / m.sd AS z,
               ROW_NUMBER() OVER (PARTITION BY d.event_type
                                  ORDER BY d.d) AS rn,
               m.n, m.sd
        FROM daily d JOIN m USING (event_type)
    ),
    seg AS (
        SELECT event_type, (rn - 1) // 7 AS i,
               round(avg(z), 6) + 0.0 AS mz
        FROM r WHERE rn <= 28 AND n >= 28 AND sd > 0
        GROUP BY 1, 2
    ),
    lt AS (
        SELECT event_type, i,
               CASE WHEN mz < -0.6745 THEN 'a'
                    WHEN mz < 0.0 THEN 'b'
                    WHEN mz < 0.6745 THEN 'c' ELSE 'd' END AS letter
        FROM seg
    ),
    w AS (SELECT event_type, string_agg(letter, '' ORDER BY i) AS sax_word
          FROM lt GROUP BY 1)
    SELECT b.event_type, COALESCE(w.sax_word, '') AS sax_word
    FROM (SELECT DISTINCT event_type FROM daily) b
    LEFT JOIN w USING (event_type)
    ORDER BY 1
"""


# ---------------------------------------------------------------------------
# banded DTW pair distances / newsvendor policy / POT-GPD tail fit
# ---------------------------------------------------------------------------

def _dtw_band(x: np.ndarray, y: np.ndarray, w: int = 3) -> float:
    """Sakoe-Chiba banded DTW with squared local cost, √ at the end
    (Sakoe & Chiba 1978). Vectorized over the band diagonal per row."""
    n, m = len(x), len(y)
    w = max(w, abs(n - m))
    INF = np.inf
    prev = np.full(m + 1, INF)
    prev[0] = 0.0
    for i in range(1, n + 1):
        cur = np.full(m + 1, INF)
        lo, hi = max(1, i - w), min(m, i + w)
        for j in range(lo, hi + 1):
            c = (x[i - 1] - y[j - 1]) ** 2
            cur[j] = c + min(prev[j], cur[j - 1], prev[j - 1])
        prev = cur
    return float(np.sqrt(prev[m]))


@entry("dtw_band_pairs_daily", sql=lambda: SQL_DTW_BAND_PAIRS)
def q_dtw_band_pairs_daily(sf_dir: str) -> pd.DataFrame:
    """Banded DTW distance between every series pair, GATED against its
    analytic envelope: DTW with any warping window is ≤ the lock-step
    Euclidean distance (which IS SQL-expressible and value-oracled here)
    and ≥ 0. Series truncate to the common length so both distances align;
    exact DTW values are pytest-pinned against an independent full DP.
    The k-series daily spine is collected for the k² pairing (k is the
    series-key cardinality, tiny by construction — never the row count)."""
    daily = _bucket_series(sf_dir, DAY_US, "d")
    wide = daily.to_pandas().sort_values(["event_type", "d"])
    series = {et: g["v"].to_numpy(np.float64)
              for et, g in wide.groupby("event_type")}
    ets = sorted(series)
    rows = []
    for i, a in enumerate(ets):
        for b in ets[i + 1:]:
            n = min(len(series[a]), len(series[b]))
            x, y = series[a][:n], series[b][:n]
            eu = np.round(float(np.sqrt(((x - y) ** 2).sum())), 6) + 0.0
            dtw = _dtw_band(x, y, w=3)
            rows.append((a, b, eu, bool(0.0 <= dtw <= eu + 1e-9)))
    return pd.DataFrame(rows, columns=["et_a", "et_b", "euclid",
                                       "dtw_within_envelope"])


SQL_DTW_BAND_PAIRS = """
    WITH daily AS (
        SELECT event_type, date_trunc('day', ts) AS d,
               round(sum(value), 6) AS v
        FROM events GROUP BY 1, 2
    ),
    r AS (
        SELECT event_type, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    p AS (
        SELECT a.event_type AS et_a, b.event_type AS et_b,
               sum((a.v - b.v) * (a.v - b.v)) AS ss
        FROM r a JOIN r b
          ON a.rn = b.rn AND a.event_type < b.event_type
             AND a.rn <= least(a.n, b.n)
        GROUP BY 1, 2
    )
    SELECT et_a, et_b, round(sqrt(ss), 6) + 0.0 AS euclid,
           true AS dtw_within_envelope
    FROM p ORDER BY 1, 2
"""


@entry("newsvendor_daily", sql=lambda: SQL_NEWSVENDOR)
def q_newsvendor_daily(sf_dir: str) -> pd.DataFrame:
    """Newsvendor stocking policy per series (underage cost 3, overage 1
    → critical ratio 0.75): q* = the 0.75 demand quantile (quantile_cont),
    plus the empirical expected cost at q* — q* is ROUNDED before costing
    so both engines price the same policy."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["v"].to_numpy(np.float64)
            q = np.round(np.quantile(v, 0.75), 6) + 0.0
            cost = (3.0 * np.maximum(v - q, 0.0)
                    + np.maximum(q - v, 0.0)).mean()
            rows.append((et, len(v), q, np.round(cost, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "q_star", "exp_cost"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_NEWSVENDOR = f"""
    WITH daily AS ({_DAILY_SQL}),
    q AS (SELECT event_type, count(*) AS n,
                 round(quantile_cont(v, 0.75), 6) + 0.0 AS q_star
          FROM daily GROUP BY 1)
    SELECT q.event_type, CAST(q.n AS BIGINT) AS n_days, q.q_star,
           round(avg(3 * greatest(d.v - q.q_star, 0)
                     + greatest(q.q_star - d.v, 0)), 6) + 0.0 AS exp_cost
    FROM daily d JOIN q USING (event_type)
    GROUP BY 1, 2, 3 ORDER BY 1
"""


@entry("pot_gpd_events", sql=lambda: SQL_POT_GPD)
def q_pot_gpd_events(sf_dir: str) -> pd.DataFrame:
    """Peaks-over-threshold extreme-value fit per type: exceedances over
    the (rounded) p90 of event values, Generalized Pareto by method of
    moments — ξ = ½(1 − m²/s²), σ = ½m(m²/s² + 1) (Hosking & Wallis
    1987). The EVT companion to the Hill estimator. NULLF below 2
    exceedances or zero dispersion."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["value"].to_numpy(np.float64)
            u = np.round(np.quantile(v, 0.9), 6) + 0.0
            y = v[v > u] - u
            if len(y) < 2 or y.var(ddof=1) <= 0:
                rows.append((et, u, len(y), np.nan, np.nan))
                continue
            m, s2 = y.mean(), y.var(ddof=1)
            ratio = m * m / s2
            rows.append((et, u, len(y),
                         np.round(0.5 * (1.0 - ratio), 6) + 0.0,
                         np.round(0.5 * m * (ratio + 1.0), 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "threshold",
                                           "n_exc", "gpd_xi", "gpd_sigma"])

    out = keyed_map_partitions(ev, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_exc"] = out["n_exc"].astype(np.int64)
    out = _fill(out, ["gpd_xi", "gpd_sigma"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_POT_GPD = f"""
    WITH u AS (SELECT event_type,
                      round(quantile_cont(value, 0.9), 6) + 0.0 AS thr
               FROM events GROUP BY 1),
    exc AS (
        SELECT e.event_type, u.thr, e.value - u.thr AS y
        FROM events e JOIN u USING (event_type)
        WHERE e.value > u.thr
    ),
    m AS (SELECT event_type, any_value(thr) AS thr, count(*) AS n,
                 avg(y) AS m, var_samp(y) AS s2
          FROM exc GROUP BY 1)
    SELECT event_type, thr AS threshold, CAST(n AS BIGINT) AS n_exc,
           COALESCE(CASE WHEN n >= 2 AND s2 > 0
                         THEN round(0.5 * (1 - m * m / s2), 6) + 0.0 END,
                    {NULLF}) AS gpd_xi,
           COALESCE(CASE WHEN n >= 2 AND s2 > 0
                         THEN round(0.5 * m * (m * m / s2 + 1), 6) + 0.0
                    END, {NULLF}) AS gpd_sigma
    FROM m ORDER BY 1
"""


# ---------------------------------------------------------------------------
# min-cost supplier arg-min join / KL between source LMs / Markov accuracy
# ---------------------------------------------------------------------------

@entry("mincost_supplier_parts", sql=lambda: SQL_MINCOST_SUPPLIER)
def q_mincost_supplier_parts(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q2's core shape — the correlated arg-min: for every part, the
    supplier offering the minimum extended price (price then suppkey
    tie-break). One co-located sort + group-head per partition; no
    all-pairs, no second pass."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_extendedprice"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        return (part.sort_values(["l_extendedprice", "l_suppkey"])
                    .groupby("l_partkey", sort=False).head(1))

    out = keyed_map_partitions(li, ["l_partkey"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"l_partkey": np.int64, "l_suppkey": np.int64})
    out = out.rename(columns={"l_extendedprice": "min_price"})
    return out[["l_partkey", "l_suppkey", "min_price"]] \
        .sort_values("l_partkey").reset_index(drop=True)


SQL_MINCOST_SUPPLIER = """
    SELECT l_partkey, l_suppkey, min_price FROM (
        SELECT l_partkey, l_suppkey, l_extendedprice AS min_price,
               ROW_NUMBER() OVER (PARTITION BY l_partkey
                                  ORDER BY l_extendedprice, l_suppkey)
                   AS rn
        FROM lineitem
    ) WHERE rn = 1 ORDER BY l_partkey
"""


#: the four sources compared pairwise by the KL query
_KL_SOURCES = ("src0", "src1", "src2", "src3")


@entry("kl_token_sources", sql=lambda: SQL_KL_TOKEN_SOURCES)
def q_kl_token_sources(sf_dir: str) -> pd.DataFrame:
    """Add-one-smoothed KL divergence between the unigram LMs of source
    pairs (the corpus-drift measure between crawl slices): with V = the
    WHOLE-corpus vocabulary, Pₓ(t) = (cₓ(t)+1)/(Nₓ+V), and
    KL(Pa‖Pb) = Σ_V Pa·ln(Pa/Pb) — tokens absent from BOTH sources
    contribute the closed-form residual (V−|vocab_a ∪ vocab_b|)·p0a·ln(p0a/p0b)
    instead of an explosion over the full vocabulary. Counts build
    combiner-first; only the 4 compared sources' vocab reaches the driver
    (bounded by design, documented)."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ex = b[["source"]].copy()
        ex["tok"] = b["text"].str.split()
        ex = ex.explode("tok").dropna(subset=["tok"])
        vc = ex.groupby(["source", "tok"], sort=False).size()
        out = vc.rename("cnt").reset_index()
        return out.rename(columns={"tok": "token"})

    tc_all = hash_aggregate(docs.map_batches(partial, batch_format="pandas"),
                            ["source", "token"], {"c": ("cnt", "sum")},
                            num_partitions=_NP).materialize()
    V = float(hash_count(tc_all, ["token"], out_col="x",
                         num_partitions=_NP).count())
    tc = tc_all.filter(
        lambda r: r["source"] in _KL_SOURCES).to_pandas()
    counts = {s: dict(zip(g["token"], g["c"].astype(np.int64)))
              for s, g in tc.groupby("source")}
    totals = {s: float(sum(counts.get(s, {}).values()))
              for s in _KL_SOURCES}
    rows = []
    for i, a in enumerate(_KL_SOURCES):
        for b in _KL_SOURCES[i + 1:]:
            ca, cb = counts.get(a, {}), counts.get(b, {})
            da, db = totals[a] + V, totals[b] + V
            union = set(ca) | set(cb)
            kl = 0.0
            for t in union:
                pa = (ca.get(t, 0) + 1.0) / da
                pb = (cb.get(t, 0) + 1.0) / db
                kl += pa * np.log(pa / pb)
            p0a, p0b = 1.0 / da, 1.0 / db
            kl += (V - len(union)) * p0a * np.log(p0a / p0b)
            rows.append((a, b, np.round(kl, 6) + 0.0))
    return pd.DataFrame(rows, columns=["src_a", "src_b", "kl_ab"])


SQL_KL_TOKEN_SOURCES = rf"""
    WITH tok AS (
      SELECT source,
             unnest(list_filter(string_split_regex(text, '\s+'),
                                x -> x <> '')) AS token
      FROM documents
    ),
    vv AS (SELECT count(DISTINCT token)::DOUBLE AS V FROM tok),
    tc AS (SELECT source, token, count(*)::DOUBLE AS c FROM tok
           WHERE source IN ('src0', 'src1', 'src2', 'src3') GROUP BY 1, 2),
    n AS (SELECT source, sum(c) AS N FROM tc GROUP BY 1),
    srcs AS (SELECT unnest(['src0', 'src1', 'src2', 'src3']) AS s),
    pairs AS (SELECT a.s AS sa, b.s AS sb
              FROM srcs a, srcs b WHERE a.s < b.s),
    ut AS (
        SELECT p.sa, p.sb, t.token,
               max(CASE WHEN t.source = p.sa THEN t.c END) AS ca,
               max(CASE WHEN t.source = p.sb THEN t.c END) AS cb
        FROM pairs p JOIN tc t ON t.source IN (p.sa, p.sb)
        GROUP BY 1, 2, 3
    ),
    dens AS (
        SELECT p.sa, p.sb, na.N + vv.V AS da, nb.N + vv.V AS db, vv.V AS V
        FROM pairs p
        JOIN n na ON na.source = p.sa
        JOIN n nb ON nb.source = p.sb
        CROSS JOIN vv
    ),
    main AS (
        SELECT u.sa, u.sb,
               sum(((COALESCE(u.ca, 0) + 1) / d.da)
                   * ln(((COALESCE(u.ca, 0) + 1) / d.da)
                        / ((COALESCE(u.cb, 0) + 1) / d.db))) AS kl_main,
               count(*) AS n_union
        FROM ut u JOIN dens d ON d.sa = u.sa AND d.sb = u.sb
        GROUP BY 1, 2
    )
    SELECT m.sa AS src_a, m.sb AS src_b,
           round(m.kl_main + (d.V - m.n_union) * (1 / d.da)
                 * ln((1 / d.da) / (1 / d.db)), 6) + 0.0 AS kl_ab
    FROM main m JOIN dens d ON d.sa = m.sa AND d.sb = m.sb
    ORDER BY 1, 2
"""


@entry("markov_top1_accuracy_events", sql=lambda: SQL_MARKOV_TOP1_ACCURACY)
def q_markov_top1_accuracy_events(sf_dir: str) -> pd.DataFrame:
    """Backtest of the first-order Markov next-event predictor: per current
    type, the modal next type (count desc, name asc tie-break) and its
    top-1 accuracy over all observed transitions — the eval step on top of
    the transition-count op. Per-user pairs form co-located; the 25-cell
    transition table is the only thing that leaves."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in part.groupby("user_id", sort=False):
            t = g.sort_values(["ts", "event_id"])["event_type"].to_numpy()
            if len(t) < 2:
                continue
            outs.append(pd.DataFrame({"cur": t[:-1], "nxt": t[1:]}))
        if not outs:
            return pd.DataFrame({"cur": pd.Series([], dtype="object"),
                                 "nxt": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        df = pd.concat(outs, ignore_index=True)
        vc = df.groupby(["cur", "nxt"], sort=False).size()
        return vc.rename("n").reset_index()

    trans = hash_aggregate(
        keyed_map_partitions(ev, ["user_id"], pairs, num_partitions=_NP),
        ["cur", "nxt"], {"n": ("n", "sum")}, num_partitions=4).to_pandas()
    rows = []
    for cur, g in trans.groupby("cur"):
        g = g.sort_values(["n", "nxt"], ascending=[False, True])
        total = int(g["n"].sum())
        rows.append((cur, total, g.iloc[0]["nxt"],
                     np.round(int(g.iloc[0]["n"]) / total, 6) + 0.0))
    return pd.DataFrame(rows, columns=["cur", "n_transitions",
                                       "predicted", "accuracy"]) \
        .astype({"n_transitions": np.int64}) \
        .sort_values("cur").reset_index(drop=True)


SQL_MARKOV_TOP1_ACCURACY = """
    WITH s AS (
        SELECT user_id, event_type,
               LEAD(event_type) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS nxt
        FROM events
    ),
    t AS (SELECT event_type AS cur, nxt, count(*) AS n
          FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2),
    best AS (
        SELECT cur, nxt, n,
               ROW_NUMBER() OVER (PARTITION BY cur
                                  ORDER BY n DESC, nxt) AS rk,
               sum(n) OVER (PARTITION BY cur) AS total
        FROM t
    )
    SELECT cur, CAST(total AS BIGINT) AS n_transitions,
           nxt AS predicted,
           round(n * 1.0 / total, 6) + 0.0 AS accuracy
    FROM best WHERE rk = 1 ORDER BY cur
"""


# ---------------------------------------------------------------------------
# GEV block-maxima PWM fit / sample entropy / von Neumann ratio
# ---------------------------------------------------------------------------

@entry("gev_pwm_daily_max_events", sql=lambda: SQL_GEV_PWM)
def q_gev_pwm_daily_max_events(sf_dir: str) -> pd.DataFrame:
    """GEV fit to daily BLOCK MAXIMA of the hourly series via probability-
    weighted moments (Hosking, Wallis & Wood 1985 — the closed-form EVT
    companion to the POT-GPD fit): b₀,b₁,b₂ from the sorted sample,
    c = (2b₁−b₀)/(3b₂−b₀) − ln2/ln3, k = 7.8590c + 2.9554c²,
    σ = (2b₁−b₀)k / (Γ(1+k)(1−2⁻ᵏ)), μ = b₀ + σ(Γ(1+k)−1)/k."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    hourly = _bucket_series(sf_dir, HOUR_US, "h")

    def daymax(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        us = b["h"].astype("datetime64[us]").astype("int64")
        b["d"] = pd.to_datetime((us // DAY_US) * DAY_US, unit="us")
        return b[["event_type", "d", "v"]]

    dm = hash_aggregate(hourly.map_batches(daymax, batch_format="pandas"),
                        ["event_type", "d"], {"mx": ("v", "max")},
                        num_partitions=_NP)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            x = np.sort(g["mx"].to_numpy(np.float64))
            n = len(x)
            if n < 3:
                rows.append((et, n, np.nan, np.nan, np.nan))
                continue
            j = np.arange(1, n + 1, dtype=np.float64)
            b0 = x.mean()
            b1 = ((j - 1) / (n - 1.0) * x).sum() / n
            b2 = ((j - 1) * (j - 2) / ((n - 1.0) * (n - 2.0)) * x).sum() / n
            c = (2 * b1 - b0) / (3 * b2 - b0) - np.log(2) / np.log(3)
            k = 7.8590 * c + 2.9554 * c * c
            if abs(k) < 1e-9:
                rows.append((et, n, np.round(k, 6) + 0.0, np.nan, np.nan))
                continue
            from math import gamma
            sig = (2 * b1 - b0) * k / (gamma(1 + k) * (1 - 2.0 ** -k))
            mu = b0 + sig * (gamma(1 + k) - 1) / k
            rows.append((et, n, np.round(k, 6) + 0.0,
                         np.round(sig, 6) + 0.0, np.round(mu, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_blocks",
                                           "gev_k", "gev_sigma", "gev_mu"])

    out = keyed_map_partitions(dm, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_blocks"] = out["n_blocks"].astype(np.int64)
    out = _fill(out, ["gev_k", "gev_sigma", "gev_mu"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_GEV_PWM = f"""
    WITH hourly AS ({_HOURLY_SQL}),
    dm AS (
        SELECT event_type, date_trunc('day', h) AS d, max(v) AS mx
        FROM hourly GROUP BY 1, 2
    ),
    r AS (
        SELECT event_type, mx,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY mx) AS j,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM dm
    ),
    b AS (
        SELECT event_type, any_value(n) AS n, avg(mx) AS b0,
               sum((j - 1) / (n - 1.0) * mx) / any_value(n) AS b1,
               sum((j - 1) * (j - 2)
                   / ((n - 1.0) * (n - 2.0)) * mx) / any_value(n) AS b2
        FROM r WHERE n >= 3 GROUP BY 1
    ),
    kfit AS (
        SELECT event_type, n, b0, b1, b2,
               7.8590 * ((2 * b1 - b0) / (3 * b2 - b0) - ln(2) / ln(3))
               + 2.9554 * pow((2 * b1 - b0) / (3 * b2 - b0)
                              - ln(2) / ln(3), 2) AS k
        FROM b
    ),
    fit AS (
        SELECT event_type, n, k,
               CASE WHEN abs(k) >= 1e-9
                    THEN (2 * b1 - b0) * k
                         / (gamma(1 + k) * (1 - pow(2, -k))) END AS sig,
               b0 AS b0
        FROM kfit
    ),
    base AS (SELECT DISTINCT event_type FROM dm)
    SELECT base.event_type,
           CAST(COALESCE(fit.n, (SELECT count(*) FROM dm d2
                                 WHERE d2.event_type = base.event_type))
                AS BIGINT) AS n_blocks,
           COALESCE(round(fit.k, 6) + 0.0, {NULLF}) AS gev_k,
           COALESCE(round(fit.sig, 6) + 0.0, {NULLF}) AS gev_sigma,
           COALESCE(CASE WHEN abs(fit.k) >= 1e-9
                         THEN round(fit.b0 + fit.sig * (gamma(1 + fit.k) - 1)
                                    / fit.k, 6) + 0.0 END, {NULLF})
               AS gev_mu
    FROM base LEFT JOIN fit USING (event_type)
    ORDER BY 1
"""


@entry("sample_entropy_daily", sql=lambda: SQL_SAMPLE_ENTROPY)
def q_sample_entropy_daily(sf_dir: str) -> pd.DataFrame:
    """Sample entropy per series (Richman & Moorman 2000; m=2,
    r = 0.2·σ rounded to 6 so both engines use the same tolerance):
    SampEn = −ln(A/B) with B = ordered template pairs (i<j) matching at
    length 2 under Chebyshev ≤ r, A = the same at length 3 — the
    regularity measure separating structured from noisy series."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            if n < 4 or v.std(ddof=1) == 0:
                rows.append((et, n, np.nan, 0, 0))
                continue
            r = np.round(0.2 * v.std(ddof=1), 6) + 0.0
            W2 = np.lib.stride_tricks.sliding_window_view(v, 2)
            W3 = np.lib.stride_tricks.sliding_window_view(v, 3)

            def count_pairs(W):
                D = np.abs(W[:, None, :] - W[None, :, :]).max(axis=2)
                iu = np.triu_indices(len(W), k=1)
                return int((D[iu] <= r).sum())

            B, A = count_pairs(W2), count_pairs(W3)
            se = (np.round(-np.log(A / B), 6) + 0.0
                  if A > 0 and B > 0 else np.nan)
            rows.append((et, n, se, A, B))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "sampen", "n_a", "n_b"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["n_days", "n_a", "n_b"]] = out[["n_days", "n_a", "n_b"]] \
        .astype(np.int64)
    out = _fill(out, ["sampen"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_SAMPLE_ENTROPY = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               LEAD(v, 1) OVER w AS v1, LEAD(v, 2) OVER w AS v2,
               ROW_NUMBER() OVER w AS rn
        FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
    ),
    tol AS (SELECT event_type, count(*) AS n,
                   round(0.2 * stddev_samp(v), 6) + 0.0 AS tol
            FROM daily GROUP BY 1),
    b2 AS (
        SELECT a.event_type, count(*) AS b
        FROM r a JOIN r b ON a.event_type = b.event_type AND a.rn < b.rn
        JOIN tol ON tol.event_type = a.event_type
        WHERE a.v1 IS NOT NULL AND b.v1 IS NOT NULL
          AND greatest(abs(a.v - b.v), abs(a.v1 - b.v1)) <= tol.tol
        GROUP BY 1
    ),
    a3 AS (
        SELECT a.event_type, count(*) AS a
        FROM r a JOIN r b ON a.event_type = b.event_type AND a.rn < b.rn
        JOIN tol ON tol.event_type = a.event_type
        WHERE a.v2 IS NOT NULL AND b.v2 IS NOT NULL
          AND greatest(abs(a.v - b.v), abs(a.v1 - b.v1),
                       abs(a.v2 - b.v2)) <= tol.tol
        GROUP BY 1
    )
    SELECT t.event_type, CAST(t.n AS BIGINT) AS n_days,
           COALESCE(CASE WHEN t.n >= 4 AND t.tol > 0
                          AND COALESCE(a3.a, 0) > 0
                          AND COALESCE(b2.b, 0) > 0
                         THEN round(-ln(a3.a * 1.0 / b2.b), 6) + 0.0 END,
                    {NULLF}) AS sampen,
           CAST(CASE WHEN t.n >= 4 AND t.tol > 0
                     THEN COALESCE(a3.a, 0) ELSE 0 END AS BIGINT) AS n_a,
           CAST(CASE WHEN t.n >= 4 AND t.tol > 0
                     THEN COALESCE(b2.b, 0) ELSE 0 END AS BIGINT) AS n_b
    FROM tol t
    LEFT JOIN b2 USING (event_type) LEFT JOIN a3 USING (event_type)
    ORDER BY 1
"""


@entry("von_neumann_daily", sql=lambda: SQL_VON_NEUMANN)
def q_von_neumann_daily(sf_dir: str) -> pd.DataFrame:
    """Von Neumann ratio per series (1941 successive-difference test):
    η = Σ(vₜ₊₁−vₜ)² / Σ(v−v̄)² — ≈2 under independence, <2 under positive
    autocorrelation, >2 under alternation. Pure moment algebra."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            den = ((v - v.mean()) ** 2).sum()
            if len(v) < 2 or den <= 0:
                rows.append((et, len(v), np.nan))
                continue
            eta = (np.diff(v) ** 2).sum() / den
            rows.append((et, len(v), np.round(eta, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days", "vn_eta"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["vn_eta"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_VON_NEUMANN = f"""
    WITH daily AS ({_DAILY_SQL}),
    d AS (
        SELECT event_type, v,
               v - LAG(v) OVER (PARTITION BY event_type ORDER BY d) AS dv,
               avg(v) OVER (PARTITION BY event_type) AS mu
        FROM daily
    )
    SELECT event_type, CAST(count(*) AS BIGINT) AS n_days,
           COALESCE(CASE WHEN count(*) >= 2
                          AND sum((v - mu) * (v - mu)) > 0
                         THEN round(sum(dv * dv)
                                    / sum((v - mu) * (v - mu)), 6) + 0.0
                    END, {NULLF}) AS vn_eta
    FROM d GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# turning points test / ACF whiteness audit / pairwise mean contrasts
# ---------------------------------------------------------------------------

@entry("turning_points_daily", sql=lambda: SQL_TURNING_POINTS)
def q_turning_points_daily(sf_dir: str) -> pd.DataFrame:
    """Kendall turning-points randomness test per series: count interior
    local extrema (vₜ₋₁<vₜ>vₜ₊₁ or vₜ₋₁>vₜ<vₜ₊₁), compare to the i.i.d.
    expectation 2(n−2)/3 with variance (16n−29)/90 → z-score. Strict
    inequalities; plateau points are not turning points."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            if n < 3:
                rows.append((et, n, 0, np.nan, np.nan))
                continue
            a, b, c = v[:-2], v[1:-1], v[2:]
            tp = int((((b > a) & (b > c)) | ((b < a) & (b < c))).sum())
            exp = 2.0 * (n - 2) / 3.0
            var = (16.0 * n - 29.0) / 90.0
            z = (tp - exp) / np.sqrt(var)
            rows.append((et, n, tp, np.round(exp, 6) + 0.0,
                         np.round(z, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "n_turning", "expected", "z"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["n_days", "n_turning"]] = out[["n_days", "n_turning"]] \
        .astype(np.int64)
    out = _fill(out, ["expected", "z"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_TURNING_POINTS = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (
        SELECT event_type, v,
               LAG(v) OVER s AS pv, LEAD(v) OVER s AS nv,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily WINDOW s AS (PARTITION BY event_type ORDER BY d)
    )
    SELECT event_type, CAST(any_value(n) AS BIGINT) AS n_days,
           CAST(sum(CASE WHEN pv IS NOT NULL AND nv IS NOT NULL
                          AND ((v > pv AND v > nv) OR (v < pv AND v < nv))
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_turning,
           COALESCE(CASE WHEN any_value(n) >= 3
                         THEN round(2.0 * (any_value(n) - 2) / 3.0, 6) + 0.0
                    END, {NULLF}) AS expected,
           COALESCE(CASE WHEN any_value(n) >= 3
                         THEN round((sum(CASE WHEN pv IS NOT NULL
                                           AND nv IS NOT NULL
                                           AND ((v > pv AND v > nv)
                                                OR (v < pv AND v < nv))
                                          THEN 1 ELSE 0 END)
                                     - 2.0 * (any_value(n) - 2) / 3.0)
                                    / sqrt((16.0 * any_value(n) - 29.0)
                                           / 90.0), 6) + 0.0 END, {NULLF})
               AS z
    FROM w GROUP BY 1 ORDER BY 1
"""


@entry("acf_whiteness_daily", sql=lambda: SQL_ACF_WHITENESS)
def q_acf_whiteness_daily(sf_dir: str) -> pd.DataFrame:
    """Correlogram whiteness audit per series: how many of the first 10
    sample autocorrelations breach the Bartlett ±1.96/√n band (the visual
    'is this residual white?' check, quantified). ACF values round to 6
    before the breach comparison so both engines flag identically."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            dv = v - v.mean()
            den = (dv ** 2).sum()
            if n < 11 or den <= 0:
                rows.append((et, n, 0, np.nan))
                continue
            bound = np.round(1.96 / np.sqrt(n), 6) + 0.0
            breaches = 0
            worst = 0.0
            for k in range(1, 11):
                rk = np.round((dv[k:] * dv[:-k]).sum() / den, 6) + 0.0
                breaches += int(abs(rk) > bound)
                worst = max(worst, abs(rk))
            rows.append((et, n, breaches, np.round(worst, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "n_breaches", "max_abs_acf"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["n_days", "n_breaches"]] = out[["n_days", "n_breaches"]] \
        .astype(np.int64)
    out = _fill(out, ["max_abs_acf"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_ACF_WHITENESS = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (SELECT event_type, avg(v) AS mu, count(*) AS n
          FROM daily GROUP BY 1),
    r AS (
        SELECT d.event_type, d.v, m.mu, m.n,
               ROW_NUMBER() OVER (PARTITION BY d.event_type
                                  ORDER BY d.d) AS rn
        FROM daily d JOIN m USING (event_type)
    ),
    den AS (SELECT event_type, sum((v - mu) * (v - mu)) AS den
            FROM r GROUP BY 1),
    ks AS (SELECT unnest(range(1, 11)) AS k),
    acf AS (
        SELECT a.event_type, ks.k,
               round(sum((a.v - a.mu) * (b.v - b.mu))
                     / any_value(den.den), 6) + 0.0 AS rk,
               any_value(a.n) AS n
        FROM ks, r a
        JOIN r b ON a.event_type = b.event_type AND a.rn = b.rn + ks.k
        JOIN den ON den.event_type = a.event_type
        WHERE den.den > 0 AND a.n >= 11
        GROUP BY 1, 2
    ),
    agg AS (
        SELECT event_type, any_value(n) AS n,
               sum(CASE WHEN abs(rk) > round(1.96 / sqrt(n), 6) + 0.0
                        THEN 1 ELSE 0 END) AS breaches,
               max(abs(rk)) AS worst
        FROM acf GROUP BY 1
    ),
    base AS (SELECT event_type, count(*) AS n FROM daily GROUP BY 1)
    SELECT base.event_type, CAST(base.n AS BIGINT) AS n_days,
           CAST(COALESCE(agg.breaches, 0) AS BIGINT) AS n_breaches,
           COALESCE(round(agg.worst, 6) + 0.0, {NULLF}) AS max_abs_acf
    FROM base LEFT JOIN agg USING (event_type)
    ORDER BY 1
"""


@entry("pairwise_mean_diff_events", sql=lambda: SQL_PAIRWISE_MEAN_DIFF)
def q_pairwise_mean_diff_events(sf_dir: str) -> pd.DataFrame:
    """Post-hoc pairwise contrasts after the day-of-week ANOVA family:
    for every event-type pair, the mean-value difference with the pooled-
    variance standard error and Bonferroni-adjusted 95% CI (10 pairs →
    z = 2.807, the Šidák-free classic). One moment row per type crosses;
    pairing is driver-side over k rows."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["v2"] = b["value"].to_numpy(np.float64) ** 2
        b["one"] = 1.0
        return b[["event_type", "one", "value", "v2"]]

    g = hash_aggregate(ev.map_batches(moments, batch_format="pandas"),
                       ["event_type"],
                       {"n": ("one", "sum"), "s": ("value", "sum"),
                        "ss": ("v2", "sum")},
                       num_partitions=_NP).to_pandas() \
        .sort_values("event_type").reset_index(drop=True)
    n = g["n"].to_numpy(np.float64)
    m = g["s"].to_numpy(np.float64) / n
    sse = g["ss"].to_numpy(np.float64) - n * m * m
    s2p = sse.sum() / (n.sum() - len(n))  # pooled within variance
    Z = 2.807  # Bonferroni 0.05/10 two-sided normal quantile
    rows = []
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            diff = m[i] - m[j]
            se = np.sqrt(s2p * (1.0 / n[i] + 1.0 / n[j]))
            rows.append((g["event_type"][i], g["event_type"][j],
                         np.round(diff, 6) + 0.0, np.round(se, 6) + 0.0,
                         np.round(diff - Z * se, 6) + 0.0,
                         np.round(diff + Z * se, 6) + 0.0))
    return pd.DataFrame(rows, columns=["et_a", "et_b", "mean_diff",
                                       "se", "ci_lo", "ci_hi"])


SQL_PAIRWISE_MEAN_DIFF = """
    WITH g AS (
        SELECT event_type, count(*)::DOUBLE AS n, avg(value) AS m,
               sum(value * value) - count(*) * avg(value) * avg(value)
                   AS sse
        FROM events GROUP BY 1
    ),
    pool AS (SELECT sum(sse) / (sum(n) - count(*)) AS s2p FROM g)
    SELECT a.event_type AS et_a, b.event_type AS et_b,
           round(a.m - b.m, 6) + 0.0 AS mean_diff,
           round(sqrt(pool.s2p * (1 / a.n + 1 / b.n)), 6) + 0.0 AS se,
           round(a.m - b.m - 2.807 * sqrt(pool.s2p * (1 / a.n + 1 / b.n)),
                 6) + 0.0 AS ci_lo,
           round(a.m - b.m + 2.807 * sqrt(pool.s2p * (1 / a.n + 1 / b.n)),
                 6) + 0.0 AS ci_hi
    FROM g a JOIN g b ON a.event_type < b.event_type
    CROSS JOIN pool
    ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# DAU half-life / weekend effect / Chapman capture-recapture
# ---------------------------------------------------------------------------

@entry("dau_halflife_events", sql=lambda: SQL_DAU_HALFLIFE)
def q_dau_halflife_events(sf_dir: str) -> pd.DataFrame:
    """Audience-decay half-life: OLS of ln(DAU) on the day index; when the
    slope is negative, half-life = ln2/(−slope) days (NULLF for flat or
    growing audiences — no decay to halve). The log-linear survival read
    of the engine's distinct-count spine."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def day_fn(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["d"] = b["ts"].dt.floor("D")
        return b[["d", "user_id"]]

    dau = hash_aggregate(
        ev.map_batches(day_fn, batch_format="pandas"), ["d", "user_id"],
        {"one": ("user_id", "size")}, num_partitions=_NP)
    daily = hash_count(dau, ["d"], out_col="dau",
                       num_partitions=4).to_pandas().sort_values("d")
    y = np.log(daily["dau"].to_numpy(np.float64))
    t = np.arange(len(y), dtype=np.float64)
    tm, ym = t.mean(), y.mean()
    slope = ((t - tm) * (y - ym)).sum() / ((t - tm) ** 2).sum()
    hl = np.log(2.0) / -slope if slope < 0 else np.nan
    return pd.DataFrame({
        "n_days": [np.int64(len(y))],
        "slope": [np.round(slope, 6) + 0.0],
        "halflife_days": [np.round(hl, 6) + 0.0 if np.isfinite(hl)
                          else NULLF],
    })


SQL_DAU_HALFLIFE = f"""
    WITH dau AS (
        SELECT date_trunc('day', ts) AS d,
               count(DISTINCT user_id)::DOUBLE AS dau
        FROM events GROUP BY 1
    ),
    r AS (SELECT ln(dau) AS y,
                 ROW_NUMBER() OVER (ORDER BY d) - 1.0 AS t
          FROM dau),
    fit AS (SELECT count(*) AS n, regr_slope(y, t) AS slope FROM r)
    SELECT CAST(n AS BIGINT) AS n_days,
           round(slope, 6) + 0.0 AS slope,
           COALESCE(CASE WHEN slope < 0
                         THEN round(ln(2) / -slope, 6) + 0.0 END, {NULLF})
               AS halflife_days
    FROM fit
"""


@entry("weekend_effect_daily", sql=lambda: SQL_WEEKEND_EFFECT)
def q_weekend_effect_daily(sf_dir: str) -> pd.DataFrame:
    """Weekend effect per series: Welch t statistic between weekend and
    weekday daily values (the calendar-feature significance screen before
    adding dow terms to a model). NULLF when either side has < 2 days."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            we = g["d"].dt.dayofweek.to_numpy() >= 5
            a = g["v"].to_numpy(np.float64)[we]
            b = g["v"].to_numpy(np.float64)[~we]
            if len(a) < 2 or len(b) < 2:
                rows.append((et, len(a), len(b), np.nan, np.nan))
                continue
            diff = a.mean() - b.mean()
            se = np.sqrt(a.var(ddof=1) / len(a) + b.var(ddof=1) / len(b))
            t = diff / se if se > 0 else np.nan
            rows.append((et, len(a), len(b), np.round(diff, 6) + 0.0,
                         np.round(t, 6) + 0.0 if np.isfinite(t)
                         else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "n_weekend",
                                           "n_weekday", "mean_diff",
                                           "welch_t"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["n_weekend", "n_weekday"]] = out[["n_weekend", "n_weekday"]] \
        .astype(np.int64)
    out = _fill(out, ["mean_diff", "welch_t"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_WEEKEND_EFFECT = f"""
    WITH daily AS ({_DAILY_SQL}),
    t AS (SELECT event_type, v, isodow(d) >= 6 AS we FROM daily),
    a AS (SELECT event_type,
                 count(*) FILTER (we) AS na,
                 count(*) FILTER (NOT we) AS nb,
                 avg(v) FILTER (we) AS ma,
                 avg(v) FILTER (NOT we) AS mb,
                 var_samp(v) FILTER (we) AS va,
                 var_samp(v) FILTER (NOT we) AS vb
          FROM t GROUP BY 1)
    SELECT event_type, CAST(na AS BIGINT) AS n_weekend,
           CAST(nb AS BIGINT) AS n_weekday,
           COALESCE(CASE WHEN na >= 2 AND nb >= 2
                         THEN round(ma - mb, 6) + 0.0 END, {NULLF})
               AS mean_diff,
           COALESCE(CASE WHEN na >= 2 AND nb >= 2
                          AND va / na + vb / nb > 0
                         THEN round((ma - mb) / sqrt(va / na + vb / nb),
                                    6) + 0.0 END, {NULLF}) AS welch_t
    FROM a ORDER BY 1
"""


@entry("chapman_estimate_users", sql=lambda: SQL_CHAPMAN_ESTIMATE)
def q_chapman_estimate_users(sf_dir: str) -> pd.DataFrame:
    """Chapman capture-recapture estimate of the total user population
    from two 'capture' windows (first vs second half of the event span):
    N̂ = (n₁+1)(n₂+1)/(m+1) − 1 with m = users seen in both — the
    ecology estimator data teams reuse to size unseen populations.
    Per-user window flags reduce map-side; three counts leave."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])
    bounds = ev.map_batches(
        lambda b: pd.DataFrame({"lo": [b["ts"].astype("int64").min()],
                                "hi": [b["ts"].astype("int64").max()]}),
        batch_format="pandas").to_pandas()
    mid = (int(bounds["lo"].min()) + int(bounds["hi"].max())) // 2

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64").to_numpy()
        first = us <= mid
        return pd.DataFrame({"user_id": b["user_id"],
                             "w1": first.astype(np.int64),
                             "w2": (~first).astype(np.int64)})

    per_user = hash_aggregate(
        ev.map_batches(flags, batch_format="pandas"), ["user_id"],
        {"w1": ("w1", "max"), "w2": ("w2", "max")},
        num_partitions=_NP).to_pandas()
    n1 = int(per_user["w1"].sum())
    n2 = int(per_user["w2"].sum())
    m = int(((per_user["w1"] == 1) & (per_user["w2"] == 1)).sum())
    true_n = len(per_user)
    est = (n1 + 1.0) * (n2 + 1.0) / (m + 1.0) - 1.0
    return pd.DataFrame({
        "n_window1": [np.int64(n1)], "n_window2": [np.int64(n2)],
        "n_both": [np.int64(m)], "n_true": [np.int64(true_n)],
        "chapman_estimate": [np.round(est, 6) + 0.0],
    })


SQL_CHAPMAN_ESTIMATE = """
    WITH mid AS (
        SELECT (min(epoch_us(ts)) + max(epoch_us(ts))) // 2 AS m
        FROM events
    ),
    u AS (
        SELECT user_id,
               max(CASE WHEN epoch_us(ts) <= mid.m THEN 1 ELSE 0 END) AS w1,
               max(CASE WHEN epoch_us(ts) > mid.m THEN 1 ELSE 0 END) AS w2
        FROM events CROSS JOIN mid GROUP BY 1
    )
    SELECT CAST(sum(w1) AS BIGINT) AS n_window1,
           CAST(sum(w2) AS BIGINT) AS n_window2,
           CAST(sum(CASE WHEN w1 = 1 AND w2 = 1 THEN 1 ELSE 0 END)
                AS BIGINT) AS n_both,
           CAST(count(*) AS BIGINT) AS n_true,
           round((sum(w1) + 1.0) * (sum(w2) + 1.0)
                 / (sum(CASE WHEN w1 = 1 AND w2 = 1 THEN 1 ELSE 0 END)
                    + 1.0) - 1.0, 6) + 0.0 AS chapman_estimate
    FROM u
"""


# ---------------------------------------------------------------------------
# Burrows' Delta stylometry / ABC classification / calibration table
# ---------------------------------------------------------------------------

@entry("burrows_delta_sources", sql=lambda: SQL_BURROWS_DELTA)
def q_burrows_delta_sources(sf_dir: str) -> pd.DataFrame:
    """Burrows' Delta stylometric distance (Burrows 2002) between the
    first four sources: over the corpus's top-50 tokens (count desc, token
    asc), each source's relative frequency z-scores against the across-
    ALL-sources distribution (ddof=1), Delta(a,b) = mean |z_a − z_b|.
    Counts build combiner-first; only the 20×50 frequency matrix reaches
    the driver (bounded by design)."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ex = b[["source"]].copy()
        ex["tok"] = b["text"].str.split()
        ex = ex.explode("tok").dropna(subset=["tok"])
        vc = ex.groupby(["source", "tok"], sort=False).size()
        return vc.rename("cnt").reset_index() \
            .rename(columns={"tok": "token"})

    tc = hash_aggregate(docs.map_batches(partial, batch_format="pandas"),
                        ["source", "token"], {"c": ("cnt", "sum")},
                        num_partitions=_NP).materialize()
    corpus = hash_aggregate(tc, ["token"], {"n": ("c", "sum")},
                            num_partitions=_NP).to_pandas()
    top = corpus.sort_values(["n", "token"],
                             ascending=[False, True]).head(50)["token"]
    top = list(top)
    sub = tc.filter(lambda r: r["token"] in set(top)).to_pandas()
    totals = hash_aggregate(tc, ["source"], {"N": ("c", "sum")},
                            num_partitions=_NP).to_pandas() \
        .set_index("source")["N"].astype(float)
    # relative-frequency matrix source × top-term (absent term → 0)
    mat = sub.pivot_table(index="source", columns="token", values="c",
                          aggfunc="sum", fill_value=0.0)
    mat = mat.reindex(index=totals.index, columns=top, fill_value=0.0)
    F = mat.to_numpy(np.float64) / totals.to_numpy(np.float64)[:, None]
    mu = F.mean(axis=0)
    sd = F.std(axis=0, ddof=1)
    Z = (F - mu) / np.where(sd > 0, sd, 1.0)
    Z[:, sd <= 0] = 0.0
    srcs = list(totals.index)
    zmap = {s: Z[i] for i, s in enumerate(srcs)}
    rows = []
    for i, a in enumerate(_KL_SOURCES):
        for b in _KL_SOURCES[i + 1:]:
            delta = float(np.abs(zmap[a] - zmap[b]).mean())
            rows.append((a, b, np.round(delta, 6) + 0.0))
    return pd.DataFrame(rows, columns=["src_a", "src_b", "delta"])


SQL_BURROWS_DELTA = r"""
    WITH tok AS (
      SELECT source,
             unnest(list_filter(string_split_regex(text, '\s+'),
                                x -> x <> '')) AS token
      FROM documents
    ),
    tc AS (SELECT source, token, count(*)::DOUBLE AS c
           FROM tok GROUP BY 1, 2),
    corpus AS (SELECT token, sum(c) AS n FROM tc GROUP BY 1),
    top AS (SELECT token FROM corpus
            ORDER BY n DESC, token LIMIT 50),
    totals AS (SELECT source, sum(c) AS N FROM tc GROUP BY 1),
    grid AS (SELECT t.source, top.token, t.N
             FROM totals t CROSS JOIN top),
    f AS (
        SELECT g.source, g.token,
               COALESCE(tc.c, 0) / g.N AS f
        FROM grid g LEFT JOIN tc
          ON tc.source = g.source AND tc.token = g.token
    ),
    stats AS (SELECT token, avg(f) AS mu, stddev_samp(f) AS sd
              FROM f GROUP BY 1),
    z AS (
        SELECT f.source, f.token,
               CASE WHEN s.sd > 0 THEN (f.f - s.mu) / s.sd ELSE 0 END AS z
        FROM f JOIN stats s USING (token)
    ),
    pairs AS (
        SELECT a.source AS src_a, b.source AS src_b, a.token,
               abs(a.z - b.z) AS az
        FROM z a JOIN z b ON a.token = b.token AND a.source < b.source
        WHERE a.source IN ('src0', 'src1', 'src2', 'src3')
          AND b.source IN ('src0', 'src1', 'src2', 'src3')
    )
    SELECT src_a, src_b, round(avg(az), 6) + 0.0 AS delta
    FROM pairs GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("abc_classification_parts", sql=lambda: SQL_ABC_CLASSIFICATION)
def q_abc_classification_parts(sf_dir: str) -> pd.DataFrame:
    """ABC revenue classification of parts (the Pareto inventory policy):
    parts ranked by revenue (desc, partkey asc), class A while the
    cumulative share ≤ 80%, B while ≤ 95%, else C — classes cut on the
    ROUNDED cumulative share so both engines draw identical boundaries.
    Output: per-class part counts and revenue share."""
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_extendedprice", "l_discount"])

    def rev(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["r"] = (b["l_extendedprice"].to_numpy(np.float64)
                  * (1.0 - b["l_discount"].to_numpy(np.float64)))
        return b[["l_partkey", "r"]]

    per_part = hash_aggregate(li.map_batches(rev, batch_format="pandas"),
                              ["l_partkey"], {"rev": ("r", "sum")},
                              num_partitions=_NP).to_pandas()
    per_part = per_part.sort_values(["rev", "l_partkey"],
                                    ascending=[False, True])
    r = per_part["rev"].to_numpy(np.float64)
    cum = np.round(np.cumsum(r) / r.sum(), 6) + 0.0
    cls = np.where(cum <= 0.80, "A", np.where(cum <= 0.95, "B", "C"))
    per_part["cls"] = cls
    g = per_part.groupby("cls")["rev"]
    out = pd.DataFrame({"abc_class": g.size().index,
                        "n_parts": g.size().to_numpy(np.int64),
                        "revenue_share": np.round(
                            g.sum().to_numpy(np.float64) / r.sum(), 6)
                        + 0.0})
    return out.sort_values("abc_class").reset_index(drop=True)


SQL_ABC_CLASSIFICATION = """
    WITH pp AS (
        SELECT l_partkey,
               sum(l_extendedprice * (1 - l_discount)) AS rev
        FROM lineitem GROUP BY 1
    ),
    c AS (
        SELECT l_partkey, rev,
               round(sum(rev) OVER (ORDER BY rev DESC, l_partkey
                                    ROWS UNBOUNDED PRECEDING)
                     / (SELECT sum(rev) FROM pp), 6) + 0.0 AS cum
        FROM pp
    ),
    t AS (SELECT CASE WHEN cum <= 0.80 THEN 'A'
                      WHEN cum <= 0.95 THEN 'B' ELSE 'C' END AS abc_class,
                 rev
          FROM c)
    SELECT abc_class, CAST(count(*) AS BIGINT) AS n_parts,
           round(sum(rev) / (SELECT sum(rev) FROM pp), 6) + 0.0
               AS revenue_share
    FROM t GROUP BY 1 ORDER BY 1
"""


@entry("calibration_users", sql=lambda: SQL_CALIBRATION_USERS)
def q_calibration_users(sf_dir: str) -> pd.DataFrame:
    """Reliability (calibration) table of a naive behavioral predictor:
    each user's FIRST-half purchase share predicts whether they purchase
    in the second half; predictions bucket into deciles (on the ROUNDED
    share) and each bucket reports mean predicted vs observed rate — the
    calibration-curve primitive under every probabilistic model eval."""
    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    bounds = ev.map_batches(
        lambda b: pd.DataFrame({"lo": [b["ts"].astype("int64").min()],
                                "hi": [b["ts"].astype("int64").max()]}),
        batch_format="pandas").to_pandas()
    mid = (int(bounds["lo"].min()) + int(bounds["hi"].max())) // 2

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64").to_numpy()
        first = us <= mid
        isp = (b["event_type"] == "purchase").to_numpy()
        return pd.DataFrame({
            "user_id": b["user_id"],
            "n1": first.astype(np.int64),
            "p1": (first & isp).astype(np.int64),
            "p2": (~first & isp).astype(np.int64)})

    per_user = hash_aggregate(
        ev.map_batches(flags, batch_format="pandas"), ["user_id"],
        {"n1": ("n1", "sum"), "p1": ("p1", "sum"), "p2": ("p2", "max")},
        num_partitions=_NP).to_pandas()
    per_user = per_user[per_user["n1"] > 0]
    pred = np.round(per_user["p1"].to_numpy(np.float64)
                    / per_user["n1"].to_numpy(np.float64), 6) + 0.0
    dec = np.minimum((pred * 10).astype(np.int64), 9)
    obs = per_user["p2"].to_numpy(np.float64)
    df = pd.DataFrame({"decile": dec, "pred": pred, "obs": obs})
    g = df.groupby("decile")
    out = pd.DataFrame({
        "decile": g.size().index.astype(np.int64),
        "n_users": g.size().to_numpy(np.int64),
        "mean_pred": np.round(g["pred"].mean().to_numpy(np.float64),
                              6) + 0.0,
        "obs_rate": np.round(g["obs"].mean().to_numpy(np.float64),
                             6) + 0.0})
    return out.sort_values("decile").reset_index(drop=True)


SQL_CALIBRATION_USERS = """
    WITH mid AS (
        SELECT (min(epoch_us(ts)) + max(epoch_us(ts))) // 2 AS m
        FROM events
    ),
    u AS (
        SELECT user_id,
               sum(CASE WHEN epoch_us(ts) <= mid.m THEN 1 ELSE 0 END) AS n1,
               sum(CASE WHEN epoch_us(ts) <= mid.m
                         AND event_type = 'purchase'
                        THEN 1 ELSE 0 END) AS p1,
               max(CASE WHEN epoch_us(ts) > mid.m
                         AND event_type = 'purchase'
                        THEN 1 ELSE 0 END) AS p2
        FROM events CROSS JOIN mid GROUP BY 1
    ),
    t AS (
        SELECT least(CAST(floor((round(p1 * 1.0 / n1, 6) + 0.0) * 10)
                          AS BIGINT), 9) AS decile,
               round(p1 * 1.0 / n1, 6) + 0.0 AS pred,
               p2::DOUBLE AS obs
        FROM u WHERE n1 > 0
    )
    SELECT decile, CAST(count(*) AS BIGINT) AS n_users,
           round(avg(pred), 6) + 0.0 AS mean_pred,
           round(avg(obs), 6) + 0.0 AS obs_rate
    FROM t GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Brier decomposition / crawl politeness gaps / partial correlation
# ---------------------------------------------------------------------------

@entry("brier_decomposition_users", sql=lambda: SQL_BRIER_DECOMPOSITION)
def q_brier_decomposition_users(sf_dir: str) -> pd.DataFrame:
    """Brier score of the first-half→second-half purchase predictor plus
    its Murphy (1973) decile decomposition: reliability
    Σnₖ(p̄ₖ−ōₖ)²/N, resolution Σnₖ(ōₖ−ō)²/N and uncertainty ō(1−ō) —
    the standard probabilistic-forecast quality split (identity exact only
    for bin-constant forecasts, so all four report independently)."""
    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    bounds = ev.map_batches(
        lambda b: pd.DataFrame({"lo": [b["ts"].astype("int64").min()],
                                "hi": [b["ts"].astype("int64").max()]}),
        batch_format="pandas").to_pandas()
    mid = (int(bounds["lo"].min()) + int(bounds["hi"].max())) // 2

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64").to_numpy()
        first = us <= mid
        isp = (b["event_type"] == "purchase").to_numpy()
        return pd.DataFrame({
            "user_id": b["user_id"],
            "n1": first.astype(np.int64),
            "p1": (first & isp).astype(np.int64),
            "p2": (~first & isp).astype(np.int64)})

    per_user = hash_aggregate(
        ev.map_batches(flags, batch_format="pandas"), ["user_id"],
        {"n1": ("n1", "sum"), "p1": ("p1", "sum"), "p2": ("p2", "max")},
        num_partitions=_NP).to_pandas()
    per_user = per_user[per_user["n1"] > 0]
    pred = np.round(per_user["p1"].to_numpy(np.float64)
                    / per_user["n1"].to_numpy(np.float64), 6) + 0.0
    obs = per_user["p2"].to_numpy(np.float64)
    N = float(len(pred))
    brier = ((pred - obs) ** 2).mean()
    dec = np.minimum((pred * 10).astype(np.int64), 9)
    df = pd.DataFrame({"k": dec, "p": pred, "o": obs})
    g = df.groupby("k")
    nk = g.size().to_numpy(np.float64)
    pk = g["p"].mean().to_numpy(np.float64)
    ok = g["o"].mean().to_numpy(np.float64)
    obar = obs.mean()
    rel = (nk * (pk - ok) ** 2).sum() / N
    res = (nk * (ok - obar) ** 2).sum() / N
    unc = obar * (1.0 - obar)
    return pd.DataFrame({
        "n_users": [np.int64(N)],
        "brier": [np.round(brier, 6) + 0.0],
        "reliability": [np.round(rel, 6) + 0.0],
        "resolution": [np.round(res, 6) + 0.0],
        "uncertainty": [np.round(unc, 6) + 0.0],
    })


SQL_BRIER_DECOMPOSITION = """
    WITH mid AS (
        SELECT (min(epoch_us(ts)) + max(epoch_us(ts))) // 2 AS m
        FROM events
    ),
    u AS (
        SELECT user_id,
               sum(CASE WHEN epoch_us(ts) <= mid.m THEN 1 ELSE 0 END) AS n1,
               sum(CASE WHEN epoch_us(ts) <= mid.m
                         AND event_type = 'purchase'
                        THEN 1 ELSE 0 END) AS p1,
               max(CASE WHEN epoch_us(ts) > mid.m
                         AND event_type = 'purchase'
                        THEN 1 ELSE 0 END) AS p2
        FROM events CROSS JOIN mid GROUP BY 1
    ),
    t AS (
        SELECT round(p1 * 1.0 / n1, 6) + 0.0 AS pred, p2::DOUBLE AS obs,
               least(CAST(floor((round(p1 * 1.0 / n1, 6) + 0.0) * 10)
                          AS BIGINT), 9) AS k
        FROM u WHERE n1 > 0
    ),
    tot AS (SELECT count(*)::DOUBLE AS N, avg(obs) AS obar,
                   avg((pred - obs) * (pred - obs)) AS brier
            FROM t),
    bins AS (SELECT k, count(*)::DOUBLE AS nk, avg(pred) AS pk,
                    avg(obs) AS ok
             FROM t GROUP BY 1)
    SELECT CAST(tot.N AS BIGINT) AS n_users,
           round(tot.brier, 6) + 0.0 AS brier,
           round(sum(bins.nk * (bins.pk - bins.ok) * (bins.pk - bins.ok))
                 / tot.N, 6) + 0.0 AS reliability,
           round(sum(bins.nk * (bins.ok - tot.obar) * (bins.ok - tot.obar))
                 / tot.N, 6) + 0.0 AS resolution,
           round(tot.obar * (1 - tot.obar), 6) + 0.0 AS uncertainty
    FROM bins CROSS JOIN tot
    GROUP BY tot.N, tot.brier, tot.obar
"""


@entry("crawl_gaps_pages", sql=lambda: SQL_CRAWL_GAPS)
def q_crawl_gaps_pages(sf_dir: str) -> pd.DataFrame:
    """Crawl-politeness profile of the synthesized Common-Crawl pages
    (entry()'s formulas): per host, the inter-crawl gaps of sorted
    warc_ts — page count, min and median gap in seconds. The politeness
    audit a crawl scheduler runs per domain; the oracle recomputes the
    synthesis arithmetic in SQL."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    docs = _read(sf_dir, "documents", ["doc_id", "source"])

    def to_ts(b: pd.DataFrame) -> pd.DataFrame:
        host = (b["source"].str.lower().str.replace(" ", "-")
                + ".example.com")
        ts = (_PAGE_EPOCH_US
              + (b["doc_id"].astype(np.int64) * _PAGE_STRIDE)
              % _PAGE_SPAN_US)
        return pd.DataFrame({"host": host, "ts_us": ts})

    pages = docs.map_batches(to_ts, batch_format="pandas")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for h, g in part.groupby("host", sort=False):
            ts = np.sort(g["ts_us"].to_numpy(np.int64))
            if len(ts) < 2:
                rows.append((h, len(ts), np.nan, np.nan))
                continue
            gaps = np.diff(ts) / 1e6
            rows.append((h, len(ts),
                         np.round(gaps.min(), 6) + 0.0,
                         np.round(np.quantile(gaps, 0.5), 6) + 0.0))
        return pd.DataFrame(rows, columns=["host", "n_pages",
                                           "min_gap_s", "median_gap_s"])

    out = keyed_map_partitions(pages, ["host"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_pages"] = out["n_pages"].astype(np.int64)
    out = _fill(out, ["min_gap_s", "median_gap_s"])
    return out.sort_values("host").reset_index(drop=True)


SQL_CRAWL_GAPS = f"""
    WITH pages AS (
        SELECT lower(replace(source, ' ', '-')) || '.example.com' AS host,
               ({_PAGE_EPOCH_US} + (doc_id * {_PAGE_STRIDE})
                % {_PAGE_SPAN_US}) AS ts_us
        FROM documents
    ),
    g AS (
        SELECT host,
               (ts_us - LAG(ts_us) OVER (PARTITION BY host
                                         ORDER BY ts_us)) / 1e6 AS gap
        FROM pages
    )
    SELECT host, CAST(count(*) AS BIGINT) AS n_pages,
           COALESCE(round(min(gap), 6) + 0.0, {NULLF}) AS min_gap_s,
           COALESCE(round(quantile_cont(gap, 0.5), 6) + 0.0, {NULLF})
               AS median_gap_s
    FROM g GROUP BY 1 ORDER BY 1
"""


@entry("partial_corr_daily", sql=lambda: SQL_PARTIAL_CORR)
def q_partial_corr_daily(sf_dir: str) -> pd.DataFrame:
    """Partial correlation between every series pair controlling for the
    MARKET (the all-types daily total): r_ab·z = (r_ab − r_az·r_bz) /
    √((1−r_az²)(1−r_bz²)) — separates genuine co-movement from shared
    market exposure. The k-series spine is collected for the k² pairing
    (k tiny by construction)."""
    daily = _bucket_series(sf_dir, DAY_US, "d")
    wide = daily.to_pandas().pivot_table(index="d", columns="event_type",
                                         values="v", aggfunc="sum")
    market = wide.sum(axis=1)
    ets = sorted(wide.columns)

    def corr(x, y):
        m = x.notna() & y.notna()
        xv, yv = x[m].to_numpy(np.float64), y[m].to_numpy(np.float64)
        xv, yv = xv - xv.mean(), yv - yv.mean()
        den = np.sqrt((xv ** 2).sum() * (yv ** 2).sum())
        return float((xv * yv).sum() / den) if den > 0 else np.nan

    rows = []
    for i, a in enumerate(ets):
        for b in ets[i + 1:]:
            rab = corr(wide[a], wide[b])
            raz = corr(wide[a], market)
            rbz = corr(wide[b], market)
            den = np.sqrt((1 - raz ** 2) * (1 - rbz ** 2))
            pc = (rab - raz * rbz) / den if den > 0 else np.nan
            rows.append((a, b, np.round(rab, 6) + 0.0,
                         np.round(pc, 6) + 0.0 if np.isfinite(pc)
                         else NULLF))
    return pd.DataFrame(rows, columns=["et_a", "et_b", "corr_raw",
                                       "corr_partial"])


SQL_PARTIAL_CORR = f"""
    WITH daily AS ({_DAILY_SQL}),
    mkt AS (SELECT d, sum(v) AS z FROM daily GROUP BY 1),
    j AS (SELECT d1.event_type AS et, d1.v, mkt.z
          FROM daily d1 JOIN mkt USING (d)),
    rz AS (SELECT et, corr(v, z) AS r FROM j GROUP BY 1),
    pair AS (
        SELECT a.event_type AS et_a, b.event_type AS et_b,
               corr(a.v, b.v) AS rab
        FROM daily a JOIN daily b
          ON a.d = b.d AND a.event_type < b.event_type
        GROUP BY 1, 2
    )
    SELECT p.et_a, p.et_b, round(p.rab, 6) + 0.0 AS corr_raw,
           COALESCE(CASE WHEN (1 - ra.r * ra.r) * (1 - rb.r * rb.r) > 0
                         THEN round((p.rab - ra.r * rb.r)
                                    / sqrt((1 - ra.r * ra.r)
                                           * (1 - rb.r * rb.r)), 6) + 0.0
                    END, {NULLF}) AS corr_partial
    FROM pair p
    JOIN rz ra ON ra.et = p.et_a
    JOIN rz rb ON rb.et = p.et_b
    ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Dunning G² keyness / vocabulary coverage / Wilcoxon signed-rank
# ---------------------------------------------------------------------------

@entry("keyness_g2_src0", sql=lambda: SQL_KEYNESS_G2)
def q_keyness_g2_src0(sf_dir: str) -> pd.DataFrame:
    """Dunning (1993) log-likelihood keyness: the 20 tokens most
    distinctive of src0 vs the REST of the corpus by
    G² = 2·Σ O·ln(O/E) over each token's 2×2 table (zero cells contribute
    0), ranked on the ROUNDED statistic (tie → token asc). The corpus-
    comparison keyword extractor; counts build combiner-first."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ex = pd.DataFrame({
            "grp": np.where(b["source"].to_numpy() == "src0", "a", "b"),
            "tok": b["text"].str.split().to_numpy()})
        ex = ex.explode("tok").dropna(subset=["tok"])
        vc = ex.groupby(["grp", "tok"], sort=False).size()
        return vc.rename("cnt").reset_index() \
            .rename(columns={"tok": "token"})

    tc = hash_aggregate(docs.map_batches(partial, batch_format="pandas"),
                        ["grp", "token"], {"c": ("cnt", "sum")},
                        num_partitions=_NP).to_pandas()
    piv = tc.pivot_table(index="token", columns="grp", values="c",
                         aggfunc="sum", fill_value=0.0)
    a = piv.get("a", pd.Series(0, index=piv.index)).to_numpy(np.float64)
    b = piv.get("b", pd.Series(0, index=piv.index)).to_numpy(np.float64)
    NA, NB = a.sum(), b.sum()

    def term(o, e):
        with np.errstate(divide="ignore", invalid="ignore"):
            t = o * np.log(np.where(o > 0, o / e, 1.0))
        return np.where(o > 0, t, 0.0)

    ea = (a + b) * NA / (NA + NB)
    eb = (a + b) * NB / (NA + NB)
    g2 = np.round(2.0 * (term(a, ea) + term(b, eb)), 6) + 0.0
    out = pd.DataFrame({"token": piv.index, "n_src0": a.astype(np.int64),
                        "n_rest": b.astype(np.int64), "g2": g2,
                        "overused": a / NA > b / NB})
    out = out.sort_values(["g2", "token"],
                          ascending=[False, True]).head(20)
    return out.reset_index(drop=True)


SQL_KEYNESS_G2 = r"""
    WITH tok AS (
      SELECT CASE WHEN source = 'src0' THEN 'a' ELSE 'b' END AS grp,
             unnest(list_filter(string_split_regex(text, '\s+'),
                                x -> x <> '')) AS token
      FROM documents
    ),
    tc AS (SELECT token,
                  sum(CASE WHEN grp = 'a' THEN 1 ELSE 0 END)::DOUBLE AS a,
                  sum(CASE WHEN grp = 'b' THEN 1 ELSE 0 END)::DOUBLE AS b
           FROM tok GROUP BY 1),
    n AS (SELECT sum(a) AS na, sum(b) AS nb FROM tc),
    g AS (
        SELECT tc.token, tc.a, tc.b,
               round(2 * (
                   CASE WHEN tc.a > 0 THEN tc.a * ln(tc.a /
                       ((tc.a + tc.b) * n.na / (n.na + n.nb))) ELSE 0 END
                 + CASE WHEN tc.b > 0 THEN tc.b * ln(tc.b /
                       ((tc.a + tc.b) * n.nb / (n.na + n.nb))) ELSE 0 END
               ), 6) + 0.0 AS g2,
               tc.a / n.na > tc.b / n.nb AS overused
        FROM tc CROSS JOIN n
    )
    SELECT token, CAST(a AS BIGINT) AS n_src0, CAST(b AS BIGINT) AS n_rest,
           g2, overused
    FROM g ORDER BY g2 DESC, token LIMIT 20
"""


@entry("vocab_coverage_documents", sql=lambda: SQL_VOCAB_COVERAGE)
def q_vocab_coverage_documents(sf_dir: str) -> pd.DataFrame:
    """Vocabulary coverage curve (the tokenizer-budget question): the
    share of the corpus token STREAM covered by the top-k types for
    k ∈ {100, 1000, 5000} (count desc, token asc rank). Three rows out
    of one ranked aggregate."""
    docs = _read(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["text"].str.split().explode().dropna().value_counts()
        return pd.DataFrame({"token": vc.index.astype(str),
                             "cnt": vc.to_numpy(np.int64)})

    tc = hash_aggregate(docs.map_batches(partial, batch_format="pandas"),
                        ["token"], {"c": ("cnt", "sum")},
                        num_partitions=_NP).to_pandas()
    tc = tc.sort_values(["c", "token"], ascending=[False, True])
    c = tc["c"].to_numpy(np.float64)
    total = c.sum()
    cum = np.cumsum(c)
    rows = []
    for k in (100, 1000, 5000):
        kk = min(k, len(c))
        rows.append((k, np.int64(kk),
                     np.round(cum[kk - 1] / total, 6) + 0.0))
    return pd.DataFrame(rows, columns=["k", "vocab_used", "coverage"]) \
        .astype({"k": np.int64})


SQL_VOCAB_COVERAGE = r"""
    WITH tok AS (
      SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                                x -> x <> '')) AS token
      FROM documents
    ),
    tc AS (SELECT token, count(*)::DOUBLE AS c FROM tok GROUP BY 1),
    r AS (
        SELECT c, ROW_NUMBER() OVER (ORDER BY c DESC, token) AS rk,
               sum(c) OVER (ORDER BY c DESC, token
                            ROWS UNBOUNDED PRECEDING) AS cum,
               (SELECT sum(c) FROM tc) AS total,
               (SELECT count(*) FROM tc) AS v
        FROM tc
    ),
    ks AS (SELECT unnest([100, 1000, 5000]) AS k)
    SELECT CAST(ks.k AS BIGINT) AS k,
           CAST(least(ks.k, r.v) AS BIGINT) AS vocab_used,
           round(r.cum / r.total, 6) + 0.0 AS coverage
    FROM ks JOIN r ON r.rk = least(ks.k, r.v)
    ORDER BY ks.k
"""


@entry("wilcoxon_paired_daily", sql=lambda: SQL_WILCOXON_PAIRED)
def q_wilcoxon_paired_daily(sf_dir: str) -> pd.DataFrame:
    """Wilcoxon signed-rank test pairing each series' day t with day
    t + n//2 (first half vs second half, matched by position): ranks of
    |d| (average ranks on ties, zero diffs dropped), W⁺ = Σ ranks of
    positive diffs, z against the normal approximation. Diffs are ROUNDED
    to 6 before ranking so tie groups match across engines."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            h = len(v) // 2
            d = np.round(v[h:2 * h] - v[:h], 6) + 0.0
            d = d[d != 0]
            n = len(d)
            if n < 2:
                rows.append((et, n, np.nan, np.nan))
                continue
            ad = np.abs(d)
            order = np.argsort(ad, kind="mergesort")
            ranks = np.empty(n, dtype=np.float64)
            sorted_ad = ad[order]
            i = 0
            while i < n:
                j = i
                while j + 1 < n and sorted_ad[j + 1] == sorted_ad[i]:
                    j += 1
                ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
                i = j + 1
            wplus = ranks[d > 0].sum()
            mu = n * (n + 1) / 4.0
            sig = np.sqrt(n * (n + 1) * (2 * n + 1) / 24.0)
            rows.append((et, n, np.round(wplus, 6) + 0.0,
                         np.round((wplus - mu) / sig, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_pairs",
                                           "w_plus", "z"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_pairs"] = out["n_pairs"].astype(np.int64)
    out = _fill(out, ["w_plus", "z"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_WILCOXON_PAIRED = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    pairs AS (
        SELECT a.event_type,
               round(b.v - a.v, 6) + 0.0 AS diff
        FROM r a JOIN r b ON a.event_type = b.event_type
                          AND b.rn = a.rn + a.n // 2
        WHERE a.rn <= a.n // 2
    ),
    nz AS (SELECT event_type, diff, abs(diff) AS ad
           FROM pairs WHERE diff <> 0),
    rk AS (
        SELECT event_type, diff,
               (rank() OVER w + (count(*) OVER (PARTITION BY event_type, ad)
                                 - 1) / 2.0) AS arank
        FROM nz WINDOW w AS (PARTITION BY event_type ORDER BY ad)
    ),
    agg AS (
        SELECT event_type, count(*)::DOUBLE AS n,
               sum(CASE WHEN diff > 0 THEN arank ELSE 0 END) AS wplus
        FROM rk GROUP BY 1
    ),
    base AS (SELECT DISTINCT event_type FROM daily)
    SELECT base.event_type,
           CAST(COALESCE(agg.n, 0) AS BIGINT) AS n_pairs,
           COALESCE(CASE WHEN agg.n >= 2
                         THEN round(agg.wplus, 6) + 0.0 END, {NULLF})
               AS w_plus,
           COALESCE(CASE WHEN agg.n >= 2
                         THEN round((agg.wplus - agg.n * (agg.n + 1) / 4.0)
                              / sqrt(agg.n * (agg.n + 1)
                                     * (2 * agg.n + 1) / 24.0), 6) + 0.0
                    END, {NULLF}) AS z
    FROM base LEFT JOIN agg USING (event_type)
    ORDER BY 1
"""


# ---------------------------------------------------------------------------
# piecewise hinge trend / activity streak histogram / daily mix entropy
# ---------------------------------------------------------------------------

@entry("piecewise_trend_daily", sql=lambda: SQL_PIECEWISE_TREND)
def q_piecewise_trend_daily(sf_dir: str) -> pd.DataFrame:
    """Prophet-style piecewise-linear trend with ONE fixed changepoint at
    t=15 (days since series start): exact OLS of v on [1, t, max(0,t−15)]
    via Cramer's rule on the 3×3 normal equations — the slope-change
    coefficient IS the changepoint magnitude Prophet regularizes. Moments
    pre-reduce per partition; one coefficient row per series crosses."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    KNOT = 15.0

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            us = g["d"].astype("datetime64[us]").astype("int64").to_numpy()
            t = ((us - us.min()) // DAY_US).astype(np.float64)
            h = np.maximum(t - KNOT, 0.0)
            y = g["v"].to_numpy(np.float64)
            X = np.stack([np.ones_like(t), t, h], axis=1)
            A = X.T @ X
            bvec = X.T @ y
            det = np.linalg.det(A)
            if abs(det) < 1e-9:
                rows.append((et, len(y), np.nan, np.nan, np.nan))
                continue
            coef = []
            for c in range(3):
                M = A.copy()
                M[:, c] = bvec
                coef.append(np.linalg.det(M) / det)
            rows.append((et, len(y), np.round(coef[0], 6) + 0.0,
                         np.round(coef[1], 6) + 0.0,
                         np.round(coef[2], 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "intercept", "slope",
                                           "slope_change"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["intercept", "slope", "slope_change"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_PIECEWISE_TREND = f"""
    WITH daily AS ({_DAILY_SQL}),
    tt AS (
        SELECT event_type, v,
               CAST(datediff('day',
                    min(d) OVER (PARTITION BY event_type), d) AS DOUBLE)
                   AS t
        FROM daily
    ),
    x AS (SELECT event_type, v, t, greatest(t - 15.0, 0.0) AS h FROM tt),
    m AS (
        SELECT event_type, count(*)::DOUBLE AS n, sum(t) AS st,
               sum(h) AS sh, sum(t*t) AS stt, sum(t*h) AS sth,
               sum(h*h) AS shh, sum(v) AS sy, sum(v*t) AS syt,
               sum(v*h) AS syh
        FROM x GROUP BY 1
    ),
    dets AS (
        SELECT event_type, n,
               n*(stt*shh - sth*sth) - st*(st*shh - sth*sh)
                   + sh*(st*sth - stt*sh) AS det,
               sy*(stt*shh - sth*sth) - st*(syt*shh - sth*syh)
                   + sh*(syt*sth - stt*syh) AS det_a,
               n*(syt*shh - syh*sth) - sy*(st*shh - sth*sh)
                   + sh*(st*syh - syt*sh) AS det_b,
               n*(stt*syh - sth*syt) - st*(st*syh - syt*sh)
                   + sy*(st*sth - stt*sh) AS det_c
        FROM m
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           COALESCE(CASE WHEN abs(det) >= 1e-9
                         THEN round(det_a / det, 6) + 0.0 END, {NULLF})
               AS intercept,
           COALESCE(CASE WHEN abs(det) >= 1e-9
                         THEN round(det_b / det, 6) + 0.0 END, {NULLF})
               AS slope,
           COALESCE(CASE WHEN abs(det) >= 1e-9
                         THEN round(det_c / det, 6) + 0.0 END, {NULLF})
               AS slope_change
    FROM dets ORDER BY 1
"""


@entry("activity_streaks_users", sql=lambda: SQL_ACTIVITY_STREAKS)
def q_activity_streaks_users(sf_dir: str) -> pd.DataFrame:
    """Longest consecutive-active-day streak per user (the gaps-and-
    islands pattern at user grain), reported as a histogram: streak
    length → user count. Per-user islands resolve inside one co-located
    pass; the bounded histogram is all that leaves."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def days(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["day"] = b["ts"].astype("int64") // DAY_US
        return b[["user_id", "day"]].drop_duplicates()

    ud = hash_aggregate(ev.map_batches(days, batch_format="pandas"),
                        ["user_id", "day"], {"one": ("day", "size")},
                        num_partitions=_NP)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for uid, g in part.groupby("user_id", sort=False):
            d = np.sort(g["day"].to_numpy(np.int64))
            breaks = np.flatnonzero(np.diff(d) != 1)
            lengths = np.diff(np.concatenate(([-1], breaks, [len(d) - 1])))
            rows.append((uid, int(lengths.max())))
        return pd.DataFrame(rows, columns=["user_id", "streak"])

    streaks = keyed_map_partitions(ud, ["user_id"], kernel,
                                   num_partitions=_NP)
    hist = hash_count(streaks, ["streak"], out_col="n_users",
                      num_partitions=4).to_pandas()
    hist = hist.astype({"streak": np.int64, "n_users": np.int64})
    return hist.sort_values("streak").reset_index(drop=True)


SQL_ACTIVITY_STREAKS = f"""
    WITH ud AS (
        SELECT DISTINCT user_id, epoch_us(ts) // {DAY_US} AS day
        FROM events
    ),
    isl AS (
        SELECT user_id, day,
               day - ROW_NUMBER() OVER (PARTITION BY user_id
                                        ORDER BY day) AS grp
        FROM ud
    ),
    runs AS (SELECT user_id, count(*) AS len
             FROM isl GROUP BY user_id, grp),
    mx AS (SELECT user_id, max(len) AS streak FROM runs GROUP BY 1)
    SELECT CAST(streak AS BIGINT) AS streak,
           CAST(count(*) AS BIGINT) AS n_users
    FROM mx GROUP BY 1 ORDER BY 1
"""


@entry("mix_entropy_daily", sql=lambda: SQL_MIX_ENTROPY)
def q_mix_entropy_daily(sf_dir: str) -> pd.DataFrame:
    """Composition entropy of each day's event-type mix: Shannon H over
    the within-day value shares (zero/negative shares excluded) and the
    effective number of types e^H — the diversity read on the
    daily_share decomposition."""
    daily = _bucket_series(sf_dir, DAY_US, "d").materialize()
    tot = hash_aggregate(daily, ["d"], {"T": ("v", "sum")},
                         num_partitions=4).to_pandas()
    tmap = dict(zip(tot["d"], tot["T"]))

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        t = b["d"].map(tmap).to_numpy(np.float64)
        v = b["v"].to_numpy(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            p = np.where((t > 0) & (v > 0), v / t, np.nan)
            term = np.where(np.isnan(p), 0.0, -p * np.log(p))
        return pd.DataFrame({"d": b["d"], "h": term,
                             "k": (~np.isnan(p)).astype(np.int64)})

    agg = hash_aggregate(daily.map_batches(partial, batch_format="pandas"),
                         ["d"], {"H": ("h", "sum"), "k": ("k", "sum")},
                         num_partitions=4).to_pandas()
    H = agg["H"].to_numpy(np.float64)
    return pd.DataFrame({
        "d": agg["d"], "n_types": agg["k"].astype(np.int64),
        "entropy": np.round(H, 6) + 0.0,
        "effective_types": np.round(np.exp(H), 6) + 0.0,
    }).sort_values("d").reset_index(drop=True)


SQL_MIX_ENTROPY = f"""
    WITH daily AS ({_DAILY_SQL}),
    tot AS (SELECT d, sum(v) AS T FROM daily GROUP BY 1),
    p AS (
        SELECT daily.d,
               CASE WHEN tot.T > 0 AND daily.v > 0
                    THEN daily.v / tot.T END AS p
        FROM daily JOIN tot USING (d)
    )
    SELECT d,
           CAST(count(p) AS BIGINT) AS n_types,
           round(COALESCE(sum(-p * ln(p)), 0), 6) + 0.0 AS entropy,
           round(exp(COALESCE(sum(-p * ln(p)), 0)), 6) + 0.0
               AS effective_types
    FROM p GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Kendall's W concordance / discount response curve / rank-biased overlap
# ---------------------------------------------------------------------------

@entry("kendall_w_daily", sql=lambda: SQL_KENDALL_W)
def q_kendall_w_daily(sf_dir: str) -> pd.DataFrame:
    """Kendall's coefficient of concordance W across days: each day ranks
    the event types by value (desc, type asc on ties); W measures how
    stable that ranking is over the month — 1 = identical order every
    day, 0 = random. W = 12·Σ(Rᵢ−m(k+1)/2)² / (m²k(k²−1)) over rank sums
    Rᵢ (days m where all k types present)."""
    daily = _bucket_series(sf_dir, DAY_US, "d")
    wide = daily.to_pandas()
    k = wide["event_type"].nunique()
    full_days = wide.groupby("d")["event_type"].nunique()
    days = full_days[full_days == k].index
    sub = wide[wide["d"].isin(days)].copy()
    sub = sub.sort_values(["d", "v", "event_type"],
                          ascending=[True, False, True])
    sub["rank"] = sub.groupby("d").cumcount() + 1
    R = sub.groupby("event_type")["rank"].sum()
    m = len(days)
    dev = ((R - m * (k + 1) / 2.0) ** 2).sum()
    W = 12.0 * dev / (m * m * k * (k * k - 1.0))
    return pd.DataFrame({
        "n_days": [np.int64(m)], "n_types": [np.int64(k)],
        "kendall_w": [np.round(W, 6) + 0.0],
    })


SQL_KENDALL_W = f"""
    WITH daily AS ({_DAILY_SQL}),
    k AS (SELECT count(DISTINCT event_type) AS k FROM daily),
    full_days AS (
        SELECT d FROM daily GROUP BY d
        HAVING count(DISTINCT event_type) = (SELECT k FROM k)
    ),
    r AS (
        SELECT event_type,
               ROW_NUMBER() OVER (PARTITION BY d
                                  ORDER BY v DESC, event_type) AS rk
        FROM daily WHERE d IN (SELECT d FROM full_days)
    ),
    sums AS (SELECT event_type, sum(rk)::DOUBLE AS R FROM r GROUP BY 1),
    mm AS (SELECT count(*)::DOUBLE AS m FROM full_days)
    SELECT CAST(mm.m AS BIGINT) AS n_days,
           CAST(k.k AS BIGINT) AS n_types,
           round(12.0 * sum((sums.R - mm.m * (k.k + 1) / 2.0)
                            * (sums.R - mm.m * (k.k + 1) / 2.0))
                 / (mm.m * mm.m * k.k * (k.k * k.k - 1.0)), 6) + 0.0
               AS kendall_w
    FROM sums CROSS JOIN mm CROSS JOIN k
    GROUP BY mm.m, k.k
"""


@entry("discount_response_lineitem", sql=lambda: SQL_DISCOUNT_RESPONSE)
def q_discount_response_lineitem(sf_dir: str) -> pd.DataFrame:
    """Discount response curve: per discount level (rounded to 2), order-
    line count, average quantity and average net revenue — the grouped
    dose-response read behind promotion planning."""
    li = _read(sf_dir, "lineitem",
               ["l_discount", "l_quantity", "l_extendedprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["disc"] = np.round(b["l_discount"].to_numpy(np.float64), 2) + 0.0
        b["rev"] = (b["l_extendedprice"].to_numpy(np.float64)
                    * (1.0 - b["l_discount"].to_numpy(np.float64)))
        b["one"] = 1.0
        return b[["disc", "one", "l_quantity", "rev"]]

    agg = hash_aggregate(li.map_batches(partial, batch_format="pandas"),
                         ["disc"],
                         {"n": ("one", "sum"), "sq": ("l_quantity", "sum"),
                          "sr": ("rev", "sum")},
                         num_partitions=4).to_pandas()
    n = agg["n"].to_numpy(np.float64)
    return pd.DataFrame({
        "disc": agg["disc"],
        "n_lines": agg["n"].astype(np.int64),
        "avg_qty": np.round(agg["sq"].to_numpy(np.float64) / n, 6) + 0.0,
        "avg_revenue": np.round(agg["sr"].to_numpy(np.float64) / n,
                                6) + 0.0,
    }).sort_values("disc").reset_index(drop=True)


SQL_DISCOUNT_RESPONSE = """
    SELECT round(l_discount, 2) + 0.0 AS disc,
           CAST(count(*) AS BIGINT) AS n_lines,
           round(avg(l_quantity), 6) + 0.0 AS avg_qty,
           round(avg(l_extendedprice * (1 - l_discount)), 6) + 0.0
               AS avg_revenue
    FROM lineitem GROUP BY 1 ORDER BY 1
"""


@entry("rbo_top_users", sql=lambda: SQL_RBO_TOP_USERS)
def q_rbo_top_users(sf_dir: str) -> pd.DataFrame:
    """Rank-biased overlap (Webber, Moffat & Zobel 2010; p=0.9, depth 10)
    between the top-user leaderboards of the two event-span halves — the
    leaderboard-stability metric. Ranks break ties by (count desc,
    user_id asc); prefix overlaps accumulate the truncated
    RBO = (1−p)·Σ p^{d−1}·|A_d∩B_d|/d."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])
    bounds = ev.map_batches(
        lambda b: pd.DataFrame({"lo": [b["ts"].astype("int64").min()],
                                "hi": [b["ts"].astype("int64").max()]}),
        batch_format="pandas").to_pandas()
    mid = (int(bounds["lo"].min()) + int(bounds["hi"].max())) // 2

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        first = b["ts"].astype("int64").to_numpy() <= mid
        return pd.DataFrame({"user_id": b["user_id"],
                             "c1": first.astype(np.int64),
                             "c2": (~first).astype(np.int64)})

    per_user = hash_aggregate(
        ev.map_batches(flags, batch_format="pandas"), ["user_id"],
        {"c1": ("c1", "sum"), "c2": ("c2", "sum")},
        num_partitions=_NP).to_pandas()

    def top10(col):
        s = per_user.sort_values([col, "user_id"],
                                 ascending=[False, True]).head(10)
        return list(s["user_id"])

    A, B = top10("c1"), top10("c2")
    P = 0.9
    rbo = 0.0
    for d in range(1, 11):
        ov = len(set(A[:d]) & set(B[:d]))
        rbo += (P ** (d - 1)) * ov / d
    rbo *= (1 - P)
    return pd.DataFrame({
        "depth": [np.int64(10)],
        "overlap_at_10": [np.int64(len(set(A) & set(B)))],
        "rbo": [np.round(rbo, 6) + 0.0],
    })


SQL_RBO_TOP_USERS = """
    WITH mid AS (
        SELECT (min(epoch_us(ts)) + max(epoch_us(ts))) // 2 AS m
        FROM events
    ),
    u AS (
        SELECT user_id,
               sum(CASE WHEN epoch_us(ts) <= mid.m THEN 1 ELSE 0 END) AS c1,
               sum(CASE WHEN epoch_us(ts) > mid.m THEN 1 ELSE 0 END) AS c2
        FROM events CROSS JOIN mid GROUP BY 1
    ),
    ra AS (SELECT user_id, ROW_NUMBER() OVER (ORDER BY c1 DESC, user_id)
               AS r FROM u),
    rb AS (SELECT user_id, ROW_NUMBER() OVER (ORDER BY c2 DESC, user_id)
               AS r FROM u),
    inboth AS (
        SELECT ra.r AS r1, rb.r AS r2
        FROM ra JOIN rb USING (user_id)
        WHERE ra.r <= 10 AND rb.r <= 10
    ),
    ds AS (SELECT unnest(range(1, 11)) AS d),
    ov AS (
        SELECT ds.d,
               (SELECT count(*) FROM inboth
                WHERE r1 <= ds.d AND r2 <= ds.d)::DOUBLE AS o
        FROM ds
    )
    SELECT CAST(10 AS BIGINT) AS depth,
           (SELECT CAST(count(*) AS BIGINT) FROM inboth) AS overlap_at_10,
           round(0.1 * sum(pow(0.9, d - 1) * o / d), 6) + 0.0 AS rbo
    FROM ov
"""


# ---------------------------------------------------------------------------
# degree assortativity / basket dispersion / Jarque-Bera normality
# ---------------------------------------------------------------------------

@entry("degree_assortativity_copurchase", sql=lambda: SQL_DEGREE_ASSORTATIVITY)
def q_degree_assortativity_copurchase(sf_dir: str) -> pd.DataFrame:
    """Degree assortativity of the co-purchase graph (Newman 2002):
    Pearson correlation of endpoint degrees over both orientations of
    every distinct edge — do popular parts co-purchase with popular
    parts? Composes the edge/degree stages; the moment row is all that
    leaves."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in part.groupby("l_orderkey", sort=False):
            p = np.unique(g["l_partkey"].to_numpy(np.int64))
            if len(p) < 2:
                continue
            a, b = np.triu_indices(len(p), k=1)
            outs.append(pd.DataFrame({"a": p[a], "b": p[b]}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame({"a": pd.Series([], dtype="int64"),
                          "b": pd.Series([], dtype="int64")})

    edges = hash_aggregate(
        keyed_map_partitions(li, ["l_orderkey"], pairs,
                             num_partitions=_NP).map_batches(
            lambda b: b.assign(one=1), batch_format="pandas"),
        ["a", "b"], {"c": ("one", "sum")},
        num_partitions=_NP).select_columns(["a", "b"]).materialize()
    deg = hash_count(
        edges.map_batches(
            lambda b: pd.DataFrame({"v": np.concatenate(
                [b["a"].to_numpy(), b["b"].to_numpy()])}),
            batch_format="pandas"),
        ["v"], out_col="deg", num_partitions=_NP).to_pandas()
    dmap = dict(zip(deg["v"].astype(np.int64), deg["deg"].astype(float)))

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        da = b["a"].map(dmap).to_numpy(np.float64)
        db = b["b"].map(dmap).to_numpy(np.float64)
        x = np.concatenate([da, db])  # both orientations
        y = np.concatenate([db, da])
        return pd.DataFrame({"n": [float(len(x))], "sx": [x.sum()],
                             "sxx": [(x * x).sum()],
                             "sxy": [(x * y).sum()]})

    m = edges.map_batches(moments, batch_format="pandas").to_pandas().sum()
    n = m["n"]
    # symmetric orientation: mean/var identical for x and y
    cov = m["sxy"] - m["sx"] ** 2 / n
    var = m["sxx"] - m["sx"] ** 2 / n
    r = cov / var if var > 0 else np.nan
    return pd.DataFrame({
        "n_edges": [np.int64(n // 2)],
        "assortativity": [np.round(r, 6) + 0.0 if np.isfinite(r)
                          else NULLF],
    })


SQL_DEGREE_ASSORTATIVITY = f"""
    WITH e AS (
        SELECT DISTINCT least(a.l_partkey, b.l_partkey) AS a,
               greatest(a.l_partkey, b.l_partkey) AS b
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey < b.l_partkey
    ),
    deg AS (SELECT v, count(*)::DOUBLE AS deg FROM (
        SELECT a AS v FROM e UNION ALL SELECT b AS v FROM e) GROUP BY 1),
    sym AS (
        SELECT da.deg AS x, db.deg AS y
        FROM e JOIN deg da ON da.v = e.a JOIN deg db ON db.v = e.b
        UNION ALL
        SELECT db.deg AS x, da.deg AS y
        FROM e JOIN deg da ON da.v = e.a JOIN deg db ON db.v = e.b
    )
    SELECT (SELECT CAST(count(*) AS BIGINT) FROM e) AS n_edges,
           COALESCE(round(corr(x, y), 6) + 0.0, {NULLF}) AS assortativity
    FROM sym
"""


@entry("basket_dispersion_orders", sql=lambda: SQL_BASKET_DISPERSION)
def q_basket_dispersion_orders(sf_dir: str) -> pd.DataFrame:
    """Basket-size dispersion: lineitems per order, mean/variance, the
    index of dispersion D = s²/m and the normal-approximation z of the
    Poisson dispersion test ((n−1)D vs χ²ₙ₋₁, z = ((n−1)D−(n−1))/√(2(n−1)))
    — is basket size Poisson or clumped?"""
    li = _read(sf_dir, "lineitem", ["l_orderkey"])
    counts = hash_count(li, ["l_orderkey"], out_col="k",
                        num_partitions=_NP).to_pandas()
    k = counts["k"].to_numpy(np.float64)
    n = float(len(k))
    m, s2 = k.mean(), k.var(ddof=1)
    D = s2 / m
    z = ((n - 1) * D - (n - 1)) / np.sqrt(2.0 * (n - 1))
    return pd.DataFrame({
        "n_orders": [np.int64(n)],
        "mean_size": [np.round(m, 6) + 0.0],
        "var_size": [np.round(s2, 6) + 0.0],
        "dispersion": [np.round(D, 6) + 0.0],
        "poisson_z": [np.round(z, 6) + 0.0],
    })


SQL_BASKET_DISPERSION = """
    WITH c AS (SELECT l_orderkey, count(*)::DOUBLE AS k
               FROM lineitem GROUP BY 1),
    m AS (SELECT count(*)::DOUBLE AS n, avg(k) AS m, var_samp(k) AS s2
          FROM c)
    SELECT CAST(n AS BIGINT) AS n_orders,
           round(m, 6) + 0.0 AS mean_size,
           round(s2, 6) + 0.0 AS var_size,
           round(s2 / m, 6) + 0.0 AS dispersion,
           round(((n - 1) * s2 / m - (n - 1)) / sqrt(2 * (n - 1)), 6) + 0.0
               AS poisson_z
    FROM m
"""


@entry("jarque_bera_daily", sql=lambda: SQL_JARQUE_BERA)
def q_jarque_bera_daily(sf_dir: str) -> pd.DataFrame:
    """Jarque-Bera normality test per series from the simple moment
    estimators: skewness g₁ = m₃/m₂^1.5, excess kurtosis g₂ = m₄/m₂²−3,
    JB = n/6·(g₁² + g₂²/4) — the residual-normality gate before any
    Gaussian interval claim."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            d = v - v.mean()
            m2 = (d ** 2).mean()
            if n < 4 or m2 <= 0:
                rows.append((et, n, np.nan, np.nan, np.nan))
                continue
            g1 = (d ** 3).mean() / m2 ** 1.5
            g2 = (d ** 4).mean() / m2 ** 2 - 3.0
            jb = n / 6.0 * (g1 * g1 + g2 * g2 / 4.0)
            rows.append((et, n, np.round(g1, 6) + 0.0,
                         np.round(g2, 6) + 0.0, np.round(jb, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "skew_g1", "kurt_g2", "jb"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["skew_g1", "kurt_g2", "jb"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_JARQUE_BERA = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (
        SELECT event_type, count(*)::DOUBLE AS n, avg(v) AS mu
        FROM daily GROUP BY 1
    ),
    c AS (
        SELECT d.event_type, any_value(m.n) AS n,
               avg((d.v - m.mu) * (d.v - m.mu)) AS m2,
               avg(pow(d.v - m.mu, 3)) AS m3,
               avg(pow(d.v - m.mu, 4)) AS m4
        FROM daily d JOIN m USING (event_type)
        GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           COALESCE(CASE WHEN n >= 4 AND m2 > 0
                         THEN round(m3 / pow(m2, 1.5), 6) + 0.0 END,
                    {NULLF}) AS skew_g1,
           COALESCE(CASE WHEN n >= 4 AND m2 > 0
                         THEN round(m4 / (m2 * m2) - 3, 6) + 0.0 END,
                    {NULLF}) AS kurt_g2,
           COALESCE(CASE WHEN n >= 4 AND m2 > 0
                         THEN round(n / 6.0 * (pow(m3 / pow(m2, 1.5), 2)
                              + pow(m4 / (m2 * m2) - 3, 2) / 4.0), 6)
                              + 0.0 END, {NULLF}) AS jb
    FROM c ORDER BY 1
"""


# ---------------------------------------------------------------------------
# geometric adstock / cohort value curve / EWMA control chart
# ---------------------------------------------------------------------------

@entry("adstock_daily", sql=lambda: SQL_ADSTOCK)
def q_adstock_daily(sf_dir: str) -> pd.DataFrame:
    """Geometric adstock transform (the marketing-mix carryover feature):
    A_t = v_t + λ·A_{t−1} with λ=0.6 (non-dyadic, so rounded values
    never sit exactly on half-even/half-away midpoints) — the recursion's
    closed form
    Σ λᵏ·v_{t−k} is window-expressible, so the sequential engine kernel
    oracles exactly."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    LAM = 0.6

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            v = g["v"].to_numpy(np.float64)
            a = np.empty_like(v)
            acc = 0.0
            for i, x in enumerate(v):
                acc = x + LAM * acc
                a[i] = acc
            g["adstock"] = np.round(a, 6) + 0.0
            outs.append(g[["event_type", "d", "v", "adstock"]])
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "adstock"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_ADSTOCK = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) AS rn
        FROM daily
    )
    SELECT a.event_type, a.d, a.v,
           round(sum(b.v * pow(0.6, a.rn - b.rn)), 6) + 0.0 AS adstock
    FROM r a JOIN r b ON a.event_type = b.event_type AND b.rn <= a.rn
    GROUP BY 1, 2, 3
"""


@entry("cohort_value_curve", sql=lambda: SQL_COHORT_VALUE_CURVE)
def q_cohort_value_curve(sf_dir: str) -> pd.DataFrame:
    """Cohort LTV curve: users cohort by first-seen day; for each age
    offset 0..29, the average CUMULATIVE event value per user across all
    cohorts old enough to reach that age — the lifetime-value primitive
    under every payback analysis. Per-user daily values reduce first;
    the cohort×age matrix is the only small table out."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def day_val(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["day"] = b["ts"].astype("int64") // DAY_US
        return b[["user_id", "day", "value"]]

    uv = hash_aggregate(ev.map_batches(day_val, batch_format="pandas"),
                        ["user_id", "day"], {"v": ("value", "sum")},
                        num_partitions=_NP).materialize()
    from forecastframe_ray.stages.agg import keyed_map_partitions

    def per_user(part: pd.DataFrame) -> pd.DataFrame:
        # reduce user-day rows to the bounded (cohort, age) matrix plus
        # age = -1 sentinel rows carrying per-partition cohort user
        # counts — at most n_days² + n_days rows leave regardless of
        # user count (users are co-located, so each counts once)
        part = part.copy()
        first = part.groupby("user_id")["day"].transform("min")
        part["cohort"] = first
        part["age"] = (part["day"] - first).astype(np.int64)
        cells = part.groupby(["cohort", "age"], sort=False)["v"] \
            .sum().rename("v").reset_index()
        nu = part.drop_duplicates("user_id") \
            .groupby("cohort", sort=False).size()
        sent = pd.DataFrame({"cohort": nu.index,
                             "age": -1, "v": nu.to_numpy(np.float64)})
        return pd.concat([cells, sent], ignore_index=True)

    mat = keyed_map_partitions(uv, ["user_id"], per_user,
                               num_partitions=_NP).to_pandas()
    cells = mat[mat["age"] >= 0].groupby(["cohort", "age"])["v"] \
        .sum().reset_index()
    sizes = mat[mat["age"] == -1].groupby("cohort")["v"].sum()
    max_day = int((cells["cohort"] + cells["age"]).max())
    rows = []
    for age in range(30):
        elig = sizes[sizes.index + age <= max_day]
        n_users = int(elig.sum())
        if n_users == 0:
            continue
        mask = (cells["age"] <= age) & (cells["cohort"] + age <= max_day)
        cum = float(cells.loc[mask, "v"].sum())
        rows.append((age, n_users, np.round(cum / n_users, 6) + 0.0))
    return pd.DataFrame(rows, columns=["age", "n_users",
                                       "cum_value_per_user"]) \
        .astype({"age": np.int64, "n_users": np.int64})


SQL_COHORT_VALUE_CURVE = f"""
    WITH uv AS (
        SELECT user_id, epoch_us(ts) // {DAY_US} AS day, sum(value) AS v
        FROM events GROUP BY 1, 2
    ),
    f AS (SELECT user_id, min(day) AS cohort FROM uv GROUP BY 1),
    j AS (SELECT uv.user_id, uv.day, uv.v, f.cohort,
                 uv.day - f.cohort AS age
          FROM uv JOIN f USING (user_id)),
    mx AS (SELECT max(day) AS max_day FROM uv),
    ages AS (SELECT unnest(range(0, 30)) AS age),
    elig AS (
        SELECT a.age, count(*) AS n_users
        FROM ages a JOIN f ON f.cohort + a.age <= (SELECT max_day FROM mx)
        GROUP BY 1
    ),
    cum AS (
        SELECT a.age, sum(j.v) AS cv
        FROM ages a JOIN j ON j.age <= a.age
                  AND j.cohort + a.age <= (SELECT max_day FROM mx)
        GROUP BY 1
    )
    SELECT e.age, CAST(e.n_users AS BIGINT) AS n_users,
           round(COALESCE(c.cv, 0) / e.n_users, 6) + 0.0
               AS cum_value_per_user
    FROM elig e LEFT JOIN cum c USING (age)
    WHERE e.n_users > 0
    ORDER BY e.age
"""


@entry("ewma_chart_daily", sql=lambda: SQL_EWMA_CHART)
def q_ewma_chart_daily(sf_dir: str) -> pd.DataFrame:
    """EWMA control chart (Roberts 1959; λ=0.2, L=3): zₜ initialized at
    the series mean μ, time-varying limits μ ± 3σ√(λ/(2−λ)·(1−(1−λ)²ᵗ)).
    The recursion's closed form zₜ = λΣ(1−λ)^{t−j}vⱼ + (1−λ)ᵗμ is window-
    expressible; flags compare ROUNDED z to ROUNDED limits."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    LAM = 0.2

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            v = g["v"].to_numpy(np.float64)
            mu, sd = v.mean(), v.std(ddof=1)
            z = np.empty_like(v)
            acc = mu
            for i, x in enumerate(v):
                acc = LAM * x + (1 - LAM) * acc
                z[i] = acc
            t = np.arange(1, len(v) + 1, dtype=np.float64)
            w = sd * np.sqrt(LAM / (2 - LAM) * (1 - (1 - LAM) ** (2 * t)))
            zr = np.round(z, 6) + 0.0
            ucl = np.round(mu + 3 * w, 6) + 0.0
            lcl = np.round(mu - 3 * w, 6) + 0.0
            g["ewma_z"] = zr
            g["ucl"] = ucl
            g["lcl"] = lcl
            g["out_of_control"] = (zr > ucl) | (zr < lcl)
            outs.append(g[["event_type", "d", "v", "ewma_z", "ucl", "lcl",
                           "out_of_control"]])
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "ewma_z",
                                  "ucl", "lcl", "out_of_control"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_EWMA_CHART = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (SELECT event_type, avg(v) AS mu, stddev_samp(v) AS sd
          FROM daily GROUP BY 1),
    r AS (
        SELECT d.event_type, d.d, d.v, m.mu, m.sd,
               ROW_NUMBER() OVER (PARTITION BY d.event_type
                                  ORDER BY d.d) AS rn
        FROM daily d JOIN m USING (event_type)
    ),
    z AS (
        SELECT a.event_type, a.d, a.v, a.mu, a.sd, a.rn,
               round(0.2 * sum(b.v * pow(0.8, a.rn - b.rn))
                     + pow(0.8, a.rn) * a.mu, 6) + 0.0 AS ewma_z
        FROM r a JOIN r b ON a.event_type = b.event_type AND b.rn <= a.rn
        GROUP BY 1, 2, 3, 4, 5, 6
    )
    SELECT event_type, d, v, ewma_z,
           round(mu + 3 * sd * sqrt(0.2 / 1.8 * (1 - pow(0.8, 2 * rn))),
                 6) + 0.0 AS ucl,
           round(mu - 3 * sd * sqrt(0.2 / 1.8 * (1 - pow(0.8, 2 * rn))),
                 6) + 0.0 AS lcl,
           (ewma_z > round(mu + 3 * sd
                * sqrt(0.2 / 1.8 * (1 - pow(0.8, 2 * rn))), 6) + 0.0
            OR ewma_z < round(mu - 3 * sd
                * sqrt(0.2 / 1.8 * (1 - pow(0.8, 2 * rn))), 6) + 0.0)
               AS out_of_control
    FROM z
"""


# ---------------------------------------------------------------------------
# kNN outlier scores / price indices / Theil inequality decomposition
# ---------------------------------------------------------------------------

@entry("knn_outlier_embeddings", sql=lambda: SQL_KNN_OUTLIER)
def q_knn_outlier_embeddings(sf_dir: str) -> pd.DataFrame:
    """kNN-distance outlier scores: each vector's mean Euclidean distance
    to its 5 nearest neighbors (the distance-based outlier primitive under
    LOF), top 20 by (score desc, vec_id asc) on ROUNDED scores. Engine
    side reuses the ANN pattern — broadcast matrix, per-batch matmul,
    local top-k; never an all-pairs shuffle."""
    import ray

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    all_df = emb.to_pandas().sort_values("vec_id")
    X = np.stack(all_df["embedding"].to_numpy()).astype(np.float64)
    ids = all_df["vec_id"].to_numpy(np.int64)
    x_ref = ray.put((X, ids))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        Xa, ida = ray.get(x_ref)
        Q = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        qid = b["vec_id"].to_numpy(np.int64)
        d2 = ((Q ** 2).sum(1)[:, None] + (Xa ** 2).sum(1)[None, :]
              - 2.0 * Q @ Xa.T)
        d2 = np.maximum(d2, 0.0)
        d2[qid[:, None] == ida[None, :]] = np.inf  # exclude self
        part = np.sort(np.sqrt(d2), axis=1)[:, :5]
        return pd.DataFrame({"vec_id": qid,
                             "knn_score": np.round(part.mean(axis=1),
                                                   6) + 0.0})

    out = emb.map_batches(score, batch_format="pandas").to_pandas()
    out = out.sort_values(["knn_score", "vec_id"],
                          ascending=[False, True]).head(20)
    return out.astype({"vec_id": np.int64}).reset_index(drop=True)


SQL_KNN_OUTLIER = """
    WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
               FROM embeddings),
    d AS (
        SELECT a.vec_id, list_distance(a.v, b.v) AS dist,
               ROW_NUMBER() OVER (PARTITION BY a.vec_id
                                  ORDER BY list_distance(a.v, b.v),
                                           b.vec_id) AS rk
        FROM e a JOIN e b ON a.vec_id <> b.vec_id
    ),
    s AS (SELECT vec_id, round(avg(dist), 6) + 0.0 AS knn_score
          FROM d WHERE rk <= 5 GROUP BY 1)
    SELECT vec_id, knn_score FROM s
    ORDER BY knn_score DESC, vec_id LIMIT 20
"""


@entry("price_index_lineitem", sql=lambda: SQL_PRICE_INDEX)
def q_price_index_lineitem(sf_dir: str) -> pd.DataFrame:
    """Bilateral price indices between the two shipdate halves of the
    lineitem fact: per-part average price and total quantity per period,
    then Laspeyres Σp₂q₁/Σp₁q₁, Paasche Σp₂q₂/Σp₁q₂ and Fisher (their
    geometric mean) over parts present in BOTH periods — the econometric
    deflator primitive. Per-(part, period) reduce first; k-part rows
    cross."""
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_shipdate", "l_extendedprice",
                "l_quantity"])
    bounds = li.map_batches(
        lambda b: pd.DataFrame({"lo": [b["l_shipdate"].astype("int64")
                                       .min()],
                                "hi": [b["l_shipdate"].astype("int64")
                                       .max()]}),
        batch_format="pandas").to_pandas()
    mid = (int(bounds["lo"].min()) + int(bounds["hi"].max())) // 2

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["period"] = np.where(b["l_shipdate"].astype("int64") <= mid,
                               1, 2)
        b["unit_price"] = (b["l_extendedprice"].to_numpy(np.float64)
                           / b["l_quantity"].to_numpy(np.float64))
        return b[["l_partkey", "period", "unit_price", "l_quantity"]]

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["n"] = 1.0
        return b

    agg = hash_aggregate(
        li.map_batches(tag, batch_format="pandas")
          .map_batches(moments, batch_format="pandas"),
        ["l_partkey", "period"],
        {"sp": ("unit_price", "sum"), "n": ("n", "sum"),
         "q": ("l_quantity", "sum")},
        num_partitions=_NP).to_pandas()
    agg["p"] = agg["sp"] / agg["n"]
    piv = agg.pivot_table(index="l_partkey", columns="period",
                          values=["p", "q"])
    piv = piv.dropna()
    p1 = piv[("p", 1)].to_numpy(np.float64)
    p2 = piv[("p", 2)].to_numpy(np.float64)
    q1 = piv[("q", 1)].to_numpy(np.float64)
    q2 = piv[("q", 2)].to_numpy(np.float64)
    lasp = (p2 * q1).sum() / (p1 * q1).sum()
    paas = (p2 * q2).sum() / (p1 * q2).sum()
    return pd.DataFrame({
        "n_parts": [np.int64(len(piv))],
        "laspeyres": [np.round(lasp, 6) + 0.0],
        "paasche": [np.round(paas, 6) + 0.0],
        "fisher": [np.round(np.sqrt(lasp * paas), 6) + 0.0],
    })


SQL_PRICE_INDEX = """
    WITH mid AS (
        SELECT (min(epoch_us(l_shipdate)) + max(epoch_us(l_shipdate)))
               // 2 AS m
        FROM lineitem
    ),
    t AS (
        SELECT l_partkey,
               CASE WHEN epoch_us(l_shipdate) <= mid.m THEN 1 ELSE 2 END
                   AS period,
               avg(l_extendedprice / l_quantity) AS p,
               sum(l_quantity) AS q
        FROM lineitem CROSS JOIN mid
        GROUP BY 1, 2
    ),
    piv AS (
        SELECT a.l_partkey, a.p AS p1, a.q AS q1, b.p AS p2, b.q AS q2
        FROM t a JOIN t b ON a.l_partkey = b.l_partkey
        WHERE a.period = 1 AND b.period = 2
    )
    SELECT CAST(count(*) AS BIGINT) AS n_parts,
           round(sum(p2 * q1) / sum(p1 * q1), 6) + 0.0 AS laspeyres,
           round(sum(p2 * q2) / sum(p1 * q2), 6) + 0.0 AS paasche,
           round(sqrt((sum(p2 * q1) / sum(p1 * q1))
                      * (sum(p2 * q2) / sum(p1 * q2))), 6) + 0.0 AS fisher
    FROM piv
"""


@entry("theil_inequality_documents", sql=lambda: SQL_THEIL_INEQUALITY)
def q_theil_inequality_documents(sf_dir: str) -> pd.DataFrame:
    """Theil T inequality of document lengths with its exact
    between/within-source decomposition: T = Σ(xᵢ/X)ln(xᵢ/μ̄-ratio),
    T_between from source means, T_within = Σ share·T_source — the
    inequality audit that says whether length skew lives inside sources
    or across them (T = between + within is an identity both engines
    must reproduce)."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def toks(b: pd.DataFrame) -> pd.DataFrame:
        x = b["text"].str.split().str.len().fillna(0) \
            .astype(np.float64).to_numpy()
        x = np.maximum(x, 1.0)  # zero-token docs floor at 1 (ln defined)
        return pd.DataFrame({"source": b["source"], "x": x,
                             "xlx": x * np.log(x), "n": 1.0})

    g = hash_aggregate(docs.map_batches(toks, batch_format="pandas"),
                       ["source"],
                       {"sx": ("x", "sum"), "sxlx": ("xlx", "sum"),
                        "n": ("n", "sum")},
                       num_partitions=_NP).to_pandas()
    N = g["n"].sum()
    X = g["sx"].sum()
    mu = X / N
    # T_total = (1/N)·Σ (x/mu)·ln(x/mu) = (Σ x·ln x − X·ln mu) / (N·mu)
    sxlx = g["sxlx"].sum()
    t_total = (sxlx - X * np.log(mu)) / (N * mu)
    mu_s = g["sx"].to_numpy(np.float64) / g["n"].to_numpy(np.float64)
    t_between = ((g["sx"].to_numpy(np.float64) / X)
                 * np.log(mu_s / mu)).sum()
    return pd.DataFrame({
        "n_docs": [np.int64(N)],
        "theil_total": [np.round(t_total, 6) + 0.0],
        "theil_between": [np.round(t_between, 6) + 0.0],
        "theil_within": [np.round(t_total - t_between, 6) + 0.0],
    })


SQL_THEIL_INEQUALITY = r"""
    WITH x AS (
        SELECT source,
               greatest(len(list_filter(string_split_regex(text, '\s+'),
                                        t -> t <> '')), 1)::DOUBLE AS x
        FROM documents
    ),
    g AS (SELECT source, sum(x) AS sx, sum(x * ln(x)) AS sxlx,
                 count(*)::DOUBLE AS n
          FROM x GROUP BY 1),
    tot AS (SELECT sum(sx) AS X, sum(sxlx) AS sxlx, sum(n) AS N FROM g)
    SELECT CAST(tot.N AS BIGINT) AS n_docs,
           round((tot.sxlx - tot.X * ln(tot.X / tot.N))
                 / (tot.N * (tot.X / tot.N)), 6) + 0.0 AS theil_total,
           round(sum((g.sx / tot.X)
                     * ln((g.sx / g.n) / (tot.X / tot.N))), 6) + 0.0
               AS theil_between,
           round((tot.sxlx - tot.X * ln(tot.X / tot.N))
                 / (tot.N * (tot.X / tot.N))
                 - sum((g.sx / tot.X)
                       * ln((g.sx / g.n) / (tot.X / tot.N))), 6) + 0.0
               AS theil_within
    FROM g CROSS JOIN tot
    GROUP BY tot.N, tot.X, tot.sxlx
"""


# ---------------------------------------------------------------------------
# mutual information / spectral flatness / Benjamini-Hochberg FDR
# ---------------------------------------------------------------------------

@entry("mutual_info_type_hour", sql=lambda: SQL_MUTUAL_INFO)
def q_mutual_info_type_hour(sf_dir: str) -> pd.DataFrame:
    """Mutual information between event type and hour-of-day (nats), plus
    the normalized form MI/min(H_type, H_hour) — 'does when predict
    what?'. One contingency-count aggregate; closed-form information
    algebra on the k×24 table."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def hod(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        return pd.DataFrame({"event_type": b["event_type"],
                             "h": (us % DAY_US) // HOUR_US})

    ct = hash_count(ev.map_batches(hod, batch_format="pandas"),
                    ["event_type", "h"], out_col="n",
                    num_partitions=_NP).to_pandas()
    N = float(ct["n"].sum())
    p = ct["n"].to_numpy(np.float64) / N
    pi = ct.groupby("event_type")["n"].sum() / N
    pj = ct.groupby("h")["n"].sum() / N
    mi = (p * np.log(p / (ct["event_type"].map(pi).to_numpy(np.float64)
                          * ct["h"].map(pj).to_numpy(np.float64)))).sum()
    hi = -(pi * np.log(pi)).sum()
    hj = -(pj * np.log(pj)).sum()
    return pd.DataFrame({
        "n_events": [np.int64(N)],
        "mi_nats": [np.round(mi, 6) + 0.0],
        "nmi": [np.round(mi / min(hi, hj), 6) + 0.0],
    })


SQL_MUTUAL_INFO = f"""
    WITH ct AS (
        SELECT event_type, (epoch_us(ts) % {DAY_US}) // {HOUR_US} AS h,
               count(*)::DOUBLE AS n
        FROM events GROUP BY 1, 2
    ),
    tot AS (SELECT sum(n) AS N FROM ct),
    pi AS (SELECT event_type, sum(n) AS ni FROM ct GROUP BY 1),
    pj AS (SELECT h, sum(n) AS nj FROM ct GROUP BY 1),
    mi AS (
        SELECT sum((ct.n / tot.N)
                   * ln((ct.n / tot.N)
                        / ((pi.ni / tot.N) * (pj.nj / tot.N)))) AS mi
        FROM ct JOIN pi USING (event_type) JOIN pj USING (h)
        CROSS JOIN tot
    ),
    hh AS (
        SELECT (SELECT -sum((ni / tot.N) * ln(ni / tot.N))
                FROM pi CROSS JOIN tot) AS hi,
               (SELECT -sum((nj / tot.N) * ln(nj / tot.N))
                FROM pj CROSS JOIN tot) AS hj
    )
    SELECT (SELECT CAST(N AS BIGINT) FROM tot) AS n_events,
           round(mi.mi, 6) + 0.0 AS mi_nats,
           round(mi.mi / least(hh.hi, hh.hj), 6) + 0.0 AS nmi
    FROM mi CROSS JOIN hh
"""


@entry("spectral_flatness_daily", sql=lambda: SQL_SPECTRAL_FLATNESS)
def q_spectral_flatness_daily(sf_dir: str) -> pd.DataFrame:
    """Wiener spectral flatness per series: periodogram power at Fourier
    frequencies j = 1..14 (cos/sin projections of the demeaned series),
    flatness = geometric mean / arithmetic mean of the powers — 1 = white,
    →0 = tonal/seasonal. Powers round to 6 before the means so both
    engines aggregate identical values (zero powers floor at 1e-12)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            if n < 29:
                rows.append((et, n, np.nan))
                continue
            dv = v - v.mean()
            t = np.arange(n, dtype=np.float64)
            pows = []
            for j in range(1, 15):
                w = 2.0 * np.pi * j / n
                c = (dv * np.cos(w * t)).sum()
                s = (dv * np.sin(w * t)).sum()
                pows.append(max(np.round((c * c + s * s) / n, 6) + 0.0,
                                1e-12))
            pows = np.array(pows)
            flat = np.exp(np.log(pows).mean()) / pows.mean()
            rows.append((et, n, np.round(flat, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "flatness"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["flatness"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_SPECTRAL_FLATNESS = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (SELECT event_type, avg(v) AS mu, count(*) AS n
          FROM daily GROUP BY 1),
    r AS (
        SELECT d.event_type, d.v - m.mu AS dv, m.n,
               ROW_NUMBER() OVER (PARTITION BY d.event_type
                                  ORDER BY d.d) - 1.0 AS t
        FROM daily d JOIN m USING (event_type)
    ),
    js AS (SELECT unnest(range(1, 15)) AS j),
    pw AS (
        SELECT r.event_type, js.j, any_value(r.n) AS n,
               greatest(round((pow(sum(dv * cos(2 * pi() * js.j * t
                                                / r.n)), 2)
                              + pow(sum(dv * sin(2 * pi() * js.j * t
                                                 / r.n)), 2))
                              / any_value(r.n), 6) + 0.0, 1e-12) AS p
        FROM js, r
        WHERE r.n >= 29
        GROUP BY r.event_type, js.j
    ),
    agg AS (
        SELECT event_type, any_value(n) AS n,
               exp(avg(ln(p))) / avg(p) AS flat
        FROM pw GROUP BY 1
    ),
    base AS (SELECT event_type, count(*) AS n FROM daily GROUP BY 1)
    SELECT base.event_type, CAST(base.n AS BIGINT) AS n_days,
           COALESCE(round(agg.flat, 6) + 0.0, {NULLF}) AS flatness
    FROM base LEFT JOIN agg USING (event_type)
    ORDER BY 1
"""


def _phi_as(z: np.ndarray) -> np.ndarray:
    """Standard normal CDF via the Abramowitz & Stegun 7.1.26 erf
    polynomial (|error| < 1.5e-7) — implemented IDENTICALLY in the SQL
    oracle so p-values match to the rounding digit."""
    x = np.abs(z) / np.sqrt(2.0)
    t = 1.0 / (1.0 + 0.3275911 * x)
    erf = 1.0 - (0.254829592 * t - 0.284496736 * t ** 2
                 + 1.421413741 * t ** 3 - 1.453152027 * t ** 4
                 + 1.061405429 * t ** 5) * np.exp(-x * x)
    return np.where(z >= 0, (1.0 + erf) / 2.0, (1.0 - erf) / 2.0)


@entry("bh_fdr_pairs_events", sql=lambda: SQL_BH_FDR_PAIRS)
def q_bh_fdr_pairs_events(sf_dir: str) -> pd.DataFrame:
    """Benjamini-Hochberg FDR correction over the 10 pairwise mean tests
    (large-sample z from the pooled-variance contrast, two-sided p via
    the A&S normal CDF): p-values rank ascending, the BH cutoff is the
    largest rank with p ≤ rank/m·0.05, and every pair at or below it
    flags significant — the multiple-testing layer over the contrast
    family."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["v2"] = b["value"].to_numpy(np.float64) ** 2
        b["one"] = 1.0
        return b[["event_type", "one", "value", "v2"]]

    g = hash_aggregate(ev.map_batches(moments, batch_format="pandas"),
                       ["event_type"],
                       {"n": ("one", "sum"), "s": ("value", "sum"),
                        "ss": ("v2", "sum")},
                       num_partitions=_NP).to_pandas() \
        .sort_values("event_type").reset_index(drop=True)
    n = g["n"].to_numpy(np.float64)
    m = g["s"].to_numpy(np.float64) / n
    sse = g["ss"].to_numpy(np.float64) - n * m * m
    s2p = sse.sum() / (n.sum() - len(n))
    rows = []
    for i in range(len(g)):
        for j in range(i + 1, len(g)):
            z = (m[i] - m[j]) / np.sqrt(s2p * (1 / n[i] + 1 / n[j]))
            zr = np.round(z, 6) + 0.0  # p from ROUNDED z on both sides
            p = 2.0 * (1.0 - _phi_as(np.array([abs(zr)]))[0])
            rows.append((g["event_type"][i], g["event_type"][j],
                         zr, np.round(p, 6) + 0.0))
    df = pd.DataFrame(rows, columns=["et_a", "et_b", "z", "p"])
    df = df.sort_values(["p", "et_a", "et_b"]).reset_index(drop=True)
    M = len(df)
    rank = np.arange(1, M + 1, dtype=np.float64)
    ok = df["p"].to_numpy() <= rank / M * 0.05
    cutoff = int(np.max(np.where(ok)[0])) + 1 if ok.any() else 0
    df["bh_rank"] = rank.astype(np.int64)
    df["significant"] = rank <= cutoff
    return df


SQL_BH_FDR_PAIRS = """
    WITH g AS (
        SELECT event_type, count(*)::DOUBLE AS n, avg(value) AS m,
               sum(value * value) - count(*) * avg(value) * avg(value)
                   AS sse
        FROM events GROUP BY 1
    ),
    pool AS (SELECT sum(sse) / (sum(n) - count(*)) AS s2p FROM g),
    pairs AS (
        SELECT a.event_type AS et_a, b.event_type AS et_b,
               (a.m - b.m) / sqrt(pool.s2p * (1 / a.n + 1 / b.n)) AS z
        FROM g a JOIN g b ON a.event_type < b.event_type
        CROSS JOIN pool
    ),
    pv AS (
        SELECT et_a, et_b, round(z, 6) + 0.0 AS z,
               round(2 * (1 - CASE WHEN TRUE THEN
                   (1 + (1 - (0.254829592 * (1 / (1 + 0.3275911
                        * (abs(z) / sqrt(2))))
                     - 0.284496736 * pow(1 / (1 + 0.3275911
                        * (abs(z) / sqrt(2))), 2)
                     + 1.421413741 * pow(1 / (1 + 0.3275911
                        * (abs(z) / sqrt(2))), 3)
                     - 1.453152027 * pow(1 / (1 + 0.3275911
                        * (abs(z) / sqrt(2))), 4)
                     + 1.061405429 * pow(1 / (1 + 0.3275911
                        * (abs(z) / sqrt(2))), 5))
                     * exp(-abs(z) * abs(z) / 2))) / 2 END), 6) + 0.0 AS p
        FROM pairs
    ),
    ranked AS (
        SELECT *, ROW_NUMBER() OVER (ORDER BY p, et_a, et_b) AS bh_rank,
               count(*) OVER () AS m
        FROM pv
    ),
    cut AS (SELECT COALESCE(max(bh_rank), 0) AS c
            FROM ranked WHERE p <= bh_rank * 1.0 / m * 0.05)
    SELECT et_a, et_b, z, p, CAST(bh_rank AS BIGINT) AS bh_rank,
           bh_rank <= cut.c AS significant
    FROM ranked CROSS JOIN cut
    ORDER BY bh_rank
"""
