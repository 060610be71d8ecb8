"""Oracled query catalog — part ``corpus``."""

from __future__ import annotations

import numpy as np
import pandas as pd

from forecastframe_ray.stages.agg import hash_aggregate

from forecastframe_ray.pipelines.queries.spine import (
    _DAILY_SQL,
    _NP,
    _daily_frame,
    _read,
    _round,
)
from forecastframe_ray.pipelines.queries import entry




@entry("gini_users_events", sql=lambda: SQL_GINI_USERS)
def q_gini_users_events(sf_dir: str) -> pd.DataFrame:
    """Gini concentration of per-user total event value (Gini 1912 —
    public; the activity-inequality dashboard number). Per-user totals
    reduce distributedly (rounded to 6dp so ordering ties are exact on both
    engines); the closed-form rank formula
    ``G = 2·Σ i·x_(i) / (n·Σx) − (n+1)/n`` runs over the tiny totals
    vector."""
    ev = _read(sf_dir, "events", ["user_id", "value"])
    tot = hash_aggregate(ev, ["user_id"], {"tot": ("value", "sum")},
                         num_partitions=_NP).to_pandas()
    x = np.sort(np.round(tot["tot"].to_numpy(np.float64), 6))
    n = len(x)
    gini = 2.0 * float((np.arange(1, n + 1) * x).sum()) \
        / (n * float(x.sum())) - (n + 1.0) / n
    return pd.DataFrame({"n_users": np.array([n], dtype=np.int64),
                         "gini": [np.round(gini, 6)]})


SQL_GINI_USERS = """
    WITH t AS (
        SELECT user_id, round(sum(value), 6) AS tot
        FROM events GROUP BY 1
    ),
    r AS (
        SELECT tot, row_number() OVER (ORDER BY tot) AS rn,
               count(*) OVER () AS n, sum(tot) OVER () AS s
        FROM t
    )
    SELECT CAST(max(n) AS BIGINT) AS n_users,
           round(2.0 * sum(rn * tot) / (max(n) * max(s))
                 - (max(n) + 1.0) / max(n), 6) AS gini
    FROM r
"""
# ---------------------------------------------------------------------------
# Holt-Winters gate
# ---------------------------------------------------------------------------

@entry("holt_winters_gate_daily", sql=lambda: SQL_HOLT_WINTERS_GATE)
def q_holt_winters_gate_daily(sf_dir: str) -> pd.DataFrame:
    """Holt-Winters additive forecast, oracle-GATED through the degenerate
    closed form (the holt/ses/croston gate pattern): at α=1, β=0, γ=0 the
    trend freezes at its initial ``(mean(season₂) − mean(season₁))/7``, the
    seasonals freeze at ``y_i − mean(season₁)``, and the level collapses to
    ``y_T − s_{T mod 7}`` — all SQL-expressible. The gate drives the full
    machinery (key-co-located sequential fit, per-series (l, b, s₀..s₆)
    state broadcast, the future-grid scorer); general (α, β, γ) is pinned
    by pytest against a direct numpy recursion."""
    fr = _daily_frame(sf_dir)
    preds = fr.predict(periods=7, freq="D", estimator="holt_winters",
                       alpha=1.0, beta=0.0, gamma=0.0, period=7)
    df = preds.to_pandas()[["event_type", "d", "predicted_v"]]
    df = _round(df, ["predicted_v"], 6)
    return df.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_HOLT_WINTERS_GATE = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d, v,
               row_number() OVER (PARTITION BY event_type ORDER BY d) AS rn
        FROM daily
    ),
    init AS (
        SELECT event_type, count(*) AS n, max(d) AS d_last,
               avg(CASE WHEN rn <= 7 THEN v END) AS l0,
               COALESCE((avg(CASE WHEN rn > 7 AND rn <= 14 THEN v END)
                         - avg(CASE WHEN rn <= 7 THEN v END)) / 7.0, 0)
                   AS b0,
               arg_max(v, rn) AS y_last
        FROM r GROUP BY 1
    ),
    seas AS (
        SELECT r.event_type, (rn - 1) % 7 AS six, r.v - i.l0 AS s
        FROM r JOIN init i USING (event_type) WHERE rn <= 7
    ),
    f AS (
        SELECT i.*, fd.d, datediff('day', i.d_last, fd.d) AS h
        FROM init i CROSS JOIN (
            SELECT unnest(generate_series(maxd + INTERVAL 1 DAY,
                                          maxd + INTERVAL 7 DAY,
                                          INTERVAL 1 DAY)) AS d
            FROM (SELECT max(d) AS maxd FROM daily)
        ) fd
    ),
    lev AS (
        SELECT f.*, f.y_last - COALESCE(sl.s, 0) AS level
        FROM f LEFT JOIN seas sl ON sl.event_type = f.event_type
                                AND sl.six = (f.n - 1) % 7
    )
    SELECT lev.event_type, lev.d,
           round(lev.level + lev.h * lev.b0 + COALESCE(sf.s, 0), 6)
               AS predicted_v
    FROM lev LEFT JOIN seas sf ON sf.event_type = lev.event_type
                              AND sf.six = (lev.n - 1 + lev.h) % 7
"""


# ---------------------------------------------------------------------------
# Count-Min gate
# ---------------------------------------------------------------------------

@entry("cms_user_counts_gate", sql=lambda: SQL_CMS_USER_COUNTS_GATE)
def q_cms_user_counts_gate(sf_dir: str) -> pd.DataFrame:
    """Count-Min sketch gate (ann_ivf_recall pattern): a per-event-type
    (d=4, w=512) CMS over the user_id stream must satisfy BOTH published
    guarantees against the exact per-user counts — one-sided error
    (estimate ≥ truth for every user, deterministic) and the ε-bound
    (max overcount ≤ ⌈e/w · N⌉, the 1−(1/2)^d high-probability bound —
    deterministic on this fixed corpus/hash). ``n_rows`` / ``n_users``
    are value-oracled; the sketch build is the mergeable two-level
    combiner plan (O(groups · d · w) shuffle bytes)."""
    from forecastframe_ray import keys as K
    from forecastframe_ray.stages.sketch import (cms_estimate,
                                                 cms_from_bytes)
    from forecastframe_ray.stages.sketch import cms_sketch

    W, D = 512, 4
    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    sk = cms_sketch(ev, ["event_type"], "user_id", w=W, d=D,
                    num_partitions=8).to_pandas()
    true = hash_aggregate(ev, ["event_type", "user_id"],
                          {"n_true": ("user_id", "size")},
                          num_partitions=_NP).to_pandas()
    rows = []
    for _, r in sk.iterrows():
        mat = cms_from_bytes(r["cms"], W, D)
        sub = true[true["event_type"] == r["event_type"]]
        h = K.hash_key_columns(sub, ["user_id"])
        est = cms_estimate(mat, h)
        t = sub["n_true"].to_numpy(np.int64)
        eps_n = int(np.ceil(np.e / W * r["n"]))
        rows.append((r["event_type"], int(r["n"]), len(sub),
                     bool((est >= t).all()),
                     bool((est - t).max() <= eps_n)))
    out = pd.DataFrame(rows, columns=["event_type", "n_rows", "n_users",
                                      "lower_ok", "bound_ok"])
    out = out.astype({"n_rows": "int64", "n_users": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_CMS_USER_COUNTS_GATE = """
    SELECT event_type, CAST(count(*) AS BIGINT) AS n_rows,
           CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
           true AS lower_ok, true AS bound_ok
    FROM events GROUP BY 1
"""


@entry("skew_profile_events", sql=lambda: SQL_SKEW_PROFILE)
def q_skew_profile_events(sf_dir: str) -> pd.DataFrame:
    """Key-skew diagnostic over the user_id key space (the number the
    north_rule's salted-repartition decision reads): rows reduce once to
    one size per key (narrow shuffle), then the tiny key table folds to
    top-1 share and the p50/p99 group sizes — the 'is this key space
    shuffle-safe' dashboard row."""
    ev = _read(sf_dir, "events", ["user_id"])
    sizes = hash_aggregate(ev, ["user_id"], {"n": ("user_id", "size")},
                           num_partitions=_NP).to_pandas()
    s = sizes["n"].to_numpy(np.float64)
    return pd.DataFrame({
        "n_keys": np.array([len(s)], dtype=np.int64),
        "n_rows": np.array([int(s.sum())], dtype=np.int64),
        "top1_share": [np.round(float(s.max()) / float(s.sum()), 6)],
        "p50_size": [np.round(np.percentile(s, 50), 6)],
        "p99_size": [np.round(np.percentile(s, 99), 6)],
    })


SQL_SKEW_PROFILE = """
    WITH sizes AS (SELECT user_id, count(*) AS n FROM events GROUP BY 1)
    SELECT CAST(count(*) AS BIGINT) AS n_keys,
           CAST(sum(n) AS BIGINT) AS n_rows,
           round(max(n) * 1.0 / sum(n), 6) AS top1_share,
           round(quantile_cont(n, 0.5), 6) AS p50_size,
           round(quantile_cont(n, 0.99), 6) AS p99_size
    FROM sizes
"""


@entry("weighted_sample_orders", sql=lambda: SQL_WEIGHTED_SAMPLE_ORDERS)
def q_weighted_sample_orders(sf_dir: str) -> pd.DataFrame:
    """Deterministic weighted sampling WITHOUT replacement (Efraimidis &
    Spirakis 2006 — public): each order draws u from the md5-bucket
    uniform the plain sampler already pins (``(first-8-hex + 0.5)/2³²``)
    and ranks by ``−ln(u)/w`` with weight w = o_totalprice; the 50
    smallest ranks are the sample — identical across cluster shapes,
    resumes and engines. One vectorized key map, then the distributed
    sort + limit top-k; ids-only output (rank floats never compare)."""
    import hashlib

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def key_fn(b: pd.DataFrame) -> pd.DataFrame:
        h = np.array([int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16)
                      for k in b["o_orderkey"]], dtype=np.float64)
        u = (h + 0.5) / 4294967296.0
        return pd.DataFrame({
            "o_orderkey": b["o_orderkey"],
            "es_key": -np.log(u) / b["o_totalprice"].to_numpy(np.float64)})

    top = orders.map_batches(key_fn, batch_format="pandas") \
        .sort("es_key").limit(50).to_pandas()
    return top[["o_orderkey"]].astype({"o_orderkey": "int64"}) \
        .sort_values("o_orderkey").reset_index(drop=True)


SQL_WEIGHTED_SAMPLE_ORDERS = """
    WITH k AS (
        SELECT o_orderkey,
               -ln((CAST(('0x' || substr(md5(CAST(o_orderkey AS VARCHAR)),
                                         1, 8)) AS BIGINT) + 0.5)
                   / 4294967296.0) / o_totalprice AS es_key
        FROM orders
    )
    SELECT o_orderkey FROM (
        SELECT o_orderkey FROM k ORDER BY es_key, o_orderkey LIMIT 50
    ) ORDER BY o_orderkey
"""


def _ntile_from_pos(pos: np.ndarray, n: int, k: int) -> np.ndarray:
    """Exact SQL ``ntile(k)`` bucket (1-based) from 0-based sorted
    positions: the first ``n mod k`` buckets take ``n//k + 1`` rows."""
    q, r = divmod(n, k)
    big = r * (q + 1)
    return np.where(pos < big, pos // (q + 1) + 1,
                    (r + (pos - big) // q + 1) if q else k).astype(np.int64)


@entry("lorenz_deciles_users", sql=lambda: SQL_LORENZ_DECILES)
def q_lorenz_deciles_users(sf_dir: str) -> pd.DataFrame:
    """Lorenz curve in decile form (the Gini entry's visual twin): users
    ntile(10)-bucketed by ascending 6dp value total, each decile's share
    of the grand total and the cumulative share. Exact ntile semantics
    shared with the RFM entry."""
    ev = _read(sf_dir, "events", ["user_id", "value"])
    tot = hash_aggregate(ev, ["user_id"], {"tot": ("value", "sum")},
                         num_partitions=_NP).to_pandas()
    tot["tot"] = np.round(tot["tot"].to_numpy(np.float64), 6)
    tot = tot.sort_values(["tot", "user_id"]).reset_index(drop=True)
    n = len(tot)
    tot["decile"] = _ntile_from_pos(np.arange(n), n, 10)
    g = tot.groupby("decile", sort=True).agg(
        n_users=("user_id", "size"), dec_sum=("tot", "sum")).reset_index()
    total = float(tot["tot"].sum())
    g["share"] = np.round(g["dec_sum"].to_numpy(np.float64) / total, 6)
    g["cum_share"] = np.round(
        g["dec_sum"].cumsum().to_numpy(np.float64) / total, 6)
    g["decile"] = g["decile"].astype("int64")
    g["n_users"] = g["n_users"].astype("int64")
    return g[["decile", "n_users", "share", "cum_share"]]


SQL_LORENZ_DECILES = """
    WITH t AS (
        SELECT user_id, round(sum(value), 6) AS tot
        FROM events GROUP BY 1
    ),
    d AS (
        SELECT tot, ntile(10) OVER (ORDER BY tot, user_id) AS decile
        FROM t
    ),
    s AS (
        SELECT decile, count(*) AS n_users, sum(tot) AS dec_sum
        FROM d GROUP BY 1
    )
    SELECT CAST(decile AS BIGINT) AS decile,
           CAST(n_users AS BIGINT) AS n_users,
           round(dec_sum / (SELECT sum(tot) FROM t), 6) AS share,
           round(sum(dec_sum) OVER (ORDER BY decile)
                 / (SELECT sum(tot) FROM t), 6) AS cum_share
    FROM s
"""




@entry("weekly_calendar_rollup", sql=lambda: SQL_WEEKLY_CALENDAR_ROLLUP)
def q_weekly_calendar_rollup(sf_dir: str) -> pd.DataFrame:
    """Calendar-week rollup (Monday-anchored, ``date_trunc('week')``
    semantics) per series — the CALENDAR-aligned retention-tier variant
    next to the epoch-anchored 7d tier: n days, value sum/mean/max per
    (series, week start)."""
    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def week_fn(b: pd.DataFrame) -> pd.DataFrame:
        d = b["ts"].dt.floor("D")
        wk = d - pd.to_timedelta(d.dt.dayofweek, unit="D")
        return pd.DataFrame({"event_type": b["event_type"], "wk": wk,
                             "__v": b["value"].to_numpy(np.float64),
                             "__one": np.ones(len(b), dtype=np.int64)})

    out = hash_aggregate(ev.map_batches(week_fn, batch_format="pandas"),
                         ["event_type", "wk"],
                         {"n": ("__one", "sum"), "sum_v": ("__v", "sum"),
                          "max_v": ("__v", "max")},
                         num_partitions=_NP).to_pandas()
    out["mean_v"] = np.round(out["sum_v"].to_numpy(np.float64)
                             / out["n"].to_numpy(np.float64), 6)
    out = _round(out, ["sum_v", "max_v"], 6)
    out["n"] = out["n"].astype("int64")
    return out[["event_type", "wk", "n", "sum_v", "mean_v", "max_v"]] \
        .sort_values(["event_type", "wk"]).reset_index(drop=True)


SQL_WEEKLY_CALENDAR_ROLLUP = """
    SELECT event_type, date_trunc('week', ts) AS wk,
           CAST(count(*) AS BIGINT) AS n,
           round(sum(value), 6) AS sum_v,
           round(sum(value) / count(*), 6) AS mean_v,
           round(max(value), 6) AS max_v
    FROM events GROUP BY 1, 2
"""
@entry("dup_class_histogram_documents", sql=lambda: SQL_DUP_CLASS_HISTOGRAM)
def q_dup_class_histogram_documents(sf_dir: str) -> pd.DataFrame:
    """Duplicate-class size histogram (the curation diagnostic behind the
    dedup funnel's yield estimate): exact-duplicate classes by text
    digest, then class-size → class-count. Both reduces are narrow (the
    32-char digest, then one int)."""
    from forecastframe_ray.pipelines.dedup import _digest_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    classes = hash_aggregate(
        docs.map_batches(lambda b: _digest_batch(b, "text"),
                         batch_format="pandas"),
        ["__digest"], {"class_size": ("doc_id", "size")},
        num_partitions=_NP)
    hist = hash_aggregate(classes, ["class_size"],
                          {"n_classes": ("class_size", "size")},
                          num_partitions=4).to_pandas()
    hist = hist.astype({"class_size": "int64", "n_classes": "int64"})
    return hist.sort_values("class_size").reset_index(drop=True)


SQL_DUP_CLASS_HISTOGRAM = """
    WITH c AS (SELECT count(*) AS class_size FROM documents GROUP BY text)
    SELECT CAST(class_size AS BIGINT) AS class_size,
           CAST(count(*) AS BIGINT) AS n_classes
    FROM c GROUP BY 1
"""


@entry("power_users_division", sql=lambda: SQL_POWER_USERS_DIVISION)
def q_power_users_division(sf_dir: str) -> pd.DataFrame:
    """Relational DIVISION (Codd — public; the 'for all' join family the
    semi/anti entries don't cover): users active in EVERY event type the
    corpus contains. Distinct (user, type) memberships reduce once; a
    user divides when its distinct-type count equals the global type
    count."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    du = hash_aggregate(ev, ["user_id", "event_type"],
                        {"__n": ("event_type", "size")},
                        num_partitions=_NP)
    per_user = hash_aggregate(du, ["user_id"],
                              {"n_types": ("event_type", "size")},
                              num_partitions=_NP).to_pandas()
    n_all = int(hash_aggregate(du, ["event_type"],
                               {"__n": ("user_id", "size")},
                               num_partitions=4).count())
    out = per_user[per_user["n_types"] == n_all][["user_id", "n_types"]]
    out = out.astype({"user_id": "int64", "n_types": "int64"})
    return out.sort_values("user_id").reset_index(drop=True)


SQL_POWER_USERS_DIVISION = """
    WITH du AS (SELECT DISTINCT user_id, event_type FROM events),
    t AS (SELECT count(DISTINCT event_type) AS n_all FROM events)
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_types
    FROM du GROUP BY 1
    HAVING count(*) = (SELECT n_all FROM t)
"""


@entry("hhi_suppliers_lineitem", sql=lambda: SQL_HHI_SUPPLIERS)
def q_hhi_suppliers_lineitem(sf_dir: str) -> pd.DataFrame:
    """Herfindahl–Hirschman concentration index (public antitrust
    convention, ×10000) of supplier revenue shares
    ``Σ l_extendedprice·(1−l_discount)`` — one algebraic per-supplier
    reduce (6dp on both sides before shares), then the tiny share² fold."""
    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_discount"])

    def rev(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_suppkey": b["l_suppkey"],
            "__r": b["l_extendedprice"].to_numpy(np.float64)
                   * (1.0 - b["l_discount"].to_numpy(np.float64))})

    tot = hash_aggregate(li.map_batches(rev, batch_format="pandas"),
                         ["l_suppkey"], {"r": ("__r", "sum")},
                         num_partitions=_NP).to_pandas()
    r = np.round(tot["r"].to_numpy(np.float64), 6)
    share = r / r.sum()
    return pd.DataFrame({
        "n_suppliers": np.array([len(r)], dtype=np.int64),
        "hhi": [np.round(float((share * share).sum()) * 10000.0, 6)]})


SQL_HHI_SUPPLIERS = """
    WITH s AS (
        SELECT l_suppkey,
               round(sum(l_extendedprice * (1 - l_discount)), 6) AS r
        FROM lineitem GROUP BY 1
    )
    SELECT CAST(count(*) AS BIGINT) AS n_suppliers,
           round(sum(r * r) / (sum(r) * sum(r)) * 10000.0, 6) AS hhi
    FROM s
"""


@entry("hour_dow_heatmap_events", sql=lambda: SQL_HOUR_DOW_HEATMAP)
def q_hour_dow_heatmap_events(sf_dir: str) -> pd.DataFrame:
    """Hour-of-day × ISO-weekday activity heatmap (count + mean value per
    cell) — the classic traffic-pattern matrix, one narrow two-key
    reduce."""
    ev = _read(sf_dir, "events", ["ts", "value"])

    def cell(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "dow": (b["ts"].dt.dayofweek + 1).astype(np.int64),
            "hour": b["ts"].dt.hour.astype(np.int64),
            "__v": b["value"].to_numpy(np.float64),
            "__one": np.ones(len(b), dtype=np.int64)})

    out = hash_aggregate(ev.map_batches(cell, batch_format="pandas"),
                         ["dow", "hour"],
                         {"n": ("__one", "sum"), "sum_v": ("__v", "sum")},
                         num_partitions=4).to_pandas()
    out["mean_v"] = np.round(out["sum_v"].to_numpy(np.float64)
                             / out["n"].to_numpy(np.float64), 6)
    out = out.astype({"dow": "int64", "hour": "int64", "n": "int64"})
    out = _round(out, ["sum_v"], 6)
    return out[["dow", "hour", "n", "sum_v", "mean_v"]] \
        .sort_values(["dow", "hour"]).reset_index(drop=True)


SQL_HOUR_DOW_HEATMAP = """
    SELECT CAST(isodow(ts) AS BIGINT) AS dow,
           CAST(hour(ts) AS BIGINT) AS hour,
           CAST(count(*) AS BIGINT) AS n,
           round(sum(value), 6) AS sum_v,
           round(sum(value) / count(*), 6) AS mean_v
    FROM events GROUP BY 1, 2
"""


@entry("corpus_checksum_documents", sql=lambda: SQL_CORPUS_CHECKSUM)
def q_corpus_checksum_documents(sf_dir: str) -> pd.DataFrame:
    """Order-insensitive corpus checksum (the integrity stamp a resume /
    replication check compares): per-row 60-bit md5 prefix of the text,
    summed mod 2⁶¹−1 — commutative, so any partitioning/arrival order
    yields the same stamp. Per-batch partial sums keep the shuffle at one
    int per block."""
    import hashlib

    MOD = (1 << 61) - 1
    docs = _read(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        s = 0
        for t in b["text"].fillna(""):
            s = (s + int(hashlib.md5(t.encode()).hexdigest()[:15], 16)) \
                % MOD
        return pd.DataFrame({"part_sum": np.array([s], dtype=np.int64),
                             "n": np.array([len(b)], dtype=np.int64)})

    # fold the tiny per-block partials with PYTHON ints on the driver —
    # partials approach 2^61, so an int64 aggregate sum would overflow
    parts = docs.map_batches(partial, batch_format="pandas").to_pandas()
    total = sum(int(x) for x in parts["part_sum"]) % MOD
    return pd.DataFrame({
        "n_docs": np.array([int(parts["n"].sum())], dtype=np.int64),
        "checksum": np.array([total], dtype=np.int64)})


SQL_CORPUS_CHECKSUM = """
    SELECT CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(CAST(CAST(('0x' || substr(md5(text), 1, 15))
                              AS BIGINT) AS HUGEINT))
                % 2305843009213693951 AS BIGINT) AS checksum
    FROM documents
"""
# ---------------------------------------------------------------------------
# Naive2 forecast
# ---------------------------------------------------------------------------

@entry("naive2_forecast_daily", sql=lambda: SQL_NAIVE2_FORECAST)
def q_naive2_forecast_daily(sf_dir: str) -> pd.DataFrame:
    """Naive2 forecast (the M-competition deseasonalized-naive benchmark)
    per daily series — EXACT oracle, no degenerate gate: multiplicative
    ROW-seasonal indices (slot mean / grand mean, zero slots → 1), last
    deseasonalized value re-seasonalized 7 days ahead. Drives the 12th
    registered estimator end-to-end (keyed fit, state broadcast,
    future-grid scorer)."""
    fr = _daily_frame(sf_dir)
    preds = fr.predict(periods=7, freq="D", estimator="naive2", period=7)
    df = preds.to_pandas()[["event_type", "d", "predicted_v"]]
    df = _round(df, ["predicted_v"], 6)
    return df.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_NAIVE2_FORECAST = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d, v,
               row_number() OVER (PARTITION BY event_type ORDER BY d) AS rn
        FROM daily
    ),
    gm AS (
        SELECT event_type, avg(v) AS g, count(*) AS n,
               max(d) AS d_last, arg_max(v, rn) AS y_last
        FROM r GROUP BY 1
    ),
    seas AS (
        SELECT r.event_type, (rn - 1) % 7 AS six,
               CASE WHEN gm.g = 0 OR avg(r.v) / gm.g = 0 THEN 1.0
                    ELSE avg(r.v) / gm.g END AS s
        FROM r JOIN gm USING (event_type)
        GROUP BY 1, 2, gm.g
    ),
    f AS (
        SELECT gm.*, fd.d, datediff('day', gm.d_last, fd.d) AS h
        FROM gm CROSS JOIN (
            SELECT unnest(generate_series(maxd + INTERVAL 1 DAY,
                                          maxd + INTERVAL 7 DAY,
                                          INTERVAL 1 DAY)) AS d
            FROM (SELECT max(d) AS maxd FROM daily)
        ) fd
    )
    SELECT f.event_type, f.d,
           round(f.y_last / sl.s * COALESCE(sf2.s, 1.0), 6) AS predicted_v
    FROM f
    JOIN seas sl ON sl.event_type = f.event_type
                AND sl.six = (f.n - 1) % 7
    LEFT JOIN seas sf2 ON sf2.event_type = f.event_type
                      AND sf2.six = (f.n - 1 + f.h) % 7
"""
