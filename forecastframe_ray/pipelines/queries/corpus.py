"""Oracled query catalog — part ``corpus``."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from forecastframe_ray.stages.agg import hash_aggregate

from forecastframe_ray.pipelines.queries.spine import (
    DAY_US,
    NULLF,
    _DAILY_SQL,
    _NP,
    _bucket_series,
    _daily_frame,
    _read,
    _round,
)
from forecastframe_ray.pipelines.queries.text import (
    SQL_OHLC_DAILY,
    q_ohlc_daily_events,
    q_transition_counts_events,
)
from forecastframe_ray.pipelines.queries import entry


@entry("drawdown_daily_events", sql=lambda: SQL_DRAWDOWN_DAILY)
def q_drawdown_daily_events(sf_dir: str) -> pd.DataFrame:
    """Maximum drawdown per daily series: the largest peak-to-trough drop
    ``max(running_max(v) − v)`` in time order (absolute units — the daily
    sums can cross zero, so the relative form is ill-posed). Emitted with
    the series peak and day count; the running max is a per-series
    co-located kernel, the oracle a ROWS UNBOUNDED PRECEDING window."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            runmax = np.maximum.accumulate(v)
            rows.append((et, len(v), np.round(float((runmax - v).max()), 6),
                         np.round(float(v.max()), 6)))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "max_drawdown", "peak"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DRAWDOWN_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               max(v) OVER (PARTITION BY event_type ORDER BY d
                            ROWS UNBOUNDED PRECEDING) AS runmax
        FROM daily
    )
    SELECT event_type, CAST(count(*) AS BIGINT) AS n_days,
           round(max(runmax - v), 6) AS max_drawdown,
           round(max(v), 6) AS peak
    FROM r GROUP BY 1
"""


@entry("atr_daily_events", sql=lambda: SQL_ATR_DAILY)
def q_atr_daily_events(sf_dir: str) -> pd.DataFrame:
    """Average True Range (Wilder 1978 — public) over the daily OHLC bars:
    ``TR = max(high−low, |high−prev_close|, |low−prev_close|)`` (first bar:
    high−low) and ATR = trailing 7-ROW mean of TR (min 1 row). Bars come
    from the same unique-stamp OHLC aggregate the ``ohlc_daily_events``
    entry pins; TR/ATR are computed from the ROUNDED bars on both engines."""
    bars = q_ohlc_daily_events(sf_dir)

    outs = []
    for et, g in bars.groupby("event_type", sort=False):
        g = g.sort_values("d").copy()
        pc = g["close"].shift(1).to_numpy(np.float64)
        hi = g["high"].to_numpy(np.float64)
        lo = g["low"].to_numpy(np.float64)
        tr = np.maximum(hi - lo,
                        np.maximum(np.abs(hi - pc), np.abs(lo - pc)))
        tr = np.where(np.isnan(pc), hi - lo, tr)
        tr = np.round(tr, 6)
        atr = pd.Series(tr).rolling(7, min_periods=1).mean() \
            .to_numpy(np.float64)
        outs.append(pd.DataFrame({
            "event_type": g["event_type"], "d": g["d"],
            "tr": tr + 0.0, "atr7": np.round(atr, 6) + 0.0}))
    out = pd.concat(outs, ignore_index=True)
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_ATR_DAILY = f"""
    WITH bars AS ({SQL_OHLC_DAILY}),
    t AS (
        SELECT event_type, d,
               round(CASE WHEN LAG(close) OVER w IS NULL THEN high - low
                          ELSE GREATEST(high - low,
                                        abs(high - LAG(close) OVER w),
                                        abs(low - LAG(close) OVER w))
                     END, 6) AS tr
        FROM bars WINDOW w AS (PARTITION BY event_type ORDER BY d)
    )
    SELECT event_type, d, tr + 0.0 AS tr,
           round(avg(tr) OVER (PARTITION BY event_type ORDER BY d
                               ROWS BETWEEN 6 PRECEDING AND CURRENT ROW),
                 6) + 0.0 AS atr7
    FROM t
"""


@entry("benford_lineitem", sql=lambda: SQL_BENFORD_LINEITEM)
def q_benford_lineitem(sf_dir: str) -> pd.DataFrame:
    """Benford first-significant-digit audit (Benford 1938 — public) of
    ``l_extendedprice``: digits are taken from the integer cents via string
    truncation (bit-exact on both engines — no float log10 at power-of-ten
    boundaries), counted by the salted combiner aggregate, and compared to
    the Benford expectation ``log10(1 + 1/d)``."""
    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def digit_fn(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["l_extendedprice"].to_numpy(np.float64) * 100.0) \
            .astype(np.int64)
        first = pd.Series(cents).astype(str).str[0].astype(np.int64)
        return pd.DataFrame({"digit": first,
                             "__one": np.ones(len(b), dtype=np.int64)})

    out = hash_aggregate(li.map_batches(digit_fn, batch_format="pandas"),
                         ["digit"], {"n": ("__one", "sum")},
                         num_partitions=4).to_pandas()
    total = float(out["n"].sum())
    out["n"] = out["n"].astype("int64")
    out["share"] = np.round(out["n"].to_numpy(np.float64) / total, 6)
    out["benford_p"] = np.round(
        np.log10(1.0 + 1.0 / out["digit"].to_numpy(np.float64)), 6)
    return out[["digit", "n", "share", "benford_p"]] \
        .sort_values("digit").reset_index(drop=True)


SQL_BENFORD_LINEITEM = """
    WITH c AS (
        SELECT CAST(substr(CAST(CAST(round(l_extendedprice * 100)
                                     AS BIGINT) AS VARCHAR), 1, 1)
                    AS BIGINT) AS digit
        FROM lineitem
    )
    SELECT digit, CAST(count(*) AS BIGINT) AS n,
           round(count(*) * 1.0 / (SELECT count(*) FROM c), 6) AS share,
           round(log10(1 + 1.0 / digit), 6) AS benford_p
    FROM c GROUP BY 1
"""


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


@entry("dow_profile_daily", sql=lambda: SQL_DOW_PROFILE_DAILY)
def q_dow_profile_daily(sf_dir: str) -> pd.DataFrame:
    """Day-of-week seasonal profile per series: n / median / p25 / p75 of
    the daily value by ISO weekday (Mon=1..Sun=7) — the box-plot row behind
    every weekly-seasonality dashboard. Quantiles are linear-interpolated
    (numpy default == DuckDB ``quantile_cont``); the grouped reduce runs on
    the co-located per-(series, dow) slices."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        part = part.copy()
        part["dow"] = part["d"].dt.dayofweek.astype(np.int64) + 1
        rows = []
        for (et, dow), g in part.groupby(["event_type", "dow"],
                                         sort=False):
            v = g["v"].to_numpy(np.float64)
            rows.append((et, dow, len(v),
                         np.round(np.percentile(v, 50), 6),
                         np.round(np.percentile(v, 25), 6),
                         np.round(np.percentile(v, 75), 6)))
        return pd.DataFrame(rows, columns=["event_type", "dow", "n",
                                           "med", "p25", "p75"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    out["dow"] = out["dow"].astype("int64")
    return out.sort_values(["event_type", "dow"]).reset_index(drop=True)


SQL_DOW_PROFILE_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, CAST(isodow(d) AS BIGINT) AS dow,
           CAST(count(*) AS BIGINT) AS n,
           round(quantile_cont(v, 0.5), 6) AS med,
           round(quantile_cont(v, 0.25), 6) AS p25,
           round(quantile_cont(v, 0.75), 6) AS p75
    FROM daily GROUP BY 1, 2
"""


@entry("normalized_dedup_documents", sql=lambda: SQL_NORMALIZED_DEDUP)
def q_normalized_dedup_documents(sf_dir: str) -> pd.DataFrame:
    """Fuzzy-exact dedup on NORMALIZED text (the C4/CCNet pre-pass —
    public): lowercase, strip non-[a-z0-9 ], collapse runs of spaces, trim;
    then keep the min doc_id per normalized class. Normalization is a
    stateless vectorized map; the class reduce shuffles only the 32-char
    digest of the normalized text (never the text itself) — the same
    narrow-key plan as ``exact_dedup``."""
    import hashlib

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm_fn(b: pd.DataFrame) -> pd.DataFrame:
        nt = b["text"].fillna("").str.lower() \
            .str.replace(r"[^a-z0-9 ]", "", regex=True) \
            .str.replace(r" +", " ", regex=True).str.strip()
        dig = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in nt]
        return pd.DataFrame({"doc_id": b["doc_id"], "__digest": dig})

    out = hash_aggregate(
        docs.map_batches(norm_fn, batch_format="pandas"),
        ["__digest"], {"keep_id": ("doc_id", "min"),
                       "class_size": ("doc_id", "size")},
        num_partitions=_NP).to_pandas()
    out = out[["keep_id", "class_size"]].astype(
        {"keep_id": "int64", "class_size": "int64"})
    return out.sort_values("keep_id").reset_index(drop=True)


SQL_NORMALIZED_DEDUP = """
    WITH nrm AS (
        SELECT doc_id,
               trim(regexp_replace(regexp_replace(lower(text),
                                                  '[^a-z0-9 ]', '', 'g'),
                                   ' +', ' ', 'g')) AS nt
        FROM documents
    )
    SELECT CAST(min(doc_id) AS BIGINT) AS keep_id,
           CAST(count(*) AS BIGINT) AS class_size
    FROM nrm GROUP BY nt
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


@entry("transition_entropy_events", sql=lambda: SQL_TRANSITION_ENTROPY)
def q_transition_entropy_events(sf_dir: str) -> pd.DataFrame:
    """Conditional next-event entropy per source type (the Markov-chain
    entropy-rate row): H(next | prev=i) = −Σ_j p(j|i)·ln p(j|i) in nats
    over the per-user transition stream — how predictable each event type's
    successor is. Reuses the transition-matrix plan (pairs form in the
    partition-id shuffle kernel, counts pre-reduce); the entropy fold runs
    over the tiny (type × type) count table."""
    counts = q_transition_counts_events(sf_dir)
    rows = []
    for prev, g in counts.groupby("prev_type", sort=False):
        n = g["n"].to_numpy(np.float64)
        p = n / n.sum()
        rows.append((prev, int(n.sum()),
                     np.round(float(-(p * np.log(p)).sum()), 6)))
    out = pd.DataFrame(rows, columns=["prev_type", "n_out", "h_cond"])
    out["n_out"] = out["n_out"].astype("int64")
    return out.sort_values("prev_type").reset_index(drop=True)


SQL_TRANSITION_ENTROPY = """
    WITH l AS (
        SELECT event_type,
               LEAD(event_type) OVER (PARTITION BY user_id ORDER BY ts)
                   AS nxt
        FROM events
    ),
    c AS (
        SELECT event_type AS prev_type, nxt AS next_type, count(*) AS n
        FROM l WHERE nxt IS NOT NULL GROUP BY 1, 2
    ),
    t AS (SELECT prev_type, sum(n) AS tot FROM c GROUP BY 1)
    SELECT c.prev_type, CAST(t.tot AS BIGINT) AS n_out,
           round(-sum((c.n / t.tot) * ln(c.n / t.tot)), 6) AS h_cond
    FROM c JOIN t USING (prev_type)
    GROUP BY 1, 2
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


@entry("count_windows_users", sql=lambda: SQL_COUNT_WINDOWS_USERS)
def q_count_windows_users(sf_dir: str) -> pd.DataFrame:
    """Tumbling COUNT-based windows (every 5 events) per user — the
    Flink-style count-window shape the time-based hopping/tumbling entries
    don't cover. Window index = 0-based position // 5 in ts order
    ((user_id, ts) unique ⇒ total order); per window: n, value sum, start
    and end stamps. One keyed co-located kernel; oracle is
    ``(row_number()-1)//5``."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for uid, g in part.groupby("user_id", sort=False):
            g = g.sort_values("ts").reset_index(drop=True)
            w = (np.arange(len(g)) // 5).astype(np.int64)
            agg = g.assign(w=w).groupby("w", sort=True).agg(
                n=("value", "size"), sum_v=("value", "sum"),
                w_start=("ts", "min"), w_end=("ts", "max")).reset_index()
            agg.insert(0, "user_id", uid)
            outs.append(agg)
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["user_id", "w", "n", "sum_v",
                                  "w_start", "w_end"])

    out = keyed_map_partitions(ev, ["user_id"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"user_id": "int64", "w": "int64", "n": "int64"})
    out = _round(out, ["sum_v"], 6)
    return out.sort_values(["user_id", "w"]).reset_index(drop=True)


SQL_COUNT_WINDOWS_USERS = """
    WITH r AS (
        SELECT user_id, ts, value,
               (row_number() OVER (PARTITION BY user_id ORDER BY ts) - 1)
                   // 5 AS w
        FROM events
    )
    SELECT user_id, CAST(w AS BIGINT) AS w,
           CAST(count(*) AS BIGINT) AS n, round(sum(value), 6) AS sum_v,
           min(ts) AS w_start, max(ts) AS w_end
    FROM r GROUP BY 1, 2
"""


@entry("chisq_type_dow_events", sql=lambda: SQL_CHISQ_TYPE_DOW)
def q_chisq_type_dow_events(sf_dir: str) -> pd.DataFrame:
    """Pearson chi-square independence test (Pearson 1900 — public) of the
    event_type × ISO-weekday contingency table: χ² = Σ (O−E)²/E with
    E = row_total · col_total / N, plus the table dof. Observed counts are
    one narrow aggregate; the χ² fold runs over the tiny contingency
    table."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def dow_fn(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b["event_type"],
            "dow": (b["ts"].dt.dayofweek + 1).astype(np.int64),
            "__one": np.ones(len(b), dtype=np.int64)})

    obs = hash_aggregate(ev.map_batches(dow_fn, batch_format="pandas"),
                         ["event_type", "dow"], {"n": ("__one", "sum")},
                         num_partitions=4).to_pandas()
    piv = obs.pivot_table(index="event_type", columns="dow", values="n",
                          fill_value=0, aggfunc="sum")
    O = piv.to_numpy(np.float64)
    E = O.sum(axis=1, keepdims=True) * O.sum(axis=0, keepdims=True) / O.sum()
    chi2 = float(((O - E) ** 2 / E).sum())
    dof = (O.shape[0] - 1) * (O.shape[1] - 1)
    return pd.DataFrame({
        "n": np.array([int(O.sum())], dtype=np.int64),
        "chi2": [np.round(chi2, 6)],
        "dof": np.array([dof], dtype=np.int64)})


SQL_CHISQ_TYPE_DOW = """
    WITH o AS (
        SELECT event_type, isodow(ts) AS dow, count(*) AS n
        FROM events GROUP BY 1, 2
    ),
    tot AS (SELECT sum(n) AS nn FROM o),
    rt AS (SELECT event_type, sum(n) AS r FROM o GROUP BY 1),
    ct AS (SELECT dow, sum(n) AS c FROM o GROUP BY 1)
    SELECT CAST((SELECT nn FROM tot) AS BIGINT) AS n,
           round(sum(pow(o.n - rt.r * ct.c / tot.nn, 2)
                     / (rt.r * ct.c / tot.nn)), 6) AS chi2,
           CAST(((SELECT count(*) FROM rt) - 1)
                * ((SELECT count(*) FROM ct) - 1) AS BIGINT) AS dof
    FROM o JOIN rt USING (event_type) JOIN ct USING (dow)
           CROSS JOIN tot
"""


@entry("ks_two_sample_events", sql=lambda: SQL_KS_TWO_SAMPLE)
def q_ks_two_sample_events(sf_dir: str) -> pd.DataFrame:
    """Two-sample Kolmogorov–Smirnov statistic (public) between the
    'click' and 'view' value distributions: D = max |F_a(v) − F_b(v)|.
    The distributed plan reduces rows to one (value, count_a, count_b)
    row per DISTINCT value first (narrow shuffle — the value domain is
    2-decimal-bounded, so the reduced table is tiny relative to the
    stream); the ECDF cumsum + max folds over that reduced table. Also
    emits the scaled statistic ``sqrt(na·nb/(na+nb))·D``."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def parts(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["event_type"].isin(["click", "view"])]
        return pd.DataFrame({
            "value": b["value"],
            "__a": (b["event_type"] == "click").astype(np.int64),
            "__b": (b["event_type"] == "view").astype(np.int64)})

    red = hash_aggregate(ev.map_batches(parts, batch_format="pandas"),
                         ["value"], {"c_a": ("__a", "sum"),
                                     "c_b": ("__b", "sum")},
                         num_partitions=_NP).to_pandas()
    red = red.sort_values("value")
    na = float(red["c_a"].sum())
    nb = float(red["c_b"].sum())
    fa = red["c_a"].cumsum().to_numpy(np.float64) / na
    fb = red["c_b"].cumsum().to_numpy(np.float64) / nb
    d = float(np.abs(fa - fb).max())
    return pd.DataFrame({
        "n_click": np.array([int(na)], dtype=np.int64),
        "n_view": np.array([int(nb)], dtype=np.int64),
        "ks_d": [np.round(d, 6)],
        "ks_scaled": [np.round(np.sqrt(na * nb / (na + nb)) * d, 6)]})


SQL_KS_TWO_SAMPLE = """
    WITH s AS (
        SELECT value,
               sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS ca,
               sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS cb
        FROM events WHERE event_type IN ('click', 'view') GROUP BY 1
    ),
    t AS (SELECT sum(ca) AS na, sum(cb) AS nb FROM s),
    c AS (
        SELECT sum(ca) OVER (ORDER BY value) * 1.0 / t.na AS fa,
               sum(cb) OVER (ORDER BY value) * 1.0 / t.nb AS fb,
               t.na, t.nb
        FROM s CROSS JOIN t
    )
    SELECT CAST(max(na) AS BIGINT) AS n_click,
           CAST(max(nb) AS BIGINT) AS n_view,
           round(max(abs(fa - fb)), 6) AS ks_d,
           round(sqrt(max(na) * max(nb) / (max(na) + max(nb)))
                 * max(abs(fa - fb)), 6) AS ks_scaled
    FROM c
"""


@entry("vwap_daily_events", sql=lambda: SQL_VWAP_DAILY)
def q_vwap_daily_events(sf_dir: str) -> pd.DataFrame:
    """Volume-weighted average price per (series, day) — the market twin of
    the TWAP entry, weighting each observation by the integer ``k`` field
    extracted from the JSON props bag (vectorized regex extract, no per-row
    parse). One narrow weighted reduce: Σ(v·k) and Σk cascade like every
    algebraic carry; zero-total-volume days emit NULLF."""
    from forecastframe_ray.functions.scalar import extract_json_int

    ev = _read(sf_dir, "events", ["event_type", "ts", "value", "props"])
    ext = extract_json_int(ev, "props", "k")

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        k = b["k"].astype("float64").to_numpy()
        v = b["value"].to_numpy(np.float64)
        return pd.DataFrame({
            "event_type": b["event_type"],
            "d": b["ts"].dt.floor("D"),
            "__vk": v * k, "__k": k,
            "__one": np.ones(len(b), dtype=np.int64)})

    out = hash_aggregate(ext.map_batches(pre, batch_format="pandas"),
                         ["event_type", "d"],
                         {"n": ("__one", "sum"), "svk": ("__vk", "sum"),
                          "vol": ("__k", "sum")},
                         num_partitions=_NP).to_pandas()
    vol = out["vol"].to_numpy(np.float64)
    svk = out["svk"].to_numpy(np.float64)
    out["vwap"] = np.where(vol > 0, np.round(svk / vol, 6), NULLF)
    out["n"] = out["n"].astype("int64")
    out["vol"] = out["vol"].astype("int64")
    return out[["event_type", "d", "n", "vol", "vwap"]] \
        .sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_VWAP_DAILY = f"""
    WITH e AS (
        SELECT event_type, date_trunc('day', ts) AS d, value,
               CAST(json_extract(props, '$.k') AS BIGINT) AS k
        FROM events
    )
    SELECT event_type, d, CAST(count(*) AS BIGINT) AS n,
           CAST(sum(k) AS BIGINT) AS vol,
           CASE WHEN sum(k) > 0 THEN round(sum(value * k) / sum(k), 6)
                ELSE {NULLF} END AS vwap
    FROM e GROUP BY 1, 2
"""


def _char_shingles(nt: str, width: int = 5) -> set:
    """Distinct character ``width``-grams, mirroring the SQL oracle's
    ``substr(nt, i, width)`` over ``1..max(len−width+1, 1)`` (short/empty
    strings yield one truncated shingle)."""
    n = max(len(nt) - width + 1, 1)
    return {nt[i:i + width] for i in range(n)}


@entry("blocking_dedup_documents", sql=lambda: SQL_BLOCKING_DEDUP)
def q_blocking_dedup_documents(sf_dir: str) -> pd.DataFrame:
    """Sorted-key BLOCKING dedup (Fellegi–Sunter-era entity-resolution
    blocking — public; the non-LSH classical baseline): documents sharing
    the first 12 chars of their normalized text form a block, and every
    in-block pair is verified by exact character-5-gram Jaccard ≥ 0.7.
    Blocks group in one narrow shuffle (block key + doc id + normalized
    text); pairing is exact within blocks — the block-key LENGTH is the
    recall/cost dial, with the capped LSH funnel as the adversarial-corpus
    scale path (this entry is its exact classical control)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm_fn(b: pd.DataFrame) -> pd.DataFrame:
        nt = b["text"].fillna("").str.lower() \
            .str.replace(r"[^a-z0-9 ]", "", regex=True) \
            .str.replace(r" +", " ", regex=True).str.strip()
        return pd.DataFrame({"doc_id": b["doc_id"], "nt": nt,
                             "bk": nt.str[:12]})

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for bk, g in part.groupby("bk", sort=False):
            if len(g) < 2:
                continue
            g = g.sort_values("doc_id")
            ids = g["doc_id"].to_numpy()
            # exact-dup class collapse: one shingle set per distinct text
            codes, uniq = pd.factorize(g["nt"], sort=False)
            sets = [_char_shingles(t) for t in uniq]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    sa, sb = sets[codes[i]], sets[codes[j]]
                    inter = len(sa & sb)
                    jac = inter / (len(sa) + len(sb) - inter)
                    if jac >= 0.7:
                        rows.append((ids[i], ids[j], np.round(jac, 6)))
        return pd.DataFrame(rows, columns=["id_a", "id_b", "jaccard"])

    out = keyed_map_partitions(
        docs.map_batches(norm_fn, batch_format="pandas"),
        ["bk"], kernel, num_partitions=_NP).to_pandas()
    out = out.astype({"id_a": "int64", "id_b": "int64"})
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


SQL_BLOCKING_DEDUP = """
    WITH nrm AS (
        SELECT doc_id,
               trim(regexp_replace(regexp_replace(lower(text),
                                                  '[^a-z0-9 ]', '', 'g'),
                                   ' +', ' ', 'g')) AS nt
        FROM documents
    ),
    sh AS (
        SELECT doc_id, substr(nt, 1, 12) AS bk,
               list_distinct(list_transform(
                   generate_series(1, greatest(strlen(nt) - 4, 1)),
                   i -> substr(nt, i, 5))) AS s
        FROM nrm
    ),
    p AS (
        SELECT a.doc_id AS id_a, b.doc_id AS id_b,
               CAST(length(list_intersect(a.s, b.s)) AS DOUBLE)
                   / (length(a.s) + length(b.s)
                      - length(list_intersect(a.s, b.s))) AS jac
        FROM sh a JOIN sh b ON a.bk = b.bk AND a.doc_id < b.doc_id
    )
    SELECT id_a, id_b, round(jac, 6) AS jaccard
    FROM p WHERE jac >= 0.7
"""


@entry("control_chart_daily", sql=lambda: SQL_CONTROL_CHART_DAILY)
def q_control_chart_daily(sf_dir: str) -> pd.DataFrame:
    """Shewhart individuals X-MR control chart (public SPC — the 2.66·MR̄
    rule): per daily series, moving range MR = |v − v_prev|, center = mean
    of v, limits = center ± 2.66·mean(MR); flag points outside. Limit
    comparison runs on the ROUNDED limits on both engines."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            mr = np.abs(np.diff(v))
            center = float(v.mean())
            mrbar = float(mr.mean()) if len(mr) else 0.0
            ucl = np.round(center + 2.66 * mrbar, 6)
            lcl = np.round(center - 2.66 * mrbar, 6)
            outs.append(pd.DataFrame({
                "event_type": g["event_type"], "d": g["d"], "v": g["v"],
                "ucl": ucl + 0.0, "lcl": lcl + 0.0,
                "out_of_control": ((v > ucl) | (v < lcl))
                .astype(np.int64)}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "ucl", "lcl",
                                  "out_of_control"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["out_of_control"] = out["out_of_control"].astype("int64")
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_CONTROL_CHART_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    mr AS (
        SELECT event_type, d, v,
               abs(v - LAG(v) OVER (PARTITION BY event_type ORDER BY d))
                   AS mrange
        FROM daily
    ),
    lim AS (
        SELECT event_type,
               round(avg(v) + 2.66 * COALESCE(avg(mrange), 0), 6) + 0.0
                   AS ucl,
               round(avg(v) - 2.66 * COALESCE(avg(mrange), 0), 6) + 0.0
                   AS lcl
        FROM mr GROUP BY 1
    )
    SELECT m.event_type, m.d, m.v, lim.ucl, lim.lcl,
           CAST(CASE WHEN m.v > lim.ucl OR m.v < lim.lcl
                     THEN 1 ELSE 0 END AS BIGINT) AS out_of_control
    FROM mr m JOIN lim USING (event_type)
"""


@entry("pareto_share_events", sql=lambda: SQL_PARETO_SHARE)
def q_pareto_share_events(sf_dir: str) -> pd.DataFrame:
    """Pareto 80/20 check: the share of total event value held by the top
    20% of users (by their 6dp-rounded totals; ties broken by user_id so
    the cut is total on both engines). Complements the Gini entry — the
    one-number concentration dashboard pair."""
    ev = _read(sf_dir, "events", ["user_id", "value"])
    tot = hash_aggregate(ev, ["user_id"], {"tot": ("value", "sum")},
                         num_partitions=_NP).to_pandas()
    tot["tot"] = np.round(tot["tot"].to_numpy(np.float64), 6)
    tot = tot.sort_values(["tot", "user_id"],
                          ascending=[False, True]).reset_index(drop=True)
    n = len(tot)
    k = int(np.ceil(0.2 * n))
    top = float(tot["tot"].iloc[:k].sum())
    allv = float(tot["tot"].sum())
    return pd.DataFrame({
        "n_users": np.array([n], dtype=np.int64),
        "n_top": np.array([k], dtype=np.int64),
        "top20_share": [np.round(top / allv, 6)]})


SQL_PARETO_SHARE = """
    WITH t AS (
        SELECT user_id, round(sum(value), 6) AS tot
        FROM events GROUP BY 1
    ),
    r AS (
        SELECT tot, row_number() OVER (ORDER BY tot DESC, user_id) AS rn,
               count(*) OVER () AS n
        FROM t
    )
    SELECT CAST(max(n) AS BIGINT) AS n_users,
           CAST(CAST(ceil(0.2 * max(n)) AS BIGINT) AS BIGINT) AS n_top,
           round(sum(CASE WHEN rn <= ceil(0.2 * n) THEN tot ELSE 0 END)
                 / sum(tot), 6) AS top20_share
    FROM r
"""


@entry("readability_documents", sql=lambda: SQL_READABILITY_DOCS)
def q_readability_documents(sf_dir: str) -> pd.DataFrame:
    """Flesch-Kincaid grade level (Kincaid 1975 — public) with the
    vowel-run syllable heuristic: words = whitespace tokens, sentences =
    runs of [.!?] (min 1), syllables = runs of [aeiouy] in the lowercased
    text. ``0.39·words/sentences + 11.8·syllables/words − 15.59``;
    zero-word docs emit NULLF. Stateless vectorized map — all three
    counts are regex-run counts shared verbatim with the oracle."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def fk(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].fillna("")
        words = t.str.count(r"\S+").to_numpy(np.float64)
        sents = np.maximum(
            t.str.count(r"[.!?]+").to_numpy(np.float64), 1.0)
        syll = t.str.lower().str.count(r"[aeiouy]+") \
            .to_numpy(np.float64)
        grade = np.where(
            words > 0,
            np.round(0.39 * words / sents + 11.8 * syll / words
                     - 15.59, 6) + 0.0,
            NULLF)
        return pd.DataFrame({
            "doc_id": b["doc_id"],
            "n_words": words.astype(np.int64),
            "n_sentences": sents.astype(np.int64),
            "n_syllables": syll.astype(np.int64),
            "fk_grade": grade})

    out = docs.map_batches(fk, batch_format="pandas").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_READABILITY_DOCS = rf"""
    WITH c AS (
        SELECT doc_id,
               length(regexp_extract_all(text, '\S+')) AS words,
               greatest(length(regexp_extract_all(text, '[.!?]+')), 1)
                   AS sents,
               length(regexp_extract_all(lower(text), '[aeiouy]+'))
                   AS syll
        FROM documents
    )
    SELECT doc_id, CAST(words AS BIGINT) AS n_words,
           CAST(sents AS BIGINT) AS n_sentences,
           CAST(syll AS BIGINT) AS n_syllables,
           CASE WHEN words > 0
                THEN round(0.39 * words / sents + 11.8 * syll / words
                           - 15.59, 6) + 0.0
                ELSE {NULLF} END AS fk_grade
    FROM c
"""


def _levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, row-vectorized DP: the sequential
    insertion term resolves via the prefix-min identity
    ``cur[j] = j + min_{{k≤j}}(m[k] − k)`` (one ``np.minimum.accumulate``
    per row instead of a per-cell Python loop)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    bv = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    n = len(bv)
    prev = np.arange(n + 1, dtype=np.int64)
    for i, ca in enumerate(a, 1):
        sub = prev[:-1] + (bv != ord(ca))
        m = np.minimum(prev[1:] + 1, sub)
        d = np.concatenate(([i], m - np.arange(1, n + 1)))
        prev = np.minimum.accumulate(d) + np.arange(n + 1)
    return int(prev[-1])


@entry("levenshtein_pairs_documents", sql=lambda: SQL_LEVENSHTEIN_PAIRS)
def q_levenshtein_pairs_documents(sf_dir: str) -> pd.DataFrame:
    """Unit-cost Levenshtein distance for the fixed (2i, 2i+1) pair list
    (the ngram_jaccard_pairs convention) over 200-char prefixes, plus the
    normalized similarity ``1 − dist/max(len_a, len_b)`` (both empty →
    1.0). The classical character-level ER verifier next to the Jaccard /
    containment set measures; pairs verify inside co-located pair groups
    with the row-vectorized DP kernel."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "pair_id": (b["doc_id"] // 2).astype(np.int64),
            "doc_id": b["doc_id"],
            "t": b["text"].fillna("").str[:200]})

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for pid, g in part.groupby("pair_id", sort=False):
            if len(g) != 2:
                continue
            g = g.sort_values("doc_id")
            ta, tb = g["t"].iloc[0], g["t"].iloc[1]
            dist = _levenshtein(ta, tb)
            mx = max(len(ta), len(tb))
            sim = 1.0 - dist / mx if mx else 1.0
            rows.append((pid, dist, np.round(sim, 6)))
        return pd.DataFrame(rows, columns=["pair_id", "lev_dist",
                                           "lev_sim"])

    out = keyed_map_partitions(
        docs.map_batches(prep, batch_format="pandas"),
        ["pair_id"], kernel, num_partitions=_NP).to_pandas()
    out = out.astype({"pair_id": "int64", "lev_dist": "int64"})
    return out.sort_values("pair_id").reset_index(drop=True)


SQL_LEVENSHTEIN_PAIRS = """
    WITH t AS (
        SELECT doc_id // 2 AS pair_id, doc_id,
               substr(COALESCE(text, ''), 1, 200) AS t
        FROM documents
    ),
    p AS (
        SELECT a.pair_id, a.t AS ta, b.t AS tb
        FROM t a JOIN t b
            ON a.pair_id = b.pair_id AND a.doc_id < b.doc_id
    )
    SELECT pair_id, CAST(levenshtein(ta, tb) AS BIGINT) AS lev_dist,
           CASE WHEN greatest(strlen(ta), strlen(tb)) = 0 THEN 1.0
                ELSE round(1.0 - levenshtein(ta, tb) * 1.0
                           / greatest(strlen(ta), strlen(tb)), 6)
           END AS lev_sim
    FROM p
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


@entry("new_vs_returning_daily", sql=lambda: SQL_NEW_VS_RETURNING)
def q_new_vs_returning_daily(sf_dir: str) -> pd.DataFrame:
    """Growth-accounting split per day: users active that day whose
    FIRST-ever active day it is (new) vs the rest (returning). Distinct
    (user, day) memberships and per-user first days both reduce
    distributedly; the split is a broadcast first-day lookup inside the
    day counts."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def day_fn(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": b["user_id"],
                             "d": b["ts"].dt.floor("D")})

    du = hash_aggregate(ev.map_batches(day_fn, batch_format="pandas"),
                        ["user_id", "d"], {"__n": ("user_id", "size")},
                        num_partitions=_NP)
    firsts = hash_aggregate(du, ["user_id"], {"first_d": ("d", "min")},
                            num_partitions=_NP).to_pandas()
    fmap = dict(zip(firsts["user_id"], firsts["first_d"]))

    def label(b: pd.DataFrame) -> pd.DataFrame:
        fd = b["user_id"].map(fmap)
        return pd.DataFrame({
            "d": b["d"],
            "__new": (b["d"] == fd).astype(np.int64),
            "__ret": (b["d"] != fd).astype(np.int64)})

    out = hash_aggregate(du.map_batches(label, batch_format="pandas"),
                         ["d"], {"n_new": ("__new", "sum"),
                                 "n_returning": ("__ret", "sum")},
                         num_partitions=4).to_pandas()
    out = out.astype({"n_new": "int64", "n_returning": "int64"})
    return out.sort_values("d").reset_index(drop=True)


SQL_NEW_VS_RETURNING = """
    WITH du AS (
        SELECT DISTINCT user_id, date_trunc('day', ts) AS d FROM events
    ),
    f AS (SELECT user_id, min(d) AS first_d FROM du GROUP BY 1)
    SELECT du.d,
           CAST(sum(CASE WHEN du.d = f.first_d THEN 1 ELSE 0 END)
                AS BIGINT) AS n_new,
           CAST(sum(CASE WHEN du.d <> f.first_d THEN 1 ELSE 0 END)
                AS BIGINT) AS n_returning
    FROM du JOIN f USING (user_id)
    GROUP BY 1
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


@entry("mtd_cumsum_daily", sql=lambda: SQL_MTD_CUMSUM_DAILY)
def q_mtd_cumsum_daily(sf_dir: str) -> pd.DataFrame:
    """Month-to-date running total per daily series — the expanding sum
    with CALENDAR-RESET semantics (restarts at each month boundary), the
    fiscal-dashboard companion to the plain expanding entry. One keyed
    kernel (grouped cumsum inside (series, month)); oracle is a
    month-partitioned window."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            mo = g["d"].dt.to_period("M")
            g["mtd_v"] = np.round(
                g.groupby(mo, sort=False)["v"].cumsum()
                .to_numpy(np.float64), 6) + 0.0
            outs.append(g[["event_type", "d", "v", "mtd_v"]])
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "mtd_v"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_MTD_CUMSUM_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           round(sum(v) OVER (PARTITION BY event_type,
                                           date_trunc('month', d)
                              ORDER BY d
                              ROWS UNBOUNDED PRECEDING), 6) + 0.0
               AS mtd_v
    FROM daily
"""


@entry("bowley_skew_events", sql=lambda: SQL_BOWLEY_SKEW)
def q_bowley_skew_events(sf_dir: str) -> pd.DataFrame:
    """Bowley quartile skewness (Bowley 1901 — public, the robust shape
    twin of the moment skew): ``(Q3 + Q1 − 2·Q2) / (Q3 − Q1)`` of value
    per event type, with linear-interpolated quartiles
    (``quantile_cont``). Zero-IQR groups emit NULLF."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["value"].to_numpy(np.float64)
            q1, q2, q3 = (np.percentile(v, p) for p in (25, 50, 75))
            iqr = q3 - q1
            b = np.round((q3 + q1 - 2 * q2) / iqr, 6) if iqr > 0 else NULLF
            rows.append((et, len(v), np.round(q1, 6), np.round(q2, 6),
                         np.round(q3, 6), b))
        return pd.DataFrame(rows, columns=["event_type", "n", "q1", "q2",
                                           "q3", "bowley_skew"])

    out = keyed_map_partitions(ev, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_BOWLEY_SKEW = f"""
    WITH q AS (
        SELECT event_type, count(*) AS n,
               quantile_cont(value, 0.25) AS q1,
               quantile_cont(value, 0.50) AS q2,
               quantile_cont(value, 0.75) AS q3
        FROM events GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n,
           round(q1, 6) AS q1, round(q2, 6) AS q2, round(q3, 6) AS q3,
           CASE WHEN q3 - q1 > 0
                THEN round((q3 + q1 - 2 * q2) / (q3 - q1), 6)
                ELSE {NULLF} END AS bowley_skew
    FROM q
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


@entry("ttr_documents", sql=lambda: SQL_TTR_DOCUMENTS)
def q_ttr_documents(sf_dir: str) -> pd.DataFrame:
    """Type-token ratio per document (the lexical-richness quality
    signal): distinct whitespace tokens over total tokens; zero-token
    docs emit NULLF. Stateless vectorized map sharing the \\S+ token
    convention with the token-count entry."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def ttr(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, t in zip(b["doc_id"], b["text"].fillna("")):
            toks = t.split()
            n = len(toks)
            d = len(set(toks))
            rows.append((did, n, d,
                         np.round(d / n, 6) if n else NULLF))
        return pd.DataFrame(rows, columns=["doc_id", "n_tokens",
                                           "n_types", "ttr"])

    out = docs.map_batches(ttr, batch_format="pandas").to_pandas()
    out = out.astype({"doc_id": "int64", "n_tokens": "int64",
                      "n_types": "int64"})
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_TTR_DOCUMENTS = rf"""
    WITH t AS (
        SELECT doc_id, regexp_extract_all(text, '\S+') AS toks
        FROM documents
    )
    SELECT doc_id, CAST(length(toks) AS BIGINT) AS n_tokens,
           CAST(length(list_distinct(toks)) AS BIGINT) AS n_types,
           CASE WHEN length(toks) > 0
                THEN round(length(list_distinct(toks)) * 1.0
                           / length(toks), 6)
                ELSE {NULLF} END AS ttr
    FROM t
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


@entry("quantization_error_embeddings", sql=lambda: SQL_QUANTIZATION_ERROR)
def q_quantization_error_embeddings(sf_dir: str) -> pd.DataFrame:
    """Symmetric int8 quantization audit (the embedding-compression
    decision input for ANN at scale): per vector, scale = max|x|/127,
    q = ⌊x/scale + 0.5⌋ (explicit round-half-up on BOTH engines — SQL
    round() is half-away while numpy is banker's, so neither is used),
    reconstruction MSE = mean((x − q·scale)²). Stateless vectorized map;
    all-zero vectors emit zero error."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def qerr(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        scale = np.abs(X).max(axis=1) / 127.0
        s = np.where(scale > 0, scale, 1.0)[:, None]
        q = np.floor(X / s + 0.5)
        mse = ((X - q * s) ** 2).mean(axis=1)
        return pd.DataFrame({
            "vec_id": b["vec_id"],
            "scale": np.round(scale, 6) + 0.0,
            "mse": np.round(mse, 9) + 0.0})

    out = ds.map_batches(qerr, batch_format="pandas").to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    return out.sort_values("vec_id").reset_index(drop=True)


SQL_QUANTIZATION_ERROR = """
    WITH e AS (
        SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
               CAST(unnest(embedding) AS DOUBLE) AS x
        FROM embeddings
    ),
    s AS (
        SELECT vec_id, max(abs(x)) / 127.0 AS scale
        FROM e GROUP BY 1
    ),
    q AS (
        SELECT e.vec_id, s.scale,
               e.x - floor(e.x / (CASE WHEN s.scale > 0
                                       THEN s.scale ELSE 1 END) + 0.5)
                     * (CASE WHEN s.scale > 0 THEN s.scale ELSE 1 END)
                   AS err
        FROM e JOIN s USING (vec_id)
    )
    SELECT vec_id, round(max(scale), 6) + 0.0 AS scale,
           round(avg(err * err), 9) + 0.0 AS mse
    FROM q GROUP BY 1
"""


@entry("asof_forward_events", sql=lambda: SQL_ASOF_FORWARD)
def q_asof_forward_events(sf_dir: str) -> pd.DataFrame:
    """FORWARD as-of join (the existing as-of entry runs backward): each
    'purchase' picks the same user's NEXT 'click' at or after it —
    stages/join.asof_join(direction='forward'). No-match purchases emit
    the 9999-12-31 / NULLF sentinels. ((user_id, ts) is unique, so the
    nearest-forward row is total-ordered on both engines.)"""
    from forecastframe_ray.stages.join import asof_join

    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "event_type", "ts", "value"])
    left = ev.map_batches(
        lambda b: b[b["event_type"] == "purchase"]
        [["event_id", "user_id", "ts", "value"]],
        batch_format="pandas")
    right = ev.map_batches(
        lambda b: b[b["event_type"] == "click"]
        [["user_id", "ts", "value"]].rename(
            columns={"ts": "click_ts", "value": "click_value"}),
        batch_format="pandas")
    out = asof_join(left, right, on=["user_id"], left_ts="ts",
                    right_ts="click_ts", direction="forward",
                    num_partitions=_NP).to_pandas()
    out["click_ts"] = out["click_ts"].fillna(pd.Timestamp("9999-12-31"))
    out["click_value"] = out["click_value"].fillna(NULLF)
    out = out.astype({"event_id": "int64", "user_id": "int64"})
    out = out[["event_id", "user_id", "ts", "value", "click_ts",
               "click_value"]]
    return out.sort_values("event_id").reset_index(drop=True)


SQL_ASOF_FORWARD = f"""
    WITH p AS (
        SELECT event_id, user_id, ts, value FROM events
        WHERE event_type = 'purchase'
    ),
    c AS (
        SELECT user_id, ts AS click_ts, value AS click_value FROM events
        WHERE event_type = 'click'
    ),
    m AS (
        SELECT p.event_id, min(c.click_ts) AS nts
        FROM p JOIN c ON c.user_id = p.user_id AND c.click_ts >= p.ts
        GROUP BY 1
    )
    SELECT p.event_id, p.user_id, p.ts, p.value,
           COALESCE(cv.click_ts, TIMESTAMP '9999-12-31') AS click_ts,
           COALESCE(cv.click_value, {NULLF}) AS click_value
    FROM p
    LEFT JOIN m USING (event_id)
    LEFT JOIN c cv ON cv.user_id = p.user_id AND cv.click_ts = m.nts
"""


@entry("weighted_median_events", sql=lambda: SQL_WEIGHTED_MEDIAN)
def q_weighted_median_events(sf_dir: str) -> pd.DataFrame:
    """Weighted median (lower weighted median — the smallest value whose
    cumulative weight reaches half the total) of event value per type,
    weighted by the JSON ``k`` volume field. Rows reduce to one
    (type, value, Σweight) row per distinct value first; the cumulative
    fold runs over that reduced table."""
    from forecastframe_ray.functions.scalar import extract_json_int

    ev = _read(sf_dir, "events", ["event_type", "value", "props"])
    ext = extract_json_int(ev, "props", "k")

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"],
                             "value": b["value"],
                             "__w": b["k"].astype("float64")})

    red = hash_aggregate(ext.map_batches(pre, batch_format="pandas"),
                         ["event_type", "value"], {"w": ("__w", "sum")},
                         num_partitions=_NP).to_pandas()
    rows = []
    for et, g in red.groupby("event_type", sort=True):
        g = g.sort_values("value")
        w = g["w"].to_numpy(np.float64)
        half = w.sum() / 2.0
        ix = int(np.searchsorted(np.cumsum(w), half))
        rows.append((et, int(w.sum()),
                     np.round(float(g["value"].iloc[ix]), 6)))
    out = pd.DataFrame(rows, columns=["event_type", "total_w",
                                      "w_median"])
    out["total_w"] = out["total_w"].astype("int64")
    return out.reset_index(drop=True)


SQL_WEIGHTED_MEDIAN = """
    WITH e AS (
        SELECT event_type, value,
               sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS w
        FROM events GROUP BY 1, 2
    ),
    c AS (
        SELECT event_type, value,
               sum(w) OVER (PARTITION BY event_type ORDER BY value) AS cw,
               sum(w) OVER (PARTITION BY event_type) AS tw
        FROM e
    )
    SELECT event_type, CAST(max(tw) AS BIGINT) AS total_w,
           round(min(CASE WHEN cw >= tw / 2.0 THEN value END), 6)
               AS w_median
    FROM c GROUP BY 1
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


@entry("covariance_embeddings", sql=lambda: SQL_COVARIANCE_EMBEDDINGS)
def q_covariance_embeddings(sf_dir: str) -> pd.DataFrame:
    """Sample covariance matrix of the embedding dimensions (the PCA /
    whitening input) via the one-pass distributed moment plan: each batch
    contributes (n, Σx, XᵀX) partials, one tiny driver fold finishes
    ``cov = (XᵀX − n·x̄x̄ᵀ)/(n−1)``. Emitted as the upper triangle in
    long form. PARITY NOTE: entries are 6dp-rounded; the oracle is
    DuckDB's covar_samp over the unnested dim pairs."""
    ds = _read(sf_dir, "embeddings", ["embedding"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        d = X.shape[1]
        xtx = X.T @ X
        iu = np.triu_indices(d)
        return pd.DataFrame({
            "da": iu[0].astype(np.int64), "db": iu[1].astype(np.int64),
            "xtx": xtx[iu],
            "sa": X.sum(axis=0)[iu[0]], "sb": X.sum(axis=0)[iu[1]],
            "n": np.full(len(iu[0]), len(b), dtype=np.int64)})

    agg = hash_aggregate(ds.map_batches(partial, batch_format="pandas"),
                         ["da", "db"],
                         {"xtx": ("xtx", "sum"), "sa": ("sa", "sum"),
                          "sb": ("sb", "sum"), "n": ("n", "sum")},
                         num_partitions=_NP).to_pandas()
    n = agg["n"].to_numpy(np.float64)
    cov = (agg["xtx"].to_numpy(np.float64)
           - agg["sa"].to_numpy(np.float64)
           * agg["sb"].to_numpy(np.float64) / n) / (n - 1.0)
    out = pd.DataFrame({
        "dim_a": agg["da"].astype("int64") + 1,   # 1-based like the oracle
        "dim_b": agg["db"].astype("int64") + 1,
        "cov": np.round(cov, 6) + 0.0})
    return out.sort_values(["dim_a", "dim_b"]).reset_index(drop=True)


SQL_COVARIANCE_EMBEDDINGS = """
    WITH e AS (
        SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
               CAST(unnest(embedding) AS DOUBLE) AS x
        FROM embeddings
    )
    SELECT a.dim AS dim_a, b.dim AS dim_b,
           round(covar_samp(a.x, b.x), 6) + 0.0 AS cov
    FROM e a JOIN e b ON a.vec_id = b.vec_id AND a.dim <= b.dim
    GROUP BY 1, 2
"""


@entry("debounce_events", sql=lambda: SQL_DEBOUNCE_EVENTS)
def q_debounce_events(sf_dir: str) -> pd.DataFrame:
    """Burst compaction (debounce): per (user, type) stream, events
    within 5 minutes of their predecessor chain into one burst
    (gaps-and-islands on the inter-event gap), and only each burst's
    FIRST event survives — the standard duplicate-click/retry suppressor.
    Summarized per user: events in, bursts kept, compaction ratio."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    GAP_US = 5 * 60 * 1_000_000

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for uid, g in part.groupby("user_id", sort=False):
            n_in = len(g)
            kept = 0
            for _, s in g.groupby("event_type", sort=False):
                t = np.sort(s["ts"].astype("datetime64[us]")
                            .astype("int64").to_numpy())
                kept += int(1 + (np.diff(t) > GAP_US).sum())
            rows.append((uid, n_in, kept,
                         np.round(kept / n_in, 6)))
        return pd.DataFrame(rows, columns=["user_id", "n_events",
                                           "n_kept", "keep_ratio"])

    out = keyed_map_partitions(ev, ["user_id"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"user_id": "int64", "n_events": "int64",
                      "n_kept": "int64"})
    return out.sort_values("user_id").reset_index(drop=True)


SQL_DEBOUNCE_EVENTS = """
    WITH l AS (
        SELECT user_id, event_type, ts,
               LAG(ts) OVER (PARTITION BY user_id, event_type
                             ORDER BY ts) AS pt
        FROM events
    ),
    k AS (
        SELECT user_id,
               CASE WHEN pt IS NULL
                         OR epoch_us(ts) - epoch_us(pt) > 300000000
                    THEN 1 ELSE 0 END AS is_first
        FROM l
    )
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
           CAST(sum(is_first) AS BIGINT) AS n_kept,
           round(sum(is_first) * 1.0 / count(*), 6) AS keep_ratio
    FROM k GROUP BY 1
"""


@entry("point_in_time_user_state", sql=lambda: SQL_POINT_IN_TIME_STATE)
def q_point_in_time_user_state(sf_dir: str) -> pd.DataFrame:
    """Point-in-time dimension lookup (the SCD2 entry's 'AS OF T' query):
    at the stream's integer-epoch-us midpoint, each user's then-active
    event_type — the latest event at or before T ((user_id, ts) unique ⇒
    deterministic). Users with no activity by T are absent. One keyed
    arg-max reduce."""
    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    span = pq.read_table(f"{sf_dir}/events.parquet", columns=["ts"])
    ss = span["ts"].to_pandas().astype("datetime64[us]").astype("int64")
    cut = pd.Timestamp((int(ss.min()) + int(ss.max())) // 2, unit="us")

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["ts"] <= cut]

    from forecastframe_ray.stages.agg import keyed_map_partitions

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        idx = part.groupby("user_id", sort=False)["ts"].idxmax()
        sub = part.loc[idx]
        return pd.DataFrame({"user_id": sub["user_id"],
                             "state_type": sub["event_type"],
                             "state_ts": sub["ts"]})

    out = keyed_map_partitions(
        ev.map_batches(pre, batch_format="pandas"),
        ["user_id"], kernel, num_partitions=_NP).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


SQL_POINT_IN_TIME_STATE = """
    WITH cut AS (
        SELECT make_timestamp((epoch_us(min(ts)) + epoch_us(max(ts))) // 2)
            AS c FROM events
    )
    SELECT user_id,
           arg_max(event_type, ts) AS state_type,
           max(ts) AS state_ts
    FROM events CROSS JOIN cut
    WHERE ts <= cut.c
    GROUP BY 1
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


@entry("grubbs_daily_events", sql=lambda: SQL_GRUBBS_DAILY)
def q_grubbs_daily_events(sf_dir: str) -> pd.DataFrame:
    """Grubbs single-outlier statistic (Grubbs 1950 — public) per daily
    series: ``G = max|v − mean| / sd`` (ddof=1), with the offending day.
    One keyed kernel; constant series (sd = 0) emit NULLF. Ties on
    |v − mean| break to the earliest day on both engines."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            sd = float(v.std(ddof=1)) if len(v) > 1 else 0.0
            dev = np.round(np.abs(v - v.mean()), 6)
            ix = int(np.argmax(dev))  # first max = earliest day
            gstat = np.round(dev[ix] / sd, 6) if sd > 0 else NULLF
            rows.append((et, len(v), g["d"].iloc[ix], gstat))
        return pd.DataFrame(rows, columns=["event_type", "n",
                                           "outlier_d", "g_stat"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_GRUBBS_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    s AS (
        SELECT event_type, count(*) AS n, avg(v) AS m,
               stddev_samp(v) AS sd
        FROM daily GROUP BY 1
    ),
    d AS (
        SELECT daily.event_type, daily.d,
               round(abs(daily.v - s.m), 6) AS dev, s.n, s.sd
        FROM daily JOIN s USING (event_type)
    ),
    r AS (
        SELECT event_type, d, dev, n, sd,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY dev DESC, d) AS rn
        FROM d
    )
    SELECT event_type, CAST(n AS BIGINT) AS n, d AS outlier_d,
           CASE WHEN sd > 0 THEN round(dev / sd, 6)
                ELSE {NULLF} END AS g_stat
    FROM r WHERE rn = 1
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
