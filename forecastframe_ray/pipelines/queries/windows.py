"""Oracled query catalog — part ``windows`` (contiguous split of the former queries.py monolith; order preserved)."""

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
    NULLF,
    _DAILY_SQL,
    _NP,
    _bucket_series,
    _daily_frame,
    _fill,
    _read,
    _round,
)
from forecastframe_ray.pipelines.queries.text import (  # noqa: F401
    SQL_LANG_CONFUSION,
    q_lang_confusion_documents,
)
from forecastframe_ray.pipelines.queries.corpus import (  # noqa: F401
    _char_shingles,
    q_blocking_dedup_documents,
)



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


def q_kmv_set_ops_gate(sf_dir: str) -> pd.DataFrame:
    """KMV set operations (Beyer et al. 2007 — public): distinct 'click'
    and 'view' user sets as KMV sketches; union by sketch merge,
    intersection by inclusion–exclusion. In the k=4096 EXACT regime every
    number is value-oracled against COUNT(DISTINCT); a k=64 estimated
    union must land within 30% (≈2.4σ) — the gate bit."""
    from forecastframe_ray.stages.sketch import (distinct_sketch,
                                                 kmv_estimate, kmv_merge,
                                                 kmv_from_bytes)

    ev = _read(sf_dir, "events", ["event_type", "user_id"])

    def only(types):
        return ev.map_batches(
            lambda b, t=types: b[b["event_type"].isin(t)],
            batch_format="pandas")

    def sk(types, k):
        df = distinct_sketch(only(types), ["event_type"], "user_id",
                             k=k, num_partitions=4).to_pandas()
        mats = [kmv_from_bytes(x) for x in df["kmv"]]
        return kmv_merge(mats, k) if mats else np.array([], dtype=np.uint64)

    a = sk(["click"], 4096)
    b = sk(["view"], 4096)
    assert len(a) < 4096 and len(b) < 4096  # exact regime
    union = kmv_merge([a, b], 4096)
    n_a, n_b = len(a), len(b)
    n_union = len(union)
    n_inter = n_a + n_b - n_union
    est_union = kmv_estimate(kmv_merge([sk(["click"], 64),
                                        sk(["view"], 64)], 64), 64)
    ok = abs(est_union - n_union) / n_union <= 0.30
    return pd.DataFrame({
        "n_click_users": np.array([n_a], dtype=np.int64),
        "n_view_users": np.array([n_b], dtype=np.int64),
        "n_union": np.array([n_union], dtype=np.int64),
        "n_intersect": np.array([n_inter], dtype=np.int64),
        "est_ok": [bool(ok)]})


SQL_KMV_SET_OPS_GATE = """
    SELECT CAST(count(DISTINCT CASE WHEN event_type = 'click'
                                    THEN user_id END) AS BIGINT)
               AS n_click_users,
           CAST(count(DISTINCT CASE WHEN event_type = 'view'
                                    THEN user_id END) AS BIGINT)
               AS n_view_users,
           CAST(count(DISTINCT CASE WHEN event_type IN ('click', 'view')
                                    THEN user_id END) AS BIGINT)
               AS n_union,
           CAST(count(DISTINCT CASE WHEN event_type = 'click'
                                    THEN user_id END)
                + count(DISTINCT CASE WHEN event_type = 'view'
                                      THEN user_id END)
                - count(DISTINCT CASE WHEN event_type IN ('click', 'view')
                                      THEN user_id END) AS BIGINT)
               AS n_intersect,
           true AS est_ok
    FROM events
"""


# ---------------------------------------------------------------------------
# forecast combination / L-moments / expected shortfall (batch 22)
# ---------------------------------------------------------------------------

def q_combo_forecast_daily(sf_dir: str) -> pd.DataFrame:
    """Forecast combination (Bates & Granger 1969 — public; the 'simple
    average beats the components' classic): the equal-weight mean of the
    three exactly-SQL-reproducible baselines — naive (SES α=1),
    seasonal-naive (ROW lag 7) and drift — per series over the 7-day
    future grid. Every component drives its registered estimator
    end-to-end; the oracle recomputes all three closed forms."""
    fr = _daily_frame(sf_dir)
    parts = []
    for est, kw in (("ses", {"alpha": 1.0}),
                    ("seasonal_naive", {"period": 7}),
                    ("drift", {})):
        p = fr.predict(periods=7, freq="D", estimator=est, **kw) \
            .to_pandas()[["event_type", "d", "predicted_v"]] \
            .rename(columns={"predicted_v": est})
        parts.append(p.set_index(["event_type", "d"]))
    out = pd.concat(parts, axis=1).reset_index()
    out["combo_v"] = np.round(
        (out["ses"] + out["seasonal_naive"] + out["drift"]) / 3.0, 6)
    out = out[["event_type", "d", "combo_v"]]
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_COMBO_FORECAST = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d, v,
               row_number() OVER (PARTITION BY event_type ORDER BY d) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    s AS (
        SELECT event_type, max(n) AS n, max(d) AS d_last,
               arg_max(v, rn) AS y_last,
               arg_min(v, rn) AS y_first
        FROM r GROUP BY 1
    ),
    f AS (
        SELECT s.*, fd.d, datediff('day', s.d_last, fd.d) AS h
        FROM s CROSS JOIN (
            SELECT unnest(generate_series(maxd + INTERVAL 1 DAY,
                                          maxd + INTERVAL 7 DAY,
                                          INTERVAL 1 DAY)) AS d
            FROM (SELECT max(d) AS maxd FROM daily)
        ) fd
    ),
    sn AS (  -- seasonal-naive: value at row n - 7 + ((h-1) mod 7) + 1
        SELECT f.event_type, f.d,
               r.v AS snv
        FROM f JOIN r ON r.event_type = f.event_type
                     AND r.rn = f.n - 7 + ((f.h - 1) % 7) + 1
    )
    SELECT f.event_type, f.d,
           round((f.y_last
                  + sn.snv
                  + (f.y_last + f.h * (f.y_last - f.y_first)
                               / (f.n - 1))) / 3.0, 6) AS combo_v
    FROM f JOIN sn ON sn.event_type = f.event_type AND sn.d = f.d
"""


def q_lmoments_events(sf_dir: str) -> pd.DataFrame:
    """First three L-moments per event type (Hosking 1990 — public; the
    robust distribution-shape family): λ₁ = mean, λ₂ (L-scale) and
    τ₃ = λ₃/λ₂ (L-skewness) from the probability-weighted moments
    ``b_r = Σ C(i−1, r) x_(i) / (n·C(n−1, r))``. One keyed kernel per
    type (sorted vector + rank weights); the oracle mirrors the rank
    arithmetic with row_number."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            x = np.sort(g["value"].to_numpy(np.float64))
            n = len(x)
            i = np.arange(1, n + 1, dtype=np.float64)
            b0 = x.mean()
            b1 = ((i - 1) * x).sum() / (n * (n - 1.0))
            b2 = ((i - 1) * (i - 2) * x).sum() \
                / (n * (n - 1.0) * (n - 2.0))
            l1 = b0
            l2 = 2 * b1 - b0
            l3 = 6 * b2 - 6 * b1 + b0
            rows.append((et, n, np.round(l1, 6), np.round(l2, 6),
                         np.round(l3 / l2, 6) if l2 != 0 else NULLF))
        return pd.DataFrame(rows, columns=["event_type", "n", "l1", "l2",
                                           "tau3"])

    out = keyed_map_partitions(ev, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_LMOMENTS = f"""
    WITH r AS (
        SELECT event_type, value,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY value, event_type) AS i,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM events
    ),
    b AS (
        SELECT event_type, max(n) AS n,
               avg(value) AS b0,
               sum((i - 1) * value) / (max(n) * (max(n) - 1.0)) AS b1,
               sum((i - 1) * (i - 2) * value)
                   / (max(n) * (max(n) - 1.0) * (max(n) - 2.0)) AS b2
        FROM r GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n,
           round(b0, 6) AS l1,
           round(2 * b1 - b0, 6) AS l2,
           CASE WHEN 2 * b1 - b0 <> 0
                THEN round((6 * b2 - 6 * b1 + b0) / (2 * b1 - b0), 6)
                ELSE {NULLF} END AS tau3
    FROM b
"""


def q_expected_shortfall_events(sf_dir: str) -> pd.DataFrame:
    """Expected shortfall / CVaR (public risk convention): per event
    type, the mean of values STRICTLY ABOVE the 6dp-rounded p95
    (``quantile_cont``) — the tail-severity number next to the p99 the
    percentile entry pins. Empty tails emit NULLF."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["value"].to_numpy(np.float64)
            thr = np.round(np.percentile(v, 95), 6)
            tail = v[v > thr]
            es = np.round(float(tail.mean()), 6) if len(tail) else NULLF
            rows.append((et, len(v), thr, len(tail), es))
        return pd.DataFrame(rows, columns=["event_type", "n", "p95",
                                           "n_tail", "es95"])

    out = keyed_map_partitions(ev, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n": "int64", "n_tail": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_EXPECTED_SHORTFALL = f"""
    WITH q AS (
        SELECT event_type, count(*) AS n,
               round(quantile_cont(value, 0.95), 6) AS p95
        FROM events GROUP BY 1
    )
    SELECT q.event_type, CAST(q.n AS BIGINT) AS n, q.p95,
           CAST(count(e.value) AS BIGINT) AS n_tail,
           COALESCE(round(avg(e.value), 6), {NULLF}) AS es95
    FROM q LEFT JOIN events e
        ON e.event_type = q.event_type AND e.value > q.p95
    GROUP BY 1, 2, 3
"""


# ---------------------------------------------------------------------------
# Winkler interval score / Theil U / PSI drift (batch 23)
# ---------------------------------------------------------------------------

def q_winkler_interval_daily(sf_dir: str) -> pd.DataFrame:
    """Winkler interval score (Winkler 1972 — public; the standard
    interval-forecast evaluation): per series, the naive interval
    ``lag1 ± 1.96·σ`` (σ = ddof=1 std of ALL lag-1 residuals — the
    in-sample evaluation convention, documented) scored at α=0.05:
    ``W = (u−l) + (2/α)·(l−y)⁺ + (2/α)·(y−u)⁺``, plus empirical
    coverage. Completes the metrics family with an INTERVAL metric next
    to the point metrics. Interval bounds are 6dp-rounded on both
    engines before scoring."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    Z, A = 1.96, 0.05

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            res = np.diff(v)
            if len(res) < 2:
                continue
            sd = float(res.std(ddof=1))
            lo = np.round(v[:-1] - Z * sd, 6)
            hi = np.round(v[:-1] + Z * sd, 6)
            y = v[1:]
            w = (hi - lo) \
                + (2.0 / A) * np.maximum(lo - y, 0.0) \
                + (2.0 / A) * np.maximum(y - hi, 0.0)
            rows.append((et, len(y),
                         np.round(float(w.mean()), 6),
                         np.round(float(((y >= lo) & (y <= hi)).mean()),
                                  6)))
        return pd.DataFrame(rows, columns=["event_type", "n",
                                           "mean_winkler", "coverage"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_WINKLER_INTERVAL = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               LAG(v) OVER (PARTITION BY event_type ORDER BY d) AS p
        FROM daily
    ),
    s AS (
        SELECT event_type, stddev_samp(v - p) AS sd
        FROM l WHERE p IS NOT NULL GROUP BY 1
    ),
    b AS (
        SELECT l.event_type, l.v AS y,
               round(l.p - 1.96 * s.sd, 6) AS lo,
               round(l.p + 1.96 * s.sd, 6) AS hi
        FROM l JOIN s USING (event_type) WHERE l.p IS NOT NULL
    )
    SELECT event_type, CAST(count(*) AS BIGINT) AS n,
           round(avg((hi - lo)
                     + 40.0 * greatest(lo - y, 0)
                     + 40.0 * greatest(y - hi, 0)), 6) AS mean_winkler,
           round(avg(CASE WHEN y >= lo AND y <= hi
                          THEN 1.0 ELSE 0.0 END), 6) AS coverage
    FROM b GROUP BY 1
"""


def q_theil_u_daily(sf_dir: str) -> pd.DataFrame:
    """Theil's U (M-competition convention — public): the seasonal-naive
    (ROW lag 7) RMSE over the naive (lag 1) RMSE per series, on the rows
    where BOTH forecasts exist — < 1 means the weekly pattern beats
    persistence."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            if len(v) < 8:
                continue
            y = v[7:]
            e_sn = y - v[:-7]
            e_n = y - v[6:-1]
            rmse_sn = float(np.sqrt((e_sn ** 2).mean()))
            rmse_n = float(np.sqrt((e_n ** 2).mean()))
            u = np.round(rmse_sn / rmse_n, 6) if rmse_n > 0 else NULLF
            rows.append((et, len(y), np.round(rmse_sn, 6),
                         np.round(rmse_n, 6), u))
        return pd.DataFrame(rows, columns=["event_type", "n", "rmse_sn7",
                                           "rmse_naive", "theil_u"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_THEIL_U = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, v,
               LAG(v, 1) OVER w AS p1, LAG(v, 7) OVER w AS p7
        FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
    ),
    e AS (SELECT * FROM l WHERE p7 IS NOT NULL)
    SELECT event_type, CAST(count(*) AS BIGINT) AS n,
           round(sqrt(avg((v - p7) * (v - p7))), 6) AS rmse_sn7,
           round(sqrt(avg((v - p1) * (v - p1))), 6) AS rmse_naive,
           CASE WHEN sqrt(avg((v - p1) * (v - p1))) > 0
                THEN round(sqrt(avg((v - p7) * (v - p7)))
                           / sqrt(avg((v - p1) * (v - p1))), 6)
                ELSE {NULLF} END AS theil_u
    FROM e GROUP BY 1
"""


def q_psi_orders_priority(sf_dir: str) -> pd.DataFrame:
    """Population Stability Index (public credit-scoring / ML-monitoring
    convention): the o_orderpriority mix of the FIRST order-date half vs
    the second — ``PSI = Σ (p−q)·ln(p/q)`` over the category bins
    (integer-epoch-us midpoint split; both halves' bins union, zero bins
    guarded with the 1e−6 floor convention). One narrow two-key reduce;
    the PSI fold runs over the tiny bin table."""
    orders = _read(sf_dir, "orders", ["o_orderdate", "o_orderpriority"])
    span = pq.read_table(f"{sf_dir}/orders.parquet",
                         columns=["o_orderdate"])
    ss = span["o_orderdate"].to_pandas().astype("datetime64[us]") \
        .astype("int64")
    cut = pd.Timestamp((int(ss.min()) + int(ss.max())) // 2, unit="us")

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "prio": b["o_orderpriority"],
            "__a": (b["o_orderdate"] < cut).astype(np.int64),
            "__b": (b["o_orderdate"] >= cut).astype(np.int64)})

    red = hash_aggregate(orders.map_batches(pre, batch_format="pandas"),
                         ["prio"], {"n_a": ("__a", "sum"),
                                    "n_b": ("__b", "sum")},
                         num_partitions=4).to_pandas()
    na = float(red["n_a"].sum())
    nb = float(red["n_b"].sum())
    p = np.maximum(red["n_a"].to_numpy(np.float64) / na, 1e-6)
    q = np.maximum(red["n_b"].to_numpy(np.float64) / nb, 1e-6)
    psi = float(((p - q) * np.log(p / q)).sum())
    return pd.DataFrame({
        "n_first_half": np.array([int(na)], dtype=np.int64),
        "n_second_half": np.array([int(nb)], dtype=np.int64),
        "psi": [np.round(psi, 6)]})


SQL_PSI_ORDERS = """
    WITH cut AS (
        SELECT make_timestamp((epoch_us(min(o_orderdate))
                               + epoch_us(max(o_orderdate))) // 2) AS c
        FROM orders
    ),
    r AS (
        SELECT o_orderpriority AS prio,
               sum(CASE WHEN o_orderdate < c THEN 1 ELSE 0 END) AS n_a,
               sum(CASE WHEN o_orderdate >= c THEN 1 ELSE 0 END) AS n_b
        FROM orders CROSS JOIN cut GROUP BY 1
    ),
    t AS (SELECT sum(n_a) AS na, sum(n_b) AS nb FROM r)
    SELECT CAST(t.na AS BIGINT) AS n_first_half,
           CAST(t.nb AS BIGINT) AS n_second_half,
           round(sum((greatest(n_a / t.na, 1e-6)
                      - greatest(n_b / t.nb, 1e-6))
                     * ln(greatest(n_a / t.na, 1e-6)
                          / greatest(n_b / t.nb, 1e-6))), 6) AS psi
    FROM r CROSS JOIN t GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Jensen-Shannon source divergence / Cohen's kappa (batch 24)
# ---------------------------------------------------------------------------

def q_js_divergence_sources(sf_dir: str) -> pd.DataFrame:
    """Jensen–Shannon divergence (nats) between each source's whitespace
    token distribution and the corpus distribution — the corpus-mix
    monitoring number. Present-token terms fold distributedly from the
    per-(source, token) reduce joined with the per-token corpus totals;
    the absent-token mass closes in CLOSED FORM
    (``0.5·ln2·(1 − Σ_present q)``), so no per-source full-vocabulary
    pass is ever needed."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def toks(b: pd.DataFrame) -> pd.DataFrame:
        outs_s, outs_t = [], []
        for s, t in zip(b["source"], b["text"].fillna("")):
            tt = t.split()
            outs_s.extend([s] * len(tt))
            outs_t.extend(tt)
        return pd.DataFrame({"source": outs_s, "tok": outs_t,
                             "__one": np.ones(len(outs_t),
                                              dtype=np.int64)})

    st = hash_aggregate(docs.map_batches(toks, batch_format="pandas"),
                        ["source", "tok"], {"n": ("__one", "sum")},
                        num_partitions=_NP).to_pandas()
    tot_by_tok = st.groupby("tok")["n"].sum()
    n_all = float(st["n"].sum())
    rows = []
    for src, g in st.groupby("source", sort=True):
        n_src = float(g["n"].sum())
        p = g["n"].to_numpy(np.float64) / n_src
        q = tot_by_tok.loc[g["tok"]].to_numpy(np.float64) / n_all
        m = (p + q) / 2.0
        present = 0.5 * float((p * np.log(p / m)
                               + q * np.log(q / m)).sum())
        absent = 0.5 * np.log(2.0) * (1.0 - float(q.sum()))
        rows.append((src, int(n_src), np.round(present + absent, 6)))
    out = pd.DataFrame(rows, columns=["source", "n_tokens", "js_div"])
    out["n_tokens"] = out["n_tokens"].astype("int64")
    return out.reset_index(drop=True)


SQL_JS_DIVERGENCE_SOURCES = r"""
    WITH g AS (
        SELECT source, unnest(regexp_extract_all(text, '\S+')) AS tok
        FROM documents
    ),
    st AS (SELECT source, tok, count(*) AS n FROM g GROUP BY 1, 2),
    tt AS (SELECT tok, sum(n) AS nt FROM st GROUP BY 1),
    tots AS (SELECT sum(n) AS n_all FROM st),
    src AS (SELECT source, sum(n) AS n_src FROM st GROUP BY 1),
    terms AS (
        SELECT st.source,
               st.n / src.n_src AS p,
               tt.nt / tots.n_all AS q
        FROM st JOIN tt USING (tok) JOIN src USING (source)
                CROSS JOIN tots
    )
    SELECT source, CAST(max(src.n_src) AS BIGINT) AS n_tokens,
           round(0.5 * sum(p * ln(p / ((p + q) / 2))
                           + q * ln(q / ((p + q) / 2)))
                 + 0.5 * ln(2) * (1 - sum(q)), 6) AS js_div
    FROM terms JOIN src USING (source)
    GROUP BY 1
"""


def q_cohen_kappa_lang(sf_dir: str) -> pd.DataFrame:
    """Cohen's kappa (Cohen 1960 — public) of the n-gram lang-ID
    heuristic against the corpus label — chance-corrected agreement,
    folded from the same confusion counts the lang-confusion entry pins:
    ``κ = (p_o − p_e)/(1 − p_e)`` with p_e = Σ row-share · col-share."""
    conf = q_lang_confusion_documents(sf_dir)
    n = float(conf["n"].sum())
    po = float(conf.loc[conf["lang_true"] == conf["lang_pred"], "n"].sum()) / n
    row = conf.groupby("lang_true")["n"].sum() / n
    col = conf.groupby("lang_pred")["n"].sum() / n
    langs = sorted(set(row.index) | set(col.index))
    pe = float(sum(row.get(l, 0.0) * col.get(l, 0.0) for l in langs))
    kappa = (po - pe) / (1.0 - pe) if pe < 1.0 else NULLF
    return pd.DataFrame({
        "n_docs": np.array([int(n)], dtype=np.int64),
        "p_observed": [np.round(po, 6)],
        "p_expected": [np.round(pe, 6)],
        "kappa": [np.round(kappa, 6)]})


SQL_COHEN_KAPPA_LANG = f"""
    WITH conf AS ({{conf}}),
    t AS (SELECT sum(n) AS nn FROM conf),
    po AS (
        SELECT sum(CASE WHEN lang_true = lang_pred THEN n ELSE 0 END)
                   / t.nn AS po
        FROM conf CROSS JOIN t GROUP BY t.nn
    ),
    r AS (SELECT lang_true AS l, sum(n) AS nr FROM conf GROUP BY 1),
    c AS (SELECT lang_pred AS l, sum(n) AS nc FROM conf GROUP BY 1),
    pe AS (
        SELECT sum(r.nr * c.nc) / (t.nn * t.nn) AS pe
        FROM r JOIN c USING (l) CROSS JOIN t GROUP BY t.nn
    )
    SELECT CAST(t.nn AS BIGINT) AS n_docs,
           round(po.po, 6) AS p_observed,
           round(pe.pe, 6) AS p_expected,
           CASE WHEN pe.pe < 1.0
                THEN round((po.po - pe.pe) / (1.0 - pe.pe), 6)
                ELSE {NULLF} END AS kappa
    FROM po CROSS JOIN pe CROSS JOIN t
"""

# substitute the confusion CTE (replace, not .format — the confusion SQL
# may itself contain braces)
SQL_COHEN_KAPPA_LANG = SQL_COHEN_KAPPA_LANG.replace(
    "{conf}", SQL_LANG_CONFUSION)


# ---------------------------------------------------------------------------
# blocking recall gate (batch 25)
# ---------------------------------------------------------------------------

def q_blocking_recall_documents(sf_dir: str) -> pd.DataFrame:
    """Recall gate for the classical BLOCKING dedup (minhash_recall
    pattern): its pair output must contain ≥90% of ALL true pairs with
    normalized char-5-gram Jaccard ≥ 0.7 — the exact truth is recomputed
    on both sides (here brute-force with the size-ratio prune, in SQL by
    the exploded normalized-shingle oracle). Prefix blocking's recall is
    CORPUS-DEPENDENT (pairs differing in their first 12 normalized chars
    are invisible to it — the structural contrast with LSH banding);
    this gate documents where the classical baseline stands on this
    corpus."""
    import re

    docs_df = pq.read_table(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)

    def norm(t: str) -> str:
        t = re.sub(r"[^a-z0-9 ]", "", t.lower())
        return re.sub(r" +", " ", t).strip()

    nt = [norm(t) for t in docs_df["text"].fillna("")]
    sets = [_char_shingles(t) for t in nt]
    ids = docs_df["doc_id"].to_numpy()
    true_pairs = set()
    for i in range(len(sets)):
        si, zi = sets[i], len(sets[i])
        for j in range(i + 1, len(sets)):
            zj = len(sets[j])
            if min(zi, zj) < 0.7 * max(zi, zj):
                continue
            inter = len(si & sets[j])
            jac = inter / (zi + zj - inter)
            if jac >= 0.7:
                true_pairs.add((ids[i], ids[j]))
    blk = q_blocking_dedup_documents(sf_dir)
    found = set(zip(blk["id_a"], blk["id_b"]))
    hit = sum(p in found for p in true_pairs)
    recall = hit / max(len(true_pairs), 1)
    return pd.DataFrame({
        "n_true": pd.Series([len(true_pairs)], dtype="int64"),
        "recall_ok": pd.Series([recall >= 0.9], dtype="bool")})


SQL_BLOCKING_RECALL = """
    WITH nrm AS (
        SELECT doc_id,
               trim(regexp_replace(regexp_replace(lower(text),
                                                  '[^a-z0-9 ]', '', 'g'),
                                   ' +', ' ', 'g')) AS nt
        FROM documents
    ),
    sh AS (
        SELECT doc_id,
               list_distinct(list_transform(
                   generate_series(1, greatest(strlen(nt) - 4, 1)),
                   i -> substr(nt, i, 5))) AS s
        FROM nrm
    ),
    cand AS (
        SELECT a.s AS sa, b.s AS sb
        FROM sh a JOIN sh b ON a.doc_id < b.doc_id
        WHERE least(length(a.s), length(b.s))
              >= 0.7 * greatest(length(a.s), length(b.s))
    ),
    j AS (
        SELECT CAST(length(list_intersect(sa, sb)) AS DOUBLE)
               / (length(sa) + length(sb) - length(list_intersect(sa, sb)))
               AS jac
        FROM cand
    )
    SELECT CAST(count(*) AS BIGINT) AS n_true, true AS recall_ok
    FROM j WHERE jac >= 0.7
"""


# ---------------------------------------------------------------------------
# changepoint via SSE argmin / local maxima (batch 26)
# ---------------------------------------------------------------------------

def q_changepoint_sse_daily(sf_dir: str) -> pd.DataFrame:
    """Single-changepoint detection by binary segmentation (the first
    step of PELT/binseg — public): per series the split minimizing the
    two-segment SSE (prefix-sum closed form: ``SSE_seg = Σx² −
    (Σx)²/n``), reported with the variance-reduction share
    ``1 − SSE_split/SSE_total``. Ties break to the EARLIEST split day.
    One keyed vectorized kernel; the oracle mirrors the prefix cumsums
    with windows."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").reset_index(drop=True)
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            if n < 3:
                continue
            cs = np.cumsum(v)
            cs2 = np.cumsum(v * v)
            k = np.arange(1, n)  # left size
            sse_l = cs2[:-1] - cs[:-1] ** 2 / k
            sse_r = (cs2[-1] - cs2[:-1]) \
                - (cs[-1] - cs[:-1]) ** 2 / (n - k)
            sse = np.round(sse_l + sse_r, 6)
            total = np.round(cs2[-1] - cs[-1] ** 2 / n, 6)
            ix = int(np.argmin(sse))  # first min = earliest split
            red = np.round(1.0 - sse[ix] / total, 6) if total > 0 \
                else NULLF
            rows.append((et, n, g["d"].iloc[ix], red))
        return pd.DataFrame(rows, columns=["event_type", "n",
                                           "split_after_d",
                                           "var_reduction"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_CHANGEPOINT_SSE = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d, v,
               row_number() OVER w AS k,
               count(*) OVER (PARTITION BY event_type) AS n,
               sum(v) OVER (PARTITION BY event_type ORDER BY d
                            ROWS UNBOUNDED PRECEDING) AS cs,
               sum(v * v) OVER (PARTITION BY event_type ORDER BY d
                                ROWS UNBOUNDED PRECEDING) AS cs2,
               sum(v) OVER (PARTITION BY event_type) AS ts,
               sum(v * v) OVER (PARTITION BY event_type) AS ts2
        FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
    ),
    s AS (
        SELECT event_type, d, n, ts, ts2,
               round((cs2 - cs * cs / k)
                     + ((ts2 - cs2) - (ts - cs) * (ts - cs) / (n - k)),
                     6) AS sse
        FROM r WHERE k < n AND n >= 3
    ),
    b AS (
        SELECT event_type, d, n, ts, ts2, sse,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY sse, d) AS rn
        FROM s
    )
    SELECT event_type, CAST(n AS BIGINT) AS n, d AS split_after_d,
           CASE WHEN round(ts2 - ts * ts / n, 6) > 0
                THEN round(1.0 - sse / round(ts2 - ts * ts / n, 6), 6)
                ELSE {NULLF} END AS var_reduction
    FROM b WHERE rn = 1
"""


def q_local_maxima_daily(sf_dir: str) -> pd.DataFrame:
    """Local-maxima (peak) profile per daily series: days strictly above
    BOTH neighbors (interior rows only) — peak count, the tallest peak's
    value and its day (value-desc, day-asc tie-break)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").reset_index(drop=True)
            v = g["v"].to_numpy(np.float64)
            if len(v) < 3:
                continue
            peak = (v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])
            ixs = np.flatnonzero(peak) + 1
            if len(ixs) == 0:
                rows.append((et, 0, NULLF,
                             pd.Timestamp("9999-12-31")))
                continue
            order = ixs[np.lexsort((ixs, -v[ixs]))]
            top = int(order[0])
            rows.append((et, len(ixs), np.round(v[top], 6),
                         g["d"].iloc[top]))
        return pd.DataFrame(rows, columns=["event_type", "n_peaks",
                                           "top_peak_v", "top_peak_d"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_peaks"] = out["n_peaks"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_LOCAL_MAXIMA = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               LAG(v) OVER w AS pv, LEAD(v) OVER w AS nv
        FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
    ),
    p AS (
        SELECT event_type, d, v FROM l
        WHERE pv IS NOT NULL AND nv IS NOT NULL
          AND v > pv AND v > nv
    ),
    b AS (
        SELECT event_type, d, v,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY v DESC, d) AS rn,
               count(*) OVER (PARTITION BY event_type) AS np
        FROM p
    ),
    base AS (SELECT DISTINCT event_type FROM daily
             WHERE (SELECT count(*) FROM daily d2
                    WHERE d2.event_type = daily.event_type) >= 3)
    SELECT base.event_type,
           CAST(COALESCE(b.np, 0) AS BIGINT) AS n_peaks,
           COALESCE(round(b.v, 6), {NULLF}) AS top_peak_v,
           COALESCE(b.d, TIMESTAMP '9999-12-31') AS top_peak_d
    FROM base LEFT JOIN b ON b.event_type = base.event_type AND b.rn = 1
"""


# ---------------------------------------------------------------------------
# damped Holt gate / activation latency (batch 27)
# ---------------------------------------------------------------------------

def q_holt_damped_gate_daily(sf_dir: str) -> pd.DataFrame:
    """Damped-trend Holt forecast, oracle-GATED through the α=1/β=1
    degenerate fit (l_T = y_T, b_T = y_T − y_{T−1}, exactly as the plain
    Holt gate pins) with the φ=0.9 damped horizon sum
    ``φ(1−φʰ)/(1−φ)`` — all SQL-expressible. Drives the 13th registered
    estimator; general (α, β) is already pinned by the Holt recursion
    test, and φ=1 recovers plain Holt by construction."""
    fr = _daily_frame(sf_dir)
    preds = fr.predict(periods=7, freq="D", estimator="holt_damped",
                       alpha=1.0, beta=1.0, phi=0.9)
    df = preds.to_pandas()[["event_type", "d", "predicted_v"]]
    df = _round(df, ["predicted_v"], 6)
    return df.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_HOLT_DAMPED_GATE = f"""
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
    f AS (
        SELECT s.*, fd.d, datediff('day', s.d_last, fd.d) AS h
        FROM s CROSS JOIN (
            SELECT unnest(generate_series(maxd + INTERVAL 1 DAY,
                                          maxd + INTERVAL 7 DAY,
                                          INTERVAL 1 DAY)) AS d
            FROM (SELECT max(d) AS maxd FROM daily)
        ) fd
    )
    SELECT event_type, d,
           round(y_last
                 + 0.9 * (1 - pow(0.9, h)) / 0.1
                   * (y_last - COALESCE(y_prev, y_last)), 6)
               AS predicted_v
    FROM f
"""


def q_activation_latency_users(sf_dir: str) -> pd.DataFrame:
    """Activation latency (the PLG growth metric): for users reaching
    ≥5 events, the seconds from their 1st to their 5th event —
    summarized as activated-user count plus median/p90 latency
    (``quantile_cont`` twins). One keyed kernel picks each user's 5th
    stamp ((user_id, ts) unique ⇒ total order)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for uid, g in part.groupby("user_id", sort=False):
            t = np.sort(g["ts"].astype("datetime64[us]").astype("int64")
                        .to_numpy())
            if len(t) < 5:
                continue
            rows.append((uid, (t[4] - t[0]) / 1e6))
        return pd.DataFrame(rows, columns=["user_id", "lat_s"])

    lat = keyed_map_partitions(ev, ["user_id"], kernel,
                               num_partitions=_NP).to_pandas()
    if len(lat) == 0:
        return pd.DataFrame({
            "n_activated": np.array([0], dtype=np.int64),
            "median_s": [NULLF], "p90_s": [NULLF]})
    v = lat["lat_s"].to_numpy(np.float64)
    return pd.DataFrame({
        "n_activated": np.array([len(v)], dtype=np.int64),
        "median_s": [np.round(np.percentile(v, 50), 6)],
        "p90_s": [np.round(np.percentile(v, 90), 6)]})


SQL_ACTIVATION_LATENCY = f"""
    WITH r AS (
        SELECT user_id, ts,
               row_number() OVER (PARTITION BY user_id ORDER BY ts) AS rn
        FROM events
    ),
    l AS (
        SELECT user_id,
               (epoch_us(max(CASE WHEN rn = 5 THEN ts END))
                - epoch_us(max(CASE WHEN rn = 1 THEN ts END))) / 1e6
                   AS lat_s
        FROM r WHERE rn IN (1, 5) GROUP BY 1
        HAVING max(CASE WHEN rn = 5 THEN ts END) IS NOT NULL
    )
    SELECT CAST(count(*) AS BIGINT) AS n_activated,
           COALESCE(round(quantile_cont(lat_s, 0.5), 6), {NULLF})
               AS median_s,
           COALESCE(round(quantile_cont(lat_s, 0.9), 6), {NULLF}) AS p90_s
    FROM l
"""


# ---------------------------------------------------------------------------
# TPC-H Q6 / Q4 / Q12 shapes (public TPC-H spec, adapted to available columns)
# ---------------------------------------------------------------------------

_Q6_LO = "1996-01-01"
_Q6_HI = "1997-01-01"


def q_q6_revenue_filter(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q6 shape (public spec): tight scan-filter-aggregate — revenue
    that would be gained by dropping small discounts on low-quantity lines
    in one shipping year. The whole operator is a pruned 4-column read →
    vectorized per-batch mask + partial (sum, count) combiner → tiny driver
    fold; no shuffle at any scale."""
    lo, hi = pd.Timestamp(_Q6_LO), pd.Timestamp(_Q6_HI)
    li = _read(sf_dir, "lineitem",
               ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        m = ((b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)
             & (b["l_discount"] >= 0.02) & (b["l_discount"] <= 0.04)
             & (b["l_quantity"] < 24.0))
        sel = b.loc[m]
        rev = (sel["l_extendedprice"].to_numpy(np.float64)
               * sel["l_discount"].to_numpy(np.float64)).sum()
        return pd.DataFrame({"rev": [rev], "n": [int(m.sum())]})

    parts = li.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame({
        "revenue": [np.round(float(parts["rev"].sum()), 4)],
        "n_lines": np.array([int(parts["n"].sum())], dtype=np.int64),
    })


SQL_Q6_REVENUE = f"""
    SELECT round(sum(l_extendedprice * l_discount), 4) AS revenue,
           CAST(count(*) AS BIGINT) AS n_lines
    FROM lineitem
    WHERE l_shipdate >= TIMESTAMP '{_Q6_LO}'
      AND l_shipdate < TIMESTAMP '{_Q6_HI}'
      AND l_discount BETWEEN 0.02 AND 0.04
      AND l_quantity < 24
"""


def q_q4_priority_exists(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q4 shape (order-priority checking): orders placed in a window
    that have AT LEAST ONE returned lineitem (`l_returnflag = 'R'` stands in
    for the spec's commit-late predicate — this corpus carries no
    commit/receipt dates), counted per priority. The EXISTS is a distributed
    semi-join: the probe side dedups to distinct orderkeys FIRST (narrow
    int64 column, partial dedup inside each batch then a hash dedup), so
    the join ships one row per qualifying order, never the full lineitem
    fan-in; counts come from the CPU-clamped hash aggregate."""
    from forecastframe_ray.stages.join import hash_join

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1996-07-01")
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag"])

    def ret_keys(b: pd.DataFrame) -> pd.DataFrame:
        k = b.loc[b["l_returnflag"] == "R", "l_orderkey"].unique()
        return pd.DataFrame({"o_orderkey": k})

    keys = hash_aggregate(li.map_batches(ret_keys, batch_format="pandas"),
                          ["o_orderkey"], {"dummy": ("o_orderkey", "count")},
                          num_partitions=_NP).drop_columns(["dummy"])

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    orders = orders.map_batches(
        lambda b: b[(b["o_orderdate"] >= lo) & (b["o_orderdate"] < hi)],
        batch_format="pandas")

    joined = hash_join(orders, keys, on=["o_orderkey"], num_partitions=_NP)
    out = hash_count(joined, ["o_orderpriority"], out_col="order_count",
                     num_partitions=_NP).to_pandas()
    out["order_count"] = out["order_count"].astype(np.int64)
    return out.sort_values("o_orderpriority").reset_index(drop=True)


SQL_Q4_PRIORITY = """
    SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
    FROM orders
    WHERE o_orderdate >= TIMESTAMP '1996-01-01'
      AND o_orderdate < TIMESTAMP '1996-07-01'
      AND EXISTS (SELECT 1 FROM lineitem
                  WHERE l_orderkey = o_orderkey AND l_returnflag = 'R')
    GROUP BY 1 ORDER BY 1
"""


def q_q12_returnflag_priority(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q12 shape (shipping-mode priority split, `l_returnflag` standing
    in for the absent shipmode column): lines shipped in one year joined to
    their orders; per flag, how many belong to critical-priority orders
    (1-URGENT / 2-HIGH) vs the rest. The CASE indicators are computed
    vectorized inside the join output batches and pre-summed by the partial
    combiner, so the exchange carries one row per (flag, partial)."""
    from forecastframe_ray.stages.join import hash_join

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_returnflag",
                                    "l_shipdate"])
    li = li.map_batches(
        lambda b: b.loc[(b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi),
                        ["l_orderkey", "l_returnflag"]],
        batch_format="pandas")

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    orders = orders.map_batches(
        lambda b: b.rename(columns={"o_orderkey": "l_orderkey"}),
        batch_format="pandas")

    joined = hash_join(li, orders, on=["l_orderkey"], num_partitions=_NP)

    def indicators(b: pd.DataFrame) -> pd.DataFrame:
        hi_pri = b["o_orderpriority"].isin(["1-URGENT", "2-HIGH"])
        return pd.DataFrame({
            "l_returnflag": b["l_returnflag"],
            "high_line_count": hi_pri.astype(np.int64),
            "low_line_count": (~hi_pri).astype(np.int64),
        })

    agg = hash_aggregate(joined.map_batches(indicators,
                                            batch_format="pandas"),
                         ["l_returnflag"],
                         {"high_line_count": ("high_line_count", "sum"),
                          "low_line_count": ("low_line_count", "sum")},
                         num_partitions=_NP).to_pandas()
    for c in ("high_line_count", "low_line_count"):
        agg[c] = agg[c].astype(np.int64)
    return agg.sort_values("l_returnflag").reset_index(drop=True)


SQL_Q12_PRIORITY = """
    SELECT l_returnflag,
           CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                         THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
           CAST(sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                         THEN 1 ELSE 0 END) AS BIGINT) AS low_line_count
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    WHERE l_shipdate >= TIMESTAMP '1996-01-01'
      AND l_shipdate < TIMESTAMP '1997-01-01'
    GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# technical indicators on the daily spine (public formulas: Cutler RSI,
# Lane stochastic oscillator, Granville on-balance volume)
# ---------------------------------------------------------------------------

def q_rsi_daily_events(sf_dir: str) -> pd.DataFrame:
    """Cutler's RSI (simple-average variant — the Wilder original is a
    recursive EWM, not SQL-expressible): 14-row trailing means of the
    up/down moves of the daily series, RSI = 100·ag/(ag+al). Flat windows
    (ag+al = 0) pin to 50 on both engines; the first row of each series
    (no move yet) is the NULL sentinel. One co-located kernel per series."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            dv = g["v"].diff()
            gains = dv.clip(lower=0.0)
            losses = (-dv).clip(lower=0.0)
            ag = gains.rolling(14, min_periods=1).mean().to_numpy(np.float64)
            al = losses.rolling(14, min_periods=1).mean().to_numpy(np.float64)
            tot = ag + al
            rsi = np.where(tot > 0, 100.0 * ag / np.where(tot > 0, tot, 1.0),
                           50.0)
            rsi = np.where(np.isnan(tot), np.nan, rsi)
            outs.append(pd.DataFrame({
                "event_type": g["event_type"], "d": g["d"], "v": g["v"],
                "rsi14": np.round(rsi, 6) + 0.0}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "rsi14"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = _fill(out, ["rsi14"])
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_RSI_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    mv AS (
        SELECT event_type, d, v,
               v - LAG(v) OVER (PARTITION BY event_type ORDER BY d) AS dv
        FROM daily
    ),
    w AS (
        SELECT event_type, d, v,
               avg(CASE WHEN dv IS NULL THEN NULL
                        ELSE greatest(dv, 0) END) OVER w1 AS ag,
               avg(CASE WHEN dv IS NULL THEN NULL
                        ELSE greatest(-dv, 0) END) OVER w1 AS al
        FROM mv WINDOW w1 AS (PARTITION BY event_type ORDER BY d
                              ROWS BETWEEN 13 PRECEDING AND CURRENT ROW)
    )
    SELECT event_type, d, v,
           COALESCE(round(CASE WHEN ag IS NULL THEN NULL
                               WHEN ag + al > 0
                               THEN 100.0 * ag / (ag + al)
                               ELSE 50.0 END, 6) + 0.0, {NULLF}) AS rsi14
    FROM w
"""


def q_stochastic_daily_events(sf_dir: str) -> pd.DataFrame:
    """Lane stochastic oscillator on the daily spine: %K = position of
    today's value inside the trailing-14 (incl. today) min..max range,
    %D = 3-row mean of the unrounded %K. Flat ranges pin to 50; %D needs
    ≥1 finite %K in its window. Co-located kernel per series; the oracle
    nests two window CTEs."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            v = g["v"].astype(np.float64)
            lo = v.rolling(14, min_periods=1).min()
            hi = v.rolling(14, min_periods=1).max()
            rng = (hi - lo).to_numpy()
            k = np.where(rng > 0,
                         100.0 * (v.to_numpy() - lo.to_numpy())
                         / np.where(rng > 0, rng, 1.0), 50.0)
            dcol = pd.Series(k).rolling(3, min_periods=1).mean() \
                .to_numpy(np.float64)
            outs.append(pd.DataFrame({
                "event_type": g["event_type"], "d": g["d"], "v": g["v"],
                "pct_k": np.round(k, 6) + 0.0,
                "pct_d": np.round(dcol, 6) + 0.0}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "pct_k", "pct_d"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_STOCHASTIC_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d, v,
               min(v) OVER w1 AS lo, max(v) OVER w1 AS hi
        FROM daily WINDOW w1 AS (PARTITION BY event_type ORDER BY d
                                 ROWS BETWEEN 13 PRECEDING AND CURRENT ROW)
    ),
    k AS (
        SELECT event_type, d, v,
               CASE WHEN hi > lo THEN 100.0 * (v - lo) / (hi - lo)
                    ELSE 50.0 END AS kv
        FROM r
    )
    SELECT event_type, d, v,
           round(kv, 6) + 0.0 AS pct_k,
           round(avg(kv) OVER (PARTITION BY event_type ORDER BY d
                               ROWS BETWEEN 2 PRECEDING AND CURRENT ROW), 6)
               + 0.0 AS pct_d
    FROM k
"""


def q_obv_daily_events(sf_dir: str) -> pd.DataFrame:
    """Granville on-balance volume adapted to the daily value spine:
    running sum of +v / −v / 0 by the sign of the day-over-day move (first
    row of each series contributes 0). Prefix sums are per-series
    co-located state — exactly the cumulative pattern the MTD/drawdown
    kernels use; oracle is SUM OVER UNBOUNDED PRECEDING."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            v = g["v"].to_numpy(np.float64)
            dv = np.diff(v, prepend=np.nan)
            step = np.where(np.isnan(dv), 0.0,
                            np.where(dv > 0, v, np.where(dv < 0, -v, 0.0)))
            outs.append(pd.DataFrame({
                "event_type": g["event_type"], "d": g["d"], "v": g["v"],
                "obv": np.round(np.cumsum(step), 6) + 0.0}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "obv"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_OBV_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    mv AS (
        SELECT event_type, d, v,
               v - LAG(v) OVER (PARTITION BY event_type ORDER BY d) AS dv
        FROM daily
    )
    SELECT event_type, d, v,
           round(sum(CASE WHEN dv IS NULL THEN 0.0
                          WHEN dv > 0 THEN v
                          WHEN dv < 0 THEN -v ELSE 0.0 END)
                 OVER (PARTITION BY event_type ORDER BY d
                       ROWS UNBOUNDED PRECEDING), 6) + 0.0 AS obv
    FROM mv
"""


# ---------------------------------------------------------------------------
# rolling kurtosis / Kendall tau-b vs market / global max-concurrency sweep
# ---------------------------------------------------------------------------

def q_rolling_kurt_daily(sf_dir: str) -> pd.DataFrame:
    """W1 fourth-moment shape statistic: trailing-14 sample EXCESS kurtosis
    (bias-corrected G2 — pandas ``rolling.kurt`` and DuckDB ``kurtosis``
    agree on the estimator), ≥4 points required. Completes the rolling
    moment family (mean/std → skew → kurt); same co-located kernel shape."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            k = g["v"].rolling(14, min_periods=4).kurt() \
                .to_numpy(np.float64)
            outs.append(pd.DataFrame({
                "event_type": g["event_type"], "d": g["d"], "v": g["v"],
                "kurt14": np.round(k, 6) + 0.0}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "kurt14"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = _fill(out, ["kurt14"])
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_ROLLING_KURT_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           COALESCE(CASE WHEN count(v) OVER w >= 4
                         THEN round(kurtosis(v) OVER w, 6) + 0.0 END,
                    {NULLF}) AS kurt14
    FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d
                            ROWS BETWEEN 13 PRECEDING AND CURRENT ROW)
"""


def q_kendall_tau_market_daily(sf_dir: str) -> pd.DataFrame:
    """Kendall tau-b (Kendall 1938, tie-corrected form) between each daily
    series and the MARKET total (sum over all series per day) — the
    rank-correlation counterpart of ``rolling_corr_market``. The market
    spine is one row per day (tiny; merged in as a broadcast), the pair
    statistics are a per-series vectorized sign-matrix kernel (quadratic in
    the SERIES length, which is bounded by the calendar, never by corpus
    size). Both engines quantize v and the market total to 6dp so tie
    detection agrees."""
    from forecastframe_ray.stages.agg import keyed_map_partitions
    from forecastframe_ray.stages.join import broadcast_left_join

    daily = _bucket_series(sf_dir, DAY_US, "d")
    mkt = hash_aggregate(daily, ["d"], {"m": ("v", "sum")},
                         num_partitions=4).to_pandas()
    mkt["m"] = np.round(mkt["m"].to_numpy(np.float64), 6)
    joined = broadcast_left_join(daily, mkt, on=["d"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            x = g["v"].to_numpy(np.float64)
            y = g["m"].to_numpy(np.float64)
            n = len(x)
            if n < 2:
                rows.append((et, n, np.nan))
                continue
            iu = np.triu_indices(n, k=1)
            sx = np.sign(x[:, None] - x[None, :])[iu]
            sy = np.sign(y[:, None] - y[None, :])[iu]
            prod = sx * sy
            conc = int((prod > 0).sum())
            disc = int((prod < 0).sum())
            tx_only = int(((sx == 0) & (sy != 0)).sum())
            ty_only = int(((sy == 0) & (sx != 0)).sum())
            den = np.sqrt(float(conc + disc + ty_only)
                          * float(conc + disc + tx_only))
            tau = (conc - disc) / den if den > 0 else np.nan
            rows.append((et, n, np.round(tau, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days", "tau_b"])

    out = keyed_map_partitions(joined, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["tau_b"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_KENDALL_TAU_MARKET = f"""
    WITH daily AS ({_DAILY_SQL}),
    mkt AS (SELECT d, round(sum(v), 6) AS m FROM daily GROUP BY d),
    j AS (SELECT event_type, daily.d, v, m FROM daily JOIN mkt USING (d)),
    p AS (
        SELECT a.event_type,
               sum(CASE WHEN (a.v - b.v) * (a.m - b.m) > 0
                        THEN 1 ELSE 0 END) AS conc,
               sum(CASE WHEN (a.v - b.v) * (a.m - b.m) < 0
                        THEN 1 ELSE 0 END) AS disc,
               sum(CASE WHEN a.v = b.v AND a.m <> b.m
                        THEN 1 ELSE 0 END) AS tx_only,
               sum(CASE WHEN a.m = b.m AND a.v <> b.v
                        THEN 1 ELSE 0 END) AS ty_only
        FROM j a JOIN j b ON a.event_type = b.event_type AND a.d < b.d
        GROUP BY 1
    ),
    n AS (SELECT event_type, count(*) AS n_days FROM j GROUP BY 1)
    SELECT n.event_type, CAST(n.n_days AS BIGINT) AS n_days,
           COALESCE(round((conc - disc)
                          / sqrt((conc + disc + ty_only)
                                 * (conc + disc + tx_only)), 6) + 0.0,
                    {NULLF}) AS tau_b
    FROM n LEFT JOIN p ON n.event_type = p.event_type
    ORDER BY 1
"""


def q_max_concurrency_events(sf_dir: str) -> pd.DataFrame:
    """Peak concurrency of 30-minute activity intervals (one per event):
    the classic interval sweep — every interval contributes (+1 at start,
    −1 at end), peak = max prefix sum over boundaries ordered by
    (time, delta) with closes before opens at ties ([start, end)
    semantics). Distributed as a SINGLE-pass prefix scan: monotone
    time-range partitions each report (Σdelta, max local prefix) — P tiny
    rows — and the driver folds exclusive offsets; no second pass because
    the answer is a scalar, and no global sort because the partition
    mapping is order-preserving."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    span_us = 1_800_000_000  # 30 min
    ev = _read(sf_dir, "events", ["ts"])

    ext = ev.map_batches(
        lambda b: pd.DataFrame({
            "lo": [b["ts"].min()], "hi": [b["ts"].max()]}),
        batch_format="pandas").to_pandas()
    lo = ext["lo"].min().value // 1000
    hi = ext["hi"].max().value // 1000 + span_us
    P = _NP
    width = max((hi - lo) // P + 1, 1)

    def boundaries(b: pd.DataFrame) -> pd.DataFrame:
        t = b["ts"].astype("datetime64[us]").astype("int64").to_numpy()
        ts = np.concatenate([t, t + span_us])
        delta = np.concatenate([np.ones(len(t), dtype=np.int64),
                                -np.ones(len(t), dtype=np.int64)])
        return pd.DataFrame({
            "t": ts, "delta": delta,
            "__rng": np.minimum((ts - lo) // width, P - 1)})

    def local(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        # a hash partition may hold several range keys — fold each alone
        for rng, g in part.groupby("__rng", sort=False):
            g = g.sort_values(["t", "delta"], kind="mergesort")
            c = np.cumsum(g["delta"].to_numpy(np.int64))
            rows.append((int(rng), int(c[-1]), int(c.max())))
        return pd.DataFrame(rows, columns=["__rng", "total", "local_max"])

    parts = keyed_map_partitions(
        ev.map_batches(boundaries, batch_format="pandas"),
        ["__rng"], local, num_partitions=P).to_pandas() \
        .sort_values("__rng")
    offset, best = 0, 0
    for _, r in parts.iterrows():
        best = max(best, offset + int(r["local_max"]))
        offset += int(r["total"])
    n = int(pq.read_metadata(f"{sf_dir}/events.parquet").num_rows)
    return pd.DataFrame({
        "max_concurrency": np.array([best], dtype=np.int64),
        "n_intervals": np.array([n], dtype=np.int64)})


SQL_MAX_CONCURRENCY = """
    WITH b AS (
        SELECT epoch_us(ts) AS t, 1 AS delta FROM events
        UNION ALL
        SELECT epoch_us(ts) + 1800000000, -1 FROM events
    ),
    s AS (
        SELECT sum(delta) OVER (ORDER BY t, delta
                                ROWS UNBOUNDED PRECEDING) AS c
        FROM b
    )
    SELECT CAST(max(c) AS BIGINT) AS max_concurrency,
           CAST((SELECT count(*) FROM events) AS BIGINT) AS n_intervals
    FROM s
"""


# ---------------------------------------------------------------------------
# embedding-space audits: pairwise-cosine histogram, norm stats, spectral gate
# ---------------------------------------------------------------------------

def q_cosine_histogram_embeddings(sf_dir: str) -> pd.DataFrame:
    """Distribution audit of PAIRWISE cosine similarity: counts of all i<j
    pairs in ten fixed [−1,1] bins. The comparison matrix is broadcast once
    (`ray.put` semantics via closure capture — same shape as the ANN query
    broadcast) and each batch computes a |B|×n matmul + partial histogram,
    so the exchange carries 10 ints per batch. All-pairs is quadratic BY
    DEFINITION — at corpus scale the op audits a deterministic cap of rows
    (vec_id order, documented), which bounds the broadcast at cap×dim;
    sf-scale inputs sit below the cap so the oracle sees every pair. Sims
    are rounded to 6dp on both engines before binning so edge assignment
    agrees."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).to_pandas()
    emb = emb.sort_values("vec_id").reset_index(drop=True)
    M = np.stack(emb["embedding"].to_numpy()).astype(np.float64)
    ids = emb["vec_id"].to_numpy(np.int64)
    norms = np.linalg.norm(M, axis=1)
    Mn = M / np.where(norms > 0, norms, 1.0)[:, None]

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        B = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        bn = np.linalg.norm(B, axis=1)
        Bn = B / np.where(bn > 0, bn, 1.0)[:, None]
        sims = Bn @ Mn.T
        bid = b["vec_id"].to_numpy(np.int64)
        mask = bid[:, None] < ids[None, :]
        s = np.round(sims[mask], 6)
        binned = np.clip(np.floor((s + 1.0) / 0.2), 0, 9).astype(np.int64)
        counts = np.bincount(binned, minlength=10)
        return pd.DataFrame({"bin": np.arange(10, dtype=np.int64),
                             "n_pairs": counts})

    parts = ds.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.groupby("bin", as_index=False)["n_pairs"].sum()
    out["n_pairs"] = out["n_pairs"].astype(np.int64)
    return out.sort_values("bin").reset_index(drop=True)


SQL_COSINE_HISTOGRAM = """
    WITH p AS (
        SELECT CAST(least(greatest(floor(
                   (round(list_cosine_similarity(a.embedding, b.embedding),
                          6) + 1.0) / 0.2), 0), 9) AS BIGINT) AS bin
        FROM embeddings a JOIN embeddings b ON a.vec_id < b.vec_id
    ),
    bins AS (SELECT unnest(generate_series(0, 9)) AS bin)
    SELECT CAST(bins.bin AS BIGINT) AS bin,
           CAST(count(p.bin) AS BIGINT) AS n_pairs
    FROM bins LEFT JOIN p ON bins.bin = p.bin
    GROUP BY 1 ORDER BY 1
"""


def q_norm_stats_embeddings(sf_dir: str) -> pd.DataFrame:
    """Per-label L2-norm profile (n, mean, min, max) — the standard sanity
    gate before cosine ops (zero / unnormalized vectors distort every
    similarity). Vectorized per-batch norms → the CPU-clamped hash
    aggregate; one tiny exchange row per (label, partial)."""
    emb = _read(sf_dir, "embeddings", ["label", "embedding"])

    def norms(b: pd.DataFrame) -> pd.DataFrame:
        M = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        return pd.DataFrame({"label": b["label"],
                             "nrm": np.linalg.norm(M, axis=1)})

    agg = hash_aggregate(emb.map_batches(norms, batch_format="pandas"),
                         ["label"],
                         {"n": ("nrm", "count"), "mean_norm": ("nrm", "mean"),
                          "min_norm": ("nrm", "min"),
                          "max_norm": ("nrm", "max")},
                         num_partitions=4).to_pandas()
    agg["n"] = agg["n"].astype(np.int64)
    agg = _round(agg, ["mean_norm", "min_norm", "max_norm"], 6)
    return agg.sort_values("label").reset_index(drop=True)


SQL_NORM_STATS = """
    SELECT label, CAST(count(*) AS BIGINT) AS n,
           round(avg(sqrt(list_dot_product(embedding, embedding))), 6)
               AS mean_norm,
           round(min(sqrt(list_dot_product(embedding, embedding))), 6)
               AS min_norm,
           round(max(sqrt(list_dot_product(embedding, embedding))), 6)
               AS max_norm
    FROM embeddings GROUP BY 1 ORDER BY 1
"""


def q_pca_spectrum_gate_embeddings(sf_dir: str) -> pd.DataFrame:
    """Spectral gate for the PCA path: the eigenvalues of the one-pass
    population covariance must satisfy Σλ = trace(C) and Σλ² = ‖C‖²_F
    (Schatten-1/2 identities) — both right-hand sides are SQL-computable
    from unnested per-dimension covariances WITHOUT an eigensolver, so the
    driver-side eigh (64×64 — constant, never data-sized) is pinned by an
    exact oracle. Covariance partials are per-batch (n, Σx, ΣxxT) combiner
    rows; nothing data-sized leaves the cluster."""
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        M = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        return pd.DataFrame({
            "n": [len(M)],
            "sx": [M.sum(axis=0).tobytes()],
            "sxx": [(M.T @ M).tobytes()],
        })

    parts = emb.map_batches(partial, batch_format="pandas").to_pandas()
    n = int(parts["n"].sum())
    d = 64
    sx = np.sum([np.frombuffer(v, dtype=np.float64) for v in parts["sx"]],
                axis=0)
    sxx = np.sum([np.frombuffer(v, dtype=np.float64).reshape(d, d)
                  for v in parts["sxx"]], axis=0)
    mu = sx / n
    C = sxx / n - np.outer(mu, mu)
    lam = np.linalg.eigvalsh(C)
    return pd.DataFrame({
        "n_dims": np.array([d], dtype=np.int64),
        "trace": [np.round(float(lam.sum()), 4)],
        "frob2": [np.round(float((lam ** 2).sum()), 4)],
    })


SQL_PCA_SPECTRUM_GATE = """
    WITH e AS (
        SELECT vec_id, unnest(embedding) AS x,
               generate_subscripts(embedding, 1) AS i
        FROM embeddings
    ),
    c AS (
        SELECT a.i AS i, b.i AS j, covar_pop(a.x, b.x) AS cv
        FROM e a JOIN e b USING (vec_id)
        GROUP BY 1, 2
    )
    SELECT CAST(max(i) AS BIGINT) AS n_dims,
           round(sum(CASE WHEN i = j THEN cv ELSE 0 END), 4) AS trace,
           round(sum(cv * cv), 4) AS frob2
    FROM c
"""


# ---------------------------------------------------------------------------
# schema-evolution union + deterministic text normalization
# ---------------------------------------------------------------------------

def q_schema_evolution_union(sf_dir: str) -> pd.DataFrame:
    """Lakehouse schema-evolution read: two file generations of the orders
    table (v1 carries price, v2 carries date+priority) unioned BY NAME with
    null fill via ``stages.reshape.union_by_name`` — no shuffle, the blocks
    just conform and concatenate. Summarized per generation so the oracle
    pins both the null-fill and the row routing."""
    from forecastframe_ray.stages.reshape import union_by_name

    v1 = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    v1 = v1.map_batches(lambda b: b[b["o_orderkey"] % 2 == 0],
                        batch_format="pandas")
    v2 = _read(sf_dir, "orders",
               ["o_orderkey", "o_orderdate", "o_orderpriority"])
    v2 = v2.map_batches(lambda b: b[b["o_orderkey"] % 2 == 1],
                        batch_format="pandas")
    u = union_by_name([v1, v2])

    def mark(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "gen": np.where(b["o_totalprice"].notna(), "v1", "v2"),
            "has_price": b["o_totalprice"].notna().astype(np.int64),
            "has_date": b["o_orderdate"].notna().astype(np.int64),
            "price": b["o_totalprice"].fillna(0.0),
            "one": np.ones(len(b), dtype=np.int64)})

    agg = hash_aggregate(u.map_batches(mark, batch_format="pandas"),
                         ["gen"],
                         {"n": ("one", "sum"),
                          "n_price": ("has_price", "sum"),
                          "n_date": ("has_date", "sum"),
                          "sum_price": ("price", "sum")},
                         num_partitions=4).to_pandas()
    for c in ("n", "n_price", "n_date"):
        agg[c] = agg[c].astype(np.int64)
    agg = _round(agg, ["sum_price"], 4)
    return agg.sort_values("gen").reset_index(drop=True)


SQL_SCHEMA_EVOLUTION_UNION = """
    WITH u AS (
        SELECT o_orderkey, o_totalprice, NULL::TIMESTAMP AS o_orderdate,
               NULL::VARCHAR AS o_orderpriority
        FROM orders WHERE o_orderkey % 2 = 0
        UNION ALL
        SELECT o_orderkey, NULL, o_orderdate, o_orderpriority
        FROM orders WHERE o_orderkey % 2 = 1
    )
    SELECT CASE WHEN o_totalprice IS NOT NULL THEN 'v1' ELSE 'v2' END AS gen,
           CAST(count(*) AS BIGINT) AS n,
           CAST(sum(CASE WHEN o_totalprice IS NOT NULL THEN 1 ELSE 0 END)
                AS BIGINT) AS n_price,
           CAST(sum(CASE WHEN o_orderdate IS NOT NULL THEN 1 ELSE 0 END)
                AS BIGINT) AS n_date,
           round(sum(COALESCE(o_totalprice, 0)), 4) AS sum_price
    FROM u GROUP BY 1 ORDER BY 1
"""


def q_normalize_text_documents(sf_dir: str) -> pd.DataFrame:
    """Deterministic text canonicalization (the byte-identity contract the
    north_rule demands of extraction, applied as a standalone stage): NFC
    unicode normalization → lowercase → strip → collapse ASCII whitespace
    runs to one space; emitted as (doc_id, md5, n_chars) so the oracle
    checks the exact bytes without shipping them. Stateless vectorized
    map_batches; the whitespace class is pinned to ASCII on both engines
    (python re vs RE2 \\s semantics differ on unicode)."""
    import hashlib
    import re as _re
    import unicodedata

    ws = _re.compile(r"[ \t\n\r\f]+")
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm(b: pd.DataFrame) -> pd.DataFrame:
        texts = b["text"].fillna("")
        out = [ws.sub(" ", unicodedata.normalize("NFC", t).lower()).strip()
               for t in texts]
        return pd.DataFrame({
            "doc_id": b["doc_id"],
            "md5": [hashlib.md5(t.encode("utf-8")).hexdigest() for t in out],
            "n_chars": np.array([len(t) for t in out], dtype=np.int64)})

    out = docs.map_batches(norm, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_NORMALIZE_TEXT = """
    SELECT doc_id,
           md5(trim(regexp_replace(lower(nfc_normalize(COALESCE(text, ''))),
                                   '[ \t\n\r\f]+', ' ', 'g'))) AS md5,
           CAST(length(trim(regexp_replace(lower(nfc_normalize(
                    COALESCE(text, ''))), '[ \t\n\r\f]+', ' ', 'g')))
                AS BIGINT) AS n_chars
    FROM documents ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# graph centrality / business-day calendar / Misra-Gries heavy hitters
# ---------------------------------------------------------------------------

def q_pagerank_types_events(sf_dir: str) -> pd.DataFrame:
    """Weighted PageRank (Brin-Page 1998, damping 0.85, 3 synchronous
    iterations from uniform) over the event-type transition graph. Edge
    weights come from the distributed per-user transition kernel (same
    shape as ``transition_counts_events``); the power iteration itself runs
    on the driver over a T×T matrix where T = event-type CARDINALITY —
    bounded by the vocabulary, never the corpus. Precondition (checked):
    every node has out-weight > 0; the oracle unrolls the same 3
    iterations as nested CTEs."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["user_id", "ts"], kind="mergesort")
        nxt = part.groupby("user_id", sort=False)["event_type"].shift(-1)
        ok = nxt.notna()
        sub = pd.DataFrame({"p": part["event_type"][ok], "q": nxt[ok]})
        out = sub.groupby(["p", "q"], sort=False).size().reset_index(name="n")
        out["n"] = out["n"].astype("int64")
        return out

    partial = keyed_map_partitions(ev, ["user_id"], pairs, _NP)
    edges = hash_aggregate(partial, ["p", "q"], {"n": ("n", "sum")},
                           num_partitions=4).to_pandas()

    nodes = sorted(set(edges["p"]) | set(edges["q"]))
    idx = {t: i for i, t in enumerate(nodes)}
    T = len(nodes)
    W = np.zeros((T, T), dtype=np.float64)
    for p, q, n in edges.itertuples(index=False):
        W[idx[p], idx[q]] = float(n)
    wout = W.sum(axis=1)
    if (wout <= 0).any():
        raise RuntimeError("pagerank: dangling node (no out-transitions)")
    P = W / wout[:, None]
    pr = np.full(T, 1.0 / T)
    for _ in range(3):
        pr = 0.15 / T + 0.85 * (pr @ P)
    return pd.DataFrame({"event_type": nodes,
                         "pr3": np.round(pr, 6) + 0.0}) \
        .sort_values("event_type").reset_index(drop=True)


SQL_PAGERANK_TYPES = """
    WITH tr AS (
        SELECT event_type AS p,
               lead(event_type) OVER (PARTITION BY user_id ORDER BY ts) AS q
        FROM events
    ),
    e AS (SELECT p, q, count(*)::DOUBLE AS n FROM tr
          WHERE q IS NOT NULL GROUP BY 1, 2),
    w AS (SELECT p, sum(n) AS wout FROM e GROUP BY 1),
    nodes AS (SELECT DISTINCT event_type FROM events),
    nn AS (SELECT count(*)::DOUBLE AS t FROM nodes),
    r0 AS (SELECT event_type, 1.0 / nn.t AS pr FROM nodes, nn),
    r1 AS (SELECT n.event_type,
                  0.15 / nn.t + 0.85 * COALESCE(
                      (SELECT sum(r0.pr * e.n / w.wout)
                       FROM e JOIN r0 ON r0.event_type = e.p
                              JOIN w ON w.p = e.p
                       WHERE e.q = n.event_type), 0) AS pr
           FROM nodes n, nn),
    r2 AS (SELECT n.event_type,
                  0.15 / nn.t + 0.85 * COALESCE(
                      (SELECT sum(r1.pr * e.n / w.wout)
                       FROM e JOIN r1 ON r1.event_type = e.p
                              JOIN w ON w.p = e.p
                       WHERE e.q = n.event_type), 0) AS pr
           FROM nodes n, nn),
    r3 AS (SELECT n.event_type,
                  0.15 / nn.t + 0.85 * COALESCE(
                      (SELECT sum(r2.pr * e.n / w.wout)
                       FROM e JOIN r2 ON r2.event_type = e.p
                              JOIN w ON w.p = e.p
                       WHERE e.q = n.event_type), 0) AS pr
           FROM nodes n, nn)
    SELECT event_type, round(pr, 6) + 0.0 AS pr3 FROM r3 ORDER BY 1
"""


def q_business_days_to_ship(sf_dir: str) -> pd.DataFrame:
    """Order→ship latency in BUSINESS days (Mon–Fri, [order, ship) interval
    — numpy ``busday_count`` semantics) per order priority, over the rows
    where the ship date is not before the order date (this synthetic corpus
    has no causal guarantee; the filter is part of the contract). The join
    is the CPU-clamped distributed hash join; the busday arithmetic is one
    vectorized C call per batch. Oracle expands each interval with
    generate_series — exact, if quadratic in days (oracle-side only)."""
    from forecastframe_ray.stages.join import hash_join

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    orders = orders.map_batches(
        lambda b: b.rename(columns={"o_orderkey": "l_orderkey"}),
        batch_format="pandas")
    joined = hash_join(li, orders, on=["l_orderkey"], num_partitions=_NP)

    def busdays(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_shipdate"] >= b["o_orderdate"]]
        a = b["o_orderdate"].to_numpy().astype("datetime64[D]")
        s = b["l_shipdate"].to_numpy().astype("datetime64[D]")
        return pd.DataFrame({
            "o_orderpriority": b["o_orderpriority"],
            "bd": np.busday_count(a, s).astype(np.float64),
            "one": np.ones(len(b), dtype=np.int64)})

    agg = hash_aggregate(joined.map_batches(busdays, batch_format="pandas"),
                         ["o_orderpriority"],
                         {"n": ("one", "sum"), "mean_bd": ("bd", "mean"),
                          "max_bd": ("bd", "max")},
                         num_partitions=4).to_pandas()
    agg["n"] = agg["n"].astype(np.int64)
    agg["max_bd"] = agg["max_bd"].astype(np.int64)
    agg = _round(agg, ["mean_bd"], 6)
    return agg.sort_values("o_orderpriority").reset_index(drop=True)


SQL_BUSINESS_DAYS = """
    WITH j AS (
        SELECT o_orderpriority, o_orderdate, l_shipdate
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey
        WHERE l_shipdate >= o_orderdate
    ),
    d AS (
        SELECT o_orderpriority, o_orderdate, l_shipdate,
               CASE WHEN l_shipdate = o_orderdate THEN 0
                    ELSE (SELECT count(*) FROM
                          unnest(generate_series(j.o_orderdate,
                                                 j.l_shipdate
                                                   - INTERVAL 1 DAY,
                                                 INTERVAL 1 DAY)) AS t(dd)
                          WHERE isodow(dd) <= 5) END AS bd
        FROM j
    )
    SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n,
           round(avg(bd), 6) AS mean_bd, CAST(max(bd) AS BIGINT) AS max_bd
    FROM d GROUP BY 1 ORDER BY 1
"""


def q_heavy_hitters_users_events(sf_dir: str) -> pd.DataFrame:
    """Misra-Gries heavy hitters (1982; mergeable-summaries form, Agarwal
    et al. 2013): every user with more than n/k of all events. Pass 1:
    each batch reduces to a ≤k-counter MG summary (exact in-batch counts,
    then the (k+1)-th-largest subtraction), summaries merge by counter
    addition + re-truncation — the MG guarantee (no miss for true
    heavy hitters) survives merging. Pass 2 re-counts ONLY the surviving
    candidates exactly (broadcast filter + hash count) so the emitted
    counts carry no sketch error; the oracle is a plain HAVING."""
    K = 500
    ev = _read(sf_dir, "events", ["user_id"])
    n_total = int(pq.read_metadata(f"{sf_dir}/events.parquet").num_rows)
    thresh = n_total / K

    def mg_batch(b: pd.DataFrame) -> pd.DataFrame:
        cnt = b["user_id"].value_counts()
        if len(cnt) > K:
            sub = cnt.iloc[K]  # (k+1)-th largest
            cnt = (cnt - sub).iloc[:K]
            cnt = cnt[cnt > 0]
        return pd.DataFrame({"user_id": cnt.index.to_numpy(),
                             "c": cnt.to_numpy(np.int64)})

    partials = ev.map_batches(mg_batch, batch_format="pandas").to_pandas()
    merged = partials.groupby("user_id")["c"].sum().sort_values(
        ascending=False)
    if len(merged) > K:
        sub = merged.iloc[K]
        merged = (merged - sub).iloc[:K]
        merged = merged[merged > 0]
    cand = set(merged.index.tolist())

    exact = hash_count(
        ev.map_batches(lambda b: b[b["user_id"].isin(cand)],
                       batch_format="pandas"),
        ["user_id"], out_col="n_events", num_partitions=4).to_pandas()
    exact = exact[exact["n_events"] > thresh].copy()
    exact["n_events"] = exact["n_events"].astype(np.int64)
    exact["user_id"] = exact["user_id"].astype(np.int64)
    return exact.sort_values("user_id").reset_index(drop=True)


SQL_HEAVY_HITTERS_USERS = """
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_events
    FROM events GROUP BY 1
    HAVING count(*) > (SELECT count(*) FROM events) / 500.0
    ORDER BY 1
"""


# ---------------------------------------------------------------------------
# quantile normalization / state dwell time / grouped OLS
# ---------------------------------------------------------------------------

def q_quantile_normalize_daily(sf_dir: str) -> pd.DataFrame:
    """Quantile normalization (Bolstad et al. 2003 — the microarray
    standard) across the daily series: every series' r-th order statistic
    is replaced by the MEAN of the r-th order statistics across all series,
    making the per-series marginal distributions identical. Rank assignment
    is deterministic ((v, d) ties). Two tiny exchanges: per-series ranking
    is a co-located kernel, the cross-series rank means are one
    hash-aggregate over (rank) — rows bounded by the calendar."""
    from forecastframe_ray.stages.agg import keyed_map_partitions
    from forecastframe_ray.stages.join import broadcast_left_join

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def rank_kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values(["v", "d"], kind="mergesort").copy()
            g["rnk"] = np.arange(1, len(g) + 1, dtype=np.int64)
            outs.append(g)
        return pd.concat(outs, ignore_index=True)

    ranked = keyed_map_partitions(daily, ["event_type"], rank_kernel,
                                  num_partitions=_NP)
    means = hash_aggregate(ranked, ["rnk"], {"qn_v": ("v", "mean")},
                           num_partitions=4).to_pandas()
    means["qn_v"] = np.round(means["qn_v"].to_numpy(np.float64), 6)
    out = broadcast_left_join(ranked, means, on=["rnk"]).to_pandas()
    out = out[["event_type", "d", "v", "rnk", "qn_v"]]
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_QUANTILE_NORMALIZE_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d, v,
               ROW_NUMBER() OVER (PARTITION BY event_type
                                  ORDER BY v, d) AS rnk
        FROM daily
    ),
    m AS (SELECT rnk, round(avg(v), 6) AS qn_v FROM r GROUP BY 1)
    SELECT event_type, d, v, CAST(r.rnk AS BIGINT) AS rnk, qn_v
    FROM r JOIN m ON r.rnk = m.rnk
"""


def q_state_dwell_time_events(sf_dir: str) -> pd.DataFrame:
    """Time-in-state aggregation (uptime/monitoring semantics): each event
    puts its user INTO the state named by its type until that user's next
    event; dwell = gap to the next event, attributed to the CURRENT type
    (each user's last event has no dwell). Per-user ordering is a
    partition-id shuffle kernel with a vectorized grouped shift — the same
    co-location contract the transition matrix uses — then one tiny merge
    aggregate per state."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def dwell(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["user_id", "ts"], kind="mergesort").copy()
        part["__t"] = part["ts"].astype("datetime64[us]").astype("int64")
        nxt = part.groupby("user_id", sort=False)["__t"].shift(-1)
        ok = nxt.notna()
        dw = (nxt[ok].to_numpy(np.float64)
              - part["__t"][ok].to_numpy(np.float64)) / 1e6
        sub = pd.DataFrame({"event_type": part["event_type"][ok],
                            "dw": dw,
                            "one": np.ones(int(ok.sum()), dtype=np.int64)})
        return (sub.groupby("event_type", sort=False)
                .agg(n=("one", "sum"), sum_dw=("dw", "sum"),
                     max_dw=("dw", "max")).reset_index())

    partial = keyed_map_partitions(ev, ["user_id"], dwell, _NP)
    out = hash_aggregate(partial, ["event_type"],
                         {"n": ("n", "sum"), "sum_dw": ("sum_dw", "sum"),
                          "max_dw": ("max_dw", "max")},
                         num_partitions=4).to_pandas()
    out["n"] = out["n"].astype(np.int64)
    out["mean_dw_s"] = out["sum_dw"] / out["n"]
    out = _round(out[["event_type", "n", "mean_dw_s", "max_dw"]],
                 ["mean_dw_s", "max_dw"], 6)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_STATE_DWELL_TIME = """
    WITH g AS (
        SELECT event_type,
               (epoch_us(lead(ts) OVER (PARTITION BY user_id ORDER BY ts))
                - epoch_us(ts)) / 1e6 AS dw
        FROM events
    )
    SELECT event_type, CAST(count(dw) AS BIGINT) AS n,
           round(sum(dw) / count(dw), 6) AS mean_dw_s,
           round(max(dw), 6) AS max_dw
    FROM g WHERE dw IS NOT NULL GROUP BY 1 ORDER BY 1
"""


def q_ols_price_quantity_brand(sf_dir: str) -> pd.DataFrame:
    """Grouped bivariate OLS (price-elasticity audit): per part BRAND,
    regress quantity on extended price across lineitems — slope, intercept
    and Pearson r from the five streaming moments (n, Σx, Σy, Σxy, Σx²,
    Σy²). The brand lookup is a broadcast dim join (part is the small
    side); the moments pre-reduce per batch so the exchange carries one
    row per (brand, partial). Oracle uses regr_slope/regr_intercept/corr."""
    from forecastframe_ray.stages.join import broadcast_left_join

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"]).to_pandas() \
        .rename(columns={"p_partkey": "l_partkey"})
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])
    joined = broadcast_left_join(li, part, on=["l_partkey"])

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        x = b["l_extendedprice"].to_numpy(np.float64)
        y = b["l_quantity"].to_numpy(np.float64)
        g = pd.DataFrame({"p_brand": b["p_brand"], "x": x, "y": y,
                          "xy": x * y, "x2": x * x, "y2": y * y,
                          "one": np.ones(len(b), dtype=np.int64)})
        return (g.groupby("p_brand", sort=False)
                .agg(n=("one", "sum"), sx=("x", "sum"), sy=("y", "sum"),
                     sxy=("xy", "sum"), sx2=("x2", "sum"),
                     sy2=("y2", "sum")).reset_index())

    agg = hash_aggregate(joined.map_batches(moments, batch_format="pandas"),
                         ["p_brand"],
                         {"n": ("n", "sum"), "sx": ("sx", "sum"),
                          "sy": ("sy", "sum"), "sxy": ("sxy", "sum"),
                          "sx2": ("sx2", "sum"), "sy2": ("sy2", "sum")},
                         num_partitions=4).to_pandas()
    n = agg["n"].to_numpy(np.float64)
    sx, sy = agg["sx"].to_numpy(np.float64), agg["sy"].to_numpy(np.float64)
    sxy = agg["sxy"].to_numpy(np.float64)
    sx2, sy2 = agg["sx2"].to_numpy(np.float64), agg["sy2"].to_numpy(np.float64)
    cov = sxy - sx * sy / n
    vx = sx2 - sx * sx / n
    vy = sy2 - sy * sy / n
    slope = cov / vx
    out = pd.DataFrame({
        "p_brand": agg["p_brand"],
        "n": agg["n"].astype(np.int64),
        "slope": np.round(slope, 9) + 0.0,
        "intercept": np.round(sy / n - slope * sx / n, 6) + 0.0,
        "r": np.round(cov / np.sqrt(vx * vy), 6) + 0.0})
    return out.sort_values("p_brand").reset_index(drop=True)


SQL_OLS_PRICE_QUANTITY = """
    SELECT p_brand, CAST(count(*) AS BIGINT) AS n,
           round(regr_slope(l_quantity, l_extendedprice), 9) + 0.0 AS slope,
           round(regr_intercept(l_quantity, l_extendedprice), 6) + 0.0
               AS intercept,
           round(corr(l_quantity, l_extendedprice), 6) + 0.0 AS r
    FROM lineitem JOIN part ON l_partkey = p_partkey
    GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Kaplan-Meier survival / Sharpe drift ratio / id-sequence gap audit
# ---------------------------------------------------------------------------

def q_kaplan_meier_users(sf_dir: str) -> pd.DataFrame:
    """Kaplan-Meier survival estimator (1958) over user lifetimes: lifetime
    = whole days between a user's first and last event; a user whose last
    event falls within 7 days of corpus end is CENSORED (still alive at
    their observed lifetime), otherwise their lifetime is a death. S(t)
    steps down only at death times: S = Π(1 − d_i/n_i) over ordered
    distinct lifetimes. Distribution: per-user (min,max) is one hash
    aggregate; lifetimes then reduce to (t, deaths, total) rows bounded by
    the CALENDAR (whole days), and only that tiny table reaches the driver
    for the ordered product."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    span = hash_aggregate(ev, ["user_id"],
                          {"first_ts": ("ts", "min"),
                           "last_ts": ("ts", "max")},
                          num_partitions=_NP)
    end = ev.map_batches(lambda b: pd.DataFrame({"m": [b["ts"].max()]}),
                         batch_format="pandas").to_pandas()["m"].max()
    cutoff = end - pd.Timedelta(days=7)

    def life(b: pd.DataFrame) -> pd.DataFrame:
        t = ((b["last_ts"].astype("datetime64[us]").astype("int64")
              - b["first_ts"].astype("datetime64[us]").astype("int64"))
             // DAY_US).astype(np.int64)
        return pd.DataFrame({
            "t": t,
            "death": (b["last_ts"] <= cutoff).astype(np.int64),
            "one": np.ones(len(b), dtype=np.int64)})

    tab = hash_aggregate(span.map_batches(life, batch_format="pandas"),
                         ["t"], {"d": ("death", "sum"), "c": ("one", "sum")},
                         num_partitions=4).to_pandas().sort_values("t")
    total = int(tab["c"].sum())
    at_risk = total - np.concatenate([[0], np.cumsum(tab["c"].to_numpy())[:-1]])
    surv = np.cumprod(1.0 - tab["d"].to_numpy(np.float64) / at_risk)
    out = pd.DataFrame({
        "t_days": tab["t"].astype(np.int64).to_numpy(),
        "n_at_risk": at_risk.astype(np.int64),
        "n_deaths": tab["d"].astype(np.int64).to_numpy(),
        "survival": np.round(surv, 6) + 0.0})
    return out.reset_index(drop=True)


SQL_KAPLAN_MEIER = """
    WITH u AS (
        SELECT user_id, min(ts) AS f, max(ts) AS l FROM events GROUP BY 1
    ),
    ce AS (SELECT max(ts) AS e FROM events),
    lt AS (
        SELECT (epoch_us(l) - epoch_us(f)) // 86400000000 AS t,
               CASE WHEN l <= (SELECT e - INTERVAL 7 DAY FROM ce)
                    THEN 1 ELSE 0 END AS death
        FROM u
    ),
    tab AS (SELECT t, sum(death) AS d, count(*) AS c FROM lt GROUP BY 1),
    r AS (
        SELECT t, d, c,
               (SELECT count(*) FROM lt) - COALESCE(
                   sum(c) OVER (ORDER BY t
                                ROWS BETWEEN UNBOUNDED PRECEDING
                                AND 1 PRECEDING), 0) AS n_at_risk
        FROM tab
    )
    SELECT CAST(t AS BIGINT) AS t_days,
           CAST(n_at_risk AS BIGINT) AS n_at_risk,
           CAST(d AS BIGINT) AS n_deaths,
           round(product(1.0 - d / n_at_risk) OVER (ORDER BY t), 6) + 0.0
               AS survival
    FROM r ORDER BY t
"""


def q_sharpe_daily_events(sf_dir: str) -> pd.DataFrame:
    """Annualized Sharpe-style drift ratio per daily series, on ABSOLUTE
    day-over-day moves (the daily sums cross zero, so relative returns are
    ill-posed): √365 · mean(Δv) / std(Δv, ddof=1). One co-located kernel
    per series; oracle is avg/stddev_samp over the lagged difference."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            dv = g["v"].diff().dropna().to_numpy(np.float64)
            if len(dv) < 2 or dv.std(ddof=1) == 0:
                rows.append((et, len(dv), np.nan))
                continue
            rows.append((et, len(dv),
                         np.round(np.sqrt(365.0) * dv.mean()
                                  / dv.std(ddof=1), 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_moves",
                                           "sharpe"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_moves"] = out["n_moves"].astype(np.int64)
    out = _fill(out, ["sharpe"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_SHARPE_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    mv AS (
        SELECT event_type,
               v - LAG(v) OVER (PARTITION BY event_type ORDER BY d) AS dv
        FROM daily
    )
    SELECT event_type, CAST(count(dv) AS BIGINT) AS n_moves,
           COALESCE(round(sqrt(365.0) * avg(dv) / stddev_samp(dv), 6) + 0.0,
                    {NULLF}) AS sharpe
    FROM mv WHERE dv IS NOT NULL GROUP BY 1 ORDER BY 1
"""


def q_id_gaps_events(sf_dir: str) -> pd.DataFrame:
    """Sequence-integrity audit: the 50 largest runs of MISSING event_ids
    within the 'click' stream (gaps between consecutive observed ids),
    largest-first then by position. Distributed as monotone id-range
    partitions: each partition emits its INTERNAL gaps vectorized plus its
    (min,max) — cross-partition boundary gaps fold on the driver from P
    tiny rows, so no global sort happens. Top-50 is a per-partition
    partial + driver merge."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_id", "event_type"])
    clicks = ev.map_batches(
        lambda b: b.loc[b["event_type"] == "click", ["event_id"]],
        batch_format="pandas")
    n_total = int(pq.read_metadata(f"{sf_dir}/events.parquet").num_rows)
    P = _NP

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__rng"] = (b["event_id"].to_numpy(np.int64) * P
                      // max(n_total, 1)).clip(0, P - 1)
        return b

    def local(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for rng, g in part.groupby("__rng", sort=False):
            ids = np.sort(g["event_id"].to_numpy(np.int64))
            d = np.diff(ids)
            at = np.nonzero(d > 1)[0]
            for i in at:
                rows.append((int(rng), int(ids[i] + 1), int(ids[i + 1] - 1),
                             0))
            rows.append((int(rng), int(ids[0]), int(ids[-1]), 1))
        return pd.DataFrame(rows, columns=["__rng", "a", "b", "is_span"])

    parts = keyed_map_partitions(clicks.map_batches(assign,
                                                    batch_format="pandas"),
                                 ["__rng"], local,
                                 num_partitions=P).to_pandas()
    gaps = parts[parts["is_span"] == 0][["a", "b"]].copy()
    spans = parts[parts["is_span"] == 1].sort_values("__rng")
    # boundary gaps between consecutive non-empty partitions
    brows = []
    prev_max = None
    for _, r in spans.iterrows():
        if prev_max is not None and r["a"] > prev_max + 1:
            brows.append((prev_max + 1, r["a"] - 1))
        prev_max = r["b"]
    if brows:
        gaps = pd.concat([gaps, pd.DataFrame(brows, columns=["a", "b"])],
                         ignore_index=True)
    gaps["gap_len"] = (gaps["b"] - gaps["a"] + 1).astype(np.int64)
    out = gaps.sort_values(["gap_len", "a"], ascending=[False, True]) \
        .head(50)[["a", "b", "gap_len"]].astype(np.int64)
    return out.rename(columns={"a": "gap_start", "b": "gap_end"}) \
        .reset_index(drop=True)


SQL_ID_GAPS = """
    WITH c AS (
        SELECT event_id,
               LAG(event_id) OVER (ORDER BY event_id) AS prev_id
        FROM events WHERE event_type = 'click'
    )
    SELECT CAST(prev_id + 1 AS BIGINT) AS gap_start,
           CAST(event_id - 1 AS BIGINT) AS gap_end,
           CAST(event_id - prev_id - 1 AS BIGINT) AS gap_len
    FROM c WHERE prev_id IS NOT NULL AND event_id - prev_id > 1
    ORDER BY gap_len DESC, gap_start LIMIT 50
"""


# ---------------------------------------------------------------------------
# quadratic trend / zero-floored stock balance / weekday seasonal adjustment
# ---------------------------------------------------------------------------

def q_quadratic_trend_daily(sf_dir: str) -> pd.DataFrame:
    """Degree-2 polynomial trend per daily series, fit EXACTLY by Cramer's
    rule on the normal equations — six moment sums (n, Σt, Σt², Σt³, Σt⁴,
    Σv, Σvt, Σvt²) fully determine (a,b,c), so both engines evaluate the
    same closed form and the oracle needs no linear-algebra library.
    t = whole days since each series' first day (keeps the moments small).
    Moments pre-reduce per batch; one row per (series, partial) crosses."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            t = ((g["d"].astype("datetime64[us]").astype("int64")
                  - g["d"].astype("datetime64[us]").astype("int64").min())
                 // DAY_US).to_numpy(np.float64)
            v = g["v"].to_numpy(np.float64)
            n = float(len(v))
            s1, s2, s3, s4 = (t.sum(), (t**2).sum(), (t**3).sum(),
                              (t**4).sum())
            b0, b1, b2 = v.sum(), (v*t).sum(), (v*t*t).sum()
            A = np.array([[n, s1, s2], [s1, s2, s3], [s2, s3, s4]])
            det = np.linalg.det(A)
            if abs(det) < 1e-9:
                rows.append((et, int(n), np.nan, np.nan, np.nan))
                continue
            def rep(col, bv=np.array([b0, b1, b2])):
                M = A.copy(); M[:, col] = bv
                return np.linalg.det(M)
            a, b, c = rep(0) / det, rep(1) / det, rep(2) / det
            rows.append((et, int(n), np.round(a, 6) + 0.0,
                         np.round(b, 6) + 0.0, np.round(c, 8) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "coef_a", "coef_b", "coef_c"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["coef_a", "coef_b", "coef_c"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_QUADRATIC_TREND = f"""
    WITH daily AS ({_DAILY_SQL}),
    tt AS (
        SELECT event_type, v,
               CAST(datediff('day',
                    min(d) OVER (PARTITION BY event_type), d) AS DOUBLE)
                   AS t
        FROM daily
    ),
    m AS (
        SELECT event_type, count(*)::DOUBLE AS n, sum(t) AS s1,
               sum(t*t) AS s2, sum(t*t*t) AS s3, sum(t*t*t*t) AS s4,
               sum(v) AS b0, sum(v*t) AS b1, sum(v*t*t) AS b2
        FROM tt GROUP BY 1
    ),
    dets AS (
        SELECT event_type, n,
               n*(s2*s4 - s3*s3) - s1*(s1*s4 - s3*s2) + s2*(s1*s3 - s2*s2)
                   AS det,
               b0*(s2*s4 - s3*s3) - s1*(b1*s4 - s3*b2)
                   + s2*(b1*s3 - s2*b2) AS det_a,
               n*(b1*s4 - b2*s3) - b0*(s1*s4 - s3*s2)
                   + s2*(s1*b2 - s2*b1) AS det_b,
               n*(s2*b2 - s3*b1) - s1*(s1*b2 - b1*s2)
                   + b0*(s1*s3 - s2*s2) AS det_c
        FROM m
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           COALESCE(CASE WHEN abs(det) >= 1e-9
                         THEN round(det_a / det, 6) + 0.0 END, {NULLF})
               AS coef_a,
           COALESCE(CASE WHEN abs(det) >= 1e-9
                         THEN round(det_b / det, 6) + 0.0 END, {NULLF})
               AS coef_b,
           COALESCE(CASE WHEN abs(det) >= 1e-9
                         THEN round(det_c / det, 8) + 0.0 END, {NULLF})
               AS coef_c
    FROM dets ORDER BY 1
"""


def q_stock_balance_daily(sf_dir: str) -> pd.DataFrame:
    """Zero-floored running balance (inventory semantics: demand can't
    drive stock negative): S_t = max(0, S_{t−1} + Δv_t). The recursion is
    NOT a prefix sum, but has the exact closed form
    S_t = P_t − min(0, min_{j≤t} P_j) with P the plain cumsum — which IS
    window-expressible, so the oracle needs no recursion and the kernel
    stays one vectorized pass. Flows are the day-over-day moves of the
    daily series (first day flows its own value)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            v = g["v"].to_numpy(np.float64)
            flow = np.diff(v, prepend=0.0)
            flow[0] = v[0]
            P = np.cumsum(flow)
            runmin = np.minimum.accumulate(P)
            bal = P - np.minimum(runmin, 0.0)
            outs.append(pd.DataFrame({
                "event_type": g["event_type"], "d": g["d"],
                "flow": np.round(flow, 6) + 0.0,
                "balance": np.round(bal, 6) + 0.0}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "flow", "balance"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_STOCK_BALANCE = f"""
    WITH daily AS ({_DAILY_SQL}),
    f AS (
        SELECT event_type, d,
               COALESCE(v - LAG(v) OVER w, v) AS flow
        FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
    ),
    p AS (
        SELECT event_type, d, flow,
               sum(flow) OVER w2 AS cum
        FROM f WINDOW w2 AS (PARTITION BY event_type ORDER BY d
                             ROWS UNBOUNDED PRECEDING)
    )
    SELECT event_type, d, round(flow, 6) + 0.0 AS flow,
           round(cum - least(min(cum) OVER w2, 0), 6) + 0.0 AS balance
    FROM p WINDOW w2 AS (PARTITION BY event_type ORDER BY d
                         ROWS UNBOUNDED PRECEDING)
"""


def q_weekday_adjust_daily(sf_dir: str) -> pd.DataFrame:
    """Weekday seasonal ADJUSTMENT (not just the profile): per series,
    v_adj = v − mean(v | same weekday) + mean(v) — removes the day-of-week
    effect while preserving the level. Both factor means are per-series
    aggregates computed inside one co-located kernel (grouped transform,
    no second shuffle); the oracle is two nested window averages."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        part = part.copy()
        part["dow"] = part["d"].dt.dayofweek.astype(np.int64)
        g = part.groupby("event_type", sort=False)
        grand = g["v"].transform("mean")
        dowm = part.groupby(["event_type", "dow"], sort=False)["v"] \
            .transform("mean")
        part["v_adj"] = np.round(
            part["v"].to_numpy(np.float64) - dowm.to_numpy(np.float64)
            + grand.to_numpy(np.float64), 6) + 0.0
        return part[["event_type", "d", "v", "v_adj"]]

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_WEEKDAY_ADJUST = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           round(v - avg(v) OVER (PARTITION BY event_type, isodow(d))
                   + avg(v) OVER (PARTITION BY event_type), 6) + 0.0
               AS v_adj
    FROM daily
"""


# ---------------------------------------------------------------------------
# AR(1) fit / partial-pooling shrinkage / exponential inter-arrival KS
# ---------------------------------------------------------------------------

def q_ar1_forecast_daily(sf_dir: str) -> pd.DataFrame:
    """Exact AR(1)-with-intercept fit per daily series: OLS of v_t on
    v_{t-1} (phi = Σ(x−x̄)(y−ȳ)/Σ(x−x̄)², c = ȳ − φx̄ — the same closed
    form DuckDB's regr_slope/regr_intercept evaluate), plus the one-step
    forecast c + φ·v_T. Pairs are formed inside the co-located partition
    kernel; only (series, 4 floats) rows cross the exchange."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            if len(v) < 3:
                rows.append((et, max(len(v) - 1, 0), np.nan, np.nan, np.nan))
                continue
            x, y = v[:-1], v[1:]
            xm, ym = x.mean(), y.mean()
            sxx = ((x - xm) ** 2).sum()
            if sxx < 1e-12:
                rows.append((et, len(x), np.nan, np.nan, np.nan))
                continue
            phi = ((x - xm) * (y - ym)).sum() / sxx
            c = ym - phi * xm
            rows.append((et, len(x), np.round(phi, 6) + 0.0,
                         np.round(c, 6) + 0.0,
                         np.round(c + phi * v[-1], 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_pairs", "phi",
                                           "intercept", "next_forecast"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_pairs"] = out["n_pairs"].astype(np.int64)
    out = _fill(out, ["phi", "intercept", "next_forecast"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_AR1_FORECAST = f"""
    WITH daily AS ({_DAILY_SQL}),
    p AS (
        SELECT event_type, v,
               LAG(v) OVER (PARTITION BY event_type ORDER BY d) AS x
        FROM daily
    ),
    fit AS (
        SELECT event_type, count(*) AS n_pairs,
               regr_slope(v, x) AS phi, regr_intercept(v, x) AS c
        FROM p WHERE x IS NOT NULL GROUP BY 1
    ),
    last AS (SELECT event_type, arg_max(v, d) AS v_last FROM daily GROUP BY 1)
    SELECT f.event_type, CAST(f.n_pairs AS BIGINT) AS n_pairs,
           COALESCE(CASE WHEN f.n_pairs >= 2
                         THEN round(f.phi, 6) + 0.0 END, {NULLF}) AS phi,
           COALESCE(CASE WHEN f.n_pairs >= 2
                         THEN round(f.c, 6) + 0.0 END, {NULLF}) AS intercept,
           COALESCE(CASE WHEN f.n_pairs >= 2
                         THEN round(f.c + f.phi * l.v_last, 6) + 0.0 END,
                    {NULLF}) AS next_forecast
    FROM fit f JOIN last l USING (event_type) ORDER BY 1
"""


def q_pooled_shrinkage_daily(sf_dir: str) -> pd.DataFrame:
    """Empirical-Bayes partial pooling of per-series daily means toward the
    grand mean (one-way random-effects shrinkage, cf. Gelman & Hill ch. 12):
    τ² = max(0, var(m_i) − s²_pooled·mean(1/n_i)) by method of moments,
    shrink_i = τ²/(τ² + s²_pooled/n_i), m̃_i = gm + shrink_i·(m_i − gm).
    Engine side: one map-side (n, Σv, Σv²) combine per series — the k-row
    moment table is the only thing that leaves the cluster."""
    ev = _bucket_series(sf_dir, DAY_US, "d")

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["v2"] = b["v"].to_numpy(np.float64) ** 2
        b["n"] = 1.0
        return b[["event_type", "n", "v", "v2"]]

    agg = hash_aggregate(ev.map_batches(moments, batch_format="pandas"),
                         ["event_type"],
                         {"n": ("n", "sum"), "s": ("v", "sum"),
                          "ss": ("v2", "sum")}, num_partitions=_NP)
    g = agg.to_pandas().sort_values("event_type").reset_index(drop=True)
    n = g["n"].to_numpy(np.float64)
    m = g["s"].to_numpy(np.float64) / n
    s2 = (g["ss"].to_numpy(np.float64) - n * m * m) / (n - 1.0)
    gm = m.mean()
    vb = m.var(ddof=1)
    s2p = ((n - 1.0) * s2).sum() / (n.sum() - len(n))
    tau2 = max(0.0, vb - s2p * (1.0 / n).mean())
    shrink = tau2 / (tau2 + s2p / n)
    return pd.DataFrame({
        "event_type": g["event_type"],
        "n_days": n.astype(np.int64),
        "mean_raw": np.round(m, 6) + 0.0,
        "shrink": np.round(shrink, 6) + 0.0,
        "mean_shrunk": np.round(gm + shrink * (m - gm), 6) + 0.0,
    })


SQL_POOLED_SHRINKAGE = f"""
    WITH daily AS ({_DAILY_SQL}),
    g AS (
        SELECT event_type, count(*)::DOUBLE AS n, avg(v) AS m,
               var_samp(v) AS s2
        FROM daily GROUP BY 1
    ),
    t AS (
        SELECT avg(m) AS gm, var_samp(m) AS vb,
               sum((n - 1) * s2) / (sum(n) - count(*)) AS s2p,
               avg(1.0 / n) AS inv
        FROM g
    ),
    t2 AS (SELECT gm, s2p, greatest(0, vb - s2p * inv) AS tau2 FROM t)
    SELECT g.event_type, CAST(g.n AS BIGINT) AS n_days,
           round(g.m, 6) + 0.0 AS mean_raw,
           round(t2.tau2 / (t2.tau2 + t2.s2p / g.n), 6) + 0.0 AS shrink,
           round(t2.gm + (g.m - t2.gm) * t2.tau2
                 / (t2.tau2 + t2.s2p / g.n), 6) + 0.0 AS mean_shrunk
    FROM g CROSS JOIN t2 ORDER BY 1
"""


def q_interarrival_expfit_events(sf_dir: str) -> pd.DataFrame:
    """Exponential inter-arrival fit + Kolmogorov-Smirnov goodness-of-fit
    per event type: gaps g_i between consecutive events (ordered by
    (ts, event_id)), MLE mean = avg(g) (rounded to 6 so both engines
    evaluate the SAME fitted CDF), and the one-sample KS statistic
    D = max_i max(i/n − F(g_(i)), F(g_(i)) − (i−1)/n) against
    F(g) = 1 − exp(−g/mean). Sorting happens inside the co-located
    partition; one row per type crosses."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "ts", "event_id"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values(["ts", "event_id"])
            us = g["ts"].astype("int64").to_numpy()
            if len(us) < 2:
                rows.append((et, 0, np.nan, np.nan))
                continue
            gaps = np.diff(us) / 1e6
            mg = np.round(gaps.mean(), 6) + 0.0
            gs = np.sort(gaps)
            nn = float(len(gs))
            rn = np.arange(1, len(gs) + 1, dtype=np.float64)
            F = 1.0 - np.exp(-gs / mg)
            ks = np.maximum(rn / nn - F, F - (rn - 1.0) / nn).max()
            rows.append((et, len(gs), mg, np.round(ks, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_gaps",
                                           "mean_gap_s", "ks_stat"])

    out = keyed_map_partitions(ev, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_gaps"] = out["n_gaps"].astype(np.int64)
    out = _fill(out, ["mean_gap_s", "ks_stat"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_INTERARRIVAL_EXPFIT = f"""
    WITH o AS (
        SELECT event_type, ts,
               LAG(ts) OVER (PARTITION BY event_type
                             ORDER BY ts, event_id) AS prev
        FROM events
    ),
    gaps AS (
        SELECT event_type,
               (epoch_us(ts) - epoch_us(prev)) / 1e6 AS g
        FROM o WHERE prev IS NOT NULL
    ),
    m AS (
        SELECT event_type, count(*)::DOUBLE AS n,
               round(avg(g), 6) + 0.0 AS mg
        FROM gaps GROUP BY 1
    ),
    r AS (
        SELECT g.event_type, g.g, m.n, m.mg,
               ROW_NUMBER() OVER (PARTITION BY g.event_type
                                  ORDER BY g.g) AS rn
        FROM gaps g JOIN m USING (event_type)
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_gaps, mg AS mean_gap_s,
           round(max(greatest(rn / n - (1 - exp(-g / mg)),
                              (1 - exp(-g / mg)) - (rn - 1) / n)), 6) + 0.0
               AS ks_stat
    FROM r GROUP BY event_type, n, mg ORDER BY 1
"""


# ---------------------------------------------------------------------------
# lexical richness / Good-Turing spectrum / per-doc word entropy
# ---------------------------------------------------------------------------

def q_lexical_richness_documents(sf_dir: str) -> pd.DataFrame:
    """Lexical-richness profile per source over whitespace tokens: token
    count N, type count V, hapax ratio V1/V, Simpson's repeat index
    D = Σc(c−1)/(N(N−1)) and Yule's K = 10⁴·(Σc² − N)/N². Every sum is an
    INTEGER over the (source, token) count table (one map-side partial +
    one coarse-hash merge), so both engines divide identical integers —
    only the final ratios are float."""
    docs = _read(sf_dir, "documents", ["source", "text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        ex = b[["source"]].copy()
        ex["tok"] = b["text"].str.split()
        ex = ex.explode("tok").dropna(subset=["tok"])
        vc = ex.groupby(["source", "tok"], sort=False).size()
        out = vc.rename("cnt").reset_index()
        return out.rename(columns={"tok": "token"})

    tc = hash_aggregate(docs.map_batches(partial, batch_format="pandas"),
                        ["source", "token"], {"c": ("cnt", "sum")},
                        num_partitions=_NP)

    def spectrum(b: pd.DataFrame) -> pd.DataFrame:
        c = b["c"].to_numpy(np.int64)
        return pd.DataFrame({
            "source": b["source"], "n": c, "v": np.ones_like(c),
            "v1": (c == 1).astype(np.int64), "c2": c * c,
            "cc1": c * (c - 1)})

    s = hash_aggregate(tc.map_batches(spectrum, batch_format="pandas"),
                       ["source"],
                       {"n": ("n", "sum"), "v": ("v", "sum"),
                        "v1": ("v1", "sum"), "c2": ("c2", "sum"),
                        "cc1": ("cc1", "sum")},
                       num_partitions=_NP).to_pandas()
    s = s.sort_values("source").reset_index(drop=True)
    n = s["n"].to_numpy(np.float64)
    return pd.DataFrame({
        "source": s["source"],
        "n_tokens": s["n"].astype(np.int64),
        "n_types": s["v"].astype(np.int64),
        "hapax_ratio": np.round(s["v1"].to_numpy(np.float64)
                                / s["v"].to_numpy(np.float64), 6) + 0.0,
        "simpson_d": np.round(s["cc1"].to_numpy(np.float64)
                              / (n * (n - 1.0)), 6) + 0.0,
        "yule_k": np.round(1e4 * (s["c2"].to_numpy(np.float64) - n)
                           / (n * n), 6) + 0.0,
    })


SQL_LEXICAL_RICHNESS = r"""
    WITH tok AS (
      SELECT source,
             unnest(list_filter(string_split_regex(text, '\s+'),
                                x -> x <> '')) AS token
      FROM documents
    ),
    tc AS (SELECT source, token, count(*) AS c FROM tok GROUP BY 1, 2),
    s AS (
      SELECT source, sum(c) AS n, count(*) AS v,
             sum(CASE WHEN c = 1 THEN 1 ELSE 0 END) AS v1,
             sum(c * c) AS c2, sum(c * (c - 1)) AS cc1
      FROM tc GROUP BY 1
    )
    SELECT source, CAST(n AS BIGINT) AS n_tokens, CAST(v AS BIGINT) AS n_types,
           round(v1 * 1.0 / v, 6) + 0.0 AS hapax_ratio,
           round(cc1 * 1.0 / (n * (n - 1.0)), 6) + 0.0 AS simpson_d,
           round(1e4 * (c2 - n) / (n * n * 1.0), 6) + 0.0 AS yule_k
    FROM s ORDER BY 1
"""


def q_good_turing_documents(sf_dir: str) -> pd.DataFrame:
    """Good-Turing frequency-of-frequencies over the corpus vocabulary:
    N_r = number of token types seen exactly r times (r = 1..10) and the
    adjusted count r* = (r+1)·N_{r+1}/N_r (Gale & Sampson's unsmoothed
    estimator; NULLF where N_{r+1} is absent). The spectrum is two chained
    integer count-aggregates — no floats until the final ratio."""
    docs = _read(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["text"].str.split().explode().dropna().value_counts()
        return pd.DataFrame({"token": vc.index.astype(str),
                             "cnt": vc.to_numpy(np.int64)})

    tc = hash_aggregate(docs.map_batches(partial, batch_format="pandas"),
                        ["token"], {"c": ("cnt", "sum")},
                        num_partitions=_NP)

    def to_r(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"r": b["c"].astype(np.int64), "one": 1})

    ff = hash_aggregate(tc.map_batches(to_r, batch_format="pandas"),
                        ["r"], {"nr": ("one", "sum")},
                        num_partitions=_NP).to_pandas()
    ff = ff.set_index("r")["nr"]
    rows = []
    for r in range(1, 11):
        nr = int(ff.get(r, 0))
        nr1 = int(ff.get(r + 1, 0))
        rstar = (np.round((r + 1.0) * nr1 / nr, 6) + 0.0
                 if nr > 0 and nr1 > 0 else NULLF)
        rows.append((r, nr, rstar))
    return pd.DataFrame(rows, columns=["r", "n_r", "r_star"]) \
        .astype({"r": np.int64, "n_r": np.int64})


SQL_GOOD_TURING = rf"""
    WITH tok AS (
      SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                                x -> x <> '')) AS token
      FROM documents
    ),
    tc AS (SELECT token, count(*) AS c FROM tok GROUP BY 1),
    ff AS (SELECT c AS r, count(*) AS nr FROM tc GROUP BY 1),
    grid AS (SELECT unnest(range(1, 11)) AS r)
    SELECT g.r, CAST(COALESCE(f1.nr, 0) AS BIGINT) AS n_r,
           COALESCE(CASE WHEN f1.nr > 0 AND f2.nr > 0
                         THEN round((g.r + 1.0) * f2.nr / f1.nr, 6) + 0.0
                    END, {NULLF}) AS r_star
    FROM grid g
    LEFT JOIN ff f1 ON f1.r = g.r
    LEFT JOIN ff f2 ON f2.r = g.r + 1
    ORDER BY g.r
"""


def q_word_entropy_documents(sf_dir: str) -> pd.DataFrame:
    """Per-document Shannon word entropy (bits) over whitespace tokens —
    H = log2(n) − (Σ c·log2 c)/n — plus the normalized form H/log2(V)
    (NULLF for single-type or empty docs). Fully per-row parallel: the
    explode/groupby runs inside each batch, nothing shuffles."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def kernel(b: pd.DataFrame) -> pd.DataFrame:
        ex = b[["doc_id"]].copy()
        ex["tok"] = b["text"].str.split()
        ex = ex.explode("tok").dropna(subset=["tok"])
        tc = ex.groupby(["doc_id", "tok"], sort=False).size() \
            .rename("c").reset_index()
        c = tc["c"].to_numpy(np.float64)
        tc["clc"] = c * np.log2(c)
        g = tc.groupby("doc_id", sort=False)
        agg = pd.DataFrame({"n": g["c"].sum(), "v": g["c"].size(),
                            "slc": g["clc"].sum()}).reset_index()
        out = b[["doc_id"]].merge(agg, on="doc_id", how="left")
        n = out["n"].fillna(0).to_numpy(np.float64)
        v = out["v"].fillna(0).to_numpy(np.float64)
        slc = out["slc"].fillna(0).to_numpy(np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            h = np.where(n > 0, np.log2(np.maximum(n, 1.0)) - slc
                         / np.maximum(n, 1.0), np.nan)
            hn = np.where(v > 1, h / np.log2(np.maximum(v, 2.0)), np.nan)
        return pd.DataFrame({
            "doc_id": out["doc_id"],
            "n_tokens": n.astype(np.int64),
            "n_types": v.astype(np.int64),
            "entropy_bits": np.where(np.isnan(h), NULLF,
                                     np.round(h, 6) + 0.0),
            "norm_entropy": np.where(np.isnan(hn), NULLF,
                                     np.round(hn, 6) + 0.0),
        })

    out = docs.map_batches(kernel, batch_format="pandas").to_pandas()
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_WORD_ENTROPY = rf"""
    WITH toks AS (
      SELECT doc_id,
             unnest(list_filter(string_split_regex(text, '\s+'),
                                x -> x <> '')) AS token
      FROM documents
    ),
    tc AS (SELECT doc_id, token, count(*) AS c FROM toks GROUP BY 1, 2),
    d AS (
      SELECT doc_id, sum(c) AS n, count(*) AS v,
             sum(c * log2(c)) AS slc
      FROM tc GROUP BY 1
    )
    SELECT doc.doc_id,
           CAST(COALESCE(d.n, 0) AS BIGINT) AS n_tokens,
           CAST(COALESCE(d.v, 0) AS BIGINT) AS n_types,
           COALESCE(CASE WHEN d.n > 0
                         THEN round(log2(d.n) - d.slc / d.n, 6) + 0.0 END,
                    {NULLF}) AS entropy_bits,
           COALESCE(CASE WHEN d.v > 1
                         THEN round((log2(d.n) - d.slc / d.n)
                                    / log2(d.v), 6) + 0.0 END,
                    {NULLF}) AS norm_entropy
    FROM documents doc LEFT JOIN d USING (doc_id)
    ORDER BY doc.doc_id
"""


# ---------------------------------------------------------------------------
# HyperLogLog gate / variance F-test / cross-sectional z-score
# ---------------------------------------------------------------------------

def q_hll_distinct_gate(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog accuracy gate (distinct_users_kmv_gate pattern): the
    p=12 (4096-register, σ≈1.6%) HLL estimate of distinct users per event
    type must land within 5% (≈3σ) of exact; ``n_exact`` comes from the
    engine's exact-regime KMV sketch and is value-oracled against
    count(DISTINCT). Exercises stages/sketch.py's second mergeable
    distinct carry — fixed 4 KB per group vs KMV's 8·k bytes."""
    from forecastframe_ray.stages.sketch import distinct_sketch, hll_distinct

    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    est = hll_distinct(ev, ["event_type"], "user_id",
                       p=12, num_partitions=8).to_pandas()
    exact = distinct_sketch(ev, ["event_type"], "user_id",
                            k=4096, num_partitions=8).to_pandas()
    assert bool(exact["is_exact"].all())
    out = exact[["event_type"]].copy()
    out["n_exact"] = exact["distinct_est"].astype("int64")
    rel_err = np.abs(est.set_index("event_type").loc[
        out["event_type"], "distinct_est"].to_numpy()
        - out["n_exact"].to_numpy()) / out["n_exact"].to_numpy()
    out["err_ok"] = rel_err <= 0.05
    return out.sort_values("event_type").reset_index(drop=True)


SQL_HLL_DISTINCT_GATE = """
    SELECT event_type, count(DISTINCT user_id) AS n_exact, true AS err_ok
    FROM events GROUP BY 1 ORDER BY 1
"""


def q_variance_ftest_daily(sf_dir: str) -> pd.DataFrame:
    """Two-sample variance F-test between the first and second time-halves
    of each daily series (heteroscedasticity / regime-change screen):
    halves split at row_number ≤ n//2 in day order, F = s₁²/s₂² with
    sample variances. NULLF when either half has < 2 points or s₂² = 0."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n1 = len(v) // 2
            a, b = v[:n1], v[n1:]
            if len(a) < 2 or len(b) < 2:
                rows.append((et, len(a), len(b), np.nan, np.nan, np.nan))
                continue
            v1, v2 = a.var(ddof=1), b.var(ddof=1)
            f = v1 / v2 if v2 > 0 else np.nan
            rows.append((et, len(a), len(b), np.round(v1, 6) + 0.0,
                         np.round(v2, 6) + 0.0,
                         np.round(f, 6) + 0.0 if np.isfinite(f) else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "n1", "n2",
                                           "var1", "var2", "f_stat"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["n1", "n2"]] = out[["n1", "n2"]].astype(np.int64)
    out = _fill(out, ["var1", "var2", "f_stat"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_VARIANCE_FTEST = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    h AS (SELECT event_type, v,
                 CASE WHEN rn <= n // 2 THEN 1 ELSE 2 END AS half FROM r),
    a AS (SELECT event_type, half, count(*) AS cnt, var_samp(v) AS s2
          FROM h GROUP BY 1, 2)
    SELECT a1.event_type,
           CAST(a1.cnt AS BIGINT) AS n1, CAST(a2.cnt AS BIGINT) AS n2,
           COALESCE(CASE WHEN a1.cnt >= 2 AND a2.cnt >= 2
                         THEN round(a1.s2, 6) + 0.0 END, {NULLF}) AS var1,
           COALESCE(CASE WHEN a1.cnt >= 2 AND a2.cnt >= 2
                         THEN round(a2.s2, 6) + 0.0 END, {NULLF}) AS var2,
           COALESCE(CASE WHEN a1.cnt >= 2 AND a2.cnt >= 2 AND a2.s2 > 0
                         THEN round(a1.s2 / a2.s2, 6) + 0.0 END, {NULLF})
               AS f_stat
    FROM a a1 JOIN a a2 ON a1.event_type = a2.event_type
                        AND a1.half = 1 AND a2.half = 2
    ORDER BY 1
"""


def q_cross_sectional_zscore_daily(sf_dir: str) -> pd.DataFrame:
    """Cross-sectional standardization: each series' daily value z-scored
    against the SAME-DAY distribution across all series (the feature that
    makes heterogeneous series comparable in pooled models). Day moments
    reduce first (day-cardinality result, broadcast back) — the
    daily_share_events plan shape. NULLF when the day has < 2 series or
    zero dispersion."""
    daily = _bucket_series(sf_dir, DAY_US, "d").materialize()

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["v2"] = b["v"].to_numpy(np.float64) ** 2
        b["n"] = 1.0
        return b[["d", "n", "v", "v2"]]

    stats = hash_aggregate(daily.map_batches(moments, batch_format="pandas"),
                           ["d"], {"n": ("n", "sum"), "s": ("v", "sum"),
                                   "ss": ("v2", "sum")},
                           num_partitions=4).to_pandas()
    n = stats["n"].to_numpy(np.float64)
    m = stats["s"].to_numpy(np.float64) / n
    with np.errstate(invalid="ignore"):
        sd = np.sqrt(np.maximum(
            (stats["ss"].to_numpy(np.float64) - n * m * m) / (n - 1.0), 0.0))
    mean_map = dict(zip(stats["d"], m))
    sd_map = dict(zip(stats["d"], np.where(n >= 2, sd, np.nan)))

    def z(b: pd.DataFrame) -> pd.DataFrame:
        mu = b["d"].map(mean_map).to_numpy(np.float64)
        s = b["d"].map(sd_map).to_numpy(np.float64)
        v = b["v"].to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            zz = np.where(s > 0, np.round((v - mu) / s, 6) + 0.0, np.nan)
        return pd.DataFrame({"event_type": b["event_type"], "d": b["d"],
                             "v": b["v"], "z_cs": zz})

    out = daily.map_batches(z, batch_format="pandas").to_pandas()
    out = _fill(out, ["z_cs"])
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_CROSS_SECTIONAL_ZSCORE = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           COALESCE(CASE WHEN count(*) OVER w >= 2
                          AND stddev_samp(v) OVER w > 0
                         THEN round((v - avg(v) OVER w)
                                    / stddev_samp(v) OVER w, 6) + 0.0 END,
                    {NULLF}) AS z_cs
    FROM daily WINDOW w AS (PARTITION BY d)
"""


# ---------------------------------------------------------------------------
# bigram LM perplexity / dominant ACF period / holiday-distance calendar
# ---------------------------------------------------------------------------

def q_bigram_perplexity_documents(sf_dir: str) -> pd.DataFrame:
    """Per-doc perplexity under the corpus's add-one-smoothed bigram LM
    (pipelines/tfidf.bigram_doc_logprob) — the quality-filter signal CCNet
    computes with an external LM, here self-trained so it stays
    SQL-oracle-able end to end."""
    from forecastframe_ray.pipelines.tfidf import bigram_doc_logprob

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = bigram_doc_logprob(docs, num_partitions=_NP).to_pandas()
    out = out.astype({"doc_id": "int64", "n_bigrams": "int64"})
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_BIGRAM_PERPLEXITY = r"""
    WITH toks AS (
      SELECT doc_id,
             list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS t
      FROM documents
    ),
    bg AS (
      SELECT doc_id, t[i] AS w1, t[i + 1] AS w2
      FROM toks, unnest(range(1, len(t))) AS u(i)
    ),
    dbg AS (SELECT doc_id, w1, w2, count(*) AS tf FROM bg GROUP BY 1, 2, 3),
    cb AS (SELECT w1, w2, sum(tf) AS c FROM dbg GROUP BY 1, 2),
    c1 AS (SELECT w1, sum(tf) AS n1 FROM dbg GROUP BY 1),
    vocab AS (
      SELECT count(DISTINCT token) AS v
      FROM (SELECT unnest(t) AS token FROM toks)
    ),
    sc AS (
      SELECT dbg.doc_id,
             sum(dbg.tf * ln((cb.c + 1.0) / (c1.n1 + vocab.v))) AS s,
             sum(dbg.tf) AS m
      FROM dbg JOIN cb USING (w1, w2) JOIN c1 USING (w1) CROSS JOIN vocab
      GROUP BY 1
    )
    SELECT doc_id, CAST(m AS BIGINT) AS n_bigrams,
           round(s / m, 6) + 0.0 AS lm_logprob,
           round(exp(-s / m), 6) + 0.0 AS perplexity
    FROM sc ORDER BY doc_id
"""


def q_dominant_period_daily(sf_dir: str) -> pd.DataFrame:
    """Dominant seasonal period per series: the lag k ∈ [2, 10] maximizing
    the sample ACF r_k = Σ_{t>k}(v_t−v̄)(v_{t−k}−v̄) / Σ(v_t−v̄)² — the
    autodetect step before seasonal models pick their period. Argmax is
    taken over r_k ROUNDED to 6 (tie → smallest k) so both engines rank
    identical values."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            dv = v - v.mean()
            den = (dv ** 2).sum()
            best_k, best_r = None, None
            for k in range(2, 11):
                if len(v) <= k or den <= 0:
                    continue
                r = np.round((dv[k:] * dv[:-k]).sum() / den, 6) + 0.0
                if best_r is None or r > best_r:
                    best_k, best_r = k, r
            if best_k is None:
                rows.append((et, 0, np.nan))
            else:
                rows.append((et, best_k, best_r))
        return pd.DataFrame(rows, columns=["event_type", "best_lag",
                                           "best_acf"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["best_lag"] = out["best_lag"].astype(np.int64)
    out = _fill(out, ["best_acf"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DOMINANT_PERIOD = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (SELECT event_type, avg(v) AS mu FROM daily GROUP BY 1),
    r AS (
        SELECT d.event_type, d.v, m.mu,
               ROW_NUMBER() OVER (PARTITION BY d.event_type
                                  ORDER BY d.d) AS rn
        FROM daily d JOIN m USING (event_type)
    ),
    den AS (SELECT event_type, sum((v - mu) * (v - mu)) AS den
            FROM r GROUP BY 1),
    ks AS (SELECT unnest(range(2, 11)) AS k),
    acf AS (
        SELECT a.event_type, ks.k,
               round(sum((a.v - a.mu) * (b.v - b.mu)) / any_value(den.den),
                     6) + 0.0 AS rk
        FROM ks, r a
        JOIN r b ON a.event_type = b.event_type AND a.rn = b.rn + ks.k
        JOIN den ON den.event_type = a.event_type
        WHERE den.den > 0
        GROUP BY 1, 2
    ),
    ranked AS (
        SELECT event_type, k, rk,
               ROW_NUMBER() OVER (PARTITION BY event_type
                                  ORDER BY rk DESC, k) AS pos
        FROM acf
    )
    SELECT event_type, CAST(k AS BIGINT) AS best_lag, rk AS best_acf
    FROM ranked WHERE pos = 1 ORDER BY 1
"""


#: fixed civil-holiday list bracketing the testdata window (deterministic —
#: a calendar feature table, not external data)
_HOLIDAYS = ("2024-01-01", "2024-01-15", "2024-02-14", "2024-02-19")


def q_holiday_distance_daily(sf_dir: str) -> pd.DataFrame:
    """Holiday-distance calendar features per (series, day): is_holiday,
    signed days to the NEAREST holiday (negative = holiday is in the past;
    ties to the future one), from a fixed four-date civil list. The classic
    forecastframe-style calendar enrich, vectorized via searchsorted."""
    daily = _bucket_series(sf_dir, DAY_US, "d")
    hol = np.array([pd.Timestamp(h).value // 1000 for h in _HOLIDAYS],
                   dtype=np.int64)  # epoch us

    def kernel(b: pd.DataFrame) -> pd.DataFrame:
        us = b["d"].astype("datetime64[us]").astype("int64").to_numpy()
        pos = np.searchsorted(hol, us)
        nxt = hol[np.minimum(pos, len(hol) - 1)]
        prv = hol[np.maximum(pos - 1, 0)]
        d_next = (nxt - us) // DAY_US
        d_prev = (us - prv) // DAY_US
        has_next = pos < len(hol)
        has_prev = pos > 0
        # signed distance to nearest: future positive, past negative
        pick_next = has_next & (~has_prev | (d_next <= d_prev))
        nearest = np.where(pick_next, d_next, -d_prev)
        return pd.DataFrame({
            "event_type": b["event_type"], "d": b["d"], "v": b["v"],
            "is_holiday": nearest == 0,
            "days_to_nearest": nearest.astype(np.int64)})

    out = daily.map_batches(kernel, batch_format="pandas").to_pandas()
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


_HOLIDAY_VALUES = ", ".join(f"(DATE '{h}')" for h in _HOLIDAYS)

SQL_HOLIDAY_DISTANCE = f"""
    WITH daily AS ({_DAILY_SQL}),
    hol AS (SELECT * FROM (VALUES {_HOLIDAY_VALUES}) AS t(h)),
    dist AS (
        SELECT d.event_type, d.d, d.v,
               min(CASE WHEN h.h >= d.d
                        THEN datediff('day', CAST(d.d AS DATE), h.h) END)
                   AS d_next,
               min(CASE WHEN h.h < d.d
                        THEN datediff('day', h.h, CAST(d.d AS DATE)) END)
                   AS d_prev
        FROM daily d CROSS JOIN hol h GROUP BY 1, 2, 3
    )
    SELECT event_type, d, v,
           COALESCE(d_next, d_prev + 1) = 0 AS is_holiday,
           CAST(CASE WHEN d_next IS NOT NULL
                      AND (d_prev IS NULL OR d_next <= d_prev)
                     THEN d_next ELSE -d_prev END AS BIGINT)
               AS days_to_nearest
    FROM dist
"""


# ---------------------------------------------------------------------------
# TSB intermittent forecast gate / Hurst R/S exponent / peak-load stats
# ---------------------------------------------------------------------------

def q_tsb_gate_daily(sf_dir: str) -> pd.DataFrame:
    """TSB (Teunter-Syntetos-Babai) forecast, oracle-GATED through the
    α=1, β=½ closed form: with α=1 the size state is the last nonzero
    demand, and the β=½ probability recursion over demand indicators has
    the exact geometric-weight expansion
    p̂ = ½ⁿ⁻¹·I₁ + Σᵢ₌₂ⁿ ½·½ⁿ⁻ⁱ·Iᵢ — which IS window-expressible. The
    intermittent series is the same Mon/Thu/Sat mask the Croston gate
    uses; general (α, β) is pytest-pinned against a direct recursion."""
    from forecastframe_ray.pipelines.search import fit_tsb, score_tsb

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def mask(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        dow = b["d"].dt.dayofweek.to_numpy()
        b["v"] = np.where(np.isin(dow, (0, 3, 5)),
                          b["v"].to_numpy(np.float64), 0.0)
        return b

    masked = daily.map_batches(mask, batch_format="pandas").materialize()
    state = fit_tsb(masked, ["event_type"], "d", "v", alpha=1.0, beta=0.5)
    one = masked.map_batches(
        lambda b: b.drop_duplicates("event_type")[["event_type", "d"]],
        batch_format="pandas")
    scored = score_tsb(one, state, ["event_type"], "d", "v",
                       "tsb_forecast").to_pandas()
    out = scored.drop_duplicates("event_type")[["event_type", "tsb_forecast"]]
    out = _round(out, ["tsb_forecast"], 6)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_TSB_GATE = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (
        SELECT event_type, d,
               CASE WHEN (isodow(d) - 1) IN (0, 3, 5) THEN v ELSE 0 END AS v
        FROM daily
    ),
    r AS (
        SELECT event_type, d, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM m
    ),
    p AS (
        SELECT event_type,
               sum(CASE WHEN v <> 0 THEN
                     CASE WHEN rn = 1 THEN power(0.5, n - 1)
                          ELSE 0.5 * power(0.5, n - rn) END
                   ELSE 0 END) AS phat
        FROM r GROUP BY 1
    ),
    z AS (SELECT event_type, arg_max(v, d) AS zhat
          FROM m WHERE v <> 0 GROUP BY 1)
    SELECT p.event_type,
           round(COALESCE(p.phat * z.zhat, 0), 6) + 0.0 AS tsb_forecast
    FROM p LEFT JOIN z USING (event_type) ORDER BY 1
"""


def q_hurst_rs_daily(sf_dir: str) -> pd.DataFrame:
    """Two-scale rescaled-range (R/S) Hurst estimate per series (Hurst
    1951; Mandelbrot & Wallis 1969): R/S of a segment = range of the
    cumulative mean-adjusted sum / sample std; the exponent is
    H = log2(RS_full / mean(RS of the two time-halves)) — >0.5 persistent,
    <0.5 mean-reverting. Segments split at row n//2 like the F-test;
    NULLF when any segment has < 2 points or zero dispersion."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def rs(seg: np.ndarray) -> float:
        if len(seg) < 2:
            return np.nan
        sd = seg.std(ddof=1)
        if sd <= 0:
            return np.nan
        c = np.cumsum(seg - seg.mean())
        return (c.max() - c.min()) / sd

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n1 = len(v) // 2
            rf, r1, r2 = rs(v), rs(v[:n1]), rs(v[n1:])
            if np.isnan(rf) or np.isnan(r1) or np.isnan(r2):
                rows.append((et, np.nan, np.nan, np.nan))
                continue
            half = (r1 + r2) / 2.0
            rows.append((et, np.round(rf, 6) + 0.0,
                         np.round(half, 6) + 0.0,
                         np.round(np.log2(rf / half), 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "rs_full",
                                           "rs_half_mean", "hurst"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = _fill(out, ["rs_full", "rs_half_mean", "hurst"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_HURST_RS = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    segs AS (
        SELECT event_type, d, v, 0 AS seg FROM r
        UNION ALL
        SELECT event_type, d, v,
               CASE WHEN rn <= n // 2 THEN 1 ELSE 2 END AS seg
        FROM r
    ),
    mu AS (SELECT event_type, seg, avg(v) AS mu, stddev_samp(v) AS sd,
                  count(*) AS cnt
           FROM segs GROUP BY 1, 2),
    c AS (
        SELECT s.event_type, s.seg,
               sum(s.v - mu.mu) OVER (PARTITION BY s.event_type, s.seg
                                      ORDER BY s.d
                                      ROWS UNBOUNDED PRECEDING) AS cum
        FROM segs s JOIN mu USING (event_type, seg)
    ),
    rng AS (SELECT event_type, seg, max(cum) - min(cum) AS rng
            FROM c GROUP BY 1, 2),
    rsv AS (
        SELECT r.event_type, r.seg,
               CASE WHEN mu.cnt >= 2 AND mu.sd > 0
                    THEN r.rng / mu.sd END AS rs
        FROM rng r JOIN mu USING (event_type, seg)
    ),
    piv AS (
        SELECT event_type,
               max(CASE WHEN seg = 0 THEN rs END) AS rf,
               avg(CASE WHEN seg IN (1, 2) THEN rs END) AS rh,
               bool_and(rs IS NOT NULL) AS ok
        FROM rsv GROUP BY 1
    )
    SELECT event_type,
           COALESCE(CASE WHEN ok THEN round(rf, 6) + 0.0 END, {NULLF})
               AS rs_full,
           COALESCE(CASE WHEN ok THEN round(rh, 6) + 0.0 END, {NULLF})
               AS rs_half_mean,
           COALESCE(CASE WHEN ok THEN round(log2(rf / rh), 6) + 0.0 END,
                    {NULLF}) AS hurst
    FROM piv ORDER BY 1
"""


def q_peak_stats_daily(sf_dir: str) -> pd.DataFrame:
    """Peak/load profile per series: the peak day (earliest on ties), peak
    value, mean, peak-to-mean ratio and load factor (mean/peak) — the
    capacity-planning summary of a traffic series."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values(["v", "d"], ascending=[False, True])
            peak_d, peak_v = g.iloc[0]["d"], float(g.iloc[0]["v"])
            mean_v = float(g["v"].mean())
            ptm = peak_v / mean_v if mean_v != 0 else np.nan
            lf = mean_v / peak_v if peak_v != 0 else np.nan
            rows.append((et, peak_d, np.round(peak_v, 6) + 0.0,
                         np.round(mean_v, 6) + 0.0,
                         np.round(ptm, 6) + 0.0 if np.isfinite(ptm)
                         else np.nan,
                         np.round(lf, 6) + 0.0 if np.isfinite(lf)
                         else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "peak_day",
                                           "peak_v", "mean_v",
                                           "peak_to_mean", "load_factor"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = _fill(out, ["peak_to_mean", "load_factor"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_PEAK_STATS = f"""
    WITH daily AS ({_DAILY_SQL}),
    s AS (
        SELECT event_type, min(d) FILTER (WHERE is_peak) AS peak_day,
               max(v) AS peak_v, avg(v) AS mean_v
        FROM (SELECT event_type, d, v,
                     v = max(v) OVER (PARTITION BY event_type) AS is_peak
              FROM daily)
        GROUP BY 1
    )
    SELECT event_type, peak_day,
           round(peak_v, 6) + 0.0 AS peak_v,
           round(mean_v, 6) + 0.0 AS mean_v,
           COALESCE(CASE WHEN mean_v <> 0
                         THEN round(peak_v / mean_v, 6) + 0.0 END, {NULLF})
               AS peak_to_mean,
           COALESCE(CASE WHEN peak_v <> 0
                         THEN round(mean_v / peak_v, 6) + 0.0 END, {NULLF})
               AS load_factor
    FROM s ORDER BY 1
"""


# ---------------------------------------------------------------------------
# flagship-path pages oracle / strict 3-step funnel / circular hour stats
# ---------------------------------------------------------------------------

#: entry()'s deterministic page-synthesis constants (__ray_entry__.py)
_PAGE_EPOCH_US = 1_704_067_200_000_000
_PAGE_STRIDE = 9_999_999_989
_PAGE_SPAN_US = 28 * DAY_US


def q_host_tier_1d_pages(sf_dir: str) -> pd.DataFrame:
    """THE flagship path under a full SQL value-hash: documents →
    deterministic Common-Crawl-style page synthesis (entry()'s exact
    formulas) → html-binary text extraction (extract.py's tag-strip /
    unescape / whitespace-collapse contract) → url host keys → salted 1d
    retention tier over text_bytes. The oracle recomputes extraction
    byte-length and the tier algebra in pure SQL — so the html→text→tier
    chain is hash-pinned end to end, not just pytest byte-identity."""
    import html as _html
    import pyarrow as pa

    from forecastframe_ray.pipelines import web

    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])

    def to_pages(b: pd.DataFrame) -> pa.Table:
        urls, htmls, ts = [], [], []
        for doc_id, text, source in zip(b["doc_id"], b["text"], b["source"]):
            host = f"{source}.example.com".lower().replace(" ", "-")
            urls.append(f"https://{host}/doc/{doc_id}")
            htmls.append((
                f"<html><head><title>doc {doc_id}</title></head>"
                f"<body><p>{_html.escape(text)}</p></body></html>"
            ).encode("utf-8"))
            ts.append(_PAGE_EPOCH_US
                      + (int(doc_id) * _PAGE_STRIDE) % _PAGE_SPAN_US)
        return pa.table({
            "url": pa.array(urls, type=pa.string()),
            "warc_ts": pa.array(ts, type=pa.timestamp("us")),
            "html": pa.array(htmls, type=pa.binary()),
        })

    pages = docs.map_batches(to_pages, batch_format="pandas")
    prepared = web.prepare_series(pages)
    tier = web.build_tiers(prepared, series_keys=("host",),
                           num_salts=4)["1d"]
    df = tier.to_pandas()[["host", "bucket_us", "pages", "sum_val",
                           "min_val", "max_val", "mean_val", "std_val"]]
    df = _round(df, ["sum_val", "min_val", "max_val", "mean_val"], 6)
    df["std_val"] = np.round(df["std_val"].to_numpy(np.float64), 6)
    df = _fill(df, ["std_val"])
    return df.sort_values(["host", "bucket_us"]).reset_index(drop=True)


SQL_HOST_TIER_1D_PAGES = rf"""
    WITH pages AS (
        SELECT lower(replace(source, ' ', '-')) || '.example.com' AS host,
               ({_PAGE_EPOCH_US} + (doc_id * {_PAGE_STRIDE})
                % {_PAGE_SPAN_US}) AS ts_us,
               octet_length(encode('doc ' || doc_id || ' ' ||
                   trim(regexp_replace(text, '\s+', ' ', 'g'))))
                   AS text_bytes
        FROM documents
    )
    SELECT host, (ts_us // {DAY_US}) * {DAY_US} AS bucket_us,
           CAST(count(*) AS DOUBLE) AS pages,
           round(sum(text_bytes), 6) AS sum_val,
           round(min(text_bytes), 6) AS min_val,
           round(max(text_bytes), 6) AS max_val,
           round(avg(text_bytes), 6) AS mean_val,
           COALESCE(round(stddev_samp(text_bytes), 6), {NULLF}) AS std_val
    FROM pages GROUP BY 1, 2 ORDER BY 1, 2
"""


def q_funnel3_strict_events(sf_dir: str) -> pd.DataFrame:
    """Strictly-ordered 3-step funnel (view → click → purchase, each step
    strictly AFTER the previous one's first completion — the sequential-
    pattern semantics a bare per-type min-ts funnel gets wrong when steps
    interleave). Per-user chain mins compute inside one co-located
    partition via vectorized merges; one count row leaves."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        v = part[part["event_type"] == "view"].groupby("user_id")["ts"] \
            .min().rename("t1").reset_index()
        c = part[part["event_type"] == "click"].merge(v, on="user_id")
        c = c[c["ts"] > c["t1"]].groupby("user_id")["ts"] \
            .min().rename("t2").reset_index()
        p = part[part["event_type"] == "purchase"].merge(c, on="user_id")
        p = p[p["ts"] > p["t2"]]
        return pd.DataFrame({"s1": [len(v)], "s2": [len(c)],
                             "s3": [p["user_id"].nunique()]})

    parts = keyed_map_partitions(ev, ["user_id"], kernel,
                                 num_partitions=_NP).to_pandas()
    s1, s2, s3 = (int(parts["s1"].sum()), int(parts["s2"].sum()),
                  int(parts["s3"].sum()))
    return pd.DataFrame({
        "n_view": [s1], "n_click_after": [s2], "n_purchase_after": [s3],
        "rate_step2": [np.round(s2 / s1, 6) + 0.0 if s1 else NULLF],
        "rate_step3": [np.round(s3 / s2, 6) + 0.0 if s2 else NULLF],
    }).astype({"n_view": np.int64, "n_click_after": np.int64,
               "n_purchase_after": np.int64})


SQL_FUNNEL3_STRICT = f"""
    WITH v AS (SELECT user_id, min(ts) AS t1 FROM events
               WHERE event_type = 'view' GROUP BY 1),
    c AS (SELECT e.user_id, min(e.ts) AS t2
          FROM events e JOIN v ON e.user_id = v.user_id AND e.ts > v.t1
          WHERE e.event_type = 'click' GROUP BY 1),
    p AS (SELECT DISTINCT e.user_id
          FROM events e JOIN c ON e.user_id = c.user_id AND e.ts > c.t2
          WHERE e.event_type = 'purchase')
    SELECT (SELECT count(*) FROM v) AS n_view,
           (SELECT count(*) FROM c) AS n_click_after,
           (SELECT count(*) FROM p) AS n_purchase_after,
           round((SELECT count(*) FROM c) * 1.0
                 / (SELECT count(*) FROM v), 6) + 0.0 AS rate_step2,
           round((SELECT count(*) FROM p) * 1.0
                 / (SELECT count(*) FROM c), 6) + 0.0 AS rate_step3
"""


def q_circular_hour_events(sf_dir: str) -> pd.DataFrame:
    """Circular (directional) statistics of event time-of-day per type:
    mean hour via atan2(Σsin θ, Σcos θ) with θ = 2π·(us-of-day)/86400e6,
    and the resultant length R = |Σe^{iθ}|/n (1 = perfectly peaked, 0 =
    uniform) — the correct way to average times that wrap at midnight.
    Sin/cos sums pre-reduce per batch; one row per type crosses."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        us_day = (b["ts"].astype("int64").to_numpy() % DAY_US) \
            .astype(np.float64)
        theta = 2.0 * np.pi * us_day / float(DAY_US)
        return pd.DataFrame({"event_type": b["event_type"],
                             "s": np.sin(theta), "c": np.cos(theta),
                             "n": 1.0})

    agg = hash_aggregate(ev.map_batches(partial, batch_format="pandas"),
                         ["event_type"],
                         {"s": ("s", "sum"), "c": ("c", "sum"),
                          "n": ("n", "sum")}, num_partitions=_NP).to_pandas()
    s = agg["s"].to_numpy(np.float64)
    c = agg["c"].to_numpy(np.float64)
    n = agg["n"].to_numpy(np.float64)
    mean_h = (np.arctan2(s, c) % (2.0 * np.pi)) * 24.0 / (2.0 * np.pi)
    return pd.DataFrame({
        "event_type": agg["event_type"],
        "n_events": n.astype(np.int64),
        "mean_hour": np.round(mean_h, 6) + 0.0,
        "resultant_r": np.round(np.sqrt(s * s + c * c) / n, 6) + 0.0,
    }).sort_values("event_type").reset_index(drop=True)


SQL_CIRCULAR_HOUR = f"""
    WITH t AS (
        SELECT event_type,
               2 * pi() * (epoch_us(ts) % {DAY_US}) / {DAY_US} AS theta
        FROM events
    ),
    a AS (SELECT event_type, sum(sin(theta)) AS s, sum(cos(theta)) AS c,
                 count(*)::DOUBLE AS n
          FROM t GROUP BY 1)
    SELECT event_type, CAST(n AS BIGINT) AS n_events,
           round(fmod(atan2(s, c) + 2 * pi(), 2 * pi())
                 * 24 / (2 * pi()), 6) + 0.0 AS mean_hour,
           round(sqrt(s * s + c * c) / n, 6) + 0.0 AS resultant_r
    FROM a ORDER BY 1
"""


# ---------------------------------------------------------------------------
# matrix-profile top motif / Pareto-frontier skyline / last-touch attribution
# ---------------------------------------------------------------------------

def q_motif_daily_events(sf_dir: str) -> pd.DataFrame:
    """Top motif per daily series (the Matrix Profile primitive, Yeh et al.
    2016): the pair of NON-OVERLAPPING 7-day windows minimizing
    z-normalized squared Euclidean distance. Windows index by row number
    in day order; argmin over d² ROUNDED to 6 with (a, b) tie-break so
    both engines rank identical values. Zero-dispersion windows are
    excluded (z undefined)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    M = 7

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            if len(v) < 2 * M:
                rows.append((et, 0, 0, np.nan))
                continue
            X = np.lib.stride_tricks.sliding_window_view(v, M)
            mu = X.mean(axis=1, keepdims=True)
            sd = X.std(axis=1, ddof=1, keepdims=True)
            ok = sd[:, 0] > 0
            best = None
            Z = np.where(sd > 0, (X - mu) / np.where(sd > 0, sd, 1.0), 0.0)
            nw = len(X)
            for a in range(nw):
                if not ok[a]:
                    continue
                for b in range(a + M, nw):
                    if not ok[b]:
                        continue
                    d2 = np.round(((Z[a] - Z[b]) ** 2).sum(), 6) + 0.0
                    if best is None or (d2, a, b) < best:
                        best = (d2, a, b)
            if best is None:
                rows.append((et, 0, 0, np.nan))
            else:
                rows.append((et, best[1] + 1, best[2] + 1, best[0]))
        return pd.DataFrame(rows, columns=["event_type", "a_start",
                                           "b_start", "dist2"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["a_start", "b_start"]] = out[["a_start", "b_start"]] \
        .astype(np.int64)
    out = _fill(out, ["dist2"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_MOTIF_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) AS rn
        FROM daily
    ),
    w AS (
        SELECT event_type, rn AS a,
               avg(v) OVER f AS mu, stddev_samp(v) OVER f AS sd,
               count(*) OVER f AS cnt
        FROM r
        WINDOW f AS (PARTITION BY event_type ORDER BY rn
                     ROWS BETWEEN CURRENT ROW AND 6 FOLLOWING)
    ),
    z AS (
        SELECT w.event_type, w.a, r.rn - w.a AS k, (r.v - w.mu) / w.sd AS z
        FROM w JOIN r ON r.event_type = w.event_type
                      AND r.rn BETWEEN w.a AND w.a + 6
        WHERE w.cnt = 7 AND w.sd > 0
    ),
    d2 AS (
        SELECT za.event_type, za.a, zb.a AS b,
               round(sum((za.z - zb.z) * (za.z - zb.z)), 6) + 0.0 AS d2
        FROM z za JOIN z zb ON za.event_type = zb.event_type
                            AND za.k = zb.k AND zb.a >= za.a + 7
        GROUP BY 1, 2, 3
    ),
    best AS (
        SELECT event_type, a, b, d2,
               ROW_NUMBER() OVER (PARTITION BY event_type
                                  ORDER BY d2, a, b) AS pos
        FROM d2
    )
    SELECT r.event_type,
           CAST(COALESCE(best.a, 0) AS BIGINT) AS a_start,
           CAST(COALESCE(best.b, 0) AS BIGINT) AS b_start,
           COALESCE(best.d2, {NULLF}) AS dist2
    FROM (SELECT DISTINCT event_type FROM daily) r
    LEFT JOIN best ON best.event_type = r.event_type AND best.pos = 1
    ORDER BY 1
"""


def q_pareto_frontier_orders(sf_dir: str) -> pd.DataFrame:
    """2-D skyline (Pareto frontier) of orders on (totalprice ↑ better,
    orderdate ↓ better): rows no other order STRICTLY beats on both axes.
    Distributed via the sort-skyline identity — per-date maxima reduce
    first (date-cardinality result), the running prior-date max broadcasts
    back, and a row survives iff prevmax(date) ≤ price. Never all-pairs."""
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_totalprice"])

    dm = hash_aggregate(orders, ["o_orderdate"],
                        {"mx": ("o_totalprice", "max")},
                        num_partitions=4).to_pandas() \
        .sort_values("o_orderdate").reset_index(drop=True)
    prevmax = dm["mx"].cummax().shift(1)
    pm_map = dict(zip(dm["o_orderdate"], prevmax))

    def keep(b: pd.DataFrame) -> pd.DataFrame:
        pm = b["o_orderdate"].map(pm_map).to_numpy(np.float64)
        mask = np.isnan(pm) | (pm <= b["o_totalprice"].to_numpy(np.float64))
        return b[mask]

    out = orders.map_batches(keep, batch_format="pandas").to_pandas()
    out = out.astype({"o_orderkey": np.int64})
    return out.sort_values("o_orderkey").reset_index(drop=True)


SQL_PARETO_FRONTIER = """
    WITH dm AS (SELECT o_orderdate AS dd, max(o_totalprice) AS mx
                FROM orders GROUP BY 1),
    rm AS (SELECT dd, max(mx) OVER (ORDER BY dd
                ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING)
               AS prevmax
           FROM dm)
    SELECT o.o_orderkey, o.o_orderdate, o.o_totalprice
    FROM orders o JOIN rm ON o.o_orderdate = rm.dd
    WHERE rm.prevmax IS NULL OR rm.prevmax <= o.o_totalprice
    ORDER BY 1
"""


def q_attribution_events(sf_dir: str) -> pd.DataFrame:
    """Last-touch attribution: every purchase credits the user's most
    recent STRICTLY-earlier non-purchase event (ties at equal ts broken by
    highest event_id — deterministic on both engines). Per-user chains
    resolve inside one co-located partition via a single searchsorted pass
    over the (ts, event_id)-sorted stream; attributed counts + shares are
    the only rows out."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for uid, g in part.groupby("user_id", sort=False):
            g = g.sort_values(["ts", "event_id"])
            np_mask = (g["event_type"] != "purchase").to_numpy()
            cand_ts = g["ts"].astype("int64").to_numpy()[np_mask]
            cand_type = g["event_type"].to_numpy()[np_mask]
            p_ts = g["ts"].astype("int64").to_numpy()[~np_mask]
            if len(p_ts) == 0 or len(cand_ts) == 0:
                continue
            pos = np.searchsorted(cand_ts, p_ts, side="left") - 1
            valid = pos >= 0
            outs.append(pd.Series(cand_type[pos[valid]]))
        if not outs:
            return pd.DataFrame({"event_type": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        vc = pd.concat(outs, ignore_index=True).value_counts()
        return pd.DataFrame({"event_type": vc.index.astype(str),
                             "n": vc.to_numpy(np.int64)})

    parts = keyed_map_partitions(ev, ["user_id"], kernel,
                                 num_partitions=_NP)
    agg = hash_aggregate(parts, ["event_type"], {"n_attributed": ("n", "sum")},
                         num_partitions=4).to_pandas()
    total = float(agg["n_attributed"].sum())
    agg["share"] = np.round(agg["n_attributed"].to_numpy(np.float64)
                            / total, 6) + 0.0
    agg["n_attributed"] = agg["n_attributed"].astype(np.int64)
    return agg.sort_values("event_type").reset_index(drop=True)


SQL_ATTRIBUTION = """
    WITH p AS (SELECT user_id, ts FROM events WHERE event_type = 'purchase'),
    att AS (
        SELECT (SELECT e.event_type FROM events e
                WHERE e.user_id = p.user_id AND e.event_type <> 'purchase'
                  AND e.ts < p.ts
                ORDER BY e.ts DESC, e.event_id DESC LIMIT 1) AS event_type
        FROM p
    ),
    c AS (SELECT event_type, count(*) AS n_attributed FROM att
          WHERE event_type IS NOT NULL GROUP BY 1)
    SELECT event_type, CAST(n_attributed AS BIGINT) AS n_attributed,
           round(n_attributed * 1.0 / (SELECT sum(n_attributed) FROM c), 6)
               + 0.0 AS share
    FROM c ORDER BY 1
"""


# ---------------------------------------------------------------------------
# top-down forecast reconciliation / JL projection gate / sentence stats
# ---------------------------------------------------------------------------

def q_topdown_forecast_daily(sf_dir: str) -> pd.DataFrame:
    """Hierarchical forecast reconciliation, top-down with historical
    proportions (Hyndman FPP3 §11): the TOTAL series gets the h=1 drift
    forecast T̂ = T_n + (T_n − T_1)/(n−1), then disaggregates by each
    series' share of the historical total — so the bottom forecasts sum
    to the top by construction (the reconciliation identity the rollup
    engine's hierarchy consumers rely on). Day totals and shares are two
    coarse aggregates; only k+n_days rows leave the cluster."""
    daily = _bucket_series(sf_dir, DAY_US, "d")

    tot = hash_aggregate(daily, ["d"], {"T": ("v", "sum")},
                         num_partitions=4).to_pandas().sort_values("d")
    T = tot["T"].to_numpy(np.float64)
    f_total = T[-1] + (T[-1] - T[0]) / (len(T) - 1.0)

    shares = hash_aggregate(daily, ["event_type"], {"sv": ("v", "sum")},
                            num_partitions=4).to_pandas()
    stot = float(shares["sv"].sum())
    sh = shares["sv"].to_numpy(np.float64) / stot
    return pd.DataFrame({
        "event_type": shares["event_type"],
        "share": np.round(sh, 6) + 0.0,
        "topdown_forecast": np.round(f_total * sh, 6) + 0.0,
    }).sort_values("event_type").reset_index(drop=True)


SQL_TOPDOWN_FORECAST = f"""
    WITH daily AS ({_DAILY_SQL}),
    tot AS (SELECT d, sum(v) AS T FROM daily GROUP BY 1),
    drift AS (
        SELECT arg_max(T, d) + (arg_max(T, d) - arg_min(T, d))
               / (count(*) - 1.0) AS f
        FROM tot
    ),
    s AS (SELECT event_type, sum(v) AS sv FROM daily GROUP BY 1),
    st AS (SELECT sum(sv) AS stot FROM s)
    SELECT s.event_type,
           round(s.sv / st.stot, 6) + 0.0 AS share,
           round(drift.f * s.sv / st.stot, 6) + 0.0 AS topdown_forecast
    FROM s CROSS JOIN st CROSS JOIN drift ORDER BY 1
"""


def q_jl_projection_gate_embeddings(sf_dir: str) -> pd.DataFrame:
    """Johnson-Lindenstrauss distortion gate: a deterministic ±1/√16
    sign-projection (splitmix64 of the flat matrix index) maps 64-d
    embeddings to 16-d; for the 100 fixed probe pairs (vec_id 2i, 2i+1,
    i < 100) the squared-distance ratio must land in [0.1, 3.0] (E=1,
    chi²₁₆/16 tails ≪ 1e-4 per pair — and the projection is deterministic,
    so the gate is a fixed fact, not a flake). ``d_exact`` is value-oracled
    against DuckDB's list_distance."""
    from forecastframe_ray.stages.sketch import _mix64

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    sub = emb.filter(lambda r: r["vec_id"] < 200).to_pandas()
    sub = sub.sort_values("vec_id").reset_index(drop=True)
    X = np.stack(sub["embedding"].to_numpy()).astype(np.float64)
    dim, k = X.shape[1], 16
    idx = np.arange(dim * k, dtype=np.uint64)
    R = (np.where(_mix64(idx) >> np.uint64(63), 1.0, -1.0)
         .reshape(dim, k) / np.sqrt(k))
    P = X @ R
    ids = sub["vec_id"].to_numpy(np.int64)
    pos = {int(v): i for i, v in enumerate(ids)}
    rows = []
    for i in range(100):
        a, b = 2 * i, 2 * i + 1
        if a not in pos or b not in pos:
            continue
        dx = X[pos[a]] - X[pos[b]]
        dp = P[pos[a]] - P[pos[b]]
        d2, p2 = float((dx ** 2).sum()), float((dp ** 2).sum())
        ok = True if d2 == 0 else 0.1 <= p2 / d2 <= 3.0
        rows.append((a, b, np.round(np.sqrt(d2), 6) + 0.0, ok))
    return pd.DataFrame(rows, columns=["id_a", "id_b", "d_exact",
                                       "ratio_ok"]) \
        .astype({"id_a": np.int64, "id_b": np.int64})


SQL_JL_PROJECTION_GATE = """
    WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
               FROM embeddings WHERE vec_id < 200),
    p AS (
        SELECT a.vec_id AS id_a, b.vec_id AS id_b,
               round(list_distance(a.v, b.v), 6) + 0.0 AS d_exact
        FROM e a JOIN e b ON b.vec_id = a.vec_id + 1
        WHERE a.vec_id % 2 = 0
    )
    SELECT id_a, id_b, d_exact, true AS ratio_ok FROM p ORDER BY id_a
"""
