"""Oracled query catalog — part ``stats3`` (contiguous split of the former queries.py monolith; order preserved)."""

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
    _round,
)
from forecastframe_ray.pipelines.queries import entry



@entry("memoryless_check_events", sql=lambda: SQL_MEMORYLESS_CHECK)
def q_memoryless_check_events(sf_dir: str) -> pd.DataFrame:
    """Memorylessness audit of inter-arrival gaps per type: under an
    exponential process P(G > a+b | G > a) = P(G > b); compare the
    empirical P(G > 2·med | G > med) against P(G > med) (med = the
    ROUNDED median gap) — equality ⇒ Poisson-like arrivals, excess ⇒
    clustering."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "ts", "event_id"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values(["ts", "event_id"])
            us = g["ts"].astype("int64").to_numpy()
            if len(us) < 3:
                rows.append((et, 0, np.nan, np.nan, np.nan))
                continue
            gaps = np.diff(us) / 1e6
            med = np.round(np.quantile(gaps, 0.5), 6) + 0.0
            n_gt = int((gaps > med).sum())
            n_gt2 = int((gaps > 2 * med).sum())
            p_b = n_gt / len(gaps)
            p_cond = n_gt2 / n_gt if n_gt else np.nan
            rows.append((et, len(gaps), np.round(p_b, 6) + 0.0,
                         np.round(p_cond, 6) + 0.0 if np.isfinite(p_cond)
                         else np.nan,
                         np.round(p_cond / p_b, 6) + 0.0
                         if np.isfinite(p_cond) and p_b > 0 else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "n_gaps",
                                           "p_exceed_med",
                                           "p_cond_exceed",
                                           "memory_ratio"])

    out = keyed_map_partitions(ev, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_gaps"] = out["n_gaps"].astype(np.int64)
    out = _fill(out, ["p_exceed_med", "p_cond_exceed", "memory_ratio"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_MEMORYLESS_CHECK = f"""
    WITH o AS (
        SELECT event_type, ts,
               LAG(ts) OVER (PARTITION BY event_type
                             ORDER BY ts, event_id) AS prev
        FROM events
    ),
    gaps AS (
        SELECT event_type, (epoch_us(ts) - epoch_us(prev)) / 1e6 AS g
        FROM o WHERE prev IS NOT NULL
    ),
    med AS (SELECT event_type, count(*) AS n,
                   round(quantile_cont(g, 0.5), 6) + 0.0 AS med
            FROM gaps GROUP BY 1),
    c AS (
        SELECT g.event_type, any_value(med.n) AS n,
               sum(CASE WHEN g.g > med.med THEN 1 ELSE 0 END)::DOUBLE
                   AS n_gt,
               sum(CASE WHEN g.g > 2 * med.med THEN 1 ELSE 0 END)::DOUBLE
                   AS n_gt2
        FROM gaps g JOIN med USING (event_type)
        GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_gaps,
           round(n_gt / n, 6) + 0.0 AS p_exceed_med,
           COALESCE(CASE WHEN n_gt > 0
                         THEN round(n_gt2 / n_gt, 6) + 0.0 END, {NULLF})
               AS p_cond_exceed,
           COALESCE(CASE WHEN n_gt > 0 AND n_gt / n > 0
                         THEN round((n_gt2 / n_gt) / (n_gt / n), 6) + 0.0
                    END, {NULLF}) AS memory_ratio
    FROM c ORDER BY 1
"""


# ---------------------------------------------------------------------------
# event trigrams / median residual life / exact median CI
# ---------------------------------------------------------------------------

@entry("trigram_sequences_events", sql=lambda: SQL_TRIGRAM_SEQUENCES)
def q_trigram_sequences_events(sf_dir: str) -> pd.DataFrame:
    """Second-order sequence motifs: the 10 most frequent event-type
    trigrams over per-user streams (count desc, lexicographic asc), each
    with its continuation probability P(c | a→b) — the next step up from
    the first-order transition matrix."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    def tri(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in part.groupby("user_id", sort=False):
            t = g.sort_values(["ts", "event_id"])["event_type"].to_numpy()
            if len(t) < 3:
                continue
            outs.append(pd.DataFrame({"a": t[:-2], "b": t[1:-1],
                                      "c": t[2:]}))
        if not outs:
            return pd.DataFrame({"a": pd.Series([], dtype="object"),
                                 "b": pd.Series([], dtype="object"),
                                 "c": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        df = pd.concat(outs, ignore_index=True)
        return df.groupby(["a", "b", "c"], sort=False).size() \
            .rename("n").reset_index()

    tg = hash_aggregate(
        keyed_map_partitions(ev, ["user_id"], tri, num_partitions=_NP),
        ["a", "b", "c"], {"n": ("n", "sum")}, num_partitions=4).to_pandas()
    ab = tg.groupby(["a", "b"])["n"].sum()
    tg["p_cont"] = np.round(
        tg["n"].to_numpy(np.float64)
        / tg.set_index(["a", "b"]).index.map(ab).to_numpy(np.float64),
        6) + 0.0
    tg = tg.sort_values(["n", "a", "b", "c"],
                        ascending=[False, True, True, True]).head(10)
    tg["n"] = tg["n"].astype(np.int64)
    return tg.reset_index(drop=True)


SQL_TRIGRAM_SEQUENCES = """
    WITH s AS (
        SELECT event_type AS a,
               LEAD(event_type, 1) OVER w AS b,
               LEAD(event_type, 2) OVER w AS c
        FROM events WINDOW w AS (PARTITION BY user_id
                                 ORDER BY ts, event_id)
    ),
    t AS (SELECT a, b, c, count(*) AS n FROM s
          WHERE b IS NOT NULL AND c IS NOT NULL GROUP BY 1, 2, 3),
    ab AS (SELECT a, b, sum(n) AS nab FROM t GROUP BY 1, 2)
    SELECT t.a, t.b, t.c, CAST(t.n AS BIGINT) AS n,
           round(t.n * 1.0 / ab.nab, 6) + 0.0 AS p_cont
    FROM t JOIN ab USING (a, b)
    ORDER BY t.n DESC, t.a, t.b, t.c LIMIT 10
"""


@entry("median_residual_life_users", sql=lambda: SQL_MEDIAN_RESIDUAL_LIFE)
def q_median_residual_life_users(sf_dir: str) -> pd.DataFrame:
    """Median residual lifetime at t₀ = 7 days from the Kaplan-Meier
    curve (same lifetime table as kaplan_meier_users): the smallest event
    time t with S(t) ≤ S(7)/2, minus 7 — 'a user who made it a week has
    this much median life left' (NULLF when the curve never falls that
    far). Survival values ROUND to 6 before the comparison."""
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
                         ["t"], {"d": ("death", "sum"),
                                 "c": ("one", "sum")},
                         num_partitions=4).to_pandas().sort_values("t")
    total = int(tab["c"].sum())
    at_risk = total - np.concatenate(
        [[0], np.cumsum(tab["c"].to_numpy())[:-1]])
    surv = np.round(np.cumprod(1.0 - tab["d"].to_numpy(np.float64)
                               / at_risk), 6) + 0.0
    ts = tab["t"].to_numpy(np.int64)
    T0 = 7
    idx0 = np.searchsorted(ts, T0, side="right") - 1
    s0 = surv[idx0] if idx0 >= 0 else 1.0
    target = s0 / 2.0
    below = np.flatnonzero(surv <= target)
    mrl = float(ts[below[0]] - T0) if len(below) else np.nan
    return pd.DataFrame({
        "t0_days": [np.int64(T0)],
        "s_at_t0": [np.round(s0, 6) + 0.0],
        "median_residual_days": [np.round(mrl, 6) + 0.0
                                 if np.isfinite(mrl) else NULLF],
    })


SQL_MEDIAN_RESIDUAL_LIFE = f"""
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
        SELECT t, d,
               (SELECT sum(c) FROM tab) -
               COALESCE(sum(c) OVER (ORDER BY t
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                   AS n_at_risk
        FROM tab
    ),
    km AS (
        SELECT t,
               round(exp(sum(ln(1 - d * 1.0 / n_at_risk))
                         OVER (ORDER BY t ROWS UNBOUNDED PRECEDING)),
                     6) + 0.0 AS s
        FROM r
    ),
    s0 AS (SELECT COALESCE((SELECT s FROM km WHERE t <= 7
                            ORDER BY t DESC LIMIT 1), 1.0) AS s0),
    mrl AS (
        SELECT min(t) AS t_half FROM km CROSS JOIN s0
        WHERE km.s <= s0.s0 / 2.0
    )
    SELECT CAST(7 AS BIGINT) AS t0_days,
           round(s0.s0, 6) + 0.0 AS s_at_t0,
           COALESCE(round((mrl.t_half - 7)::DOUBLE, 6) + 0.0, {NULLF})
               AS median_residual_days
    FROM s0 CROSS JOIN mrl
"""


@entry("median_ci_daily", sql=lambda: SQL_MEDIAN_CI)
def q_median_ci_daily(sf_dir: str) -> pd.DataFrame:
    """Distribution-free exact 95% CI for each series' median via order
    statistics: the (l, u) ranks where the Binomial(n, ½) CDF first
    exceeds 2.5% / falls below 97.5% (computed with lgamma binomials —
    identically in the SQL oracle), CI = (v₍l₎, v₍u₎). No normality, no
    bootstrap."""
    from math import lgamma

    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def binom_cdf_half(n: int):
        # P(X <= k) for X ~ Bin(n, 1/2), k = 0..n
        logs = np.array([lgamma(n + 1) - lgamma(k + 1) - lgamma(n - k + 1)
                         for k in range(n + 1)])
        pmf = np.exp(logs - n * np.log(2.0))
        return np.cumsum(pmf)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = np.sort(g["v"].to_numpy(np.float64))
            n = len(v)
            if n < 6:
                rows.append((et, n, np.nan, np.nan, np.nan))
                continue
            cdf = binom_cdf_half(n)
            # l = largest k with P(X < k) <= 0.025 → rank l (1-based)
            l = int(np.searchsorted(cdf, 0.025, side="right"))
            u = n - l + 1  # symmetric upper rank
            med = np.round(np.quantile(v, 0.5), 6) + 0.0
            rows.append((et, n, med,
                         np.round(v[max(l - 1, 0)], 6) + 0.0,
                         np.round(v[min(u - 1, n - 1)], 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "median", "ci_lo", "ci_hi"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["median", "ci_lo", "ci_hi"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_MEDIAN_CI = f"""
    WITH daily AS ({_DAILY_SQL}),
    cnt AS (SELECT event_type, count(*) AS n,
                   round(quantile_cont(v, 0.5), 6) + 0.0 AS med
            FROM daily GROUP BY 1),
    ks AS (
        SELECT c.event_type, c.n, k.k,
               exp(lgamma(c.n + 1) - lgamma(k.k + 1)
                   - lgamma(c.n - k.k + 1) - c.n * ln(2)) AS pmf
        FROM cnt c, (SELECT unnest(range(0, 1000)) AS k) k
        WHERE k.k <= c.n
    ),
    cdf AS (
        SELECT event_type, k,
               sum(pmf) OVER (PARTITION BY event_type ORDER BY k
                              ROWS UNBOUNDED PRECEDING) AS cdf
        FROM ks
    ),
    l AS (
        SELECT event_type, count(*) AS l
        FROM cdf WHERE cdf <= 0.025 GROUP BY 1
    ),
    ranks AS (
        SELECT d.event_type, d.v,
               ROW_NUMBER() OVER (PARTITION BY d.event_type
                                  ORDER BY d.v) AS rk
        FROM daily d
    )
    SELECT c.event_type, CAST(c.n AS BIGINT) AS n_days,
           COALESCE(CASE WHEN c.n >= 6 THEN c.med END, {NULLF}) AS median,
           COALESCE(CASE WHEN c.n >= 6
                         THEN (SELECT round(v, 6) + 0.0 FROM ranks
                               WHERE ranks.event_type = c.event_type
                                 AND ranks.rk = greatest(l.l, 1)) END,
                    {NULLF}) AS ci_lo,
           COALESCE(CASE WHEN c.n >= 6
                         THEN (SELECT round(v, 6) + 0.0 FROM ranks
                               WHERE ranks.event_type = c.event_type
                                 AND ranks.rk = least(c.n - l.l + 1, c.n))
                    END, {NULLF}) AS ci_hi
    FROM cnt c LEFT JOIN l USING (event_type)
    ORDER BY 1
"""


# ---------------------------------------------------------------------------
# CRPS climatology / expected calibration error / same-day multi-orders
# ---------------------------------------------------------------------------

@entry("crps_climatology_daily", sql=lambda: SQL_CRPS_CLIMATOLOGY)
def q_crps_climatology_daily(sf_dir: str) -> pd.DataFrame:
    """CRPS of the climatology forecast per series: the empirical
    distribution of all-but-last days scores the LAST day's value,
    CRPS = E|X−y| − ½E|X−X′| with the Gini-mean-difference identity
    E|X−X′| = 2Σ(2i−n−1)x₍ᵢ₎/n² — the proper scoring rule that rewards
    sharp AND calibrated distributions (MAE is its degenerate point-mass
    case)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            if len(v) < 3:
                rows.append((et, len(v), np.nan))
                continue
            y = v[-1]
            x = np.sort(v[:-1])
            n = len(x)
            e_xy = np.abs(x - y).mean()
            i = np.arange(1, n + 1, dtype=np.float64)
            e_xx = 2.0 * ((2 * i - n - 1) * x).sum() / (n * n)
            rows.append((et, n, np.round(e_xy - 0.5 * e_xx, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_train",
                                           "crps"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_train"] = out["n_train"].astype(np.int64)
    out = _fill(out, ["crps"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_CRPS_CLIMATOLOGY = f"""
    WITH daily AS ({_DAILY_SQL}),
    last AS (SELECT event_type, arg_max(v, d) AS y, max(d) AS dmax,
                    count(*) AS ntot
             FROM daily GROUP BY 1),
    train AS (
        SELECT d.event_type, d.v, l.y
        FROM daily d JOIN last l USING (event_type)
        WHERE d.d < l.dmax
    ),
    rk AS (
        SELECT event_type, v, y,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY v)
                   AS i,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM train
    )
    SELECT event_type, CAST(any_value(n) AS BIGINT) AS n_train,
           COALESCE(CASE WHEN any_value(n) >= 2
                         THEN round(avg(abs(v - y))
                              - sum((2.0 * i - n - 1) * v)
                                / (any_value(n) * any_value(n)),
                              6) + 0.0 END, {NULLF}) AS crps
    FROM rk GROUP BY 1 ORDER BY 1
"""


@entry("ece_users", sql=lambda: SQL_ECE_USERS)
def q_ece_users(sf_dir: str) -> pd.DataFrame:
    """Expected calibration error of the first-half→second-half purchase
    predictor over the decile bins: ECE = Σ(nₖ/N)·|p̄ₖ − ōₖ| plus the max
    bin gap (MCE) — the single-number calibration summary on top of the
    reliability table."""
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
    dec = np.minimum((pred * 10).astype(np.int64), 9)
    df = pd.DataFrame({"k": dec, "p": pred, "o": obs})
    g = df.groupby("k")
    nk = g.size().to_numpy(np.float64)
    gap = np.abs(g["p"].mean().to_numpy(np.float64)
                 - g["o"].mean().to_numpy(np.float64))
    N = nk.sum()
    return pd.DataFrame({
        "n_users": [np.int64(N)],
        "ece": [np.round((nk * gap).sum() / N, 6) + 0.0],
        "mce": [np.round(gap.max(), 6) + 0.0],
    })


SQL_ECE_USERS = """
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
    bins AS (SELECT k, count(*)::DOUBLE AS nk,
                    abs(avg(pred) - avg(obs)) AS gap
             FROM t GROUP BY 1)
    SELECT CAST(sum(nk) AS BIGINT) AS n_users,
           round(sum(nk * gap) / sum(nk), 6) + 0.0 AS ece,
           round(max(gap), 6) + 0.0 AS mce
    FROM bins
"""


@entry("same_day_multiorders", sql=lambda: SQL_SAME_DAY_MULTIORDERS)
def q_same_day_multiorders(sf_dir: str) -> pd.DataFrame:
    """Integrity/behavior audit: customers placing MULTIPLE orders on one
    calendar day — how many customers, how many such days, and the share
    of all orders involved (dedup pipelines treat these as suspects)."""
    orders = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def day(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["day"] = b["o_orderdate"].astype("datetime64[us]") \
            .astype("int64") // DAY_US
        b["one"] = 1
        return b[["o_custkey", "day", "one"]]

    cd = hash_aggregate(orders.map_batches(day, batch_format="pandas"),
                        ["o_custkey", "day"], {"n": ("one", "sum")},
                        num_partitions=_NP).to_pandas()
    multi = cd[cd["n"] > 1]
    total_orders = int(cd["n"].sum())
    return pd.DataFrame({
        "n_multi_days": [np.int64(len(multi))],
        "n_customers": [np.int64(multi["o_custkey"].nunique())],
        "n_orders_involved": [np.int64(multi["n"].sum())],
        "share_of_orders": [np.round(multi["n"].sum() / total_orders,
                                     6) + 0.0],
    })


SQL_SAME_DAY_MULTIORDERS = f"""
    WITH cd AS (
        SELECT o_custkey, epoch_us(o_orderdate) // {DAY_US} AS day,
               count(*) AS n
        FROM orders GROUP BY 1, 2
    ),
    m AS (SELECT * FROM cd WHERE n > 1)
    SELECT (SELECT CAST(count(*) AS BIGINT) FROM m) AS n_multi_days,
           (SELECT CAST(count(DISTINCT o_custkey) AS BIGINT) FROM m)
               AS n_customers,
           (SELECT CAST(COALESCE(sum(n), 0) AS BIGINT) FROM m)
               AS n_orders_involved,
           round((SELECT COALESCE(sum(n), 0) FROM m) * 1.0
                 / (SELECT sum(n) FROM cd), 6) + 0.0 AS share_of_orders
"""


# ---------------------------------------------------------------------------
# effective sample size / flow imbalance / hourly ACF-24
# ---------------------------------------------------------------------------

@entry("ess_daily", sql=lambda: SQL_ESS_DAILY)
def q_ess_daily(sf_dir: str) -> pd.DataFrame:
    """Effective sample size per series from the integrated
    autocorrelation time τ = 1 + 2Σₖ₌₁¹⁰ rₖ (rₖ the sample ACF, summed
    over the fixed window; τ floored at 1): ESS = n/τ — how many
    'independent' days the month really contains, the honest n for any
    downstream mean test."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            dv = v - v.mean()
            den = (dv ** 2).sum()
            if n < 12 or den <= 0:
                rows.append((et, n, np.nan, np.nan))
                continue
            tau = 1.0
            for k in range(1, 11):
                tau += 2.0 * (dv[k:] * dv[:-k]).sum() / den
            tau = max(tau, 1.0)
            rows.append((et, n, np.round(tau, 6) + 0.0,
                         np.round(n / tau, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "tau_int", "ess"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["tau_int", "ess"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_ESS_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (SELECT event_type, avg(v) AS mu, count(*) AS n
          FROM daily GROUP BY 1),
    r AS (
        SELECT d.event_type, d.v, m.mu, m.n,
               ROW_NUMBER() OVER (PARTITION BY d.event_type
                                  ORDER BY d.d) AS rn
        FROM daily d JOIN m USING (event_type)
    ),
    den AS (SELECT event_type, sum((v - mu) * (v - mu)) AS den,
                   any_value(n) AS n
            FROM r GROUP BY 1),
    acf AS (
        SELECT a.event_type,
               sum((a.v - a.mu) * (b.v - b.mu)) AS num
        FROM (SELECT unnest(range(1, 11)) AS k) k, r a
        JOIN r b ON a.event_type = b.event_type AND a.rn = b.rn + k.k
        GROUP BY 1
    ),
    tau AS (
        SELECT den.event_type, den.n,
               greatest(1.0 + 2.0 * acf.num / den.den, 1.0) AS tau
        FROM den JOIN acf USING (event_type)
        WHERE den.den > 0 AND den.n >= 12
    ),
    base AS (SELECT event_type, count(*) AS n FROM daily GROUP BY 1)
    SELECT base.event_type, CAST(base.n AS BIGINT) AS n_days,
           COALESCE(round(tau.tau, 6) + 0.0, {NULLF}) AS tau_int,
           COALESCE(round(base.n / tau.tau, 6) + 0.0, {NULLF}) AS ess
    FROM base LEFT JOIN tau USING (event_type)
    ORDER BY 1
"""


@entry("flow_imbalance_events", sql=lambda: SQL_FLOW_IMBALANCE)
def q_flow_imbalance_events(sf_dir: str) -> pd.DataFrame:
    """Directional flow imbalance of the transition graph: for every
    unordered type pair, net flow (a→b minus b→a) over gross flow — a
    signed 'which way does traffic drift' audit of the Markov matrix's
    asymmetry."""
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
        return df.groupby(["cur", "nxt"], sort=False).size() \
            .rename("n").reset_index()

    trans = hash_aggregate(
        keyed_map_partitions(ev, ["user_id"], pairs, num_partitions=_NP),
        ["cur", "nxt"], {"n": ("n", "sum")}, num_partitions=4).to_pandas()
    tmap = {(r.cur, r.nxt): int(r.n) for r in trans.itertuples()}
    ets = sorted(set(trans["cur"]) | set(trans["nxt"]))
    rows = []
    for i, a in enumerate(ets):
        for b in ets[i + 1:]:
            ab = tmap.get((a, b), 0)
            ba = tmap.get((b, a), 0)
            gross = ab + ba
            imb = (ab - ba) / gross if gross else np.nan
            rows.append((a, b, ab, ba,
                         np.round(imb, 6) + 0.0 if np.isfinite(imb)
                         else NULLF))
    return pd.DataFrame(rows, columns=["et_a", "et_b", "n_ab", "n_ba",
                                       "imbalance"]) \
        .astype({"n_ab": np.int64, "n_ba": np.int64})


SQL_FLOW_IMBALANCE = f"""
    WITH s AS (
        SELECT event_type AS cur,
               LEAD(event_type) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS nxt
        FROM events
    ),
    t AS (SELECT cur, nxt, count(*) AS n FROM s
          WHERE nxt IS NOT NULL GROUP BY 1, 2),
    ets AS (SELECT DISTINCT event_type AS et FROM events),
    pairs AS (SELECT a.et AS et_a, b.et AS et_b
              FROM ets a, ets b WHERE a.et < b.et),
    j AS (
        SELECT p.et_a, p.et_b,
               COALESCE(tab.n, 0) AS n_ab, COALESCE(tba.n, 0) AS n_ba
        FROM pairs p
        LEFT JOIN t tab ON tab.cur = p.et_a AND tab.nxt = p.et_b
        LEFT JOIN t tba ON tba.cur = p.et_b AND tba.nxt = p.et_a
    )
    SELECT et_a, et_b, CAST(n_ab AS BIGINT) AS n_ab,
           CAST(n_ba AS BIGINT) AS n_ba,
           COALESCE(CASE WHEN n_ab + n_ba > 0
                         THEN round((n_ab - n_ba) * 1.0 / (n_ab + n_ba),
                                    6) + 0.0 END, {NULLF}) AS imbalance
    FROM j ORDER BY 1, 2
"""


@entry("hourly_acf24_events", sql=lambda: SQL_HOURLY_ACF24)
def q_hourly_acf24_events(sf_dir: str) -> pd.DataFrame:
    """Hourly-grain autocorrelation at the diurnal (24h) and weekly
    (168h) lags per type — the direct periodicity fingerprint at the
    resolution the tier cascade actually ingests."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    hourly = _bucket_series(sf_dir, HOUR_US, "h")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("h")["v"].to_numpy(np.float64)
            dv = v - v.mean()
            den = (dv ** 2).sum()
            for k in (24, 168):
                if len(v) <= k or den <= 0:
                    rows.append((et, k, len(v), np.nan))
                    continue
                rk = (dv[k:] * dv[:-k]).sum() / den
                rows.append((et, k, len(v), np.round(rk, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "lag_h",
                                           "n_hours", "acf"])

    out = keyed_map_partitions(hourly, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["lag_h", "n_hours"]] = out[["lag_h", "n_hours"]] \
        .astype(np.int64)
    out = _fill(out, ["acf"])
    return out.sort_values(["event_type", "lag_h"]).reset_index(drop=True)


SQL_HOURLY_ACF24 = f"""
    WITH hourly AS ({_HOURLY_SQL}),
    m AS (SELECT event_type, avg(v) AS mu, count(*) AS n
          FROM hourly GROUP BY 1),
    r AS (
        SELECT h.event_type, h.v, m.mu, m.n,
               ROW_NUMBER() OVER (PARTITION BY h.event_type
                                  ORDER BY h.h) AS rn
        FROM hourly h JOIN m USING (event_type)
    ),
    den AS (SELECT event_type, sum((v - mu) * (v - mu)) AS den,
                   any_value(n) AS n
            FROM r GROUP BY 1),
    acf AS (
        SELECT a.event_type, k.k,
               sum((a.v - a.mu) * (b.v - b.mu)) AS num
        FROM (SELECT unnest([24, 168]) AS k) k, r a
        JOIN r b ON a.event_type = b.event_type AND a.rn = b.rn + k.k
        GROUP BY 1, 2
    ),
    grid AS (SELECT DISTINCT m.event_type, k.k, m.n
             FROM m CROSS JOIN (SELECT unnest([24, 168]) AS k) k)
    SELECT g.event_type, CAST(g.k AS BIGINT) AS lag_h,
           CAST(g.n AS BIGINT) AS n_hours,
           COALESCE(CASE WHEN den.den > 0 AND g.n > g.k
                         THEN round(acf.num / den.den, 6) + 0.0 END,
                    {NULLF}) AS acf
    FROM grid g
    LEFT JOIN den ON den.event_type = g.event_type
    LEFT JOIN acf ON acf.event_type = g.event_type AND acf.k = g.k
    ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Diebold-Mariano / Gini mean difference / down-day profile
# ---------------------------------------------------------------------------

@entry("diebold_mariano_daily", sql=lambda: SQL_DIEBOLD_MARIANO)
def q_diebold_mariano_daily(sf_dir: str) -> pd.DataFrame:
    """Diebold-Mariano comparison of two one-step forecasters per series —
    naive (lag-1) vs seasonal-naive (lag-7) — on squared-error loss over
    the days both are defined: DM = d̄/√(σ²_pop(d)/n) with d = e₁² − e₂²
    (lag-0 variance, the simple documented form). Negative DM favors the
    naive, positive the seasonal — the principled 'which baseline wins'
    test."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            if len(v) < 10:
                rows.append((et, 0, np.nan, np.nan))
                continue
            e1 = v[7:] - v[6:-1]   # naive: predict v[t-1]
            e2 = v[7:] - v[:-7]    # seasonal naive: predict v[t-7]
            d = e1 ** 2 - e2 ** 2
            n = len(d)
            var = d.var(ddof=0)
            dm = d.mean() / np.sqrt(var / n) if var > 0 else np.nan
            rows.append((et, n, np.round(d.mean(), 6) + 0.0,
                         np.round(dm, 6) + 0.0 if np.isfinite(dm)
                         else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "n_obs",
                                           "mean_loss_diff", "dm_stat"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_obs"] = out["n_obs"].astype(np.int64)
    out = _fill(out, ["mean_loss_diff", "dm_stat"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DIEBOLD_MARIANO = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (
        SELECT event_type, v,
               LAG(v, 1) OVER s AS v1, LAG(v, 7) OVER s AS v7,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily WINDOW s AS (PARTITION BY event_type ORDER BY d)
    ),
    d AS (
        SELECT event_type,
               (v - v1) * (v - v1) - (v - v7) * (v - v7) AS d
        FROM w WHERE v7 IS NOT NULL AND n >= 10
    ),
    agg AS (SELECT event_type, count(*)::DOUBLE AS n, avg(d) AS md,
                   var_pop(d) AS vd
            FROM d GROUP BY 1),
    base AS (SELECT DISTINCT event_type FROM daily)
    SELECT base.event_type,
           CAST(COALESCE(agg.n, 0) AS BIGINT) AS n_obs,
           COALESCE(round(agg.md, 6) + 0.0, {NULLF}) AS mean_loss_diff,
           COALESCE(CASE WHEN agg.vd > 0
                         THEN round(agg.md / sqrt(agg.vd / agg.n), 6)
                              + 0.0 END, {NULLF}) AS dm_stat
    FROM base LEFT JOIN agg USING (event_type)
    ORDER BY 1
"""


@entry("gini_mean_diff_daily", sql=lambda: SQL_GINI_MEAN_DIFF)
def q_gini_mean_diff_daily(sf_dir: str) -> pd.DataFrame:
    """Gini mean difference per series — E|X−X′| over all pairs via the
    order-statistic identity 2Σ(2i−n−1)x₍ᵢ₎/(n(n−1)) (ddof-1 form) —
    the L1 scale measure between the std (squares) and the Shamos
    (pair medians)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            x = np.sort(g["v"].to_numpy(np.float64))
            n = len(x)
            if n < 2:
                rows.append((et, n, np.nan))
                continue
            i = np.arange(1, n + 1, dtype=np.float64)
            gmd = 2.0 * ((2 * i - n - 1) * x).sum() / (n * (n - 1.0))
            rows.append((et, n, np.round(gmd, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days", "gmd"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["gmd"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_GINI_MEAN_DIFF = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY v)
                   AS i,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    )
    SELECT event_type, CAST(any_value(n) AS BIGINT) AS n_days,
           COALESCE(CASE WHEN any_value(n) >= 2
                         THEN round(2.0 * sum((2.0 * i - n - 1) * v)
                              / (any_value(n) * (any_value(n) - 1.0)),
                              6) + 0.0 END, {NULLF}) AS gmd
    FROM r GROUP BY 1 ORDER BY 1
"""


@entry("down_days_daily", sql=lambda: SQL_DOWN_DAYS)
def q_down_days_daily(sf_dir: str) -> pd.DataFrame:
    """Downside profile per series: share of day-over-day declines, the
    mean decline magnitude, and the down/up magnitude ratio — the
    asymmetry summary behind drawdown risk (a series can trend up while
    falling MOST days)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            d = np.diff(v)
            if len(d) < 2:
                rows.append((et, len(d), np.nan, np.nan, np.nan))
                continue
            down = d[d < 0]
            up = d[d > 0]
            share = len(down) / len(d)
            md = -down.mean() if len(down) else np.nan
            mu = up.mean() if len(up) else np.nan
            ratio = md / mu if len(down) and len(up) and mu > 0 else np.nan
            rows.append((et, len(d), np.round(share, 6) + 0.0,
                         np.round(md, 6) + 0.0 if np.isfinite(md)
                         else np.nan,
                         np.round(ratio, 6) + 0.0 if np.isfinite(ratio)
                         else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "n_moves",
                                           "down_share", "mean_down",
                                           "down_up_ratio"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_moves"] = out["n_moves"].astype(np.int64)
    out = _fill(out, ["down_share", "mean_down", "down_up_ratio"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DOWN_DAYS = f"""
    WITH daily AS ({_DAILY_SQL}),
    d AS (
        SELECT event_type,
               v - LAG(v) OVER (PARTITION BY event_type ORDER BY d) AS dv
        FROM daily
    ),
    m AS (
        SELECT event_type, count(*)::DOUBLE AS n,
               count(*) FILTER (WHERE dv < 0)::DOUBLE AS nd,
               count(*) FILTER (WHERE dv > 0)::DOUBLE AS nu,
               avg(-dv) FILTER (WHERE dv < 0) AS md,
               avg(dv) FILTER (WHERE dv > 0) AS mu
        FROM d WHERE dv IS NOT NULL GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_moves,
           COALESCE(CASE WHEN n >= 2
                         THEN round(nd / n, 6) + 0.0 END, {NULLF})
               AS down_share,
           COALESCE(CASE WHEN n >= 2 AND nd > 0
                         THEN round(md, 6) + 0.0 END, {NULLF})
               AS mean_down,
           COALESCE(CASE WHEN n >= 2 AND nd > 0 AND nu > 0 AND mu > 0
                         THEN round(md / mu, 6) + 0.0 END, {NULLF})
               AS down_up_ratio
    FROM m ORDER BY 1
"""


# ---------------------------------------------------------------------------
# diversification ratio / weekend QTE / cointegration-lite
# ---------------------------------------------------------------------------

@entry("diversification_ratio_daily", sql=lambda: SQL_DIVERSIFICATION_RATIO)
def q_diversification_ratio_daily(sf_dir: str) -> pd.DataFrame:
    """Aggregation smoothness: Σᵢ MAE_naive(seriesᵢ) vs MAE_naive(total)
    — the ratio > 1 quantifies how much idiosyncratic day-to-day noise
    cancels in the rollup (the 'forecast the total, not the parts'
    argument, measured)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d").materialize()

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            if len(v) < 2:
                continue
            rows.append((et, np.abs(np.diff(v)).mean()))
        return pd.DataFrame(rows, columns=["event_type", "mae"])

    per = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    tot = hash_aggregate(daily, ["d"], {"T": ("v", "sum")},
                         num_partitions=4).to_pandas().sort_values("d")
    T = tot["T"].to_numpy(np.float64)
    mae_total = np.abs(np.diff(T)).mean()
    sum_mae = float(per["mae"].sum())
    return pd.DataFrame({
        "n_series": [np.int64(len(per))],
        "sum_series_mae": [np.round(sum_mae, 6) + 0.0],
        "total_mae": [np.round(mae_total, 6) + 0.0],
        "diversification": [np.round(sum_mae / mae_total, 6) + 0.0],
    })


SQL_DIVERSIFICATION_RATIO = f"""
    WITH daily AS ({_DAILY_SQL}),
    per2 AS (
        SELECT event_type, avg(abs(dv)) AS mae
        FROM (SELECT event_type,
                     v - LAG(v) OVER (PARTITION BY event_type ORDER BY d)
                         AS dv
              FROM daily)
        WHERE dv IS NOT NULL GROUP BY 1
    ),
    tot AS (SELECT d, sum(v) AS T FROM daily GROUP BY 1),
    td AS (SELECT T - LAG(T) OVER (ORDER BY d) AS dT FROM tot),
    te AS (SELECT avg(abs(dT)) AS mae FROM td WHERE dT IS NOT NULL)
    SELECT (SELECT CAST(count(*) AS BIGINT) FROM per2) AS n_series,
           round((SELECT sum(mae) FROM per2), 6) + 0.0 AS sum_series_mae,
           round(te.mae, 6) + 0.0 AS total_mae,
           round((SELECT sum(mae) FROM per2) / te.mae, 6) + 0.0
               AS diversification
    FROM te
"""


@entry("qte_weekend_daily", sql=lambda: SQL_QTE_WEEKEND)
def q_qte_weekend_daily(sf_dir: str) -> pd.DataFrame:
    """Quantile 'treatment effect' of the weekend per series: the p50 and
    p90 of weekend daily values minus the same weekday quantiles — the
    distributional calendar contrast a mean difference flattens."""
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
            q50 = np.quantile(a, 0.5) - np.quantile(b, 0.5)
            q90 = np.quantile(a, 0.9) - np.quantile(b, 0.9)
            rows.append((et, len(a), len(b),
                         np.round(q50, 6) + 0.0, np.round(q90, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_weekend",
                                           "n_weekday", "qte_p50",
                                           "qte_p90"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["n_weekend", "n_weekday"]] = out[["n_weekend", "n_weekday"]] \
        .astype(np.int64)
    out = _fill(out, ["qte_p50", "qte_p90"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_QTE_WEEKEND = f"""
    WITH daily AS ({_DAILY_SQL}),
    t AS (SELECT event_type, v, isodow(d) >= 6 AS we FROM daily),
    a AS (
        SELECT event_type,
               count(*) FILTER (we) AS na,
               count(*) FILTER (NOT we) AS nb,
               quantile_cont(v, 0.5) FILTER (we) AS a50,
               quantile_cont(v, 0.9) FILTER (we) AS a90,
               quantile_cont(v, 0.5) FILTER (NOT we) AS b50,
               quantile_cont(v, 0.9) FILTER (NOT we) AS b90
        FROM t GROUP BY 1
    )
    SELECT event_type, CAST(na AS BIGINT) AS n_weekend,
           CAST(nb AS BIGINT) AS n_weekday,
           COALESCE(CASE WHEN na >= 2 AND nb >= 2
                         THEN round(a50 - b50, 6) + 0.0 END, {NULLF})
               AS qte_p50,
           COALESCE(CASE WHEN na >= 2 AND nb >= 2
                         THEN round(a90 - b90, 6) + 0.0 END, {NULLF})
               AS qte_p90
    FROM a ORDER BY 1
"""


@entry("cointegration_lite_daily", sql=lambda: SQL_COINTEGRATION_LITE)
def q_cointegration_lite_daily(sf_dir: str) -> pd.DataFrame:
    """Engle-Granger screen (lite) on every series pair: OLS hedge ratio
    of y on x, then the lag-0 Dickey-Fuller t on the residual spread
    (Δu on u₋₁, no constant) — very negative means the pair co-moves
    with a mean-reverting spread. Residuals form from UNROUNDED fit,
    DF components round only at output."""
    daily = _bucket_series(sf_dir, DAY_US, "d")
    wide = daily.to_pandas().pivot_table(index="d", columns="event_type",
                                         values="v", aggfunc="sum")
    ets = sorted(wide.columns)
    rows = []
    for i, a in enumerate(ets):
        for b in ets[i + 1:]:
            m = wide[a].notna() & wide[b].notna()
            y = wide.loc[m, a].to_numpy(np.float64)
            x = wide.loc[m, b].to_numpy(np.float64)
            if len(y) < 10:
                rows.append((a, b, len(y), np.nan, np.nan))
                continue
            xd = x - x.mean()
            beta = (xd * (y - y.mean())).sum() / (xd ** 2).sum()
            u = y - beta * x
            u = u - u.mean()
            du = np.diff(u)
            ul = u[:-1]
            phi = (ul * du).sum() / (ul ** 2).sum()
            resid = du - phi * ul
            s2 = (resid ** 2).sum() / (len(du) - 1.0)
            se = np.sqrt(s2 / (ul ** 2).sum())
            t = phi / se if se > 0 else np.nan
            rows.append((a, b, len(y), np.round(beta, 6) + 0.0,
                         np.round(t, 6) + 0.0 if np.isfinite(t)
                         else np.nan))
    df = pd.DataFrame(rows, columns=["et_a", "et_b", "n_days",
                                     "hedge_beta", "df_t"])
    df["n_days"] = df["n_days"].astype(np.int64)
    return _fill(df, ["hedge_beta", "df_t"])


SQL_COINTEGRATION_LITE = f"""
    WITH daily AS ({_DAILY_SQL}),
    j AS (
        SELECT a.event_type AS et_a, b.event_type AS et_b, a.d,
               a.v AS y, b.v AS x
        FROM daily a JOIN daily b
          ON a.d = b.d AND a.event_type < b.event_type
    ),
    beta AS (
        SELECT et_a, et_b, count(*) AS n, regr_slope(y, x) AS beta
        FROM j GROUP BY 1, 2
    ),
    u AS (
        SELECT j.et_a, j.et_b, j.d, beta.n, beta.beta,
               (j.y - beta.beta * j.x)
               - avg(j.y - beta.beta * j.x)
                 OVER (PARTITION BY j.et_a, j.et_b) AS u
        FROM j JOIN beta USING (et_a, et_b)
    ),
    du AS (
        SELECT et_a, et_b, n, beta,
               u - LAG(u) OVER w AS du, LAG(u) OVER w AS ul
        FROM u WINDOW w AS (PARTITION BY et_a, et_b ORDER BY d)
    ),
    fit AS (
        SELECT et_a, et_b, any_value(n) AS n, any_value(beta) AS beta,
               count(*)::DOUBLE AS m,
               sum(ul * du) / sum(ul * ul) AS phi,
               sum(ul * ul) AS suu, sum(du * du) AS sdd,
               sum(ul * du) AS sud
        FROM du WHERE du IS NOT NULL GROUP BY 1, 2
    )
    SELECT et_a, et_b, CAST(n AS BIGINT) AS n_days,
           COALESCE(CASE WHEN n >= 10
                         THEN round(beta, 6) + 0.0 END, {NULLF})
               AS hedge_beta,
           COALESCE(CASE WHEN n >= 10
                          AND (sdd - sud * sud / suu) > 0
                         THEN round(phi / sqrt(((sdd - sud * sud / suu)
                                    / (m - 1)) / suu), 6) + 0.0 END,
                    {NULLF}) AS df_t
    FROM fit ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# trend t-test / PIT calibration / priority migration
# ---------------------------------------------------------------------------

@entry("trend_ttest_daily", sql=lambda: SQL_TREND_TTEST)
def q_trend_ttest_daily(sf_dir: str) -> pd.DataFrame:
    """Trend significance per series: OLS slope on the day index with its
    analytic SE (σ̂²/Σ(t−t̄)², σ̂² the residual variance at n−2 df) and
    the t statistic — the inference layer the plain trend fit omits."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            us = g["d"].astype("datetime64[us]").astype("int64").to_numpy()
            t = ((us - us.min()) // DAY_US).astype(np.float64)
            y = g["v"].to_numpy(np.float64)
            n = len(y)
            if n < 3:
                rows.append((et, n, np.nan, np.nan, np.nan))
                continue
            td = t - t.mean()
            sxx = (td ** 2).sum()
            slope = (td * (y - y.mean())).sum() / sxx
            resid = y - y.mean() - slope * td
            s2 = (resid ** 2).sum() / (n - 2.0)
            se = np.sqrt(s2 / sxx)
            tt = slope / se if se > 0 else np.nan
            rows.append((et, n, np.round(slope, 6) + 0.0,
                         np.round(se, 6) + 0.0,
                         np.round(tt, 6) + 0.0 if np.isfinite(tt)
                         else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "slope", "se", "t_stat"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["slope", "se", "t_stat"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_TREND_TTEST = f"""
    WITH daily AS ({_DAILY_SQL}),
    tt AS (
        SELECT event_type, v,
               CAST(datediff('day',
                    min(d) OVER (PARTITION BY event_type), d) AS DOUBLE)
                   AS t
        FROM daily
    ),
    mm AS (
        SELECT event_type, count(*)::DOUBLE AS n,
               avg(t) AS tm, avg(v) AS vm,
               sum(t * t) - count(*) * avg(t) * avg(t) AS sxx,
               sum(t * v) - count(*) * avg(t) * avg(v) AS sxy,
               sum(v * v) - count(*) * avg(v) * avg(v) AS syy
        FROM tt GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           COALESCE(CASE WHEN n >= 3
                         THEN round(sxy / sxx, 6) + 0.0 END, {NULLF})
               AS slope,
           COALESCE(CASE WHEN n >= 3
                         THEN round(sqrt(((syy - sxy * sxy / sxx)
                                          / (n - 2)) / sxx), 6) + 0.0
                    END, {NULLF}) AS se,
           COALESCE(CASE WHEN n >= 3
                          AND (syy - sxy * sxy / sxx) > 0
                         THEN round((sxy / sxx)
                              / sqrt(((syy - sxy * sxy / sxx) / (n - 2))
                                     / sxx), 6) + 0.0 END, {NULLF})
               AS t_stat
    FROM mm ORDER BY 1
"""


@entry("pit_naive_daily", sql=lambda: SQL_PIT_NAIVE)
def q_pit_naive_daily(sf_dir: str) -> pd.DataFrame:
    """Probability integral transform calibration of the climatology
    forecaster: each of a series' LAST 5 days scores as its empirical
    CDF position among all EARLIER days (midrank for ties) — mean PIT ≈
    0.5 for a calibrated distribution, drift above/below flags trend the
    climatology misses. Pooled across series."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            if n < 10:
                continue
            for j in range(n - 5, n):
                hist = v[:j]
                y = v[j]
                below = (hist < y).sum()
                eq = (hist == y).sum()
                rows.append((et, (below + 0.5 * eq) / len(hist)))
        return pd.DataFrame(rows, columns=["event_type", "pit"])

    pit = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return pd.DataFrame({
        "n_scores": [np.int64(len(pit))],
        "mean_pit": [np.round(pit["pit"].mean(), 6) + 0.0],
        "share_above_half": [np.round((pit["pit"] > 0.5).mean(), 6) + 0.0],
    })


SQL_PIT_NAIVE = """
    WITH daily AS (
        SELECT event_type, date_trunc('day', ts) AS d,
               round(sum(value), 6) AS v
        FROM events GROUP BY 1, 2
    ),
    r AS (
        SELECT event_type, d, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    scored AS (SELECT * FROM r WHERE n >= 10 AND rn > n - 5),
    pit AS (
        SELECT s.event_type, s.rn,
               (sum(CASE WHEN h.v < s.v THEN 1.0
                         WHEN h.v = s.v THEN 0.5 ELSE 0 END))
               / count(*) AS pit
        FROM scored s JOIN r h
          ON h.event_type = s.event_type AND h.rn < s.rn
        GROUP BY 1, 2
    )
    SELECT CAST(count(*) AS BIGINT) AS n_scores,
           round(avg(pit), 6) + 0.0 AS mean_pit,
           round(avg(CASE WHEN pit > 0.5 THEN 1.0 ELSE 0 END), 6) + 0.0
               AS share_above_half
    FROM pit
"""


@entry("priority_migration_customers", sql=lambda: SQL_PRIORITY_MIGRATION)
def q_priority_migration_customers(sf_dir: str) -> pd.DataFrame:
    """Customer priority migration: each repeat customer's FIRST vs LAST
    order priority (date then orderkey tie-break) as a k×k transition
    table — the SCD-style 'are customers drifting toward urgency'
    matrix at entity grain."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    orders = _read(sf_dir, "orders",
                   ["o_custkey", "o_orderkey", "o_orderdate",
                    "o_orderpriority"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for ck, g in part.groupby("o_custkey", sort=False):
            if len(g) < 2:
                continue
            g = g.sort_values(["o_orderdate", "o_orderkey"])
            rows.append((g.iloc[0]["o_orderpriority"],
                         g.iloc[-1]["o_orderpriority"]))
        if not rows:
            return pd.DataFrame({"first_p": pd.Series([], dtype="object"),
                                 "last_p": pd.Series([], dtype="object"),
                                 "n": pd.Series([], dtype="int64")})
        df = pd.DataFrame(rows, columns=["first_p", "last_p"])
        return df.groupby(["first_p", "last_p"], sort=False).size() \
            .rename("n").reset_index()

    agg = hash_aggregate(
        keyed_map_partitions(orders, ["o_custkey"], kernel,
                             num_partitions=_NP),
        ["first_p", "last_p"], {"n_customers": ("n", "sum")},
        num_partitions=4).to_pandas()
    agg["n_customers"] = agg["n_customers"].astype(np.int64)
    return agg.sort_values(["first_p", "last_p"]).reset_index(drop=True)


SQL_PRIORITY_MIGRATION = """
    WITH r AS (
        SELECT o_custkey, o_orderpriority,
               ROW_NUMBER() OVER (PARTITION BY o_custkey
                                  ORDER BY o_orderdate, o_orderkey) AS rn,
               count(*) OVER (PARTITION BY o_custkey) AS n
        FROM orders
    ),
    fl AS (
        SELECT a.o_custkey, a.o_orderpriority AS first_p,
               b.o_orderpriority AS last_p
        FROM r a JOIN r b ON a.o_custkey = b.o_custkey
                          AND a.rn = 1 AND b.rn = b.n
        WHERE a.n >= 2
    )
    SELECT first_p, last_p, CAST(count(*) AS BIGINT) AS n_customers
    FROM fl GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("durbin_watson_daily", sql=lambda: SQL_DURBIN_WATSON)
def q_durbin_watson_daily(sf_dir: str) -> pd.DataFrame:
    """Durbin–Watson serial-correlation statistic of each series' daily
    values after an OLS linear detrend (Durbin & Watson 1950, public):
    DW = Σ(e_t − e_{t−1})² / Σe_t² over date-ordered residuals — ≈2 for
    white residuals, →0 under positive autocorrelation. Complements the
    Ljung–Box/ACF audits with the classic regression-residual form."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            t = (g["d"].astype("int64") // DAY_US).to_numpy(np.float64)
            n = len(v)
            if n < 3 or np.var(t) == 0:
                continue
            beta = np.cov(t, v, bias=True)[0, 1] / np.var(t)
            e = v - (v.mean() - beta * t.mean()) - beta * t
            dw = np.sum(np.diff(e) ** 2) / np.sum(e * e)
            rows.append((et, np.int64(n), dw))
        return pd.DataFrame(rows, columns=["event_type", "n_days", "dw"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _round(out, ["dw"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DURBIN_WATSON = """
    WITH daily AS (
        SELECT event_type, date_trunc('day', ts) AS d,
               round(sum(value), 6) AS v
        FROM events GROUP BY 1, 2
    ),
    x AS (
        SELECT event_type, d, v,
               CAST(epoch(d) / 86400 AS DOUBLE) AS t
        FROM daily
    ),
    fit AS (
        SELECT event_type,
               covar_pop(t, v) / var_pop(t) AS beta,
               avg(v) - covar_pop(t, v) / var_pop(t) * avg(t) AS alpha,
               count(*) AS n
        FROM x GROUP BY 1
        HAVING count(*) >= 3 AND var_pop(t) > 0
    ),
    res AS (
        SELECT x.event_type, x.d, x.v - f.alpha - f.beta * x.t AS e, f.n
        FROM x JOIN fit f USING (event_type)
    ),
    l AS (
        SELECT event_type, n, e,
               lag(e) OVER (PARTITION BY event_type ORDER BY d) AS ep
        FROM res
    )
    SELECT event_type, CAST(any_value(n) AS BIGINT) AS n_days,
           round(sum(CASE WHEN ep IS NOT NULL
                          THEN (e - ep) * (e - ep) ELSE 0 END)
                 / sum(e * e), 6) + 0.0 AS dw
    FROM l GROUP BY 1 ORDER BY 1
"""


@entry("yule_k_documents", sql=lambda: SQL_YULE_K)
def q_yule_k_documents(sf_dir: str) -> pd.DataFrame:
    """Yule's K repeat-rate (Yule 1944, public) plus Guiraud's R and
    Sichel's S over the corpus-wide whitespace-token frequency spectrum:
    K = 10⁴·(Σm²·V_m − N)/N², R = V/√N, S = V₂/V — the classic
    length-robust lexical-diversity trio. The heavy pass is the
    distributed per-token count (combiner-first, as token_vocabulary);
    the spectrum (distinct frequencies) is tiny."""
    docs = _read(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["text"].str.split().explode().dropna().value_counts()
        return pd.DataFrame({"token": vc.index.to_numpy(),
                             "n": vc.to_numpy().astype("int64")})

    counts = hash_aggregate(docs.map_batches(partial, batch_format="pandas"),
                            ["token"], {"m": ("n", "sum")},
                            num_partitions=_NP)

    def spec_partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["m"].value_counts()
        return pd.DataFrame({"m": vc.index.to_numpy().astype("int64"),
                             "vm": vc.to_numpy().astype("int64")})

    spec = hash_aggregate(
        counts.map_batches(spec_partial, batch_format="pandas"),
        ["m"], {"vm": ("vm", "sum")}, num_partitions=4).to_pandas()
    m = spec["m"].to_numpy(np.float64)
    vm = spec["vm"].to_numpy(np.float64)
    n_tok = float(np.sum(m * vm))
    vocab = float(np.sum(vm))
    v2 = float(vm[m == 2].sum()) if (m == 2).any() else 0.0
    return pd.DataFrame({
        "n_tokens": [np.int64(n_tok)],
        "vocab": [np.int64(vocab)],
        "yule_k": [np.round(1e4 * (np.sum(m * m * vm) - n_tok)
                            / (n_tok * n_tok), 6) + 0.0],
        "guiraud_r": [np.round(vocab / np.sqrt(n_tok), 6) + 0.0],
        "sichel_s": [np.round(v2 / vocab, 6) + 0.0],
    })


SQL_YULE_K = r"""
    WITH tok AS (
        SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                                  x -> x <> '')) AS token
        FROM documents
    ),
    cnt AS (SELECT token, count(*) AS m FROM tok GROUP BY 1),
    spec AS (SELECT m, count(*) AS vm FROM cnt GROUP BY 1)
    SELECT CAST(sum(m * vm) AS BIGINT) AS n_tokens,
           CAST(sum(vm) AS BIGINT) AS vocab,
           round(10000.0 * (sum(CAST(m AS DOUBLE) * m * vm) - sum(m * vm))
                 / (CAST(sum(m * vm) AS DOUBLE) * sum(m * vm)), 6) + 0.0
               AS yule_k,
           round(sum(vm) / sqrt(CAST(sum(m * vm) AS DOUBLE)), 6) + 0.0
               AS guiraud_r,
           round(coalesce(sum(CASE WHEN m = 2 THEN vm END), 0)
                 / CAST(sum(vm) AS DOUBLE), 6) + 0.0 AS sichel_s
    FROM spec
"""


@entry("logrank_users", sql=lambda: SQL_LOGRANK_USERS)
def q_logrank_users(sf_dir: str) -> pd.DataFrame:
    """Log-rank test (Mantel 1966, public) comparing time-to-SECOND-event
    between the two halves of a deterministic A/B split (even vs odd
    user_id): single-event users are right-censored at the corpus horizon.
    The per-user survival row is built distributedly (keyed partition
    kernel); the risk-set reduction runs on the tiny (hour, group)
    death/at-risk grid."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    max_ts = pd.Timestamp(ev.max("ts"))

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["user_id", "ts"], kind="mergesort")
        rk = part.groupby("user_id").cumcount()
        g = part.groupby("user_id", sort=False)["ts"]
        first = g.min()
        cnt = g.size()
        # second-smallest ts per user (multiset order — tie-safe)
        t2 = part[(rk == 1).to_numpy()].set_index("user_id")["ts"]
        death = (cnt >= 2).to_numpy()
        end = t2.reindex(cnt.index).where(death, max_ts)
        tm = ((end - first).dt.total_seconds() // 3600).astype("int64")
        return pd.DataFrame({
            "tm": tm.to_numpy(),
            "grp_a": (cnt.index.to_numpy() % 2 == 0),
            "death": death.astype("int64"),
        })

    su = keyed_map_partitions(ev, ["user_id"], kernel,
                              num_partitions=_NP)
    # tiny (hour, group) grid: death + member counts per (tm, grp)
    grid = hash_aggregate(
        su.map_batches(lambda b: b.assign(n=1), batch_format="pandas"),
        ["tm", "grp_a"], {"d": ("death", "sum"), "n": ("n", "sum")},
        num_partitions=4).to_pandas()
    grid = grid.sort_values("tm", ascending=False, kind="mergesort")
    # at-risk at τ = users with time ≥ τ: reverse cumsum per group
    grid["atrisk"] = grid.groupby("grp_a")["n"].cumsum()
    piv_n = grid.pivot_table(index="tm", columns="grp_a", values="atrisk",
                             aggfunc="first").sort_index()
    # forward-fill upward: at-risk at τ counts every user with time ≥ τ
    # even when the group has no member AT τ — backfill from the next
    # larger tm present for that group, 0 past its max
    piv_n = piv_n.sort_index(ascending=False).ffill().fillna(0.0) \
        .sort_index()
    piv_d = grid.pivot_table(index="tm", columns="grp_a", values="d",
                             aggfunc="first").sort_index().fillna(0.0)
    death_times = piv_d.index[(piv_d.sum(axis=1) > 0).to_numpy()]
    na = piv_n.get(True, pd.Series(0.0, index=piv_n.index)) \
        .loc[death_times].to_numpy(np.float64)
    nb = piv_n.get(False, pd.Series(0.0, index=piv_n.index)) \
        .loc[death_times].to_numpy(np.float64)
    da = piv_d.get(True, pd.Series(0.0, index=piv_d.index)) \
        .loc[death_times].to_numpy(np.float64)
    db = piv_d.get(False, pd.Series(0.0, index=piv_d.index)) \
        .loc[death_times].to_numpy(np.float64)
    n = na + nb
    d = da + db
    expected_a = float(np.sum(d * na / n))
    observed_a = float(np.sum(da))
    with np.errstate(invalid="ignore", divide="ignore"):
        var_terms = np.where(
            n > 1, d * (na / n) * (1 - na / n) * (n - d) / (n - 1), 0.0)
    var = float(np.sum(var_terms))
    chi2 = (observed_a - expected_a) ** 2 / var if var > 0 else 0.0
    return pd.DataFrame({
        "n_times": [np.int64(len(death_times))],
        "observed_a": [np.int64(observed_a)],
        "expected_a": [np.round(expected_a, 6) + 0.0],
        "logrank_chi2": [np.round(chi2, 6) + 0.0],
    })


SQL_LOGRANK_USERS = """
    WITH u AS (
        SELECT user_id, min(ts) AS t1, count(*) AS c,
               CASE WHEN count(*) >= 2 THEN 1 ELSE 0 END AS death
        FROM events GROUP BY 1
    ),
    t2 AS (
        SELECT user_id, ts AS t2 FROM (
            SELECT user_id, ts,
                   row_number() OVER (PARTITION BY user_id
                                      ORDER BY ts) AS rn
            FROM events
        ) WHERE rn = 2
    ),
    mx AS (SELECT max(ts) AS m FROM events),
    su AS (
        SELECT (u.user_id % 2 = 0) AS grp_a, u.death,
               CAST(floor(epoch(CASE WHEN u.death = 1 THEN t2.t2
                                     ELSE mx.m END - u.t1)
                          / 3600.0) AS BIGINT) AS tm
        FROM u LEFT JOIN t2 USING (user_id), mx
    ),
    dt AS (SELECT DISTINCT tm FROM su WHERE death = 1),
    rk AS (
        SELECT dt.tm,
               sum(CASE WHEN su.tm >= dt.tm THEN 1 ELSE 0 END) AS n,
               sum(CASE WHEN su.tm >= dt.tm AND su.grp_a
                        THEN 1 ELSE 0 END) AS na,
               sum(CASE WHEN su.tm = dt.tm AND su.death = 1
                        THEN 1 ELSE 0 END) AS d,
               sum(CASE WHEN su.tm = dt.tm AND su.death = 1 AND su.grp_a
                        THEN 1 ELSE 0 END) AS da
        FROM dt, su GROUP BY 1
    )
    SELECT CAST(count(*) AS BIGINT) AS n_times,
           CAST(sum(da) AS BIGINT) AS observed_a,
           round(sum(d * na / CAST(n AS DOUBLE)), 6) + 0.0 AS expected_a,
           round(power(sum(da) - sum(d * na / CAST(n AS DOUBLE)), 2)
                 / sum(CASE WHEN n > 1
                            THEN d * (na / CAST(n AS DOUBLE))
                                 * (1 - na / CAST(n AS DOUBLE))
                                 * (n - d) / (n - 1.0)
                            ELSE 0 END), 6) + 0.0 AS logrank_chi2
    FROM rk
"""


@entry("granger_lag1_daily", sql=lambda: SQL_GRANGER_LAG1)
def q_granger_lag1_daily(sf_dir: str) -> pd.DataFrame:
    """Lag-1 Granger-causality F-test (Granger 1969, public) for every
    ordered pair (x→y) of daily series: y_d on y_{d−1} (restricted) vs
    y_d on (y_{d−1}, x_{d−1}) (unrestricted) over CALENDAR-consecutive
    days where all three exist, F = (SSE_r − SSE_u)/(SSE_u/(n−3)).
    The events→daily reduction is the distributed pass; the pair fold
    runs on the tiny (days × types) spine. Pairs with n<5, a singular
    normal matrix, or zero unrestricted SSE are skipped."""
    daily = _bucket_series(sf_dir, DAY_US, "d").to_pandas()
    nxt = daily.rename(columns={"v": "u"})
    nxt = nxt.assign(d=nxt["d"] + pd.Timedelta(days=1))
    rows = []
    types = sorted(daily["event_type"].unique())
    ylag = daily.merge(nxt, on=["event_type", "d"])  # y_d with y_{d-1}=u
    for xt in types:
        xl = nxt[nxt["event_type"] == xt][["d", "u"]] \
            .rename(columns={"u": "w"})
        for yt in types:
            if yt == xt:
                continue
            m = ylag[ylag["event_type"] == yt].merge(xl, on="d")
            n = len(m)
            if n < 5:
                continue
            y = m["v"].to_numpy(np.float64)
            u = m["u"].to_numpy(np.float64)
            w = m["w"].to_numpy(np.float64)
            cuu = (u * u).sum() - u.sum() ** 2 / n
            cww = (w * w).sum() - w.sum() ** 2 / n
            cuw = (u * w).sum() - u.sum() * w.sum() / n
            cuy = (u * y).sum() - u.sum() * y.sum() / n
            cwy = (w * y).sum() - w.sum() * y.sum() / n
            cyy = (y * y).sum() - y.sum() ** 2 / n
            det = cuu * cww - cuw * cuw
            if det <= 0 or cuu <= 0:
                continue
            b = (cuy * cww - cwy * cuw) / det
            c = (cwy * cuu - cuy * cuw) / det
            sse_u = cyy - b * cuy - c * cwy
            sse_r = cyy - cuy * cuy / cuu
            if sse_u <= 0:
                continue
            f = max(0.0, sse_r - sse_u) / (sse_u / (n - 3))
            rows.append((xt, yt, np.int64(n), np.round(f, 6) + 0.0))
    out = pd.DataFrame(rows, columns=["x_type", "y_type", "n_obs",
                                      "f_stat"])
    return out.sort_values(["x_type", "y_type"]).reset_index(drop=True)


SQL_GRANGER_LAG1 = f"""
    WITH daily AS ({_DAILY_SQL}),
    ty AS (SELECT DISTINCT event_type FROM daily),
    p AS (
        SELECT a.event_type AS xt, b.event_type AS yt
        FROM ty a, ty b WHERE a.event_type <> b.event_type
    ),
    obs AS (
        SELECT p.xt, p.yt, y.v AS yv, yl.v AS u, xl.v AS w
        FROM p
        JOIN daily y ON y.event_type = p.yt
        JOIN daily yl ON yl.event_type = p.yt
                     AND yl.d = y.d - INTERVAL 1 DAY
        JOIN daily xl ON xl.event_type = p.xt
                     AND xl.d = y.d - INTERVAL 1 DAY
    ),
    m AS (
        SELECT xt, yt, count(*) AS n,
               sum(yv) AS sy, sum(u) AS su, sum(w) AS sw,
               sum(yv * yv) AS syy, sum(u * u) AS suu,
               sum(w * w) AS sww, sum(u * yv) AS suy,
               sum(w * yv) AS swy, sum(u * w) AS suw
        FROM obs GROUP BY 1, 2 HAVING count(*) >= 5
    ),
    c AS (
        SELECT xt, yt, n,
               suu - su * su / n AS cuu, sww - sw * sw / n AS cww,
               suw - su * sw / n AS cuw, suy - su * sy / n AS cuy,
               swy - sw * sy / n AS cwy, syy - sy * sy / n AS cyy
        FROM m
    ),
    s AS (
        SELECT xt, yt, n, cuu, cyy, cuy,
               cuu * cww - cuw * cuw AS det,
               (cuy * cww - cwy * cuw) AS bnum,
               (cwy * cuu - cuy * cuw) AS cnum, cwy
        FROM c WHERE cuu * cww - cuw * cuw > 0 AND cuu > 0
    ),
    f AS (
        SELECT xt, yt, n,
               cyy - (bnum / det) * cuy - (cnum / det) * cwy AS sse_u,
               cyy - cuy * cuy / cuu AS sse_r
        FROM s
    )
    SELECT xt AS x_type, yt AS y_type, CAST(n AS BIGINT) AS n_obs,
           round(greatest(sse_r - sse_u, 0) / (sse_u / (n - 3)), 6) + 0.0
               AS f_stat
    FROM f WHERE sse_u > 0 ORDER BY 1, 2
"""


@entry("arch_lm_daily", sql=lambda: SQL_ARCH_LM)
def q_arch_lm_daily(sf_dir: str) -> pd.DataFrame:
    """Engle's ARCH LM test (Engle 1982, public), lag-1 form, per daily
    series: demeaned residuals e, regress e²_d on e²_{d−1} over
    calendar-consecutive days, LM = n·R² — large values flag volatility
    clustering the homoskedastic window stats would miss."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            e2 = (v - v.mean()) ** 2
            day = g["d"].to_numpy(dtype="datetime64[D]").astype("int64")
            prev = {d: x for d, x in zip(day, e2)}
            pairs = [(prev[d - 1], x) for d, x in zip(day, e2)
                     if d - 1 in prev]
            n = len(pairs)
            if n < 3:
                continue
            a = np.array([p[0] for p in pairs])
            b = np.array([p[1] for p in pairs])
            va, vb = a.var(), b.var()
            if va == 0 or vb == 0:
                continue
            r = ((a * b).mean() - a.mean() * b.mean()) / np.sqrt(va * vb)
            rows.append((et, np.int64(n), np.round(n * r * r, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_obs", "lm"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_obs"] = out["n_obs"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_ARCH_LM = f"""
    WITH daily AS ({_DAILY_SQL}),
    mu AS (
        SELECT event_type, avg(v) AS m FROM daily GROUP BY 1
    ),
    e AS (
        SELECT d.event_type, d.d, (d.v - mu.m) * (d.v - mu.m) AS e2
        FROM daily d JOIN mu USING (event_type)
    ),
    pr AS (
        SELECT a.event_type, b.e2 AS x, a.e2 AS y
        FROM e a JOIN e b ON b.event_type = a.event_type
                         AND b.d = a.d - INTERVAL 1 DAY
    ),
    m AS (
        SELECT event_type, count(*) AS n,
               var_pop(x) AS vx, var_pop(y) AS vy,
               covar_pop(x, y) AS cxy
        FROM pr GROUP BY 1
        HAVING count(*) >= 3 AND var_pop(x) > 0 AND var_pop(y) > 0
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_obs,
           round(n * (cxy * cxy) / (vx * vy), 6) + 0.0 AS lm
    FROM m ORDER BY 1
"""


@entry("weibull_fit_gaps", sql=lambda: SQL_WEIBULL_GAPS)
def q_weibull_fit_gaps(sf_dir: str) -> pd.DataFrame:
    """Weibull shape/scale via median-rank regression (Benard's
    approximation, public reliability-engineering standard) on per-user
    inter-event gaps, pooled: gaps floor to whole seconds (≥1 s kept),
    one regression point per DISTINCT gap value at its cumulative
    median rank F = (cum_count − 0.3)/(n + 0.4), OLS of
    ln(−ln(1−F)) on ln(gap) → slope = shape k, −intercept/k = ln scale.
    The per-user diff pass is distributed; the distinct-gap histogram
    is the only thing the driver sees."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        part = part.sort_values(["user_id", "ts"], kind="mergesort")
        gap = part.groupby("user_id")["ts"].diff().dt.total_seconds()
        gap = np.floor(gap.dropna().to_numpy(np.float64)).astype("int64")
        gap = gap[gap >= 1]
        if len(gap) == 0:
            return pd.DataFrame({"gap": pd.Series([], dtype="int64"),
                                 "c": pd.Series([], dtype="int64")})
        u, c = np.unique(gap, return_counts=True)
        return pd.DataFrame({"gap": u, "c": c.astype("int64")})

    hist = hash_aggregate(
        keyed_map_partitions(ev, ["user_id"], kernel,
                             num_partitions=_NP),
        ["gap"], {"c": ("c", "sum")}, num_partitions=4).to_pandas()
    hist = hist.sort_values("gap").reset_index(drop=True)
    n = float(hist["c"].sum())
    cg = hist["c"].cumsum().to_numpy(np.float64)
    x = np.log(hist["gap"].to_numpy(np.float64))
    y = np.log(-np.log(1.0 - (cg - 0.3) / (n + 0.4)))
    k = float(np.cov(x, y, bias=True)[0, 1] / np.var(x))
    a = float(y.mean() - k * x.mean())
    return pd.DataFrame({
        "n_gaps": [np.int64(n)],
        "n_points": [np.int64(len(hist))],
        "shape_k": [np.round(k, 6) + 0.0],
        "ln_scale": [np.round(-a / k, 6) + 0.0],
    })


SQL_WEIBULL_GAPS = """
    WITH o AS (
        SELECT user_id, ts,
               lag(ts) OVER (PARTITION BY user_id ORDER BY ts) AS pts
        FROM events
    ),
    g AS (
        SELECT CAST(floor(epoch(ts - pts)) AS BIGINT) AS gap
        FROM o WHERE pts IS NOT NULL
          AND CAST(floor(epoch(ts - pts)) AS BIGINT) >= 1
    ),
    cnt AS (SELECT gap, count(*) AS c FROM g GROUP BY 1),
    cum AS (
        SELECT gap, sum(c) OVER (ORDER BY gap) AS cg,
               (SELECT sum(c) FROM cnt) AS n
        FROM cnt
    ),
    pts AS (
        SELECT ln(CAST(gap AS DOUBLE)) AS x,
               ln(-ln(1 - (cg - 0.3) / (n + 0.4))) AS y,
               n
        FROM cum
    ),
    fit AS (
        SELECT any_value(n) AS n, count(*) AS np,
               covar_pop(x, y) / var_pop(x) AS k,
               avg(y) - covar_pop(x, y) / var_pop(x) * avg(x) AS a
        FROM pts
    )
    SELECT CAST(n AS BIGINT) AS n_gaps, CAST(np AS BIGINT) AS n_points,
           round(k, 6) + 0.0 AS shape_k,
           round(-a / k, 6) + 0.0 AS ln_scale
    FROM fit
"""


@entry("mcnemar_users", sql=lambda: SQL_MCNEMAR_USERS)
def q_mcnemar_users(sf_dir: str) -> pd.DataFrame:
    """McNemar's paired test (1947, public) on user activity between the
    two calendar halves of the corpus span (midpoint in integer µs):
    discordant counts b (first-half only) / c (second-half only), with
    continuity correction χ² = (|b−c|−1)²/(b+c). The per-user flag pass
    is distributed; only the 2×2 counts reach the driver."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    lo = pd.Timestamp(ev.min("ts")).value // 1000   # ns → µs
    hi = pd.Timestamp(ev.max("ts")).value // 1000
    mid = (lo + hi) // 2

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        us = part["ts"].to_numpy(dtype="datetime64[us]").astype("int64")
        h1 = pd.Series(us <= mid).groupby(
            part["user_id"].to_numpy()).any()
        h2 = pd.Series(us > mid).groupby(
            part["user_id"].to_numpy()).any()
        both = int((h1 & h2).sum())
        only1 = int((h1 & ~h2).sum())
        only2 = int((h2 & ~h1).sum())
        return pd.DataFrame({"a": [both], "b": [only1], "c": [only2]})

    parts = keyed_map_partitions(ev, ["user_id"], kernel,
                                 num_partitions=_NP).to_pandas()
    a, b, c = (int(parts["a"].sum()), int(parts["b"].sum()),
               int(parts["c"].sum()))
    chi2 = ((abs(b - c) - 1) ** 2 / (b + c)) if (b + c) > 0 else 0.0
    return pd.DataFrame({
        "n_users": [np.int64(a + b + c)],
        "both_halves": [np.int64(a)],
        "only_first": [np.int64(b)],
        "only_second": [np.int64(c)],
        "mcnemar_chi2": [np.round(chi2, 6) + 0.0],
    })


SQL_MCNEMAR_USERS = """
    WITH mx AS (
        SELECT (min(epoch_us(ts)) + max(epoch_us(ts))) // 2 AS mid
        FROM events
    ),
    u AS (
        SELECT user_id,
               max(CASE WHEN epoch_us(ts) <= mx.mid THEN 1 ELSE 0 END)
                   AS h1,
               max(CASE WHEN epoch_us(ts) > mx.mid THEN 1 ELSE 0 END)
                   AS h2
        FROM events, mx GROUP BY user_id, mx.mid
    ),
    k AS (
        SELECT sum(CASE WHEN h1 = 1 AND h2 = 1 THEN 1 ELSE 0 END) AS a,
               sum(CASE WHEN h1 = 1 AND h2 = 0 THEN 1 ELSE 0 END) AS b,
               sum(CASE WHEN h1 = 0 AND h2 = 1 THEN 1 ELSE 0 END) AS c
        FROM u
    )
    SELECT CAST(a + b + c AS BIGINT) AS n_users,
           CAST(a AS BIGINT) AS both_halves,
           CAST(b AS BIGINT) AS only_first,
           CAST(c AS BIGINT) AS only_second,
           round(CASE WHEN b + c > 0
                      THEN power(abs(b - c) - 1, 2)
                           / CAST(b + c AS DOUBLE)
                      ELSE 0 END, 6) + 0.0 AS mcnemar_chi2
    FROM k
"""


@entry("davies_bouldin_embeddings", sql=lambda: SQL_DAVIES_BOULDIN)
def q_davies_bouldin_embeddings(sf_dir: str) -> pd.DataFrame:
    """Davies–Bouldin cluster-validity index (1979, public) over the
    labelled embeddings: per-label scatter S_i = mean Euclidean distance
    to the 6dp-rounded label centroid, separation M_ij = centroid
    distance, db_i = max_{j≠i} round((S_i+S_j)/M_ij, 6). Centroids and
    member distances are the distributed passes (partial scatter sums per
    batch); the label×label fold is tiny. Rounding the centroids before
    the distance pass pins both engines to identical operands."""
    from forecastframe_ray.pipelines.similarity import label_centroids
    from forecastframe_ray.pipelines.similarity import _stack

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])
    cent = label_centroids(emb).to_pandas()
    piv = cent.pivot_table(index="label", columns="dim",
                           values="centroid").sort_index()
    labels = piv.index.to_numpy()
    C = piv.to_numpy(np.float64)  # k × d, already 6dp-rounded
    lab_pos = {int(l): i for i, l in enumerate(labels)}

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        M = _stack(b["embedding"]).astype(np.float64)
        li = np.array([lab_pos[int(x)] for x in b["label"].to_numpy()])
        dist = np.sqrt(((M - C[li]) ** 2).sum(axis=1))
        sums = np.zeros(len(labels))
        np.add.at(sums, li, dist)
        cnt = np.bincount(li, minlength=len(labels)).astype("int64")
        return pd.DataFrame({"label": labels.astype("int64"),
                             "sd": sums, "n": cnt})

    agg = hash_aggregate(emb.map_batches(partial, batch_format="pandas"),
                         ["label"], {"sd": ("sd", "sum"),
                                     "n": ("n", "sum")},
                         num_partitions=4).to_pandas()
    agg = agg[agg["n"] > 0].sort_values("label").reset_index(drop=True)
    s = np.round(agg["sd"].to_numpy(np.float64)
                 / agg["n"].to_numpy(np.float64), 6)
    order = [lab_pos[int(l)] for l in agg["label"]]
    Cs = C[order]
    k = len(agg)
    rows = []
    for i in range(k):
        ratios = []
        for j in range(k):
            if j == i:
                continue
            mij = float(np.sqrt(((Cs[i] - Cs[j]) ** 2).sum()))
            if mij > 0:
                ratios.append(np.round((s[i] + s[j]) / mij, 6))
        rows.append((np.int64(agg["label"][i]), np.int64(agg["n"][i]),
                     s[i] + 0.0,
                     (max(ratios) + 0.0) if ratios else NULLF))
    return pd.DataFrame(rows, columns=["label", "n", "s_i", "db_i"])


SQL_DAVIES_BOULDIN = """
    WITH e AS (
        SELECT vec_id, label, unnest(embedding) AS v,
               generate_subscripts(embedding, 1) AS i
        FROM embeddings
    ),
    c AS (SELECT label, i, round(avg(v), 6) AS c FROM e GROUP BY 1, 2),
    d AS (
        SELECT e.vec_id, e.label,
               sqrt(sum((e.v - c.c) * (e.v - c.c))) AS dist
        FROM e JOIN c ON c.label = e.label AND c.i = e.i
        GROUP BY 1, 2
    ),
    s AS (
        SELECT label, count(*) AS n, round(avg(dist), 6) AS s_i
        FROM d GROUP BY 1
    ),
    m AS (
        SELECT a.label AS la, b.label AS lb,
               sqrt(sum((a.c - b.c) * (a.c - b.c))) AS mij
        FROM c a JOIN c b ON a.i = b.i AND a.label <> b.label
        GROUP BY 1, 2
    ),
    r AS (
        SELECT m.la AS label,
               round((sa.s_i + sb.s_i) / m.mij, 6) AS ratio
        FROM m JOIN s sa ON sa.label = m.la
               JOIN s sb ON sb.label = m.lb
        WHERE m.mij > 0
    )
    SELECT CAST(s.label AS BIGINT) AS label, CAST(s.n AS BIGINT) AS n,
           s.s_i + 0.0 AS s_i,
           coalesce(max(r.ratio), -999.0) + 0.0 AS db_i
    FROM s LEFT JOIN r ON r.label = s.label
    GROUP BY 1, 2, 3 ORDER BY 1
"""


@entry("conformal_naive_daily", sql=lambda: SQL_CONFORMAL_NAIVE)
def q_conformal_naive_daily(sf_dir: str) -> pd.DataFrame:
    """Split-conformal prediction interval (Vovk et al., public) around
    the seasonal-naive forecaster ŷ_d = y_{d−7}: per series the last 5
    scored days are the test split, the rest calibrate, q̂ = the
    ⌈0.8·(n_cal+1)⌉-th smallest |residual| (exact order statistic,
    α = 0.2), coverage = share of test days inside ±q̂. Series with
    fewer than 15 scored days are skipped."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            day = g["d"].to_numpy(dtype="datetime64[D]").astype("int64")
            v = g["v"].to_numpy(np.float64)
            prev = {d: x for d, x in zip(day, v)}
            scored = [(d, abs(x - prev[d - 7])) for d, x in zip(day, v)
                      if d - 7 in prev]
            if len(scored) < 15:
                continue
            ar = np.array([r for _, r in scored])
            cal, tst = ar[:-5], ar[-5:]
            kth = int(np.ceil(0.8 * (len(cal) + 1)))
            qhat = float(np.sort(cal)[kth - 1])
            rows.append((et, np.int64(len(cal)), np.int64(len(tst)),
                         np.round(qhat, 6) + 0.0,
                         np.round(float((tst <= qhat).mean()), 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_cal",
                                           "n_test", "q_hat", "coverage"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_cal": "int64", "n_test": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_CONFORMAL_NAIVE = f"""
    WITH daily AS ({_DAILY_SQL}),
    p AS (
        SELECT a.event_type, a.d, abs(a.v - b.v) AS ar
        FROM daily a JOIN daily b
          ON b.event_type = a.event_type
         AND b.d = a.d - INTERVAL 7 DAY
    ),
    r AS (
        SELECT event_type, d, ar,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY d DESC) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM p
    ),
    ok AS (SELECT * FROM r WHERE n >= 15),
    q AS (
        SELECT event_type, ar AS qhat, nc FROM (
            SELECT event_type, ar,
                   row_number() OVER (PARTITION BY event_type
                                      ORDER BY ar) AS k,
                   count(*) OVER (PARTITION BY event_type) AS nc
            FROM ok WHERE rn > 5
        ) WHERE k = CAST(ceil(0.8 * (nc + 1)) AS BIGINT)
    )
    SELECT t.event_type, CAST(any_value(q.nc) AS BIGINT) AS n_cal,
           CAST(count(*) AS BIGINT) AS n_test,
           round(any_value(q.qhat), 6) + 0.0 AS q_hat,
           round(avg(CASE WHEN t.ar <= q.qhat THEN 1.0 ELSE 0 END), 6)
               + 0.0 AS coverage
    FROM ok t JOIN q USING (event_type)
    WHERE t.rn <= 5
    GROUP BY 1 ORDER BY 1
"""


@entry("gk_gamma_lineitem", sql=lambda: SQL_GK_GAMMA)
def q_goodman_kruskal_gamma(sf_dir: str) -> pd.DataFrame:
    """Goodman–Kruskal gamma (1954, public) between the two ordinal
    lineitem columns quantity (1..50) and discount (0.00..0.10):
    γ = (C−D)/(C+D) with concordant/discordant pair counts folded from
    the k×m contingency table — the heavy pass is one distributed
    count per cell; the ~550-cell table folds on the driver in O(k²m²)
    of CELLS, never rows."""
    li = _read(sf_dir, "lineitem", ["l_quantity", "l_discount"])

    def bucket(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "q": b["l_quantity"].to_numpy(np.float64).astype("int64"),
            "dsc": np.round(b["l_discount"].to_numpy(np.float64) * 100)
                .astype("int64"),
        })

    cells = hash_count(li.map_batches(bucket, batch_format="pandas"),
                       ["q", "dsc"], num_partitions=_NP).to_pandas()
    piv = cells.pivot_table(index="q", columns="dsc", values="n",
                            aggfunc="sum").fillna(0).sort_index()
    piv = piv[sorted(piv.columns)]
    M = piv.to_numpy(np.float64)
    # suffix/prefix 2-D cumulatives: N_gt[i,j] = Σ_{i'>i, j'>j} n
    below = np.zeros_like(M)
    below[:-1, :-1] = M[1:, 1:][::-1, ::-1].cumsum(0).cumsum(1)[::-1, ::-1]
    above = np.zeros_like(M)
    above[:-1, 1:] = M[1:, :-1][::-1, :].cumsum(0)[::-1, :].cumsum(1)
    conc = float((M * below).sum())
    disc = float((M * above).sum())
    return pd.DataFrame({
        "n_rows": [np.int64(M.sum())],
        "concordant": [np.int64(conc)],
        "discordant": [np.int64(disc)],
        "gamma": [np.round((conc - disc) / (conc + disc), 6) + 0.0],
    })


SQL_GK_GAMMA = """
    WITH cells AS (
        SELECT CAST(l_quantity AS BIGINT) AS q,
               CAST(round(l_discount * 100) AS BIGINT) AS dsc,
               count(*) AS n
        FROM lineitem GROUP BY 1, 2
    ),
    pairs AS (
        SELECT sum(a.n * b.n) FILTER (
                   WHERE (b.q > a.q AND b.dsc > a.dsc)) AS conc,
               sum(a.n * b.n) FILTER (
                   WHERE (b.q > a.q AND b.dsc < a.dsc)) AS disc
        FROM cells a, cells b
    ),
    tot AS (SELECT sum(n) AS nr FROM cells)
    SELECT CAST(tot.nr AS BIGINT) AS n_rows,
           CAST(pairs.conc AS BIGINT) AS concordant,
           CAST(pairs.disc AS BIGINT) AS discordant,
           round((pairs.conc - pairs.disc)
                 / CAST(pairs.conc + pairs.disc AS DOUBLE), 6) + 0.0
               AS gamma
    FROM pairs, tot
"""


@entry("ols_influence_daily", sql=lambda: SQL_OLS_INFLUENCE)
def q_ols_influence_daily(sf_dir: str) -> pd.DataFrame:
    """Regression influence diagnostics (Cook 1977, public) for each
    series' daily linear trend: leverage h_t = 1/n + (t−t̄)²/S_tt and
    Cook's distance D_t = e_t²·h_t / (p·s²·(1−h_t)²) with p = 2,
    s² = SSE/(n−2); reports each series' maxima — the classic 'is the
    trend slope owned by one day?' audit."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            t = g["d"].to_numpy(dtype="datetime64[D]").astype("int64") \
                .astype(np.float64)
            n = len(v)
            stt = ((t - t.mean()) ** 2).sum()
            if n < 4 or stt == 0:
                continue
            beta = ((t - t.mean()) * (v - v.mean())).sum() / stt
            e = v - (v.mean() + beta * (t - t.mean()))
            h = 1.0 / n + (t - t.mean()) ** 2 / stt
            s2 = (e * e).sum() / (n - 2)
            if s2 <= 0:
                continue
            cook = e * e * h / (2 * s2 * (1 - h) ** 2)
            rows.append((et, np.int64(n),
                         np.round(h.max(), 6) + 0.0,
                         np.round(cook.max(), 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "max_leverage", "max_cook"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_OLS_INFLUENCE = """
    WITH daily AS (
        SELECT event_type, date_trunc('day', ts) AS d,
               round(sum(value), 6) AS v
        FROM events GROUP BY 1, 2
    ),
    x AS (
        SELECT event_type, v, CAST(epoch(d) / 86400 AS DOUBLE) AS t
        FROM daily
    ),
    m AS (
        SELECT event_type, count(*) AS n, avg(t) AS tb, avg(v) AS vb,
               sum(t * t) - count(*) * avg(t) * avg(t) AS stt,
               sum(t * v) - count(*) * avg(t) * avg(v) AS stv
        FROM x GROUP BY 1 HAVING count(*) >= 4
           AND sum(t * t) - count(*) * avg(t) * avg(t) > 0
    ),
    r AS (
        SELECT x.event_type, m.n,
               x.v - (m.vb + (m.stv / m.stt) * (x.t - m.tb)) AS e,
               1.0 / m.n + (x.t - m.tb) * (x.t - m.tb) / m.stt AS h
        FROM x JOIN m USING (event_type)
    ),
    s AS (
        SELECT event_type, any_value(n) AS n,
               sum(e * e) / (any_value(n) - 2) AS s2
        FROM r GROUP BY 1 HAVING sum(e * e) > 0
    )
    SELECT r.event_type, CAST(s.n AS BIGINT) AS n_days,
           round(max(r.h), 6) + 0.0 AS max_leverage,
           round(max(r.e * r.e * r.h
                     / (2 * s.s2 * (1 - r.h) * (1 - r.h))), 6) + 0.0
               AS max_cook
    FROM r JOIN s USING (event_type)
    GROUP BY 1, s.n ORDER BY 1
"""


@entry("jackknife_cv_daily", sql=lambda: SQL_JACKKNIFE_CV)
def q_jackknife_cv_daily(sf_dir: str) -> pd.DataFrame:
    """Delete-one jackknife standard error (Tukey 1958, public) of each
    series' coefficient of variation CV = s/ȳ — closed-form leave-one-out
    replicates from (n, Σy, Σy²) so the pass stays one-shot vectorized:
    SE = √((n−1)/n · Σ(cv_i − c̄v)²). The nonlinear CV is exactly the
    statistic where the jackknife differs from the plug-in SE."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            if n < 10:
                continue
            s1, s2 = v.sum(), (v * v).sum()
            mean = s1 / n
            var = (s2 - n * mean * mean) / (n - 1)
            if var <= 0 or mean == 0:
                continue
            cv = np.sqrt(var) / mean
            mean_i = (s1 - v) / (n - 1)
            var_i = (s2 - v * v - (n - 1) * mean_i * mean_i) / (n - 2)
            cv_i = np.sqrt(np.maximum(var_i, 0.0)) / mean_i
            se = np.sqrt((n - 1) / n * ((cv_i - cv_i.mean()) ** 2).sum())
            rows.append((et, np.int64(n), np.round(cv, 6) + 0.0,
                         np.round(se, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "cv", "jackknife_se"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_JACKKNIFE_CV = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (
        SELECT event_type, count(*) AS n, sum(v) AS s1,
               sum(v * v) AS s2
        FROM daily GROUP BY 1 HAVING count(*) >= 10
    ),
    base AS (
        SELECT event_type, n, s1, s2, s1 / n AS mean,
               (s2 - n * (s1 / n) * (s1 / n)) / (n - 1) AS var
        FROM m
        WHERE (s2 - n * (s1 / n) * (s1 / n)) / (n - 1) > 0
          AND s1 / n <> 0
    ),
    rep AS (
        SELECT d.event_type, b.n, sqrt(b.var) / b.mean AS cv,
               sqrt(greatest(
                   (b.s2 - d.v * d.v
                    - (b.n - 1) * ((b.s1 - d.v) / (b.n - 1))
                                * ((b.s1 - d.v) / (b.n - 1)))
                   / (b.n - 2), 0))
               / ((b.s1 - d.v) / (b.n - 1)) AS cv_i
        FROM daily d JOIN base b USING (event_type)
    )
    SELECT event_type, CAST(any_value(n) AS BIGINT) AS n_days,
           round(any_value(cv), 6) + 0.0 AS cv,
           round(sqrt((any_value(n) - 1.0) / any_value(n)
                      * greatest(sum(cv_i * cv_i)
                                 - count(*) * avg(cv_i) * avg(cv_i),
                                 0)), 6) + 0.0 AS jackknife_se
    FROM rep GROUP BY 1 ORDER BY 1
"""


@entry("bhattacharyya_sources", sql=lambda: SQL_BHATTACHARYYA)
def q_bhattacharyya_sources(sf_dir: str) -> pd.DataFrame:
    """Bhattacharyya coefficient and Hellinger distance (public,
    Bhattacharyya 1943) between every two sources' whitespace-token
    unigram distributions: BC = Σ_t √(p_t·q_t) over SHARED tokens (absent
    tokens contribute exactly 0, so no full-vocabulary pass), H = √(1−BC).
    The per-(source, token) reduce is the distributed pass; the pair fold
    runs on the vocab-sized reduced table."""
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
    totals = st.groupby("source")["n"].sum()
    st["p"] = st["n"].to_numpy(np.float64) \
        / totals.loc[st["source"]].to_numpy(np.float64)
    sources = sorted(totals.index)
    rows = []
    for i, sa in enumerate(sources):
        ga = st[st["source"] == sa].set_index("tok")["p"]
        for sb in sources[i + 1:]:
            gb = st[st["source"] == sb].set_index("tok")["p"]
            shared = ga.index.intersection(gb.index)
            bc = float(np.sqrt(ga.loc[shared].to_numpy(np.float64)
                               * gb.loc[shared].to_numpy(np.float64))
                       .sum())
            rows.append((sa, sb, np.round(bc, 6) + 0.0,
                         np.round(np.sqrt(max(1.0 - bc, 0.0)), 6) + 0.0))
    return pd.DataFrame(rows, columns=["source_a", "source_b",
                                       "bhattacharyya", "hellinger"])


SQL_BHATTACHARYYA = r"""
    WITH g AS (
        SELECT source, unnest(regexp_extract_all(text, '\S+')) AS tok
        FROM documents
    ),
    st AS (SELECT source, tok, count(*) AS n FROM g GROUP BY 1, 2),
    src AS (SELECT source, sum(n) AS n_src FROM st GROUP BY 1),
    p AS (
        SELECT st.source, st.tok,
               st.n / CAST(src.n_src AS DOUBLE) AS p
        FROM st JOIN src USING (source)
    ),
    pairs AS (
        SELECT a.source AS source_a, b.source AS source_b,
               sum(sqrt(a.p * b.p)) AS bc
        FROM p a JOIN p b ON a.tok = b.tok AND a.source < b.source
        GROUP BY 1, 2
    )
    SELECT source_a, source_b, round(bc, 6) + 0.0 AS bhattacharyya,
           round(sqrt(greatest(1 - bc, 0)), 6) + 0.0 AS hellinger
    FROM pairs ORDER BY 1, 2
"""


@entry("seasonal_mk_daily", sql=lambda: SQL_SEASONAL_MK)
def q_seasonal_mann_kendall_daily(sf_dir: str) -> pd.DataFrame:
    """Seasonal Mann–Kendall trend test (Hirsch & Slack 1984, public):
    the MK S statistic accumulates only WITHIN each weekday's
    subseries (so weekly seasonality cannot masquerade as trend),
    summed over the 7 seasons with the tie-corrected variance
    Var = Σ_s (n_s(n_s−1)(2n_s+5) − Σ_t t(t−1)(2t+5))/18 and the
    continuity-corrected normal score."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            dow = g["d"].dt.dayofweek.to_numpy() + 1
            v = g["v"].to_numpy(np.float64)
            s_tot, var = 0, 0.0
            for s in np.unique(dow):
                vs = v[dow == s]
                ns = len(vs)
                if ns < 2:
                    continue
                diffs = np.sign(vs[None, :] - vs[:, None])
                s_tot += int(np.triu(diffs, 1).sum())
                _, tcnt = np.unique(vs, return_counts=True)
                tie = float((tcnt * (tcnt - 1) * (2 * tcnt + 5)).sum())
                var += (ns * (ns - 1) * (2 * ns + 5) - tie) / 18.0
            if var > 0:
                z = ((s_tot - 1) / np.sqrt(var) if s_tot > 0
                     else (s_tot + 1) / np.sqrt(var) if s_tot < 0
                     else 0.0)
            else:
                z = 0.0
            rows.append((et, np.int64(s_tot), np.round(var, 6) + 0.0,
                         np.round(z, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "s_total",
                                           "var_s", "z"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["s_total"] = out["s_total"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_SEASONAL_MK = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (SELECT event_type, isodow(d) AS dow, d, v FROM daily),
    s AS (
        SELECT a.event_type,
               sum(CASE WHEN b.v > a.v THEN 1
                        WHEN b.v < a.v THEN -1 ELSE 0 END) AS s_tot
        FROM w a JOIN w b ON b.event_type = a.event_type
                         AND b.dow = a.dow AND b.d > a.d
        GROUP BY 1
    ),
    grp AS (
        SELECT event_type, dow, count(*) AS ns FROM w GROUP BY 1, 2
    ),
    ties AS (
        SELECT event_type, dow,
               sum(t * (t - 1) * (2 * t + 5)) AS tie
        FROM (SELECT event_type, dow, v, count(*) AS t
              FROM w GROUP BY 1, 2, 3)
        GROUP BY 1, 2
    ),
    vr AS (
        SELECT g.event_type,
               sum(CASE WHEN g.ns >= 2
                        THEN (g.ns * (g.ns - 1.0) * (2 * g.ns + 5)
                              - coalesce(t.tie, 0)) / 18.0
                        ELSE 0 END) AS var
        FROM grp g LEFT JOIN ties t
          ON t.event_type = g.event_type AND t.dow = g.dow
        GROUP BY 1
    )
    SELECT s.event_type, CAST(s.s_tot AS BIGINT) AS s_total,
           round(vr.var, 6) + 0.0 AS var_s,
           round(CASE WHEN vr.var > 0 THEN
                      CASE WHEN s.s_tot > 0
                           THEN (s.s_tot - 1) / sqrt(vr.var)
                           WHEN s.s_tot < 0
                           THEN (s.s_tot + 1) / sqrt(vr.var)
                           ELSE 0 END
                      ELSE 0 END, 6) + 0.0 AS z
    FROM s JOIN vr USING (event_type) ORDER BY 1
"""


@entry("price_cents_uniformity", sql=lambda: SQL_PRICE_CENTS)
def q_price_cents_uniformity(sf_dir: str) -> pd.DataFrame:
    """Chi-square uniformity test of the CENTS digits of order totals
    over the 100 possible values — the classic pricing/fraud screen
    (fabricated amounts cluster on round cents). Pure counting, so the
    statistic is exactly reproducible: χ² = Σ(obs − n/100)²/(n/100)."""
    orders = _read(sf_dir, "orders", ["o_totalprice"])

    def cents(b: pd.DataFrame) -> pd.DataFrame:
        c = np.round(b["o_totalprice"].to_numpy(np.float64) * 100) \
            .astype("int64") % 100
        return pd.DataFrame({"c": c})

    cnt = hash_count(orders.map_batches(cents, batch_format="pandas"),
                     ["c"], num_partitions=4).to_pandas()
    n = float(cnt["n"].sum())
    exp = n / 100.0
    obs = np.zeros(100)
    obs[cnt["c"].to_numpy()] = cnt["n"].to_numpy(np.float64)
    chi2 = float(((obs - exp) ** 2 / exp).sum())
    return pd.DataFrame({
        "n_orders": [np.int64(n)],
        "bins_present": [np.int64(len(cnt))],
        "chi2": [np.round(chi2, 6) + 0.0],
    })


SQL_PRICE_CENTS = """
    WITH c AS (
        SELECT CAST(round(o_totalprice * 100) AS BIGINT) % 100 AS c
        FROM orders
    ),
    cnt AS (SELECT c, count(*) AS n FROM c GROUP BY 1),
    tot AS (SELECT sum(n) AS n FROM cnt),
    bins AS (SELECT unnest(range(0, 100)) AS b),
    f AS (
        SELECT coalesce(cnt.n, 0) AS obs,
               (SELECT n FROM tot) / 100.0 AS exp
        FROM bins LEFT JOIN cnt ON cnt.c = bins.b
    )
    SELECT CAST((SELECT n FROM tot) AS BIGINT) AS n_orders,
           CAST((SELECT count(*) FROM cnt) AS BIGINT) AS bins_present,
           round(sum((f.obs - f.exp) * (f.obs - f.exp) / f.exp), 6) + 0.0
               AS chi2
    FROM f
"""


@entry("calinski_harabasz_embeddings", sql=lambda: SQL_CALINSKI_HARABASZ)
def q_calinski_harabasz_embeddings(sf_dir: str) -> pd.DataFrame:
    """Calinski–Harabasz variance-ratio index (1974, public) of the
    labelled embeddings: CH = (B/(k−1))/(W/(n−k)), between-scatter B
    from 6dp-rounded label/global centroids (pinning both engines to
    identical operands), within-scatter W from one distributed
    squared-distance pass against the broadcast rounded centroids."""
    from forecastframe_ray.pipelines.similarity import _stack

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        M = _stack(b["embedding"]).astype(np.float64)
        labels = b["label"].to_numpy()
        uniq, inv = np.unique(labels, return_inverse=True)
        d = M.shape[1]
        S = np.zeros((len(uniq), d))
        np.add.at(S, inv, M)
        n = np.bincount(inv, minlength=len(uniq)).astype("int64")
        return pd.DataFrame({
            "label": np.repeat(uniq.astype("int64"), d),
            "dim": np.tile(np.arange(d, dtype=np.int64), len(uniq)),
            "s": S.ravel(), "n": np.repeat(n, d),
        })

    sums = hash_aggregate(emb.map_batches(partial, batch_format="pandas"),
                          ["label", "dim"], {"s": ("s", "sum"),
                                             "n": ("n", "sum")},
                          num_partitions=4, hash_keys=["label"]).to_pandas()
    piv_s = sums.pivot_table(index="label", columns="dim",
                             values="s").sort_index()
    piv_n = sums.pivot_table(index="label", columns="dim",
                             values="n").sort_index()
    n_i = piv_n.iloc[:, 0].to_numpy(np.float64)
    C = np.round(piv_s.to_numpy(np.float64) / n_i[:, None], 6)  # k × d
    n = float(n_i.sum())
    gc = np.round(piv_s.to_numpy(np.float64).sum(axis=0) / n, 6)
    k = len(n_i)
    B = float((n_i[:, None] * (C - gc) ** 2).sum())
    labels = piv_s.index.to_numpy()
    lab_pos = {int(l): i for i, l in enumerate(labels)}

    def wpart(b: pd.DataFrame) -> pd.DataFrame:
        M = _stack(b["embedding"]).astype(np.float64)
        li = np.array([lab_pos[int(x)] for x in b["label"].to_numpy()])
        return pd.DataFrame({"w": [float(((M - C[li]) ** 2).sum())]})

    W = float(emb.map_batches(wpart, batch_format="pandas")
              .to_pandas()["w"].sum())
    ch = (B / (k - 1)) / (W / (n - k)) if k > 1 and W > 0 else 0.0
    return pd.DataFrame({
        "n": [np.int64(n)], "k": [np.int64(k)],
        "between_ss": [np.round(B, 4) + 0.0],
        "within_ss": [np.round(W, 4) + 0.0],
        "ch_index": [np.round(ch, 6) + 0.0],
    })


SQL_CALINSKI_HARABASZ = """
    WITH e AS (
        SELECT vec_id, label, unnest(embedding) AS v,
               generate_subscripts(embedding, 1) AS i
        FROM embeddings
    ),
    c AS (SELECT label, i, round(avg(v), 6) AS c FROM e GROUP BY 1, 2),
    g AS (SELECT i, round(avg(v), 6) AS gc FROM e GROUP BY 1),
    ln_ AS (SELECT label, count(*) AS nl FROM embeddings GROUP BY 1),
    tot AS (SELECT count(*) AS n, count(DISTINCT label) AS k
            FROM embeddings),
    b AS (
        SELECT sum(ln_.nl * (c.c - g.gc) * (c.c - g.gc)) AS bss
        FROM c JOIN g USING (i) JOIN ln_ USING (label)
    ),
    w AS (
        SELECT sum((e.v - c.c) * (e.v - c.c)) AS wss
        FROM e JOIN c ON c.label = e.label AND c.i = e.i
    )
    SELECT CAST(tot.n AS BIGINT) AS n, CAST(tot.k AS BIGINT) AS k,
           round(b.bss, 4) + 0.0 AS between_ss,
           round(w.wss, 4) + 0.0 AS within_ss,
           round(CASE WHEN tot.k > 1 AND w.wss > 0
                      THEN (b.bss / (tot.k - 1))
                           / (w.wss / (tot.n - tot.k))
                      ELSE 0 END, 6) + 0.0 AS ch_index
    FROM b, w, tot
"""


@entry("breusch_pagan_daily", sql=lambda: SQL_BREUSCH_PAGAN)
def q_breusch_pagan_daily(sf_dir: str) -> pd.DataFrame:
    """Breusch–Pagan heteroskedasticity test in Koenker's studentized
    LM form (public): residuals e from each series' daily OLS trend,
    then LM = n·R² of the auxiliary regression e² on the day index —
    flags variance drifting WITH the trend (ARCH-LM catches the lagged
    form; this catches the deterministic form)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            t = g["d"].to_numpy(dtype="datetime64[D]").astype("int64") \
                .astype(np.float64)
            n = len(v)
            tc = t - t.mean()
            stt = (tc * tc).sum()
            if n < 5 or stt == 0:
                continue
            e = v - v.mean() - ((tc * (v - v.mean())).sum() / stt) * tc
            e2 = e * e
            ve2 = e2.var()
            if ve2 == 0:
                continue
            r = ((t * e2).mean() - t.mean() * e2.mean()) \
                / np.sqrt(t.var() * ve2)
            rows.append((et, np.int64(n), np.round(n * r * r, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days", "lm"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_BREUSCH_PAGAN = """
    WITH daily AS (
        SELECT event_type, date_trunc('day', ts) AS d,
               round(sum(value), 6) AS v
        FROM events GROUP BY 1, 2
    ),
    x AS (
        SELECT event_type, v, CAST(epoch(d) / 86400 AS DOUBLE) AS t
        FROM daily
    ),
    m AS (
        SELECT event_type, count(*) AS n, avg(t) AS tb, avg(v) AS vb,
               covar_pop(t, v) / var_pop(t) AS beta
        FROM x GROUP BY 1
        HAVING count(*) >= 5 AND var_pop(t) > 0
    ),
    r AS (
        SELECT x.event_type, m.n, x.t,
               (x.v - m.vb - m.beta * (x.t - m.tb))
               * (x.v - m.vb - m.beta * (x.t - m.tb)) AS e2
        FROM x JOIN m USING (event_type)
    )
    SELECT event_type, CAST(any_value(n) AS BIGINT) AS n_days,
           round(any_value(n) * covar_pop(t, e2) * covar_pop(t, e2)
                 / (var_pop(t) * var_pop(e2)), 6) + 0.0 AS lm
    FROM r GROUP BY 1 HAVING var_pop(e2) > 0 ORDER BY 1
"""


@entry("chow_break_daily", sql=lambda: SQL_CHOW_BREAK)
def q_chow_break_daily(sf_dir: str) -> pd.DataFrame:
    """Chow structural-break F-test (1960, public) at each series'
    rank midpoint: pooled vs per-half linear-trend fits, every SSE in
    the closed centered-moments form (no residual rows shuffled):
    F = ((SSE_p − SSE_1 − SSE_2)/2) / ((SSE_1+SSE_2)/(n−4))."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def sse(t: np.ndarray, v: np.ndarray) -> float:
        tc, vc = t - t.mean(), v - v.mean()
        stt = (tc * tc).sum()
        if stt == 0:
            return float((vc * vc).sum())
        return float((vc * vc).sum() - ((tc * vc).sum()) ** 2 / stt)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            t = g["d"].to_numpy(dtype="datetime64[D]").astype("int64") \
                .astype(np.float64)
            n = len(v)
            if n < 8:
                continue
            h = int(np.ceil(n / 2))
            s_p = sse(t, v)
            s_1 = sse(t[:h], v[:h])
            s_2 = sse(t[h:], v[h:])
            den = (s_1 + s_2) / (n - 4)
            if den <= 0:
                continue
            f = max(0.0, s_p - s_1 - s_2) / 2.0 / den
            rows.append((et, np.int64(n), np.round(f, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "f_chow"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_CHOW_BREAK = """
    WITH daily AS (
        SELECT event_type, date_trunc('day', ts) AS d,
               round(sum(value), 6) AS v
        FROM events GROUP BY 1, 2
    ),
    x AS (
        SELECT event_type, v, CAST(epoch(d) / 86400 AS DOUBLE) AS t,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY d) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    seg AS (
        SELECT event_type, v, t, n,
               CASE WHEN rn <= CAST(ceil(n / 2.0) AS BIGINT)
                    THEN 1 ELSE 2 END AS h
        FROM x WHERE n >= 8
    ),
    ms AS (
        SELECT event_type, h, any_value(n) AS n, count(*) AS ns,
               sum(v * v) - count(*) * avg(v) * avg(v) AS cyy,
               sum(t * t) - count(*) * avg(t) * avg(t) AS ctt,
               sum(t * v) - count(*) * avg(t) * avg(v) AS cty
        FROM seg GROUP BY 1, 2
    ),
    mp AS (
        SELECT event_type, any_value(n) AS n,
               sum(v * v) - count(*) * avg(v) * avg(v) AS cyy,
               sum(t * t) - count(*) * avg(t) * avg(t) AS ctt,
               sum(t * v) - count(*) * avg(t) * avg(v) AS cty
        FROM seg GROUP BY 1
    ),
    sse_h AS (
        SELECT event_type, any_value(n) AS n,
               sum(CASE WHEN ctt > 0 THEN cyy - cty * cty / ctt
                        ELSE cyy END) AS s12
        FROM ms GROUP BY 1
    ),
    sse_p AS (
        SELECT event_type,
               CASE WHEN ctt > 0 THEN cyy - cty * cty / ctt
                    ELSE cyy END AS sp
        FROM mp
    )
    SELECT h.event_type, CAST(h.n AS BIGINT) AS n_days,
           round(greatest(p.sp - h.s12, 0) / 2.0
                 / (h.s12 / (h.n - 4)), 6) + 0.0 AS f_chow
    FROM sse_h h JOIN sse_p p USING (event_type)
    WHERE h.s12 / (h.n - 4) > 0 ORDER BY 1
"""


@entry("brand_return_rate", sql=lambda: SQL_BRAND_RETURN_RATE)
def q_brand_return_rate(sf_dir: str) -> pd.DataFrame:
    """Return rate per part brand — lineitem fact rows broadcast-joined
    to the small part dimension (the J2 dim-join pattern), then one
    grouped aggregate: share of 'R' return flags and row volume per
    brand."""
    from forecastframe_ray.stages.join import broadcast_left_join

    li = _read(sf_dir, "lineitem", ["l_partkey", "l_returnflag"])
    part_df = pq.read_table(f"{sf_dir}/part.parquet",
                            columns=["p_partkey", "p_brand"]).to_pandas()
    part_df = part_df.rename(columns={"p_partkey": "l_partkey"})
    joined = broadcast_left_join(li, part_df, on=["l_partkey"])

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "p_brand": b["p_brand"],
            "r": (b["l_returnflag"] == "R").astype("int64"),
        })

    agg = hash_aggregate(joined.map_batches(flag, batch_format="pandas"),
                         ["p_brand"], {"n_items": ("r", "size"),
                                       "n_returned": ("r", "sum")},
                         num_partitions=4).to_pandas()
    agg["n_items"] = agg["n_items"].astype(np.int64)
    agg["n_returned"] = agg["n_returned"].astype(np.int64)
    agg["return_rate"] = np.round(
        agg["n_returned"].to_numpy(np.float64)
        / agg["n_items"].to_numpy(np.float64), 6) + 0.0
    return agg.sort_values("p_brand").reset_index(drop=True)


SQL_BRAND_RETURN_RATE = """
    SELECT p.p_brand, CAST(count(*) AS BIGINT) AS n_items,
           CAST(sum(CASE WHEN l.l_returnflag = 'R' THEN 1 ELSE 0 END)
                AS BIGINT) AS n_returned,
           round(avg(CASE WHEN l.l_returnflag = 'R' THEN 1.0 ELSE 0 END),
                 6) + 0.0 AS return_rate
    FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
    GROUP BY 1 ORDER BY 1
"""


@entry("brown_forsythe_dow", sql=lambda: SQL_BROWN_FORSYTHE)
def q_brown_forsythe_dow(sf_dir: str) -> pd.DataFrame:
    """Brown–Forsythe variance-homogeneity test (1974, public) across
    each series' day-of-week groups: one-way ANOVA F on the absolute
    deviations from each group's MEDIAN (the robust Levene variant) —
    'does volatility depend on the weekday' as a test, complementing
    the dow mean-effect ANOVA."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            dow = g["d"].dt.dayofweek.to_numpy()
            v = g["v"].to_numpy(np.float64)
            zs, njs, means = [], [], []
            for s in np.unique(dow):
                vs = v[dow == s]
                if len(vs) < 2:
                    continue
                z = np.abs(vs - np.median(vs))
                zs.append(z)
                njs.append(len(z))
                means.append(z.mean())
            k = len(zs)
            n = int(sum(njs))
            if k < 2 or n <= k:
                continue
            zbar = float(np.concatenate(zs).mean())
            between = float(sum(nj * (m - zbar) ** 2
                                for nj, m in zip(njs, means)))
            within = float(sum(((z - m) ** 2).sum()
                               for z, m in zip(zs, means)))
            if within <= 0:
                continue
            f = (between / (k - 1)) / (within / (n - k))
            rows.append((et, np.int64(n), np.int64(k),
                         np.round(f, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "k_groups", "f_bf"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_days": "int64", "k_groups": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_BROWN_FORSYTHE = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (
        SELECT event_type, isodow(d) AS dow, v,
               count(*) OVER (PARTITION BY event_type, isodow(d)) AS nj
        FROM daily
    ),
    med AS (
        SELECT event_type, dow, median(v) AS md
        FROM w WHERE nj >= 2 GROUP BY 1, 2
    ),
    z AS (
        SELECT w.event_type, w.dow, abs(w.v - med.md) AS z
        FROM w JOIN med USING (event_type, dow)
    ),
    gm AS (
        SELECT event_type, dow, count(*) AS nj, avg(z) AS zj
        FROM z GROUP BY 1, 2
    ),
    tot AS (
        SELECT event_type, count(*) AS n, avg(z) AS zbar,
               count(DISTINCT dow) AS k
        FROM z GROUP BY 1 HAVING count(DISTINCT dow) >= 2
           AND count(*) > count(DISTINCT dow)
    ),
    btw AS (
        SELECT gm.event_type,
               sum(gm.nj * (gm.zj - tot.zbar) * (gm.zj - tot.zbar))
                   AS between_ss
        FROM gm JOIN tot USING (event_type) GROUP BY 1
    ),
    wth AS (
        SELECT z.event_type,
               sum((z.z - gm.zj) * (z.z - gm.zj)) AS within_ss
        FROM z JOIN gm USING (event_type, dow) GROUP BY 1
    )
    SELECT tot.event_type, CAST(tot.n AS BIGINT) AS n_days,
           CAST(tot.k AS BIGINT) AS k_groups,
           round((btw.between_ss / (tot.k - 1))
                 / (wth.within_ss / (tot.n - tot.k)), 6) + 0.0 AS f_bf
    FROM tot JOIN btw USING (event_type) JOIN wth USING (event_type)
    WHERE wth.within_ss > 0 ORDER BY 1
"""


@entry("kruskal_wallis_dow", sql=lambda: SQL_KRUSKAL_WALLIS)
def q_kruskal_wallis_dow(sf_dir: str) -> pd.DataFrame:
    """Kruskal–Wallis rank one-way ANOVA (1952, public) of each series'
    daily values across day-of-week groups, with midranks for ties and
    the standard tie correction H' = H / (1 − Σ(t³−t)/(N³−N)) — the
    distribution-free complement to the dow ANOVA/eta² audits."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            dow = g["d"].dt.dayofweek.to_numpy()
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            if n < 7:
                continue
            order = np.argsort(v, kind="mergesort")
            ranks = np.empty(n)
            ranks[order] = np.arange(1, n + 1, dtype=np.float64)
            # midranks for ties
            uniq, inv, cnts = np.unique(v, return_inverse=True,
                                        return_counts=True)
            sums = np.zeros(len(uniq))
            np.add.at(sums, inv, ranks)
            ranks = sums[inv] / cnts[inv]
            h = 0.0
            k = 0
            for s in np.unique(dow):
                r = ranks[dow == s]
                h += len(r) * (r.mean() - (n + 1) / 2) ** 2
                k += 1
            if k < 2:
                continue
            h *= 12.0 / (n * (n + 1))
            tie = float((cnts.astype(np.float64) ** 3 - cnts).sum())
            corr = 1.0 - tie / (float(n) ** 3 - n)
            hc = h / corr if corr > 0 else 0.0
            rows.append((et, np.int64(n), np.int64(k),
                         np.round(h, 6) + 0.0, np.round(hc, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "k_groups", "h", "h_tie_adj"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_days": "int64", "k_groups": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_KRUSKAL_WALLIS = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (
        SELECT event_type, isodow(d) AS dow, v,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    rk AS (
        SELECT event_type, dow, v, n,
               rank() OVER (PARTITION BY event_type ORDER BY v) AS rmin,
               count(*) OVER (PARTITION BY event_type, v) AS t
        FROM w
    ),
    mr AS (
        SELECT event_type, dow, n, t,
               rmin + (t - 1) / 2.0 AS r
        FROM rk WHERE n >= 7
    ),
    gs AS (
        SELECT event_type, dow, any_value(n) AS n, count(*) AS nj,
               avg(r) AS rj
        FROM mr GROUP BY 1, 2
    ),
    hstat AS (
        SELECT event_type, any_value(n) AS n, count(*) AS k,
               12.0 / (any_value(n) * (any_value(n) + 1.0))
               * sum(nj * (rj - (n + 1) / 2.0)
                        * (rj - (n + 1) / 2.0)) AS h
        FROM gs GROUP BY 1 HAVING count(*) >= 2
    ),
    ties AS (
        SELECT event_type,
               sum(CAST(t AS DOUBLE) * t * t - t) AS tie
        FROM (SELECT event_type, v, count(*) AS t
              FROM w WHERE n >= 7 GROUP BY 1, 2)
        GROUP BY 1
    )
    SELECT h.event_type, CAST(h.n AS BIGINT) AS n_days,
           CAST(h.k AS BIGINT) AS k_groups,
           round(h.h, 6) + 0.0 AS h,
           round(CASE WHEN 1 - t.tie / (power(CAST(h.n AS DOUBLE), 3)
                                        - h.n) > 0
                      THEN h.h / (1 - t.tie
                                  / (power(CAST(h.n AS DOUBLE), 3)
                                     - h.n))
                      ELSE 0 END, 6) + 0.0 AS h_tie_adj
    FROM hstat h JOIN ties t USING (event_type) ORDER BY 1
"""


@entry("cochran_armitage_lineitem", sql=lambda: SQL_COCHRAN_ARMITAGE)
def q_cochran_armitage_lineitem(sf_dir: str) -> pd.DataFrame:
    """Cochran–Armitage trend-in-proportions test (1954/55, public):
    does the return probability trend with the ordered quantity group?
    T = Σ c_i(r_i − n_i·R/N) with c_i = quantity,
    Var = p̄(1−p̄)(Σn_i c_i² − (Σn_i c_i)²/N) — everything folds from
    the tiny per-quantity count table; the distributed pass is pure
    counting."""
    li = _read(sf_dir, "lineitem", ["l_quantity", "l_returnflag"])

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "qy": b["l_quantity"].to_numpy(np.float64).astype("int64"),
            "r": (b["l_returnflag"] == "R").astype("int64"),
        })

    agg = hash_aggregate(li.map_batches(flag, batch_format="pandas"),
                         ["qy"], {"n": ("r", "size"), "r": ("r", "sum")},
                         num_partitions=4).to_pandas()
    c = agg["qy"].to_numpy(np.float64)
    ni = agg["n"].to_numpy(np.float64)
    ri = agg["r"].to_numpy(np.float64)
    N, R = ni.sum(), ri.sum()
    p = R / N
    t = float((c * (ri - ni * p)).sum())
    var = p * (1 - p) * float((ni * c * c).sum() - (ni * c).sum() ** 2 / N)
    z = t / np.sqrt(var) if var > 0 else 0.0
    return pd.DataFrame({
        "n_rows": [np.int64(N)],
        "overall_rate": [np.round(p, 6) + 0.0],
        "t_stat": [np.round(t, 6) + 0.0],
        "z": [np.round(z, 6) + 0.0],
    })


SQL_COCHRAN_ARMITAGE = """
    WITH g AS (
        SELECT CAST(l_quantity AS BIGINT) AS qy, count(*) AS n,
               sum(CASE WHEN l_returnflag = 'R' THEN 1 ELSE 0 END) AS r
        FROM lineitem GROUP BY 1
    ),
    tot AS (SELECT sum(n) AS nn, sum(r) AS rr FROM g),
    s AS (
        SELECT sum(g.qy * (g.r - g.n * tot.rr
                           / CAST(tot.nn AS DOUBLE))) AS t,
               (tot.rr / CAST(tot.nn AS DOUBLE))
               * (1 - tot.rr / CAST(tot.nn AS DOUBLE))
               * (sum(g.n * CAST(g.qy AS DOUBLE) * g.qy)
                  - sum(g.n * CAST(g.qy AS DOUBLE))
                    * sum(g.n * CAST(g.qy AS DOUBLE))
                    / CAST(tot.nn AS DOUBLE)) AS var,
               any_value(tot.nn) AS nn,
               any_value(tot.rr / CAST(tot.nn AS DOUBLE)) AS p
        FROM g, tot GROUP BY tot.nn, tot.rr
    )
    SELECT CAST(nn AS BIGINT) AS n_rows,
           round(p, 6) + 0.0 AS overall_rate,
           round(t, 6) + 0.0 AS t_stat,
           round(CASE WHEN var > 0 THEN t / sqrt(var) ELSE 0 END, 6)
               + 0.0 AS z
    FROM s
"""


@entry("iqr_outliers_lineitem", sql=lambda: SQL_IQR_OUTLIERS)
def q_iqr_outliers_lineitem(sf_dir: str) -> pd.DataFrame:
    """Tukey-fence outlier profile (1977, public) for the three numeric
    lineitem measures: exact Q1/Q3 via the range-partition
    order-statistic plan (one distributed sort per column family — the
    true 100 TB quantile path), then one broadcast-fence counting pass.
    Reports per column the fences and the share outside them."""
    from forecastframe_ray.pipelines.interpret import (grouped_moments,
                                                        grouped_quantiles)

    cols = ["l_quantity", "l_extendedprice", "l_discount"]
    li = _read(sf_dir, "lineitem", cols)

    def melt(b: pd.DataFrame) -> pd.DataFrame:
        frames = [pd.DataFrame({"col": c, "x": b[c].to_numpy(np.float64)})
                  for c in cols]
        return pd.concat(frames, ignore_index=True)

    long = li.map_batches(melt, batch_format="pandas")
    counts = grouped_moments(long, ["col"], "x")[["col", "n"]]
    qs = grouped_quantiles(long, ["col"], "x", qs=(0.25, 0.75),
                           counts=counts)
    qs = qs.set_index("col")
    fences = {c: (float(qs.loc[c, "q25"]
                        - 1.5 * (qs.loc[c, "q75"] - qs.loc[c, "q25"])),
                  float(qs.loc[c, "q75"]
                        + 1.5 * (qs.loc[c, "q75"] - qs.loc[c, "q25"])))
              for c in cols}

    def outside(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for c in cols:
            lo, hi = fences[c]
            x = b[c].to_numpy(np.float64)
            rows.append((c, len(x), int(((x < lo) | (x > hi)).sum())))
        return pd.DataFrame(rows, columns=["col", "n", "n_out"])

    agg = hash_aggregate(li.map_batches(outside, batch_format="pandas"),
                         ["col"], {"n": ("n", "sum"),
                                   "n_out": ("n_out", "sum")},
                         num_partitions=4).to_pandas()
    agg = agg.set_index("col").loc[cols].reset_index()
    agg["lo_fence"] = np.round([fences[c][0] for c in cols], 6) + 0.0
    agg["hi_fence"] = np.round([fences[c][1] for c in cols], 6) + 0.0
    agg["out_share"] = np.round(agg["n_out"].to_numpy(np.float64)
                                / agg["n"].to_numpy(np.float64), 6) + 0.0
    agg = agg.astype({"n": "int64", "n_out": "int64"})
    return agg.sort_values("col").reset_index(drop=True)


SQL_IQR_OUTLIERS = """
    WITH long AS (
        SELECT 'l_quantity' AS col, CAST(l_quantity AS DOUBLE) AS x
        FROM lineitem
        UNION ALL
        SELECT 'l_extendedprice', CAST(l_extendedprice AS DOUBLE)
        FROM lineitem
        UNION ALL
        SELECT 'l_discount', CAST(l_discount AS DOUBLE) FROM lineitem
    ),
    q AS (
        SELECT col, quantile_cont(x, 0.25) AS q1,
               quantile_cont(x, 0.75) AS q3
        FROM long GROUP BY 1
    ),
    f AS (
        SELECT col, q1 - 1.5 * (q3 - q1) AS lo, q3 + 1.5 * (q3 - q1) AS hi
        FROM q
    )
    SELECT long.col, CAST(count(*) AS BIGINT) AS n,
           CAST(sum(CASE WHEN long.x < f.lo OR long.x > f.hi
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_out,
           round(any_value(f.lo), 6) + 0.0 AS lo_fence,
           round(any_value(f.hi), 6) + 0.0 AS hi_fence,
           round(avg(CASE WHEN long.x < f.lo OR long.x > f.hi
                          THEN 1.0 ELSE 0 END), 6) + 0.0 AS out_share
    FROM long JOIN f USING (col)
    GROUP BY 1 ORDER BY 1
"""


@entry("decile_lift_users", sql=lambda: SQL_DECILE_LIFT)
def q_decile_lift_users(sf_dir: str) -> pd.DataFrame:
    """Decile lift table (classic response-model eval, public): users
    ranked by FIRST-half event count (ties → smaller user_id first),
    cut into 10 equal-width rank deciles, each decile's second-half
    activation rate reported against the overall rate as lift. The
    per-user reduce is distributed; ranking runs on the user-grain
    frame."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "ts"])
    lo = pd.Timestamp(ev.min("ts")).value // 1000
    hi = pd.Timestamp(ev.max("ts")).value // 1000
    mid = (lo + hi) // 2

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        us = part["ts"].to_numpy(dtype="datetime64[us]").astype("int64")
        uid = part["user_id"].to_numpy()
        score = pd.Series((us <= mid).astype("int64")).groupby(uid).sum()
        h2 = pd.Series((us > mid).astype("int64")).groupby(uid).max()
        return pd.DataFrame({"user_id": score.index.to_numpy(),
                             "score": score.to_numpy(),
                             "h2": h2.to_numpy()})

    users = keyed_map_partitions(ev, ["user_id"], kernel,
                                 num_partitions=_NP).to_pandas()
    users = users.sort_values(["score", "user_id"],
                              ascending=[False, True],
                              kind="mergesort").reset_index(drop=True)
    n = len(users)
    rn = np.arange(n, dtype=np.int64)
    users["decile"] = rn * 10 // n + 1
    overall = users["h2"].mean()
    g = users.groupby("decile").agg(
        n_users=("h2", "size"), n_active=("h2", "sum"),
        mean_score=("score", "mean")).reset_index()
    g["rate"] = np.round(g["n_active"].to_numpy(np.float64)
                         / g["n_users"].to_numpy(np.float64), 6) + 0.0
    g["lift"] = np.round(
        (g["n_active"].to_numpy(np.float64)
         / g["n_users"].to_numpy(np.float64)) / overall, 6) + 0.0
    g["mean_score"] = np.round(g["mean_score"].to_numpy(np.float64),
                               6) + 0.0
    g = g.astype({"decile": "int64", "n_users": "int64",
                  "n_active": "int64"})
    return g.sort_values("decile").reset_index(drop=True)


SQL_DECILE_LIFT = """
    WITH mx AS (
        SELECT (min(epoch_us(ts)) + max(epoch_us(ts))) // 2 AS mid
        FROM events
    ),
    u AS (
        SELECT user_id,
               sum(CASE WHEN epoch_us(ts) <= mx.mid THEN 1 ELSE 0 END)
                   AS score,
               max(CASE WHEN epoch_us(ts) > mx.mid THEN 1 ELSE 0 END)
                   AS h2
        FROM events, mx GROUP BY user_id, mx.mid
    ),
    r AS (
        SELECT score, h2,
               row_number() OVER (ORDER BY score DESC, user_id) - 1
                   AS rn,
               count(*) OVER () AS n
        FROM u
    ),
    d AS (SELECT rn * 10 // n + 1 AS decile, score, h2 FROM r),
    ov AS (SELECT avg(CAST(h2 AS DOUBLE)) AS rate FROM u)
    SELECT CAST(decile AS BIGINT) AS decile,
           CAST(count(*) AS BIGINT) AS n_users,
           CAST(sum(h2) AS BIGINT) AS n_active,
           round(avg(CAST(score AS DOUBLE)), 6) + 0.0 AS mean_score,
           round(avg(CAST(h2 AS DOUBLE)), 6) + 0.0 AS rate,
           round(avg(CAST(h2 AS DOUBLE)) / (SELECT rate FROM ov), 6)
               + 0.0 AS lift
    FROM d GROUP BY 1 ORDER BY 1
"""


@entry("mood_median_dow", sql=lambda: SQL_MOOD_MEDIAN)
def q_mood_median_dow(sf_dir: str) -> pd.DataFrame:
    """Mood's median test (1950, public) per series across day-of-week
    groups: 2×k chi-square of above-pooled-median counts — the coarsest,
    most outlier-proof location test, complementing the ANOVA/KW pair."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["v"].to_numpy(np.float64)
            dow = g["d"].dt.dayofweek.to_numpy() + 1
            n = len(v)
            if n < 7:
                continue
            med = float(np.median(v))
            above = v > med
            p = above.mean()
            if p == 0 or p == 1:
                continue
            chi2, k = 0.0, 0
            for s in np.unique(dow):
                m = dow == s
                nj, aj = int(m.sum()), int(above[m].sum())
                chi2 += (aj - nj * p) ** 2 / (nj * p) \
                    + ((nj - aj) - nj * (1 - p)) ** 2 / (nj * (1 - p))
                k += 1
            rows.append((et, np.int64(n), np.int64(k),
                         np.round(med, 6) + 0.0,
                         np.round(chi2, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "k_groups", "pooled_median",
                                           "chi2"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_days": "int64", "k_groups": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_MOOD_MEDIAN = f"""
    WITH daily AS ({_DAILY_SQL}),
    md AS (
        SELECT event_type, median(v) AS med, count(*) AS n
        FROM daily GROUP BY 1 HAVING count(*) >= 7
    ),
    fl AS (
        SELECT d.event_type, isodow(d.d) AS dow,
               CASE WHEN d.v > md.med THEN 1 ELSE 0 END AS ab,
               md.med, md.n
        FROM daily d JOIN md USING (event_type)
    ),
    pr AS (
        SELECT event_type, avg(CAST(ab AS DOUBLE)) AS p
        FROM fl GROUP BY 1
        HAVING avg(CAST(ab AS DOUBLE)) > 0
           AND avg(CAST(ab AS DOUBLE)) < 1
    ),
    gs AS (
        SELECT fl.event_type, fl.dow, any_value(fl.n) AS n,
               any_value(fl.med) AS med, count(*) AS nj,
               sum(fl.ab) AS aj, any_value(pr.p) AS p
        FROM fl JOIN pr USING (event_type) GROUP BY 1, 2
    )
    SELECT event_type, CAST(any_value(n) AS BIGINT) AS n_days,
           CAST(count(*) AS BIGINT) AS k_groups,
           round(any_value(med), 6) + 0.0 AS pooled_median,
           round(sum((aj - nj * p) * (aj - nj * p) / (nj * p)
                     + ((nj - aj) - nj * (1 - p))
                       * ((nj - aj) - nj * (1 - p))
                       / (nj * (1 - p))), 6) + 0.0 AS chi2
    FROM gs GROUP BY 1 ORDER BY 1
"""


@entry("hodges_lehmann_weekend", sql=lambda: SQL_HODGES_LEHMANN)
def q_hodges_lehmann_weekend(sf_dir: str) -> pd.DataFrame:
    """Hodges–Lehmann shift estimator (1963, public) of the
    weekend-minus-weekday effect per series: the MEDIAN of all pairwise
    differences (weekend day − weekday day) — the robust effect size
    behind the rank tests. Pair grid is days², tiny at the daily
    grain."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            dow = g["d"].dt.dayofweek.to_numpy() + 1
            v = g["v"].to_numpy(np.float64)
            we, wd = v[dow >= 6], v[dow <= 5]
            if len(we) == 0 or len(wd) == 0:
                continue
            diffs = (we[:, None] - wd[None, :]).ravel()
            rows.append((et, np.int64(len(diffs)),
                         np.round(float(np.median(diffs)), 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_pairs",
                                           "hl_shift"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_pairs"] = out["n_pairs"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_HODGES_LEHMANN = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (SELECT event_type, isodow(d) AS dow, v FROM daily),
    p AS (
        SELECT a.event_type, a.v - b.v AS diff
        FROM w a JOIN w b ON b.event_type = a.event_type
        WHERE a.dow >= 6 AND b.dow <= 5
    )
    SELECT event_type, CAST(count(*) AS BIGINT) AS n_pairs,
           round(median(diff), 6) + 0.0 AS hl_shift
    FROM p GROUP BY 1 ORDER BY 1
"""


@entry("jonckheere_weeks", sql=lambda: SQL_JONCKHEERE)
def q_jonckheere_weeks(sf_dir: str) -> pd.DataFrame:
    """Jonckheere–Terpstra ordered-alternatives test (1954, public):
    is the daily distribution shifting MONOTONICALLY across the
    series' ordered ISO weeks? JT = Σ_{g<h} [#(v_h > v_g) + ½#(=)],
    standardized with the no-tie null moments
    E = (N²−Σn²)/4, Var = (N²(2N+3)−Σn²(2n+3))/72."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            iso = g["d"].dt.isocalendar()
            wk = (iso["year"].to_numpy().astype("int64") * 100
                  + iso["week"].to_numpy().astype("int64"))
            v = g["v"].to_numpy(np.float64)
            weeks = np.unique(wk)
            if len(weeks) < 2:
                continue
            jt = 0.0
            for i, ga in enumerate(weeks):
                va = v[wk == ga]
                for gb in weeks[i + 1:]:
                    vb = v[wk == gb]
                    jt += float((vb[None, :] > va[:, None]).sum()) \
                        + 0.5 * float((vb[None, :] == va[:, None]).sum())
            n = len(v)
            ns = np.array([(wk == s).sum() for s in weeks],
                          dtype=np.float64)
            e = (n * n - (ns * ns).sum()) / 4.0
            var = (n * n * (2 * n + 3)
                   - (ns * ns * (2 * ns + 3)).sum()) / 72.0
            z = (jt - e) / np.sqrt(var) if var > 0 else 0.0
            rows.append((et, np.int64(n), np.int64(len(weeks)),
                         np.round(jt, 6) + 0.0, np.round(z, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "k_weeks", "jt", "z"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_days": "int64", "k_weeks": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_JONCKHEERE = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (
        SELECT event_type,
               yearweek(d) AS wk, v
        FROM daily
    ),
    jt AS (
        SELECT a.event_type,
               sum(CASE WHEN b.v > a.v THEN 1.0
                        WHEN b.v = a.v THEN 0.5 ELSE 0 END) AS jt
        FROM w a JOIN w b ON b.event_type = a.event_type
                         AND b.wk > a.wk
        GROUP BY 1
    ),
    ns AS (
        SELECT event_type, wk, count(*) AS nj FROM w GROUP BY 1, 2
    ),
    mo AS (
        SELECT event_type, sum(nj) AS n, count(*) AS k,
               sum(nj * nj) AS sn2,
               sum(nj * nj * (2.0 * nj + 3)) AS sn23
        FROM ns GROUP BY 1 HAVING count(*) >= 2
    )
    SELECT mo.event_type, CAST(mo.n AS BIGINT) AS n_days,
           CAST(mo.k AS BIGINT) AS k_weeks,
           round(jt.jt, 6) + 0.0 AS jt,
           round(CASE WHEN (mo.n * mo.n * (2.0 * mo.n + 3) - mo.sn23)
                           / 72.0 > 0
                      THEN (jt.jt - (mo.n * mo.n - mo.sn2) / 4.0)
                           / sqrt((mo.n * mo.n * (2.0 * mo.n + 3)
                                   - mo.sn23) / 72.0)
                      ELSE 0 END, 6) + 0.0 AS z
    FROM mo JOIN jt USING (event_type) ORDER BY 1
"""


@entry("welch_anova_dow", sql=lambda: SQL_WELCH_ANOVA)
def q_welch_anova_dow(sf_dir: str) -> pd.DataFrame:
    """Welch's heteroskedastic one-way ANOVA (1951, public) of daily
    values across day-of-week groups — the variance-weighted F that
    stays valid when weekday variances differ (exactly what
    Brown–Forsythe flags): w_j = n_j/s_j², F = A/B with the standard
    Welch correction term and Satterthwaite df2."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            dow = g["d"].dt.dayofweek.to_numpy() + 1
            v = g["v"].to_numpy(np.float64)
            ws, ms, dfs = [], [], []
            for s in np.unique(dow):
                vs = v[dow == s]
                if len(vs) < 2:
                    continue
                s2 = vs.var(ddof=1)
                if s2 <= 0:
                    continue
                ws.append(len(vs) / s2)
                ms.append(vs.mean())
                dfs.append(len(vs) - 1)
            k = len(ws)
            if k < 2:
                continue
            w = np.array(ws)
            m = np.array(ms)
            df = np.array(dfs, dtype=np.float64)
            W = w.sum()
            mstar = float((w * m).sum() / W)
            a = float((w * (m - mstar) ** 2).sum()) / (k - 1)
            lam = float((((1 - w / W) ** 2) / df).sum())
            b = 1.0 + 2.0 * (k - 2) / (k * k - 1.0) * lam
            f = a / b
            df2 = (k * k - 1.0) / (3.0 * lam) if lam > 0 else 0.0
            rows.append((et, np.int64(k), np.round(f, 6) + 0.0,
                         np.round(df2, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "k_groups",
                                           "f_welch", "df2"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["k_groups"] = out["k_groups"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_WELCH_ANOVA = f"""
    WITH daily AS ({_DAILY_SQL}),
    gs AS (
        SELECT event_type, isodow(d) AS dow, count(*) AS nj,
               avg(v) AS mj, var_samp(v) AS s2
        FROM daily GROUP BY 1, 2
        HAVING count(*) >= 2 AND var_samp(v) > 0
    ),
    ww AS (
        SELECT event_type, dow, nj, mj, nj / s2 AS w, nj - 1.0 AS df
        FROM gs
    ),
    tot AS (
        SELECT event_type, count(*) AS k, sum(w) AS sw,
               sum(w * mj) / sum(w) AS mstar
        FROM ww GROUP BY 1 HAVING count(*) >= 2
    ),
    parts AS (
        SELECT ww.event_type, tot.k,
               sum(ww.w * (ww.mj - tot.mstar)
                        * (ww.mj - tot.mstar)) / (tot.k - 1) AS a,
               sum((1 - ww.w / tot.sw) * (1 - ww.w / tot.sw) / ww.df)
                   AS lam
        FROM ww JOIN tot USING (event_type)
        GROUP BY 1, 2
    )
    SELECT event_type, CAST(k AS BIGINT) AS k_groups,
           round(a / (1.0 + 2.0 * (k - 2) / (k * k - 1.0) * lam), 6)
               + 0.0 AS f_welch,
           round(CASE WHEN lam > 0 THEN (k * k - 1.0) / (3.0 * lam)
                      ELSE 0 END, 6) + 0.0 AS df2
    FROM parts ORDER BY 1
"""


@entry("winsorized_corr_market_daily", sql=lambda: SQL_WINSORIZED_CORR)
def q_winsorized_corr_market_daily(sf_dir: str) -> pd.DataFrame:
    """Winsorized Pearson correlation of each series against the market
    (the all-types daily total): both sides clipped at their own
    5th/95th percentiles (linear-interpolated, the numpy/DuckDB common
    convention) before correlating — the outlier-proof variant of the
    market-correlation monitor."""
    daily = _bucket_series(sf_dir, DAY_US, "d").to_pandas()
    mkt = daily.groupby("d")["v"].sum().rename("mv").reset_index()
    mkt["mv"] = np.round(mkt["mv"].to_numpy(np.float64), 6)
    rows = []
    mq = np.percentile(mkt["mv"].to_numpy(np.float64), [5, 95])
    mclip = np.clip(mkt.set_index("d")["mv"], mq[0], mq[1])
    for et, g in daily.groupby("event_type", sort=True):
        v = g.set_index("d")["v"]
        if len(v) < 3:
            continue
        vq = np.percentile(v.to_numpy(np.float64), [5, 95])
        vc = np.clip(v, vq[0], vq[1])
        joined = pd.concat([vc, mclip], axis=1, join="inner")
        x = joined.iloc[:, 0].to_numpy(np.float64)
        y = joined.iloc[:, 1].to_numpy(np.float64)
        if x.std() == 0 or y.std() == 0:
            continue
        r = float(np.corrcoef(x, y)[0, 1])
        rows.append((et, np.int64(len(x)), np.round(r, 6) + 0.0))
    return pd.DataFrame(rows, columns=["event_type", "n_days",
                                       "wins_corr"])


SQL_WINSORIZED_CORR = f"""
    WITH daily AS ({_DAILY_SQL}),
    mkt AS (
        SELECT d, round(sum(v), 6) AS mv FROM daily GROUP BY 1
    ),
    mq AS (
        SELECT quantile_cont(mv, 0.05) AS lo,
               quantile_cont(mv, 0.95) AS hi
        FROM mkt
    ),
    mc AS (
        SELECT d, least(greatest(mv, mq.lo), mq.hi) AS mv
        FROM mkt, mq
    ),
    vq AS (
        SELECT event_type, quantile_cont(v, 0.05) AS lo,
               quantile_cont(v, 0.95) AS hi, count(*) AS n
        FROM daily GROUP BY 1 HAVING count(*) >= 3
    ),
    vc AS (
        SELECT d.event_type, d.d,
               least(greatest(d.v, vq.lo), vq.hi) AS v
        FROM daily d JOIN vq USING (event_type)
    ),
    j AS (
        SELECT vc.event_type, vc.v, mc.mv
        FROM vc JOIN mc USING (d)
    )
    SELECT event_type, CAST(count(*) AS BIGINT) AS n_days,
           round(corr(v, mv), 6) + 0.0 AS wins_corr
    FROM j GROUP BY 1
    HAVING stddev_pop(v) > 0 AND stddev_pop(mv) > 0
    ORDER BY 1
"""


@entry("crosstab_residuals_type_dow", sql=lambda: SQL_CROSSTAB_RESIDUALS)
def q_crosstab_residuals_type_dow(sf_dir: str) -> pd.DataFrame:
    """Per-cell Pearson residuals (O−E)/√E of the event_type ×
    day-of-week contingency table — the drill-down that says WHICH
    cells drive the independence chi-square. Pure counting plus one
    closed-form division; exactly reproducible."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def cell(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b["event_type"],
            "dow": b["ts"].dt.dayofweek.to_numpy().astype("int64") + 1,
        })

    cnt = hash_count(ev.map_batches(cell, batch_format="pandas"),
                     ["event_type", "dow"], num_partitions=4).to_pandas()
    n = float(cnt["n"].sum())
    row_tot = cnt.groupby("event_type")["n"].sum()
    col_tot = cnt.groupby("dow")["n"].sum()
    e = (row_tot.loc[cnt["event_type"]].to_numpy(np.float64)
         * col_tot.loc[cnt["dow"]].to_numpy(np.float64)) / n
    cnt["expected"] = np.round(e, 6) + 0.0
    cnt["pearson_resid"] = np.round(
        (cnt["n"].to_numpy(np.float64) - e) / np.sqrt(e), 6) + 0.0
    cnt["n"] = cnt["n"].astype(np.int64)
    cnt = cnt.rename(columns={"n": "observed"})
    return cnt.sort_values(["event_type", "dow"]).reset_index(drop=True)


SQL_CROSSTAB_RESIDUALS = """
    WITH c AS (
        SELECT event_type, isodow(ts) AS dow, count(*) AS o
        FROM events GROUP BY 1, 2
    ),
    rt AS (SELECT event_type, sum(o) AS r FROM c GROUP BY 1),
    ct AS (SELECT dow, sum(o) AS cl FROM c GROUP BY 1),
    n AS (SELECT sum(o) AS n FROM c)
    SELECT c.event_type, CAST(c.dow AS BIGINT) AS dow,
           CAST(c.o AS BIGINT) AS observed,
           round(rt.r * ct.cl / CAST(n.n AS DOUBLE), 6) + 0.0
               AS expected,
           round((c.o - rt.r * ct.cl / CAST(n.n AS DOUBLE))
                 / sqrt(rt.r * ct.cl / CAST(n.n AS DOUBLE)), 6) + 0.0
               AS pearson_resid
    FROM c JOIN rt USING (event_type) JOIN ct USING (dow), n
    ORDER BY 1, 2
"""


@entry("dixon_q_daily", sql=lambda: SQL_DIXON_Q)
def q_dixon_q_daily(sf_dir: str) -> pd.DataFrame:
    """Dixon's Q outlier ratios (1950, public) at both ends of each
    series' daily values: r10_low = (x₂−x₁)/range,
    r10_high = (xₙ−xₙ₋₁)/range — the screening constant behind the
    classic small-sample outlier tables."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = np.sort(g["v"].to_numpy(np.float64))
            n = len(v)
            if n < 3 or v[-1] == v[0]:
                continue
            rng = v[-1] - v[0]
            rows.append((et, np.int64(n),
                         np.round((v[1] - v[0]) / rng, 6) + 0.0,
                         np.round((v[-1] - v[-2]) / rng, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "q_low", "q_high"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DIXON_Q = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY v) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    o AS (
        SELECT event_type, any_value(n) AS n,
               max(CASE WHEN rn = 1 THEN v END) AS x1,
               max(CASE WHEN rn = 2 THEN v END) AS x2,
               max(CASE WHEN rn = n - 1 THEN v END) AS xn1,
               max(CASE WHEN rn = n THEN v END) AS xn
        FROM r WHERE n >= 3 GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           round((x2 - x1) / (xn - x1), 6) + 0.0 AS q_low,
           round((xn - xn1) / (xn - x1), 6) + 0.0 AS q_high
    FROM o WHERE xn > x1 ORDER BY 1
"""


@entry("bartels_rank_daily", sql=lambda: SQL_BARTELS_RANK)
def q_bartels_rank_daily(sf_dir: str) -> pd.DataFrame:
    """Bartels' rank version of the von Neumann randomness ratio (1982,
    public): RVN = Σ(r_t−r_{t+1})²/Σ(r_t−r̄)² on date-ordered MIDRANKS,
    with the published normal approximation
    Var = 4(n−2)(5n²−2n−9)/(5n(n+1)(n−1)²) — the rank-robust
    complement to the raw-value von Neumann audit."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            if n < 10:
                continue
            r = pd.Series(v).rank(method="average").to_numpy(np.float64)
            num = float(((r[:-1] - r[1:]) ** 2).sum())
            den = float(((r - (n + 1) / 2.0) ** 2).sum())
            if den == 0:
                continue
            rvn = num / den
            var = 4.0 * (n - 2) * (5.0 * n * n - 2 * n - 9) \
                / (5.0 * n * (n + 1) * (n - 1.0) ** 2)
            z = (rvn - 2.0) / np.sqrt(var)
            rows.append((et, np.int64(n), np.round(rvn, 6) + 0.0,
                         np.round(z, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "rvn", "z"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_BARTELS_RANK = f"""
    WITH daily AS ({_DAILY_SQL}),
    rk AS (
        SELECT event_type, d,
               rank() OVER (PARTITION BY event_type ORDER BY v)
               + (count(*) OVER (PARTITION BY event_type, v) - 1) / 2.0
                   AS r,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    l AS (
        SELECT event_type, n, r,
               lead(r) OVER (PARTITION BY event_type ORDER BY d) AS rn_
        FROM rk WHERE n >= 10
    ),
    s AS (
        SELECT event_type, any_value(n) AS n,
               sum(CASE WHEN rn_ IS NOT NULL
                        THEN (r - rn_) * (r - rn_) ELSE 0 END) AS num,
               sum((r - (n + 1) / 2.0) * (r - (n + 1) / 2.0)) AS den
        FROM l GROUP BY 1 HAVING
            sum((r - (n + 1) / 2.0) * (r - (n + 1) / 2.0)) > 0
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           round(num / den, 6) + 0.0 AS rvn,
           round((num / den - 2.0)
                 / sqrt(4.0 * (n - 2) * (5.0 * n * n - 2 * n - 9)
                        / (5.0 * n * (n + 1.0)
                           * (n - 1.0) * (n - 1.0))), 6) + 0.0 AS z
    FROM s ORDER BY 1
"""


@entry("pettitt_daily", sql=lambda: SQL_PETTITT)
def q_pettitt_daily(sf_dir: str) -> pd.DataFrame:
    """Pettitt change-point test (1979, public): K = max_t |U_t| with
    U_t = Σ_{i≤t}Σ_{j>t} sgn(v_i − v_j) over each date-ordered daily
    series, the break date = the EARLIEST cut achieving K, and the
    published tail approximation p ≈ 2·exp(−6K²/(n³+n²)) — the
    rank-based mate to the parametric SSE changepoint query."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            if n < 5:
                continue
            sgn = np.sign(v[:, None] - v[None, :])
            cum = np.zeros(n - 1)
            u = 0.0
            for t in range(n - 1):
                # U_t from U_{t-1}: adding row t as "before", so add
                # sgn(v_t, all after-t) and remove sgn(before, v_t)
                u = float(sgn[: t + 1, t + 1:].sum())
                cum[t] = u
            k = np.abs(cum).max()
            t_star = int(np.argmax(np.abs(cum) == k))
            p = 2.0 * np.exp(-6.0 * k * k / (n ** 3 + n ** 2))
            rows.append((et, np.int64(n), np.int64(k),
                         g["d"].iloc[t_star],
                         np.round(min(p, 1.0), 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "k_stat", "break_day",
                                           "approx_p"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_days": "int64", "k_stat": "int64"})
    out["break_day"] = pd.to_datetime(out["break_day"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_PETTITT = f"""
    WITH daily AS ({_DAILY_SQL}),
    mx AS (SELECT event_type, max(d) AS dmax, count(*) AS n
           FROM daily GROUP BY 1 HAVING count(*) >= 5),
    cuts AS (
        SELECT d.event_type, d.d, mx.n
        FROM daily d JOIN mx USING (event_type)
        WHERE d.d < mx.dmax
    ),
    u AS (
        SELECT c.event_type, c.d, any_value(c.n) AS n,
               sum(CASE WHEN a.v > b.v THEN 1
                        WHEN a.v < b.v THEN -1 ELSE 0 END) AS u
        FROM cuts c
        JOIN daily a ON a.event_type = c.event_type AND a.d <= c.d
        JOIN daily b ON b.event_type = c.event_type AND b.d > c.d
        GROUP BY 1, 2
    ),
    k AS (
        SELECT event_type, any_value(n) AS n, max(abs(u)) AS k
        FROM u GROUP BY 1
    )
    SELECT k.event_type, CAST(k.n AS BIGINT) AS n_days,
           CAST(k.k AS BIGINT) AS k_stat,
           min(u.d) AS break_day,
           round(least(2.0 * exp(-6.0 * CAST(k.k AS DOUBLE) * k.k
                                 / (power(CAST(k.n AS DOUBLE), 3)
                                    + k.n * k.n)), 1.0), 6) + 0.0
               AS approx_p
    FROM k JOIN u ON u.event_type = k.event_type AND abs(u.u) = k.k
    GROUP BY k.event_type, k.n, k.k ORDER BY 1
"""
