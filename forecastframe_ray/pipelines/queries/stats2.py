"""Oracled query catalog — part ``stats2`` (contiguous split of the former queries.py monolith; order preserved)."""

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
    _HOLIDAYS,
    _HOLIDAY_VALUES,
)
from forecastframe_ray.pipelines.queries.stats import (  # noqa: F401
    _KL_SOURCES,
)
from forecastframe_ray.pipelines.queries import entry



# ---------------------------------------------------------------------------
# fulfillment span / exponential PPCC / Shamos pairwise scale
# ---------------------------------------------------------------------------

@entry("fulfillment_span_orders", sql=lambda: SQL_FULFILLMENT_SPAN)
def q_fulfillment_span_orders(sf_dir: str) -> pd.DataFrame:
    """Order-fulfillment span: days from order date to the LAST lineitem
    shipment, summarized per priority (count, mean, p50, p90) — the
    multi-table service-level metric. Per-order spans reduce via one
    broadcast-free co-located join; priority rows are all that leave."""
    from forecastframe_ray.stages.agg import keyed_map_partitions
    from forecastframe_ray.stages.join import hash_join

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
    last_ship = hash_aggregate(
        li.map_batches(lambda b: b.rename(
            columns={"l_orderkey": "o_orderkey"}), batch_format="pandas"),
        ["o_orderkey"], {"last_ship": ("l_shipdate", "max")},
        num_partitions=_NP).repartition(8).materialize()
    j = hash_join(orders, last_ship, on=["o_orderkey"],
                  num_partitions=_NP)

    def span(b: pd.DataFrame) -> pd.DataFrame:
        d = ((b["last_ship"].astype("datetime64[us]").astype("int64")
              // DAY_US)
             - (b["o_orderdate"].astype("datetime64[us]").astype("int64")
                // DAY_US))
        return pd.DataFrame({"o_orderpriority": b["o_orderpriority"],
                             "span": d.astype(np.float64)})

    spans = j.map_batches(span, batch_format="pandas")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for pr, g in part.groupby("o_orderpriority", sort=False):
            s = g["span"].to_numpy(np.float64)
            rows.append((pr, len(s), np.round(s.mean(), 6) + 0.0,
                         np.round(np.quantile(s, 0.5), 6) + 0.0,
                         np.round(np.quantile(s, 0.9), 6) + 0.0))
        return pd.DataFrame(rows, columns=["o_orderpriority", "n_orders",
                                           "mean_days", "p50_days",
                                           "p90_days"])

    out = keyed_map_partitions(spans, ["o_orderpriority"], kernel,
                               num_partitions=4).to_pandas()
    out["n_orders"] = out["n_orders"].astype(np.int64)
    return out.sort_values("o_orderpriority").reset_index(drop=True)


SQL_FULFILLMENT_SPAN = """
    WITH ls AS (SELECT l_orderkey, max(l_shipdate) AS last_ship
                FROM lineitem GROUP BY 1),
    sp AS (
        SELECT o.o_orderpriority,
               (epoch_us(ls.last_ship) // 86400000000
                - epoch_us(o.o_orderdate) // 86400000000)::DOUBLE AS span
        FROM orders o JOIN ls ON ls.l_orderkey = o.o_orderkey
    )
    SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS n_orders,
           round(avg(span), 6) + 0.0 AS mean_days,
           round(quantile_cont(span, 0.5), 6) + 0.0 AS p50_days,
           round(quantile_cont(span, 0.9), 6) + 0.0 AS p90_days
    FROM sp GROUP BY 1 ORDER BY 1
"""


@entry("ppcc_expfit_events", sql=lambda: SQL_PPCC_EXPFIT)
def q_ppcc_expfit_events(sf_dir: str) -> pd.DataFrame:
    """Probability-plot correlation coefficient (Filliben 1975) of the
    inter-arrival gaps against the exponential model: Pearson r between
    the sorted gaps and the quantiles −ln(1−(i−0.5)/n) — near 1 means
    'straight QQ line', the visual exponentiality check quantified (the
    distribution-shape complement to the KS gate)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "ts", "event_id"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values(["ts", "event_id"])
            us = g["ts"].astype("int64").to_numpy()
            if len(us) < 3:
                rows.append((et, 0, np.nan))
                continue
            gaps = np.sort(np.diff(us) / 1e6)
            n = len(gaps)
            qi = -np.log(1.0 - (np.arange(1, n + 1) - 0.5) / n)
            x, y = gaps - gaps.mean(), qi - qi.mean()
            den = np.sqrt((x ** 2).sum() * (y ** 2).sum())
            r = (x * y).sum() / den if den > 0 else np.nan
            rows.append((et, n, np.round(r, 6) + 0.0 if np.isfinite(r)
                         else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "n_gaps", "ppcc"])

    out = keyed_map_partitions(ev, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_gaps"] = out["n_gaps"].astype(np.int64)
    out = _fill(out, ["ppcc"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_PPCC_EXPFIT = f"""
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
    r AS (
        SELECT event_type, g,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY g)
                   AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM gaps
    ),
    q AS (SELECT event_type, g, -ln(1 - (rn - 0.5) / n) AS qi, n FROM r)
    SELECT event_type, CAST(any_value(n) AS BIGINT) AS n_gaps,
           COALESCE(round(corr(g, qi), 6) + 0.0, {NULLF}) AS ppcc
    FROM q GROUP BY 1 ORDER BY 1
"""


@entry("shamos_scale_daily", sql=lambda: SQL_SHAMOS_SCALE)
def q_shamos_scale_daily(sf_dir: str) -> pd.DataFrame:
    """Shamos robust scale per series: the median of ALL pairwise
    |vᵢ−vⱼ| (i<j) — 50% breakdown, no location estimate needed; reported
    with the 1.048 consistency factor for the normal σ. Pair diffs round
    to 6 before the median so tie handling matches."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["v"].to_numpy(np.float64)
            if len(v) < 2:
                rows.append((et, len(v), np.nan, np.nan))
                continue
            iu = np.triu_indices(len(v), k=1)
            d = np.round(np.abs(v[iu[0]] - v[iu[1]]), 6) + 0.0
            med = np.quantile(d, 0.5)
            rows.append((et, len(v), np.round(med, 6) + 0.0,
                         np.round(1.048 * med, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "shamos", "sigma_hat"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["shamos", "sigma_hat"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_SHAMOS_SCALE = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) AS rn
        FROM daily
    ),
    pd AS (
        SELECT a.event_type, round(abs(a.v - b.v), 6) + 0.0 AS ad
        FROM r a JOIN r b ON a.event_type = b.event_type AND a.rn < b.rn
    ),
    m AS (SELECT event_type, quantile_cont(ad, 0.5) AS med,
                 count(*) AS np_
          FROM pd GROUP BY 1),
    base AS (SELECT event_type, count(*) AS n FROM daily GROUP BY 1)
    SELECT base.event_type, CAST(base.n AS BIGINT) AS n_days,
           COALESCE(round(m.med, 6) + 0.0, {NULLF}) AS shamos,
           COALESCE(round(1.048 * m.med, 6) + 0.0, {NULLF}) AS sigma_hat
    FROM base LEFT JOIN m USING (event_type)
    ORDER BY 1
"""


# ---------------------------------------------------------------------------
# AUC of dup-ness / beta-binomial shrinkage / bimodality coefficient
# ---------------------------------------------------------------------------

@entry("auc_dupness_documents", sql=lambda: SQL_AUC_DUPNESS)
def q_auc_dupness_documents(sf_dir: str) -> pd.DataFrame:
    """ROC AUC of 'token count predicts near-dup blocking membership'
    via the Mann-Whitney identity AUC = (R₁ − n₁(n₁+1)/2)/(n₁n₀) with
    average ranks on ties — the threshold-free classifier metric as a
    pure rank aggregate. Positives = docs sharing their 5-token prefix
    blocking key with another doc (the SymSpell-style candidate class).
    Ranks form on ROUNDED scores."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def feat(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].str.split()
        dg = toks.map(lambda t: " ".join(t[:5]) if isinstance(t, list)
                      else "")
        return pd.DataFrame({
            "doc_id": b["doc_id"], "dg": dg,
            "score": toks.str.len().fillna(0).astype(np.float64)})

    tagged = docs.map_batches(feat, batch_format="pandas").materialize()
    sizes = hash_count(tagged, ["dg"], out_col="csize",
                       num_partitions=_NP).to_pandas()
    smap = dict(zip(sizes["dg"], sizes["csize"]))
    df = tagged.to_pandas()
    y = (df["dg"].map(smap) > 1).to_numpy()
    s = np.round(df["score"].to_numpy(np.float64), 6) + 0.0
    order = np.argsort(s, kind="mergesort")
    ranks = np.empty(len(s))
    ss = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and ss[j + 1] == ss[i]:
            j += 1
        ranks[order[i:j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    n1, n0 = int(y.sum()), int((~y).sum())
    r1 = ranks[y].sum()
    auc = (r1 - n1 * (n1 + 1) / 2.0) / (n1 * n0) if n1 and n0 else np.nan
    return pd.DataFrame({
        "n_pos": [np.int64(n1)], "n_neg": [np.int64(n0)],
        "auc": [np.round(auc, 6) + 0.0 if np.isfinite(auc) else NULLF],
    })


SQL_AUC_DUPNESS = r"""
    WITH t AS (
        SELECT doc_id,
               array_to_string(list_filter(string_split_regex(text, '\s+'),
                                           x -> x <> '')[1:5], ' ') AS dg,
               round(len(list_filter(string_split_regex(text, '\s+'),
                                     x -> x <> ''))::DOUBLE, 6) + 0.0
                   AS score
        FROM documents
    ),
    s AS (SELECT dg, count(*) AS csize FROM t GROUP BY 1),
    lab AS (SELECT t.doc_id, t.score, s.csize > 1 AS pos
            FROM t JOIN s USING (dg)),
    rk AS (
        SELECT pos,
               rank() OVER (ORDER BY score)
               + (count(*) OVER (PARTITION BY score) - 1) / 2.0 AS arank
        FROM lab
    ),
    agg AS (
        SELECT sum(CASE WHEN pos THEN arank ELSE 0 END) AS r1,
               sum(CASE WHEN pos THEN 1 ELSE 0 END)::DOUBLE AS n1,
               sum(CASE WHEN pos THEN 0 ELSE 1 END)::DOUBLE AS n0
        FROM rk
    )
    SELECT CAST(n1 AS BIGINT) AS n_pos, CAST(n0 AS BIGINT) AS n_neg,
           round((r1 - n1 * (n1 + 1) / 2.0) / (n1 * n0), 6) + 0.0 AS auc
    FROM agg
"""


@entry("beta_shrunk_daily_share", sql=lambda: SQL_BETA_SHRUNK_SHARE)
def q_beta_shrunk_daily_share(sf_dir: str) -> pd.DataFrame:
    """Empirical-Bayes beta-binomial shrinkage of the daily purchase
    share: method-of-moments beta prior (α, β) from the across-day share
    mean/variance, each day's posterior mean (x+α)/(n+α+β) — the
    proportion counterpart of the partial-pooling mean shrinkage. NULLF
    prior when shares underdispersed (var ≥ m(1−m) or zero)."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def day_fn(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        return pd.DataFrame({
            "d": pd.to_datetime((us // DAY_US) * DAY_US, unit="us"),
            "n": 1,
            "x": (b["event_type"] == "purchase").astype(np.int64)})

    agg = hash_aggregate(ev.map_batches(day_fn, batch_format="pandas"),
                         ["d"], {"n": ("n", "sum"), "x": ("x", "sum")},
                         num_partitions=_NP).to_pandas().sort_values("d")
    n = agg["n"].to_numpy(np.float64)
    x = agg["x"].to_numpy(np.float64)
    p = x / n
    m, v = p.mean(), p.var(ddof=1)
    if 0 < v < m * (1 - m):
        common = m * (1 - m) / v - 1.0
        alpha, beta = m * common, (1 - m) * common
        post = np.round((x + alpha) / (n + alpha + beta), 6) + 0.0
        a_r, b_r = np.round(alpha, 6) + 0.0, np.round(beta, 6) + 0.0
    else:
        post = np.round(p, 6) + 0.0
        a_r = b_r = NULLF
    out = pd.DataFrame({
        "d": agg["d"], "n_events": agg["n"].astype(np.int64),
        "n_purchase": agg["x"].astype(np.int64),
        "raw_share": np.round(p, 6) + 0.0, "post_share": post})
    out["alpha"] = a_r
    out["beta"] = b_r
    return out.reset_index(drop=True)


SQL_BETA_SHRUNK_SHARE = f"""
    WITH d AS (
        SELECT date_trunc('day', ts) AS d, count(*)::DOUBLE AS n,
               sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0
                   END)::DOUBLE AS x
        FROM events GROUP BY 1
    ),
    m AS (SELECT avg(x / n) AS m, var_samp(x / n) AS v FROM d),
    pr AS (
        SELECT CASE WHEN v > 0 AND v < m * (1 - m)
                    THEN m * (m * (1 - m) / v - 1) END AS alpha,
               CASE WHEN v > 0 AND v < m * (1 - m)
                    THEN (1 - m) * (m * (1 - m) / v - 1) END AS beta
        FROM m
    )
    SELECT d.d, CAST(d.n AS BIGINT) AS n_events,
           CAST(d.x AS BIGINT) AS n_purchase,
           round(d.x / d.n, 6) + 0.0 AS raw_share,
           CASE WHEN pr.alpha IS NOT NULL
                THEN round((d.x + pr.alpha) / (d.n + pr.alpha + pr.beta),
                           6) + 0.0
                ELSE round(d.x / d.n, 6) + 0.0 END AS post_share,
           COALESCE(round(pr.alpha, 6) + 0.0, {NULLF}) AS alpha,
           COALESCE(round(pr.beta, 6) + 0.0, {NULLF}) AS beta
    FROM d CROSS JOIN pr ORDER BY d.d
"""


@entry("bimodality_daily", sql=lambda: SQL_BIMODALITY)
def q_bimodality_daily(sf_dir: str) -> pd.DataFrame:
    """Sarle's bimodality coefficient per series:
    BC = (g₁² + 1) / (g₂ + 3(n−1)²/((n−2)(n−3))) from the simple moment
    skewness/kurtosis — > 0.555 (the uniform's value) suggests two
    regimes; the cheap screen before any mixture fit."""
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
                rows.append((et, n, np.nan))
                continue
            g1 = (d ** 3).mean() / m2 ** 1.5
            g2 = (d ** 4).mean() / m2 ** 2 - 3.0
            bc = (g1 * g1 + 1.0) / (g2 + 3.0 * (n - 1.0) ** 2
                                    / ((n - 2.0) * (n - 3.0)))
            rows.append((et, n, np.round(bc, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "bimodality"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["bimodality"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_BIMODALITY = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (SELECT event_type, avg(v) AS mu, count(*)::DOUBLE AS n
          FROM daily GROUP BY 1),
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
                         THEN round((pow(m3 / pow(m2, 1.5), 2) + 1)
                              / (m4 / (m2 * m2) - 3
                                 + 3 * (n - 1) * (n - 1)
                                   / ((n - 2) * (n - 3))), 6) + 0.0 END,
                    {NULLF}) AS bimodality
    FROM c ORDER BY 1
"""


# ---------------------------------------------------------------------------
# NDCG of blocking ranking / Youden threshold / Allan variance
# ---------------------------------------------------------------------------

@entry("ndcg_blocking_documents", sql=lambda: SQL_NDCG_BLOCKING)
def q_ndcg_blocking_documents(sf_dir: str) -> pd.DataFrame:
    """NDCG@20 of ranking docs by token count against the binary
    'shares a 5-token prefix block' relevance: DCG with 1/log2(rank+1)
    discounts over the (score desc, doc_id asc) order, normalized by the
    ideal ordering — completing the IR-metric family (AUC, F1, RBO)
    as pure rank algebra."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def feat(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].str.split()
        dg = toks.map(lambda t: " ".join(t[:5]) if isinstance(t, list)
                      else "")
        return pd.DataFrame({
            "doc_id": b["doc_id"], "dg": dg,
            "score": np.round(toks.str.len().fillna(0)
                              .astype(np.float64), 6) + 0.0})

    tagged = docs.map_batches(feat, batch_format="pandas").materialize()
    sizes = hash_count(tagged, ["dg"], out_col="csize",
                       num_partitions=_NP).to_pandas()
    smap = dict(zip(sizes["dg"], sizes["csize"]))
    df = tagged.to_pandas()
    df["rel"] = (df["dg"].map(smap) > 1).astype(np.float64)
    df = df.sort_values(["score", "doc_id"],
                        ascending=[False, True]).reset_index(drop=True)
    K = 20
    disc = 1.0 / np.log2(np.arange(2, K + 2, dtype=np.float64))
    dcg = float((df["rel"].to_numpy()[:K] * disc).sum())
    n_pos = int(df["rel"].sum())
    ideal = float(disc[:min(K, n_pos)].sum())
    return pd.DataFrame({
        "k": [np.int64(K)], "n_pos": [np.int64(n_pos)],
        "dcg": [np.round(dcg, 6) + 0.0],
        "ndcg": [np.round(dcg / ideal, 6) + 0.0 if ideal > 0 else NULLF],
    })


SQL_NDCG_BLOCKING = r"""
    WITH t AS (
        SELECT doc_id,
               array_to_string(list_filter(string_split_regex(text, '\s+'),
                                           x -> x <> '')[1:5], ' ') AS dg,
               round(len(list_filter(string_split_regex(text, '\s+'),
                                     x -> x <> ''))::DOUBLE, 6) + 0.0
                   AS score
        FROM documents
    ),
    s AS (SELECT dg, count(*) AS csize FROM t GROUP BY 1),
    lab AS (SELECT t.doc_id, t.score,
                   CASE WHEN s.csize > 1 THEN 1.0 ELSE 0.0 END AS rel
            FROM t JOIN s USING (dg)),
    rk AS (SELECT rel, ROW_NUMBER() OVER (ORDER BY score DESC, doc_id)
               AS r FROM lab),
    dcg AS (SELECT sum(rel / log2(r + 1)) AS dcg FROM rk WHERE r <= 20),
    np_ AS (SELECT sum(rel) AS n_pos FROM rk),
    ideal AS (
        SELECT sum(1.0 / log2(i + 1)) AS idcg
        FROM (SELECT unnest(range(1, 21)) AS i)
        WHERE i <= (SELECT n_pos FROM np_)
    )
    SELECT CAST(20 AS BIGINT) AS k,
           CAST((SELECT n_pos FROM np_) AS BIGINT) AS n_pos,
           round(dcg.dcg, 6) + 0.0 AS dcg,
           round(dcg.dcg / ideal.idcg, 6) + 0.0 AS ndcg
    FROM dcg CROSS JOIN ideal
"""


@entry("youden_threshold_documents", sql=lambda: SQL_YOUDEN_THRESHOLD)
def q_youden_threshold_documents(sf_dir: str) -> pd.DataFrame:
    """Youden-J optimal operating point of the token-count → blocking-
    membership classifier: sweeping every observed score threshold
    (predict positive when score ≥ t), J = TPR − FPR maximized with ties
    to the LOWEST threshold — the ROC-derived cutpoint chooser."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def feat(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].str.split()
        dg = toks.map(lambda t: " ".join(t[:5]) if isinstance(t, list)
                      else "")
        return pd.DataFrame({
            "doc_id": b["doc_id"], "dg": dg,
            "score": np.round(toks.str.len().fillna(0)
                              .astype(np.float64), 6) + 0.0})

    tagged = docs.map_batches(feat, batch_format="pandas").materialize()
    sizes = hash_count(tagged, ["dg"], out_col="csize",
                       num_partitions=_NP).to_pandas()
    smap = dict(zip(sizes["dg"], sizes["csize"]))
    df = tagged.to_pandas()
    y = (df["dg"].map(smap) > 1).to_numpy()
    s = df["score"].to_numpy(np.float64)
    n1, n0 = int(y.sum()), int((~y).sum())
    best = None
    for t in np.unique(s):
        pred = s >= t
        tpr = np.round((pred & y).sum() / n1, 6) + 0.0
        fpr = np.round((pred & ~y).sum() / n0, 6) + 0.0
        j = np.round(tpr - fpr, 6) + 0.0  # from ROUNDED rates, as in SQL
        key = (-j, t)
        if best is None or key < best[0]:
            best = (key, t, tpr, fpr, j)
    return pd.DataFrame({
        "threshold": [best[1]], "tpr": [best[2]], "fpr": [best[3]],
        "youden_j": [best[4]],
    })


SQL_YOUDEN_THRESHOLD = r"""
    WITH t AS (
        SELECT doc_id,
               array_to_string(list_filter(string_split_regex(text, '\s+'),
                                           x -> x <> '')[1:5], ' ') AS dg,
               round(len(list_filter(string_split_regex(text, '\s+'),
                                     x -> x <> ''))::DOUBLE, 6) + 0.0
                   AS score
        FROM documents
    ),
    s AS (SELECT dg, count(*) AS csize FROM t GROUP BY 1),
    lab AS (SELECT t.score, s.csize > 1 AS pos FROM t JOIN s USING (dg)),
    n AS (SELECT sum(CASE WHEN pos THEN 1 ELSE 0 END)::DOUBLE AS n1,
                 sum(CASE WHEN pos THEN 0 ELSE 1 END)::DOUBLE AS n0
          FROM lab),
    thr AS (SELECT DISTINCT score AS t FROM lab),
    sweep AS (
        SELECT thr.t,
               round(sum(CASE WHEN lab.score >= thr.t AND lab.pos
                              THEN 1 ELSE 0 END) / n.n1, 6) + 0.0 AS tpr,
               round(sum(CASE WHEN lab.score >= thr.t AND NOT lab.pos
                              THEN 1 ELSE 0 END) / n.n0, 6) + 0.0 AS fpr
        FROM thr CROSS JOIN lab CROSS JOIN n
        GROUP BY thr.t, n.n1, n.n0
    ),
    best AS (
        SELECT t AS threshold, tpr, fpr,
               round(tpr - fpr, 6) + 0.0 AS youden_j,
               ROW_NUMBER() OVER (ORDER BY round(tpr - fpr, 6) DESC, t)
                   AS rk
        FROM sweep
    )
    SELECT threshold, tpr, fpr, youden_j FROM best WHERE rk = 1
"""


@entry("allan_variance_daily", sql=lambda: SQL_ALLAN_VARIANCE)
def q_allan_variance_daily(sf_dir: str) -> pd.DataFrame:
    """Allan variance of each series at block sizes τ ∈ {1, 2, 4} days:
    AVAR(τ) = Σ(ȳᵢ₊₁−ȳᵢ)²/(2(M−1)) over means of consecutive
    NON-overlapping τ-blocks — the drift-vs-noise separation metric from
    clock metrology, useful on any telemetry series."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            for tau in (1, 2, 4):
                M = len(v) // tau
                if M < 2:
                    rows.append((et, tau, 0, np.nan))
                    continue
                yb = v[:M * tau].reshape(M, tau).mean(axis=1)
                av = (np.diff(yb) ** 2).sum() / (2.0 * (M - 1))
                rows.append((et, tau, M, np.round(av, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "tau",
                                           "n_blocks", "avar"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["tau", "n_blocks"]] = out[["tau", "n_blocks"]].astype(np.int64)
    out = _fill(out, ["avar"])
    return out.sort_values(["event_type", "tau"]).reset_index(drop=True)


SQL_ALLAN_VARIANCE = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) - 1
                   AS i,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    taus AS (SELECT unnest([1, 2, 4]) AS tau),
    blocks AS (
        SELECT r.event_type, taus.tau, r.i // taus.tau AS blk,
               avg(r.v) AS yb
        FROM taus, r
        WHERE r.i < (r.n // taus.tau) * taus.tau
        GROUP BY 1, 2, 3
    ),
    diffs AS (
        SELECT event_type, tau,
               yb - LAG(yb) OVER (PARTITION BY event_type, tau
                                  ORDER BY blk) AS dy
        FROM blocks
    ),
    agg AS (
        SELECT event_type, tau, count(*)::DOUBLE + 1 AS M,
               sum(dy * dy) AS ss
        FROM diffs WHERE dy IS NOT NULL GROUP BY 1, 2
    ),
    grid AS (SELECT DISTINCT d.event_type, t.tau
             FROM daily d CROSS JOIN taus t)
    SELECT g.event_type, CAST(g.tau AS BIGINT) AS tau,
           CAST(COALESCE(a.M, 0) AS BIGINT) AS n_blocks,
           COALESCE(round(a.ss / (2.0 * (a.M - 1)), 6) + 0.0, {NULLF})
               AS avar
    FROM grid g LEFT JOIN agg a
      ON a.event_type = g.event_type AND a.tau = g.tau
    ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# log-loss / Cramér's V / tenure-activity correlation
# ---------------------------------------------------------------------------

@entry("logloss_users", sql=lambda: SQL_LOGLOSS_USERS)
def q_logloss_users(sf_dir: str) -> pd.DataFrame:
    """Cross-entropy (log-loss) of the first-half→second-half purchase
    predictor, completing the eval family next to Brier/calibration:
    −mean(y·ln p + (1−y)·ln(1−p)) with p CLIPPED to [1e−6, 1−1e−6]
    (degenerate 0/1 predictions otherwise blow up — clip documented and
    identical on both sides; p is the ROUNDED share)."""
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
    p = np.clip(pred, 1e-6, 1 - 1e-6)
    y = per_user["p2"].to_numpy(np.float64)
    ll = -(y * np.log(p) + (1 - y) * np.log(1 - p)).mean()
    return pd.DataFrame({
        "n_users": [np.int64(len(p))],
        "logloss": [np.round(ll, 6) + 0.0],
        "base_rate": [np.round(y.mean(), 6) + 0.0],
    })


SQL_LOGLOSS_USERS = """
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
        SELECT least(greatest(round(p1 * 1.0 / n1, 6) + 0.0, 1e-6),
                     1 - 1e-6) AS p,
               p2::DOUBLE AS y
        FROM u WHERE n1 > 0
    )
    SELECT CAST(count(*) AS BIGINT) AS n_users,
           round(-avg(y * ln(p) + (1 - y) * ln(1 - p)), 6) + 0.0
               AS logloss,
           round(avg(y), 6) + 0.0 AS base_rate
    FROM t
"""


@entry("cramers_v_orders", sql=lambda: SQL_CRAMERS_V)
def q_cramers_v_orders(sf_dir: str) -> pd.DataFrame:
    """Cramér's V association between order priority and status:
    χ² over the contingency table, V = √(χ²/(N·min(r−1, c−1))) — the
    normalized effect size the raw chi-square lacks. One contingency
    aggregate; closed-form algebra."""
    orders = _read(sf_dir, "orders", ["o_orderpriority", "o_orderstatus"])
    ct = hash_count(orders, ["o_orderpriority", "o_orderstatus"],
                    out_col="n", num_partitions=4).to_pandas()
    N = float(ct["n"].sum())
    ri = ct.groupby("o_orderpriority")["n"].sum()
    cj = ct.groupby("o_orderstatus")["n"].sum()
    exp = (ct["o_orderpriority"].map(ri).to_numpy(np.float64)
           * ct["o_orderstatus"].map(cj).to_numpy(np.float64)) / N
    # absent cells contribute their expected count to chi2
    chi2 = (((ct["n"].to_numpy(np.float64) - exp) ** 2) / exp).sum()
    chi2 += N - exp.sum()  # Σexp over PRESENT cells vs N covers absents
    k = min(len(ri) - 1, len(cj) - 1)
    v = np.sqrt(chi2 / (N * k))
    return pd.DataFrame({
        "n_orders": [np.int64(N)],
        "chi2": [np.round(chi2, 6) + 0.0],
        "cramers_v": [np.round(v, 6) + 0.0],
    })


SQL_CRAMERS_V = """
    WITH ct AS (
        SELECT o_orderpriority AS pr, o_orderstatus AS st,
               count(*)::DOUBLE AS n
        FROM orders GROUP BY 1, 2
    ),
    tot AS (SELECT sum(n) AS N FROM ct),
    ri AS (SELECT pr, sum(n) AS r FROM ct GROUP BY 1),
    cj AS (SELECT st, sum(n) AS c FROM ct GROUP BY 1),
    chi AS (
        SELECT sum((ct.n - ri.r * cj.c / tot.N)
                   * (ct.n - ri.r * cj.c / tot.N)
                   / (ri.r * cj.c / tot.N)) AS chi_present,
               sum(ri.r * cj.c / tot.N) AS exp_present
        FROM ct JOIN ri USING (pr) JOIN cj USING (st) CROSS JOIN tot
    ),
    k AS (SELECT least((SELECT count(*) FROM ri) - 1,
                       (SELECT count(*) FROM cj) - 1)::DOUBLE AS k)
    SELECT CAST(tot.N AS BIGINT) AS n_orders,
           round(chi.chi_present + tot.N - chi.exp_present, 6) + 0.0
               AS chi2,
           round(sqrt((chi.chi_present + tot.N - chi.exp_present)
                      / (tot.N * k.k)), 6) + 0.0 AS cramers_v
    FROM chi CROSS JOIN tot CROSS JOIN k
"""


@entry("tenure_activity_corr_users", sql=lambda: SQL_TENURE_ACTIVITY_CORR)
def q_tenure_activity_corr_users(sf_dir: str) -> pd.DataFrame:
    """Does tenure predict intensity? Pearson correlation across users
    between tenure (days from first event to the corpus end) and
    activity rate (events per active-span day, span floored at 1) —
    the cohort-maturity confound check before any engagement claim."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])
    bounds = ev.map_batches(
        lambda b: pd.DataFrame({"hi": [b["ts"].astype("int64").max()]}),
        batch_format="pandas").to_pandas()
    end_day = int(bounds["hi"].max()) // DAY_US

    def per_user(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["day"] = b["ts"].astype("int64") // DAY_US
        b["one"] = 1
        return b[["user_id", "day", "one"]]

    agg = hash_aggregate(ev.map_batches(per_user, batch_format="pandas"),
                         ["user_id"],
                         {"first_day": ("day", "min"),
                          "n": ("one", "sum")},
                         num_partitions=_NP).to_pandas()
    tenure = (end_day - agg["first_day"].to_numpy(np.int64) + 1) \
        .astype(np.float64)
    rate = agg["n"].to_numpy(np.float64) / tenure
    x, y = tenure - tenure.mean(), rate - rate.mean()
    den = np.sqrt((x ** 2).sum() * (y ** 2).sum())
    r = (x * y).sum() / den if den > 0 else np.nan
    return pd.DataFrame({
        "n_users": [np.int64(len(agg))],
        "mean_tenure_days": [np.round(tenure.mean(), 6) + 0.0],
        "mean_rate": [np.round(rate.mean(), 6) + 0.0],
        "corr": [np.round(r, 6) + 0.0 if np.isfinite(r) else NULLF],
    })


SQL_TENURE_ACTIVITY_CORR = f"""
    WITH endd AS (SELECT max(epoch_us(ts)) // {DAY_US} AS e FROM events),
    u AS (
        SELECT user_id, min(epoch_us(ts)) // {DAY_US} AS fd,
               count(*)::DOUBLE AS n
        FROM events GROUP BY 1
    ),
    t AS (
        SELECT (endd.e - u.fd + 1)::DOUBLE AS tenure,
               u.n / (endd.e - u.fd + 1) AS rate
        FROM u CROSS JOIN endd
    )
    SELECT CAST(count(*) AS BIGINT) AS n_users,
           round(avg(tenure), 6) + 0.0 AS mean_tenure_days,
           round(avg(rate), 6) + 0.0 AS mean_rate,
           COALESCE(round(corr(tenure, rate), 6) + 0.0, {NULLF}) AS corr
    FROM t
"""


# ---------------------------------------------------------------------------
# Markov entropy rate / Sinkhorn normalization / restricted mean survival
# ---------------------------------------------------------------------------

@entry("markov_entropy_rate_events", sql=lambda: SQL_MARKOV_ENTROPY_RATE)
def q_markov_entropy_rate_events(sf_dir: str) -> pd.DataFrame:
    """Entropy rate of the first-order user event chain:
    H = Σ_s w(s)·Σ_t −P(t|s)·ln P(t|s) with empirical source weights
    w(s) = n_s/N (documented stand-in for the stationary distribution),
    plus the branching perplexity e^H — how predictable the next event
    is given the current one."""
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
    N = float(trans["n"].sum())
    ns = trans.groupby("cur")["n"].sum()
    p = trans["n"].to_numpy(np.float64) \
        / trans["cur"].map(ns).to_numpy(np.float64)
    w = trans["cur"].map(ns).to_numpy(np.float64) / N
    H = float((-w * p * np.log(p)).sum())
    return pd.DataFrame({
        "n_transitions": [np.int64(N)],
        "entropy_rate_nats": [np.round(H, 6) + 0.0],
        "branch_perplexity": [np.round(np.exp(H), 6) + 0.0],
    })


SQL_MARKOV_ENTROPY_RATE = """
    WITH s AS (
        SELECT event_type AS cur,
               LEAD(event_type) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS nxt
        FROM events
    ),
    t AS (SELECT cur, nxt, count(*)::DOUBLE AS n
          FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2),
    ns AS (SELECT cur, sum(n) AS ns FROM t GROUP BY 1),
    tot AS (SELECT sum(n) AS N FROM t)
    SELECT CAST(tot.N AS BIGINT) AS n_transitions,
           round(sum(-(ns.ns / tot.N) * (t.n / ns.ns)
                     * ln(t.n / ns.ns)), 6) + 0.0 AS entropy_rate_nats,
           round(exp(sum(-(ns.ns / tot.N) * (t.n / ns.ns)
                         * ln(t.n / ns.ns))), 6) + 0.0
               AS branch_perplexity
    FROM t JOIN ns USING (cur) CROSS JOIN tot
    GROUP BY tot.N
"""


@entry("sinkhorn2_transitions", sql=lambda: SQL_SINKHORN2)
def q_sinkhorn2_transitions(sf_dir: str) -> pd.DataFrame:
    """Two fixed Sinkhorn-Knopp sweeps over the transition-count matrix
    (row-normalize, then column-normalize — the deterministic prefix of
    the doubly-stochastic projection used in optimal-transport pipelines).
    Output: each present (cur, nxt) cell's value after sweep 2."""
    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    from forecastframe_ray.stages.agg import keyed_map_partitions

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
    m = trans.copy()
    m["p"] = m["n"].astype(np.float64)
    rs = m.groupby("cur")["p"].transform("sum")
    m["p"] = m["p"] / rs
    cs = m.groupby("nxt")["p"].transform("sum")
    m["p"] = m["p"] / cs
    m["p2"] = np.round(m["p"].to_numpy(np.float64), 6) + 0.0
    out = m[["cur", "nxt", "n", "p2"]].astype({"n": np.int64})
    return out.sort_values(["cur", "nxt"]).reset_index(drop=True)


SQL_SINKHORN2 = """
    WITH s AS (
        SELECT event_type AS cur,
               LEAD(event_type) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS nxt
        FROM events
    ),
    t AS (SELECT cur, nxt, count(*)::DOUBLE AS n
          FROM s WHERE nxt IS NOT NULL GROUP BY 1, 2),
    r1 AS (SELECT cur, nxt, n,
                  n / sum(n) OVER (PARTITION BY cur) AS p
           FROM t),
    r2 AS (SELECT cur, nxt, n,
                  p / sum(p) OVER (PARTITION BY nxt) AS p
           FROM r1)
    SELECT cur, nxt, CAST(n AS BIGINT) AS n,
           round(p, 6) + 0.0 AS p2
    FROM r2 ORDER BY 1, 2
"""


@entry("rmst_users", sql=lambda: SQL_RMST_USERS)
def q_rmst_users(sf_dir: str) -> pd.DataFrame:
    """Restricted mean survival time at τ=20 days over the same
    Kaplan-Meier lifetime table as kaplan_meier_users: with integer-day
    lifetimes, RMST(τ) = Σ_{t=0..τ−1} S(t) where S(t) is the (ROUNDED)
    KM survival after the deaths at ≤ t — the 'expected active days in
    the first τ' summary a survival curve alone doesn't give."""
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
    at_risk = total - np.concatenate([[0],
                                      np.cumsum(tab["c"].to_numpy())[:-1]])
    surv = np.round(np.cumprod(1.0 - tab["d"].to_numpy(np.float64)
                               / at_risk), 6) + 0.0
    ts = tab["t"].to_numpy(np.int64)
    TAU = 20
    rmst = 0.0
    for day in range(TAU):
        # survival AFTER deaths at lifetimes <= day
        idx = np.searchsorted(ts, day, side="right") - 1
        rmst += surv[idx] if idx >= 0 else 1.0
    return pd.DataFrame({
        "tau_days": [np.int64(TAU)],
        "n_users": [np.int64(total)],
        "rmst_days": [np.round(rmst, 6) + 0.0],
    })


SQL_RMST_USERS = """
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
    days AS (SELECT unnest(range(0, 20)) AS day),
    sd AS (
        SELECT days.day,
               COALESCE((SELECT s FROM km WHERE km.t <= days.day
                         ORDER BY km.t DESC LIMIT 1), 1.0) AS s
        FROM days
    )
    SELECT CAST(20 AS BIGINT) AS tau_days,
           (SELECT CAST(sum(c) AS BIGINT) FROM tab) AS n_users,
           round(sum(s), 6) + 0.0 AS rmst_days
    FROM sd
"""


# ---------------------------------------------------------------------------
# exact 1-D 2-means / doc-length CCDF / Ruzicka source similarity
# ---------------------------------------------------------------------------

@entry("two_means_split_daily", sql=lambda: SQL_TWO_MEANS_SPLIT)
def q_two_means_split_daily(sf_dir: str) -> pd.DataFrame:
    """EXACT 2-means clustering of each series' values (1-D k-means is
    solvable by split enumeration over the sorted order): the threshold
    minimizing within-cluster SSE (ROUNDED, ties → smaller split index),
    with both cluster means — the regime-split primitive fancier
    changepoint methods refine."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = np.sort(g["v"].to_numpy(np.float64))
            n = len(v)
            if n < 2:
                rows.append((et, n, 0, np.nan, np.nan, np.nan))
                continue
            cs = np.cumsum(v)
            tot = cs[-1]
            best = None
            for k in range(1, n):  # left cluster = first k sorted values
                sl, sr = cs[k - 1], tot - cs[k - 1]
                sse = (np.round(
                    (v[:k] ** 2).sum() - sl * sl / k
                    + (v[k:] ** 2).sum() - sr * sr / (n - k), 6) + 0.0)
                if best is None or (sse, k) < best[:2]:
                    best = (sse, k, sl / k, sr / (n - k))
            rows.append((et, n, best[1],
                         np.round(best[2], 6) + 0.0,
                         np.round(best[3], 6) + 0.0, best[0]))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "split_k", "mean_lo",
                                           "mean_hi", "sse"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["n_days", "split_k"]] = out[["n_days", "split_k"]] \
        .astype(np.int64)
    out = _fill(out, ["mean_lo", "mean_hi", "sse"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_TWO_MEANS_SPLIT = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY v) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n,
               sum(v) OVER (PARTITION BY event_type ORDER BY v
                            ROWS UNBOUNDED PRECEDING) AS cs,
               sum(v * v) OVER (PARTITION BY event_type ORDER BY v
                                ROWS UNBOUNDED PRECEDING) AS css,
               sum(v) OVER (PARTITION BY event_type) AS tot,
               sum(v * v) OVER (PARTITION BY event_type) AS tot2
        FROM daily
    ),
    sp AS (
        SELECT event_type, rn AS k, n,
               cs / rn AS mean_lo, (tot - cs) / (n - rn) AS mean_hi,
               round(css - cs * cs / rn
                     + (tot2 - css) - (tot - cs) * (tot - cs) / (n - rn),
                     6) + 0.0 AS sse
        FROM r WHERE rn < n
    ),
    best AS (
        SELECT *, ROW_NUMBER() OVER (PARTITION BY event_type
                                     ORDER BY sse, k) AS pos
        FROM sp
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           CAST(k AS BIGINT) AS split_k,
           round(mean_lo, 6) + 0.0 AS mean_lo,
           round(mean_hi, 6) + 0.0 AS mean_hi, sse
    FROM best WHERE pos = 1 ORDER BY 1
"""


@entry("ccdf_doclen_documents", sql=lambda: SQL_CCDF_DOCLEN)
def q_ccdf_doclen_documents(sf_dir: str) -> pd.DataFrame:
    """Complementary CDF of document token lengths at decade thresholds
    {10, 30, 100, 300, 1000} — the log-log survival view that exposes
    heavy tails the mean hides (the Zipf/Heaps companion at document
    grain)."""
    docs = _read(sf_dir, "documents", ["text"])

    def lens(b: pd.DataFrame) -> pd.DataFrame:
        n = b["text"].str.split().str.len().fillna(0) \
            .astype(np.int64).to_numpy()
        out = {"total": [len(n)]}
        for thr in (10, 30, 100, 300, 1000):
            out[f"ge_{thr}"] = [int((n >= thr).sum())]
        return pd.DataFrame(out)

    agg = docs.map_batches(lens, batch_format="pandas").to_pandas().sum()
    total = float(agg["total"])
    rows = [(thr, int(agg[f"ge_{thr}"]),
             np.round(agg[f"ge_{thr}"] / total, 6) + 0.0)
            for thr in (10, 30, 100, 300, 1000)]
    return pd.DataFrame(rows, columns=["threshold", "n_ge", "ccdf"]) \
        .astype({"threshold": np.int64, "n_ge": np.int64})


SQL_CCDF_DOCLEN = r"""
    WITH l AS (
        SELECT len(list_filter(string_split_regex(text, '\s+'),
                               x -> x <> '')) AS n
        FROM documents
    ),
    thr AS (SELECT unnest([10, 30, 100, 300, 1000]) AS threshold)
    SELECT CAST(thr.threshold AS BIGINT) AS threshold,
           CAST(sum(CASE WHEN l.n >= thr.threshold THEN 1 ELSE 0 END)
                AS BIGINT) AS n_ge,
           round(sum(CASE WHEN l.n >= thr.threshold THEN 1 ELSE 0 END)
                 * 1.0 / count(*), 6) + 0.0 AS ccdf
    FROM thr CROSS JOIN l
    GROUP BY 1 ORDER BY 1
"""


@entry("ruzicka_sources", sql=lambda: SQL_RUZICKA_SOURCES)
def q_ruzicka_sources(sf_dir: str) -> pd.DataFrame:
    """Ruzicka (weighted Jaccard) similarity between the token-frequency
    profiles of the first four sources: Σmin(fa, fb)/Σmax(fa, fb) over
    the union vocabulary of each pair (relative frequencies) — the
    continuous generalization of Jaccard the KL/Delta family lacks."""
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
    sub = tc.filter(lambda r: r["source"] in _KL_SOURCES).to_pandas()
    counts = {s: dict(zip(g["token"], g["c"].astype(float)))
              for s, g in sub.groupby("source")}
    totals = {s: sum(counts.get(s, {}).values()) for s in _KL_SOURCES}
    rows = []
    for i, a in enumerate(_KL_SOURCES):
        for b in _KL_SOURCES[i + 1:]:
            ca, cb = counts.get(a, {}), counts.get(b, {})
            na, nb = totals[a], totals[b]
            smin = smax = 0.0
            for t in set(ca) | set(cb):
                fa = ca.get(t, 0.0) / na
                fb = cb.get(t, 0.0) / nb
                smin += min(fa, fb)
                smax += max(fa, fb)
            rows.append((a, b, np.round(smin / smax, 6) + 0.0))
    return pd.DataFrame(rows, columns=["src_a", "src_b", "ruzicka"])


SQL_RUZICKA_SOURCES = r"""
    WITH tok AS (
      SELECT source,
             unnest(list_filter(string_split_regex(text, '\s+'),
                                x -> x <> '')) AS token
      FROM documents
      WHERE source IN ('src0', 'src1', 'src2', 'src3')
    ),
    tc AS (SELECT source, token, count(*)::DOUBLE AS c
           FROM tok GROUP BY 1, 2),
    n AS (SELECT source, sum(c) AS N FROM tc GROUP BY 1),
    srcs AS (SELECT unnest(['src0', 'src1', 'src2', 'src3']) AS s),
    pairs AS (SELECT a.s AS sa, b.s AS sb
              FROM srcs a, srcs b WHERE a.s < b.s),
    ut AS (
        SELECT p.sa, p.sb, t.token,
               max(CASE WHEN t.source = p.sa THEN t.c ELSE 0 END) AS ca,
               max(CASE WHEN t.source = p.sb THEN t.c ELSE 0 END) AS cb
        FROM pairs p JOIN tc t ON t.source IN (p.sa, p.sb)
        GROUP BY 1, 2, 3
    )
    SELECT u.sa AS src_a, u.sb AS src_b,
           round(sum(least(u.ca / na.N, u.cb / nb.N))
                 / sum(greatest(u.ca / na.N, u.cb / nb.N)), 6) + 0.0
               AS ruzicka
    FROM ut u JOIN n na ON na.source = u.sa JOIN n nb ON nb.source = u.sb
    GROUP BY 1, 2 ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# biweight location / term-rank correlation / inverse-vol weights
# ---------------------------------------------------------------------------

@entry("biweight_location_daily", sql=lambda: SQL_BIWEIGHT_LOCATION)
def q_biweight_location_daily(sf_dir: str) -> pd.DataFrame:
    """One-step Tukey biweight location per series (Mosteller & Tukey
    1977): from the (ROUNDED) median and MAD, u = (v−med)/(9·MAD),
    weights (1−u²)² for |u|<1, location = Σwv/Σw — the outlier-resistant
    mean that degrades gracefully where the median is too coarse. NULLF
    when MAD = 0."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["v"].to_numpy(np.float64)
            med = np.round(np.quantile(v, 0.5), 6) + 0.0
            mad = np.round(np.quantile(np.abs(v - med), 0.5), 6) + 0.0
            if mad <= 0:
                rows.append((et, len(v), med, mad, np.nan))
                continue
            u = (v - med) / (9.0 * mad)
            w = np.where(np.abs(u) < 1.0, (1.0 - u * u) ** 2, 0.0)
            loc = (w * v).sum() / w.sum()
            rows.append((et, len(v), med, mad,
                         np.round(loc, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "median", "mad", "biweight"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["biweight"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_BIWEIGHT_LOCATION = f"""
    WITH daily AS ({_DAILY_SQL}),
    med AS (SELECT event_type, count(*) AS n,
                   round(quantile_cont(v, 0.5), 6) + 0.0 AS med
            FROM daily GROUP BY 1),
    mad AS (
        SELECT d.event_type,
               round(quantile_cont(abs(d.v - med.med), 0.5), 6) + 0.0
                   AS mad
        FROM daily d JOIN med USING (event_type) GROUP BY 1, med.med
    ),
    w AS (
        SELECT d.event_type, d.v,
               CASE WHEN abs((d.v - med.med) / (9 * mad.mad)) < 1
                    THEN pow(1 - pow((d.v - med.med) / (9 * mad.mad), 2),
                             2)
                    ELSE 0 END AS w
        FROM daily d JOIN med USING (event_type)
        JOIN mad USING (event_type)
        WHERE mad.mad > 0
    ),
    loc AS (SELECT event_type, sum(w * v) / sum(w) AS loc
            FROM w GROUP BY 1)
    SELECT med.event_type, CAST(med.n AS BIGINT) AS n_days, med.med
               AS median, mad.mad AS mad,
           COALESCE(round(loc.loc, 6) + 0.0, {NULLF}) AS biweight
    FROM med JOIN mad USING (event_type)
    LEFT JOIN loc USING (event_type)
    ORDER BY 1
"""


@entry("term_rank_corr_sources", sql=lambda: SQL_TERM_RANK_CORR)
def q_term_rank_corr_sources(sf_dir: str) -> pd.DataFrame:
    """Vocabulary-rank stability between src0 and src1: Spearman
    correlation of the two sources' count-ranks over the corpus top-50
    tokens (average ranks on count ties — absent terms rank as count 0).
    The drift-detection complement to KL at rank grain."""
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
    top = list(corpus.sort_values(["n", "token"],
                                  ascending=[False, True]).head(50)
               ["token"])
    sub = tc.filter(
        lambda r: r["source"] in ("src0", "src1")
        and r["token"] in set(top)).to_pandas()

    def ranks(src):
        cmap = dict(zip(sub.loc[sub["source"] == src, "token"],
                        sub.loc[sub["source"] == src, "c"]))
        c = np.array([float(cmap.get(t, 0)) for t in top])
        order = np.argsort(-c, kind="mergesort")
        rk = np.empty(len(c))
        cs = c[order]
        i = 0
        while i < len(c):
            j = i
            while j + 1 < len(c) and cs[j + 1] == cs[i]:
                j += 1
            rk[order[i:j + 1]] = (i + j) / 2.0 + 1.0
            i = j + 1
        return rk

    ra, rb = ranks("src0"), ranks("src1")
    x, y = ra - ra.mean(), rb - rb.mean()
    rho = (x * y).sum() / np.sqrt((x ** 2).sum() * (y ** 2).sum())
    return pd.DataFrame({
        "n_terms": [np.int64(len(top))],
        "spearman_rho": [np.round(rho, 6) + 0.0],
    })


SQL_TERM_RANK_CORR = r"""
    WITH tok AS (
      SELECT source,
             unnest(list_filter(string_split_regex(text, '\s+'),
                                x -> x <> '')) AS token
      FROM documents
    ),
    corpus AS (SELECT token, count(*) AS n FROM tok GROUP BY 1),
    top AS (SELECT token FROM corpus ORDER BY n DESC, token LIMIT 50),
    tc AS (
        SELECT s.src, top.token, COALESCE(cnt.c, 0)::DOUBLE AS c
        FROM (SELECT unnest(['src0', 'src1']) AS src) s
        CROSS JOIN top
        LEFT JOIN (SELECT source, token, count(*)::DOUBLE AS c
                   FROM tok WHERE source IN ('src0', 'src1')
                   GROUP BY 1, 2) cnt
          ON cnt.source = s.src AND cnt.token = top.token
    ),
    rk AS (
        SELECT src, token,
               rank() OVER (PARTITION BY src ORDER BY c DESC)
               + (count(*) OVER (PARTITION BY src, c) - 1) / 2.0 AS r
        FROM tc
    )
    SELECT (SELECT CAST(count(*) AS BIGINT) FROM top) AS n_terms,
           round(corr(a.r, b.r), 6) + 0.0 AS spearman_rho
    FROM rk a JOIN rk b ON a.token = b.token
    WHERE a.src = 'src0' AND b.src = 'src1'
"""


@entry("inverse_vol_weights_daily", sql=lambda: SQL_INVERSE_VOL_WEIGHTS)
def q_inverse_vol_weights_daily(sf_dir: str) -> pd.DataFrame:
    """Risk-parity (inverse-volatility) weights across the series family:
    wᵢ = (1/σᵢ)/Σ(1/σⱼ) over each series' daily-value ddof=1 std — how a
    monitoring budget or ensemble weight would allocate attention."""
    ev = _bucket_series(sf_dir, DAY_US, "d")

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["v2"] = b["v"].to_numpy(np.float64) ** 2
        b["one"] = 1.0
        return b[["event_type", "one", "v", "v2"]]

    g = hash_aggregate(ev.map_batches(moments, batch_format="pandas"),
                       ["event_type"],
                       {"n": ("one", "sum"), "s": ("v", "sum"),
                        "ss": ("v2", "sum")},
                       num_partitions=_NP).to_pandas() \
        .sort_values("event_type").reset_index(drop=True)
    n = g["n"].to_numpy(np.float64)
    m = g["s"].to_numpy(np.float64) / n
    sd = np.sqrt((g["ss"].to_numpy(np.float64) - n * m * m) / (n - 1.0))
    inv = 1.0 / sd
    w = inv / inv.sum()
    return pd.DataFrame({
        "event_type": g["event_type"],
        "sigma": np.round(sd, 6) + 0.0,
        "weight": np.round(w, 6) + 0.0,
    })


SQL_INVERSE_VOL_WEIGHTS = f"""
    WITH daily AS ({_DAILY_SQL}),
    s AS (SELECT event_type, stddev_samp(v) AS sd FROM daily GROUP BY 1),
    t AS (SELECT sum(1.0 / sd) AS tot FROM s)
    SELECT s.event_type, round(s.sd, 6) + 0.0 AS sigma,
           round((1.0 / s.sd) / t.tot, 6) + 0.0 AS weight
    FROM s CROSS JOIN t ORDER BY 1
"""


# ---------------------------------------------------------------------------
# tabular CUSUM / Poisson rate ratio / diurnal harmonic
# ---------------------------------------------------------------------------

@entry("tabular_cusum_daily", sql=lambda: SQL_TABULAR_CUSUM)
def q_tabular_cusum_daily(sf_dir: str) -> pd.DataFrame:
    """Two-sided tabular CUSUM (Page; NIST handbook form) per series with
    slack k = 0.5σ around the mean: C⁺ₜ = max(0, C⁺ₜ₋₁ + zₜ − k) and the
    mirrored C⁻ — each reset-recursion rewritten by the cumsum-minus-
    running-min identity (exactly the stock-balance trick), so the oracle
    is pure window algebra. Alarms flag on ROUNDED statistics vs h = 4σ
    (in z-units, σ=1)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    K, H = 0.5, 4.0

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            v = g["v"].to_numpy(np.float64)
            mu, sd = v.mean(), v.std(ddof=1)
            if sd <= 0:
                continue
            z = (v - mu) / sd
            sp = np.cumsum(z - K)
            cp = sp - np.minimum.accumulate(np.minimum(sp, 0.0))
            sm = np.cumsum(-z - K)
            cm = sm - np.minimum.accumulate(np.minimum(sm, 0.0))
            cpr = np.round(cp, 6) + 0.0
            cmr = np.round(cm, 6) + 0.0
            g["cusum_hi"] = cpr
            g["cusum_lo"] = cmr
            g["alarm"] = (cpr > H) | (cmr > H)
            outs.append(g[["event_type", "d", "v", "cusum_hi",
                           "cusum_lo", "alarm"]])
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "cusum_hi",
                                  "cusum_lo", "alarm"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_TABULAR_CUSUM = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (SELECT event_type, avg(v) AS mu, stddev_samp(v) AS sd
          FROM daily GROUP BY 1),
    z AS (
        SELECT d.event_type, d.d, d.v, (d.v - m.mu) / m.sd AS z
        FROM daily d JOIN m USING (event_type)
        WHERE m.sd > 0
    ),
    s AS (
        SELECT event_type, d, v,
               sum(z - 0.5) OVER w AS sp,
               sum(-z - 0.5) OVER w AS sm
        FROM z WINDOW w AS (PARTITION BY event_type ORDER BY d
                            ROWS UNBOUNDED PRECEDING)
    ),
    c AS (
        SELECT event_type, d, v,
               round(sp - least(min(sp) OVER w, 0), 6) + 0.0 AS cusum_hi,
               round(sm - least(min(sm) OVER w, 0), 6) + 0.0 AS cusum_lo
        FROM s WINDOW w AS (PARTITION BY event_type ORDER BY d
                            ROWS UNBOUNDED PRECEDING)
    )
    SELECT event_type, d, v, cusum_hi, cusum_lo,
           (cusum_hi > 4.0 OR cusum_lo > 4.0) AS alarm
    FROM c
"""


@entry("rate_ratio_events", sql=lambda: SQL_RATE_RATIO)
def q_rate_ratio_events(sf_dir: str) -> pd.DataFrame:
    """Poisson rate ratio of error vs click events over the shared
    exposure window: λ̂_e/λ̂_c with the Wald log-scale CI
    exp(ln RR ± 1.96·√(1/n_e + 1/n_c)) — the incident-rate comparison
    ops teams reach for before any alerting threshold change."""
    ev = _read(sf_dir, "events", ["event_type"])
    counts = hash_count(ev, ["event_type"], out_col="n",
                        num_partitions=4).to_pandas() \
        .set_index("event_type")["n"]
    ne, nc = float(counts.get("error", 0)), float(counts.get("click", 0))
    if ne > 0 and nc > 0:
        rr = ne / nc
        se = np.sqrt(1.0 / ne + 1.0 / nc)
        lo = np.exp(np.log(rr) - 1.96 * se)
        hi = np.exp(np.log(rr) + 1.96 * se)
        vals = [np.round(rr, 6) + 0.0, np.round(lo, 6) + 0.0,
                np.round(hi, 6) + 0.0]
    else:
        vals = [NULLF] * 3
    return pd.DataFrame({
        "n_error": [np.int64(ne)], "n_click": [np.int64(nc)],
        "rate_ratio": [vals[0]], "ci_lo": [vals[1]], "ci_hi": [vals[2]],
    })


SQL_RATE_RATIO = f"""
    WITH c AS (
        SELECT sum(CASE WHEN event_type = 'error' THEN 1 ELSE 0
                   END)::DOUBLE AS ne,
               sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0
                   END)::DOUBLE AS nc
        FROM events
    )
    SELECT CAST(ne AS BIGINT) AS n_error, CAST(nc AS BIGINT) AS n_click,
           COALESCE(CASE WHEN ne > 0 AND nc > 0
                         THEN round(ne / nc, 6) + 0.0 END, {NULLF})
               AS rate_ratio,
           COALESCE(CASE WHEN ne > 0 AND nc > 0
                         THEN round(exp(ln(ne / nc)
                              - 1.96 * sqrt(1 / ne + 1 / nc)), 6) + 0.0
                    END, {NULLF}) AS ci_lo,
           COALESCE(CASE WHEN ne > 0 AND nc > 0
                         THEN round(exp(ln(ne / nc)
                              + 1.96 * sqrt(1 / ne + 1 / nc)), 6) + 0.0
                    END, {NULLF}) AS ci_hi
    FROM c
"""


@entry("diurnal_harmonic_events", sql=lambda: SQL_DIURNAL_HARMONIC)
def q_diurnal_harmonic_events(sf_dir: str) -> pd.DataFrame:
    """First diurnal harmonic of each type's hourly series: amplitude and
    acrophase (peak hour) of the 24-h cosine fit via the discrete Fourier
    projections a = Σv·cos(ωt), b = Σv·sin(ωt), ω = 2π/24 over
    hour-of-day — the parametric sibling of the circular-mean profile.
    Phase maps atan2 to [0, 24) hours."""
    hourly = _bucket_series(sf_dir, HOUR_US, "h")

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        us = b["h"].astype("datetime64[us]").astype("int64")
        theta = 2.0 * np.pi * ((us % DAY_US) / float(DAY_US))
        v = b["v"].to_numpy(np.float64)
        return pd.DataFrame({"event_type": b["event_type"],
                             "a": v * np.cos(theta),
                             "b": v * np.sin(theta), "n": 1.0,
                             "s": v})

    agg = hash_aggregate(hourly.map_batches(partial,
                                            batch_format="pandas"),
                         ["event_type"],
                         {"a": ("a", "sum"), "b": ("b", "sum"),
                          "n": ("n", "sum"), "s": ("s", "sum")},
                         num_partitions=_NP).to_pandas()
    n = agg["n"].to_numpy(np.float64)
    a = 2.0 * agg["a"].to_numpy(np.float64) / n
    b = 2.0 * agg["b"].to_numpy(np.float64) / n
    amp = np.sqrt(a * a + b * b)
    phase = (np.arctan2(b, a) % (2.0 * np.pi)) * 24.0 / (2.0 * np.pi)
    return pd.DataFrame({
        "event_type": agg["event_type"],
        "n_hours": n.astype(np.int64),
        "mean_level": np.round(agg["s"].to_numpy(np.float64) / n, 6) + 0.0,
        "amplitude": np.round(amp, 6) + 0.0,
        "peak_hour": np.round(phase, 6) + 0.0,
    }).sort_values("event_type").reset_index(drop=True)


SQL_DIURNAL_HARMONIC = f"""
    WITH hourly AS ({_HOURLY_SQL}),
    t AS (
        SELECT event_type, v,
               2 * pi() * ((epoch_us(h) % {DAY_US}) * 1.0 / {DAY_US})
                   AS theta
        FROM hourly
    ),
    agg AS (
        SELECT event_type, count(*)::DOUBLE AS n, sum(v) AS s,
               2 * sum(v * cos(theta)) / count(*) AS a,
               2 * sum(v * sin(theta)) / count(*) AS b
        FROM t GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_hours,
           round(s / n, 6) + 0.0 AS mean_level,
           round(sqrt(a * a + b * b), 6) + 0.0 AS amplitude,
           round(fmod(atan2(b, a) + 2 * pi(), 2 * pi())
                 * 24 / (2 * pi()), 6) + 0.0 AS peak_hour
    FROM agg ORDER BY 1
"""


# ---------------------------------------------------------------------------
# gamma MoM fit / lognormal tail check / variance-ratio test
# ---------------------------------------------------------------------------

@entry("gamma_fit_events", sql=lambda: SQL_GAMMA_FIT)
def q_gamma_fit_events(sf_dir: str) -> pd.DataFrame:
    """Gamma method-of-moments fit of each type's positive values:
    shape k = m²/s², scale θ = s²/m — the workhorse positive-skew model
    (completes the distribution-fit family next to exp/GPD/GEV/NB)."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def moments(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["value"] > 0].copy()
        b["v2"] = b["value"].to_numpy(np.float64) ** 2
        b["one"] = 1.0
        return b[["event_type", "one", "value", "v2"]]

    g = hash_aggregate(ev.map_batches(moments, batch_format="pandas"),
                       ["event_type"],
                       {"n": ("one", "sum"), "s": ("value", "sum"),
                        "ss": ("v2", "sum")},
                       num_partitions=_NP).to_pandas()
    n = g["n"].to_numpy(np.float64)
    m = g["s"].to_numpy(np.float64) / n
    s2 = (g["ss"].to_numpy(np.float64) - n * m * m) / (n - 1.0)
    return pd.DataFrame({
        "event_type": g["event_type"],
        "n_pos": g["n"].astype(np.int64),
        "gamma_shape": np.round(m * m / s2, 6) + 0.0,
        "gamma_scale": np.round(s2 / m, 6) + 0.0,
    }).sort_values("event_type").reset_index(drop=True)


SQL_GAMMA_FIT = """
    WITH p AS (SELECT event_type, value FROM events WHERE value > 0),
    m AS (SELECT event_type, count(*)::DOUBLE AS n, avg(value) AS m,
                 var_samp(value) AS s2
          FROM p GROUP BY 1)
    SELECT event_type, CAST(n AS BIGINT) AS n_pos,
           round(m * m / s2, 6) + 0.0 AS gamma_shape,
           round(s2 / m, 6) + 0.0 AS gamma_scale
    FROM m ORDER BY 1
"""


@entry("lognormal_tail_events", sql=lambda: SQL_LOGNORMAL_TAIL)
def q_lognormal_tail_events(sf_dir: str) -> pd.DataFrame:
    """Lognormal tail check per type: fit μ, σ on ln(v) (v>0), compare the
    implied p95 = exp(μ + 1.645σ) to the empirical p95 — the 'is the
    parametric tail honest?' ratio that decides whether a lognormal
    capacity model will underprovision."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["value"].to_numpy(np.float64)
            v = v[v > 0]
            if len(v) < 2:
                rows.append((et, len(v), np.nan, np.nan, np.nan))
                continue
            lv = np.log(v)
            mu, sd = lv.mean(), lv.std(ddof=1)
            implied = np.exp(mu + 1.645 * sd)
            emp = np.quantile(v, 0.95)
            rows.append((et, len(v), np.round(implied, 6) + 0.0,
                         np.round(emp, 6) + 0.0,
                         np.round(implied / emp, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_pos",
                                           "p95_lognormal",
                                           "p95_empirical", "tail_ratio"])

    out = keyed_map_partitions(ev, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_pos"] = out["n_pos"].astype(np.int64)
    out = _fill(out, ["p95_lognormal", "p95_empirical", "tail_ratio"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_LOGNORMAL_TAIL = f"""
    WITH p AS (SELECT event_type, value FROM events WHERE value > 0),
    m AS (SELECT event_type, count(*) AS n, avg(ln(value)) AS mu,
                 stddev_samp(ln(value)) AS sd,
                 quantile_cont(value, 0.95) AS emp
          FROM p GROUP BY 1)
    SELECT event_type, CAST(n AS BIGINT) AS n_pos,
           COALESCE(CASE WHEN n >= 2
                         THEN round(exp(mu + 1.645 * sd), 6) + 0.0 END,
                    {NULLF}) AS p95_lognormal,
           COALESCE(CASE WHEN n >= 2
                         THEN round(emp, 6) + 0.0 END, {NULLF})
               AS p95_empirical,
           COALESCE(CASE WHEN n >= 2
                         THEN round(exp(mu + 1.645 * sd) / emp, 6) + 0.0
                    END, {NULLF}) AS tail_ratio
    FROM m ORDER BY 1
"""


@entry("variance_ratio_daily", sql=lambda: SQL_VARIANCE_RATIO)
def q_variance_ratio_daily(sf_dir: str) -> pd.DataFrame:
    """Lo-MacKinlay variance ratio VR(q) of each series' day-over-day
    changes at q ∈ {2, 4}: Var of q-period sums over q·Var of 1-period
    changes (population variances of overlapping q-sums, the simple
    uncorrected form, documented) — 1 under a random walk, <1 mean-
    reverting, >1 trending."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            r = np.diff(v)
            if len(r) < 5:
                continue
            v1 = r.var(ddof=0)
            for q in (2, 4):
                rq = np.convolve(r, np.ones(q), mode="valid")
                vr = rq.var(ddof=0) / (q * v1) if v1 > 0 else np.nan
                rows.append((et, q, len(rq),
                             np.round(vr, 6) + 0.0 if np.isfinite(vr)
                             else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "q", "n_windows",
                                           "vr"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["q", "n_windows"]] = out[["q", "n_windows"]].astype(np.int64)
    out = _fill(out, ["vr"])
    return out.sort_values(["event_type", "q"]).reset_index(drop=True)


SQL_VARIANCE_RATIO = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d,
               v - LAG(v) OVER (PARTITION BY event_type ORDER BY d) AS r
        FROM daily
    ),
    rr AS (SELECT event_type, d, r,
                  ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d)
                      AS rn,
                  count(*) OVER (PARTITION BY event_type) AS n
           FROM r WHERE r IS NOT NULL),
    v1 AS (SELECT event_type, var_pop(r) AS v1, any_value(n) AS n
           FROM rr GROUP BY 1),
    qs AS (SELECT unnest([2, 4]) AS q),
    sums AS (
        SELECT a.event_type, qs.q, a.rn,
               sum(b.r) AS rq, count(*) AS cnt
        FROM qs, rr a
        JOIN rr b ON a.event_type = b.event_type
                  AND b.rn BETWEEN a.rn AND a.rn + qs.q - 1
        GROUP BY 1, 2, 3
        HAVING count(*) = qs.q
    ),
    vq AS (SELECT event_type, q, var_pop(rq) AS vq, count(*) AS nw
           FROM sums GROUP BY 1, 2)
    SELECT vq.event_type, CAST(vq.q AS BIGINT) AS q,
           CAST(vq.nw AS BIGINT) AS n_windows,
           COALESCE(CASE WHEN v1.v1 > 0 AND v1.n >= 5
                         THEN round(vq.vq / (vq.q * v1.v1), 6) + 0.0 END,
                    {NULLF}) AS vr
    FROM vq JOIN v1 USING (event_type)
    ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# shock half-life / mean excess / KPSS stationarity
# ---------------------------------------------------------------------------

@entry("shock_halflife_daily", sql=lambda: SQL_SHOCK_HALFLIFE)
def q_shock_halflife_daily(sf_dir: str) -> pd.DataFrame:
    """Shock persistence per series: from the exact AR(1) slope φ, the
    half-life of a deviation ln(½)/ln|φ| days (NULLF when |φ| ≥ 1 —
    shocks never decay — or φ ≈ 0). The 'how long does an incident
    linger' readout of the AR(1) fit, φ computed from the same rounded
    value both sides report."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            if len(v) < 3:
                rows.append((et, np.nan, np.nan))
                continue
            x, y = v[:-1], v[1:]
            xm, ym = x.mean(), y.mean()
            sxx = ((x - xm) ** 2).sum()
            if sxx <= 0:
                rows.append((et, np.nan, np.nan))
                continue
            phi = np.round(((x - xm) * (y - ym)).sum() / sxx, 6) + 0.0
            if phi == 0 or abs(phi) >= 1:
                rows.append((et, phi, np.nan))
                continue
            rows.append((et, phi,
                         np.round(np.log(0.5) / np.log(abs(phi)), 6)
                         + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "phi",
                                           "halflife_days"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = _fill(out, ["phi", "halflife_days"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_SHOCK_HALFLIFE = f"""
    WITH daily AS ({_DAILY_SQL}),
    p AS (
        SELECT event_type, v,
               LAG(v) OVER (PARTITION BY event_type ORDER BY d) AS x
        FROM daily
    ),
    fit AS (
        SELECT event_type, count(*) AS n,
               round(regr_slope(v, x), 6) + 0.0 AS phi
        FROM p WHERE x IS NOT NULL GROUP BY 1
    )
    SELECT event_type,
           COALESCE(CASE WHEN n >= 2 THEN phi END, {NULLF}) AS phi,
           COALESCE(CASE WHEN n >= 2 AND phi <> 0 AND abs(phi) < 1
                         THEN round(ln(0.5) / ln(abs(phi)), 6) + 0.0 END,
                    {NULLF}) AS halflife_days
    FROM fit ORDER BY 1
"""


@entry("mean_excess_events", sql=lambda: SQL_MEAN_EXCESS)
def q_mean_excess_events(sf_dir: str) -> pd.DataFrame:
    """Mean-excess function at the p50/p75/p90 thresholds per type:
    e(u) = mean(v − u | v > u) — rising e(u) ⇒ heavy (Pareto-ish) tail,
    flat ⇒ exponential; the graphical EVT threshold-picker as a table.
    Thresholds round to 6 before the conditional mean on both sides."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["value"].to_numpy(np.float64)
            for qq in (0.5, 0.75, 0.9):
                u = np.round(np.quantile(v, qq), 6) + 0.0
                exc = v[v > u] - u
                rows.append((et, qq, u, len(exc),
                             np.round(exc.mean(), 6) + 0.0 if len(exc)
                             else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "q", "threshold",
                                           "n_exc", "mean_excess"])

    out = keyed_map_partitions(ev, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_exc"] = out["n_exc"].astype(np.int64)
    out = _fill(out, ["mean_excess"])
    return out.sort_values(["event_type", "q"]).reset_index(drop=True)


SQL_MEAN_EXCESS = f"""
    WITH thr AS (
        SELECT event_type, 0.5 AS q,
               round(quantile_cont(value, 0.5), 6) + 0.0 AS u
        FROM events GROUP BY 1
        UNION ALL
        SELECT event_type, 0.75,
               round(quantile_cont(value, 0.75), 6) + 0.0
        FROM events GROUP BY 1
        UNION ALL
        SELECT event_type, 0.9,
               round(quantile_cont(value, 0.9), 6) + 0.0
        FROM events GROUP BY 1
    ),
    exc AS (
        SELECT t.event_type, t.q, t.u,
               count(*) FILTER (WHERE e.value > t.u) AS n_exc,
               avg(e.value - t.u) FILTER (WHERE e.value > t.u) AS me
        FROM thr t JOIN events e USING (event_type)
        GROUP BY 1, 2, 3
    )
    SELECT event_type, q, u AS threshold,
           CAST(n_exc AS BIGINT) AS n_exc,
           COALESCE(round(me, 6) + 0.0, {NULLF}) AS mean_excess
    FROM exc ORDER BY 1, 2
"""


@entry("kpss_daily", sql=lambda: SQL_KPSS_DAILY)
def q_kpss_daily(sf_dir: str) -> pd.DataFrame:
    """KPSS level-stationarity statistic per series (Kwiatkowski et al.
    1992, lag-0 long-run variance — the simple form, documented):
    η = Σ Sₜ²/(n²·σ̂²_pop) over partial sums of demeaned values. The
    null-reversed companion to the Dickey-Fuller test (KPSS null =
    stationary); 0.463 is the 5% critical value."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            e = v - v.mean()
            s2 = (e ** 2).mean()
            if n < 3 or s2 <= 0:
                rows.append((et, n, np.nan, None))
                continue
            S = np.cumsum(e)
            eta = np.round((S ** 2).sum() / (n * n * s2), 6) + 0.0
            rows.append((et, n, eta, bool(eta > 0.463)))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "kpss_eta", "reject_level"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["kpss_eta"])
    out["reject_level"] = out["reject_level"].fillna(False).astype(bool)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_KPSS_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (SELECT event_type, avg(v) AS mu, count(*)::DOUBLE AS n
          FROM daily GROUP BY 1),
    s AS (
        SELECT d.event_type, m.n,
               sum(d.v - m.mu) OVER (PARTITION BY d.event_type
                                     ORDER BY d.d
                                     ROWS UNBOUNDED PRECEDING) AS S,
               (d.v - m.mu) * (d.v - m.mu) AS e2
        FROM daily d JOIN m USING (event_type)
    ),
    agg AS (
        SELECT event_type, any_value(n) AS n, sum(S * S) AS ss2,
               sum(e2) / any_value(n) AS s2
        FROM s GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           COALESCE(CASE WHEN n >= 3 AND s2 > 0
                         THEN round(ss2 / (n * n * s2), 6) + 0.0 END,
                    {NULLF}) AS kpss_eta,
           COALESCE(CASE WHEN n >= 3 AND s2 > 0
                         THEN round(ss2 / (n * n * s2), 6) + 0.0 > 0.463
                    END, false) AS reject_level
    FROM agg ORDER BY 1
"""


# ---------------------------------------------------------------------------
# pairwise dominance / Newey-West mean CI / Nelson-Aalen hazard
# ---------------------------------------------------------------------------

@entry("dominance_matrix_daily", sql=lambda: SQL_DOMINANCE_MATRIX)
def q_dominance_matrix_daily(sf_dir: str) -> pd.DataFrame:
    """Day-wise dominance between every series pair: over common days,
    the share where a's value strictly exceeds b's (ties counted
    separately) — the nonparametric 'who usually wins' matrix under the
    Mann-Whitney story but paired by day."""
    daily = _bucket_series(sf_dir, DAY_US, "d")
    wide = daily.to_pandas().pivot_table(index="d", columns="event_type",
                                         values="v", aggfunc="sum")
    ets = sorted(wide.columns)
    rows = []
    for i, a in enumerate(ets):
        for b in ets[i + 1:]:
            m = wide[a].notna() & wide[b].notna()
            va = wide.loc[m, a].to_numpy(np.float64)
            vb = wide.loc[m, b].to_numpy(np.float64)
            n = len(va)
            wins = int((va > vb).sum())
            ties = int((va == vb).sum())
            rows.append((a, b, n, wins, ties,
                         np.round(wins / n, 6) + 0.0 if n else NULLF))
    return pd.DataFrame(rows, columns=["et_a", "et_b", "n_days",
                                       "a_wins", "ties", "win_share"]) \
        .astype({"n_days": np.int64, "a_wins": np.int64,
                 "ties": np.int64})


SQL_DOMINANCE_MATRIX = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT a.event_type AS et_a, b.event_type AS et_b,
           CAST(count(*) AS BIGINT) AS n_days,
           CAST(sum(CASE WHEN a.v > b.v THEN 1 ELSE 0 END) AS BIGINT)
               AS a_wins,
           CAST(sum(CASE WHEN a.v = b.v THEN 1 ELSE 0 END) AS BIGINT)
               AS ties,
           round(sum(CASE WHEN a.v > b.v THEN 1 ELSE 0 END) * 1.0
                 / count(*), 6) + 0.0 AS win_share
    FROM daily a JOIN daily b
      ON a.d = b.d AND a.event_type < b.event_type
    GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("newey_west_daily", sql=lambda: SQL_NEWEY_WEST)
def q_newey_west_daily(sf_dir: str) -> pd.DataFrame:
    """Autocorrelation-robust mean inference per series: Newey-West
    long-run variance with Bartlett weights at lag L=3,
    σ²_NW = γ₀ + 2Σₖ(1−k/(L+1))γₖ (population autocovariances), and the
    95% CI mean ± 1.96·√(σ²_NW/n) — the honest uncertainty when daily
    values autocorrelate (the naive CI is also reported for contrast)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    L = 3

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            if n < L + 2:
                rows.append((et, n, np.nan, np.nan, np.nan))
                continue
            dv = v - v.mean()
            lrv = (dv ** 2).mean()
            for k in range(1, L + 1):
                gk = (dv[k:] * dv[:-k]).sum() / n
                lrv += 2.0 * (1.0 - k / (L + 1.0)) * gk
            se_nw = np.sqrt(max(lrv, 0.0) / n)
            se_naive = np.sqrt((dv ** 2).sum() / (n - 1.0) / n)
            rows.append((et, n, np.round(v.mean(), 6) + 0.0,
                         np.round(1.96 * se_nw, 6) + 0.0,
                         np.round(1.96 * se_naive, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "mean_v", "hw_neweywest",
                                           "hw_naive"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["mean_v", "hw_neweywest", "hw_naive"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_NEWEY_WEST = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (SELECT event_type, avg(v) AS mu, count(*)::DOUBLE AS n
          FROM daily GROUP BY 1),
    r AS (
        SELECT d.event_type, d.v - m.mu AS dv, m.n, m.mu,
               ROW_NUMBER() OVER (PARTITION BY d.event_type
                                  ORDER BY d.d) AS rn
        FROM daily d JOIN m USING (event_type)
    ),
    g0 AS (SELECT event_type, sum(dv * dv) / any_value(n) AS g0,
                  sum(dv * dv) / (any_value(n) - 1) AS s2,
                  any_value(n) AS n, any_value(mu) AS mu
           FROM r GROUP BY 1),
    gk AS (
        SELECT a.event_type, k.k,
               sum(a.dv * b.dv) / any_value(a.n) AS gk
        FROM (SELECT unnest(range(1, 4)) AS k) k, r a
        JOIN r b ON a.event_type = b.event_type AND a.rn = b.rn + k.k
        GROUP BY 1, 2
    ),
    lrv AS (
        SELECT g0.event_type, g0.n, g0.mu, g0.s2,
               g0.g0 + 2 * sum((1 - gk.k / 4.0) * gk.gk) AS lrv
        FROM g0 JOIN gk USING (event_type)
        GROUP BY 1, 2, 3, 4, g0.g0
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           COALESCE(CASE WHEN n >= 5
                         THEN round(mu, 6) + 0.0 END, {NULLF}) AS mean_v,
           COALESCE(CASE WHEN n >= 5
                         THEN round(1.96 * sqrt(greatest(lrv, 0) / n),
                                    6) + 0.0 END, {NULLF})
               AS hw_neweywest,
           COALESCE(CASE WHEN n >= 5
                         THEN round(1.96 * sqrt(s2 / n), 6) + 0.0 END,
                    {NULLF}) AS hw_naive
    FROM lrv ORDER BY 1
"""


@entry("nelson_aalen_users", sql=lambda: SQL_NELSON_AALEN)
def q_nelson_aalen_users(sf_dir: str) -> pd.DataFrame:
    """Nelson-Aalen cumulative hazard over the Kaplan-Meier lifetime
    table (same lifetimes/censoring as kaplan_meier_users):
    H(t) = Σ_{tᵢ≤t} dᵢ/nᵢ — the additive companion whose exp(−H) bounds
    the KM curve. One calendar-bounded table to the driver."""
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
    H = np.cumsum(tab["d"].to_numpy(np.float64) / at_risk)
    return pd.DataFrame({
        "t_days": tab["t"].astype(np.int64).to_numpy(),
        "n_at_risk": at_risk.astype(np.int64),
        "n_deaths": tab["d"].astype(np.int64).to_numpy(),
        "cum_hazard": np.round(H, 6) + 0.0,
    }).reset_index(drop=True)


SQL_NELSON_AALEN = """
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
    )
    SELECT CAST(t AS BIGINT) AS t_days,
           CAST(n_at_risk AS BIGINT) AS n_at_risk,
           CAST(d AS BIGINT) AS n_deaths,
           round(sum(d * 1.0 / n_at_risk)
                 OVER (ORDER BY t ROWS UNBOUNDED PRECEDING), 6) + 0.0
               AS cum_hazard
    FROM r ORDER BY t
"""


# ---------------------------------------------------------------------------
# fixed-effects trend / Juilland's D / dow eta-squared
# ---------------------------------------------------------------------------

@entry("fixed_effects_trend_daily", sql=lambda: SQL_FIXED_EFFECTS_TREND)
def q_fixed_effects_trend_daily(sf_dir: str) -> pd.DataFrame:
    """Panel within-estimator: the POOLED time trend after absorbing
    series fixed effects — demean v and the day index within each series,
    then one OLS slope over the stacked residuals (the two-way panel
    primitive; cross-series level differences cannot contaminate the
    trend). Per-series demeaning stays co-located; one moment row
    crosses."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        sxx = sxy = n = 0.0
        for _, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            us = g["d"].astype("datetime64[us]").astype("int64").to_numpy()
            t = ((us - us.min()) // DAY_US).astype(np.float64)
            v = g["v"].to_numpy(np.float64)
            td, vd = t - t.mean(), v - v.mean()
            sxx += (td ** 2).sum()
            sxy += (td * vd).sum()
            n += len(v)
        return pd.DataFrame({"sxx": [sxx], "sxy": [sxy], "n": [n]})

    m = keyed_map_partitions(daily, ["event_type"], kernel,
                             num_partitions=_NP).to_pandas().sum()
    slope = m["sxy"] / m["sxx"]
    return pd.DataFrame({
        "n_obs": [np.int64(m["n"])],
        "within_slope": [np.round(slope, 6) + 0.0],
    })


SQL_FIXED_EFFECTS_TREND = f"""
    WITH daily AS ({_DAILY_SQL}),
    tt AS (
        SELECT event_type, v,
               CAST(datediff('day',
                    min(d) OVER (PARTITION BY event_type), d) AS DOUBLE)
                   AS t
        FROM daily
    ),
    dm AS (
        SELECT event_type,
               t - avg(t) OVER (PARTITION BY event_type) AS td,
               v - avg(v) OVER (PARTITION BY event_type) AS vd
        FROM tt
    )
    SELECT CAST(count(*) AS BIGINT) AS n_obs,
           round(sum(td * vd) / sum(td * td), 6) + 0.0 AS within_slope
    FROM dm
"""


@entry("juilland_d_documents", sql=lambda: SQL_JUILLAND_D)
def q_juilland_d_documents(sf_dir: str) -> pd.DataFrame:
    """Juilland's dispersion D = 1 − CV/√(k−1) of each corpus top-10
    token's RELATIVE frequency across the k sources (population CV) —
    1 = evenly spread, →0 = concentrated in few sources; the corpus-
    linguistics dispersion measure behind 'core vocabulary' lists."""
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
    top = list(corpus.sort_values(["n", "token"],
                                  ascending=[False, True]).head(10)
               ["token"])
    sub = tc.filter(lambda r: r["token"] in set(top)).to_pandas()
    totals = hash_aggregate(tc, ["source"], {"N": ("c", "sum")},
                            num_partitions=_NP).to_pandas() \
        .set_index("source")["N"].astype(float)
    k = len(totals)
    piv = sub.pivot_table(index="token", columns="source", values="c",
                          aggfunc="sum", fill_value=0.0)
    piv = piv.reindex(index=top, columns=totals.index, fill_value=0.0)
    F = piv.to_numpy(np.float64) / totals.to_numpy(np.float64)[None, :]
    mu = F.mean(axis=1)
    sd = F.std(axis=1, ddof=0)
    with np.errstate(invalid="ignore", divide="ignore"):
        dj = 1.0 - (sd / mu) / np.sqrt(k - 1.0)
    nmap = dict(zip(corpus["token"], corpus["n"].astype(np.int64)))
    return pd.DataFrame({
        "token": top,
        "n_total": [nmap[t] for t in top],
        "juilland_d": np.where(np.isfinite(dj),
                               np.round(dj, 6) + 0.0, NULLF),
    }).sort_values("token").reset_index(drop=True)


SQL_JUILLAND_D = rf"""
    WITH tok AS (
      SELECT source,
             unnest(list_filter(string_split_regex(text, '\s+'),
                                x -> x <> '')) AS token
      FROM documents
    ),
    tc AS (SELECT source, token, count(*)::DOUBLE AS c
           FROM tok GROUP BY 1, 2),
    corpus AS (SELECT token, sum(c) AS n FROM tc GROUP BY 1),
    top AS (SELECT token, n AS ntot FROM corpus
            ORDER BY n DESC, token LIMIT 10),
    totals AS (SELECT source, sum(c) AS src_total FROM tc GROUP BY 1),
    grid AS (SELECT top.token, top.ntot, t.source, t.src_total
             FROM top CROSS JOIN totals t),
    f AS (
        SELECT g.token, g.ntot AS n, COALESCE(tc.c, 0) / g.src_total AS f
        FROM grid g LEFT JOIN tc
          ON tc.source = g.source AND tc.token = g.token
    ),
    k AS (SELECT count(*)::DOUBLE AS k FROM totals)
    SELECT f.token, CAST(any_value(f.n) AS BIGINT) AS n_total,
           COALESCE(CASE WHEN avg(f.f) > 0
                         THEN round(1 - (stddev_pop(f.f) / avg(f.f))
                                    / sqrt(any_value(k.k) - 1), 6) + 0.0
                    END, {NULLF}) AS juilland_d
    FROM f CROSS JOIN k
    GROUP BY f.token ORDER BY f.token
"""


@entry("eta_squared_dow_daily", sql=lambda: SQL_ETA_SQUARED_DOW)
def q_eta_squared_dow_daily(sf_dir: str) -> pd.DataFrame:
    """Effect size of day-of-week per series: η² = SS_between/SS_total
    from the one-way dow grouping — 'how much of the variance does the
    weekly cycle explain', the magnitude the ANOVA F obscures."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.copy()
            g["dow"] = g["d"].dt.dayofweek
            v = g["v"].to_numpy(np.float64)
            gm = v.mean()
            ss_tot = ((v - gm) ** 2).sum()
            means = g.groupby("dow")["v"].agg(["mean", "size"])
            ss_b = (means["size"].to_numpy(np.float64)
                    * (means["mean"].to_numpy(np.float64) - gm) ** 2).sum()
            eta2 = ss_b / ss_tot if ss_tot > 0 else np.nan
            rows.append((et, len(v),
                         np.round(eta2, 6) + 0.0 if np.isfinite(eta2)
                         else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "eta_squared"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["eta_squared"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_ETA_SQUARED_DOW = f"""
    WITH daily AS ({_DAILY_SQL}),
    t AS (SELECT event_type, v, isodow(d) AS dow FROM daily),
    gm AS (SELECT event_type, avg(v) AS gm, count(*) AS n,
                  sum(v * v) - count(*) * avg(v) * avg(v) AS ss_tot
           FROM t GROUP BY 1),
    b AS (
        SELECT t.event_type,
               sum(cnt * (m - gm.gm) * (m - gm.gm)) AS ss_b
        FROM (SELECT event_type, dow, avg(v) AS m, count(*) AS cnt
              FROM t GROUP BY 1, 2) t
        JOIN gm USING (event_type)
        GROUP BY 1
    )
    SELECT gm.event_type, CAST(gm.n AS BIGINT) AS n_days,
           COALESCE(CASE WHEN gm.ss_tot > 0
                         THEN round(b.ss_b / gm.ss_tot, 6) + 0.0 END,
                    {NULLF}) AS eta_squared
    FROM gm JOIN b USING (event_type)
    ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Blomqvist's beta / t-score collocations / daily mix divergence
# ---------------------------------------------------------------------------

@entry("blomqvist_beta_daily", sql=lambda: SQL_BLOMQVIST_BETA)
def q_blomqvist_beta_daily(sf_dir: str) -> pd.DataFrame:
    """Blomqvist's quadrant dependence β between every series pair:
    concordance of signs around each series' (ROUNDED) median over common
    days, β = (concordant − discordant)/n with points ON a median counted
    neither — the 50%-breakdown dependence measure correlation can't
    match."""
    daily = _bucket_series(sf_dir, DAY_US, "d")
    wide = daily.to_pandas().pivot_table(index="d", columns="event_type",
                                         values="v", aggfunc="sum")
    ets = sorted(wide.columns)
    meds = {e: np.round(np.nanquantile(wide[e].to_numpy(np.float64), 0.5),
                        6) + 0.0 for e in ets}
    rows = []
    for i, a in enumerate(ets):
        for b in ets[i + 1:]:
            m = wide[a].notna() & wide[b].notna()
            sa = np.sign(wide.loc[m, a].to_numpy(np.float64) - meds[a])
            sb = np.sign(wide.loc[m, b].to_numpy(np.float64) - meds[b])
            valid = (sa != 0) & (sb != 0)
            n = int(valid.sum())
            conc = int((sa[valid] == sb[valid]).sum())
            beta = (2.0 * conc - n) / n if n else np.nan
            rows.append((a, b, n,
                         np.round(beta, 6) + 0.0 if np.isfinite(beta)
                         else NULLF))
    return pd.DataFrame(rows, columns=["et_a", "et_b", "n_days", "beta"]) \
        .astype({"n_days": np.int64})


SQL_BLOMQVIST_BETA = f"""
    WITH daily AS ({_DAILY_SQL}),
    med AS (SELECT event_type,
                   round(quantile_cont(v, 0.5), 6) + 0.0 AS med
            FROM daily GROUP BY 1),
    s AS (
        SELECT d.event_type, d.d,
               CASE WHEN d.v > med.med THEN 1
                    WHEN d.v < med.med THEN -1 ELSE 0 END AS sg
        FROM daily d JOIN med USING (event_type)
    ),
    p AS (
        SELECT a.event_type AS et_a, b.event_type AS et_b,
               count(*) FILTER (WHERE a.sg <> 0 AND b.sg <> 0) AS n,
               count(*) FILTER (WHERE a.sg <> 0 AND a.sg = b.sg) AS conc
        FROM s a JOIN s b ON a.d = b.d AND a.event_type < b.event_type
        GROUP BY 1, 2
    )
    SELECT et_a, et_b, CAST(n AS BIGINT) AS n_days,
           COALESCE(CASE WHEN n > 0
                         THEN round((2.0 * conc - n) / n, 6) + 0.0 END,
                    {NULLF}) AS beta
    FROM p ORDER BY 1, 2
"""


@entry("tscore_bigrams_documents", sql=lambda: SQL_TSCORE_BIGRAMS)
def q_tscore_bigrams_documents(sf_dir: str) -> pd.DataFrame:
    """Collocation extraction by t-score (Church & Hanks era alternative
    to PMI that doesn't over-reward rare pairs): t = (O − E)/√O with
    O = bigram count and E = c(w1)·c(w2)/N under independence; top 20 by
    (ROUNDED t desc, bigram asc)."""
    from forecastframe_ray.pipelines.tfidf import doc_bigram_freqs

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    bg = doc_bigram_freqs(docs).materialize()
    cb = hash_aggregate(bg, ["w1", "w2"], {"c": ("tf", "sum")},
                        num_partitions=_NP).to_pandas()
    c1 = cb.groupby("w1")["c"].sum()
    c2 = cb.groupby("w2")["c"].sum()
    N = float(cb["c"].sum())
    O = cb["c"].to_numpy(np.float64)
    E = (cb["w1"].map(c1).to_numpy(np.float64)
         * cb["w2"].map(c2).to_numpy(np.float64)) / N
    t = np.round((O - E) / np.sqrt(O), 6) + 0.0
    out = pd.DataFrame({"w1": cb["w1"], "w2": cb["w2"],
                        "n": cb["c"].astype(np.int64), "t_score": t})
    out = out.sort_values(["t_score", "w1", "w2"],
                          ascending=[False, True, True]).head(20)
    return out.reset_index(drop=True)


SQL_TSCORE_BIGRAMS = r"""
    WITH toks AS (
      SELECT doc_id,
             list_filter(string_split_regex(text, '\s+'), x -> x <> '') AS t
      FROM documents
    ),
    bg AS (
      SELECT t[i] AS w1, t[i + 1] AS w2
      FROM toks, unnest(range(1, len(t))) AS u(i)
    ),
    cb AS (SELECT w1, w2, count(*)::DOUBLE AS c FROM bg GROUP BY 1, 2),
    c1 AS (SELECT w1, sum(c) AS n1 FROM cb GROUP BY 1),
    c2 AS (SELECT w2, sum(c) AS n2 FROM cb GROUP BY 1),
    tot AS (SELECT sum(c) AS N FROM cb)
    SELECT cb.w1, cb.w2, CAST(cb.c AS BIGINT) AS n,
           round((cb.c - c1.n1 * c2.n2 / tot.N) / sqrt(cb.c), 6) + 0.0
               AS t_score
    FROM cb JOIN c1 USING (w1) JOIN c2 USING (w2) CROSS JOIN tot
    ORDER BY t_score DESC, w1, w2 LIMIT 20
"""


@entry("daily_mix_divergence", sql=lambda: SQL_DAILY_MIX_DIVERGENCE)
def q_daily_mix_divergence(sf_dir: str) -> pd.DataFrame:
    """Composition-drift monitor: Jensen-Shannon divergence (nats)
    between each day's event-type mix and the GLOBAL mix — the alarm
    signal for 'today looks categorically different', robust to volume.
    Count shares (not value shares) so zero-heavy days stay defined."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def day_fn(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        return pd.DataFrame({
            "d": pd.to_datetime((us // DAY_US) * DAY_US, unit="us"),
            "event_type": b["event_type"], "one": 1})

    ct = hash_aggregate(ev.map_batches(day_fn, batch_format="pandas"),
                        ["d", "event_type"], {"n": ("one", "sum")},
                        num_partitions=_NP).to_pandas()
    glob = ct.groupby("event_type")["n"].sum()
    q = (glob / glob.sum()).to_dict()
    rows = []
    for d, g in ct.groupby("d"):
        tot = float(g["n"].sum())
        p = dict(zip(g["event_type"], g["n"] / tot))
        js = 0.0
        for et in set(q) | set(p):
            pi, qi = p.get(et, 0.0), q.get(et, 0.0)
            mi = (pi + qi) / 2.0
            if pi > 0:
                js += 0.5 * pi * np.log(pi / mi)
            if qi > 0:
                js += 0.5 * qi * np.log(qi / mi)
        rows.append((d, int(tot), np.round(js, 6) + 0.0))
    return pd.DataFrame(rows, columns=["d", "n_events", "js_nats"]) \
        .astype({"n_events": np.int64}) \
        .sort_values("d").reset_index(drop=True)


SQL_DAILY_MIX_DIVERGENCE = """
    WITH ct AS (
        SELECT date_trunc('day', ts) AS d, event_type,
               count(*)::DOUBLE AS n
        FROM events GROUP BY 1, 2
    ),
    gmix AS (SELECT event_type, sum(n) AS gn FROM ct GROUP BY 1),
    gt AS (SELECT sum(gn) AS G FROM gmix),
    dt AS (SELECT d, sum(n) AS T FROM ct GROUP BY 1),
    grid AS (
        SELECT dt.d, dt.T, gmix.event_type, gmix.gn, gt.G
        FROM dt CROSS JOIN gmix CROSS JOIN gt
    ),
    terms AS (
        SELECT g.d, g.T,
               COALESCE(ct.n, 0) / g.T AS p,
               g.gn / g.G AS q
        FROM grid g LEFT JOIN ct ON ct.d = g.d
                                AND ct.event_type = g.event_type
    )
    SELECT d, CAST(any_value(T) AS BIGINT) AS n_events,
           round(sum(CASE WHEN p > 0
                          THEN 0.5 * p * ln(p / ((p + q) / 2))
                          ELSE 0 END
                     + CASE WHEN q > 0
                            THEN 0.5 * q * ln(q / ((p + q) / 2))
                            ELSE 0 END), 6) + 0.0 AS js_nats
    FROM terms GROUP BY d ORDER BY d
"""


# ---------------------------------------------------------------------------
# ITS level shift / first-touch conversion / peak concentration
# ---------------------------------------------------------------------------

@entry("its_level_shift_daily", sql=lambda: SQL_ITS_LEVEL_SHIFT)
def q_its_level_shift_daily(sf_dir: str) -> pd.DataFrame:
    """Interrupted-time-series fit with a KNOWN intervention at day 15:
    exact OLS of v on [1, t, post] (post = 1[t ≥ 15]) via Cramer's rule —
    the causal-inference primitive that separates a LEVEL jump from the
    ongoing trend (the slope-change sibling is piecewise_trend_daily)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    KNOT = 15.0

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            us = g["d"].astype("datetime64[us]").astype("int64").to_numpy()
            t = ((us - us.min()) // DAY_US).astype(np.float64)
            p = (t >= KNOT).astype(np.float64)
            y = g["v"].to_numpy(np.float64)
            X = np.stack([np.ones_like(t), t, p], axis=1)
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
                                           "level_shift"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["intercept", "slope", "level_shift"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_ITS_LEVEL_SHIFT = f"""
    WITH daily AS ({_DAILY_SQL}),
    tt AS (
        SELECT event_type, v,
               CAST(datediff('day',
                    min(d) OVER (PARTITION BY event_type), d) AS DOUBLE)
                   AS t
        FROM daily
    ),
    x AS (SELECT event_type, v, t,
                 CASE WHEN t >= 15 THEN 1.0 ELSE 0.0 END AS h
          FROM tt),
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
               AS level_shift
    FROM dets ORDER BY 1
"""


@entry("first_touch_conversion", sql=lambda: SQL_FIRST_TOUCH_CONVERSION)
def q_first_touch_conversion(sf_dir: str) -> pd.DataFrame:
    """First-touch conversion: users cohort by their FIRST event's type
    (ties at the first timestamp broken by lowest event_id) and each
    cohort reports its eventual purchase rate — the acquisition-channel
    read that last-touch attribution inverts."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts", "event_id"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for uid, g in part.groupby("user_id", sort=False):
            g = g.sort_values(["ts", "event_id"])
            first = g.iloc[0]["event_type"]
            purchased = int((g["event_type"] == "purchase").any())
            rows.append((first, 1, purchased))
        return pd.DataFrame(rows, columns=["first_type", "one",
                                           "purchased"])

    agg = hash_aggregate(
        keyed_map_partitions(ev, ["user_id"], kernel,
                             num_partitions=_NP),
        ["first_type"], {"n_users": ("one", "sum"),
                         "n_purchasers": ("purchased", "sum")},
        num_partitions=4).to_pandas()
    agg["conversion"] = np.round(
        agg["n_purchasers"].to_numpy(np.float64)
        / agg["n_users"].to_numpy(np.float64), 6) + 0.0
    agg[["n_users", "n_purchasers"]] = \
        agg[["n_users", "n_purchasers"]].astype(np.int64)
    return agg.sort_values("first_type").reset_index(drop=True)


SQL_FIRST_TOUCH_CONVERSION = """
    WITH f AS (
        SELECT user_id, event_type AS first_type
        FROM (SELECT user_id, event_type,
                     ROW_NUMBER() OVER (PARTITION BY user_id
                                        ORDER BY ts, event_id) AS rn
              FROM events)
        WHERE rn = 1
    ),
    p AS (SELECT user_id,
                 max(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END)
                     AS purchased
          FROM events GROUP BY 1)
    SELECT f.first_type, CAST(count(*) AS BIGINT) AS n_users,
           CAST(sum(p.purchased) AS BIGINT) AS n_purchasers,
           round(sum(p.purchased) * 1.0 / count(*), 6) + 0.0
               AS conversion
    FROM f JOIN p USING (user_id)
    GROUP BY 1 ORDER BY 1
"""


@entry("peak_concentration_events", sql=lambda: SQL_PEAK_CONCENTRATION)
def q_peak_concentration_events(sf_dir: str) -> pd.DataFrame:
    """Load concentration: share of ALL events landing in the top-k
    busiest (weekday, hour) cells for k ∈ {5, 10, 20} of the 168 —
    'how peaky is the week', the capacity-planning scalar behind the
    heatmap. Cells rank by (count desc, dow, hour)."""
    ev = _read(sf_dir, "events", ["ts"])

    def cell(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        day = us // DAY_US
        return pd.DataFrame({
            "dow": ((day + 3) % 7).astype(np.int64),  # 1970-01-01 = Thu
            "hour": ((us % DAY_US) // HOUR_US).astype(np.int64),
            "one": 1})

    ct = hash_aggregate(ev.map_batches(cell, batch_format="pandas"),
                        ["dow", "hour"], {"n": ("one", "sum")},
                        num_partitions=_NP).to_pandas()
    ct = ct.sort_values(["n", "dow", "hour"],
                        ascending=[False, True, True])
    total = float(ct["n"].sum())
    cum = np.cumsum(ct["n"].to_numpy(np.float64))
    rows = []
    for k in (5, 10, 20):
        kk = min(k, len(ct))
        rows.append((k, np.round(cum[kk - 1] / total, 6) + 0.0))
    return pd.DataFrame(rows, columns=["k_cells", "share"]) \
        .astype({"k_cells": np.int64})


SQL_PEAK_CONCENTRATION = f"""
    WITH ct AS (
        SELECT (epoch_us(ts) // {DAY_US} + 3) % 7 AS dow,
               (epoch_us(ts) % {DAY_US}) // {HOUR_US} AS hour,
               count(*)::DOUBLE AS n
        FROM events GROUP BY 1, 2
    ),
    r AS (
        SELECT n,
               ROW_NUMBER() OVER (ORDER BY n DESC, dow, hour) AS rk,
               sum(n) OVER (ORDER BY n DESC, dow, hour
                            ROWS UNBOUNDED PRECEDING) AS cum,
               (SELECT sum(n) FROM ct) AS total,
               (SELECT count(*) FROM ct) AS ncells
        FROM ct
    ),
    ks AS (SELECT unnest([5, 10, 20]) AS k)
    SELECT CAST(ks.k AS BIGINT) AS k_cells,
           round(r.cum / r.total, 6) + 0.0 AS share
    FROM ks JOIN r ON r.rk = least(ks.k, r.ncells)
    ORDER BY ks.k
"""


# ---------------------------------------------------------------------------
# Wilson interval / weekly coherence / holiday lift
# ---------------------------------------------------------------------------

@entry("wilson_interval_daily", sql=lambda: SQL_WILSON_INTERVAL)
def q_wilson_interval_daily(sf_dir: str) -> pd.DataFrame:
    """Wilson score interval (1927) for each day's purchase share —
    the binomial CI that behaves at small n and extreme p where the Wald
    interval collapses: center (p̂ + z²/2n)/(1 + z²/n), half-width
    z√(p̂(1−p̂)/n + z²/4n²)/(1 + z²/n), z = 1.96."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def day_fn(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        return pd.DataFrame({
            "d": pd.to_datetime((us // DAY_US) * DAY_US, unit="us"),
            "n": 1,
            "x": (b["event_type"] == "purchase").astype(np.int64)})

    agg = hash_aggregate(ev.map_batches(day_fn, batch_format="pandas"),
                         ["d"], {"n": ("n", "sum"), "x": ("x", "sum")},
                         num_partitions=_NP).to_pandas().sort_values("d")
    n = agg["n"].to_numpy(np.float64)
    p = agg["x"].to_numpy(np.float64) / n
    Z = 1.96
    denom = 1.0 + Z * Z / n
    center = (p + Z * Z / (2 * n)) / denom
    hw = Z * np.sqrt(p * (1 - p) / n + Z * Z / (4 * n * n)) / denom
    return pd.DataFrame({
        "d": agg["d"], "n_events": agg["n"].astype(np.int64),
        "share": np.round(p, 6) + 0.0,
        "wilson_lo": np.round(center - hw, 6) + 0.0,
        "wilson_hi": np.round(center + hw, 6) + 0.0,
    }).reset_index(drop=True)


SQL_WILSON_INTERVAL = """
    WITH d AS (
        SELECT date_trunc('day', ts) AS d, count(*)::DOUBLE AS n,
               sum(CASE WHEN event_type = 'purchase' THEN 1 ELSE 0
                   END)::DOUBLE AS x
        FROM events GROUP BY 1
    )
    SELECT d, CAST(n AS BIGINT) AS n_events,
           round(x / n, 6) + 0.0 AS share,
           round(((x / n + 1.9208 / n)
                  - 1.96 * sqrt((x / n) * (1 - x / n) / n
                                + 0.9604 / (n * n)))
                 / (1 + 3.8416 / n), 6) + 0.0 AS wilson_lo,
           round(((x / n + 1.9208 / n)
                  + 1.96 * sqrt((x / n) * (1 - x / n) / n
                                + 0.9604 / (n * n)))
                 / (1 + 3.8416 / n), 6) + 0.0 AS wilson_hi
    FROM d ORDER BY d
"""


@entry("weekly_coherence_pairs", sql=lambda: SQL_WEEKLY_COHERENCE)
def q_weekly_coherence_pairs(sf_dir: str) -> pd.DataFrame:
    """Single-frequency cross-spectral coherence at the weekly period
    between every series pair: with complex projections
    Zₓ = Σx·e^{−iωt}, ω = 2π/7, coherence = |Zₓ·Z̄ᵧ|²/(|Zₓ|²|Zᵧ|²) ≡ 1
    for a single frequency — so the INFORMATIVE part is the PHASE LAG
    arg(Zₓ·Z̄ᵧ)·7/2π in days, plus each side's weekly power. Aligned on
    common days, demeaned."""
    daily = _bucket_series(sf_dir, DAY_US, "d")
    wide = daily.to_pandas().pivot_table(index="d", columns="event_type",
                                         values="v", aggfunc="sum")
    ets = sorted(wide.columns)
    rows = []
    for i, a in enumerate(ets):
        for b in ets[i + 1:]:
            m = wide[a].notna() & wide[b].notna()
            x = wide.loc[m, a].to_numpy(np.float64)
            y = wide.loc[m, b].to_numpy(np.float64)
            n = len(x)
            t = np.arange(n, dtype=np.float64)
            w = 2.0 * np.pi / 7.0
            cx, sx = ((x - x.mean()) * np.cos(w * t)).sum(), \
                ((x - x.mean()) * np.sin(w * t)).sum()
            cy, sy = ((y - y.mean()) * np.cos(w * t)).sum(), \
                ((y - y.mean()) * np.sin(w * t)).sum()
            px = (cx * cx + sx * sx) / n
            py = (cy * cy + sy * sy) / n
            # Zx * conj(Zy) = (cx - i sx)(cy + i sy)
            re = cx * cy + sx * sy
            im = cx * sy - sx * cy
            lag = (np.arctan2(im, re) % (2.0 * np.pi)) * 7.0 \
                / (2.0 * np.pi)
            rows.append((a, b, n, np.round(px, 6) + 0.0,
                         np.round(py, 6) + 0.0,
                         np.round(lag, 6) + 0.0))
    return pd.DataFrame(rows, columns=["et_a", "et_b", "n_days",
                                       "weekly_power_a", "weekly_power_b",
                                       "phase_lag_days"]) \
        .astype({"n_days": np.int64})


SQL_WEEKLY_COHERENCE = f"""
    WITH daily AS ({_DAILY_SQL}),
    j AS (
        SELECT a.event_type AS et_a, b.event_type AS et_b,
               a.d, a.v AS x, b.v AS y
        FROM daily a JOIN daily b
          ON a.d = b.d AND a.event_type < b.event_type
    ),
    r AS (
        SELECT et_a, et_b, x, y,
               avg(x) OVER w AS mx, avg(y) OVER w AS my,
               (ROW_NUMBER() OVER (PARTITION BY et_a, et_b ORDER BY d)
                - 1.0) AS t,
               count(*) OVER w AS n
        FROM j WINDOW w AS (PARTITION BY et_a, et_b)
    ),
    p AS (
        SELECT et_a, et_b, any_value(n) AS n,
               sum((x - mx) * cos(2 * pi() * t / 7)) AS cx,
               sum((x - mx) * sin(2 * pi() * t / 7)) AS sx,
               sum((y - my) * cos(2 * pi() * t / 7)) AS cy,
               sum((y - my) * sin(2 * pi() * t / 7)) AS sy
        FROM r GROUP BY 1, 2
    )
    SELECT et_a, et_b, CAST(n AS BIGINT) AS n_days,
           round((cx * cx + sx * sx) / n, 6) + 0.0 AS weekly_power_a,
           round((cy * cy + sy * sy) / n, 6) + 0.0 AS weekly_power_b,
           round(fmod(atan2(cx * sy - sx * cy, cx * cy + sx * sy)
                      + 2 * pi(), 2 * pi()) * 7 / (2 * pi()), 6) + 0.0
               AS phase_lag_days
    FROM p ORDER BY 1, 2
"""


@entry("holiday_lift_daily", sql=lambda: SQL_HOLIDAY_LIFT)
def q_holiday_lift_daily(sf_dir: str) -> pd.DataFrame:
    """Holiday lift per series: mean value on the fixed-list holiday days
    (±1-day halo) vs the non-halo baseline, as a ratio — the calendar-
    effect magnitude the holiday-distance features exist to feed."""
    daily = _bucket_series(sf_dir, DAY_US, "d")
    hol = np.array([pd.Timestamp(h).value // 1000 for h in _HOLIDAYS],
                   dtype=np.int64)
    halo = set()
    for h in hol:
        for k in (-1, 0, 1):
            halo.add(h + k * DAY_US)

    def tag(b: pd.DataFrame) -> pd.DataFrame:
        us = b["d"].astype("datetime64[us]").astype("int64").to_numpy()
        in_halo = np.isin(us, list(halo))
        b = b.copy()
        b["hn"] = in_halo.astype(np.int64)
        b["hv"] = np.where(in_halo, b["v"].to_numpy(np.float64), 0.0)
        b["bn"] = (~in_halo).astype(np.int64)
        b["bv"] = np.where(~in_halo, b["v"].to_numpy(np.float64), 0.0)
        return b[["event_type", "hn", "hv", "bn", "bv"]]

    agg = hash_aggregate(daily.map_batches(tag, batch_format="pandas"),
                         ["event_type"],
                         {"hn": ("hn", "sum"), "hv": ("hv", "sum"),
                          "bn": ("bn", "sum"), "bv": ("bv", "sum")},
                         num_partitions=_NP).to_pandas()
    hn = agg["hn"].to_numpy(np.float64)
    bn = agg["bn"].to_numpy(np.float64)
    hm = np.where(hn > 0, agg["hv"].to_numpy(np.float64) / hn, np.nan)
    bm = np.where(bn > 0, agg["bv"].to_numpy(np.float64) / bn, np.nan)
    with np.errstate(invalid="ignore", divide="ignore"):
        lift = hm / bm
    return pd.DataFrame({
        "event_type": agg["event_type"],
        "n_holiday_days": agg["hn"].astype(np.int64),
        "mean_holiday": np.where(np.isnan(hm), NULLF,
                                 np.round(hm, 6) + 0.0),
        "mean_baseline": np.where(np.isnan(bm), NULLF,
                                  np.round(bm, 6) + 0.0),
        "lift": np.where(np.isfinite(lift), np.round(lift, 6) + 0.0,
                         NULLF),
    }).sort_values("event_type").reset_index(drop=True)


SQL_HOLIDAY_LIFT = f"""
    WITH daily AS ({_DAILY_SQL}),
    hol AS (SELECT * FROM (VALUES {_HOLIDAY_VALUES}) AS t(h)),
    halo AS (
        SELECT DISTINCT h + to_days(k) AS hd
        FROM hol, (SELECT unnest([-1, 0, 1]) AS k)
    ),
    t AS (
        SELECT d.event_type, d.v,
               CAST(d.d AS DATE) IN (SELECT hd FROM halo) AS in_halo
        FROM daily d
    ),
    a AS (
        SELECT event_type,
               count(*) FILTER (in_halo) AS hn,
               avg(v) FILTER (in_halo) AS hm,
               count(*) FILTER (NOT in_halo) AS bn,
               avg(v) FILTER (NOT in_halo) AS bm
        FROM t GROUP BY 1
    )
    SELECT event_type, CAST(hn AS BIGINT) AS n_holiday_days,
           COALESCE(round(hm, 6) + 0.0, {NULLF}) AS mean_holiday,
           COALESCE(round(bm, 6) + 0.0, {NULLF}) AS mean_baseline,
           COALESCE(CASE WHEN hn > 0 AND bn > 0 AND bm <> 0
                         THEN round(hm / bm, 6) + 0.0 END, {NULLF})
               AS lift
    FROM a ORDER BY 1
"""


# ---------------------------------------------------------------------------
# weekly ICC / share trend / Friedman dow test
# ---------------------------------------------------------------------------

@entry("icc_weekly_daily", sql=lambda: SQL_ICC_WEEKLY)
def q_icc_weekly_daily(sf_dir: str) -> pd.DataFrame:
    """Intraclass correlation ICC(1) of daily values grouped by ISO week
    per series: (MSB − MSW)/(MSB + (k̄−1)·MSW) with the unbalanced-design
    k̄ = (N − Σnⱼ²/N)/(J−1) — 'do days within a week resemble each
    other', the clustering diagnostic before any within-week pooling."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.copy()
            iso = g["d"].dt.isocalendar()
            g["wk"] = (iso["year"].astype(str) + "-"
                       + iso["week"].astype(str))
            v = g["v"].to_numpy(np.float64)
            N = len(v)
            J = g["wk"].nunique()
            if J < 2 or N <= J:
                rows.append((et, N, J, np.nan))
                continue
            gm = v.mean()
            grp = g.groupby("wk")["v"]
            nj = grp.size().to_numpy(np.float64)
            mj = grp.mean().to_numpy(np.float64)
            ssb = (nj * (mj - gm) ** 2).sum()
            ssw = ((v - g.groupby("wk")["v"].transform("mean")
                    .to_numpy(np.float64)) ** 2).sum()
            msb = ssb / (J - 1)
            msw = ssw / (N - J)
            kbar = (N - (nj ** 2).sum() / N) / (J - 1)
            icc = (msb - msw) / (msb + (kbar - 1) * msw)
            rows.append((et, N, J, np.round(icc, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "n_weeks", "icc1"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out[["n_days", "n_weeks"]] = out[["n_days", "n_weeks"]] \
        .astype(np.int64)
    out = _fill(out, ["icc1"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_ICC_WEEKLY = f"""
    WITH daily AS ({_DAILY_SQL}),
    t AS (SELECT event_type, v,
                 CAST(isoyear(d) AS VARCHAR) || '-' ||
                 CAST(week(d) AS VARCHAR) AS wk
          FROM daily),
    gm AS (SELECT event_type, avg(v) AS gm, count(*)::DOUBLE AS N
           FROM t GROUP BY 1),
    wg AS (SELECT event_type, wk, count(*)::DOUBLE AS nj, avg(v) AS mj
           FROM t GROUP BY 1, 2),
    ssb AS (
        SELECT wg.event_type, count(*)::DOUBLE AS J,
               sum(wg.nj * (wg.mj - gm.gm) * (wg.mj - gm.gm)) AS ssb,
               sum(wg.nj * wg.nj) AS sn2
        FROM wg JOIN gm USING (event_type) GROUP BY 1
    ),
    ssw AS (
        SELECT t.event_type,
               sum((t.v - wg.mj) * (t.v - wg.mj)) AS ssw
        FROM t JOIN wg ON wg.event_type = t.event_type AND wg.wk = t.wk
        GROUP BY 1
    )
    SELECT gm.event_type, CAST(gm.N AS BIGINT) AS n_days,
           CAST(ssb.J AS BIGINT) AS n_weeks,
           COALESCE(CASE WHEN ssb.J >= 2 AND gm.N > ssb.J
                         THEN round(
                (ssb.ssb / (ssb.J - 1) - ssw.ssw / (gm.N - ssb.J))
                / (ssb.ssb / (ssb.J - 1)
                   + ((gm.N - ssb.sn2 / gm.N) / (ssb.J - 1) - 1)
                     * ssw.ssw / (gm.N - ssb.J)), 6) + 0.0 END, {NULLF})
               AS icc1
    FROM gm JOIN ssb USING (event_type) JOIN ssw USING (event_type)
    ORDER BY 1
"""


@entry("share_trend_daily", sql=lambda: SQL_SHARE_TREND)
def q_share_trend_daily(sf_dir: str) -> pd.DataFrame:
    """Composition drift direction: OLS slope of each type's DAILY SHARE
    of the total on the day index — which categories are structurally
    gaining mix (shares are scale-free, so this sees drift that raw-value
    trends confound with volume)."""
    daily = _bucket_series(sf_dir, DAY_US, "d").materialize()
    tot = hash_aggregate(daily, ["d"], {"T": ("v", "sum")},
                         num_partitions=4).to_pandas()
    tmap = dict(zip(tot["d"], tot["T"]))

    def share(b: pd.DataFrame) -> pd.DataFrame:
        t = b["d"].map(tmap).to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            sh = np.where(t > 0, b["v"].to_numpy(np.float64) / t, np.nan)
        return pd.DataFrame({"event_type": b["event_type"], "d": b["d"],
                             "share": sh})

    df = daily.map_batches(share, batch_format="pandas").to_pandas()
    df = df[df["share"].notna()]
    rows = []
    for et, g in df.groupby("event_type"):
        g = g.sort_values("d")
        us = g["d"].astype("datetime64[us]").astype("int64").to_numpy()
        t = ((us - us.min()) // DAY_US).astype(np.float64)
        y = g["share"].to_numpy(np.float64)
        td = t - t.mean()
        slope = (td * (y - y.mean())).sum() / (td ** 2).sum()
        rows.append((et, len(g), np.round(y.mean(), 6) + 0.0,
                     np.round(slope, 6) + 0.0))
    return pd.DataFrame(rows, columns=["event_type", "n_days",
                                       "mean_share", "share_slope"]) \
        .astype({"n_days": np.int64}) \
        .sort_values("event_type").reset_index(drop=True)


SQL_SHARE_TREND = f"""
    WITH daily AS ({_DAILY_SQL}),
    tot AS (SELECT d, sum(v) AS T FROM daily GROUP BY 1),
    sh AS (
        SELECT daily.event_type, daily.d, daily.v / tot.T AS share
        FROM daily JOIN tot USING (d)
        WHERE tot.T > 0
    ),
    tt AS (
        SELECT event_type, share,
               CAST(datediff('day',
                    min(d) OVER (PARTITION BY event_type), d) AS DOUBLE)
                   AS t
        FROM sh
    )
    SELECT event_type, CAST(count(*) AS BIGINT) AS n_days,
           round(avg(share), 6) + 0.0 AS mean_share,
           round(regr_slope(share, t), 6) + 0.0 AS share_slope
    FROM tt GROUP BY 1 ORDER BY 1
"""


@entry("friedman_dow_daily", sql=lambda: SQL_FRIEDMAN_DOW)
def q_friedman_dow_daily(sf_dir: str) -> pd.DataFrame:
    """Friedman test per series over complete ISO weeks (blocks) × the 7
    weekdays (treatments): within-week ranks of the daily values (ties
    impossible a.s. on ROUNDED distinct values — equal values take
    average ranks), Q = 12/(nk(k+1))·ΣRⱼ² − 3n(k+1) — the nonparametric
    'does weekday matter' test robust to weekly level shifts."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.copy()
            iso = g["d"].dt.isocalendar()
            g["wk"] = (iso["year"].astype(str) + "-"
                       + iso["week"].astype(str).str.zfill(2))
            g["dow"] = g["d"].dt.dayofweek
            full = g.groupby("wk")["dow"].nunique()
            weeks = full[full == 7].index
            g = g[g["wk"].isin(weeks)]
            n = len(weeks)
            if n < 1:
                rows.append((et, 0, np.nan))
                continue
            g["rank"] = g.groupby("wk")["v"].rank(method="average")
            R = g.groupby("dow")["rank"].sum().to_numpy(np.float64)
            k = 7.0
            Q = 12.0 / (n * k * (k + 1.0)) * (R ** 2).sum() \
                - 3.0 * n * (k + 1.0)
            rows.append((et, n, np.round(Q, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_weeks",
                                           "friedman_q"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_weeks"] = out["n_weeks"].astype(np.int64)
    out = _fill(out, ["friedman_q"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_FRIEDMAN_DOW = f"""
    WITH daily AS ({_DAILY_SQL}),
    t AS (SELECT event_type, v, isodow(d) - 1 AS dow,
                 CAST(isoyear(d) AS VARCHAR) || '-' ||
                 lpad(CAST(week(d) AS VARCHAR), 2, '0') AS wk
          FROM daily),
    full_wk AS (
        SELECT event_type, wk FROM t
        GROUP BY 1, 2 HAVING count(DISTINCT dow) = 7
    ),
    f AS (SELECT t.* FROM t JOIN full_wk USING (event_type, wk)),
    rk AS (
        SELECT event_type, wk, dow,
               rank() OVER (PARTITION BY event_type, wk ORDER BY v)
               + (count(*) OVER (PARTITION BY event_type, wk, v) - 1)
                 / 2.0 AS r
        FROM f
    ),
    rs AS (SELECT event_type, dow, sum(r) AS R FROM rk GROUP BY 1, 2),
    nn AS (SELECT event_type, count(*)::DOUBLE AS n
           FROM full_wk GROUP BY 1),
    q AS (
        SELECT rs.event_type, any_value(nn.n) AS n,
               12.0 / (any_value(nn.n) * 7 * 8) * sum(rs.R * rs.R)
               - 3.0 * any_value(nn.n) * 8 AS Q
        FROM rs JOIN nn USING (event_type) GROUP BY 1
    ),
    base AS (SELECT DISTINCT event_type FROM daily)
    SELECT base.event_type,
           CAST(COALESCE(q.n, 0) AS BIGINT) AS n_weeks,
           COALESCE(round(q.Q, 6) + 0.0, {NULLF}) AS friedman_q
    FROM base LEFT JOIN q USING (event_type)
    ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Cochran's Q / Zipf abbreviation law / repeat tendency
# ---------------------------------------------------------------------------

@entry("cochran_q_users", sql=lambda: SQL_COCHRAN_Q)
def q_cochran_q_users(sf_dir: str) -> pd.DataFrame:
    """Cochran's Q over users × the event span's first four ISO-ordered
    7-day windows (binary 'active that week'): Q = (k−1)(k·ΣCⱼ² − N²) /
    (k·N − ΣRᵢ²) — the repeated-measures test for 'is activity propensity
    stable across weeks'. Users active in zero or all windows contribute
    nothing (standard)."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])
    bounds = ev.map_batches(
        lambda b: pd.DataFrame({"lo": [b["ts"].astype("int64").min()]}),
        batch_format="pandas").to_pandas()
    start = int(bounds["lo"].min())
    WK = 7 * DAY_US

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64").to_numpy()
        w = (us - start) // WK
        out = {"user_id": b["user_id"]}
        for j in range(4):
            out[f"w{j}"] = (w == j).astype(np.int64)
        return pd.DataFrame(out)

    per_user = hash_aggregate(
        ev.map_batches(flags, batch_format="pandas"), ["user_id"],
        {f"w{j}": (f"w{j}", "max") for j in range(4)},
        num_partitions=_NP).to_pandas()
    X = per_user[[f"w{j}" for j in range(4)]].to_numpy(np.float64)
    R = X.sum(axis=1)
    keep = (R > 0) & (R < 4)
    Xk = X[keep]
    k = 4.0
    C = Xk.sum(axis=0)
    Rk = Xk.sum(axis=1)
    N = Xk.sum()
    den = k * N - (Rk ** 2).sum()
    Q = (k - 1) * (k * (C ** 2).sum() - N * N) / den if den > 0 else np.nan
    return pd.DataFrame({
        "n_users_informative": [np.int64(keep.sum())],
        "cochran_q": [np.round(Q, 6) + 0.0 if np.isfinite(Q) else NULLF],
    })


SQL_COCHRAN_Q = f"""
    WITH start AS (SELECT min(epoch_us(ts)) AS s FROM events),
    u AS (
        SELECT user_id,
               max(CASE WHEN (epoch_us(ts) - start.s)
                        // {7 * DAY_US} = 0 THEN 1 ELSE 0 END) AS w0,
               max(CASE WHEN (epoch_us(ts) - start.s)
                        // {7 * DAY_US} = 1 THEN 1 ELSE 0 END) AS w1,
               max(CASE WHEN (epoch_us(ts) - start.s)
                        // {7 * DAY_US} = 2 THEN 1 ELSE 0 END) AS w2,
               max(CASE WHEN (epoch_us(ts) - start.s)
                        // {7 * DAY_US} = 3 THEN 1 ELSE 0 END) AS w3
        FROM events CROSS JOIN start GROUP BY 1
    ),
    keep AS (
        SELECT * FROM u
        WHERE w0 + w1 + w2 + w3 BETWEEN 1 AND 3
    ),
    agg AS (
        SELECT count(*)::DOUBLE AS nk,
               sum(w0)::DOUBLE AS c0, sum(w1)::DOUBLE AS c1,
               sum(w2)::DOUBLE AS c2, sum(w3)::DOUBLE AS c3,
               sum(w0 + w1 + w2 + w3)::DOUBLE AS N,
               sum((w0 + w1 + w2 + w3) * (w0 + w1 + w2 + w3))::DOUBLE
                   AS sr2
        FROM keep
    )
    SELECT CAST(nk AS BIGINT) AS n_users_informative,
           COALESCE(CASE WHEN 4 * N - sr2 > 0
                         THEN round(3 * (4 * (c0*c0 + c1*c1 + c2*c2
                                              + c3*c3) - N * N)
                                    / (4 * N - sr2), 6) + 0.0 END,
                    {NULLF}) AS cochran_q
    FROM agg
"""


@entry("zipf_abbreviation_documents", sql=lambda: SQL_ZIPF_ABBREVIATION)
def q_zipf_abbreviation_documents(sf_dir: str) -> pd.DataFrame:
    """Zipf's law of abbreviation check: Pearson correlation between
    ln(frequency) and character length over the corpus vocabulary —
    natural language goes negative (frequent words are short); a flat or
    positive value flags synthetic/templated text. Plus the
    frequency-weighted vs unweighted mean lengths."""
    docs = _read(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        vc = b["text"].str.split().explode().dropna().value_counts()
        return pd.DataFrame({"token": vc.index.astype(str),
                             "cnt": vc.to_numpy(np.int64)})

    tc = hash_aggregate(docs.map_batches(partial, batch_format="pandas"),
                        ["token"], {"c": ("cnt", "sum")},
                        num_partitions=_NP).to_pandas()
    ln_f = np.log(tc["c"].to_numpy(np.float64))
    L = tc["token"].str.len().to_numpy(np.float64)
    x, y = ln_f - ln_f.mean(), L - L.mean()
    den = np.sqrt((x ** 2).sum() * (y ** 2).sum())
    r = (x * y).sum() / den if den > 0 else np.nan
    wmean = (L * tc["c"].to_numpy(np.float64)).sum() \
        / tc["c"].sum()
    return pd.DataFrame({
        "n_types": [np.int64(len(tc))],
        "corr_lnfreq_len": [np.round(r, 6) + 0.0 if np.isfinite(r)
                            else NULLF],
        "mean_len_types": [np.round(L.mean(), 6) + 0.0],
        "mean_len_tokens": [np.round(wmean, 6) + 0.0],
    })


SQL_ZIPF_ABBREVIATION = rf"""
    WITH tok AS (
      SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                                x -> x <> '')) AS token
      FROM documents
    ),
    tc AS (SELECT token, count(*)::DOUBLE AS c FROM tok GROUP BY 1)
    SELECT CAST(count(*) AS BIGINT) AS n_types,
           COALESCE(round(corr(ln(c), len(token)::DOUBLE), 6) + 0.0,
                    {NULLF}) AS corr_lnfreq_len,
           round(avg(len(token)::DOUBLE), 6) + 0.0 AS mean_len_types,
           round(sum(len(token) * c) / sum(c), 6) + 0.0
               AS mean_len_tokens
    FROM tc
"""


@entry("repeat_tendency_events", sql=lambda: SQL_REPEAT_TENDENCY)
def q_repeat_tendency_events(sf_dir: str) -> pd.DataFrame:
    """Repeat tendency of user streams: observed share of transitions
    that STAY on the same event type vs the independence expectation
    Σp(s)² (source-marginal squared mass) — ratio > 1 means behavior is
    sticky, the single-number read on the transition diagonal."""
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
    N = float(trans["n"].sum())
    diag = float(trans.loc[trans["cur"] == trans["nxt"], "n"].sum())
    ps = trans.groupby("cur")["n"].sum() / N
    expect = float((ps ** 2).sum())
    obs = diag / N
    return pd.DataFrame({
        "n_transitions": [np.int64(N)],
        "repeat_share": [np.round(obs, 6) + 0.0],
        "independence_share": [np.round(expect, 6) + 0.0],
        "stickiness_ratio": [np.round(obs / expect, 6) + 0.0],
    })


SQL_REPEAT_TENDENCY = """
    WITH s AS (
        SELECT event_type AS cur,
               LEAD(event_type) OVER (PARTITION BY user_id
                                      ORDER BY ts, event_id) AS nxt
        FROM events
    ),
    t AS (SELECT cur, nxt FROM s WHERE nxt IS NOT NULL),
    tot AS (SELECT count(*)::DOUBLE AS N,
                   sum(CASE WHEN cur = nxt THEN 1 ELSE 0 END)::DOUBLE
                       AS diag
            FROM t),
    p AS (SELECT cur, count(*)::DOUBLE AS n FROM t GROUP BY 1)
    SELECT CAST(tot.N AS BIGINT) AS n_transitions,
           round(tot.diag / tot.N, 6) + 0.0 AS repeat_share,
           round(sum((p.n / tot.N) * (p.n / tot.N)), 6) + 0.0
               AS independence_share,
           round((tot.diag / tot.N)
                 / sum((p.n / tot.N) * (p.n / tot.N)), 6) + 0.0
               AS stickiness_ratio
    FROM p CROSS JOIN tot
    GROUP BY tot.N, tot.diag
"""


# ---------------------------------------------------------------------------
# rank-1 power approximation / hour-of-day entropy / intraday concentration
# ---------------------------------------------------------------------------

@entry("rank1_power_dow", sql=lambda: SQL_RANK1_POWER_DOW)
def q_rank1_power_dow(sf_dir: str) -> pd.DataFrame:
    """Rank-1 structure of the type×weekday mean matrix via ONE
    deterministic power half-iteration pair from the all-ones vector:
    v = Mᵀ1 (weekday profile), u = Mv (type loadings), least-squares
    scale c = ⟨M, uvᵀ⟩/‖uvᵀ‖², energy ratio = c²‖uvᵀ‖²/‖M‖² — 'is the
    weekly pattern shared across types?' with all algebra as plain
    aggregates (no eigensolver)."""
    daily = _bucket_series(sf_dir, DAY_US, "d")
    df = daily.to_pandas()
    df["dow"] = df["d"].dt.dayofweek
    M = df.pivot_table(index="event_type", columns="dow", values="v",
                       aggfunc="mean").fillna(0.0)
    M = M.reindex(index=sorted(M.index), columns=range(7), fill_value=0.0)
    A = M.to_numpy(np.float64)
    v = A.sum(axis=0)          # M^T 1
    u = A @ v                  # M v
    uv = np.outer(u, v)
    c = (A * uv).sum() / (uv * uv).sum()
    ratio = c * c * (uv * uv).sum() / (A * A).sum()
    return pd.DataFrame({
        "n_types": [np.int64(A.shape[0])],
        "energy_ratio": [np.round(ratio, 6) + 0.0],
        "scale_c": [np.round(c, 6) + 0.0],
    })


SQL_RANK1_POWER_DOW = f"""
    WITH daily AS ({_DAILY_SQL}),
    m AS (SELECT event_type AS et, isodow(d) - 1 AS dow, avg(v) AS m
          FROM daily GROUP BY 1, 2),
    v AS (SELECT dow, sum(m) AS v FROM m GROUP BY 1),
    u AS (SELECT m.et, sum(m.m * v.v) AS u
          FROM m JOIN v USING (dow) GROUP BY 1),
    uv AS (SELECT u.et, v.dow, u.u * v.v AS uv FROM u CROSS JOIN v),
    dots AS (
        SELECT sum(m.m * uv.uv) AS m_dot_uv
        FROM m JOIN uv ON uv.et = m.et AND uv.dow = m.dow
    ),
    norms AS (
        SELECT (SELECT sum(uv * uv) FROM uv) AS uv2,
               (SELECT sum(m * m) FROM m) AS m2,
               (SELECT count(DISTINCT et) FROM m) AS k
    )
    SELECT CAST(norms.k AS BIGINT) AS n_types,
           round(pow(dots.m_dot_uv / norms.uv2, 2) * norms.uv2
                 / norms.m2, 6) + 0.0 AS energy_ratio,
           round(dots.m_dot_uv / norms.uv2, 6) + 0.0 AS scale_c
    FROM dots CROSS JOIN norms
"""


@entry("hod_entropy_events", sql=lambda: SQL_HOD_ENTROPY)
def q_hod_entropy_events(sf_dir: str) -> pd.DataFrame:
    """Hour-of-day entropy per type: Shannon H of the 24-bin arrival
    distribution and the uniformity ratio H/ln(24) — 1 = around-the-clock,
    low = office-hours traffic; the marginal complement of the
    type×hour mutual information."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def hod(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        return pd.DataFrame({"event_type": b["event_type"],
                             "h": (us % DAY_US) // HOUR_US, "one": 1})

    ct = hash_aggregate(ev.map_batches(hod, batch_format="pandas"),
                        ["event_type", "h"], {"n": ("one", "sum")},
                        num_partitions=_NP).to_pandas()
    rows = []
    for et, g in ct.groupby("event_type"):
        p = g["n"].to_numpy(np.float64)
        p = p / p.sum()
        H = float(-(p * np.log(p)).sum())
        rows.append((et, int(g["n"].sum()), np.round(H, 6) + 0.0,
                     np.round(H / np.log(24.0), 6) + 0.0))
    return pd.DataFrame(rows, columns=["event_type", "n_events",
                                       "hod_entropy", "uniformity"]) \
        .astype({"n_events": np.int64}) \
        .sort_values("event_type").reset_index(drop=True)


SQL_HOD_ENTROPY = f"""
    WITH ct AS (
        SELECT event_type, (epoch_us(ts) % {DAY_US}) // {HOUR_US} AS h,
               count(*)::DOUBLE AS n
        FROM events GROUP BY 1, 2
    ),
    tot AS (SELECT event_type, sum(n) AS T FROM ct GROUP BY 1)
    SELECT ct.event_type, CAST(any_value(tot.T) AS BIGINT) AS n_events,
           round(sum(-(ct.n / tot.T) * ln(ct.n / tot.T)), 6) + 0.0
               AS hod_entropy,
           round(sum(-(ct.n / tot.T) * ln(ct.n / tot.T)) / ln(24),
                 6) + 0.0 AS uniformity
    FROM ct JOIN tot USING (event_type)
    GROUP BY 1 ORDER BY 1
"""


@entry("intraday_concentration_daily", sql=lambda: SQL_INTRADAY_CONCENTRATION)
def q_intraday_concentration_daily(sf_dir: str) -> pd.DataFrame:
    """Intraday concentration per day: the largest single-hour share of
    the day's event count and the HHI over its 24 hourly shares —
    'did one hour carry the day', the burst-compaction trigger signal."""
    ev = _read(sf_dir, "events", ["ts"])

    def cell(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        return pd.DataFrame({
            "d": pd.to_datetime((us // DAY_US) * DAY_US, unit="us"),
            "h": (us % DAY_US) // HOUR_US, "one": 1})

    ct = hash_aggregate(ev.map_batches(cell, batch_format="pandas"),
                        ["d", "h"], {"n": ("one", "sum")},
                        num_partitions=_NP).to_pandas()
    rows = []
    for d, g in ct.groupby("d"):
        tot = float(g["n"].sum())
        sh = g["n"].to_numpy(np.float64) / tot
        rows.append((d, int(tot), np.round(sh.max(), 6) + 0.0,
                     np.round((sh ** 2).sum(), 6) + 0.0))
    return pd.DataFrame(rows, columns=["d", "n_events", "max_hour_share",
                                       "hhi"]) \
        .astype({"n_events": np.int64}) \
        .sort_values("d").reset_index(drop=True)


SQL_INTRADAY_CONCENTRATION = f"""
    WITH ct AS (
        SELECT date_trunc('day', ts) AS d,
               (epoch_us(ts) % {DAY_US}) // {HOUR_US} AS h,
               count(*)::DOUBLE AS n
        FROM events GROUP BY 1, 2
    ),
    tot AS (SELECT d, sum(n) AS T FROM ct GROUP BY 1)
    SELECT ct.d, CAST(any_value(tot.T) AS BIGINT) AS n_events,
           round(max(ct.n / tot.T), 6) + 0.0 AS max_hour_share,
           round(sum((ct.n / tot.T) * (ct.n / tot.T)), 6) + 0.0 AS hhi
    FROM ct JOIN tot USING (d)
    GROUP BY 1 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Siegel repeated medians / source vocab entropy / two-proportion z
# ---------------------------------------------------------------------------

@entry("siegel_slope_daily", sql=lambda: SQL_SIEGEL_SLOPE)
def q_siegel_slope_daily(sf_dir: str) -> pd.DataFrame:
    """Siegel repeated-median slope per series (Siegel 1982): for each
    point the MEDIAN of its pairwise slopes, then the median of those —
    50% breakdown (vs Theil-Sen's 29%). Pairwise slopes round to 6 before
    the inner median so tie handling matches; day index is the
    regressor."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            us = g["d"].astype("datetime64[us]").astype("int64").to_numpy()
            t = ((us - us.min()) // DAY_US).astype(np.float64)
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            if n < 3:
                rows.append((et, n, np.nan))
                continue
            inner = []
            for i in range(n):
                dt = t - t[i]
                dv = v - v[i]
                s = np.round(dv[dt != 0] / dt[dt != 0], 6) + 0.0
                inner.append(np.quantile(s, 0.5))
            slope = np.quantile(np.round(np.array(inner), 6) + 0.0, 0.5)
            rows.append((et, n, np.round(slope, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "siegel_slope"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["siegel_slope"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_SIEGEL_SLOPE = f"""
    WITH daily AS ({_DAILY_SQL}),
    tt AS (
        SELECT event_type, v,
               CAST(datediff('day',
                    min(d) OVER (PARTITION BY event_type), d) AS DOUBLE)
                   AS t
        FROM daily
    ),
    sl AS (
        SELECT a.event_type, a.t AS ti,
               round((b.v - a.v) / (b.t - a.t), 6) + 0.0 AS s
        FROM tt a JOIN tt b
          ON a.event_type = b.event_type AND a.t <> b.t
    ),
    inner_med AS (
        SELECT event_type, ti,
               round(quantile_cont(s, 0.5), 6) + 0.0 AS med
        FROM sl GROUP BY 1, 2
    ),
    cnt AS (SELECT event_type, count(*) AS n FROM daily GROUP BY 1)
    SELECT c.event_type, CAST(c.n AS BIGINT) AS n_days,
           COALESCE(CASE WHEN c.n >= 3
                         THEN round(quantile_cont(i.med, 0.5), 6) + 0.0
                    END, {NULLF}) AS siegel_slope
    FROM cnt c LEFT JOIN inner_med i USING (event_type)
    GROUP BY c.event_type, c.n ORDER BY 1
"""


@entry("source_vocab_entropy", sql=lambda: SQL_SOURCE_VOCAB_ENTROPY)
def q_source_vocab_entropy(sf_dir: str) -> pd.DataFrame:
    """Per-source token entropy and effective vocabulary e^H — how many
    'effective' distinct tokens each slice really uses (the diversity
    companion to the richness indices)."""
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
                        num_partitions=_NP).to_pandas()
    rows = []
    for s, g in tc.groupby("source"):
        p = g["c"].to_numpy(np.float64)
        p = p / p.sum()
        H = float(-(p * np.log(p)).sum())
        rows.append((s, int(g["c"].sum()), len(g),
                     np.round(H, 6) + 0.0,
                     np.round(np.exp(H), 6) + 0.0))
    return pd.DataFrame(rows, columns=["source", "n_tokens", "n_types",
                                       "entropy", "effective_vocab"]) \
        .astype({"n_tokens": np.int64, "n_types": np.int64}) \
        .sort_values("source").reset_index(drop=True)


SQL_SOURCE_VOCAB_ENTROPY = r"""
    WITH tok AS (
      SELECT source,
             unnest(list_filter(string_split_regex(text, '\s+'),
                                x -> x <> '')) AS token
      FROM documents
    ),
    tc AS (SELECT source, token, count(*)::DOUBLE AS c
           FROM tok GROUP BY 1, 2),
    tot AS (SELECT source, sum(c) AS T FROM tc GROUP BY 1)
    SELECT tc.source, CAST(any_value(tot.T) AS BIGINT) AS n_tokens,
           CAST(count(*) AS BIGINT) AS n_types,
           round(sum(-(tc.c / tot.T) * ln(tc.c / tot.T)), 6) + 0.0
               AS entropy,
           round(exp(sum(-(tc.c / tot.T) * ln(tc.c / tot.T))), 6) + 0.0
               AS effective_vocab
    FROM tc JOIN tot USING (source)
    GROUP BY 1 ORDER BY 1
"""


@entry("weekend_share_ztest_events", sql=lambda: SQL_WEEKEND_SHARE_ZTEST)
def q_weekend_share_ztest_events(sf_dir: str) -> pd.DataFrame:
    """Two-proportion z-test: does the purchase share differ between
    weekend and weekday events? Pooled-SE z, the classic A/B arithmetic
    on a calendar split."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def flags(b: pd.DataFrame) -> pd.DataFrame:
        day = b["ts"].astype("int64") // DAY_US
        we = ((day + 3) % 7).isin([5, 6])  # 1970-01-01 = Thursday
        isp = (b["event_type"] == "purchase").astype(np.int64)
        return pd.DataFrame({
            "we_n": we.astype(np.int64), "we_x": (we * isp),
            "wd_n": (~we).astype(np.int64), "wd_x": ((~we) * isp)})

    agg = ev.map_batches(flags, batch_format="pandas").to_pandas().sum()
    n1, x1 = float(agg["we_n"]), float(agg["we_x"])
    n2, x2 = float(agg["wd_n"]), float(agg["wd_x"])
    p1, p2 = x1 / n1, x2 / n2
    pp = (x1 + x2) / (n1 + n2)
    se = np.sqrt(pp * (1 - pp) * (1 / n1 + 1 / n2))
    z = (p1 - p2) / se if se > 0 else np.nan
    return pd.DataFrame({
        "n_weekend": [np.int64(n1)], "n_weekday": [np.int64(n2)],
        "share_weekend": [np.round(p1, 6) + 0.0],
        "share_weekday": [np.round(p2, 6) + 0.0],
        "z": [np.round(z, 6) + 0.0 if np.isfinite(z) else NULLF],
    })


SQL_WEEKEND_SHARE_ZTEST = f"""
    WITH t AS (
        SELECT (epoch_us(ts) // {DAY_US} + 3) % 7 IN (5, 6) AS we,
               CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS x
        FROM events
    ),
    a AS (
        SELECT sum(CASE WHEN we THEN 1 ELSE 0 END)::DOUBLE AS n1,
               sum(CASE WHEN we THEN x ELSE 0 END)::DOUBLE AS x1,
               sum(CASE WHEN we THEN 0 ELSE 1 END)::DOUBLE AS n2,
               sum(CASE WHEN we THEN 0 ELSE x END)::DOUBLE AS x2
        FROM t
    )
    SELECT CAST(n1 AS BIGINT) AS n_weekend, CAST(n2 AS BIGINT)
               AS n_weekday,
           round(x1 / n1, 6) + 0.0 AS share_weekend,
           round(x2 / n2, 6) + 0.0 AS share_weekday,
           COALESCE(CASE WHEN (x1 + x2) > 0 AND (x1 + x2) < (n1 + n2)
                         THEN round((x1 / n1 - x2 / n2)
                              / sqrt(((x1 + x2) / (n1 + n2))
                                     * (1 - (x1 + x2) / (n1 + n2))
                                     * (1 / n1 + 1 / n2)), 6) + 0.0 END,
                    {NULLF}) AS z
    FROM a
"""


# ---------------------------------------------------------------------------
# permutation entropy / seasonality drift / memorylessness check
# ---------------------------------------------------------------------------

@entry("permutation_entropy_daily", sql=lambda: SQL_PERMUTATION_ENTROPY)
def q_permutation_entropy_daily(sf_dir: str) -> pd.DataFrame:
    """Permutation entropy of order 3 per series (Bandt & Pompe 2002):
    classify every consecutive triple into one of the 6 ordinal patterns
    (strict comparisons; ties break toward the earlier index, i.e.
    'later value wins the tie' is FALSE — v_j <= v_i counts as not
    greater, documented), Shannon H over the pattern distribution
    normalized by ln 6 — the model-free complexity measure."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            if len(v) < 5:
                rows.append((et, 0, np.nan))
                continue
            a, b, c = v[:-2], v[1:-1], v[2:]
            # pattern id: ordinal rank of (a,b,c) with index tie-break
            gt_ab = (b > a).astype(np.int64)
            gt_ac = (c > a).astype(np.int64)
            gt_bc = (c > b).astype(np.int64)
            pid = gt_ab * 4 + gt_ac * 2 + gt_bc
            cnt = np.bincount(pid, minlength=8).astype(np.float64)
            p = cnt[cnt > 0] / cnt.sum()
            H = float(-(p * np.log(p)).sum())
            rows.append((et, int(cnt.sum()),
                         np.round(H / np.log(6.0), 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_triples",
                                           "perm_entropy"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_triples"] = out["n_triples"].astype(np.int64)
    out = _fill(out, ["perm_entropy"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_PERMUTATION_ENTROPY = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (
        SELECT event_type, v AS a,
               LEAD(v, 1) OVER s AS b, LEAD(v, 2) OVER s AS c
        FROM daily WINDOW s AS (PARTITION BY event_type ORDER BY d)
    ),
    pat AS (
        SELECT event_type,
               (CASE WHEN b > a THEN 4 ELSE 0 END
                + CASE WHEN c > a THEN 2 ELSE 0 END
                + CASE WHEN c > b THEN 1 ELSE 0 END) AS pid
        FROM w WHERE b IS NOT NULL AND c IS NOT NULL
    ),
    cnt AS (SELECT event_type, pid, count(*)::DOUBLE AS n
            FROM pat GROUP BY 1, 2),
    tot AS (SELECT event_type, sum(n) AS T FROM cnt GROUP BY 1)
    SELECT cnt.event_type,
           CAST(any_value(tot.T) AS BIGINT) AS n_triples,
           COALESCE(CASE WHEN any_value(tot.T) >= 3
                         THEN round(sum(-(cnt.n / tot.T)
                                        * ln(cnt.n / tot.T)) / ln(6),
                                    6) + 0.0 END, {NULLF})
               AS perm_entropy
    FROM cnt JOIN tot USING (event_type)
    GROUP BY 1 ORDER BY 1
"""


@entry("seasonality_drift_daily", sql=lambda: SQL_SEASONALITY_DRIFT)
def q_seasonality_drift_daily(sf_dir: str) -> pd.DataFrame:
    """Is the weekly cycle strengthening? Weekly-frequency spectral power
    of each series' first vs second half (demeaned within each half,
    ω = 2π/7), reported with the second/first ratio — the seasonality-
    drift monitor that decides when to refit seasonal models."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def power(v: np.ndarray) -> float:
        n = len(v)
        t = np.arange(n, dtype=np.float64)
        w = 2.0 * np.pi / 7.0
        dv = v - v.mean()
        c = (dv * np.cos(w * t)).sum()
        s = (dv * np.sin(w * t)).sum()
        return float((c * c + s * s) / n)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            h = len(v) // 2
            if h < 7:
                rows.append((et, len(v), np.nan, np.nan, np.nan))
                continue
            p1 = np.round(power(v[:h]), 6) + 0.0
            p2 = np.round(power(v[h:2 * h]), 6) + 0.0
            ratio = p2 / p1 if p1 > 0 else np.nan
            rows.append((et, len(v), p1, p2,
                         np.round(ratio, 6) + 0.0 if np.isfinite(ratio)
                         else np.nan))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "power_first", "power_second",
                                           "drift_ratio"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    out = _fill(out, ["power_first", "power_second", "drift_ratio"])
    return out.sort_values("event_type").reset_index(drop=True)


SQL_SEASONALITY_DRIFT = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               ROW_NUMBER() OVER (PARTITION BY event_type ORDER BY d) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    seg AS (
        SELECT event_type, v, n,
               CASE WHEN rn <= n // 2 THEN 1
                    WHEN rn <= 2 * (n // 2) THEN 2 END AS half,
               CASE WHEN rn <= n // 2 THEN rn - 1.0
                    ELSE rn - n // 2 - 1.0 END AS t
        FROM r WHERE rn <= 2 * (n // 2)
    ),
    mu AS (SELECT event_type, half, avg(v) AS mu FROM seg
           WHERE half IS NOT NULL GROUP BY 1, 2),
    pw AS (
        SELECT s.event_type, s.half, any_value(s.n) AS n,
               round((pow(sum((s.v - mu.mu)
                              * cos(2 * pi() * s.t / 7)), 2)
                      + pow(sum((s.v - mu.mu)
                                * sin(2 * pi() * s.t / 7)), 2))
                     / count(*), 6) + 0.0 AS p
        FROM seg s JOIN mu ON mu.event_type = s.event_type
                           AND mu.half = s.half
        GROUP BY 1, 2
    ),
    piv AS (
        SELECT event_type, any_value(n) AS n,
               max(CASE WHEN half = 1 THEN p END) AS p1,
               max(CASE WHEN half = 2 THEN p END) AS p2,
               count(*) FILTER (half = 1) AS c1
        FROM pw GROUP BY 1
    ),
    base AS (SELECT event_type, count(*) AS n FROM daily GROUP BY 1)
    SELECT base.event_type, CAST(base.n AS BIGINT) AS n_days,
           COALESCE(CASE WHEN base.n // 2 >= 7 THEN piv.p1 END, {NULLF})
               AS power_first,
           COALESCE(CASE WHEN base.n // 2 >= 7 THEN piv.p2 END, {NULLF})
               AS power_second,
           COALESCE(CASE WHEN base.n // 2 >= 7 AND piv.p1 > 0
                         THEN round(piv.p2 / piv.p1, 6) + 0.0 END,
                    {NULLF}) AS drift_ratio
    FROM base LEFT JOIN piv USING (event_type)
    ORDER BY 1
"""
