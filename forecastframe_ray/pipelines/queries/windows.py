"""Oracled query catalog — part ``windows``."""

from __future__ import annotations

import numpy as np
import pandas as pd

from forecastframe_ray.stages.agg import hash_aggregate

from forecastframe_ray.pipelines.queries.spine import (
    DAY_US,
    NULLF,
    _DAILY_SQL,
    _bucket_series,
    _daily_frame,
    _fill,
    _read,
    _round,
)
from forecastframe_ray.pipelines.queries import entry


# ---------------------------------------------------------------------------
# forecast combination
# ---------------------------------------------------------------------------

@entry("combo_forecast_daily", sql=lambda: SQL_COMBO_FORECAST)
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


# ---------------------------------------------------------------------------
# damped Holt gate
# ---------------------------------------------------------------------------

@entry("holt_damped_gate_daily", sql=lambda: SQL_HOLT_DAMPED_GATE)
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


# ---------------------------------------------------------------------------
# schema-evolution union
# ---------------------------------------------------------------------------

@entry("schema_evolution_union", sql=lambda: SQL_SCHEMA_EVOLUTION_UNION)
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


# ---------------------------------------------------------------------------
# HyperLogLog gate
# ---------------------------------------------------------------------------

@entry("hll_distinct_gate", sql=lambda: SQL_HLL_DISTINCT_GATE)
def q_hll_distinct_gate(sf_dir: str) -> pd.DataFrame:
    """HyperLogLog accuracy gate: the
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


# ---------------------------------------------------------------------------
# TSB intermittent forecast gate
# ---------------------------------------------------------------------------

@entry("tsb_gate_daily", sql=lambda: SQL_TSB_GATE)
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


#: entry()'s deterministic page-synthesis constants (__ray_entry__.py)
_PAGE_EPOCH_US = 1_704_067_200_000_000
_PAGE_STRIDE = 9_999_999_989
_PAGE_SPAN_US = 28 * DAY_US


@entry("host_tier_1d_pages", sql=lambda: SQL_HOST_TIER_1D_PAGES)
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
    tier = web.build_tiers(prepared, series_keys=("host",))["1d"]
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
