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
