"""Oracled query catalog — histogram gradient-boosted regressor entry
(round 5, estimator #15 in :mod:`forecastframe_ray.pipelines.search`).

``gbm_cv_daily`` drives the estimator through the shared-fold ``search_cv``
machinery (2 expanding-window folds over the daily events series) with two
boosted depth-1 trees ("stumps") on the (dow, dom) calendar features and a
global-mean base, and the DuckDB oracle rebuilds the ENTIRE fit in SQL —
residuals, the exact-histogram split search (gain = s_l²/n_l + s_r²/n_r −
s0²/n0 rounded to 6 digits, ties broken by feature order then smaller
threshold, the determinism contract ``fit_gbm`` documents), both boosting
rounds, and the per-fold test RMSE/MAPE — an unrolled-iteration
oracle. Deeper trees are pinned by
``tests/test_gbm.py`` against an independent single-node recursive GBM.
"""

from __future__ import annotations

import pandas as pd

from forecastframe_ray.pipelines.queries.spine import (
    _DAILY_SQL,
    _daily_frame,
    _round,
)
from forecastframe_ray.pipelines.queries import entry


@entry("gbm_cv_daily", sql=lambda: SQL_GBM_CV)
def q_gbm_cv_daily(sf_dir: str) -> pd.DataFrame:
    from forecastframe_ray.pipelines import search

    fr = _daily_frame(sf_dir)
    results, _best = search.search_cv(
        fr, grid={"n_trees": [2], "max_depth": [1],
                  "learning_rate": [0.5], "min_child": [1],
                  "base_mode": ["global"]},
        estimator="gbm", n_splits=2)
    out = results[["fold", "n_test", "rmse", "mape"]].copy()
    for c in ("fold", "n_test"):
        out[c] = out[c].astype("int64")
    out = _round(out, ["rmse"], 4)
    out = _round(out, ["mape"], 6)
    return out.sort_values("fold").reset_index(drop=True)


#: fold CTEs mirror SQL_SEARCH_CV (n_splits=2, gap=0); dow is
#: ``isodow(d)-1`` = pandas Monday-0; each boosting round is one
#: histogram → cumulative-window → argmax chain, with the LEFT JOIN +
#: COALESCE(…, 0) guard for the engine's no-valid-split → zero-leaf case.
SQL_GBM_CV = f"""
    WITH daily AS ({_DAILY_SQL}),
    dd AS (SELECT d, CAST(row_number() OVER (ORDER BY d) - 1 AS BIGINT) AS rn
           FROM (SELECT DISTINCT d FROM daily)),
    params AS (SELECT count(*) AS n, count(*) // 3 AS ts FROM dd),
    folds AS (SELECT unnest([0, 1]) AS fold),
    bounds AS (SELECT fold, n - (2 - fold) * ts AS tsix, ts
               FROM folds CROSS JOIN params),
    lab AS (
        SELECT b.fold, dd.d,
               CASE WHEN dd.rn < b.tsix THEN 'train'
                    WHEN dd.rn < b.tsix + b.ts THEN 'test'
               END AS role
        FROM bounds b CROSS JOIN dd
    ),
    rows_ AS (
        SELECT l.fold, l.role, dy.v,
               isodow(dy.d) - 1 AS dow, day(dy.d) AS dom
        FROM lab l JOIN daily dy ON dy.d = l.d
        WHERE l.role IS NOT NULL
    ),
    tr AS (SELECT * FROM rows_ WHERE role = 'train'),
    b1 AS (SELECT fold, avg(v) AS bv FROM tr GROUP BY 1),
    r1 AS (SELECT t.fold, t.v, t.dow, t.dom, t.v - b.bv AS r
           FROM tr t JOIN b1 b USING (fold)),
    f1 AS (SELECT fold, r, 0 AS feat, dow AS val FROM r1
           UNION ALL SELECT fold, r, 1, dom FROM r1),
    h1 AS (SELECT fold, feat, val, CAST(count(*) AS DOUBLE) AS n,
                  sum(r) AS s
           FROM f1 GROUP BY 1, 2, 3),
    c1 AS (SELECT fold, feat, val,
                  sum(n) OVER w AS nl, sum(s) OVER w AS sl,
                  sum(n) OVER wp AS nt, sum(s) OVER wp AS st,
                  max(val) OVER wp AS vmax
           FROM h1
           WINDOW w AS (PARTITION BY fold, feat ORDER BY val
                        ROWS UNBOUNDED PRECEDING),
                  wp AS (PARTITION BY fold, feat)),
    g1 AS (SELECT fold, feat, val, nl, sl, nt - nl AS nr, st - sl AS sr,
                  round(sl * sl / nl + (st - sl) * (st - sl) / (nt - nl)
                        - st * st / nt, 6) AS gain
           FROM c1 WHERE val < vmax),
    s1 AS (SELECT *, row_number() OVER (PARTITION BY fold
                  ORDER BY gain DESC, feat ASC, val ASC) AS rk FROM g1),
    t1 AS (SELECT fold, feat, val AS thr, sl / nl AS lv, sr / nr AS rv
           FROM s1 WHERE rk = 1 AND gain > 0),
    r2 AS (SELECT r.fold, r.v, r.dow, r.dom,
                  r.r - 0.5 * COALESCE(
                      CASE WHEN (CASE WHEN t.feat = 0 THEN r.dow
                                 ELSE r.dom END) <= t.thr
                           THEN t.lv ELSE t.rv END, 0.0) AS r
           FROM r1 r LEFT JOIN t1 t USING (fold)),
    f2 AS (SELECT fold, r, 0 AS feat, dow AS val FROM r2
           UNION ALL SELECT fold, r, 1, dom FROM r2),
    h2 AS (SELECT fold, feat, val, CAST(count(*) AS DOUBLE) AS n,
                  sum(r) AS s
           FROM f2 GROUP BY 1, 2, 3),
    c2 AS (SELECT fold, feat, val,
                  sum(n) OVER w AS nl, sum(s) OVER w AS sl,
                  sum(n) OVER wp AS nt, sum(s) OVER wp AS st,
                  max(val) OVER wp AS vmax
           FROM h2
           WINDOW w AS (PARTITION BY fold, feat ORDER BY val
                        ROWS UNBOUNDED PRECEDING),
                  wp AS (PARTITION BY fold, feat)),
    g2 AS (SELECT fold, feat, val, nl, sl, nt - nl AS nr, st - sl AS sr,
                  round(sl * sl / nl + (st - sl) * (st - sl) / (nt - nl)
                        - st * st / nt, 6) AS gain
           FROM c2 WHERE val < vmax),
    s2 AS (SELECT *, row_number() OVER (PARTITION BY fold
                  ORDER BY gain DESC, feat ASC, val ASC) AS rk FROM g2),
    t2 AS (SELECT fold, feat, val AS thr, sl / nl AS lv, sr / nr AS rv
           FROM s2 WHERE rk = 1 AND gain > 0),
    sc AS (
        SELECT te.fold, te.v,
               b.bv
               + 0.5 * COALESCE(
                   CASE WHEN (CASE WHEN a.feat = 0 THEN te.dow
                              ELSE te.dom END) <= a.thr
                        THEN a.lv ELSE a.rv END, 0.0)
               + 0.5 * COALESCE(
                   CASE WHEN (CASE WHEN c.feat = 0 THEN te.dow
                              ELSE te.dom END) <= c.thr
                        THEN c.lv ELSE c.rv END, 0.0) AS pred
        FROM rows_ te
        JOIN b1 b USING (fold)
        LEFT JOIN t1 a USING (fold)
        LEFT JOIN t2 c USING (fold)
        WHERE te.role = 'test'
    )
    SELECT CAST(fold AS BIGINT) AS fold, count(*) AS n_test,
           round(sqrt(avg((v - pred) * (v - pred))), 4) AS rmse,
           round(avg(abs((v - pred) / v)), 6) AS mape
    FROM sc GROUP BY 1 ORDER BY 1
"""


@entry("gbm_shap_daily", sql=lambda: SQL_GBM_SHAP)
def q_gbm_shap_daily(sf_dir: str) -> pd.DataFrame:
    """Exact TreeSHAP over the fitted GBM (pipelines/interpret.gbm_shap):
    two boosted stumps on (dow, dom) fit on the FULL daily series, then
    per-row Shapley values. The engine's ``pred`` column comes from the
    real scorer (score_gbm) while the SQL oracle reconstructs it as
    base + Σ shap — so the driver hash cross-checks BOTH the fit and the
    Shapley additivity property between independent implementations."""
    from forecastframe_ray.pipelines import interpret as interp
    from forecastframe_ray.pipelines import search

    fr = _daily_frame(sf_dir)
    ds = fr.dataset.materialize()
    state = search.fit_gbm(ds, ["event_type"], "d", "v", n_trees=2,
                           max_depth=1, learning_rate=0.5)
    shap = interp.gbm_shap(ds, state, "d").to_pandas()
    scored = search.score_gbm(ds, state, ["event_type"], "d", "v",
                              "pred").to_pandas()
    out = shap.merge(scored[["event_type", "d", "pred"]],
                     on=["event_type", "d"])
    out = out[["event_type", "d", "shap_dow", "shap_dom", "shap_base",
               "pred"]].sort_values(["event_type", "d"]) \
        .reset_index(drop=True)
    return _round(out, ["shap_dow", "shap_dom", "shap_base", "pred"], 6)


#: stump TreeSHAP closed form: for a single-split tree on feature f,
#: φ_f = lr·(leaf(x) − cover-weighted leaf mean), φ_other = 0; base =
#: global mean + lr·Σ tree expectations. The oracle rebuilds both boosting
#: rounds (same split-search CTE chain as SQL_GBM_CV, foldless) and emits
#: pred = base + Σφ — hash-equality against the engine's scorer pred IS
#: the additivity check.
SQL_GBM_SHAP = f"""
    WITH daily AS ({_DAILY_SQL}),
    rows_ AS (
        SELECT event_type, d, v, isodow(d) - 1 AS dow, day(d) AS dom
        FROM daily
    ),
    b1 AS (SELECT avg(v) AS bv FROM rows_),
    r1 AS (SELECT r.*, r.v - b.bv AS r FROM rows_ r CROSS JOIN b1 b),
    f1 AS (SELECT r, 0 AS feat, dow AS val FROM r1
           UNION ALL SELECT r, 1, dom FROM r1),
    h1 AS (SELECT feat, val, CAST(count(*) AS DOUBLE) AS n, sum(r) AS s
           FROM f1 GROUP BY 1, 2),
    c1 AS (SELECT feat, val,
                  sum(n) OVER w AS nl, sum(s) OVER w AS sl,
                  sum(n) OVER wp AS nt, sum(s) OVER wp AS st,
                  max(val) OVER wp AS vmax
           FROM h1
           WINDOW w AS (PARTITION BY feat ORDER BY val
                        ROWS UNBOUNDED PRECEDING),
                  wp AS (PARTITION BY feat)),
    g1 AS (SELECT feat, val, nl, sl, nt - nl AS nr, st - sl AS sr,
                  round(sl * sl / nl + (st - sl) * (st - sl) / (nt - nl)
                        - st * st / nt, 6) AS gain
           FROM c1 WHERE val < vmax),
    s1 AS (SELECT *, row_number() OVER (
                  ORDER BY gain DESC, feat ASC, val ASC) AS rk FROM g1),
    t1 AS (SELECT feat, val AS thr, sl / nl AS lv, sr / nr AS rv, nl, nr
           FROM s1 WHERE rk = 1 AND gain > 0),
    p1 AS (SELECT r.*,
                  COALESCE(CASE WHEN (CASE WHEN t.feat = 0 THEN r.dow
                                     ELSE r.dom END) <= t.thr
                                THEN t.lv ELSE t.rv END, 0.0) AS leaf1,
                  COALESCE((t.nl * t.lv + t.nr * t.rv)
                           / (t.nl + t.nr), 0.0) AS e1,
                  COALESCE(t.feat, -1) AS feat1
           FROM r1 r LEFT JOIN t1 t ON TRUE),
    r2 AS (SELECT event_type, d, v, dow, dom, r - 0.5 * leaf1 AS r,
                  leaf1, e1, feat1
           FROM p1),
    f2 AS (SELECT r, 0 AS feat, dow AS val FROM r2
           UNION ALL SELECT r, 1, dom FROM r2),
    h2 AS (SELECT feat, val, CAST(count(*) AS DOUBLE) AS n, sum(r) AS s
           FROM f2 GROUP BY 1, 2),
    c2 AS (SELECT feat, val,
                  sum(n) OVER w AS nl, sum(s) OVER w AS sl,
                  sum(n) OVER wp AS nt, sum(s) OVER wp AS st,
                  max(val) OVER wp AS vmax
           FROM h2
           WINDOW w AS (PARTITION BY feat ORDER BY val
                        ROWS UNBOUNDED PRECEDING),
                  wp AS (PARTITION BY feat)),
    g2 AS (SELECT feat, val, nl, sl, nt - nl AS nr, st - sl AS sr,
                  round(sl * sl / nl + (st - sl) * (st - sl) / (nt - nl)
                        - st * st / nt, 6) AS gain
           FROM c2 WHERE val < vmax),
    s2 AS (SELECT *, row_number() OVER (
                  ORDER BY gain DESC, feat ASC, val ASC) AS rk FROM g2),
    t2 AS (SELECT feat, val AS thr, sl / nl AS lv, sr / nr AS rv, nl, nr
           FROM s2 WHERE rk = 1 AND gain > 0),
    p2 AS (SELECT r.*,
                  COALESCE(CASE WHEN (CASE WHEN t.feat = 0 THEN r.dow
                                     ELSE r.dom END) <= t.thr
                                THEN t.lv ELSE t.rv END, 0.0) AS leaf2,
                  COALESCE((t.nl * t.lv + t.nr * t.rv)
                           / (t.nl + t.nr), 0.0) AS e2,
                  COALESCE(t.feat, -1) AS feat2
           FROM r2 r LEFT JOIN t2 t ON TRUE),
    shap AS (
        SELECT p.event_type, p.d,
               CASE WHEN p.feat1 = 0 THEN 0.5 * (p.leaf1 - p.e1)
                    ELSE 0.0 END
               + CASE WHEN p.feat2 = 0 THEN 0.5 * (p.leaf2 - p.e2)
                      ELSE 0.0 END AS sdow,
               CASE WHEN p.feat1 = 1 THEN 0.5 * (p.leaf1 - p.e1)
                    ELSE 0.0 END
               + CASE WHEN p.feat2 = 1 THEN 0.5 * (p.leaf2 - p.e2)
                      ELSE 0.0 END AS sdom,
               b.bv + 0.5 * p.e1 + 0.5 * p.e2 AS sbase
        FROM p2 p CROSS JOIN b1 b
    )
    SELECT event_type, d,
           round(sdow, 6) AS shap_dow, round(sdom, 6) AS shap_dom,
           round(sbase, 6) AS shap_base,
           round(sbase + sdow + sdom, 6) AS pred
    FROM shap ORDER BY event_type, d
"""
