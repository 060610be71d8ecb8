"""Oracled query catalog — part ``stats5`` (contiguous split of the former queries.py monolith; order preserved)."""

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
    _DAILY_SQL,
    _NP,
    _bucket_series,
    _read,
)
from forecastframe_ray.pipelines.queries.text import (  # noqa: F401
    _BM25_TERMS,
    _KMEANS_K,
)
from forecastframe_ray.pipelines.queries import entry



# ---------------------------------------------------------------------------
# LOF density outliers, DBSCAN core-point profile, Fisher exact test
# ---------------------------------------------------------------------------

def _pairwise_d2_rounded(X: np.ndarray) -> np.ndarray:
    """All-pairs squared Euclidean distances rounded to 9dp — the rounding
    pins tie membership (k-dist boundaries, eps balls) to identical sets in
    both engines, whose raw float sums differ at ~1e-13."""
    d2 = ((X ** 2).sum(1)[:, None] + (X ** 2).sum(1)[None, :]
          - 2.0 * X @ X.T)
    return np.round(np.maximum(d2, 0.0), 9)


@entry("lof_embeddings", sql=lambda: SQL_LOF_EMBEDDINGS)
def q_lof_embeddings(sf_dir: str) -> pd.DataFrame:
    """Local outlier factor (Breunig et al. 2000, public), k=5: LOF(a) =
    mean_{b∈N₅(a)} lrd(b)/lrd(a) with reach-dist smoothing — the density-
    RATIO outlier score that, unlike the raw kNN-distance entry, stays
    calibrated across clusters of different density. Top 20 by (lof desc,
    vec_id). All-pairs is inherent to exact LOF, so the input is capped to
    the 2000 smallest Knuth-hashed vec_ids (a no-op at sf scale, the
    documented bound at corpus scale) and runs in one co-located kernel on
    9dp-rounded distances; neighbourhoods include k-dist ties per the
    paper."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        ids_all = part["vec_id"].to_numpy(np.int64)
        h = (ids_all * 2654435761) % 4294967296
        keep = np.lexsort((ids_all, h))[:2000]
        part = part.iloc[keep]
        ids = part["vec_id"].to_numpy(np.int64)
        X = np.stack(part["embedding"].to_numpy()).astype(np.float64)
        d = np.sqrt(_pairwise_d2_rounded(X))
        np.fill_diagonal(d, np.inf)
        K = 5
        kdist = np.sort(d, axis=1)[:, K - 1]
        nk = d <= kdist[:, None]          # includes k-dist ties
        reach = np.maximum(kdist[None, :], d)
        lrd = 1.0 / (np.where(nk, reach, 0.0).sum(axis=1)
                     / nk.sum(axis=1))
        lof = (np.where(nk, lrd[None, :], 0.0).sum(axis=1)
               / nk.sum(axis=1)) / lrd
        out = pd.DataFrame({"vec_id": ids,
                            "lof": np.round(lof, 6) + 0.0})
        out = out[np.isfinite(out["lof"])]
        return out.sort_values(["lof", "vec_id"],
                               ascending=[False, True]).head(20)

    out = keyed_map_partitions(
        emb.map_batches(lambda b: b.assign(__g=0), batch_format="pandas"),
        ["__g"], lambda p: kernel(p), num_partitions=1).to_pandas()
    return out.astype({"vec_id": "int64"}).sort_values(
        ["lof", "vec_id"], ascending=[False, True]).reset_index(drop=True)


SQL_LOF_EMBEDDINGS = """
    WITH sel AS (
        SELECT vec_id FROM embeddings
        ORDER BY (vec_id * 2654435761) % 4294967296, vec_id LIMIT 2000
    ),
    e AS (
        SELECT m.vec_id, generate_subscripts(m.embedding, 1) AS dim,
               CAST(unnest(m.embedding) AS DOUBLE) AS x
        FROM embeddings m JOIN sel USING (vec_id)
    ),
    d AS (
        SELECT a.vec_id AS i, b.vec_id AS j,
               sqrt(round(sum(pow(a.x - b.x, 2)), 9)) AS d
        FROM e a JOIN e b USING (dim)
        WHERE a.vec_id <> b.vec_id
        GROUP BY 1, 2
    ),
    kd AS (
        SELECT i, max(d) AS kdist
        FROM (SELECT i, d, row_number() OVER (PARTITION BY i
                   ORDER BY d, j) AS rk FROM d)
        WHERE rk <= 5 GROUP BY 1
    ),
    nk AS (
        SELECT d.i, d.j, d.d
        FROM d JOIN kd ON kd.i = d.i
        WHERE d.d <= kd.kdist
    ),
    lrd AS (
        SELECT nk.i,
               1.0 / (sum(greatest(kdj.kdist, nk.d)) / count(*)) AS lrd
        FROM nk JOIN kd kdj ON kdj.i = nk.j
        GROUP BY 1
    ),
    lof AS (
        SELECT nk.i AS vec_id,
               (sum(lj.lrd) / count(*)) / max(li.lrd) AS lof
        FROM nk
        JOIN lrd lj ON lj.i = nk.j
        JOIN lrd li ON li.i = nk.i
        GROUP BY 1
    )
    SELECT vec_id, round(lof, 6) + 0.0 AS lof
    FROM lof WHERE isfinite(lof)
    ORDER BY round(lof, 6) + 0.0 DESC, vec_id LIMIT 20
"""


@entry("dbscan_core_embeddings", sql=lambda: SQL_DBSCAN_CORE)
def q_dbscan_core_embeddings(sf_dir: str) -> pd.DataFrame:
    """DBSCAN point classification (Ester et al. 1996, public), minPts=5,
    ε = the median 5-NN distance (a standard heuristic, 6dp-pinned so both
    engines cut identical balls): core points have ≥5 OTHER points within
    ε, border points are non-core with a core neighbour within ε, the rest
    is noise — the density-clustering feasibility profile. Same capped
    co-located kernel and 9dp distance rounding as the LOF entry."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        ids_all = part["vec_id"].to_numpy(np.int64)
        h = (ids_all * 2654435761) % 4294967296
        keep = np.lexsort((ids_all, h))[:2000]
        part = part.iloc[keep]
        X = np.stack(part["embedding"].to_numpy()).astype(np.float64)
        d = np.sqrt(_pairwise_d2_rounded(X))
        np.fill_diagonal(d, np.inf)
        K = 5
        kdist = np.sort(d, axis=1)[:, K - 1]
        eps = np.round(np.median(kdist), 6)
        within = d <= eps
        core = within.sum(axis=1) >= K
        border = ~core & (within & core[None, :]).any(axis=1)
        noise = ~core & ~border
        return pd.DataFrame({
            "eps": [eps + 0.0],
            "n_core": [int(core.sum())],
            "n_border": [int(border.sum())],
            "n_noise": [int(noise.sum())]})

    out = keyed_map_partitions(
        emb.map_batches(lambda b: b.assign(__g=0), batch_format="pandas"),
        ["__g"], kernel, num_partitions=1).to_pandas()
    return out.astype({"n_core": "int64", "n_border": "int64",
                       "n_noise": "int64"}).reset_index(drop=True)


SQL_DBSCAN_CORE = """
    WITH sel AS (
        SELECT vec_id FROM embeddings
        ORDER BY (vec_id * 2654435761) % 4294967296, vec_id LIMIT 2000
    ),
    e AS (
        SELECT m.vec_id, generate_subscripts(m.embedding, 1) AS dim,
               CAST(unnest(m.embedding) AS DOUBLE) AS x
        FROM embeddings m JOIN sel USING (vec_id)
    ),
    d AS (
        SELECT a.vec_id AS i, b.vec_id AS j,
               sqrt(round(sum(pow(a.x - b.x, 2)), 9)) AS d
        FROM e a JOIN e b USING (dim)
        WHERE a.vec_id <> b.vec_id
        GROUP BY 1, 2
    ),
    kd AS (
        SELECT i, max(d) AS kdist
        FROM (SELECT i, d, row_number() OVER (PARTITION BY i
                   ORDER BY d, j) AS rk FROM d)
        WHERE rk <= 5 GROUP BY 1
    ),
    eps AS (SELECT round(median(kdist), 6) + 0.0 AS eps FROM kd),
    cnt AS (
        SELECT d.i, count(*) AS within
        FROM d, eps WHERE d.d <= eps.eps GROUP BY 1
    ),
    cls AS (
        SELECT s.vec_id AS i,
               COALESCE(cnt.within, 0) >= 5 AS core
        FROM sel s LEFT JOIN cnt ON cnt.i = s.vec_id
    ),
    border AS (
        SELECT DISTINCT d.i
        FROM d JOIN cls ci ON ci.i = d.i AND NOT ci.core
        JOIN cls cj ON cj.i = d.j AND cj.core, eps
        WHERE d.d <= eps.eps
    )
    SELECT eps.eps,
           (SELECT CAST(count(*) AS BIGINT) FROM cls WHERE core)
               AS n_core,
           (SELECT CAST(count(*) AS BIGINT) FROM border) AS n_border,
           (SELECT CAST(count(*) AS BIGINT) FROM cls WHERE NOT core)
               - (SELECT count(*) FROM border) AS n_noise
    FROM eps
"""


@entry("fisher_exact_weekend", sql=lambda: SQL_FISHER_EXACT_WEEKEND)
def q_fisher_exact_weekend(sf_dir: str) -> pd.DataFrame:
    """Fisher's exact test (Fisher 1935, public) per event type on the 2×2
    table weekend? × value-above-type-median?: the two-sided p sums every
    hypergeometric table (same margins) whose pmf ≤ observed·(1+1e−7) —
    the small-margin-exact complement of the χ² entries. pmf via lgamma in
    both engines (same libm); counts are one shuffle, the tail sum is
    margin-bounded algebra."""
    import math

    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            dow = g["ts"].dt.dayofweek.to_numpy() + 1
            v = g["value"].to_numpy(np.float64)
            med = np.median(v)
            we = dow >= 6
            hi = v > med
            a = int((we & hi).sum())
            b = int((we & ~hi).sum())
            c = int((~we & hi).sum())
            dd = int((~we & ~hi).sum())
            n = a + b + c + dd
            r1, c1 = a + b, a + c

            def lpmf(k):
                return (math.lgamma(r1 + 1) - math.lgamma(k + 1)
                        - math.lgamma(r1 - k + 1)
                        + math.lgamma(n - r1 + 1)
                        - math.lgamma(c1 - k + 1)
                        - math.lgamma(n - r1 - c1 + k + 1)
                        + math.lgamma(c1 + 1) + math.lgamma(n - c1 + 1)
                        - math.lgamma(n + 1))

            p_obs = math.exp(lpmf(a))
            lo, hi_k = max(0, r1 + c1 - n), min(r1, c1)
            p = sum(math.exp(lpmf(k)) for k in range(lo, hi_k + 1)
                    if math.exp(lpmf(k)) <= p_obs * (1 + 1e-7))
            rows.append((et, np.int64(a), np.int64(b), np.int64(c),
                         np.int64(dd), np.round(min(p, 1.0), 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "a", "b", "c",
                                           "d", "p_two_sided"])

    out = keyed_map_partitions(ev, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"a": "int64", "b": "int64", "c": "int64",
                      "d": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_FISHER_EXACT_WEEKEND = """
    WITH med AS (
        SELECT event_type, median(value) AS med
        FROM events GROUP BY 1
    ),
    cells AS (
        SELECT e.event_type,
               sum(CASE WHEN isodow(e.ts) >= 6 AND e.value > m.med
                   THEN 1 ELSE 0 END) AS a,
               sum(CASE WHEN isodow(e.ts) >= 6 AND e.value <= m.med
                   THEN 1 ELSE 0 END) AS b,
               sum(CASE WHEN isodow(e.ts) < 6 AND e.value > m.med
                   THEN 1 ELSE 0 END) AS c,
               sum(CASE WHEN isodow(e.ts) < 6 AND e.value <= m.med
                   THEN 1 ELSE 0 END) AS d
        FROM events e JOIN med m USING (event_type)
        GROUP BY 1
    ),
    marg AS (
        SELECT *, a + b AS r1, a + c AS c1, a + b + c + d AS n
        FROM cells
    ),
    ks AS (
        SELECT m.*, k.k,
               exp(lgamma(m.r1 + 1) - lgamma(k.k + 1)
                   - lgamma(m.r1 - k.k + 1) + lgamma(m.n - m.r1 + 1)
                   - lgamma(m.c1 - k.k + 1)
                   - lgamma(m.n - m.r1 - m.c1 + k.k + 1)
                   + lgamma(m.c1 + 1) + lgamma(m.n - m.c1 + 1)
                   - lgamma(m.n + 1)) AS pmf,
               exp(lgamma(m.r1 + 1) - lgamma(m.a + 1)
                   - lgamma(m.r1 - m.a + 1) + lgamma(m.n - m.r1 + 1)
                   - lgamma(m.c1 - m.a + 1)
                   - lgamma(m.n - m.r1 - m.c1 + m.a + 1)
                   + lgamma(m.c1 + 1) + lgamma(m.n - m.c1 + 1)
                   - lgamma(m.n + 1)) AS p_obs
        FROM marg m
        JOIN (SELECT unnest(range(0, 100000)) AS k) k
          ON k.k >= greatest(0, m.r1 + m.c1 - m.n)
         AND k.k <= least(m.r1, m.c1)
    )
    SELECT event_type, CAST(a AS BIGINT) AS a, CAST(b AS BIGINT) AS b,
           CAST(c AS BIGINT) AS c, CAST(d AS BIGINT) AS d,
           round(least(sum(CASE WHEN pmf <= p_obs * (1 + 1e-7)
                           THEN pmf ELSE 0 END), 1.0), 6) + 0.0
               AS p_two_sided
    FROM ks GROUP BY 1, 2, 3, 4, 5 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Ledoit-Wolf covariance shrinkage, ARI/NMI partition agreement, SPRT
# ---------------------------------------------------------------------------

@entry("ledoit_wolf_embeddings", sql=lambda: SQL_LEDOIT_WOLF)
def q_ledoit_wolf_embeddings(sf_dir: str) -> pd.DataFrame:
    """Ledoit-Wolf shrinkage intensity toward the identity target (Ledoit
    & Wolf 2004, public): with centered xₖ and S = (1/n)ΣxₖxₖT, m =
    tr(S)/p, d² = ‖S−mI‖²_F/p, b̄² = (Σ‖xₖ‖⁴/n² − ‖S‖²_F/n)/p, λ =
    min(b̄²,d²)/d² — how much a 100-TB covariance estimate should shrink.
    Engine side is two broadcast-mean passes of per-batch Gram partials
    (p² floats cross, never rows); the ‖xₖ‖⁴ identity avoids the naive
    per-sample outer-product blowup in both engines."""
    emb = _read(sf_dir, "embeddings", ["embedding"])

    def mom(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        return pd.DataFrame({"n": [float(len(X))],
                             "s": [X.sum(axis=0)]})

    parts = emb.map_batches(mom, batch_format="pandas").to_pandas()
    n = float(parts["n"].sum())
    mu = np.stack(parts["s"].to_numpy()).sum(axis=0) / n
    p = float(len(mu))

    def gram(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(b["embedding"].to_numpy()).astype(np.float64) - mu
        return pd.DataFrame({"g": [(X.T @ X).ravel()],
                             "q": [float(((X * X).sum(axis=1) ** 2)
                                         .sum())]})

    gp = emb.map_batches(gram, batch_format="pandas").to_pandas()
    G = np.stack(gp["g"].to_numpy()).sum(axis=0)  # Σ c cᵀ, flattened
    q4 = float(gp["q"].sum())
    S = G / n
    s2 = float((S * S).sum())                      # ‖S‖²_F
    tr = float(S.reshape(int(p), int(p)).trace())
    m = tr / p
    d2 = s2 / p - m * m
    b2bar = (q4 / (n * n) - s2 / n) / p
    b2 = min(b2bar, d2)
    lam = b2 / d2 if d2 > 0 else 0.0
    return pd.DataFrame({
        "n": pd.array([int(n)], dtype="int64"),
        "p": pd.array([int(p)], dtype="int64"),
        "m": [np.round(m, 6) + 0.0], "d2": [np.round(d2, 6) + 0.0],
        "b2": [np.round(b2, 6) + 0.0],
        "shrinkage": [np.round(lam, 6) + 0.0]})


SQL_LEDOIT_WOLF = """
    WITH e AS (
        SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
               CAST(unnest(embedding) AS DOUBLE) AS x
        FROM embeddings
    ),
    mu AS (SELECT dim, avg(x) AS mu FROM e GROUP BY 1),
    c AS (
        SELECT e.vec_id, e.dim, e.x - mu.mu AS c
        FROM e JOIN mu USING (dim)
    ),
    nn AS (SELECT count(DISTINCT vec_id)::DOUBLE AS n,
                  count(DISTINCT dim)::DOUBLE AS p
           FROM e),
    s AS (
        SELECT a.dim AS di, b.dim AS dj, sum(a.c * b.c) / max(nn.n) AS s
        FROM c a JOIN c b USING (vec_id), nn
        GROUP BY 1, 2
    ),
    q AS (
        SELECT sum(pow(l2, 2)) AS q4
        FROM (SELECT vec_id, sum(c * c) AS l2 FROM c GROUP BY 1)
    ),
    agg AS (
        SELECT sum(s.s * s.s) AS s2,
               sum(CASE WHEN s.di = s.dj THEN s.s ELSE 0 END) AS tr
        FROM s
    )
    SELECT CAST(nn.n AS BIGINT) AS n, CAST(nn.p AS BIGINT) AS p,
           round(tr / nn.p, 6) + 0.0 AS m,
           round(s2 / nn.p - pow(tr / nn.p, 2), 6) + 0.0 AS d2,
           round(least((q.q4 / (nn.n * nn.n) - s2 / nn.n) / nn.p,
                       s2 / nn.p - pow(tr / nn.p, 2)), 6) + 0.0 AS b2,
           round(CASE WHEN s2 / nn.p - pow(tr / nn.p, 2) > 0
                 THEN least((q.q4 / (nn.n * nn.n) - s2 / nn.n) / nn.p,
                            s2 / nn.p - pow(tr / nn.p, 2))
                      / (s2 / nn.p - pow(tr / nn.p, 2))
                 ELSE 0.0 END, 6) + 0.0 AS shrinkage
    FROM agg, q, nn
"""


@entry("ari_nmi_embeddings", sql=lambda: SQL_ARI_NMI)
def q_ari_nmi_embeddings(sf_dir: str) -> pd.DataFrame:
    """Adjusted Rand index (Hubert & Arabie 1985) and NMI (geometric
    normalization) between the k-means E-step assignment (the oracled
    ``kmeans_assign_embeddings`` rule: k=8 smallest-vec_id seeds, squared-
    L2 argmin, ties → lowest cluster) and the ground-truth labels — the
    external cluster-validation pair next to the internal silhouette/DB/CH
    entries. One assignment pass + one (cluster,label) count shuffle; the
    contingency algebra is exact integers in both engines."""
    from forecastframe_ray.stages.agg import hash_aggregate

    emb = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id", "embedding"])
    dfc = emb.to_pandas().sort_values("vec_id").head(_KMEANS_K)
    C = np.stack(dfc["embedding"].to_numpy()).astype(np.float64)
    c2 = (C * C).sum(axis=1)

    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        d2 = (X * X).sum(axis=1)[:, None] - 2.0 * (X @ C.T) + c2[None, :]
        return pd.DataFrame({"cluster": np.argmin(d2, axis=1)
                             .astype(np.int64),
                             "label": b["label"].astype(np.int64),
                             "one": np.ones(len(b), dtype=np.int64)})

    ct = hash_aggregate(ds.map_batches(assign, batch_format="pandas"),
                        ["cluster", "label"], {"m": ("one", "sum")},
                        num_partitions=4).to_pandas()
    m = ct["m"].to_numpy(np.float64)
    n = m.sum()
    a = ct.groupby("cluster")["m"].sum().to_numpy(np.float64)
    b = ct.groupby("label")["m"].sum().to_numpy(np.float64)

    def comb2(x):
        return x * (x - 1) / 2.0

    idx = comb2(m).sum()
    ea = comb2(a).sum()
    eb = comb2(b).sum()
    exp = ea * eb / comb2(n)
    ari = (idx - exp) / ((ea + eb) / 2.0 - exp)
    mi = float((m / n * np.log(n * m
                               / (ct.groupby("cluster")["m"]
                                  .transform("sum").to_numpy(np.float64)
                                  * ct.groupby("label")["m"]
                                  .transform("sum")
                                  .to_numpy(np.float64)))).sum())
    hc = float(-(a / n * np.log(a / n)).sum())
    hl = float(-(b / n * np.log(b / n)).sum())
    nmi = mi / np.sqrt(hc * hl)
    return pd.DataFrame({
        "n": pd.array([int(n)], dtype="int64"),
        "ari": [np.round(ari, 6) + 0.0],
        "nmi": [np.round(nmi, 6) + 0.0]})


SQL_ARI_NMI = f"""
    WITH c AS (
        SELECT row_number() OVER (ORDER BY vec_id) - 1 AS cluster,
               list_transform(embedding, x -> CAST(x AS DOUBLE)) AS cvec
        FROM embeddings ORDER BY vec_id LIMIT {_KMEANS_K}
    ),
    e AS (
        SELECT vec_id, label,
               list_transform(embedding, x -> CAST(x AS DOUBLE)) AS v
        FROM embeddings
    ),
    d AS (
        SELECT e.vec_id, e.label, c.cluster,
               list_dot_product(e.v, e.v)
               - 2 * list_dot_product(e.v, c.cvec)
               + list_dot_product(c.cvec, c.cvec) AS dist2
        FROM e CROSS JOIN c
    ),
    asg AS (
        SELECT vec_id, label, cluster
        FROM (SELECT *, row_number() OVER (PARTITION BY vec_id
                   ORDER BY dist2, cluster) AS rn FROM d)
        WHERE rn = 1
    ),
    ct AS (SELECT cluster, label, count(*)::DOUBLE AS m
           FROM asg GROUP BY 1, 2),
    tot AS (SELECT sum(m) AS n FROM ct),
    ra AS (SELECT cluster, sum(m) AS a FROM ct GROUP BY 1),
    rb AS (SELECT label, sum(m) AS b FROM ct GROUP BY 1),
    sums AS (
        SELECT (SELECT sum(m * (m - 1) / 2.0) FROM ct) AS idx,
               (SELECT sum(a * (a - 1) / 2.0) FROM ra) AS ea,
               (SELECT sum(b * (b - 1) / 2.0) FROM rb) AS eb,
               (SELECT max(n) FROM tot) AS n
    ),
    mi AS (
        SELECT sum(ct.m / s.n
                   * ln(s.n * ct.m / (ra.a * rb.b))) AS mi
        FROM ct JOIN ra USING (cluster) JOIN rb USING (label), sums s
    ),
    h AS (
        SELECT (SELECT -sum(a / s.n * ln(a / s.n)) FROM ra, sums s)
                   AS hc,
               (SELECT -sum(b / s.n * ln(b / s.n)) FROM rb, sums s)
                   AS hl
    )
    SELECT CAST(s.n AS BIGINT) AS n,
           round((s.idx - s.ea * s.eb / (s.n * (s.n - 1) / 2.0))
                 / ((s.ea + s.eb) / 2.0
                    - s.ea * s.eb / (s.n * (s.n - 1) / 2.0)), 6) + 0.0
               AS ari,
           round(mi.mi / sqrt(h.hc * h.hl), 6) + 0.0 AS nmi
    FROM sums s, mi, h
"""


@entry("sprt_purchase_daily", sql=lambda: SQL_SPRT_PURCHASE)
def q_sprt_purchase_daily(sf_dir: str) -> pd.DataFrame:
    """Wald's sequential probability ratio test (Wald 1945, public) on the
    daily purchase share: H₀ p₀ = the overall share vs H₁ p₁ = 1.25·p₀,
    binomial log-likelihood ratio accumulated day by day against the
    α=β=0.05 boundaries ±ln 19 — the always-valid sequential complement of
    the fixed-n z-test entries. One (day × is-purchase) count shuffle; the
    day-ordered scan is driver algebra on the reduced spine."""
    from forecastframe_ray.stages.agg import hash_aggregate

    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def days(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        return pd.DataFrame({
            "d": pd.to_datetime((us // DAY_US) * DAY_US, unit="us"),
            "k": (b["event_type"] == "purchase").to_numpy(np.float64),
            "n": np.ones(len(b))})

    daily = hash_aggregate(ev.map_batches(days, batch_format="pandas"),
                           ["d"], {"k": ("k", "sum"), "n": ("n", "sum")},
                           num_partitions=4).to_pandas().sort_values("d")
    k = daily["k"].to_numpy(np.float64)
    nn = daily["n"].to_numpy(np.float64)
    p0 = k.sum() / nn.sum()
    p1 = 1.25 * p0
    llr = np.cumsum(k * np.log(p1 / p0)
                    + (nn - k) * np.log((1 - p1) / (1 - p0)))
    bound = np.log(19.0)
    cross = np.nonzero((llr >= bound) | (llr <= -bound))[0]
    if len(cross):
        day_i = int(cross[0]) + 1
        decision = "accept_h1" if llr[cross[0]] >= bound else "accept_h0"
    else:
        day_i, decision = -1, "continue"
    return pd.DataFrame({
        "n_days": pd.array([len(llr)], dtype="int64"),
        "p0": [np.round(p0, 6) + 0.0],
        "crossing_day": pd.array([day_i], dtype="int64"),
        "decision": [decision],
        "llr_final": [np.round(float(llr[-1]), 6) + 0.0]})


SQL_SPRT_PURCHASE = """
    WITH daily AS (
        SELECT date_trunc('day', ts) AS d,
               sum(CASE WHEN event_type = 'purchase'
                   THEN 1.0 ELSE 0.0 END) AS k,
               count(*)::DOUBLE AS n
        FROM events GROUP BY 1
    ),
    p AS (SELECT sum(k) / sum(n) AS p0, 1.25 * sum(k) / sum(n) AS p1
          FROM daily),
    cum AS (
        SELECT d.d,
               sum(d.k * ln(p.p1 / p.p0)
                   + (d.n - d.k) * ln((1 - p.p1) / (1 - p.p0)))
                   OVER (ORDER BY d.d ROWS BETWEEN UNBOUNDED PRECEDING
                         AND CURRENT ROW) AS llr,
               row_number() OVER (ORDER BY d.d) AS i
        FROM daily d, p
    ),
    x AS (
        SELECT min(i) AS ci,
               max(CASE WHEN i = (SELECT max(i) FROM cum)
                   THEN llr END) AS lf
        FROM cum WHERE abs(llr) >= ln(19.0)
    ),
    fin AS (
        SELECT (SELECT count(*) FROM cum) AS n_days,
               (SELECT max(llr) FROM cum
                WHERE i = (SELECT max(i) FROM cum)) AS llr_final,
               (SELECT min(i) FROM cum
                WHERE llr >= ln(19.0) OR llr <= -ln(19.0)) AS ci,
               (SELECT max(p0) FROM p) AS p0
    )
    SELECT CAST(n_days AS BIGINT) AS n_days, round(p0, 6) + 0.0 AS p0,
           CAST(COALESCE(ci, -1) AS BIGINT) AS crossing_day,
           CASE WHEN ci IS NULL THEN 'continue'
                WHEN (SELECT llr FROM cum WHERE i = fin.ci) >= ln(19.0)
                THEN 'accept_h1' ELSE 'accept_h0' END AS decision,
           round(llr_final, 6) + 0.0 AS llr_final
    FROM fin
"""


# ---------------------------------------------------------------------------
# Kneser-Ney perplexity, copula tail dependence, extremal index
# ---------------------------------------------------------------------------

@entry("kneser_ney_ppl_documents", sql=lambda: SQL_KNESER_NEY_PPL)
def q_kneser_ney_ppl_documents(sf_dir: str) -> pd.DataFrame:
    """Interpolated Kneser-Ney bigram perplexity (Kneser & Ney 1995,
    public; absolute discount D=0.75): P(w₂|w₁) = (c(w₁w₂)−D)/c(w₁·) +
    D·N₁₊(w₁·)/c(w₁·) · N₁₊(·w₂)/T — the continuation-count smoothing
    next to the Laplace entry. Train = eval = corpus, so the stream
    log-sum collapses to Σ over bigram TYPES of c·ln P — pure count
    aggregates, the token stream is never re-joined. The per-context and
    per-word tables ride the pmi-style broadcast (bounded by vocabulary,
    the documented limit)."""
    from forecastframe_ray.stages.agg import hash_aggregate

    D = 0.75
    docs = _read(sf_dir, "documents", ["text"])

    def bi_partial(b: pd.DataFrame) -> pd.DataFrame:
        ex = b["text"].str.split().explode().dropna()
        idx = ex.index.to_numpy()
        vals = ex.to_numpy()
        if len(vals) < 2:
            return pd.DataFrame({"w1": pd.Series([], dtype="object"),
                                 "w2": pd.Series([], dtype="object"),
                                 "c": pd.Series([], dtype="int64")})
        same = idx[1:] == idx[:-1]
        g = pd.DataFrame({"w1": vals[:-1][same], "w2": vals[1:][same]})
        g = g.groupby(["w1", "w2"], sort=False, as_index=False).size()
        return g.rename(columns={"size": "c"})

    bi = hash_aggregate(docs.map_batches(bi_partial, batch_format="pandas"),
                        ["w1", "w2"], {"c": ("c", "sum")},
                        num_partitions=_NP).materialize()

    def ctx_partial(b: pd.DataFrame) -> pd.DataFrame:
        g = b.groupby("w1", sort=False, as_index=False) \
            .agg(ctx=("c", "sum"), n1f=("c", "size"))
        return g

    ctx = hash_aggregate(bi.map_batches(ctx_partial, batch_format="pandas"),
                         ["w1"], {"ctx": ("ctx", "sum"),
                                  "n1f": ("n1f", "sum")},
                         num_partitions=_NP).to_pandas()
    n1b = hash_aggregate(bi.map_batches(
        lambda b: pd.DataFrame({"w2": b["w2"],
                                "n1b": np.ones(len(b), dtype=np.int64)}),
        batch_format="pandas"),
        ["w2"], {"n1b": ("n1b", "sum")}, num_partitions=_NP).to_pandas()
    t_types = float(n1b["n1b"].sum())

    import ray
    ctx_ref = ray.put((dict(zip(ctx["w1"], ctx["ctx"].astype(float))),
                       dict(zip(ctx["w1"], ctx["n1f"].astype(float))),
                       dict(zip(n1b["w2"], n1b["n1b"].astype(float)))))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        cm, nf, nb = ray.get(ctx_ref)
        c = b["c"].to_numpy(np.float64)
        cx = b["w1"].map(cm).to_numpy(np.float64)
        f = b["w1"].map(nf).to_numpy(np.float64)
        bk = b["w2"].map(nb).to_numpy(np.float64)
        p = (c - D) / cx + D * f / cx * bk / t_types
        return pd.DataFrame({"s": [(c * np.log(p)).sum()],
                             "n": [c.sum()]})

    parts = bi.map_batches(score, batch_format="pandas").to_pandas()
    n_bi = float(parts["n"].sum())
    ppl = float(np.exp(-parts["s"].sum() / n_bi))
    return pd.DataFrame({
        "n_bigrams": pd.array([int(n_bi)], dtype="int64"),
        "bigram_types": pd.array([int(t_types)], dtype="int64"),
        "ppl_kn": [np.round(ppl, 6) + 0.0]})


SQL_KNESER_NEY_PPL = r"""
    WITH tok AS (
        SELECT doc_id,
               unnest(list_filter(string_split_regex(text, '\s+'),
                                  t -> t <> '')) AS w,
               generate_subscripts(list_filter(
                   string_split_regex(text, '\s+'),
                   t -> t <> ''), 1) AS pos
        FROM documents
    ),
    bi AS (
        SELECT a.w AS w1, b.w AS w2, count(*)::DOUBLE AS c
        FROM tok a JOIN tok b
          ON b.doc_id = a.doc_id AND b.pos = a.pos + 1
        GROUP BY 1, 2
    ),
    ctx AS (SELECT w1, sum(c) AS ctx, count(*)::DOUBLE AS n1f
            FROM bi GROUP BY 1),
    nb AS (SELECT w2, count(*)::DOUBLE AS n1b FROM bi GROUP BY 1),
    t AS (SELECT sum(n1b) AS t FROM nb),
    sc AS (
        SELECT sum(bi.c * ln((bi.c - 0.75) / ctx.ctx
                             + 0.75 * ctx.n1f / ctx.ctx
                               * nb.n1b / t.t)) AS s,
               sum(bi.c) AS n
        FROM bi JOIN ctx USING (w1) JOIN nb USING (w2), t
    )
    SELECT CAST(n AS BIGINT) AS n_bigrams,
           (SELECT CAST(t AS BIGINT) FROM t) AS bigram_types,
           round(exp(-s / n), 6) + 0.0 AS ppl_kn
    FROM sc
"""


@entry("tail_dependence_daily", sql=lambda: SQL_TAIL_DEPENDENCE)
def q_tail_dependence_daily(sf_dir: str) -> pd.DataFrame:
    """Empirical copula tail-dependence coefficients (Joe 1997, public)
    between every two daily series on common days: with rank-uniform
    pseudo-observations ((v,d)-tie-broken so both engines rank
    identically), λ̂_U = P(U>q, V>q)/(1−q) and λ̂_L = P(U≤1−q, V≤1−q)/(1−q)
    at q=0.75 — do the series crash (or spike) TOGETHER, the dependence
    the Pearson entries cannot see. The daily spine is already the reduced
    table, so the pair fold runs over it directly."""
    daily = _bucket_series(sf_dir, DAY_US, "d").to_pandas()
    piv = daily.pivot_table(index="d", columns="event_type", values="v",
                            aggfunc="first").sort_index()
    types = sorted(piv.columns)
    Q = 0.75
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            sub = piv[[ta, tb]].dropna()
            n = len(sub)
            if n < 4:
                continue
            dd = sub.index.to_numpy()

            def uranks(v):
                order = np.lexsort((dd, v))
                r = np.empty(n, dtype=np.float64)
                r[order] = np.arange(1, n + 1)
                return r / n

            u = uranks(sub[ta].to_numpy(np.float64))
            w = uranks(sub[tb].to_numpy(np.float64))
            lu = ((u > Q) & (w > Q)).sum() / (n * (1 - Q))
            ll = ((u <= 1 - Q) & (w <= 1 - Q)).sum() / (n * (1 - Q))
            rows.append((ta, tb, np.int64(n), np.round(lu, 6) + 0.0,
                         np.round(ll, 6) + 0.0))
    out = pd.DataFrame(rows, columns=["ta", "tb", "n_common",
                                      "lambda_u", "lambda_l"])
    out["n_common"] = out["n_common"].astype("int64")
    return out.sort_values(["ta", "tb"]).reset_index(drop=True)


SQL_TAIL_DEPENDENCE = f"""
    WITH daily AS ({_DAILY_SQL}),
    common AS (
        SELECT a.event_type AS ta, b.event_type AS tb, a.d,
               a.v AS x, b.v AS y
        FROM daily a JOIN daily b
          ON b.d = a.d AND a.event_type < b.event_type
    ),
    r AS (
        SELECT ta, tb,
               row_number() OVER (PARTITION BY ta, tb ORDER BY x, d)
                   / CAST(count(*) OVER (PARTITION BY ta, tb) AS DOUBLE)
                   AS u,
               row_number() OVER (PARTITION BY ta, tb ORDER BY y, d)
                   / CAST(count(*) OVER (PARTITION BY ta, tb) AS DOUBLE)
                   AS w,
               count(*) OVER (PARTITION BY ta, tb) AS n
        FROM common
    )
    SELECT ta, tb, CAST(max(n) AS BIGINT) AS n_common,
           round(sum(CASE WHEN u > 0.75 AND w > 0.75 THEN 1 ELSE 0 END)
                 / (max(n) * 0.25), 6) + 0.0 AS lambda_u,
           round(sum(CASE WHEN u <= 0.25 AND w <= 0.25 THEN 1 ELSE 0 END)
                 / (max(n) * 0.25), 6) + 0.0 AS lambda_l
    FROM r WHERE n >= 4
    GROUP BY 1, 2 ORDER BY 1, 2
"""


@entry("extremal_index_daily", sql=lambda: SQL_EXTREMAL_INDEX)
def q_extremal_index_daily(sf_dir: str) -> pd.DataFrame:
    """Extremal index by runs declustering (Leadbetter et al. 1983,
    public), run length r=2: exceedances of the k-th largest daily value
    (k = ⌊n/10⌋, an order-statistic threshold both engines cut
    identically) group into clusters separated by > 2 calendar days;
    θ̂ = clusters/exceedances ∈ (0,1] — θ<1 means extremes arrive in
    bursts, the clustering correction every 100-year-event claim needs.
    Gaps-and-islands on the reduced daily spine."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            k = n // 10
            if k < 2:
                continue
            u = np.sort(v)[n - k]            # k-th largest (strict >)
            exc = v > u
            ne = int(exc.sum())
            if ne == 0:
                continue
            days = g["d"].to_numpy("datetime64[D]").astype(np.int64)[exc]
            clusters = int(1 + (np.diff(days) > 2).sum())
            rows.append((et, np.int64(n), np.round(u, 6) + 0.0,
                         np.int64(ne), np.int64(clusters),
                         np.round(clusters / ne, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "threshold", "n_exceed",
                                           "n_clusters", "theta"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_days": "int64", "n_exceed": "int64",
                      "n_clusters": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_EXTREMAL_INDEX = f"""
    WITH daily AS ({_DAILY_SQL}),
    nn AS (
        SELECT event_type, count(*) AS n, count(*) // 10 AS k
        FROM daily GROUP BY 1 HAVING count(*) // 10 >= 2
    ),
    thr AS (
        SELECT d.event_type, nn.n, d.v AS u
        FROM (SELECT event_type, v,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY v DESC) AS rk
              FROM daily) d
        JOIN nn ON nn.event_type = d.event_type AND d.rk = nn.k
    ),
    exc AS (
        SELECT d.event_type, thr.n, thr.u, d.d,
               lag(d.d) OVER (PARTITION BY d.event_type
                              ORDER BY d.d) AS prev
        FROM daily d JOIN thr USING (event_type)
        WHERE d.v > thr.u
    ),
    agg AS (
        SELECT event_type, max(n) AS n, max(u) AS u,
               count(*) AS ne,
               sum(CASE WHEN prev IS NULL
                        OR date_diff('day', prev, d) > 2
                   THEN 1 ELSE 0 END) AS clusters
        FROM exc GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           round(u, 6) + 0.0 AS threshold,
           CAST(ne AS BIGINT) AS n_exceed,
           CAST(clusters AS BIGINT) AS n_clusters,
           round(clusters / CAST(ne AS DOUBLE), 6) + 0.0 AS theta
    FROM agg ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Bayesian A/B posterior, difference-in-differences, Breslow-Day test
# ---------------------------------------------------------------------------

@entry("bayes_ab_weekend", sql=lambda: SQL_BAYES_AB_WEEKEND)
def q_bayes_ab_weekend(sf_dir: str) -> pd.DataFrame:
    """Exact Bayesian A/B posterior P(p_weekend > p_weekday) for the
    purchase share under Beta(1,1) priors (closed-form sum, Cook 2005 /
    Miller 2015, public): P = Σᵢ B(α_wd+i, β_wd+β_we) / ((β_we+i)·
    B(1+i, β_we)·B(α_wd, β_wd)), i < α_we, all terms via lgamma (same
    libm in both engines) — the decision-ready complement of the
    frequentist z-test entries. One 4-cell count reduce; the tail sum is
    margin-bounded algebra."""
    import math

    from forecastframe_ray.stages.agg import hash_aggregate

    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def cells(b: pd.DataFrame) -> pd.DataFrame:
        we = (b["ts"].dt.dayofweek.to_numpy() + 1) >= 6
        pu = (b["event_type"] == "purchase").to_numpy()
        return pd.DataFrame({
            "we_conv": [float((we & pu).sum())],
            "we_n": [float(we.sum())],
            "wd_conv": [float((~we & pu).sum())],
            "wd_n": [float((~we).sum())]})

    s = ev.map_batches(cells, batch_format="pandas").to_pandas().sum()
    a1 = int(s["we_conv"]) + 1          # weekend Beta(a1, b1)
    b1 = int(s["we_n"] - s["we_conv"]) + 1
    a2 = int(s["wd_conv"]) + 1          # weekday Beta(a2, b2)
    b2 = int(s["wd_n"] - s["wd_conv"]) + 1

    def lbeta(x, y):
        return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)

    p = 0.0
    for i in range(a1):
        p += math.exp(lbeta(a2 + i, b1 + b2) - math.log(b1 + i)
                      - lbeta(1 + i, b1) - lbeta(a2, b2))
    return pd.DataFrame({
        "we_conv": pd.array([a1 - 1], dtype="int64"),
        "we_n": pd.array([int(s["we_n"])], dtype="int64"),
        "wd_conv": pd.array([a2 - 1], dtype="int64"),
        "wd_n": pd.array([int(s["wd_n"])], dtype="int64"),
        "p_weekend_better": [np.round(p, 6) + 0.0]})


SQL_BAYES_AB_WEEKEND = """
    WITH cells AS (
        SELECT sum(CASE WHEN isodow(ts) >= 6
                   AND event_type = 'purchase' THEN 1 ELSE 0 END) AS wec,
               sum(CASE WHEN isodow(ts) >= 6 THEN 1 ELSE 0 END) AS wen,
               sum(CASE WHEN isodow(ts) < 6
                   AND event_type = 'purchase' THEN 1 ELSE 0 END) AS wdc,
               sum(CASE WHEN isodow(ts) < 6 THEN 1 ELSE 0 END) AS wdn
        FROM events
    ),
    ab AS (
        SELECT wec, wen, wdc, wdn,
               wec + 1 AS a1, wen - wec + 1 AS b1,
               wdc + 1 AS a2, wdn - wdc + 1 AS b2
        FROM cells
    ),
    terms AS (
        SELECT ab.*,
               exp((lgamma(ab.a2 + i.i) + lgamma(ab.b1 + ab.b2)
                    - lgamma(ab.a2 + i.i + ab.b1 + ab.b2))
                   - ln(ab.b1 + i.i)
                   - (lgamma(1 + i.i) + lgamma(ab.b1)
                      - lgamma(1 + i.i + ab.b1))
                   - (lgamma(ab.a2) + lgamma(ab.b2)
                      - lgamma(ab.a2 + ab.b2))) AS term
        FROM ab JOIN (SELECT unnest(range(0, 1000000)) AS i) i
          ON i.i < ab.a1
    )
    SELECT CAST(wec AS BIGINT) AS we_conv, CAST(wen AS BIGINT) AS we_n,
           CAST(wdc AS BIGINT) AS wd_conv, CAST(wdn AS BIGINT) AS wd_n,
           round(sum(term), 6) + 0.0 AS p_weekend_better
    FROM terms GROUP BY 1, 2, 3, 4
"""


@entry("did_purchase_daily", sql=lambda: SQL_DID_PURCHASE)
def q_did_purchase_daily(sf_dir: str) -> pd.DataFrame:
    """Difference-in-differences (Card & Krueger 1994 design, public) on
    the daily spine: treated = purchase, control = click, periods split at
    the date midpoint — DiD = (ȳ_T,post − ȳ_T,pre) − (ȳ_C,post − ȳ_C,pre)
    with the pooled four-cell normal SE — the parallel-trends causal
    estimate next to the interrupted-time-series entry. One (group ×
    period) moment reduce over the reduced spine."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d").to_pandas()
    sub = daily[daily["event_type"].isin(["purchase", "click"])]
    lo = sub["d"].min()
    hi = sub["d"].max()
    mid = lo + (hi - lo) / 2
    cells = {}
    for (et, post), g in sub.groupby(
            ["event_type", sub["d"] > mid]):
        v = g["v"].to_numpy(np.float64)
        cells[(et, bool(post))] = (len(v), v.mean(),
                                   v.var(ddof=1) if len(v) > 1 else 0.0)
    did = ((cells[("purchase", True)][1] - cells[("purchase", False)][1])
           - (cells[("click", True)][1] - cells[("click", False)][1]))
    se = np.sqrt(sum(c[2] / c[0] for c in cells.values()))
    return pd.DataFrame({
        "n_cells": pd.array([sum(c[0] for c in cells.values())],
                            dtype="int64"),
        "did": [np.round(did, 6) + 0.0],
        "se": [np.round(se, 6) + 0.0],
        "z": [np.round(did / se, 6) + 0.0]})


SQL_DID_PURCHASE = f"""
    WITH daily AS ({_DAILY_SQL}),
    sub AS (
        SELECT * FROM daily
        WHERE event_type IN ('purchase', 'click')
    ),
    mid AS (
        SELECT min(CAST(d AS TIMESTAMP))
               + (max(CAST(d AS TIMESTAMP))
                  - min(CAST(d AS TIMESTAMP))) / 2 AS mid
        FROM sub
    ),
    cell AS (
        SELECT s.event_type, CAST(s.d AS TIMESTAMP) > mid.mid AS post,
               count(*)::DOUBLE AS n, avg(s.v) AS m,
               CASE WHEN count(*) > 1 THEN var_samp(s.v)
                    ELSE 0.0 END AS var
        FROM sub s, mid GROUP BY 1, 2
    ),
    agg AS (
        SELECT sum(n) AS n_cells,
               max(CASE WHEN event_type = 'purchase' AND post
                   THEN m END)
               - max(CASE WHEN event_type = 'purchase' AND NOT post
                     THEN m END)
               - max(CASE WHEN event_type = 'click' AND post
                     THEN m END)
               + max(CASE WHEN event_type = 'click' AND NOT post
                     THEN m END) AS did,
               sqrt(sum(var / n)) AS se
        FROM cell
    )
    SELECT CAST(n_cells AS BIGINT) AS n_cells,
           round(did, 6) + 0.0 AS did, round(se, 6) + 0.0 AS se,
           round(did / se, 6) + 0.0 AS z
    FROM agg
"""


@entry("breslow_day_types", sql=lambda: SQL_BRESLOW_DAY)
def q_breslow_day_types(sf_dir: str) -> pd.DataFrame:
    """Breslow-Day homogeneity test (Breslow & Day 1980, public): is the
    weekend × above-type-median odds ratio CONSTANT across event types?
    Per-stratum expected cell under the Mantel-Haenszel common OR from the
    quadratic root that keeps all four cells positive, X² = Σ(a−E)²/V —
    the stratified-categorical gate before pooling the per-type tables.
    One (type × 4-cell) count reduce; root algebra is identical in both
    engines."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            dow = g["ts"].dt.dayofweek.to_numpy() + 1
            v = g["value"].to_numpy(np.float64)
            med = np.median(v)
            we, hi = dow >= 6, v > med
            rows.append((et, float((we & hi).sum()),
                         float((we & ~hi).sum()),
                         float((~we & hi).sum()),
                         float((~we & ~hi).sum())))
        return pd.DataFrame(rows, columns=["event_type", "a", "b",
                                           "c", "d"])

    t = keyed_map_partitions(ev, ["event_type"], kernel,
                             num_partitions=_NP).to_pandas()
    n = t[["a", "b", "c", "d"]].sum(axis=1).to_numpy(np.float64)
    a, b = t["a"].to_numpy(np.float64), t["b"].to_numpy(np.float64)
    c, d = t["c"].to_numpy(np.float64), t["d"].to_numpy(np.float64)
    # 9dp-pinned: the quadratic root cancels catastrophically when OR≈1,
    # amplifying last-ulp sum-order differences between the engines
    orr = np.round((a * d / n).sum() / (b * c / n).sum(), 9)  # MH OR
    r1, c1 = a + b, a + c
    # (1-OR)E² + [n-r1-c1+OR(r1+c1)]E - OR·r1·c1 = 0
    qa = 1.0 - orr
    qb = n - r1 - c1 + orr * (r1 + c1)
    qc = -orr * r1 * c1
    disc = np.sqrt(qb * qb - 4 * qa * qc)
    e1 = (-qb + disc) / (2 * qa)
    e2 = (-qb - disc) / (2 * qa)
    lo = np.maximum(0.0, r1 + c1 - n)
    hi = np.minimum(r1, c1)
    e = np.where((e1 > lo) & (e1 < hi), e1, e2)
    var = 1.0 / (1.0 / e + 1.0 / (r1 - e) + 1.0 / (c1 - e)
                 + 1.0 / (n - r1 - c1 + e))
    x2 = float(((a - e) ** 2 / var).sum())
    return pd.DataFrame({
        "k_strata": pd.array([len(t)], dtype="int64"),
        "or_mh": [np.round(orr, 6) + 0.0],
        "bd_x2": [np.round(x2, 6) + 0.0]})


SQL_BRESLOW_DAY = """
    WITH med AS (
        SELECT event_type, median(value) AS med
        FROM events GROUP BY 1
    ),
    cells AS (
        SELECT e.event_type,
               sum(CASE WHEN isodow(e.ts) >= 6 AND e.value > m.med
                   THEN 1.0 ELSE 0 END) AS a,
               sum(CASE WHEN isodow(e.ts) >= 6 AND e.value <= m.med
                   THEN 1.0 ELSE 0 END) AS b,
               sum(CASE WHEN isodow(e.ts) < 6 AND e.value > m.med
                   THEN 1.0 ELSE 0 END) AS c,
               sum(CASE WHEN isodow(e.ts) < 6 AND e.value <= m.med
                   THEN 1.0 ELSE 0 END) AS d
        FROM events e JOIN med m USING (event_type)
        GROUP BY 1
    ),
    orr AS (
        SELECT round(sum(a * d / (a + b + c + d))
                     / sum(b * c / (a + b + c + d)), 9) AS orr
        FROM cells
    ),
    q AS (
        SELECT cells.*, orr.orr,
               a + b + c + d AS n, a + b AS r1, a + c AS c1,
               1.0 - orr.orr AS qa,
               (a + b + c + d) - (a + b) - (a + c)
                   + orr.orr * ((a + b) + (a + c)) AS qb,
               -orr.orr * (a + b) * (a + c) AS qc
        FROM cells, orr
    ),
    e AS (
        SELECT *,
               CASE WHEN (-qb + sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
                         > greatest(0.0, r1 + c1 - n)
                     AND (-qb + sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
                         < least(r1, c1)
                    THEN (-qb + sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
                    ELSE (-qb - sqrt(qb * qb - 4 * qa * qc)) / (2 * qa)
               END AS e
        FROM q
    )
    SELECT (SELECT CAST(count(*) AS BIGINT) FROM cells) AS k_strata,
           round(max(orr), 6) + 0.0 AS or_mh,
           round(sum((a - e) * (a - e)
                     * (1.0 / e + 1.0 / (r1 - e) + 1.0 / (c1 - e)
                        + 1.0 / (n - r1 - c1 + e))), 6) + 0.0 AS bd_x2
    FROM e
"""


# ---------------------------------------------------------------------------
# Lomb-Scargle periodogram, Cochrane-Orcutt GLS, Wald IV estimator
# ---------------------------------------------------------------------------

@entry("lomb_scargle_daily", sql=lambda: SQL_LOMB_SCARGLE)
def q_lomb_scargle_daily(sf_dir: str) -> pd.DataFrame:
    """Lomb-Scargle periodogram (Lomb 1976 / Scargle 1982, public) of each
    daily series at periods {2,3,4,5,6,7,10,14} days — the least-squares
    spectral estimate that, unlike the FFT periodogram entry, is exact
    under MISSING days (irregular sampling is the crawl norm). τ-shifted
    form, power normalized by the sample variance (Horne & Baliunas). One
    key-co-located kernel over the reduced spine; the SQL twin evaluates
    identical trig operands."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    PERIODS = (2, 3, 4, 5, 6, 7, 10, 14)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            t = g["d"].to_numpy("datetime64[D]").astype(np.float64)
            t = t - t[0]
            y = g["v"].to_numpy(np.float64)
            n = len(y)
            if n < 4:
                continue
            yc = y - y.mean()
            var = y.var(ddof=1)
            if var <= 0:
                continue
            for p in PERIODS:
                w = 2.0 * np.pi / p
                tau = np.arctan2(np.sin(2 * w * t).sum(),
                                 np.cos(2 * w * t).sum()) / (2 * w)
                ct = np.cos(w * (t - tau))
                st = np.sin(w * (t - tau))
                pw = 0.5 * ((yc * ct).sum() ** 2 / (ct * ct).sum()
                            + (yc * st).sum() ** 2 / (st * st).sum())
                rows.append((et, np.int64(p),
                             np.round(pw / var, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "period",
                                           "power"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["period"] = out["period"].astype("int64")
    return out.sort_values(["event_type", "period"]).reset_index(drop=True)


SQL_LOMB_SCARGLE = f"""
    WITH daily AS ({_DAILY_SQL}),
    base AS (
        SELECT event_type,
               date_diff('day',
                         min(CAST(d AS DATE)) OVER (PARTITION BY
                                                    event_type),
                         CAST(d AS DATE))::DOUBLE AS t,
               v,
               avg(v) OVER (PARTITION BY event_type) AS mu,
               var_samp(v) OVER (PARTITION BY event_type) AS var,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    freq AS (
        SELECT unnest([2, 3, 4, 5, 6, 7, 10, 14]) AS p
    ),
    tau AS (
        SELECT b.event_type, f.p, 2 * pi() / f.p AS w,
               atan2(sum(sin(2 * (2 * pi() / f.p) * b.t)),
                     sum(cos(2 * (2 * pi() / f.p) * b.t)))
                   / (2 * (2 * pi() / f.p)) AS tau,
               max(b.var) AS var, max(b.n) AS n
        FROM base b CROSS JOIN freq f
        GROUP BY 1, 2 HAVING max(b.n) >= 4 AND max(b.var) > 0
    ),
    pw AS (
        SELECT t2.event_type, t2.p,
               0.5 * (pow(sum((b.v - b.mu)
                              * cos(t2.w * (b.t - t2.tau))), 2)
                      / sum(pow(cos(t2.w * (b.t - t2.tau)), 2))
                      + pow(sum((b.v - b.mu)
                                * sin(t2.w * (b.t - t2.tau))), 2)
                      / sum(pow(sin(t2.w * (b.t - t2.tau)), 2)))
                   / max(t2.var) AS power
        FROM tau t2 JOIN base b USING (event_type)
        GROUP BY 1, 2
    )
    SELECT event_type, CAST(p AS BIGINT) AS period,
           round(power, 6) + 0.0 AS power
    FROM pw ORDER BY 1, 2
"""


@entry("cochrane_orcutt_daily", sql=lambda: SQL_COCHRANE_ORCUTT)
def q_cochrane_orcutt_daily(sf_dir: str) -> pd.DataFrame:
    """Cochrane-Orcutt AR(1)-corrected trend regression (Cochrane &
    Orcutt 1949, public): OLS of v on the day index, ρ̂ from the lag-1
    residual autoregression, then re-OLS on the quasi-differenced series
    (yₜ−ρyₜ₋₁ on xₜ−ρxₜ₋₁) — the serial-correlation-honest slope the
    plain OLS entries overstate the precision of. Chained aggregates per
    series over the reduced spine."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            y = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(y)
            if n < 5:
                continue
            x = np.arange(1, n + 1, dtype=np.float64)
            xc, yc = x - x.mean(), y - y.mean()
            b_ols = (xc * yc).sum() / (xc * xc).sum()
            a_ols = y.mean() - b_ols * x.mean()
            e = y - a_ols - b_ols * x
            rho = (e[1:] * e[:-1]).sum() / (e[:-1] * e[:-1]).sum()
            ys = y[1:] - rho * y[:-1]
            xs = x[1:] - rho * x[:-1]
            xsc, ysc = xs - xs.mean(), ys - ys.mean()
            b_co = (xsc * ysc).sum() / (xsc * xsc).sum()
            rows.append((et, np.int64(n), np.round(rho, 6) + 0.0,
                         np.round(b_ols, 6) + 0.0,
                         np.round(b_co, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "rho", "beta_ols",
                                           "beta_co"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_COCHRANE_ORCUTT = f"""
    WITH daily AS ({_DAILY_SQL}),
    base AS (
        SELECT event_type, v,
               row_number() OVER (PARTITION BY event_type ORDER BY d)
                   ::DOUBLE AS x,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    ols AS (
        SELECT event_type, max(n) AS n,
               regr_slope(v, x) AS b, regr_intercept(v, x) AS a
        FROM base GROUP BY 1 HAVING max(n) >= 5
    ),
    res AS (
        SELECT b.event_type, b.x, b.v,
               b.v - ols.a - ols.b * b.x AS e,
               lag(b.v - ols.a - ols.b * b.x)
                   OVER (PARTITION BY b.event_type ORDER BY b.x) AS ep,
               lag(b.v) OVER (PARTITION BY b.event_type
                              ORDER BY b.x) AS vp,
               lag(b.x) OVER (PARTITION BY b.event_type
                              ORDER BY b.x) AS xp
        FROM base b JOIN ols USING (event_type)
    ),
    rho AS (
        SELECT event_type, sum(e * ep) / sum(ep * ep) AS rho
        FROM res WHERE ep IS NOT NULL GROUP BY 1
    ),
    co AS (
        SELECT r.event_type,
               regr_slope(r.v - rho.rho * r.vp,
                          r.x - rho.rho * r.xp) AS b_co
        FROM res r JOIN rho USING (event_type)
        WHERE r.vp IS NOT NULL GROUP BY 1
    )
    SELECT ols.event_type, CAST(ols.n AS BIGINT) AS n_days,
           round(rho.rho, 6) + 0.0 AS rho,
           round(ols.b, 6) + 0.0 AS beta_ols,
           round(co.b_co, 6) + 0.0 AS beta_co
    FROM ols JOIN rho USING (event_type) JOIN co USING (event_type)
    ORDER BY 1
"""


@entry("iv_wald_lineitem", sql=lambda: SQL_IV_WALD)
def q_iv_wald_lineitem(sf_dir: str) -> pd.DataFrame:
    """Wald instrumental-variable estimator (Wald 1940, public) of the
    demand slope: quantity on unit price, instrumented by the part's LIST
    price (cost shifter; cov(z,y)/cov(z,x)) vs the confounded OLS slope
    cov(x,y)/var(x) — the simplest 2SLS, an econometrics staple the plain
    OLS entries cannot replace. Part is the broadcast dim side; moments
    pre-reduce per batch."""
    import ray

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_retailprice"])
    z_map = dict(zip(part.column("p_partkey").to_pylist(),
                     part.column("p_retailprice").to_pylist()))
    z_ref = ray.put(z_map)

    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def mom(b: pd.DataFrame) -> pd.DataFrame:
        zm = ray.get(z_ref)
        y = b["l_quantity"].to_numpy(np.float64)
        x = (b["l_extendedprice"].to_numpy(np.float64) / y)
        z = b["l_partkey"].map(zm).to_numpy(np.float64)
        return pd.DataFrame({
            "n": [float(len(b))], "sx": [x.sum()], "sy": [y.sum()],
            "sz": [z.sum()], "sxx": [(x * x).sum()],
            "sxy": [(x * y).sum()], "szx": [(z * x).sum()],
            "szy": [(z * y).sum()]})

    s = li.map_batches(mom, batch_format="pandas").to_pandas().sum()
    n = s["n"]
    cxy = s["sxy"] - s["sx"] * s["sy"] / n
    cxx = s["sxx"] - s["sx"] * s["sx"] / n
    czx = s["szx"] - s["sz"] * s["sx"] / n
    czy = s["szy"] - s["sz"] * s["sy"] / n
    return pd.DataFrame({
        "n": pd.array([int(n)], dtype="int64"),
        "beta_ols": [np.round(cxy / cxx, 6) + 0.0],
        "beta_iv": [np.round(czy / czx, 6) + 0.0]})


SQL_IV_WALD = """
    WITH base AS (
        SELECT l.l_quantity::DOUBLE AS y,
               l.l_extendedprice / l.l_quantity AS x,
               p.p_retailprice::DOUBLE AS z
        FROM lineitem l JOIN part p ON p.p_partkey = l.l_partkey
    )
    SELECT CAST(count(*) AS BIGINT) AS n,
           round((sum(x * y) - sum(x) * sum(y) / count(*))
                 / (sum(x * x) - sum(x) * sum(x) / count(*)), 6) + 0.0
               AS beta_ols,
           round((sum(z * y) - sum(z) * sum(y) / count(*))
                 / (sum(z * x) - sum(z) * sum(x) / count(*)), 6) + 0.0
               AS beta_iv
    FROM base
"""


# ---------------------------------------------------------------------------
# two-component Gaussian-mixture EM, kNN-graph modularity, Dirichlet-LM IR
# ---------------------------------------------------------------------------

@entry("gmm_em_daily", sql=lambda: SQL_GMM_EM_DAILY)
def q_gmm_em_daily(sf_dir: str) -> pd.DataFrame:
    """Two-component Gaussian mixture fit by 2 unrolled EM steps
    (Dempster, Laird & Rubin 1977, public) per daily series, median-split
    initialization — is the value distribution bimodal (regime mixture)
    rather than the single Gaussian the z-score entries assume? Every step
    is row-level responsibilities + moment aggregates, identical algebra
    in the SQL twin; series where a component degenerates (σ²=0) are
    skipped."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            if n < 8:
                continue
            med = np.median(v)
            z = v > med
            if z.sum() < 2 or (~z).sum() < 2:
                continue
            pi2 = z.mean()
            m1, m2 = v[~z].mean(), v[z].mean()
            s1, s2 = v[~z].var(), v[z].var()
            ok = True
            for _ in range(2):
                if s1 <= 0 or s2 <= 0:
                    ok = False
                    break
                p1 = ((1 - pi2) / np.sqrt(2 * np.pi * s1)
                      * np.exp(-(v - m1) ** 2 / (2 * s1)))
                p2 = (pi2 / np.sqrt(2 * np.pi * s2)
                      * np.exp(-(v - m2) ** 2 / (2 * s2)))
                r = p2 / (p1 + p2)
                pi2 = r.mean()
                m1 = ((1 - r) * v).sum() / (1 - r).sum()
                m2 = (r * v).sum() / r.sum()
                s1 = ((1 - r) * (v - m1) ** 2).sum() / (1 - r).sum()
                s2 = (r * (v - m2) ** 2).sum() / r.sum()
            if not ok or s1 <= 0 or s2 <= 0:
                continue
            p1 = ((1 - pi2) / np.sqrt(2 * np.pi * s1)
                  * np.exp(-(v - m1) ** 2 / (2 * s1)))
            p2 = (pi2 / np.sqrt(2 * np.pi * s2)
                  * np.exp(-(v - m2) ** 2 / (2 * s2)))
            ll = float(np.log(p1 + p2).sum())
            rows.append((et, np.int64(n), np.round(pi2, 6) + 0.0,
                         np.round(m1, 6) + 0.0, np.round(m2, 6) + 0.0,
                         np.round(ll, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "pi2", "mu1", "mu2",
                                           "loglik"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_GMM_EM_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    med AS (SELECT event_type, median(v) AS med, count(*) AS n
            FROM daily GROUP BY 1 HAVING count(*) >= 8),
    init AS (
        SELECT d.event_type, max(med.n) AS n,
               avg(CASE WHEN d.v > med.med THEN 1.0 ELSE 0.0 END)
                   AS pi2,
               avg(d.v) FILTER (WHERE d.v <= med.med) AS m1,
               avg(d.v) FILTER (WHERE d.v > med.med) AS m2,
               var_pop(d.v) FILTER (WHERE d.v <= med.med) AS s1,
               var_pop(d.v) FILTER (WHERE d.v > med.med) AS s2
        FROM daily d JOIN med USING (event_type)
        GROUP BY 1
        HAVING sum(CASE WHEN d.v > med.med THEN 1 ELSE 0 END) >= 2
           AND sum(CASE WHEN d.v <= med.med THEN 1 ELSE 0 END) >= 2
           AND var_pop(d.v) FILTER (WHERE d.v <= med.med) > 0
           AND var_pop(d.v) FILTER (WHERE d.v > med.med) > 0
    ),
    r1 AS (
        SELECT d.event_type, d.v, i.n,
               (i.pi2 / sqrt(2 * pi() * i.s2)
                * exp(-pow(d.v - i.m2, 2) / (2 * i.s2)))
               / ((1 - i.pi2) / sqrt(2 * pi() * i.s1)
                  * exp(-pow(d.v - i.m1, 2) / (2 * i.s1))
                  + i.pi2 / sqrt(2 * pi() * i.s2)
                    * exp(-pow(d.v - i.m2, 2) / (2 * i.s2))) AS r
        FROM daily d JOIN init i USING (event_type)
    ),
    mu1 AS (
        SELECT event_type, max(n) AS n, avg(r) AS pi2,
               sum((1 - r) * v) / sum(1 - r) AS m1,
               sum(r * v) / sum(r) AS m2
        FROM r1 GROUP BY 1
    ),
    par1 AS (
        SELECT r1.event_type, max(mu1.n) AS n, max(mu1.pi2) AS pi2,
               max(mu1.m1) AS m1, max(mu1.m2) AS m2,
               sum((1 - r1.r) * pow(r1.v - mu1.m1, 2))
                   / sum(1 - r1.r) AS s1,
               sum(r1.r * pow(r1.v - mu1.m2, 2)) / sum(r1.r) AS s2
        FROM r1 JOIN mu1 USING (event_type)
        GROUP BY 1
    ),
    r2 AS (
        SELECT d.event_type, d.v, p.n,
               (p.pi2 / sqrt(2 * pi() * p.s2)
                * exp(-pow(d.v - p.m2, 2) / (2 * p.s2)))
               / ((1 - p.pi2) / sqrt(2 * pi() * p.s1)
                  * exp(-pow(d.v - p.m1, 2) / (2 * p.s1))
                  + p.pi2 / sqrt(2 * pi() * p.s2)
                    * exp(-pow(d.v - p.m2, 2) / (2 * p.s2))) AS r
        FROM daily d JOIN par1 p USING (event_type)
        WHERE p.s1 > 0 AND p.s2 > 0
    ),
    mu2 AS (
        SELECT event_type, max(n) AS n, avg(r) AS pi2,
               sum((1 - r) * v) / sum(1 - r) AS m1,
               sum(r * v) / sum(r) AS m2
        FROM r2 GROUP BY 1
    ),
    par2 AS (
        SELECT r2.event_type, max(mu2.n) AS n, max(mu2.pi2) AS pi2,
               max(mu2.m1) AS m1, max(mu2.m2) AS m2,
               sum((1 - r2.r) * pow(r2.v - mu2.m1, 2))
                   / sum(1 - r2.r) AS s1,
               sum(r2.r * pow(r2.v - mu2.m2, 2)) / sum(r2.r) AS s2
        FROM r2 JOIN mu2 USING (event_type)
        GROUP BY 1
    ),
    ll AS (
        SELECT d.event_type, max(p.n) AS n, max(p.pi2) AS pi2,
               max(p.m1) AS m1, max(p.m2) AS m2,
               sum(ln((1 - p.pi2) / sqrt(2 * pi() * p.s1)
                      * exp(-pow(d.v - p.m1, 2) / (2 * p.s1))
                      + p.pi2 / sqrt(2 * pi() * p.s2)
                        * exp(-pow(d.v - p.m2, 2) / (2 * p.s2)))) AS ll
        FROM daily d JOIN par2 p USING (event_type)
        WHERE p.s1 > 0 AND p.s2 > 0
        GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           round(pi2, 6) + 0.0 AS pi2, round(m1, 6) + 0.0 AS mu1,
           round(m2, 6) + 0.0 AS mu2, round(ll, 6) + 0.0 AS loglik
    FROM ll ORDER BY 1
"""


@entry("modularity_knn_embeddings", sql=lambda: SQL_MODULARITY_KNN)
def q_modularity_knn_embeddings(sf_dir: str) -> pd.DataFrame:
    """Newman modularity (Newman & Girvan 2004, public) of the ground-
    truth label partition on the symmetrized 5-NN embedding graph:
    Q = Σ_c [L_c/2m − (K_c/2m)²] — do the labels form graph communities,
    the edge-level complement of the centroid-based silhouette entries.
    Same capped kernel and 9dp distance rounding as the LOF entry; NN
    ties break (distance, vec_id)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        ids_all = part["vec_id"].to_numpy(np.int64)
        h = (ids_all * 2654435761) % 4294967296
        keep = np.lexsort((ids_all, h))[:2000]
        part = part.iloc[keep]
        ids = part["vec_id"].to_numpy(np.int64)
        lab = part["label"].to_numpy(np.int64)
        X = np.stack(part["embedding"].to_numpy()).astype(np.float64)
        n = len(ids)
        d = np.sqrt(_pairwise_d2_rounded(X))
        np.fill_diagonal(d, np.inf)
        K = 5
        # 5 nearest by (distance, vec_id): argsort the composite key
        order = np.lexsort((np.broadcast_to(ids, (n, n)), d), axis=1)
        nbr = order[:, :K]
        src = np.repeat(np.arange(n), K)
        dst = nbr.ravel()
        und = set()
        for i, j in zip(src, dst):
            und.add((min(i, j), max(i, j)))
        m = len(und)
        deg = np.zeros(n, dtype=np.float64)
        intra = {}
        for i, j in und:
            deg[i] += 1
            deg[j] += 1
            if lab[i] == lab[j]:
                intra[lab[i]] = intra.get(lab[i], 0) + 1
        q = 0.0
        for c in np.unique(lab):
            lc = intra.get(c, 0)
            kc = deg[lab == c].sum()
            q += lc / m - (kc / (2.0 * m)) ** 2
        return pd.DataFrame({"n_nodes": [n], "n_edges": [m],
                             "modularity": [np.round(q, 6) + 0.0]})

    out = keyed_map_partitions(
        emb.map_batches(lambda b: b.assign(__g=0), batch_format="pandas"),
        ["__g"], kernel, num_partitions=1).to_pandas()
    return out.astype({"n_nodes": "int64",
                       "n_edges": "int64"}).reset_index(drop=True)


SQL_MODULARITY_KNN = """
    WITH sel AS (
        SELECT vec_id, label FROM embeddings
        ORDER BY (vec_id * 2654435761) % 4294967296, vec_id LIMIT 2000
    ),
    e AS (
        SELECT m.vec_id, generate_subscripts(m.embedding, 1) AS dim,
               CAST(unnest(m.embedding) AS DOUBLE) AS x
        FROM embeddings m JOIN sel USING (vec_id)
    ),
    d AS (
        SELECT a.vec_id AS i, b.vec_id AS j,
               sqrt(round(sum(pow(a.x - b.x, 2)), 9)) AS d
        FROM e a JOIN e b USING (dim)
        WHERE a.vec_id <> b.vec_id
        GROUP BY 1, 2
    ),
    knn AS (
        SELECT i, j
        FROM (SELECT i, j, row_number() OVER (PARTITION BY i
                   ORDER BY d, j) AS rk FROM d)
        WHERE rk <= 5
    ),
    und AS (
        SELECT DISTINCT least(i, j) AS a, greatest(i, j) AS b
        FROM knn
    ),
    m AS (SELECT count(*)::DOUBLE AS m FROM und),
    deg AS (
        SELECT v, count(*)::DOUBLE AS deg
        FROM (SELECT a AS v FROM und UNION ALL SELECT b FROM und)
        GROUP BY 1
    ),
    lab AS (SELECT vec_id, label FROM sel),
    intra AS (
        SELECT la.label, count(*)::DOUBLE AS lc
        FROM und JOIN lab la ON la.vec_id = und.a
        JOIN lab lb ON lb.vec_id = und.b
        WHERE la.label = lb.label
        GROUP BY 1
    ),
    kc AS (
        SELECT lab.label, sum(COALESCE(deg.deg, 0)) AS kc
        FROM lab LEFT JOIN deg ON deg.v = lab.vec_id
        GROUP BY 1
    )
    SELECT (SELECT CAST(count(*) AS BIGINT) FROM sel) AS n_nodes,
           (SELECT CAST(m AS BIGINT) FROM m) AS n_edges,
           round(sum(COALESCE(intra.lc, 0) / m.m
                     - pow(kc.kc / (2 * m.m), 2)), 6) + 0.0
               AS modularity
    FROM kc LEFT JOIN intra USING (label), m
"""


@entry("lm_dirichlet_documents", sql=lambda: SQL_LM_DIRICHLET)
def q_lm_dirichlet_documents(sf_dir: str) -> pd.DataFrame:
    """Dirichlet-smoothed query-likelihood retrieval (Zhai & Lafferty
    2001, public), μ=2000, for the same fixed query as the BM25 entry:
    score(d) = Σ_w ln((c(w,d) + μ·P(w|C))/(|d|+μ)) over docs containing
    ≥1 query term — the language-modeling IR scorer next to the tf-idf
    family. Corpus stats are two tiny aggregates; scoring is one
    vectorized pass."""
    from forecastframe_ray.stages.agg import hash_aggregate

    MU = 2000.0
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def stats(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].str.split()
        dl = toks.str.len().to_numpy(np.float64)
        out = {"t": [dl.sum()]}
        for w in _BM25_TERMS:
            out[f"c_{w}"] = [sum(t.count(w) for t in toks)]
        return pd.DataFrame(out)

    st = docs.map_batches(stats, batch_format="pandas").to_pandas().sum()
    total = float(st["t"])
    pc = {w: float(st[f"c_{w}"]) / total for w in _BM25_TERMS}

    def score(b: pd.DataFrame) -> pd.DataFrame:
        toks = b["text"].str.split()
        dl = toks.str.len().to_numpy(np.float64)
        s = np.zeros(len(b))
        any_hit = np.zeros(len(b), dtype=bool)
        for w in _BM25_TERMS:
            c = np.array([t.count(w) for t in toks], dtype=np.float64)
            any_hit |= c > 0
            s += np.log((c + MU * pc[w]) / (dl + MU))
        return pd.DataFrame({
            "doc_id": b["doc_id"].to_numpy(np.int64)[any_hit],
            "lm_score": np.round(s[any_hit], 6) + 0.0})

    out = docs.map_batches(score, batch_format="pandas").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_LM_DIRICHLET = r"""
    WITH toks AS (
        SELECT doc_id,
               list_filter(string_split_regex(text, '\s+'), x -> x <> '')
                   AS t
        FROM documents
    ),
    dl AS (SELECT doc_id, len(t)::DOUBLE AS dl FROM toks),
    q AS (SELECT unnest(['spark', 'join', 'window']) AS w),
    cnt AS (
        SELECT toks.doc_id, q.w,
               len(list_filter(toks.t, x -> x = q.w))::DOUBLE AS c
        FROM toks CROSS JOIN q
    ),
    corpus AS (
        SELECT w, sum(c) / (SELECT sum(dl) FROM dl) AS pc
        FROM cnt GROUP BY 1
    ),
    sc AS (
        SELECT cnt.doc_id,
               sum(ln((cnt.c + 2000.0 * corpus.pc) / (dl.dl + 2000.0)))
                   AS lm_score,
               max(cnt.c) AS maxc
        FROM cnt JOIN corpus USING (w) JOIN dl USING (doc_id)
        GROUP BY 1
    )
    SELECT doc_id, round(lm_score, 6) + 0.0 AS lm_score
    FROM sc WHERE maxc > 0 ORDER BY doc_id
"""


# ---------------------------------------------------------------------------
# iterative proportional fitting, VaR backtests, Hoeffding's D
# ---------------------------------------------------------------------------

@entry("ipf_type_dow", sql=lambda: SQL_IPF_TYPE_DOW)
def q_ipf_type_dow(sf_dir: str) -> pd.DataFrame:
    """Iterative proportional fitting / raking (Deming & Stephan 1940,
    public), 3 unrolled row/column sweeps: rake the dow × type count
    table to UNIFORM day-of-week margins while preserving the observed
    type margins — the survey-weighting primitive that answers 'what
    would the type mix look like with the weekly cycle removed?'. The
    7×5 table is the reduced spine; both engines run identical scaling
    sweeps."""
    from forecastframe_ray.stages.agg import hash_aggregate

    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def cells(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "dow": b["ts"].dt.dayofweek.to_numpy(np.int64) + 1,
            "event_type": b["event_type"],
            "c": np.ones(len(b))})

    ct = hash_aggregate(ev.map_batches(cells, batch_format="pandas"),
                        ["dow", "event_type"], {"c": ("c", "sum")},
                        num_partitions=_NP).to_pandas()
    piv = ct.pivot_table(index="dow", columns="event_type", values="c",
                         aggfunc="sum", fill_value=0.0).sort_index()
    M = piv.to_numpy(np.float64)
    total = M.sum()
    row_t = total / M.shape[0]          # uniform dow target
    col_t = M.sum(axis=0)               # observed type margins
    for _ in range(3):
        M = M * (row_t / M.sum(axis=1))[:, None]
        M = M * (col_t / M.sum(axis=0))[None, :]
    out = pd.DataFrame(M, index=piv.index, columns=piv.columns) \
        .stack().reset_index()
    out.columns = ["dow", "event_type", "fitted"]
    out["fitted"] = np.round(out["fitted"].to_numpy(np.float64), 6) + 0.0
    out["dow"] = out["dow"].astype("int64")
    return out.sort_values(["dow", "event_type"]).reset_index(drop=True)


SQL_IPF_TYPE_DOW = """
    WITH ct AS (
        SELECT isodow(ts) AS dow, event_type, count(*)::DOUBLE AS c
        FROM events GROUP BY 1, 2
    ),
    t AS (SELECT sum(c) AS total FROM ct),
    colt AS (SELECT event_type, sum(c) AS colt FROM ct GROUP BY 1),
    i1r AS (
        SELECT ct.dow, ct.event_type,
               ct.c * ((SELECT total FROM t) / 7.0)
                   / sum(ct.c) OVER (PARTITION BY ct.dow) AS c
        FROM ct
    ),
    i1c AS (
        SELECT r.dow, r.event_type,
               r.c * colt.colt
                   / sum(r.c) OVER (PARTITION BY r.event_type) AS c
        FROM i1r r JOIN colt USING (event_type)
    ),
    i2r AS (
        SELECT dow, event_type,
               c * ((SELECT total FROM t) / 7.0)
                   / sum(c) OVER (PARTITION BY dow) AS c
        FROM i1c
    ),
    i2c AS (
        SELECT r.dow, r.event_type,
               r.c * colt.colt
                   / sum(r.c) OVER (PARTITION BY r.event_type) AS c
        FROM i2r r JOIN colt USING (event_type)
    ),
    i3r AS (
        SELECT dow, event_type,
               c * ((SELECT total FROM t) / 7.0)
                   / sum(c) OVER (PARTITION BY dow) AS c
        FROM i2c
    ),
    i3c AS (
        SELECT r.dow, r.event_type,
               r.c * colt.colt
                   / sum(r.c) OVER (PARTITION BY r.event_type) AS c
        FROM i3r r JOIN colt USING (event_type)
    )
    SELECT CAST(dow AS BIGINT) AS dow, event_type,
           round(c, 6) + 0.0 AS fitted
    FROM i3c ORDER BY 1, 2
"""


@entry("var_backtest_daily", sql=lambda: SQL_VAR_BACKTEST)
def q_var_backtest_daily(sf_dir: str) -> pd.DataFrame:
    """VaR backtesting per daily series: exceedances of the historical
    5% VaR (the k-th smallest value, k=⌊n/20⌋∨1 — an order statistic both
    engines cut identically) scored with Kupiec's proportion-of-failures
    LR (1995) and Christoffersen's independence LR (1998), LR_cc = their
    sum — the regulatory backtest pair, a risk-management staple. Counts
    and transitions are window algebra on the reduced spine; 0·ln0 terms
    drop by convention in both engines."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    P = 0.05

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            k = max(1, n // 20)
            if n < 10:
                continue
            var_q = np.sort(v)[k - 1]      # k-th smallest
            ex = (v < var_q).astype(np.int64)
            x = int(ex.sum())
            # Kupiec POF
            def xlnY(a, y):
                return a * np.log(y) if a > 0 else 0.0
            lr_pof = -2.0 * (xlnY(n - x, 1 - P) + xlnY(x, P)
                             - xlnY(n - x, 1 - x / n) - xlnY(x, x / n))
            # Christoffersen independence
            a, b2 = ex[:-1], ex[1:]
            n00 = int(((a == 0) & (b2 == 0)).sum())
            n01 = int(((a == 0) & (b2 == 1)).sum())
            n10 = int(((a == 1) & (b2 == 0)).sum())
            n11 = int(((a == 1) & (b2 == 1)).sum())
            pi = (n01 + n11) / (n - 1)
            pi0 = n01 / (n00 + n01) if n00 + n01 > 0 else 0.0
            pi1 = n11 / (n10 + n11) if n10 + n11 > 0 else 0.0
            lr_ind = -2.0 * (xlnY(n00 + n10, 1 - pi)
                             + xlnY(n01 + n11, pi)
                             - xlnY(n00, 1 - pi0) - xlnY(n01, pi0)
                             - xlnY(n10, 1 - pi1) - xlnY(n11, pi1))
            rows.append((et, np.int64(n), np.round(var_q, 6) + 0.0,
                         np.int64(x), np.round(lr_pof, 6) + 0.0,
                         np.round(lr_ind, 6) + 0.0,
                         np.round(lr_pof + lr_ind, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "var_5pct", "n_exceed",
                                           "lr_pof", "lr_ind", "lr_cc"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_days": "int64", "n_exceed": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_VAR_BACKTEST = f"""
    WITH daily AS ({_DAILY_SQL}),
    nn AS (SELECT event_type, count(*) AS n,
                  greatest(count(*) // 20, 1) AS k
           FROM daily GROUP BY 1 HAVING count(*) >= 10),
    thr AS (
        SELECT d.event_type, nn.n, d.v AS var_q
        FROM (SELECT event_type, v,
                     row_number() OVER (PARTITION BY event_type
                                        ORDER BY v) AS rk
              FROM daily) d
        JOIN nn ON nn.event_type = d.event_type AND d.rk = nn.k
    ),
    ex AS (
        SELECT d.event_type, thr.n, thr.var_q, d.d,
               CASE WHEN d.v < thr.var_q THEN 1 ELSE 0 END AS e,
               lag(CASE WHEN d.v < thr.var_q THEN 1 ELSE 0 END)
                   OVER (PARTITION BY d.event_type ORDER BY d.d) AS ep
        FROM daily d JOIN thr USING (event_type)
    ),
    agg AS (
        SELECT event_type, max(n) AS n, max(var_q) AS var_q,
               sum(e) AS x,
               sum(CASE WHEN ep = 0 AND e = 0 THEN 1 ELSE 0 END) AS n00,
               sum(CASE WHEN ep = 0 AND e = 1 THEN 1 ELSE 0 END) AS n01,
               sum(CASE WHEN ep = 1 AND e = 0 THEN 1 ELSE 0 END) AS n10,
               sum(CASE WHEN ep = 1 AND e = 1 THEN 1 ELSE 0 END) AS n11
        FROM ex GROUP BY 1
    ),
    pis AS (
        SELECT *,
               (n01 + n11) / CAST(n - 1 AS DOUBLE) AS pi,
               CASE WHEN n00 + n01 > 0
                    THEN n01 / CAST(n00 + n01 AS DOUBLE)
                    ELSE 0 END AS pi0,
               CASE WHEN n10 + n11 > 0
                    THEN n11 / CAST(n10 + n11 AS DOUBLE)
                    ELSE 0 END AS pi1
        FROM agg
    ),
    lr AS (
        SELECT event_type, n, var_q, x,
               -2.0 * ((CASE WHEN n - x > 0
                        THEN (n - x) * ln(0.95) ELSE 0 END)
                       + (CASE WHEN x > 0 THEN x * ln(0.05)
                          ELSE 0 END)
                       - (CASE WHEN n - x > 0
                          THEN (n - x) * ln(1 - x / CAST(n AS DOUBLE))
                          ELSE 0 END)
                       - (CASE WHEN x > 0
                          THEN x * ln(x / CAST(n AS DOUBLE))
                          ELSE 0 END)) AS lr_pof,
               -2.0 * ((CASE WHEN n00 + n10 > 0
                        THEN (n00 + n10) * ln(1 - pi) ELSE 0 END)
                       + (CASE WHEN n01 + n11 > 0
                          THEN (n01 + n11) * ln(pi) ELSE 0 END)
                       - (CASE WHEN n00 > 0
                          THEN n00 * ln(1 - pi0) ELSE 0 END)
                       - (CASE WHEN n01 > 0
                          THEN n01 * ln(pi0) ELSE 0 END)
                       - (CASE WHEN n10 > 0
                          THEN n10 * ln(1 - pi1) ELSE 0 END)
                       - (CASE WHEN n11 > 0
                          THEN n11 * ln(pi1) ELSE 0 END)) AS lr_ind
        FROM pis
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           round(var_q, 6) + 0.0 AS var_5pct,
           CAST(x AS BIGINT) AS n_exceed,
           round(lr_pof, 6) + 0.0 AS lr_pof,
           round(lr_ind, 6) + 0.0 AS lr_ind,
           round(lr_pof + lr_ind, 6) + 0.0 AS lr_cc
    FROM lr ORDER BY 1
"""


@entry("hoeffding_d_daily", sql=lambda: SQL_HOEFFDING_D)
def q_hoeffding_d_daily(sf_dir: str) -> pd.DataFrame:
    """Hoeffding's D independence statistic (Hoeffding 1948, public)
    between every two daily series on common days, continuous-case form
    with (value, date) tie-broken strict orders so both engines count
    identical concordances: D = 30·[(n−2)(n−3)D₁ + D₂ − 2(n−2)D₃] /
    (n(n−1)(n−2)(n−3)(n−4)) — nonzero against ANY dependence, the
    classical cousin of the distance-correlation entry. The day² counts
    are bounded per pair over the reduced spine."""
    daily = _bucket_series(sf_dir, DAY_US, "d").to_pandas()
    piv = daily.pivot_table(index="d", columns="event_type", values="v",
                            aggfunc="first").sort_index()
    types = sorted(piv.columns)
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            sub = piv[[ta, tb]].dropna()
            n = len(sub)
            if n < 5:
                continue
            dd = sub.index.to_numpy()
            x = sub[ta].to_numpy(np.float64)
            y = sub[tb].to_numpy(np.float64)

            def strict_rank(v):
                order = np.lexsort((dd, v))
                r = np.empty(n, dtype=np.float64)
                r[order] = np.arange(1, n + 1)
                return r

            r = strict_rank(x)
            s = strict_rank(y)
            # Q_i: points strictly below-left in the tie-broken order
            q = ((r[None, :] < r[:, None])
                 & (s[None, :] < s[:, None])).sum(axis=1) + 1.0
            d1 = ((q - 1) * (q - 2)).sum()
            d2 = ((r - 1) * (r - 2) * (s - 1) * (s - 2)).sum()
            d3 = ((r - 2) * (s - 2) * (q - 1)).sum()
            dd_stat = (30.0 * ((n - 2) * (n - 3) * d1 + d2
                               - 2 * (n - 2) * d3)
                       / (n * (n - 1) * (n - 2) * (n - 3) * (n - 4)))
            rows.append((ta, tb, np.int64(n),
                         np.round(dd_stat, 6) + 0.0))
    out = pd.DataFrame(rows, columns=["ta", "tb", "n_common",
                                      "hoeffding_d"])
    out["n_common"] = out["n_common"].astype("int64")
    return out.sort_values(["ta", "tb"]).reset_index(drop=True)


SQL_HOEFFDING_D = f"""
    WITH daily AS ({_DAILY_SQL}),
    common AS (
        SELECT a.event_type AS ta, b.event_type AS tb, a.d,
               a.v AS x, b.v AS y
        FROM daily a JOIN daily b
          ON b.d = a.d AND a.event_type < b.event_type
    ),
    rk AS (
        SELECT ta, tb, d,
               row_number() OVER (PARTITION BY ta, tb
                                  ORDER BY x, d)::DOUBLE AS r,
               row_number() OVER (PARTITION BY ta, tb
                                  ORDER BY y, d)::DOUBLE AS s,
               count(*) OVER (PARTITION BY ta, tb) AS n
        FROM common
    ),
    q AS (
        SELECT a.ta, a.tb, a.d, a.r, a.s, a.n,
               1.0 + sum(CASE WHEN b.r < a.r AND b.s < a.s
                         THEN 1 ELSE 0 END) AS q
        FROM rk a JOIN rk b ON b.ta = a.ta AND b.tb = a.tb
        GROUP BY 1, 2, 3, 4, 5, 6
    ),
    s AS (
        SELECT ta, tb, max(n) AS n,
               sum((q - 1) * (q - 2)) AS d1,
               sum((r - 1) * (r - 2) * (s - 1) * (s - 2)) AS d2,
               sum((r - 2) * (s - 2) * (q - 1)) AS d3
        FROM q GROUP BY 1, 2 HAVING max(n) >= 5
    )
    SELECT ta, tb, CAST(n AS BIGINT) AS n_common,
           round(30.0 * ((n - 2) * (n - 3) * d1 + d2
                         - 2 * (n - 2) * d3)
                 / (n * (n - 1) * (n - 2) * (n - 3) * (n - 4)), 6)
               + 0.0 AS hoeffding_d
    FROM s ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# hash-collision audit, RLE layout analysis, LAD (L1) trend
# ---------------------------------------------------------------------------

@entry("hash_collision_audit", sql=lambda: SQL_HASH_COLLISION_AUDIT)
def q_hash_collision_audit(sf_dir: str) -> pd.DataFrame:
    """Birthday-bound audit of a truncated 16-bit content hash: observed
    collisions (docs − distinct hash values) vs the birthday expectation
    n(n−1)/2^(b+1) — the sizing check run before trusting any fixed-width
    signature (the engine's MinHash band keys, dedup digests). Hash =
    first 4 hex chars of md5(text), identical in both engines; one
    distinct-count shuffle."""
    import hashlib

    from forecastframe_ray.stages.agg import hash_aggregate

    docs = _read(sf_dir, "documents", ["text"])

    def h16(b: pd.DataFrame) -> pd.DataFrame:
        hs = [hashlib.md5(t.encode("utf-8")).hexdigest()[:4]
              for t in b["text"]]
        return pd.DataFrame({"h": hs, "c": np.ones(len(hs),
                                                   dtype=np.int64)})

    counts = hash_aggregate(docs.map_batches(h16, batch_format="pandas"),
                            ["h"], {"c": ("c", "sum")},
                            num_partitions=4).to_pandas()
    n = int(counts["c"].sum())
    distinct = len(counts)
    expected = n * (n - 1) / 2.0 / 65536.0
    return pd.DataFrame({
        "n_docs": pd.array([n], dtype="int64"),
        "hash_bits": pd.array([16], dtype="int64"),
        "observed_collisions": pd.array([n - distinct], dtype="int64"),
        "expected_collisions": [np.round(expected, 6) + 0.0]})


SQL_HASH_COLLISION_AUDIT = """
    WITH h AS (SELECT substr(md5(text), 1, 4) AS h FROM documents),
    s AS (SELECT count(*) AS n, count(DISTINCT h) AS d FROM h)
    SELECT CAST(n AS BIGINT) AS n_docs, CAST(16 AS BIGINT) AS hash_bits,
           CAST(n - d AS BIGINT) AS observed_collisions,
           round(n * (n - 1) / 2.0 / 65536.0, 6) + 0.0
               AS expected_collisions
    FROM s
"""


@entry("rle_layout_events", sql=lambda: SQL_RLE_LAYOUT)
def q_rle_layout_events(sf_dir: str) -> pd.DataFrame:
    """Run-length layout analysis: RLE runs of ``event_type`` within each
    user's (ts, event_type)-ordered stream, corpus-summed, vs the runs
    after per-stream value-sorting (= distinct types per user) — the
    sort-before-encode win every columnar writer (and the engine's
    Gorilla chunker) banks on, quantified as a compression ratio. One
    keyed co-located pass; no global sort needed."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rt = rs = nr = 0
        for uid, g in part.groupby("user_id", sort=False):
            g = g.sort_values(["ts", "event_type"])
            e = g["event_type"].to_numpy()
            rt += int(1 + (e[1:] != e[:-1]).sum())
            rs += int(len(np.unique(e)))
            nr += len(e)
        return pd.DataFrame({"rows": [nr], "runs_ts": [rt],
                             "runs_sorted": [rs]})

    parts = keyed_map_partitions(ev, ["user_id"], kernel,
                                 num_partitions=_NP).to_pandas().sum()
    return pd.DataFrame({
        "n_rows": pd.array([int(parts["rows"])], dtype="int64"),
        "runs_ts": pd.array([int(parts["runs_ts"])], dtype="int64"),
        "runs_sorted": pd.array([int(parts["runs_sorted"])],
                                dtype="int64"),
        "sort_gain": [np.round(parts["runs_ts"]
                               / parts["runs_sorted"], 6) + 0.0]})


SQL_RLE_LAYOUT = """
    WITH s AS (
        SELECT user_id, event_type,
               lag(event_type) OVER (PARTITION BY user_id
                    ORDER BY ts, event_type) AS prev
        FROM events
    ),
    per AS (
        SELECT user_id,
               sum(CASE WHEN prev IS NULL OR prev <> event_type
                   THEN 1 ELSE 0 END) AS runs_ts,
               count(DISTINCT event_type) AS runs_sorted,
               count(*) AS n
        FROM s GROUP BY 1
    )
    SELECT CAST(sum(n) AS BIGINT) AS n_rows,
           CAST(sum(runs_ts) AS BIGINT) AS runs_ts,
           CAST(sum(runs_sorted) AS BIGINT) AS runs_sorted,
           round(sum(runs_ts) / CAST(sum(runs_sorted) AS DOUBLE), 6)
               + 0.0 AS sort_gain
    FROM per
"""


@entry("lad_trend_daily", sql=lambda: SQL_LAD_TREND)
def q_lad_trend_daily(sf_dir: str) -> pd.DataFrame:
    """Least-absolute-deviations (L1 / median-regression) trend per daily
    series by 3 unrolled IRLS steps from the OLS start, weights
    1/max(|r|, 1e−6) (Schlossmacher 1973, public) — the outlier-immune
    slope between the OLS entries and the rank-based Theil-Sen one, and
    the third GLM-IRLS family member (Poisson, logistic, L1). Identical
    weighted normal equations in both engines."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            y = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(y)
            if n < 5:
                continue
            x = np.arange(1, n + 1, dtype=np.float64)
            xc = x - x.mean()
            b = (xc * (y - y.mean())).sum() / (xc * xc).sum()
            a = y.mean() - b * x.mean()
            b_ols = b
            for _ in range(3):
                # |r| is 6dp-rounded before the reciprocal: a residual
                # near zero otherwise amplifies last-ulp engine
                # differences by ~1/|r|
                w = 1.0 / np.maximum(np.round(np.abs(y - a - b * x), 6),
                                     1e-6)
                sw, st = w.sum(), (w * x).sum()
                stt = (w * x * x).sum()
                sy, sty = (w * y).sum(), (w * x * y).sum()
                b = (sw * sty - st * sy) / (sw * stt - st * st)
                a = (sy - b * st) / sw
            rows.append((et, np.int64(n), np.round(b_ols, 6) + 0.0,
                         np.round(b, 6) + 0.0, np.round(a, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "beta_ols", "beta_lad",
                                           "alpha_lad"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_LAD_TREND = f"""
    WITH daily AS ({_DAILY_SQL}),
    base AS (
        SELECT event_type, v,
               row_number() OVER (PARTITION BY event_type ORDER BY d)
                   ::DOUBLE AS x,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    ols AS (
        SELECT event_type, max(n) AS n, regr_slope(v, x) AS b,
               regr_intercept(v, x) AS a
        FROM base GROUP BY 1 HAVING max(n) >= 5
    ),
    it1 AS (
        SELECT b.event_type, max(o.n) AS n, max(o.b) AS b_ols,
               (sum(w) * sum(w * x * v) - sum(w * x) * sum(w * v))
               / (sum(w) * sum(w * x * x)
                  - sum(w * x) * sum(w * x)) AS bn,
               sum(w * v) AS sy, sum(w * x) AS st, sum(w) AS sw
        FROM (SELECT base.*, o.n AS onn, o.b AS ob,
                     1.0 / greatest(round(abs(v - o.a - o.b * x), 6), 1e-6) AS w
              FROM base JOIN ols o USING (event_type)) b
        JOIN ols o USING (event_type)
        GROUP BY 1
    ),
    c1 AS (SELECT event_type, n, b_ols, bn AS b,
                  (sy - bn * st) / sw AS a FROM it1),
    it2 AS (
        SELECT b.event_type, max(c.n) AS n, max(c.b_ols) AS b_ols,
               (sum(w) * sum(w * x * v) - sum(w * x) * sum(w * v))
               / (sum(w) * sum(w * x * x)
                  - sum(w * x) * sum(w * x)) AS bn,
               sum(w * v) AS sy, sum(w * x) AS st, sum(w) AS sw
        FROM (SELECT base.*,
                     1.0 / greatest(round(abs(v - c1.a - c1.b * x), 6), 1e-6) AS w
              FROM base JOIN c1 USING (event_type)) b
        JOIN c1 c USING (event_type)
        GROUP BY 1
    ),
    c2 AS (SELECT event_type, n, b_ols, bn AS b,
                  (sy - bn * st) / sw AS a FROM it2),
    it3 AS (
        SELECT b.event_type, max(c.n) AS n, max(c.b_ols) AS b_ols,
               (sum(w) * sum(w * x * v) - sum(w * x) * sum(w * v))
               / (sum(w) * sum(w * x * x)
                  - sum(w * x) * sum(w * x)) AS bn,
               sum(w * v) AS sy, sum(w * x) AS st, sum(w) AS sw
        FROM (SELECT base.*,
                     1.0 / greatest(round(abs(v - c2.a - c2.b * x), 6), 1e-6) AS w
              FROM base JOIN c2 USING (event_type)) b
        JOIN c2 c USING (event_type)
        GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           round(b_ols, 6) + 0.0 AS beta_ols,
           round(bn, 6) + 0.0 AS beta_lad,
           round((sy - bn * st) / sw, 6) + 0.0 AS alpha_lad
    FROM it3 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Kalman local-level filter, Deming regression, Bland-Altman agreement
# ---------------------------------------------------------------------------

@entry("kalman_level_daily", sql=lambda: SQL_KALMAN_LEVEL)
def q_kalman_level_daily(sf_dir: str) -> pd.DataFrame:
    """Local-level Kalman filter (Kalman 1960; Harvey 1989 form, public)
    per daily series with moment-pinned hyperparameters r = Var(v), q =
    0.1·r (both 6dp-rounded so the recursions run on identical operands):
    predict P←P+q, gain K = P/(P+r), update m←m+K(v−m) — the state-space
    smoother underlying every structural forecast. The engine scan is a
    key-co-located sequential kernel; the SQL twin drives the SAME
    recursion through a recursive CTE, step-for-step."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            if n < 5:
                continue
            r = np.round(v.var(), 6)
            if r <= 0:
                continue
            q = np.round(0.1 * r, 6)
            m, p = v[0], r
            innov_ss = 0.0
            for t in range(1, n):
                pp = p + q
                k = pp / (pp + r)
                innov = v[t] - m
                innov_ss += innov * innov
                m = m + k * innov
                p = (1 - k) * pp
            rows.append((et, np.int64(n), r + 0.0, q + 0.0,
                         np.round(m, 6) + 0.0, np.round(p, 6) + 0.0,
                         np.round(innov_ss, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days", "r",
                                           "q", "level", "p_var",
                                           "innov_ss"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_KALMAN_LEVEL = f"""
    WITH RECURSIVE daily AS ({_DAILY_SQL}),
    hp AS (
        SELECT event_type, count(*) AS n, round(var_pop(v), 6) AS r,
               round(0.1 * round(var_pop(v), 6), 6) AS q
        FROM daily GROUP BY 1
        HAVING count(*) >= 5 AND round(var_pop(v), 6) > 0
    ),
    base AS (
        SELECT d.event_type, hp.n, hp.r, hp.q, d.v,
               row_number() OVER (PARTITION BY d.event_type
                                  ORDER BY d.d) AS rn
        FROM daily d JOIN hp USING (event_type)
    ),
    kf AS (
        SELECT event_type, n, r, q, rn, v,
               v AS m, r AS p, CAST(0.0 AS DOUBLE) AS innov_ss
        FROM base WHERE rn = 1
        UNION ALL
        SELECT b.event_type, b.n, b.r, b.q, b.rn, b.v,
               kf.m + ((kf.p + kf.q) / (kf.p + kf.q + kf.r))
                   * (b.v - kf.m) AS m,
               (1 - (kf.p + kf.q) / (kf.p + kf.q + kf.r))
                   * (kf.p + kf.q) AS p,
               kf.innov_ss + (b.v - kf.m) * (b.v - kf.m) AS innov_ss
        FROM kf JOIN base b
          ON b.event_type = kf.event_type AND b.rn = kf.rn + 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           r + 0.0 AS r, q + 0.0 AS q,
           round(m, 6) + 0.0 AS level, round(p, 6) + 0.0 AS p_var,
           round(innov_ss, 6) + 0.0 AS innov_ss
    FROM kf WHERE rn = n ORDER BY 1
"""


@entry("deming_purchase_click", sql=lambda: SQL_DEMING_PURCHASE_CLICK)
def q_deming_purchase_click(sf_dir: str) -> pd.DataFrame:
    """Deming errors-in-variables regression (Deming 1943, public, λ=1)
    of the purchase daily series on the click one over common days:
    β = (s_yy−s_xx+√((s_yy−s_xx)²+4s_xy²))/(2s_xy) — the symmetric fit
    when BOTH series carry noise, which plain OLS attenuates. One moment
    reduce over the paired spine."""
    daily = _bucket_series(sf_dir, DAY_US, "d").to_pandas()
    piv = daily.pivot_table(index="d", columns="event_type", values="v",
                            aggfunc="first").sort_index()
    sub = piv[["click", "purchase"]].dropna()
    x = sub["click"].to_numpy(np.float64)
    y = sub["purchase"].to_numpy(np.float64)
    n = len(x)
    sxx = ((x - x.mean()) ** 2).sum() / (n - 1)
    syy = ((y - y.mean()) ** 2).sum() / (n - 1)
    sxy = ((x - x.mean()) * (y - y.mean())).sum() / (n - 1)
    beta = (syy - sxx + np.sqrt((syy - sxx) ** 2 + 4 * sxy * sxy)) \
        / (2 * sxy)
    beta_ols = sxy / sxx
    return pd.DataFrame({
        "n_common": pd.array([n], dtype="int64"),
        "beta_ols": [np.round(beta_ols, 6) + 0.0],
        "beta_deming": [np.round(beta, 6) + 0.0],
        "alpha_deming": [np.round(y.mean() - beta * x.mean(), 6) + 0.0]})


SQL_DEMING_PURCHASE_CLICK = f"""
    WITH daily AS ({_DAILY_SQL}),
    pair AS (
        SELECT a.v AS x, b.v AS y
        FROM daily a JOIN daily b ON b.d = a.d
        WHERE a.event_type = 'click' AND b.event_type = 'purchase'
    ),
    s AS (
        SELECT count(*) AS n, var_samp(x) AS sxx, var_samp(y) AS syy,
               covar_samp(x, y) AS sxy, avg(x) AS mx, avg(y) AS my
        FROM pair
    )
    SELECT CAST(n AS BIGINT) AS n_common,
           round(sxy / sxx, 6) + 0.0 AS beta_ols,
           round((syy - sxx + sqrt(pow(syy - sxx, 2) + 4 * sxy * sxy))
                 / (2 * sxy), 6) + 0.0 AS beta_deming,
           round(my - (syy - sxx + sqrt(pow(syy - sxx, 2)
                                        + 4 * sxy * sxy))
                      / (2 * sxy) * mx, 6) + 0.0 AS alpha_deming
    FROM s
"""


@entry("bland_altman_purchase_click", sql=lambda: SQL_BLAND_ALTMAN)
def q_bland_altman_purchase_click(sf_dir: str) -> pd.DataFrame:
    """Bland-Altman agreement analysis (Bland & Altman 1986, public)
    between the standardized purchase and click daily series: mean
    difference (bias) ± 1.96·sd limits of agreement and the share of
    days outside them — the method-comparison summary a correlation
    cannot replace (perfectly correlated series can still disagree).
    Series are z-scored per type first so the comparison is scale-free."""
    daily = _bucket_series(sf_dir, DAY_US, "d").to_pandas()
    piv = daily.pivot_table(index="d", columns="event_type", values="v",
                            aggfunc="first").sort_index()
    sub = piv[["click", "purchase"]].dropna()

    def z(v):
        v = v.to_numpy(np.float64)
        return (v - v.mean()) / v.std(ddof=1)

    d = z(sub["purchase"]) - z(sub["click"])
    n = len(d)
    bias = d.mean()
    sd = d.std(ddof=1)
    lo, hi = bias - 1.96 * sd, bias + 1.96 * sd
    outside = int(((d < lo) | (d > hi)).sum())
    return pd.DataFrame({
        "n_common": pd.array([n], dtype="int64"),
        "bias": [np.round(bias, 6) + 0.0],
        "loa_lo": [np.round(lo, 6) + 0.0],
        "loa_hi": [np.round(hi, 6) + 0.0],
        "n_outside": pd.array([outside], dtype="int64")})


SQL_BLAND_ALTMAN = f"""
    WITH daily AS ({_DAILY_SQL}),
    pair AS (
        SELECT a.d, a.v AS x, b.v AS y
        FROM daily a JOIN daily b ON b.d = a.d
        WHERE a.event_type = 'click' AND b.event_type = 'purchase'
    ),
    mo AS (
        SELECT avg(x) AS mx, stddev_samp(x) AS sx,
               avg(y) AS my, stddev_samp(y) AS sy
        FROM pair
    ),
    d AS (
        SELECT (p.y - mo.my) / mo.sy - (p.x - mo.mx) / mo.sx AS d
        FROM pair p, mo
    ),
    s AS (
        SELECT count(*) AS n, avg(d) AS bias, stddev_samp(d) AS sd
        FROM d
    )
    SELECT CAST(s.n AS BIGINT) AS n_common,
           round(s.bias, 6) + 0.0 AS bias,
           round(s.bias - 1.96 * s.sd, 6) + 0.0 AS loa_lo,
           round(s.bias + 1.96 * s.sd, 6) + 0.0 AS loa_hi,
           (SELECT CAST(count(*) AS BIGINT) FROM d, s
            WHERE d.d < s.bias - 1.96 * s.sd
               OR d.d > s.bias + 1.96 * s.sd) AS n_outside
    FROM s
"""


# ---------------------------------------------------------------------------
# isotonic regression, Savitzky-Golay smoothing, sequence irreversibility
# ---------------------------------------------------------------------------

@entry("isotonic_fit_daily", sql=lambda: SQL_ISOTONIC_FIT)
def q_isotonic_fit_daily(sf_dir: str) -> pd.DataFrame:
    """Isotonic (monotone non-decreasing) regression of each daily series
    on time via pool-adjacent-violators (Ayer et al. 1955 / Barlow et al.
    1972, public) — the shape-constrained fit behind every calibration
    curve. The engine runs the O(n) PAVA scan per series; the SQL twin
    evaluates the equivalent minimax form fitᵢ = max_{j≤i} min_{k≥i}
    mean(v[j..k]) (Robertson et al. 1988) — identical values, two
    classical constructions. Output 6dp-rounded fits."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            # PAVA: pools as (sum, count) merged while decreasing
            sums, cnts = [], []
            for x in v:
                sums.append(x)
                cnts.append(1)
                while len(sums) > 1 and \
                        sums[-2] / cnts[-2] > sums[-1] / cnts[-1]:
                    sums[-2] += sums[-1]
                    cnts[-2] += cnts[-1]
                    sums.pop()
                    cnts.pop()
            fit = np.concatenate([np.full(c, s / c)
                                  for s, c in zip(sums, cnts)])
            outs.append(pd.DataFrame({
                "event_type": et, "d": g["d"].to_numpy(),
                "fit": np.round(fit, 6) + 0.0}))
        return pd.concat(outs) if outs else \
            pd.DataFrame({"event_type": pd.Series([], dtype="object"),
                          "d": pd.Series([], dtype="datetime64[ns]"),
                          "fit": pd.Series([], dtype="float64")})

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_ISOTONIC_FIT = f"""
    WITH daily AS ({_DAILY_SQL}),
    s AS (
        SELECT event_type, d, v,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY d) AS rn
        FROM daily
    ),
    iv AS (  -- every contiguous-interval mean per series
        SELECT a.event_type, a.rn AS j, b.rn AS k,
               (sum(c.v)) / (b.rn - a.rn + 1) AS m
        FROM s a
        JOIN s b ON b.event_type = a.event_type AND b.rn >= a.rn
        JOIN s c ON c.event_type = a.event_type
                AND c.rn BETWEEN a.rn AND b.rn
        GROUP BY 1, 2, 3
    ),
    inner_min AS (  -- per (i, j≤i): min over k ≥ i
        SELECT p.event_type, p.rn AS i, iv.j, min(iv.m) AS mn
        FROM s p JOIN iv ON iv.event_type = p.event_type
                        AND iv.j <= p.rn AND iv.k >= p.rn
        GROUP BY 1, 2, 3
    ),
    fit AS (
        SELECT event_type, i, max(mn) AS fit
        FROM inner_min GROUP BY 1, 2
    )
    SELECT s.event_type, s.d, round(fit.fit, 6) + 0.0 AS fit
    FROM s JOIN fit ON fit.event_type = s.event_type AND fit.i = s.rn
    ORDER BY 1, 2
"""


@entry("savgol_daily", sql=lambda: SQL_SAVGOL_DAILY)
def q_savgol_daily(sf_dir: str) -> pd.DataFrame:
    """Savitzky-Golay smoothing (Savitzky & Golay 1964, public): the
    quadratic 5-point least-squares convolution (−3,12,17,12,−3)/35 over
    each daily series — the derivative-preserving smoother a plain moving
    average is not (peaks keep their height). Interior points only; one
    keyed window pass mirrored by LAG/LEAD algebra."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    C = np.array([-3.0, 12.0, 17.0, 12.0, -3.0]) / 35.0

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            if n < 5:
                continue
            sm = (C[0] * v[:-4] + C[1] * v[1:-3] + C[2] * v[2:-2]
                  + C[3] * v[3:-1] + C[4] * v[4:])
            outs.append(pd.DataFrame({
                "event_type": et, "d": g["d"].to_numpy()[2:-2],
                "v": v[2:-2], "savgol": np.round(sm, 6) + 0.0}))
        return pd.concat(outs) if outs else \
            pd.DataFrame({"event_type": pd.Series([], dtype="object"),
                          "d": pd.Series([], dtype="datetime64[ns]"),
                          "v": pd.Series([], dtype="float64"),
                          "savgol": pd.Series([], dtype="float64")})

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_SAVGOL_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (
        SELECT event_type, d, v,
               lag(v, 2) OVER win AS m2, lag(v, 1) OVER win AS m1,
               lead(v, 1) OVER win AS p1, lead(v, 2) OVER win AS p2
        FROM daily WINDOW win AS (PARTITION BY event_type ORDER BY d)
    )
    SELECT event_type, d, v,
           round((-3.0 / 35.0) * m2 + (12.0 / 35.0) * m1
                 + (17.0 / 35.0) * v + (12.0 / 35.0) * p1
                 + (-3.0 / 35.0) * p2, 6) + 0.0 AS savgol
    FROM w
    WHERE m2 IS NOT NULL AND p2 IS NOT NULL
    ORDER BY 1, 2
"""


@entry("irreversibility_events", sql=lambda: SQL_IRREVERSIBILITY)
def q_irreversibility_events(sf_dir: str) -> pd.DataFrame:
    """Time-reversal asymmetry of each user's event-type stream, corpus-
    pooled: KL(forward ‖ backward) over transition frequencies (backward
    count of a→b = forward count of b→a) restricted to pairs observed in
    both directions — a positive entropy-production proxy (Roldán &
    Parrondo 2010, public) meaning the process is directional, not
    shuffle-equivalent. Per-user co-located transition counts, one tiny
    divergence reduce."""
    from forecastframe_ray.stages.agg import hash_aggregate, \
        keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def trans(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for uid, g in part.groupby("user_id", sort=False):
            g = g.sort_values(["ts", "event_type"])
            e = g["event_type"].to_numpy()
            if len(e) < 2:
                continue
            outs.append(pd.DataFrame({"a": e[:-1], "b": e[1:]}))
        if not outs:
            return pd.DataFrame({"a": pd.Series([], dtype="object"),
                                 "b": pd.Series([], dtype="object"),
                                 "c": pd.Series([], dtype="int64")})
        t = pd.concat(outs)
        t = t.groupby(["a", "b"], sort=False, as_index=False).size()
        return t.rename(columns={"size": "c"})

    ct = hash_aggregate(
        keyed_map_partitions(ev, ["user_id"], trans,
                             num_partitions=_NP),
        ["a", "b"], {"c": ("c", "sum")}, num_partitions=4).to_pandas()
    fwd = {(r["a"], r["b"]): r["c"] for _, r in ct.iterrows()}
    total = float(sum(fwd.values()))
    kl = 0.0
    n_pairs = 0
    for (a, b), c in sorted(fwd.items()):
        rb = fwd.get((b, a))
        if rb:
            kl += c / total * np.log(c / rb)
            n_pairs += 1
    return pd.DataFrame({
        "n_transitions": pd.array([int(total)], dtype="int64"),
        "n_pairs_both": pd.array([n_pairs], dtype="int64"),
        "kl_fwd_bwd": [np.round(kl, 6) + 0.0]})


SQL_IRREVERSIBILITY = """
    WITH s AS (
        SELECT user_id, event_type AS a,
               lead(event_type) OVER (PARTITION BY user_id
                    ORDER BY ts, event_type) AS b
        FROM events
    ),
    fwd AS (
        SELECT a, b, count(*)::DOUBLE AS c
        FROM s WHERE b IS NOT NULL GROUP BY 1, 2
    ),
    tot AS (SELECT sum(c) AS t FROM fwd),
    j AS (
        SELECT f.a, f.b, f.c, r.c AS rc
        FROM fwd f JOIN fwd r ON r.a = f.b AND r.b = f.a
    )
    SELECT (SELECT CAST(sum(c) AS BIGINT) FROM fwd) AS n_transitions,
           CAST(count(*) AS BIGINT) AS n_pairs_both,
           round(sum(j.c / tot.t * ln(j.c / j.rc)), 6) + 0.0
               AS kl_fwd_bwd
    FROM j, tot GROUP BY tot.t
"""


# ---------------------------------------------------------------------------
# Viterbi 2-state HMM, German-tank estimator, Lindley waiting times
# ---------------------------------------------------------------------------

@entry("viterbi_hmm_daily", sql=lambda: SQL_VITERBI_HMM)
def q_viterbi_hmm_daily(sf_dir: str) -> pd.DataFrame:
    """Viterbi decoding (Viterbi 1967, public) of a 2-state Gaussian HMM
    per daily series — low/high regimes with moment-pinned emissions
    (μ₁/μ₂ from the median split, shared σ, each 6dp-rounded so both
    engines recurse on identical operands), sticky transitions
    P(stay)=0.9. Reports the Viterbi path's log-probability and final
    state — the max-product regime detector next to the (sum-product-
    free) changepoint entries. Engine scan per series; SQL twin is the
    same recursion in a recursive CTE."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    LSTAY, LSW = np.log(0.9), np.log(0.1)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            if n < 5:
                continue
            med = np.median(v)
            if (v <= med).sum() < 2 or (v > med).sum() < 2:
                continue
            mu1 = np.round(v[v <= med].mean(), 6)
            mu2 = np.round(v[v > med].mean(), 6)
            sd = np.round(v.std(), 6)
            if sd <= 0:
                continue
            lc = -np.log(sd * np.sqrt(2 * np.pi))

            def e(x, mu):
                return lc - (x - mu) ** 2 / (2 * sd * sd)

            d1 = np.log(0.5) + e(v[0], mu1)
            d2 = np.log(0.5) + e(v[0], mu2)
            for t in range(1, n):
                nd1 = e(v[t], mu1) + max(d1 + LSTAY, d2 + LSW)
                nd2 = e(v[t], mu2) + max(d2 + LSTAY, d1 + LSW)
                d1, d2 = nd1, nd2
            state = 1 if d1 >= d2 else 2
            rows.append((et, np.int64(n), mu1 + 0.0, mu2 + 0.0,
                         np.int64(state),
                         np.round(max(d1, d2), 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "mu_lo", "mu_hi",
                                           "final_state",
                                           "viterbi_logp"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_days": "int64", "final_state": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_VITERBI_HMM = f"""
    WITH RECURSIVE daily AS ({_DAILY_SQL}),
    med AS (SELECT event_type, median(v) AS med, count(*) AS n
            FROM daily GROUP BY 1 HAVING count(*) >= 5),
    par AS (
        SELECT d.event_type, max(med.n) AS n,
               round(avg(d.v) FILTER (WHERE d.v <= med.med), 6) AS mu1,
               round(avg(d.v) FILTER (WHERE d.v > med.med), 6) AS mu2,
               round(sqrt(var_pop(d.v)), 6) AS sd
        FROM daily d JOIN med USING (event_type)
        GROUP BY 1
        HAVING sum(CASE WHEN d.v <= med.med THEN 1 ELSE 0 END) >= 2
           AND sum(CASE WHEN d.v > med.med THEN 1 ELSE 0 END) >= 2
           AND round(sqrt(var_pop(d.v)), 6) > 0
    ),
    base AS (
        SELECT d.event_type, p.n, p.mu1, p.mu2, p.sd, d.v,
               row_number() OVER (PARTITION BY d.event_type
                                  ORDER BY d.d) AS rn
        FROM daily d JOIN par p USING (event_type)
    ),
    vit AS (
        SELECT event_type, n, mu1, mu2, sd, rn,
               ln(0.5) - ln(sd * sqrt(2 * pi()))
                   - pow(v - mu1, 2) / (2 * sd * sd) AS d1,
               ln(0.5) - ln(sd * sqrt(2 * pi()))
                   - pow(v - mu2, 2) / (2 * sd * sd) AS d2
        FROM base WHERE rn = 1
        UNION ALL
        SELECT b.event_type, b.n, b.mu1, b.mu2, b.sd, b.rn,
               -ln(b.sd * sqrt(2 * pi()))
                   - pow(b.v - b.mu1, 2) / (2 * b.sd * b.sd)
                   + greatest(vit.d1 + ln(0.9), vit.d2 + ln(0.1)) AS d1,
               -ln(b.sd * sqrt(2 * pi()))
                   - pow(b.v - b.mu2, 2) / (2 * b.sd * b.sd)
                   + greatest(vit.d2 + ln(0.9), vit.d1 + ln(0.1)) AS d2
        FROM vit JOIN base b
          ON b.event_type = vit.event_type AND b.rn = vit.rn + 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           mu1 + 0.0 AS mu_lo, mu2 + 0.0 AS mu_hi,
           CAST(CASE WHEN d1 >= d2 THEN 1 ELSE 2 END AS BIGINT)
               AS final_state,
           round(greatest(d1, d2), 6) + 0.0 AS viterbi_logp
    FROM vit WHERE rn = n ORDER BY 1
"""


@entry("german_tank_orders", sql=lambda: SQL_GERMAN_TANK)
def q_german_tank_orders(sf_dir: str) -> pd.DataFrame:
    """Serial-number (German tank) population estimate (public, the
    classic frequentist UMVU form): from the k=20 smallest md5-hashed
    order keys — a deterministic simple random sample — estimate the key
    ceiling as N̂ = m(1 + 1/k) − 1 with m = the sample max, vs the true
    max — the sampling-theory sanity check for ID-space sizing. One
    local-top-k sample pass + one max reduce."""
    orders = _read(sf_dir, "orders", ["o_orderkey"])
    K = 20

    def cand(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["o_orderkey"].to_numpy(np.int64)
        h = (ids * 2654435761) % 4294967296
        k = np.lexsort((ids, h))[:K]
        mx = pd.DataFrame({"o_orderkey": ids[k], "h": h[k],
                           "mx": np.full(len(k), ids.max())})
        return mx

    c = orders.map_batches(cand, batch_format="pandas").to_pandas()
    true_max = int(c["mx"].max())
    samp = c.sort_values(["h", "o_orderkey"]).head(K)
    m = int(samp["o_orderkey"].max())
    est = m * (1.0 + 1.0 / K) - 1.0
    return pd.DataFrame({
        "k": pd.array([K], dtype="int64"),
        "sample_max": pd.array([m], dtype="int64"),
        "estimate": [np.round(est, 6) + 0.0],
        "true_max": pd.array([true_max], dtype="int64")})


SQL_GERMAN_TANK = """
    WITH samp AS (
        SELECT o_orderkey FROM orders
        ORDER BY (o_orderkey * 2654435761) % 4294967296, o_orderkey
        LIMIT 20
    ),
    s AS (SELECT max(o_orderkey) AS m FROM samp),
    t AS (SELECT max(o_orderkey) AS mx FROM orders)
    SELECT CAST(20 AS BIGINT) AS k, CAST(s.m AS BIGINT) AS sample_max,
           round(s.m * (1.0 + 1.0 / 20) - 1.0, 6) + 0.0 AS estimate,
           CAST(t.mx AS BIGINT) AS true_max
    FROM s, t
"""


@entry("lindley_wait_users", sql=lambda: SQL_LINDLEY_WAIT)
def q_lindley_wait_users(sf_dir: str) -> pd.DataFrame:
    """Lindley waiting-time recursion (Lindley 1952, public) over each
    user's event stream as a single-server queue: Wₙ₊₁ = max(0, Wₙ + c −
    Aₙ) with deterministic service c = 0.8 × the corpus mean per-user
    interarrival (6dp-pinned, ρ=0.8) — how much latency a per-user worker
    accumulates under burst arrivals, the queueing complement of the
    debounce/sessionize entries. Streams are user-co-located; the SQL
    twin runs the identical recursion per user in a recursive CTE."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def gaps(part: pd.DataFrame) -> pd.DataFrame:
        s = g = 0.0
        for uid, grp in part.groupby("user_id", sort=False):
            t = np.sort(grp["ts"].astype("int64").to_numpy())
            if len(t) > 1:
                s += float(np.diff(t).sum()) / 1e6
                g += len(t) - 1
        return pd.DataFrame({"s": [s], "g": [g]})

    gp = keyed_map_partitions(ev, ["user_id"], gaps,
                              num_partitions=_NP).to_pandas().sum()
    c = np.round(0.8 * gp["s"] / gp["g"], 6)

    def waits(part: pd.DataFrame) -> pd.DataFrame:
        tot_w = 0.0
        n_pos = n_w = 0
        mx = 0.0
        for uid, grp in part.groupby("user_id", sort=False):
            t = np.sort(grp["ts"].astype("int64").to_numpy())
            if len(t) < 2:
                continue
            w = 0.0
            # diff in µs first, divide once: matches the SQL twin's
            # (e2−e1)/1e6 bit-for-bit, which the max(0,·) threshold needs
            for a in np.diff(t).astype(np.float64) / 1e6:
                w = max(0.0, w + c - a)
                tot_w += w
                n_pos += w > 0
                n_w += 1
                mx = max(mx, w)
        return pd.DataFrame({"tw": [tot_w], "np": [n_pos],
                             "nw": [n_w], "mx": [mx]})

    wp = keyed_map_partitions(ev, ["user_id"], waits,
                              num_partitions=_NP).to_pandas()
    n_w = int(wp["nw"].sum())
    return pd.DataFrame({
        "n_waits": pd.array([n_w], dtype="int64"),
        "service_s": [c + 0.0],
        "mean_wait_s": [np.round(wp["tw"].sum() / n_w, 6) + 0.0],
        "max_wait_s": [np.round(wp["mx"].max(), 6) + 0.0],
        "p_wait_pos": [np.round(wp["np"].sum() / n_w, 6) + 0.0]})


SQL_LINDLEY_WAIT = """
    WITH RECURSIVE base AS (
        SELECT user_id,
               (epoch_us(ts)
                - lag(epoch_us(ts)) OVER (PARTITION BY user_id
                                          ORDER BY ts)) / 1e6 AS a,
               row_number() OVER (PARTITION BY user_id
                                  ORDER BY ts) - 1 AS rn
        FROM events
    ),
    gaps AS (SELECT user_id, a, rn FROM base WHERE rn >= 1),
    c AS (SELECT round(0.8 * sum(a) / count(*), 6) AS c FROM gaps),
    lind AS (
        SELECT g.user_id, g.rn,
               greatest(0.0, 0.0 + c.c - g.a) AS w
        FROM gaps g, c WHERE g.rn = 1
        UNION ALL
        SELECT g.user_id, g.rn,
               greatest(0.0, lind.w + c.c - g.a) AS w
        FROM lind JOIN gaps g
          ON g.user_id = lind.user_id AND g.rn = lind.rn + 1, c
    ),
    s AS (
        SELECT count(*) AS nw, sum(w) AS tw, max(w) AS mx,
               sum(CASE WHEN w > 0 THEN 1 ELSE 0 END) AS np
        FROM lind
    )
    SELECT CAST(s.nw AS BIGINT) AS n_waits, c.c + 0.0 AS service_s,
           round(s.tw / s.nw, 6) + 0.0 AS mean_wait_s,
           round(s.mx, 6) + 0.0 AS max_wait_s,
           round(s.np / CAST(s.nw AS DOUBLE), 6) + 0.0 AS p_wait_pos
    FROM s, c
"""
