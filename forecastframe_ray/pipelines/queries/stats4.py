"""Oracled query catalog — part ``stats4``."""

from __future__ import annotations

import numpy as np
import pandas as pd

from forecastframe_ray.pipelines import textstats
from forecastframe_ray.pipelines.queries.spine import _read
from forecastframe_ray.pipelines.queries import entry


@entry("ccnet_perplexity_documents", sql=lambda: SQL_CCNET_PERPLEXITY)
def q_ccnet_perplexity_documents(sf_dir: str) -> pd.DataFrame:
    """CCNet-style corpus-LM perplexity per document (Wenzek et al.
    2020, public; Laplace bigram LM stands in for KenLM so the full
    train+score chain is exactly SQL-checkable). See
    :func:`forecastframe_ray.pipelines.textstats.ccnet_perplexity`."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = textstats.ccnet_perplexity(docs, min_count=2).to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out[["doc_id", "n_tokens", "ppl"]] \
        .sort_values("doc_id").reset_index(drop=True)


SQL_CCNET_PERPLEXITY = r"""
    WITH tok AS (
        SELECT doc_id,
               list_filter(string_split_regex(lower(text), '\s+'),
                           x -> x <> '') AS t
        FROM documents
    ),
    w AS (
        SELECT doc_id, generate_subscripts(t, 1) AS pos, unnest(t) AS w
        FROM tok
    ),
    rc AS (SELECT w, count(*) AS c FROM w GROUP BY 1),
    keep AS (SELECT w FROM rc WHERE c >= 2),
    wm AS (
        SELECT wv.doc_id, wv.pos,
               CASE WHEN k.w IS NULL THEN '<unk>' ELSE wv.w END AS w
        FROM w wv LEFT JOIN keep k ON wv.w = k.w
    ),
    c1 AS (SELECT w, count(*) AS c FROM wm GROUP BY 1),
    tv AS (SELECT (SELECT count(*) FROM wm) AS t_total,
                  (SELECT count(*) FROM c1) AS v_total),
    big AS (
        SELECT a.doc_id, a.w AS w1, b.w AS w2
        FROM wm a JOIN wm b
          ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
    ),
    c2 AS (SELECT w1, w2, count(*) AS c FROM big GROUP BY 1, 2),
    lp AS (
        SELECT wm.doc_id,
               ln((c1.c + 1.0) / (tv.t_total + tv.v_total)) AS lp
        FROM wm JOIN c1 USING (w) CROSS JOIN tv
        WHERE wm.pos = 1
        UNION ALL
        SELECT big.doc_id,
               ln((c2.c + 1.0) / (c1p.c + tv.v_total)) AS lp
        FROM big
        JOIN c2 ON big.w1 = c2.w1 AND big.w2 = c2.w2
        JOIN c1 c1p ON c1p.w = big.w1
        CROSS JOIN tv
    )
    SELECT CAST(s.doc_id AS BIGINT) AS doc_id,
           CAST(n.n AS BIGINT) AS n_tokens,
           round(exp(-s.lp / n.n), 6) AS ppl
    FROM (SELECT doc_id, sum(lp) AS lp FROM lp GROUP BY 1) s
    JOIN (SELECT doc_id, count(*) AS n FROM wm GROUP BY 1) n
      USING (doc_id)
    ORDER BY 1
"""


@entry("dsir_weights_documents", sql=lambda: SQL_DSIR_WEIGHTS)
def q_dsir_weights_documents(sf_dir: str) -> pd.DataFrame:
    """DSIR importance weights (Xie et al. 2023, public): log-ratio of a
    src0-trained unigram LM to the raw-corpus LM per document — the data
    selection signal for matching a target domain. See
    :func:`forecastframe_ray.pipelines.textstats.dsir_weights`."""
    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    out = textstats.dsir_weights(
        docs, lambda b: (b["source"] == "src0").to_numpy(bool)) \
        .to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out[["doc_id", "n_tokens", "log_ratio", "avg_log_ratio"]] \
        .sort_values("doc_id").reset_index(drop=True)


SQL_DSIR_WEIGHTS = r"""
    WITH tok AS (
        SELECT doc_id, source,
               list_filter(string_split_regex(lower(text), '\s+'),
                           x -> x <> '') AS t
        FROM documents
    ),
    w AS (SELECT doc_id, source, unnest(t) AS w FROM tok),
    raw AS (SELECT w, count(*) AS c FROM w GROUP BY 1),
    tgt AS (SELECT w, count(*) AS c FROM w
            WHERE source = 'src0' GROUP BY 1),
    tv AS (SELECT (SELECT count(*) FROM w) AS t_raw,
                  (SELECT count(*) FROM w WHERE source = 'src0') AS t_tgt,
                  (SELECT count(*) FROM raw) AS v_raw),
    lp AS (
        SELECT w.doc_id,
               ln((COALESCE(tgt.c, 0) + 1.0) / (tv.t_tgt + tv.v_raw))
             - ln((raw.c + 1.0) / (tv.t_raw + tv.v_raw)) AS lr
        FROM w JOIN raw USING (w)
        LEFT JOIN tgt ON w.w = tgt.w
        CROSS JOIN tv
    )
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(count(*) AS BIGINT) AS n_tokens,
           round(sum(lr), 6) AS log_ratio,
           round(sum(lr) / count(*), 6) AS avg_log_ratio
    FROM lp GROUP BY 1 ORDER BY 1
"""
