"""Oracled query catalog — round-5 incremental-maintenance entries
(:mod:`forecastframe_ray.pipelines.llm_incremental`).

Two entries, splitting the contract the way the recall gates do:

- ``llm_incremental_funnel_documents`` — the incremental EXACT funnel
  (C4 clean → exact dedup) built as ``build_index(shard_1)`` +
  ``append_shard(shard_2)`` with the near-dup stage disabled
  (``minhash_threshold=2.0`` — no pair can verify at Jaccard > 1), fully
  hash-compared against a DuckDB oracle that rebuilds the same funnel over
  ALL documents in one shot. This pins the digest-index probe path
  (new-vs-index anti-join + new-vs-new min-id) content-exactly.
- ``llm_incremental_neardup_gate`` — the FULL incremental funnel
  (near-dup at threshold 0.7) compared in-Ray against the one-shot
  ``build_index`` full rebuild on the same documents; MinHash is not
  SQL-expressible, so the oracle row is constant-shape and any
  incremental-vs-rebuild divergence flips ``match_ok`` → driver hash
  mismatch → FAIL (the ``simhash_recall`` gate pattern).
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

from forecastframe_ray.pipelines.queries.spine import _read
from forecastframe_ray.pipelines.queries import entry


def _shards(sf_dir: str):
    """Split documents at the median doc_id into two append-monotonic
    shards (deterministic — the driver may call this at any sf)."""
    ids = pq.read_table(f"{sf_dir}/documents.parquet",
                        columns=["doc_id"])["doc_id"].to_numpy()
    cut = int(np.median(ids))
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    sh1 = docs.map_batches(
        lambda b: b[b["doc_id"].to_numpy() <= cut], batch_format="pandas")
    sh2 = docs.map_batches(
        lambda b: b[b["doc_id"].to_numpy() > cut], batch_format="pandas")
    return sh1, sh2


@entry("llm_incremental_funnel_documents",
       sql=lambda: SQL_LLM_INCREMENTAL_FUNNEL)
def q_llm_incremental_funnel_documents(sf_dir: str) -> pd.DataFrame:
    from forecastframe_ray.pipelines import llm_incremental as LI

    sh1, sh2 = _shards(sf_dir)
    tmp = tempfile.mkdtemp(prefix="ffr_incr_", dir="/tmp")
    try:
        LI.build_index(sh1, tmp, minhash_threshold=2.0,
                       min_words_per_line=3, require_terminal=False,
                       num_partitions=8)
        LI.append_shard(sh2, tmp)
        out = LI.final_corpus(tmp).to_pandas()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    if out.empty:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "text_clean": pd.Series([], dtype="object")})
    return out[["doc_id", "text_clean"]].sort_values("doc_id") \
        .reset_index(drop=True)


SQL_LLM_INCREMENTAL_FUNNEL = r"""
    WITH raw AS (
        SELECT doc_id, string_split(text, chr(10)) AS l FROM documents
    ),
    lns AS (
        SELECT doc_id, unnest(l) AS ln, generate_subscripts(l, 1) AS i
        FROM raw
    ),
    t AS (
        SELECT doc_id, i,
               trim(ln, ' ' || chr(9) || chr(13) || chr(12) || chr(11)) AS s
        FROM lns
        WHERE trim(ln, ' ' || chr(9) || chr(13) || chr(12) || chr(11)) <> ''
    ),
    good AS (
        SELECT doc_id, i, s
        FROM t
        WHERE length(regexp_extract_all(s, '\S+')) >= 3
          AND NOT contains(s, '{') AND NOT contains(s, '}')
          AND NOT contains(lower(s), 'lorem ipsum')
    ),
    docs_clean AS (
        SELECT doc_id, string_agg(s, chr(10) ORDER BY i) AS text_clean
        FROM good GROUP BY doc_id
    )
    SELECT doc_id, text_clean
    FROM (SELECT doc_id, text_clean,
                 min(doc_id) OVER (PARTITION BY text_clean) AS keep_id
          FROM docs_clean)
    WHERE doc_id = keep_id
    ORDER BY doc_id
"""


@entry("llm_incremental_neardup_gate",
       sql=lambda: SQL_LLM_INCREMENTAL_NEARDUP_GATE)
def q_llm_incremental_neardup_gate(sf_dir: str) -> pd.DataFrame:
    from forecastframe_ray.pipelines import llm_incremental as LI

    kw = dict(minhash_threshold=0.7, min_words_per_line=3,
              require_terminal=False, num_partitions=8)
    full_dir = tempfile.mkdtemp(prefix="ffr_incrF_", dir="/tmp")
    inc_dir = tempfile.mkdtemp(prefix="ffr_incrI_", dir="/tmp")
    try:
        docs = _read(sf_dir, "documents", ["doc_id", "text"])
        LI.build_index(docs, full_dir, **kw)
        full = LI.final_corpus(full_dir).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)

        sh1, sh2 = _shards(sf_dir)
        LI.build_index(sh1, inc_dir, **kw)
        LI.append_shard(sh2, inc_dir)
        inc = LI.final_corpus(inc_dir).to_pandas() \
            .sort_values("doc_id").reset_index(drop=True)
    finally:
        shutil.rmtree(full_dir, ignore_errors=True)
        shutil.rmtree(inc_dir, ignore_errors=True)
    ok = full.equals(inc) and len(full) > 0
    return pd.DataFrame({"gate": pd.Series([0], dtype="int64"),
                         "match_ok": pd.Series([ok], dtype="bool")})


SQL_LLM_INCREMENTAL_NEARDUP_GATE = """
    SELECT CAST(0 AS BIGINT) AS gate, true AS match_ok
"""
