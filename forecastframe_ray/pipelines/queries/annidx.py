"""Oracled query catalog — persisted incremental ANN index entry
(:mod:`forecastframe_ray.pipelines.ann_index`).

``ann_index_search_embeddings`` builds the centroid-partitioned index
incrementally (two shards split at the median vec_id), then searches with
``nprobe == num_centroids``: probing everything makes IVF EXACT, so the
result through the persisted-index read path (pruned file list → streamed
exact cosine) carries the same full DuckDB value oracle as the brute-force
entry. Appended == rebuilt is pinned by ``tests/test_ann_index.py``.
"""

from __future__ import annotations

import shutil
import tempfile

import numpy as np
import pandas as pd

from forecastframe_ray.pipelines.queries.spine import (
    SQL_ANN_BRUTEFORCE,
    _query_vectors,
    _read,
)
from forecastframe_ray.pipelines.queries import entry

SQL_ANN_INDEX_SEARCH = SQL_ANN_BRUTEFORCE


def _split(sf_dir: str):
    import pyarrow.parquet as pq
    ids = pq.read_table(f"{sf_dir}/embeddings.parquet",
                        columns=["vec_id"])["vec_id"].to_numpy()
    cut = int(np.median(ids))
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    sh1 = emb.map_batches(
        lambda b: b[b["vec_id"].to_numpy() <= cut], batch_format="pandas")
    sh2 = emb.map_batches(
        lambda b: b[b["vec_id"].to_numpy() > cut], batch_format="pandas")
    return emb, sh1, sh2


@entry("ann_index_search_embeddings", sql=lambda: SQL_ANN_INDEX_SEARCH)
def q_ann_index_search_embeddings(sf_dir: str) -> pd.DataFrame:
    from forecastframe_ray.pipelines import ann_index as AI

    _emb, sh1, sh2 = _split(sf_dir)
    d = tempfile.mkdtemp(prefix="ffr_annidx_", dir="/tmp")
    try:
        AI.build_ann_index(sh1, d, num_centroids=16)
        AI.append_ann(sh2, d)
        top = AI.search_ann(d, _query_vectors(sf_dir), k=10, nprobe=16)
    finally:
        shutil.rmtree(d, ignore_errors=True)
    top["query_ix"] = top["query_ix"].astype("int64")
    top["rank"] = top["rank"].astype("int64")
    return top[["query_ix", "rank", "vec_id"]].reset_index(drop=True)
