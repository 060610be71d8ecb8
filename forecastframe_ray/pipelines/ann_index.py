"""Persisted, incrementally-maintainable ANN index — the similarity-search
sibling of the LLM-funnel corpus index (:mod:`.llm_incremental`): adding an
embedding shard must cost O(shard), and a query must read only the files
its probes touch.

Layout under ``index_dir``:

- ``tier=vectors`` — ``(vec_id, centroid, embedding)`` parquet files
  partitioned BY CENTROID ID (``write_partitioned(direct_part_col=
  "centroid")`` — the identity layout): file ``part = shard·K + c`` holds
  shard ``shard``'s vectors assigned to centroid ``c``. Searching with
  ``nprobe`` centroids opens exactly ``shards × nprobe`` files — "prune at
  the read" made literal: the probed-partition file list is computed
  driver-side from metadata, unprobed vectors never leave storage.
- ``index_meta.json`` — the frozen coarse quantizer (centroid matrix),
  params, shard log.

Contracts:

- Centroids are FROZEN at build (standard IVF practice — the coarse
  quantizer trains once on a sample); appends assign new vectors to the
  existing centroids. Assignment is deterministic, so **an appended index
  is bit-identical in content to rebuilding with the same centroids** —
  ``tests/test_ann_index.py`` pins it.
- ``search(..., nprobe=num_centroids)`` probes everything and is EXACT
  (== brute force) — which is what lets the search path carry a full
  DuckDB value oracle (`ann_index_search_embeddings`); partial-probe
  recall is gated the `ann_ivf_recall` way.

Crash-retry: shard offsets make (tier, part) manifest rows shard-unique;
re-submitting a crashed append skips finished partitions; meta (commit
point) is written last, and a search reads only the files whose manifest
row names a shard in meta's shard log.
"""

from __future__ import annotations

import json
import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa

from forecastframe_ray.pipelines.similarity import (
    _normalize,
    _stack,
    train_centroids,
)
from forecastframe_ray.stages.agg import column_ranges
from forecastframe_ray.state import checkpoint

META_FILE = "index_meta.json"


def _load_meta(index_dir: str) -> dict:
    with open(os.path.join(index_dir, META_FILE)) as f:
        m = json.load(f)
    m["centroids"] = np.asarray(m["centroids"], dtype=np.float64)
    return m


def _write_meta(index_dir: str, meta: dict) -> None:
    os.makedirs(index_dir, exist_ok=True)
    out = dict(meta)
    out["centroids"] = np.asarray(meta["centroids"]).tolist()
    path = os.path.join(index_dir, META_FILE)
    tmp = path + f".tmp.{os.getpid()}"
    with open(tmp, "w") as f:
        json.dump(out, f, sort_keys=True)
    os.replace(tmp, path)


def _assign_and_write(emb_ds, index_dir: str, C: np.ndarray, vec_col: str,
                      id_col: str, shard_index: int, shard_id: str,
                      fail_after: int | None = None) -> None:
    import ray

    ref = ray.put(C)
    k = len(C)

    def assign(b: pd.DataFrame) -> pa.Table:
        # an Arrow block: a pandas one would make the vectors Ray tensors
        cent = (_normalize(_stack(b[vec_col])) @ ray.get(ref).T).argmax(axis=1)
        return pa.table({id_col: b[id_col], vec_col: b[vec_col],
                         "centroid": cent.astype(np.int32)})

    checkpoint.write_partitioned(
        emb_ds.map_batches(assign, batch_format="pandas"), index_dir,
        "vectors", ["centroid"], num_partitions=k, sort_cols=[id_col],
        part_offset=shard_index * k, direct_part_col="centroid",
        shard_id=shard_id, fail_after=fail_after)


def build_ann_index(emb_ds, index_dir: str, num_centroids: int = 16,
                    vec_col: str = "embedding", id_col: str = "vec_id",
                    seed: int = 5, shard_id: str = "shard-000",
                    centroids: np.ndarray | None = None) -> dict:
    """Train the coarse quantizer on a sample (deterministic seed), assign
    every vector, write the centroid-partitioned files. Pass ``centroids``
    to build against an EXISTING quantizer (the appended == rebuilt
    equality gate rebuilds with the incremental index's frozen
    centroids)."""
    t0 = time.perf_counter()
    C = centroids if centroids is not None else \
        train_centroids(emb_ds, num_centroids, vec_col, seed=seed,
                        sort_col=id_col)
    _assign_and_write(emb_ds, index_dir, C, vec_col, id_col, 0, shard_id)
    _write_meta(index_dir, {"centroids": C, "num_centroids": len(C),
                            "vec_col": vec_col, "id_col": id_col,
                            "shards": [shard_id]})
    return {"vectors": int(emb_ds.count()), "num_centroids": len(C),
            "wall_s": round(time.perf_counter() - t0, 3)}


def append_ann(emb_ds, index_dir: str, shard_id: str | None = None,
               fail_after: int | None = None) -> dict:
    """O(shard) append: assign the new vectors to the FROZEN centroids and
    write one new file set at the shard's partition offset. Nothing stored
    is read or rewritten. ``shard_id`` defaults to ``shard-{min}-{max}``
    from the shard's vector id range. Crash-retry and the abandoned-append
    check work as in :func:`llm_incremental.append_shard`."""
    meta = _load_meta(index_dir)
    if shard_id is None:
        lo, hi = column_ranges(emb_ds, [meta["id_col"]])[meta["id_col"]]
        shard_id = f"shard-{lo}-{hi}"
    t0 = time.perf_counter()
    _assign_and_write(emb_ds, index_dir, meta["centroids"],
                      meta["vec_col"], meta["id_col"],
                      shard_index=len(meta["shards"]),
                      shard_id=shard_id, fail_after=fail_after)
    meta["shards"] = meta["shards"] + [shard_id]
    _write_meta(index_dir, meta)
    return {"vectors": int(emb_ds.count()),
            "wall_s": round(time.perf_counter() - t0, 3)}


def search_ann(index_dir: str, queries: np.ndarray, k: int = 10,
               nprobe: int = 4) -> pd.DataFrame:
    """Top-k by exact cosine over ONLY the probed centroids' files.

    The probed-partition file list is computed from metadata (union of
    every query's ``nprobe`` nearest centroids × every committed shard's
    files); the scan then streams just those files and each batch does one
    matmul per query against the query matrix, masked to that query's own
    probes. ``nprobe == num_centroids`` probes everything → exact brute
    force.
    """
    import ray

    meta = _load_meta(index_dir)
    C, kc = meta["centroids"], int(meta["num_centroids"])
    id_col = meta["id_col"]
    Q = _normalize(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    probe = np.argsort(-(Q @ C.T), axis=1)[:, :nprobe]     # (nq, nprobe)

    wanted = {int(c) for row in probe for c in row}
    files = checkpoint.read_parts(index_dir, "vectors", [
        p for p in checkpoint.shard_parts(index_dir, "vectors",
                                          meta["shards"])
        if p % kc in wanted])
    if files is None:
        return pd.DataFrame({"query_ix": pd.Series([], dtype="int64"),
                             "rank": pd.Series([], dtype="int64"),
                             id_col: pd.Series([], dtype="int64"),
                             "cos_sim": pd.Series([], dtype="float64")})

    state = ray.put((Q, probe))
    nq = len(Q)

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        Qm, P = ray.get(state)
        M = _normalize(_stack(batch[meta["vec_col"]]))
        ids = batch[id_col].to_numpy()
        cent = batch["centroid"].to_numpy()
        frames = []
        for qi in range(nq):
            mask = np.isin(cent, P[qi])
            if not mask.any():
                continue
            sims = M[mask] @ Qm[qi]
            sub = ids[mask]
            kk = min(k, len(sub))
            part = np.argpartition(-sims, kk - 1)[:kk]
            frames.append(pd.DataFrame({
                "query_ix": np.full(kk, qi, dtype=np.int64),
                id_col: sub[part], "cos_sim": sims[part]}))
        if not frames:
            return pd.DataFrame({"query_ix": pd.Series([], dtype="int64"),
                                 id_col: pd.Series([], dtype=ids.dtype),
                                 "cos_sim": pd.Series([], dtype="float64")})
        return pd.concat(frames, ignore_index=True)

    cand = files.map_batches(local_topk, batch_format="pandas").to_pandas()
    cand = cand.sort_values(["query_ix", "cos_sim", id_col],
                            ascending=[True, False, True], kind="mergesort")
    top = cand.groupby("query_ix", sort=True).head(k).reset_index(drop=True)
    top["rank"] = top.groupby("query_ix").cumcount().astype(np.int64)
    return top[["query_ix", "rank", id_col, "cos_sim"]]
