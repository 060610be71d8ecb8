"""Approximate-nearest-neighbor similarity search over an embedding column
(session brief "Similarity search"). No analog in the reference (numeric
frames only); algorithms are public: brute-force cosine, IVF (inverted-file
coarse quantizer, à la Faiss's IVFFlat), random-hyperplane LSH.

Scale design: queries are broadcast once (``ray.put``), each batch does one
numpy matmul against the local shard, emits only its local top-k — the
driver-side final merge sees ``num_blocks × k`` candidate rows, never the
corpus. The IVF variant prunes each batch to rows whose nearest centroid is
among the query's ``nprobe`` centroids before the matmul.
"""

from __future__ import annotations

import numpy as np
import pandas as pd


def _normalize(M: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(M, axis=1)
    norms[norms == 0] = 1.0
    return M / norms[:, None]


def _stack(col) -> np.ndarray:
    return np.stack(col.to_numpy()).astype(np.float64)


def brute_force_topk(ds, queries: np.ndarray, k: int = 10,
                     vec_col: str = "embedding", id_col: str = "vec_id") -> pd.DataFrame:
    """Exact cosine top-k for each query row. Returns a DataFrame
    ``(query_ix, rank, vec_id, cos_sim)``; rank ties broken by vec_id so the
    result is fully deterministic.

    Physical plan: broadcast normalized query matrix → per-batch matmul +
    ``argpartition`` local top-k (stateless map_batches) → tiny global merge.
    """
    import ray

    Q = _normalize(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    q_ref = ray.put(Q)
    nq = Q.shape[0]

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        Qm = ray.get(q_ref)
        M = _normalize(_stack(batch[vec_col]))
        sims = M @ Qm.T                      # (n_rows, nq)
        ids = batch[id_col].to_numpy()
        kk = min(k, len(ids))
        out_q, out_id, out_s = [], [], []
        for qi in range(nq):
            part = np.argpartition(-sims[:, qi], kk - 1)[:kk]
            out_q.append(np.full(kk, qi, dtype=np.int32))
            out_id.append(ids[part])
            out_s.append(sims[part, qi])
        return pd.DataFrame({
            "query_ix": np.concatenate(out_q),
            id_col: np.concatenate(out_id),
            "cos_sim": np.concatenate(out_s),
        })

    cand = ds.map_batches(local_topk, batch_format="pandas").to_pandas()
    # deterministic global merge: sort by (query, -sim, id), take k per query
    cand = cand.sort_values(["query_ix", "cos_sim", id_col],
                            ascending=[True, False, True], kind="mergesort")
    top = cand.groupby("query_ix", sort=True).head(k).reset_index(drop=True)
    top["rank"] = top.groupby("query_ix").cumcount().astype(np.int64)
    return top[["query_ix", "rank", id_col, "cos_sim"]]


# ---------------------------------------------------------------------------
# IVF (inverted-file) variant — the scale path
# ---------------------------------------------------------------------------


def train_centroids(ds, num_centroids: int = 16, vec_col: str = "embedding",
                    sample_rows: int = 4096, iters: int = 10, seed: int = 5,
                    sort_col: str | None = None) -> np.ndarray:
    """k-means on a driver-side sample (standard IVF training — the coarse
    quantizer is tiny and trained once, then broadcast). Pass a unique
    ``sort_col`` to make the sample independent of Ray block order: the
    sample is then the ``sample_rows`` rows with the lowest ``sort_col``,
    in ``sort_col`` order, so both which rows are drawn and the order the
    seeded init indexes into are fixed — a persisted index's quantizer
    (ann_index.build_ann_index) must not depend on block order. Without
    ``sort_col`` the sample is ``limit()``'s first rows in block order."""
    if sort_col is None:
        sample = ds.limit(sample_rows).to_pandas()
    else:
        sample = _lowest_rows(ds, sort_col, sample_rows)
    X = _normalize(_stack(sample[vec_col]))
    rng = np.random.default_rng(seed)
    C = X[rng.choice(len(X), size=min(num_centroids, len(X)), replace=False)]
    for _ in range(iters):
        assign = (X @ C.T).argmax(axis=1)
        for c in range(len(C)):
            members = X[assign == c]
            if len(members):
                v = members.mean(axis=0)
                n = np.linalg.norm(v)
                if n > 0:
                    C[c] = v / n
    return C


def _lowest_rows(ds, sort_col: str, n: int) -> pd.DataFrame:
    """The ``n`` rows with the lowest ``sort_col``, sorted by it. One pass
    over ``sort_col`` alone finds the cut (each block sends its ``n``
    smallest keys); a second keeps the rows at or below it."""
    import pyarrow.compute as pc

    keys = ds.select_columns([sort_col]).map_batches(
        lambda b: b.nsmallest(n, sort_col), batch_format="pandas"
    ).to_pandas()[sort_col].to_numpy()
    if len(keys) == 0:
        return ds.limit(0).to_pandas()
    cut = np.sort(keys)[min(n, len(keys)) - 1].item()
    sample = ds.map_batches(
        lambda b: b.filter(pc.less_equal(b[sort_col], cut)),
        batch_format="pyarrow").to_pandas()
    return (sample.sort_values(sort_col, kind="mergesort").head(n)
            .reset_index(drop=True))


def ivf_topk(ds, queries: np.ndarray, k: int = 10, num_centroids: int = 16,
             nprobe: int = 4, vec_col: str = "embedding", id_col: str = "vec_id",
             centroids: np.ndarray | None = None) -> pd.DataFrame:
    """Approximate top-k: per batch, keep only rows assigned to one of the
    query's ``nprobe`` nearest centroids, then exact cosine on the survivors.
    Same output schema as :func:`brute_force_topk`."""
    import ray

    if centroids is None:
        centroids = train_centroids(ds, num_centroids, vec_col)
    Q = _normalize(np.atleast_2d(np.asarray(queries, dtype=np.float64)))
    probe = np.argsort(-(Q @ centroids.T), axis=1)[:, :nprobe]    # (nq, nprobe)
    state = ray.put((Q, centroids, probe))
    nq = Q.shape[0]

    def local_topk(batch: pd.DataFrame) -> pd.DataFrame:
        Qm, C, P = ray.get(state)
        M = _normalize(_stack(batch[vec_col]))
        ids = batch[id_col].to_numpy()
        assign = (M @ C.T).argmax(axis=1)
        frames = []
        for qi in range(nq):
            mask = np.isin(assign, P[qi])
            if not mask.any():
                continue
            sims = M[mask] @ Qm[qi]
            sub_ids = ids[mask]
            kk = min(k, len(sub_ids))
            part = np.argpartition(-sims, kk - 1)[:kk]
            frames.append(pd.DataFrame({
                "query_ix": np.full(kk, qi, dtype=np.int32),
                id_col: sub_ids[part],
                "cos_sim": sims[part],
            }))
        if not frames:
            return pd.DataFrame({"query_ix": pd.Series([], dtype=np.int32),
                                 id_col: pd.Series([], dtype=ids.dtype),
                                 "cos_sim": pd.Series([], dtype=np.float64)})
        return pd.concat(frames, ignore_index=True)

    cand = ds.map_batches(local_topk, batch_format="pandas").to_pandas()
    cand = cand.sort_values(["query_ix", "cos_sim", id_col],
                            ascending=[True, False, True], kind="mergesort")
    top = cand.groupby("query_ix", sort=True).head(k).reset_index(drop=True)
    top["rank"] = top.groupby("query_ix").cumcount().astype(np.int64)
    return top[["query_ix", "rank", id_col, "cos_sim"]]


def label_centroids(ds, vec_col: str = "embedding", label_col: str = "label"):
    """Per-label centroid of an embedding column — the E-step/summary shape
    of distributed k-means and the class-prototype builder for
    nearest-centroid search (the IVF coarse quantizer uses the same plan).

    Physical plan: each batch pre-reduces to LONG partial rows
    ``(label, dim, s=Σ component, n=rows)`` via one ``np.add.at`` scatter —
    the shuffle carries labels × dim rows per batch, never vectors — then
    one coarse-hash merge sums partials and emits
    ``centroid = round(s/n, 6)``. Returns a Dataset
    ``(label, dim [1-based], n:int64, centroid)``."""
    import pandas as pd

    from forecastframe_ray.stages.agg import hash_aggregate

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        M = _stack(b[vec_col]).astype(np.float64)
        labels = b[label_col].to_numpy()
        uniq, inv = np.unique(labels, return_inverse=True)
        S = np.zeros((len(uniq), M.shape[1]), dtype=np.float64)
        np.add.at(S, inv, M)
        n = np.bincount(inv, minlength=len(uniq)).astype(np.int64)
        d = M.shape[1]
        return pd.DataFrame({
            label_col: np.repeat(uniq, d),
            "dim": np.tile(np.arange(1, d + 1, dtype=np.int64), len(uniq)),
            "s": S.ravel(),
            "n": np.repeat(n, d),
        })

    merged = hash_aggregate(
        ds.map_batches(partial, batch_format="pandas"),
        [label_col, "dim"], {"s": ("s", "sum"), "n": ("n", "sum")},
        num_partitions=16, hash_keys=[label_col])

    def finish(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["centroid"] = np.round(
            b["s"].to_numpy(np.float64) / b["n"].to_numpy(np.float64), 6)
        b["n"] = b["n"].astype("int64")
        return b[[label_col, "dim", "n", "centroid"]]

    return merged.map_batches(finish, batch_format="pandas")
