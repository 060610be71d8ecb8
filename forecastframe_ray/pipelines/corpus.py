"""GPT-style token-stream packing for LLM training data.

No analog in the reference (it holds no text columns). ``pack_token_stream``
slices the concatenated token stream of a corpus into fixed-length training
contexts with one distributed prefix sum (see its docstring for the scale
shape); ``pack_chunk_stats`` summarizes the packed chunks. ``llm.run``
chains them after the dedup funnel when ``pack_context`` is set.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from forecastframe_ray.stages.agg import hash_aggregate


def pack_token_stream(ds, context_len: int, text_col: str = "text",
                      id_col: str = "doc_id", sep_tokens: int = 1,
                      bucket_docs: int = 65536,
                      num_partitions: int = 64):
    """GPT-2/3-style pretraining packing: conceptually concatenate every
    document's whitespace tokens in ``id_col`` order, with ``sep_tokens``
    separator (EOS) positions after each document, and slice the stream into
    fixed ``context_len`` chunks — documents crossing a boundary are split.

    Returns a Dataset of ``(doc_id, chunk_id, tok_start, tok_end)`` int64
    rows: the doc-local token span ``[tok_start, tok_end)`` that lands in
    ``chunk_id`` (separator positions advance the stream but are not
    emitted). Output size = n_docs + n_boundary_crossings rows.

    Distributed global prefix sum, never materializing the stream:

    1. per-doc token counts — one narrow Arrow pass over ``(id, text)``;
       the 16 B/doc (id, n) table is materialized so the text is scanned
       exactly once (it spills at 10^12-doc scale; the alternative is a
       second full text scan);
    2. contiguous id-range buckets (``doc_id // bucket_docs``): per-bucket
       stride sums via one int-only coarse-hash aggregate, exclusive-prefix-
       summed on the driver (one row per bucket — 10^12/65536 ≈ 15M rows at
       full scale, still driver-tractable; raise ``bucket_docs`` beyond
       that) and broadcast;
    3. per-bucket kernel (one coarse shuffle on the bucket key): sort by id,
       local cumsum + bucket offset = each doc's global stream offset, then
       a fully vectorized ``np.repeat`` span expansion into chunk rows.
    """
    if context_len <= 0:
        raise ValueError("context_len must be positive")
    L, sep = int(context_len), int(sep_tokens)

    def count_fn(batch: pd.DataFrame) -> pd.DataFrame:
        # null text counts as an empty doc (0 tokens, still one separator)
        n = batch[text_col].fillna("").str.count(r"\S+") \
            .to_numpy(dtype=np.int64)
        return pd.DataFrame({
            id_col: batch[id_col].to_numpy(np.int64),
            "__n": n,
            "__bkt": batch[id_col].to_numpy(np.int64) // bucket_docs,
        })

    counts = ds.map_batches(count_fn, batch_format="pandas").materialize()

    def stride_fn(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"__bkt": b["__bkt"],
                             "__stride": b["__n"] + sep})

    totals = hash_aggregate(counts.map_batches(stride_fn,
                                               batch_format="pandas"),
                            ["__bkt"], {"tot": ("__stride", "sum")},
                            num_partitions=min(num_partitions, 16)) \
        .to_pandas().sort_values("__bkt")
    import ray

    tot = totals["tot"].to_numpy(np.int64)
    # broadcast the (sorted bucket ids, exclusive prefix) arrays ONCE via
    # the object store — at 10^12 docs this table is ~15M rows, far too big
    # to ship inside every task's closure; workers read it zero-copy
    offsets_ref = ray.put((totals["__bkt"].to_numpy(np.int64),
                           np.concatenate([[0], np.cumsum(tot)[:-1]])))

    def expand(g: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame({id_col: pd.array([], dtype="int64"),
                              "chunk_id": pd.array([], dtype="int64"),
                              "tok_start": pd.array([], dtype="int64"),
                              "tok_end": pd.array([], dtype="int64")})
        if not len(g):
            return empty
        g = g.sort_values(id_col)
        ids = g[id_col].to_numpy(np.int64)
        n = g["__n"].to_numpy(np.int64)
        bkt_ids, bkt_offs = ray.get(offsets_ref)
        off = int(bkt_offs[np.searchsorted(bkt_ids,
                                           int(g["__bkt"].iloc[0]))])
        stride = n + sep
        g0 = off + np.concatenate([[0], np.cumsum(stride)[:-1]])
        keep = n > 0
        if not keep.any():
            return empty
        ids, n, g0 = ids[keep], n[keep], g0[keep]
        c0, c1 = g0 // L, (g0 + n - 1) // L
        k = c1 - c0 + 1
        rep = np.repeat(np.arange(len(n)), k)
        base = np.repeat(np.concatenate([[0], np.cumsum(k)[:-1]]), k)
        cid = c0[rep] + (np.arange(int(k.sum())) - base)
        return pd.DataFrame({
            id_col: ids[rep], "chunk_id": cid,
            "tok_start": np.maximum(0, cid * L - g0[rep]),
            "tok_end": np.minimum(n[rep], (cid + 1) * L - g0[rep]),
        })

    from forecastframe_ray.stages.agg import bucketed_map_groups
    return bucketed_map_groups(counts, ["__bkt"], expand,
                               num_partitions=num_partitions)


def pack_chunk_stats(spans_ds, num_partitions: int = 16):
    """Per-chunk composition of a :func:`pack_token_stream` result:
    ``(chunk_id, n_docs, n_content_tokens)`` — one int-only aggregate."""

    def span_fn(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__span"] = b["tok_end"] - b["tok_start"]
        return b

    return hash_aggregate(
        spans_ds.map_batches(span_fn, batch_format="pandas"),
        ["chunk_id"],
        {"n_docs": ("doc_id", "size"), "n_content_tokens": ("__span", "sum")},
        num_partitions=num_partitions)
