"""Train/eval n-gram decontamination for LLM training corpora.

The GPT-3 / PaLM data writeups describe the standard recipe: collect the
distinct word n-grams of the evaluation benchmarks, then flag (or drop)
every training document sharing at least one n-gram with the eval set.
No analog in the reference (it holds no text); this is a first-class
training-data-pipeline operator per the brief.

Semantics pinned by the DuckDB oracle (``SQL_DECONTAMINATE`` in
``pipelines/queries.py``): tokens are the ``\\s+``-split non-empty words,
an n-gram is ``n`` consecutive tokens, and ``n_overlap`` counts the
DISTINCT n-grams of a train doc that appear in ANY eval doc.

Scale shape
-----------
Eval benchmarks are tiny next to a 100 TB train corpus, so the default
path broadcasts the eval-gram hash set once (``ray.put`` of a sorted
uint64 array) and probes it per train batch with ``np.searchsorted`` —
zero shuffles over the train side beyond the stateless map. n-grams are
never materialized as strings: each token is hashed once
(``pd.util.hash_array``, C-backed) and an n-gram's uint64 key is a
positional mix of its token hashes, so equal token sequences collide iff
the strings match (2^-64 false-match per pair, documented contract).

If the eval side is NOT small (``len(eval grams) > broadcast_threshold``)
the operator switches to a fully distributed plan: explode both sides to
``(key, gram_hash)`` pair datasets, hash-partition by gram, emit the
matched (train doc, gram) pairs per partition, and count distinct per doc
— the same bucketed-shuffle shape as the exact-dedup keep-set fallback
(``dedup.exact_dedup``). A forced-path test pins both plans equal.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray

from forecastframe_ray.stages.agg import PART_COL, exchange, hash_aggregate

#: above this many distinct eval grams the broadcast set (8 B/gram) stops
#: being "small side" and the distributed pair-join plan takes over.
BROADCAST_THRESHOLD = 50_000_000

#: odd 64-bit positional multipliers for the n-gram mix (splitmix64 stream).
_MIX_SEED = np.uint64(0x9E3779B97F4A7C15)


def _positional_multipliers(n: int) -> np.ndarray:
    """n odd uint64 constants — a deterministic splitmix64-ish stream."""
    x = np.arange(1, n + 1, dtype=np.uint64) * _MIX_SEED
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x | np.uint64(1)


def batch_ngram_hashes(texts: pd.Series, n: int, with_lengths: bool = False
                       ) -> tuple[np.ndarray, ...]:
    """All word-n-gram hashes of every doc in one vectorized pass.

    Returns ``(doc_idx, gram_hash)`` — one row per n-gram WINDOW (not yet
    per-doc-distinct).  Tokens of all docs concatenate into one flat object
    array hashed by ``pd.util.hash_array`` (one C call); n-gram keys are
    ``sum_j m_j * h[i+j]`` under uint64 wraparound (n strided vector adds);
    doc-crossing windows are dropped with the boundary-cumsum mask of
    ``dedup.batch_shingle_windows``.

    With ``with_lengths=True`` a third array carries each gram's character
    length as a space-joined string (token chars + n-1 separators) — the
    repetition-score stages divide these by the doc length.
    """
    toks = texts.str.split()  # \s+ split, empties dropped — oracle-equal
    counts_tok = np.array([len(t) for t in toks], dtype=np.int64)
    total_tok = int(counts_tok.sum())
    empty = ((np.array([], dtype=np.int64), np.array([], dtype=np.uint64))
             + ((np.array([], dtype=np.int64),) if with_lengths else ()))
    if total_tok == 0:
        return empty
    flat = np.empty(total_tok, dtype=object)
    pos = 0
    for t in toks:
        flat[pos:pos + len(t)] = t
        pos += len(t)
    th = pd.util.hash_array(flat)  # uint64 per token

    if total_tok < n:
        return empty
    mult = _positional_multipliers(n)
    with np.errstate(over="ignore"):
        g = mult[0] * th[: total_tok - n + 1]
        for j in range(1, n):
            g = g + mult[j] * th[j: total_tok - n + 1 + j]

    # window i is doc-local iff all n tokens fall inside one doc: mark the
    # doc-crossing window range [start + max(count-n+1, 0), start + count)
    # per doc and mask by cumsum (strictly increasing boundaries).
    nwin = len(g)
    starts = np.concatenate(([0], np.cumsum(counts_tok)[:-1]))
    local = np.maximum(counts_tok - n + 1, 0)
    delta = np.zeros(nwin + 1, dtype=np.int32)
    lo = np.minimum(starts + local, nwin)
    hi = np.minimum(starts + counts_tok, nwin)
    np.add.at(delta, lo, 1)
    np.add.at(delta, hi, -1)
    keep = np.cumsum(delta[:-1]) == 0
    doc_idx = np.repeat(np.arange(len(texts), dtype=np.int64),
                        np.maximum(counts_tok - (n - 1), 0))
    if not with_lengths:
        return doc_idx, g[keep]
    tok_len = np.fromiter((len(t) for t in flat), np.int64, total_tok)
    cs = np.concatenate(([0], np.cumsum(tok_len)))
    gram_len = cs[n:] - cs[: total_tok - n + 1] + (n - 1)
    return doc_idx, g[keep], gram_len[keep]


def _doc_gram_pairs(batch: pd.DataFrame, text_col: str, id_col: str,
                    n: int) -> pd.DataFrame:
    """(id, gram_hash) pairs, distinct per doc (narrow shuffle rows)."""
    doc_idx, grams = batch_ngram_hashes(batch[text_col], n)
    # float64 ids so the union with the NaN-tagged eval pairs keeps one
    # Arrow schema; match_part casts back to int64
    ids = batch[id_col].to_numpy(dtype=np.float64)[doc_idx]
    pairs = pd.DataFrame({id_col: ids, "__gram": grams})
    return pairs.drop_duplicates()


def _gram_part(num_partitions: int):
    """Exchange tag: a (key, gram) row's partition is ``gram % P`` — the
    gram hash is already uniform, so it needs no rehash."""
    def tag(b: pd.DataFrame) -> pd.DataFrame:
        b[PART_COL] = (b["__gram"].to_numpy(dtype=np.uint64)
                       % np.uint64(num_partitions)).astype(np.int64)
        return b
    return tag


def eval_gram_set(eval_ds, text_col: str = "text", n: int = 8) -> np.ndarray:
    """Distinct n-gram hashes of the whole eval side, as a SORTED uint64
    array (driver-side — eval benchmarks are small by contract; callers on
    a big eval side use the distributed path instead)."""
    def _grams(batch: pd.DataFrame) -> pd.DataFrame:
        _, g = batch_ngram_hashes(batch[text_col], n)
        return pd.DataFrame({"__gram": np.unique(g)})

    parts = [p["__gram"].to_numpy(dtype=np.uint64)
             for p in eval_ds.map_batches(_grams, batch_format="pandas")
                             .iter_batches(batch_format="pandas")]
    if not parts:
        return np.array([], dtype=np.uint64)
    return np.unique(np.concatenate(parts))


def decontaminate(train_ds, eval_ds, text_col: str = "text",
                  id_col: str = "doc_id", n: int = 8,
                  broadcast_threshold: int = BROADCAST_THRESHOLD,
                  num_partitions: int = 16):
    """Flag train docs sharing ≥1 word n-gram with the eval side.

    Returns a Dataset of ``(id_col, n_overlap:int64, contaminated:bool)``
    with one row per train doc.  Broadcast probe by default; distributed
    pair semi-join when the eval gram set exceeds ``broadcast_threshold``.
    """
    grams = eval_gram_set(eval_ds, text_col, n)
    if len(grams) <= broadcast_threshold:
        ref = ray.put(grams)

        def probe(batch: pd.DataFrame) -> pd.DataFrame:
            gs = ray.get(ref)
            doc_idx, g = batch_ngram_hashes(batch[text_col], n)
            hit = pd.DataFrame({"i": doc_idx, "g": g}).drop_duplicates()
            if len(gs):
                pos = np.minimum(np.searchsorted(gs, hit["g"].to_numpy()),
                                 len(gs) - 1)
                m = gs[pos] == hit["g"].to_numpy()
            else:
                m = np.zeros(len(hit), dtype=bool)
            n_over = np.bincount(hit["i"].to_numpy()[m],
                                 minlength=len(batch)).astype(np.int64)
            return pd.DataFrame({
                id_col: batch[id_col].to_numpy(),
                "n_overlap": n_over,
                "contaminated": n_over > 0,
            })

        return train_ds.map_batches(probe, batch_format="pandas")

    # distributed plan: explode both sides to (key, gram) pairs, co-partition
    # by gram hash, count matched distinct grams per train doc, join the
    # zero-overlap docs back in.  Mirrors exact_dedup's >5M fallback shape.
    train_pairs = train_ds.map_batches(
        lambda b: _doc_gram_pairs(b, text_col, id_col, n),
        batch_format="pandas")
    eval_pairs = eval_ds.map_batches(
        lambda b: pd.DataFrame(
            {"__gram": np.unique(batch_ngram_hashes(b[text_col], n)[1])}),
        batch_format="pandas")

    def match_part(_, part: pd.DataFrame) -> pd.DataFrame:
        ev = part.loc[part[id_col].isna(), "__gram"].unique()
        tr = part.loc[part[id_col].notna()]
        hit = tr[tr["__gram"].isin(ev)]
        out = (hit.groupby(id_col, sort=False)["__gram"]
                  .nunique().rename("n_overlap").reset_index())
        out[id_col] = out[id_col].astype("int64")
        out["n_overlap"] = out["n_overlap"].astype("int64")
        return out[[id_col, "n_overlap"]]

    tagged_eval = eval_pairs.map_batches(
        lambda b: b.assign(**{id_col: np.full(len(b), np.nan)})
                   [[id_col, "__gram"]],  # match train_pairs' column order
        batch_format="pandas")
    overlaps = exchange(train_pairs.union(tagged_eval),
                        _gram_part(num_partitions), match_part)
    # a doc's matched grams scatter across gram-hash partitions, so
    # match_part emits PARTIAL counts (one row per doc per partition) —
    # sum them (each distinct gram lives in exactly one partition, so the
    # sum is exact); repartition+materialize consolidates the coarse
    # shuffle's column-less empty blocks, which otherwise break/stall the
    # join exchange in the same streaming DAG
    overlaps = hash_aggregate(overlaps, [id_col],
                              {"n_overlap": ("n_overlap", "sum")},
                              num_partitions=8).repartition(8).materialize()

    # distributed left join back to the full train id set — the overlap side
    # can be as big as the train side on a dirty corpus, so it never lands
    # on the driver.
    from forecastframe_ray.stages.join import hash_join

    ids = train_ds.map_batches(
        lambda b: pd.DataFrame({id_col: b[id_col].to_numpy()}),
        batch_format="pandas")
    joined = hash_join(ids, overlaps, on=[id_col], how="left",
                       num_partitions=num_partitions)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        n_over = batch["n_overlap"].fillna(0).astype("int64").to_numpy()
        return pd.DataFrame({
            id_col: batch[id_col].to_numpy(),
            "n_overlap": n_over,
            "contaminated": n_over > 0,
        })

    return joined.map_batches(finish, batch_format="pandas")


def self_overlap(ds, text_col: str = "text", id_col: str = "doc_id",
                 n: int = 8,
                 broadcast_threshold: int = BROADCAST_THRESHOLD,
                 num_partitions: int = 16):
    """Cross-document duplicate-span detection (Lee et al. 2022's substring
    dedup signal at n-gram granularity): for every doc, count its distinct
    word ``n``-grams that also occur in ANY OTHER document, plus the
    ``has_dup_span`` flag. Unlike MinHash (whole-doc similarity) this
    catches a boilerplate paragraph pasted into otherwise-unique pages.

    Plan: one combiner-reduced gram-frequency aggregate over the distinct
    (doc, gram-hash) pairs (``nd`` = docs containing the gram), keep grams
    with ``nd ≥ 2``, then score docs against that shared set — broadcast
    sorted-array probe under ``broadcast_threshold``, else the same
    distributed co-partitioned match as :func:`decontaminate`. A gram a doc
    repeats internally does NOT count (distinct-docs ≥ 2 is required), so a
    doc's own repetition never flags it.

    Returns ``(id, n_shared:int64, has_dup_span:bool)``, one row per doc.
    """
    pairs = ds.map_batches(
        lambda b: _doc_gram_pairs(b, text_col, id_col, n),
        batch_format="pandas").materialize()
    gcount = hash_aggregate(pairs, ["__gram"], {"nd": (id_col, "count")},
                            num_partitions=num_partitions)
    shared = gcount.map_batches(
        lambda b: b.loc[b["nd"] >= 2, ["__gram"]],
        batch_format="pandas").materialize()

    if shared.count() <= broadcast_threshold:
        parts = [p["__gram"].to_numpy(dtype=np.uint64)
                 for p in shared.iter_batches(batch_format="pandas")]
        gs_sorted = (np.sort(np.concatenate(parts)) if parts
                     else np.array([], dtype=np.uint64))
        ref = ray.put(gs_sorted)

        def probe(batch: pd.DataFrame) -> pd.DataFrame:
            gs = ray.get(ref)
            doc_idx, g = batch_ngram_hashes(batch[text_col], n)
            hit = pd.DataFrame({"i": doc_idx, "g": g}).drop_duplicates()
            if len(gs):
                pos = np.minimum(np.searchsorted(gs, hit["g"].to_numpy()),
                                 len(gs) - 1)
                m = gs[pos] == hit["g"].to_numpy()
            else:
                m = np.zeros(len(hit), dtype=bool)
            n_sh = np.bincount(hit["i"].to_numpy()[m],
                               minlength=len(batch)).astype(np.int64)
            return pd.DataFrame({
                id_col: batch[id_col].to_numpy(),
                "n_shared": n_sh,
                "has_dup_span": n_sh > 0,
            })

        return ds.map_batches(probe, batch_format="pandas")

    # distributed plan: co-partition the (doc, gram) pairs with the shared
    # gram set by gram hash, count matches per doc in-partition, left-join
    # the zero-overlap docs back — the shared set never lands on the driver.
    def match_part(_, part: pd.DataFrame) -> pd.DataFrame:
        sh = part.loc[part[id_col].isna(), "__gram"].unique()
        dc = part.loc[part[id_col].notna()]
        hit = dc[dc["__gram"].isin(sh)]
        out = (hit.groupby(id_col, sort=False)["__gram"]
                  .nunique().rename("n_shared").reset_index())
        out[id_col] = out[id_col].astype("int64")
        out["n_shared"] = out["n_shared"].astype("int64")
        return out[[id_col, "n_shared"]]

    tagged = shared.map_batches(
        lambda b: b.assign(**{id_col: np.full(len(b), np.nan)})
                   [[id_col, "__gram"]],
        batch_format="pandas")
    overlaps = exchange(pairs.union(tagged), _gram_part(num_partitions),
                        match_part)
    # sum the per-partition partial counts (see decontaminate above) and
    # consolidate empty blocks before the join exchange
    overlaps = hash_aggregate(overlaps, [id_col],
                              {"n_shared": ("n_shared", "sum")},
                              num_partitions=8).repartition(8).materialize()

    from forecastframe_ray.stages.join import hash_join

    ids = ds.map_batches(
        lambda b: pd.DataFrame({id_col: b[id_col].to_numpy()}),
        batch_format="pandas")
    joined = hash_join(ids, overlaps, on=[id_col], how="left",
                       num_partitions=num_partitions)

    def finish(batch: pd.DataFrame) -> pd.DataFrame:
        n_sh = batch["n_shared"].fillna(0).astype("int64").to_numpy()
        return pd.DataFrame({
            id_col: batch[id_col].to_numpy(),
            "n_shared": n_sh,
            "has_dup_span": n_sh > 0,
        })

    return joined.map_batches(finish, batch_format="pandas")
