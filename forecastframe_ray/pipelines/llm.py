"""The LLM-training-data flagship pipeline (session brief; second flagship
next to the web tier cascade): corpus-level boilerplate removal → C4-style
line cleaning → exact dedup → MinHash+LSH near-dup detection → connected
components → keep one representative per duplicate cluster → checkpointed
partitioned output.

No analog in the reference (cited for contrast:
/root/reference/forecastframe/main.py:61-69 has only PK-uniqueness exact
dedup); each stage is the already-oracled component from
:mod:`forecastframe_ray.pipelines.textstats` / :mod:`.dedup`, composed
end-to-end.

Stage ordering matters and is tested: boilerplate lines are C4-clean (≥5
words, terminal punctuation) so only the corpus-frequency pass can remove
them — and removing them FIRST is what lets exact dedup collapse copies
that differ only in appended boilerplate.

Scale design (100 TB framing): the corpus streams from storage (the two
boilerplate passes re-read it — input should be parquet-backed, not a
materialized Dataset); the only materializations are the cleaned and
exact-deduped corpora (each ≪ input, reused by two downstream consumers);
every shuffle key is fixed-width (uint64 line hash, 16-byte digest, uint64
band bucket); the near-dup pair list (collision-scale, ~0.2 pairs per
doc) is collected for driver-side connected components, and the
non-representative id set ships worker-side to an anti semi-join.
"""

from __future__ import annotations

import time

import numpy as np
import pandas as pd

from forecastframe_ray.pipelines import dedup as D
from forecastframe_ray.pipelines import textstats as T


def dedup_pipeline(docs_ds, id_col: str = "doc_id", text_col: str = "text",
                   minhash_threshold: float = 0.7, max_repeats: int = 3,
                   min_words_per_line: int = 5, require_terminal: bool = True,
                   num_partitions: int = 32):
    """The composed funnel. Returns ``(final_dataset, funnel_metrics)``
    where ``final_dataset`` is the surviving ``(id, text)`` corpus (lazy
    past the internal materialization points) and the metrics dict carries
    the per-stage doc counts plus per-stage wall seconds (each stage ends
    at a materialization/count barrier, so the segments are meaningful)."""
    t0 = time.perf_counter()
    stage_wall: dict[str, float] = {}
    docs = docs_ds.select_columns([id_col, text_col])

    # 1. corpus-level boilerplate removal (two passes: hash-count shuffle +
    #    broadcast strip), then 2. C4 line cleaning — both stream
    stripped = T.remove_boilerplate_lines(docs, text_col=text_col,
                                          max_repeats=max_repeats,
                                          num_partitions=num_partitions,
                                          id_col=id_col)
    cleaned = stripped.map_batches(
        lambda b: T.c4_clean_batch(b, text_col=text_col,
                                   min_words_per_line=min_words_per_line,
                                   require_terminal=require_terminal)
        .rename(columns={"text_clean": "__tc"})
        [[id_col, "__tc"]].rename(columns={"__tc": text_col}),
        batch_format="pandas",
    ).materialize()  # reused: exact-dedup digest pass + survivor filter
    n_clean = cleaned.count()
    stage_wall["clean_s"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()

    # 3. exact dedup (digest → min-id per digest, keep-set worker-side);
    # its aggregate's P follows ``cleaned``'s metadata row count
    # (agg.partition_count), so a small corpus runs one id range, not 16.
    # No repartition after it: the broadcast filter keeps the input's
    # blocks, and the scale path's hash join (above 5M survivors) has one
    # partition per ~100k rows, so it leaves at least one block per CPU
    # slot up to 50 slots. A repartition to ``num_partitions`` cost a
    # corpus copy, a shuffle and twice the tasks in each later stage.
    kept = D.exact_dedup(cleaned, text_col=text_col, id_col=id_col) \
        .materialize()  # reused: minhash signatures + candidate text fetch
    n_exact = kept.count()
    stage_wall["exact_dedup_s"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()

    # 4. near-dup pairs + 5. clusters → drop non-representatives. Each of
    # the MinHash exchanges is sized from rows already known: the prune
    # from ``kept``'s metadata count × bands, the verify and the pair
    # dedup from the candidate rows it counts
    pairs = D.minhash_lsh_pairs(kept, text_col=text_col, id_col=id_col,
                                threshold=minhash_threshold).materialize()
    n_pairs = pairs.count()
    stage_wall["minhash_pairs_s"] = round(time.perf_counter() - t0, 3)
    t0 = time.perf_counter()
    if n_pairs == 0:
        final = kept
        n_clusters = 0
    else:
        rep = D.clusters_from_pairs(pairs.to_pandas())
        non_rep = pd.DataFrame({id_col: np.array(
            [k for k, v in rep.items() if k != v], dtype=np.int64)})
        n_clusters = len(set(rep.values()))
        from forecastframe_ray.stages.join import broadcast_semi_join
        final = broadcast_semi_join(kept, non_rep, on=[id_col], anti=True) \
            if len(non_rep) else kept

    stage_wall["cluster_s"] = round(time.perf_counter() - t0, 3)
    return final, {
        "docs_after_clean": int(n_clean),
        "docs_after_exact_dedup": int(n_exact),
        "near_dup_pairs": int(n_pairs),
        "clusters": n_clusters,
        "stage_wall_s": stage_wall,
    }


def run(docs_ds, out_dir: str | None = None, id_col: str = "doc_id",
        text_col: str = "text", minhash_threshold: float = 0.7,
        max_repeats: int = 3, min_words_per_line: int = 5,
        require_terminal: bool = True, num_partitions: int = 32,
        pack_context: int | None = None) -> dict:
    """End-to-end run with checkpointed output. Returns the funnel metrics
    (docs at each stage, wall seconds, docs/sec on the input count).

    ``pack_context``: when set, the surviving corpus is additionally packed
    into fixed ``pack_context``-token training chunks
    (:func:`forecastframe_ray.pipelines.corpus.pack_token_stream`) — the
    funnel's natural last stage — and the metrics gain ``pack`` counts
    (chunks, content tokens, wall). The span table is checkpointed next to
    the docs when ``out_dir`` is given. Default ``None`` keeps the pinned
    funnel numbers byte-identical to the historical benches."""
    t_start = time.perf_counter()
    n_in = docs_ds.count()  # parquet-backed input → metadata-only

    final, funnel = dedup_pipeline(
        docs_ds, id_col=id_col, text_col=text_col,
        minhash_threshold=minhash_threshold, max_repeats=max_repeats,
        min_words_per_line=min_words_per_line,
        require_terminal=require_terminal, num_partitions=num_partitions)

    # 6. checkpointed partitioned output (resume skips finished partitions;
    # the representative filter over ``kept`` executes here, so this
    # segment's wall includes it)
    t_write = time.perf_counter()
    if out_dir:
        from forecastframe_ray.state import checkpoint
        rows = checkpoint.write_partitioned(
            final, out_dir, "docs", [id_col],
            num_partitions=num_partitions, sort_cols=[id_col])
        n_new = int(sum(r["rows"] for r in rows))
        n_final = sum(r["rows"] for (t, _), r in
                      checkpoint.load_done(out_dir).items() if t == "docs")
    else:
        n_new = n_final = final.count()
    funnel["stage_wall_s"]["write_s"] = \
        round(time.perf_counter() - t_write, 3)

    if pack_context:
        from forecastframe_ray.pipelines.corpus import (pack_chunk_stats,
                                                        pack_token_stream)
        t_pack = time.perf_counter()
        spans = pack_token_stream(final, pack_context, text_col=text_col,
                                  id_col=id_col,
                                  num_partitions=num_partitions)
        if out_dir:
            from forecastframe_ray.state import checkpoint
            checkpoint.write_partitioned(
                spans, out_dir, "pack_spans", [id_col],
                num_partitions=num_partitions, sort_cols=[id_col, "chunk_id"])
        stats = pack_chunk_stats(spans).to_pandas()
        funnel["stage_wall_s"]["pack_s"] = \
            round(time.perf_counter() - t_pack, 3)
        funnel["pack"] = {
            "context_len": int(pack_context),
            "chunks": int(len(stats)),
            "content_tokens": int(stats["n_content_tokens"].sum()),
        }

    wall = time.perf_counter() - t_start
    return {
        "docs_in": int(n_in),
        **funnel,
        "docs_final": int(n_final),
        "docs_written": int(n_new),
        "wall_s": round(wall, 3),
        "docs_per_sec": round(n_in / wall, 1),
    }


# ---------------------------------------------------------------------------
# pandas oracle (tests): independent single-node recompute of the exact
# (non-approximate) part of the funnel — boilerplate → C4 → exact dedup
# ---------------------------------------------------------------------------

def oracle_exact_funnel(docs_df: pd.DataFrame, text_col: str = "text",
                        id_col: str = "doc_id", max_repeats: int = 3,
                        min_words_per_line: int = 5,
                        require_terminal: bool = True) -> pd.DataFrame:
    """Plain-pandas per-doc loop (deliberately NOT the vectorized engine
    code) producing the post-exact-dedup corpus ``(doc_id, text)``."""
    from collections import Counter

    line_counts: Counter = Counter()
    for txt in docs_df[text_col].fillna(""):
        for ln in txt.split("\n"):
            if ln.strip():
                line_counts[ln.strip()] += 1
    bad = {ln for ln, c in line_counts.items() if c > max_repeats}

    rows = []
    for i, txt in zip(docs_df[id_col], docs_df[text_col].fillna("")):
        lines = [ln for ln in txt.split("\n")
                 if ln.strip() and ln.strip() not in bad]
        good = []
        for ln in lines:
            ln = ln.strip()
            if (len(ln.split()) >= min_words_per_line
                    and (not require_terminal
                         or ln.endswith((".", "!", "?", '"', "'")))
                    and "{" not in ln and "}" not in ln
                    and "lorem ipsum" not in ln.lower()):
                good.append(ln)
        if len(good) >= 1:
            rows.append((i, "\n".join(good)))
    out = pd.DataFrame(rows, columns=[id_col, text_col])
    keep = out.groupby(text_col, sort=False)[id_col].transform("min")
    return out[out[id_col] == keep].reset_index(drop=True)
