"""Cluster entry point for INCREMENTAL LLM-funnel corpus maintenance —
submit with:

    # first shard: build the probe index
    ray job submit --working-dir . -- python jobs/run_llm_incremental.py \\
        --build --input s3://bucket/docs/shard0/ --index s3://bucket/index/

    # every later shard: probe-only append (O(shard + collisions))
    ray job submit --working-dir . -- python jobs/run_llm_incremental.py \\
        --input s3://bucket/docs/shardK/ --index s3://bucket/index/

Appends are idempotent per shard id: re-submitting the same append after a
mid-job failure skips already-merged partitions (checkpoint manifest +
parquet-footer delta ids) and converges to the uninterrupted result — the
crash-retry contract pinned by tests/test_llm_incremental.py. A shard's
id (``--shard-id``, by default derived from its doc id range) owns its
offset: appending a different shard over a failed append that was never
re-submitted raises instead of dropping rows.

Local smoke (sandbox):
    python jobs/run_llm_incremental.py --build --synth-docs 20000 \\
        --index /tmp/llmidx
    python jobs/run_llm_incremental.py --synth-docs 20000 \\
        --synth-offset 20000 --index /tmp/llmidx
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--input", help="parquet docs dir (doc_id, text, ...)")
    ap.add_argument("--synth-docs", type=int, default=0,
                    help="generate a deterministic synthetic shard instead")
    ap.add_argument("--synth-offset", type=int, default=0,
                    help="doc_id offset for synthetic shards (appends need "
                         "ids above the index's max_seen_id)")
    ap.add_argument("--index", required=True, help="index directory")
    ap.add_argument("--build", action="store_true",
                    help="build the index from this shard (first run)")
    ap.add_argument("--compact", metavar="DEST",
                    help="offline compaction: rewrite the index into DEST "
                         "(consolidated files, remaps resolved) and exit")
    ap.add_argument("--shard-id", default=None)
    ap.add_argument("--num-partitions", type=int, default=16)
    ap.add_argument("--minhash-threshold", type=float, default=0.7)
    ap.add_argument("--min-words-per-line", type=int, default=3)
    args = ap.parse_args()

    import ray
    import ray.data

    if not ray.is_initialized():  # ray job submit initializes the session
        ray.init(address=os.environ.get("RAY_ADDRESS", "local"),
                 include_dashboard=False)

    from forecastframe_ray.pipelines import llm_incremental as LI

    if args.compact:
        metrics = LI.compact_index(args.index, args.compact)
        metrics["final_corpus_docs"] = \
            int(LI.final_corpus(args.compact).count())
        print(json.dumps(metrics, sort_keys=True))
        return 0

    if args.synth_docs:
        import pandas as pd

        from forecastframe_ray import synth
        off = args.synth_offset
        docs = synth.docs_dataset(args.synth_docs, seed=11 + off) \
            .map_batches(
                lambda b: pd.DataFrame(
                    {"doc_id": b["doc_id"].to_numpy() + off,
                     "text": b["text"]}),
                batch_format="pandas")
    else:
        docs = ray.data.read_parquet(args.input, columns=["doc_id", "text"])

    if args.build:
        metrics = LI.build_index(
            docs, args.index, minhash_threshold=args.minhash_threshold,
            min_words_per_line=args.min_words_per_line,
            require_terminal=False, num_partitions=args.num_partitions,
            shard_id=args.shard_id or "shard-000")
    else:
        metrics = LI.append_shard(docs, args.index, shard_id=args.shard_id)
    metrics["final_corpus_docs"] = int(LI.final_corpus(args.index).count())
    print(json.dumps(metrics, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
