"""Incremental corpus maintenance (pipelines/llm_incremental.py): the
round-5 engine capability. Invariant under test: ``build_index(shard_1);
append_shard(shard_2)`` produces byte-identical ``final_corpus`` to the
one-shot funnel over the concatenated shards — including the cross-shard
cluster-merge (representative remap) path — plus append-monotonic guard
and crash-retry idempotence (mirroring tests/test_incremental_tiers.py)."""

import shutil

import numpy as np
import pandas as pd
import pytest
import ray.data

from forecastframe_ray.pipelines import dedup as D
from forecastframe_ray.pipelines import llm_incremental as LI

KW = dict(minhash_threshold=0.8, min_words_per_line=3,
          require_terminal=False)


def _corpus(path: str) -> pd.DataFrame:
    return (LI.final_corpus(path).to_pandas()
            .sort_values("doc_id").reset_index(drop=True))


@pytest.fixture()
def shards():
    """Two shards engineered to exercise every maintenance path:

    - B (id 1) and C (id 2) in shard 1 are NOT near-dups of each other
      (asserted below via exact n-gram Jaccard), but A (id 30) in shard 2
      is a near-dup of BOTH → appending shard 2 must MERGE two existing
      singleton clusters and remap the losing representative;
    - id 31 is an exact duplicate of a shard-1 doc → digest-index hit;
    - ids 32/33 are exact dups of each other inside shard 2 → new-vs-new;
    - filler docs keep the LSH buckets honest.
    """
    # disjoint vocab sections so shingle overlap is the SET overlap we
    # engineered (random draws from a small vocab share too many 5-grams)
    words = ["uniq%04dword" % i for i in range(4000)]
    base = " ".join(words[0:200])
    s1 = " ".join(words[200:240])
    s2 = " ".join(words[300:340])
    B, C, A = base + " " + s1, base + " " + s2, base
    assert D.ngram_jaccard(B, C) < 0.8 <= min(D.ngram_jaccard(A, B),
                                              D.ngram_jaccard(A, C))
    fillers1 = [" ".join(words[400 + 50 * k: 450 + 50 * k])
                for k in range(20)]
    fillers2 = [" ".join(words[1400 + 50 * k: 1450 + 50 * k])
                for k in range(18)]
    sh1 = pd.DataFrame({"doc_id": list(range(1, 23)),
                        "text": [B, C] + fillers1})
    sh2 = pd.DataFrame({"doc_id": list(range(30, 52)),
                        "text": [A, fillers1[0], fillers2[0], fillers2[0]]
                        + fillers2})
    return sh1, sh2


def _fresh(*dirs):
    for d in dirs:
        shutil.rmtree(d, ignore_errors=True)


def test_incremental_equals_full_rebuild(tmp_path, shards):
    sh1, sh2 = shards
    full_dir, inc_dir = str(tmp_path / "full"), str(tmp_path / "inc")

    LI.build_index(ray.data.from_pandas(pd.concat([sh1, sh2],
                                                  ignore_index=True)),
                   full_dir, **KW)
    full = _corpus(full_dir)

    LI.build_index(ray.data.from_pandas(sh1), inc_dir, **KW)
    m = LI.append_shard(ray.data.from_pandas(sh2), inc_dir)
    inc = _corpus(inc_dir)

    pd.testing.assert_frame_equal(full, inc)
    # the engineered paths actually ran
    assert m["rep_merges"] >= 1          # B/C clusters merged via A
    assert m["exact_survivors"] < len(sh2)  # digest-index + new-vs-new hits
    assert m["old_docs_probed"] >= 1     # band index returned old members
    # the losing old representative was redirected, not rewritten
    assert LI._load_remap(inc_dir)


def test_three_shard_chain(tmp_path, shards):
    sh1, sh2 = shards
    sh3 = pd.DataFrame({"doc_id": [60, 61],
                        "text": [sh1["text"].iloc[0],  # exact dup of B
                                 "fresh unique text about w0001 w0002"]})
    full_dir, inc_dir = str(tmp_path / "full"), str(tmp_path / "inc")
    LI.build_index(ray.data.from_pandas(
        pd.concat([sh1, sh2, sh3], ignore_index=True)), full_dir, **KW)
    LI.build_index(ray.data.from_pandas(sh1), inc_dir, **KW)
    LI.append_shard(ray.data.from_pandas(sh2), inc_dir)
    LI.append_shard(ray.data.from_pandas(sh3), inc_dir)
    pd.testing.assert_frame_equal(_corpus(full_dir), _corpus(inc_dir))


def test_append_monotonic_guard(tmp_path, shards):
    sh1, _ = shards
    d = str(tmp_path / "idx")
    LI.build_index(ray.data.from_pandas(sh1), d, **KW)
    with pytest.raises(ValueError, match="append-monotonic"):
        LI.append_shard(ray.data.from_pandas(sh1), d)


def test_crash_retry_idempotent(tmp_path, shards):
    """A crash mid-append (simulated via the checkpoint fail_after hook on
    the last table merge) leaves a state from which re-submitting the SAME
    append converges to the uninterrupted result — partitions already
    merged are skipped by delta_id, the shard's own partial residue is
    excluded from the probes by the stored (pre-shard) max_seen_id."""
    sh1, sh2 = shards
    clean_dir, crash_dir = str(tmp_path / "clean"), str(tmp_path / "crash")

    LI.build_index(ray.data.from_pandas(sh1), clean_dir, **KW)
    LI.append_shard(ray.data.from_pandas(sh2), clean_dir,
                    shard_id="shard-001")
    want = _corpus(clean_dir)

    LI.build_index(ray.data.from_pandas(sh1), crash_dir, **KW)
    with pytest.raises(RuntimeError, match="simulated crash"):
        LI.append_shard(ray.data.from_pandas(sh2), crash_dir,
                        shard_id="shard-001", fail_after=1)
    # meta (the commit point) must NOT have advanced
    assert LI._load_meta(crash_dir)["shards"] == ["shard-000"]
    LI.append_shard(ray.data.from_pandas(sh2), crash_dir,
                    shard_id="shard-001")
    pd.testing.assert_frame_equal(want, _corpus(crash_dir))
    assert LI._load_meta(crash_dir)["shards"] == ["shard-000", "shard-001"]


def test_compact_then_append(tmp_path, shards):
    """Compaction resolves remaps into the corpus rows, clears the remap
    log, preserves the final corpus byte-for-byte, and the compacted
    index keeps accepting appends with unchanged semantics."""
    sh1, sh2 = shards
    sh3 = pd.DataFrame({"doc_id": [60, 61],
                        "text": [sh1["text"].iloc[0],
                                 "fresh unique text about w0001 w0002"]})
    src, dst = str(tmp_path / "src"), str(tmp_path / "dst")
    full_dir = str(tmp_path / "full")

    LI.build_index(ray.data.from_pandas(sh1), src, **KW)
    LI.append_shard(ray.data.from_pandas(sh2), src)  # creates a remap row
    assert LI._load_remap(src)
    m = LI.compact_index(src, dst)
    assert m["resolved_remaps"] >= 1
    assert not LI._load_remap(dst)  # redirects folded into rep_id
    pd.testing.assert_frame_equal(_corpus(src), _corpus(dst))

    LI.append_shard(ray.data.from_pandas(sh3), dst)
    LI.build_index(ray.data.from_pandas(
        pd.concat([sh1, sh2, sh3], ignore_index=True)), full_dir, **KW)
    pd.testing.assert_frame_equal(_corpus(full_dir), _corpus(dst))


def test_max_seen_id_zero_is_not_missing(tmp_path):
    # ADVICE (low): ``int(ds.max(id_col) or -1)`` read a max doc id of 0 as
    # "no docs", so a later shard could reuse id 0 past the monotonic guard
    words = ["zero%04dword" % i for i in range(300)]
    doc = pd.DataFrame({"doc_id": [0], "text": [" ".join(words[:60])]})
    first = str(tmp_path / "first")
    LI.build_index(ray.data.from_pandas(doc), first, **KW)
    assert LI._load_meta(first)["max_seen_id"] == 0
    with pytest.raises(ValueError, match="append-monotonic"):
        LI.append_shard(ray.data.from_pandas(doc), first)

    # the same on append: a shard whose max id is 0
    neg = pd.DataFrame({"doc_id": [-2, -1],
                        "text": [" ".join(words[100:160]),
                                 " ".join(words[200:260])]})
    later = str(tmp_path / "later")
    LI.build_index(ray.data.from_pandas(neg), later, **KW)
    LI.append_shard(ray.data.from_pandas(doc), later)
    assert LI._load_meta(later)["max_seen_id"] == 0
