"""Tests for the training-data pipeline stages: dedup (exact / MinHash+LSH /
SimHash / n-gram Jaccard / embedding-cosine), similarity search (brute-force
+ IVF) and text analysis (session brief; SURVEY.md §2 extension surface)."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from forecastframe_ray.pipelines import dedup, similarity, textstats


def _docs_ds():
    texts = [
        "the quick brown fox jumps over the lazy dog",
        "the quick brown fox jumps over the lazy dog",          # exact dup of 0
        "the quick brown fox jumped over the lazy dog",         # near dup of 0
        "completely different content about data processing",
        "der schnelle braune fuchs springt über den faulen hund und der",
        "le renard brun rapide saute par dessus le chien et le la les",
        "",                                                     # empty edge
    ]
    return ray.data.from_pandas(pd.DataFrame({
        "doc_id": np.arange(len(texts), dtype=np.int64), "text": texts,
    }))


def test_exact_dedup_keeps_min_id():
    out = dedup.exact_dedup(_docs_ds()).to_pandas()
    assert sorted(out["doc_id"]) == [0, 2, 3, 4, 5, 6]  # 1 dropped (dup of 0)
    counts = dedup.duplicate_counts(_docs_ds()).to_pandas()
    assert counts["n_copies"].sum() == 7
    assert counts["n_copies"].max() == 2


def test_minhash_lsh_finds_near_dups():
    pairs = dedup.minhash_lsh_pairs(_docs_ds(), threshold=0.5).to_pandas()
    pairs.columns = ["id_a", "id_b", "jaccard"]
    got = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    assert (0, 1) in got          # exact dup → jaccard 1.0
    assert (0, 2) in got          # near dup
    assert pairs.set_index(["id_a", "id_b"]).loc[(0, 1), "jaccard"] == 1.0
    # verified jaccard matches the direct oracle
    j = dedup.ngram_jaccard("the quick brown fox jumps over the lazy dog",
                            "the quick brown fox jumped over the lazy dog")
    assert abs(pairs.set_index(["id_a", "id_b"]).loc[(0, 2), "jaccard"] - j) < 1e-12
    # dissimilar docs must not pair
    assert not any(3 in p or 4 in p for p in got)


def test_simhash_near_dups():
    pairs = dedup.simhash_near_dup_pairs(_docs_ds(), max_hamming=6).to_pandas()
    pairs.columns = ["id_a", "id_b", "hamming"]
    assert (pairs[["id_a", "id_b"]].values == [0, 1]).all(axis=1).any()
    assert pairs.set_index(["id_a", "id_b"]).loc[(0, 1), "hamming"] == 0


def _reps(components):
    return {x: min(c) for c in components for x in c}


@pytest.mark.parametrize("id_a,id_b,expect", [
    ([0, 2, 5], [1, 0, 6], _reps([{0, 1, 2}, {5, 6}])),
    ([0, 2, 5, 8, 10], [1, 0, 6, 9, 11],
     _reps([{0, 1, 2}, {5, 6}, {8, 9}, {10, 11}])),
    ([0, 2, 5, 8, 10, 3], [1, 0, 6, 9, 11, 1],
     _reps([{0, 1, 2, 3}, {5, 6}, {8, 9}, {10, 11}])),
    # a 9-node chain fed from its far end: every rep must reach 0
    (list(range(7, -1, -1)), list(range(8, 0, -1)), _reps([set(range(9))])),
    ([], [], {}),
], ids=["two_components", "four_components", "bridged_component",
        "reversed_chain", "no_pairs"])
def test_clusters_from_pairs_union_find(id_a, id_b, expect):
    pairs = pd.DataFrame({"id_a": np.array(id_a, dtype=np.int64),
                          "id_b": np.array(id_b, dtype=np.int64)})
    assert dedup.clusters_from_pairs(pairs) == expect


def test_clusters_distributed_of_no_pairs_is_empty():
    """An empty pair Dataset labels no node: every exact-dedup survivor
    stays its own rep."""
    from forecastframe_ray.pipelines import llm_incremental as LI

    kept = dedup.exact_dedup(_docs_ds())
    pairs = ray.data.from_pandas(pd.DataFrame({
        "id_a": np.array([1, 2], dtype=np.int64),
        "id_b": np.array([3, 4], dtype=np.int64),
        "jaccard": [0.9, 0.8]})).filter(lambda r: False)
    rep = LI._rep_mapping(pairs)
    assert rep == {}
    got = LI._apply_rep(kept, rep, "doc_id").to_pandas()
    assert sorted(got["doc_id"]) == [0, 2, 3, 4, 5, 6]
    assert (got["rep_id"] == got["doc_id"]).all()


def _emb_ds(n=64, dim=16, seed=9):
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((n, dim))
    M[1] = M[0] + 1e-3 * rng.standard_normal(dim)   # near-dup of 0
    return ray.data.from_pandas(pd.DataFrame({
        "vec_id": np.arange(n, dtype=np.int64),
        "embedding": [row.astype(np.float32) for row in M],
    })), M


def test_embedding_near_dup_pairs():
    ds, _ = _emb_ds()
    pairs = dedup.embedding_near_dup_pairs(ds, threshold=0.99,
                                           num_planes=6).to_pandas()
    assert ((pairs["id_a"] == 0) & (pairs["id_b"] == 1)).any()


def test_brute_force_topk_matches_numpy():
    ds, M = _emb_ds()
    Q = M[:2]
    top = similarity.brute_force_topk(ds, Q, k=5)
    # numpy oracle
    Mn = M / np.linalg.norm(M, axis=1, keepdims=True)
    Qn = Q / np.linalg.norm(Q, axis=1, keepdims=True)
    sims = Mn @ Qn.T
    for qi in range(2):
        order = np.lexsort((np.arange(len(M)), -sims[:, qi]))[:5]
        got = top[top["query_ix"] == qi].sort_values("rank")["vec_id"].tolist()
        assert got == list(order)
    assert top[(top["query_ix"] == 0) & (top["rank"] == 0)]["vec_id"].iloc[0] == 0


def test_ivf_topk_recall():
    ds, M = _emb_ds(n=128)
    Q = M[:2]
    exact = similarity.brute_force_topk(ds, Q, k=5)
    approx = similarity.ivf_topk(ds, Q, k=5, num_centroids=4, nprobe=3)
    inter = set(map(tuple, approx[["query_ix", "vec_id"]].values)) & \
        set(map(tuple, exact[["query_ix", "vec_id"]].values))
    assert len(inter) >= 6  # ≥60% recall with 3/4 probes on random data
    assert (0, 0) in inter  # self-match always found


def test_token_counts_and_quality():
    tbl = pa.table({"text": ["Hello world!  ", "", "a b  c"]})
    out = textstats.token_counts_batch(tbl).to_pandas()
    assert out["n_tokens_ws"].tolist() == [2, 0, 3]
    assert out["n_chars_text"].tolist() == [14, 0, 6]
    q = textstats.quality_batch(pd.DataFrame({"text": ["the cat sat on the mat", ""]}))
    assert q["quality_score"].iloc[0] > q["quality_score"].iloc[1]
    assert q["stopword_frac"].iloc[0] == pytest.approx(3 / 6)


def test_lang_id():
    df = pd.DataFrame({"text": [
        "the cat is on the mat and it is happy",
        "der hund ist nicht mit der katze und das ist gut",
        "le chien est dans la maison et les chats",
        "el perro es un animal y la casa es grande",
        "zzz qqq",
    ]})
    out = textstats.lang_id_batch(df)
    assert out["lang_pred"].tolist() == ["en", "de", "fr", "es", "und"]


def test_fingerprint_deterministic_and_discriminative():
    df = pd.DataFrame({"text": ["hello world", "hello world", "other doc"]})
    out1 = textstats.fingerprint_batch(df.copy())
    out2 = textstats.fingerprint_batch(df.copy())
    assert (out1["doc_fingerprint"] == out2["doc_fingerprint"]).all()
    assert out1["doc_fingerprint"].iloc[0] == out1["doc_fingerprint"].iloc[1]
    assert out1["doc_fingerprint"].iloc[0] != out1["doc_fingerprint"].iloc[2]


def test_c4_clean():
    df = pd.DataFrame({"doc_id": [0, 1], "text": [
        "This is a good sentence with many words.\nshort\n"
        "Another proper sentence that ends with punctuation!\nvar x = {1};",
        "no punct line here at all\nok",
    ]})
    out = textstats.c4_clean_batch(df, min_words_per_line=5, min_lines=1)
    assert out["doc_id"].tolist() == [0]        # doc 1 has no valid lines
    assert out["n_lines_kept"].iloc[0] == 2     # short + brace lines dropped
    assert "{" not in out["text_clean"].iloc[0]


def test_remove_boilerplate_lines():
    boiler = "Subscribe to our newsletter today please."
    docs = [f"Unique content number {i} here.\n{boiler}" for i in range(6)]
    docs.append("A document with no boilerplate at all.")
    ds = ray.data.from_pandas(pd.DataFrame({
        "doc_id": np.arange(len(docs), dtype=np.int64), "text": docs,
    }))
    out = textstats.remove_boilerplate_lines(ds, max_repeats=3).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    # the 6x-repeated line is stripped everywhere; unique lines survive
    assert not out["text"].str.contains("Subscribe").any()
    assert (out.loc[:5, "n_boilerplate_removed"] == 1).all()
    assert out.loc[6, "n_boilerplate_removed"] == 0
    assert out.loc[0, "text"] == "Unique content number 0 here."


def test_minhash_band_wave_path_matches_single_wave():
    # wave_cand_limit=1 forces one verify wave per band group (the bounded-
    # peak-spill path for huge candidate sets); results must be identical
    # to the single-pass run
    single = dedup.minhash_lsh_pairs(_docs_ds(), threshold=0.5).to_pandas() \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    waved = dedup.minhash_lsh_pairs(_docs_ds(), threshold=0.5,
                                    wave_cand_limit=1).to_pandas() \
        .sort_values(["id_a", "id_b"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(single, waved, check_like=True)


def test_batch_shingle_windows_matches_per_doc():
    texts = ["hello world", "", "ab", "the quick brown fox jumps", "ab",
             "exactly5!", "x" * 4]
    flat, off, cnt = dedup.batch_shingle_windows(texts, 5)
    for i, t in enumerate(texts):
        got = np.unique(flat[off[i]: off[i] + cnt[i]])
        np.testing.assert_array_equal(got, dedup.shingle_hashes(t, 5))


def test_giant_identical_bucket_bounded():
    # 10k identical docs in one bucket: the exact-dup class exceeds
    # CLIQUE_CAP, so verify emits a STAR on the min id — k-1 pairs in
    # bounded time, cluster-equivalent to the O(k²) clique
    import time
    n = 10_000
    g = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64),
                      "text": ["the same boilerplate text"] * n})
    t0 = time.time()
    pairs = dedup.verify_lsh_bucket(g)
    assert time.time() - t0 < 10
    assert len(pairs) == n - 1
    assert (pairs["jaccard"] == 1.0).all()
    assert (pairs["id_a"] == 0).all()
    rep = dedup.clusters_from_pairs(pairs)
    assert set(rep.values()) == {0} and len(rep) == n


def test_giant_bucket_class_cap_star(monkeypatch):
    # past CLASS_CAP distinct texts, classes compare only to the min-id
    # class; exact-dup classes above CLIQUE_CAP emit stars
    monkeypatch.setattr(dedup, "CLASS_CAP", 2)
    monkeypatch.setattr(dedup, "CLIQUE_CAP", 2)
    a = "the quick brown fox jumps over the lazy dog"
    b = a.replace("jumps", "jumped")                  # near-dup of a
    c = "completely different content about nothing at all"
    g = pd.DataFrame({
        "doc_id": np.arange(6, dtype=np.int64),
        "text": [a, a, a, b, c, b],
    })
    pairs = dedup.verify_lsh_bucket(g, threshold=0.5)
    got = set(map(tuple, pairs[["id_a", "id_b"]].to_numpy()))
    # star over the 3-member exact-dup class of `a` (clique would be 3 pairs)
    assert (0, 1) in got and (0, 2) in got and (1, 2) not in got
    # cross-class pairs vs the min-id class only
    assert (0, 3) in got and (0, 5) in got
    assert not any(p for p in got if 4 in p)  # c is not a near-dup


def test_minhash_bucket_cap_drops_mega_buckets():
    # with bucket_cap below the collision size, every bucket of the
    # exact-dup trio is treated as a common-argmin artifact and dropped →
    # no pairs; the default cap finds them
    texts = ["the quick brown fox jumps over the lazy dog"] * 3 + [
        "completely different content about data processing"]
    ds = ray.data.from_pandas(pd.DataFrame({
        "doc_id": np.arange(4, dtype=np.int64), "text": texts}))
    full = dedup.minhash_lsh_pairs(ds, threshold=0.5).to_pandas()
    assert len(full) == 3  # the trio's clique
    capped = dedup.minhash_lsh_pairs(ds, threshold=0.5,
                                     bucket_cap=2).to_pandas()
    assert len(capped) == 0


def test_verify_partition_matches_per_bucket_reference():
    # the production partition-level verifier must emit the same deduped
    # (id_a, id_b, jaccard) set as the per-bucket reference kernel
    rng = np.random.default_rng(3)
    words = ["alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta"]
    base = [" ".join(rng.choice(words, 12)) for _ in range(40)]
    texts = []
    for t in base:
        texts.append(t)
        if rng.random() < 0.5:
            texts.append(t)                       # exact dup
        if rng.random() < 0.5:
            texts.append(t.replace("alpha", "ALPHA", 1))  # near dup
    df = pd.DataFrame({"doc_id": np.arange(len(texts), dtype=np.int64),
                       "text": texts})
    sig = dedup.minhash_batch(df, "text", 64, 5, 16)
    cand = sig[sig.duplicated(["band", "bucket"], keep=False)]
    cand = cand.merge(df, on="doc_id")

    def dedup_max(p):
        if len(p) == 0:
            return set()
        agg = p.groupby(["id_a", "id_b"])["jaccard"].max().reset_index()
        return set(map(tuple, agg.round(9).to_numpy()))

    ref_parts = [dedup.verify_lsh_bucket(g, threshold=0.4)
                 for _, g in cand.groupby(["band", "bucket"])]
    ref = dedup_max(pd.concat(ref_parts, ignore_index=True)
                    if ref_parts else pd.DataFrame())
    got = dedup_max(dedup.verify_lsh_partition(cand, threshold=0.4))
    assert got == ref and len(got) > 0
