"""Corpus-construction ops (pipelines/corpus.py): vocabulary top-k with
deterministic tie-break, and fixed-size token chunking."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pandas as pd
import pytest

import ray.data

from forecastframe_ray.pipelines.corpus import (
    chunk_batch, chunk_documents, token_vocabulary)


def test_token_vocabulary_counts_and_tiebreak():
    texts = ["b b b a a c", "a  a\tb", "", "d c c"]
    ds = ray.data.from_pandas(pd.DataFrame({"text": texts}))
    out = token_vocabulary(ds, top_k=3, num_partitions=4)
    # counts: a=4, b=4, c=3, d=1 → top3 by (n desc, token asc) = a, b, c
    assert out["token"].tolist() == ["a", "b", "c"]
    assert out["n"].tolist() == [4, 4, 3]


def test_token_vocabulary_topk_cut_is_exact():
    # many tokens spread over many partitions; top-k must equal the
    # global sort regardless of block layout
    texts = [f"tok{i % 37} " * (i % 7 + 1) for i in range(200)]
    full = Counter(" ".join(texts).split())
    expect = sorted(full.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    ds = ray.data.from_pandas(
        pd.DataFrame({"text": texts})).repartition(8)
    out = token_vocabulary(ds, top_k=10, num_partitions=16)
    assert list(zip(out["token"], out["n"])) == expect


def test_chunk_batch_contract():
    b = pd.DataFrame({"doc_id": [1, 2, 3],
                      "text": ["t0 t1 t2 t3 t4 t5 t6", "solo", ""]})
    out = chunk_batch(b, "text", "doc_id", size=4, stride=3)
    # doc 1: starts 0,3,6 → [t0..t3], [t3..t6], [t6]
    d1 = out[out.doc_id == 1]
    assert d1["chunk_text"].tolist() == [
        "t0 t1 t2 t3", "t3 t4 t5 t6", "t6"]
    assert d1["n_tokens"].tolist() == [4, 4, 1]
    assert d1["chunk_id"].tolist() == [0, 1, 2]
    assert out[out.doc_id == 2]["chunk_text"].tolist() == ["solo"]
    assert (out.doc_id != 3).all()  # token-less docs emit nothing


def test_chunk_documents_roundtrip_no_overlap():
    # stride == size: concatenating a doc's chunks reproduces its
    # whitespace-normalized text
    texts = ["alpha beta  gamma delta epsilon", "one two", ""]
    ds = ray.data.from_pandas(
        pd.DataFrame({"doc_id": range(3), "text": texts}))
    df = chunk_documents(ds, size=2).to_pandas()
    back = (df.sort_values(["doc_id", "chunk_id"])
              .groupby("doc_id")["chunk_text"].agg(" ".join))
    assert back[0] == "alpha beta gamma delta epsilon"
    assert back[1] == "one two"


def test_chunk_documents_rejects_bad_sizes():
    ds = ray.data.from_pandas(pd.DataFrame({"doc_id": [1], "text": ["x"]}))
    with pytest.raises(ValueError):
        chunk_documents(ds, size=0)


def test_gopher_filter_rules():
    from forecastframe_ray.pipelines.textstats import gopher_filter_batch

    good = " ".join(f"word{i} filler{i}" for i in range(30))  # 60 distinct
    texts = [
        good,
        "too few",                                   # f_words
        "xx " * 50,                                  # top-2-gram dominated
        ("supercalifragilistic " * 20).strip(),      # mean word len > 10
        "\n".join(["line"] * 6 + [f"u{i} v{i} w{i}" for i in range(4)]),
    ]
    b = pd.DataFrame({"doc_id": range(len(texts)), "text": texts})
    out = gopher_filter_batch(b, "text")
    assert out["kept"].tolist() == [1, 0, 0, 0, 0]
    assert out.loc[1, "f_words"] == 0
    assert out.loc[2, "f_top2"] == 0
    assert out.loc[3, "f_wordlen"] == 0
    assert out.loc[4, "f_dupline"] == 0
    # boundary: dup_line_frac exactly 0.3 is not reached by integer rule
    # 10*(n-nd) <= 3*n with n=10, nd=7 -> 30 <= 30 passes
    b2 = pd.DataFrame({"doc_id": [0], "text": [
        "\n".join(["dup"] * 4 + [f"u{i}" for i in range(6)])]})
    assert gopher_filter_batch(b2, "text").loc[0, "f_dupline"] == 1


def test_pmi_bigrams_basic():
    from forecastframe_ray.pipelines.corpus import pmi_bigrams

    # "new york" always collocates; "the cat/dog/car" dilutes "the"
    # the extra "the end" doc breaks an exact-PMI coincidence between the
    # perfect collocations and the diluted "the X" pairs
    texts = (["new york city is big"] * 5
             + ["the cat sat", "the dog ran", "the car red",
                "the cat ran", "the dog sat", "the end"])
    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(len(texts), dtype=np.int64), "text": texts}))
    out = pmi_bigrams(ds, top_k=10, min_count=2)
    assert (out["c_xy"] >= 2).all()
    # the 4 bigrams of the repeated sentence are all perfect collocations
    # (identical PMI, tie-broken alphabetically) and outrank diluted "the X"
    top4 = set(out.head(4)["bigram"])
    assert top4 == {"city is", "is big", "new york", "york city"}
    top_pmi = out["pmi"].iloc[0]
    the_cat = out[out["bigram"] == "the cat"]
    assert len(the_cat) == 1 and the_cat["pmi"].iloc[0] < top_pmi
    # deterministic under different block layouts
    out2 = pmi_bigrams(ds.repartition(4), top_k=10, min_count=2,
                       num_partitions=4)
    pd.testing.assert_frame_equal(out, out2)


def test_pmi_bigrams_join_path_matches_broadcast():
    from forecastframe_ray.pipelines.corpus import pmi_bigrams

    rng = np.random.default_rng(9)
    vocab = [f"w{i}" for i in range(12)]
    texts = [" ".join(rng.choice(vocab, size=20)) for _ in range(30)]
    ds = ray.data.from_pandas(pd.DataFrame(
        {"doc_id": np.arange(30, dtype=np.int64), "text": texts}))
    a = pmi_bigrams(ds, top_k=15, min_count=2)
    b = pmi_bigrams(ds, top_k=15, min_count=2, broadcast_limit=0)
    pd.testing.assert_frame_equal(a, b)


def test_exact_dedup_keep_best_prefers_priority_over_min_id(ray_session):
    # duplicate text where the PREFERRED source has the LARGER id: the
    # keep-best rule must pick it, while plain exact_dedup keeps min id
    from forecastframe_ray.pipelines.dedup import (exact_dedup,
                                                   exact_dedup_keep_best)
    df = pd.DataFrame({
        "doc_id": [0, 1, 2, 3, 4],
        "text": ["same text", "same text", "unique one",
                 "other dup", "other dup"],
        "source": ["zeta", "alpha", "mid", "beta", "beta"],
    })
    ds = ray.data.from_pandas(df).repartition(3)
    best = exact_dedup_keep_best(ds, [("source", True)]) \
        .to_pandas().sort_values("doc_id")
    # "same text": alpha (id 1) beats zeta (id 0); "other dup": tie on
    # source -> min id 3; unique survives
    assert list(best["doc_id"]) == [1, 2, 3]
    plain = exact_dedup(ds).to_pandas().sort_values("doc_id")
    assert list(plain["doc_id"]) == [0, 2, 3]


def test_exact_dedup_keep_best_forced_join_path(ray_session):
    # broadcast_limit=0 forces the distributed hash-join semi-join path;
    # result must equal the broadcast path
    from forecastframe_ray.pipelines.dedup import exact_dedup_keep_best
    rng = np.random.default_rng(5)
    texts = [f"doc {i % 40}" for i in range(200)]   # 5x duplication
    df = pd.DataFrame({
        "doc_id": np.arange(200, dtype=np.int64),
        "text": texts,
        "source": rng.choice(["a", "b", "c"], 200),
    })
    ds = ray.data.from_pandas(df).repartition(4)
    a = exact_dedup_keep_best(ds, [("source", True)]) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    b = exact_dedup_keep_best(ds, [("source", True)], broadcast_limit=0) \
        .to_pandas().sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    # reference: pandas row_number policy
    want = df.sort_values(["source", "doc_id"]) \
        .drop_duplicates("text", keep="first")
    assert set(a["doc_id"]) == set(want["doc_id"])


def test_zipf_fit_synthetic_power_law(ray_session, tmp_path):
    # a corpus whose token counts follow count ∝ rank^-1 exactly must fit
    # slope ≈ -1 with r2 ≈ 1
    from forecastframe_ray.pipelines import queries as Q

    words = []
    for r in range(1, 41):
        words.extend([f"tok{r:03d}"] * max(1, int(4000 / r)))
    rng = np.random.default_rng(3)
    rng.shuffle(words)
    texts = [" ".join(words[i::20]) for i in range(20)]
    pd.DataFrame({"doc_id": range(20), "text": texts}) \
        .to_parquet(tmp_path / "documents.parquet")
    out = Q.q_zipf_fit_documents(str(tmp_path))
    assert out["n_tokens"].iloc[0] == 40
    assert abs(out["zipf_slope"].iloc[0] + 1.0) < 0.02
    assert out["r2"].iloc[0] > 0.999

