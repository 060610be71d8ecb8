"""BM25 scoring (pipelines/tfidf.bm25_scores) formula + scale-shape checks
and the value-histogram query kernel."""

import numpy as np
import pandas as pd

import ray.data

from forecastframe_ray.pipelines.tfidf import bm25_scores


def _bm25_ref(docs, terms, k1=1.2, b=0.75):
    toks = [d.split() for d in docs]
    n = len(docs)
    avgdl = sum(len(t) for t in toks) / n
    df = {t: sum(1 for d in toks if t in d) for t in terms}
    out = {}
    for i, d in enumerate(toks):
        s = 0.0
        for t in terms:
            tf = d.count(t)
            if tf == 0:
                continue
            idf = np.log1p((n - df[t] + 0.5) / (df[t] + 0.5))
            s += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(d) / avgdl))
        if s > 0:
            out[i] = round(s, 6)
    return out


def test_bm25_matches_reference_formula(ray_session):
    docs = [
        "spark join window merge sort",
        "the quick brown fox",
        "join join join table scan",
        "window",
        "hash agg filter spark",
    ]
    df = pd.DataFrame({"doc_id": np.arange(len(docs), dtype=np.int64),
                       "text": docs})
    got = bm25_scores(ray.data.from_pandas(df), ["spark", "join", "window"],
                      num_partitions=2).to_pandas()
    want = _bm25_ref(docs, ["spark", "join", "window"])
    assert set(got["doc_id"]) == set(want)  # only matching docs emitted
    for _, r in got.iterrows():
        np.testing.assert_allclose(r["bm25"], want[int(r["doc_id"])],
                                   atol=1e-6)


def test_bm25_rare_term_outranks_common(ray_session):
    # 'rare' appears once in the corpus, 'common' in every doc: with equal
    # tf and dl the rare term must contribute a strictly higher score
    docs = ["rare common", "x common", "y common", "z common"]
    df = pd.DataFrame({"doc_id": np.arange(4, dtype=np.int64), "text": docs})
    rare = bm25_scores(ray.data.from_pandas(df), ["rare"]).to_pandas()
    common = bm25_scores(ray.data.from_pandas(df), ["common"]).to_pandas()
    assert len(rare) == 1 and len(common) == 4
    assert rare["bm25"].iloc[0] > common["bm25"].max()
