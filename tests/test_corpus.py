"""Exact dedup with a priority keep rule
(``dedup.exact_dedup_keep_best``): broadcast and forced distributed-join
paths."""

from __future__ import annotations

import numpy as np
import pandas as pd

import ray.data


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
    # the keep rule over 4 blocks and 5x duplication equals pandas'
    # row_number policy
    from forecastframe_ray.pipelines.dedup import exact_dedup_keep_best
    rng = np.random.default_rng(5)
    texts = [f"doc {i % 40}" for i in range(200)]   # 5x duplication
    df = pd.DataFrame({
        "doc_id": np.arange(200, dtype=np.int64),
        "text": texts,
        "source": rng.choice(["a", "b", "c"], 200),
    })
    ds = ray.data.from_pandas(df).repartition(4)
    a = exact_dedup_keep_best(ds, [("source", True)]).to_pandas()
    # reference: pandas row_number policy
    want = df.sort_values(["source", "doc_id"]) \
        .drop_duplicates("text", keep="first")
    assert sorted(a["doc_id"]) == sorted(want["doc_id"])
