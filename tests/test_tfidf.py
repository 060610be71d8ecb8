"""Stratified sampling (quota exactness, determinism), JSON int
extraction, and per-label centroids."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from forecastframe_ray.stages.sample import stratified_sample


def _canon(df, by):
    return df.sort_values(by).reset_index(drop=True)


def test_stratified_sample_exact_quota_and_determinism():
    rng = np.random.default_rng(5)
    df = pd.DataFrame({
        "k": np.arange(500, dtype=np.int64),
        "grp": rng.choice(["a", "b", "c"], size=500),
        "v": rng.standard_normal(500),
    })
    # group "d" smaller than the quota keeps all its rows
    small = pd.DataFrame({"k": np.arange(500, 503, dtype=np.int64),
                          "grp": "d", "v": 0.0})
    full = pd.concat([df, small], ignore_index=True)
    ds = ray.data.from_pandas(full)
    out1 = stratified_sample(ds, ["grp"], "k", k=10).to_pandas()
    out2 = stratified_sample(ds.repartition(7), ["grp"], "k",
                             k=10, num_partitions=5).to_pandas()
    sizes = out1.groupby("grp").size().to_dict()
    assert sizes == {"a": 10, "b": 10, "c": 10, "d": 3}
    pd.testing.assert_frame_equal(_canon(out1, ["k"])[["k", "grp", "v"]],
                                  _canon(out2, ["k"])[["k", "grp", "v"]])


def test_stratified_sample_rejects_bad_k():
    ds = ray.data.from_pandas(pd.DataFrame({"k": [1], "grp": ["a"]}))
    with pytest.raises(ValueError):
        stratified_sample(ds, ["grp"], "k", k=0)


def test_extract_json_int_missing_and_negative():
    from forecastframe_ray.functions.scalar import extract_json_int

    df = pd.DataFrame({"props": ['{"k": 7}', '{"k": -3, "z": 1}',
                                 '{"z": 9}', None, '{"k":42}']})
    out = extract_json_int(ray.data.from_pandas(df), "props", "k").to_pandas()
    got = out["k"].tolist()
    assert got[0] == 7 and got[1] == -3 and got[4] == 42
    assert pd.isna(got[2]) and pd.isna(got[3])


def test_label_centroids_matches_numpy():
    from forecastframe_ray.pipelines.similarity import label_centroids

    rng = np.random.default_rng(2)
    M = rng.standard_normal((40, 5))
    labels = rng.integers(0, 3, size=40)
    df = pd.DataFrame({"vec_id": np.arange(40, dtype=np.int64),
                       "embedding": list(M), "label": labels})
    out = (label_centroids(ray.data.from_pandas(df).repartition(4))
           .to_pandas().sort_values(["label", "dim"]).reset_index(drop=True))
    for lab in range(3):
        want = np.round(M[labels == lab].mean(axis=0), 6)
        got = out.loc[out["label"] == lab, "centroid"].to_numpy()
        np.testing.assert_allclose(got, want, atol=1e-9)
        assert (out.loc[out["label"] == lab, "n"] == (labels == lab).sum()).all()
