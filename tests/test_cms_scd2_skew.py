"""Count-Min sketch invariants and skew profile."""

import numpy as np
import pandas as pd

import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st


def test_cms_exact_when_no_collisions():
    from forecastframe_ray.stages import sketch as S

    h = np.array([1, 1, 1, 2, 2, 3], dtype=np.uint64)
    mat = S.cms_from_hashes(h, w=512, d=4)
    est = S.cms_estimate(mat, np.array([1, 2, 3], dtype=np.uint64))
    assert list(est) == [3, 2, 1]
    # never-seen key estimates >= 0 and is one-sided
    assert S.cms_estimate(mat, np.array([99], dtype=np.uint64))[0] >= 0


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=10 ** 12),
                min_size=1, max_size=400))
def test_cms_one_sided_and_merge_equivalence(vals):
    """est >= true for every key; merging split sketches == one-shot."""
    from forecastframe_ray.stages import sketch as S

    h = np.array(vals, dtype=np.uint64)
    mat = S.cms_from_hashes(h, w=64, d=4)
    uniq, counts = np.unique(h, return_counts=True)
    est = S.cms_estimate(mat, uniq)
    assert (est >= counts).all()
    half = len(h) // 2
    merged = S.cms_merge([S.cms_from_hashes(h[:half], w=64, d=4),
                          S.cms_from_hashes(h[half:], w=64, d=4)])
    assert (merged == mat).all()


def test_cms_sketch_roundtrip_dataset(ray_session):
    from forecastframe_ray.stages import sketch as S
    from forecastframe_ray import keys as K

    df = pd.DataFrame({"g": ["a"] * 6 + ["b"] * 3,
                       "u": [1, 1, 2, 2, 2, 3, 7, 7, 8]})
    out = S.cms_sketch(ray.data.from_pandas(df), ["g"], "u",
                       w=256, d=4, num_partitions=2).to_pandas()
    out = out.set_index("g")
    assert out.loc["a", "n"] == 6 and out.loc["b", "n"] == 3
    mat = S.cms_from_bytes(out.loc["a", "cms"], 256, 4)
    h = K.hash_key_columns(pd.DataFrame({"u": [1, 2, 3]}), ["u"])
    assert list(S.cms_estimate(mat, h)) == [2, 3, 1]
