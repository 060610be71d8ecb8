"""Bloom-filter stage: sizing math, no-false-negatives invariant, measured
FPR near target, and exactness of the composed bloom semi-join (``-0.0``
against a ``0.0`` key included)."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from forecastframe_ray.stages import bloom as B


def test_bloom_params_sizing():
    m, k = B.bloom_params(1000, 0.01)
    # canonical 1% sizing: ~9.6 bits/key, 7 probes
    assert 9_000 <= m <= 10_300 and k == 7
    with pytest.raises(ValueError):
        B.bloom_params(10, 0.0)


def test_probe_and_bits_roundtrip_no_false_negatives():
    rng = np.random.default_rng(0)
    h = rng.integers(0, 2**63, 5000, dtype=np.int64).astype(np.uint64)
    m, k = B.bloom_params(len(h), 0.01)
    bits = np.zeros(m // 64, dtype=np.uint64)
    B._set_bits(bits, B._probe_indices(h, m, k).ravel())
    idx = B._probe_indices(h, m, k)
    assert B._test_bits(bits, idx.ravel()).reshape(idx.shape).all()


def test_measured_fpr_near_target():
    rng = np.random.default_rng(1)
    members = rng.integers(0, 2**62, 20_000, dtype=np.int64).astype(np.uint64)
    others = (rng.integers(0, 2**62, 20_000, dtype=np.int64)
              .astype(np.uint64) | np.uint64(1) << np.uint64(62))
    m, k = B.bloom_params(len(members), 0.01)
    bits = np.zeros(m // 64, dtype=np.uint64)
    B._set_bits(bits, B._probe_indices(members, m, k).ravel())
    idx = B._probe_indices(others, m, k)
    hits = B._test_bits(bits, idx.ravel()).reshape(idx.shape).all(axis=1)
    assert hits.mean() < 0.03  # 1% target, generous margin


def _sides(n_left=2000, n_right=300):
    rng = np.random.default_rng(2)
    left = pd.DataFrame({"key": rng.integers(0, 1000, n_left),
                         "x": np.arange(n_left)})
    right = pd.DataFrame({"key": rng.choice(1000, n_right, replace=False)})
    return left, right


def test_distributed_build_matches_local(ray_session):
    left, right = _sides()
    m, k = B.bloom_params(len(right), 0.01)
    got = B.build_bloom(ray.data.from_pandas(right).repartition(3),
                        ["key"], m, k, num_partitions=4)
    h = np.unique(B.K.row_hash(right, ["key"]))
    want = np.zeros(m // 64, dtype=np.uint64)
    B._set_bits(want, B._probe_indices(h, m, k).ravel())
    assert (got == want).all()


def test_bloom_semi_join_exact(ray_session):
    left, right = _sides()
    out = (B.bloom_semi_join(ray.data.from_pandas(left).repartition(4),
                             ray.data.from_pandas(right), on=["key"],
                             fpp=0.01, num_partitions=4)
           .to_pandas().sort_values("x").reset_index(drop=True))
    want = (left[left["key"].isin(set(right["key"]))]
            .sort_values("x").reset_index(drop=True))
    assert got_equal(out, want)


def test_bloom_semi_join_keeps_negative_zero(ray_session):
    """The filter hashes keys as the exact semi-join compares them: a
    ``-0.0`` row whose key set holds ``0.0`` survives the prefilter, so the
    Bloom semi-join keeps the rows ``broadcast_semi_join`` keeps."""
    from forecastframe_ray.stages.join import broadcast_semi_join

    left = pd.DataFrame({"k": [1.0, np.nan, 3.0, 4.0, -0.0],
                         "x": np.arange(5)})
    right = pd.DataFrame({"k": [1.0, np.nan, 4.0, 0.0, 4.0]})
    ds, keys = ray.data.from_pandas(left), ray.data.from_pandas(right)
    exact = sorted(broadcast_semi_join(ds, right, ["k"]).to_pandas()["x"])
    got = sorted(B.bloom_semi_join(ds, keys, on=["k"], num_partitions=2)
                 .to_pandas()["x"])
    assert exact == [0, 3, 4]
    assert got == exact


def got_equal(got: pd.DataFrame, want: pd.DataFrame) -> bool:
    return (len(got) == len(want)
            and (got["key"].to_numpy() == want["key"].to_numpy()).all()
            and (got["x"].to_numpy() == want["x"].to_numpy()).all())
