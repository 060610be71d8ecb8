"""Gorilla codec roundtrip tests — bit-exact floats incl. NaN/±0/inf/denormals
(SURVEY.md §7.4 step 2), plus the Ray actor-pool encode→decode pipeline."""

import numpy as np
import pandas as pd
import pytest

from forecastframe_ray.stages import gorilla as G


def roundtrip_ts(ts):
    ts = np.asarray(ts, dtype=np.int64)
    payload = G.encode_timestamps(ts)
    out = G.decode_timestamps(payload, len(ts))
    np.testing.assert_array_equal(out, ts)
    return payload


def roundtrip_vals(vals):
    vals = np.asarray(vals, dtype=np.float64)
    payload = G.encode_values(vals)
    out = G.decode_values(payload, len(vals))
    np.testing.assert_array_equal(out.view(np.uint64), vals.view(np.uint64))
    return payload


def test_timestamps_regular_grid_compresses():
    ts = np.arange(0, 1000) * 3_600_000_000 + 1_704_067_200_000_000
    payload = roundtrip_ts(ts)
    # constant delta → dod==0 → ~1 bit/point after the 16-byte header
    assert len(payload) < 16 + 1000 // 8 + 2


def test_timestamps_irregular_and_negative_dod():
    rng = np.random.default_rng(7)
    deltas = rng.integers(-50_000_000, 3_600_000_000, size=500)
    ts = np.cumsum(np.abs(deltas)) + 1_700_000_000_000_000
    roundtrip_ts(ts)
    roundtrip_ts([0])
    roundtrip_ts([])
    roundtrip_ts([-5, -3, 10, 10, 11])


def test_values_edge_floats():
    roundtrip_vals([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1.7976931348623157e308])
    roundtrip_vals([np.nan] * 10)
    roundtrip_vals([1.0])
    roundtrip_vals([])


def test_values_random_and_smooth():
    rng = np.random.default_rng(42)
    roundtrip_vals(rng.normal(size=2000))
    smooth = np.round(np.cumsum(rng.integers(-3, 4, size=2000)).astype(float), 0)
    payload = roundtrip_vals(smooth)
    # integers with small changes XOR-compress well below 8 bytes/point
    assert len(payload) < 2000 * 8 * 0.6


def test_values_constant_series():
    payload = roundtrip_vals([3.14159] * 1000)
    assert len(payload) <= 8 + 1000 // 8 + 2  # 1 bit/point after header


def test_checksum_detects_corruption():
    vals = np.array([1.0, 2.0, 3.0])
    ts = np.array([0, 1, 2], dtype=np.int64)
    tp, vp = G.encode_timestamps(ts), G.encode_values(vals)
    c = G.chunk_checksum(tp, vp)
    assert G.chunk_checksum(tp, vp + b"x") != c


def test_encode_decode_dataset_roundtrip(ray_session):
    import ray.data
    rng = np.random.default_rng(3)
    frames = []
    for host in [f"h{i}.example.com" for i in range(23)]:
        n = int(rng.integers(1, 300))
        # realistic tier series: hourly buckets with gaps, count-like values
        ts = np.sort(rng.choice(np.arange(0, 1_000) * 3_600_000_000, size=min(n, 900), replace=False))
        n = len(ts)
        vals = rng.integers(0, 50, size=n).astype(np.float64)
        vals[rng.random(n) < 0.1] = np.nan
        frames.append(pd.DataFrame({
            "host": host,
            "bucket_ts": pd.to_datetime(ts + 1_704_067_200_000_000, unit="us"),
            "value": vals,
        }))
    src = pd.concat(frames, ignore_index=True)
    ds = ray.data.from_pandas(src)
    chunks = G.encode_series_dataset(ds, ["host"], "bucket_ts", "value",
                                     tier="1h", num_partitions=4)
    cdf = chunks.to_pandas()
    assert set(cdf["host"]) == set(src["host"])
    assert cdf["n_points"].sum() == len(src)
    # payload is actually smaller than raw 16 B/point
    raw = 16 * len(src)
    enc = int(cdf["ts_payload"].map(len).sum() + cdf["val_payload"].map(len).sum())
    assert enc < raw

    back = G.decode_chunk_dataset(ray.data.from_pandas(cdf), ["host"]).to_pandas()
    key = ["host", "bucket_ts"]
    a = src.sort_values(key).reset_index(drop=True)
    b = back.sort_values(key).reset_index(drop=True)
    np.testing.assert_array_equal(a["bucket_ts"].values, b["bucket_ts"].values)
    np.testing.assert_array_equal(
        a["value"].to_numpy().view(np.uint64), b["value"].to_numpy().view(np.uint64)
    )


@pytest.mark.parametrize("seed", range(5))
def test_property_roundtrip_random_series(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(0, 500))
    ts = np.cumsum(rng.integers(0, 10_000_000, size=n)).astype(np.int64)
    vals = rng.choice(
        [0.0, -0.0, np.nan, 1.5, -2.25, 1e300, 5e-324, 123456.789], size=n
    ) * rng.choice([1, -1], size=n)
    roundtrip_ts(ts)
    roundtrip_vals(vals)


# ---------------------------------------------------------------------------
# property-based roundtrips (hypothesis): arbitrary float payloads incl.
# NaN / ±0 / ±inf / denormals, arbitrary non-decreasing-ish timestamps
# ---------------------------------------------------------------------------

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(allow_nan=True, allow_infinity=True,
                          allow_subnormal=True, width=64),
                min_size=0, max_size=300))
def test_value_roundtrip_property(vals):
    arr = np.asarray(vals, dtype=np.float64)
    payload = G.encode_values(arr)
    out = G.decode_values(payload, len(arr))
    assert np.array_equal(arr.view(np.uint64), out.view(np.uint64))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(min_value=-2**40, max_value=2**40),
                min_size=0, max_size=300))
def test_timestamp_roundtrip_property(deltas):
    # timestamps = cumulative irregular deltas (may go backwards — the codec
    # must be order-agnostic bit-exact)
    ts = np.cumsum(np.asarray(deltas, dtype=np.int64)) if deltas else \
        np.array([], dtype=np.int64)
    payload = G.encode_timestamps(ts)
    out = G.decode_timestamps(payload, len(ts))
    assert np.array_equal(ts, out)
