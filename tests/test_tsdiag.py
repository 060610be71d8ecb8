"""CUSUM changepoint and additive seasonal decomposition
(stages/window_ops.op_cusum / op_seasonal_decompose) — direct kernel checks
plus distributed-path equality through the keyed window stage — and the
demand-classification quadrants entry."""

import numpy as np
import pandas as pd

import ray.data

from forecastframe_ray.stages.keyed import keyed_window_stage
from forecastframe_ray.stages.window_ops import (op_cusum,
                                                 op_seasonal_decompose)


def _series(values, key="a", start="2024-01-01"):
    return pd.DataFrame({
        "k": [key] * len(values),
        "d": pd.date_range(start, periods=len(values), freq="D"),
        "v": np.asarray(values, dtype=np.float64),
    })


def test_cusum_level_shift_flags():
    # 10 flat days then 10 elevated days: the running deviation sum dips
    # negative over the first regime and recovers — a sustained shift must
    # trip the |cusum| > 2 flag somewhere; a flat series must not.
    df = _series([10.0] * 10 + [30.0] * 10)
    out = op_cusum(df.copy(), ["k"], "d", "v", threshold=2.0)
    assert out["v_shift_flag"].max() == 1
    m, s = df["v"].mean(), df["v"].std(ddof=1)
    expect = np.round((df["v"] - m).cumsum() / s, 6) + 0.0
    np.testing.assert_allclose(out["v_cusum"], expect)


def test_cusum_degenerate_series():
    # single-row series (std undefined) and constant series (std 0) emit
    # NaN cusum and never flag — SQL NULL semantics.
    df = pd.concat([_series([5.0], key="one"),
                    _series([3.0, 3.0, 3.0], key="const")],
                   ignore_index=True)
    out = op_cusum(df.copy(), ["k"], "d", "v")
    assert out["v_cusum"].isna().all()
    assert (out["v_shift_flag"] == 0).all()


def test_cusum_no_negative_zero():
    # the final cumsum of a mean-centered series is ±ε; the rounded value
    # must canonicalize to +0.0 so the driver value-hash is engine-stable
    rng = np.random.default_rng(3)
    df = _series(rng.normal(100.0, 10.0, 64).round(6))
    out = op_cusum(df.copy(), ["k"], "d", "v")
    cu = out["v_cusum"].to_numpy()
    assert not (np.signbit(cu) & (cu == 0.0)).any()


def test_seasonal_decompose_reconstructs():
    # pure weekly signal + linear trend: components must add back to v
    # exactly (resid from unrounded parts, 6dp outputs)
    t = np.arange(28, dtype=np.float64)
    v = 100.0 + 2.0 * t + np.tile([5, -3, 0, 1, -1, 4, -6], 4)
    df = _series(v)
    out = op_seasonal_decompose(df.copy(), ["k"], "d", "v", ma_window=7)
    recon = (out["v_trend"] + out["v_seasonal"] + out["v_resid"]).to_numpy()
    np.testing.assert_allclose(recon, v, atol=2e-6)
    # interior trend of a linear+periodic signal is the linear part exactly
    # (7-point centered MA of a period-7 seasonal is its mean, here 0)
    interior = slice(3, len(v) - 3)
    np.testing.assert_allclose(out["v_trend"].to_numpy()[interior],
                               100.0 + 2.0 * t[interior], atol=1e-6)


def test_seasonal_decompose_edges_partial_windows():
    # first row's centered 7-window covers rows [0..3] only → mean of those
    v = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
    out = op_seasonal_decompose(_series(v), ["k"], "d", "v", ma_window=7)
    assert out["v_trend"].iloc[0] == np.round(v[:4].mean(), 6)
    assert out["v_trend"].iloc[-1] == np.round(v[-4:].mean(), 6)


def test_keyed_stage_matches_kernel(ray_session):
    # the distributed plan (partition-id shuffle + per-partition kernel)
    # must equal the single-frame kernel on a multi-series input
    rng = np.random.default_rng(11)
    frames = [_series(rng.normal(50, 5, n).round(6), key=k)
              for k, n in [("a", 40), ("b", 1), ("c", 17), ("d", 3)]]
    df = pd.concat(frames, ignore_index=True)
    ds = ray.data.from_pandas(df)
    got = keyed_window_stage(
        ds, ["k"], "d",
        [{"op": "cusum", "feature": "v"},
         {"op": "seasonal_decompose", "feature": "v", "ma_window": 7}],
        num_partitions=3).to_pandas()
    got = got.sort_values(["k", "d"], kind="mergesort").reset_index(drop=True)
    want = df.sort_values(["k", "d"], kind="mergesort").reset_index(drop=True)
    want = op_cusum(want, ["k"], "d", "v")
    want = op_seasonal_decompose(want, ["k"], "d", "v", ma_window=7)
    pd.testing.assert_frame_equal(got[want.columns], want)


def test_demand_classification_quadrants(ray_session, tmp_path):
    # four constructed users land in the four Syntetos-Boylan quadrants:
    # daily+steady=smooth, daily+variable=erratic, sparse+steady=
    # intermittent, sparse+variable=lumpy
    from forecastframe_ray.pipelines import queries as Q

    days = pd.date_range("2024-01-01", periods=30, freq="D") \
        .values.astype("datetime64[us]")
    rows = []
    for d in days:                                   # ADI = 1
        rows.append(("smooth", d, 10.0))
        rows.append(("erratic", d, 10.0))
    rows[-1] = ("erratic", days[-1], 400.0)          # one huge spike
    for d in days[::3]:                              # ADI ≈ 2.8
        rows.append(("intermittent", d, 10.0))
        rows.append(("lumpy", d, 10.0))
    rows[-1] = ("lumpy", days[::3][-1], 400.0)
    ev = pd.DataFrame(rows, columns=["user_id", "ts", "value"])
    ev.to_parquet(tmp_path / "events.parquet")
    out = Q.q_demand_classification_users(str(tmp_path)) \
        .set_index("user_id")
    for name in ["smooth", "erratic", "intermittent", "lumpy"]:
        assert out.loc[name, "demand_class"] == name, \
            (name, dict(out.loc[name]))
