"""Naive2 estimator edges."""

import numpy as np
import pandas as pd

import ray.data


def test_naive2_pure_seasonal_repeats_pattern(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    pattern = [10.0, 20.0, 30.0, 40.0, 30.0, 20.0, 10.0]
    vals = pattern * 3
    ts = pd.date_range("2024-01-01", periods=21, freq="D") \
        .astype("datetime64[us]")
    pd.DataFrame({"event_type": ["e"] * 21, "ts": ts, "value": vals,
                  "user_id": [0] * 21}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_naive2_forecast_daily(str(tmp_path))
    # pure multiplicative pattern: z is constant, forecast repeats it
    assert list(out["predicted_v"]) == pattern


def test_naive2_fit_state_zero_guard(ray_session):
    from forecastframe_ray.pipelines.search import fit_naive2

    days = pd.date_range("2024-01-01", periods=6, freq="D") \
        .astype("datetime64[us]")
    # slot 2's mean is 0 -> index guards to 1
    y = [2.0, 4.0, 0.0, 2.0, 4.0, 0.0]
    ds = ray.data.from_pandas(pd.DataFrame({"k": ["a"] * 6, "d": days,
                                            "v": y}))
    st = fit_naive2(ds, ["k"], "d", "v", period=3)
    row = st["model"].iloc[0]
    assert row["__s2"] == 1.0
    gm = np.mean(y)
    assert np.isclose(row["__s0"], 2.0 / gm)
    # z_last = y[-1] / s[(6-1)%3] = 0 / 1 = 0
    assert row["__z"] == 0.0
