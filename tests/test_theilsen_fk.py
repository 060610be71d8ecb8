"""Theil–Sen robust trend."""

import numpy as np
import pandas as pd


def test_theilsen_ignores_outlier(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    # clean slope-2 line with one wild outlier: OLS would bend, the median
    # of pairwise slopes must stay exactly 2
    days = np.arange(15)
    v = 10.0 + 2.0 * days
    v[7] = 500.0
    df = pd.DataFrame({
        "event_id": days.astype(np.int64),
        "ts": (pd.Timestamp("2024-01-01")
               + pd.to_timedelta(days, unit="D")).astype("datetime64[us]"),
        "user_id": np.ones(15, dtype=np.int64),
        "event_type": ["e"] * 15,
        "value": v,
        "props": ["{}"] * 15,
    })
    df.to_parquet(tmp_path / "events.parquet")
    out = Q.q_theilsen_daily_events(str(tmp_path))
    np.testing.assert_allclose(out["slope"].iloc[0], 2.0)
    assert out["n"].iloc[0] == 15


def test_theilsen_single_point_series(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    df = pd.DataFrame({
        "event_id": [0], "ts": pd.to_datetime(["2024-01-01"])
        .astype("datetime64[us]"), "user_id": [1],
        "event_type": ["solo"], "value": [5.0], "props": ["{}"],
    })
    df.to_parquet(tmp_path / "events.parquet")
    out = Q.q_theilsen_daily_events(str(tmp_path))
    assert out["slope"].iloc[0] == -999.0      # NULLF sentinel
    assert out["intercept"].iloc[0] == -999.0
