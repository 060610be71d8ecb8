"""Grubbs edges."""

import numpy as np
import pandas as pd


def test_grubbs_flags_spike(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    ts = pd.date_range("2024-01-01", periods=5, freq="D") \
        .astype("datetime64[us]")
    pd.DataFrame({"event_type": ["e"] * 5, "ts": ts,
                  "value": [10.0, 11.0, 10.0, 11.0, 100.0],
                  "user_id": [0] * 5}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_grubbs_daily_events(str(tmp_path))
    assert out.loc[0, "outlier_d"] == ts[4]
    v = np.array([10, 11, 10, 11, 100.0])
    g = np.round(np.round(np.abs(v - v.mean()).max(), 6)
                 / v.std(ddof=1), 6)
    assert out.loc[0, "g_stat"] == g
    # constant series -> NULLF
    pd.DataFrame({"event_type": ["e"] * 3, "ts": ts[:3],
                  "value": [5.0] * 3, "user_id": [0] * 3}) \
        .to_parquet(tmp_path / "events.parquet")
    out2 = Q.q_grubbs_daily_events(str(tmp_path))
    assert out2.loc[0, "g_stat"] == -999.0

