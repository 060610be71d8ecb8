"""Gini distribution-audit kernel edges."""

import pandas as pd


def test_gini_extremes(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    # perfectly equal totals -> gini 0
    ts = pd.date_range("2024-01-01", periods=4, freq="h") \
        .astype("datetime64[us]")
    pd.DataFrame({"user_id": [1, 2, 3, 4], "ts": ts,
                  "value": [5.0] * 4, "event_type": ["e"] * 4}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_gini_users_events(str(tmp_path))
    assert out.loc[0, "gini"] == 0.0
    assert out.loc[0, "n_users"] == 4
    # one user holds everything -> gini = (n-1)/n = 0.75
    pd.DataFrame({"user_id": [1, 2, 3, 4], "ts": ts,
                  "value": [0.0, 0.0, 0.0, 100.0],
                  "event_type": ["e"] * 4}) \
        .to_parquet(tmp_path / "events.parquet")
    out2 = Q.q_gini_users_events(str(tmp_path))
    assert out2.loc[0, "gini"] == 0.75
