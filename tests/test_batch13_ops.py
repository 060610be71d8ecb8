"""Relational division edges."""

import pandas as pd


def test_power_users_division(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    ts = pd.date_range("2024-01-01", periods=7, freq="h") \
        .astype("datetime64[us]")
    # types present: a, b, c; user 1 does all three, user 2 misses c
    pd.DataFrame({"user_id": [1, 1, 1, 2, 2, 3, 3], "ts": ts,
                  "event_type": ["a", "b", "c", "a", "b", "a", "a"],
                  "value": [1.0] * 7}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_power_users_division(str(tmp_path))
    assert list(out["user_id"]) == [1]
    assert out.loc[0, "n_types"] == 3
