"""Heatmap kernel edges."""

import pandas as pd


def test_hour_dow_heatmap(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    ts = pd.to_datetime([
        "2024-01-01 05:00", "2024-01-01 05:30",   # Mon hour 5: two rows
        "2024-01-02 23:10",                        # Tue hour 23
    ]).astype("datetime64[us]")
    pd.DataFrame({"ts": ts, "value": [1.0, 3.0, 7.0],
                  "event_type": ["e"] * 3, "user_id": [0] * 3}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_hour_dow_heatmap_events(str(tmp_path)) \
        .set_index(["dow", "hour"])
    assert out.loc[(1, 5), "n"] == 2
    assert out.loc[(1, 5), "mean_v"] == 2.0
    assert out.loc[(2, 23), "sum_v"] == 7.0
