"""Weekly rollup edges."""

import pandas as pd


def test_weekly_rollup_monday_anchor(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    # 2024-01-01 is a Monday; Jan 7 is Sunday (same week), Jan 8 next week
    ts = pd.to_datetime(["2024-01-01", "2024-01-07", "2024-01-08"]) \
        .astype("datetime64[us]")
    pd.DataFrame({"event_type": ["e"] * 3, "ts": ts,
                  "value": [1.0, 2.0, 4.0], "user_id": [0] * 3}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_weekly_calendar_rollup(str(tmp_path)).set_index("wk")
    w1 = pd.Timestamp("2024-01-01")
    w2 = pd.Timestamp("2024-01-08")
    assert out.loc[w1, "n"] == 2 and out.loc[w1, "sum_v"] == 3.0
    assert out.loc[w2, "n"] == 1 and out.loc[w2, "sum_v"] == 4.0
