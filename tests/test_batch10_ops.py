"""Weekly rollup / MTD reset / Bowley edges."""

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


def test_mtd_resets_at_month_boundary(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    ts = pd.to_datetime(["2024-01-30", "2024-01-31",
                         "2024-02-01", "2024-02-02"]) \
        .astype("datetime64[us]")
    pd.DataFrame({"event_type": ["e"] * 4, "ts": ts,
                  "value": [1.0, 2.0, 4.0, 8.0], "user_id": [0] * 4}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_mtd_cumsum_daily(str(tmp_path))
    assert list(out["mtd_v"]) == [1.0, 3.0, 4.0, 12.0]


def test_bowley_skew_symmetric_is_zero(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    ts = pd.date_range("2024-01-01", periods=5, freq="h") \
        .astype("datetime64[us]")
    pd.DataFrame({"event_type": ["e"] * 5, "ts": ts,
                  "value": [1.0, 2.0, 3.0, 4.0, 5.0],
                  "user_id": [0] * 5}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_bowley_skew_events(str(tmp_path))
    assert out.loc[0, "bowley_skew"] == 0.0
    assert out.loc[0, "q2"] == 3.0
    # constant values: zero IQR -> NULLF
    pd.DataFrame({"event_type": ["e"] * 3, "ts": ts[:3],
                  "value": [7.0] * 3, "user_id": [0] * 3}) \
        .to_parquet(tmp_path / "events.parquet")
    out2 = Q.q_bowley_skew_events(str(tmp_path))
    assert out2.loc[0, "bowley_skew"] == -999.0
