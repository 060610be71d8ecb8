"""Theil U edges."""

import pandas as pd


def _daily(tmp_path, values):
    ts = pd.date_range("2024-01-01", periods=len(values), freq="D") \
        .astype("datetime64[us]")
    pd.DataFrame({"event_type": ["e"] * len(values), "ts": ts,
                  "value": [float(v) for v in values],
                  "user_id": [0] * len(values)}) \
        .to_parquet(tmp_path / "events.parquet")
    return str(tmp_path)


def test_theil_u_perfect_weekly(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    pattern = [10.0, 20.0, 30.0, 40.0, 30.0, 20.0, 10.0]
    sf = _daily(tmp_path, pattern * 3)
    out = Q.q_theil_u_daily(sf)
    # perfect weekly repetition: seasonal-naive error 0 -> U = 0
    assert out.loc[0, "rmse_sn7"] == 0.0
    assert out.loc[0, "theil_u"] == 0.0
    assert out.loc[0, "rmse_naive"] > 0

