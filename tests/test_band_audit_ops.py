"""Drawdown / ATR / distribution-audit kernel edges."""

import numpy as np
import pandas as pd


def _events(tmp_path, values, start="2024-01-01", event_type="e",
            freq="D"):
    ts = pd.date_range(start, periods=len(values), freq=freq) \
        .astype("datetime64[us]")
    pd.DataFrame({"event_type": [event_type] * len(values), "ts": ts,
                  "value": [float(v) for v in values],
                  "user_id": list(range(len(values)))}) \
        .to_parquet(tmp_path / "events.parquet")
    return str(tmp_path)


def test_drawdown_peak_and_negative_values(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    # peak 30 then trough -5: max drawdown 35 (absolute units)
    sf = _events(tmp_path, [10, 30, 20, -5, 12])
    out = Q.q_drawdown_daily_events(sf)
    assert out.loc[0, "max_drawdown"] == 35.0
    assert out.loc[0, "peak"] == 30.0
    assert out.loc[0, "n_days"] == 5


def test_atr_first_bar_is_high_minus_low(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    # two obs per day at distinct stamps -> real OHLC bars
    ts = pd.to_datetime([
        "2024-01-01 01:00", "2024-01-01 02:00",   # open 10 close 20
        "2024-01-02 01:00", "2024-01-02 02:00",   # open 50 close 40
    ]).astype("datetime64[us]")
    pd.DataFrame({"event_type": ["e"] * 4, "ts": ts,
                  "value": [10.0, 20.0, 50.0, 40.0]}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_atr_daily_events(str(tmp_path))
    # day 1: TR = high-low = 10 (no prev close)
    assert out.loc[0, "tr"] == 10.0
    # day 2: max(50-40, |50-20|, |40-20|) = 30; ATR7 = mean(10, 30) = 20
    assert out.loc[1, "tr"] == 30.0
    assert out.loc[1, "atr7"] == 20.0


def test_benford_digit_extraction(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    # cents: 1 -> digit 1; 99999 -> 9; 10000 -> 1; 55 -> 5
    pd.DataFrame({"l_extendedprice": [0.01, 999.99, 100.00, 0.55],
                  "l_returnflag": ["A"] * 4, "l_quantity": [1.0] * 4}) \
        .to_parquet(tmp_path / "lineitem.parquet")
    out = Q.q_benford_lineitem(str(tmp_path)).set_index("digit")
    assert out.loc[1, "n"] == 2
    assert out.loc[9, "n"] == 1
    assert out.loc[5, "n"] == 1
    assert out.loc[1, "share"] == 0.5
    assert out.loc[1, "benford_p"] == np.round(np.log10(2), 6)


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
