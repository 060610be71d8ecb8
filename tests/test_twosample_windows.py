"""Count-window / chi-square / KS kernel edges."""

import numpy as np
import pandas as pd


def test_count_windows_tumble(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    ts = pd.date_range("2024-01-01", periods=12, freq="h") \
        .astype("datetime64[us]")
    pd.DataFrame({"user_id": [1] * 12, "ts": ts,
                  "value": [float(i) for i in range(12)],
                  "event_type": ["e"] * 12}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_count_windows_users(str(tmp_path))
    # 12 events -> windows of 5, 5, 2
    assert list(out["n"]) == [5, 5, 2]
    assert out.loc[0, "sum_v"] == 10.0          # 0+1+2+3+4
    assert out.loc[2, "sum_v"] == 21.0          # 10+11
    assert out.loc[1, "w_start"] == ts[5]
    assert out.loc[1, "w_end"] == ts[9]


def test_chisq_independent_table_is_zero(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    # perfectly proportional table -> chi2 == 0
    days = pd.to_datetime(["2024-01-01", "2024-01-02"])  # Mon, Tue
    rows = []
    for d in days:
        rows += [("a", d)] * 2 + [("b", d)] * 4
    pd.DataFrame({"event_type": [r[0] for r in rows],
                  "ts": pd.Series([r[1] for r in rows])
                  .astype("datetime64[us]"),
                  "user_id": list(range(len(rows))),
                  "value": [1.0] * len(rows)}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_chisq_type_dow_events(str(tmp_path))
    assert out.loc[0, "chi2"] == 0.0
    assert out.loc[0, "dof"] == 1
    assert out.loc[0, "n"] == 12


def test_ks_disjoint_supports_is_one(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    ts = pd.date_range("2024-01-01", periods=8, freq="h") \
        .astype("datetime64[us]")
    pd.DataFrame({"user_id": [1] * 8, "ts": ts,
                  "event_type": ["click"] * 4 + ["view"] * 4,
                  "value": [1.0, 2.0, 3.0, 4.0,
                            10.0, 11.0, 12.0, 13.0]}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_ks_two_sample_events(str(tmp_path))
    assert out.loc[0, "ks_d"] == 1.0  # disjoint supports
    assert out.loc[0, "ks_scaled"] == np.round(np.sqrt(16 / 8), 6)
    # identical distributions -> D = 0
    pd.DataFrame({"user_id": [1] * 8, "ts": ts,
                  "event_type": ["click"] * 4 + ["view"] * 4,
                  "value": [1.0, 2.0, 3.0, 4.0] * 2}) \
        .to_parquet(tmp_path / "events.parquet")
    out2 = Q.q_ks_two_sample_events(str(tmp_path))
    assert out2.loc[0, "ks_d"] == 0.0
