"""The dispersion metrics (index of dispersion and coefficient of
variation)."""

import pandas as pd


def test_dispersion_poisson_like(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    # constant series: variance 0 -> fano = cv = 0; single-day series ->
    # NULLF sentinels
    rows = []
    for day in range(10):
        rows.append({"event_id": day, "ts": pd.Timestamp("2024-01-01")
                     + pd.Timedelta(days=day), "user_id": 1,
                     "event_type": "const", "value": 4.0, "props": "{}"})
    rows.append({"event_id": 99, "ts": pd.Timestamp("2024-01-01"),
                 "user_id": 1, "event_type": "solo", "value": 1.0,
                 "props": "{}"})
    df = pd.DataFrame(rows)
    df["ts"] = df["ts"].astype("datetime64[us]")
    df.to_parquet(tmp_path / "events.parquet")
    out = Q.q_dispersion_daily_events(str(tmp_path)).set_index("event_type")
    assert out.loc["const", "fano"] == 0.0
    assert out.loc["const", "cv"] == 0.0
    assert out.loc["solo", "fano"] == -999.0
    assert out.loc["solo", "cv"] == -999.0
