"""Inter-event gap stats."""

import numpy as np
import pandas as pd


def test_interevent_gaps_exact_and_single_event_user(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    rows = [
        {"user_id": 1, "ts": "2024-01-01 00:00:00"},
        {"user_id": 1, "ts": "2024-01-01 00:00:10"},
        {"user_id": 1, "ts": "2024-01-01 00:01:10"},   # gaps: 10s, 60s
        {"user_id": 2, "ts": "2024-01-01 05:00:00"},   # single event: no row
    ]
    df = pd.DataFrame(rows)
    df["ts"] = pd.to_datetime(df["ts"]).astype("datetime64[us]")
    df["event_id"] = np.arange(len(df), dtype=np.int64)
    df["event_type"] = "a"
    df["value"] = 1.0
    df["props"] = "{}"
    df.to_parquet(tmp_path / "events.parquet")
    out = Q.q_interevent_gaps_events(str(tmp_path))
    assert out["user_id"].tolist() == [1]
    r = out.iloc[0]
    assert r["n_gaps"] == 2
    np.testing.assert_allclose([r["mean_gap_s"], r["min_gap_s"],
                                r["max_gap_s"]], [35.0, 10.0, 60.0])
