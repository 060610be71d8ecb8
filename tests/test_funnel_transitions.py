"""Markov transition counts and per-group exact percentiles —
hand-computable fixtures."""

import numpy as np
import pandas as pd


def _events(tmp_path, rows):
    df = pd.DataFrame(rows)
    df["ts"] = pd.to_datetime(df["ts"]).astype("datetime64[us]")
    df["event_id"] = np.arange(len(df), dtype=np.int64)
    df["props"] = "{}"
    df["value"] = df.get("value", pd.Series(np.ones(len(df))))
    df.to_parquet(tmp_path / "events.parquet")


def test_transition_counts_per_user_streams(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    _events(tmp_path, [
        {"user_id": 1, "event_type": "view", "ts": "2024-01-01 00:00"},
        {"user_id": 1, "event_type": "click", "ts": "2024-01-01 01:00"},
        {"user_id": 1, "event_type": "view", "ts": "2024-01-01 02:00"},
        {"user_id": 2, "event_type": "view", "ts": "2024-01-01 00:30"},
        {"user_id": 2, "event_type": "click", "ts": "2024-01-01 00:45"},
    ])
    out = Q.q_transition_counts_events(str(tmp_path))
    got = {(r["prev_type"], r["next_type"]): r["n"]
           for _, r in out.iterrows()}
    # no cross-user pair (1's last view must NOT chain into 2's stream)
    assert got == {("view", "click"): 2, ("click", "view"): 1}


def test_value_percentiles_quantile_cont(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    vals = np.arange(1.0, 101.0)  # 1..100
    _events(tmp_path, [
        {"user_id": 1, "event_type": "a", "value": v,
         "ts": pd.Timestamp("2024-01-01") + pd.Timedelta(minutes=int(v))}
        for v in vals
    ])
    out = Q.q_value_percentiles_events(str(tmp_path))
    r = out.iloc[0]
    np.testing.assert_allclose(
        [r["p50"], r["p90"], r["p99"]],
        np.round(np.quantile(vals, [0.5, 0.9, 0.99]), 6))
    assert r["n"] == 100
