"""Per-group exact percentiles — hand-computable fixture."""

import numpy as np
import pandas as pd


def _events(tmp_path, rows):
    df = pd.DataFrame(rows)
    df["ts"] = pd.to_datetime(df["ts"]).astype("datetime64[us]")
    df["event_id"] = np.arange(len(df), dtype=np.int64)
    df["props"] = "{}"
    df["value"] = df.get("value", pd.Series(np.ones(len(df))))
    df.to_parquet(tmp_path / "events.parquet")


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
