"""Weighted-median edges."""

import numpy as np
import pandas as pd


def test_weighted_median(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    ts = pd.date_range("2024-01-01", periods=3, freq="h") \
        .astype("datetime64[us]")
    # values 1 (w=1), 2 (w=1), 3 (w=10): half of 12 is 6 -> median 3
    pd.DataFrame({"event_type": ["e"] * 3, "ts": ts,
                  "value": [1.0, 2.0, 3.0],
                  "props": ['{"k": 1}', '{"k": 1}', '{"k": 10}'],
                  "user_id": [0] * 3}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_weighted_median_events(str(tmp_path))
    assert out.loc[0, "w_median"] == 3.0
    assert out.loc[0, "total_w"] == 12
    # equal weights -> lower median of evens
    pd.DataFrame({"event_type": ["e"] * 4, "ts": list(ts) + [ts[0]],
                  "value": [1.0, 2.0, 3.0, 4.0],
                  "props": ['{"k": 1}'] * 4, "user_id": [0] * 4}) \
        .to_parquet(tmp_path / "events.parquet")
    out2 = Q.q_weighted_median_events(str(tmp_path))
    assert out2.loc[0, "w_median"] == 2.0
