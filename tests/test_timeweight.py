"""Counter-increase kernel edges."""

import numpy as np
import pandas as pd

import ray.data


def test_counter_increase_reset_rule(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    ts = pd.date_range("2024-01-01", periods=5, freq="h") \
        .astype("datetime64[us]")
    # 5 -> 8 (+3) -> 2 (reset, +2) -> 2 (+0) -> 10 (+8) = 13
    ev = pd.DataFrame({"user_id": [1] * 5, "ts": ts,
                       "value": [5.0, 8.0, 2.0, 2.0, 10.0]})
    ev.to_parquet(tmp_path / "events.parquet")
    out = Q.q_counter_increase_users(str(tmp_path))
    assert out["increase"].iloc[0] == 13.0
    assert out["n_resets"].iloc[0] == 1
    assert out["n"].iloc[0] == 5
