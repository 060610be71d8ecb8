"""Ntile / Lorenz edges."""

import numpy as np
import pandas as pd


def test_ntile_from_pos_matches_sql_semantics():
    from forecastframe_ray.pipelines.queries import _ntile_from_pos

    # n=10, k=4 -> bucket sizes 3,3,2,2
    out = _ntile_from_pos(np.arange(10), 10, 4)
    assert list(out) == [1, 1, 1, 2, 2, 2, 3, 3, 4, 4]
    # n < k: every row its own bucket
    assert list(_ntile_from_pos(np.arange(3), 3, 4)) == [1, 2, 3]


def test_lorenz_cum_share_monotone(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    ts = pd.date_range("2024-01-01", periods=20, freq="h") \
        .astype("datetime64[us]")
    pd.DataFrame({"user_id": list(range(20)), "ts": ts,
                  "event_type": ["e"] * 20,
                  "value": [float(i + 1) for i in range(20)]}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_lorenz_deciles_users(str(tmp_path))
    assert len(out) == 10
    assert (out["n_users"] == 2).all()
    assert out["cum_share"].iloc[-1] == 1.0
    assert (np.diff(out["cum_share"]) > 0).all()
    # bottom decile = users with totals 1,2 -> share 3/210
    assert out.loc[0, "share"] == np.round(3 / 210, 6)
