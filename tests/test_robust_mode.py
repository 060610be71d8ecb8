"""Modal event type per user."""

import numpy as np
import pandas as pd


def test_favorite_type_tie_breaks_alphabetically(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    rows = []
    eid = 0
    for t in ["view", "click", "view", "click"]:     # tie 2-2 -> 'click'
        rows.append({"event_id": eid, "ts": pd.Timestamp("2024-01-01")
                     + pd.Timedelta(hours=eid), "user_id": 1,
                     "event_type": t, "value": 1.0, "props": "{}"})
        eid += 1
    for t in ["purchase"] * 3 + ["view"]:            # clear winner
        rows.append({"event_id": eid, "ts": pd.Timestamp("2024-01-01")
                     + pd.Timedelta(hours=eid), "user_id": 2,
                     "event_type": t, "value": 1.0, "props": "{}"})
        eid += 1
    df = pd.DataFrame(rows)
    df["ts"] = df["ts"].astype("datetime64[us]")
    df.to_parquet(tmp_path / "events.parquet")
    out = Q.q_favorite_type_per_user(str(tmp_path)).set_index("user_id")
    assert out.loc[1, "favorite_type"] == "click" and out.loc[1, "n"] == 2
    assert out.loc[2, "favorite_type"] == "purchase" and out.loc[2, "n"] == 3
