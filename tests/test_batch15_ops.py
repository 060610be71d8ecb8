"""Quantization / forward as-of edges."""

import numpy as np
import pandas as pd


def test_quantization_error(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    vecs = [[127.0, -127.0, 0.0],    # exactly representable -> mse 0
            [0.0, 0.0, 0.0],         # all-zero -> scale 0, mse 0
            [1.0, 0.3, -0.6]]
    pd.DataFrame({"vec_id": range(3),
                  "embedding": [np.array(v, dtype=np.float32)
                                for v in vecs],
                  "label": np.zeros(3, dtype="int32")}) \
        .to_parquet(tmp_path / "embeddings.parquet")
    out = Q.q_quantization_error_embeddings(str(tmp_path)) \
        .set_index("vec_id")
    assert out.loc[0, "scale"] == 1.0
    assert out.loc[0, "mse"] == 0.0
    assert out.loc[1, "scale"] == 0.0 and out.loc[1, "mse"] == 0.0
    assert out.loc[2, "mse"] > 0


def test_asof_forward(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    ts = pd.to_datetime([
        "2024-01-01 10:00",   # purchase (user 1)
        "2024-01-01 09:00",   # click before -> not eligible
        "2024-01-01 11:00",   # click after  -> the match
        "2024-01-01 12:00",   # later click ignored
        "2024-01-02 10:00",   # purchase (user 2), no click -> sentinel
    ]).astype("datetime64[us]")
    pd.DataFrame({"event_id": range(5),
                  "user_id": [1, 1, 1, 1, 2], "ts": ts,
                  "event_type": ["purchase", "click", "click", "click",
                                 "purchase"],
                  "value": [0.0, 1.0, 2.0, 3.0, 0.0]}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_asof_forward_events(str(tmp_path)).set_index("event_id")
    assert out.loc[0, "click_value"] == 2.0
    assert out.loc[0, "click_ts"] == pd.Timestamp("2024-01-01 11:00")
    assert out.loc[4, "click_value"] == -999.0
    assert out.loc[4, "click_ts"] == pd.Timestamp("9999-12-31")
