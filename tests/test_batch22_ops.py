"""Combo forecast edges."""

import numpy as np
import pandas as pd


def test_combo_is_mean_of_components(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    rng = np.random.default_rng(9)
    vals = list(100 + rng.normal(0, 5, 21))
    ts = pd.date_range("2024-01-01", periods=21, freq="D") \
        .astype("datetime64[us]")
    pd.DataFrame({"event_type": ["e"] * 21, "ts": ts, "value": vals,
                  "user_id": [0] * 21}) \
        .to_parquet(tmp_path / "events.parquet")
    combo = Q.q_combo_forecast_daily(str(tmp_path))
    fr = Q._daily_frame(str(tmp_path))
    comp = []
    for est, kw in (("ses", {"alpha": 1.0}),
                    ("seasonal_naive", {"period": 7}), ("drift", {})):
        p = fr.predict(periods=7, freq="D", estimator=est, **kw) \
            .to_pandas().sort_values("d")["predicted_v"] \
            .to_numpy(np.float64)
        comp.append(p)
    exp = np.round(np.mean(comp, axis=0), 6)
    assert np.allclose(combo["combo_v"].to_numpy(), exp)
