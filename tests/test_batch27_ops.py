"""Damped Holt edges."""

import numpy as np
import pandas as pd

import ray.data


def test_holt_damped_phi_one_equals_plain_holt(ray_session):
    from forecastframe_ray.pipelines.search import (fit_holt,
                                                    fit_holt_damped,
                                                    score_holt,
                                                    score_holt_damped)

    days = pd.date_range("2024-01-01", periods=15, freq="D") \
        .astype("datetime64[us]")
    rng = np.random.default_rng(2)
    df = pd.DataFrame({"k": ["a"] * 15, "d": days,
                       "v": 50 + 2 * np.arange(15)
                       + rng.normal(0, 1, 15)})
    ds = ray.data.from_pandas(df)
    fut = pd.DataFrame({"k": ["a"] * 3,
                        "d": pd.date_range("2024-01-16", periods=3,
                                           freq="D")
                        .astype("datetime64[us]"),
                        "v": [np.nan] * 3})
    fds = ray.data.from_pandas(fut)
    sp = fit_holt(ds, ["k"], "d", "v", alpha=0.4, beta=0.2)
    sd = fit_holt_damped(ds, ["k"], "d", "v", alpha=0.4, beta=0.2,
                         phi=1.0)
    plain = score_holt(fds, sp, ["k"], "d", "v", "p").to_pandas()
    damped = score_holt_damped(fds, sd, ["k"], "d", "v", "p").to_pandas()
    assert np.allclose(plain.sort_values("d")["p"],
                       damped.sort_values("d")["p"])
    # phi < 1 shrinks the trend contribution monotonically
    sd9 = fit_holt_damped(ds, ["k"], "d", "v", alpha=0.4, beta=0.2,
                          phi=0.9)
    d9 = score_holt_damped(fds, sd9, ["k"], "d", "v", "p").to_pandas() \
        .sort_values("d")["p"].to_numpy()
    p = plain.sort_values("d")["p"].to_numpy()
    assert (d9 < p).all()  # positive trend, damped below linear
