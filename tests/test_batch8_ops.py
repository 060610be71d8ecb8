"""Weighted-sampling kernel edges."""

import numpy as np
import pandas as pd


def test_weighted_sample_prefers_heavy_weights(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    # 100 light orders (weight 1) + 50 heavy (weight 10000): ES keys for
    # heavy orders are ~10000x smaller, so the top-50 is exactly the
    # heavy set with overwhelming margin
    n_light, n_heavy = 100, 50
    keys = list(range(n_light)) + list(range(1000, 1000 + n_heavy))
    w = [1.0] * n_light + [10000.0] * n_heavy
    pd.DataFrame({"o_orderkey": keys, "o_totalprice": w,
                  "o_custkey": [0] * len(keys)}) \
        .to_parquet(tmp_path / "orders.parquet")
    out = Q.q_weighted_sample_orders(str(tmp_path))
    assert len(out) == 50
    assert (out["o_orderkey"] >= 1000).all()


def test_weighted_sample_is_deterministic(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    pd.DataFrame({"o_orderkey": list(range(200)),
                  "o_totalprice": [float(i % 7 + 1) for i in range(200)],
                  "o_custkey": [0] * 200}) \
        .to_parquet(tmp_path / "orders.parquet")
    a = Q.q_weighted_sample_orders(str(tmp_path))
    b = Q.q_weighted_sample_orders(str(tmp_path))
    assert a.equals(b)

