"""Holt-Winters recursion pin and seasonal forecast."""

import numpy as np
import pandas as pd

import ray.data


def _hw_reference(y, alpha, beta, gamma, m):
    """Direct numpy Holt-Winters additive recursion (fpp §8.3 init)."""
    n = len(y)
    m_eff = min(m, n)
    level = float(np.mean(y[:m_eff]))
    s = np.zeros(m)
    s[:m_eff] = y[:m_eff] - level
    trend = ((np.mean(y[m:min(2 * m, n)]) - np.mean(y[:m])) / m) \
        if n > m else 0.0
    for t in range(m, n):
        prev_l, prev_b = level, trend
        level = alpha * (y[t] - s[t % m]) + (1 - alpha) * (prev_l + prev_b)
        trend = beta * (level - prev_l) + (1 - beta) * prev_b
        s[t % m] = gamma * (y[t] - prev_l - prev_b) + (1 - gamma) * s[t % m]
    return level, trend, s


def test_holt_winters_general_recursion_matches_reference(ray_session):
    from forecastframe_ray.pipelines.search import fit_holt_winters

    rng = np.random.default_rng(11)
    days = pd.date_range("2024-01-01", periods=30, freq="D") \
        .astype("datetime64[us]")
    y = (100 + 2 * np.arange(30)
         + 10 * np.sin(2 * np.pi * np.arange(30) / 7)
         + rng.normal(0, 3, 30))
    df = pd.DataFrame({"k": ["a"] * 30, "d": days, "v": y})
    ds = ray.data.from_pandas(df)
    state = fit_holt_winters(ds, ["k"], "d", "v",
                             alpha=0.4, beta=0.2, gamma=0.3, period=7)
    level, trend, s = _hw_reference(y, 0.4, 0.2, 0.3, 7)
    row = state["model"].iloc[0]
    assert np.isclose(row["__level"], level)
    assert np.isclose(row["__trend"], trend)
    for i in range(7):
        assert np.isclose(row[f"__s{i}"], s[i])


def test_holt_winters_predict_seasonal_pattern(ray_session, tmp_path):
    """Pure weekly pattern, degenerate params: forecast repeats the season."""
    from forecastframe_ray.pipelines import queries as Q

    pattern = [10.0, 20.0, 30.0, 40.0, 30.0, 20.0, 10.0]
    vals = pattern * 3  # 21 days, zero trend
    ts = pd.date_range("2024-01-01", periods=21, freq="D") \
        .astype("datetime64[us]")
    pd.DataFrame({"event_type": ["e"] * 21, "ts": ts, "value": vals,
                  "user_id": [0] * 21}) \
        .to_parquet(tmp_path / "events.parquet")
    out = Q.q_holt_winters_gate_daily(str(tmp_path))
    assert len(out) == 7
    assert list(out["predicted_v"]) == pattern
