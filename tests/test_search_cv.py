"""Grid/random-search CV driver (`pipelines/search.py`) — the data-side of
the reference's hyperparameter search (`/root/reference/forecastframe/
model.py:319-513` grid/random search, `model.py:1110` best-pick by
``rmse.idxmin``). A pandas oracle recomputes the seasonal-mean fit, the
broadcast scoring and the per-(candidate, fold) RMSE exactly."""

import itertools

import numpy as np
import pandas as pd

from forecastframe_ray import RayForecastFrame
from forecastframe_ray.pipelines import search


def synth_daily() -> pd.DataFrame:
    rows = []
    dates = pd.date_range("2021-03-01", periods=42, freq="D")
    for si, series in enumerate(["a", "b", "c"]):
        for di, d in enumerate(dates):
            v = 50.0 + 10 * si + 6 * np.sin(2 * np.pi * d.dayofweek / 7) \
                + ((si * 13 + di * 7) % 11) - 5
            rows.append((series, d, round(v, 3)))
    return pd.DataFrame(rows, columns=["series", "d", "v"])


def oracle_search(df: pd.DataFrame, grid: dict, n_splits: int, gap: int):
    names = sorted(grid)
    cands = [dict(zip(names, c))
             for c in itertools.product(*(grid[n] for n in names))]
    dates = sorted(df["d"].unique())
    n = len(dates)
    ts = n // (n_splits + 1)
    rows = []
    for fold in range(n_splits):
        tsix = n - (n_splits - fold) * ts
        train_end, t0 = dates[tsix - gap - 1], dates[tsix]
        t1 = dates[min(tsix + ts, n) - 1]
        fdf = df[(df["d"] <= train_end) | ((df["d"] >= t0) & (df["d"] <= t1))]
        train, test = fdf[fdf["d"] < t0], fdf[fdf["d"] >= t0]
        for ci, params in enumerate(cands):
            season, blend = params["season"], params["blend"]
            sfn = ((lambda s: s.dt.dayofweek) if season == "dow" else
                   (lambda s: s.dt.day) if season == "dom" else
                   (lambda s: pd.Series(np.zeros(len(s), dtype=int),
                                        index=s.index)))
            tr = train.assign(__s=sfn(train["d"]))
            sm = tr.groupby(["series", "__s"], as_index=False)["v"].mean() \
                .rename(columns={"v": "sp"})
            gm = tr.groupby("series", as_index=False)["v"].mean() \
                .rename(columns={"v": "gp"})
            te = test.assign(__s=sfn(test["d"])) \
                .merge(sm, how="left", on=["series", "__s"]) \
                .merge(gm, how="left", on="series")
            pred = ((1 - blend) * te["sp"].fillna(te["gp"])
                    + blend * te["gp"]).to_numpy()
            v = te["v"].to_numpy()
            rows.append({"candidate": ci, "fold": fold,
                         "rmse": float(np.sqrt(np.mean((v - pred) ** 2))),
                         "mape": float(np.mean(np.abs((v - pred) / v))),
                         "n_test": len(te)})
    res = pd.DataFrame(rows)
    best = cands[int(res.groupby("candidate")["rmse"].mean().idxmin())]
    return res, best


def test_search_cv_matches_oracle():
    df = synth_daily()
    fr = RayForecastFrame(df, "d", "v", ["series"], num_partitions=4)
    grid = search.premade_grids("fast")
    results, best = search.search_cv(fr, grid=grid, n_splits=3, gap=1)
    oracle, obest = oracle_search(df, grid, n_splits=3, gap=1)
    assert best == obest
    m = results.merge(oracle, on=["candidate", "fold"], suffixes=("", "_o"))
    assert len(m) == len(oracle) == 12  # 4 candidates x 3 folds
    assert (m["n_test"] == m["n_test_o"]).all()
    np.testing.assert_allclose(m["rmse"], m["rmse_o"], rtol=1e-9)
    np.testing.assert_allclose(m["mape"], m["mape_o"], rtol=1e-9)


def test_frame_cross_validate_delegates():
    df = synth_daily()
    fr = RayForecastFrame(df, "d", "v", ["series"], num_partitions=4)
    results, best = fr.cross_validate(
        grid={"season": ["dow", "none"], "blend": [0.0]}, n_splits=2)
    assert len(results) == 4  # 2 candidates x 2 folds
    assert set(best) == {"season", "blend"}


def test_random_search_subset_and_determinism():
    grid = search.premade_grids("full")
    all_cands = search.grid_candidates(grid)
    picks = search.random_candidates(grid, n_iter=5, seed=3)
    assert len(picks) == 5
    assert all(p in all_cands for p in picks)
    assert picks == search.random_candidates(grid, n_iter=5, seed=3)
    assert picks != search.random_candidates(grid, n_iter=5, seed=4)
    # n_iter beyond the grid size degrades to the full grid
    assert len(search.random_candidates(grid, n_iter=99)) == len(all_cands)


def test_search_cv_respects_recorded_plan():
    """Folds replay the recorded pipeline: searching on a log-scaled frame
    scores in log space (fold refits the scaler on train only)."""
    df = synth_daily()
    fr = RayForecastFrame(df, "d", "v", ["series"], num_partitions=4)
    fr.log_features(["v"])
    results, _ = search.search_cv(
        fr, grid={"season": ["none"], "blend": [0.0]}, n_splits=2)
    # log1p(v) is O(4); raw-space RMSE would be O(10)
    assert (results["rmse"] < 1.0).all()
    assert (results["n_test"] > 0).all()


def test_predict_future_matches_pandas_oracle():
    """frame.predict (reference model.py:1313-1417 data side): fit on ALL
    history, score the next-periods future grid; pandas oracle recomputes
    the per-(series, dow) + per-series means and the COALESCE fallback."""
    df = synth_daily()
    fr = RayForecastFrame(df, datetime_column="d", target="v",
                          hierarchy=["series"], num_partitions=4)
    out = fr.predict(periods=5, freq="D", season="dow", blend=0.0) \
        .to_pandas().sort_values(["series", "d"]).reset_index(drop=True)

    sm = df.assign(__s=df["d"].dt.dayofweek) \
        .groupby(["series", "__s"], as_index=False)["v"].mean() \
        .rename(columns={"v": "sp"})
    gm = df.groupby("series", as_index=False)["v"].mean() \
        .rename(columns={"v": "gp"})
    fut_dates = pd.date_range(df["d"].max() + pd.Timedelta(days=1),
                              periods=5, freq="D")
    exp = pd.MultiIndex.from_product(
        [sorted(df["series"].unique()), fut_dates],
        names=["series", "d"]).to_frame(index=False)
    exp = exp.assign(__s=exp["d"].dt.dayofweek) \
        .merge(sm, how="left", on=["series", "__s"]) \
        .merge(gm, how="left", on="series")
    exp["predicted_v"] = exp["sp"].fillna(exp["gp"])

    assert len(out) == len(exp) == 15
    assert out["v"].isna().all()  # future target is NaN by construction
    merged = out.merge(exp[["series", "d", "predicted_v"]],
                       on=["series", "d"], suffixes=("", "_exp"))
    assert np.allclose(merged["predicted_v"], merged["predicted_v_exp"],
                       rtol=1e-12)


def test_predict_unkeyed_frame_global_series():
    """predict() on a frame with hierarchy=None: the synthetic global key
    (frame._GLOBAL_KEY) must flow through fit, the future grid, and the
    broadcast scorer — one series, `periods` future rows."""
    df = synth_daily()[["d", "v"]].groupby("d", as_index=False).sum()
    fr = RayForecastFrame(df, datetime_column="d", target="v",
                          hierarchy=None, num_partitions=2)
    out = fr.predict(periods=4, freq="D", season="dow", blend=0.0) \
        .to_pandas().sort_values("d").reset_index(drop=True)
    assert len(out) == 4
    assert out["v"].isna().all()
    assert out["predicted_v"].notna().all()

    sm = df.assign(__s=df["d"].dt.dayofweek).groupby("__s")["v"].mean()
    exp = [sm[d.dayofweek] for d in out["d"]]
    assert np.allclose(out["predicted_v"], exp, rtol=1e-12)


# ---------------------------------------------------------------------------
# linear_trend: the real fitted estimator (per-series OLS / ridge)
# ---------------------------------------------------------------------------

def trended_daily() -> pd.DataFrame:
    rows = []
    dates = pd.date_range("2021-03-01", periods=40, freq="D")
    for si, series in enumerate(["a", "b", "c"]):
        for di, d in enumerate(dates):
            v = 20.0 + 15 * si + (2.0 - si) * di + ((si * 13 + di * 7) % 11)
            rows.append((series, d, float(v)))
    return pd.DataFrame(rows, columns=["series", "d", "v"])


def test_linear_trend_fit_matches_polyfit():
    """fit_linear_trend (l2=0) must equal per-series np.polyfit on the
    day index, and the scorer must extrapolate with those coefficients."""
    df = trended_daily()
    fr = RayForecastFrame(df, "d", "v", ["series"], num_partitions=4)
    state = search.fit_linear_trend(fr.dataset, ["series"], "d", "v")
    model = state["model"].sort_values("series").reset_index(drop=True)
    for _, row in model.iterrows():
        g = df[df["series"] == row["series"]]
        x = (g["d"].astype("datetime64[us]").astype("int64")
             // search._DAY_US).to_numpy()
        x = (x - x.min()).astype(float)
        slope, icept = np.polyfit(x, g["v"].to_numpy(), 1)
        np.testing.assert_allclose(row["__slope"], slope, rtol=1e-9)
        np.testing.assert_allclose(row["__icept"], icept, rtol=1e-9)

    out = fr.predict(periods=3, freq="D", estimator="linear_trend") \
        .to_pandas().sort_values(["series", "d"]).reset_index(drop=True)
    assert len(out) == 9
    for _, row in model.iterrows():
        g = df[df["series"] == row["series"]]
        n_hist = g["d"].nunique()
        preds = out[out["series"] == row["series"]]["predicted_v"].to_numpy()
        exp = row["__icept"] + row["__slope"] * (n_hist + np.arange(3))
        np.testing.assert_allclose(preds, exp, rtol=1e-12)


def test_linear_trend_ridge_shrinks_and_floor_clamps():
    df = trended_daily()
    fr = RayForecastFrame(df, "d", "v", ["series"], num_partitions=4)
    s0 = search.fit_linear_trend(fr.dataset, ["series"], "d", "v", l2=0.0)
    s9 = search.fit_linear_trend(fr.dataset, ["series"], "d", "v", l2=1e9)
    m0 = s0["model"].set_index("series")
    m9 = s9["model"].set_index("series")
    # heavy damping kills the slope; intercept degrades toward the mean
    assert (m9["__slope"].abs() < 1e-4 * m0["__slope"].abs()).all()
    assert (m0["__slope"].abs() > 0.5).any()
    # score-time floor clamps predictions (every series trends negative:
    # v = 30 - 2*day + small per-series noise crosses 0 within the horizon)
    down = df.copy()
    di = down.groupby("series").cumcount().to_numpy()
    down["v"] = 30.0 - 2.0 * di + (di * 7 % 5)
    frd = RayForecastFrame(down, "d", "v", ["series"], num_partitions=4)
    raw = frd.predict(periods=30, freq="D", estimator="linear_trend") \
        .to_pandas()
    clamped = frd.predict(periods=30, freq="D", estimator="linear_trend",
                          floor=0.0).to_pandas()
    assert (raw["predicted_v"] < 0).any()
    assert (clamped["predicted_v"] >= 0).all()
    merged = raw.merge(clamped, on=["series", "d"], suffixes=("", "_c"))
    pos = merged["predicted_v"] >= 0
    np.testing.assert_allclose(merged.loc[pos, "predicted_v"],
                               merged.loc[pos, "predicted_v_c"])


def test_linear_trend_degenerate_and_nan_rows():
    """Single-distinct-day series fall back to slope=0/intercept=mean;
    NaN targets are excluded from the fit."""
    df = pd.DataFrame({
        "series": ["a"] * 3 + ["b"] * 4,
        "d": pd.to_datetime(["2021-01-05"] * 3
                            + ["2021-01-01", "2021-01-02",
                               "2021-01-03", "2021-01-04"]),
        "v": [3.0, 5.0, 7.0, 1.0, 2.0, np.nan, 4.0],
    })
    fr = RayForecastFrame(df, "d", "v", ["series"], num_partitions=2)
    state = search.fit_linear_trend(fr.dataset, ["series"], "d", "v")
    m = state["model"].set_index("series")
    assert m.loc["a", "__slope"] == 0.0
    np.testing.assert_allclose(m.loc["a", "__icept"], 5.0)
    # series b: NaN row dropped -> fit on days {0,1,3} with v {1,2,4}
    x = np.array([0.0, 1.0, 3.0]); y = np.array([1.0, 2.0, 4.0])
    slope, icept = np.polyfit(x, y, 1)
    np.testing.assert_allclose(m.loc["b", "__slope"], slope, rtol=1e-12)
    np.testing.assert_allclose(m.loc["b", "__icept"], icept, rtol=1e-12)


def test_search_cv_linear_trend_shares_fits():
    """cross_validate with the linear estimator: `floor` is score-time only,
    so candidates differing only in floor share one fitted state."""
    df = trended_daily()
    fr = RayForecastFrame(df, "d", "v", ["series"], num_partitions=4)
    results, best = fr.cross_validate(
        estimator="linear_trend",
        grid={"l2": [0.0, 1e9], "floor": [None, 0.0]}, n_splits=2)
    assert len(results) == 8  # 4 candidates x 2 folds
    # the trend is real: undamped OLS must beat the slope-killed fit
    mean_rmse = results.groupby("l2")["rmse"].mean()
    assert mean_rmse[0.0] < mean_rmse[1e9]
    assert best["l2"] == 0.0


# ---------------------------------------------------------------------------
# fourier estimator (Prophet-style weekly harmonics + optional trend)
# ---------------------------------------------------------------------------


def _fourier_df(trend: bool) -> pd.DataFrame:
    rng = np.random.default_rng(11)
    rows = []
    for si, (s, n) in enumerate([("a", 60), ("b", 60), ("c", 13)]):
        d = pd.date_range("2022-05-01", periods=n, freq="D")
        v = (rng.normal(80, 15, n)
             + 12 * np.sin(2 * np.pi * d.dayofweek / 7)
             + (0.4 * si * np.arange(n) if trend else 0.0))
        rows.append(pd.DataFrame({"series": s, "d": d, "v": v}))
    return pd.concat(rows, ignore_index=True)


def test_fourier_no_trend_equals_dow_means(ray_session):
    """order=3 harmonics + intercept span the dow-indicator space, so OLS
    fitted values must equal per-(series, dow) conditional means exactly
    (the identity the SQL oracle of ``fourier_dow_fit_daily`` checks)."""
    import ray.data as rd

    df = _fourier_df(trend=False)
    ds = rd.from_pandas(df).repartition(4)
    state = search.fit_fourier(ds, ["series"], "d", "v",
                               order=3, trend=False)
    got = search.score_fourier(ds, state, ["series"], "d", "v",
                               "pred").to_pandas()
    got["dow"] = got["d"].dt.dayofweek
    ref = df.assign(dow=df["d"].dt.dayofweek) \
        .groupby(["series", "dow"], as_index=False)["v"].mean() \
        .rename(columns={"v": "ref"})
    m = got.merge(ref, on=["series", "dow"])
    assert np.abs(m["pred"] - m["ref"]).max() < 1e-8


def test_fourier_trend_matches_lstsq(ray_session):
    """trend=True must reproduce the per-series full-design OLS solution
    (numpy lstsq on [1, cos, sin, ..., centered day number])."""
    import ray.data as rd

    df = _fourier_df(trend=True)
    ds = rd.from_pandas(df).repartition(4)
    state = search.fit_fourier(ds, ["series"], "d", "v", order=2, trend=True)
    got = search.score_fourier(ds, state, ["series"], "d", "v",
                               "pred").to_pandas()
    model = state["model"].set_index("series")
    for s, g in df.groupby("series"):
        dn = search._day_numbers(g["d"])
        base = model.loc[s, "__base"]
        X = np.column_stack([
            search._fourier_design(g["d"].dt.dayofweek.to_numpy(), 2),
            (dn - base).astype(float)])
        beta, *_ = np.linalg.lstsq(X, g["v"].to_numpy(), rcond=None)
        want = X @ beta
        have = got[got["series"] == s].sort_values("d")["pred"].to_numpy()
        assert np.abs(have - want).max() < 1e-6, s


def test_fourier_ridge_damps_and_search_runs(ray_session):
    import ray.data as rd

    df = _fourier_df(trend=False)
    ds = rd.from_pandas(df).repartition(4)
    ols = search.fit_fourier(ds, ["series"], "d", "v", order=3)
    ridge = search.fit_fourier(ds, ["series"], "d", "v", order=3, l2=500.0)
    ccols = [f"__c{j}" for j in range(1, 7)]
    assert ridge["model"][ccols].abs().to_numpy().max() \
        < ols["model"][ccols].abs().to_numpy().max()

    fr = RayForecastFrame(rd.from_pandas(df).repartition(4),
                          datetime_column="d", target="v",
                          hierarchy=["series"], num_partitions=4)
    results, best = search.search_cv(
        fr, grid={"order": [1, 3], "trend": [False], "l2": [0.0]},
        estimator="fourier", n_splits=2)
    assert len(results) == 2 * 2  # candidates × folds
    assert np.isfinite(results["rmse"]).all()
    assert best["order"] in (1, 3)


def test_frame_fourier_ensemble_hook(ray_session):
    """calc_ensemble_predictions(model='fourier') appends a real fitted
    trend+seasonality prediction column via the actor-pool scorer."""
    import ray.data as rd

    df = _fourier_df(trend=True)
    fr = RayForecastFrame(rd.from_pandas(df).repartition(4),
                          datetime_column="d", target="v",
                          hierarchy=["series"], num_partitions=4)
    out = fr.calc_ensemble_predictions(model="fourier").to_pandas()
    assert "v_ensemble_pred" in out.columns
    assert out["v_ensemble_pred"].notna().all()
    # least-squares nesting: the fitted additive model can never lose
    # in-sample to the per-series intercept-only model it nests
    sse_model = float(((out["v"] - out["v_ensemble_pred"]) ** 2).sum())
    per_mean = out.groupby("series")["v"].transform("mean")
    sse_series_mean = float(((out["v"] - per_mean) ** 2).sum())
    assert sse_model < sse_series_mean


def test_holt_matches_direct_recursion(ray_session):
    """fit_holt's distributed per-series kernel must reproduce the direct
    numpy Holt recursion (level/trend at train end), and score_holt the
    h-step-ahead linear forecast."""
    import ray.data as rd

    df = _fourier_df(trend=True)
    ds = rd.from_pandas(df).repartition(4)
    alpha, beta = 0.6, 0.2
    state = search.fit_holt(ds, ["series"], "d", "v",
                            alpha=alpha, beta=beta)
    model = state["model"].set_index("series")
    for s, g in df.groupby("series"):
        y = g.sort_values("d")["v"].to_numpy()
        level, trend = y[0], (y[1] - y[0]) if len(y) > 1 else 0.0
        for t in range(1, len(y)):
            prev = level
            level = alpha * y[t] + (1 - alpha) * (level + trend)
            trend = beta * (level - prev) + (1 - beta) * trend
        assert abs(model.loc[s, "__level"] - level) < 1e-10, s
        assert abs(model.loc[s, "__trend"] - trend) < 1e-10, s

    # forecast: h-step linear extrapolation from the per-series last day
    future = pd.DataFrame({
        "series": ["a", "a", "c"],
        "d": [df[df.series == "a"]["d"].max() + pd.Timedelta(days=h)
              for h in (1, 3)] + [df[df.series == "c"]["d"].max()
                                  + pd.Timedelta(days=2)],
    })
    scored = search.score_holt(rd.from_pandas(future), state,
                               ["series"], "d", "v", "pred").to_pandas()
    for _, row in scored.iterrows():
        m = model.loc[row["series"]]
        h = (row["d"] - pd.Timestamp("1970-01-01")).days - m["__lastdn"]
        assert abs(row["pred"] - (m["__level"] + h * m["__trend"])) < 1e-10


def test_holt_in_search_cv_grid(ray_session):
    import ray.data as rd

    df = _fourier_df(trend=True)
    fr = RayForecastFrame(rd.from_pandas(df).repartition(4),
                          datetime_column="d", target="v",
                          hierarchy=["series"], num_partitions=4)
    results, best = search.search_cv(
        fr, grid={"alpha": [0.3, 0.8], "beta": [0.1]},
        estimator="holt", n_splits=2)
    assert len(results) == 2 * 2
    assert np.isfinite(results["rmse"]).all()
    assert best["alpha"] in (0.3, 0.8)


def test_croston_matches_direct_recursion(ray_session):
    """fit_croston's distributed kernel must reproduce the direct numpy
    Croston recursion (SES over nonzero sizes and inter-demand intervals),
    including the all-zero and single-demand edge cases."""
    import ray.data as rd

    rng = np.random.default_rng(21)
    rows = []
    for s, n in [("a", 40), ("b", 40), ("z", 12), ("one", 9)]:
        d = pd.date_range("2023-02-01", periods=n, freq="D")
        if s == "z":
            v = np.zeros(n)
        elif s == "one":
            v = np.zeros(n)
            v[4] = 7.5
        else:
            v = np.where(rng.random(n) < 0.3, rng.integers(1, 9, n), 0) \
                .astype(float)
        rows.append(pd.DataFrame({"series": s, "d": d, "v": v}))
    df = pd.concat(rows, ignore_index=True)
    alpha = 0.25
    state = search.fit_croston(rd.from_pandas(df).repartition(3),
                               ["series"], "d", "v", alpha=alpha)
    model = state["model"].set_index("series")
    for s, g in df.groupby("series"):
        g = g.sort_values("d")
        y = g["v"].to_numpy()
        dn = search._day_numbers(g["d"])
        nzi = np.flatnonzero(y != 0)
        if len(nzi) == 0:
            assert model.loc[s, "__size"] == 0.0
            assert np.isnan(model.loc[s, "__interval"])
            continue
        q, t = y[nzi], dn[nzi].astype(float)
        tau = np.diff(np.concatenate(([dn[0] - 1.0], t)))
        z, p = q[0], tau[0]
        for i in range(1, len(q)):
            z = alpha * q[i] + (1 - alpha) * z
            p = alpha * tau[i] + (1 - alpha) * p
        assert abs(model.loc[s, "__size"] - z) < 1e-10, s
        assert abs(model.loc[s, "__interval"] - p) < 1e-10, s

    scored = search.score_croston(
        rd.from_pandas(df.drop_duplicates("series")), state,
        ["series"], "d", "v", "pred").to_pandas().set_index("series")
    assert scored.loc["z", "pred"] == 0.0  # all-zero series forecasts 0
    assert scored.loc["one", "pred"] == 7.5 / 5.0  # q=7.5, tau=first at day 5


def test_croston_sba_is_debiased_croston(ray_session):
    """SBA must equal Croston × (1 − α/2) row-for-row, sharing one fit."""
    import ray.data as rd

    rng = np.random.default_rng(6)
    vals = rng.choice([0.0, 0.0, 0.0, 4.0, 9.0], 40)
    df = pd.DataFrame({"series": "s",
                       "d": pd.date_range("2024-01-01", periods=40),
                       "v": vals})
    ds = rd.from_pandas(df).repartition(2)
    alpha = 0.3
    state = search.fit_croston(ds, ["series"], "d", "v", alpha=alpha)
    base = search.score_croston(ds, state, ["series"], "d", "v",
                                "p").to_pandas().sort_values("d")
    sba = search.score_croston_sba(ds, state, ["series"], "d", "v",
                                   "p").to_pandas().sort_values("d")
    np.testing.assert_allclose(sba["p"], base["p"] * (1 - alpha / 2),
                               rtol=1e-12)
    assert "croston_sba" in search.ESTIMATORS


def test_seasonal_naive_and_drift_baselines(ray_session):
    """Seasonal naive repeats the last same-phase value; drift runs the
    line through the first and last observation. Both must be exact."""
    import ray.data as rd

    d = pd.date_range("2024-01-01", periods=21, freq="D")
    v = np.arange(21, dtype=np.float64) * 2.0 + 5.0
    df = pd.DataFrame({"series": "s", "d": d, "v": v})
    ds = rd.from_pandas(df).repartition(2)

    state = search.fit_seasonal_naive(ds, ["series"], "d", "v", period=7)
    future = pd.DataFrame({"series": ["s"] * 3,
                           "d": [d[-1] + pd.Timedelta(days=h)
                                 for h in (1, 2, 9)]})
    got = search.score_seasonal_naive(rd.from_pandas(future), state,
                                      ["series"], "d", "v",
                                      "p").to_pandas().sort_values("d")
    # exact phase math: value at last index with same (dn % 7)
    dn = (df["d"].astype("datetime64[us]").astype("int64")
          // 86_400_000_000).to_numpy()
    for _, row in got.iterrows():
        tf = (pd.Timestamp(row["d"]).to_datetime64().astype("datetime64[us]")
              .astype("int64") // 86_400_000_000)
        same = np.flatnonzero(dn % 7 == tf % 7)
        assert row["p"] == v[same[-1]]

    state = search.fit_drift(ds, ["series"], "d", "v")
    got = search.score_drift(rd.from_pandas(future), state,
                             ["series"], "d", "v",
                             "p").to_pandas().sort_values("d")
    slope = (v[-1] - v[0]) / 20.0
    for _, row in got.iterrows():
        h = (pd.Timestamp(row["d"]) - d[-1]).days
        assert abs(row["p"] - (v[-1] + h * slope)) < 1e-10

    # single-point series extrapolates flat
    one = rd.from_pandas(pd.DataFrame({"series": "x", "d": [d[0]],
                                       "v": [7.0]}))
    st1 = search.fit_drift(one, ["series"], "d", "v")
    g1 = search.score_drift(
        rd.from_pandas(pd.DataFrame({"series": ["x"],
                                     "d": [d[0] + pd.Timedelta(days=5)]})),
        st1, ["series"], "d", "v", "p").to_pandas()
    assert g1["p"].iloc[0] == 7.0
