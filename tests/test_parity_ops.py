"""Parity ops: M11 remove_min_lags, A7 missing percentages, J3 merge
actuals (distributed hash join), J4 update values, and the §3.4
leakage-safe CV folds."""

import numpy as np
import pandas as pd
import pytest

from forecastframe_ray import RayForecastFrame
from tests.conftest import HIERARCHY, tiny_sales_df


def _frame():
    return RayForecastFrame(tiny_sales_df(), "datetime", "sales_int",
                            HIERARCHY, num_partitions=4)


def test_remove_min_lags():
    fr = _frame().lag_features("sales_int", [1, 2, 3])
    fr.remove_min_lags({"sales_int": 2})
    cols = fr.dataset.schema().names
    assert "sales_int" in cols                      # target never dropped
    assert "sales_int_lag1" not in cols             # below min lag
    assert {"sales_int_lag2", "sales_int_lag3"} <= set(cols)


def test_missing_percentages():
    fr = _frame()
    pcts = fr.missing_percentages()
    assert pcts["sales_int"] == pytest.approx(1 / 12)
    assert pcts["sales_float"] == pytest.approx(2 / 12)
    assert pcts["category"] == 0.0


def test_merge_actuals_outer_join():
    fr = _frame()
    preds = tiny_sales_df()[HIERARCHY + ["datetime"]].copy()
    preds["prediction"] = 1.0
    merged = fr.merge_actuals(preds).to_pandas()
    # NaN-target row (Prod_4 @ 2019-12-31) is excluded from the actuals side
    assert len(merged) == 12
    row = merged[(merged["product"] == "Prod_4") &
                 (merged["datetime"] == pd.Timestamp("2019-12-31"))]
    assert row["sales_int"].isna().all()
    row2 = merged[(merged["product"] == "Prod_3") &
                  (merged["datetime"] == pd.Timestamp("2020-01-02"))]
    assert row2["sales_int"].iloc[0] == 10000


def test_update_values_coalesce():
    fr = _frame()
    patch = pd.DataFrame({
        "category": ["Cat_2"], "product": ["Prod_4"], "state": ["CA"],
        "store": ["Store_1"], "datetime": [pd.Timestamp("2019-12-31")],
        "sales_int": [99.0],
    })
    fr.update_values(patch)
    df = fr.to_pandas()
    got = df[(df["product"] == "Prod_4") &
             (df["datetime"] == pd.Timestamp("2019-12-31"))]["sales_int"]
    assert got.iloc[0] == 99.0
    # untouched rows unchanged
    assert df[(df["product"] == "Prod_3") &
              (df["datetime"] == pd.Timestamp("2020-01-01"))]["sales_int"].iloc[0] == 113


def test_cv_folds_leakage_safe():
    from forecastframe_ray.pipelines import cv

    # daily single-series frame, 12 days
    df = pd.DataFrame({
        "datetime": pd.date_range("2020-01-01", periods=12),
        "g": ["A"] * 12,
        "y": np.arange(1.0, 13.0),
    })
    fr = RayForecastFrame(df, "datetime", "y", ["g"], num_partitions=2)
    fr.lag_features("y", [1])

    folds = cv.time_series_folds(df["datetime"].tolist(), n_splits=2)
    assert folds[0]["test_start"] > folds[0]["train_end"]
    assert folds[1]["test_start"] > folds[0]["test_end"]

    for fold, out in cv.fold_frames(fr, n_splits=2):
        res = out.to_pandas().sort_values("datetime")
        test_rows = res[res["__is_test"]]
        first_test = test_rows.iloc[0]
        # first test row's lag sees the last TRAIN actual
        prev_day = first_test["datetime"] - pd.Timedelta(days=1)
        if prev_day <= fold["train_end"]:
            assert first_test["y_lag1"] == float(prev_day.day)
        # later test rows' lags saw MASKED (NaN) test targets, not actuals
        if len(test_rows) > 1:
            assert np.isnan(test_rows.iloc[1]["y_lag1"])
        # actuals restored after replay
        assert (test_rows["y"] == test_rows["datetime"].dt.day).all()


def test_cv_scalers_fit_on_train_only():
    from forecastframe_ray.pipelines import cv

    df = pd.DataFrame({
        "datetime": pd.date_range("2020-01-01", periods=12),
        "g": ["A"] * 12,
        "y": np.arange(1.0, 13.0),
    })
    fr = RayForecastFrame(df, "datetime", "y", ["g"], num_partitions=2)
    fr.normalize_features(["y"])

    (fold, out), = list(cv.fold_frames(fr, n_splits=1))
    # min/max come from the TRAIN window only, not the full series
    train_days = (pd.Timestamp(fold["train_end"]) - pd.Timestamp("2020-01-01")).days + 1
    assert out.transforms["normalize"]["maxes"]["y"] == pytest.approx(float(train_days))


def test_join_dim_table():
    fr = _frame()
    dim = pd.DataFrame({"state_key": ["CA", "NY"],
                        "population": [39_000_000, 19_000_000]})
    fr.join_dim_table(dim, left_on="state", right_on="state_key")
    df = fr.to_pandas()
    assert len(df) == 12                       # inner join, all rows match CA
    assert (df["population"] == 39_000_000).all()
    # recorded for replay
    assert fr.function_list[-1][0] == "join_dim_table"

    fr2 = _frame()
    dim2 = pd.DataFrame({"state_key": ["NY"], "population": [19_000_000]})
    fr2.join_dim_table(dim2, left_on="state", right_on="state_key")
    assert fr2.dataset.count() == 0            # inner semantics drop non-matches


def test_format_dates_granularity():
    # daily fixture → day format (reference golden: "Jan. 5 2020" present;
    # divergence note: we format the DISTINCT SORTED dates, not raw row order)
    fr = _frame()
    vals = fr.format_dates()
    assert fr.date_format == "%b. %-d %Y"
    assert "Jan. 5 2020" in vals and "Dec. 30 2019" in vals

    from forecastframe_ray import RayForecastFrame
    monthly = pd.DataFrame({
        "datetime": pd.date_range("1980-01-01", periods=3, freq="MS"),
        "g": ["A"] * 3, "y": [1.0, 2.0, 3.0]})
    fm = RayForecastFrame(monthly, "datetime", "y", ["g"], num_partitions=2)
    assert fm.format_dates() == ["Jan. 1980", "Feb. 1980", "Mar. 1980"]

    yearly = pd.DataFrame({
        "datetime": pd.to_datetime(["1980-12-31", "1981-12-31", "1982-12-31"]),
        "g": ["A"] * 3, "y": [1.0, 2.0, 3.0]})
    fy = RayForecastFrame(yearly, "datetime", "y", ["g"], num_partitions=2)
    assert fy.format_dates() == ["1980", "1981", "1982"]


def test_ensemble_predictions_seasonal_mean():
    # §2.8 ensemble hook: the appended column equals the per-(group, dow)
    # mean of the target computed directly in pandas
    fr = _frame().calc_ensemble_predictions()
    df = fr.to_pandas()
    dow = df["datetime"].dt.dayofweek
    expect = df.groupby(HIERARCHY + [dow.rename("dow")])["sales_int"] \
        .transform("mean")
    got = df["sales_int_ensemble_pred"]
    assert np.allclose(got.to_numpy(dtype=float), expect.to_numpy(dtype=float),
                       equal_nan=True)
    # recorded for replay
    assert ("calc_ensemble_predictions",
            {"model": "seasonal_mean", "feature": "sales_int"}) \
        in fr.function_list


def test_cv_restore_distributed_patch(monkeypatch):
    # force the distributed coalesce-join restore path (large-patch branch,
    # hash_update); it must give the broadcast restore's fold frames
    from forecastframe_ray.pipelines import cv

    fr = _frame().lag_features("sales_int", [1])
    broadcast = [ffr.to_pandas()
                 for _, ffr in cv.fold_frames(fr, n_splits=2, gap=0)]
    monkeypatch.setattr(cv, "PATCH_BROADCAST_ROWS", 0)
    fr = _frame().lag_features("sales_int", [1])
    base = fr.to_pandas()
    folds = list(cv.fold_frames(fr, n_splits=2, gap=0))
    assert len(folds) == len(broadcast) == 2
    for (fold, ffr), want in zip(folds, broadcast):
        got = ffr.to_pandas()
        pd.testing.assert_frame_equal(got, want)
        # restored actuals: every test-window row's target equals the source
        test = got[got["datetime"] >= fold["test_start"]]
        src = base.set_index(HIERARCHY + ["datetime"])["sales_int"]
        for _, r in test.iterrows():
            key = tuple(r[c] for c in HIERARCHY) + (r["datetime"],)
            assert np.isclose(r["sales_int"], src.loc[key]) or (
                np.isnan(r["sales_int"]) and np.isnan(src.loc[key]))


def test_rollup_windows_hash_join_fallback(monkeypatch):
    # force the distributed join-back path for rollup-level features
    # (high-cardinality grouper guard, frame._apply_rollup_windows)
    from forecastframe_ray.frame import RayForecastFrame as RFF

    monkeypatch.setattr(RFF, "ROLLUP_BROADCAST_ROWS", 0)
    fr = _frame()
    fr.calc_statistical_features(
        "sales_int", windows=[2], aggregations=["mean"], lag=1,
        min_periods=1,
        groupers={"name": "lvl", "columns": ["store", "state", "category"],
                  "operation": "sum"})
    df = fr.to_pandas()
    col = "sales_int_mean_lvl_roll2_lag1"
    assert col in df.columns
    # compare against the broadcast path on identical input
    monkeypatch.setattr(RFF, "ROLLUP_BROADCAST_ROWS", 2_000_000)
    fr2 = _frame()
    fr2.calc_statistical_features(
        "sales_int", windows=[2], aggregations=["mean"], lag=1,
        min_periods=1,
        groupers={"name": "lvl", "columns": ["store", "state", "category"],
                  "operation": "sum"})
    df2 = fr2.to_pandas()
    a = df[col].to_numpy(dtype=float)
    b = df2[col].to_numpy(dtype=float)
    assert np.allclose(a, b, equal_nan=True)
