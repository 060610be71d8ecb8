"""Interpretation-stack data side (pipelines/interpret.py): distributed
describe parity with pandas, exact distributed quantiles, Chan-merged
moments across many blocks, summarize_cv threshold/skew semantics
(reference interpret.py:446-653), and permutation importance over the
distributed OLS fit."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from forecastframe_ray.pipelines import interpret as interp


def _rng(seed=7):
    return np.random.default_rng(seed)


def _many_block_ds(df: pd.DataFrame, blocks: int = 7):
    """Split into several blocks so partial-merge paths actually merge."""
    cuts = np.linspace(0, len(df), blocks + 1, dtype=int)
    return ray.data.from_pandas(
        [df.iloc[a:b].reset_index(drop=True)
         for a, b in zip(cuts[:-1], cuts[1:]) if b > a])


def test_grouped_moments_matches_pandas_across_blocks():
    rng = _rng()
    df = pd.DataFrame({
        "g": rng.choice(["a", "b", "c"], size=500),
        "x": rng.normal(1000.0, 5.0, size=500),  # mean >> std: the naive
        "w": rng.uniform(0.5, 2.0, size=500),    # sum-of-squares form fails
    })
    df.loc[::17, "x"] = np.nan  # null masking
    out = interp.grouped_moments(_many_block_ds(df), ["g"], "x",
                                 weight_col="w").set_index("g")
    for g, sub in df.groupby("g"):
        v = sub["x"].dropna()
        assert out.loc[g, "n"] == len(v)
        assert out.loc[g, "mean"] == pytest.approx(v.mean(), rel=1e-12)
        assert out.loc[g, "std"] == pytest.approx(v.std(), rel=1e-12)
        assert out.loc[g, "min"] == v.min() and out.loc[g, "max"] == v.max()
        m = sub["x"].notna()
        assert out.loc[g, "wavg"] == pytest.approx(
            np.average(sub.loc[m, "x"], weights=sub.loc[m, "w"]), rel=1e-12)


def test_grouped_quantiles_exact_linear_interpolation():
    rng = _rng(3)
    df = pd.DataFrame({
        "g": rng.choice(["g1", "g2"], size=301),
        "x": rng.normal(0, 10, size=301),
    })
    out = interp.grouped_quantiles(_many_block_ds(df), ["g"], "x",
                                   qs=(0.25, 0.5, 0.75)).set_index("g")
    for g, sub in df.groupby("g"):
        for q, col in ((0.25, "q25"), (0.5, "q50"), (0.75, "q75")):
            assert out.loc[g, col] == pytest.approx(
                np.quantile(sub["x"], q), rel=1e-12)


def test_errors_describe_matches_reference_semantics():
    """Parity with the reference's _calc_errors(describe=True)
    (interpret.py:158-177): drop null-actual rows, ±inf -> NaN, then
    pandas describe() per metric column."""
    rng = _rng(11)
    n = 400
    df = pd.DataFrame({
        "actual": rng.normal(50, 20, size=n),
        "pred": rng.normal(50, 20, size=n),
    })
    df.loc[::13, "actual"] = np.nan      # dropped rows
    df.loc[::11, "pred"] = np.nan        # per-column NaN skip
    df.loc[5, "actual"] = 0.0            # APE inf -> NaN -> skipped

    out = interp.errors_describe(_many_block_ds(df), "actual", "pred") \
        .set_index("metric")

    ref = df[df["actual"].notna()].copy()
    a, p = ref["actual"], ref["pred"]
    ref_cols = pd.DataFrame({
        "actuals": a, "predictions": p, "AE": (a - p).abs(),
        "APE": ((a - p) / a).abs().replace([np.inf, -np.inf], np.nan),
        "SE": (a - p) ** 2,
    })
    d = ref_cols.describe()
    for m in ("actuals", "predictions", "AE", "APE", "SE"):
        assert out.loc[m, "n"] == d.loc["count", m]
        for ours, theirs in (("mean", "mean"), ("std", "std"),
                             ("min", "min"), ("q25", "25%"), ("q50", "50%"),
                             ("q75", "75%"), ("max", "max")):
            assert out.loc[m, ours] == pytest.approx(d.loc[theirs, m],
                                                     rel=1e-9), (m, ours)


def test_errors_describe_starts_two_executions(executions):
    """The melt's materialize and the quantile sort: the order statistics
    are read from the sorted blocks without another Ray Data execution."""
    rng = _rng(5)
    df = pd.DataFrame({"actual": rng.normal(50, 20, size=400),
                       "pred": rng.normal(50, 20, size=400)})
    ds = _many_block_ds(df, blocks=4).materialize()
    executions.clear()
    out = interp.errors_describe(ds, "actual", "pred").set_index("metric")
    assert len(executions) <= 2
    assert out.loc["AE", "q50"] == pytest.approx(
        (df["actual"] - df["pred"]).abs().median(), rel=1e-12)


def test_score_ape_thresholds_match_reference():
    # reference _get_threshold_dict / _score_absolute_percent_error
    assert interp.score_ape(0.05) == "best"
    assert interp.score_ape(0.10) == "best"
    assert interp.score_ape(0.12) == "good"
    assert interp.score_ape(0.20) == "bad"
    assert interp.score_ape(0.80) == "worst"
    assert interp.score_ape(1.5) is None


def test_cyclic_shift_is_a_permutation_per_series():
    from forecastframe_ray.stages.keyed import keyed_window_stage

    rng = _rng(5)
    rows = []
    for s in ("s1", "s2", "s3"):
        for i in range(rng.integers(3, 9)):
            rows.append({"k": s, "t": pd.Timestamp("2024-01-01")
                         + pd.Timedelta(days=i),
                         "x": float(rng.normal())})
    df = pd.DataFrame(rows)
    out = keyed_window_stage(_many_block_ds(df, blocks=3), ["k"], "t",
                             [{"op": "cyclic_shift", "features": ["x"]}],
                             num_partitions=4).to_pandas()
    for s, sub in out.groupby("k"):
        sub = sub.sort_values("t")
        # multiset preserved (true permutation) and rotated by exactly one
        assert sorted(sub["x"]) == pytest.approx(sorted(sub["x_perm"]))
        assert list(sub["x_perm"]) == [sub["x"].iloc[-1]] \
            + list(sub["x"].iloc[:-1])


def test_ols_and_permutation_importance():
    """fit_ols2 == lstsq; permuting the informative feature hurts RMSE far
    more than permuting the (weaker) second feature."""
    rng = _rng(9)
    n = 600
    dates = pd.date_range("2024-01-01", periods=n // 3, freq="D")
    df = pd.DataFrame({
        "k": np.repeat(["a", "b", "c"], n // 3),
        "t": np.tile(dates, 3),
        "x1": rng.normal(10, 3, size=n),
        "x2": rng.normal(5, 2, size=n),
    })
    df["y"] = 2.0 + 3.0 * df["x1"] + 0.1 * df["x2"] \
        + rng.normal(0, 0.5, size=n)
    ds = _many_block_ds(df)

    betas = interp.fit_ols2(ds, "x1", "x2", "y")
    X = np.column_stack([np.ones(n), df["x1"], df["x2"]])
    expect = np.linalg.lstsq(X, df["y"].to_numpy(), rcond=None)[0]
    assert np.allclose(betas, expect, rtol=1e-8)

    imp = interp.permutation_importance(ds, ["k"], "t", ("x1", "x2"), "y",
                                        num_partitions=4) \
        .set_index("feature")
    assert imp.loc["x1", "importance"] > 10 * imp.loc["x2", "importance"]
    assert imp.loc["x2", "importance"] >= 0  # permuting never helps OLS fit
    base = imp["rmse_base"].iloc[0]
    assert base == pytest.approx(0.5, abs=0.1)  # recovers the noise floor


def test_single_feature_r2_matches_numpy_corrcoef():
    rng = _rng(11)
    n = 400
    df = pd.DataFrame({
        "x_mean_roll7": rng.normal(0, 1, n),
        "plain": rng.normal(0, 1, n),
    })
    df["y"] = 4.0 * df["x_mean_roll7"] + rng.normal(0, 1, n)
    # inject NaNs into one feature: pairwise deletion must match numpy
    # over the finite subset only
    df.loc[::7, "plain"] = np.nan
    ds = _many_block_ds(df)

    r2 = interp.single_feature_r2(ds, ["x_mean_roll7", "plain"], "y") \
        .set_index("feature")["r2"]
    exp_strong = np.corrcoef(df["x_mean_roll7"], df["y"])[0, 1] ** 2
    m = df["plain"].notna()
    exp_weak = np.corrcoef(df.loc[m, "plain"], df.loc[m, "y"])[0, 1] ** 2
    assert r2["x_mean_roll7"] == pytest.approx(exp_strong, rel=1e-10)
    assert r2["plain"] == pytest.approx(exp_weak, rel=1e-10)


def test_importance_summary_alert_threshold_both_sides():
    """The 0.33 statistical-share alert (reference interpret.py:245-248)
    fires when the strong feature carries a statistical name and stays
    quiet when the same importance mass sits on a plain feature."""
    rng = _rng(13)
    n = 300
    strong = rng.normal(0, 1, n)
    weak = rng.normal(0, 1, n)
    y = 5.0 * strong + rng.normal(0, 0.5, n)

    ds_stat = _many_block_ds(pd.DataFrame(
        {"v_ewma_roll3": strong, "other": weak, "y": y}))
    out = interp.importance_summary(ds_stat, ["v_ewma_roll3", "other"], "y")
    out = out.set_index("feature")
    assert bool(out.loc["v_ewma_roll3", "is_statistical"])
    assert not bool(out.loc["other", "is_statistical"])
    assert out["share"].sum() == pytest.approx(1.0, abs=1e-5)
    assert int(out.loc["v_ewma_roll3", "rank"]) == 1
    assert out["alert"].all()  # stat feature dominates -> share > 0.33

    ds_plain = _many_block_ds(pd.DataFrame(
        {"plain_a": strong, "v_sum_roll7": weak, "y": y}))
    out2 = interp.importance_summary(ds_plain, ["plain_a", "v_sum_roll7"],
                                     "y").set_index("feature")
    assert not out2["alert"].any()  # weak stat feature -> share << 0.33
    assert out2.loc["v_sum_roll7", "stat_share"] < 0.33


def test_quantile_loss_matches_reference_formula():
    """Pinball loss (reference model.py:136-149, the M5 scoring metric):
    the distributed partial-sum result must equal the reference's
    np.where formula computed in one piece, with null actuals masked."""
    from forecastframe_ray.functions import metrics

    rng = _rng(17)
    n = 500
    df = pd.DataFrame({"a": rng.normal(10, 3, n), "p": rng.normal(10, 3, n)})
    df.loc[::9, "a"] = np.nan
    out = metrics.quantile_loss(_many_block_ds(df), "a", "p",
                                quantiles=[0.1, 0.5, 0.9]) \
        .set_index("quantile")

    m = df["a"].notna()
    a, p = df.loc[m, "a"].to_numpy(), df.loc[m, "p"].to_numpy()
    for q in (0.1, 0.5, 0.9):
        exp = np.mean(np.where(a >= p, q * (a - p), (1 - q) * (p - a)))
        assert out.loc[q, "loss"] == pytest.approx(exp, rel=1e-12)
        assert int(out.loc[q, "n"]) == int(m.sum())
    # q=0.5 pinball is half the MAE
    mae = np.mean(np.abs(a - p))
    assert out.loc[0.5, "loss"] == pytest.approx(mae / 2, rel=1e-12)


def test_linear_shap_exactness_and_axioms():
    """Linear-SHAP (closed-form Shapley of the OLS fit): matches the direct
    numpy formula, satisfies local accuracy (pred == base + Σφ), and the
    attributions average to zero over the background (efficiency)."""
    rng = _rng(13)
    n = 400
    x1 = rng.normal(10, 3, n)
    x2 = rng.normal(-5, 2, n)
    y = 4.0 + 1.5 * x1 - 2.0 * x2 + rng.normal(0, 1, n)
    df = pd.DataFrame({"x1": x1, "x2": x2, "y": y})
    out = interp.linear_shap(_many_block_ds(df, 5), "x1", "x2", "y") \
        .to_pandas()

    # direct reference: numpy lstsq + closed form
    X = np.column_stack([np.ones(n), x1, x2])
    beta, *_ = np.linalg.lstsq(X, y, rcond=None)
    assert np.abs(out["x1_shap"] - beta[1] * (x1 - x1.mean())).max() < 1e-8
    assert np.abs(out["x2_shap"] - beta[2] * (x2 - x2.mean())).max() < 1e-8
    # local accuracy: prediction decomposes exactly
    recon = out["base_value"] + out["x1_shap"] + out["x2_shap"]
    assert np.abs(out["pred"] - recon).max() < 1e-8
    assert abs(out["base_value"].iloc[0] - y.mean()) < 1e-8
    # efficiency: attributions sum to zero over the background data
    assert abs(out["x1_shap"].mean()) < 1e-8
    assert abs(out["x2_shap"].mean()) < 1e-8
