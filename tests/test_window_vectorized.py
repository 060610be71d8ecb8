"""Bit-identity of the grouped window kernels (``stages/window_ops.py``)
with the per-series forms they replace.

Each oracle below is the per-group form the kernels used before they became
one grouped pass: a ``groupby().apply`` over ts-indexed sub-frames, or a
``set_index/reindex/reset_index`` per series for gap-fill. Hypothesis draws
multi-series frames with irregular timestamps, NaN values, one or two key
columns (a categorical key, NaN keys), int/float/bool value columns, lags
0–3, windows 1–10 and both EWMA ``adjust`` values; every kernel must return
a frame ``DataFrame.equals`` to its oracle's — values, dtypes and order.

The last tests pin plan invariance of the whole feature chain the tier
benchmark runs (gap-fill → lags → rolling stats → EWMA): the same output
for any partition count, block count and block order; that the window
stage skips its exchange over co-partitioned blocks (a stored tier read
back), and only there, with the exchange path's rows; and that the global
gap-fill, ``compress``, ``make_future_frame`` and ``missing_percentages``
each execute their upstream plan once, and that the gap-fill's range pass
over a materialized frame starts no Ray Data execution."""

import os
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from forecastframe_ray.stages import window_ops as W

TS = "ts"


# ---------------------------------------------------------------------------
# oracles: the per-series forms
# ---------------------------------------------------------------------------

def _apply_per_group(df, keys, cols, fn):
    sub = df[keys + [TS] + cols].set_index(TS)
    out = sub.groupby(keys, sort=False, dropna=False, group_keys=False,
                      observed=True)[cols].apply(fn)
    vals = out.to_numpy()
    assert vals.shape[0] == len(df)
    return vals


def oracle_rolling_stats(df, keys, features, window, aggs, lag, mp):
    def fn(x):
        return x.shift(lag).rolling(f"{window}D", min_periods=mp).agg(aggs)
    names = [W.stat_name(f, a, window, lag) for f in features for a in aggs]
    df[names] = _apply_per_group(df, keys, features, fn)
    return df


def oracle_ewma(df, keys, features, window, lag, mp, adjust):
    def fn(x):
        return x.shift(lag).ewm(span=window, min_periods=mp,
                                adjust=adjust).mean()
    names = [W.stat_name(f, "", window, lag, designator="_ewma")
             for f in features]
    df[names] = _apply_per_group(df, keys, features, fn)
    return df


def oracle_rolling_threshold(df, keys, features, window, lag, mp,
                             threshold, operator):
    flags = [f"__thr_{f}" for f in features]
    df[flags] = W._THRESH_OPS[operator](
        df[features].fillna(threshold).to_numpy(), threshold) \
        .astype(np.float64)

    def fn(x):
        return x.shift(lag).rolling(f"{window}D", min_periods=mp) \
            .agg(["mean"])
    names = [W.stat_name(f, "", window, lag,
                         designator=f"_perc_{operator}{threshold}")
             for f in features]
    df[names] = _apply_per_group(df, keys, flags, fn)
    return df.drop(columns=flags)


def oracle_rolling_quantile(df, keys, feature, window, q, mp):
    def fn(x):
        return x[feature].rolling(window, min_periods=mp) \
            .quantile(q, interpolation="linear").to_frame("__q")
    out_name = f"{feature}_p{int(q * 100)}_roll{window}"
    df[out_name] = np.round(_apply_per_group(df, keys, [feature], fn)[:, 0], 6)
    return df


def oracle_seasonal_decompose(df, keys, feature, ma_window):
    def fn(x):
        return x.rolling(ma_window, center=True, min_periods=1).mean()
    trend = _apply_per_group(df, keys, [feature], fn)[:, 0]
    v = df[feature].to_numpy(np.float64)
    seasonal = df.assign(__detr=v - trend, __dow=df[TS].dt.dayofweek) \
        .groupby(keys + ["__dow"], sort=False, dropna=False,
                 observed=True)["__detr"] \
        .transform("mean").to_numpy(np.float64)
    df[f"{feature}_trend"] = np.round(trend, 6)
    df[f"{feature}_seasonal"] = np.round(seasonal, 6)
    df[f"{feature}_resid"] = np.round(v - trend - seasonal, 6)
    return df


def oracle_gap_fill(df, keys, freq, start, end):
    value_cols = [c for c in df.columns if c not in keys and c != TS]

    def fn(g):
        lo = start if start is not None else g[TS].min()
        hi = end if end is not None else g[TS].max()
        out = g.set_index(TS)[value_cols].reindex(
            pd.date_range(lo, hi, freq=freq))
        out.index.name = TS
        out = out.reset_index()
        for k in keys:
            out[k] = g[k].iloc[0]
        return out

    parts = [fn(g) for _, g in df.groupby(keys, sort=False, dropna=False,
                                          observed=True)]
    return pd.concat(parts, ignore_index=True)[[TS] + keys + value_cols]


# ---------------------------------------------------------------------------
# generated inputs
# ---------------------------------------------------------------------------

_FLOAT = st.one_of(st.floats(min_value=-100, max_value=100,
                             allow_nan=False, width=32), st.just(np.nan))


@st.composite
def frames(draw, hourly: bool):
    """A frame in the keyed kernel's input contract: sorted by keys + ts
    (mergesort), unique ts within a series, positional index. ``hourly``
    spaces stamps 1–40 h apart (day windows see 0–many rows); otherwise
    1–3 days apart, some off the midnight grid."""
    n_series = draw(st.integers(1, 5))
    k1_values = draw(st.lists(st.one_of(st.sampled_from(["a", "b", "c"]),
                                        st.none()),
                              min_size=n_series, max_size=n_series))
    two_keys = draw(st.booleans())
    k2_values = draw(st.lists(st.sampled_from([1.0, 2.0, np.nan]),
                              min_size=n_series, max_size=n_series))
    rows = []
    for s in range(n_series):
        n = draw(st.integers(1, 12))
        if hourly:
            steps = draw(st.lists(st.integers(1, 40), min_size=n, max_size=n))
            stamps = pd.Timestamp("2024-01-01") + pd.to_timedelta(
                np.cumsum(steps), unit="h")
        else:
            steps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
            stamps = pd.Timestamp("2024-01-01") + pd.to_timedelta(
                np.cumsum(steps), unit="D")
            if draw(st.booleans()):
                stamps = stamps + pd.to_timedelta(6 * np.asarray(draw(
                    st.lists(st.integers(0, 1), min_size=n, max_size=n))),
                    unit="h")
        for t in stamps:
            rows.append((k1_values[s], k2_values[s], t))
    df = pd.DataFrame(rows, columns=["k1", "k2", TS])
    df = df.drop_duplicates(["k1", "k2", TS]).reset_index(drop=True)
    n = len(df)
    df["x"] = draw(st.lists(_FLOAT, min_size=n, max_size=n))
    df["y"] = draw(st.lists(_FLOAT, min_size=n, max_size=n))
    df["n"] = np.asarray(draw(st.lists(st.integers(-5, 5), min_size=n,
                                       max_size=n)), dtype=np.int64)
    df["flag"] = np.asarray(draw(st.lists(st.booleans(), min_size=n,
                                          max_size=n)), dtype=bool)
    if draw(st.booleans()):
        df["k1"] = df["k1"].astype(pd.CategoricalDtype(["c", "a", "b", "z"]))
    keys = ["k1", "k2"] if two_keys else ["k1"]
    if not two_keys:
        df = df.drop(columns="k2").drop_duplicates(["k1", TS])
    df = df.sort_values(keys + [TS], kind="mergesort").reset_index(drop=True)
    return df, keys


def _same(got: pd.DataFrame, want: pd.DataFrame):
    assert got.equals(want), (got.dtypes, want.dtypes, got, want)


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

_AGGS = st.lists(st.sampled_from(["max", "min", "std", "mean", "median",
                                  "sum"]), min_size=1, max_size=6,
                 unique=True)


@settings(max_examples=60, deadline=None)
@given(frames(hourly=True), st.integers(1, 10), st.integers(0, 3),
       st.integers(1, 3), _AGGS, st.sampled_from([["x"], ["x", "n"]]))
def test_rolling_stats_bit_identical(fk, window, lag, mp, aggs, features):
    df, keys = fk
    got = W.op_rolling_stats(df.copy(), keys, TS, features, window,
                             aggregations=aggs, lag=lag, min_periods=mp)
    _same(got, oracle_rolling_stats(df.copy(), keys, features, window, aggs,
                                    lag, mp))


@settings(max_examples=40, deadline=None)
@given(frames(hourly=True), st.integers(1, 10), st.integers(0, 3))
def test_rolling_momentums_use_the_shifted_feature(fk, window, lag):
    df, keys = fk
    got = W.op_rolling_stats(df.copy(), keys, TS, ["x"], window,
                             aggregations=["mean", "sum"], lag=lag,
                             momentums=True, percentages=True)
    want = oracle_rolling_stats(df.copy(), keys, ["x"], window,
                                ["mean", "sum"], lag, 1)
    shifted = df.groupby(keys, sort=False, dropna=False,
                         observed=True)["x"].shift(lag).to_numpy()
    with np.errstate(divide="ignore", invalid="ignore"):
        for agg, suffix in (("mean", "_momentum"), ("sum", "_perc")):
            name = W.stat_name("x", agg, window, lag)
            want[name + suffix] = shifted / want[name].to_numpy()
    _same(got, want)


@settings(max_examples=60, deadline=None)
@given(frames(hourly=True), st.integers(1, 10), st.integers(0, 3),
       st.integers(1, 3), st.booleans(), st.sampled_from([["x"], ["x", "n"]]))
def test_ewma_bit_identical(fk, window, lag, mp, adjust, features):
    df, keys = fk
    got = W.op_ewma(df.copy(), keys, TS, features, window, lag=lag,
                    min_periods=mp, adjust=adjust)
    _same(got, oracle_ewma(df.copy(), keys, features, window, lag, mp,
                           adjust))


@settings(max_examples=40, deadline=None)
@given(frames(hourly=True), st.integers(1, 10), st.integers(0, 3),
       st.integers(1, 3), st.sampled_from([0, 1.5]),
       st.sampled_from(sorted(W._THRESH_OPS)))
def test_rolling_threshold_bit_identical(fk, window, lag, mp, threshold,
                                         operator):
    df, keys = fk
    got = W.op_rolling_threshold(df.copy(), keys, TS, ["x", "n"], window,
                                 lag=lag, min_periods=mp,
                                 threshold=threshold, operator=operator)
    _same(got, oracle_rolling_threshold(df.copy(), keys, ["x", "n"], window,
                                        lag, mp, threshold, operator))


@settings(max_examples=40, deadline=None)
@given(frames(hourly=True), st.integers(1, 10),
       st.sampled_from([0.1, 0.5, 0.9]), st.integers(1, 3))
def test_rolling_quantile_bit_identical(fk, window, q, mp):
    df, keys = fk
    mp = min(mp, window)  # a row window rejects min_periods > window
    got = W.op_rolling_quantile(df.copy(), keys, TS, "x", window, q,
                                min_periods=mp)
    _same(got, oracle_rolling_quantile(df.copy(), keys, "x", window, q, mp))


@settings(max_examples=40, deadline=None)
@given(frames(hourly=True), st.integers(1, 10))
def test_seasonal_decompose_bit_identical(fk, ma_window):
    df, keys = fk
    got = W.op_seasonal_decompose(df.copy(), keys, TS, "x", ma_window)
    _same(got, oracle_seasonal_decompose(df.copy(), keys, "x", ma_window))


@settings(max_examples=80, deadline=None)
@given(frames(hourly=False), st.sampled_from(["local", "global", "wide"]),
       st.sampled_from(["D", "12h"]))
def test_gap_fill_bit_identical(fk, mode, freq):
    df, keys = fk
    start = end = None
    if mode == "global":
        start, end = df[TS].min(), df[TS].max()
    elif mode == "wide":
        start = df[TS].min() - pd.Timedelta(days=2)
    got = W.op_gap_fill(df.copy(), keys, TS, freq=freq, start=start, end=end)
    _same(got, oracle_gap_fill(df.copy(), keys, freq, start, end))


@pytest.mark.parametrize("start", [None, pd.Timestamp("2024-01-01")])
def test_gap_fill_duplicate_timestamps_still_raise(start):
    df = pd.DataFrame({
        "k1": ["a", "a", "b"],
        TS: pd.to_datetime(["2024-01-01", "2024-01-01", "2024-01-02"]),
        "x": [1.0, 2.0, 3.0]})
    end = None if start is None else pd.Timestamp("2024-01-02")
    with pytest.raises(ValueError):
        oracle_gap_fill(df.copy(), ["k1"], "D", start, end)
    with pytest.raises(ValueError):
        W.op_gap_fill(df.copy(), ["k1"], TS, start=start, end=end)


# ---------------------------------------------------------------------------
# plan invariance of the frame's feature chain
# ---------------------------------------------------------------------------

def _daily_tier(n_hosts=24, n_days=21, seed=5) -> pd.DataFrame:
    """A 1d tier shaped like the web store's: float page counts per
    (host, day), each host seen on a random subset of days."""
    rng = np.random.default_rng(seed)
    rows = []
    for h in range(n_hosts):
        days = np.sort(rng.choice(n_days, size=rng.integers(1, n_days),
                                  replace=False))
        for d in days:
            rows.append((f"host{h}.example",
                         pd.Timestamp("2024-03-01") + pd.Timedelta(days=int(d)),
                         float(rng.integers(1, 500))))
    df = pd.DataFrame(rows, columns=["host", "bucket_ts", "pages"])
    df["bucket_ts"] = df["bucket_ts"].astype("datetime64[us]")
    return df.sample(frac=1.0, random_state=seed).reset_index(drop=True)


def _feature_chain(blocks: list[pd.DataFrame], num_partitions: int):
    return _chain_over(ray.data.from_pandas(blocks), num_partitions)


def _chain_over(ds, num_partitions: int) -> pd.DataFrame:
    """The tier benchmark's feature chain over ``ds``."""
    from forecastframe_ray.frame import RayForecastFrame

    frame = RayForecastFrame(ds.select_columns(["host", "bucket_ts", "pages"]),
                             "bucket_ts", "pages", ["host"],
                             num_partitions=num_partitions)
    return (frame.fill_time_gaps("D")
            .lag_features(["pages"], [1, 7])
            .calc_statistical_features(
                ["pages"], windows=[7],
                aggregations=["max", "min", "std", "mean", "median"])
            .calc_ewma(["pages"], windows=[7])
            .to_pandas())


def test_feature_chain_is_plan_invariant(ray_session):
    df = _daily_tier()
    many = np.array_split(df, 16)
    want = _feature_chain([df], 1)
    assert len(want) > len(df)  # the gap-fill added rows
    for num_partitions in (1, 3, 8):
        for blocks in ([df], many, many[::-1]):
            got = _feature_chain(blocks, num_partitions)
            pd.testing.assert_frame_equal(got, want, check_exact=True)


# ---------------------------------------------------------------------------
# the window stage over co-partitioned input: no exchange
# ---------------------------------------------------------------------------

@pytest.fixture
def exchanges(monkeypatch):
    """A list that gains each ``agg.exchange`` call's partition count."""
    from forecastframe_ray.stages import agg

    calls = []
    real = agg.exchange

    def exchange(ds, tag, fn, num_partitions, *args, **kwargs):
        calls.append(num_partitions)
        return real(ds, tag, fn, num_partitions, *args, **kwargs)

    monkeypatch.setattr(agg, "exchange", exchange)
    return calls


@pytest.fixture(scope="module")
def tier_store(tmp_path_factory) -> str:
    """A web store built over 8 partitions from synthetic pages."""
    from forecastframe_ray import synth
    from forecastframe_ray.pipelines import web

    out = str(tmp_path_factory.mktemp("store"))
    pages = synth.pages_table(2000, seed=9, num_domains=40)
    web.run(ray.data.from_arrow(pages), out, num_partitions=8)
    return out


def test_stored_tier_features_skip_the_exchange(tier_store, exchanges):
    """The store places each ``part=p`` file's rows with the hash every
    exchange uses, so its 1d tier read back holds every series inside one
    block: the feature chain runs with no exchange and equals the exchange
    path over the same rows fed as 16 shuffled blocks."""
    from forecastframe_ray.state import checkpoint

    got = _chain_over(checkpoint.read_tier(tier_store, "1d"), 8)
    assert exchanges == []
    rows = checkpoint.read_tier(tier_store, "1d").to_pandas()
    shuffled = rows.sample(frac=1.0, random_state=3).reset_index(drop=True)
    want = _chain_over(ray.data.from_pandas(np.array_split(shuffled, 16)), 8)
    assert exchanges == [8]
    assert len(want) > len(rows)  # the gap-fill added rows
    pd.testing.assert_frame_equal(got, want, check_exact=True)


#: the tier chain's ops as one fused stage, with a per-series gap-fill
_STAGE_OPS = [
    {"op": "gap_fill", "freq": "D"},
    {"op": "lag", "features": ["pages"], "lags": [1, 7]},
    {"op": "rolling_stats", "features": ["pages"], "window": 7,
     "aggregations": ["max", "min", "std", "mean", "median"], "lag": 1,
     "min_periods": 1},
    {"op": "ewma", "features": ["pages"], "window": 7, "lag": 1,
     "min_periods": 5},
]


def _stage_frame(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    return df if df.empty else \
        df.sort_values(["host", "bucket_ts"]).reset_index(drop=True)


def _by_partition(df: pd.DataFrame, num_partitions: int) -> list:
    """``df`` split into one block per partition id of ``host``."""
    from forecastframe_ray import keys as K

    ids = K.partition_ids(df, ["host"], num_partitions)
    return [df[ids == p] for p in np.unique(ids)]


def _stage_input(case: str, df: pd.DataFrame):
    """The stage's input for ``case``, as Arrow blocks (a store read's
    form); every case but ``lazy`` is materialized."""
    from forecastframe_ray.stages.agg import _typed_empty

    def blocks(frames):
        return ray.data.from_arrow(
            [_typed_empty(f) if f.empty
             else pa.Table.from_pandas(f, preserve_index=False)
             for f in frames]).materialize()

    parts = _by_partition(df, 8)
    if case == "copartitioned":  # an empty block is left out, not run
        return blocks(parts + [df.iloc[:0]])
    if case == "lazy":
        return blocks(parts).map_batches(lambda b: b, batch_format="pandas")
    if case == "overlapping":
        return blocks(np.array_split(df, 16))
    if case == "too_few_blocks":  # 2 < min(P, CPU slots) = 4
        half = len(parts) // 2
        return blocks([pd.concat(parts[:half]), pd.concat(parts[half:])])
    assert case == "all_empty"
    return blocks([df.iloc[:0]] * 4)


@pytest.mark.parametrize("case, skips", [
    ("copartitioned", True), ("lazy", False), ("overlapping", False),
    ("too_few_blocks", False), ("all_empty", False)])
def test_window_stage_skips_the_exchange_only_over_copartitioned_blocks(
        ray_session, exchanges, executions, case, skips):
    """The stage runs one kernel call per block, with no exchange, only
    over a materialized Dataset of at least min(P, CPU slots) non-empty
    blocks whose partition-id sets do not overlap; otherwise it runs the
    exchange. Either way its rows equal the exchange path's."""
    from forecastframe_ray.stages.agg import keyed_map_partitions
    from forecastframe_ray.stages.keyed import (WindowKernel,
                                                keyed_window_stage)

    df = _daily_tier()
    ds = _stage_input(case, df)
    want = _stage_frame(keyed_map_partitions(
        ds, ["host"], WindowKernel(["host"], "bucket_ts", _STAGE_OPS), 8))
    exchanges.clear()
    executions.clear()
    out = keyed_window_stage(ds, ["host"], "bucket_ts", _STAGE_OPS, 8)
    assert exchanges == ([] if skips else [8])
    assert executions == []  # planning starts no Ray Data execution
    got = _stage_frame(out)
    pd.testing.assert_frame_equal(got, want, check_exact=True)
    if case != "all_empty":
        assert len(got) > len(df)  # the gap-fill added rows


def _spied_frame(df: pd.DataFrame, calls):
    """A frame over ``df`` whose one-block source touches a file in
    ``calls`` each time the plan above it executes."""
    from forecastframe_ray.frame import RayForecastFrame

    def spy(b: pd.DataFrame) -> pd.DataFrame:
        (calls / f"{os.getpid()}-{time.perf_counter_ns()}").touch()
        return b

    ds = ray.data.from_pandas(df).map_batches(spy, batch_format="pandas",
                                              batch_size=None)
    return RayForecastFrame(ds, "bucket_ts", "pages", ["host"],
                            num_partitions=4)


def test_global_gap_fill_runs_the_pending_plan_once(ray_session, tmp_path):
    """``fill_time_gaps(mode="global")`` needs the global range before the
    keyed stage; the upstream plan still executes once, not once for the
    range pass and again for the keyed stage."""
    df = _daily_tier()
    out = _spied_frame(df, tmp_path).fill_time_gaps("D").to_pandas()
    assert len(out) > len(df)
    assert len(list(tmp_path.iterdir())) == 1


def test_global_gap_fill_range_starts_no_execution(ray_session, executions):
    """Over a materialized frame, the global gap-fill's range pass is one
    ``agg.reduce`` of plain per-block tasks: no Ray Data execution starts
    until the keyed stage runs."""
    from forecastframe_ray.frame import RayForecastFrame

    df = _daily_tier()
    frame = RayForecastFrame(ray.data.from_pandas(np.array_split(df, 4)),
                             "bucket_ts", "pages", ["host"], num_partitions=4)
    frame._ds = frame.dataset.materialize()
    executions.clear()
    frame.fill_time_gaps("D")
    assert executions == []
    assert len(frame.to_pandas()) > len(df)


def test_compress_runs_the_pending_plan_once(ray_session, tmp_path):
    """``compress`` reads the schema and the integer ranges of a pending
    keyed stage; the stage executes once, not once more for the schema."""
    df = _daily_tier().astype({"pages": "int64"})
    frame = _spied_frame(df, tmp_path).lag_features("pages", 1).compress()
    out = frame.to_pandas()
    assert len(out) == len(df)
    assert out["pages"].dtype == np.int16
    assert len(list(tmp_path.iterdir())) == 1


def test_future_frame_runs_the_pending_plan_once(ray_session, tmp_path):
    """``make_future_frame`` reads the pending plan for the last date, the
    schema, the distinct series and the history it unions; the plan
    executes once."""
    df = _daily_tier()
    frame = _spied_frame(df, tmp_path).lag_features("pages", 1)
    out = frame.make_future_frame(3, apply_plan=False).to_pandas()
    assert len(out) == len(df) + 3 * df["host"].nunique()
    assert len(list(tmp_path.iterdir())) == 1


def test_missing_percentages_runs_the_pending_plan_once(ray_session,
                                                        tmp_path):
    """``missing_percentages`` sums per-block null counts in the calling
    process; a Ray column-less ``sum`` would fetch the schema first, a
    second run of the plan."""
    df = _daily_tier()
    df.loc[df.index[::3], "pages"] = np.nan
    pcts = _spied_frame(df, tmp_path).missing_percentages()
    assert pcts["pages"] == pytest.approx(df["pages"].isna().mean())
    assert pcts["host"] == 0.0
    assert len(list(tmp_path.iterdir())) == 1
