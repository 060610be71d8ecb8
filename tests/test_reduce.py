"""``agg.reduce``, the one global reduce: its execution contract (no Ray
Data execution over materialized input, one run of a lazy plan, a single
CPU shared with the streaming executor), ``agg.known_rows`` (metadata
only), the results of every site that reduces through it for any block
layout, and each site's result on empty input."""

import os
import subprocess
import sys
import textwrap
import time

import numpy as np
import pandas as pd
import pytest
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from forecastframe_ray.frame import RayForecastFrame
from forecastframe_ray.functions import encoding, metrics, postprocess
from forecastframe_ray.functions import scalers
from forecastframe_ray.pipelines import interpret
from forecastframe_ray.stages.agg import column_ranges, known_rows, reduce
from tests.conftest import THRESHOLD

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _spied(df: pd.DataFrame, calls, blocks: int = 1):
    """A lazy Dataset over ``df`` that touches a file in ``calls`` per
    block each time its plan executes."""
    def spy(b: pd.DataFrame) -> pd.DataFrame:
        (calls / f"{os.getpid()}-{time.perf_counter_ns()}").touch()
        return b

    return ray.data.from_pandas(np.array_split(df, blocks)).map_batches(
        spy, batch_format="pandas", batch_size=None)


def _range_partial():
    """(A closure: workers cannot import this test module, so partials
    travel by value.)"""
    def block_range(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"lo": [b["v"].min()], "hi": [b["v"].max()],
                             "n": [len(b)]})
    return block_range


def _combine_range(p: pd.DataFrame) -> tuple:
    return int(p["lo"].min()), int(p["hi"].max()), int(p["n"].sum())


def test_reduce_over_materialized_input_starts_no_execution(ray_session,
                                                            executions):
    df = pd.DataFrame({"v": np.arange(100, dtype=np.int64)})
    ds = ray.data.from_pandas(np.array_split(df, 8)).materialize()
    executions.clear()
    assert reduce(ds, _range_partial(), _combine_range) == (0, 99, 100)
    assert executions == []


def test_known_rows_reads_only_materialized_metadata(ray_session,
                                                    executions):
    """A lazy Dataset's row count is unknown without running it; a
    materialized one's is its blocks' metadata."""
    lazy = ray.data.range(50, override_num_blocks=4).map_batches(
        lambda b: b, batch_format="pandas")
    assert known_rows(lazy) is None
    ds = lazy.materialize()
    executions.clear()
    assert known_rows(ds) == 50
    assert executions == []


def test_reduce_runs_a_lazy_plan_once(ray_session, tmp_path, executions):
    df = pd.DataFrame({"v": np.arange(100, dtype=np.int64)})
    ds = _spied(df, tmp_path, blocks=4)
    assert reduce(ds, _range_partial(), _combine_range) == (0, 99, 100)
    assert len(executions) == 1
    assert len(list(tmp_path.iterdir())) == 4  # one spy call per block


def test_reduce_skips_empty_blocks(ray_session):
    df = pd.DataFrame({"v": np.arange(3, dtype=np.int64)})
    ds = ray.data.from_pandas([df.iloc[:0], df, df.iloc[:0]])
    assert reduce(ds, lambda b: pd.DataFrame({"n": [len(b)]}),
                  lambda p: p["n"].tolist()) == [3]
    assert reduce(ray.data.from_pandas(df.iloc[:0]), _range_partial(),
                  lambda p: (p.empty, list(p.columns))) == (True, [])


def test_fit_categories_runs_its_plan_once(ray_session, tmp_path):
    """One reduce for all columns: three columns, one run of the plan (a
    per-column distinct scan runs it once per column)."""
    df = pd.DataFrame({"a": ["x", "y", None, "x"], "b": ["p", "q", "p", "r"],
                       "c": ["u", "u", "u", None]})
    keys = encoding.fit_categories(_spied(df, tmp_path), ["a", "b", "c"])
    assert keys == {"a": {0: "x", 1: "y"}, "b": {0: "p", 1: "q", 2: "r"},
                    "c": {0: "u"}}
    assert len(list(tmp_path.iterdir())) == 1


def test_append_shard_id_range_runs_once(ray_session, tmp_path,
                                         monkeypatch):
    """``append_shard`` reads its shard's min and max id and its row count
    in one pass of the shard's plan, before the clean stage runs it again,
    and never runs it a third time."""
    from forecastframe_ray.pipelines import llm_incremental as LI

    words = [f"word{i:04d}" for i in range(600)]
    doc = lambda k: " ".join(words[k * 30:(k + 1) * 30]) + "."  # noqa: E731
    sh1 = pd.DataFrame({"doc_id": [1, 2, 3], "text": [doc(k) for k in range(3)]})
    sh2 = pd.DataFrame({"doc_id": [10, 11, 12],
                        "text": [doc(k) for k in range(3, 6)]})
    index_dir = str(tmp_path / "index")
    calls = tmp_path / "calls"
    calls.mkdir()
    LI.build_index(ray.data.from_pandas(sh1), index_dir,
                   min_words_per_line=3, require_terminal=False)

    runs_before_clean = []
    real_clean = LI._clean

    def clean(*args, **kwargs):
        runs_before_clean.append(len(list(calls.iterdir())))
        return real_clean(*args, **kwargs)

    monkeypatch.setattr(LI, "_clean", clean)
    m = LI.append_shard(_spied(sh2, calls), index_dir)
    assert runs_before_clean == [1]
    assert len(list(calls.iterdir())) == 2 and m["shard_docs"] == 3
    assert LI._load_meta(index_dir)["shards"][-1] == "shard-10-12"


def test_build_index_id_range_runs_once(ray_session, tmp_path):
    """``build_index`` reads its docs' max id and row count in the one
    ``agg.reduce`` pass ``append_shard`` uses, so the docs' plan runs
    twice (that pass and the clean stage), not a third time for a
    ``count()``."""
    from forecastframe_ray.pipelines import llm_incremental as LI

    words = [f"word{i:04d}" for i in range(300)]
    docs = pd.DataFrame({"doc_id": [4, 7, 9], "text": [
        " ".join(words[k * 30:(k + 1) * 30]) + "." for k in range(3)]})
    index_dir = str(tmp_path / "index")
    calls = tmp_path / "calls"
    calls.mkdir()
    m = LI.build_index(_spied(docs, calls), index_dir,
                       min_words_per_line=3, require_terminal=False)
    assert len(list(calls.iterdir())) == 2
    assert m["docs_in"] == 3 and m["exact_survivors"] == 3
    assert LI._load_meta(index_dir)["max_seen_id"] == 9


# ---------------------------------------------------------------------------
# block-layout invariance of the sites that reduce through agg.reduce
# ---------------------------------------------------------------------------

_maybe = lambda s: st.one_of(st.none(), s)  # noqa: E731


@st.composite
def _frames(draw):
    n = draw(st.integers(0, 40))
    actual = st.integers(1, 1000).map(float) | st.integers(-1000, -1).map(float)
    pred = st.floats(-1e3, 1e3, allow_nan=False, width=32)
    day = st.integers(0, 30).map(
        lambda d: pd.Timestamp("2024-01-01") + pd.Timedelta(days=d))
    cat = st.sampled_from(["ca", "ny", "tx", "wa"])
    return pd.DataFrame({
        "ts": pd.to_datetime(draw(st.lists(_maybe(day), min_size=n,
                                           max_size=n))),
        "k": pd.Series(draw(st.lists(_maybe(cat), min_size=n, max_size=n)),
                       dtype=object),
        "x": pd.Series(draw(st.lists(_maybe(actual), min_size=n,
                                     max_size=n)), dtype="float64"),
        "y": pd.Series(draw(st.lists(_maybe(pred), min_size=n, max_size=n)),
                       dtype="float64"),
    })


def _layouts(df: pd.DataFrame):
    """One block; 4 and 16 blocks with an empty block in front; 16 blocks
    reversed (``array_split`` leaves empty blocks when rows < blocks)."""
    many = np.array_split(df, 16)
    return {"1": [df], "4": [df.iloc[:0]] + np.array_split(df, 4),
            "16": [df.iloc[:0]] + many, "16-reversed": many[::-1]}


def _none_to_nan(v):
    return np.nan if v is None else v


def _assert_float(got, want):
    got, want = _none_to_nan(got), _none_to_nan(want)
    assert np.isnan(got) == np.isnan(want), (got, want)
    if not np.isnan(want):
        assert abs(got - want) <= THRESHOLD * max(1.0, abs(want)), (got, want)


def _reference(df: pd.DataFrame) -> dict:
    valid = df[df["x"].notna()]
    ape = ((valid["x"] - valid["y"]) / valid["x"]).abs()
    se = (valid["x"] - valid["y"]) ** 2
    n = len(valid)
    dates = pd.DatetimeIndex(sorted(df["ts"].dropna().unique()))
    return {
        "range": {c: (df[c].min(), df[c].max()) for c in ("x", "y")},
        "mean": df["x"].mean(), "std": df["x"].std(ddof=1),
        "errors": {"n": n, "MAPE": ape.sum() / n if n else np.nan,
                   "MSE": se.sum() / n if n else np.nan},
        "sem": df["y"].sem() if df["y"].notna().sum() > 1 else np.nan,
        "cats": sorted(df["k"].dropna().unique()),
        "dates": dates,
        "missing": df.isna().mean(),
    }


@settings(max_examples=12, deadline=None)
@given(df=_frames())
def test_reductions_ignore_block_layout(ray_session, df):
    want = _reference(df)
    for name, blocks in _layouts(df).items():
        ds = ray.data.from_pandas(blocks)

        norm = scalers.fit_normalize(ds, ["x", "y"])
        for c in ("x", "y"):
            lo, hi = want["range"][c]
            assert (_none_to_nan(norm["mins"][c]), _none_to_nan(norm["maxes"][c])) \
                == pytest.approx((lo, hi), nan_ok=True), name

        std = scalers.fit_standardize(ds, ["x"])
        _assert_float(std["mean"]["x"], want["mean"])
        _assert_float(std["stdev"]["x"], want["std"])

        err = metrics.error_summary(ds, "x", "y").iloc[0]
        assert err["n"] == want["errors"]["n"], name
        _assert_float(err["MAPE"], want["errors"]["MAPE"])
        _assert_float(err["MSE"], want["errors"]["MSE"])

        _assert_float(postprocess.prediction_sem(ds, "y"), want["sem"])

        assert encoding.fit_categories(ds, ["k"]) \
            == {"k": dict(enumerate(want["cats"]))}, name

        frame = RayForecastFrame(ds, "ts", "x", ["k"], num_partitions=2)
        if len(want["dates"]):
            got = frame.format_dates()
            assert got == list(want["dates"].strftime(frame.date_format)), name
        else:
            assert frame.format_dates() == [], name
        pd.testing.assert_series_equal(
            frame.missing_percentages().sort_index(),
            want["missing"].sort_index() if len(df)
            else pd.Series(dtype="float64"), check_names=False)


# ---------------------------------------------------------------------------
# empty input: each site's result
# ---------------------------------------------------------------------------

def _empty():
    df = pd.DataFrame({"ts": pd.to_datetime(["2024-01-01"]), "k": ["a"],
                       "x": [1.0], "y": [2.0], "z": [3.0], "doc_id": [1]})
    return ray.data.from_pandas(df).filter(
        expr="doc_id < 0").materialize()


def _empty_frame():
    return RayForecastFrame(_empty(), "ts", "x", ["k"], num_partitions=2)


def _gap_fill_range() -> tuple:
    op = _empty_frame().fill_time_gaps("D", mode="global")._pending[-1]
    return op["start"], op["end"]


def _records(df: pd.DataFrame) -> list[dict]:
    return df.to_dict("records")


_NAN = float("nan")
EMPTY_CASES = {
    "frame.fill_time_gaps (global range)": (_gap_fill_range, (pd.NaT, pd.NaT)),
    "frame.missing_percentages": (
        lambda: _empty_frame().missing_percentages().to_dict(), {}),
    "frame.format_dates": (lambda: _empty_frame().format_dates(), []),
    "frame.compress / ann_index.append_ann / llm_incremental.append_shard "
    "(column_ranges)": (lambda: column_ranges(_empty(), ["doc_id", "ts"]),
                        {"doc_id": (None, None), "ts": (None, None)}),
    "scalers.fit_standardize": (
        lambda: scalers.fit_standardize(_empty(), ["x"]),
        {"features": ["x"], "mean": {"x": None}, "stdev": {"x": None}}),
    "scalers.fit_normalize": (
        lambda: scalers.fit_normalize(_empty(), ["x"]),
        {"features": ["x"], "mins": {"x": None}, "maxes": {"x": None}}),
    "metrics.error_summary": (
        lambda: _records(metrics.error_summary(_empty(), "x", "y")),
        [{"n": 0, "MAPE": _NAN, "MAPA": _NAN, "MSE": _NAN, "RMSE": _NAN}]),
    "metrics.scaled_error_summary": (
        lambda: _records(metrics.scaled_error_summary(_empty(), "x", "y")),
        [{"n": 0, "SMAPE": _NAN, "WAPE": _NAN, "ME": _NAN}]),
    "metrics.asymmetric_loss": (
        lambda: _records(metrics.asymmetric_loss(_empty(), "x", "y")),
        [{"n": 0, "loss": _NAN}]),
    "metrics.quantile_loss": (
        lambda: _records(metrics.quantile_loss(_empty(), "x", "y", [0.5])),
        [{"quantile": 0.5, "n": 0, "loss": _NAN}]),
    "postprocess.prediction_sem": (
        lambda: postprocess.prediction_sem(_empty(), "y"), _NAN),
    "interpret._ols2_sums": (
        lambda: interpret._ols2_sums(_empty(), "x", "y", "z"), (0.0,) * 9),
    "interpret._rmse_linear": (
        lambda: interpret._rmse_linear(_empty(), "x", "y", "z",
                                       (0.0, 1.0, 1.0)), _NAN),
    "interpret.grouped_moments": (
        lambda: len(interpret.grouped_moments(_empty(), ["k"], "x")), 0),
    "interpret.single_feature_r2": (
        lambda: _records(interpret.single_feature_r2(_empty(), ["y"], "x")),
        [{"feature": "y", "n": 0, "r2": _NAN}]),
    "encoding.fit_categories": (
        lambda: encoding.fit_categories(_empty(), ["k"]), {"k": {}}),
}


def _same(got, want) -> bool:
    if isinstance(want, float) and np.isnan(want):
        return isinstance(got, float) and np.isnan(got)
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(_same(g, w)
                                              for g, w in zip(got, want))
    if isinstance(want, dict):
        return got.keys() == want.keys() and all(_same(got[k], want[k])
                                                 for k in want)
    if want is pd.NaT:
        return got is pd.NaT
    return got == want


@pytest.mark.parametrize("site", sorted(EMPTY_CASES))
def test_empty_input(ray_session, site):
    run, want = EMPTY_CASES[site]
    got = run()
    assert _same(got, want), (got, want)


def test_empty_input_raising_sites(ray_session):
    """No date to extend or to fold: the same errors as a pandas range."""
    with pytest.raises(ValueError, match="NaT"):
        _empty_frame().make_future_frame(3)
    from forecastframe_ray.pipelines import cv
    with pytest.raises(AssertionError, match="distinct dates"):
        next(cv.fold_frames(_empty_frame(), n_splits=2))


def test_empty_build_index(ray_session, tmp_path):
    """An empty build records ``max_seen_id = -1``."""
    from forecastframe_ray.pipelines import llm_incremental as LI

    docs = _empty().select_columns(["doc_id"]).map_batches(
        lambda b: b.assign(text=b["doc_id"].astype(str)), batch_format="pandas")
    LI.build_index(docs, str(tmp_path / "index"))
    assert LI._load_meta(str(tmp_path / "index"))["max_seen_id"] == -1


# ---------------------------------------------------------------------------
# one CPU: the plain per-block tasks share it with the streaming executor
# ---------------------------------------------------------------------------

_ONE_CPU_SCRIPT = textwrap.dedent("""
    import sys

    import numpy as np
    import pandas as pd
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    from forecastframe_ray.stages.agg import reduce

    root = sys.argv[1]
    for i in range(6):
        pd.DataFrame({"v": np.arange(i * 100, i * 100 + 100)}).to_parquet(
            f"{root}/part-{i}.parquet")
    ds = ray.data.read_parquet(root).map_batches(
        lambda b: b.assign(v=b["v"] * 2), batch_format="pandas")
    got = reduce(ds, lambda b: pd.DataFrame({"s": [b["v"].sum()],
                                             "n": [len(b)]}),
                 lambda p: (int(p["s"].sum()), int(p["n"].sum())))
    assert got == (2 * sum(range(600)), 600), got
    ray.shutdown()
""")


def test_reduce_finishes_on_one_cpu(tmp_path):
    env = dict(os.environ, PYTHONPATH=ROOT)
    proc = subprocess.run([sys.executable, "-c", _ONE_CPU_SCRIPT,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-3000:]
