"""As-of join (`stages/join.py asof_join`) — the nearest-timestamp join the
Dataset API lacks (reference merges are equality joins only,
utilities.py:157-211). Oracle: single-frame ``pd.merge_asof`` with identical
direction/tolerance; the distributed result must match it exactly at every
partition count."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from forecastframe_ray.stages.join import asof_join


def synth_sides(seed: int = 7, n_left: int = 400, n_right: int = 300):
    rng = np.random.default_rng(seed)
    t0 = pd.Timestamp("2021-01-01").value // 1000
    keys = [f"k{i}" for i in range(12)]
    left = pd.DataFrame({
        "k": rng.choice(keys + ["only_left"], n_left),
        "ts": pd.to_datetime(t0 + rng.integers(0, 90 * 86_400_000_000,
                                               n_left), unit="us"),
        "lval": rng.integers(0, 1000, n_left),
    })
    right = pd.DataFrame({
        "k": rng.choice(keys + ["only_right"], n_right),
        "ts": pd.to_datetime(t0 + rng.integers(0, 90 * 86_400_000_000,
                                               n_right), unit="us"),
        "rval": rng.normal(size=n_right).round(3),
        "rtag": rng.integers(0, 5, n_right),
    })
    # unique (k, ts) on the right: ties are pandas-order-dependent and the
    # operator contract tells callers to pre-dedupe
    right = right.drop_duplicates(["k", "ts"]).reset_index(drop=True)
    return left, right


def pandas_oracle(left, right, direction, tolerance=None):
    out = pd.merge_asof(
        left.sort_values("ts", kind="mergesort"),
        right.rename(columns={"ts": "ts_r"})
             .sort_values("ts_r", kind="mergesort"),
        left_on="ts", right_on="ts_r", by="k",
        direction=direction, tolerance=tolerance)
    return out.sort_values(["k", "ts", "lval"]).reset_index(drop=True)


def run_engine(left, right, direction, tolerance=None, num_partitions=8,
               lparts=5, rparts=3):
    lds = ray.data.from_pandas(left).repartition(lparts)
    rds = ray.data.from_pandas(right).repartition(rparts)
    out = asof_join(lds, rds, on=["k"], left_ts="ts", direction=direction,
                    tolerance=tolerance, num_partitions=num_partitions)
    return out.to_pandas().sort_values(["k", "ts", "lval"]) \
        .reset_index(drop=True)


def assert_matches(got, exp):
    assert len(got) == len(exp)
    pd.testing.assert_frame_equal(
        got[["k", "ts"]], exp[["k", "ts"]])
    np.testing.assert_array_equal(got["lval"].to_numpy(dtype=np.int64),
                                  exp["lval"].to_numpy(dtype=np.int64))
    np.testing.assert_array_equal(got["ts_r"].to_numpy(),
                                  exp["ts_r"].to_numpy())
    np.testing.assert_allclose(got["rval"].to_numpy(dtype=np.float64),
                               exp["rval"].to_numpy(dtype=np.float64))
    # int right column is promoted to float64 (nullable) by contract
    np.testing.assert_allclose(got["rtag"].to_numpy(dtype=np.float64),
                               exp["rtag"].to_numpy(dtype=np.float64))


@pytest.mark.parametrize("direction", ["backward", "forward", "nearest"])
def test_asof_join_matches_pandas(direction):
    left, right = synth_sides()
    exp = pandas_oracle(left, right, direction)
    assert exp["rval"].isna().any() and exp["rval"].notna().any()
    assert_matches(run_engine(left, right, direction), exp)


def test_asof_join_partition_count_invariant():
    left, right = synth_sides(seed=11)
    exp = pandas_oracle(left, right, "backward")
    for parts in (1, 2, 16):
        assert_matches(run_engine(left, right, "backward",
                                  num_partitions=parts), exp)


def test_asof_join_tolerance():
    left, right = synth_sides(seed=3)
    tol = pd.Timedelta(days=2)
    exp = pandas_oracle(left, right, "backward", tolerance=tol)
    loose = pandas_oracle(left, right, "backward")
    assert exp["rval"].notna().sum() < loose["rval"].notna().sum()
    assert_matches(run_engine(left, right, "backward", tolerance=tol), exp)


def test_asof_join_name_collision_suffix():
    """Right columns colliding with left (incl. the ts column) get `_r`;
    left dtypes survive untouched (no int->float upcast on the left side)."""
    left, right = synth_sides(seed=9)
    right = right.rename(columns={"rval": "lval"})  # collide on purpose
    lds = ray.data.from_pandas(left).repartition(3)
    rds = ray.data.from_pandas(right).repartition(2)
    out = asof_join(lds, rds, on=["k"], left_ts="ts").to_pandas()
    assert {"lval", "lval_r", "ts", "ts_r"} <= set(out.columns)
    assert out["lval"].dtype == np.int64
    exp = pd.merge_asof(
        left.sort_values("ts", kind="mergesort"),
        right.rename(columns={"ts": "ts_r", "lval": "lval_r"})
             .sort_values("ts_r", kind="mergesort"),
        left_on="ts", right_on="ts_r", by="k", direction="backward")
    got = out.sort_values(["k", "ts", "lval"]).reset_index(drop=True)
    exp = exp.sort_values(["k", "ts", "lval"]).reset_index(drop=True)
    np.testing.assert_allclose(got["lval_r"].to_numpy(dtype=np.float64),
                               exp["lval_r"].to_numpy(dtype=np.float64))


def test_asof_join_empty_right_side():
    """An empty right side with a typed Arrow schema yields all-null
    right columns (a schema-LESS empty Dataset is rejected with a
    ValueError inside _arrow_schema; Ray's schema inference on empty
    pandas blocks is unreliable, so the contract requires Arrow)."""
    import pyarrow as pa

    left, right = synth_sides(seed=13)
    lds = ray.data.from_pandas(left).repartition(3)
    # a typed empty side must be an Arrow block: Ray's schema inference on
    # empty PANDAS blocks drops columns, so the operator contract requires
    # an Arrow schema (parquet reads always have one, even when empty)
    rds = ray.data.from_arrow(pa.Table.from_pandas(right).slice(0, 0))
    out = asof_join(lds, rds, on=["k"], left_ts="ts").to_pandas()
    assert len(out) == len(left)
    assert out["rval"].isna().all() and out["ts_r"].isna().all()


# ---------------------------------------------------------------------------
# range (interval) join
# ---------------------------------------------------------------------------

def synth_intervals(seed: int = 17, n_left: int = 300, n_right: int = 80):
    rng = np.random.default_rng(seed)
    t0 = pd.Timestamp("2021-01-01").value // 1000
    keys = [f"k{i}" for i in range(8)]
    left = pd.DataFrame({
        "k": rng.choice(keys + ["lonely"], n_left),
        "ts": pd.to_datetime(t0 + rng.integers(0, 60 * 86_400_000_000,
                                               n_left), unit="us"),
        "lval": rng.integers(0, 100, n_left),
    })
    start = pd.to_datetime(t0 + rng.integers(0, 55 * 86_400_000_000,
                                             n_right), unit="us")
    right = pd.DataFrame({
        "k": rng.choice(keys, n_right),
        "w_start": start,
        "w_end": start + pd.to_timedelta(rng.integers(1, 10, n_right),
                                         unit="D"),
        "wid": np.arange(n_right, dtype=np.int64),
    })
    return left, right


def range_oracle(left, right, how, closed):
    m = left.merge(right, on="k")
    ts, lo, hi = m["ts"], m["w_start"], m["w_end"]
    mask = {
        "left": (ts >= lo) & (ts < hi),
        "right": (ts > lo) & (ts <= hi),
        "both": (ts >= lo) & (ts <= hi),
        "neither": (ts > lo) & (ts < hi),
    }[closed]
    matched = m[mask]
    if how == "left":
        lkey = pd.MultiIndex.from_frame(left[["k", "ts", "lval"]])
        mkey = pd.MultiIndex.from_frame(matched[["k", "ts", "lval"]])
        missing = left[~lkey.isin(mkey)]
        matched = pd.concat([matched, missing], ignore_index=True)
    return matched.sort_values(["k", "ts", "lval", "wid"],
                               na_position="last").reset_index(drop=True)


def sort_out(df):
    return df.sort_values(["k", "ts", "lval", "wid"],
                          na_position="last").reset_index(drop=True)


@pytest.mark.parametrize("how,closed", [("inner", "left"), ("left", "left"),
                                        ("inner", "both"),
                                        ("inner", "neither"),
                                        ("left", "right")])
def test_range_join_matches_pandas(how, closed):
    from forecastframe_ray.stages.join import range_join

    left, right = synth_intervals()
    exp = range_oracle(left, right, how, closed)
    lds = ray.data.from_pandas(left).repartition(4)
    rds = ray.data.from_pandas(right).repartition(2)
    got = sort_out(range_join(lds, rds, on=["k"], left_ts="ts",
                              start_col="w_start", end_col="w_end",
                              how=how, closed=closed,
                              num_partitions=8).to_pandas())
    assert len(got) == len(exp) > len(left) * 0.2
    np.testing.assert_array_equal(
        got["wid"].to_numpy(dtype=np.float64),
        exp["wid"].to_numpy(dtype=np.float64))
    np.testing.assert_array_equal(got["lval"].to_numpy(dtype=np.float64),
                                  exp["lval"].to_numpy(dtype=np.float64))
    if how == "inner":
        assert got["wid"].dtype == np.int64  # no-null joins keep ints
    else:
        assert got["wid"].isna().any()  # unmatched left rows survive
