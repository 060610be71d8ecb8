"""``stages.join.hash_join``: the distributed equality join (a keyed
co-group through ``agg.exchange``, one ``pandas.merge`` per partition)
against DuckDB over random frames, its column-collision check, a run on a
one-CPU cluster, and a check that no join runs its inputs' plans to plan
itself."""

import os
import signal
import subprocess
import sys
import textwrap
import time

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data
from hypothesis import given, settings
from hypothesis import strategies as st

from forecastframe_ray.stages.join import hash_join

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_SQL_JOIN = {"inner": "INNER JOIN", "left": "LEFT JOIN",
             "right": "RIGHT JOIN", "outer": "FULL OUTER JOIN"}


def _side(draw, n: int, prefix: str) -> pd.DataFrame:
    ints = st.integers(-3, 3)
    return pd.DataFrame({
        "k": pd.Series(draw(st.lists(st.integers(0, 4), min_size=n,
                                     max_size=n)), dtype="int64"),
        "s": pd.Series(draw(st.lists(st.sampled_from(["a", "b", None]),
                                     min_size=n, max_size=n)), dtype=object),
        f"{prefix}i": pd.Series(draw(st.lists(ints, min_size=n, max_size=n)),
                                dtype="int64"),
        f"{prefix}f": pd.Series(draw(st.lists(ints, min_size=n, max_size=n)),
                                dtype="float64") / 4,
        f"{prefix}b": pd.Series(draw(st.lists(st.booleans(), min_size=n,
                                              max_size=n)), dtype=bool),
    })


def _dataset(df: pd.DataFrame, blocks: int):
    schema = pa.Schema.from_pandas(df, preserve_index=False)
    if "s" in df.columns:  # an all-None object column would infer null type
        schema = schema.set(schema.get_field_index("s"),
                            pa.field("s", pa.string()))
    return ray.data.from_arrow([
        pa.Table.from_pandas(df.iloc[i::blocks].reset_index(drop=True),
                             schema=schema, preserve_index=False)
        for i in range(blocks)])


def _sorted(df: pd.DataFrame) -> pd.DataFrame:
    return df.sort_values(list(df.columns), na_position="last") \
        .reset_index(drop=True)


@pytest.mark.parametrize("how", ["inner", "left", "right", "outer"])
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_hash_join_matches_duckdb(how, data):
    on = data.draw(st.sampled_from([["k"], ["s"], ["k", "s"]]))
    left = _side(data.draw, data.draw(st.integers(0, 30)), "l")
    right = _side(data.draw, data.draw(st.integers(0, 30)), "r")
    right = right.drop(columns=[c for c in ("k", "s") if c not in on])
    out = hash_join(_dataset(left, data.draw(st.integers(1, 8))),
                    _dataset(right, data.draw(st.integers(1, 8))), on=on,
                    how=how,
                    num_partitions=data.draw(st.integers(1, 16))).to_pandas()

    # keys come from whichever side holds the row; value columns an outer
    # side can leave null are promoted to float64
    want_dtypes = {}
    for df, nullable in ((left, how in ("right", "outer")),
                         (right, how in ("left", "outer"))):
        for c in df.columns:
            if c in on:
                want_dtypes.setdefault(c, df[c].dtype)
            elif nullable and df[c].dtype != object:
                want_dtypes[c] = np.dtype("float64")
            else:
                want_dtypes[c] = df[c].dtype
    sel = ", ".join(
        [f"COALESCE(l.{c}, r.{c}) AS {c}" if c in on else f"l.{c}"
         for c in left.columns]
        + [f"r.{c}" for c in right.columns if c not in on])
    cond = " AND ".join(f"l.{c} = r.{c}" for c in on)
    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    want = con.sql(f"SELECT {sel} FROM l {_SQL_JOIN[how]} r ON {cond}").df()
    want = want.astype({c: (float if t == np.float64 else t)
                        for c, t in want_dtypes.items()})
    want = want.astype({c: object for c, t in want_dtypes.items()
                        if t == object}).replace({np.nan: None})

    assert len(out) == len(want)
    if len(out):
        assert dict(out.dtypes) == want_dtypes
        got = out.astype({c: object for c, t in want_dtypes.items()
                          if t == object}).replace({np.nan: None})
        pd.testing.assert_frame_equal(_sorted(got), _sorted(want))


def test_hash_join_rejects_colliding_value_column():
    left = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "v": [1, 2]}))
    right = ray.data.from_pandas(pd.DataFrame({"k": [1, 2], "v": [3, 4]}))
    with pytest.raises(ValueError, match="both sides"):
        hash_join(left, right, on=["k"])


# a hash join over pandas-written parquet on a one-CPU cluster
_ONE_CPU_SCRIPT = textwrap.dedent("""
    import sys

    import pandas as pd
    import ray
    from ray.data import DataContext

    root = sys.argv[1]
    for side in ("left", "right"):
        for i in range(3):
            pd.DataFrame({"k": range(10 * i, 10 * i + 10),
                          side: [float(j) for j in range(10)]}) \\
                .to_parquet(f"{root}/{side}-{i}.parquet")

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    from forecastframe_ray.stages.join import hash_join

    left = ray.data.read_parquet([f"{root}/left-{i}.parquet"
                                  for i in range(3)])
    right = ray.data.read_parquet([f"{root}/right-{i}.parquet"
                                   for i in range(3)])
    out = hash_join(left, right, on=["k"], how="outer",
                    num_partitions=8).to_pandas()
    assert len(out) == 30 and (out["left"] == out["right"]).all()
    ray.shutdown()
""")


def test_hash_join_finishes_on_one_cpu(tmp_path):
    env = dict(os.environ, PYTHONPATH=ROOT)
    proc = subprocess.Popen([sys.executable, "-c", _ONE_CPU_SCRIPT,
                             str(tmp_path)], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the script and its Ray cluster
        proc.communicate()
        pytest.fail("hash_join did not finish in 120 s on 1 CPU")
    assert proc.returncode == 0, err[-3000:]


def test_joins_plan_without_running_their_inputs(tmp_path, monkeypatch):
    """Every join learns its sides' schemas without executing their plans:
    a fetching ``Dataset.schema()`` on a lazy Dataset runs ``limit(1)`` over
    it, which re-runs an upstream shuffle (and its cancel can abort the Ray
    driver). With a fetching schema read raising, each join over lazy sides
    completes, and a side that ends in a 4-partition keyed stage runs its
    kernel once per partition. (``Dataset.limit`` itself cannot be made to
    raise: Ray's ``groupby`` plans a ``limit(1)`` for its non-fetching
    schema check, and never runs it.)"""
    from forecastframe_ray.stages.agg import keyed_map_partitions
    from forecastframe_ray.stages.join import (asof_join,
                                               broadcast_left_join,
                                               hash_update, range_join)

    known_schema = ray.data.Dataset.schema

    def schema(self, fetch_if_missing: bool = True):
        out = known_schema(self, fetch_if_missing=False)
        if out is None and fetch_if_missing:
            raise AssertionError("a join ran a plan to learn its schema")
        return out

    monkeypatch.setattr(ray.data.Dataset, "schema", schema)

    rng = np.random.default_rng(3)
    day = pd.Timestamp("2024-01-01").as_unit("ns")
    ts = day + pd.to_timedelta(rng.integers(0, 30, 40), unit="D")
    facts = pd.DataFrame({"k": np.arange(40) % 20, "ts": ts,
                          "v": rng.random(40)})
    keys = pd.DataFrame({"k": range(20), "w": np.arange(20.0)})
    marks = keys.rename(columns={"w": "m"}).assign(
        mts=day + pd.Timedelta(days=9))
    spans = keys.drop(columns="w").assign(start=day + pd.Timedelta(days=4),
                                          end=day + pd.Timedelta(days=19))
    patch = facts.iloc[::3].assign(v=-1.0)
    calls = tmp_path / "calls"
    calls.mkdir()

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        (calls / f"{os.getpid()}-{time.perf_counter_ns()}").touch()
        return part

    def keyed():
        return keyed_map_partitions(ray.data.from_pandas(facts), ["k"],
                                    kernel, num_partitions=4)

    def lazy(df):
        return ray.data.from_pandas(df).map_batches(lambda b: b,
                                                    batch_format="pandas")

    joins = {
        "hash_join": lambda: hash_join(keyed(), lazy(keys), on=["k"],
                                       how="left", num_partitions=4),
        "asof_join": lambda: asof_join(keyed(), lazy(marks), on=["k"],
                                       left_ts="ts", right_ts="mts",
                                       num_partitions=4),
        "range_join": lambda: range_join(keyed(), lazy(spans), on=["k"],
                                         left_ts="ts", start_col="start",
                                         end_col="end", how="left",
                                         num_partitions=4),
        "hash_update": lambda: hash_update(keyed(), lazy(patch),
                                           on=["k", "ts"], num_partitions=4),
        "broadcast_left_join": lambda: broadcast_left_join(keyed(), keys,
                                                           on=["k"]),
    }
    for name, join in joins.items():
        for f in calls.iterdir():
            f.unlink()
        out = join().materialize()
        assert out.count() >= len(facts), name
        assert len(list(calls.iterdir())) == 4, name
