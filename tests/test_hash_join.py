"""``stages.join.hash_join``: the distributed equality join (a keyed
co-group through ``agg.exchange``, one ``pandas.merge`` per partition)
against DuckDB over random frames, its column-collision check, and a run on
a one-CPU cluster."""

import os
import signal
import subprocess
import sys
import textwrap

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
