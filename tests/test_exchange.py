"""``agg.exchange``, the one shuffle primitive: the kernel contract, typed
empty blocks, metadata-carrying parquet input, block-order determinism, a
quiet log, and a guard that no module hand-writes its own exchange."""

import ast
import os
import subprocess
import sys
import textwrap

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

import ray.data

from forecastframe_ray import keys as K
from forecastframe_ray.stages.agg import (PART_COL, _typed_empty, exchange,
                                          keyed_map_partitions)
from forecastframe_ray.stages.topk import grouped_topk

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FORMATS = ["pandas", "pyarrow"]
NP = 5


def _df(n=600, seed=11) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    return pd.DataFrame({
        "k": rng.choice([f"key{i}" for i in range(40)], n),
        "id": np.arange(n, dtype=np.int64),
        "v": rng.integers(0, 50, n).astype(np.int64),
    })


def _dataset(frames: list[pd.DataFrame], batch_format: str):
    if batch_format == "pyarrow":
        return ray.data.from_arrow(
            [pa.Table.from_pandas(f, preserve_index=False) for f in frames])
    return ray.data.from_pandas(frames)


def _sums_kernel():
    """Per-key sum and count, plus every key co-resident in the partition —
    so the result also pins which keys share a partition. (A closure:
    workers cannot import this test module, so kernels travel by value.)"""
    def sums(part) -> pd.DataFrame:
        df = part.to_pandas() if isinstance(part, pa.Table) else part
        assert df["k"].map(type).eq(str).all(), df["k"].dtype
        out = df.groupby("k", as_index=False).agg(s=("v", "sum"),
                                                  n=("v", "size"))
        out["peers"] = ",".join(sorted(out["k"]))
        return out
    return sums


def _want(df: pd.DataFrame) -> pd.DataFrame:
    return (df.groupby("k", as_index=False).agg(s=("v", "sum"),
                                                n=("v", "size"))
            .sort_values("k").reset_index(drop=True))


def _rows(ds) -> pd.DataFrame:
    out = ds.to_pandas()
    return out.sort_values(list(out.columns)).reset_index(drop=True)


@pytest.mark.parametrize("batch_format", FORMATS)
def test_kernel_never_sees_part_col(ray_session, batch_format):
    df = _df()
    frames = np.array_split(df, 4)

    def ids(b):
        if isinstance(b, pa.Table):
            return K.partition_ids_arrow(b, ["k"], NP)
        return K.partition_ids(b, ["k"], NP)

    def tag(b):
        if isinstance(b, pa.Table):
            return b.append_column(PART_COL, pa.array(ids(b)))
        b[PART_COL] = ids(b)
        return b

    def fn(part_id, part):
        cols = list(part.column_names if isinstance(part, pa.Table)
                    else part.columns)
        return pd.DataFrame({
            "part_id": [part_id],
            "saw_part_col": [PART_COL in cols],
            # every row of the frame belongs to the partition it is given as
            "ids_match": [bool((ids(part) == part_id).all())],
            "rows": [len(part)],
        })

    ds = _dataset(frames, batch_format)
    got = exchange(ds, tag, fn, batch_format).to_pandas()
    assert not got["saw_part_col"].any()
    assert got["ids_match"].all()
    assert got["rows"].sum() == len(df)
    whole = pa.Table.from_pandas(df) if batch_format == "pyarrow" else df
    assert sorted(got["part_id"]) == sorted(set(ids(whole)))


@pytest.mark.parametrize("batch_format", FORMATS)
def test_parquet_pandas_metadata_input(ray_session, tmp_path, batch_format):
    df = _df()
    for i, f in enumerate(np.array_split(df, 3)):
        tbl = pa.Table.from_pandas(f, preserve_index=False)
        assert b"pandas" in tbl.schema.metadata
        pq.write_table(tbl, str(tmp_path / f"part-{i}.parquet"))
    ds = ray.data.read_parquet(str(tmp_path))
    got = _rows(keyed_map_partitions(ds, ["k"], _sums_kernel(), NP,
                                     batch_format))
    pd.testing.assert_frame_equal(got[["k", "s", "n"]], _want(df),
                                  check_dtype=False)


def test_typed_empty_keeps_string_columns():
    empty = pd.DataFrame({"k": pd.Series([], dtype=object),
                          "t": pd.Series([], dtype="string"),
                          "v": pd.Series([], dtype=np.int64)})
    schema = _typed_empty(empty).schema
    assert schema.field("k").type == pa.string()
    assert schema.field("t").type == pa.string()
    assert schema.field("v").type == pa.int64()


@pytest.mark.parametrize("batch_format", FORMATS)
def test_zero_row_blocks_keep_typed_schema(ray_session, batch_format):
    df = _df()
    # five of the six blocks filter to zero rows before the exchange, so
    # typed empty blocks outnumber the rows-carrying one in every reducer
    ds = ray.data.from_pandas(np.array_split(df, 6)).map_batches(
        lambda b: b[b["id"] % 2 == 0] if len(b) and b["id"].iloc[0] == 0
        else b.iloc[0:0], batch_format="pandas")
    want_df = df[(df["id"] < 100) & (df["id"] % 2 == 0)]
    got = _rows(keyed_map_partitions(ds, ["k"], _sums_kernel(), NP,
                                     batch_format))
    pd.testing.assert_frame_equal(got[["k", "s", "n"]], _want(want_df),
                                  check_dtype=False)


@pytest.mark.parametrize("batch_format", FORMATS)
def test_tag_dropping_every_row_is_empty(ray_session, batch_format):
    frames = np.array_split(_df(), 3)

    def drop_all(b):
        if batch_format == "pyarrow":
            return b.append_column(PART_COL, pa.array(
                np.zeros(b.num_rows, dtype=np.int32))).slice(0, 0)
        b[PART_COL] = 0
        return b.iloc[0:0]

    got = exchange(_dataset(frames, batch_format), drop_all,
                   lambda _, part: part, batch_format).to_pandas()
    assert len(got) == 0


@pytest.mark.parametrize("batch_format", FORMATS)
def test_keyed_result_independent_of_block_order(ray_session, batch_format):
    df = _df()
    one = _rows(keyed_map_partitions(_dataset([df], batch_format), ["k"],
                                     _sums_kernel(), NP, batch_format))
    blocks = list(reversed(np.array_split(df, 16)))
    many = _rows(keyed_map_partitions(_dataset(blocks, batch_format), ["k"],
                                      _sums_kernel(), NP, batch_format))
    pd.testing.assert_frame_equal(one, many)
    pd.testing.assert_frame_equal(one[["k", "s", "n"]], _want(df),
                                  check_dtype=False)


def test_grouped_topk_independent_of_block_order(ray_session):
    df = _df()
    one = _rows(grouped_topk(ray.data.from_pandas([df]), ["k"], "v", k=3,
                             tiebreak=["id"], num_partitions=NP))
    blocks = list(reversed(np.array_split(df, 16)))
    many = _rows(grouped_topk(ray.data.from_pandas(blocks), ["k"], "v", k=3,
                              tiebreak=["id"], num_partitions=NP))
    pd.testing.assert_frame_equal(one, many)
    assert len(one) == 3 * df["k"].nunique()


_NOISE_SCRIPT = textwrap.dedent("""
    import pandas as pd
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    from forecastframe_ray.stages.agg import PART_COL, exchange

    def resume_filter(b):
        # a resume pass: rows of finished partitions drop out at the tag,
        # so two of the four blocks leave it with zero rows
        b[PART_COL] = b["v"] % 2
        return b[b["v"] < 3]

    df = pd.DataFrame({"k": list("abcdefgh"), "v": range(8)})
    out = exchange(ray.data.from_pandas(df).repartition(4), resume_filter,
                   lambda _, p: p.groupby("k", as_index=False)["v"].sum())
    assert sorted(out.to_pandas()["k"]) == ["a", "b", "c"]
    ray.shutdown()
""")


def test_exchange_over_empty_blocks_logs_no_size_error():
    env = dict(os.environ, PYTHONPATH=ROOT)
    proc = subprocess.run([sys.executable, "-c", _NOISE_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    noisy = [ln for ln in proc.stderr.splitlines()
             if "Error calculating size" in ln]
    assert not noisy, noisy


def _map_groups_calls(path: str) -> list[tuple[int, str | None]]:
    """(line, enclosing function) of every ``.map_groups(`` call."""
    found = []

    def visit(node, fn_name):
        for child in ast.iter_child_nodes(node):
            name = fn_name
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = child.name if fn_name is None else fn_name
            if isinstance(child, ast.Call) \
                    and isinstance(child.func, ast.Attribute) \
                    and child.func.attr == "map_groups":
                found.append((child.lineno, name))
            visit(child, name)

    with open(path) as f:
        visit(ast.parse(f.read()), None)
    return found


def test_map_groups_only_inside_exchange():
    pkg = os.path.join(ROOT, "forecastframe_ray")
    sites = []
    for root, _, files in os.walk(pkg):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(root, f)
                rel = os.path.relpath(path, ROOT)
                sites += [(rel, line, fn)
                          for line, fn in _map_groups_calls(path)]
    agg = os.path.join("forecastframe_ray", "stages", "agg.py")
    assert len(sites) == 1 and sites[0][0] == agg \
        and sites[0][2] == "exchange", sites
