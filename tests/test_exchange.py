"""``agg.exchange``, the one shuffle primitive: the kernel contract, typed
empty blocks, metadata-carrying parquet input, block-order determinism,
results that do not depend on the number of id ranges, how many ranges an
exchange makes, the plan's shape on one CPU (no boundary sampling, one
reduce block per range, no sort for one range), a quiet log
(also from the hash join, the actor-pool maps, the incremental corpus
index's row-dropping maps and a frame's ingest of sliced blocks), and guards that no
module calls ``Dataset.map_groups`` or Ray's native join, or reduces a
whole Dataset outside ``agg.reduce``."""

import ast
import os
import subprocess
import sys
import textwrap

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest

import ray.data

from forecastframe_ray import keys as K
from forecastframe_ray.stages import agg
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
        return K.partition_ids(b, ["k"], NP)

    tag = _id_tag(batch_format)

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
    got = exchange(ds, tag, fn, NP, batch_format).to_pandas()
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
                   lambda _, part: part, 1, batch_format).to_pandas()
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


def _id_kernel():
    """Per-partition (part_id, key, sum, count) rows, so the result pins
    which partition each key landed in and that every id runs once."""
    def per_part(part_id, part) -> pd.DataFrame:
        df = part.to_pandas() if isinstance(part, pa.Table) else part
        out = df.groupby("k", as_index=False).agg(s=("v", "sum"),
                                                  n=("v", "size"))
        out.insert(0, "part_id", part_id)
        return out
    return per_part


def _id_tag(batch_format: str, drop_odd: bool = False):
    """Tag rows with ``K.partition_ids`` of ``k``, the same hash for both
    batch formats; ``drop_odd`` drops the rows with an odd ``v``."""
    def tag(b):
        ids = K.partition_ids(b, ["k"], NP)
        if batch_format == "pyarrow":
            b = b.append_column(PART_COL, pa.array(ids))
            return b.filter(pc.equal(
                pc.bit_wise_and(b["v"], 1), 0)) if drop_odd else b
        b[PART_COL] = ids
        return b[b["v"] % 2 == 0] if drop_odd else b
    return tag


@pytest.mark.parametrize("batch_format", FORMATS)
def test_result_independent_of_range_count(ray_session, monkeypatch,
                                           batch_format):
    """k = 1, 2 and P id ranges over 1, 16 and 16 reversed blocks give the
    same rows, and each partition id runs once, in id order."""
    df = _df()
    blocks = {"one": [df], "16": np.array_split(df, 16),
              "16 reversed": list(reversed(np.array_split(df, 16)))}
    results = {}
    for k in (1, 2, NP):
        monkeypatch.setattr(agg, "range_count", lambda n, k=k: min(n, k))
        for name, frames in blocks.items():
            got = exchange(_dataset(frames, batch_format),
                           _id_tag(batch_format), _id_kernel(), NP,
                           batch_format).to_pandas()
            ids = got["part_id"].drop_duplicates().tolist()
            assert ids == sorted(ids), (k, name, ids)
            assert not got.duplicated(["part_id", "k"]).any(), (k, name)
            results[k, name] = got.sort_values(["part_id", "k"]) \
                .reset_index(drop=True)
    first = next(iter(results.values()))
    for key, got in results.items():
        pd.testing.assert_frame_equal(got, first, obj=str(key))
    pd.testing.assert_frame_equal(
        first.drop(columns="part_id").sort_values("k")
        .reset_index(drop=True), _want(df), check_dtype=False)


@pytest.mark.parametrize("batch_format", FORMATS)
@pytest.mark.parametrize("k", [1, 2, NP])
def test_empty_inputs_and_dropping_tag(ray_session, monkeypatch,
                                       batch_format, k):
    """No block, only zero-row blocks, and a tag that drops rows."""
    monkeypatch.setattr(agg, "range_count", lambda n: min(n, k))
    df = _df()
    tag, fn = _id_tag(batch_format), _id_kernel()
    no_blocks = ray.data.from_pandas(df).filter(lambda r: False) \
        .materialize()
    assert exchange(no_blocks, tag, fn, NP, batch_format).count() == 0
    all_empty = _dataset([df.iloc[0:0], df.iloc[0:0]], batch_format)
    assert exchange(all_empty, tag, fn, NP, batch_format).count() == 0
    got = _rows(exchange(_dataset(np.array_split(df, 4), batch_format),
                         _id_tag(batch_format, drop_odd=True), fn, NP,
                         batch_format))
    pd.testing.assert_frame_equal(
        got.drop(columns="part_id").sort_values("k").reset_index(drop=True),
        _want(df[df["v"] % 2 == 0]), check_dtype=False)


_PLAN_SCRIPT = textwrap.dedent("""
    import re

    import numpy as np
    import pandas as pd
    import ray
    from ray.data import DataContext
    from ray.data._internal.planner.exchange.sort_task_spec import (
        SortTaskSpec)

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    from forecastframe_ray.stages.agg import keyed_map_partitions

    sampled = []
    real = SortTaskSpec.sample_boundaries

    def sample_boundaries(*args, **kwargs):
        sampled.append(1)
        return real(*args, **kwargs)

    SortTaskSpec.sample_boundaries = staticmethod(sample_boundaries)
    rng = np.random.default_rng(0)
    df = pd.DataFrame({"k": rng.integers(0, 500, 4000), "v": 1})
    for p in (4, 32):
        out = keyed_map_partitions(
            ray.data.from_pandas(np.array_split(df, 16)), ["k"],
            lambda part: part.groupby("k", as_index=False)["v"].sum(),
            p).materialize()
        assert out.to_pandas()["v"].sum() == 4000
        stats = out.stats()
        sort = re.search(
            r"SortReduce: \\d+ tasks executed, (\\d+) blocks produced", stats)
        run_tasks = int(re.search(
            r"MapBatches\\(run\\): (\\d+) tasks executed", stats).group(1))
        print("P", p, "sampled", len(sampled), "sort_blocks",
              int(sort.group(1)) if sort else 0, "run_tasks", run_tasks)
    ray.shutdown()
""")


def test_plan_on_one_cpu_skips_sampling():
    """On one CPU slot, 16 input blocks sort without Ray's
    boundary-sampling pass. 4 partitions make one id range: no sort at all
    and one kernel task. 32 partitions outgrow the slot and make 8 ranges
    of 4 partitions."""
    env = dict(os.environ, PYTHONPATH=ROOT)
    proc = subprocess.run([sys.executable, "-c", _PLAN_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    got = {}
    for ln in proc.stdout.splitlines():
        if ln.startswith("P "):
            f = ln.split()
            got[int(f[1])] = dict(zip(f[2::2], map(int, f[3::2])))
    assert got[4]["sampled"] == got[32]["sampled"] == 0, got
    assert got[4]["sort_blocks"] == 0 and got[4]["run_tasks"] == 1, got
    assert got[32]["sort_blocks"] == got[32]["run_tasks"] == 8, got


@pytest.mark.parametrize("slots, p, k", [
    (1, 1, 1), (1, 4, 1), (1, 5, 2), (1, 32, 8), (1, 64, 16),
    (4, 2, 2), (4, 16, 4), (4, 17, 5), (32, 16, 16), (32, 170, 43)])
def test_range_count_follows_slots_and_partitions(monkeypatch, slots, p, k):
    """One id range per CPU slot, never more than the ids, and never more
    than PARTS_PER_RANGE partitions in one range: a partition count scaled
    with the data bounds what one task holds."""
    monkeypatch.setattr(agg, "_cpu_slots", lambda: slots)
    assert agg.range_count(p) == k
    bounds = [i * p // k for i in range(1, k)]
    widths = np.diff([0, *bounds, p])
    assert widths.max() <= agg.PARTS_PER_RANGE


_NOISE_SCRIPT = textwrap.dedent("""
    import time

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
                   lambda _, p: p.groupby("k", as_index=False)["v"].sum(), 2)
    assert sorted(out.to_pandas()["k"]) == ["a", "b", "c"]

    # an inner dim join whose second block matches no dim row, and a
    # primary-key check that finds no duplicates
    from forecastframe_ray.frame import RayForecastFrame

    ev = pd.DataFrame({
        "ts": pd.date_range("2024-01-01", periods=8, freq="D"),
        "state": ["CA"] * 4 + ["NY"] * 4, "y": range(8)})
    fr = RayForecastFrame(ray.data.from_pandas([ev[:4], ev[4:]]), "ts", "y",
                          ["state"], num_partitions=2, validate=True)
    dim = pd.DataFrame({"state": ["CA"], "region": ["west"]})
    fr.join_dim_table(dim, left_on="state")
    assert fr.to_pandas()["region"].tolist() == ["west"] * 4
    time.sleep(3)  # worker log lines reach the driver asynchronously
    ray.shutdown()
""")


# a hash join over pandas-written parquet (every file's schema carries the
# b"pandas" blob)
_JOIN_NOISE_SCRIPT = textwrap.dedent("""
    import sys
    import time

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    from forecastframe_ray.stages.join import hash_join

    root = sys.argv[1]
    for side in ("left", "right"):
        for i in range(3):
            df = pd.DataFrame({"k": [f"k{j}" for j in range(10 * i, 10 * i + 10)],
                               side: [float(j) for j in range(10)]})
            pq.write_table(pa.Table.from_pandas(df),
                           f"{root}/{side}-{i}.parquet")
    left = ray.data.read_parquet([f"{root}/left-{i}.parquet" for i in range(3)])
    right = ray.data.read_parquet([f"{root}/right-{i}.parquet"
                                   for i in range(3)])
    out = hash_join(left, right, on=["k"], num_partitions=2).to_pandas()
    assert len(out) == 30 and (out["left"] == out["right"]).all()
    time.sleep(3)  # worker log lines reach the driver asynchronously
    ray.shutdown()
""")


# an incremental corpus index build and append whose maps drop whole
# batches: a block that cleans to no docs, one whose every digest is
# already indexed, and keep-id filters that keep nothing of a block
_INCREMENTAL_NOISE_SCRIPT = textwrap.dedent("""
    import sys
    import time

    import pandas as pd
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    from forecastframe_ray.pipelines import llm_incremental as LI

    words = ["uniq%04dword" % i for i in range(480)]
    docs = [" ".join(words[40 * k: 40 * k + 40]) for k in range(12)]
    sh1 = pd.DataFrame({"doc_id": range(1, 9), "text": docs[:8]})
    short = pd.DataFrame({"doc_id": [9, 10], "text": ["too short", "x y"]})
    dups = pd.DataFrame({"doc_id": [20, 21], "text": docs[:2]})
    fresh = pd.DataFrame({"doc_id": [24, 25], "text": docs[8:10]})
    kw = dict(minhash_threshold=0.8, min_words_per_line=3,
              require_terminal=False, num_partitions=4)
    index = sys.argv[1] + "/index"
    LI.build_index(ray.data.from_pandas([sh1[:4], sh1[4:], short]), index,
                   **kw)
    LI.append_shard(ray.data.from_pandas(
        [dups, short.assign(doc_id=[22, 23]), fresh]), index)
    assert len(LI.final_corpus(index).to_pandas()) == 10
    time.sleep(3)  # worker log lines reach the driver asynchronously
    ray.shutdown()
""")


def test_exchange_over_empty_blocks_logs_no_size_error(tmp_path):
    env = dict(os.environ, PYTHONPATH=ROOT)
    for script in (_NOISE_SCRIPT, _JOIN_NOISE_SCRIPT,
                   _INCREMENTAL_NOISE_SCRIPT):
        proc = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-3000:]
        noisy = [ln for ln in proc.stderr.splitlines()
                 if "Error calculating size" in ln
                 or "Failed to hash the schemas" in ln]
        assert not noisy, noisy


# a frame over pandas blocks projected by ``select_columns``: each batch its
# ingest cast sees is a slice of a block
_INGEST_NOISE_SCRIPT = textwrap.dedent("""
    import time

    import numpy as np
    import pandas as pd
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    from forecastframe_ray.frame import RayForecastFrame

    df = pd.DataFrame({"ts": pd.date_range("2024-01-01", periods=64)
                       .astype(str), "s": ["a", "b"] * 32,
                       "y": np.arange(64.0), "z": 0})
    ds = ray.data.from_pandas(np.array_split(df, 16)) \\
        .select_columns(["ts", "s", "y"])
    fr = RayForecastFrame(ds, "ts", "y", ["s"], num_partitions=2)
    assert len(fr.to_pandas()) == 64
    time.sleep(3)  # worker log lines reach the driver asynchronously
    ray.shutdown()
""")


def test_frame_ingest_of_block_slices_logs_no_copy_warning():
    env = dict(os.environ, PYTHONPATH=ROOT)
    proc = subprocess.run([sys.executable, "-c", _INGEST_NOISE_SCRIPT],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    noisy = [ln for ln in proc.stderr.splitlines()
             if "SettingWithCopyWarning" in ln]
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


def test_no_map_groups_in_engine():
    """``agg.exchange`` sorts on explicit id ranges; no engine module calls
    ``Dataset.groupby().map_groups`` (a sampled sort per call)."""
    pkg = os.path.join(ROOT, "forecastframe_ray")
    sites = []
    for root, _, files in os.walk(pkg):
        for f in files:
            if f.endswith(".py"):
                path = os.path.join(root, f)
                rel = os.path.relpath(path, ROOT)
                sites += [(rel, line, fn)
                          for line, fn in _map_groups_calls(path)]
    assert not sites, sites


def test_no_native_join_outside_exchange():
    """Every hash join runs through ``agg.exchange``: no module calls Ray's
    ``Dataset.join`` (a ``.join(..., join_type=...)`` call) or names
    ``consolidate_for_join``."""
    pkg = os.path.join(ROOT, "forecastframe_ray")
    found = []
    for root, _, files in os.walk(pkg):
        for f in files:
            if not f.endswith(".py"):
                continue
            path = os.path.join(root, f)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            rel = os.path.relpath(path, ROOT)
            for node in ast.walk(tree):
                if isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr == "join" \
                        and any(k.arg == "join_type" for k in node.keywords):
                    found.append((rel, node.lineno, "join_type"))
                # a Name, an attribute, an imported alias or a def
                if "consolidate_for_join" in {
                        getattr(node, a, None) for a in ("id", "attr", "name")}:
                    found.append((rel, node.lineno, "consolidate_for_join"))
    assert not found, found


#: Dataset methods that reduce a whole Dataset in a Ray Data execution
_NATIVE_REDUCTIONS = {"aggregate", "unique", "min", "max", "sum"}


def _is_numpy_or_arrow(receiver) -> bool:
    """``np.``/``pa.``/``pc.`` calls, and pyarrow's ``Table.group_by(...)``
    (Ray Data spells its grouping ``groupby``)."""
    if isinstance(receiver, ast.Call) and isinstance(receiver.func,
                                                     ast.Attribute):
        if receiver.func.attr == "group_by":
            return True
        receiver = receiver.func
    while isinstance(receiver, ast.Attribute):
        receiver = receiver.value
    return isinstance(receiver, ast.Name) \
        and receiver.id in {"np", "numpy", "pa", "pc", "pyarrow"}


def test_no_native_reduction_outside_reduce():
    """Every whole-Dataset reduction goes through ``agg.reduce``: no module
    imports ``ray.data.aggregate``, and outside ``stages/agg.py`` no
    ``.aggregate(`` / ``.unique(`` / ``.min(`` / ``.max(`` / ``.sum(``
    call passes a positional argument (a column name or an aggregate) to a
    receiver that is not numpy or Arrow. pandas reductions take their
    options by keyword and pass this guard."""
    pkg = os.path.join(ROOT, "forecastframe_ray")
    agg = os.path.join("forecastframe_ray", "stages", "agg.py")
    found = []
    for root, _, files in os.walk(pkg):
        for f in files:
            if not f.endswith(".py"):
                continue
            path = os.path.join(root, f)
            rel = os.path.relpath(path, ROOT)
            with open(path) as fh:
                tree = ast.parse(fh.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.ImportFrom) and (
                        node.module == "ray.data.aggregate"
                        or node.module == "ray.data" and "aggregate" in
                        {a.name for a in node.names}) \
                        or isinstance(node, ast.Import) and any(
                            a.name.startswith("ray.data.aggregate")
                            for a in node.names):
                    found.append((rel, node.lineno, "import"))
                if rel != agg and isinstance(node, ast.Call) \
                        and isinstance(node.func, ast.Attribute) \
                        and node.func.attr in _NATIVE_REDUCTIONS \
                        and node.args \
                        and not _is_numpy_or_arrow(node.func.value):
                    found.append((rel, node.lineno, node.func.attr))
    assert not found, found


# every actor-pool map of the engine: a catalog entry's pool, a broadcast
# over the actor threshold and a frame's ensemble scorer
_ACTOR_NOISE_SCRIPT = textwrap.dedent("""
    import sys
    import time

    import numpy as np
    import pandas as pd
    import ray
    from ray.data import DataContext

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    from forecastframe_ray.frame import RayForecastFrame
    from forecastframe_ray.pipelines.queries.spine import (
        q_embedding_neardup_exact)
    from forecastframe_ray.stages.join import _broadcast_map

    root = sys.argv[1]
    rng = np.random.default_rng(0)
    pd.DataFrame({"vec_id": np.arange(12, dtype=np.int64),
                  "embedding": list(rng.normal(size=(12, 4))
                                    .astype(np.float32))}).to_parquet(
        f"{root}/embeddings.parquet")
    assert len(q_embedding_neardup_exact(root)) > 0

    ds = ray.data.from_pandas(pd.DataFrame({"v": range(6)}))
    out = _broadcast_map(ds, 10, 1 << 40, lambda b, k: b.assign(w=b["v"] + k))
    assert out.to_pandas()["w"].tolist() == list(range(10, 16))

    ev = pd.DataFrame({"ts": pd.date_range("2024-01-01", periods=14),
                       "s": ["a"] * 14, "y": np.arange(14.0)})
    fr = RayForecastFrame(ev, "ts", "y", ["s"], num_partitions=2)
    fr.calc_ensemble_predictions(model="seasonal_mean")
    assert len(fr.to_pandas()) == 14
    time.sleep(3)  # worker log lines reach the driver asynchronously
    ray.shutdown()
""")


def test_actor_pool_maps_log_no_restart_error(tmp_path):
    env = dict(os.environ, PYTHONPATH=ROOT)
    proc = subprocess.run([sys.executable, "-c", _ACTOR_NOISE_SCRIPT,
                           str(tmp_path)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    noisy = [ln for ln in proc.stderr.splitlines()
             if "constructor arguments in the object store" in ln]
    assert not noisy, noisy
