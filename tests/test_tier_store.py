"""The tier store's Arrow kernels: a ``pyarrow.Table`` checksums to the
value its ``to_pandas()`` frame gets, the run-split chunk encoder equals a
per-series ``groupby`` encode, and a store built by ``web.run``,
appended to with chunk refresh and swept by ``expire_tier`` keeps every
manifest checksum equal to its file's, writes no pandas footer blob, keeps
``delta_ids`` through an expiry rewrite, stores an undefined std as null,
lays rows out by ``K.partition_ids``, the hash every exchange uses, and
refuses an append onto a store whose manifest rows name no layout. The
writer's layout rule is pinned per column type, and the store it writes is
at most 0.8× the bytes of the old layout; ``expire_tier`` reads a file
whose bucket column has no statistics, and skips without reading data
when no bucket expires."""

import glob
import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ray.data

from forecastframe_ray import keys as K
from forecastframe_ray import synth
from forecastframe_ray.pipelines import web
from forecastframe_ray.stages import gorilla
from forecastframe_ray.state import checkpoint
from forecastframe_ray.state.checkpoint import _partition_checksum

NP = 8
DAY_US = 86_400_000_000
DELTA_ID = "d-1"
CUTOFF_US = synth.BASE_TS_US + 7 * DAY_US


@st.composite
def _tables(draw):
    n = draw(st.integers(0, 30))

    def col(elements):
        return draw(st.lists(elements, min_size=n, max_size=n))

    return pa.table({
        "s": pa.array(col(st.none() | st.text(max_size=6)), pa.string()),
        "i": pa.array(col(st.integers(-2**63, 2**63 - 1)), pa.int64()),
        "f": pa.array(col(st.none() | st.floats()), pa.float64()),
        "ts": pa.array(col(st.integers(-2**62, 2**62)), pa.timestamp("ns")),
        "b": pa.array(col(st.none() | st.binary(max_size=6)), pa.binary()),
    })


@settings(max_examples=200, deadline=None)
@given(_tables())
def test_arrow_checksum_equals_pandas_checksum(tbl):
    assert _partition_checksum(tbl) == _partition_checksum(tbl.to_pandas())


def _groupby_chunks(df: pd.DataFrame, keys: list) -> list:
    """Chunk rows of a per-series pandas ``groupby`` (null keys grouped),
    in key order: (keys..., t0, n_points, ts_payload, val_payload)."""
    rows = []
    df = df.sort_values(keys + ["ts"], kind="mergesort")
    for key, g in df.groupby(keys, sort=False, dropna=False):
        key = tuple(None if pd.isna(k) else k for k in key)
        ts, v = g["ts"].to_numpy(np.int64), g["v"].to_numpy(np.float64)
        rows.append(key + (int(ts[0]), len(ts), gorilla.encode_timestamps(ts),
                           gorilla.encode_values(v)))
    return rows


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["x", "y", "z", None]),
                          st.sampled_from([1.0, 2.0, None]),
                          st.integers(0, 50),
                          st.none() | st.floats(-1e3, 1e3)),
                min_size=1, max_size=60))
def test_run_split_encoder_equals_groupby_encode(rows):
    df = pd.DataFrame(rows, columns=["a", "b", "ts", "v"])
    df["ts"] = df["ts"].astype(np.int64) * 3_600_000_000
    got = gorilla.encode_series(pa.Table.from_pandas(df, preserve_index=False),
                                ["a", "b"], "ts", "v", "1h")
    assert got.column_names == ["a", "b", "tier", "t0", "n_points",
                                "ts_payload", "val_payload", "checksum"]
    t0_us = pc.divide(got["t0"].cast(pa.int64()), 1000).to_pylist()
    assert list(zip(got["a"].to_pylist(), got["b"].to_pylist(), t0_us,
                    got["n_points"].to_pylist(), got["ts_payload"].to_pylist(),
                    got["val_payload"].to_pylist())) \
        == _groupby_chunks(df, ["a", "b"])
    assert got["checksum"].to_pylist() == [
        gorilla.chunk_checksum(tp, vp) for tp, vp in
        zip(got["ts_payload"].to_pylist(), got["val_payload"].to_pylist())]


def _delta_ids(path: str) -> list:
    meta = pq.read_schema(path).metadata or {}
    return json.loads(meta.get(b"delta_ids", b"[]"))


def _files(out: str, tier: str = "*") -> list:
    return sorted(glob.glob(os.path.join(out, f"tier={tier}", "*.parquet")))


def _part(path: str) -> int:
    return int(os.path.basename(path)[len("part="):-len(".parquet")])


@pytest.fixture(scope="module")
def store(ray_session, tmp_path_factory):
    """A store built from 1,200 pages, then a later crawl of its last 3
    days appended with chunk refresh, then 1h buckets before day 7 expired.
    Returns the store, the 1h parts the append rewrote, and the expiry's
    manifest rows."""
    out = str(tmp_path_factory.mktemp("tier_store") / "store")
    base = synth.pages_table(1200, seed=5, num_domains=30)
    later = synth.pages_table(1200, seed=6, num_domains=30)
    start = synth.BASE_TS_US + (synth.SPAN_DAYS - 3) * DAY_US
    delta = later.filter(pc.greater_equal(later["warc_ts"].cast(pa.int64()),
                                          start))
    web.run(ray.data.from_arrow(base), out, num_partitions=NP, compress=True)
    web.append_tiers(ray.data.from_arrow(delta), out, DELTA_ID,
                     num_partitions=NP, refresh_compressed=True)
    appended = {_part(f) for f in _files(out, "1h")
                if DELTA_ID in _delta_ids(f)}
    expired = checkpoint.expire_tier(out, "1h", CUTOFF_US)
    return out, appended, expired


def test_store_files_match_manifest_and_carry_no_pandas_blob(store):
    out, _, _ = store
    done = checkpoint.load_done(out)
    assert {t for t, _ in done} == {"1h", "1d", "7d", "chunks_1h"}
    for (tier, part), row in done.items():
        path = checkpoint._part_path(out, tier, part)
        if not os.path.exists(path):  # every bucket expired
            assert row["rows"] == 0 and "expired_before" in row
            continue
        tbl = pq.read_table(path)
        assert row["rows"] == tbl.num_rows, path
        assert row["checksum"] == _partition_checksum(tbl.to_pandas()), path
        assert b"pandas" not in (pq.read_schema(path).metadata or {}), path


def test_expiry_rewrite_keeps_delta_ids(store):
    out, appended, expired = store
    rewritten = {r["part"] for r in expired if r["rows"]} & appended
    assert rewritten
    for part in rewritten:
        path = checkpoint._part_path(out, "1h", part)
        assert DELTA_ID in _delta_ids(path)
        buckets = pq.read_table(path, columns=["bucket_us"])["bucket_us"]
        assert pc.min(buckets).as_py() >= CUTOFF_US


def test_one_page_bucket_std_is_null(store):
    """The std of a one-page bucket is undefined; it is stored as null,
    as ``Table.from_pandas`` stores a NaN, never as a NaN value."""
    out, _, _ = store
    for tier in ("1h", "1d", "7d"):
        tbl = pa.concat_tables(pq.read_table(f) for f in _files(out, tier))
        one = pc.equal(tbl["pages"], 1.0)
        assert pc.any(one).as_py(), tier
        assert pc.all(pc.equal(pc.is_null(tbl["std_val"]), one)).as_py()
        assert not pc.any(pc.is_nan(tbl["std_val"])).as_py()


def test_part_files_hold_rows_by_store_hash(store):
    """``part=p`` holds exactly the rows with ``K.partition_ids == p``: the
    store's exchange tags rows with the one partition hash, the one every
    exchange uses, and each manifest row names that layout."""
    out, _, _ = store
    done = checkpoint.load_done(out)
    assert {r["layout"] for r in done.values()} == {checkpoint.LAYOUT}
    for tier in ("1h", "1d", "7d", "chunks_1h"):
        rows = 0
        for f in _files(out, tier):
            hosts = pq.read_table(f, columns=["host"])
            ids = K.partition_ids(hosts, ["host"], NP)
            assert (ids == _part(f)).all(), f
            rows += len(hosts)
        assert rows == sum(r["rows"] for (t, _), r in done.items()
                           if t == tier)
        assert rows > 0


def test_append_refuses_a_store_without_layout(store, tmp_path):
    """A store whose manifest rows name no layout was laid out by another
    hash: an append would put a host's new rows in a second file, so
    ``append_tiers`` raises and writes nothing."""
    out = str(tmp_path / "old_layout")
    shutil.copytree(store[0], out)
    path = os.path.join(out, checkpoint.MANIFEST)
    with open(path) as f:
        rows = [json.loads(line) for line in f if line.strip()]
    with open(path, "w") as f:
        for row in rows:
            row.pop("layout", None)
            f.write(json.dumps(row, sort_keys=True) + "\n")
    before = {f: os.path.getmtime(f) for f in _files(out)}
    pages = synth.pages_table(200, seed=9, num_domains=30)
    with pytest.raises(ValueError, match="layout"):
        web.append_tiers(ray.data.from_arrow(pages), out, "d-2",
                         num_partitions=NP)
    assert {f: os.path.getmtime(f) for f in _files(out)} == before
    with open(path) as f:
        assert len([line for line in f if line.strip()]) == len(rows)


# ---------------------------------------------------------------------------
# the store's Parquet layout rule (checkpoint._write_options)
# ---------------------------------------------------------------------------

def _layout_table(n: int = 40) -> pa.Table:
    i = np.arange(n)
    return pa.table({
        "host": pa.array([f"h{k % 3}" for k in i], pa.string()),
        "label": pa.array([f"l{k % 2}" for k in i], pa.large_string()),
        "cat": pa.array([f"c{k % 4}" for k in i]).dictionary_encode(),
        "bucket_us": pa.array(i * 3_600_000_000, pa.int64()),
        "pages": pa.array(i % 7, pa.int32()),
        "bucket_ts": pa.array(i * 3_600_000_000, pa.timestamp("us", "UTC")),
        "mean_val": pa.array(i / 3.0, pa.float64()),
        "payload": pa.array([bytes([k % 256]) * 5 for k in i], pa.binary()),
        "vec": pa.array([[float(k), 0.5] for k in i],
                        pa.list_(pa.float32())),
    })


def _columns(path: str) -> dict:
    """Each column's chunk metadata in the file's one row group."""
    md = pq.ParquetFile(path).metadata
    assert md.num_row_groups == 1
    rg = md.row_group(0)
    return {rg.column(c).path_in_schema.split(".")[0]: rg.column(c)
            for c in range(rg.num_columns)}


def _has_min_max(col) -> bool:
    return col.statistics is not None and col.statistics.has_min_max


def test_write_rule_dictionary_for_strings_statistics_for_ints(tmp_path):
    tbl = _layout_table()
    path = str(tmp_path / "tier=x" / "part=0.parquet")
    checkpoint._write_file(tbl, path, {b"delta_ids": b'["d-1"]'})
    cols = _columns(path)
    assert set(cols) == set(tbl.column_names)
    for name in ("host", "label", "cat"):
        assert cols[name].has_dictionary_page, name
        assert not _has_min_max(cols[name]), name
    for name in ("bucket_us", "pages", "bucket_ts"):
        assert _has_min_max(cols[name]), name
        assert not cols[name].has_dictionary_page, name
    assert cols["bucket_us"].statistics.min == 0
    for name in ("mean_val", "payload", "vec"):
        assert not cols[name].has_dictionary_page, name
        assert not _has_min_max(cols[name]), name
    assert cols["host"].compression == "ZSTD"
    # the Arrow schema (tz, widths, large and dictionary strings) and the
    # footer metadata round-trip
    got = pq.read_table(path)
    assert got.equals(tbl)
    assert got.schema.remove_metadata().equals(tbl.schema)
    assert _delta_ids(path) == ["d-1"]


@pytest.mark.parametrize("columns", [None, ["bucket_us", "mean_val", "vec"],
                                     ["mean_val"]])
def test_write_rule_writes_empty_and_string_free_tables(tmp_path, columns):
    tbl = _layout_table()
    if columns is not None:
        tbl = tbl.select(columns)
    for n in (0, len(tbl)):
        path = str(tmp_path / f"part={n}.parquet")
        checkpoint._write_file(tbl.slice(0, n), path)
        got = pq.read_table(path)
        assert got.num_rows == n
        assert got.equals(tbl.slice(0, n))


def _tier_file(out: str, part: int, buckets, **write_args) -> str:
    path = checkpoint._part_path(out, "1h", part)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tbl = pa.table({"host": [f"h{part}"] * len(buckets),
                    "bucket_us": pa.array(buckets, pa.int64())})
    if write_args:
        pq.write_table(tbl, path, **write_args)
    else:
        checkpoint._write_file(tbl, path)
    return path


def test_expire_reads_a_file_without_bucket_statistics(tmp_path):
    """A file whose ``bucket_us`` has no min statistic is read and
    filtered like any other; a file that has one is still skipped when it
    holds nothing to expire."""
    out = str(tmp_path)
    bare = _tier_file(out, 0, [10, 20, 30, 40], write_statistics=False)
    assert pq.ParquetFile(bare).metadata.row_group(0).column(1) \
        .statistics is None
    _tier_file(out, 1, [50, 60], write_statistics=False)
    _tier_file(out, 2, [70, 80])
    rows = checkpoint.expire_tier(out, "1h", 25)
    assert [(r["part"], r["rows"]) for r in rows] == [(0, 2)]
    assert pq.read_table(bare)["bucket_us"].to_pylist() == [30, 40]
    assert [r["expired_before"] for r in rows] == [25]


def test_expire_skip_reads_no_data_when_no_bucket_expires(tmp_path,
                                                          monkeypatch):
    out = str(tmp_path)
    for part in range(3):
        _tier_file(out, part, [100 + part, 200])

    def no_read(*args, **kwargs):
        raise AssertionError("expire_tier read data")

    monkeypatch.setattr(pq.ParquetFile, "read", no_read)
    monkeypatch.setattr(pq, "read_table", no_read)
    assert checkpoint.expire_tier(out, "1h", 100) == []


def test_store_files_are_smaller_than_the_old_layout(store):
    """Dropping dictionary pages of floats and the min/max of strings,
    floats and blobs makes the store at least a fifth smaller than the
    same tables written with dictionaries and statistics on every
    column."""
    out, _, _ = store
    new = old = 0
    for f in _files(out):
        sink = pa.BufferOutputStream()
        pq.write_table(pq.read_table(f), sink, use_dictionary=True,
                       compression="zstd")
        old += sink.getvalue().size
        new += os.path.getsize(f)
    assert new <= 0.8 * old, (new, old)
