"""The tier store's Arrow kernels: a ``pyarrow.Table`` checksums to the
value its ``to_pandas()`` frame gets, the run-split chunk encoder equals a
per-series ``groupby`` encode, and a store built by ``web.run``,
appended to with chunk refresh and swept by ``expire_tier`` keeps every
manifest checksum equal to its file's, writes no pandas footer blob, keeps
``delta_ids`` through an expiry rewrite, stores an undefined std as null,
lays rows out by ``K.partition_ids``, the hash every exchange uses, and
refuses an append onto a store whose manifest rows name no layout."""

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
