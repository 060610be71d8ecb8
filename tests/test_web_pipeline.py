"""Flagship web pipeline: exact tier-value match vs the pandas oracle,
cascade exactness (1d from 1h, 7d from 1d), checkpoint/resume byte-identity,
plan invariance of the store build and non-host series keys."""

import glob
import logging
import os
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

import ray.data

from forecastframe_ray import keys as K
from forecastframe_ray import synth
from forecastframe_ray.pipelines import web
from forecastframe_ray.stages import gorilla
from forecastframe_ray.state import checkpoint

N_PAGES = 3000
TIER_COLS = ["host", "bucket_us", "pages", "bytes", "sum_val", "min_val",
             "max_val", "sum_sq", "mean_val", "std_val"]


@pytest.fixture(scope="module")
def tier_results(ray_session):
    pages = synth.pages_dataset(N_PAGES, seed=42, num_domains=60, override_num_blocks=6)
    prepared = web.prepare_series(pages)
    tiers = web.build_tiers(prepared, ("host",))
    got = {t: ds.to_pandas().sort_values(["host", "bucket_us"]).reset_index(drop=True)
           for t, ds in tiers.items()}
    oracle = web.oracle_tiers(synth.pages_table(N_PAGES, seed=42, num_domains=60).to_pandas())
    return got, oracle


@pytest.mark.parametrize("tier", ["1h", "1d", "7d"])
def test_tiers_exact_match_oracle(tier_results, tier):
    got, oracle = tier_results
    g, o = got[tier][TIER_COLS], oracle[tier][TIER_COLS]
    assert len(g) == len(o), (tier, len(g), len(o))
    assert (g["host"].values == o["host"].values).all()
    assert (g["bucket_us"].values == o["bucket_us"].values).all()
    for col in TIER_COLS[2:]:
        a = g[col].to_numpy(dtype=np.float64)
        b = o[col].to_numpy(dtype=np.float64)
        same_nan = np.isnan(a) == np.isnan(b)
        assert same_nan.all(), (tier, col)
        mask = ~np.isnan(a)
        if col in ("std_val", "mean_val"):
            np.testing.assert_allclose(a[mask], b[mask], rtol=1e-9, atol=1e-9)
        else:
            np.testing.assert_array_equal(a[mask], b[mask])  # exact


def test_cascade_consistency(tier_results):
    got, _ = tier_results
    # total pages/bytes identical across tiers (algebraic cascade is exact)
    for col in ("pages", "bytes", "sum_val"):
        v1, v2, v3 = (got[t][col].sum() for t in ("1h", "1d", "7d"))
        assert v1 == v2 == v3


def test_checkpoint_resume_byte_identical(ray_session, tmp_path):
    """An uncompressed store build that crashes after 3 of 8 partitions
    resumes to the uninterrupted build's bytes, recording each (tier, part)
    once and none of the recorded partitions again."""
    pages = synth.pages_dataset(800, seed=42, num_domains=30, override_num_blocks=4)

    full_dir = str(tmp_path / "full")
    metrics = web.run(pages, full_dir, num_partitions=8, compress=False)
    assert metrics["chunk_stats"] is None
    assert not os.path.exists(os.path.join(full_dir, "tier=chunks_1h"))

    crash_dir = str(tmp_path / "crash")
    with pytest.raises(RuntimeError, match="simulated crash"):
        web.run(pages, crash_dir, num_partitions=8, compress=False,
                fail_after=3)
    done_before = checkpoint.load_done(crash_dir)
    assert len({p for (_, p) in done_before}) == 3
    assert len(done_before) == 9  # 1h, 1d and 7d of each recorded partition
    # resume: completes only the missing partitions
    web.run(pages, crash_dir, num_partitions=8, compress=False)
    with open(os.path.join(crash_dir, checkpoint.MANIFEST)) as f:
        assert sum(1 for line in f if line.strip()) == 3 * 8

    # final output byte-identical to the uninterrupted run
    assert _bytes(crash_dir) == _bytes(full_dir)
    # manifest checksums agree partition-by-partition
    assert _checksums(crash_dir) == _checksums(full_dir)


def _tables(out_dir: str) -> dict:
    """{path under out_dir: Arrow table} of every stored part file."""
    return {os.path.relpath(f, out_dir): pq.read_table(f) for f in
            sorted(glob.glob(os.path.join(out_dir, "tier=*", "*.parquet")))}


def _bytes(out_dir: str) -> dict:
    return {os.path.relpath(f, out_dir): open(f, "rb").read() for f in
            sorted(glob.glob(os.path.join(out_dir, "tier=*", "*.parquet")))}


def _checksums(out_dir: str) -> dict:
    return {k: v["checksum"] for k, v in checkpoint.load_done(out_dir).items()}


def test_fused_build_equals_staged_writes(ray_session, tmp_path):
    """web.run(out_dir) builds the store in one exchange; its files are the
    ones the staged jobs write: build_tiers + write_partitioned per tier,
    then the Gorilla chunks of the 1h (host, bucket_us, pages) series
    through encode_series_dataset + write_partitioned."""
    pages = synth.pages_dataset(1200, seed=42, num_domains=30,
                                override_num_blocks=4)
    fused, staged = str(tmp_path / "fused"), str(tmp_path / "staged")
    metrics = web.run(pages, out_dir=fused, compress=True, num_partitions=8)

    tiers = web.build_tiers(web.prepare_series(pages), num_partitions=8)
    for tier, ds in tiers.items():
        checkpoint.write_partitioned(ds, staged, tier, ["host"],
                                     num_partitions=8,
                                     sort_cols=["host", "bucket_us"])
    chunks = gorilla.encode_series_dataset(
        tiers["1h"].select_columns(["host", "bucket_us", "pages"]), ["host"],
        "bucket_us", "pages", tier="1h", num_partitions=8)
    checkpoint.write_partitioned(chunks, staged, "chunks_1h", ["host"],
                                 num_partitions=8, sort_cols=["host"])

    got, want = _tables(fused), _tables(staged)
    assert got.keys() == want.keys()
    assert {f.split(os.sep)[0] for f in got} == {
        "tier=1h", "tier=1d", "tier=7d", "tier=chunks_1h"}
    for f in want:
        assert got[f].equals(want[f]), f
    assert _checksums(fused) == _checksums(staged)
    assert metrics["tier_points"] == {t: ds.count() for t, ds in tiers.items()}
    assert metrics["chunk_stats"]["chunks"] == sum(
        t.num_rows for f, t in got.items() if f.startswith("tier=chunks_1h"))


def test_fused_build_crash_resume_byte_identical(ray_session, tmp_path):
    """A build that crashes after 3 of 8 partitions are recorded resumes to
    the uninterrupted run's bytes, recording each (tier, part) once."""
    pages = synth.pages_dataset(1200, seed=42, num_domains=30,
                                override_num_blocks=4)
    full, crash = str(tmp_path / "full"), str(tmp_path / "crash")
    web.run(pages, out_dir=full, compress=True, num_partitions=8)

    with pytest.raises(RuntimeError, match="simulated crash"):
        web.run(pages, out_dir=crash, compress=True, num_partitions=8,
                fail_after=3)
    done = checkpoint.load_done(crash)
    assert len({p for (_, p) in done}) == 3
    assert {t for (t, _) in done} == {"1h", "1d", "7d", "chunks_1h"}
    assert len(done) == 12  # every tier of each recorded partition

    web.run(pages, out_dir=crash, compress=True, num_partitions=8)
    assert _bytes(crash) == _bytes(full)
    assert _checksums(crash) == _checksums(full)
    with open(os.path.join(crash, checkpoint.MANIFEST)) as f:
        assert sum(1 for line in f if line.strip()) == len(_bytes(full))

    # a lost chunk file is re-encoded from its stored 1h partition
    os.remove(os.path.join(crash, "tier=chunks_1h", "part=0.parquet"))
    rows = web.refresh_chunks(crash, {0}, num_partitions=8)
    assert [(r["tier"], r["part"], r["gen"]) for r in rows] == \
        [("chunks_1h", 0, 2)]
    assert _bytes(crash) == _bytes(full)


class _ShuffleCounter(logging.Handler):
    """Counts the all-to-all operators in the plans Ray Data logs."""

    def __init__(self):
        super().__init__(level=logging.INFO)
        self.shuffles = 0

    def emit(self, record: logging.LogRecord):
        msg = record.getMessage()
        if msg.startswith("Execution plan of Dataset"):
            self.shuffles += msg.count("AllToAllOperator") \
                + msg.count("HashShuffle") + msg.count("HashAggregate")


@contextmanager
def _count_shuffles():
    logger = logging.getLogger("ray.data")
    counter, level = _ShuffleCounter(), logger.level
    logger.addHandler(counter)
    if logger.getEffectiveLevel() > logging.INFO:
        logger.setLevel(logging.INFO)
    try:
        yield counter
    finally:
        logger.removeHandler(counter)
        logger.setLevel(level)


def test_tier_jobs_run_one_exchange_each(ray_session, tmp_path):
    """The store's build and its append each run exactly one all-to-all
    operator: the partials' shuffle on the store partition id."""
    pages = synth.pages_dataset(800, seed=42, num_domains=20,
                                override_num_blocks=4)
    delta = synth.pages_dataset(200, seed=43, num_domains=20,
                                override_num_blocks=2)
    out = str(tmp_path / "store")
    with _count_shuffles() as counter:
        web.run(pages, out_dir=out, compress=True, num_partitions=8)
    assert counter.shuffles == 1
    with _count_shuffles() as counter:
        web.append_tiers(delta, out, "d-1", num_partitions=8,
                         refresh_compressed=True)
    assert counter.shuffles == 1


def test_full_run_with_compression(ray_session, tmp_path):
    pages = synth.pages_dataset(1500, seed=42, num_domains=40, override_num_blocks=4)
    out = str(tmp_path / "store")
    metrics = web.run(pages, out, compress=True)
    assert metrics["total_points"] > 0
    assert metrics["tier_points"]["1h"] >= metrics["tier_points"]["1d"] >= metrics["tier_points"]["7d"]

    chunks = checkpoint.read_tier(out, "chunks_1h")
    cdf = chunks.to_pandas()
    assert metrics["chunk_stats"]["chunks"] == len(cdf)
    points = int(cdf["n_points"].sum())
    assert points == metrics["tier_points"]["1h"]
    payload = int(cdf["ts_payload"].map(len).sum()
                  + cdf["val_payload"].map(len).sum())
    assert payload < 16 * points  # regular buckets compress

    # chunk roundtrip: decode == stored 1h pages series exactly
    back = gorilla.decode_chunk_dataset(chunks, ["host"], ts_col="bucket_us",
                                        value_col="pages").to_pandas()
    src = checkpoint.read_tier(out, "1h").to_pandas()
    a = src.sort_values(["host", "bucket_us"]).reset_index(drop=True)
    b = back.sort_values(["host", "bucket_us"]).reset_index(drop=True)
    assert len(a) == len(b)
    assert (a["host"].values == b["host"].values).all()
    # the decoder returns the bucket as a timestamp
    assert (pd.to_datetime(a["bucket_us"], unit="us").values
            == b["bucket_us"].values).all()
    np.testing.assert_array_equal(a["pages"].to_numpy(dtype=np.float64),
                                  b["pages"].to_numpy(dtype=np.float64))


def _store_tiers(out_dir: str, keys: list[str]) -> dict:
    """{tier: stored rows sorted by (keys, bucket_us)} for 1h/1d/7d."""
    return {t: checkpoint.read_tier(out_dir, t).to_pandas()
            .sort_values(keys + ["bucket_us"]).reset_index(drop=True)
            for t in ("1h", "1d", "7d")}


def test_store_build_is_plan_invariant(ray_session, tmp_path):
    """The store build does not depend on the input's blocks: at a fixed
    partition count the stored bytes are the same over 1 block, 16 blocks
    and 16 blocks in reverse order; across partition counts the tiers read
    back are the same rows."""
    table = synth.pages_table(1600, seed=7, num_domains=40)
    many = [table.slice(i * 100, 100) for i in range(16)]

    def build(name, blocks, num_partitions):
        out = str(tmp_path / name)
        web.run(ray.data.from_arrow(blocks), out, compress=True,
                num_partitions=num_partitions)
        return out

    want = build("one", [table], 8)
    for name, blocks in (("many", many), ("reversed", many[::-1])):
        got = build(name, blocks, 8)
        assert _bytes(got) == _bytes(want), name
        assert _checksums(got) == _checksums(want), name

    tiers = _store_tiers(want, ["host"])
    for num_partitions in (1, 3):
        got = _store_tiers(build(f"np{num_partitions}", many,
                                 num_partitions), ["host"])
        for t in tiers:
            pd.testing.assert_frame_equal(got[t], tiers[t], check_exact=True)


def _oracle_by(pages: pd.DataFrame, keys: list[str]) -> dict:
    """Tier values grouped by any of host, domain or a page column, with
    plain pandas: the stats of ``text_bytes`` per (keys, bucket)."""
    df = pages.copy()
    df["host"] = df["url"].str.replace(r"^[a-z][a-z0-9+.-]*://", "",
                                       regex=True) \
        .str.replace(r"[/:?#].*$", "", regex=True)
    df["domain"] = df["host"].str.extract(r"([^.]+\.[^.]+)$")[0] \
        .fillna(df["host"])
    df["v"] = df["text"].str.encode("utf-8").str.len().astype(np.float64)
    df["v2"] = df["v"] * df["v"]
    ts_us = df["warc_ts"].astype("datetime64[us]").astype("int64")
    out = {}
    for tier, width in K.TIER_US.items():
        g = df.assign(bucket_us=(ts_us // width) * width) \
            .groupby(keys + ["bucket_us"])
        agg = g.agg(pages=("v", "size"), bytes=("v", "sum"),
                    sum_val=("v", "sum"), min_val=("v", "min"),
                    max_val=("v", "max"), sum_sq=("v2", "sum")).reset_index()
        agg["pages"] = agg["pages"].astype(np.float64)
        n, s = agg["pages"], agg["sum_val"]
        agg["mean_val"] = s / n
        agg["std_val"] = np.sqrt(((agg["sum_sq"] - s * s / n) / (n - 1))
                                 .where(n > 1).clip(lower=0.0))
        out[tier] = agg
    return out


@pytest.mark.parametrize("keys", [["domain"], ["host", "lang"]])
def test_store_build_with_other_series_keys(ray_session, tmp_path, keys):
    """``series_keys`` other than host — a url part (domain) and a page
    column (lang) — build the tiers a pandas groupby computes."""
    pages = synth.pages_table(1500, seed=11, num_domains=30)
    out = str(tmp_path / "store")
    metrics = web.run(ray.data.from_arrow(pages), out, series_keys=keys,
                      compress=True, num_partitions=4)
    got = _store_tiers(out, keys)
    want = _oracle_by(pages.to_pandas(), keys)
    assert metrics["tier_points"] == {t: len(want[t]) for t in want}
    cols = keys + ["bucket_us", "pages", "bytes", "sum_val", "min_val",
                   "max_val", "sum_sq", "mean_val", "std_val"]
    for t in want:
        pd.testing.assert_frame_equal(got[t][cols], want[t][cols],
                                      check_dtype=False, rtol=1e-9)
