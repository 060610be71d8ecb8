"""Flagship web pipeline: exact tier-value match vs the pandas oracle,
cascade exactness (1d from 1h, 7d from 1d), checkpoint/resume byte-identity."""

import glob
import logging
import os
from contextlib import contextmanager

import numpy as np
import pandas as pd
import pyarrow.parquet as pq
import pytest

import ray.data

from forecastframe_ray import synth
from forecastframe_ray.pipelines import web
from forecastframe_ray.state import checkpoint

N_PAGES = 3000
TIER_COLS = ["host", "bucket_us", "pages", "bytes", "sum_val", "min_val",
             "max_val", "sum_sq", "mean_val", "std_val"]


@pytest.fixture(scope="module")
def tier_results(ray_session):
    pages = synth.pages_dataset(N_PAGES, seed=42, num_domains=60, override_num_blocks=6)
    prepared = web.prepare_pages(pages)
    tiers = web.build_tiers(prepared, ("host",), num_salts=4)
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
    pages = synth.pages_dataset(800, seed=42, num_domains=30, override_num_blocks=4)
    tiers = web.build_tiers(web.prepare_pages(pages), ("host",), num_salts=2)

    full_dir = str(tmp_path / "full")
    web.write_tiers({"1h": tiers["1h"]}, full_dir, num_partitions=8)

    crash_dir = str(tmp_path / "crash")
    with pytest.raises(RuntimeError, match="simulated crash"):
        web.write_tiers({"1h": tiers["1h"]}, crash_dir, num_partitions=8, fail_after=3)
    done_before = checkpoint.load_done(crash_dir)
    assert len(done_before) == 3
    # resume: completes only the missing partitions
    rows = web.write_tiers({"1h": tiers["1h"]}, crash_dir, num_partitions=8)
    assert {r["part"] for r in rows}.isdisjoint({p for (_, p) in done_before})

    # final output byte-identical to the uninterrupted run
    for part_file in sorted(os.listdir(os.path.join(full_dir, "tier=1h"))):
        a = open(os.path.join(full_dir, "tier=1h", part_file), "rb").read()
        b = open(os.path.join(crash_dir, "tier=1h", part_file), "rb").read()
        assert a == b, part_file

    # manifest checksums agree partition-by-partition
    full_manifest = checkpoint.load_done(full_dir)
    crash_manifest = checkpoint.load_done(crash_dir)
    assert {k: v["checksum"] for k, v in full_manifest.items()} == \
           {k: v["checksum"] for k, v in crash_manifest.items()}


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
    ones the staged jobs write: build_tiers + write_tiers, then the Gorilla
    chunks through compress_tier + write_partitioned."""
    pages = synth.pages_dataset(1200, seed=42, num_domains=30,
                                override_num_blocks=4)
    fused, staged = str(tmp_path / "fused"), str(tmp_path / "staged")
    metrics = web.run(pages, out_dir=fused, compress=True, num_partitions=8)

    tiers = web.build_tiers(web.prepare_series(pages), num_partitions=8)
    web.write_tiers(tiers, staged, num_partitions=8)
    checkpoint.write_partitioned(
        web.compress_tier(tiers["1h"], num_partitions=8), staged,
        "chunks_1h", ["host"], num_partitions=8, sort_cols=["host"])

    got, want = _tables(fused), _tables(staged)
    assert got.keys() == want.keys()
    assert {f.split(os.sep)[0] for f in got} == {
        "tier=1h", "tier=1d", "tier=7d", "tier=chunks_1h"}
    for f in want:
        assert got[f].equals(want[f]), f
    assert _checksums(fused) == _checksums(staged)
    assert metrics["tier_points"] == web.tier_points(tiers)
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
    metrics = web.run(pages, out_dir=None, num_salts=2, compress=True)
    assert metrics["total_points"] > 0
    assert metrics["tier_points"]["1h"] >= metrics["tier_points"]["1d"] >= metrics["tier_points"]["7d"]
    cs = metrics["chunk_stats"]
    assert cs["payload_bytes"] < cs["raw_bytes"]  # regular buckets compress

    # chunk roundtrip: decode == 1h pages series exactly
    from forecastframe_ray.stages import gorilla
    tiers = web.build_tiers(web.prepare_pages(
        synth.pages_dataset(1500, seed=42, num_domains=40, override_num_blocks=4)), num_salts=2)
    chunks = web.compress_tier(tiers["1h"], ("host",), "1h", "pages")
    back = gorilla.decode_chunk_dataset(chunks, ["host"], ts_col="bucket_us",
                                        value_col="pages").to_pandas()
    src = tiers["1h"].to_pandas()
    a = src.sort_values(["host", "bucket_us"]).reset_index(drop=True)
    b = back.sort_values(["host", "bucket_us"]).reset_index(drop=True)
    assert len(a) == len(b)
    np.testing.assert_array_equal(a["pages"].to_numpy(dtype=np.float64),
                                  b["pages"].to_numpy(dtype=np.float64))


def test_distinct_host_tiers_exact_at_small_scale(tmp_path):
    """distinct_host_tiers over the synthetic corpus: every tier bucket's
    sketch is in the exact regime at this scale and must equal pandas
    nunique of hosts per bucket, with the 1d tier produced by sketch
    MERGE from 1h (not a re-read)."""
    import pandas as pd

    from forecastframe_ray import synth
    from forecastframe_ray.keys import TIER_US
    from forecastframe_ray.pipelines import web

    pages = synth.pages_dataset(8000, seed=11)
    prepared = web.prepare_series(pages)
    spine = prepared.to_pandas()
    tiers = web.distinct_host_tiers(prepared, k=4096, num_partitions=4)
    for tier in ("1h", "1d", "7d"):
        got = tiers[tier].to_pandas().sort_values("bucket_us") \
            .reset_index(drop=True)
        assert bool(got["is_exact"].all())
        us = spine["warc_ts"].astype("datetime64[us]").astype("int64")
        exact = spine.assign(
            bucket_us=(us // TIER_US[tier]) * TIER_US[tier]) \
            .groupby("bucket_us")["host"].nunique()
        assert len(got) == len(exact)
        for r in got.itertuples(index=False):
            assert r.distinct_est == exact.loc[r.bucket_us]
