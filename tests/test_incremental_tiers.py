"""Continuous-aggregate maintenance (`checkpoint.merge_partitioned` +
`web.append_tiers`): incremental tier append must equal a full rebuild
exactly (the algebraic (count, sum, min, max, Σx²) carry composes), stay
idempotent per delta_id, and survive a mid-merge crash + retry."""

import numpy as np
import pandas as pd
import pytest

import ray.data

from forecastframe_ray.pipelines import rollup, web
from forecastframe_ray.state import checkpoint
from forecastframe_ray import synth


def _events(n=4000, seed=3) -> pd.DataFrame:
    rng = np.random.default_rng(seed)
    ts = pd.Timestamp("2024-02-01").value // 1000 + \
        rng.integers(0, 21 * 86_400_000_000, n)
    return pd.DataFrame({
        "event_type": rng.choice(["a", "b", "c", "d"], n),
        # the tier kernel contracts timestamp[us] (as the parquet tables
        # carry); pandas defaults to ns
        "ts": pd.to_datetime(ts, unit="us").astype("datetime64[us]"),
        "value": np.round(rng.standard_normal(n) * 50 + 100, 3),
    })


def _tier_frame(ds) -> pd.DataFrame:
    df = ds.to_pandas()
    cols = ["event_type", "bucket_us"] + list(rollup.TIER_PLAN)
    df = df[cols].sort_values(["event_type", "bucket_us"]) \
        .reset_index(drop=True)
    for c in rollup.TIER_PLAN:
        df[c] = np.round(df[c].to_numpy(dtype=np.float64), 6)
    return df


def _build_1d(df: pd.DataFrame):
    return rollup.rollup_tiers(
        ray.data.from_pandas(df).repartition(4), ["event_type"], "ts",
        value_col="value", size_col=None, tiers=("1d",))["1d"]


def test_incremental_equals_full_rebuild(tmp_path):
    df = _events()
    cut = pd.Timestamp("2024-02-12")
    out = str(tmp_path / "tiers")

    checkpoint.write_partitioned(
        _build_1d(df[df["ts"] < cut]), out, "1d", ["event_type"],
        num_partitions=4, sort_cols=["event_type", "bucket_us"])
    delta = _build_1d(df[df["ts"] >= cut]).materialize()
    rows = checkpoint.merge_partitioned(
        delta, out, "1d", ["event_type"], ["event_type", "bucket_us"],
        rollup.TIER_PLAN, delta_id="batch-2",
        num_partitions=4, sort_cols=["event_type", "bucket_us"],
        finalize_fn=rollup.finalize_tier_batch)
    assert rows and all(r["delta_id"] == "batch-2" for r in rows)

    merged = _tier_frame(checkpoint.read_tier(out, "1d"))
    full = _tier_frame(_build_1d(df))
    pd.testing.assert_frame_equal(merged, full)

    # idempotence: re-applying the same delta_id is a no-op
    again = checkpoint.merge_partitioned(
        delta, out, "1d", ["event_type"], ["event_type", "bucket_us"],
        rollup.TIER_PLAN, delta_id="batch-2",
        num_partitions=4, sort_cols=["event_type", "bucket_us"],
        finalize_fn=rollup.finalize_tier_batch)
    assert again == []
    pd.testing.assert_frame_equal(
        _tier_frame(checkpoint.read_tier(out, "1d")), full)

    # gen lineage chains the rewrites
    done = checkpoint.load_done(out)
    assert all(row.get("gen", 0) >= 1 for (t, p), row in done.items()
               if t == "1d" and row.get("delta_id") == "batch-2")


def test_crash_retry_does_not_double_count(tmp_path):
    df = _events(seed=11)
    cut = pd.Timestamp("2024-02-10")
    out = str(tmp_path / "tiers")
    checkpoint.write_partitioned(
        _build_1d(df[df["ts"] < cut]), out, "1d", ["event_type"],
        num_partitions=4, sort_cols=["event_type", "bucket_us"])
    delta = _build_1d(df[df["ts"] >= cut]).materialize()

    kw = dict(partition_keys=["event_type"],
              group_keys=["event_type", "bucket_us"],
              merge_plan=rollup.TIER_PLAN, delta_id="batch-2",
              num_partitions=4, sort_cols=["event_type", "bucket_us"],
              finalize_fn=rollup.finalize_tier_batch)
    with pytest.raises(RuntimeError, match="simulated crash"):
        checkpoint.merge_partitioned(delta, out, "1d", fail_after=2, **kw)
    # retry completes only the unmerged partitions; totals stay exact
    checkpoint.merge_partitioned(delta, out, "1d", **kw)
    pd.testing.assert_frame_equal(
        _tier_frame(checkpoint.read_tier(out, "1d")),
        _tier_frame(_build_1d(df)))


def test_merge_edge_cases(tmp_path):
    """Empty delta is a graceful no-op; a delta introducing a brand-new
    series key creates its partition from scratch and still matches the
    full rebuild."""
    df = _events(n=1200, seed=5)
    out = str(tmp_path / "tiers")
    checkpoint.write_partitioned(
        _build_1d(df), out, "1d", ["event_type"], num_partitions=4,
        sort_cols=["event_type", "bucket_us"])
    kw = dict(partition_keys=["event_type"],
              group_keys=["event_type", "bucket_us"],
              merge_plan=rollup.TIER_PLAN, num_partitions=4,
              sort_cols=["event_type", "bucket_us"],
              finalize_fn=rollup.finalize_tier_batch)

    empty = _build_1d(df.head(0)).materialize()
    assert checkpoint.merge_partitioned(
        empty, out, "1d", delta_id="empty", **kw) == []

    new_series = _events(n=300, seed=6).assign(event_type="zzz_new")
    checkpoint.merge_partitioned(
        _build_1d(new_series).materialize(), out, "1d",
        delta_id="new-series", **kw)
    merged = _tier_frame(checkpoint.read_tier(out, "1d"))
    full = _tier_frame(_build_1d(
        pd.concat([df, new_series], ignore_index=True)))
    pd.testing.assert_frame_equal(merged, full)
    assert (merged["event_type"] == "zzz_new").any()


def test_expire_tier_retention(tmp_path):
    """Retention sweep: buckets before the cutoff disappear, later buckets
    are untouched byte-for-byte, a repeat sweep is metadata-only (no new
    manifest rows), and append-after-expire still merges exactly."""
    df = _events(seed=7)
    out = str(tmp_path / "tiers")
    checkpoint.write_partitioned(
        _build_1d(df), out, "1d", ["event_type"], num_partitions=4,
        sort_cols=["event_type", "bucket_us"])
    cutoff = int(pd.Timestamp("2024-02-08").value // 1000)

    before = _tier_frame(checkpoint.read_tier(out, "1d"))
    rows = checkpoint.expire_tier(out, "1d", cutoff)
    assert rows and all(r["expired_before"] == cutoff for r in rows)
    after = _tier_frame(checkpoint.read_tier(out, "1d"))
    assert (after["bucket_us"] >= cutoff).all()
    pd.testing.assert_frame_equal(
        after, before[before["bucket_us"] >= cutoff].reset_index(drop=True))

    # repeat sweep: footer-stats skip, no rewrites
    assert checkpoint.expire_tier(out, "1d", cutoff) == []

    # append after expiry: delta merges against the pruned store
    extra = _events(n=800, seed=21)
    extra = extra[extra["ts"] >= pd.Timestamp("2024-02-08")]
    checkpoint.merge_partitioned(
        _build_1d(extra).materialize(), out, "1d", ["event_type"],
        ["event_type", "bucket_us"], rollup.TIER_PLAN, delta_id="late",
        num_partitions=4, sort_cols=["event_type", "bucket_us"],
        finalize_fn=rollup.finalize_tier_batch)
    want = _tier_frame(_build_1d(
        pd.concat([df[pd.to_datetime(df["ts"]) >= pd.Timestamp("2024-02-08")],
                   extra], ignore_index=True)))
    pd.testing.assert_frame_equal(
        _tier_frame(checkpoint.read_tier(out, "1d")), want)


def test_append_tiers_pages_end_to_end(tmp_path):
    """web.append_tiers over the pages corpus: full rebuild == base+delta
    across all three tiers (derived mean/std included), and the refreshed
    Gorilla chunk tier decodes to exactly the merged 1h series."""
    from forecastframe_ray.stages import gorilla

    base_dir, delta_dir = str(tmp_path / "p1"), str(tmp_path / "p2")
    synth.write_pages_corpus(base_dir, 3000, seed=42)
    synth.write_pages_corpus(delta_dir, 3000, seed=43)
    out = str(tmp_path / "tiers")

    base = ray.data.read_parquet(base_dir)
    web.run(base, out_dir=out, compress=True)
    rows = web.append_tiers(ray.data.read_parquet(delta_dir), out,
                            delta_id="crawl-43", num_partitions=32,
                            refresh_compressed=True)
    assert rows

    dec = gorilla.decode_chunk_dataset(
        checkpoint.read_tier(out, "chunks_1h"), series_keys=["host"]) \
        .to_pandas().rename(columns={"value": "pages"}) \
        .sort_values(["host", "bucket_ts"]).reset_index(drop=True)
    t1h = checkpoint.read_tier(out, "1h").to_pandas()[
        ["host", "bucket_ts", "pages"]] \
        .sort_values(["host", "bucket_ts"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(dec[["host", "bucket_ts", "pages"]], t1h,
                                  check_dtype=False)

    both = base.union(ray.data.read_parquet(delta_dir))
    full = web.build_tiers(web.prepare_series(both))
    for tier in ("1h", "1d", "7d"):
        got = checkpoint.read_tier(out, tier).to_pandas()
        want = full[tier].to_pandas()
        cols = ["host", "bucket_us"] + list(rollup.TIER_PLAN) + \
            ["mean_val", "std_val"]
        got = got[cols].sort_values(["host", "bucket_us"]).reset_index(drop=True)
        want = want[cols].sort_values(["host", "bucket_us"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(got, want, rtol=1e-9, atol=1e-9)


def test_append_crash_retry_equals_rebuild(tmp_path):
    """A fused append that crashes and is retried with the same delta_id
    leaves the store equal, file by file, to a full rebuild over base +
    delta: no partition counts the delta twice. The crash is taken after
    every touched partition's files were replaced but only 2 partitions'
    manifest rows were written; one unrecorded partition is further rolled
    back to a crash inside its kernel (1h replaced, 1d/7d/chunks not)."""
    import glob
    import json
    import os
    import shutil

    import pyarrow.parquet as pq

    base_dir, delta_dir = str(tmp_path / "p1"), str(tmp_path / "p2")
    synth.write_pages_corpus(base_dir, 1500, seed=42)
    synth.write_pages_corpus(delta_dir, 600, seed=43)
    out, before = str(tmp_path / "tiers"), str(tmp_path / "before")
    kw = dict(num_partitions=8, refresh_compressed=True)

    web.run(ray.data.read_parquet(base_dir), out_dir=out, num_partitions=8)
    shutil.copytree(out, before)
    with pytest.raises(RuntimeError, match="simulated crash"):
        web.append_tiers(ray.data.read_parquet(delta_dir), out, "crawl-43",
                         fail_after=2, **kw)

    def holds_delta(path):
        meta = pq.read_schema(path).metadata or {}
        return "crawl-43" in json.loads(meta.get(b"delta_ids", b"[]"))

    recorded = {p for (t, p), row in checkpoint.load_done(out).items()
                if row.get("delta_id") == "crawl-43"}
    replaced = {int(f.rsplit("=", 1)[1].split(".")[0])
                for f in glob.glob(os.path.join(out, "tier=1h", "*.parquet"))
                if holds_delta(f)}
    assert len(recorded) == 2 and len(replaced - recorded) >= 2
    p = min(replaced - recorded)
    for tier in ("1d", "7d", "chunks_1h"):
        rel = os.path.join(f"tier={tier}", f"part={p}.parquet")
        shutil.copy(os.path.join(before, rel), os.path.join(out, rel))

    rows = web.append_tiers(ray.data.read_parquet(delta_dir), out,
                            "crawl-43", **kw)
    assert {r["part"] for r in rows} == replaced - recorded
    assert web.append_tiers(ray.data.read_parquet(delta_dir), out,
                            "crawl-43", **kw) == []

    full = str(tmp_path / "full")
    web.run(ray.data.read_parquet(base_dir).union(
        ray.data.read_parquet(delta_dir)), out_dir=full, num_partitions=8)

    def tables(d):
        return {os.path.relpath(f, d): pq.read_table(f) for f in
                sorted(glob.glob(os.path.join(d, "tier=*", "*.parquet")))}

    got, want = tables(out), tables(full)
    assert got.keys() == want.keys()
    for f in want:
        assert got[f].equals(want[f]), f
