"""The flagship web pipeline (north_star): Common-Crawl-style pages →
deterministic text extraction → url-hierarchy keys → per-host crawl-rate
series → exact 1h/1d/7d retention tiers → Gorilla-compressed chunks, in a
checkpointed tier store with partition-granular resume.

The tier store is laid out as ``tier=<t>/part=<hash(host) % N>.parquet``
for t in 1h, 1d, 7d and ``chunks_1h``, and the cascade derives 1d from 1h
and 7d from 1d — so once a host's 1h partials reach its partition every
tier and its Gorilla chunks can be computed there. Building
(:func:`run`) and appending (:func:`append_tiers`) are therefore ONE
exchange each: the fused extract + key + 1h combiner map, one shuffle on
the store's own partition id (``checkpoint.write_partitioned`` /
``merge_partitioned``), and a per-partition kernel that cascades,
finalizes, encodes and writes every tier of that partition. The build's
kernel is :func:`rollup.tier_frames`, the one behind
:func:`rollup.rollup_tiers` too; the append's is
:func:`rollup.cascade_partition`, merged into the stored files by
``merge_partitioned``. Both kernels work on ``pyarrow.Table``s, encode
chunks with :func:`gorilla.encode_series` and hand their tables to the
store, which writes them as they are."""

from __future__ import annotations

import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from forecastframe_ray import extract
from forecastframe_ray import keys as K
from forecastframe_ray.pipelines import rollup
from forecastframe_ray.stages import gorilla
from forecastframe_ray.state import checkpoint


def prepare_series(pages_ds, series_keys=("host",)):
    """The slim spine: extract + url keys + projection fused into ONE
    ``map_batches`` so the fat ``html``/``text`` columns never cross an
    operator boundary. Returns ``series_keys`` + ``warc_ts`` +
    ``text_bytes``; a key is a ``K.split_url`` part (host, domain, tld)
    when it is one, and the page column of that name otherwise."""
    keys = list(series_keys)

    def fn(batch: pa.Table) -> pa.Table:
        batch = extract.extract_text_batch(batch, "html", "text")
        parts = K.split_url(batch["url"])
        cols = {k: parts[k] if k in parts else batch[k] for k in keys}
        cols["warc_ts"] = batch["warc_ts"]
        cols["text_bytes"] = pc.binary_length(
            batch["text"].cast(pa.binary())).cast(pa.int64())
        return pa.table(cols)

    return pages_ds.map_batches(fn, batch_format="pyarrow")


def _tier_partials(pages_ds, series_keys=("host",)):
    """Pages → :func:`prepare_series` → the 1h combiner: ≤ one partial
    stat row per (series, hour) per batch, fused into the upstream map —
    the rows the tier jobs' one exchange moves."""
    return prepare_series(pages_ds, series_keys).map_batches(
        rollup.partial_bucket_aggregate(list(series_keys), "warc_ts",
                                        "text_bytes", "text_bytes", "1h"),
        batch_format="pyarrow")


def build_tiers(prepared, series_keys=("host",),
                num_partitions: int = 32) -> dict:
    """Exact per-(host, bucket) tier tables: pages count, bytes, and value
    stats over ``text_bytes`` (the per-bucket crawl-rate series)."""
    return rollup.rollup_tiers(
        prepared, list(series_keys), "warc_ts",
        value_col="text_bytes", size_col="text_bytes",
        num_partitions=num_partitions,
    )


def _store_partition(series_keys=("host",), value_col: str = "pages",
                    compress: bool = True):
    """The build kernel (a ``write_partitioned`` hook): one partition's 1h
    partials → its 1h/1d/7d tables from :func:`rollup.tier_frames`, and
    with ``compress`` the Gorilla chunks of its 1h series."""
    keys = list(series_keys)

    def kernel(partials: pa.Table) -> dict[str, pa.Table]:
        tables = rollup.tier_frames(partials, keys)
        if compress:
            tables["chunks_1h"] = gorilla.encode_series(
                tables["1h"], keys, "bucket_us", value_col, "1h")
        return tables

    return kernel


def refresh_chunks(out_dir: str, parts: set, series_keys=("host",),
                   tier: str = "1h", value_col: str = "pages",
                   num_partitions: int = 32) -> list[dict]:
    """Re-encode the Gorilla chunk tier for the given PARTITIONS of
    ``tier`` from the stored files, in one exchange. Chunk rows derive
    wholly from their own tier partition and both layouts hash the same
    ``series_keys`` into the same ``num_partitions``, so rewriting exactly
    those chunk partitions (``overwrite_parts``) restores
    chunks == encode(full tier) without reading any other partition.
    (:func:`append_tiers` re-encodes its partitions itself.)"""
    import os

    import ray.data

    files = [os.path.join(out_dir, f"tier={tier}", f"part={p}.parquet")
             for p in sorted(parts)]
    files = [f for f in files if os.path.exists(f)]
    if not files:
        return []
    chunk_tier = f"chunks_{tier}"
    return checkpoint.write_partitioned(
        ray.data.read_parquet(files), out_dir, chunk_tier, list(series_keys),
        num_partitions=num_partitions, overwrite_parts=set(parts),
        part_fn=lambda tbl: {chunk_tier: gorilla.encode_series(
            tbl, list(series_keys), "bucket_us", value_col, tier)})


def append_tiers(pages_ds, out_dir: str, delta_id: str,
                 series_keys=("host",), num_partitions: int = 32,
                 refresh_compressed: bool = False,
                 value_col: str = "pages",
                 fail_after: int | None = None) -> list[dict]:
    """Continuous-aggregate maintenance: fold a NEW batch of pages (e.g.
    today's crawl) into an existing checkpointed tier store without
    rebuilding it, in one exchange. The delta's 1h partials are shuffled on
    the store's partition id; per partition, the delta's own 1h/1d/7d rows
    are cascaded locally and merged into the stored files via the
    algebraic (count, sum, min, max, Σx²) carry — the result is EXACTLY the
    tiers a full rebuild over old+new pages would produce (pinned by
    ``tests/test_incremental_tiers.py`` and the
    ``tier_incremental_1d_events`` driver oracle).

    ``delta_id`` names the batch for idempotence: re-running the same
    append after a crash skips partitions already merged for it.
    ``refresh_compressed`` additionally re-encodes the Gorilla chunks of
    every partition whose 1h file this append rewrote. ``fail_after`` is
    the crash test hook of :func:`checkpoint.merge_partitioned`."""
    keys = list(series_keys)
    derive = None
    if refresh_compressed:
        def derive(merged):
            return {"chunks_1h": gorilla.encode_series(
                merged["1h"], keys, "bucket_us", value_col, "1h")}
    return checkpoint.merge_partitioned(
        _tier_partials(pages_ds, keys), out_dir, "1h",
        keys, keys + ["bucket_us"], rollup.TIER_PLAN, delta_id=delta_id,
        num_partitions=num_partitions, sort_cols=keys + ["bucket_us"],
        finalize_fn=rollup.finalize_tier_batch,
        fail_after=fail_after,
        part_fn=lambda tbl: rollup.cascade_partition(tbl, keys),
        derive_fn=derive)


def run(pages_ds, out_dir: str, series_keys=("host",),
        num_partitions: int = 32, compress: bool = True,
        fail_after: int | None = None) -> dict:
    """End-to-end flagship run: the whole store at ``out_dir`` — 1h/1d/7d
    and, with ``compress``, ``chunks_1h`` — built by one exchange (see the
    module docstring). Returns metrics incl. the north-star rolled-up
    points/sec across tiers. A rerun resumes, skipping partitions whose 1h
    file is recorded; the points and chunks are those the manifest
    records. ``fail_after`` is the crash test hook of
    :func:`checkpoint.write_partitioned`."""
    t_start = time.perf_counter()
    keys = list(series_keys)
    checkpoint.write_partitioned(
        _tier_partials(pages_ds, keys), out_dir, "1h", keys,
        num_partitions=num_partitions, fail_after=fail_after,
        part_fn=_store_partition(keys, "pages", compress))
    rows: dict[str, int] = {}
    for (tier, _), r in checkpoint.load_done(out_dir).items():
        rows[tier] = rows.get(tier, 0) + int(r["rows"])
    points = {t: rows.get(t, 0) for t in K.TIERS}

    wall = time.perf_counter() - t_start
    total_points = int(sum(points.values()))
    return {
        "tier_points": points,
        "total_points": total_points,
        "wall_s": round(wall, 3),
        "points_per_sec": round(total_points / wall, 1),
        "chunk_stats": ({"chunks": rows.get("chunks_1h", 0)} if compress
                        else None),
    }


# ---------------------------------------------------------------------------
# pandas oracle (tests): reference-semantics tiers computed single-node
# ---------------------------------------------------------------------------

def oracle_tiers(pages_df: pd.DataFrame) -> dict[str, pd.DataFrame]:
    """Exact expected tier values from raw pages with plain pandas, using the
    same (count,sum,min,max,Σx²) definitions. ``text`` must be the extracted
    text (byte-identity is asserted separately)."""
    df = pages_df.copy()
    host = df["url"].str.replace(r"^[a-z][a-z0-9+.-]*://", "", regex=True) \
        .str.replace(r"[/:?#].*$", "", regex=True)
    df["host"] = host
    df["text_bytes"] = df["text"].str.encode("utf-8").str.len().astype("int64")
    ts_us = df["warc_ts"].astype("datetime64[us]").astype("int64")
    out = {}
    for tier, width in K.TIER_US.items():
        b = (ts_us // width) * width
        g = df.assign(bucket_us=b).groupby(["host", "bucket_us"])["text_bytes"]
        agg = g.agg(pages="count", bytes="sum", sum_val="sum", min_val="min",
                    max_val="max").reset_index()
        agg["sum_sq"] = g.apply(lambda x: float(np.sum(np.square(x, dtype=np.float64)))).values
        agg["pages"] = agg["pages"].astype(np.float64)
        agg["bytes"] = agg["bytes"].astype(np.float64)
        n = agg["pages"].to_numpy()
        s = agg["sum_val"].to_numpy(dtype=np.float64)
        ss = agg["sum_sq"].to_numpy(dtype=np.float64)
        with np.errstate(divide="ignore", invalid="ignore"):
            agg["mean_val"] = s / n
            var = np.where(n > 1, (ss - s * s / n) / (n - 1), np.nan)
        agg["std_val"] = np.sqrt(np.maximum(var, 0.0))
        out[tier] = agg.sort_values(["host", "bucket_us"]).reset_index(drop=True)
    return out
