"""The flagship web pipeline (north_star): Common-Crawl-style pages →
deterministic text extraction → url-hierarchy keys → per-host crawl-rate
series → exact 1h/1d/7d retention tiers → gap-filled feature series →
Gorilla-compressed chunks, with partition-granular checkpoint/resume.

The tier store is laid out as ``tier=<t>/part=<hash(host) % N>.parquet``
for t in 1h, 1d, 7d and ``chunks_1h``, and the cascade derives 1d from 1h
and 7d from 1d — so once a host's 1h partials reach its partition every
tier and its Gorilla chunks can be computed there. Building
(:func:`run` with ``out_dir``) and appending (:func:`append_tiers`) are
therefore ONE exchange each: the fused extract + key + 1h combiner map,
one shuffle on the store's own partition id
(``checkpoint.write_partitioned`` / ``merge_partitioned``), and a
per-partition kernel that cascades, finalizes, encodes and writes every
tier of that partition. Without ``out_dir`` the tiers come from
:func:`rollup.rollup_tiers`, the same cascade kernel behind one exchange."""

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


def prepare_pages(pages_ds, extract_html: bool = True):
    """pages → pages + (host, domain, tld, text_bytes). Stateless Arrow maps."""
    if extract_html:
        pages_ds = pages_ds.map_batches(extract.extract_text_batch, batch_format="pyarrow")

    def keys_fn(batch: pa.Table) -> pa.Table:
        parts = K.split_url(batch["url"])
        for name, arr in parts.items():
            batch = batch.append_column(name, arr)
        tb = pc.binary_length(batch["text"].cast(pa.binary()))
        return batch.append_column("text_bytes", tb.cast(pa.int64()))

    return pages_ds.map_batches(keys_fn, batch_format="pyarrow")


def prepare_series(pages_ds, extract_html: bool = True):
    """The slim spine: extract + url keys + projection fused into ONE
    ``map_batches`` so the fat ``html``/``text`` columns never cross an
    operator boundary (inter-operator blocks are 3 small columns — the
    store-bandwidth term that otherwise does not scale with CPUs)."""

    def fn(batch: pa.Table) -> pa.Table:
        if extract_html:
            batch = extract.extract_text_batch(batch, "html", "text")
        host = K.split_url(batch["url"])["host"]
        tb = pc.binary_length(batch["text"].cast(pa.binary())).cast(pa.int64())
        return pa.table({
            "host": host, "warc_ts": batch["warc_ts"], "text_bytes": tb,
        })

    return pages_ds.map_batches(fn, batch_format="pyarrow")


def _prepare(pages_ds, series_keys):
    return (prepare_series(pages_ds) if tuple(series_keys) == ("host",)
            else prepare_pages(pages_ds))


def _tier_partials(prepared, series_keys=("host",)):
    """The 1h combiner over the prepared spine: ≤ one partial stat row per
    (series, hour) per batch, fused into the upstream map — the rows the
    tier jobs' one exchange moves."""
    return prepared.map_batches(
        rollup.partial_bucket_aggregate(list(series_keys), "warc_ts",
                                        "text_bytes", "text_bytes", "1h"),
        batch_format="pyarrow")


def build_tiers(prepared, series_keys=("host",), num_salts: int = 16,
                num_partitions: int = 32) -> dict:
    """Exact per-(host, bucket) tier tables: pages count, bytes, and value
    stats over ``text_bytes`` (the per-bucket crawl-rate series)."""
    return rollup.rollup_tiers(
        prepared, list(series_keys), "warc_ts",
        value_col="text_bytes", size_col="text_bytes", num_salts=num_salts,
        num_partitions=num_partitions,
    )


def tier_points(tiers: dict) -> dict[str, int]:
    return {t: ds.count() for t, ds in tiers.items()}


def write_tiers(tiers: dict, out_dir: str, series_keys=("host",),
                num_partitions: int = 32, fail_after: int | None = None):
    """Checkpointed tier writes; resume skips completed (tier, part) pairs."""
    rows = []
    for tier, ds in tiers.items():
        rows += checkpoint.write_partitioned(
            ds, out_dir, tier, list(series_keys), num_partitions=num_partitions,
            sort_cols=list(series_keys) + ["bucket_us"],
            fail_after=fail_after,
        )
    return rows


def _encode_chunks(tier_df: pd.DataFrame, series_keys=("host",),
                  tier: str = "1h", value_col: str = "pages") -> pd.DataFrame:
    """One partition's chunk rows: each series of ``tier_df`` (a tier
    partition holding whole series) Gorilla-encoded, ordered by key."""
    keys = list(series_keys)
    packed = gorilla.pack_series(tier_df[keys + ["bucket_us", value_col]],
                                 keys, "bucket_us", value_col)
    return gorilla.GorillaEncoder(tier=tier)(packed) \
        .sort_values(keys, kind="mergesort").reset_index(drop=True)


def _cascade_frames(partials: pd.DataFrame, keys: list[str]) -> dict:
    """One store partition's 1h partials → algebraic 1h/1d/7d frames."""
    tiers = rollup.cascade_partition(
        pa.Table.from_pandas(partials, preserve_index=False), keys)
    return {t: tbl.to_pandas() for t, tbl in tiers.items()}


def _store_partition(series_keys=("host",), value_col: str = "pages",
                    compress: bool = True):
    """The build kernel (a ``write_partitioned`` hook): one partition's 1h
    partials → its finalized 1h/1d/7d frames, sorted by (keys, bucket), and
    with ``compress`` the Gorilla chunks of its 1h series."""
    keys = list(series_keys)

    def kernel(partials: pd.DataFrame) -> dict[str, pd.DataFrame]:
        frames = {
            t: rollup.finalize_tier_batch(f, t)
            .sort_values(keys + ["bucket_us"], kind="mergesort")
            .reset_index(drop=True)
            for t, f in _cascade_frames(partials, keys).items()}
        if compress:
            frames["chunks_1h"] = _encode_chunks(frames["1h"], keys, "1h",
                                                value_col)
        return frames

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
        part_fn=lambda df: {chunk_tier: _encode_chunks(
            df, series_keys, tier, value_col)})


def append_tiers(pages_ds, out_dir: str, delta_id: str,
                 series_keys=("host",), num_salts: int = 16,
                 num_partitions: int = 32,
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
            return {"chunks_1h": _encode_chunks(merged["1h"], keys, "1h",
                                               value_col)}
    return checkpoint.merge_partitioned(
        _tier_partials(_prepare(pages_ds, series_keys), keys), out_dir, "1h",
        keys, keys + ["bucket_us"], rollup.TIER_PLAN, delta_id=delta_id,
        num_partitions=num_partitions, sort_cols=keys + ["bucket_us"],
        finalize_fn=rollup.finalize_tier_batch,
        fail_after=fail_after,
        part_fn=lambda df: _cascade_frames(df, keys), derive_fn=derive)


def compress_tier(tier_ds, series_keys=("host",), tier: str = "1h",
                  value_col: str = "pages", num_partitions: int = 32):
    """Gorilla-encode one tier's (host → bucket series) into chunk rows."""
    slim = tier_ds.map_batches(
        lambda b: b[list(series_keys) + ["bucket_us", value_col]],
        batch_format="pandas",
    )
    return gorilla.encode_series_dataset(
        slim, list(series_keys), "bucket_us", value_col,
        tier=tier, num_partitions=min(32, num_partitions),
    )


def run(pages_ds, out_dir: str | None = None, series_keys=("host",),
        num_salts: int = 16, num_partitions: int = 32,
        compress: bool = True, fail_after: int | None = None) -> dict:
    """End-to-end flagship run. Returns metrics incl. the north-star
    rolled-up points/sec across tiers.

    With ``out_dir`` the whole store — 1h/1d/7d and, with ``compress``,
    ``chunks_1h`` — is built by one exchange (see the module docstring);
    a rerun resumes, skipping partitions whose 1h file is recorded, and the
    points are those the manifest records. ``fail_after`` is the crash
    test hook of :func:`checkpoint.write_partitioned`."""
    t_start = time.perf_counter()
    keys = list(series_keys)
    prepared = _prepare(pages_ds, series_keys)
    chunk_stats = None
    if out_dir:
        checkpoint.write_partitioned(
            _tier_partials(prepared, keys), out_dir, "1h", keys,
            num_partitions=num_partitions, fail_after=fail_after,
            part_fn=_store_partition(keys, "pages", compress))
        stored = checkpoint.load_done(out_dir)
        points = {t: int(sum(r["rows"] for (tt, _), r in stored.items()
                             if tt == t)) for t in K.TIERS}
        if compress:
            chunk_stats = {"chunks": int(sum(
                r["rows"] for (t, _), r in stored.items()
                if t == "chunks_1h"))}
    else:
        tiers = build_tiers(prepared, series_keys, num_salts, num_partitions)
        points = tier_points(tiers)
        if compress:
            cdf = compress_tier(tiers["1h"], series_keys, "1h", "pages",
                                num_partitions).to_pandas()
            payload = int(cdf["ts_payload"].map(len).sum()
                          + cdf["val_payload"].map(len).sum())
            chunk_stats = {
                "chunks": len(cdf),
                "payload_bytes": payload,
                "raw_bytes": int(cdf["n_points"].sum()) * 16,
            }

    wall = time.perf_counter() - t_start
    total_points = int(sum(points.values()))
    return {
        "tier_points": points,
        "total_points": total_points,
        "wall_s": round(wall, 3),
        "points_per_sec": round(total_points / wall, 1),
        "chunk_stats": chunk_stats,
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


def distinct_host_tiers(prepared, k: int = 4096,
                        num_partitions: int = 32) -> dict:
    """Distinct crawled hosts per retention bucket — the continuous
    aggregate the exact tier spine cannot carry (COUNT(DISTINCT) is not
    algebraic): per-1h KMV sketches over the slim spine, cascaded 1h→1d→7d
    by pure sketch merge (stages/sketch.py). Shuffle traffic is
    O(buckets × k × 8 B) regardless of corpus size; at 10^12 pages the 1h
    tier is ~9k buckets/year → a few hundred MB of sketch rows total."""
    from forecastframe_ray.stages.sketch import distinct_tiers

    return distinct_tiers(prepared, "warc_ts", "host",
                          k=k, num_partitions=num_partitions)
