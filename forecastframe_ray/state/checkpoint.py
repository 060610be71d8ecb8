"""Partition-granular tier store: atomic part files, a lineage manifest,
resume and crash-retry (SURVEY.md §4 "Checkpoint / resume"; replaces the
reference's whole-object pickle in its ``forecastframe/io.py:9-40``).

Layout: ``out/tier=<name>/part=<p>.parquet``, one file per partition
``p = hash(partition_keys) % num_partitions`` (:func:`keys.partition_ids`),
each written atomically (temp file + rename). ``out/manifest.jsonl`` holds
one JSON row per written file — ``(tier, part, rows, points, checksum,
wall_s, fingerprint, gen)``, plus ``delta_id`` for merges,
``expired_before`` for retention sweeps and ``shard_id`` for shard-offset
appends; the latest row per (tier, part)
wins and ``gen`` chains the rewrites.

:func:`write_partitioned` and :func:`merge_partitioned` share one skeleton
(:func:`_exchange`): tag each row with its partition id, drop the rows of
partitions the manifest already records as finished (resume is a filter,
not a replay), ONE shuffle on the partition id, a per-partition kernel that
writes files and returns their manifest rows, then one manifest append by
the calling process. With ``part_fn`` the kernel writes several tiers from one partition
— the tier store's build and append each produce 1h/1d/7d and the Gorilla
chunks in a single exchange (:mod:`forecastframe_ray.pipelines.web`). A
partition's manifest rows list the primary ``tier`` last, and only that row
decides whether the partition is finished, so a partition counts as done
only once every file it wrote is recorded.

Single-node note: files land on the local filesystem; on a real cluster the
same layout goes to shared storage (s3/nfs) — the atomic-rename is then a
temp-key + final-key copy. The manifest is driver-written (tiny).
"""

from __future__ import annotations

import json
import os
import time
import zlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from forecastframe_ray import keys as K
from forecastframe_ray.stages.agg import PART_COL, exchange

MANIFEST = "manifest.jsonl"


def load_done(out_dir: str) -> dict[tuple[str, int], dict]:
    path = os.path.join(out_dir, MANIFEST)
    done = {}
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                if line.strip():
                    row = json.loads(line)
                    done[(row["tier"], int(row["part"]))] = row
    return done


def append_manifest(out_dir: str, rows: list[dict]):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, MANIFEST), "a") as f:
        for row in rows:
            f.write(json.dumps(row, sort_keys=True) + "\n")


def _cell_bytes(x) -> bytes:
    """One list/array cell as a dtype tag + its raw bytes. Cells numpy
    cannot lay out flat (None, ragged or mixed lists) fold in their repr."""
    if x is None:
        return b"none:"
    a = np.asarray(x)
    if a.dtype == object:
        return b"object:" + repr(a.tolist()).encode()
    return a.dtype.str.encode() + b":" + a.tobytes()


def _partition_checksum(df: pd.DataFrame) -> int:
    # list/array columns (e.g. an ANN index's embedding vectors) are
    # unhashable for hash_pandas_object — any cell holding one makes the
    # column an array column, folded in cell by cell
    plain, arrays = [], []
    for c in df.columns:
        v = df[c]
        if v.dtype == object and any(isinstance(x, (np.ndarray, list))
                                     for x in v):
            arrays.append(v)
        else:
            plain.append(c)
    crc = 0
    if plain:
        h = pd.util.hash_pandas_object(df[plain], index=False) \
            .to_numpy(dtype=np.uint64)
        crc = zlib.crc32(h.tobytes(), crc)
    for v in arrays:
        for x in v:
            crc = zlib.crc32(_cell_bytes(x), crc)
    return int(crc)


def _manifest_row(tier: str, part: int, df: pd.DataFrame, t0: float,
                  fingerprint: str, gen: int, **extra) -> dict:
    return {"tier": tier, "part": part, "rows": len(df), "points": len(df),
            "checksum": _partition_checksum(df),
            "wall_s": round(time.perf_counter() - t0, 4),
            "fingerprint": fingerprint, "gen": gen, **extra}


def _part_path(out_dir: str, tier: str, part: int) -> str:
    return os.path.join(out_dir, f"tier={tier}", f"part={part}.parquet")


def _write_file(df: pd.DataFrame, path: str, metadata: dict | None = None):
    """Atomic part-file write. Dictionary-encode everything (key strings
    are low-cardinality per partition — reference transform.py:30-33
    parity) + zstd: ~2× file shrink vs snappy at negligible write cost.
    ``metadata`` entries are added to the parquet footer."""
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    if metadata:
        tbl = tbl.replace_schema_metadata(
            {**(tbl.schema.metadata or {}), **metadata})
    os.makedirs(os.path.dirname(path), exist_ok=True)
    tmp = path + f".tmp.{os.getpid()}"
    pq.write_table(tbl, tmp, use_dictionary=True, compression="zstd")
    os.replace(tmp, path)  # atomic on one filesystem


def _primary_last(frames: dict, tier: str) -> list[str]:
    return [t for t in frames if t != tier] + [tier]


def _exchange(ds, out_dir: str, partition_keys: list[str],
              num_partitions: int, skip: set, kernel,
              fail_after: int | None, part_offset: int = 0,
              direct_part_col: str | None = None) -> list[dict]:
    """The store's one exchange: tag rows with their partition id, drop
    partitions in ``skip``, shuffle on the id, run
    ``kernel(part, part_df) -> [manifest row, ...]`` once per partition,
    and append the rows to the manifest. ``fail_after`` (test hook)
    records only the first N partitions' rows, then raises — the files of
    the others are already replaced, as after a crash between a file
    rename and its manifest append."""

    def tag(batch: pd.DataFrame) -> pd.DataFrame:
        batch[PART_COL] = part_offset + (
            batch[direct_part_col].to_numpy().astype(np.int64)
            if direct_part_col else
            K.partition_ids(batch, partition_keys, num_partitions))
        if skip:
            batch = batch[~batch[PART_COL].isin(list(skip))]
        return batch

    rows = exchange(ds, tag, lambda part, df: pd.DataFrame(kernel(part, df))
                    ).to_pandas().to_dict("records")
    if fail_after is not None:
        kept = set(list(dict.fromkeys(r["part"] for r in rows))[:fail_after])
        rows = [r for r in rows if r["part"] in kept]
    append_manifest(out_dir, rows)
    if fail_after is not None:
        raise RuntimeError(f"simulated crash after {fail_after} partitions")
    return rows


def write_partitioned(ds, out_dir: str, tier: str, partition_keys: list[str],
                      num_partitions: int = 32, sort_cols: list[str] | None = None,
                      fail_after: int | None = None,
                      overwrite_parts: set | None = None,
                      part_offset: int = 0,
                      direct_part_col: str | None = None,
                      part_fn=None, shard_id: str | None = None) -> list[dict]:
    """Write ``ds`` as hash-partitioned parquet with per-partition lineage.

    Skips partitions already in the manifest (resume = a filter, not replay),
    EXCEPT those in ``overwrite_parts`` — the refresh path for derived
    tiers; their manifest rows chain ``gen``.
    ``fail_after`` is a test hook: raise after N partitions to simulate a
    mid-job crash.

    ``part_fn(part_df) -> {tier: frame}`` is the per-partition hook: it
    turns one partition's rows into the frames of every tier it derives
    (``tier`` among them), each written to its own
    ``tier=<t>/part=<p>.parquet`` as returned — the hook owns their order.
    Without it the partition is written to ``tier`` sorted by
    ``sort_cols`` (deterministic file contents across runs/parallelism).

    ``part_offset`` shifts the partition ids (part = offset + hash % N) —
    the APPEND-ONLY delta layout: each shard of an insert-only table
    writes its own ``num_partitions`` files under the same tier instead of
    read-merge-rewriting shared partitions (which costs O(stored table)
    per append); readers just see more files, and crash-retry idempotence
    falls out of the manifest skip because offsets make (tier, part)
    shard-unique.

    ``shard_id`` names the shard that owns the offset range
    ``[part_offset, part_offset + num_partitions)``; each manifest row
    records it. A retry of the same shard skips its finished partitions,
    but a finished partition in the range that another shard wrote (an
    append that crashed, was abandoned and never committed) raises
    ``ValueError`` instead of silently skipping the new shard's rows.

    ``direct_part_col`` uses an existing INTEGER column's value (must lie
    in [0, num_partitions)) as the partition id instead of hashing
    ``partition_keys`` — the identity layout that lets readers prune at
    the FILE level by semantic id (e.g. an ANN index partitioned by
    coarse-quantizer centroid: a query opens only its probed centroids'
    files).
    """
    os.makedirs(os.path.join(out_dir, f"tier={tier}"), exist_ok=True)
    prior = load_done(out_dir)
    done = {p for (t, p) in prior if t == tier} - set(overwrite_parts or ())
    gens = {k: int(row.get("gen", 0)) for k, row in prior.items()}
    extra = {} if shard_id is None else {"shard_id": shard_id}
    if shard_id is not None:
        for p in sorted(done):
            owner = prior[(tier, p)].get("shard_id")
            if 0 <= p - part_offset < num_partitions and owner != shard_id:
                raise ValueError(
                    f"tier {tier!r} partition {p} belongs to shard "
                    f"{owner!r}, not {shard_id!r}: an earlier append at "
                    "this offset was abandoned")

    def kernel(part: int, df: pd.DataFrame) -> list[dict]:
        t0 = time.perf_counter()
        if part_fn is not None:
            frames = part_fn(df)
        elif sort_cols:
            frames = {tier: df.sort_values(sort_cols, kind="mergesort")
                      .reset_index(drop=True)}
        else:
            frames = {tier: df}
        rows = []
        for t in _primary_last(frames, tier):
            _write_file(frames[t], _part_path(out_dir, t, part))
            rows.append(_manifest_row(
                t, part, frames[t], t0, f"{t}/{part}/{num_partitions}",
                gens.get((t, part), 0) + 1, **extra))
        return rows

    return _exchange(ds, out_dir, partition_keys, num_partitions, done,
                     kernel, fail_after, part_offset, direct_part_col)


def _read_stored(path: str) -> tuple[pd.DataFrame | None, list[str]]:
    """A stored part file and the ``delta_ids`` its footer says it holds."""
    if not os.path.exists(path):
        return None, []
    old = pq.read_table(path)
    meta = (old.schema.metadata or {}).get(b"delta_ids")
    return old.to_pandas(), (json.loads(meta) if meta else [])


def merge_partitioned(delta_ds, out_dir: str, tier: str,
                      partition_keys: list[str], group_keys: list[str],
                      merge_plan: dict, delta_id: str,
                      num_partitions: int = 32,
                      sort_cols: list[str] | None = None,
                      finalize_fn=None,
                      fail_after: int | None = None,
                      part_fn=None, derive_fn=None) -> list[dict]:
    """Continuous-aggregate maintenance: merge a DELTA of algebraic stat
    rows (e.g. a new crawl batch's tier table) into the checkpointed tier,
    rewriting ONLY the partitions the delta lands in — the incremental form
    of the north_rule's 1h/1d/7d retention tiers (no TimescaleDB analog
    consulted; the algebra is the same (count, sum, min, max, Σx²) carry
    the cascade in :mod:`forecastframe_ray.pipelines.rollup` already uses).

    - ``merge_plan``: ``{col: (col, op)}`` over the algebraic columns; any
      derived columns (mean/std/labels) in the delta or the stored files
      are dropped before merging and rebuilt by ``finalize_fn(df, tier)``.
    - ``part_fn(part_df) -> {tier: delta frame}``: per-partition hook that
      derives several tiers' deltas (``tier`` among them) from one
      partition's rows; each is merged into its own stored file.
      ``derive_fn(merged) -> {tier: frame}`` rebuilds further tiers whole
      from the merged frames (e.g. Gorilla chunks of the merged 1h tier).
    - **Idempotent per** ``delta_id``: each rewritten partition's manifest
      rows record ``delta_id`` and a bumped ``gen``; re-applying the same
      delta (crash-retry of an append job) skips partitions whose latest
      ``tier`` row already carries it, so stats are never double-counted.
      A file whose footer already lists ``delta_id`` (the crash landed
      between its rename and the manifest append) is kept as is.
    - Untouched partitions keep their files and manifest rows; lineage
      stays partition-granular (`gen` chains the rewrites).
    - ``fail_after``: test hook, as in :func:`write_partitioned`.

    At 100 TB framing the delta is one ingest batch: its tier table is
    orders of magnitude smaller than the stored tiers, and the merge cost
    is proportional to the AFFECTED partitions, not the corpus.
    """
    os.makedirs(os.path.join(out_dir, f"tier={tier}"), exist_ok=True)
    prior = load_done(out_dir)
    skip = {p for (t, p), row in prior.items()
            if t == tier and row.get("delta_id") == delta_id}
    gens = {k: int(row.get("gen", 0)) for k, row in prior.items()}
    merge_cols = list(group_keys) + list(merge_plan)
    named = {c: (src, op) for c, (src, op) in merge_plan.items()}

    def merge(t: str, part: int, delta: pd.DataFrame) -> pd.DataFrame:
        path = _part_path(out_dir, t, part)
        old, applied = _read_stored(path)
        if delta_id in applied:
            return old  # metadata backstop: the file already holds it
        frames = [delta[merge_cols]]
        if old is not None:
            frames.append(old[merge_cols])
        df = pd.concat(frames, ignore_index=True) \
            .groupby(list(group_keys), as_index=False, sort=False,
                     observed=True).agg(**named)
        if finalize_fn is not None:
            df = finalize_fn(df, t)
        if sort_cols:
            df = df.sort_values(sort_cols, kind="mergesort").reset_index(drop=True)
        _write_file(df, path,
                    {b"delta_ids": json.dumps(applied + [delta_id]).encode()})
        return df

    def kernel(part: int, df: pd.DataFrame) -> list[dict]:
        t0 = time.perf_counter()
        deltas = part_fn(df) if part_fn is not None else {tier: df}
        frames = {t: merge(t, part, d) for t, d in deltas.items()}
        if derive_fn is not None:
            for t, f in derive_fn(frames).items():
                _write_file(f, _part_path(out_dir, t, part))
                frames[t] = f
        return [_manifest_row(t, part, frames[t], t0,
                              f"{t}/{part}/{num_partitions}",
                              gens.get((t, part), 0) + 1, delta_id=delta_id)
                for t in _primary_last(frames, tier)]

    return _exchange(delta_ds, out_dir, partition_keys, num_partitions, skip,
                     kernel, fail_after)


def expire_tier(out_dir: str, tier: str, cutoff_us: int,
                bucket_col: str = "bucket_us") -> list[dict]:
    """Retention expiry — the other half of continuous-aggregate
    maintenance: drop buckets strictly older than ``cutoff_us`` from a
    checkpointed tier (e.g. keep 1h for 30 days, 1d for a year; the 7d
    tier retains the coarse history). Partition-granular and idempotent:
    each partition file's footer min/max statistics on ``bucket_col``
    decide whether it is touched at all — a partition whose oldest bucket
    is already >= cutoff is skipped without reading data, so repeated
    expiry sweeps cost metadata only. Rewrites are atomic, drop to file
    deletion when everything expires, and append gen-chained manifest rows
    (``expired_before`` records the cutoff).

    Driver-side loop over partition FILES (not rows): the per-tier
    partition count is bounded (the layout's ``num_partitions``), and each
    touched file rewrite is one pruned parquet read/write — on a cluster
    this loop is trivially dispatchable, but it is metadata-scale work
    either way."""
    tier_dir = os.path.join(out_dir, f"tier={tier}")
    gens = {p: int(row.get("gen", 0))
            for (t, p), row in load_done(out_dir).items() if t == tier}
    rows: list[dict] = []
    if not os.path.isdir(tier_dir):
        return rows
    for fname in sorted(os.listdir(tier_dir)):
        if not (fname.startswith("part=") and fname.endswith(".parquet")):
            continue
        part = int(fname[len("part="):-len(".parquet")])
        path = os.path.join(tier_dir, fname)
        t0 = time.perf_counter()
        pf = pq.ParquetFile(path)
        idx = pf.schema_arrow.get_field_index(bucket_col)
        mins = [pf.metadata.row_group(g).column(idx).statistics.min
                for g in range(pf.metadata.num_row_groups)]
        if mins and min(mins) >= cutoff_us:
            continue  # nothing to expire — metadata-only skip
        df = pf.read().to_pandas()
        kept = df[df[bucket_col] >= cutoff_us].reset_index(drop=True)
        if len(kept) == len(df):
            continue
        if len(kept) == 0:
            os.remove(path)
        else:  # keep the footer (pandas schema, delta_ids) as it was
            _write_file(kept, path, pf.schema_arrow.metadata)
        rows.append(_manifest_row(tier, part, kept, t0,
                                  f"{tier}/{part}/expire",
                                  gens.get(part, 0) + 1,
                                  expired_before=int(cutoff_us)))
    append_manifest(out_dir, rows)
    return rows


def read_tier(out_dir: str, tier: str):
    import ray.data

    # merge_partitioned stamps ``delta_ids`` into the parquet footer (the
    # crash-retry backstop); pa.Schema with metadata is unhashable
    # (pyarrow 16) and trips Ray's schema-dedup at the read and at every
    # downstream shuffle input ("Failed to hash the schemas" log spam) —
    # so hand read_parquet an explicit metadata-free schema from the
    # first file's footer (files within a tier are uniform)
    tier_dir = os.path.join(out_dir, f"tier={tier}")
    schema = None
    for fname in sorted(os.listdir(tier_dir)):
        if fname.endswith(".parquet"):
            schema = pq.read_schema(os.path.join(tier_dir, fname)) \
                .remove_metadata()
            break
    return ray.data.read_parquet(tier_dir, schema=schema)


def shard_parts(out_dir: str, tier: str, shards) -> list[int]:
    """``tier``'s partition ids whose latest manifest row names a shard in
    ``shards`` — the committed view of an append-only store. An append that
    crashed and was never retried leaves files (recorded under its own
    shard id, or not recorded at all) that no committed shard names."""
    committed = set(shards)
    return sorted(p for (t, p), row in load_done(out_dir).items()
                  if t == tier and row.get("shard_id") in committed)


def read_parts(out_dir: str, tier: str, parts):
    """The files of ``tier``'s ``parts`` as one Dataset, None when
    ``parts`` is empty (schema handling as in :func:`read_tier`)."""
    import ray.data

    paths = [_part_path(out_dir, tier, p) for p in parts]
    if not paths:
        return None
    schema = pq.read_schema(paths[0]).remove_metadata()
    return ray.data.read_parquet(paths, schema=schema)
