"""Partition-granular tier store: atomic part files, a lineage manifest,
resume and crash-retry (SURVEY.md §4 "Checkpoint / resume"; replaces the
reference's whole-object pickle in its ``forecastframe/io.py:9-40``).

Layout: ``out/tier=<name>/part=<p>.parquet``, one file per partition
``p = hash(partition_keys) % num_partitions`` (:func:`keys.partition_ids`,
the hash of every exchange), each written atomically (temp file + rename).
``out/manifest.jsonl`` holds one JSON row per written file — ``(tier, part,
rows, points, checksum, wall_s, fingerprint, gen, layout)``, plus
``delta_id`` for merges, ``expired_before`` for retention sweeps and
``shard_id`` for shard-offset appends; the latest row per (tier, part)
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

The exchange runs in Arrow: ``part_fn`` gets the partition as a
``pyarrow.Table``, ``merge_partitioned`` merges a stored file and its
delta with ``concat_tables`` + ``Table.group_by(...).aggregate``,
:func:`expire_tier` filters with ``pyarrow.compute`` and
:func:`_write_file` writes each Table as it is (no ``b"pandas"`` footer
blob). :func:`_partition_checksum` gives a Table the checksum of its
``to_pandas()`` frame, hashed one column at a time. The hashed writes and
the merge refuse a store whose rows lack ``layout`` = :data:`LAYOUT`: an
append onto another hash's files would split a key across two files.

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
import pyarrow.compute as pc
import pyarrow.parquet as pq
from pandas.core.util.hashing import combine_hash_arrays, hash_array

from forecastframe_ray import keys as K
from forecastframe_ray.stages.agg import PART_COL, exchange

MANIFEST = "manifest.jsonl"

LAYOUT = "partition_ids/arrow"  #: the ``layout`` of every manifest row


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


def _column_hash(col: pa.ChunkedArray) -> np.ndarray:
    """The uint64 row hashes ``pd.util.hash_pandas_object`` gives this
    column of ``to_pandas()``, from the Arrow values: a timestamp hashes its
    int64 values, strings, binaries and numbers their numpy values (nulls
    as ``to_pandas`` fills them), and any other type its pandas column."""
    t = col.type
    if pa.types.is_timestamp(t):
        return hash_array(col.to_numpy().view(np.int64))
    if (pa.types.is_string(t) or pa.types.is_large_string(t)
            or pa.types.is_binary(t) or pa.types.is_large_binary(t)
            or pa.types.is_integer(t) or pa.types.is_floating(t)):
        return hash_array(col.to_numpy())
    return pd.util.hash_pandas_object(col.to_pandas(), index=False) \
        .to_numpy(dtype=np.uint64)


def _partition_checksum(frame: pd.DataFrame | pa.Table) -> int:
    """CRC32 of the row hashes of every plain column, then of each list
    cell. A ``pyarrow.Table`` is hashed one column at a time to the value
    its ``to_pandas()`` frame gets, with no frame built."""
    # list/array columns (e.g. an ANN index's embedding vectors) are
    # unhashable for hash_pandas_object — any cell holding one makes the
    # column an array column, folded in cell by cell
    plain, arrays = [], []
    if isinstance(frame, pa.Table):
        for col in frame.columns:
            if pa.types.is_nested(col.type):
                arrays.append(col.to_pandas())
            else:
                plain.append(col)
        h = (combine_hash_arrays(map(_column_hash, plain), len(plain))
             if plain else None)
    else:
        for c in frame.columns:
            v = frame[c]
            if v.dtype == object and any(isinstance(x, (np.ndarray, list))
                                         for x in v):
                arrays.append(v)
            else:
                plain.append(c)
        h = (pd.util.hash_pandas_object(frame[plain], index=False)
             .to_numpy(dtype=np.uint64) if plain else None)
    crc = 0
    if h is not None:
        crc = zlib.crc32(h.tobytes(), crc)
    for v in arrays:
        for x in v:
            crc = zlib.crc32(_cell_bytes(x), crc)
    return int(crc)


def _manifest_row(tier: str, part: int, frame, t0: float,
                  fingerprint: str, gen: int, **extra) -> dict:
    return {"tier": tier, "part": part, "rows": len(frame),
            "points": len(frame), "checksum": _partition_checksum(frame),
            "wall_s": round(time.perf_counter() - t0, 4),
            "fingerprint": fingerprint, "gen": gen, "layout": LAYOUT,
            **extra}


def _check_layout(rows, what: str):
    """Refuse manifest rows whose files another hash laid out."""
    if any(r.get("layout") != LAYOUT for r in rows):
        raise ValueError(f"{what}: stored files are not of layout "
                         f"{LAYOUT!r}; rebuild the store, do not append")


def _part_path(out_dir: str, tier: str, part: int) -> str:
    return os.path.join(out_dir, f"tier={tier}", f"part={part}.parquet")


def _write_file(tbl: pa.Table, path: str, metadata: dict | None = None):
    """Atomic part-file write of a ``pyarrow.Table`` as it is.
    Dictionary-encode everything (key strings are low-cardinality per
    partition — reference transform.py:30-33 parity) + zstd: ~2× file
    shrink vs snappy at negligible write cost. ``metadata`` entries are
    added to the parquet footer."""
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
    """The store's one exchange, in Arrow: tag rows with their partition
    id, drop partitions in ``skip``, shuffle on the id, run
    ``kernel(part, table) -> [manifest row, ...]`` once per partition,
    and append the rows to the manifest. ``fail_after`` (test hook)
    records only the first N partitions' rows, then raises — the files of
    the others are already replaced, as after a crash between a file
    rename and its manifest append. Rows are tagged with their id in
    ``[0, num_partitions)``; ``part_offset`` is added back for ``skip``
    and for the kernel."""
    local_skip = pa.array([p - part_offset for p in skip], pa.int64())

    def tag(batch: pa.Table) -> pa.Table:
        ids = batch[direct_part_col] if direct_part_col else pa.array(
            K.partition_ids(batch, partition_keys, num_partitions))
        batch = batch.append_column(PART_COL, ids)
        return batch.filter(pc.invert(pc.is_in(ids, local_skip))) \
            if len(local_skip) else batch

    def run(part: int, tbl: pa.Table) -> pd.DataFrame:
        return pd.DataFrame(kernel(part_offset + part, tbl))

    rows = exchange(ds, tag, run, num_partitions, "pyarrow").to_pandas() \
        .to_dict("records")
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
    tiers; their manifest rows chain ``gen``. A hashed write raises
    ``ValueError`` if a partition it would skip is not of :data:`LAYOUT`.
    ``fail_after`` is a test hook: raise after N partitions to simulate a
    mid-job crash.

    ``part_fn(part) -> {tier: table}`` is the per-partition hook: it turns
    one partition's rows (a ``pyarrow.Table``) into the tables of every
    tier it derives (``tier`` among them), each written to its own
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
    if direct_part_col is None:
        _check_layout([prior[(tier, p)] for p in done
                       if 0 <= p - part_offset < num_partitions],
                      f"write_partitioned({tier!r})")
    if shard_id is not None:
        for p in sorted(done):
            owner = prior[(tier, p)].get("shard_id")
            if 0 <= p - part_offset < num_partitions and owner != shard_id:
                raise ValueError(
                    f"tier {tier!r} partition {p} belongs to shard "
                    f"{owner!r}, not {shard_id!r}: an earlier append at "
                    "this offset was abandoned")

    def kernel(part: int, tbl: pa.Table) -> list[dict]:
        t0 = time.perf_counter()
        if sort_cols and part_fn is None:  # sort_by is stable
            tbl = tbl.sort_by([(c, "ascending") for c in sort_cols])
        frames = part_fn(tbl) if part_fn is not None else {tier: tbl}
        rows = []
        for t in _primary_last(frames, tier):
            _write_file(frames[t], _part_path(out_dir, t, part))
            rows.append(_manifest_row(
                t, part, frames[t], t0, f"{t}/{part}/{num_partitions}",
                gens.get((t, part), 0) + 1, **extra))
        return rows

    return _exchange(ds, out_dir, partition_keys, num_partitions, done,
                     kernel, fail_after, part_offset, direct_part_col)


def _read_stored(path: str) -> tuple[pa.Table | None, list[str]]:
    """A stored part file and the ``delta_ids`` its footer says it holds."""
    if not os.path.exists(path):
        return None, []
    old = pq.read_table(path)
    meta = (old.schema.metadata or {}).get(b"delta_ids")
    return old, (json.loads(meta) if meta else [])


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

    - ``merge_plan``: ``{col: (col, op)}`` over the algebraic columns, with
      Arrow hash-aggregate ops ("sum", "min", "max", ...); any derived
      columns (mean/std/labels) in the delta or the stored files are
      dropped before merging and rebuilt by ``finalize_fn(table, tier)``.
      The merge is Arrow end to end: the stored file and the delta are
      concatenated and grouped with ``Table.group_by(...).aggregate``.
    - ``part_fn(part) -> {tier: delta table}``: per-partition hook that
      derives several tiers' deltas (``tier`` among them) from one
      partition's rows (a ``pyarrow.Table``); each is merged into its own
      stored file. ``derive_fn(merged) -> {tier: table}`` rebuilds further
      tiers whole from the merged tables (e.g. Gorilla chunks of the
      merged 1h tier).
    - **Idempotent per** ``delta_id``: each rewritten partition's manifest
      rows record ``delta_id`` and a bumped ``gen``; re-applying the same
      delta (crash-retry of an append job) skips partitions whose latest
      ``tier`` row already carries it, so stats are never double-counted.
      A file whose footer already lists ``delta_id`` (the crash landed
      between its rename and the manifest append) is kept as is.
    - Untouched partitions keep their files and manifest rows; lineage
      stays partition-granular (`gen` chains the rewrites).
    - A store whose ``tier`` rows are not all of :data:`LAYOUT` raises
      ``ValueError`` before any file is touched.
    - ``fail_after``: test hook, as in :func:`write_partitioned`.

    At 100 TB framing the delta is one ingest batch: its tier table is
    orders of magnitude smaller than the stored tiers, and the merge cost
    is proportional to the AFFECTED partitions, not the corpus.
    """
    os.makedirs(os.path.join(out_dir, f"tier={tier}"), exist_ok=True)
    prior = load_done(out_dir)
    _check_layout([row for (t, _), row in prior.items() if t == tier],
                  f"merge_partitioned({tier!r})")
    skip = {p for (t, p), row in prior.items()
            if t == tier and row.get("delta_id") == delta_id}
    gens = {k: int(row.get("gen", 0)) for k, row in prior.items()}
    merge_cols = list(group_keys) + list(merge_plan)
    aggs = [(src, op) for src, op in merge_plan.values()]
    order = [(c, "ascending") for c in sort_cols or ()]

    def merge(t: str, part: int, delta: pa.Table) -> pa.Table:
        path = _part_path(out_dir, t, part)
        old, applied = _read_stored(path)
        if delta_id in applied:
            return old  # metadata backstop: the file already holds it
        tables = [delta.select(merge_cols)]
        if old is not None:
            tables.append(old.select(merge_cols))
        tbl = pa.concat_tables(tables) \
            .group_by(list(group_keys), use_threads=False).aggregate(aggs) \
            .rename_columns(merge_cols)
        if finalize_fn is not None:
            tbl = finalize_fn(tbl, t)
        if order:
            tbl = tbl.sort_by(order)
        _write_file(tbl, path,
                    {b"delta_ids": json.dumps(applied + [delta_id]).encode()})
        return tbl

    def kernel(part: int, tbl: pa.Table) -> list[dict]:
        t0 = time.perf_counter()
        deltas = part_fn(tbl) if part_fn is not None else {tier: tbl}
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
    prior = {p: row for (t, p), row in load_done(out_dir).items()
             if t == tier}
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
        tbl = pf.read()
        kept = tbl.filter(pc.greater_equal(tbl[bucket_col], cutoff_us))
        if len(kept) == len(tbl):
            continue
        if len(kept) == 0:
            os.remove(path)
        else:  # the table keeps its footer metadata (delta_ids) as read
            _write_file(kept, path)
        last = prior.get(part, {"layout": LAYOUT})
        rows.append(_manifest_row(tier, part, kept, t0,
                                  f"{tier}/{part}/expire",
                                  int(last.get("gen", 0)) + 1,
                                  expired_before=int(cutoff_us),
                                  layout=last.get("layout")))  # rows stay
    append_manifest(out_dir, rows)
    return rows


def read_tier(out_dir: str, tier: str):
    """Every file of ``tier`` under ``out_dir`` as one lazy Dataset, with
    the hive ``tier`` string column the ``tier=<t>`` directory adds.

    Ray may pack several ``part=p`` files into one block or split one
    across blocks; nothing relies on how it blocks them. A stage that
    could skip its exchange checks the blocks it is given
    (:func:`forecastframe_ray.stages.agg.copartitioned_blocks`)."""
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
    ``parts`` is empty (schema handling as in :func:`read_tier`). The
    rows carry the files' own columns only: ``partitioning=None`` keeps
    Ray from adding a ``tier`` column from the ``tier=<t>/`` directory."""
    import ray.data

    paths = [_part_path(out_dir, tier, p) for p in parts]
    if not paths:
        return None
    schema = pq.read_schema(paths[0]).remove_metadata()
    return ray.data.read_parquet(paths, schema=schema, partitioning=None)
