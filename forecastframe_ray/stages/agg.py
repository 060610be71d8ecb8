"""Coarse-hash vectorized aggregation — the engine's groupby physical plan,
and :func:`exchange`, the one wide step under every shuffle in the engine.

``Dataset.groupby(keys).aggregate(...)`` pays a per-group cost that is
catastrophic at high group cardinality (measured: ~80 s for a 100 k-row /
95 k-group merge that the plan below does in 0.4 s). The engine therefore
always shuffles through :func:`exchange`:

1. a stateless ``map_batches`` tags each row with a partition id
   ``__part`` (:data:`PART_COL`) — for keyed stages ``hash(keys) % P``
   over Arrow key columns (:func:`forecastframe_ray.keys.partition_ids`);
2. ONE shuffle: a sort on ``__part`` into k contiguous id ranges, at
   boundaries taken from the known id range ``[0, P)`` — no sampling
   pass, one reduce block per range. k is one range per CPU slot, raised
   to ⌈P/4⌉ (:data:`PARTS_PER_RANGE`) when P outgrows the slots. With
   k = 1 there is no sort: the tagged blocks are concatenated into one;
3. one ``map_batches(batch_size=None)`` task per range runs, for each
   partition id in it, one vectorized kernel over the whole partition
   (for aggregation: a single pandas/Arrow groupby over the real keys —
   C-speed, no per-group Python).

Skew note (SURVEY.md §4): a hot key's rows all land in one partition, but
they arrive pre-reduced by any upstream per-batch combiner and are
aggregated by one C call — the pathological case (per-key reducer tasks)
cannot occur because reducers are the k id ranges, not keys. P sets the
kernel's grain and k the task count: a reduce block holds ⌈P/k⌉ ≤ 4
partitions, so four partitions together must fit a worker heap — scale P
with the data and k follows it. :func:`partition_count` is that rule: the
dedup stages size P from the rows they hold (:func:`known_rows` of a
materialized input, or a count they already have), so a small input runs
few tasks and a large one bounds each task's heap; a store layout keeps
its own P.

:func:`reduce` is the one global reduce beside the one shuffle: every
whole-Dataset min/max, sum, moment or distinct set is a per-block partial
(one plain task per block) combined on the driver. Beside it,
:func:`copartitioned_blocks` tells, the same way, whether a materialized
input already holds every key inside one block, so a keyed stage may skip
the shuffle.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from forecastframe_ray import keys as K

#: the partition-id column every exchange tags its rows with
PART_COL = "__part"

#: most partition ids one reduce block (one task) holds. A P sized for
#: parallelism (≈ 2–4× the CPU slots) gets one id range per slot; a P
#: scaled past that with the data gets ⌈P/4⌉ ranges, so a task's heap stays
#: bounded by four partitions however large the input grows
PARTS_PER_RANGE = 4


def _typed_empty(batch: pd.DataFrame) -> pa.Table:
    """A zero-row pandas batch as a typed Arrow block. Ray's pandas block
    size sampler trips on zero-row string columns (np.vectorize on empty
    input) and logs a spurious error per empty block. Zero-row object
    columns infer as Arrow null: cast them to string so the exchange can
    union this block with non-empty ones."""
    tbl = pa.Table.from_pandas(batch, preserve_index=False)
    return tbl.cast(pa.schema(
        [pa.field(f.name, pa.string()) if pa.types.is_null(f.type) else f
         for f in tbl.schema]))


def _cpu_slots() -> int:
    """The cluster's CPU slots (the machine's CPUs before ``ray.init``)."""
    return int(ray.cluster_resources().get("CPU", 1)) \
        if ray.is_initialized() else os.cpu_count() or 1


def range_count(num_partitions: int) -> int:
    """k, the number of contiguous partition-id ranges (reduce blocks) an
    exchange over ``num_partitions`` ids sorts into: one per CPU slot, or
    ⌈P / :data:`PARTS_PER_RANGE`⌉ if that is more, never more than the
    ids — so no range holds more than ``PARTS_PER_RANGE`` partitions."""
    per_parts = -(-num_partitions // PARTS_PER_RANGE)
    return max(1, min(num_partitions, max(_cpu_slots(), per_parts)))


def partition_count(rows: int, rows_per_part: int = 100_000,
                    floor_rows: int = 1_000) -> int:
    """P for an exchange over ``rows`` rows: ~``rows_per_part`` rows a
    partition, so a kernel's heap stays bounded as the input grows
    (measured: 17M MinHash candidate rows over 32 partitions ran ~3 GB a
    task and OOM-killed workers); below that, one partition per
    ``floor_rows`` rows up to :data:`PARTS_PER_RANGE` per CPU slot, so a
    mid-sized input fills every slot with one id range (:func:`range_count`)
    and a tiny one runs as one task instead of paying per-task cost for
    near-empty partitions."""
    return max(1, min(PARTS_PER_RANGE * _cpu_slots(), -(-rows // floor_rows)),
               -(-rows // rows_per_part))


def known_rows(ds) -> int | None:
    """The row count of a ``MaterializedDataset``, read from its blocks'
    metadata, else None: sizing a stage never starts an execution."""
    from ray.data.dataset import MaterializedDataset

    return ds.count() if isinstance(ds, MaterializedDataset) else None


def exchange(ds, tag, fn, num_partitions: int, batch_format: str = "pandas"):
    """The engine's one shuffle: ``map_batches(tag)``, a sort on
    :data:`PART_COL` into k = :func:`range_count` contiguous id ranges at
    explicit boundaries, then one ``map_batches(batch_size=None)`` task per
    range — every wide step goes through here. With k = 1 the tagged
    blocks are concatenated into one block (``repartition(1)``, no sort),
    which the one task orders on :data:`PART_COL` itself.

    ``tag(batch)`` returns the batch with :data:`PART_COL` appended, an
    integer partition id in ``[0, num_partitions)``; it may drop rows (e.g.
    a resume filter). It gets a shallow copy of a pandas batch, so adding
    the column never touches an upstream view. ``fn(part_id, frame)`` runs
    once per partition id present, with every row tagged ``part_id``, in id
    order within a range; ``frame`` never contains ``PART_COL``.
    ``batch_format`` ("pandas" or "pyarrow") is the format both ``tag`` and
    ``fn`` see. ``ds`` may be a list of Datasets: each is tagged, then they
    are unioned — so ``tag`` fuses into each input's last map.

    The ids are known to lie in ``[0, num_partitions)``, so the sort takes
    its boundaries from them and skips Ray's sampling pass. A reduce block
    holds ⌈P/k⌉ ≤ :data:`PARTS_PER_RANGE` partitions, so that many
    partitions together must fit a worker heap.

    Zero-row pandas batches leave ``tag`` as typed Arrow blocks (see
    :func:`_typed_empty`); Arrow batches leave it without schema metadata —
    parquet writers attach a ``b"pandas"`` blob, and a ``pa.Schema`` with
    metadata is unhashable (pyarrow 16), which breaks Ray's schema dedup in
    the sort ("Failed to hash the schemas" from every reduce task).
    """
    from ray.data.block import BlockAccessor

    arrow = batch_format == "pyarrow"

    def tagged(batch):
        if arrow:
            return tag(batch).replace_schema_metadata(None)
        batch = tag(batch.copy(deep=False))
        return _typed_empty(batch) if len(batch) == 0 else batch

    k = range_count(num_partitions)

    def run(block):
        # the block is sorted on PART_COL (a stable sort here for the one
        # range): each id's rows are one slice, in input order
        acc = BlockAccessor.for_block(block)
        ids = acc.to_numpy(PART_COL)
        if k == 1:
            order = np.argsort(ids, kind="stable")
            acc, ids = BlockAccessor.for_block(acc.take(order)), ids[order]
        cuts = np.flatnonzero(ids[1:] != ids[:-1]) + 1
        for lo, hi in zip([0, *cuts], [*cuts, len(ids)]):
            part = BlockAccessor.for_block(acc.slice(lo, hi, copy=False)) \
                .to_batch_format(batch_format)
            yield fn(int(ids[lo]), part.drop_columns([PART_COL]) if arrow
                     else part.drop(columns=[PART_COL]))

    first, *rest = [d.map_batches(tagged, batch_format=batch_format)
                    for d in (ds if isinstance(ds, (list, tuple)) else [ds])]
    inputs = first.union(*rest) if rest else first
    ranged = inputs.repartition(1, shuffle=False) if k == 1 \
        else inputs.sort(PART_COL, boundaries=[i * num_partitions // k
                                               for i in range(1, k)])
    return ranged.map_batches(run, batch_size=None, batch_format=None)


@ray.remote
def _block_partial(partial, block):
    from ray.data.block import BlockAccessor
    return partial(BlockAccessor.for_block(block).to_pandas())


def block_refs(ds) -> list:
    """The object refs of ``ds``'s non-empty blocks: a materialized ``ds``
    starts no Ray Data execution, a lazy plan runs exactly once."""
    return [ref for bundle in ds.iter_internal_ref_bundles()
            for ref, meta in bundle.blocks if meta.num_rows != 0]


def reduce(ds, partial, combine):
    """The engine's one global reduce: ``combine(pd.concat(parts))`` where
    ``parts`` holds ``partial(block)`` of every non-empty block of ``ds``
    (as pandas), each run as one plain ``ray.remote`` task. ``combine`` runs
    on the driver and must not depend on block order; with no non-empty
    block it gets an empty, column-less frame. A materialized ``ds`` starts
    no Ray Data execution; a lazy plan runs exactly once."""
    fn = ray.put(partial)
    parts = ray.get([_block_partial.remote(fn, ref) for ref in block_refs(ds)])
    return combine(pd.concat(parts, ignore_index=True) if parts
                   else pd.DataFrame())


@ray.remote
def _block_part_ids(keys, num_partitions, block):
    return np.unique(K.partition_ids(block, keys, num_partitions))


def copartitioned_blocks(ds, keys: list[str], num_partitions: int):
    """The refs of ``ds``'s non-empty blocks when no partition id of
    ``keys`` (:func:`keys.partition_ids` over ``num_partitions``) is in two
    of them — every key's rows are then inside one block — else None.

    Only a ``MaterializedDataset`` with at least min(P, CPU slots) non-empty
    blocks qualifies, so kernels run once per block never fill fewer CPU
    slots than an :func:`exchange`'s id ranges would. The id sets come from one plain
    task per block, as in :func:`reduce`: no Ray Data execution starts.
    The check reads the blocks as they are, so it holds however a read
    packed or split the files behind them."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        return None
    refs = block_refs(ds)
    if len(refs) < min(num_partitions, _cpu_slots()):
        return None
    ids = ray.get([_block_part_ids.remote(list(keys), num_partitions, ref)
                   for ref in refs])
    seen = np.concatenate(ids)
    return refs if len(np.unique(seen)) == len(seen) else None


def column_ranges(ds, cols: list[str]) -> dict[str, tuple]:
    """``{col: (min, max)}`` over the whole Dataset through :func:`reduce`,
    nulls skipped; an empty or all-null column gives ``(None, None)``."""
    def scalar(x):
        return None if pd.isna(x) else x.item() \
            if isinstance(x, np.generic) else x

    def combine(parts: pd.DataFrame) -> dict[str, tuple]:
        parts = parts.reindex(columns=cols)  # rows: min, max per block
        lo, hi = parts.iloc[0::2].min(), parts.iloc[1::2].max()
        return {c: (scalar(lo[c]), scalar(hi[c])) for c in cols}

    return reduce(ds, lambda b: b[cols].agg(["min", "max"]), combine)


def distinct_values(ds, cols: list[str]) -> dict[str, list]:
    """``{col: sorted distinct non-null values}`` of every column of
    ``cols`` in one :func:`reduce`."""
    def combine(parts: pd.DataFrame) -> dict[str, list]:
        parts = parts.reindex(columns=["__col", "__v"])
        return {c: sorted(parts.loc[parts["__col"] == c, "__v"].unique()
                          .tolist()) for c in cols}

    return reduce(ds, lambda b: b[cols].melt(var_name="__col", value_name="__v")
                  .dropna().drop_duplicates(), combine)


def merge_moments(ns, means, m2s):
    """Chan et al.'s parallel update: fold per-block ``(n, mean, M2)``
    partials (M2 = Σ(x − mean)², ``M2 / (n − 1)`` the ddof=1 variance) into
    one, without the Σx² − (Σx)²/n cancellation. A vector mean merges with
    its co-moment matrix M2 = Σ(x − mean)(x − mean)ᵀ the same way."""
    n, mean, m2 = 0, 0.0, 0.0
    for nb, mb, m2b in zip(ns, means, m2s):
        if nb == 0:
            continue
        delta, tot = mb - mean, n + nb
        m2 = m2 + (m2b + np.multiply.outer(delta, delta) * n * nb / tot)
        mean = mean + delta * nb / tot
        n = tot
    return int(n), mean, m2


def without_schema_metadata(ds):
    """``ds`` with its blocks' schema metadata dropped — the input form of a
    Ray-native wide step outside :func:`exchange` (``Dataset.sort``) and of
    a lazy join side the join materializes (``join._materialized``).
    Pandas-written parquet and pandas blocks carry a ``b"pandas"`` blob that
    makes the Arrow schema unhashable (pyarrow 16), so Ray's schema dedup
    logs "Failed to hash the schemas" from every task that merges such
    blocks."""
    return ds.map_batches(lambda t: t.replace_schema_metadata(None),
                          batch_format="pyarrow", batch_size=None)


def keyed_map_partitions(ds, keys: list[str], fn, num_partitions: int = 64,
                         batch_format: str = "pandas"):
    """Key-co-located PARTITION-level kernel: one :func:`exchange` on
    ``hash(keys) % num_partitions``, then ``fn(partition) -> frame`` runs
    once per partition with every row of each key guaranteed co-resident.
    Unlike :func:`bucketed_map_groups` the kernel sees the WHOLE partition,
    so it can stay vectorized across groups (pandas ``groupby().transform``
    etc.) instead of paying a Python loop per key — use this when per-key
    frames are tiny and keys are many (e.g. per-user reductions over
    millions of users). ``fn`` runs on one partition at a time, but a
    task holds its whole id range, at most :data:`PARTS_PER_RANGE`
    partitions: the kernel's heap scales with the partition and the task's
    with four of them, so scale ``num_partitions`` with the data, not the
    CPU count.

    ``batch_format="pyarrow"`` keeps batches ``pyarrow.Table`` through the
    exchange (``fn`` may return an Arrow table or a DataFrame). Either way
    rows take their partition id from :func:`keys.partition_ids`."""
    keys = list(keys)

    def tag(batch):
        ids = K.partition_ids(batch, keys, num_partitions)
        if isinstance(batch, pa.Table):
            return batch.append_column(PART_COL, pa.array(ids))
        batch[PART_COL] = ids
        return batch

    return exchange(ds, tag, lambda _, part: fn(part), num_partitions,
                    batch_format)


def ensure_columns(df: pd.DataFrame, dtypes: dict[str, str]) -> pd.DataFrame:
    """Reattach a typed schema to an all-empty collected result.

    When every block of a grouped Dataset is empty, the group UDF never ran
    (Ray passes empty blocks through untouched) and ``to_pandas()`` yields a
    column-less frame; this restores the expected columns/dtypes so
    downstream code needs no per-site defensive checks."""
    if len(df) == 0 and any(c not in df.columns for c in dtypes):
        return pd.DataFrame({c: pd.Series([], dtype=t)
                             for c, t in dtypes.items()})
    return df


def hash_aggregate(ds, keys: list[str], named_aggs: dict[str, tuple[str, str]],
                   num_partitions: int = 64, hash_keys: list[str] | None = None):
    """``ds.groupby(keys).agg(**named_aggs)`` with pandas semantics
    (skipna aggs; all-NaN sum → 0.0), executed as one coarse-hash shuffle +
    per-partition vectorized groupby.

    ``named_aggs``: ``{out_col: (in_col, op)}`` with any pandas groupby op
    ("sum", "mean", "min", "max", "std", "median", "size", "first", ...).
    ``hash_keys``: subset of ``keys`` to hash on (default all) — hash on a
    prefix to co-locate related groups for a downstream keyed stage.
    """
    keys = list(keys)
    hk = list(hash_keys) if hash_keys else keys

    # Arrow fast path (VERDICT r1 #8): every sum/min/max/mean/first/count/size
    # aggregation stays pyarrow end-to-end; pandas (object-string allocation)
    # only for ops Arrow lacks (std/median/skew/...).
    if {op for _, op in named_aggs.values()} <= (_ARROW_OPS | {"size"}):
        return hash_aggregate_arrow(ds, keys, named_aggs, num_partitions,
                                    hash_keys, pandas_null_semantics=True)

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        # observed=True: with categorical keys (compress() converts strings
        # to category) the pandas-2.x observed=False default emits a row for
        # every UNOBSERVED dictionary value too — each shuffled partition
        # carries the full dictionary, so the merged result held duplicate
        # keys + NaN fillers (ADVICE r3). Non-categorical keys are unaffected.
        return (
            part.groupby(keys, sort=False, dropna=False, observed=True)
            .agg(**named_aggs)
            .reset_index()
        )

    return keyed_map_partitions(ds, hk, merge, num_partitions)


#: pyarrow group_by function names usable in the pure-Arrow path
_ARROW_OPS = {"sum", "min", "max", "mean", "first", "count"}


def hash_aggregate_arrow(ds, keys: list[str],
                         named_aggs: dict[str, tuple[str, str]],
                         num_partitions: int = 64,
                         hash_keys: list[str] | None = None,
                         pandas_null_semantics: bool = False):
    """Pure-Arrow :func:`hash_aggregate` (ops limited to ``_ARROW_OPS`` plus
    ``size``): batches stay ``pyarrow.Table`` end-to-end — no object-string
    pandas materialization in the hot path (string keys are
    dictionary-hashed for the partition id, and the per-partition merge is
    ``Table.group_by``, ~2× pandas and far lighter on allocation).

    ``count`` counts NON-NULL values (pandas ``count`` agrees); ``size`` is
    ``count(*)`` — implemented as sum over a synthesized ones column.
    ``pandas_null_semantics=True`` additionally matches pandas groupby on
    all-null groups (``sum`` → 0 rather than Arrow's null).
    """
    keys = list(keys)
    hk = list(hash_keys) if hash_keys else keys
    plan, sum_like = [], []
    for out, (in_col, op) in named_aggs.items():
        if op == "size":
            plan.append(("__ones", "sum"))
            sum_like.append(out)
        else:
            if op not in _ARROW_OPS:
                raise ValueError(
                    f"op {op!r} is not Arrow-supported (have {_ARROW_OPS})")
            plan.append((in_col, op))
            if op == "sum":
                sum_like.append(out)
    out_names = list(named_aggs.keys())
    need_ones = any(c == "__ones" for c, _ in plan)

    def merge(part: pa.Table) -> pa.Table:
        if need_ones:  # rows are raw input rows: count(*) = Σ 1
            part = part.append_column(
                "__ones", pa.array(np.ones(len(part), dtype=np.int64)))
        agg = part.group_by(keys, use_threads=False).aggregate(plan)
        # arrow names results "<col>_<op>" in plan order, after the keys —
        # rename positionally to the requested output names; check the
        # layout so a future pyarrow reorder/dedupe fails loudly rather
        # than silently mislabeling columns (a hard raise, not an assert:
        # this must survive ``python -O``)
        if agg.num_columns != len(keys) + len(plan) \
                or agg.column_names[: len(keys)] != keys:
            raise RuntimeError(
                "pyarrow group_by output layout changed: "
                f"{agg.column_names} vs keys={keys} plan={plan}")
        agg = agg.rename_columns(keys + out_names)
        if pandas_null_semantics:
            for out in sum_like:  # pandas all-NaN sum (min_count=0) → 0
                col = agg[out]
                if col.null_count:
                    agg = agg.set_column(
                        agg.column_names.index(out), out,
                        col.combine_chunks().fill_null(0))
        return agg

    return keyed_map_partitions(ds, hk, merge, num_partitions,
                                batch_format="pyarrow")


def hash_count(ds, keys: list[str], out_col: str = "n",
               num_partitions: int = 64):
    """Row counts per key tuple (``count(*)`` semantics via ``size``)."""
    k0 = keys[0]
    return hash_aggregate(ds, keys, {out_col: (k0, "size")}, num_partitions)


def bucketed_map_groups(ds, bucket_keys: list[str], fn,
                        num_partitions: int = 64, min_size: int = 1):
    """Per-bucket kernels (e.g. LSH candidate verification) without a
    per-bucket shuffle: one coarse shuffle on ``hash(bucket_keys)``, then the
    kernel runs over each bucket's sub-frame inside the partition.

    ``fn(sub_df) -> DataFrame`` is called once per distinct bucket (Python
    loop over buckets, vectorized inside — buckets are small by design).
    ``min_size=2`` drops singleton buckets with one vectorized mask before
    the loop — for LSH the overwhelming majority of buckets are singletons
    and can never produce a pair.
    """
    bucket_keys = list(bucket_keys)

    def run(part: pd.DataFrame) -> pd.DataFrame:
        if min_size > 1:
            part = part[part.duplicated(subset=bucket_keys, keep=False)]
        outs = []
        for _, g in part.groupby(bucket_keys, sort=False, dropna=False,
                                 observed=True):
            out = fn(g)
            if out is not None and len(out):
                outs.append(out)
        if not outs:
            return fn(part.iloc[0:0])  # empty frame with the output schema
        return pd.concat(outs, ignore_index=True)

    return keyed_map_partitions(ds, bucket_keys, run, num_partitions)


def compact_latest(ds, keys: list[str], order_by: list[str],
                   num_partitions: int = 64):
    """CDC-style compaction: keep each key's single row with the greatest
    ``order_by`` tuple (callers should end ``order_by`` with a unique column
    so ties are deterministic) — SQL ``row_number() OVER (PARTITION BY keys
    ORDER BY order_by DESC) = 1``.

    Streaming shape: a per-batch pre-compaction (combiner) bounds the
    shuffle to ≤ 1 row per (key, batch) before ONE coarse-hash exchange; the
    same vectorized kernel (stable sort + ``drop_duplicates(keep='last')``)
    then finishes each partition. Full rows ride along — no second lookup
    join to re-fetch payload columns."""
    keys, order_by = list(keys), list(order_by)

    def local(b: pd.DataFrame) -> pd.DataFrame:
        # na_position="first": NULL order values LOSE to any real value,
        # matching the SQL twin's DESC NULLS LAST row_number semantics
        b = b.sort_values(order_by, kind="mergesort", na_position="first")
        return b.drop_duplicates(subset=keys, keep="last")

    return keyed_map_partitions(ds.map_batches(local, batch_format="pandas"),
                                keys, local, num_partitions)
