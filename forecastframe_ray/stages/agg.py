"""Coarse-hash vectorized aggregation — the engine's groupby physical plan,
and :func:`exchange`, the one wide step under every shuffle in the engine.

``Dataset.groupby(keys).aggregate(...)`` pays a per-group cost that is
catastrophic at high group cardinality (measured: ~80 s for a 100 k-row /
95 k-group merge that the plan below does in 0.4 s). The engine therefore
always shuffles through :func:`exchange`:

1. a stateless ``map_batches`` tags each row with a partition id
   ``__part`` (:data:`PART_COL`) — for keyed stages ``hash(keys) % P``, a
   stable deterministic hash (:func:`forecastframe_ray.keys.partition_ids`);
2. ONE shuffle on the P coarse partitions
   (``groupby("__part").map_groups``);
3. inside each partition, one vectorized kernel over the whole partition
   (for aggregation: a single pandas/Arrow groupby over the real keys —
   C-speed, no per-group Python).

Skew note (SURVEY.md §4): a hot key's rows all land in one partition, but
they arrive pre-reduced by any upstream per-batch combiner and are
aggregated by one C call — the pathological case (per-key reducer tasks)
cannot occur because reducers are the P coarse partitions, not keys.
P ≈ 2–4× cores; each partition must fit a worker heap.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from forecastframe_ray import keys as K

#: the partition-id column every exchange tags its rows with
PART_COL = "__part"


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


def exchange(ds, tag, fn, batch_format: str = "pandas"):
    """The engine's one shuffle: ``map_batches(tag)`` then
    ``groupby(PART_COL).map_groups`` — every wide step goes through here.

    ``tag(batch)`` returns the batch with :data:`PART_COL` appended (an
    integer partition id); it may drop rows (e.g. a resume filter). It gets
    a shallow copy of a pandas batch, so adding the column never touches an
    upstream view. ``fn(part_id, frame)`` runs once per partition with
    every row tagged ``part_id``; ``frame`` never contains ``PART_COL``.
    ``batch_format`` ("pandas" or "pyarrow") is the format both ``tag`` and
    ``fn`` see. ``ds`` may be a list of Datasets: each is tagged, then they
    are unioned — so ``tag`` fuses into each input's last map.

    Zero-row pandas batches leave ``tag`` as typed Arrow blocks (see
    :func:`_typed_empty`); Arrow batches leave it without schema metadata —
    parquet writers attach a ``b"pandas"`` blob, and a ``pa.Schema`` with
    metadata is unhashable (pyarrow 16), which breaks Ray's schema dedup in
    the sort exchange ("Failed to hash the schemas" from every reduce task).
    """
    arrow = batch_format == "pyarrow"

    def tagged(batch):
        if arrow:
            return tag(batch).replace_schema_metadata(None)
        batch = tag(batch.copy(deep=False))
        return _typed_empty(batch) if len(batch) == 0 else batch

    def run(part):
        if arrow:
            return fn(part[PART_COL][0].as_py(), part.drop_columns([PART_COL]))
        return fn(int(part[PART_COL].iloc[0]), part.drop(columns=[PART_COL]))

    first, *rest = [d.map_batches(tagged, batch_format=batch_format)
                    for d in (ds if isinstance(ds, (list, tuple)) else [ds])]
    return ((first.union(*rest) if rest else first)
            .groupby(PART_COL)
            .map_groups(run, batch_format=batch_format))


def keyed_map_partitions(ds, keys: list[str], fn, num_partitions: int = 64,
                         batch_format: str = "pandas"):
    """Key-co-located PARTITION-level kernel: one :func:`exchange` on
    ``hash(keys) % num_partitions``, then ``fn(partition) -> frame`` runs
    once per partition with every row of each key guaranteed co-resident.
    Unlike :func:`bucketed_map_groups` the kernel sees the WHOLE partition,
    so it can stay vectorized across groups (pandas ``groupby().transform``
    etc.) instead of paying a Python loop per key — use this when per-key
    frames are tiny and keys are many (e.g. per-user reductions over
    millions of users). Per-task heap scales with partition size: scale
    ``num_partitions`` with the data, not the CPU count.

    ``batch_format="pyarrow"`` keeps batches ``pyarrow.Table`` through the
    exchange (partition ids from :func:`keys.partition_ids_arrow`; ``fn``
    may return an Arrow table or a DataFrame)."""
    keys = list(keys)

    if batch_format == "pyarrow":
        def tag(batch: pa.Table) -> pa.Table:
            return batch.append_column(PART_COL, pa.array(
                K.partition_ids_arrow(batch, keys, num_partitions),
                type=pa.int32()))
    else:
        def tag(batch: pd.DataFrame) -> pd.DataFrame:
            batch[PART_COL] = K.partition_ids(batch, keys, num_partitions)
            return batch

    return exchange(ds, tag, lambda _, part: fn(part), batch_format)


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
