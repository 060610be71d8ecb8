"""Broadcast-side joins (SURVEY.md §2.4 J1/J2/J6).

The reference joins computed feature columns back onto the base table with a
pandas merge (``/root/reference/forecastframe/utilities.py:157-186``). At
scale the rolled-up side is orders of magnitude smaller than the base grain,
so we broadcast it once via ``ray.put`` and hash-join inside ``map_batches``
— no shuffle of the big side. When both sides are large, use a key-bucketed
join instead (documented in SURVEY.md §2.4; not needed by any reference op).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import ray


#: broadcast objects under this size run as PLAIN TASKS (per-call
#: ``ray.get`` is a local object-store fetch after the first access on a
#: node); only larger objects justify an actor pool's deserialize-once —
#: actor-pool spin-up costs ~1-2 s, a serial floor every broadcast stage
#: would otherwise pay.
_ACTOR_BYTES = 32 << 20


def _df_bytes(obj) -> int:
    try:
        return int(obj.memory_usage(deep=True).sum())
    except AttributeError:
        return _ACTOR_BYTES + 1  # unknown → be safe, use the actor pool


def broadcast_left_join(ds, small_df: pd.DataFrame, on: list[str]):
    """``ds LEFT JOIN small_df USING (on)`` — small side shipped to the object
    store once, merged per batch with a vectorized pandas merge."""
    overlapping = [c for c in small_df.columns if c not in on and c in ds.schema().names]
    if overlapping:
        small_df = small_df.drop(columns=overlapping)
    small_bytes = _df_bytes(small_df)
    ref = ray.put(small_df)

    if small_bytes <= _ACTOR_BYTES:
        def join_fn(batch: pd.DataFrame) -> pd.DataFrame:
            return batch.merge(ray.get(ref), how="left", on=list(on))

        return ds.map_batches(join_fn, batch_format="pandas")

    class Joiner:
        def __init__(self):
            self.small = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            return batch.merge(self.small, how="left", on=list(on))

    return ds.map_batches(Joiner, batch_format="pandas", concurrency=(1, 8))


def broadcast_semi_join(ds, keys_df: pd.DataFrame, on: list[str], anti: bool = False):
    """Keep (or drop, ``anti=True``) rows whose key tuple appears in
    ``keys_df`` — broadcast key-set filter, no shuffle."""
    key_index = pd.MultiIndex.from_frame(keys_df[list(on)].drop_duplicates())
    small = key_index.memory_usage(deep=True) <= _ACTOR_BYTES
    ref = ray.put(key_index)

    if small:
        def filter_fn(batch: pd.DataFrame) -> pd.DataFrame:
            mask = pd.MultiIndex.from_frame(batch[list(on)]).isin(ray.get(ref))
            return batch[~mask] if anti else batch[mask]

        return ds.map_batches(filter_fn, batch_format="pandas")

    class Filterer:
        def __init__(self):
            self.keys = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            mask = pd.MultiIndex.from_frame(batch[list(on)]).isin(self.keys)
            return batch[~mask] if anti else batch[mask]

    return ds.map_batches(Filterer, batch_format="pandas", concurrency=(1, 8))


_JOIN_TYPES = {"inner": "inner", "left": "left_outer",
               "right": "right_outer", "outer": "full_outer"}


def consolidate_for_join(ds, num_partitions: int = 8):
    """Consolidate a mapped/shuffled stream before feeding it to a join
    exchange. Ray Data's JoinOperator INTERMITTENTLY stalls when an input
    arrives as a stream of mostly-empty pass-through blocks (filtered maps,
    coarse-hash shuffles): measured on TPC-H Q3 at sf0.1, the un-consolidated
    plan ran 11.5 / 4.4 / 34.7 / 83.6 s across four identical runs vs
    7.3 / 11.9 / 4.1 / 3.9 s consolidated, identical output. One
    ``repartition(n).materialize()`` folds the empties into real blocks and
    keeps the upstream stages out of the join's streaming DAG (resident-
    aggregator deadlock note in :func:`hash_join`). Use on the SMALLER side;
    materializing a huge side trades the stall for an object-store copy."""
    return ds.repartition(max(2, num_partitions)).materialize()


def hash_join(left, right, on: list[str], how: str = "inner",
              num_partitions: int = 32):
    """Distributed hash join for the both-sides-large case (J3; SURVEY.md
    §2.4) — wraps ``Dataset.join`` (hash-partition exchange on ``on``).
    Prefer :func:`broadcast_left_join` whenever one side is small.

    ``num_partitions`` is CLAMPED to the cluster CPU count: Ray Data's
    JoinOperator keeps one aggregator task per partition resident for the
    whole exchange, so partitions beyond the schedulable slots deadlock the
    streaming DAG (measured: a 359-partition join on 32 CPUs sat at 0
    output blocks for 78 min with the box idle; 35 partitions completed).
    A caller that needs per-partition heap smaller than data/CPUs should
    use a ``groupby(part).map_groups`` merge (sort exchange, no resident
    aggregators) instead — see ``pipelines/dedup.py`` verify text-attach.

    The clamp is LOGGED (warning) when it bites: a caller that sized
    ``num_partitions`` to bound per-task heap gets proportionally fatter
    partitions on a small-CPU cluster — if the clamped partition size can
    exceed a worker heap, switch that call site to the sort-exchange merge
    pattern above (ADVICE r3)."""
    import logging

    import ray

    if ray.is_initialized():
        ncpu = int(ray.cluster_resources().get("CPU", num_partitions))
        clamped = max(2, min(num_partitions, ncpu))
        if clamped < num_partitions:
            logging.getLogger(__name__).warning(
                "hash_join: clamping num_partitions %d -> %d (cluster CPU "
                "slots; Ray's JoinOperator keeps one resident aggregator "
                "per partition and deadlocks past the slot count). "
                "Per-partition heap grows by the same factor — use a "
                "groupby(part).map_groups merge if that can exceed a "
                "worker's memory.", num_partitions, clamped)
        num_partitions = clamped
    return left.join(right, join_type=_JOIN_TYPES[how],
                     num_partitions=num_partitions, on=tuple(on))


def hash_update(ds, patch_ds, on: list[str], num_partitions: int = 32):
    """Distributed J4 (``_update_values``) for a LARGE patch side: left hash
    join on the keys, then per-batch coalesce of the patch's non-NA values —
    no driver materialization of either side."""
    value_cols = [c for c in patch_ds.schema().names if c not in on]
    renames = {c: f"{c}__patch" for c in value_cols}
    # repartition+materialize: consolidate empty blocks (they stall the join
    # exchange) and keep upstream shuffles out of the join's DAG
    patch = patch_ds.map_batches(lambda b: b.rename(columns=renames),
                                 batch_format="pandas") \
        .repartition(max(2, num_partitions // 4)).materialize()
    joined = hash_join(ds, patch, on=on, how="left",
                       num_partitions=num_partitions)

    def coalesce(b: pd.DataFrame) -> pd.DataFrame:
        for c in value_cols:
            src = b[f"{c}__patch"]
            b[c] = src.where(src.notna(), b[c])
        return b.drop(columns=[f"{c}__patch" for c in value_cols])

    return joined.map_batches(coalesce, batch_format="pandas")


def broadcast_update(ds, patch_df: pd.DataFrame, on: list[str]):
    """J4 ``_update_values`` (reference utilities.py:189-211): overwrite
    ``ds`` rows with the non-NA values of ``patch_df`` aligned on ``on``
    (the patch — e.g. restored test actuals — is broadcast once)."""
    value_cols = [c for c in patch_df.columns if c not in on]
    small_bytes = _df_bytes(patch_df)
    ref = ray.put(patch_df)

    def apply_patch(batch: pd.DataFrame, patch: pd.DataFrame) -> pd.DataFrame:
        merged = batch.merge(patch, how="left", on=list(on),
                             suffixes=("", "__patch"))
        for c in value_cols:
            pc_ = f"{c}__patch" if f"{c}__patch" in merged.columns else c
            if c in batch.columns:
                src = merged[pc_]
                merged[c] = src.where(src.notna(), merged[c] if pc_ != c else np.nan)
            else:
                merged[c] = merged[pc_]
            if pc_ != c:
                merged = merged.drop(columns=[pc_])
        return merged[list(batch.columns)]

    if small_bytes <= _ACTOR_BYTES:
        return ds.map_batches(lambda b: apply_patch(b, ray.get(ref)),
                              batch_format="pandas")

    class Updater:
        def __init__(self):
            self.patch = ray.get(ref)

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            return apply_patch(batch, self.patch)

    return ds.map_batches(Updater, batch_format="pandas", concurrency=(1, 8))


# ---------------------------------------------------------------------------
# as-of (nearest-timestamp) joins — a custom operator Ray Data lacks
# ---------------------------------------------------------------------------

def _arrow_schema(ds):
    """Arrow schema of a Dataset regardless of block format: parquet-backed
    datasets report a pa.Schema; from_pandas datasets report a
    PandasBlockSchema (numpy dtypes), mapped here (object -> string — pass
    Arrow blocks for binary columns)."""
    import numpy as np
    import pyarrow as pa

    schema = ds.schema()
    if schema is None:
        raise ValueError(
            "asof_join requires a schema'd Dataset — an empty Dataset with "
            "no inferable schema cannot shape the join output (filter a "
            "typed source to empty instead of passing a bare empty one)")
    bs = schema.base_schema
    if isinstance(bs, pa.Schema):
        return bs
    return pa.schema([
        (n, pa.string() if d == np.dtype("O") else pa.from_numpy_dtype(d))
        for n, d in zip(bs.names, bs.types)])


def _asof_out_schema(left_schema, right_fields: list, on: list[str],
                     promote_ints: bool = True):
    """Output schema for a keyed co-group join: left fields unchanged; right
    value fields with integer/boolean types promoted to float64 when the
    join can leave them null (``promote_ints``) — unmatched left rows hold
    NaN there and pandas upcasts partially-matched int columns to float64,
    so promoting ALWAYS keeps every partition's block schema identical (a
    partition that happens to match fully would otherwise emit int64 and
    break the block union). Inner joins never emit nulls, so they keep
    integer types."""
    import pyarrow as pa

    fields = list(left_schema)
    for f in right_fields:
        if f.name in on:
            continue
        t = f.type
        if promote_ints and (pa.types.is_integer(t)
                             or pa.types.is_boolean(t)):
            t = pa.float64()
        fields.append(pa.field(f.name, t))
    return pa.schema(fields)


def _cogroup_plan(left, right, on: list[str], suffix: str,
                  promote_ints: bool = True):
    """Shared planning for both-sides-large keyed co-group joins: resolve
    right-column renames (collisions get ``suffix``), the unified tagged
    schema, and the output schema."""
    import pyarrow as pa

    lschema, rschema = _arrow_schema(left), _arrow_schema(right)
    lnames = set(lschema.names)
    renames = {c: (c + suffix if c in lnames and c not in on else c)
               for c in rschema.names}
    right_fields = [pa.field(renames[f.name], f.type) for f in rschema
                    if f.name not in on]
    out_schema = _asof_out_schema(lschema, right_fields, on, promote_ints)
    return {
        "renames": renames,
        "out_schema": out_schema,
        "union_fields": ([(f.name, f.type) for f in lschema]
                         + [(f.name, f.type) for f in right_fields]),
        "lcols": list(lschema.names),
        "rcols": list(on) + [f.name for f in right_fields],
    }


def _keyed_cogroup(left, right, on: list[str], plan: dict, frame_kernel,
                   num_partitions: int):
    """Execute a keyed co-group join: tag both sides, hash-partition on
    ``on`` with the same deterministic hash (one coarse shuffle each,
    Arrow-native null padding so schemas unify without upcasts), then run
    ``frame_kernel(lf, rf) -> pd.DataFrame`` once per partition.
    PARTITIONING ASSUMPTION: all rows of a key land in one partition — a
    single pathologically hot key bounds per-task memory at that key's row
    count, the same contract as every keyed window stage (scale the
    partition COUNT with data)."""
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    from forecastframe_ray.stages.agg import keyed_map_partitions

    union_fields, out_schema = plan["union_fields"], plan["out_schema"]
    lcols, rcols = plan["lcols"], plan["rcols"]

    def side_rows(side: int, names_map: dict):
        def fn(t: pa.Table) -> pa.Table:
            t = t.rename_columns([names_map.get(c, c)
                                  for c in t.column_names])
            n = t.num_rows
            cols = {name: (t[name] if name in t.column_names
                           else pa.nulls(n, type=typ))
                    for name, typ in union_fields}
            cols["__side"] = pa.array(np.full(n, side, dtype=np.int8))
            return pa.table(cols)
        return fn

    sides = [left.map_batches(side_rows(0, {}), batch_format="pyarrow"),
             right.map_batches(side_rows(1, plan["renames"]),
                               batch_format="pyarrow")]

    # Ray's groupby shuffle can retype an ALL-NULL column inside a
    # one-sided partition (e.g. a left-only key group: every right-side
    # column is null) to Arrow null / pandas object — merge_asof /
    # range kernels then fail dtype validation. Re-anchor each frame to
    # the planned union types after to_pandas.
    type_fixes = {name: typ for name, typ in union_fields}

    def _coerce(df: pd.DataFrame) -> pd.DataFrame:
        for c in df.columns:
            if df[c].dtype != object:
                continue
            typ = type_fixes.get(c)
            if typ is None:
                continue
            if pa.types.is_timestamp(typ):
                df[c] = pd.to_datetime(df[c]).astype("datetime64[us]")
            elif (pa.types.is_integer(typ) or pa.types.is_floating(typ)):
                df[c] = pd.to_numeric(df[c])
        return df

    def kernel(t: pa.Table) -> pa.Table:
        mask = pc.equal(t["__side"], 0)
        lf = _coerce(t.filter(mask).select(lcols).to_pandas())
        rf = _coerce(t.filter(pc.invert(mask)).select(rcols).to_pandas())
        out = pa.Table.from_pandas(frame_kernel(lf, rf),
                                   schema=out_schema, preserve_index=False)
        # from_pandas attaches dict-valued pandas metadata; downstream
        # shuffles need hashable (metadata-free) schemas (pyarrow 16)
        return out.replace_schema_metadata(None)

    return keyed_map_partitions(sides, on, kernel, num_partitions,
                                batch_format="pyarrow")


def _merge_asof_frames(lf: pd.DataFrame, rf: pd.DataFrame, on: list[str],
                       left_ts: str, right_ts: str, direction: str,
                       tolerance) -> pd.DataFrame:
    lf = lf.sort_values(left_ts, kind="mergesort")
    rf = rf.sort_values(right_ts, kind="mergesort")
    return pd.merge_asof(lf, rf, left_on=left_ts, right_on=right_ts,
                         by=list(on), direction=direction,
                         tolerance=tolerance)


def asof_join(left, right, on: list[str], left_ts: str,
              right_ts: str | None = None, direction: str = "backward",
              tolerance=None, suffix: str = "_r", num_partitions: int = 64):
    """Distributed as-of join (both sides large): for every left row, attach
    the right row with the nearest ``right_ts`` per ``direction``
    ("backward" = latest right_ts <= left_ts, "forward", "nearest") within
    the same ``on`` key group — the time-series join Ray Data's Dataset API
    doesn't provide (reference merges are equality joins only;
    utilities.py:157-211).

    Physical plan: both sides are tagged and hash-partitioned on ``on`` with
    the SAME deterministic hash (one coarse shuffle each, Arrow-native null
    padding so schemas unify without int→float upcasts), then each partition
    runs ONE vectorized ``pandas.merge_asof``. PARTITIONING ASSUMPTION: all
    rows of a key land in one partition — a single pathologically hot key
    bounds per-task memory at that key's row count, the same contract as
    every keyed window stage (scale the partition COUNT with data).

    Right value columns colliding with left names get ``suffix``. Right-side
    timestamp ties within a key are resolved by pandas (last sorted row) —
    pre-aggregate the right side to unique (key, ts) when determinism
    matters. ``tolerance`` is a ``pd.Timedelta`` (or numeric) match window.
    """
    right_ts = right_ts or left_ts
    plan = _cogroup_plan(left, right, on, suffix)
    r_ts_out = plan["renames"][right_ts]

    def frame_kernel(lf: pd.DataFrame, rf: pd.DataFrame) -> pd.DataFrame:
        return _merge_asof_frames(lf, rf, on, left_ts, r_ts_out,
                                  direction, tolerance)

    return _keyed_cogroup(left, right, on, plan, frame_kernel,
                          num_partitions)


_CLOSED_OPS = {"left": (np.greater_equal, np.less),
               "right": (np.greater, np.less_equal),
               "both": (np.greater_equal, np.less_equal),
               "neither": (np.greater, np.less)}


def _range_match_frames(lf: pd.DataFrame, rf: pd.DataFrame, on: list[str],
                        left_ts: str, start_col: str, end_col: str,
                        how: str, closed: str) -> pd.DataFrame:
    """Equality-merge on the keys, then the interval mask — vectorized; the
    per-key expansion is bounded by intervals-per-key (see range_join)."""
    ge, lt = _CLOSED_OPS[closed]
    lf = lf.reset_index(drop=True)
    lf["__lrow"] = np.arange(len(lf), dtype=np.int64)
    m = lf.merge(rf, on=list(on))
    ts = m[left_ts].to_numpy()
    mask = ge(ts, m[start_col].to_numpy()) & lt(ts, m[end_col].to_numpy())
    matched = m[mask]
    if how == "left":
        missing = lf[~lf["__lrow"].isin(matched["__lrow"])]
        matched = pd.concat([matched, missing], ignore_index=True)
    return matched.drop(columns="__lrow")


def range_join(left, right, on: list[str], left_ts: str, start_col: str,
               end_col: str, how: str = "inner", closed: str = "left",
               suffix: str = "_r", num_partitions: int = 64):
    """Distributed range (interval) join: match every left row to the right
    rows whose ``[start_col, end_col)`` interval contains ``left_ts`` within
    the same ``on`` key group (``closed`` picks the boundary convention;
    ``how="left"`` keeps unmatched left rows with null right columns). A
    left row matching k intervals emits k rows — the other custom join the
    Dataset API lacks.

    Physical plan: same keyed co-group as :func:`asof_join` (one coarse
    shuffle per side, one vectorized kernel per partition). The kernel's
    expansion is (left rows per key) × (intervals per key) BEFORE the mask —
    the operator assumes intervals-per-key is bounded (calendar windows,
    promo periods, session windows); for unbounded interval sides, bucket by
    time range first."""
    plan = _cogroup_plan(left, right, on, suffix,
                         promote_ints=(how == "left"))
    start_out, end_out = plan["renames"][start_col], plan["renames"][end_col]

    def frame_kernel(lf: pd.DataFrame, rf: pd.DataFrame) -> pd.DataFrame:
        return _range_match_frames(lf, rf, on, left_ts, start_out, end_out,
                                   how, closed)

    return _keyed_cogroup(left, right, on, plan, frame_kernel,
                          num_partitions)


def broadcast_range_join(ds, intervals_df: pd.DataFrame, on: list[str],
                         left_ts: str, start_col: str, end_col: str,
                         how: str = "inner", closed: str = "left",
                         suffix: str = "_r"):
    """Range join against a SMALL interval table (broadcast once, one local
    vectorized match per batch — no shuffle of the big side). Same
    semantics as :func:`range_join`."""
    import pyarrow as pa

    lschema = _arrow_schema(ds)
    lnames = set(lschema.names)
    intervals_df = intervals_df.rename(columns={
        c: c + suffix for c in intervals_df.columns
        if c in lnames and c not in on})
    start_out = start_col + suffix if (start_col in lnames
                                       and start_col not in on) else start_col
    end_out = end_col + suffix if (end_col in lnames
                                   and end_col not in on) else end_col
    rschema = pa.Schema.from_pandas(intervals_df)
    right_fields = [f for f in rschema if f.name not in on]
    out_schema = _asof_out_schema(lschema, right_fields, on,
                                  promote_ints=(how == "left"))
    ref = ray.put(intervals_df)

    def join_fn(t: pa.Table) -> pa.Table:
        out = _range_match_frames(t.to_pandas(), ray.get(ref), on, left_ts,
                                  start_out, end_out, how, closed)
        return pa.Table.from_pandas(out, schema=out_schema,
                                    preserve_index=False) \
            .replace_schema_metadata(None)

    return ds.map_batches(join_fn, batch_format="pyarrow")


def broadcast_asof_join(ds, right_df: pd.DataFrame, on: list[str],
                        left_ts: str, right_ts: str | None = None,
                        direction: str = "backward", tolerance=None,
                        suffix: str = "_r"):
    """As-of join against a SMALL right side: the right table ships to the
    object store once and every batch runs one local ``merge_asof`` — no
    shuffle of the big side at all (the scale path when the right side is a
    dimension-snapshot history). Same semantics/suffix rules as
    :func:`asof_join`."""
    import pyarrow as pa

    right_ts = right_ts or left_ts
    lschema = _arrow_schema(ds)
    lnames = set(lschema.names)
    right_df = right_df.rename(columns={
        c: c + suffix for c in right_df.columns
        if c in lnames and c not in on})
    r_ts_out = right_ts + suffix if (right_ts in lnames
                                     and right_ts not in on) else right_ts
    rschema = pa.Schema.from_pandas(right_df)
    right_fields = [f for f in rschema if f.name not in on]
    out_schema = _asof_out_schema(lschema, right_fields, on)
    ref = ray.put(right_df.sort_values(r_ts_out, kind="mergesort"))

    def join_fn(t: pa.Table) -> pa.Table:
        lf = t.to_pandas().sort_values(left_ts, kind="mergesort")
        out = pd.merge_asof(lf, ray.get(ref), left_on=left_ts,
                            right_on=r_ts_out, by=list(on),
                            direction=direction, tolerance=tolerance)
        return pa.Table.from_pandas(out, schema=out_schema,
                                    preserve_index=False) \
            .replace_schema_metadata(None)

    return ds.map_batches(join_fn, batch_format="pyarrow")
