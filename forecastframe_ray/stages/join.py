"""Joins (SURVEY.md §2.4 J1-J6).

The reference joins computed feature columns back onto the base table with a
pandas merge (``/root/reference/forecastframe/utilities.py:157-186``). At
scale the rolled-up side is orders of magnitude smaller than the base grain,
so we broadcast it once via ``ray.put`` and hash-join inside ``map_batches``
— no shuffle of the big side. When both sides are large, :func:`hash_join`,
:func:`asof_join` and :func:`range_join` run one keyed co-group: both sides
hash-partitioned on the keys through ``agg.exchange``, one vectorized pandas
kernel per partition.

Every "keep the rows whose key is in this set" filter in the engine is
:func:`broadcast_semi_join`, whatever the key set's size. Only the left
joins, which ship whole frames, switch to an actor pool above
:data:`_ACTOR_BYTES`.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from forecastframe_ray import keys as K
from forecastframe_ray.stages.agg import (_typed_empty, block_refs,
                                          keyed_map_partitions,
                                          without_schema_metadata)


#: broadcast objects under this size run as PLAIN TASKS (per-call
#: ``ray.get`` is a local object-store fetch after the first access on a
#: node); only larger objects justify an actor pool's deserialize-once —
#: actor-pool spin-up costs ~1-2 s, a serial floor every broadcast stage
#: would otherwise pay.
_ACTOR_BYTES = 32 << 20


def _df_bytes(df: pd.DataFrame) -> int:
    return int(df.memory_usage(deep=True).sum())


def actor_map(ds, load, fn):
    """``fn(batch, load())`` over every pandas batch of ``ds``, ``load``
    run once per actor of a pool. Ray 2.49 gives every pool actor
    constructor arguments in the object store and logs an error-level line
    for a pool that may restart, so a dead actor fails the stage instead."""
    class Loaded:
        def __init__(self):
            self.state = load()

        def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
            return fn(batch, self.state)

    return ds.map_batches(Loaded, batch_format="pandas", concurrency=(1, 8),
                          max_restarts=0)


def _broadcast_map(ds, obj, nbytes: int, fn):
    """``fn(batch, obj)`` over every pandas batch of ``ds``, with ``obj``
    shipped to the object store once: plain tasks when ``nbytes`` is at most
    :data:`_ACTOR_BYTES`, otherwise an :func:`actor_map` that deserializes
    it once per actor."""
    ref = ray.put(obj)
    if nbytes <= _ACTOR_BYTES:
        return ds.map_batches(lambda b: fn(b, ray.get(ref)),
                              batch_format="pandas")
    return actor_map(ds, lambda: ray.get(ref), fn)


def broadcast_left_join(ds, small_df: pd.DataFrame, on: list[str]):
    """``ds LEFT JOIN small_df USING (on)`` — small side shipped to the object
    store once, merged per batch with a vectorized pandas merge. A non-key
    column present on both sides keeps the batch's values."""
    on = list(on)

    def join_fn(batch: pd.DataFrame, small: pd.DataFrame) -> pd.DataFrame:
        dup = [c for c in small.columns if c not in on and c in batch.columns]
        if dup:
            small = small.drop(columns=dup)
        return batch.merge(small, how="left", on=on)

    return _broadcast_map(ds, small_df, _df_bytes(small_df), join_fn)


def _key_table(frame, on: list[str]) -> pa.Table:
    """``frame``'s key columns as an Arrow table (a DataFrame converts only
    those), dictionaries decoded: the form the semi-join hashes and compares."""
    cols = []
    for k in on:
        col = frame[k]
        col = pa.array(col, from_pandas=True) if isinstance(col, pd.Series) \
            else col.combine_chunks()
        cols.append(col.dictionary_decode()
                    if pa.types.is_dictionary(col.type) else col)
    return pa.table(cols, names=on)


def _same(a: pa.Table, b: pa.Table) -> np.ndarray:
    """Rowwise exact equality of two key tables; a null or NaN equals
    nothing. A signed and an unsigned integer compare by value."""
    eq = np.ones(len(a), dtype=bool)
    for x, y in zip(a.columns, b.columns):
        if pa.types.is_integer(x.type) and pa.types.is_integer(y.type) \
                and pa.types.is_signed_integer(x.type) \
                != pa.types.is_signed_integer(y.type):
            # a uint64 above 2^63 wraps negative: it equals no signed value
            x, y = x.cast(pa.int64(), safe=False), y.cast(pa.int64(), safe=False)
            eq &= np.asarray(pc.and_(pc.equal(x, y), pc.greater_equal(x, 0))
                             .fill_null(False))
        else:
            eq &= np.asarray(pc.equal(x, y).fill_null(False))
    return eq


def _key_index(tbl: pa.Table) -> tuple[np.ndarray, pa.Table]:
    """The semi-join's key index over a key table: its distinct key tuples
    without a null, sorted by :func:`keys.row_hash` (ties by the keys), and
    those hashes."""
    on = tbl.column_names
    for k in on:
        tbl = tbl.filter(pc.invert(tbl[k].is_null(nan_is_null=True)))
    h = K.row_hash(tbl, on)
    order = pc.sort_indices(tbl.append_column("__h", pa.array(h)),
                            [("__h", "ascending")]
                            + [(k, "ascending") for k in on])
    tbl, h = tbl.take(order), h[order.to_numpy()]
    keep = np.ones(len(h), dtype=bool)
    keep[1:] = (h[1:] != h[:-1]) \
        | ~_same(tbl.slice(1), tbl.slice(0, max(len(h) - 1, 0)))
    return h[keep], tbl.filter(keep).combine_chunks()


@ray.remote
def _dataset_key_index(on: list[str], *blocks):
    tables = [_key_table(b, on) for b in blocks]
    return _key_index(pa.concat_tables(tables, promote_options="permissive")
                      if tables else pa.table({}))


def _probe(batch: pd.DataFrame, index, on: list[str], anti: bool):
    """``batch``'s rows whose key tuple is in ``index`` (or, ``anti``, is
    not): ``searchsorted`` on the row hash, then exact equality against
    each candidate of the run of equal hashes. The probe walks the index
    in hash order (sorted needles), which keeps it in cache."""
    hashes, rows = index
    keys = _key_table(batch, on)
    h = K.row_hash(keys, on)
    order = np.argsort(h)
    lo = np.searchsorted(hashes, h[order], side="left")
    run = np.searchsorted(hashes, h[order], side="right") - lo
    hit = np.zeros(len(batch), dtype=bool)
    for j in range(run.max(initial=0)):
        cand = run > j
        at = order[cand]
        hit[at[_same(keys.take(at), rows.take(lo[cand] + j))]] = True
    out = batch[~hit if anti else hit]
    return out if len(out) else _typed_empty(out)


def broadcast_semi_join(ds, keys, on: list[str], anti: bool = False):
    """Keep (or drop, ``anti=True``) the rows of ``ds`` whose key tuple is
    in ``keys`` (a DataFrame or a Dataset holding the ``on`` columns): the
    engine's one membership filter, with no shuffle of ``ds``.

    The key index (:func:`_key_index`) is built once and shipped by
    reference: on the driver for a DataFrame, else in one plain task over
    the Dataset's block refs, so the driver never holds the keys and
    materialized keys start no Ray Data execution. Plain tasks filter each
    pandas batch of ``ds`` (:func:`_probe`). Keys match by value across
    integer widths and signedness, ``-0.0`` equals ``0.0``, a ``category``
    matches its values, an integer never equals a float, and a null in any
    key column never matches (:func:`hash_join`'s rule)."""
    on = list(on)
    if isinstance(keys, pd.DataFrame):
        ref = ray.put(_key_index(_key_table(keys, on)))
    else:
        ref = _dataset_key_index.remote(on, *block_refs(keys))
    return ds.map_batches(lambda b: _probe(b, ray.get(ref), on, anti),
                          batch_format="pandas")


def _merge_frames(lf: pd.DataFrame, rf: pd.DataFrame, on: list[str],
                  how: str) -> pd.DataFrame:
    """Equality merge with SQL null semantics: a row with a null in any key
    column never matches, but the outer side(s) still emit it."""
    lnull = lf[on].isna().any(axis=1).to_numpy()
    rnull = rf[on].isna().any(axis=1).to_numpy()
    out = lf[~lnull].merge(rf[~rnull], on=on, how=how)
    rest = ([lf[lnull]] if how in ("left", "outer") else []) \
        + ([rf[rnull]] if how in ("right", "outer") else [])
    rest = [r for r in rest if len(r)]
    return pd.concat([out, *rest], ignore_index=True) if rest else out


def hash_join(left, right, on: list[str], how: str = "inner",
              num_partitions: int = 32):
    """Distributed equality join for the both-sides-large case (J1/J3;
    SURVEY.md §2.4): ``how`` is "inner", "left", "right" or "outer". Prefer
    :func:`broadcast_left_join` whenever one side is small.

    Physical plan: the keyed co-group of :func:`asof_join` — both sides
    hash-partitioned on ``on`` through one ``agg.exchange``, then one
    ``pandas.merge`` per partition. A null in any key column never matches.
    Output columns are the left columns, then the right non-key columns; a
    column an outer side can leave null is promoted from integer/boolean to
    float64 (on either side), so every partition emits one schema. A
    non-key column present on both sides raises ``ValueError``.

    Each side is materialized once (free if it already is), so a lazy side
    holds one object-store copy while the join runs, and no plan runs
    twice."""
    plan = _cogroup_plan(left, right, on, suffix=None,
                         promote=(how in ("right", "outer"),
                                  how in ("left", "outer")))
    names = plan["out_schema"].names

    def frame_kernel(lf: pd.DataFrame, rf: pd.DataFrame) -> pd.DataFrame:
        return _merge_frames(lf, rf, list(on), how).reindex(columns=names)

    return _keyed_cogroup(plan, on, frame_kernel, num_partitions)


def hash_update(ds, patch_ds, on: list[str], num_partitions: int = 32):
    """Distributed J4 (``_update_values``) for a LARGE patch side: left hash
    join on the keys, then per-batch coalesce of the patch's non-NA values —
    no driver materialization of either side."""
    patch = patch_ds.map_batches(lambda b: b.rename(columns={
        c: f"{c}__patch" for c in b.columns if c not in on}),
        batch_format="pandas")
    joined = hash_join(ds, patch, on=on, how="left",
                       num_partitions=num_partitions)

    def coalesce(b: pd.DataFrame) -> pd.DataFrame:
        patched = [c for c in b.columns if c.endswith("__patch")]
        for p in patched:
            c, src = p.removesuffix("__patch"), b[p]
            b[c] = src.where(src.notna(), b[c])
        return b.drop(columns=patched)

    return joined.map_batches(coalesce, batch_format="pandas")


def broadcast_update(ds, patch_df: pd.DataFrame, on: list[str]):
    """J4 ``_update_values`` (reference utilities.py:189-211): overwrite
    ``ds`` rows with the non-NA values of ``patch_df`` aligned on ``on``
    (the patch — e.g. restored test actuals — is broadcast once)."""
    value_cols = [c for c in patch_df.columns if c not in on]

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

    return _broadcast_map(ds, patch_df, _df_bytes(patch_df), apply_patch)


# ---------------------------------------------------------------------------
# as-of (nearest-timestamp) joins — a custom operator Ray Data lacks
# ---------------------------------------------------------------------------

def _arrow_schema(ds):
    """Arrow schema of a MATERIALIZED Dataset, read from its first non-empty
    block (converted to Arrow, as a pyarrow map would) with the schema
    metadata dropped; no plan runs. An all-empty Dataset, or a first block
    with an all-null column, falls back to the Dataset's known schema:
    parquet-backed datasets report a pa.Schema; from_pandas datasets report
    a PandasBlockSchema (numpy dtypes), mapped here (object -> string —
    pass Arrow blocks for binary columns)."""
    from ray.data.block import BlockAccessor

    first = next(iter(block_refs(ds)), None)
    if first is not None:
        schema = BlockAccessor.for_block(ray.get(first)).to_arrow().schema
        if not any(pa.types.is_null(t) for t in schema.types):
            return schema.remove_metadata()
    schema = ds.schema(fetch_if_missing=False)
    if schema is None:
        raise ValueError(
            "a keyed co-group join requires a schema'd Dataset — an empty "
            "Dataset with no inferable schema cannot shape the join output "
            "(filter a typed source to empty instead of passing a bare "
            "empty one)")
    bs = schema.base_schema
    if isinstance(bs, pa.Schema):
        return bs.remove_metadata()
    return pa.schema([
        (n, pa.string() if d == np.dtype("O") else pa.from_numpy_dtype(d))
        for n, d in zip(bs.names, bs.types)])


def _materialized(ds):
    """A join side's one execution. A lazy side is materialized through a
    metadata-dropping map that fuses into its last task (read tasks that
    concatenate pandas-written Parquet files otherwise log "Failed to hash
    the schemas"); on a materialized side ``materialize()`` runs nothing."""
    from ray.data.dataset import MaterializedDataset

    if not isinstance(ds, MaterializedDataset):
        ds = without_schema_metadata(ds)
    return ds.materialize()


def _cogroup_out_schema(left_schema, right_fields: list, on: list[str],
                        promote: tuple[bool, bool]):
    """Output schema for a keyed co-group join: left fields, then right
    value fields. ``promote`` = (left, right): a side whose value columns
    the join can leave null has its integer/boolean types promoted to
    float64 — unmatched rows hold NaN there and pandas upcasts
    partially-matched int columns to float64, so promoting ALWAYS keeps
    every partition's block schema identical (a partition that happens to
    match fully would otherwise emit int64 and break the block union).
    Key columns and the sides an inner join keeps whole never hold nulls,
    so they keep integer types."""

    def widen(f, flag):
        if flag and f.name not in on and (pa.types.is_integer(f.type)
                                          or pa.types.is_boolean(f.type)):
            return pa.field(f.name, pa.float64())
        return f

    return pa.schema([widen(f, promote[0]) for f in left_schema]
                     + [widen(f, promote[1]) for f in right_fields])


def _cogroup_plan(left, right, on: list[str], suffix: str | None,
                  promote: tuple[bool, bool] = (False, True)):
    """Shared planning for both-sides-large keyed co-group joins:
    materialize each side once (:func:`_materialized`), then resolve
    right-column renames (collisions get ``suffix``; with ``suffix=None``
    they raise ``ValueError``), the unified tagged schema, and the output
    schema (``promote``: see :func:`_cogroup_out_schema`)."""
    left, right = _materialized(left), _materialized(right)
    lschema, rschema = _arrow_schema(left), _arrow_schema(right)
    lnames = set(lschema.names)
    clash = [c for c in rschema.names if c in lnames and c not in on]
    if clash and suffix is None:
        raise ValueError(f"join: non-key columns {clash} exist on both sides")
    renames = {c: (c + suffix if c in clash else c) for c in rschema.names}
    right_fields = [pa.field(renames[f.name], f.type) for f in rschema
                    if f.name not in on]
    out_schema = _cogroup_out_schema(lschema, right_fields, on, promote)
    return {
        "left": left,
        "right": right,
        "renames": renames,
        "out_schema": out_schema,
        "union_fields": ([(f.name, f.type) for f in lschema]
                         + [(f.name, f.type) for f in right_fields]),
        "lcols": list(lschema.names),
        "rcols": list(on) + [f.name for f in right_fields],
    }


def _keyed_cogroup(plan: dict, on: list[str], frame_kernel,
                   num_partitions: int):
    """Execute a keyed co-group join over the plan's materialized sides:
    tag both sides, hash-partition on ``on`` with the same deterministic
    hash (one coarse shuffle each, Arrow-native null padding so schemas
    unify without upcasts), then run ``frame_kernel(lf, rf) ->
    pd.DataFrame`` once per partition.
    PARTITIONING ASSUMPTION: all rows of a key land in one partition — a
    single pathologically hot key bounds per-task memory at that key's row
    count, the same contract as every keyed window stage (scale the
    partition COUNT with data)."""
    union_fields, out_schema = plan["union_fields"], plan["out_schema"]
    lcols, rcols = plan["lcols"], plan["rcols"]

    def side_rows(side: int, names_map: dict):
        def fn(t: pa.Table) -> pa.Table:
            t = t.rename_columns([names_map.get(c, c)
                                  for c in t.column_names])
            n = t.num_rows
            # a pandas block's all-None column arrives null-typed
            cols = {name: (t[name].cast(typ) if name in t.column_names
                           else pa.nulls(n, type=typ))
                    for name, typ in union_fields}
            cols["__side"] = pa.array(np.full(n, side, dtype=np.int8))
            return pa.table(cols)
        return fn

    sides = [plan["left"].map_batches(side_rows(0, {}),
                                      batch_format="pyarrow"),
             plan["right"].map_batches(side_rows(1, plan["renames"]),
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

    return _keyed_cogroup(plan, on, frame_kernel, num_partitions)


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
                         promote=(False, how == "left"))
    start_out, end_out = plan["renames"][start_col], plan["renames"][end_col]

    def frame_kernel(lf: pd.DataFrame, rf: pd.DataFrame) -> pd.DataFrame:
        return _range_match_frames(lf, rf, on, left_ts, start_out, end_out,
                                   how, closed)

    return _keyed_cogroup(plan, on, frame_kernel, num_partitions)
