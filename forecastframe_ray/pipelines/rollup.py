"""Hierarchy rollups and the 1h/1d/7d continuous-aggregate tier cascade
(SURVEY.md §2.5 A1, §7.3 "tier cascade"; north_rule retention tiers).

``aggregate_features`` is the Ray form of the reference's
``_aggregate_features`` (``feature_engineering.py:270-300``): group by the
rollup columns + the datetime, aggregate each measure with a named op,
keeping the measure's own column name.

The tier cascade is ONE exchange. A per-batch **combiner**
(:func:`partial_bucket_aggregate`, a ``map_batches`` pre-reduce) turns raw
rows into ≤ one 1h partial row per (series, hour) per batch, so a hot
series' rows leave each batch already reduced. The partials are shuffled
once on ``hash(series_keys)`` — every partial of a series lands in one
partition — and :func:`cascade_partition` then does the rest locally with
pure-Arrow ``Table.group_by``: merge the partials into exact 1h rows,
re-bucket and merge 1h → 1d, then 1d → 7d. Only algebraic stats are
carried, as (count, sum, min, max, Σx²), so every coarser tier is exact.
Non-algebraic stats (median/quantiles) must recompute from the finest
retained tier — enforced here by simply not cascading them.

One tier kernel, :func:`tier_frames` (cascade, finalize, sort by key and
bucket), runs per partition behind both exchanges that build tiers:
:func:`rollup_tiers`, which returns them as Datasets, and the tier store's
build (:func:`forecastframe_ray.pipelines.web.run`), which shuffles the
partials on the store's own partition id and writes every tier of a
partition from that one exchange. The store's append merges the
unfinalized :func:`cascade_partition` rows into the stored files. The tier
kernels are Arrow end to end: cascade, :func:`finalize_tier_batch` and the
sort take and return ``pyarrow.Table``s, which the store writes as they
are.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from forecastframe_ray import keys as K
from forecastframe_ray.stages.agg import hash_aggregate, keyed_map_partitions


def aggregate_features(ds, features: list[str], by: list[str], op: str,
                       num_partitions: int = 64):
    """A1: ``ds.groupby(by).agg({f: op for f in features})`` with pandas NaN
    semantics (skipna; all-null sum → 0.0, matching
    ``DataFrame.groupby().agg("sum")`` which the reference relies on)."""
    named = {f: (f, op) for f in features}
    return hash_aggregate(ds, list(by), named, num_partitions)


def hopping_window_aggregate(ds, series_keys: list[str], ts_col: str,
                             value_col: str | None, window_us: int,
                             slide_us: int, num_partitions: int = 64):
    """Hopping (sliding) event-time windows — the overlapping-window sibling
    of the tumbling tier cascade: every window ``[k*slide, k*slide+window)``
    on the slide grid, each row contributing to ``⌈window/slide⌉`` windows.

    Physical plan mirrors the tier combiner: a per-batch Arrow/numpy
    combiner fans each row out to its windows with ``np.repeat`` (vectorized,
    no Python loop) and pre-reduces to ≤ one partial row per (series, window)
    per batch, so the single coarse-hash merge shuffle moves window-partials,
    not ``window/slide``× the raw rows. Scale note: the fan-out factor is a
    constant chosen by the caller (e.g. 3 for a 3h window hopping hourly) —
    shuffle volume is bounded by ``distinct windows × series``, independent
    of row count."""
    import pyarrow as pa

    from forecastframe_ray.stages.agg import hash_aggregate_arrow

    if window_us <= 0 or slide_us <= 0 or window_us % slide_us:
        raise ValueError("window_us must be a positive multiple of slide_us")
    plan = {"n_events": ("n_events", "sum"), "sum_val": ("sum_val", "sum")}

    def fan_out(batch: pa.Table) -> pa.Table:
        us = batch[ts_col]
        if isinstance(us, pa.ChunkedArray):
            us = us.combine_chunks()
        if pa.types.is_timestamp(us.type):
            us = us.cast(pa.timestamp("us"))  # ns inputs (from_pandas) → µs
        usn = us.cast(pa.int64()).to_numpy(zero_copy_only=False)
        # windows containing us: start ∈ (us - window, us], start = k*slide
        k_lo = (usn - window_us) // slide_us + 1   # numpy // floors to -inf
        k_hi = usn // slide_us
        counts = k_hi - k_lo + 1
        idx = np.repeat(np.arange(len(usn)), counts)
        total = int(counts.sum())
        starts = np.cumsum(counts) - counts
        ks = k_lo[idx] + (np.arange(total) - starts[idx])
        cols = {k: batch[k].take(pa.array(idx)) for k in series_keys}
        cols["window_start_us"] = pa.array(ks * slide_us, type=pa.int64())
        val = (batch[value_col].cast(pa.float64()).take(pa.array(idx))
               if value_col else pa.array(np.ones(total)))
        cols["n_events"] = pa.array(np.ones(total, dtype=np.int64))
        cols["sum_val"] = val
        by = series_keys + ["window_start_us"]
        agg = pa.table(cols).group_by(by, use_threads=False).aggregate(
            [(c, op) for _, (c, op) in plan.items()])
        return agg.rename_columns(by + list(plan.keys()))

    partials = ds.map_batches(fan_out, batch_format="pyarrow")
    by = series_keys + ["window_start_us"]
    return hash_aggregate_arrow(partials, by, plan, num_partitions)


# ---------------------------------------------------------------------------
# Tier cascade
# ---------------------------------------------------------------------------

#: carried stats per (series, bucket): algebraic only, so tiers compose.
_TIER_PLAN = {
    "pages": ("pages", "sum"), "bytes": ("bytes", "sum"),
    "sum_val": ("sum_val", "sum"), "min_val": ("min_val", "min"),
    "max_val": ("max_val", "max"), "sum_sq": ("sum_sq", "sum"),
}
#: public name for the algebraic merge plan — also the incremental-append
#: contract used by ``state.checkpoint.merge_partitioned``
TIER_PLAN = _TIER_PLAN


def _merge_stats(tbl, by: list[str]):
    """Merge algebraic stat rows to one row per ``by`` tuple (Arrow)."""
    agg = tbl.group_by(by, use_threads=False).aggregate(
        [(c, op) for _, (c, op) in _TIER_PLAN.items()])
    return agg.rename_columns(by + list(_TIER_PLAN.keys()))


def partial_bucket_aggregate(series_keys: list[str], ts_col: str, value_col: str,
                             size_col: str | None, tier: str):
    """Stage-1 combiner: pure-Arrow map_batches fn reducing raw rows to
    partial stats per ``(series_keys, bucket)`` — a hot key's rows leave each
    batch as one row per bucket, bounding what the shuffle moves. Zero-copy
    in; no pandas object-string materialization (that conversion is the
    allocation-heavy term that caps CPU scaling). Returns the map fn."""
    import pyarrow as pa
    import pyarrow.compute as pc

    width = K.TIER_US[tier]

    def fn(batch: pa.Table) -> pa.Table:
        n = len(batch)
        us = batch[ts_col]
        if isinstance(us, pa.ChunkedArray):
            us = us.combine_chunks()
        us = us.cast(pa.int64())  # timestamp[us] → µs since epoch
        # numpy // floors toward -inf, so pre-epoch (negative µs) timestamps
        # bucket correctly (pc.divide on int64 truncates toward zero)
        usn = us.to_numpy(zero_copy_only=False)
        bucket = pa.array((usn // width) * width, type=pa.int64())
        val = (batch[value_col].cast(pa.float64()) if value_col
               else pa.array(np.ones(n)))
        size = (batch[size_col].cast(pa.float64()) if size_col
                else pa.array(np.zeros(n)))
        cols = {k: batch[k] for k in series_keys}
        cols["bucket_us"] = bucket
        cols["pages"] = pa.array(np.ones(n))
        cols["bytes"] = size
        cols["sum_val"] = val
        cols["min_val"] = val
        cols["max_val"] = val
        cols["sum_sq"] = pc.multiply(val, val)
        return _merge_stats(pa.table(cols), series_keys + ["bucket_us"])

    return fn


def cascade_partition(partials, series_keys: list[str],
                      tiers: tuple = K.TIERS) -> dict:
    """The tier cascade on one partition holding EVERY 1h partial of its
    series: merge the partials into exact 1h stat rows, then re-bucket and
    merge 1h → 1d → 7d locally. ``partials`` is a ``pyarrow.Table`` of
    combiner rows (:func:`partial_bucket_aggregate`); returns
    ``{tier: pyarrow.Table}`` of algebraic (unfinalized) rows for ``tiers``
    — a coarser tier implies computing its finer inputs."""
    import pyarrow as pa

    by = list(series_keys) + ["bucket_us"]
    cur = _merge_stats(partials, by)
    out = {"1h": cur}
    last = max(K.TIERS.index(t) for t in tiers)
    for coarser in K.TIERS[1:last + 1]:
        width = K.TIER_US[coarser]
        b = cur["bucket_us"].to_numpy()
        cur = _merge_stats(cur.set_column(
            cur.schema.get_field_index("bucket_us"), "bucket_us",
            pa.array((b // width) * width, type=pa.int64())), by)
        out[coarser] = cur
    return {t: out[t] for t in tiers}


def finalize_tier_batch(tbl, tier: str):
    """Derive mean/std from the carried algebraic stats of a
    ``pyarrow.Table``; attach the tier label and a ``timestamp[ns]`` bucket
    column. An undefined stat (the std of a one-page bucket) is null."""
    import pyarrow as pa

    n, s, ss = (tbl[c].to_numpy().astype(np.float64)
                for c in ("pages", "sum_val", "sum_sq"))
    with np.errstate(divide="ignore", invalid="ignore"):
        mean = s / n
        var = np.where(n > 1, (ss - s * s / n) / (n - 1), np.nan)
    return (tbl.append_column("mean_val", pa.array(mean, from_pandas=True))
            .append_column("std_val", pa.array(np.sqrt(np.maximum(var, 0.0)),
                                               from_pandas=True))
            .append_column("tier", pa.repeat(pa.scalar(tier), len(tbl)))
            .append_column("bucket_ts", tbl["bucket_us"]
                           .cast(pa.timestamp("us")).cast(pa.timestamp("ns"))))


def tier_frames(partials, series_keys: list[str],
                tiers: tuple = K.TIERS) -> dict:
    """The tier kernel on one partition holding every 1h partial of its
    series (a ``pyarrow.Table`` of :func:`partial_bucket_aggregate` rows):
    :func:`cascade_partition`, then :func:`finalize_tier_batch`, each tier
    sorted by (series keys, bucket). Returns ``{tier: pyarrow.Table}``."""
    by = [(c, "ascending") for c in list(series_keys) + ["bucket_us"]]
    return {t: finalize_tier_batch(tbl, t).sort_by(by)
            for t, tbl in cascade_partition(partials, series_keys,
                                            tiers).items()}


def rollup_tiers(ds, series_keys: list[str], ts_col: str, value_col: str | None = None,
                 size_col: str | None = None, num_partitions: int = 64,
                 tiers: tuple = ("1h", "1d", "7d")) -> dict:
    """The 1h → 1d → 7d cascade in one exchange, as Datasets: the combiner
    map, one shuffle on ``hash(series_keys)`` and :func:`tier_frames` per
    partition. Returns ``{tier: Dataset}`` of finalized tier tables for the
    requested ``tiers``, each materialized (row counts are block-metadata
    lookups). The tier store builds through the same kernel.

    Hot keys need no salting: the combiner sends a hot series to its
    partition as ≤ one partial row per hour per batch.
    """
    import pyarrow as pa
    import pyarrow.compute as pc

    keys = list(series_keys)
    tiers = tuple(t for t in K.TIERS if t in tiers)
    partials = ds.map_batches(
        partial_bucket_aggregate(keys, ts_col, value_col, size_col, "1h"),
        batch_format="pyarrow")

    def kernel(part: pa.Table) -> pa.Table:
        return pa.concat_tables(tier_frames(part, keys, tiers).values())

    every = keyed_map_partitions(partials, keys, kernel, num_partitions,
                                 batch_format="pyarrow").materialize()
    if len(tiers) == 1:
        return {tiers[0]: every}
    return {t: every.map_batches(
                lambda b, t=t: b.filter(pc.equal(b["tier"], t)),
                batch_format="pyarrow").materialize()
            for t in tiers}


def grouping_sets_rollup(ds, key_a: str, key_b: str, value_col: str,
                         num_partitions: int = 8):
    """SQL ``GROUPING SETS ((a, b), (a), (b), ())`` as a partial cascade:
    the input is scanned ONCE for the finest ``(a, b)`` partial (count +
    sum combine inside ``map_batches`` before the only wide shuffle); every
    coarser set re-aggregates the *partials* — the tier-cascade pattern
    (:func:`rollup_tiers`), never a second scan of the input. The grand
    total reduces the already-tiny ``(a)`` level under one constant key, so
    nothing ever collects on the driver.

    Returns ``{"ab", "a", "b", "total"}`` Datasets with columns
    ``[key_a?, key_b?, n, sum_v]`` (``n`` = row count)."""
    from forecastframe_ray.stages.agg import hash_aggregate

    finest = hash_aggregate(
        ds, [key_a, key_b],
        {"n": (value_col, "size"), "sum_v": (value_col, "sum")},
        num_partitions=num_partitions)
    finest = finest.materialize()  # partials feed three cascades
    re_agg = {"n": ("n", "sum"), "sum_v": ("sum_v", "sum")}
    np_c = min(8, num_partitions)
    lvl_a = hash_aggregate(finest, [key_a], re_agg, num_partitions=np_c)
    lvl_b = hash_aggregate(finest, [key_b], re_agg, num_partitions=np_c)

    def const_key(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__all"] = 0
        return b

    total = hash_aggregate(
        lvl_a.map_batches(const_key, batch_format="pandas"), ["__all"],
        re_agg, num_partitions=1).drop_columns(["__all"])
    return {"ab": finest, "a": lvl_a, "b": lvl_b, "total": total}


def ohlc_aggregate(ds, keys: list[str], ts_col: str, value_col: str,
                   bucket_us: int, num_partitions: int = 64):
    """Open/high/low/close downsample per ``(keys, time bucket)`` — the
    classic financial-bar aggregate as a custom MERGEABLE combiner (Ray
    Data has no arg_min/arg_max aggregate):

    1. per-batch partial (vectorized ``idxmin``/``idxmax`` + min/max/size):
       one row per (key, bucket) per batch carrying
       ``(open_ts, open_v, close_ts, close_v, high, low, n)``;
    2. ONE coarse-hash exchange of those bounded partials;
    3. per-partition associative merge: open = the partial with the least
       ``open_ts`` (stable sort + grouped ``first``), close symmetric,
       high/low/n fold by max/min/sum.

    Callers must pre-aggregate to UNIQUE ``ts`` per key (e.g. sum values at
    identical stamps) so arg-min/max ties cannot differ across engines.
    Returns ``[*keys, bucket_us, open, high, low, close, n]``."""
    keys = list(keys)
    gk = keys + ["bucket_us"]

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # positional reset: idxmin/idxmax labels are used as positions below
        b = b[keys + [ts_col, value_col]].reset_index(drop=True)
        us = b[ts_col].astype("int64")
        b["bucket_us"] = (us // bucket_us) * bucket_us
        g = b.groupby(gk, sort=False, observed=True)
        out = g.agg(high=(value_col, "max"), low=(value_col, "min"),
                    n=(value_col, "size")).reset_index()
        io_, ic_ = g[ts_col].idxmin().to_numpy(), g[ts_col].idxmax().to_numpy()
        out["open_ts"] = b[ts_col].to_numpy()[io_]
        out["open_v"] = b[value_col].to_numpy()[io_]
        out["close_ts"] = b[ts_col].to_numpy()[ic_]
        out["close_v"] = b[value_col].to_numpy()[ic_]
        out["n"] = out["n"].astype("int64")
        return out

    def merge(part: pd.DataFrame) -> pd.DataFrame:
        p1 = part.sort_values("open_ts", kind="mergesort")
        out = p1.groupby(gk, sort=False, observed=True).agg(
            open=("open_v", "first"), high=("high", "max"),
            low=("low", "min"), n=("n", "sum")).reset_index()
        p2 = part.sort_values("close_ts", kind="mergesort")
        cl = p2.groupby(gk, sort=False, observed=True).agg(
            close=("close_v", "last")).reset_index()
        out = out.merge(cl, on=gk)
        out["n"] = out["n"].astype("int64")
        return out[gk + ["open", "high", "low", "close", "n"]]

    return keyed_map_partitions(ds.map_batches(partial, batch_format="pandas"),
                                gk, merge, num_partitions)
