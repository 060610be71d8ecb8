"""Oracled query catalog — part ``spine``."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

import ray.data

from forecastframe_ray.stages.agg import (hash_aggregate, hash_count,
                                          without_schema_metadata)

from forecastframe_ray.frame import RayForecastFrame
from forecastframe_ray.functions import encoding, metrics, scalers
from forecastframe_ray.pipelines import dedup, rollup, similarity, textstats
from forecastframe_ray.stages import gorilla
from forecastframe_ray.stages.join import broadcast_semi_join
from forecastframe_ray.pipelines.queries import entry


NULLF = -999.0
HOUR_US = 3_600_000_000
DAY_US = 86_400_000_000

# modest parallelism for sf0.01-scale driver checks; bench overrides
_NP = 8


def _read(sf_dir: str, table: str, columns: list[str] | None = None):
    return ray.data.read_parquet(f"{sf_dir}/{table}.parquet", columns=columns)


def _round(df: pd.DataFrame, cols: list[str], digits: int = 6) -> pd.DataFrame:
    df = df.copy()  # callers may pass a column-slice view
    for c in cols:
        # + 0.0 folds −0.0 (a mathematically-zero value computed as ~−1e−13
        # then rounded) onto +0.0 — the two compare equal but HASH apart,
        # and which side of zero the float error lands on is batch-shape
        # dependent (BLAS blocking), i.e. flaky
        df[c] = np.round(df[c].to_numpy(dtype=np.float64), digits) + 0.0
    return df


def _fill(df: pd.DataFrame, cols: list[str]) -> pd.DataFrame:
    for c in cols:
        df[c] = df[c].fillna(NULLF)
    return df


# ---------------------------------------------------------------------------
# tier rollups over events (the flagship operator on driver tables)
# ---------------------------------------------------------------------------


def _tier_output(tier_ds, tier: str) -> pd.DataFrame:
    df = tier_ds.to_pandas()
    df = df[["event_type", "bucket_us", "pages", "sum_val", "min_val", "max_val",
             "mean_val", "std_val"]].copy()
    df = _round(df, ["sum_val", "min_val", "max_val", "mean_val"], 6)
    df["std_val"] = np.round(df["std_val"].to_numpy(dtype=np.float64), 6)
    df = _fill(df, ["std_val"])  # single-point buckets: NaN ↔ SQL NULL
    return df.reset_index(drop=True)


def _event_tiers(sf_dir: str, tiers=("1h", "1d", "7d")) -> dict:
    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])
    return rollup.rollup_tiers(ev, ["event_type"], "ts", value_col="value",
                               size_col=None, tiers=tiers)


@entry("tier_1h_events", sql=lambda: TIER_SQL["1h"])
def q_tier_1h_events(sf_dir: str) -> pd.DataFrame:
    return _tier_output(_event_tiers(sf_dir, ("1h",))["1h"], "1h")


@entry("tier_1d_events", sql=lambda: TIER_SQL["1d"])
def q_tier_1d_events(sf_dir: str) -> pd.DataFrame:
    """1d tier produced by CASCADE from 1h (exactness of the algebraic
    (count,sum,min,max,Σx²) carry is what the oracle checks)."""
    return _tier_output(_event_tiers(sf_dir, ("1d",))["1d"], "1d")


@entry("tier_7d_events", sql=lambda: TIER_SQL["7d"])
def q_tier_7d_events(sf_dir: str) -> pd.DataFrame:
    return _tier_output(_event_tiers(sf_dir, ("7d",))["7d"], "7d")


@entry("tier_incremental_1d_events", sql=lambda: TIER_SQL["1d"])
def q_tier_incremental_1d_events(sf_dir: str) -> pd.DataFrame:
    """Continuous-aggregate maintenance (north_rule retention tiers,
    incremental form): build the 1d tier from the even-epoch-day half of
    events into a checkpoint store, fold the odd-day half in as a delta via
    the partition-granular algebraic merge
    (``checkpoint.merge_partitioned``), re-apply the same delta (must
    no-op: delta_id idempotence), and read the store back. The oracle is
    the FULL-build 1d tier SQL — incremental == rebuild, exactly."""
    import shutil
    import tempfile

    from forecastframe_ray.state import checkpoint

    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def half(b: pd.DataFrame, keep_even: bool) -> pd.DataFrame:
        day = b["ts"].astype("int64") // DAY_US
        return b[(day % 2 == 0) == keep_even]

    def tier_1d(ds):
        return rollup.rollup_tiers(ds, ["event_type"], "ts",
                                   value_col="value", size_col=None,
                                   tiers=("1d",))["1d"]

    out = tempfile.mkdtemp(prefix="ffray_inc1d_")
    try:
        base = ev.map_batches(lambda b: half(b, True), batch_format="pandas")
        checkpoint.write_partitioned(
            tier_1d(base), out, "1d", ["event_type"], num_partitions=4,
            sort_cols=["event_type", "bucket_us"])
        delta = tier_1d(ev.map_batches(lambda b: half(b, False),
                                       batch_format="pandas")).materialize()
        for _ in range(2):  # second application must be a no-op
            checkpoint.merge_partitioned(
                delta, out, "1d", ["event_type"],
                ["event_type", "bucket_us"], rollup.TIER_PLAN,
                delta_id="odd-days", num_partitions=4,
                sort_cols=["event_type", "bucket_us"],
                finalize_fn=rollup.finalize_tier_batch)
        return _tier_output(checkpoint.read_tier(out, "1d"), "1d")
    finally:
        shutil.rmtree(out, ignore_errors=True)


#: retention cutoff for the expiry query: 2024-01-16T00:00Z (mid-range of
#: the testdata's 30-day events window), in epoch microseconds
_RETENTION_CUTOFF_US = 1_705_363_200_000_000


@entry("tier_retention_1h_events",
       sql=lambda: f"SELECT * FROM ({TIER_SQL['1h']}) "
                   f"WHERE bucket_us >= {_RETENTION_CUTOFF_US}")
def q_tier_retention_1h_events(sf_dir: str) -> pd.DataFrame:
    """Retention expiry (north_rule retention tiers): checkpoint the 1h
    tier, sweep buckets older than the cutoff with
    ``checkpoint.expire_tier`` (then sweep again — must be metadata-only),
    and read the store back. Oracle = the full-build 1h tier restricted to
    ``bucket_us >= cutoff``."""
    import shutil
    import tempfile

    from forecastframe_ray.state import checkpoint

    out = tempfile.mkdtemp(prefix="ffray_ret1h_")
    try:
        checkpoint.write_partitioned(
            _event_tiers(sf_dir, ("1h",))["1h"], out, "1h", ["event_type"],
            num_partitions=4, sort_cols=["event_type", "bucket_us"])
        checkpoint.expire_tier(out, "1h", _RETENTION_CUTOFF_US)
        again = checkpoint.expire_tier(out, "1h", _RETENTION_CUTOFF_US)
        assert again == [], "repeat sweep must be metadata-only"
        return _tier_output(checkpoint.read_tier(out, "1h"), "1h")
    finally:
        shutil.rmtree(out, ignore_errors=True)


def _tier_sql(width_us: int) -> str:
    return f"""
    SELECT event_type,
           (epoch_us(ts) // {width_us}) * {width_us} AS bucket_us,
           CAST(count(*) AS DOUBLE) AS pages,
           round(sum(value), 6) AS sum_val,
           round(min(value), 6) AS min_val,
           round(max(value), 6) AS max_val,
           round(avg(value), 6) AS mean_val,
           COALESCE(round(stddev_samp(value), 6), {NULLF}) AS std_val
    FROM events GROUP BY 1, 2
    """


TIER_SQL = {t: _tier_sql(w) for t, w in
            (("1h", HOUR_US), ("1d", DAY_US), ("7d", 7 * DAY_US))}


# ---------------------------------------------------------------------------
# bucketed series + keyed window ops (daily / hourly event series)
# ---------------------------------------------------------------------------


def _bucket_series(sf_dir: str, width_us: int, ts_name: str):
    """events → (event_type, ts_name, v=round(sum(value),6)) series Dataset."""
    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def floor_fn(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        b = b[["event_type", "value"]].copy()
        b[ts_name] = pd.to_datetime((us // width_us) * width_us, unit="us")
        return b

    agg = hash_aggregate(ev.map_batches(floor_fn, batch_format="pandas"),
                         ["event_type", ts_name], {"v": ("value", "sum")},
                         num_partitions=_NP)

    def round_fn(b: pd.DataFrame) -> pd.DataFrame:
        b["v"] = np.round(b["v"].to_numpy(dtype=np.float64), 6)
        return b

    return agg.map_batches(round_fn, batch_format="pandas")


_DAILY_SQL = """
    SELECT event_type, date_trunc('day', ts) AS d, round(sum(value), 6) AS v
    FROM events GROUP BY 1, 2
"""
_HOURLY_SQL = """
    SELECT event_type, date_trunc('hour', ts) AS h, round(sum(value), 6) AS v
    FROM events GROUP BY 1, 2
"""


def _daily_frame(sf_dir: str) -> RayForecastFrame:
    daily = _bucket_series(sf_dir, DAY_US, "d")
    return RayForecastFrame(daily, datetime_column="d", target="v",
                            hierarchy=["event_type"], num_partitions=_NP)


@entry("lag_daily_events", sql=lambda: SQL_LAG_DAILY)
def q_lag_daily_events(sf_dir: str) -> pd.DataFrame:
    fr = _daily_frame(sf_dir).lag_features("v", [1, 2])
    df = fr.to_pandas()[["event_type", "d", "v", "v_lag1", "v_lag2"]]
    return _fill(df, ["v_lag1", "v_lag2"])


SQL_LAG_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           COALESCE(LAG(v, 1) OVER w, {NULLF}) AS v_lag1,
           COALESCE(LAG(v, 2) OVER w, {NULLF}) AS v_lag2
    FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
"""


@entry("diff_daily_events", sql=lambda: SQL_DIFF_DAILY)
def q_diff_daily_events(sf_dir: str) -> pd.DataFrame:
    fr = _daily_frame(sf_dir).difference_features("v", periods=1)
    df = fr.to_pandas()[["event_type", "d", "v", "v_differenced_1"]]
    return _fill(df, ["v_differenced_1"])


SQL_DIFF_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           COALESCE(v - LAG(v, 1) OVER w, {NULLF}) AS v_differenced_1
    FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
"""


@entry("pct_change_daily_events", sql=lambda: SQL_PCT_CHANGE_DAILY)
def q_pct_change_daily_events(sf_dir: str) -> pd.DataFrame:
    fr = _daily_frame(sf_dir).calc_percent_change("v", lag=1)
    df = fr.to_pandas()[["event_type", "d", "v", "v_pct_change_lag1"]]
    df = _round(df, ["v_pct_change_lag1"], 6)
    return _fill(df, ["v_pct_change_lag1"])


SQL_PCT_CHANGE_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           COALESCE(round((LAG(v, 1) OVER w - LAG(v, 2) OVER w)
                          / LAG(v, 2) OVER w, 6), {NULLF}) AS v_pct_change_lag1
    FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
"""


_ROLL_COLS = [f"v_{a}_roll7_lag1" for a in ("mean", "sum", "min", "max")]


@entry("rolling7_daily_events", sql=lambda: SQL_ROLLING7_DAILY)
def q_rolling7_daily_events(sf_dir: str) -> pd.DataFrame:
    fr = _daily_frame(sf_dir).calc_statistical_features(
        "v", windows=7, aggregations=["mean", "sum", "min", "max"],
        lag=1, min_periods=1)
    df = fr.to_pandas()[["event_type", "d", "v"] + _ROLL_COLS]
    df = _round(df, _ROLL_COLS, 6)
    return _fill(df, _ROLL_COLS)


SQL_ROLLING7_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               epoch_us(d) // {DAY_US} AS dn,
               LAG(v, 1) OVER (PARTITION BY event_type ORDER BY d) AS lv
        FROM daily
    )
    SELECT event_type, d, v,
           COALESCE(round(avg(lv) OVER w, 6), {NULLF}) AS v_mean_roll7_lag1,
           COALESCE(round(sum(lv) OVER w, 6), {NULLF}) AS v_sum_roll7_lag1,
           COALESCE(round(min(lv) OVER w, 6), {NULLF}) AS v_min_roll7_lag1,
           COALESCE(round(max(lv) OVER w, 6), {NULLF}) AS v_max_roll7_lag1
    FROM l WINDOW w AS (PARTITION BY event_type ORDER BY dn
                        RANGE BETWEEN 6 PRECEDING AND CURRENT ROW)
"""


_MEDSTD_COLS = ["v_median_roll7_lag1", "v_std_roll7_lag1"]


@entry("rolling_median_daily", sql=lambda: SQL_ROLLING_MEDIAN_DAILY)
def q_rolling_median_daily(sf_dir: str) -> pd.DataFrame:
    """W1 NON-algebraic rolling aggs (median + ddof=1 std) — the aggs the
    tier cascade refuses to compose, computed from the finest grain."""
    fr = _daily_frame(sf_dir).calc_statistical_features(
        "v", windows=7, aggregations=["median", "std"], lag=1, min_periods=1)
    df = fr.to_pandas()[["event_type", "d", "v"] + _MEDSTD_COLS]
    df = _round(df, _MEDSTD_COLS, 6)
    return _fill(df, _MEDSTD_COLS)


SQL_ROLLING_MEDIAN_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v, epoch_us(d) // {DAY_US} AS dn,
               LAG(v, 1) OVER (PARTITION BY event_type ORDER BY d) AS lv
        FROM daily
    )
    SELECT event_type, d, v,
           COALESCE(round(median(lv) OVER w, 6), {NULLF})
               AS v_median_roll7_lag1,
           COALESCE(round(stddev_samp(lv) OVER w, 6), {NULLF})
               AS v_std_roll7_lag1
    FROM l WINDOW w AS (PARTITION BY event_type ORDER BY dn
                        RANGE BETWEEN 6 PRECEDING AND CURRENT ROW)
"""


@entry("threshold_daily_events", sql=lambda: SQL_THRESHOLD_DAILY)
def q_threshold_daily_events(sf_dir: str) -> pd.DataFrame:
    fr = _daily_frame(sf_dir).calc_percent_relative_to_threshold(
        features="v", windows=7, lag=1, min_periods=1,
        threshold=100, operator="greater")
    col = "v_perc_greater100_roll7_lag1"
    df = fr.to_pandas()[["event_type", "d", "v", col]]
    df = _round(df, [col], 6)
    return _fill(df, [col])


SQL_THRESHOLD_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v, epoch_us(d) // {DAY_US} AS dn,
               LAG(CASE WHEN v > 100 THEN 1.0 ELSE 0.0 END, 1)
                   OVER (PARTITION BY event_type ORDER BY d) AS lf
        FROM daily
    )
    SELECT event_type, d, v,
           COALESCE(round(avg(lf) OVER w, 6), {NULLF}) AS v_perc_greater100_roll7_lag1
    FROM l WINDOW w AS (PARTITION BY event_type ORDER BY dn
                        RANGE BETWEEN 6 PRECEDING AND CURRENT ROW)
"""


@entry("days_since_release_events", sql=lambda: SQL_DAYS_SINCE)
def q_days_since_release_events(sf_dir: str) -> pd.DataFrame:
    fr = _daily_frame(sf_dir).calc_days_since_release(ignore_leading_zeroes=True)
    df = fr.to_pandas()[["event_type", "d", "days_since_release"]]
    df["days_since_release"] = df["days_since_release"].astype("int64")
    return df


SQL_DAYS_SINCE = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d,
           CAST(datediff('day',
               min(CASE WHEN v > 0 THEN d END) OVER (PARTITION BY event_type),
               d) AS BIGINT) AS days_since_release
    FROM daily
"""


@entry("gapfill_ffill_hourly_events", sql=lambda: SQL_GAPFILL_FFILL_HOURLY)
def q_gapfill_ffill_hourly_events(sf_dir: str) -> pd.DataFrame:
    """W8 gap-fill to each type's own [min,max] hourly grid + W9 ffill."""
    hourly = _bucket_series(sf_dir, HOUR_US, "h")
    fr = RayForecastFrame(hourly, datetime_column="h", target="v",
                          hierarchy=["event_type"], num_partitions=_NP)
    fr.fill_time_gaps(freq="h", mode="local").fill_missings(method="ffill", features=["v"])
    df = fr.to_pandas()[["event_type", "h", "v"]]
    return _fill(df, ["v"])


SQL_GAPFILL_FFILL_HOURLY = f"""
    WITH hourly AS ({_HOURLY_SQL}),
    bounds AS (SELECT event_type, min(h) AS lo, max(h) AS hi FROM hourly GROUP BY 1),
    grid AS (
        SELECT event_type, unnest(generate_series(lo, hi, INTERVAL 1 HOUR)) AS h
        FROM bounds
    )
    SELECT g.event_type, g.h,
           COALESCE(LAST_VALUE(hr.v IGNORE NULLS) OVER (
               PARTITION BY g.event_type ORDER BY g.h
               ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW), {NULLF}) AS v
    FROM grid g LEFT JOIN hourly hr USING (event_type, h)
"""


@entry("ewma_daily_events", sql=lambda: SQL_EWMA_DAILY)
def q_ewma_daily_events(sf_dir: str) -> pd.DataFrame:
    """W4 EWMA + crossovers — not SQL-expressible (row-sequential state);
    rows-only driver check, exact values pinned by the ported golden tests."""
    fr = _daily_frame(sf_dir).calc_ewma("v", windows=[3, 7], lag=1,
                                        crossovers=True, adjust=True)
    cols = ["event_type", "d", "v", "v_ewma_roll3_lag1", "v_ewma_roll7_lag1",
            "v_ewma_roll3_lag1_cross7"]
    df = fr.to_pandas()[cols]
    return _fill(_round(df, cols[3:], 6), cols[3:])


@entry("calendar_daily_events", sql=lambda: SQL_CALENDAR_DAILY)
def q_calendar_daily_events(sf_dir: str) -> pd.DataFrame:
    daily = _bucket_series(sf_dir, DAY_US, "d")
    fr = RayForecastFrame(daily, datetime_column="d", target="v",
                          hierarchy=["event_type"], num_partitions=_NP)
    fr.calc_datetime_features(["day", "day_of_week", "weekend_flag", "week",
                               "month", "year", "quarter", "month_year",
                               "quarter_year"])
    df = fr.to_pandas()
    intcols = ["day", "day_of_week", "week", "month", "year", "quarter"]
    for c in intcols:
        df[c] = df[c].astype("int64")
    return df[["event_type", "d"] + intcols + ["weekend_flag", "month_year",
                                               "quarter_year"]]


SQL_CALENDAR_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d,
           CAST(EXTRACT(day FROM d) AS BIGINT) AS day,
           CAST(isodow(d) - 1 AS BIGINT) AS day_of_week,
           CAST(CAST(strftime(d, '%U') AS INTEGER) + 1 AS BIGINT) AS week,
           CAST(EXTRACT(month FROM d) AS BIGINT) AS month,
           CAST(EXTRACT(year FROM d) % 100 AS BIGINT) AS year,
           CAST(EXTRACT(quarter FROM d) AS BIGINT) AS quarter,
           isodow(d) - 1 >= 5 AS weekend_flag,
           strftime(d, '%y') || 'M' || strftime(d, '%m') AS month_year,
           strftime(d, '%y') || 'Q' || CAST(EXTRACT(quarter FROM d) AS VARCHAR)
               AS quarter_year
    FROM daily
"""


# ---------------------------------------------------------------------------
# aggregation / scalers / encoding / joins / sort over TPC-H-ish tables
# ---------------------------------------------------------------------------


@entry("rollup_q1_lineitem", sql=lambda: SQL_ROLLUP_Q1)
def q_rollup_q1_lineitem(sf_dir: str) -> pd.DataFrame:
    """A1 hierarchy rollup in TPC-H q1 shape: salted-combiner groupby."""
    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity",
                "l_extendedprice", "l_discount"])

    def disc(b: pd.DataFrame) -> pd.DataFrame:
        b["l_disc_price"] = b["l_extendedprice"] * (1.0 - b["l_discount"])
        return b

    li = li.map_batches(disc, batch_format="pandas")
    agg = hash_aggregate(li, ["l_returnflag", "l_linestatus"], {
        "sum_qty": ("l_quantity", "sum"),
        "sum_base_price": ("l_extendedprice", "sum"),
        "sum_disc_price": ("l_disc_price", "sum"),
        "count_order": ("l_quantity", "size"),
    }, num_partitions=_NP)
    df = agg.to_pandas()
    df["avg_qty"] = np.round(df["sum_qty"] / df["count_order"], 6)
    df = _round(df, ["sum_qty"], 4)
    df = _round(df, ["sum_base_price", "sum_disc_price"], 2)
    df["count_order"] = df["count_order"].astype("int64")
    return df[["l_returnflag", "l_linestatus", "sum_qty", "sum_base_price",
               "sum_disc_price", "avg_qty", "count_order"]]


SQL_ROLLUP_Q1 = """
    SELECT l_returnflag, l_linestatus,
           round(sum(l_quantity), 4) AS sum_qty,
           round(sum(l_extendedprice), 2) AS sum_base_price,
           round(sum(l_extendedprice * (1.0 - l_discount)), 2) AS sum_disc_price,
           round(sum(l_quantity) / count(*), 6) AS avg_qty,
           count(*) AS count_order
    FROM lineitem GROUP BY 1, 2
"""


@entry("standardize_lineitem", sql=lambda: SQL_STANDARDIZE_LINEITEM)
def q_standardize_lineitem(sf_dir: str) -> pd.DataFrame:
    """M3 two-phase standardize (ddof=1), applied distributed."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])
    li = li.materialize()
    params = scalers.fit_standardize(li, ["l_quantity"])
    out = li.map_batches(lambda b: scalers.apply_standardize(b, params),
                         batch_format="pandas").to_pandas()
    out = out.rename(columns={"l_quantity": "q_std"})
    return _round(out, ["q_std"], 6)


SQL_STANDARDIZE_LINEITEM = """
    SELECT l_orderkey, l_linenumber,
           round((l_quantity - avg(l_quantity) OVER ())
                 / stddev_samp(l_quantity) OVER (), 6) AS q_std
    FROM lineitem
"""


@entry("normalize_events", sql=lambda: SQL_NORMALIZE_EVENTS)
def q_normalize_events(sf_dir: str) -> pd.DataFrame:
    ev = _read(sf_dir, "events", ["event_id", "value"]).materialize()
    params = scalers.fit_normalize(ev, ["value"])
    out = ev.map_batches(lambda b: scalers.apply_normalize(b, params),
                         batch_format="pandas").to_pandas()
    out = out.rename(columns={"value": "v_norm"})
    return _round(out, ["v_norm"], 6)


SQL_NORMALIZE_EVENTS = """
    SELECT event_id,
           round((value - min(value) OVER ())
                 / (max(value) OVER () - min(value) OVER ()), 6) AS v_norm
    FROM events
"""


@entry("log1p_lineitem", sql=lambda: SQL_LOG1P_LINEITEM)
def q_log1p_lineitem(sf_dir: str) -> pd.DataFrame:
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_linenumber", "l_quantity"])
    out = li.map_batches(lambda b: scalers.apply_log1p(b, ["l_quantity"]),
                         batch_format="pandas").to_pandas()
    out = out.rename(columns={"l_quantity": "q_log"})
    return _round(out, ["q_log"], 9)


SQL_LOG1P_LINEITEM = """
    SELECT l_orderkey, l_linenumber, round(ln(1.0 + l_quantity), 9) AS q_log
    FROM lineitem
"""


@entry("correct_negatives_events", sql=lambda: SQL_CORRECT_NEGATIVES)
def q_correct_negatives_events(sf_dir: str) -> pd.DataFrame:
    """M1 clamp, on a centered copy so negatives actually occur."""
    from forecastframe_ray.functions import scalar

    ev = _read(sf_dir, "events", ["event_id", "value"])

    def center(b: pd.DataFrame) -> pd.DataFrame:
        b["v_clamped"] = b["value"] - 100.0
        return b[["event_id", "v_clamped"]]

    out = ev.map_batches(center, batch_format="pandas").map_batches(
        lambda b: scalar.correct_negatives_batch(b, ["v_clamped"], 0),
        batch_format="pandas").to_pandas()
    return _round(out, ["v_clamped"], 6)


SQL_CORRECT_NEGATIVES = """
    SELECT event_id,
           round(CASE WHEN value - 100.0 < 0 THEN 0 ELSE value - 100.0 END, 6)
               AS v_clamped
    FROM events
"""


@entry("encode_priority_orders", sql=lambda: SQL_ENCODE_PRIORITY)
def q_encode_priority_orders(sf_dir: str) -> pd.DataFrame:
    """M6 globally-consistent ordinal encoding (code = rank in sorted
    distinct values)."""
    od = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    keys = encoding.fit_categories(od, ["o_orderpriority"])
    out = od.map_batches(encoding.encode_batch_fn(keys),
                         batch_format="pandas").to_pandas()
    out = out.rename(columns={"o_orderpriority": "priority_code"})
    out["priority_code"] = out["priority_code"].astype("int64")
    return out


SQL_ENCODE_PRIORITY = """
    SELECT o_orderkey,
           CAST(DENSE_RANK() OVER (ORDER BY o_orderpriority) - 1 AS BIGINT)
               AS priority_code
    FROM orders
"""


@entry("join_orders_customer", sql=lambda: SQL_JOIN_ORDERS_CUSTOMER)
def q_join_orders_customer(sf_dir: str) -> pd.DataFrame:
    """J2 broadcast small-side join + rollup: per-nation order totals."""
    od = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    from forecastframe_ray.stages.join import broadcast_left_join
    joined = broadcast_left_join(
        od, cust.rename(columns={"c_custkey": "o_custkey"}), on=["o_custkey"])
    agg = hash_aggregate(joined, ["c_nationkey"], {
        "total_price": ("o_totalprice", "sum"),
        "n_orders": ("o_totalprice", "size"),
    }, num_partitions=_NP).to_pandas()
    agg["c_nationkey"] = agg["c_nationkey"].astype("int64")
    agg["n_orders"] = agg["n_orders"].astype("int64")
    return _round(agg, ["total_price"], 2)[["c_nationkey", "total_price", "n_orders"]]


SQL_JOIN_ORDERS_CUSTOMER = """
    SELECT c_nationkey, round(sum(o_totalprice), 2) AS total_price,
           count(*) AS n_orders
    FROM orders JOIN customer ON o_custkey = c_custkey
    GROUP BY 1
"""


@entry("semi_join_orders", sql=lambda: SQL_SEMI_JOIN_ORDERS)
def q_semi_join_orders(sf_dir: str) -> pd.DataFrame:
    """J6 broadcast semi-join: orders from high-balance customers, counted
    per status."""
    od = _read(sf_dir, "orders", ["o_custkey", "o_orderstatus"])
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_acctbal"]).to_pandas()
    keys = cust[cust["c_acctbal"] > 5000][["c_custkey"]] \
        .rename(columns={"c_custkey": "o_custkey"})
    kept = broadcast_semi_join(od, keys, on=["o_custkey"])
    out = hash_count(kept, ["o_orderstatus"], num_partitions=4).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out[["o_orderstatus", "n"]]


SQL_SEMI_JOIN_ORDERS = """
    SELECT o_orderstatus, count(*) AS n
    FROM orders
    WHERE o_custkey IN (SELECT c_custkey FROM customer WHERE c_acctbal > 5000)
    GROUP BY 1
"""


@entry("topk_orders", sql=lambda: SQL_TOPK_ORDERS)
def q_topk_orders(sf_dir: str) -> pd.DataFrame:
    """O4 top-k: distributed sort (range shuffle) + limit."""
    od = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    top = without_schema_metadata(od).sort(["o_totalprice", "o_orderkey"],
                                           descending=[True, False]).limit(10)
    return top.to_pandas()


SQL_TOPK_ORDERS = """
    SELECT o_orderkey, o_totalprice FROM orders
    ORDER BY o_totalprice DESC, o_orderkey LIMIT 10
"""


@entry("error_metrics_naive", sql=lambda: SQL_ERROR_METRICS_NAIVE)
def q_error_metrics_naive(sf_dir: str) -> pd.DataFrame:
    """A6 error metrics of the naive lag-1 daily forecast (partial+final
    distributed aggregation, never materializing the error table)."""
    fr = _daily_frame(sf_dir).lag_features("v", [1])
    preds = fr.dataset.map_batches(
        lambda b: b[b["v_lag1"].notna()], batch_format="pandas")
    out = metrics.error_summary(preds, "v", "v_lag1")
    out = out[["n", "MAPE", "MAPA", "MSE", "RMSE"]].copy()
    out["n"] = out["n"].astype("int64")
    out = _round(out, ["MAPE", "MAPA"], 6)
    out = _round(out, ["MSE"], 2)
    return _round(out, ["RMSE"], 4)


SQL_ERROR_METRICS_NAIVE = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               LAG(v, 1) OVER (PARTITION BY event_type ORDER BY d) AS lv
        FROM daily
    )
    SELECT count(*) AS n,
           round(avg(abs((v - lv) / v)), 6) AS MAPE,
           round(1.0 - avg(abs((v - lv) / v)), 6) AS MAPA,
           round(avg((v - lv) * (v - lv)), 2) AS MSE,
           round(sqrt(avg((v - lv) * (v - lv))), 4) AS RMSE
    FROM l WHERE lv IS NOT NULL
"""


@entry("sample_orders_deterministic", sql=lambda: SQL_SAMPLE_ORDERS)
def q_sample_orders(sf_dir: str) -> pd.DataFrame:
    """O7 sampling, production form: deterministic md5-bucket sample
    (expected 12.5%) — reproducible across any cluster shape / resume,
    unlike ``Dataset.random_sample`` (dev-only, per-block RNG)."""
    from forecastframe_ray.stages.sample import deterministic_sample

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    out = deterministic_sample(orders, "o_orderkey", rate=0.125).to_pandas()
    return out[["o_orderkey", "o_totalprice"]].astype({"o_orderkey": "int64"})


SQL_SAMPLE_ORDERS = """
    SELECT o_orderkey, o_totalprice FROM orders
    WHERE CAST(concat('0x', substr(md5(CAST(o_orderkey AS VARCHAR)), 1, 8))
               AS BIGINT) < CAST(floor(0.125 * 4294967296) AS BIGINT)
"""


# ---------------------------------------------------------------------------
# dedup / text analysis / similarity over documents + embeddings
# ---------------------------------------------------------------------------


@entry("exact_dedup_documents", sql=lambda: SQL_EXACT_DEDUP_DOCS)
def q_exact_dedup_documents(sf_dir: str) -> pd.DataFrame:
    """Exact dedup: surviving doc_ids (min id per distinct text)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dedup.exact_dedup(docs).to_pandas()
    return out[["doc_id"]]


SQL_EXACT_DEDUP_DOCS = "SELECT min(doc_id) AS doc_id FROM documents GROUP BY text"


@entry("dup_counts_documents", sql=lambda: SQL_DUP_COUNTS_DOCS)
def q_dup_counts_documents(sf_dir: str) -> pd.DataFrame:
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = dedup.duplicate_counts(docs).to_pandas()
    out["n_copies"] = out["n_copies"].astype("int64")
    return out[["__digest", "n_copies"]]


SQL_DUP_COUNTS_DOCS = """
    SELECT md5(text) AS __digest, count(*) AS n_copies
    FROM documents GROUP BY 1
"""


@entry("token_counts_documents", sql=lambda: SQL_TOKEN_COUNTS_DOCS)
def q_token_counts_documents(sf_dir: str) -> pd.DataFrame:
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(textstats.token_counts_batch,
                           batch_format="pyarrow").to_pandas()
    return out[["doc_id", "n_chars_text", "n_tokens_ws"]]


SQL_TOKEN_COUNTS_DOCS = r"""
    SELECT doc_id,
           CAST(length(text) AS BIGINT) AS n_chars_text,
           CAST(length(regexp_extract_all(text, '\S+')) AS BIGINT) AS n_tokens_ws
    FROM documents
"""


@entry("text_analysis_documents")
def q_text_analysis_documents(sf_dir: str) -> pd.DataFrame:
    """Lang-ID + quality + fingerprint (heuristic stages — rows-only check)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = textstats.analyze_documents(docs).to_pandas()
    cols = ["alpha_ratio", "punct_ratio", "stopword_frac", "quality_score"]
    out = _round(out, cols, 6)
    out["doc_fingerprint"] = out["doc_fingerprint"].astype("uint64")
    return out[["doc_id", "lang_pred"] + cols + ["doc_fingerprint"]]


@entry("minhash_pairs_documents")
def q_minhash_pairs_documents(sf_dir: str) -> pd.DataFrame:
    """MinHash+LSH near-dup candidate pairs, n-gram-Jaccard-verified
    (rows-only: the banding itself is not SQL-expressible)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = dedup.minhash_lsh_pairs(docs, threshold=0.5).to_pandas()
    return _round(pairs[["id_a", "id_b", "jaccard"]], ["jaccard"], 6)


@entry("simhash_pairs_documents")
def q_simhash_pairs_documents(sf_dir: str) -> pd.DataFrame:
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = dedup.simhash_near_dup_pairs(docs, max_hamming=3).to_pandas()
    pairs["hamming"] = pairs["hamming"].astype("int64")
    return pairs[["id_a", "id_b", "hamming"]]


@entry("embedding_near_dup")
def q_embedding_near_dup(sf_dir: str) -> pd.DataFrame:
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    from forecastframe_ray.stages.agg import ensure_columns

    pairs = ensure_columns(
        dedup.embedding_near_dup_pairs(emb, threshold=0.3,
                                       num_planes=4).to_pandas(),
        {"id_a": "int64", "id_b": "int64", "cos_sim": "float64"})
    return _round(pairs[["id_a", "id_b", "cos_sim"]], ["cos_sim"], 6)


def _query_vectors(sf_dir: str, ids=(0, 1)) -> np.ndarray:
    t = pq.read_table(f"{sf_dir}/embeddings.parquet",
                      columns=["vec_id", "embedding"])
    df = t.to_pandas().set_index("vec_id")
    return np.stack([np.asarray(df.loc[i, "embedding"], dtype=np.float64)
                     for i in ids])


@entry("ann_bruteforce_embeddings", sql=lambda: SQL_ANN_BRUTEFORCE)
def q_ann_bruteforce_embeddings(sf_dir: str) -> pd.DataFrame:
    """Exact cosine top-10 for query vectors vec_id 0 and 1 (ids-only output
    so the oracle compares integer ranks, not float paths)."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    top = similarity.brute_force_topk(emb, _query_vectors(sf_dir), k=10)
    top["query_ix"] = top["query_ix"].astype("int64")
    return top[["query_ix", "rank", "vec_id"]]


SQL_ANN_BRUTEFORCE = """
    WITH q AS (SELECT vec_id AS qid, embedding AS qv FROM embeddings
               WHERE vec_id IN (0, 1)),
    s AS (SELECT qid, e.vec_id,
                 list_cosine_similarity(e.embedding, qv) AS sim
          FROM embeddings e CROSS JOIN q),
    r AS (SELECT qid, vec_id, row_number() OVER (
              PARTITION BY qid ORDER BY sim DESC, vec_id) AS rn FROM s)
    SELECT CAST(qid AS BIGINT) AS query_ix, CAST(rn - 1 AS BIGINT) AS rank,
           vec_id
    FROM r WHERE rn <= 10
"""


@entry("gorilla_roundtrip_events", sql=lambda: SQL_GORILLA_ROUNDTRIP)
def q_gorilla_roundtrip_events(sf_dir: str) -> pd.DataFrame:
    """Gorilla XOR + delta-of-delta codec over the daily series, decoded back
    and re-aggregated — proves bit-exact roundtrip distributed (rows-only)."""
    daily = _bucket_series(sf_dir, DAY_US, "d")

    def to_us(b: pd.DataFrame) -> pd.DataFrame:
        b["bucket_us"] = b["d"].astype("datetime64[us]").astype("int64")
        return b[["event_type", "bucket_us", "v"]]

    series = daily.map_batches(to_us, batch_format="pandas")
    chunks = gorilla.encode_series_dataset(series, ["event_type"], "bucket_us",
                                           "v", tier="1d", num_partitions=4)
    decoded = gorilla.decode_chunk_dataset(chunks, ["event_type"],
                                           ts_col="bucket_us", value_col="v")
    out = hash_aggregate(decoded, ["event_type"], {
        "n_points": ("v", "size"), "sum_v": ("v", "sum"),
    }, num_partitions=4).to_pandas()
    out["n_points"] = out["n_points"].astype("int64")
    return _round(out, ["sum_v"], 6)[["event_type", "n_points", "sum_v"]]


SQL_GORILLA_ROUNDTRIP = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, count(*) AS n_points, round(sum(v), 6) AS sum_v
    FROM daily GROUP BY 1
"""


@entry("rollup_grouper_stats_events", sql=lambda: SQL_ROLLUP_GROUPER_STATS)
def q_rollup_grouper_stats_events(sf_dir: str) -> pd.DataFrame:
    """W1 with ``groupers`` (A1 aggregate → window at rollup grain → J1
    broadcast join back): base grain (event_type, seg, day), rolling mean
    computed at the event_type level and joined to every seg row."""
    ev = _read(sf_dir, "events", ["event_type", "user_id", "ts", "value"])

    def floor_fn(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        out = pd.DataFrame({
            "event_type": b["event_type"],
            "seg": (b["user_id"] % 4).astype("int64"),
            "d": pd.to_datetime((us // DAY_US) * DAY_US, unit="us"),
            "value": b["value"],
        })
        return out

    base = hash_aggregate(ev.map_batches(floor_fn, batch_format="pandas"),
                          ["event_type", "seg", "d"], {"v": ("value", "sum")},
                          num_partitions=_NP)

    def round_fn(b: pd.DataFrame) -> pd.DataFrame:
        b["v"] = np.round(b["v"].to_numpy(dtype=np.float64), 6)
        return b

    base = base.map_batches(round_fn, batch_format="pandas")
    fr = RayForecastFrame(base, datetime_column="d", target="v",
                          hierarchy=["event_type", "seg"], num_partitions=_NP)
    fr.calc_statistical_features(
        "v", windows=7, aggregations=["mean"], lag=1, min_periods=1,
        groupers={"name": "total", "columns": ["event_type"], "operation": "sum"})
    col = "v_mean_total_roll7_lag1"
    df = fr.to_pandas()[["event_type", "seg", "d", "v", col]]
    df = _round(df, [col], 6)
    return _fill(df, [col])


SQL_ROLLUP_GROUPER_STATS = f"""
    WITH base AS (
        SELECT event_type, user_id % 4 AS seg, date_trunc('day', ts) AS d,
               round(sum(value), 6) AS v
        FROM events GROUP BY 1, 2, 3
    ),
    lvl AS (SELECT event_type, d, sum(v) AS vt FROM base GROUP BY 1, 2),
    l2 AS (
        SELECT event_type, d, epoch_us(d) // {DAY_US} AS dn,
               LAG(vt) OVER (PARTITION BY event_type ORDER BY d) AS lv
        FROM lvl
    ),
    r AS (
        SELECT event_type, d,
               COALESCE(round(avg(lv) OVER (PARTITION BY event_type ORDER BY dn
                   RANGE BETWEEN 6 PRECEDING AND CURRENT ROW), 6), {NULLF})
                   AS v_mean_total_roll7_lag1
        FROM l2
    )
    SELECT b.event_type, b.seg, b.d, b.v, r.v_mean_total_roll7_lag1
    FROM base b JOIN r USING (event_type, d)
"""


@entry("interpolate_hourly_events", sql=lambda: SQL_INTERPOLATE_HOURLY)
def q_interpolate_hourly_events(sf_dir: str) -> pd.DataFrame:
    """W8 gap-fill + W9 LINEAR-in-time interpolation (north_rule addition;
    interior gaps only, edges stay null → sentinel)."""
    hourly = _bucket_series(sf_dir, HOUR_US, "h")
    fr = RayForecastFrame(hourly, datetime_column="h", target="v",
                          hierarchy=["event_type"], num_partitions=_NP)
    fr.fill_time_gaps(freq="h", mode="local")
    fr.fill_missings(method="interpolate", features=["v"])
    df = fr.to_pandas()[["event_type", "h", "v"]]
    df = _round(df, ["v"], 6)
    return _fill(df, ["v"])


SQL_INTERPOLATE_HOURLY = f"""
    WITH hourly AS ({_HOURLY_SQL}),
    bounds AS (SELECT event_type, min(h) AS lo, max(h) AS hi FROM hourly GROUP BY 1),
    grid AS (
        SELECT event_type, unnest(generate_series(lo, hi, INTERVAL 1 HOUR)) AS h
        FROM bounds
    ),
    j AS (SELECT g.event_type, g.h, hr.v
          FROM grid g LEFT JOIN hourly hr USING (event_type, h)),
    w AS (
        SELECT event_type, h, v,
               LAST_VALUE(v IGNORE NULLS) OVER
                   (PARTITION BY event_type ORDER BY h
                    ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS pv,
               LAST_VALUE(CASE WHEN v IS NOT NULL THEN h END IGNORE NULLS) OVER
                   (PARTITION BY event_type ORDER BY h
                    ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW) AS pt,
               FIRST_VALUE(v IGNORE NULLS) OVER
                   (PARTITION BY event_type ORDER BY h
                    ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS nv,
               FIRST_VALUE(CASE WHEN v IS NOT NULL THEN h END IGNORE NULLS) OVER
                   (PARTITION BY event_type ORDER BY h
                    ROWS BETWEEN CURRENT ROW AND UNBOUNDED FOLLOWING) AS nt
        FROM j
    )
    SELECT event_type, h,
           round(CASE
               WHEN v IS NOT NULL THEN v
               WHEN pv IS NOT NULL AND nv IS NOT NULL THEN
                   pv + (nv - pv) * (epoch_us(h) - epoch_us(pt))
                        / (epoch_us(nt) - epoch_us(pt))
               ELSE {NULLF}
           END, 6) AS v
    FROM w
"""


_MOM_COLS = ["v_mean_roll7_lag1", "v_sum_roll7_lag1",
             "v_mean_roll7_lag1_momentum", "v_sum_roll7_lag1_perc"]


@entry("momentum_daily_events", sql=lambda: SQL_MOMENTUM_DAILY)
def q_momentum_daily_events(sf_dir: str) -> pd.DataFrame:
    """W1 momentums + percentages: shift(lag) over rolling mean / rolling
    sum (feature_engineering.py:400-422, grouped-shift form)."""
    fr = _daily_frame(sf_dir).calc_statistical_features(
        "v", windows=7, aggregations=["mean", "sum"], lag=1, min_periods=1,
        momentums=True, percentages=True)
    df = fr.to_pandas()[["event_type", "d", "v"] + _MOM_COLS]
    df = _round(df, _MOM_COLS, 6)
    return _fill(df, _MOM_COLS)


SQL_MOMENTUM_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v, epoch_us(d) // {DAY_US} AS dn,
               LAG(v, 1) OVER (PARTITION BY event_type ORDER BY d) AS lv
        FROM daily
    ),
    r AS (
        SELECT event_type, d, v, lv,
               avg(lv) OVER w AS m7, sum(lv) OVER w AS s7
        FROM l WINDOW w AS (PARTITION BY event_type ORDER BY dn
                            RANGE BETWEEN 6 PRECEDING AND CURRENT ROW)
    )
    SELECT event_type, d, v,
           COALESCE(round(m7, 6), {NULLF}) AS v_mean_roll7_lag1,
           COALESCE(round(s7, 6), {NULLF}) AS v_sum_roll7_lag1,
           COALESCE(round(lv / m7, 6), {NULLF}) AS v_mean_roll7_lag1_momentum,
           COALESCE(round(lv / s7, 6), {NULLF}) AS v_sum_roll7_lag1_perc
    FROM r
"""


@entry("c4_boilerplate_documents", sql=lambda: SQL_C4_BOILERPLATE)
def q_c4_boilerplate_documents(sf_dir: str) -> pd.DataFrame:
    """C4-style line cleaning + corpus-level boilerplate-line removal
    (two-pass distributed). The oracle recomputes both passes in SQL over
    exploded lines (content counts stand in for the engine's uint64 line
    hashes — equal barring a 2^-64 collision)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    stripped = textstats.remove_boilerplate_lines(docs, max_repeats=3)
    cleaned = stripped.map_batches(
        lambda b: textstats.c4_clean_batch(b, min_words_per_line=3,
                                           require_terminal=False),
        batch_format="pandas")
    out = cleaned.to_pandas()
    cols = ["doc_id", "n_lines_kept", "n_boilerplate_removed", "n_chars_clean"]
    if out.empty or "text_clean" not in out.columns:
        return pd.DataFrame({c: pd.Series([], dtype="int64") for c in cols})
    out["n_chars_clean"] = out["text_clean"].str.len().astype("int64")
    return out[cols]


SQL_C4_BOILERPLATE = r"""
    WITH lns AS (
        SELECT doc_id, trim(ln, ' ' || chr(9) || chr(13) || chr(12) || chr(11)) AS s
        FROM (SELECT doc_id, unnest(string_split(text, chr(10))) AS ln
              FROM documents)
        WHERE trim(ln, ' ' || chr(9) || chr(13) || chr(12) || chr(11)) <> ''
    ),
    cnt AS (SELECT s, count(*) AS c FROM lns GROUP BY 1),
    j AS (SELECT l.doc_id, l.s, (c.c > 3) AS is_bp
          FROM lns l JOIN cnt c USING (s)),
    agg AS (
        SELECT doc_id,
            SUM(CASE WHEN is_bp THEN 1 ELSE 0 END) AS n_bp,
            SUM(CASE WHEN NOT is_bp
                  AND length(regexp_extract_all(s, '\S+')) >= 3
                  AND NOT contains(s, '{') AND NOT contains(s, '}')
                  AND NOT contains(lower(s), 'lorem ipsum')
                THEN 1 ELSE 0 END) AS n_kept,
            SUM(CASE WHEN NOT is_bp
                  AND length(regexp_extract_all(s, '\S+')) >= 3
                  AND NOT contains(s, '{') AND NOT contains(s, '}')
                  AND NOT contains(lower(s), 'lorem ipsum')
                THEN length(s) ELSE 0 END) AS kept_chars
        FROM j GROUP BY 1
    )
    SELECT doc_id,
           CAST(n_kept AS BIGINT) AS n_lines_kept,
           CAST(n_bp AS BIGINT) AS n_boilerplate_removed,
           CAST(kept_chars + greatest(n_kept - 1, 0) AS BIGINT) AS n_chars_clean
    FROM agg WHERE n_kept >= 1
"""


# ---------------------------------------------------------------------------
# round-2 oracle-gap queries: every implemented-but-oracle-less §2 op
# ---------------------------------------------------------------------------


@entry("descale_roundtrip_lineitem", sql=lambda: SQL_DESCALE_ROUNDTRIP)
def q_descale_roundtrip_lineitem(sf_dir: str) -> pd.DataFrame:
    """M5 descale roundtrip: log1p(l_quantity) + standardize(l_extendedprice)
    then ``descale_features`` — the inverse formulas must restore the
    original values (transform.py:238-364 semantics)."""
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity", "l_extendedprice",
                "l_shipdate"])
    fr = RayForecastFrame(li, datetime_column="l_shipdate", target="l_quantity",
                          hierarchy=None, num_partitions=_NP)
    fr.log_features(["l_quantity"]).standardize_features(["l_extendedprice"])
    fr.descale_features()
    out = fr.to_pandas()[["l_orderkey", "l_linenumber", "l_quantity",
                          "l_extendedprice"]]
    out = _round(out, ["l_quantity"], 6)
    return _round(out, ["l_extendedprice"], 4)


SQL_DESCALE_ROUNDTRIP = """
    SELECT l_orderkey, l_linenumber,
           round(l_quantity, 6) AS l_quantity,
           round(l_extendedprice, 4) AS l_extendedprice
    FROM lineitem
"""


@entry("decode_priority_orders", sql=lambda: SQL_DECODE_PRIORITY)
def q_decode_priority_orders(sf_dir: str) -> pd.DataFrame:
    """M7 decode roundtrip: globally-consistent ordinal encode then decode
    via the stored code→value dictionary restores the original strings."""
    od = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])
    keys = encoding.fit_categories(od, ["o_orderpriority"])
    enc = od.map_batches(encoding.encode_batch_fn(keys), batch_format="pandas")
    dec = enc.map_batches(encoding.decode_batch_fn(keys), batch_format="pandas")
    return dec.to_pandas()[["o_orderkey", "o_orderpriority"]]


SQL_DECODE_PRIORITY = "SELECT o_orderkey, o_orderpriority FROM orders"


@entry("compress_lineitem", sql=lambda: SQL_COMPRESS_LINEITEM)
def q_compress_lineitem(sf_dir: str) -> pd.DataFrame:
    """M10 compress: global-stat lossless integer downcast; the oracle
    verifies every value survives the narrowing."""
    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linenumber", "l_quantity", "l_shipdate"])
    fr = RayForecastFrame(li, datetime_column="l_shipdate", target="l_quantity",
                          hierarchy=None, num_partitions=_NP)
    fr.compress()
    out = fr.to_pandas()[["l_orderkey", "l_linenumber", "l_quantity"]]
    out["l_orderkey"] = out["l_orderkey"].astype("int64")
    out["l_linenumber"] = out["l_linenumber"].astype("int64")
    return _round(out, ["l_quantity"], 2)


SQL_COMPRESS_LINEITEM = """
    SELECT l_orderkey, l_linenumber, round(l_quantity, 2) AS l_quantity
    FROM lineitem
"""


@entry("remove_min_lags_daily", sql=lambda: SQL_REMOVE_MIN_LAGS)
def q_remove_min_lags_daily(sf_dir: str) -> pd.DataFrame:
    """M11 remove_min_lags: lags 1-3 built, minimum lag 2 → the lag-1 column
    is dropped (schema check is the point; model.py:631-651)."""
    fr = _daily_frame(sf_dir).lag_features("v", [1, 2, 3])
    fr.remove_min_lags({"v": 2})
    cols = list(fr.dataset.schema().names)
    assert "v_lag1" not in cols, cols
    df = fr.to_pandas()[["event_type", "d", "v", "v_lag2", "v_lag3"]]
    return _fill(df, ["v_lag2", "v_lag3"])


SQL_REMOVE_MIN_LAGS = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           COALESCE(LAG(v, 2) OVER w, {NULLF}) AS v_lag2,
           COALESCE(LAG(v, 3) OVER w, {NULLF}) AS v_lag3
    FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
"""


@entry("merge_actuals_daily", sql=lambda: SQL_MERGE_ACTUALS)
def q_merge_actuals_daily(sf_dir: str) -> pd.DataFrame:
    """J3 merge_actuals: predictions for even days FULL-OUTER-joined with the
    actuals on hierarchy + datetime (distributed hash join)."""
    fr = _daily_frame(sf_dir)
    base = fr.to_pandas()
    dn = base["d"].astype("datetime64[us]").astype("int64") // DAY_US
    preds = base.loc[dn % 2 == 0, ["event_type", "d"]].copy()
    preds["pred"] = np.round(base.loc[dn % 2 == 0, "v"].to_numpy() * 0.9, 6)
    merged = fr.merge_actuals(preds).to_pandas()
    merged = merged[["event_type", "d", "pred", "v"]]
    merged = _round(merged, ["v"], 6)
    return _fill(merged, ["pred", "v"])


SQL_MERGE_ACTUALS = f"""
    WITH daily AS ({_DAILY_SQL}),
    preds AS (
        SELECT event_type, d, round(v * 0.9, 6) AS pred
        FROM daily WHERE (epoch_us(d) // {DAY_US}) % 2 = 0
    )
    SELECT COALESCE(p.event_type, a.event_type) AS event_type,
           COALESCE(p.d, a.d) AS d,
           COALESCE(p.pred, {NULLF}) AS pred,
           COALESCE(round(a.v, 6), {NULLF}) AS v
    FROM preds p FULL OUTER JOIN daily a
        ON p.event_type = a.event_type AND p.d = a.d
"""


@entry("update_values_daily", sql=lambda: SQL_UPDATE_VALUES)
def q_update_values_daily(sf_dir: str) -> pd.DataFrame:
    """J4 update_values: every 5th day patched with v+1000 via the broadcast
    non-NA coalesce (utilities.py:189-211 semantics)."""
    fr = _daily_frame(sf_dir)
    base = fr.to_pandas()
    dn = base["d"].astype("datetime64[us]").astype("int64") // DAY_US
    patch = base.loc[dn % 5 == 0, ["event_type", "d", "v"]].copy()
    patch["v"] = np.round(patch["v"].to_numpy() + 1000.0, 6)
    fr.update_values(patch)
    out = fr.to_pandas()[["event_type", "d", "v"]]
    return _round(out, ["v"], 6)


SQL_UPDATE_VALUES = f"""
    WITH daily AS ({_DAILY_SQL}),
    patch AS (
        SELECT event_type, d, round(v + 1000.0, 6) AS pv
        FROM daily WHERE (epoch_us(d) // {DAY_US}) % 5 = 0
    )
    SELECT a.event_type, a.d, round(COALESCE(p.pv, a.v), 6) AS v
    FROM daily a LEFT JOIN patch p USING (event_type, d)
"""


@entry("future_frame_daily", sql=lambda: SQL_FUTURE_FRAME)
def q_future_frame_daily(sf_dir: str) -> pd.DataFrame:
    """W10 future frame: distinct hierarchy × the next 7 days after the
    global max date, NaN target, unioned with history (model.py:717-791)."""
    fr = _daily_frame(sf_dir)
    out_fr = fr.make_future_frame(periods=7, freq="D", include_history=True,
                                  apply_plan=False)
    df = out_fr.to_pandas()[["event_type", "d", "v"]]
    df = _round(df, ["v"], 6)
    return _fill(df, ["v"])


SQL_FUTURE_FRAME = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, round(v, 6) AS v FROM daily
    UNION ALL
    SELECT t.event_type, f.d, {NULLF} AS v
    FROM (SELECT DISTINCT event_type FROM daily) t
    CROSS JOIN (
        SELECT unnest(generate_series(maxd + INTERVAL 1 DAY,
                                      maxd + INTERVAL 7 DAY,
                                      INTERVAL 1 DAY)) AS d
        FROM (SELECT max(d) AS maxd FROM daily)
    ) f
"""


@entry("save_load_roundtrip_events", sql=lambda: SQL_SAVE_LOAD)
def q_save_load_roundtrip_events(sf_dir: str) -> pd.DataFrame:
    """S2/S3 save/load: parquet + JSON-manifest persistence roundtrip — the
    reloaded frame (data AND fitted scaler state) matches the source."""
    import shutil

    path = "/tmp/ffray_query_saveload"
    shutil.rmtree(path, ignore_errors=True)
    fr = _daily_frame(sf_dir).log_features(["v"])
    fr.save(path)
    fr2 = RayForecastFrame.load(path)
    assert fr2.transforms.get("log1p", {}).get("features") == ["v"], fr2.transforms
    out = fr2.to_pandas()[["event_type", "d", "v"]]
    return _round(out, ["v"], 9)


SQL_SAVE_LOAD = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, round(ln(1.0 + v), 9) AS v FROM daily
"""


@entry("missing_percentages_hourly", sql=lambda: SQL_MISSING_PCT)
def q_missing_percentages_hourly(sf_dir: str) -> pd.DataFrame:
    """A7 missing-percentage profile over the gap-filled hourly series:
    per-block null counts summed by the calling process, never
    materializing the table."""
    hourly = _bucket_series(sf_dir, HOUR_US, "h")
    fr = RayForecastFrame(hourly, datetime_column="h", target="v",
                          hierarchy=["event_type"], num_partitions=_NP)
    fr.fill_time_gaps(freq="h", mode="local")
    ser = fr.missing_percentages()
    out = pd.DataFrame({"column_name": ser.index.to_numpy(dtype=object),
                        "missing_pct": ser.to_numpy(dtype=np.float64)})
    return _round(out, ["missing_pct"], 6)


SQL_MISSING_PCT = f"""
    WITH hourly AS ({_HOURLY_SQL}),
    bounds AS (SELECT event_type, min(h) AS lo, max(h) AS hi
               FROM hourly GROUP BY 1),
    grid AS (
        SELECT event_type, unnest(generate_series(lo, hi, INTERVAL 1 HOUR)) AS h
        FROM bounds
    ),
    j AS (SELECT g.event_type, g.h, hr.v
          FROM grid g LEFT JOIN hourly hr USING (event_type, h))
    SELECT 'event_type' AS column_name, 0.0 AS missing_pct FROM (SELECT 1)
    UNION ALL SELECT 'h', 0.0
    UNION ALL
    SELECT 'v', round(1.0 - CAST(count(v) AS DOUBLE) / count(*), 6) FROM j
"""


@entry("cv_folds_daily", sql=lambda: SQL_CV_FOLDS)
def q_cv_folds_daily(sf_dir: str) -> pd.DataFrame:
    """§3.4 leakage-safe CV: 3 expanding-window folds with gap=1 over the
    distinct dates; per (fold, series, role) row counts and value sums — the
    sums also prove the masked test actuals were restored."""
    from forecastframe_ray.pipelines import cv

    fr = _daily_frame(sf_dir)
    parts = []
    for fold_ix, (fold, ffr) in enumerate(cv.fold_frames(fr, n_splits=3, gap=1)):
        agg = hash_aggregate(ffr.dataset, ["event_type", "__is_test"], {
            "n_rows": ("v", "size"), "sum_v": ("v", "sum"),
        }, num_partitions=4).to_pandas()
        agg["fold"] = fold_ix
        parts.append(agg)
    out = pd.concat(parts, ignore_index=True)
    out["role"] = np.where(out["__is_test"].astype(bool), "test", "train")
    out["fold"] = out["fold"].astype("int64")
    out["n_rows"] = out["n_rows"].astype("int64")
    out = _round(out, ["sum_v"], 6)
    return out[["fold", "event_type", "role", "n_rows", "sum_v"]]


SQL_CV_FOLDS = f"""
    WITH daily AS ({_DAILY_SQL}),
    dd AS (SELECT d, CAST(row_number() OVER (ORDER BY d) - 1 AS BIGINT) AS rn
           FROM (SELECT DISTINCT d FROM daily)),
    params AS (SELECT count(*) AS n, count(*) // 4 AS ts FROM dd),
    folds AS (SELECT unnest([0, 1, 2]) AS fold),
    bounds AS (SELECT fold, n - (3 - fold) * ts AS tsix, ts
               FROM folds CROSS JOIN params),
    lab AS (
        SELECT b.fold, dd.d,
               CASE WHEN dd.rn <= b.tsix - 2 THEN 'train'
                    WHEN dd.rn >= b.tsix AND dd.rn < b.tsix + b.ts THEN 'test'
               END AS role
        FROM bounds b CROSS JOIN dd
    )
    SELECT CAST(l.fold AS BIGINT) AS fold, dy.event_type, l.role,
           count(*) AS n_rows, round(sum(dy.v), 6) AS sum_v
    FROM lab l JOIN daily dy ON dy.d = l.d
    WHERE l.role IS NOT NULL
    GROUP BY 1, 2, 3
"""


#: EWMA closed form (adjust=True): ewma_t = Σ x_i (1-α)^(t-i) / Σ (1-α)^(t-i)
#: — the common (1-α)^t factor cancels, so both sums use pow(1/(1-α), rn).
#: α = 2/(span+1): span 3 → 1/(1-α) = 2, span 7 → 4/3. min_periods =
#: ceil(span^0.8) = 3 and 5 (feature_engineering.py:479-483, 559-567).
SQL_EWMA_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               LAG(v, 1) OVER (PARTITION BY event_type ORDER BY d) AS x,
               row_number() OVER (PARTITION BY event_type ORDER BY d) AS rn
        FROM daily
    ),
    e AS (
        SELECT event_type, d, v,
               SUM(x * pow(2.0, rn)) OVER w
                   / SUM(CASE WHEN x IS NOT NULL THEN pow(2.0, rn) END) OVER w
                   AS e3,
               SUM(x * pow(4.0 / 3.0, rn)) OVER w
                   / SUM(CASE WHEN x IS NOT NULL THEN pow(4.0 / 3.0, rn) END)
                     OVER w AS e7,
               COUNT(x) OVER w AS cnt
        FROM l
        WINDOW w AS (PARTITION BY event_type ORDER BY rn
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
    )
    SELECT event_type, d, v,
           CASE WHEN cnt >= 3 THEN round(e3, 6) ELSE {NULLF} END
               AS v_ewma_roll3_lag1,
           CASE WHEN cnt >= 5 THEN round(e7, 6) ELSE {NULLF} END
               AS v_ewma_roll7_lag1,
           CASE WHEN cnt >= 5 THEN round(e3 / e7, 6) ELSE {NULLF} END
               AS v_ewma_roll3_lag1_cross7
    FROM e
"""


@entry("text_ratios_documents", sql=lambda: SQL_TEXT_RATIOS)
def q_text_ratios_documents(sf_dir: str) -> pd.DataFrame:
    """Quality-scoring character/stopword ratios (the SQL-expressible subset
    of the text-analysis stage; quality_batch definitions)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(lambda b: textstats.quality_batch(b),
                           batch_format="pandas").to_pandas()
    cols = ["alpha_ratio", "digit_ratio", "punct_ratio", "mean_word_len",
            "stopword_frac"]
    return _round(out[["doc_id"] + cols], cols, 6)


_STOP_SQL = ", ".join(f"'{w}'" for w in sorted(
    "the of and to in a is that it for on with as was at by an be this have "
    "from or are not but had his they you which one all were her she there".split()))

SQL_TEXT_RATIOS = rf"""
    WITH f AS (
        SELECT doc_id, text,
               greatest(length(text), 1) AS n,
               length(regexp_replace(text, '[^A-Za-z]', '', 'g')) AS na,
               length(regexp_replace(text, '[^0-9]', '', 'g')) AS nd,
               length(regexp_replace(text, '[^0-9A-Za-z_]', '', 'g')) AS nw,
               length(text) - length(regexp_replace(text, '\s', '', 'g'))
                   AS nspace,
               list_transform(regexp_extract_all(text, '\S+'),
                              t -> trim(lower(t), '.,;:!?"''()[]')) AS toks
        FROM documents
    )
    SELECT doc_id,
           round_even(CAST(na AS DOUBLE) / n, 6) AS alpha_ratio,
           round_even(CAST(nd AS DOUBLE) / n, 6) AS digit_ratio,
           round_even(CAST(length(text) - nw - nspace AS DOUBLE) / n, 6)
               AS punct_ratio,
           round_even(CAST(length(text) - nspace AS DOUBLE)
                 / greatest(length(toks), 1), 6) AS mean_word_len,
           round_even(CAST(length(list_filter(toks, t -> t IN ({_STOP_SQL})))
                      AS DOUBLE) / greatest(length(toks), 1), 6)
               AS stopword_frac
    FROM f
"""


@entry("embedding_neardup_exact", sql=lambda: SQL_EMBEDDING_NEARDUP_EXACT)
def q_embedding_neardup_exact(sf_dir: str) -> pd.DataFrame:
    """Exact embedding-cosine near-dup pairs (the verification baseline the
    LSH variant approximates): per-batch matmul against the full normalized
    matrix shipped worker-side via block refs — no driver collection."""
    import ray

    from forecastframe_ray.pipelines.similarity import _normalize, _stack
    from forecastframe_ray.stages.agg import ensure_columns
    from forecastframe_ray.stages.join import actor_map

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"]).materialize()
    refs = emb.to_arrow_refs()
    threshold = 0.3

    def load():
        import pyarrow as pa
        t = pa.concat_tables([t for t in ray.get(list(refs)) if t.num_rows])
        ids = t["vec_id"].to_numpy()
        order = np.argsort(ids)
        return ids[order], _normalize(_stack(t["embedding"]))[order]

    def find_pairs(batch: pd.DataFrame, state) -> pd.DataFrame:
        all_ids, M = state
        ids = batch["vec_id"].to_numpy()
        C = _normalize(_stack(batch["embedding"])) @ M.T
        # emit each unordered pair once: from the batch row with lower id
        ia, ib = np.where((C >= threshold) & (ids[:, None] < all_ids[None, :]))
        return pd.DataFrame({"id_a": ids[ia], "id_b": all_ids[ib],
                             "cos_sim": C[ia, ib]})

    pairs = actor_map(emb, load, find_pairs).to_pandas()
    pairs = ensure_columns(pairs, {"id_a": "int64", "id_b": "int64",
                                   "cos_sim": "float64"})
    return _round(pairs[["id_a", "id_b", "cos_sim"]], ["cos_sim"], 6)


#: embeddings are stored float32; cast to DOUBLE[] so the oracle's cosine is
#: computed in the same precision as the engine (float32 math shifts the 6th
#: decimal and flips threshold-boundary pairs; round() is also a no-op on
#: FLOAT in DuckDB).
SQL_EMBEDDING_NEARDUP_EXACT = """
    WITH e AS (SELECT vec_id, CAST(embedding AS DOUBLE[]) AS v
               FROM embeddings)
    SELECT a.vec_id AS id_a, b.vec_id AS id_b,
           round(list_cosine_similarity(a.v, b.v), 6) AS cos_sim
    FROM e a JOIN e b ON a.vec_id < b.vec_id
    WHERE list_cosine_similarity(a.v, b.v) >= 0.3
"""


@entry("ann_ivf_recall", sql=lambda: SQL_ANN_IVF_RECALL)
def q_ann_ivf_recall(sf_dir: str) -> pd.DataFrame:
    """IVF recall@10 gate vs the exact brute-force top-k: the driver-visible
    oracle row asserts recall ≥ 0.9 per query (nprobe=8 of 16 centroids)."""
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    Q = _query_vectors(sf_dir)
    bf = similarity.brute_force_topk(emb, Q, k=10)
    ivf = similarity.ivf_topk(emb, Q, k=10, num_centroids=16, nprobe=8)
    rows = []
    for qi in range(len(Q)):
        exact = set(bf.loc[bf["query_ix"] == qi, "vec_id"])
        approx = set(ivf.loc[ivf["query_ix"] == qi, "vec_id"])
        rows.append((qi, len(exact & approx) / max(len(exact), 1) >= 0.9))
    return pd.DataFrame(rows, columns=["query_ix", "recall_ok"]) \
        .astype({"query_ix": "int64", "recall_ok": "bool"})


SQL_ANN_IVF_RECALL = """
    SELECT CAST(0 AS BIGINT) AS query_ix, true AS recall_ok
    UNION ALL SELECT CAST(1 AS BIGINT), true
"""


@entry("ngram_jaccard_pairs", sql=lambda: SQL_NGRAM_JACCARD)
def q_ngram_jaccard_pairs(sf_dir: str) -> pd.DataFrame:
    """Exact n-gram (5-byte shingle) Jaccard for the fixed pair list
    (2i, 2i+1) — the dedup verification primitive with its own value oracle
    (the engine compares distinct shingle HASHES; the oracle compares the
    distinct substrings themselves — equal barring a 2^-64 collision)."""
    from forecastframe_ray.pipelines.dedup import ngram_jaccard

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def pair_up(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["pair_id"] = b["doc_id"] // 2
        return b[["pair_id", "doc_id", "text"]]

    def jac(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values("doc_id")
        if len(g) != 2:
            return pd.DataFrame({"pair_id": [], "jaccard": []})
        j = ngram_jaccard(g["text"].iloc[0] or "", g["text"].iloc[1] or "",
                          width=5)
        return pd.DataFrame({"pair_id": [int(g["pair_id"].iloc[0])],
                             "jaccard": [j]})

    from forecastframe_ray.stages.agg import bucketed_map_groups

    pairs = bucketed_map_groups(docs.map_batches(pair_up, batch_format="pandas"),
                                ["pair_id"], jac, num_partitions=8)
    out = pairs.to_pandas()
    out["pair_id"] = out["pair_id"].astype("int64")
    return _round(out[["pair_id", "jaccard"]], ["jaccard"], 6)


SQL_NGRAM_JACCARD = """
    WITH sh AS (
        SELECT doc_id // 2 AS pair_id, doc_id,
               list_distinct(list_transform(
                   generate_series(1, greatest(strlen(text) - 4, 1)),
                   i -> substr(text, i, 5))) AS s
        FROM documents
    ),
    p AS (
        SELECT a.pair_id, a.s AS sa, b.s AS sb
        FROM sh a JOIN sh b
            ON a.pair_id = b.pair_id AND a.doc_id < b.doc_id
    )
    SELECT pair_id,
           round(CAST(length(list_intersect(sa, sb)) AS DOUBLE)
                 / (length(sa) + length(sb) - length(list_intersect(sa, sb))),
                 6) AS jaccard
    FROM p
"""


@entry("lang_id_documents", sql=lambda: SQL_LANG_ID)
def q_lang_id_documents(sf_dir: str) -> pd.DataFrame:
    """Language-ID heuristic (stopword-profile argmax over {de,en,es,fr},
    ``und`` when no profile hits) — previously only rows-only inside
    ``text_analysis_documents``; the oracle recomputes the token extraction,
    per-language occurrence counts and the argmax-first tie-break in SQL
    (VERDICT r3 #6: split SQL-expressible heuristic columns out)."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(lambda b: textstats.lang_id_batch(b),
                           batch_format="pandas").to_pandas()
    return out[["doc_id", "lang_pred"]].astype({"doc_id": "int64"})


def _lang_list_sql(lang: str) -> str:
    from forecastframe_ray.pipelines.textstats import _LANG_STOPS
    return "[" + ", ".join(f"'{w}'" for w in sorted(_LANG_STOPS[lang])) + "]"


#: numpy argmax takes the FIRST maximum in sorted language order
#: (de, en, es, fr) — the CASE ladder reproduces exactly that tie-break.
SQL_LANG_ID = rf"""
    WITH toks AS (
        SELECT doc_id,
               regexp_extract_all(lower(coalesce(text, '')),
                                  '[a-záéíóúäöüßàèùâêîôûç]+') AS t
        FROM documents
    ),
    scores AS (
        SELECT doc_id,
          length(list_filter(t, x -> list_contains({_lang_list_sql("de")}, x))) AS s_de,
          length(list_filter(t, x -> list_contains({_lang_list_sql("en")}, x))) AS s_en,
          length(list_filter(t, x -> list_contains({_lang_list_sql("es")}, x))) AS s_es,
          length(list_filter(t, x -> list_contains({_lang_list_sql("fr")}, x))) AS s_fr
        FROM toks
    )
    SELECT doc_id,
      CASE WHEN greatest(s_de, s_en, s_es, s_fr) = 0 THEN 'und'
           WHEN s_de >= s_en AND s_de >= s_es AND s_de >= s_fr THEN 'de'
           WHEN s_en >= s_es AND s_en >= s_fr THEN 'en'
           WHEN s_es >= s_fr THEN 'es'
           ELSE 'fr' END AS lang_pred
    FROM scores
"""


@entry("doc_fingerprint_documents", sql=lambda: SQL_DOC_FINGERPRINT)
def q_doc_fingerprint_documents(sf_dir: str) -> pd.DataFrame:
    """Document fingerprint (rolling-hash min ⊕ byte length) — the last
    heuristic column of ``text_analysis_documents`` promoted to a full SQL
    oracle (VERDICT r3 #6 tail): DuckDB recomputes the width-8 polynomial
    rolling hash over the UTF-8 bytes with the same wrapped-mod-2^64
    powers, including the pad-to-width short-doc path. uint64 fingerprints
    are reinterpreted as int64 bit patterns on BOTH sides."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = docs.map_batches(lambda b: textstats.fingerprint_batch(b),
                           batch_format="pandas").to_pandas()
    out["doc_fingerprint"] = \
        out["doc_fingerprint"].to_numpy(dtype=np.uint64).astype(np.int64)
    return out[["doc_id", "doc_fingerprint"]].astype({"doc_id": "int64"})


def _fp_terms() -> str:
    base = 1099511628211  # _FP_BASE (FNV prime), powers wrapped mod 2^64
    return " + ".join(
        "CAST(CAST(concat('0x', substr(h, 2*(p + {j}) + 1, 2)) AS INT) "
        "AS HUGEINT) * {w}::HUGEINT".format(j=j, w=pow(base, 7 - j, 2 ** 64))
        for j in range(8))


SQL_DOC_FINGERPRINT = f"""
    WITH b AS (
        SELECT doc_id, hex(encode(coalesce(text, ''))) AS h,
               octet_length(encode(coalesce(text, ''))) AS n
        FROM documents
    ),
    padded AS (  -- rolling_hashes zero-pads docs shorter than the width
        SELECT doc_id,
               CASE WHEN n < 8 THEN h || repeat('00', 8 - n) ELSE h END AS h,
               n, CASE WHEN n = 0 THEN 0 ELSE greatest(n - 7, 1) END AS nwin
        FROM b
    ),
    w AS (SELECT doc_id, n, unnest(range(nwin)) AS p, h
          FROM padded WHERE n > 0),
    hashes AS (
        SELECT doc_id, n,
               ({_fp_terms()}) % 18446744073709551616::HUGEINT AS rh
        FROM w
    ),
    mins AS (SELECT doc_id, n, min(rh) AS m FROM hashes GROUP BY 1, 2),
    fp AS (
        SELECT doc_id, xor(m, n::HUGEINT) AS f FROM mins
        UNION ALL
        SELECT doc_id, 0::HUGEINT FROM b WHERE n = 0
    )
    SELECT doc_id,
           CAST(CASE WHEN f >= 9223372036854775808::HUGEINT
                     THEN f - 18446744073709551616::HUGEINT
                     ELSE f END AS BIGINT) AS doc_fingerprint
    FROM fp
"""


@entry("minhash_recall", sql=lambda: SQL_MINHASH_RECALL)
def q_minhash_recall(sf_dir: str) -> pd.DataFrame:
    """MinHash+LSH recall gate (VERDICT r3 #6): the LSH pair output at
    threshold 0.7 must contain ≥90% of ALL true pairs with exact Jaccard ≥
    0.8 (threshold + margin — where the 16×4 banding's detection
    probability is ≥0.9998). The TRUE pair count is computed exactly on
    both sides: here by brute-force shingle intersects (with the size-ratio
    prune that j ≥ 0.8 mathematically implies), in SQL by the exploded
    hashed-shingle oracle — so ``n_true`` is a real cross-checked value and
    ``recall_ok`` flips the driver to FAIL if LSH ever loses true pairs."""
    docs_df = pq.read_table(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    ids = docs_df["doc_id"].to_numpy()
    texts = docs_df["text"].fillna("")
    flat, off, cnt = dedup.batch_shingle_windows(texts, 5)
    sets = [np.unique(flat[o: o + c]) for o, c in zip(off, cnt)]
    sizes = np.fromiter((len(s) for s in sets), np.int64, len(sets))
    true_pairs = set()
    n = len(sets)
    for i in range(n):
        si, zi = sets[i], sizes[i]
        for j in range(i + 1, n):
            zj = sizes[j]
            if min(zi, zj) < 0.8 * max(zi, zj):  # j >= .8 needs ratio >= .8
                continue
            if zi == 0 and zj == 0:
                jac = 1.0
            else:
                inter = len(np.intersect1d(si, sets[j], assume_unique=True))
                jac = inter / (zi + zj - inter)
            if jac >= 0.8:
                true_pairs.add((ids[i], ids[j]))

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    pairs = dedup.minhash_lsh_pairs(docs, threshold=0.7).to_pandas()
    found = set(zip(pairs["id_a"], pairs["id_b"]))
    hit = sum(p in found for p in true_pairs)
    recall = hit / max(len(true_pairs), 1)
    return pd.DataFrame({"n_true": pd.Series([len(true_pairs)], dtype="int64"),
                         "recall_ok": pd.Series([recall >= 0.9],
                                                dtype="bool")})


SQL_MINHASH_RECALL = """
    WITH sh AS (
        SELECT doc_id,
               list_distinct(list_transform(
                   generate_series(1, greatest(strlen(text) - 4, 1)),
                   i -> hash(substr(text, i, 5)))) AS s
        FROM documents
    ),
    cand AS (
        SELECT a.s AS sa, b.s AS sb
        FROM sh a JOIN sh b ON a.doc_id < b.doc_id
        WHERE least(length(a.s), length(b.s))
              >= 0.8 * greatest(length(a.s), length(b.s))
    ),
    j AS (
        SELECT CAST(length(list_intersect(sa, sb)) AS DOUBLE)
               / (length(sa) + length(sb) - length(list_intersect(sa, sb)))
               AS jac
        FROM cand
    )
    SELECT CAST(count(*) AS BIGINT) AS n_true, true AS recall_ok
    FROM j WHERE jac >= 0.8
"""


@entry("simhash_recall", sql=lambda: SQL_SIMHASH_RECALL)
def q_simhash_recall(sf_dir: str) -> pd.DataFrame:
    """SimHash banding completeness gate (VERDICT r3 #6, ann_ivf_recall
    style): every pair within Hamming distance ≤3 of the 64-bit SimHash
    MUST appear in the banded pipeline's output — the 4×16-bit band trick
    is EXACT for ≤3 flipped bits (pigeonhole: ≥1 band survives intact), so
    the gate is recall == 1.0, computed against a chunked brute-force
    all-pairs Hamming truth. SimHash itself is not SQL-expressible, so the
    oracle row is constant-shape (the assertion lives on the Ray side and a
    miss flips ``recall_ok`` → driver hash mismatch → FAIL)."""
    docs_df = pq.read_table(f"{sf_dir}/documents.parquet",
                            columns=["doc_id", "text"]).to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    sh = dedup.simhash_batch(docs_df, "text")["simhash"].to_numpy(np.uint64)
    ids = docs_df["doc_id"].to_numpy()
    truth = set()
    n = len(sh)
    chunk = max(1, (4 << 20) // max(n, 1))
    for r0 in range(0, n, chunk):
        r1 = min(r0 + chunk, n)
        H = dedup.popcount64(sh[r0:r1, None] ^ sh[None, :])
        ia, ib = np.nonzero(H <= 3)
        keep = (ia + r0) < ib
        truth.update(zip(ids[ia[keep] + r0], ids[ib[keep]]))

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    sp = dedup.simhash_near_dup_pairs(docs, max_hamming=3).to_pandas()
    found = set(zip(sp["id_a"], sp["id_b"]))
    missing = len(truth - found)
    return pd.DataFrame({"gate": pd.Series([0], dtype="int64"),
                         "recall_ok": pd.Series([missing == 0],
                                                dtype="bool")})


SQL_SIMHASH_RECALL = """
    SELECT CAST(0 AS BIGINT) AS gate, true AS recall_ok
"""


@entry("ensemble_pred_daily", sql=lambda: SQL_ENSEMBLE_PRED)
def q_ensemble_pred_daily(sf_dir: str) -> pd.DataFrame:
    """§2.8 ensemble-feature hook (``calc_prophet_predictions`` engine path):
    per-(series, day-of-week) seasonal-mean model fit distributed, broadcast,
    scored by an actor-pool stage."""
    fr = _daily_frame(sf_dir).calc_ensemble_predictions()
    df = fr.to_pandas()[["event_type", "d", "v", "v_ensemble_pred"]]
    df = _round(df, ["v_ensemble_pred"], 6)
    return _fill(df, ["v_ensemble_pred"])


SQL_ENSEMBLE_PRED = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           COALESCE(round(avg(v) OVER (PARTITION BY event_type, isodow(d)), 6),
                    {NULLF}) AS v_ensemble_pred
    FROM daily
"""


@entry("fourier_dow_fit_daily", sql=lambda: SQL_FOURIER_DOW_FIT)
def q_fourier_dow_fit_daily(sf_dir: str) -> pd.DataFrame:
    """Prophet-style Fourier regression, oracle-EXACT: fit the weekly
    harmonic model (order=3, no trend, l2=0) per series by distributed
    normal equations (:func:`search.fit_fourier` — per-(series,dow)
    sufficient stats → one coarse-hash aggregate → batched driver solve),
    then score. Because intercept + all three weekly harmonics span the
    full day-of-week indicator space, the OLS fitted values equal the
    per-(series, dow) conditional means — which is precisely what the SQL
    oracle computes. Checks the whole distributed regression path (design,
    gram accumulation, solve, broadcast score) for exactness."""
    from forecastframe_ray.pipelines.search import fit_fourier, score_fourier

    # materialized once: the fit aggregate and the scoring map both consume
    # it — unmaterialized, the upstream bucket shuffle would execute twice
    daily = _bucket_series(sf_dir, DAY_US, "d").materialize()
    state = fit_fourier(daily, ["event_type"], "d", "v",
                        order=3, trend=False)
    scored = score_fourier(daily, state, ["event_type"], "d", "v",
                           "fourier_pred")

    def to_dow(b: pd.DataFrame) -> pd.DataFrame:
        out = b[["event_type", "fourier_pred"]].copy()
        out["dow"] = b["d"].dt.dayofweek.astype("int64")
        # identical floats within a (series, dow): safe to dedup pre-round
        return out.drop_duplicates()

    df = scored.map_batches(to_dow, batch_format="pandas") \
        .to_pandas().drop_duplicates()
    df = _round(df, ["fourier_pred"], 4)
    return df[["event_type", "dow", "fourier_pred"]] \
        .sort_values(["event_type", "dow"]).reset_index(drop=True)


SQL_FOURIER_DOW_FIT = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, CAST(isodow(d) - 1 AS BIGINT) AS dow,
           round(avg(v), 4) AS fourier_pred
    FROM daily GROUP BY 1, 2
"""


@entry("search_cv_daily", sql=lambda: SQL_SEARCH_CV)
def q_search_cv_daily(sf_dir: str) -> pd.DataFrame:
    """Grid-search cross-validation driver (reference grid/random search,
    ``model.py:319-513`` + ``cross_validate``, ``model.py:1313-1417``): the
    "fast" premade grid (2 seasons × 2 blends) of the stand-in seasonal-mean
    estimator, scored on 2 expanding-window folds. The oracle recomputes the
    distributed fit (train-only per-(series, day-of-week) and per-series
    means), the broadcast score and the null-masked RMSE/MAPE per
    (candidate, fold) entirely in SQL."""
    from forecastframe_ray.pipelines import search

    fr = _daily_frame(sf_dir)
    results, _best = search.search_cv(fr, grid=search.premade_grids("fast"),
                                      n_splits=2, gap=0)
    out = results[["candidate", "blend", "season", "fold",
                   "n_test", "rmse", "mape"]].copy()
    for c in ("candidate", "fold", "n_test"):
        out[c] = out[c].astype("int64")
    out = _round(out, ["rmse"], 4)
    return _round(out, ["mape"], 6)


#: fold bounds mirror SQL_CV_FOLDS with n_splits=2, gap=0 (test chunks are
#: the last 2 of 3 equal date blocks); candidate order is the sorted-name
#: itertools.product of the "fast" grid: (blend, season) =
#: (0,dow),(0,none),(0.5,dow),(0.5,none). ``isodow`` relabels pandas'
#: Monday=0 buckets bijectively, which leaves the grouped means unchanged.
SQL_SEARCH_CV = f"""
    WITH daily AS ({_DAILY_SQL}),
    dd AS (SELECT d, CAST(row_number() OVER (ORDER BY d) - 1 AS BIGINT) AS rn
           FROM (SELECT DISTINCT d FROM daily)),
    params AS (SELECT count(*) AS n, count(*) // 3 AS ts FROM dd),
    folds AS (SELECT unnest([0, 1]) AS fold),
    bounds AS (SELECT fold, n - (2 - fold) * ts AS tsix, ts
               FROM folds CROSS JOIN params),
    lab AS (
        SELECT b.fold, dd.d,
               CASE WHEN dd.rn < b.tsix THEN 'train'
                    WHEN dd.rn < b.tsix + b.ts THEN 'test'
               END AS role
        FROM bounds b CROSS JOIN dd
    ),
    rows_ AS (
        SELECT l.fold, l.role, dy.event_type, dy.d, dy.v, isodow(dy.d) AS dw
        FROM lab l JOIN daily dy ON dy.d = l.d
        WHERE l.role IS NOT NULL
    ),
    s AS (SELECT fold, event_type, dw, avg(v) AS sm
          FROM rows_ WHERE role = 'train' GROUP BY 1, 2, 3),
    g AS (SELECT fold, event_type, avg(v) AS gm
          FROM rows_ WHERE role = 'train' GROUP BY 1, 2),
    cand AS (
        SELECT * FROM (VALUES (0, 0.0, 'dow'), (1, 0.0, 'none'),
                              (2, 0.5, 'dow'), (3, 0.5, 'none'))
        AS t(candidate, blend, season)
    ),
    scored AS (
        SELECT c.candidate, c.blend, c.season, r.fold, r.v,
               CASE WHEN c.season = 'dow'
                    THEN (1.0 - c.blend) * COALESCE(s.sm, g.gm)
                         + c.blend * g.gm
                    ELSE g.gm END AS pred
        FROM rows_ r
        JOIN g ON g.fold = r.fold AND g.event_type = r.event_type
        LEFT JOIN s ON s.fold = r.fold AND s.event_type = r.event_type
                   AND s.dw = r.dw
        CROSS JOIN cand c
        WHERE r.role = 'test'
    )
    SELECT CAST(candidate AS BIGINT) AS candidate, blend, season,
           CAST(fold AS BIGINT) AS fold, count(*) AS n_test,
           round(sqrt(avg((v - pred) * (v - pred))), 4) AS rmse,
           round(avg(abs((v - pred) / v)), 6) AS mape
    FROM scored GROUP BY 1, 2, 3, 4
"""


# ---------------------------------------------------------------------------
# LLM-pipeline flagship queries (pipelines/llm.py)
# ---------------------------------------------------------------------------


@entry("llm_exact_funnel_documents", sql=lambda: SQL_LLM_EXACT_FUNNEL)
def q_llm_exact_funnel_documents(sf_dir: str) -> pd.DataFrame:
    """The LLM pipeline's exact (non-approximate) funnel end-to-end:
    corpus-level boilerplate removal → C4 line cleaning → exact dedup
    keeping min(doc_id) per distinct cleaned text. The SQL oracle rebuilds
    the cleaned text per doc over exploded lines and applies the same
    min-id window dedup — content-exact, not just counts."""
    from forecastframe_ray.pipelines import llm

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    stripped = textstats.remove_boilerplate_lines(docs, max_repeats=3)
    cleaned = stripped.map_batches(
        lambda b: textstats.c4_clean_batch(b, min_words_per_line=3,
                                           require_terminal=False)
        [["doc_id", "text_clean"]],
        batch_format="pandas").materialize()
    kept = dedup.exact_dedup(cleaned, text_col="text_clean", id_col="doc_id")
    out = kept.to_pandas()
    if out.empty:
        return pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                             "text_clean": pd.Series([], dtype="object")})
    return out[["doc_id", "text_clean"]].sort_values("doc_id") \
        .reset_index(drop=True)


SQL_LLM_EXACT_FUNNEL = r"""
    WITH raw AS (
        SELECT doc_id, string_split(text, chr(10)) AS l FROM documents
    ),
    lns AS (
        SELECT doc_id, unnest(l) AS ln, generate_subscripts(l, 1) AS i
        FROM raw
    ),
    t AS (
        SELECT doc_id, i,
               trim(ln, ' ' || chr(9) || chr(13) || chr(12) || chr(11)) AS s
        FROM lns
        WHERE trim(ln, ' ' || chr(9) || chr(13) || chr(12) || chr(11)) <> ''
    ),
    cnt AS (SELECT s, count(*) AS c FROM t GROUP BY 1),
    good AS (
        SELECT t.doc_id, t.i, t.s
        FROM t JOIN cnt USING (s)
        WHERE cnt.c <= 3
          AND length(regexp_extract_all(t.s, '\S+')) >= 3
          AND NOT contains(t.s, '{') AND NOT contains(t.s, '}')
          AND NOT contains(lower(t.s), 'lorem ipsum')
    ),
    docs_clean AS (
        SELECT doc_id, string_agg(s, chr(10) ORDER BY i) AS text_clean
        FROM good GROUP BY doc_id
    )
    SELECT doc_id, text_clean
    FROM (SELECT doc_id, text_clean,
                 min(doc_id) OVER (PARTITION BY text_clean) AS keep_id
          FROM docs_clean)
    WHERE doc_id = keep_id
    ORDER BY doc_id
"""


@entry("llm_pipeline_documents")
def q_llm_pipeline_documents(sf_dir: str) -> pd.DataFrame:
    """Full LLM flagship chain including MinHash near-dup clustering and
    representative selection (LSH candidate generation is approximate by
    contract → rows-only; the exact funnel half is oracled as
    ``llm_exact_funnel_documents`` and the Jaccard verification as
    ``ngram_jaccard_pairs``)."""
    from forecastframe_ray.pipelines import llm

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    final, _ = llm.dedup_pipeline(docs, minhash_threshold=0.5,
                                  min_words_per_line=3,
                                  require_terminal=False, num_partitions=_NP)
    out = final.to_pandas()
    return out[["doc_id"]].sort_values("doc_id").reset_index(drop=True)


#: stable rounding digits per describe metric — magnitudes differ by orders
#: (APE ~1, SE ~1e6), so a single digit count would either under-round the
#: small metrics or exceed float64's stable digits on the large ones
_DESCRIBE_DIGITS = {"AE": 4, "APE": 6, "SE": 2,
                    "actuals": 4, "predictions": 4}


@entry("errors_describe_daily", sql=lambda: SQL_ERRORS_DESCRIBE)
def q_errors_describe_daily(sf_dir: str) -> pd.DataFrame:
    """``get_errors(describe=True)`` (reference interpret.py:128-208) over
    the naive lag-1 daily forecast: count/mean/std/min/quartiles/max for
    Actuals, Predictions, AE, APE, SE. Moments are streaming Welford/Chan
    partials; quartiles are exact order statistics from one narrow sort +
    point lookups (pipelines/interpret.py)."""
    from forecastframe_ray.pipelines import interpret as interp

    fr = _daily_frame(sf_dir).lag_features("v", [1])
    out = interp.errors_describe(fr.dataset, "v", "v_lag1")
    out["n"] = out["n"].astype("int64")
    stat_cols = ["mean", "std", "min", "q25", "q50", "q75", "max"]
    dg = out["metric"].map(_DESCRIBE_DIGITS).to_numpy()
    for c in stat_cols:
        v = out[c].to_numpy(dtype=np.float64)
        out[c] = np.array([np.round(x, int(d)) for x, d in zip(v, dg)])
    return out


SQL_ERRORS_DESCRIBE = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               LAG(v, 1) OVER (PARTITION BY event_type ORDER BY d) AS lv
        FROM daily
    ),
    e AS (
        SELECT 'actuals' AS metric, v AS x, 4 AS dg FROM l
        UNION ALL SELECT 'predictions', lv, 4 FROM l WHERE lv IS NOT NULL
        UNION ALL SELECT 'AE', abs(v - lv), 4 FROM l WHERE lv IS NOT NULL
        UNION ALL SELECT 'APE', abs((v - lv) / v), 6
            FROM l WHERE lv IS NOT NULL AND v <> 0
        UNION ALL SELECT 'SE', (v - lv) * (v - lv), 2
            FROM l WHERE lv IS NOT NULL
    )
    SELECT metric, count(*) AS n,
           round(avg(x), CAST(max(dg) AS INT)) AS mean,
           round(stddev_samp(x), CAST(max(dg) AS INT)) AS std,
           round(min(x), CAST(max(dg) AS INT)) AS min,
           round(quantile_cont(x, 0.25), CAST(max(dg) AS INT)) AS q25,
           round(quantile_cont(x, 0.50), CAST(max(dg) AS INT)) AS q50,
           round(quantile_cont(x, 0.75), CAST(max(dg) AS INT)) AS q75,
           round(max(x), CAST(max(dg) AS INT)) AS max
    FROM e GROUP BY metric ORDER BY metric
"""


@entry("cv_fit_summary_daily", sql=lambda: SQL_CV_FIT_SUMMARY)
def q_cv_fit_summary_daily(sf_dir: str) -> pd.DataFrame:
    """``summarize_cv`` key stats (reference interpret.py:446-653) on the
    last expanding-window fold: per sample the null-masked median APE, the
    actuals-weighted average APE, the tail-skew direction and the
    qualitative threshold scores, with the in/out-of-sample median
    difference. Predictions from the stand-in seasonal-mean estimator
    (season=dow, blend=0) fitted on the train slice only."""
    from forecastframe_ray.pipelines import interpret as interp

    fr = _daily_frame(sf_dir)
    out = interp.cv_fit_summary(fr, n_splits=2, round_digits=6)
    out["n"] = out["n"].astype("int64")
    return out


SQL_CV_FIT_SUMMARY = f"""
    WITH daily AS ({_DAILY_SQL}),
    dd AS (SELECT d, CAST(row_number() OVER (ORDER BY d) - 1 AS BIGINT) AS rn
           FROM (SELECT DISTINCT d FROM daily)),
    params AS (SELECT count(*) AS n, count(*) // 3 AS ts FROM dd),
    bounds AS (SELECT n - ts AS tsix, ts FROM params),
    lab AS (
        SELECT dd.d,
               CASE WHEN dd.rn < b.tsix THEN 'In-Sample'
                    WHEN dd.rn < b.tsix + b.ts THEN 'Out-of-Sample'
               END AS sample
        FROM bounds b CROSS JOIN dd
    ),
    rows_ AS (
        SELECT l.sample, dy.event_type, dy.v, isodow(dy.d) AS dw
        FROM lab l JOIN daily dy ON dy.d = l.d
        WHERE l.sample IS NOT NULL
    ),
    s AS (SELECT event_type, dw, avg(v) AS sm
          FROM rows_ WHERE sample = 'In-Sample' GROUP BY 1, 2),
    g AS (SELECT event_type, avg(v) AS gm
          FROM rows_ WHERE sample = 'In-Sample' GROUP BY 1),
    scored AS (
        SELECT r.sample, r.v, COALESCE(s.sm, g.gm) AS pred
        FROM rows_ r
        JOIN g ON g.event_type = r.event_type
        LEFT JOIN s ON s.event_type = r.event_type AND s.dw = r.dw
    ),
    ap AS (SELECT sample, abs((v - pred) / v) AS ape, v AS w
           FROM scored WHERE pred IS NOT NULL AND v <> 0),
    st AS (SELECT sample, count(*) AS n,
                  round(quantile_cont(ape, 0.5), 6) AS median_ape,
                  round(sum(ape * w) / sum(w), 6) AS wavg_ape
           FROM ap GROUP BY 1),
    f AS (SELECT round(abs(
              max(CASE WHEN sample = 'Out-of-Sample' THEN median_ape END)
            - max(CASE WHEN sample = 'In-Sample' THEN median_ape END)), 6)
          AS difference FROM st)
    SELECT st.sample, st.n, st.median_ape, st.wavg_ape,
           CASE WHEN st.wavg_ape < st.median_ape THEN 'left-tailed'
                ELSE 'right-tailed' END AS skew,
           CASE WHEN st.median_ape <= 0.10 THEN 'best'
                WHEN st.median_ape <= 0.15 THEN 'good'
                WHEN st.median_ape <= 0.25 THEN 'bad'
                WHEN st.median_ape <= 1.0 THEN 'worst' END AS sample_score,
           f.difference,
           CASE WHEN f.difference <= 0.10 THEN 'best'
                WHEN f.difference <= 0.15 THEN 'good'
                WHEN f.difference <= 0.25 THEN 'bad'
                WHEN f.difference <= 1.0 THEN 'worst' END AS difference_score
    FROM st CROSS JOIN f ORDER BY st.sample
"""


@entry("perm_importance_daily", sql=lambda: SQL_PERM_IMPORTANCE)
def q_perm_importance_daily(sf_dir: str) -> pd.DataFrame:
    """Permutation feature importance (the SHAP-importance stand-in,
    reference interpret.py:211-347 intent): distributed OLS of daily v on
    (v_lag1, v_lag7), then RMSE increase when each feature is cyclically
    rotated within its series — deterministic, cluster-shape-independent,
    and reproduced term-for-term by the SQL oracle (same Cramer solve)."""
    from forecastframe_ray.pipelines import interpret as interp

    fr = _daily_frame(sf_dir).lag_features("v", [1, 7])
    ds = fr.dataset.select_columns(
        ["event_type", "d", "v", "v_lag1", "v_lag7"]).map_batches(
        lambda b: b[b["v_lag1"].notna() & b["v_lag7"].notna()],
        batch_format="pandas")
    out = interp.permutation_importance(ds, ["event_type"], "d",
                                        ("v_lag1", "v_lag7"), "v",
                                        num_partitions=_NP)
    return _round(out, ["rmse_base", "rmse_permuted", "importance"], 4)


SQL_PERM_IMPORTANCE = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               LAG(v, 1) OVER w AS lv1, LAG(v, 7) OVER w AS lv7
        FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
    ),
    e AS (SELECT * FROM l WHERE lv1 IS NOT NULL AND lv7 IS NOT NULL),
    p AS (
        SELECT event_type, d, v, lv1, lv7,
               COALESCE(LAG(lv1) OVER w, last_value(lv1) OVER wf) AS lv1p,
               COALESCE(LAG(lv7) OVER w, last_value(lv7) OVER wf) AS lv7p
        FROM e
        WINDOW w AS (PARTITION BY event_type ORDER BY d),
               wf AS (PARTITION BY event_type ORDER BY d
                      ROWS BETWEEN UNBOUNDED PRECEDING
                               AND UNBOUNDED FOLLOWING)
    ),
    s AS (
        SELECT CAST(count(*) AS DOUBLE) AS n,
               sum(lv1) AS s1, sum(lv7) AS s2,
               sum(lv1 * lv1) AS s11, sum(lv7 * lv7) AS s22,
               sum(lv1 * lv7) AS s12,
               sum(v) AS sy, sum(lv1 * v) AS s1y, sum(lv7 * v) AS s2y
        FROM e
    ),
    det AS (
        SELECT
          n * (s11 * s22 - s12 * s12) - s1 * (s1 * s22 - s12 * s2)
            + s2 * (s1 * s12 - s11 * s2) AS d,
          sy * (s11 * s22 - s12 * s12) - s1 * (s1y * s22 - s12 * s2y)
            + s2 * (s1y * s12 - s11 * s2y) AS d0,
          n * (s1y * s22 - s12 * s2y) - sy * (s1 * s22 - s12 * s2)
            + s2 * (s1 * s2y - s1y * s2) AS d1,
          n * (s11 * s2y - s1y * s12) - s1 * (s1 * s2y - s1y * s2)
            + sy * (s1 * s12 - s11 * s2) AS d2
        FROM s
    ),
    b AS (SELECT d0 / d AS b0, d1 / d AS b1, d2 / d AS b2 FROM det),
    base AS (
        SELECT sqrt(avg((v - (b.b0 + b.b1 * e.lv1 + b.b2 * e.lv7))
                      * (v - (b.b0 + b.b1 * e.lv1 + b.b2 * e.lv7))))
               AS rmse_base
        FROM e CROSS JOIN b
    ),
    perms AS (
        SELECT 'v_lag1' AS feature,
               sqrt(avg((v - (b.b0 + b.b1 * p.lv1p + b.b2 * p.lv7))
                      * (v - (b.b0 + b.b1 * p.lv1p + b.b2 * p.lv7))))
               AS rmse_permuted
        FROM p CROSS JOIN b
        UNION ALL
        SELECT 'v_lag7',
               sqrt(avg((v - (b.b0 + b.b1 * p.lv1 + b.b2 * p.lv7p))
                      * (v - (b.b0 + b.b1 * p.lv1 + b.b2 * p.lv7p))))
        FROM p CROSS JOIN b
    )
    SELECT feature, round(base.rmse_base, 4) AS rmse_base,
           round(rmse_permuted, 4) AS rmse_permuted,
           round(rmse_permuted - base.rmse_base, 4) AS importance
    FROM perms CROSS JOIN base ORDER BY feature
"""


@entry("linear_shap_daily", sql=lambda: SQL_LINEAR_SHAP)
def q_linear_shap_daily(sf_dir: str) -> pd.DataFrame:
    """Exact Linear-SHAP attributions (reference interpret.py:282-286
    ``calc_shap_values``, engine path): distributed OLS of daily v on
    (v_lag1, v_lag7), then per-row φⱼ = βⱼ(xⱼ − x̄ⱼ) with base = ȳ — the
    closed-form Shapley values of a linear model. The oracle recomputes the
    Cramer solve, the means, and every per-row attribution in SQL."""
    from forecastframe_ray.pipelines import interpret as interp

    fr = _daily_frame(sf_dir).lag_features("v", [1, 7])
    ds = fr.dataset.select_columns(
        ["event_type", "d", "v", "v_lag1", "v_lag7"]).map_batches(
        lambda b: b[b["v_lag1"].notna() & b["v_lag7"].notna()],
        batch_format="pandas").materialize()  # fit + attribute share it
    out = interp.linear_shap(ds, "v_lag1", "v_lag7", "v").to_pandas()
    cols = ["v_lag1_shap", "v_lag7_shap", "base_value", "pred"]
    out = _round(out[["event_type", "d"] + cols], cols, 4)
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_LINEAR_SHAP = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               LAG(v, 1) OVER w AS lv1, LAG(v, 7) OVER w AS lv7
        FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
    ),
    e AS (SELECT * FROM l WHERE lv1 IS NOT NULL AND lv7 IS NOT NULL),
    s AS (
        SELECT CAST(count(*) AS DOUBLE) AS n,
               sum(lv1) AS s1, sum(lv7) AS s2,
               sum(lv1 * lv1) AS s11, sum(lv7 * lv7) AS s22,
               sum(lv1 * lv7) AS s12,
               sum(v) AS sy, sum(lv1 * v) AS s1y, sum(lv7 * v) AS s2y
        FROM e
    ),
    det AS (
        SELECT s1 / n AS m1, s2 / n AS m2, sy / n AS base,
          n * (s11 * s22 - s12 * s12) - s1 * (s1 * s22 - s12 * s2)
            + s2 * (s1 * s12 - s11 * s2) AS d,
          sy * (s11 * s22 - s12 * s12) - s1 * (s1y * s22 - s12 * s2y)
            + s2 * (s1y * s12 - s11 * s2y) AS d0,
          n * (s1y * s22 - s12 * s2y) - sy * (s1 * s22 - s12 * s2)
            + s2 * (s1 * s2y - s1y * s2) AS d1,
          n * (s11 * s2y - s1y * s12) - s1 * (s1 * s2y - s1y * s2)
            + sy * (s1 * s12 - s11 * s2) AS d2
        FROM s
    ),
    b AS (SELECT m1, m2, base, d0 / d AS b0, d1 / d AS b1, d2 / d AS b2
          FROM det)
    SELECT e.event_type, e.d,
           round(b.b1 * (e.lv1 - b.m1), 4) AS v_lag1_shap,
           round(b.b2 * (e.lv7 - b.m2), 4) AS v_lag7_shap,
           round(b.base, 4) AS base_value,
           round(b.b0 + b.b1 * e.lv1 + b.b2 * e.lv7, 4) AS pred
    FROM e CROSS JOIN b
"""


_IMP_FEATURES = ["v_lag1", "v_lag2", "v_mean_roll7_lag1", "v_sum_roll7_lag1",
                 "v_min_roll7_lag1", "v_max_roll7_lag1", "day_of_week"]


@entry("importance_summary_daily", sql=lambda: SQL_IMPORTANCE_SUMMARY)
def q_importance_summary_daily(sf_dir: str) -> pd.DataFrame:
    """The reference's SHAP narrative + alert, data side (reference
    interpret.py:196-255 ``summarize_shap`` → ``self.alerts["shap"]``):
    engineer the daily features, rank them by single-feature R² against
    the target, compute importance shares, classify "statistical"
    features by the reference's substring rule and raise the alert when
    their combined share exceeds 0.33. Oracle recomputes every feature
    with window functions and the R² as ``round(corr(x, v)^2, 6)``."""
    from forecastframe_ray.pipelines import interpret as interp

    fr = _daily_frame(sf_dir)
    fr.lag_features("v", [1, 2])
    fr.calc_statistical_features("v", windows=7,
                                 aggregations=["mean", "sum", "min", "max"],
                                 lag=1, min_periods=1)
    fr.calc_datetime_features(["day_of_week"])
    return interp.importance_summary(fr.dataset, _IMP_FEATURES, "v")


SQL_IMPORTANCE_SUMMARY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               epoch_us(d) // {DAY_US} AS dn,
               LAG(v, 1) OVER w AS v_lag1,
               LAG(v, 2) OVER w AS v_lag2
        FROM daily WINDOW w AS (PARTITION BY event_type ORDER BY d)
    ),
    feats AS (
        SELECT v, v_lag1, v_lag2,
               avg(v_lag1) OVER w AS v_mean_roll7_lag1,
               sum(v_lag1) OVER w AS v_sum_roll7_lag1,
               min(v_lag1) OVER w AS v_min_roll7_lag1,
               max(v_lag1) OVER w AS v_max_roll7_lag1,
               CAST(isodow(d) - 1 AS DOUBLE) AS day_of_week
        FROM l WINDOW w AS (PARTITION BY event_type ORDER BY dn
                            RANGE BETWEEN 6 PRECEDING AND CURRENT ROW)
    ),
    c AS (
        SELECT round(pow(corr(v_lag1, v), 2), 6) AS v_lag1,
               round(pow(corr(v_lag2, v), 2), 6) AS v_lag2,
               round(pow(corr(v_mean_roll7_lag1, v), 2), 6)
                   AS v_mean_roll7_lag1,
               round(pow(corr(v_sum_roll7_lag1, v), 2), 6)
                   AS v_sum_roll7_lag1,
               round(pow(corr(v_min_roll7_lag1, v), 2), 6)
                   AS v_min_roll7_lag1,
               round(pow(corr(v_max_roll7_lag1, v), 2), 6)
                   AS v_max_roll7_lag1,
               round(pow(corr(day_of_week, v), 2), 6) AS day_of_week
        FROM feats
    ),
    u AS (UNPIVOT c ON COLUMNS(*) INTO NAME feature VALUE r2),
    t AS (
        SELECT feature, r2,
               (feature LIKE '%ewma_roll%' OR feature LIKE '%sum_roll%'
                OR feature LIKE '%mean_roll%') AS is_statistical,
               sum(r2) OVER () AS tot,
               sum(CASE WHEN (feature LIKE '%ewma_roll%'
                              OR feature LIKE '%sum_roll%'
                              OR feature LIKE '%mean_roll%')
                        THEN r2 ELSE 0 END) OVER () AS stat_tot
        FROM u
    )
    SELECT feature, r2,
           round(r2 / tot, 6) AS share,
           CAST(row_number() OVER (ORDER BY r2 DESC, feature ASC) AS BIGINT)
               AS rank,
           is_statistical,
           round(stat_tot / tot, 6) AS stat_share,
           round(stat_tot / tot, 6) > 0.33 AS alert
    FROM t ORDER BY feature
"""


@entry("quantile_loss_naive", sql=lambda: SQL_QUANTILE_LOSS_NAIVE)
def q_quantile_loss_naive(sf_dir: str) -> pd.DataFrame:
    """The reference's M5 quantile (pinball) scoring metric
    (model.py:136-149) over the naive lag-1 daily forecast, at the three
    quantiles the M5 premade grids sweep — distributed partial sums, one
    tiny driver merge. Oracle recomputes the pinball loss per quantile."""
    fr = _daily_frame(sf_dir).lag_features("v", [1])
    out = metrics.quantile_loss(fr.dataset, "v", "v_lag1",
                                quantiles=[0.1, 0.5, 0.9])
    return _round(out[["quantile", "n", "loss"]], ["loss"], 4)


SQL_QUANTILE_LOSS_NAIVE = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               LAG(v, 1) OVER (PARTITION BY event_type ORDER BY d) AS lv
        FROM daily
    ),
    e AS (SELECT v, lv FROM l WHERE lv IS NOT NULL AND v IS NOT NULL),
    q AS (SELECT unnest([0.1, 0.5, 0.9]) AS quantile)
    SELECT q.quantile,
           count(*) AS n,
           round(avg(CASE WHEN v >= lv THEN q.quantile * (v - lv)
                          ELSE (1 - q.quantile) * (lv - v) END), 4) AS loss
    FROM e CROSS JOIN q GROUP BY q.quantile ORDER BY q.quantile
"""


SQL_DISTINCT_USERS_DAILY = """
    SELECT event_type, date_trunc('day', ts) AS d,
           count(DISTINCT user_id) AS distinct_users
    FROM events GROUP BY 1, 2
"""


@entry("distinct_users_daily_cascade", sql=lambda: SQL_DISTINCT_USERS_DAILY)
def q_distinct_users_daily_cascade(sf_dir: str) -> pd.DataFrame:
    """The CASCADE path of the distinct-count continuous aggregate: per-1h
    KMV sketches of user_id merged up to daily buckets by pure sketch
    merge (distinct_tiers '1d' tier) — never re-reading the raw stream,
    exactly how the retention tiers maintain COUNT(DISTINCT) at scale.
    k=1024 keeps this table in the exact regime, so the oracle pins the
    merged result against count(DISTINCT) bit-for-bit."""
    from forecastframe_ray.stages.sketch import distinct_tiers

    ev = _read(sf_dir, "events", ["event_type", "ts", "user_id"])
    tiers = distinct_tiers(ev, "ts", "user_id", group_keys=["event_type"],
                           k=1024, num_partitions=_NP)
    df = tiers["1d"].to_pandas()
    assert bool(df["is_exact"].all())
    df["d"] = pd.to_datetime(df["bucket_us"], unit="us")
    df["distinct_users"] = df["distinct_est"].astype("int64")
    return df[["event_type", "d", "distinct_users"]]


@entry("quantile_sketch_gate_daily", sql=lambda: SQL_QUANTILE_SKETCH_GATE)
def q_quantile_sketch_gate_daily(sf_dir: str) -> pd.DataFrame:
    """Mergeable quantile-histogram gate (DDSketch/HdrHistogram bucket
    family, stages/sketch.py): the ε=1% log-bucketed histogram's p50/p90
    must land within 5% of the exact distributed quantiles (2ε plus
    disc-vs-interpolated slack); the exact quantiles themselves are
    value-oracled against DuckDB ``quantile_cont``."""
    from forecastframe_ray.pipelines import interpret as interp
    from forecastframe_ray.stages import sketch as SK

    daily = _bucket_series(sf_dir, DAY_US, "d")
    exact = interp.grouped_quantiles(daily, ["event_type"], "v",
                                     qs=(0.5, 0.9))
    sk = SK.quantile_sketch(daily, ["event_type"], "v",
                            eps=0.01, num_partitions=8).to_pandas() \
        .set_index("event_type")
    out = exact.copy()
    for q, col in ((0.5, "q50"), (0.9, "q90")):
        est = np.array([
            SK.hist_quantile(*SK.hist_from_bytes(
                sk.loc[et, "qhist"]), q, eps=0.01)
            for et in out["event_type"]])
        out[f"{col}_sketch_ok"] = np.abs(
            est / out[col].to_numpy() - 1.0) <= 0.05
    out = _round(out, ["q50", "q90"], 6)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_QUANTILE_SKETCH_GATE = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type,
           round(quantile_cont(v, 0.5), 6) AS q50,
           round(quantile_cont(v, 0.9), 6) AS q90,
           true AS q50_sketch_ok,
           true AS q90_sketch_ok
    FROM daily GROUP BY 1 ORDER BY 1
"""


@entry("top_users_sketch_daily", sql=lambda: SQL_TOP_USERS_SKETCH)
def q_top_users_sketch_daily(sf_dir: str) -> pd.DataFrame:
    """Heavy-hitters continuous aggregate (Misra–Gries, stages/sketch.py):
    top-3 users per event_type by event count. k=512 exceeds this table's
    per-group cardinality, so the summary is in its exact-counts regime
    and the oracle pins counts and ranking bit-for-bit (ties broken by
    user_id); the estimation regime's never-overcount / bounded-undercount
    / guaranteed-containment contract is pinned by tests/test_sketch.py."""
    from forecastframe_ray.stages.sketch import topk_sketch

    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    sk = topk_sketch(ev, ["event_type"], "user_id",
                     k=512, num_partitions=8).to_pandas()
    sk = sk.sort_values(["event_type", "mg_count", "user_id"],
                        ascending=[True, False, True])
    top = sk.groupby("event_type", sort=True).head(3).reset_index(drop=True)
    top["rank"] = top.groupby("event_type").cumcount() + 1
    top["mg_count"] = top["mg_count"].astype("int64")
    top["rank"] = top["rank"].astype("int64")
    return top[["event_type", "rank", "user_id", "mg_count"]]


SQL_TOP_USERS_SKETCH = """
    WITH c AS (
        SELECT event_type, user_id, count(*) AS mg_count
        FROM events GROUP BY 1, 2
    ),
    r AS (
        SELECT event_type, user_id, mg_count,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY mg_count DESC, user_id ASC)
                   AS rank
        FROM c
    )
    SELECT event_type, rank, user_id, mg_count
    FROM r WHERE rank <= 3
"""


# ---------------------------------------------------------------------------
# real fitted estimator: per-series linear trend (OLS / ridge)
# ---------------------------------------------------------------------------

@entry("predict_linear_daily", sql=lambda: SQL_PREDICT_LINEAR)
def q_predict_linear_daily(sf_dir: str) -> pd.DataFrame:
    """The predict driver with a REAL fitted estimator (reference
    model.py:802-953 fit + model.py:1313-1417 predict, engine-native): fit a
    per-series linear trend (OLS of v on the day index, centered per series)
    on ALL history via distributed partial sums, then score the next-7-day
    future grid (W10). The oracle recomputes the identical closed-form fit
    (base-centered Σx/Σy/Σx²/Σxy → slope/intercept) in SQL term-for-term."""
    fr = _daily_frame(sf_dir)
    preds = fr.predict(periods=7, freq="D", estimator="linear_trend",
                       l2=0.0)
    df = preds.to_pandas()[["event_type", "d", "predicted_v"]]
    df = _round(df, ["predicted_v"], 6)
    return _fill(df, ["predicted_v"])


SQL_PREDICT_LINEAR = f"""
    WITH daily AS ({_DAILY_SQL}),
    d2 AS (SELECT event_type, epoch_us(d) // {DAY_US} AS dn, v
           FROM daily WHERE v IS NOT NULL),
    b AS (SELECT event_type, min(dn) AS base FROM d2 GROUP BY 1),
    s AS (SELECT d2.event_type,
                 CAST(count(*) AS DOUBLE) AS n,
                 sum(CAST(dn - base AS DOUBLE)) AS sx,
                 sum(v) AS sy,
                 sum(CAST(dn - base AS DOUBLE)
                     * CAST(dn - base AS DOUBLE)) AS sxx,
                 sum(CAST(dn - base AS DOUBLE) * v) AS sxy,
                 min(base) AS base
          FROM d2 JOIN b USING (event_type) GROUP BY d2.event_type),
    m0 AS (SELECT event_type, base, n, sx, sy,
                  CASE WHEN (sxx - sx * sx / n + 0.0) = 0.0 THEN 0.0
                       ELSE (sxy - sx * sy / n) / (sxx - sx * sx / n + 0.0)
                  END AS slope
           FROM s),
    m AS (SELECT event_type, base, slope,
                 sy / n - slope * (sx / n) AS icept
          FROM m0),
    f AS (SELECT t.event_type, fd.d
          FROM (SELECT DISTINCT event_type FROM daily) t
          CROSS JOIN (
              SELECT unnest(generate_series(maxd + INTERVAL 1 DAY,
                                            maxd + INTERVAL 7 DAY,
                                            INTERVAL 1 DAY)) AS d
              FROM (SELECT max(d) AS maxd FROM daily)
          ) fd)
    SELECT f.event_type, f.d,
           COALESCE(round(m.icept + m.slope
                          * CAST(epoch_us(f.d) // {DAY_US} - m.base
                                 AS DOUBLE), 6),
                    {NULLF}) AS predicted_v
    FROM f JOIN m ON m.event_type = f.event_type
"""


# ---------------------------------------------------------------------------
# as-of join (nearest-prior-timestamp attach; stages/join.py asof_join)
# ---------------------------------------------------------------------------

@entry("asof_join_events", sql=lambda: SQL_ASOF_JOIN_EVENTS)
def q_asof_join_events(sf_dir: str) -> pd.DataFrame:
    """Distributed as-of join: attach to every ``purchase`` event the user's
    most recent PRIOR ``click`` activity (summed per (user, ts) so ties are
    impossible and the match is deterministic). Oracle is DuckDB's native
    ``ASOF LEFT JOIN`` — same backward/inclusive semantics as the engine's
    per-partition ``merge_asof`` kernel."""
    from forecastframe_ray.stages.join import asof_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type",
                                  "ts", "value"])

    def purchases(b: pd.DataFrame) -> pd.DataFrame:
        return b.loc[b["event_type"] == "purchase",
                     ["event_id", "user_id", "ts"]]

    def clicks(b: pd.DataFrame) -> pd.DataFrame:
        return b.loc[b["event_type"] == "click", ["user_id", "ts", "value"]]

    left = ev.map_batches(purchases, batch_format="pandas")
    right = hash_aggregate(ev.map_batches(clicks, batch_format="pandas"),
                           ["user_id", "ts"], {"click_v": ("value", "sum")},
                           num_partitions=_NP)

    def round_right(b: pd.DataFrame) -> pd.DataFrame:
        b["click_v"] = np.round(b["click_v"].to_numpy(dtype=np.float64), 6)
        return b

    out = asof_join(left, right.map_batches(round_right,
                                            batch_format="pandas"),
                    on=["user_id"], left_ts="ts", num_partitions=_NP)
    df = out.to_pandas()[["event_id", "user_id", "ts", "ts_r", "click_v"]]
    return _fill(df, ["click_v"])


SQL_ASOF_JOIN_EVENTS = f"""
    WITH l AS (SELECT event_id, user_id, ts FROM events
               WHERE event_type = 'purchase'),
    r AS (SELECT user_id, ts AS ts_r, round(sum(value), 6) AS click_v
          FROM events WHERE event_type = 'click' GROUP BY 1, 2)
    SELECT l.event_id, l.user_id, l.ts, r.ts_r,
           COALESCE(r.click_v, {NULLF}) AS click_v
    FROM l ASOF LEFT JOIN r
      ON l.user_id = r.user_id AND l.ts >= r.ts_r
"""


# ---------------------------------------------------------------------------
# range (interval) join — purchases inside 7-day signup windows
# ---------------------------------------------------------------------------

@entry("range_join_events", sql=lambda: SQL_RANGE_JOIN_EVENTS)
def q_range_join_events(sf_dir: str) -> pd.DataFrame:
    """Distributed range join (stages/join.py range_join): attach every
    ``purchase`` event to each 7-day window opened by the same user's
    ``signup`` events ([ts, ts+7d), inner — a purchase in k overlapping
    windows emits k rows). Oracle is the plain inequality join in SQL."""
    from forecastframe_ray.stages.join import range_join

    ev = _read(sf_dir, "events", ["event_id", "user_id", "event_type",
                                  "ts", "value"])

    def purchases(b: pd.DataFrame) -> pd.DataFrame:
        out = b.loc[b["event_type"] == "purchase",
                    ["event_id", "user_id", "ts", "value"]].copy()
        out["pv"] = np.round(out["value"].to_numpy(dtype=np.float64), 6)
        return out.drop(columns="value")

    def windows(b: pd.DataFrame) -> pd.DataFrame:
        w = b.loc[b["event_type"] == "signup",
                  ["event_id", "user_id", "ts"]].copy()
        w = w.rename(columns={"event_id": "signup_id", "ts": "w_start"})
        w["w_end"] = w["w_start"] + pd.Timedelta(days=7)
        return w

    out = range_join(ev.map_batches(purchases, batch_format="pandas"),
                     ev.map_batches(windows, batch_format="pandas"),
                     on=["user_id"], left_ts="ts", start_col="w_start",
                     end_col="w_end", how="inner", closed="left",
                     num_partitions=_NP)
    return out.to_pandas()[["event_id", "user_id", "ts", "pv",
                            "signup_id", "w_start", "w_end"]]


SQL_RANGE_JOIN_EVENTS = """
    WITH p AS (SELECT event_id, user_id, ts, round(value, 6) AS pv
               FROM events WHERE event_type = 'purchase'),
    w AS (SELECT event_id AS signup_id, user_id, ts AS w_start,
                 ts + INTERVAL 7 DAY AS w_end
          FROM events WHERE event_type = 'signup')
    SELECT p.event_id, p.user_id, p.ts, p.pv,
           w.signup_id, w.w_start, w.w_end
    FROM p JOIN w ON p.user_id = w.user_id
                 AND p.ts >= w.w_start AND p.ts < w.w_end
"""


# ---------------------------------------------------------------------------
# sessionization (gap-based session assignment; stages/window_ops.op_sessionize)
# ---------------------------------------------------------------------------

_SESSION_GAP_S = 1800  # 30-minute inactivity gap (classic web-analytics cut)


def _sessionized_events(sf_dir: str):
    """events → per-user gap-based session ids via the fused keyed window
    stage (one hash shuffle on user_id, vectorized diff+cumsum kernel)."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts"])
    return keyed_window_stage(
        ev, ["user_id"], "ts",
        [{"op": "sessionize", "gap_seconds": _SESSION_GAP_S}],
        num_partitions=_NP)


@entry("sessionize_events", sql=lambda: SQL_SESSIONIZE_EVENTS)
def q_sessionize_events(sf_dir: str) -> pd.DataFrame:
    """Row-level session assignment: (event_id, user_id, ts, session_id)
    where session_id is 1-based per user and increments whenever the gap to
    the user's previous event exceeds 30 minutes."""
    df = _sessionized_events(sf_dir).to_pandas()
    df = df[["event_id", "user_id", "ts", "session_id"]]
    df["session_id"] = df["session_id"].astype("int64")
    return df.sort_values("event_id", kind="mergesort").reset_index(drop=True)


SQL_SESSIONIZE_EVENTS = f"""
    WITH b AS (
        SELECT event_id, user_id, ts,
               CASE WHEN LAG(ts) OVER w IS NULL
                         OR ts - LAG(ts) OVER w > INTERVAL {_SESSION_GAP_S} SECOND
                    THEN 1 ELSE 0 END AS brk
        FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
    )
    SELECT event_id, user_id, ts,
           CAST(SUM(brk) OVER (PARTITION BY user_id ORDER BY ts
                               ROWS UNBOUNDED PRECEDING) AS BIGINT) AS session_id
    FROM b
"""


# ---------------------------------------------------------------------------
# expanding (cumulative) stats + per-series row numbers
# ---------------------------------------------------------------------------

@entry("expanding_daily_events", sql=lambda: SQL_EXPANDING_DAILY)
def q_expanding_daily_events(sf_dir: str) -> pd.DataFrame:
    """Expanding sum/mean/max of the daily value series plus the 1-based
    row number, all fused into ONE keyed window stage pass (one shuffle)."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    daily = _bucket_series(sf_dir, DAY_US, "d")
    out = keyed_window_stage(
        daily, ["event_type"], "d",
        [{"op": "expanding_stats", "features": ["v"],
          "aggregations": ["sum", "mean", "max"]},
         {"op": "row_number", "out_name": "rn"}],
        num_partitions=_NP)
    df = out.to_pandas()[["event_type", "d", "v", "v_expanding_sum",
                          "v_expanding_mean", "v_expanding_max", "rn"]]
    df = _round(df, ["v_expanding_sum", "v_expanding_mean",
                     "v_expanding_max"], 6)
    return df.sort_values(["event_type", "d"],
                          kind="mergesort").reset_index(drop=True)


SQL_EXPANDING_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           round(SUM(v) OVER w, 6) AS v_expanding_sum,
           round(AVG(v) OVER w, 6) AS v_expanding_mean,
           round(MAX(v) OVER w, 6) AS v_expanding_max,
           CAST(row_number() OVER (PARTITION BY event_type ORDER BY d)
                AS BIGINT) AS rn
    FROM daily
    WINDOW w AS (PARTITION BY event_type ORDER BY d ROWS UNBOUNDED PRECEDING)
"""


# ---------------------------------------------------------------------------
# hopping (sliding) event-time windows (pipelines/rollup.hopping_window_aggregate)
# ---------------------------------------------------------------------------

_HOP_WINDOW_US = 3 * HOUR_US
_HOP_SLIDE_US = HOUR_US


@entry("hopping_3h1h_events", sql=lambda: SQL_HOPPING_3H1H_EVENTS)
def q_hopping_3h1h_events(sf_dir: str) -> pd.DataFrame:
    """3-hour windows hopping hourly over the event stream, per event_type:
    each event lands in exactly 3 overlapping windows."""
    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])
    out = rollup.hopping_window_aggregate(
        ev, ["event_type"], "ts", "value",
        window_us=_HOP_WINDOW_US, slide_us=_HOP_SLIDE_US,
        num_partitions=_NP)
    df = out.to_pandas()
    df["n_events"] = df["n_events"].astype("int64")
    df = _round(df, ["sum_val"], 6)
    df = df[["event_type", "window_start_us", "n_events", "sum_val"]]
    return df.sort_values(["event_type", "window_start_us"],
                          kind="mergesort").reset_index(drop=True)


SQL_HOPPING_3H1H_EVENTS = f"""
    WITH e AS (SELECT event_type, epoch_us(ts) AS us, value FROM events),
    x AS (SELECT event_type, value,
                 unnest(generate_series((us - {_HOP_WINDOW_US}) // {_HOP_SLIDE_US} + 1,
                                        us // {_HOP_SLIDE_US}, 1)) AS k
          FROM e)
    SELECT event_type, CAST(k * {_HOP_SLIDE_US} AS BIGINT) AS window_start_us,
           CAST(count(*) AS BIGINT) AS n_events,
           round(sum(value), 6) AS sum_val
    FROM x GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# reshape: pivot (long → wide) and melt (wide → long) — stages/reshape.py
# ---------------------------------------------------------------------------

_EVENT_TYPES = ["click", "error", "purchase", "signup", "view"]


@entry("pivot_daily_events", sql=lambda: SQL_PIVOT_DAILY)
def q_pivot_daily_events(sf_dir: str) -> pd.DataFrame:
    """Daily value series pivoted wide: one row per day, one column per
    event_type (null-sentinel where a type had no events that day)."""
    from forecastframe_ray.stages import reshape

    daily = _bucket_series(sf_dir, DAY_US, "d")
    cats = reshape.distinct_categories(daily, "event_type",
                                       num_partitions=_NP)
    assert cats == _EVENT_TYPES, cats  # oracle hardcodes the column axis
    wide = reshape.pivot_wide(daily, ["d"], "event_type", "v", cats,
                              num_partitions=_NP)
    df = wide.to_pandas()
    names = [f"v_{c}" for c in _EVENT_TYPES]
    df = _round(df, names, 6)
    df = _fill(df, names)
    return df[["d"] + names].sort_values("d").reset_index(drop=True)


SQL_PIVOT_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT d,
           {", ".join(
               f"COALESCE(round(max(CASE WHEN event_type = '{c}' THEN v END), 6), {NULLF}) AS v_{c}"
               for c in _EVENT_TYPES)}
    FROM daily GROUP BY d
"""


@entry("melt_roundtrip_daily", sql=lambda: SQL_MELT_ROUNDTRIP_DAILY)
def q_melt_roundtrip_daily(sf_dir: str) -> pd.DataFrame:
    """Pivot wide then melt back to long (dropping the null cells): the
    roundtrip must reproduce the daily series exactly."""
    from forecastframe_ray.stages import reshape

    daily = _bucket_series(sf_dir, DAY_US, "d")
    wide = reshape.pivot_wide(daily, ["d"], "event_type", "v", _EVENT_TYPES,
                              num_partitions=_NP)
    names = [f"v_{c}" for c in _EVENT_TYPES]
    long = reshape.melt_long(wide, ["d"], names, var_name="variable",
                             value_name="value", drop_null=True)
    df = long.to_pandas()
    df = _round(df, ["value"], 6)
    return df[["d", "variable", "value"]].sort_values(
        ["d", "variable"], kind="mergesort").reset_index(drop=True)


SQL_MELT_ROUNDTRIP_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT d, 'v_' || event_type AS variable, round(v, 6) AS value
    FROM daily
"""


# ---------------------------------------------------------------------------
# grouped top-k (stages/topk.py) — k best rows per group, no global sort
# ---------------------------------------------------------------------------

@entry("topk_per_type_events", sql=lambda: SQL_TOPK_PER_TYPE_EVENTS)
def q_topk_per_type_events(sf_dir: str) -> pd.DataFrame:
    """Top-3 events by value within each event_type (event_id tiebreak →
    deterministic across any block layout)."""
    from forecastframe_ray.stages.topk import grouped_topk

    ev = _read(sf_dir, "events", ["event_id", "event_type", "ts", "value"])
    top = grouped_topk(ev, ["event_type"], "value", k=3, descending=True,
                       tiebreak=["event_id"], num_partitions=_NP)
    df = top.to_pandas()
    df = _round(df, ["value"], 6)
    df = df[["event_type", "event_id", "ts", "value"]]
    return df.sort_values(["event_type", "event_id"],
                          kind="mergesort").reset_index(drop=True)


SQL_TOPK_PER_TYPE_EVENTS = """
    SELECT event_type, event_id, ts, round(value, 6) AS value
    FROM (SELECT *, row_number() OVER (PARTITION BY event_type
                                       ORDER BY value DESC, event_id) AS rn
          FROM events)
    WHERE rn <= 3
"""


# ---------------------------------------------------------------------------
# winsorize (per-group quantile clip) — functions/scalers.winsorize_clip
# ---------------------------------------------------------------------------

@entry("winsorize_events", sql=lambda: SQL_WINSORIZE_EVENTS)
def q_winsorize_events(sf_dir: str) -> pd.DataFrame:
    """Clip event values to each type's exact [p5, p95] quantile band."""
    ev = _read(sf_dir, "events", ["event_id", "event_type", "value"])
    out = scalers.winsorize_clip(ev, ["event_type"], "value",
                                 q_lo=0.05, q_hi=0.95)
    df = out.to_pandas()
    df = _round(df, ["value", "value_winsorized"], 6)
    df = df[["event_id", "event_type", "value", "value_winsorized"]]
    return df.sort_values("event_id").reset_index(drop=True)


SQL_WINSORIZE_EVENTS = """
    WITH q AS (SELECT event_type,
                      quantile_cont(value, 0.05) AS ql,
                      quantile_cont(value, 0.95) AS qh
               FROM events GROUP BY 1)
    SELECT e.event_id, e.event_type, round(e.value, 6) AS value,
           round(least(greatest(e.value, q.ql), q.qh), 6)
               AS value_winsorized
    FROM events e JOIN q USING (event_type)
"""


# ---------------------------------------------------------------------------
# bloom-prefiltered semi-join (stages/bloom.py) — exact result, scale path
# ---------------------------------------------------------------------------

@entry("bloom_semi_join_orders", sql=lambda: SQL_BLOOM_SEMI_JOIN_ORDERS)
def q_bloom_semi_join_orders(sf_dir: str) -> pd.DataFrame:
    """Orders from customers with acctbal > 7000, via the Bloom prefilter +
    exact verify path — result must equal the plain semi-join."""
    from forecastframe_ray.stages.bloom import bloom_semi_join

    od = _read(sf_dir, "orders", ["o_custkey", "o_orderstatus",
                                  "o_totalprice"])
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    rich = (cust.map_batches(
        lambda b: b.loc[b["c_acctbal"] > 7000, ["c_custkey"]]
                   .rename(columns={"c_custkey": "o_custkey"}),
        batch_format="pandas"))
    kept = bloom_semi_join(od, rich, on=["o_custkey"], fpp=0.01,
                           num_partitions=_NP)
    agg = hash_aggregate(kept, ["o_orderstatus"],
                         {"n": ("o_custkey", "count"),
                          "total": ("o_totalprice", "sum")},
                         num_partitions=4)
    df = agg.to_pandas()
    df["n"] = df["n"].astype("int64")
    df = _round(df, ["total"], 4)
    return df[["o_orderstatus", "n", "total"]].sort_values(
        "o_orderstatus").reset_index(drop=True)


SQL_BLOOM_SEMI_JOIN_ORDERS = """
    SELECT o_orderstatus, CAST(count(*) AS BIGINT) AS n,
           round(sum(o_totalprice), 4) AS total
    FROM orders
    WHERE o_custkey IN (SELECT c_custkey FROM customer
                        WHERE c_acctbal > 7000)
    GROUP BY 1
"""


# ---------------------------------------------------------------------------
# rolling correlation between two series features (op_rolling_corr)
# ---------------------------------------------------------------------------

@entry("rolling_corr_daily", sql=lambda: SQL_ROLLING_CORR_DAILY)
def q_rolling_corr_daily(sf_dir: str) -> pd.DataFrame:
    """7-row rolling Pearson correlation between each event_type's daily
    value sum and daily event count."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def floor_fn(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        b = b[["event_type", "value"]].copy()
        b["d"] = pd.to_datetime((us // DAY_US) * DAY_US, unit="us")
        return b

    daily = hash_aggregate(ev.map_batches(floor_fn, batch_format="pandas"),
                           ["event_type", "d"],
                           {"v": ("value", "sum"), "n": ("value", "count")},
                           num_partitions=_NP)

    def round_fn(b: pd.DataFrame) -> pd.DataFrame:
        b["v"] = np.round(b["v"].to_numpy(dtype=np.float64), 6)
        b["n"] = b["n"].astype("int64")
        return b

    out = keyed_window_stage(
        daily.map_batches(round_fn, batch_format="pandas"),
        ["event_type"], "d",
        [{"op": "rolling_corr", "feature_x": "v", "feature_y": "n",
          "window": 7, "out_name": "v_n_corr7"}],
        num_partitions=_NP)
    df = out.to_pandas()[["event_type", "d", "v", "n", "v_n_corr7"]]
    df = _round(df, ["v_n_corr7"], 6)
    df = _fill(df, ["v_n_corr7"])
    return df.sort_values(["event_type", "d"],
                          kind="mergesort").reset_index(drop=True)


SQL_ROLLING_CORR_DAILY = f"""
    WITH daily AS (
        SELECT event_type, date_trunc('day', ts) AS d,
               round(sum(value), 6) AS v, CAST(count(*) AS BIGINT) AS n
        FROM events GROUP BY 1, 2
    )
    SELECT event_type, d, v, n,
           COALESCE(round(corr(v, n) OVER (
               PARTITION BY event_type ORDER BY d
               ROWS BETWEEN 6 PRECEDING AND CURRENT ROW), 6), {NULLF})
               AS v_n_corr7
    FROM daily
"""


@entry("stratified_sample_orders", sql=lambda: SQL_STRATIFIED_SAMPLE_ORDERS)
def q_stratified_sample_orders(sf_dir: str) -> pd.DataFrame:
    """Exact 40-per-priority deterministic stratified sample (md5 quota)."""
    from forecastframe_ray.stages.sample import stratified_sample

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderpriority", "o_totalprice"])
    out = stratified_sample(orders, ["o_orderpriority"], "o_orderkey",
                            k=40).to_pandas()
    out = out[["o_orderkey", "o_orderpriority", "o_totalprice"]] \
        .astype({"o_orderkey": "int64"})
    return out.sort_values("o_orderkey").reset_index(drop=True)


SQL_STRATIFIED_SAMPLE_ORDERS = """
    WITH b AS (
      SELECT o_orderkey, o_orderpriority, o_totalprice,
             CAST(concat('0x', substr(md5(CAST(o_orderkey AS VARCHAR)),
                                      1, 8)) AS BIGINT) AS bkt
      FROM orders
    ),
    r AS (SELECT *, row_number() OVER (PARTITION BY o_orderpriority
                                       ORDER BY bkt, o_orderkey) AS rk
          FROM b)
    SELECT o_orderkey, o_orderpriority, o_totalprice FROM r WHERE rk <= 40
"""


# ---------------------------------------------------------------------------
# percent rank within series (stages/window_ops.op_percent_rank)
# ---------------------------------------------------------------------------

@entry("percent_rank_daily", sql=lambda: SQL_PERCENT_RANK_DAILY)
def q_percent_rank_daily(sf_dir: str) -> pd.DataFrame:
    """SQL percent_rank() twin over the daily spine: rank of each day's
    value within its series, rank-with-gaps ties, single-row series -> 0."""
    from forecastframe_ray.stages.keyed import keyed_window_stage

    daily = _bucket_series(sf_dir, DAY_US, "d")
    out = keyed_window_stage(
        daily, ["event_type"], "d",
        [{"op": "percent_rank", "feature": "v", "out_name": "v_pct_rank"}],
        num_partitions=_NP)
    df = out.to_pandas()[["event_type", "d", "v", "v_pct_rank"]]
    return df.sort_values(["event_type", "d"],
                          kind="mergesort").reset_index(drop=True)


SQL_PERCENT_RANK_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           round(percent_rank() OVER (PARTITION BY event_type ORDER BY v),
                 6) AS v_pct_rank
    FROM daily
"""
