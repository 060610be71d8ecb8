"""Oracled query catalog — part ``corpus`` (contiguous split of the former queries.py monolith; order preserved)."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

import ray.data

from forecastframe_ray.stages.agg import hash_aggregate, hash_count

from forecastframe_ray.frame import RayForecastFrame
from forecastframe_ray.functions import encoding, metrics, scalers
from forecastframe_ray.pipelines import dedup, rollup, similarity, textstats
from forecastframe_ray.stages import gorilla
from forecastframe_ray.stages.join import broadcast_semi_join
from forecastframe_ray.pipelines.queries.spine import (  # noqa: F401
    DAY_US,
    NULLF,
    _DAILY_SQL,
    _NP,
    _SESSION_GAP_S,
    _bucket_series,
    _daily_frame,
    _fill,
    _read,
    _round,
    _sessionized_events,
)
from forecastframe_ray.pipelines.queries.text import (  # noqa: F401
    SQL_OHLC_DAILY,
    q_ohlc_daily_events,
    q_transition_counts_events,
)
from forecastframe_ray.pipelines.queries import entry



# ---------------------------------------------------------------------------
# band / drawdown / record-run features on the daily spine (W1 family)
# ---------------------------------------------------------------------------

@entry("bollinger_daily_events", sql=lambda: SQL_BOLLINGER_DAILY)
def q_bollinger_daily_events(sf_dir: str) -> pd.DataFrame:
    """Bollinger bands (Bollinger 1980s — public) on the daily spine,
    leakage-safe form: band = trailing LAG-1 7-row mean ± 2·std (ddof=1,
    ≥2 points required — same frame the rolling-corr feature uses), plus a
    breach flag (+1 above the upper band, −1 below the lower, 0 inside)
    computed from the ROUNDED band on both engines so the comparison is
    epsilon-stable. One keyed co-located kernel per series."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            lv = g["v"].shift(1)
            m = lv.rolling(7, min_periods=2).mean().to_numpy(np.float64)
            s = lv.rolling(7, min_periods=2).std(ddof=1) \
                .to_numpy(np.float64)
            up = np.round(m + 2.0 * s, 6)
            lo = np.round(m - 2.0 * s, 6)
            v = g["v"].to_numpy(np.float64)
            breach = np.where(v > up, 1.0, np.where(v < lo, -1.0, 0.0))
            breach = np.where(np.isnan(up), np.nan, breach)
            outs.append(pd.DataFrame({
                "event_type": g["event_type"], "d": g["d"], "v": g["v"],
                "bb_mid": np.round(m, 6) + 0.0, "bb_up": up + 0.0,
                "bb_lo": lo + 0.0, "bb_breach": breach + 0.0,
            }))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "bb_mid",
                                  "bb_up", "bb_lo", "bb_breach"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = _fill(out, ["bb_mid", "bb_up", "bb_lo", "bb_breach"])
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_BOLLINGER_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (
        SELECT event_type, d, v,
               CASE WHEN count(v) OVER w1 >= 2
                    THEN avg(v) OVER w1 END AS m,
               stddev_samp(v) OVER w1 AS s
        FROM daily WINDOW w1 AS (PARTITION BY event_type ORDER BY d
                                 ROWS BETWEEN 7 PRECEDING AND 1 PRECEDING)
    )
    SELECT event_type, d, v,
           COALESCE(round(m, 6) + 0.0, {NULLF}) AS bb_mid,
           COALESCE(round(m + 2 * s, 6) + 0.0, {NULLF}) AS bb_up,
           COALESCE(round(m - 2 * s, 6) + 0.0, {NULLF}) AS bb_lo,
           COALESCE(CASE WHEN m IS NULL THEN NULL
                         WHEN v > round(m + 2 * s, 6) THEN 1.0
                         WHEN v < round(m - 2 * s, 6) THEN -1.0
                         ELSE 0.0 END, {NULLF}) AS bb_breach
    FROM w
"""


@entry("drawdown_daily_events", sql=lambda: SQL_DRAWDOWN_DAILY)
def q_drawdown_daily_events(sf_dir: str) -> pd.DataFrame:
    """Maximum drawdown per daily series: the largest peak-to-trough drop
    ``max(running_max(v) − v)`` in time order (absolute units — the daily
    sums can cross zero, so the relative form is ill-posed). Emitted with
    the series peak and day count; the running max is a per-series
    co-located kernel, the oracle a ROWS UNBOUNDED PRECEDING window."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            runmax = np.maximum.accumulate(v)
            rows.append((et, len(v), np.round(float((runmax - v).max()), 6),
                         np.round(float(v.max()), 6)))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "max_drawdown", "peak"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DRAWDOWN_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               max(v) OVER (PARTITION BY event_type ORDER BY d
                            ROWS UNBOUNDED PRECEDING) AS runmax
        FROM daily
    )
    SELECT event_type, CAST(count(*) AS BIGINT) AS n_days,
           round(max(runmax - v), 6) AS max_drawdown,
           round(max(v), 6) AS peak
    FROM r GROUP BY 1
"""


@entry("records_streaks_daily", sql=lambda: SQL_RECORDS_STREAKS_DAILY)
def q_records_streaks_daily(sf_dir: str) -> pd.DataFrame:
    """Record-high days and the longest up-streak per daily series — the
    two classic run statistics (records: v strictly above every prior
    value, first day counts; up-streak: consecutive rows with v > previous
    v). The kernel is one vectorized pass (cummax + cumsum gaps-and-islands);
    the oracle is the textbook row_number/grp SQL island construction."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            prior_max = np.concatenate(
                ([-np.inf], np.maximum.accumulate(v)[:-1]))
            n_records = int((v > prior_max).sum())
            up = np.concatenate(([False], v[1:] > v[:-1]))
            grp = np.cumsum(~up)
            streak = int(np.bincount(grp[up]).max()) if up.any() else 0
            rows.append((et, len(v), n_records, streak))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "n_records", "max_up_streak"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    for c in ("n_days", "n_records", "max_up_streak"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_RECORDS_STREAKS_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               CASE WHEN COALESCE(v > max(v) OVER
                        (PARTITION BY event_type ORDER BY d
                         ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                        TRUE) THEN 1 ELSE 0 END AS is_rec,
               CASE WHEN v > LAG(v) OVER
                        (PARTITION BY event_type ORDER BY d)
                    THEN 1 ELSE 0 END AS up
        FROM daily
    ),
    g AS (
        SELECT event_type, d, up, is_rec,
               SUM(CASE WHEN up = 0 THEN 1 ELSE 0 END) OVER
                   (PARTITION BY event_type ORDER BY d) AS grp
        FROM l
    ),
    s AS (SELECT event_type, grp, SUM(up) AS streak FROM g GROUP BY 1, 2)
    SELECT g2.event_type, CAST(g2.n_days AS BIGINT) AS n_days,
           CAST(g2.n_records AS BIGINT) AS n_records,
           CAST(s2.max_up_streak AS BIGINT) AS max_up_streak
    FROM (SELECT event_type, count(*) AS n_days, SUM(is_rec) AS n_records
          FROM g GROUP BY 1) g2
    JOIN (SELECT event_type, MAX(streak) AS max_up_streak
          FROM s GROUP BY 1) s2 USING (event_type)
"""


@entry("atr_daily_events", sql=lambda: SQL_ATR_DAILY)
def q_atr_daily_events(sf_dir: str) -> pd.DataFrame:
    """Average True Range (Wilder 1978 — public) over the daily OHLC bars:
    ``TR = max(high−low, |high−prev_close|, |low−prev_close|)`` (first bar:
    high−low) and ATR = trailing 7-ROW mean of TR (min 1 row). Bars come
    from the same unique-stamp OHLC aggregate the ``ohlc_daily_events``
    entry pins; TR/ATR are computed from the ROUNDED bars on both engines."""
    bars = q_ohlc_daily_events(sf_dir)

    outs = []
    for et, g in bars.groupby("event_type", sort=False):
        g = g.sort_values("d").copy()
        pc = g["close"].shift(1).to_numpy(np.float64)
        hi = g["high"].to_numpy(np.float64)
        lo = g["low"].to_numpy(np.float64)
        tr = np.maximum(hi - lo,
                        np.maximum(np.abs(hi - pc), np.abs(lo - pc)))
        tr = np.where(np.isnan(pc), hi - lo, tr)
        tr = np.round(tr, 6)
        atr = pd.Series(tr).rolling(7, min_periods=1).mean() \
            .to_numpy(np.float64)
        outs.append(pd.DataFrame({
            "event_type": g["event_type"], "d": g["d"],
            "tr": tr + 0.0, "atr7": np.round(atr, 6) + 0.0}))
    out = pd.concat(outs, ignore_index=True)
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_ATR_DAILY = f"""
    WITH bars AS ({SQL_OHLC_DAILY}),
    t AS (
        SELECT event_type, d,
               round(CASE WHEN LAG(close) OVER w IS NULL THEN high - low
                          ELSE GREATEST(high - low,
                                        abs(high - LAG(close) OVER w),
                                        abs(low - LAG(close) OVER w))
                     END, 6) AS tr
        FROM bars WINDOW w AS (PARTITION BY event_type ORDER BY d)
    )
    SELECT event_type, d, tr + 0.0 AS tr,
           round(avg(tr) OVER (PARTITION BY event_type ORDER BY d
                               ROWS BETWEEN 6 PRECEDING AND CURRENT ROW),
                 6) + 0.0 AS atr7
    FROM t
"""


# ---------------------------------------------------------------------------
# distribution audits: Benford first-digit, Gini concentration
# ---------------------------------------------------------------------------

@entry("benford_lineitem", sql=lambda: SQL_BENFORD_LINEITEM)
def q_benford_lineitem(sf_dir: str) -> pd.DataFrame:
    """Benford first-significant-digit audit (Benford 1938 — public) of
    ``l_extendedprice``: digits are taken from the integer cents via string
    truncation (bit-exact on both engines — no float log10 at power-of-ten
    boundaries), counted by the salted combiner aggregate, and compared to
    the Benford expectation ``log10(1 + 1/d)``."""
    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def digit_fn(b: pd.DataFrame) -> pd.DataFrame:
        cents = np.round(b["l_extendedprice"].to_numpy(np.float64) * 100.0) \
            .astype(np.int64)
        first = pd.Series(cents).astype(str).str[0].astype(np.int64)
        return pd.DataFrame({"digit": first,
                             "__one": np.ones(len(b), dtype=np.int64)})

    out = hash_aggregate(li.map_batches(digit_fn, batch_format="pandas"),
                         ["digit"], {"n": ("__one", "sum")},
                         num_partitions=4).to_pandas()
    total = float(out["n"].sum())
    out["n"] = out["n"].astype("int64")
    out["share"] = np.round(out["n"].to_numpy(np.float64) / total, 6)
    out["benford_p"] = np.round(
        np.log10(1.0 + 1.0 / out["digit"].to_numpy(np.float64)), 6)
    return out[["digit", "n", "share", "benford_p"]] \
        .sort_values("digit").reset_index(drop=True)


SQL_BENFORD_LINEITEM = """
    WITH c AS (
        SELECT CAST(substr(CAST(CAST(round(l_extendedprice * 100)
                                     AS BIGINT) AS VARCHAR), 1, 1)
                    AS BIGINT) AS digit
        FROM lineitem
    )
    SELECT digit, CAST(count(*) AS BIGINT) AS n,
           round(count(*) * 1.0 / (SELECT count(*) FROM c), 6) AS share,
           round(log10(1 + 1.0 / digit), 6) AS benford_p
    FROM c GROUP BY 1
"""


@entry("gini_users_events", sql=lambda: SQL_GINI_USERS)
def q_gini_users_events(sf_dir: str) -> pd.DataFrame:
    """Gini concentration of per-user total event value (Gini 1912 —
    public; the activity-inequality dashboard number). Per-user totals
    reduce distributedly (rounded to 6dp so ordering ties are exact on both
    engines); the closed-form rank formula
    ``G = 2·Σ i·x_(i) / (n·Σx) − (n+1)/n`` runs over the tiny totals
    vector."""
    ev = _read(sf_dir, "events", ["user_id", "value"])
    tot = hash_aggregate(ev, ["user_id"], {"tot": ("value", "sum")},
                         num_partitions=_NP).to_pandas()
    x = np.sort(np.round(tot["tot"].to_numpy(np.float64), 6))
    n = len(x)
    gini = 2.0 * float((np.arange(1, n + 1) * x).sum()) \
        / (n * float(x.sum())) - (n + 1.0) / n
    return pd.DataFrame({"n_users": np.array([n], dtype=np.int64),
                         "gini": [np.round(gini, 6)]})


SQL_GINI_USERS = """
    WITH t AS (
        SELECT user_id, round(sum(value), 6) AS tot
        FROM events GROUP BY 1
    ),
    r AS (
        SELECT tot, row_number() OVER (ORDER BY tot) AS rn,
               count(*) OVER () AS n, sum(tot) OVER () AS s
        FROM t
    )
    SELECT CAST(max(n) AS BIGINT) AS n_users,
           round(2.0 * sum(rn * tot) / (max(n) * max(s))
                 - (max(n) + 1.0) / max(n), 6) AS gini
    FROM r
"""


# ---------------------------------------------------------------------------
# robust filtering / seasonal profiles / momentum (W1 family, batch 2)
# ---------------------------------------------------------------------------

@entry("hampel_daily_events", sql=lambda: SQL_HAMPEL_DAILY)
def q_hampel_daily_events(sf_dir: str) -> pd.DataFrame:
    """Hampel filter (Hampel 1974 — public; the robust despiking standard)
    on the daily spine: centered 7-row window (3 each side, shrinking at
    the edges), outlier when ``|v − med| > 3 · 1.4826 · MAD``, replaced by
    the window median. Oracle via DuckDB list-windows (``list(v) OVER`` +
    ``list_aggregate(…, 'median')``) — both engines compute from the same
    6dp-rounded spine so the strict-inequality comparison is bit-stable."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    K = 3.0 * 1.4826

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            v = g["v"].to_numpy(np.float64)
            s = pd.Series(v)
            med = s.rolling(7, center=True, min_periods=1).median() \
                .to_numpy(np.float64)
            mad = s.rolling(7, center=True, min_periods=1) \
                .apply(lambda w: np.median(np.abs(w - np.median(w))),
                       raw=True).to_numpy(np.float64)
            flag = np.abs(v - med) > K * mad
            outs.append(pd.DataFrame({
                "event_type": g["event_type"], "d": g["d"], "v": g["v"],
                "v_hampel": np.round(np.where(flag, med, v), 6) + 0.0,
                "is_outlier": flag.astype(np.int64)}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "v_hampel",
                                  "is_outlier"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["is_outlier"] = out["is_outlier"].astype("int64")
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_HAMPEL_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (
        SELECT event_type, d, v,
               list(v) OVER (PARTITION BY event_type ORDER BY d
                             ROWS BETWEEN 3 PRECEDING AND 3 FOLLOWING) AS l
        FROM daily
    ),
    m AS (
        SELECT event_type, d, v, l,
               CAST(list_aggregate(l, 'median') AS DOUBLE) AS med
        FROM w
    ),
    h AS (
        SELECT event_type, d, v, med,
               CAST(list_aggregate(list_transform(l, x -> abs(x - med)),
                                   'median') AS DOUBLE) AS mad
        FROM m
    )
    SELECT event_type, d, v,
           round(CASE WHEN abs(v - med) > 3 * 1.4826 * mad
                      THEN med ELSE v END, 6) + 0.0 AS v_hampel,
           CAST(CASE WHEN abs(v - med) > 3 * 1.4826 * mad
                     THEN 1 ELSE 0 END AS BIGINT) AS is_outlier
    FROM h
"""


@entry("dow_profile_daily", sql=lambda: SQL_DOW_PROFILE_DAILY)
def q_dow_profile_daily(sf_dir: str) -> pd.DataFrame:
    """Day-of-week seasonal profile per series: n / median / p25 / p75 of
    the daily value by ISO weekday (Mon=1..Sun=7) — the box-plot row behind
    every weekly-seasonality dashboard. Quantiles are linear-interpolated
    (numpy default == DuckDB ``quantile_cont``); the grouped reduce runs on
    the co-located per-(series, dow) slices."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        part = part.copy()
        part["dow"] = part["d"].dt.dayofweek.astype(np.int64) + 1
        rows = []
        for (et, dow), g in part.groupby(["event_type", "dow"],
                                         sort=False):
            v = g["v"].to_numpy(np.float64)
            rows.append((et, dow, len(v),
                         np.round(np.percentile(v, 50), 6),
                         np.round(np.percentile(v, 25), 6),
                         np.round(np.percentile(v, 75), 6)))
        return pd.DataFrame(rows, columns=["event_type", "dow", "n",
                                           "med", "p25", "p75"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    out["dow"] = out["dow"].astype("int64")
    return out.sort_values(["event_type", "dow"]).reset_index(drop=True)


SQL_DOW_PROFILE_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, CAST(isodow(d) AS BIGINT) AS dow,
           CAST(count(*) AS BIGINT) AS n,
           round(quantile_cont(v, 0.5), 6) AS med,
           round(quantile_cont(v, 0.25), 6) AS p25,
           round(quantile_cont(v, 0.75), 6) AS p75
    FROM daily GROUP BY 1, 2
"""


@entry("macd_daily_events", sql=lambda: SQL_MACD_DAILY)
def q_macd_daily_events(sf_dir: str) -> pd.DataFrame:
    """MACD (Appel 1970s — public): ``ewm12(v) − ewm26(v)`` per daily
    series (adjust=True, min_periods=1), the span-9 signal line over the
    6dp-ROUNDED macd (so both engines feed the second smoothing identical
    inputs), and the histogram. The oracle reuses the closed-form
    adjust=True weighted-sum identity the EWMA entry pins
    (common ``(1−α)^t`` factor cancelled ⇒ ``pow(1/(1−α), rn)`` weights)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            v = pd.Series(g["v"].to_numpy(np.float64))
            macd = np.round((v.ewm(span=12, adjust=True).mean()
                             - v.ewm(span=26, adjust=True).mean())
                            .to_numpy(np.float64), 6)
            signal = np.round(pd.Series(macd).ewm(span=9, adjust=True)
                              .mean().to_numpy(np.float64), 6)
            outs.append(pd.DataFrame({
                "event_type": g["event_type"], "d": g["d"], "v": g["v"],
                "macd": macd + 0.0, "signal": signal + 0.0,
                "hist": np.round(macd - signal, 6) + 0.0}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "macd",
                                  "signal", "hist"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


#: α = 2/(span+1) ⇒ 1/(1−α): span 12 → 13/11, span 26 → 27/25, span 9 → 5/4
SQL_MACD_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    l AS (
        SELECT event_type, d, v,
               row_number() OVER (PARTITION BY event_type ORDER BY d) AS rn
        FROM daily
    ),
    e AS (
        SELECT event_type, d, v, rn,
               round(SUM(v * pow(13.0 / 11.0, rn)) OVER w
                         / SUM(pow(13.0 / 11.0, rn)) OVER w
                     - SUM(v * pow(27.0 / 25.0, rn)) OVER w
                         / SUM(pow(27.0 / 25.0, rn)) OVER w, 6) AS macd
        FROM l
        WINDOW w AS (PARTITION BY event_type ORDER BY rn
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
    ),
    s AS (
        SELECT event_type, d, v, macd,
               round(SUM(macd * pow(5.0 / 4.0, rn)) OVER w
                         / SUM(pow(5.0 / 4.0, rn)) OVER w, 6) AS signal
        FROM e
        WINDOW w AS (PARTITION BY event_type ORDER BY rn
                     ROWS BETWEEN UNBOUNDED PRECEDING AND CURRENT ROW)
    )
    SELECT event_type, d, v, macd + 0.0 AS macd, signal + 0.0 AS signal,
           round(macd - signal, 6) + 0.0 AS hist
    FROM s
"""


# ---------------------------------------------------------------------------
# audience overlap / normalized dedup (webtext curation, batch 2)
# ---------------------------------------------------------------------------

@entry("audience_overlap_events", sql=lambda: SQL_AUDIENCE_OVERLAP)
def q_audience_overlap_events(sf_dir: str) -> pd.DataFrame:
    """Audience-overlap Jaccard between event types: for every co-occurring
    type pair, ``|users(a) ∩ users(b)| / |users(a) ∪ users(b)|``. The
    distributed plan never builds a global user set: distinct (user, type)
    memberships reduce once, the pair fan-out happens inside per-user
    co-located groups (each user emits its own type combinations), and the
    tiny (type, type) count table merges at the driver."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    du = hash_aggregate(ev, ["user_id", "event_type"],
                        {"__n": ("event_type", "size")},
                        num_partitions=_NP)

    def pair_kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows_a, rows_b = [], []
        for uid, g in part.groupby("user_id", sort=False):
            ts = np.unique(g["event_type"].to_numpy())
            if len(ts) < 2:
                continue
            ia, ib = np.triu_indices(len(ts), 1)
            rows_a.append(ts[ia])
            rows_b.append(ts[ib])
        if not rows_a:
            return pd.DataFrame({"ta": pd.Series([], dtype=object),
                                 "tb": pd.Series([], dtype=object),
                                 "__one": pd.Series([], dtype=np.int64)})
        a = np.concatenate(rows_a)
        return pd.DataFrame({"ta": a, "tb": np.concatenate(rows_b),
                             "__one": np.ones(len(a), dtype=np.int64)})

    both = hash_aggregate(
        keyed_map_partitions(du, ["user_id"], pair_kernel,
                             num_partitions=_NP),
        ["ta", "tb"], {"n_both": ("__one", "sum")},
        num_partitions=4).to_pandas()
    per_type = hash_aggregate(du, ["event_type"],
                              {"n": ("__n", "size")},
                              num_partitions=4).to_pandas()
    sizes = dict(zip(per_type["event_type"], per_type["n"]))
    both["n_a"] = both["ta"].map(sizes).astype("int64")
    both["n_b"] = both["tb"].map(sizes).astype("int64")
    both["n_both"] = both["n_both"].astype("int64")
    union = both["n_a"] + both["n_b"] - both["n_both"]
    both["jaccard"] = np.round(
        both["n_both"].to_numpy(np.float64) / union.to_numpy(np.float64), 6)
    return both[["ta", "tb", "n_both", "n_a", "n_b", "jaccard"]] \
        .sort_values(["ta", "tb"]).reset_index(drop=True)


SQL_AUDIENCE_OVERLAP = """
    WITH du AS (SELECT DISTINCT user_id, event_type FROM events),
    p AS (
        SELECT a.event_type AS ta, b.event_type AS tb
        FROM du a JOIN du b USING (user_id)
        WHERE a.event_type < b.event_type
    ),
    c AS (SELECT ta, tb, count(*) AS n_both FROM p GROUP BY 1, 2),
    n AS (SELECT event_type, count(*) AS n FROM du GROUP BY 1)
    SELECT c.ta, c.tb, CAST(c.n_both AS BIGINT) AS n_both,
           CAST(na.n AS BIGINT) AS n_a, CAST(nb.n AS BIGINT) AS n_b,
           round(c.n_both * 1.0 / (na.n + nb.n - c.n_both), 6) AS jaccard
    FROM c JOIN n na ON na.event_type = c.ta
           JOIN n nb ON nb.event_type = c.tb
"""


@entry("normalized_dedup_documents", sql=lambda: SQL_NORMALIZED_DEDUP)
def q_normalized_dedup_documents(sf_dir: str) -> pd.DataFrame:
    """Fuzzy-exact dedup on NORMALIZED text (the C4/CCNet pre-pass —
    public): lowercase, strip non-[a-z0-9 ], collapse runs of spaces, trim;
    then keep the min doc_id per normalized class. Normalization is a
    stateless vectorized map; the class reduce shuffles only the 32-char
    digest of the normalized text (never the text itself) — the same
    narrow-key plan as ``exact_dedup``."""
    import hashlib

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm_fn(b: pd.DataFrame) -> pd.DataFrame:
        nt = b["text"].fillna("").str.lower() \
            .str.replace(r"[^a-z0-9 ]", "", regex=True) \
            .str.replace(r" +", " ", regex=True).str.strip()
        dig = [hashlib.md5(t.encode("utf-8")).hexdigest() for t in nt]
        return pd.DataFrame({"doc_id": b["doc_id"], "__digest": dig})

    out = hash_aggregate(
        docs.map_batches(norm_fn, batch_format="pandas"),
        ["__digest"], {"keep_id": ("doc_id", "min"),
                       "class_size": ("doc_id", "size")},
        num_partitions=_NP).to_pandas()
    out = out[["keep_id", "class_size"]].astype(
        {"keep_id": "int64", "class_size": "int64"})
    return out.sort_values("keep_id").reset_index(drop=True)


SQL_NORMALIZED_DEDUP = """
    WITH nrm AS (
        SELECT doc_id,
               trim(regexp_replace(regexp_replace(lower(text),
                                                  '[^a-z0-9 ]', '', 'g'),
                                   ' +', ' ', 'g')) AS nt
        FROM documents
    )
    SELECT CAST(min(doc_id) AS BIGINT) AS keep_id,
           CAST(count(*) AS BIGINT) AS class_size
    FROM nrm GROUP BY nt
"""


# ---------------------------------------------------------------------------
# Holt-Winters gate / rolling distinct / burstiness / transition entropy
# ---------------------------------------------------------------------------

@entry("holt_winters_gate_daily", sql=lambda: SQL_HOLT_WINTERS_GATE)
def q_holt_winters_gate_daily(sf_dir: str) -> pd.DataFrame:
    """Holt-Winters additive forecast, oracle-GATED through the degenerate
    closed form (the holt/ses/croston gate pattern): at α=1, β=0, γ=0 the
    trend freezes at its initial ``(mean(season₂) − mean(season₁))/7``, the
    seasonals freeze at ``y_i − mean(season₁)``, and the level collapses to
    ``y_T − s_{T mod 7}`` — all SQL-expressible. The gate drives the full
    machinery (key-co-located sequential fit, per-series (l, b, s₀..s₆)
    state broadcast, the future-grid scorer); general (α, β, γ) is pinned
    by pytest against a direct numpy recursion."""
    fr = _daily_frame(sf_dir)
    preds = fr.predict(periods=7, freq="D", estimator="holt_winters",
                       alpha=1.0, beta=0.0, gamma=0.0, period=7)
    df = preds.to_pandas()[["event_type", "d", "predicted_v"]]
    df = _round(df, ["predicted_v"], 6)
    return df.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_HOLT_WINTERS_GATE = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d, v,
               row_number() OVER (PARTITION BY event_type ORDER BY d) AS rn
        FROM daily
    ),
    init AS (
        SELECT event_type, count(*) AS n, max(d) AS d_last,
               avg(CASE WHEN rn <= 7 THEN v END) AS l0,
               COALESCE((avg(CASE WHEN rn > 7 AND rn <= 14 THEN v END)
                         - avg(CASE WHEN rn <= 7 THEN v END)) / 7.0, 0)
                   AS b0,
               arg_max(v, rn) AS y_last
        FROM r GROUP BY 1
    ),
    seas AS (
        SELECT r.event_type, (rn - 1) % 7 AS six, r.v - i.l0 AS s
        FROM r JOIN init i USING (event_type) WHERE rn <= 7
    ),
    f AS (
        SELECT i.*, fd.d, datediff('day', i.d_last, fd.d) AS h
        FROM init i CROSS JOIN (
            SELECT unnest(generate_series(maxd + INTERVAL 1 DAY,
                                          maxd + INTERVAL 7 DAY,
                                          INTERVAL 1 DAY)) AS d
            FROM (SELECT max(d) AS maxd FROM daily)
        ) fd
    ),
    lev AS (
        SELECT f.*, f.y_last - COALESCE(sl.s, 0) AS level
        FROM f LEFT JOIN seas sl ON sl.event_type = f.event_type
                                AND sl.six = (f.n - 1) % 7
    )
    SELECT lev.event_type, lev.d,
           round(lev.level + lev.h * lev.b0 + COALESCE(sf.s, 0), 6)
               AS predicted_v
    FROM lev LEFT JOIN seas sf ON sf.event_type = lev.event_type
                              AND sf.six = (lev.n - 1 + lev.h) % 7
"""


@entry("rolling_distinct_users_daily", sql=lambda: SQL_ROLLING_DISTINCT_USERS)
def q_rolling_distinct_users_daily(sf_dir: str) -> pd.DataFrame:
    """Trailing 7-day distinct active users per event type (the WAU-style
    rolling-cardinality dashboard number). The distributed plan never
    re-scans windows: distinct (type, day, user) memberships reduce once,
    each membership FANS OUT to the ≤7 future days it covers (a stateless
    vectorized map — the standard shuffle-free rolling-distinct expansion),
    a second narrow reduce re-distincts, and the per-day count semi-joins
    back to days that actually exist for the type."""
    ev = _read(sf_dir, "events", ["event_type", "ts", "user_id"])

    def day_fn(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["d"] = b["ts"].dt.floor("D")
        return b[["event_type", "d", "user_id"]]

    du = hash_aggregate(ev.map_batches(day_fn, batch_format="pandas"),
                        ["event_type", "d", "user_id"],
                        {"__n": ("user_id", "size")},
                        num_partitions=_NP)

    def fan_out(b: pd.DataFrame) -> pd.DataFrame:
        k = 7
        idx = np.repeat(np.arange(len(b)), k)
        off = np.tile(np.arange(k), len(b))
        return pd.DataFrame({
            "event_type": b["event_type"].to_numpy()[idx],
            "d": b["d"].to_numpy()[idx]
                 + off.astype("timedelta64[D]"),
            "user_id": b["user_id"].to_numpy()[idx]})

    cov = hash_aggregate(du.map_batches(fan_out, batch_format="pandas"),
                         ["event_type", "d", "user_id"],
                         {"__n": ("user_id", "size")},
                         num_partitions=_NP)
    counts = hash_aggregate(cov, ["event_type", "d"],
                            {"u7": ("user_id", "size")},
                            num_partitions=_NP).to_pandas()
    # keep only (type, day) pairs that exist in the raw stream
    present = hash_aggregate(du, ["event_type", "d"],
                             {"__n": ("user_id", "size")},
                             num_partitions=_NP).to_pandas()
    out = counts.merge(present[["event_type", "d"]], on=["event_type", "d"])
    out["u7"] = out["u7"].astype("int64")
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_ROLLING_DISTINCT_USERS = """
    WITH du AS (
        SELECT DISTINCT event_type, date_trunc('day', ts) AS d, user_id
        FROM events
    ),
    days AS (SELECT DISTINCT event_type, d FROM du)
    SELECT days.event_type, days.d,
           CAST(count(DISTINCT du.user_id) AS BIGINT) AS u7
    FROM days JOIN du ON du.event_type = days.event_type
        AND du.d BETWEEN days.d - INTERVAL 6 DAY AND days.d
    GROUP BY 1, 2
"""


@entry("burstiness_users_events", sql=lambda: SQL_BURSTINESS_USERS)
def q_burstiness_users_events(sf_dir: str) -> pd.DataFrame:
    """Burstiness index (Goh & Barabási 2008 — public)
    ``B = (σ − μ) / (σ + μ)`` over each user's inter-event gap seconds
    (−1 = perfectly periodic, 0 = Poisson, →1 = bursty). Gaps form inside
    the per-user co-located kernel ((user_id, ts) is unique in this
    corpus, so the order is total); σ is the ddof=1 sample std — users
    with <2 gaps emit NULLF for σ and B."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for uid, g in part.groupby("user_id", sort=False):
            t = np.sort(g["ts"].astype("datetime64[us]").astype("int64")
                        .to_numpy())
            if len(t) < 2:
                continue
            gaps = np.diff(t) / 1e6
            mu = float(gaps.mean())
            sd = float(gaps.std(ddof=1)) if len(gaps) > 1 else np.nan
            b = (sd - mu) / (sd + mu) if (len(gaps) > 1
                                          and sd + mu > 0) else np.nan
            rows.append((uid, len(gaps), np.round(mu, 6),
                         np.round(sd, 6), np.round(b, 6)))
        return pd.DataFrame(rows, columns=["user_id", "n_gaps", "mean_gap_s",
                                           "std_gap_s", "burstiness"])

    out = keyed_map_partitions(ev, ["user_id"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"user_id": "int64", "n_gaps": "int64"})
    out = _fill(out, ["std_gap_s", "burstiness"])
    return out.sort_values("user_id").reset_index(drop=True)


SQL_BURSTINESS_USERS = f"""
    WITH l AS (
        SELECT user_id,
               (epoch_us(ts) - epoch_us(LAG(ts) OVER (
                    PARTITION BY user_id ORDER BY ts))) / 1e6 AS gap
        FROM events
    ),
    g AS (SELECT user_id, gap FROM l WHERE gap IS NOT NULL),
    s AS (
        SELECT user_id, count(*) AS n_gaps, avg(gap) AS mu,
               stddev_samp(gap) AS sd
        FROM g GROUP BY 1
    )
    SELECT user_id, CAST(n_gaps AS BIGINT) AS n_gaps,
           round(mu, 6) AS mean_gap_s,
           COALESCE(round(sd, 6), {NULLF}) AS std_gap_s,
           COALESCE(CASE WHEN sd + mu > 0
                         THEN round((sd - mu) / (sd + mu), 6) END, {NULLF})
               AS burstiness
    FROM s
"""


@entry("transition_entropy_events", sql=lambda: SQL_TRANSITION_ENTROPY)
def q_transition_entropy_events(sf_dir: str) -> pd.DataFrame:
    """Conditional next-event entropy per source type (the Markov-chain
    entropy-rate row): H(next | prev=i) = −Σ_j p(j|i)·ln p(j|i) in nats
    over the per-user transition stream — how predictable each event type's
    successor is. Reuses the transition-matrix plan (pairs form in the
    partition-id shuffle kernel, counts pre-reduce); the entropy fold runs
    over the tiny (type × type) count table."""
    counts = q_transition_counts_events(sf_dir)
    rows = []
    for prev, g in counts.groupby("prev_type", sort=False):
        n = g["n"].to_numpy(np.float64)
        p = n / n.sum()
        rows.append((prev, int(n.sum()),
                     np.round(float(-(p * np.log(p)).sum()), 6)))
    out = pd.DataFrame(rows, columns=["prev_type", "n_out", "h_cond"])
    out["n_out"] = out["n_out"].astype("int64")
    return out.sort_values("prev_type").reset_index(drop=True)


SQL_TRANSITION_ENTROPY = """
    WITH l AS (
        SELECT event_type,
               LEAD(event_type) OVER (PARTITION BY user_id ORDER BY ts)
                   AS nxt
        FROM events
    ),
    c AS (
        SELECT event_type AS prev_type, nxt AS next_type, count(*) AS n
        FROM l WHERE nxt IS NOT NULL GROUP BY 1, 2
    ),
    t AS (SELECT prev_type, sum(n) AS tot FROM c GROUP BY 1)
    SELECT c.prev_type, CAST(t.tot AS BIGINT) AS n_out,
           round(-sum((c.n / t.tot) * ln(c.n / t.tot)), 6) AS h_cond
    FROM c JOIN t USING (prev_type)
    GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# Count-Min gate / SCD2 history / skew profile
# ---------------------------------------------------------------------------

@entry("cms_user_counts_gate", sql=lambda: SQL_CMS_USER_COUNTS_GATE)
def q_cms_user_counts_gate(sf_dir: str) -> pd.DataFrame:
    """Count-Min sketch gate (ann_ivf_recall pattern): a per-event-type
    (d=4, w=512) CMS over the user_id stream must satisfy BOTH published
    guarantees against the exact per-user counts — one-sided error
    (estimate ≥ truth for every user, deterministic) and the ε-bound
    (max overcount ≤ ⌈e/w · N⌉, the 1−(1/2)^d high-probability bound —
    deterministic on this fixed corpus/hash). ``n_rows`` / ``n_users``
    are value-oracled; the sketch build is the mergeable two-level
    combiner plan (O(groups · d · w) shuffle bytes)."""
    from forecastframe_ray import keys as K
    from forecastframe_ray.stages.sketch import (cms_estimate,
                                                 cms_from_bytes)
    from forecastframe_ray.stages.sketch import cms_sketch

    W, D = 512, 4
    ev = _read(sf_dir, "events", ["event_type", "user_id"])
    sk = cms_sketch(ev, ["event_type"], "user_id", w=W, d=D,
                    num_partitions=8).to_pandas()
    true = hash_aggregate(ev, ["event_type", "user_id"],
                          {"n_true": ("user_id", "size")},
                          num_partitions=_NP).to_pandas()
    rows = []
    for _, r in sk.iterrows():
        mat = cms_from_bytes(r["cms"], W, D)
        sub = true[true["event_type"] == r["event_type"]]
        h = K.hash_key_columns(sub, ["user_id"])
        est = cms_estimate(mat, h)
        t = sub["n_true"].to_numpy(np.int64)
        eps_n = int(np.ceil(np.e / W * r["n"]))
        rows.append((r["event_type"], int(r["n"]), len(sub),
                     bool((est >= t).all()),
                     bool((est - t).max() <= eps_n)))
    out = pd.DataFrame(rows, columns=["event_type", "n_rows", "n_users",
                                      "lower_ok", "bound_ok"])
    out = out.astype({"n_rows": "int64", "n_users": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_CMS_USER_COUNTS_GATE = """
    SELECT event_type, CAST(count(*) AS BIGINT) AS n_rows,
           CAST(count(DISTINCT user_id) AS BIGINT) AS n_users,
           true AS lower_ok, true AS bound_ok
    FROM events GROUP BY 1
"""


@entry("scd2_history_events", sql=lambda: SQL_SCD2_HISTORY)
def q_scd2_history_events(sf_dir: str) -> pd.DataFrame:
    """SCD Type-2 dimension history (Kimball — public) built from the
    event stream: each user's event_type sequence is compacted to its
    CHANGE points ((user_id, ts) is unique so the order is total), each
    change opening a validity interval ``[valid_from, valid_to)`` closed
    by the next change (current row → the 9999-12-31 sentinel). One keyed
    co-located kernel (vectorized change mask + shift); the oracle is the
    textbook LAG-filter + LEAD-close construction."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    SENT = pd.Timestamp("9999-12-31")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for uid, g in part.groupby("user_id", sort=False):
            g = g.sort_values("ts")
            et = g["event_type"].to_numpy()
            change = np.concatenate(([True], et[1:] != et[:-1]))
            ch = g[change]
            vf = ch["ts"].reset_index(drop=True)
            vt = vf.shift(-1).fillna(SENT)
            outs.append(pd.DataFrame({
                "user_id": ch["user_id"].to_numpy(),
                "event_type": ch["event_type"].to_numpy(),
                "valid_from": vf.to_numpy(),
                "valid_to": vt.to_numpy(),
                "is_current": np.concatenate(
                    (np.zeros(len(ch) - 1, dtype=np.int64), [1]))}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["user_id", "event_type", "valid_from",
                                  "valid_to", "is_current"])

    out = keyed_map_partitions(ev, ["user_id"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"user_id": "int64", "is_current": "int64"})
    return out.sort_values(["user_id", "valid_from"]) \
        .reset_index(drop=True)


SQL_SCD2_HISTORY = """
    WITH l AS (
        SELECT user_id, event_type, ts,
               LAG(event_type) OVER (PARTITION BY user_id ORDER BY ts)
                   AS pe
        FROM events
    ),
    ch AS (
        SELECT user_id, event_type, ts AS valid_from
        FROM l WHERE pe IS NULL OR event_type <> pe
    )
    SELECT user_id, event_type, valid_from,
           COALESCE(LEAD(valid_from) OVER (PARTITION BY user_id
                                           ORDER BY valid_from),
                    TIMESTAMP '9999-12-31') AS valid_to,
           CAST(CASE WHEN LEAD(valid_from) OVER (PARTITION BY user_id
                                                 ORDER BY valid_from)
                          IS NULL THEN 1 ELSE 0 END AS BIGINT)
               AS is_current
    FROM ch
"""


@entry("skew_profile_events", sql=lambda: SQL_SKEW_PROFILE)
def q_skew_profile_events(sf_dir: str) -> pd.DataFrame:
    """Key-skew diagnostic over the user_id key space (the number the
    north_rule's salted-repartition decision reads): rows reduce once to
    one size per key (narrow shuffle), then the tiny key table folds to
    top-1 share and the p50/p99 group sizes — the 'is this key space
    shuffle-safe' dashboard row."""
    ev = _read(sf_dir, "events", ["user_id"])
    sizes = hash_aggregate(ev, ["user_id"], {"n": ("user_id", "size")},
                           num_partitions=_NP).to_pandas()
    s = sizes["n"].to_numpy(np.float64)
    return pd.DataFrame({
        "n_keys": np.array([len(s)], dtype=np.int64),
        "n_rows": np.array([int(s.sum())], dtype=np.int64),
        "top1_share": [np.round(float(s.max()) / float(s.sum()), 6)],
        "p50_size": [np.round(np.percentile(s, 50), 6)],
        "p99_size": [np.round(np.percentile(s, 99), 6)],
    })


SQL_SKEW_PROFILE = """
    WITH sizes AS (SELECT user_id, count(*) AS n FROM events GROUP BY 1)
    SELECT CAST(count(*) AS BIGINT) AS n_keys,
           CAST(sum(n) AS BIGINT) AS n_rows,
           round(max(n) * 1.0 / sum(n), 6) AS top1_share,
           round(quantile_cont(n, 0.5), 6) AS p50_size,
           round(quantile_cont(n, 0.99), 6) AS p99_size
    FROM sizes
"""


# ---------------------------------------------------------------------------
# count-based windows / two-sample tests (batch 5)
# ---------------------------------------------------------------------------

@entry("count_windows_users", sql=lambda: SQL_COUNT_WINDOWS_USERS)
def q_count_windows_users(sf_dir: str) -> pd.DataFrame:
    """Tumbling COUNT-based windows (every 5 events) per user — the
    Flink-style count-window shape the time-based hopping/tumbling entries
    don't cover. Window index = 0-based position // 5 in ts order
    ((user_id, ts) unique ⇒ total order); per window: n, value sum, start
    and end stamps. One keyed co-located kernel; oracle is
    ``(row_number()-1)//5``."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for uid, g in part.groupby("user_id", sort=False):
            g = g.sort_values("ts").reset_index(drop=True)
            w = (np.arange(len(g)) // 5).astype(np.int64)
            agg = g.assign(w=w).groupby("w", sort=True).agg(
                n=("value", "size"), sum_v=("value", "sum"),
                w_start=("ts", "min"), w_end=("ts", "max")).reset_index()
            agg.insert(0, "user_id", uid)
            outs.append(agg)
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["user_id", "w", "n", "sum_v",
                                  "w_start", "w_end"])

    out = keyed_map_partitions(ev, ["user_id"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"user_id": "int64", "w": "int64", "n": "int64"})
    out = _round(out, ["sum_v"], 6)
    return out.sort_values(["user_id", "w"]).reset_index(drop=True)


SQL_COUNT_WINDOWS_USERS = """
    WITH r AS (
        SELECT user_id, ts, value,
               (row_number() OVER (PARTITION BY user_id ORDER BY ts) - 1)
                   // 5 AS w
        FROM events
    )
    SELECT user_id, CAST(w AS BIGINT) AS w,
           CAST(count(*) AS BIGINT) AS n, round(sum(value), 6) AS sum_v,
           min(ts) AS w_start, max(ts) AS w_end
    FROM r GROUP BY 1, 2
"""


@entry("welch_ttest_events", sql=lambda: SQL_WELCH_TTEST)
def q_welch_ttest_events(sf_dir: str) -> pd.DataFrame:
    """Welch's unequal-variance t-test (Welch 1947 — public) between the
    'click' and 'view' value distributions: t statistic and the
    Welch–Satterthwaite degrees of freedom, both from the per-type
    (n, mean, ddof=1 var) algebraic reduce — one narrow aggregate, no
    row-level shuffle."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def parts(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["event_type"].isin(["click", "view"])]
        v = b["value"].to_numpy(np.float64)
        return pd.DataFrame({"event_type": b["event_type"], "__v": v,
                             "__v2": v * v,
                             "__one": np.ones(len(b), dtype=np.int64)})

    agg = hash_aggregate(ev.map_batches(parts, batch_format="pandas"),
                         ["event_type"],
                         {"n": ("__one", "sum"), "s": ("__v", "sum"),
                          "s2": ("__v2", "sum")},
                         num_partitions=4).to_pandas().set_index("event_type")

    def stats(t):
        n = float(agg.loc[t, "n"])
        m = agg.loc[t, "s"] / n
        var = (agg.loc[t, "s2"] - n * m * m) / (n - 1.0)
        return n, m, var

    na, ma, va = stats("click")
    nb, mb, vb = stats("view")
    se2 = va / na + vb / nb
    t = (ma - mb) / np.sqrt(se2)
    dof = se2 * se2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return pd.DataFrame({
        "n_click": np.array([int(na)], dtype=np.int64),
        "n_view": np.array([int(nb)], dtype=np.int64),
        "mean_diff": [np.round(ma - mb, 6)],
        "t_stat": [np.round(t, 6)], "welch_dof": [np.round(dof, 6)]})


SQL_WELCH_TTEST = """
    WITH s AS (
        SELECT event_type, count(*) AS n, avg(value) AS m,
               var_samp(value) AS v
        FROM events WHERE event_type IN ('click', 'view') GROUP BY 1
    ),
    w AS (
        SELECT (SELECT n FROM s WHERE event_type = 'click') AS na,
               (SELECT m FROM s WHERE event_type = 'click') AS ma,
               (SELECT v FROM s WHERE event_type = 'click') AS va,
               (SELECT n FROM s WHERE event_type = 'view') AS nb,
               (SELECT m FROM s WHERE event_type = 'view') AS mb,
               (SELECT v FROM s WHERE event_type = 'view') AS vb
    )
    SELECT CAST(na AS BIGINT) AS n_click, CAST(nb AS BIGINT) AS n_view,
           round(ma - mb, 6) AS mean_diff,
           round((ma - mb) / sqrt(va / na + vb / nb), 6) AS t_stat,
           round(pow(va / na + vb / nb, 2)
                 / (pow(va / na, 2) / (na - 1)
                    + pow(vb / nb, 2) / (nb - 1)), 6) AS welch_dof
    FROM w
"""


@entry("chisq_type_dow_events", sql=lambda: SQL_CHISQ_TYPE_DOW)
def q_chisq_type_dow_events(sf_dir: str) -> pd.DataFrame:
    """Pearson chi-square independence test (Pearson 1900 — public) of the
    event_type × ISO-weekday contingency table: χ² = Σ (O−E)²/E with
    E = row_total · col_total / N, plus the table dof. Observed counts are
    one narrow aggregate; the χ² fold runs over the tiny contingency
    table."""
    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def dow_fn(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "event_type": b["event_type"],
            "dow": (b["ts"].dt.dayofweek + 1).astype(np.int64),
            "__one": np.ones(len(b), dtype=np.int64)})

    obs = hash_aggregate(ev.map_batches(dow_fn, batch_format="pandas"),
                         ["event_type", "dow"], {"n": ("__one", "sum")},
                         num_partitions=4).to_pandas()
    piv = obs.pivot_table(index="event_type", columns="dow", values="n",
                          fill_value=0, aggfunc="sum")
    O = piv.to_numpy(np.float64)
    E = O.sum(axis=1, keepdims=True) * O.sum(axis=0, keepdims=True) / O.sum()
    chi2 = float(((O - E) ** 2 / E).sum())
    dof = (O.shape[0] - 1) * (O.shape[1] - 1)
    return pd.DataFrame({
        "n": np.array([int(O.sum())], dtype=np.int64),
        "chi2": [np.round(chi2, 6)],
        "dof": np.array([dof], dtype=np.int64)})


SQL_CHISQ_TYPE_DOW = """
    WITH o AS (
        SELECT event_type, isodow(ts) AS dow, count(*) AS n
        FROM events GROUP BY 1, 2
    ),
    tot AS (SELECT sum(n) AS nn FROM o),
    rt AS (SELECT event_type, sum(n) AS r FROM o GROUP BY 1),
    ct AS (SELECT dow, sum(n) AS c FROM o GROUP BY 1)
    SELECT CAST((SELECT nn FROM tot) AS BIGINT) AS n,
           round(sum(pow(o.n - rt.r * ct.c / tot.nn, 2)
                     / (rt.r * ct.c / tot.nn)), 6) AS chi2,
           CAST(((SELECT count(*) FROM rt) - 1)
                * ((SELECT count(*) FROM ct) - 1) AS BIGINT) AS dof
    FROM o JOIN rt USING (event_type) JOIN ct USING (dow)
           CROSS JOIN tot
"""


@entry("ks_two_sample_events", sql=lambda: SQL_KS_TWO_SAMPLE)
def q_ks_two_sample_events(sf_dir: str) -> pd.DataFrame:
    """Two-sample Kolmogorov–Smirnov statistic (public) between the
    'click' and 'view' value distributions: D = max |F_a(v) − F_b(v)|.
    The distributed plan reduces rows to one (value, count_a, count_b)
    row per DISTINCT value first (narrow shuffle — the value domain is
    2-decimal-bounded, so the reduced table is tiny relative to the
    stream); the ECDF cumsum + max folds over that reduced table. Also
    emits the scaled statistic ``sqrt(na·nb/(na+nb))·D``."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def parts(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["event_type"].isin(["click", "view"])]
        return pd.DataFrame({
            "value": b["value"],
            "__a": (b["event_type"] == "click").astype(np.int64),
            "__b": (b["event_type"] == "view").astype(np.int64)})

    red = hash_aggregate(ev.map_batches(parts, batch_format="pandas"),
                         ["value"], {"c_a": ("__a", "sum"),
                                     "c_b": ("__b", "sum")},
                         num_partitions=_NP).to_pandas()
    red = red.sort_values("value")
    na = float(red["c_a"].sum())
    nb = float(red["c_b"].sum())
    fa = red["c_a"].cumsum().to_numpy(np.float64) / na
    fb = red["c_b"].cumsum().to_numpy(np.float64) / nb
    d = float(np.abs(fa - fb).max())
    return pd.DataFrame({
        "n_click": np.array([int(na)], dtype=np.int64),
        "n_view": np.array([int(nb)], dtype=np.int64),
        "ks_d": [np.round(d, 6)],
        "ks_scaled": [np.round(np.sqrt(na * nb / (na + nb)) * d, 6)]})


SQL_KS_TWO_SAMPLE = """
    WITH s AS (
        SELECT value,
               sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS ca,
               sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS cb
        FROM events WHERE event_type IN ('click', 'view') GROUP BY 1
    ),
    t AS (SELECT sum(ca) AS na, sum(cb) AS nb FROM s),
    c AS (
        SELECT sum(ca) OVER (ORDER BY value) * 1.0 / t.na AS fa,
               sum(cb) OVER (ORDER BY value) * 1.0 / t.nb AS fb,
               t.na, t.nb
        FROM s CROSS JOIN t
    )
    SELECT CAST(max(na) AS BIGINT) AS n_click,
           CAST(max(nb) AS BIGINT) AS n_view,
           round(max(abs(fa - fb)), 6) AS ks_d,
           round(sqrt(max(na) * max(nb) / (max(na) + max(nb)))
                 * max(abs(fa - fb)), 6) AS ks_scaled
    FROM c
"""


# ---------------------------------------------------------------------------
# VWAP / sorted-blocking dedup (batch 6)
# ---------------------------------------------------------------------------

@entry("vwap_daily_events", sql=lambda: SQL_VWAP_DAILY)
def q_vwap_daily_events(sf_dir: str) -> pd.DataFrame:
    """Volume-weighted average price per (series, day) — the market twin of
    the TWAP entry, weighting each observation by the integer ``k`` field
    extracted from the JSON props bag (vectorized regex extract, no per-row
    parse). One narrow weighted reduce: Σ(v·k) and Σk cascade like every
    algebraic carry; zero-total-volume days emit NULLF."""
    from forecastframe_ray.functions.scalar import extract_json_int

    ev = _read(sf_dir, "events", ["event_type", "ts", "value", "props"])
    ext = extract_json_int(ev, "props", "k")

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        k = b["k"].astype("float64").to_numpy()
        v = b["value"].to_numpy(np.float64)
        return pd.DataFrame({
            "event_type": b["event_type"],
            "d": b["ts"].dt.floor("D"),
            "__vk": v * k, "__k": k,
            "__one": np.ones(len(b), dtype=np.int64)})

    out = hash_aggregate(ext.map_batches(pre, batch_format="pandas"),
                         ["event_type", "d"],
                         {"n": ("__one", "sum"), "svk": ("__vk", "sum"),
                          "vol": ("__k", "sum")},
                         num_partitions=_NP).to_pandas()
    vol = out["vol"].to_numpy(np.float64)
    svk = out["svk"].to_numpy(np.float64)
    out["vwap"] = np.where(vol > 0, np.round(svk / vol, 6), NULLF)
    out["n"] = out["n"].astype("int64")
    out["vol"] = out["vol"].astype("int64")
    return out[["event_type", "d", "n", "vol", "vwap"]] \
        .sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_VWAP_DAILY = f"""
    WITH e AS (
        SELECT event_type, date_trunc('day', ts) AS d, value,
               CAST(json_extract(props, '$.k') AS BIGINT) AS k
        FROM events
    )
    SELECT event_type, d, CAST(count(*) AS BIGINT) AS n,
           CAST(sum(k) AS BIGINT) AS vol,
           CASE WHEN sum(k) > 0 THEN round(sum(value * k) / sum(k), 6)
                ELSE {NULLF} END AS vwap
    FROM e GROUP BY 1, 2
"""


def _char_shingles(nt: str, width: int = 5) -> set:
    """Distinct character ``width``-grams, mirroring the SQL oracle's
    ``substr(nt, i, width)`` over ``1..max(len−width+1, 1)`` (short/empty
    strings yield one truncated shingle)."""
    n = max(len(nt) - width + 1, 1)
    return {nt[i:i + width] for i in range(n)}


@entry("blocking_dedup_documents", sql=lambda: SQL_BLOCKING_DEDUP)
def q_blocking_dedup_documents(sf_dir: str) -> pd.DataFrame:
    """Sorted-key BLOCKING dedup (Fellegi–Sunter-era entity-resolution
    blocking — public; the non-LSH classical baseline): documents sharing
    the first 12 chars of their normalized text form a block, and every
    in-block pair is verified by exact character-5-gram Jaccard ≥ 0.7.
    Blocks group in one narrow shuffle (block key + doc id + normalized
    text); pairing is exact within blocks — the block-key LENGTH is the
    recall/cost dial, with the capped LSH funnel as the adversarial-corpus
    scale path (this entry is its exact classical control)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def norm_fn(b: pd.DataFrame) -> pd.DataFrame:
        nt = b["text"].fillna("").str.lower() \
            .str.replace(r"[^a-z0-9 ]", "", regex=True) \
            .str.replace(r" +", " ", regex=True).str.strip()
        return pd.DataFrame({"doc_id": b["doc_id"], "nt": nt,
                             "bk": nt.str[:12]})

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for bk, g in part.groupby("bk", sort=False):
            if len(g) < 2:
                continue
            g = g.sort_values("doc_id")
            ids = g["doc_id"].to_numpy()
            # exact-dup class collapse: one shingle set per distinct text
            codes, uniq = pd.factorize(g["nt"], sort=False)
            sets = [_char_shingles(t) for t in uniq]
            for i in range(len(ids)):
                for j in range(i + 1, len(ids)):
                    sa, sb = sets[codes[i]], sets[codes[j]]
                    inter = len(sa & sb)
                    jac = inter / (len(sa) + len(sb) - inter)
                    if jac >= 0.7:
                        rows.append((ids[i], ids[j], np.round(jac, 6)))
        return pd.DataFrame(rows, columns=["id_a", "id_b", "jaccard"])

    out = keyed_map_partitions(
        docs.map_batches(norm_fn, batch_format="pandas"),
        ["bk"], kernel, num_partitions=_NP).to_pandas()
    out = out.astype({"id_a": "int64", "id_b": "int64"})
    return out.sort_values(["id_a", "id_b"]).reset_index(drop=True)


SQL_BLOCKING_DEDUP = """
    WITH nrm AS (
        SELECT doc_id,
               trim(regexp_replace(regexp_replace(lower(text),
                                                  '[^a-z0-9 ]', '', 'g'),
                                   ' +', ' ', 'g')) AS nt
        FROM documents
    ),
    sh AS (
        SELECT doc_id, substr(nt, 1, 12) AS bk,
               list_distinct(list_transform(
                   generate_series(1, greatest(strlen(nt) - 4, 1)),
                   i -> substr(nt, i, 5))) AS s
        FROM nrm
    ),
    p AS (
        SELECT a.doc_id AS id_a, b.doc_id AS id_b,
               CAST(length(list_intersect(a.s, b.s)) AS DOUBLE)
                   / (length(a.s) + length(b.s)
                      - length(list_intersect(a.s, b.s))) AS jac
        FROM sh a JOIN sh b ON a.bk = b.bk AND a.doc_id < b.doc_id
    )
    SELECT id_a, id_b, round(jac, 6) AS jaccard
    FROM p WHERE jac >= 0.7
"""


# ---------------------------------------------------------------------------
# SPC chart / Pareto / readability / edit distance / CUPED (batch 7)
# ---------------------------------------------------------------------------

@entry("control_chart_daily", sql=lambda: SQL_CONTROL_CHART_DAILY)
def q_control_chart_daily(sf_dir: str) -> pd.DataFrame:
    """Shewhart individuals X-MR control chart (public SPC — the 2.66·MR̄
    rule): per daily series, moving range MR = |v − v_prev|, center = mean
    of v, limits = center ± 2.66·mean(MR); flag points outside. Limit
    comparison runs on the ROUNDED limits on both engines."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            mr = np.abs(np.diff(v))
            center = float(v.mean())
            mrbar = float(mr.mean()) if len(mr) else 0.0
            ucl = np.round(center + 2.66 * mrbar, 6)
            lcl = np.round(center - 2.66 * mrbar, 6)
            outs.append(pd.DataFrame({
                "event_type": g["event_type"], "d": g["d"], "v": g["v"],
                "ucl": ucl + 0.0, "lcl": lcl + 0.0,
                "out_of_control": ((v > ucl) | (v < lcl))
                .astype(np.int64)}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "ucl", "lcl",
                                  "out_of_control"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["out_of_control"] = out["out_of_control"].astype("int64")
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_CONTROL_CHART_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    mr AS (
        SELECT event_type, d, v,
               abs(v - LAG(v) OVER (PARTITION BY event_type ORDER BY d))
                   AS mrange
        FROM daily
    ),
    lim AS (
        SELECT event_type,
               round(avg(v) + 2.66 * COALESCE(avg(mrange), 0), 6) + 0.0
                   AS ucl,
               round(avg(v) - 2.66 * COALESCE(avg(mrange), 0), 6) + 0.0
                   AS lcl
        FROM mr GROUP BY 1
    )
    SELECT m.event_type, m.d, m.v, lim.ucl, lim.lcl,
           CAST(CASE WHEN m.v > lim.ucl OR m.v < lim.lcl
                     THEN 1 ELSE 0 END AS BIGINT) AS out_of_control
    FROM mr m JOIN lim USING (event_type)
"""


@entry("pareto_share_events", sql=lambda: SQL_PARETO_SHARE)
def q_pareto_share_events(sf_dir: str) -> pd.DataFrame:
    """Pareto 80/20 check: the share of total event value held by the top
    20% of users (by their 6dp-rounded totals; ties broken by user_id so
    the cut is total on both engines). Complements the Gini entry — the
    one-number concentration dashboard pair."""
    ev = _read(sf_dir, "events", ["user_id", "value"])
    tot = hash_aggregate(ev, ["user_id"], {"tot": ("value", "sum")},
                         num_partitions=_NP).to_pandas()
    tot["tot"] = np.round(tot["tot"].to_numpy(np.float64), 6)
    tot = tot.sort_values(["tot", "user_id"],
                          ascending=[False, True]).reset_index(drop=True)
    n = len(tot)
    k = int(np.ceil(0.2 * n))
    top = float(tot["tot"].iloc[:k].sum())
    allv = float(tot["tot"].sum())
    return pd.DataFrame({
        "n_users": np.array([n], dtype=np.int64),
        "n_top": np.array([k], dtype=np.int64),
        "top20_share": [np.round(top / allv, 6)]})


SQL_PARETO_SHARE = """
    WITH t AS (
        SELECT user_id, round(sum(value), 6) AS tot
        FROM events GROUP BY 1
    ),
    r AS (
        SELECT tot, row_number() OVER (ORDER BY tot DESC, user_id) AS rn,
               count(*) OVER () AS n
        FROM t
    )
    SELECT CAST(max(n) AS BIGINT) AS n_users,
           CAST(CAST(ceil(0.2 * max(n)) AS BIGINT) AS BIGINT) AS n_top,
           round(sum(CASE WHEN rn <= ceil(0.2 * n) THEN tot ELSE 0 END)
                 / sum(tot), 6) AS top20_share
    FROM r
"""


@entry("readability_documents", sql=lambda: SQL_READABILITY_DOCS)
def q_readability_documents(sf_dir: str) -> pd.DataFrame:
    """Flesch-Kincaid grade level (Kincaid 1975 — public) with the
    vowel-run syllable heuristic: words = whitespace tokens, sentences =
    runs of [.!?] (min 1), syllables = runs of [aeiouy] in the lowercased
    text. ``0.39·words/sentences + 11.8·syllables/words − 15.59``;
    zero-word docs emit NULLF. Stateless vectorized map — all three
    counts are regex-run counts shared verbatim with the oracle."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def fk(b: pd.DataFrame) -> pd.DataFrame:
        t = b["text"].fillna("")
        words = t.str.count(r"\S+").to_numpy(np.float64)
        sents = np.maximum(
            t.str.count(r"[.!?]+").to_numpy(np.float64), 1.0)
        syll = t.str.lower().str.count(r"[aeiouy]+") \
            .to_numpy(np.float64)
        grade = np.where(
            words > 0,
            np.round(0.39 * words / sents + 11.8 * syll / words
                     - 15.59, 6) + 0.0,
            NULLF)
        return pd.DataFrame({
            "doc_id": b["doc_id"],
            "n_words": words.astype(np.int64),
            "n_sentences": sents.astype(np.int64),
            "n_syllables": syll.astype(np.int64),
            "fk_grade": grade})

    out = docs.map_batches(fk, batch_format="pandas").to_pandas()
    out["doc_id"] = out["doc_id"].astype("int64")
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_READABILITY_DOCS = rf"""
    WITH c AS (
        SELECT doc_id,
               length(regexp_extract_all(text, '\S+')) AS words,
               greatest(length(regexp_extract_all(text, '[.!?]+')), 1)
                   AS sents,
               length(regexp_extract_all(lower(text), '[aeiouy]+'))
                   AS syll
        FROM documents
    )
    SELECT doc_id, CAST(words AS BIGINT) AS n_words,
           CAST(sents AS BIGINT) AS n_sentences,
           CAST(syll AS BIGINT) AS n_syllables,
           CASE WHEN words > 0
                THEN round(0.39 * words / sents + 11.8 * syll / words
                           - 15.59, 6) + 0.0
                ELSE {NULLF} END AS fk_grade
    FROM c
"""


def _levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, row-vectorized DP: the sequential
    insertion term resolves via the prefix-min identity
    ``cur[j] = j + min_{{k≤j}}(m[k] − k)`` (one ``np.minimum.accumulate``
    per row instead of a per-cell Python loop)."""
    if not a:
        return len(b)
    if not b:
        return len(a)
    bv = np.frombuffer(b.encode("utf-32-le"), dtype=np.uint32)
    n = len(bv)
    prev = np.arange(n + 1, dtype=np.int64)
    for i, ca in enumerate(a, 1):
        sub = prev[:-1] + (bv != ord(ca))
        m = np.minimum(prev[1:] + 1, sub)
        d = np.concatenate(([i], m - np.arange(1, n + 1)))
        prev = np.minimum.accumulate(d) + np.arange(n + 1)
    return int(prev[-1])


@entry("levenshtein_pairs_documents", sql=lambda: SQL_LEVENSHTEIN_PAIRS)
def q_levenshtein_pairs_documents(sf_dir: str) -> pd.DataFrame:
    """Unit-cost Levenshtein distance for the fixed (2i, 2i+1) pair list
    (the ngram_jaccard_pairs convention) over 200-char prefixes, plus the
    normalized similarity ``1 − dist/max(len_a, len_b)`` (both empty →
    1.0). The classical character-level ER verifier next to the Jaccard /
    containment set measures; pairs verify inside co-located pair groups
    with the row-vectorized DP kernel."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "pair_id": (b["doc_id"] // 2).astype(np.int64),
            "doc_id": b["doc_id"],
            "t": b["text"].fillna("").str[:200]})

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for pid, g in part.groupby("pair_id", sort=False):
            if len(g) != 2:
                continue
            g = g.sort_values("doc_id")
            ta, tb = g["t"].iloc[0], g["t"].iloc[1]
            dist = _levenshtein(ta, tb)
            mx = max(len(ta), len(tb))
            sim = 1.0 - dist / mx if mx else 1.0
            rows.append((pid, dist, np.round(sim, 6)))
        return pd.DataFrame(rows, columns=["pair_id", "lev_dist",
                                           "lev_sim"])

    out = keyed_map_partitions(
        docs.map_batches(prep, batch_format="pandas"),
        ["pair_id"], kernel, num_partitions=_NP).to_pandas()
    out = out.astype({"pair_id": "int64", "lev_dist": "int64"})
    return out.sort_values("pair_id").reset_index(drop=True)


SQL_LEVENSHTEIN_PAIRS = """
    WITH t AS (
        SELECT doc_id // 2 AS pair_id, doc_id,
               substr(COALESCE(text, ''), 1, 200) AS t
        FROM documents
    ),
    p AS (
        SELECT a.pair_id, a.t AS ta, b.t AS tb
        FROM t a JOIN t b
            ON a.pair_id = b.pair_id AND a.doc_id < b.doc_id
    )
    SELECT pair_id, CAST(levenshtein(ta, tb) AS BIGINT) AS lev_dist,
           CASE WHEN greatest(strlen(ta), strlen(tb)) = 0 THEN 1.0
                ELSE round(1.0 - levenshtein(ta, tb) * 1.0
                           / greatest(strlen(ta), strlen(tb)), 6)
           END AS lev_sim
    FROM p
"""


@entry("cuped_adjusted_users", sql=lambda: SQL_CUPED_ADJUSTED)
def q_cuped_adjusted_users(sf_dir: str) -> pd.DataFrame:
    """CUPED variance reduction (Deng et al. 2013 — public, the A/B-test
    pre-period adjustment): split the stream at the midpoint timestamp,
    x = each user's pre-period value total, y = post-period total (6dp,
    zero when absent), θ = cov(x,y)/var(x) over users, and
    ``y_cuped = y − θ(x − x̄)``. Per-user totals reduce distributedly;
    θ/x̄ fold over the tiny per-user table."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    span = pq.read_table(f"{sf_dir}/events.parquet", columns=["ts"])
    ss = span["ts"].to_pandas().astype("datetime64[us]").astype("int64")
    # integer epoch-us midpoint on BOTH sides — DuckDB interval division
    # halves the days and micros components separately, so (max−min)/2
    # arithmetic is NOT portable between the engines
    cut = pd.Timestamp((int(ss.min()) + int(ss.max())) // 2, unit="us")

    def split(b: pd.DataFrame) -> pd.DataFrame:
        pre = b["ts"] < cut
        v = b["value"].to_numpy(np.float64)
        return pd.DataFrame({
            "user_id": b["user_id"],
            "__x": np.where(pre, v, 0.0),
            "__y": np.where(pre, 0.0, v)})

    tot = hash_aggregate(ev.map_batches(split, batch_format="pandas"),
                         ["user_id"], {"x": ("__x", "sum"),
                                       "y": ("__y", "sum")},
                         num_partitions=_NP).to_pandas()
    x = np.round(tot["x"].to_numpy(np.float64), 6)
    y = np.round(tot["y"].to_numpy(np.float64), 6)
    theta = float(np.cov(x, y, ddof=1)[0, 1] / np.var(x, ddof=1))
    out = pd.DataFrame({
        "user_id": tot["user_id"].astype("int64"),
        "x_pre": x, "y_post": y,
        "y_cuped": np.round(y - theta * (x - x.mean()), 6) + 0.0})
    return out.sort_values("user_id").reset_index(drop=True)


SQL_CUPED_ADJUSTED = """
    WITH cut AS (
        SELECT make_timestamp((epoch_us(min(ts)) + epoch_us(max(ts))) // 2)
            AS c FROM events
    ),
    ux AS (
        SELECT user_id,
               round(sum(CASE WHEN ts < c THEN value ELSE 0 END), 6) AS x,
               round(sum(CASE WHEN ts >= c THEN value ELSE 0 END), 6) AS y
        FROM events CROSS JOIN cut GROUP BY 1
    ),
    th AS (
        SELECT covar_samp(x, y) / var_samp(x) AS theta, avg(x) AS mx
        FROM ux
    )
    SELECT user_id, x AS x_pre, y AS y_post,
           round(y - th.theta * (x - th.mx), 6) + 0.0 AS y_cuped
    FROM ux CROSS JOIN th
"""


# ---------------------------------------------------------------------------
# weighted sampling / conversion latency (batch 8)
# ---------------------------------------------------------------------------

@entry("weighted_sample_orders", sql=lambda: SQL_WEIGHTED_SAMPLE_ORDERS)
def q_weighted_sample_orders(sf_dir: str) -> pd.DataFrame:
    """Deterministic weighted sampling WITHOUT replacement (Efraimidis &
    Spirakis 2006 — public): each order draws u from the md5-bucket
    uniform the plain sampler already pins (``(first-8-hex + 0.5)/2³²``)
    and ranks by ``−ln(u)/w`` with weight w = o_totalprice; the 50
    smallest ranks are the sample — identical across cluster shapes,
    resumes and engines. One vectorized key map, then the distributed
    sort + limit top-k; ids-only output (rank floats never compare)."""
    import hashlib

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])

    def key_fn(b: pd.DataFrame) -> pd.DataFrame:
        h = np.array([int(hashlib.md5(str(k).encode()).hexdigest()[:8], 16)
                      for k in b["o_orderkey"]], dtype=np.float64)
        u = (h + 0.5) / 4294967296.0
        return pd.DataFrame({
            "o_orderkey": b["o_orderkey"],
            "es_key": -np.log(u) / b["o_totalprice"].to_numpy(np.float64)})

    top = orders.map_batches(key_fn, batch_format="pandas") \
        .sort("es_key").limit(50).to_pandas()
    return top[["o_orderkey"]].astype({"o_orderkey": "int64"}) \
        .sort_values("o_orderkey").reset_index(drop=True)


SQL_WEIGHTED_SAMPLE_ORDERS = """
    WITH k AS (
        SELECT o_orderkey,
               -ln((CAST(('0x' || substr(md5(CAST(o_orderkey AS VARCHAR)),
                                         1, 8)) AS BIGINT) + 0.5)
                   / 4294967296.0) / o_totalprice AS es_key
        FROM orders
    )
    SELECT o_orderkey FROM (
        SELECT o_orderkey FROM k ORDER BY es_key, o_orderkey LIMIT 50
    ) ORDER BY o_orderkey
"""


@entry("conversion_latency_events", sql=lambda: SQL_CONVERSION_LATENCY)
def q_conversion_latency_events(sf_dir: str) -> pd.DataFrame:
    """Time-to-convert: for each user whose first 'purchase' follows their
    first 'view', the latency seconds between the two firsts; summarized
    as n_converted plus mean / median / p90 latency (linear-interpolated
    quantiles == ``quantile_cont``). First-stamps reduce distributedly
    (min per (user, type)); the latency fold runs over the tiny per-user
    pair table."""
    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["event_type"].isin(["view", "purchase"])]
        return b[["user_id", "event_type", "ts"]]

    first = hash_aggregate(ev.map_batches(pre, batch_format="pandas"),
                           ["user_id", "event_type"],
                           {"first_ts": ("ts", "min")},
                           num_partitions=_NP).to_pandas()
    piv = first.pivot_table(index="user_id", columns="event_type",
                            values="first_ts", aggfunc="min")
    if "view" not in piv or "purchase" not in piv:
        lat = np.array([], dtype=np.float64)
    else:
        ok = piv["view"].notna() & piv["purchase"].notna() \
            & (piv["purchase"] > piv["view"])
        lat = ((piv.loc[ok, "purchase"].astype("datetime64[us]")
                .astype("int64")
                - piv.loc[ok, "view"].astype("datetime64[us]")
                .astype("int64")) / 1e6).to_numpy(np.float64)
    if len(lat) == 0:
        return pd.DataFrame({"n_converted": np.array([0], dtype=np.int64),
                             "mean_s": [NULLF], "median_s": [NULLF],
                             "p90_s": [NULLF]})
    return pd.DataFrame({
        "n_converted": np.array([len(lat)], dtype=np.int64),
        "mean_s": [np.round(float(lat.mean()), 6)],
        "median_s": [np.round(np.percentile(lat, 50), 6)],
        "p90_s": [np.round(np.percentile(lat, 90), 6)]})


SQL_CONVERSION_LATENCY = f"""
    WITH f AS (
        SELECT user_id,
               min(CASE WHEN event_type = 'view' THEN ts END) AS fv,
               min(CASE WHEN event_type = 'purchase' THEN ts END) AS fp
        FROM events GROUP BY 1
    ),
    l AS (
        SELECT (epoch_us(fp) - epoch_us(fv)) / 1e6 AS lat
        FROM f WHERE fv IS NOT NULL AND fp IS NOT NULL AND fp > fv
    )
    SELECT CAST(count(*) AS BIGINT) AS n_converted,
           COALESCE(round(avg(lat), 6), {NULLF}) AS mean_s,
           COALESCE(round(quantile_cont(lat, 0.5), 6), {NULLF})
               AS median_s,
           COALESCE(round(quantile_cont(lat, 0.9), 6), {NULLF}) AS p90_s
    FROM l
"""


# ---------------------------------------------------------------------------
# RFM / Lorenz / availability islands / new-vs-returning (batch 9)
# ---------------------------------------------------------------------------

def _ntile_from_pos(pos: np.ndarray, n: int, k: int) -> np.ndarray:
    """Exact SQL ``ntile(k)`` bucket (1-based) from 0-based sorted
    positions: the first ``n mod k`` buckets take ``n//k + 1`` rows."""
    q, r = divmod(n, k)
    big = r * (q + 1)
    return np.where(pos < big, pos // (q + 1) + 1,
                    (r + (pos - big) // q + 1) if q else k).astype(np.int64)


@entry("rfm_segments_users", sql=lambda: SQL_RFM_SEGMENTS)
def q_rfm_segments_users(sf_dir: str) -> pd.DataFrame:
    """Classic RFM segmentation (Hughes 1994 — public): per user, recency
    = days from the user's last active DAY to the global max day,
    frequency = event count, monetary = 6dp value total; each scored
    1–4 by exact ``ntile(4)`` in (metric, user_id) order (ascending — so
    R 1 = most recent only after the 5−x flip, kept raw here for oracle
    symmetry). Totals reduce distributedly; the three ntile folds run
    over the tiny per-user table."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "user_id": b["user_id"],
            "__d": b["ts"].dt.floor("D"),
            "__v": b["value"].to_numpy(np.float64),
            "__one": np.ones(len(b), dtype=np.int64)})

    agg = hash_aggregate(ev.map_batches(pre, batch_format="pandas"),
                         ["user_id"],
                         {"last_d": ("__d", "max"),
                          "frequency": ("__one", "sum"),
                          "monetary": ("__v", "sum")},
                         num_partitions=_NP).to_pandas()
    gmax = agg["last_d"].max()
    agg["recency_days"] = ((gmax - agg["last_d"]).dt.days).astype("int64")
    agg["monetary"] = np.round(agg["monetary"].to_numpy(np.float64), 6)
    agg["frequency"] = agg["frequency"].astype("int64")
    n = len(agg)
    for col, score in (("recency_days", "r_score"),
                       ("frequency", "f_score"),
                       ("monetary", "m_score")):
        order = agg.sort_values([col, "user_id"]).index
        pos = np.empty(n, dtype=np.int64)
        pos[agg.index.get_indexer(order)] = np.arange(n)
        agg[score] = _ntile_from_pos(pos, n, 4)
    out = agg[["user_id", "recency_days", "frequency", "monetary",
               "r_score", "f_score", "m_score"]].copy()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


SQL_RFM_SEGMENTS = """
    WITH u AS (
        SELECT user_id, max(date_trunc('day', ts)) AS last_d,
               count(*) AS frequency, round(sum(value), 6) AS monetary
        FROM events GROUP BY 1
    ),
    g AS (SELECT max(last_d) AS gmax FROM u)
    SELECT user_id,
           CAST(datediff('day', last_d, g.gmax) AS BIGINT)
               AS recency_days,
           CAST(frequency AS BIGINT) AS frequency, monetary,
           CAST(ntile(4) OVER (ORDER BY datediff('day', last_d, g.gmax),
                               user_id) AS BIGINT) AS r_score,
           CAST(ntile(4) OVER (ORDER BY frequency, user_id) AS BIGINT)
               AS f_score,
           CAST(ntile(4) OVER (ORDER BY monetary, user_id) AS BIGINT)
               AS m_score
    FROM u CROSS JOIN g
"""


@entry("lorenz_deciles_users", sql=lambda: SQL_LORENZ_DECILES)
def q_lorenz_deciles_users(sf_dir: str) -> pd.DataFrame:
    """Lorenz curve in decile form (the Gini entry's visual twin): users
    ntile(10)-bucketed by ascending 6dp value total, each decile's share
    of the grand total and the cumulative share. Exact ntile semantics
    shared with the RFM entry."""
    ev = _read(sf_dir, "events", ["user_id", "value"])
    tot = hash_aggregate(ev, ["user_id"], {"tot": ("value", "sum")},
                         num_partitions=_NP).to_pandas()
    tot["tot"] = np.round(tot["tot"].to_numpy(np.float64), 6)
    tot = tot.sort_values(["tot", "user_id"]).reset_index(drop=True)
    n = len(tot)
    tot["decile"] = _ntile_from_pos(np.arange(n), n, 10)
    g = tot.groupby("decile", sort=True).agg(
        n_users=("user_id", "size"), dec_sum=("tot", "sum")).reset_index()
    total = float(tot["tot"].sum())
    g["share"] = np.round(g["dec_sum"].to_numpy(np.float64) / total, 6)
    g["cum_share"] = np.round(
        g["dec_sum"].cumsum().to_numpy(np.float64) / total, 6)
    g["decile"] = g["decile"].astype("int64")
    g["n_users"] = g["n_users"].astype("int64")
    return g[["decile", "n_users", "share", "cum_share"]]


SQL_LORENZ_DECILES = """
    WITH t AS (
        SELECT user_id, round(sum(value), 6) AS tot
        FROM events GROUP BY 1
    ),
    d AS (
        SELECT tot, ntile(10) OVER (ORDER BY tot, user_id) AS decile
        FROM t
    ),
    s AS (
        SELECT decile, count(*) AS n_users, sum(tot) AS dec_sum
        FROM d GROUP BY 1
    )
    SELECT CAST(decile AS BIGINT) AS decile,
           CAST(n_users AS BIGINT) AS n_users,
           round(dec_sum / (SELECT sum(tot) FROM t), 6) AS share,
           round(sum(dec_sum) OVER (ORDER BY decile)
                 / (SELECT sum(tot) FROM t), 6) AS cum_share
    FROM s
"""


@entry("availability_islands_daily", sql=lambda: SQL_AVAILABILITY_ISLANDS)
def q_availability_islands_daily(sf_dir: str) -> pd.DataFrame:
    """Calendar gaps-and-islands per daily series: contiguous-day runs
    (islands) over the observed days — island count, longest island, and
    the largest calendar gap in days. The record-streak entry runs
    VALUE-direction islands; this one runs CALENDAR-continuity islands
    (the availability/SLA dashboard row). One keyed vectorized kernel;
    oracle is the textbook ``d − rn·INTERVAL`` island constant."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            d = np.sort(g["d"].astype("datetime64[us]").astype("int64")
                        .to_numpy()) // DAY_US
            gaps = np.diff(d)
            new_isl = gaps > 1
            lens = np.diff(np.concatenate(
                ([0], np.flatnonzero(new_isl) + 1, [len(d)])))
            rows.append((et, len(d), int(new_isl.sum()) + 1,
                         int(lens.max()),
                         int(gaps.max()) if len(gaps) else 0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "n_islands", "longest_island",
                                           "max_gap_days"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    for c in ("n_days", "n_islands", "longest_island", "max_gap_days"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_AVAILABILITY_ISLANDS = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d,
               epoch_us(d) // {DAY_US}
                   - row_number() OVER (PARTITION BY event_type ORDER BY d)
                   AS isl,
               epoch_us(d) // {DAY_US}
                   - LAG(epoch_us(d) // {DAY_US}) OVER (
                         PARTITION BY event_type ORDER BY d) AS gap
        FROM daily
    ),
    i AS (
        SELECT event_type, isl, count(*) AS len
        FROM r GROUP BY 1, 2
    )
    SELECT i.event_type, CAST(sum(i.len) AS BIGINT) AS n_days,
           CAST(count(*) AS BIGINT) AS n_islands,
           CAST(max(i.len) AS BIGINT) AS longest_island,
           CAST(COALESCE(g.mg, 0) AS BIGINT) AS max_gap_days
    FROM i JOIN (SELECT event_type, max(gap) AS mg FROM r GROUP BY 1) g
        USING (event_type)
    GROUP BY 1, g.mg
"""


@entry("new_vs_returning_daily", sql=lambda: SQL_NEW_VS_RETURNING)
def q_new_vs_returning_daily(sf_dir: str) -> pd.DataFrame:
    """Growth-accounting split per day: users active that day whose
    FIRST-ever active day it is (new) vs the rest (returning). Distinct
    (user, day) memberships and per-user first days both reduce
    distributedly; the split is a broadcast first-day lookup inside the
    day counts."""
    ev = _read(sf_dir, "events", ["user_id", "ts"])

    def day_fn(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"user_id": b["user_id"],
                             "d": b["ts"].dt.floor("D")})

    du = hash_aggregate(ev.map_batches(day_fn, batch_format="pandas"),
                        ["user_id", "d"], {"__n": ("user_id", "size")},
                        num_partitions=_NP)
    firsts = hash_aggregate(du, ["user_id"], {"first_d": ("d", "min")},
                            num_partitions=_NP).to_pandas()
    fmap = dict(zip(firsts["user_id"], firsts["first_d"]))

    def label(b: pd.DataFrame) -> pd.DataFrame:
        fd = b["user_id"].map(fmap)
        return pd.DataFrame({
            "d": b["d"],
            "__new": (b["d"] == fd).astype(np.int64),
            "__ret": (b["d"] != fd).astype(np.int64)})

    out = hash_aggregate(du.map_batches(label, batch_format="pandas"),
                         ["d"], {"n_new": ("__new", "sum"),
                                 "n_returning": ("__ret", "sum")},
                         num_partitions=4).to_pandas()
    out = out.astype({"n_new": "int64", "n_returning": "int64"})
    return out.sort_values("d").reset_index(drop=True)


SQL_NEW_VS_RETURNING = """
    WITH du AS (
        SELECT DISTINCT user_id, date_trunc('day', ts) AS d FROM events
    ),
    f AS (SELECT user_id, min(d) AS first_d FROM du GROUP BY 1)
    SELECT du.d,
           CAST(sum(CASE WHEN du.d = f.first_d THEN 1 ELSE 0 END)
                AS BIGINT) AS n_new,
           CAST(sum(CASE WHEN du.d <> f.first_d THEN 1 ELSE 0 END)
                AS BIGINT) AS n_returning
    FROM du JOIN f USING (user_id)
    GROUP BY 1
"""


# ---------------------------------------------------------------------------
# stickiness / calendar rollups / MTD / robust shape (batch 10)
# ---------------------------------------------------------------------------

@entry("dau_wau_stickiness", sql=lambda: SQL_DAU_WAU_STICKINESS)
def q_dau_wau_stickiness(sf_dir: str) -> pd.DataFrame:
    """DAU/WAU stickiness per day (the engagement dashboard headline):
    daily distinct users over trailing-7-day distinct users. WAU reuses
    the shuffle-free fan-out expansion (membership → covered days →
    re-distinct) the per-type rolling-distinct entry pins, here on the
    global user space."""
    ev = _read(sf_dir, "events", ["ts", "user_id"])

    def day_fn(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"d": b["ts"].dt.floor("D"),
                             "user_id": b["user_id"]})

    du = hash_aggregate(ev.map_batches(day_fn, batch_format="pandas"),
                        ["d", "user_id"], {"__n": ("user_id", "size")},
                        num_partitions=_NP)
    dau = hash_aggregate(du, ["d"], {"dau": ("user_id", "size")},
                         num_partitions=4).to_pandas()

    def fan_out(b: pd.DataFrame) -> pd.DataFrame:
        k = 7
        idx = np.repeat(np.arange(len(b)), k)
        off = np.tile(np.arange(k), len(b))
        return pd.DataFrame({
            "d": b["d"].to_numpy()[idx] + off.astype("timedelta64[D]"),
            "user_id": b["user_id"].to_numpy()[idx]})

    cov = hash_aggregate(du.map_batches(fan_out, batch_format="pandas"),
                         ["d", "user_id"], {"__n": ("user_id", "size")},
                         num_partitions=_NP)
    wau = hash_aggregate(cov, ["d"], {"wau": ("user_id", "size")},
                         num_partitions=4).to_pandas()
    out = dau.merge(wau, on="d")  # inner: only observed days survive
    out["dau"] = out["dau"].astype("int64")
    out["wau"] = out["wau"].astype("int64")
    out["stickiness"] = np.round(
        out["dau"].to_numpy(np.float64) / out["wau"].to_numpy(np.float64),
        6)
    return out[["d", "dau", "wau", "stickiness"]] \
        .sort_values("d").reset_index(drop=True)


SQL_DAU_WAU_STICKINESS = """
    WITH du AS (
        SELECT DISTINCT date_trunc('day', ts) AS d, user_id FROM events
    ),
    days AS (SELECT DISTINCT d FROM du),
    dau AS (SELECT d, count(*) AS dau FROM du GROUP BY 1),
    wau AS (
        SELECT days.d, count(DISTINCT du.user_id) AS wau
        FROM days JOIN du
            ON du.d BETWEEN days.d - INTERVAL 6 DAY AND days.d
        GROUP BY 1
    )
    SELECT d, CAST(dau.dau AS BIGINT) AS dau,
           CAST(wau.wau AS BIGINT) AS wau,
           round(dau.dau * 1.0 / wau.wau, 6) AS stickiness
    FROM dau JOIN wau USING (d)
"""


@entry("weekly_calendar_rollup", sql=lambda: SQL_WEEKLY_CALENDAR_ROLLUP)
def q_weekly_calendar_rollup(sf_dir: str) -> pd.DataFrame:
    """Calendar-week rollup (Monday-anchored, ``date_trunc('week')``
    semantics) per series — the CALENDAR-aligned retention-tier variant
    next to the epoch-anchored 7d tier: n days, value sum/mean/max per
    (series, week start)."""
    ev = _read(sf_dir, "events", ["event_type", "ts", "value"])

    def week_fn(b: pd.DataFrame) -> pd.DataFrame:
        d = b["ts"].dt.floor("D")
        wk = d - pd.to_timedelta(d.dt.dayofweek, unit="D")
        return pd.DataFrame({"event_type": b["event_type"], "wk": wk,
                             "__v": b["value"].to_numpy(np.float64),
                             "__one": np.ones(len(b), dtype=np.int64)})

    out = hash_aggregate(ev.map_batches(week_fn, batch_format="pandas"),
                         ["event_type", "wk"],
                         {"n": ("__one", "sum"), "sum_v": ("__v", "sum"),
                          "max_v": ("__v", "max")},
                         num_partitions=_NP).to_pandas()
    out["mean_v"] = np.round(out["sum_v"].to_numpy(np.float64)
                             / out["n"].to_numpy(np.float64), 6)
    out = _round(out, ["sum_v", "max_v"], 6)
    out["n"] = out["n"].astype("int64")
    return out[["event_type", "wk", "n", "sum_v", "mean_v", "max_v"]] \
        .sort_values(["event_type", "wk"]).reset_index(drop=True)


SQL_WEEKLY_CALENDAR_ROLLUP = """
    SELECT event_type, date_trunc('week', ts) AS wk,
           CAST(count(*) AS BIGINT) AS n,
           round(sum(value), 6) AS sum_v,
           round(sum(value) / count(*), 6) AS mean_v,
           round(max(value), 6) AS max_v
    FROM events GROUP BY 1, 2
"""


@entry("mtd_cumsum_daily", sql=lambda: SQL_MTD_CUMSUM_DAILY)
def q_mtd_cumsum_daily(sf_dir: str) -> pd.DataFrame:
    """Month-to-date running total per daily series — the expanding sum
    with CALENDAR-RESET semantics (restarts at each month boundary), the
    fiscal-dashboard companion to the plain expanding entry. One keyed
    kernel (grouped cumsum inside (series, month)); oracle is a
    month-partitioned window."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d").copy()
            mo = g["d"].dt.to_period("M")
            g["mtd_v"] = np.round(
                g.groupby(mo, sort=False)["v"].cumsum()
                .to_numpy(np.float64), 6) + 0.0
            outs.append(g[["event_type", "d", "v", "mtd_v"]])
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame(columns=["event_type", "d", "v", "mtd_v"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_MTD_CUMSUM_DAILY = f"""
    WITH daily AS ({_DAILY_SQL})
    SELECT event_type, d, v,
           round(sum(v) OVER (PARTITION BY event_type,
                                           date_trunc('month', d)
                              ORDER BY d
                              ROWS UNBOUNDED PRECEDING), 6) + 0.0
               AS mtd_v
    FROM daily
"""


@entry("bowley_skew_events", sql=lambda: SQL_BOWLEY_SKEW)
def q_bowley_skew_events(sf_dir: str) -> pd.DataFrame:
    """Bowley quartile skewness (Bowley 1901 — public, the robust shape
    twin of the moment skew): ``(Q3 + Q1 − 2·Q2) / (Q3 − Q1)`` of value
    per event type, with linear-interpolated quartiles
    (``quantile_cont``). Zero-IQR groups emit NULLF."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "value"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["value"].to_numpy(np.float64)
            q1, q2, q3 = (np.percentile(v, p) for p in (25, 50, 75))
            iqr = q3 - q1
            b = np.round((q3 + q1 - 2 * q2) / iqr, 6) if iqr > 0 else NULLF
            rows.append((et, len(v), np.round(q1, 6), np.round(q2, 6),
                         np.round(q3, 6), b))
        return pd.DataFrame(rows, columns=["event_type", "n", "q1", "q2",
                                           "q3", "bowley_skew"])

    out = keyed_map_partitions(ev, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_BOWLEY_SKEW = f"""
    WITH q AS (
        SELECT event_type, count(*) AS n,
               quantile_cont(value, 0.25) AS q1,
               quantile_cont(value, 0.50) AS q2,
               quantile_cont(value, 0.75) AS q3
        FROM events GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n,
           round(q1, 6) AS q1, round(q2, 6) AS q2, round(q3, 6) AS q3,
           CASE WHEN q3 - q1 > 0
                THEN round((q3 + q1 - 2 * q2) / (q3 - q1), 6)
                ELSE {NULLF} END AS bowley_skew
    FROM q
"""


# ---------------------------------------------------------------------------
# char-LM score / dup histogram / TTR / lead-lag discovery (batch 11)
# ---------------------------------------------------------------------------

@entry("char_trigram_score_documents", sql=lambda: SQL_CHAR_TRIGRAM_SCORE)
def q_char_trigram_score_documents(sf_dir: str) -> pd.DataFrame:
    """Character-trigram corpus-LM quality score (the char-level CCNet
    twin of ``unigram_logprob``): corpus trigram frequencies over the
    lowercased text (short docs contribute one truncated gram — the
    shingle convention), per-doc score = mean ln(C(g)/T) over the doc's
    gram OCCURRENCES. Gram counts pre-reduce per batch before one narrow
    merge (the vocabulary is alphabet³-bounded — tiny); scoring broadcasts
    the count table once."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def grams_of(t: str) -> list:
        n = max(len(t) - 2, 1)
        return [t[i:i + 3] for i in range(n)]

    def partial_counts(b: pd.DataFrame) -> pd.DataFrame:
        allg = []
        for t in b["text"].fillna("").str.lower():
            allg.extend(grams_of(t))
        vc = pd.Series(allg).value_counts()
        return pd.DataFrame({"g": vc.index, "n": vc.to_numpy(np.int64)})

    counts = hash_aggregate(
        docs.map_batches(partial_counts, batch_format="pandas"),
        ["g"], {"n": ("n", "sum")}, num_partitions=4).to_pandas()
    total = float(counts["n"].sum())
    logp = dict(zip(counts["g"],
                    np.log(counts["n"].to_numpy(np.float64) / total)))

    import ray as _ray
    ref = _ray.put(logp)

    def score(b: pd.DataFrame) -> pd.DataFrame:
        lp = _ray.get(ref)
        rows = []
        for did, t in zip(b["doc_id"], b["text"].fillna("").str.lower()):
            gs = grams_of(t)
            rows.append((did, len(gs),
                         np.round(float(np.mean([lp[g] for g in gs])), 6)))
        return pd.DataFrame(rows, columns=["doc_id", "n_grams", "score"])

    out = docs.map_batches(score, batch_format="pandas").to_pandas()
    out = out.astype({"doc_id": "int64", "n_grams": "int64"})
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_CHAR_TRIGRAM_SCORE = """
    WITH g AS (
        SELECT doc_id,
               unnest(list_transform(
                   generate_series(1, greatest(strlen(lower(text)) - 2, 1)),
                   i -> substr(lower(text), i, 3))) AS t
        FROM documents
    ),
    c AS (SELECT t, count(*) AS n FROM g GROUP BY 1),
    tot AS (SELECT sum(n) AS tt FROM c)
    SELECT g.doc_id, CAST(count(*) AS BIGINT) AS n_grams,
           round(avg(ln(c.n / tot.tt)), 6) AS score
    FROM g JOIN c USING (t) CROSS JOIN tot
    GROUP BY 1
"""


@entry("dup_class_histogram_documents", sql=lambda: SQL_DUP_CLASS_HISTOGRAM)
def q_dup_class_histogram_documents(sf_dir: str) -> pd.DataFrame:
    """Duplicate-class size histogram (the curation diagnostic behind the
    dedup funnel's yield estimate): exact-duplicate classes by text
    digest, then class-size → class-count. Both reduces are narrow (the
    32-char digest, then one int)."""
    from forecastframe_ray.pipelines.dedup import _digest_batch

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    classes = hash_aggregate(
        docs.map_batches(lambda b: _digest_batch(b, "text"),
                         batch_format="pandas"),
        ["__digest"], {"class_size": ("doc_id", "size")},
        num_partitions=_NP)
    hist = hash_aggregate(classes, ["class_size"],
                          {"n_classes": ("class_size", "size")},
                          num_partitions=4).to_pandas()
    hist = hist.astype({"class_size": "int64", "n_classes": "int64"})
    return hist.sort_values("class_size").reset_index(drop=True)


SQL_DUP_CLASS_HISTOGRAM = """
    WITH c AS (SELECT count(*) AS class_size FROM documents GROUP BY text)
    SELECT CAST(class_size AS BIGINT) AS class_size,
           CAST(count(*) AS BIGINT) AS n_classes
    FROM c GROUP BY 1
"""


@entry("ttr_documents", sql=lambda: SQL_TTR_DOCUMENTS)
def q_ttr_documents(sf_dir: str) -> pd.DataFrame:
    """Type-token ratio per document (the lexical-richness quality
    signal): distinct whitespace tokens over total tokens; zero-token
    docs emit NULLF. Stateless vectorized map sharing the \\S+ token
    convention with the token-count entry."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])

    def ttr(b: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for did, t in zip(b["doc_id"], b["text"].fillna("")):
            toks = t.split()
            n = len(toks)
            d = len(set(toks))
            rows.append((did, n, d,
                         np.round(d / n, 6) if n else NULLF))
        return pd.DataFrame(rows, columns=["doc_id", "n_tokens",
                                           "n_types", "ttr"])

    out = docs.map_batches(ttr, batch_format="pandas").to_pandas()
    out = out.astype({"doc_id": "int64", "n_tokens": "int64",
                      "n_types": "int64"})
    return out.sort_values("doc_id").reset_index(drop=True)


SQL_TTR_DOCUMENTS = rf"""
    WITH t AS (
        SELECT doc_id, regexp_extract_all(text, '\S+') AS toks
        FROM documents
    )
    SELECT doc_id, CAST(length(toks) AS BIGINT) AS n_tokens,
           CAST(length(list_distinct(toks)) AS BIGINT) AS n_types,
           CASE WHEN length(toks) > 0
                THEN round(length(list_distinct(toks)) * 1.0
                           / length(toks), 6)
                ELSE {NULLF} END AS ttr
    FROM t
"""


@entry("lead_lag_xcorr_daily", sql=lambda: SQL_LEAD_LAG_XCORR)
def q_lead_lag_xcorr_daily(sf_dir: str) -> pd.DataFrame:
    """Lead-lag discovery between every two daily series: Pearson
    correlation of (a_t, b_{t+lag}) for lag ∈ [−3, 3] over common days,
    reporting each pair's best lag by |corr| (6dp-rounded; ties → the
    smaller lag). Positive best_lag ⇒ a LEADS b. The daily spine is
    already the reduced table (days × types), so the 7-lag × pair fold
    runs over it directly; per-lag corr needs ≥ 2 common days and
    nonzero variance (else the lag is skipped)."""
    daily = _bucket_series(sf_dir, DAY_US, "d").to_pandas()
    piv = daily.pivot_table(index="d", columns="event_type", values="v",
                            aggfunc="sum").sort_index()
    types = sorted(piv.columns)
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            best = None
            for lag in range(-3, 4):
                a = piv[ta]
                b = piv[tb].shift(-lag)  # b_{t+lag} aligned to t
                ok = a.notna() & b.notna()
                if ok.sum() < 2:
                    continue
                av, bv = a[ok].to_numpy(np.float64), \
                    b[ok].to_numpy(np.float64)
                if av.std() == 0 or bv.std() == 0:
                    continue
                c = np.round(float(np.corrcoef(av, bv)[0, 1]), 6)
                key = (-abs(c), lag)
                if best is None or key < best[0]:
                    best = (key, lag, c, int(ok.sum()))
            if best is not None:
                rows.append((ta, tb, best[1], best[2], best[3]))
    out = pd.DataFrame(rows, columns=["ta", "tb", "best_lag", "best_corr",
                                      "n_common"])
    out = out.astype({"best_lag": "int64", "n_common": "int64"})
    return out.sort_values(["ta", "tb"]).reset_index(drop=True)


SQL_LEAD_LAG_XCORR = f"""
    WITH daily AS ({_DAILY_SQL}),
    lags AS (SELECT unnest([-3, -2, -1, 0, 1, 2, 3]) AS lag),
    pairs AS (
        SELECT a.event_type AS ta, b.event_type AS tb, l.lag,
               a.v AS av, b.v AS bv
        FROM daily a
        CROSS JOIN lags l
        JOIN daily b ON b.event_type > a.event_type
                    AND b.d = a.d + l.lag * INTERVAL 1 DAY
    ),
    c AS (
        SELECT ta, tb, lag, count(*) AS n_common,
               round(corr(av, bv), 6) AS r
        FROM pairs GROUP BY 1, 2, 3
        HAVING count(*) >= 2 AND corr(av, bv) IS NOT NULL
    ),
    best AS (
        SELECT ta, tb, lag, r, n_common,
               row_number() OVER (PARTITION BY ta, tb
                                  ORDER BY abs(r) DESC, lag) AS rn
        FROM c
    )
    SELECT ta, tb, CAST(lag AS BIGINT) AS best_lag, r AS best_corr,
           CAST(n_common AS BIGINT) AS n_common
    FROM best WHERE rn = 1
"""


# ---------------------------------------------------------------------------
# Mann-Whitney / dow ANOVA / runs test (batch 12)
# ---------------------------------------------------------------------------

@entry("mannwhitney_events", sql=lambda: SQL_MANNWHITNEY)
def q_mannwhitney_events(sf_dir: str) -> pd.DataFrame:
    """Mann-Whitney U (Mann & Whitney 1947 — public) between the 'click'
    and 'view' value samples with tie-corrected AVERAGE ranks, plus the
    rank-biserial effect size ``1 − 2U/(n_a·n_b)``. Like the KS entry,
    rows reduce to one (value, count_a, count_b) row per distinct value
    first; ranks then come from the cumulative counts over that reduced
    table (avg rank of v = #below + (#at(v)+1)/2) — no row-level rank
    shuffle."""
    ev = _read(sf_dir, "events", ["event_type", "value"])

    def parts(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["event_type"].isin(["click", "view"])]
        return pd.DataFrame({
            "value": b["value"],
            "__a": (b["event_type"] == "click").astype(np.int64),
            "__b": (b["event_type"] == "view").astype(np.int64)})

    red = hash_aggregate(ev.map_batches(parts, batch_format="pandas"),
                         ["value"], {"c_a": ("__a", "sum"),
                                     "c_b": ("__b", "sum")},
                         num_partitions=_NP).to_pandas()
    red = red.sort_values("value").reset_index(drop=True)
    ct = (red["c_a"] + red["c_b"]).to_numpy(np.float64)
    below = np.concatenate(([0.0], np.cumsum(ct)[:-1]))
    avg_rank = below + (ct + 1.0) / 2.0
    na = float(red["c_a"].sum())
    nb = float(red["c_b"].sum())
    ra = float((avg_rank * red["c_a"].to_numpy(np.float64)).sum())
    u = ra - na * (na + 1.0) / 2.0
    return pd.DataFrame({
        "n_click": np.array([int(na)], dtype=np.int64),
        "n_view": np.array([int(nb)], dtype=np.int64),
        "u_stat": [np.round(u, 6)],
        "rank_biserial": [np.round(1.0 - 2.0 * u / (na * nb), 6)]})


SQL_MANNWHITNEY = """
    WITH s AS (
        SELECT value,
               sum(CASE WHEN event_type = 'click' THEN 1 ELSE 0 END) AS ca,
               sum(CASE WHEN event_type = 'view' THEN 1 ELSE 0 END) AS cb
        FROM events WHERE event_type IN ('click', 'view') GROUP BY 1
    ),
    r AS (
        SELECT ca, cb,
               COALESCE(sum(ca + cb) OVER (ORDER BY value
                   ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING), 0)
                   + (ca + cb + 1) / 2.0 AS avg_rank
        FROM s
    ),
    t AS (
        SELECT sum(ca) AS na, sum(cb) AS nb,
               sum(avg_rank * ca) AS ra
        FROM r
    )
    SELECT CAST(na AS BIGINT) AS n_click, CAST(nb AS BIGINT) AS n_view,
           round(ra - na * (na + 1) / 2.0, 6) AS u_stat,
           round(1.0 - 2.0 * (ra - na * (na + 1) / 2.0) / (na * nb), 6)
               AS rank_biserial
    FROM t
"""


@entry("dow_anova_daily", sql=lambda: SQL_DOW_ANOVA)
def q_dow_anova_daily(sf_dir: str) -> pd.DataFrame:
    """One-way ANOVA F of the daily value by ISO weekday per series (the
    'is the weekly seasonality significant' test): F = (SSB/(k−1)) /
    (SSW/(n−k)) over the dow groups. One keyed kernel per series; zero
    within-variance emits NULLF."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["v"].to_numpy(np.float64)
            dow = (g["d"].dt.dayofweek + 1).to_numpy(np.int64)
            n = len(v)
            gm = v.mean()
            ssb = ssw = 0.0
            k = 0
            for w in np.unique(dow):
                gv = v[dow == w]
                k += 1
                ssb += len(gv) * (gv.mean() - gm) ** 2
                ssw += ((gv - gv.mean()) ** 2).sum()
            f = np.round((ssb / (k - 1)) / (ssw / (n - k)), 6) \
                if (k > 1 and n > k and ssw > 0) else NULLF
            rows.append((et, n, k, f))
        return pd.DataFrame(rows, columns=["event_type", "n", "k_groups",
                                           "f_stat"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n": "int64", "k_groups": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DOW_ANOVA = f"""
    WITH daily AS ({_DAILY_SQL}),
    d AS (SELECT event_type, isodow(d) AS dow, v FROM daily),
    g AS (
        SELECT event_type, dow, count(*) AS ng, avg(v) AS mg,
               sum(v * v) - count(*) * avg(v) * avg(v) AS ssw_g
        FROM d GROUP BY 1, 2
    ),
    tot AS (
        SELECT event_type, count(*) AS n, avg(v) AS gm
        FROM d GROUP BY 1
    ),
    s AS (
        SELECT g.event_type, max(tot.n) AS n, count(*) AS k,
               sum(g.ng * (g.mg - tot.gm) * (g.mg - tot.gm)) AS ssb,
               sum(g.ssw_g) AS ssw
        FROM g JOIN tot USING (event_type)
        GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n, CAST(k AS BIGINT)
               AS k_groups,
           CASE WHEN k > 1 AND n > k AND ssw > 0
                THEN round((ssb / (k - 1)) / (ssw / (n - k)), 6)
                ELSE {NULLF} END AS f_stat
    FROM s
"""


@entry("runs_test_daily", sql=lambda: SQL_RUNS_TEST)
def q_runs_test_daily(sf_dir: str) -> pd.DataFrame:
    """Wald–Wolfowitz runs test (1940 — public) per daily series: drop
    days equal to the series median, count sign runs above/below, and
    report the z-statistic ``(R − μ)/σ`` with μ = 2·n₁·n₂/n + 1. One
    keyed kernel; degenerate splits (n₁ or n₂ = 0, or σ = 0) emit
    NULLF."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            med = np.round(float(np.percentile(v, 50)), 6)
            s = v[v != med] > med
            n1 = int(s.sum())
            n2 = int(len(s) - n1)
            n = n1 + n2
            runs = int(1 + (s[1:] != s[:-1]).sum()) if n else 0
            if n1 and n2:
                mu = 2.0 * n1 * n2 / n + 1.0
                var = (2.0 * n1 * n2 * (2.0 * n1 * n2 - n)
                       / (n * n * (n - 1.0)))
                z = np.round((runs - mu) / np.sqrt(var), 6) \
                    if var > 0 else NULLF
            else:
                z = NULLF
            rows.append((et, n1, n2, runs, z))
        return pd.DataFrame(rows, columns=["event_type", "n_above",
                                           "n_below", "n_runs", "z_stat"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    for c in ("n_above", "n_below", "n_runs"):
        out[c] = out[c].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_RUNS_TEST = f"""
    WITH daily AS ({_DAILY_SQL}),
    med AS (
        SELECT event_type, round(quantile_cont(v, 0.5), 6) AS med
        FROM daily GROUP BY 1
    ),
    s AS (
        SELECT daily.event_type, daily.d,
               CASE WHEN daily.v > med.med THEN 1 ELSE 0 END AS above
        FROM daily JOIN med USING (event_type)
        WHERE daily.v <> med.med
    ),
    l AS (
        SELECT event_type, above,
               LAG(above) OVER (PARTITION BY event_type ORDER BY d) AS pa
        FROM s
    ),
    agg AS (
        SELECT event_type,
               sum(above) AS n1,
               sum(1 - above) AS n2,
               1 + sum(CASE WHEN pa IS NOT NULL AND above <> pa
                            THEN 1 ELSE 0 END) AS runs
        FROM l GROUP BY 1
    )
    SELECT event_type, CAST(n1 AS BIGINT) AS n_above,
           CAST(n2 AS BIGINT) AS n_below,
           CAST(runs AS BIGINT) AS n_runs,
           CASE WHEN n1 > 0 AND n2 > 0
                     AND 2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2) > 0
                THEN round((runs - (2.0 * n1 * n2 / (n1 + n2) + 1))
                           / sqrt(2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2)
                                  / ((n1 + n2) * (n1 + n2)
                                     * (n1 + n2 - 1.0))), 6)
                ELSE {NULLF} END AS z_stat
    FROM agg
"""


# ---------------------------------------------------------------------------
# TPC-H Q5 / windowed conversion / relational division (batch 13)
# ---------------------------------------------------------------------------

@entry("local_supplier_volume", sql=lambda: SQL_LOCAL_SUPPLIER_VOLUME)
def q_local_supplier_volume(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q5 shape (public spec): per-nation revenue
    ``Σ l_extendedprice·(1−l_discount)`` for ASIA-region nations over one
    order year, counting only lineitems whose supplier and customer share
    the nation. Dim chain region→nation→supplier broadcasts as one
    suppkey→nation map (dims ≪ fact); orders in the window semi-filter
    then carry c_nationkey through the CPU-clamped distributed hash join
    against the lineitem stream — the Q3 plan with a second broadcast
    dimension attached."""
    from forecastframe_ray.stages.join import (consolidate_for_join,
                                               hash_join)

    lo = pd.Timestamp("1996-01-01")
    hi = pd.Timestamp("1997-01-01")
    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    asia = nat.merge(reg[reg["r_name"] == "ASIA"], left_on="n_regionkey",
                     right_on="r_regionkey")[["n_nationkey", "n_name"]]
    nkeys = set(asia["n_nationkey"])
    nname = dict(zip(asia["n_nationkey"], asia["n_name"]))
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    smap = dict(zip(sup["s_suppkey"], sup["s_nationkey"]))
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    cmap = dict(zip(cust["c_custkey"], cust["c_nationkey"]))

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["o_orderdate"] >= lo) & (b["o_orderdate"] < hi)]
        cn = b["o_custkey"].map(cmap)
        keep = cn.isin(nkeys)
        return pd.DataFrame({"o_orderkey": b["o_orderkey"][keep],
                             "c_nat": cn[keep].astype(np.int64)})

    ords = consolidate_for_join(
        orders.map_batches(ord_prep, batch_format="pandas"), 8)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_extendedprice",
                "l_discount"])

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        sn = b["l_suppkey"].map(smap)
        keep = sn.isin(nkeys)
        b = b[keep]
        return pd.DataFrame({
            "o_orderkey": b["l_orderkey"],
            "s_nat": sn[keep].astype(np.int64),
            "part": b["l_extendedprice"].to_numpy(np.float64)
                    * (1.0 - b["l_discount"].to_numpy(np.float64))})

    joined = hash_join(li.map_batches(li_prep, batch_format="pandas"),
                       ords, on=["o_orderkey"], num_partitions=8)

    def local_filter(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["s_nat"] == b["c_nat"]]
        return pd.DataFrame({"n_nat": b["s_nat"], "part": b["part"]})

    agg = hash_aggregate(
        joined.map_batches(local_filter, batch_format="pandas"),
        ["n_nat"], {"revenue": ("part", "sum")},
        num_partitions=4).to_pandas()
    agg["n_name"] = agg["n_nat"].map(nname)
    agg = _round(agg, ["revenue"], 6)
    return agg[["n_name", "revenue"]].sort_values("n_name") \
        .reset_index(drop=True)


SQL_LOCAL_SUPPLIER_VOLUME = """
    SELECT n_name,
           round(sum(l_extendedprice * (1 - l_discount)), 6) AS revenue
    FROM lineitem
    JOIN orders ON l_orderkey = o_orderkey
    JOIN supplier ON l_suppkey = s_suppkey
    JOIN customer ON o_custkey = c_custkey
                 AND c_nationkey = s_nationkey
    JOIN nation ON s_nationkey = n_nationkey
    JOIN region ON n_regionkey = r_regionkey
    WHERE r_name = 'ASIA'
      AND o_orderdate >= DATE '1996-01-01'
      AND o_orderdate < DATE '1997-01-01'
    GROUP BY 1
"""


@entry("conversion_within_7d", sql=lambda: SQL_CONVERSION_WITHIN_7D)
def q_conversion_within_7d(sf_dir: str) -> pd.DataFrame:
    """Windowed conversion rate: among users with a 'view', the share
    whose first 'purchase' lands within 7 days AFTER their first view —
    the funnel entry's timeout-constrained twin. Same distributed
    first-stamp reduce."""
    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["event_type"].isin(["view", "purchase"])]
        return b[["user_id", "event_type", "ts"]]

    first = hash_aggregate(ev.map_batches(pre, batch_format="pandas"),
                           ["user_id", "event_type"],
                           {"first_ts": ("ts", "min")},
                           num_partitions=_NP).to_pandas()
    piv = first.pivot_table(index="user_id", columns="event_type",
                            values="first_ts", aggfunc="min")
    if "view" not in piv:
        n_viewers = 0
        n_conv = 0
    else:
        viewers = piv["view"].notna()
        n_viewers = int(viewers.sum())
        if "purchase" in piv:
            lat_us = (piv["purchase"] - piv["view"]) \
                .dt.total_seconds() * 1e6
            conv = viewers & piv["purchase"].notna() & (lat_us > 0) \
                & (lat_us <= 7 * 86_400_000_000)
            n_conv = int(conv.sum())
        else:
            n_conv = 0
    rate = np.round(n_conv / n_viewers, 6) if n_viewers else NULLF
    return pd.DataFrame({
        "n_viewers": np.array([n_viewers], dtype=np.int64),
        "n_converted_7d": np.array([n_conv], dtype=np.int64),
        "conv_rate_7d": [rate]})


SQL_CONVERSION_WITHIN_7D = f"""
    WITH f AS (
        SELECT user_id,
               min(CASE WHEN event_type = 'view' THEN ts END) AS fv,
               min(CASE WHEN event_type = 'purchase' THEN ts END) AS fp
        FROM events GROUP BY 1
    ),
    v AS (SELECT * FROM f WHERE fv IS NOT NULL)
    SELECT CAST(count(*) AS BIGINT) AS n_viewers,
           CAST(COALESCE(sum(CASE WHEN fp > fv
                     AND epoch_us(fp) - epoch_us(fv)
                         <= 7 * 86400000000 THEN 1 END), 0) AS BIGINT)
               AS n_converted_7d,
           CASE WHEN count(*) > 0
                THEN round(COALESCE(sum(CASE WHEN fp > fv
                         AND epoch_us(fp) - epoch_us(fv)
                             <= 7 * 86400000000 THEN 1 END), 0)
                           * 1.0 / count(*), 6)
                ELSE {NULLF} END AS conv_rate_7d
    FROM v
"""


@entry("power_users_division", sql=lambda: SQL_POWER_USERS_DIVISION)
def q_power_users_division(sf_dir: str) -> pd.DataFrame:
    """Relational DIVISION (Codd — public; the 'for all' join family the
    semi/anti entries don't cover): users active in EVERY event type the
    corpus contains. Distinct (user, type) memberships reduce once; a
    user divides when its distinct-type count equals the global type
    count."""
    ev = _read(sf_dir, "events", ["user_id", "event_type"])
    du = hash_aggregate(ev, ["user_id", "event_type"],
                        {"__n": ("event_type", "size")},
                        num_partitions=_NP)
    per_user = hash_aggregate(du, ["user_id"],
                              {"n_types": ("event_type", "size")},
                              num_partitions=_NP).to_pandas()
    n_all = int(hash_aggregate(du, ["event_type"],
                               {"__n": ("user_id", "size")},
                               num_partitions=4).count())
    out = per_user[per_user["n_types"] == n_all][["user_id", "n_types"]]
    out = out.astype({"user_id": "int64", "n_types": "int64"})
    return out.sort_values("user_id").reset_index(drop=True)


SQL_POWER_USERS_DIVISION = """
    WITH du AS (SELECT DISTINCT user_id, event_type FROM events),
    t AS (SELECT count(DISTINCT event_type) AS n_all FROM events)
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_types
    FROM du GROUP BY 1
    HAVING count(*) = (SELECT n_all FROM t)
"""


# ---------------------------------------------------------------------------
# market-basket lift / HHI / centroid geometry (batch 14)
# ---------------------------------------------------------------------------

@entry("basket_lift_lineitem", sql=lambda: SQL_BASKET_LIFT)
def q_basket_lift_lineitem(sf_dir: str) -> pd.DataFrame:
    """Market-basket association (Agrawal 1993 — public): among the
    top-50 parts by order frequency (count desc, partkey asc — a
    deterministic cut), every part pair co-occurring in ≥2 orders with
    its lift ``n_ab·N / (n_a·n_b)`` over the order universe. The top-part
    set broadcasts as a filter; pair fan-out happens inside per-order
    co-located groups (never a global self-join of the fact table)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    part_orders = hash_aggregate(li, ["l_partkey", "l_orderkey"],
                                 {"__n": ("l_partkey", "size")},
                                 num_partitions=_NP)
    pcnt = hash_aggregate(part_orders, ["l_partkey"],
                          {"n_ord": ("l_orderkey", "size")},
                          num_partitions=_NP).to_pandas()
    top = pcnt.sort_values(["n_ord", "l_partkey"],
                           ascending=[False, True]).head(50)
    topset = set(top["l_partkey"])
    acnt = dict(zip(top["l_partkey"], top["n_ord"]))
    n_orders = int(hash_aggregate(li, ["l_orderkey"],
                                  {"__n": ("l_orderkey", "size")},
                                  num_partitions=_NP).count())

    def filt(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["l_partkey"].isin(topset)]

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        rows_a, rows_b = [], []
        for okey, g in part.groupby("l_orderkey", sort=False):
            ps = np.unique(g["l_partkey"].to_numpy())
            if len(ps) < 2:
                continue
            ia, ib = np.triu_indices(len(ps), 1)
            rows_a.append(ps[ia])
            rows_b.append(ps[ib])
        if not rows_a:
            return pd.DataFrame({"pa": pd.Series([], dtype=np.int64),
                                 "pb": pd.Series([], dtype=np.int64),
                                 "__one": pd.Series([], dtype=np.int64)})
        a = np.concatenate(rows_a)
        return pd.DataFrame({"pa": a, "pb": np.concatenate(rows_b),
                             "__one": np.ones(len(a), dtype=np.int64)})

    co = hash_aggregate(
        keyed_map_partitions(
            part_orders.map_batches(filt, batch_format="pandas"),
            ["l_orderkey"], pairs, num_partitions=_NP),
        ["pa", "pb"], {"n_ab": ("__one", "sum")},
        num_partitions=4).to_pandas()
    co = co[co["n_ab"] >= 2].copy()
    na = co["pa"].map(acnt).to_numpy(np.float64)
    nb = co["pb"].map(acnt).to_numpy(np.float64)
    co["lift"] = np.round(co["n_ab"].to_numpy(np.float64) * n_orders
                          / (na * nb), 6)
    co = co.astype({"pa": "int64", "pb": "int64", "n_ab": "int64"})
    return co[["pa", "pb", "n_ab", "lift"]] \
        .sort_values(["pa", "pb"]).reset_index(drop=True)


SQL_BASKET_LIFT = """
    WITH po AS (
        SELECT DISTINCT l_partkey, l_orderkey FROM lineitem
    ),
    cnt AS (SELECT l_partkey, count(*) AS n_ord FROM po GROUP BY 1),
    top AS (
        SELECT l_partkey, n_ord FROM cnt
        ORDER BY n_ord DESC, l_partkey LIMIT 50
    ),
    tpo AS (SELECT po.* FROM po JOIN top USING (l_partkey)),
    n AS (SELECT count(DISTINCT l_orderkey) AS n_orders FROM lineitem),
    co AS (
        SELECT a.l_partkey AS pa, b.l_partkey AS pb, count(*) AS n_ab
        FROM tpo a JOIN tpo b
            ON a.l_orderkey = b.l_orderkey
           AND a.l_partkey < b.l_partkey
        GROUP BY 1, 2 HAVING count(*) >= 2
    )
    SELECT pa, pb, CAST(n_ab AS BIGINT) AS n_ab,
           round(n_ab * 1.0 * n.n_orders / (ta.n_ord * tb.n_ord), 6)
               AS lift
    FROM co JOIN top ta ON ta.l_partkey = co.pa
            JOIN top tb ON tb.l_partkey = co.pb
            CROSS JOIN n
"""


@entry("hhi_suppliers_lineitem", sql=lambda: SQL_HHI_SUPPLIERS)
def q_hhi_suppliers_lineitem(sf_dir: str) -> pd.DataFrame:
    """Herfindahl–Hirschman concentration index (public antitrust
    convention, ×10000) of supplier revenue shares
    ``Σ l_extendedprice·(1−l_discount)`` — one algebraic per-supplier
    reduce (6dp on both sides before shares), then the tiny share² fold."""
    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_discount"])

    def rev(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "l_suppkey": b["l_suppkey"],
            "__r": b["l_extendedprice"].to_numpy(np.float64)
                   * (1.0 - b["l_discount"].to_numpy(np.float64))})

    tot = hash_aggregate(li.map_batches(rev, batch_format="pandas"),
                         ["l_suppkey"], {"r": ("__r", "sum")},
                         num_partitions=_NP).to_pandas()
    r = np.round(tot["r"].to_numpy(np.float64), 6)
    share = r / r.sum()
    return pd.DataFrame({
        "n_suppliers": np.array([len(r)], dtype=np.int64),
        "hhi": [np.round(float((share * share).sum()) * 10000.0, 6)]})


SQL_HHI_SUPPLIERS = """
    WITH s AS (
        SELECT l_suppkey,
               round(sum(l_extendedprice * (1 - l_discount)), 6) AS r
        FROM lineitem GROUP BY 1
    )
    SELECT CAST(count(*) AS BIGINT) AS n_suppliers,
           round(sum(r * r) / (sum(r) * sum(r)) * 10000.0, 6) AS hhi
    FROM s
"""


def _rounded_centroids(sf_dir: str) -> pd.DataFrame:
    """label × dim centroid matrix, 6dp-rounded (the parity anchor both
    the distance and silhouette entries compute from)."""
    from forecastframe_ray.pipelines.similarity import label_centroids

    cents = label_centroids(
        _read(sf_dir, "embeddings", ["label", "embedding"])).to_pandas()
    piv = cents.pivot_table(index="label", columns="dim",
                            values="centroid", aggfunc="sum").sort_index()
    return np.round(piv, 6)


@entry("label_centroid_distances", sql=lambda: SQL_LABEL_CENTROID_DISTANCES)
def q_label_centroid_distances(sf_dir: str) -> pd.DataFrame:
    """Pairwise Euclidean distances between the per-label centroid
    vectors (the cluster-geometry dashboard): computed from the
    6dp-ROUNDED centroids the oracled centroid entry pins, so both
    engines fold identical inputs."""
    piv = _rounded_centroids(sf_dir)
    labels = list(piv.index)
    C = piv.to_numpy(np.float64)
    rows = []
    for i, la in enumerate(labels):
        for j in range(i + 1, len(labels)):
            d = float(np.sqrt(((C[i] - C[j]) ** 2).sum()))
            rows.append((la, labels[j], np.round(d, 6)))
    out = pd.DataFrame(rows, columns=["label_a", "label_b", "dist"])
    return out.astype({"label_a": "int64", "label_b": "int64"}) \
        .sort_values(["label_a", "label_b"]).reset_index(drop=True)


SQL_LABEL_CENTROID_DISTANCES = """
    WITH c AS (
        SELECT label, dim, round(avg(x), 6) AS v
        FROM (SELECT label, generate_subscripts(embedding, 1) AS dim,
                     CAST(unnest(embedding) AS DOUBLE) AS x
              FROM embeddings)
        GROUP BY 1, 2
    )
    SELECT a.label AS label_a, b.label AS label_b,
           round(sqrt(sum((a.v - b.v) * (a.v - b.v))), 6) AS dist
    FROM c a JOIN c b ON a.dim = b.dim AND a.label < b.label
    GROUP BY 1, 2
"""


@entry("silhouette_embeddings", sql=lambda: SQL_SILHOUETTE_EMBEDDINGS)
def q_silhouette_embeddings(sf_dir: str) -> pd.DataFrame:
    """Simplified (centroid-based) silhouette per label: for each vector,
    a = distance to its OWN label centroid, b = min distance to any other
    label's centroid, s = (b − a)/max(a, b); reported as the per-label
    mean. Centroids broadcast once (6dp-rounded parity anchor); the
    per-batch work is one (batch × labels) distance matrix, partial
    (Σs, n) sums pre-reduce before one tiny merge."""
    piv = _rounded_centroids(sf_dir)
    labels = np.array(piv.index)
    C = piv.to_numpy(np.float64)
    lab_pos = {int(l): i for i, l in enumerate(labels)}

    ds = _read(sf_dir, "embeddings", ["label", "embedding"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        d2 = ((X[:, None, :] - C[None, :, :]) ** 2).sum(axis=2)
        d = np.sqrt(d2)
        own = np.array([lab_pos[int(l)] for l in b["label"]])
        a = d[np.arange(len(b)), own]
        d_masked = d.copy()
        d_masked[np.arange(len(b)), own] = np.inf
        bb = d_masked.min(axis=1)
        mx = np.maximum(a, bb)
        s = np.where(mx > 0, (bb - a) / mx, 0.0)
        return pd.DataFrame({"label": b["label"], "__s": s,
                             "__one": np.ones(len(b), dtype=np.int64)})

    agg = hash_aggregate(ds.map_batches(partial, batch_format="pandas"),
                         ["label"], {"sum_s": ("__s", "sum"),
                                     "n": ("__one", "sum")},
                         num_partitions=4).to_pandas()
    agg["silhouette"] = np.round(agg["sum_s"].to_numpy(np.float64)
                                 / agg["n"].to_numpy(np.float64), 6)
    agg = agg.astype({"label": "int64", "n": "int64"})
    return agg[["label", "n", "silhouette"]] \
        .sort_values("label").reset_index(drop=True)


SQL_SILHOUETTE_EMBEDDINGS = """
    WITH c AS (
        SELECT label, dim, round(avg(x), 6) AS v
        FROM (SELECT label, generate_subscripts(embedding, 1) AS dim,
                     CAST(unnest(embedding) AS DOUBLE) AS x
              FROM embeddings)
        GROUP BY 1, 2
    ),
    e AS (
        SELECT vec_id, label, generate_subscripts(embedding, 1) AS dim,
               CAST(unnest(embedding) AS DOUBLE) AS x
        FROM embeddings
    ),
    d AS (
        SELECT e.vec_id, e.label AS own, c.label AS cl,
               sqrt(sum((e.x - c.v) * (e.x - c.v))) AS dist
        FROM e JOIN c USING (dim)
        GROUP BY 1, 2, 3
    ),
    ab AS (
        SELECT vec_id, own,
               max(CASE WHEN cl = own THEN dist END) AS a,
               min(CASE WHEN cl <> own THEN dist END) AS b
        FROM d GROUP BY 1, 2
    )
    SELECT own AS label, CAST(count(*) AS BIGINT) AS n,
           round(avg(CASE WHEN greatest(a, b) > 0
                          THEN (b - a) / greatest(a, b)
                          ELSE 0.0 END), 6) AS silhouette
    FROM ab GROUP BY 1
"""


# ---------------------------------------------------------------------------
# quantization error / F1 threshold sweep / forward as-of (batch 15)
# ---------------------------------------------------------------------------

@entry("quantization_error_embeddings", sql=lambda: SQL_QUANTIZATION_ERROR)
def q_quantization_error_embeddings(sf_dir: str) -> pd.DataFrame:
    """Symmetric int8 quantization audit (the embedding-compression
    decision input for ANN at scale): per vector, scale = max|x|/127,
    q = ⌊x/scale + 0.5⌋ (explicit round-half-up on BOTH engines — SQL
    round() is half-away while numpy is banker's, so neither is used),
    reconstruction MSE = mean((x − q·scale)²). Stateless vectorized map;
    all-zero vectors emit zero error."""
    ds = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    def qerr(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        scale = np.abs(X).max(axis=1) / 127.0
        s = np.where(scale > 0, scale, 1.0)[:, None]
        q = np.floor(X / s + 0.5)
        mse = ((X - q * s) ** 2).mean(axis=1)
        return pd.DataFrame({
            "vec_id": b["vec_id"],
            "scale": np.round(scale, 6) + 0.0,
            "mse": np.round(mse, 9) + 0.0})

    out = ds.map_batches(qerr, batch_format="pandas").to_pandas()
    out["vec_id"] = out["vec_id"].astype("int64")
    return out.sort_values("vec_id").reset_index(drop=True)


SQL_QUANTIZATION_ERROR = """
    WITH e AS (
        SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
               CAST(unnest(embedding) AS DOUBLE) AS x
        FROM embeddings
    ),
    s AS (
        SELECT vec_id, max(abs(x)) / 127.0 AS scale
        FROM e GROUP BY 1
    ),
    q AS (
        SELECT e.vec_id, s.scale,
               e.x - floor(e.x / (CASE WHEN s.scale > 0
                                       THEN s.scale ELSE 1 END) + 0.5)
                     * (CASE WHEN s.scale > 0 THEN s.scale ELSE 1 END)
                   AS err
        FROM e JOIN s USING (vec_id)
    )
    SELECT vec_id, round(max(scale), 6) + 0.0 AS scale,
           round(avg(err * err), 9) + 0.0 AS mse
    FROM q GROUP BY 1
"""


@entry("best_f1_threshold_documents", sql=lambda: SQL_BEST_F1_THRESHOLD)
def q_best_f1_threshold_documents(sf_dir: str) -> pd.DataFrame:
    """Threshold sweep maximizing F1 (the standard classifier-calibration
    fold) — score = n_chars, positive class = lang 'en' (the SCORE is
    deliberately naive; the OPERATOR under test is the distributed sweep).
    Rows reduce to one (score, n_pos, n_neg) row per distinct score; the
    cumulative TP/FP fold over the descending-sorted reduced table finds
    the smallest best threshold (rounded-F1 desc, threshold asc)."""
    docs = _read(sf_dir, "documents", ["doc_id", "n_chars", "lang"])

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        pos = (b["lang"] == "en").astype(np.int64)
        return pd.DataFrame({"score": b["n_chars"].astype(np.int64),
                             "__p": pos, "__n": 1 - pos})

    red = hash_aggregate(docs.map_batches(pre, batch_format="pandas"),
                         ["score"], {"n_pos": ("__p", "sum"),
                                     "n_neg": ("__n", "sum")},
                         num_partitions=_NP).to_pandas()
    red = red.sort_values("score", ascending=False).reset_index(drop=True)
    tp = red["n_pos"].cumsum().to_numpy(np.float64)
    fp = red["n_neg"].cumsum().to_numpy(np.float64)
    p_total = float(red["n_pos"].sum())
    fn = p_total - tp
    f1 = np.round(2 * tp / (2 * tp + fp + fn), 6)
    order = np.lexsort((red["score"].to_numpy(), -f1))
    best = order[0]
    return pd.DataFrame({
        "threshold": np.array([red.loc[best, "score"]], dtype=np.int64),
        "f1": [f1[best]],
        "precision": [np.round(tp[best] / (tp[best] + fp[best]), 6)],
        "recall": [np.round(tp[best] / p_total, 6)]})


SQL_BEST_F1_THRESHOLD = """
    WITH s AS (
        SELECT n_chars AS score,
               sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END) AS n_pos,
               sum(CASE WHEN lang = 'en' THEN 0 ELSE 1 END) AS n_neg
        FROM documents GROUP BY 1
    ),
    c AS (
        SELECT score,
               sum(n_pos) OVER (ORDER BY score DESC) AS tp,
               sum(n_neg) OVER (ORDER BY score DESC) AS fp,
               (SELECT sum(n_pos) FROM s) AS p_total
        FROM s
    ),
    f AS (
        SELECT score, tp, fp, p_total,
               round(2.0 * tp / (2.0 * tp + fp + (p_total - tp)), 6)
                   AS f1,
               row_number() OVER (
                   ORDER BY round(2.0 * tp
                                  / (2.0 * tp + fp + (p_total - tp)), 6)
                       DESC, score) AS rn
        FROM c
    )
    SELECT CAST(score AS BIGINT) AS threshold, f1,
           round(tp * 1.0 / (tp + fp), 6) AS precision,
           round(tp * 1.0 / p_total, 6) AS recall
    FROM f WHERE rn = 1
"""


@entry("asof_forward_events", sql=lambda: SQL_ASOF_FORWARD)
def q_asof_forward_events(sf_dir: str) -> pd.DataFrame:
    """FORWARD as-of join (the existing as-of entry runs backward): each
    'purchase' picks the same user's NEXT 'click' at or after it —
    stages/join.asof_join(direction='forward'). No-match purchases emit
    the 9999-12-31 / NULLF sentinels. ((user_id, ts) is unique, so the
    nearest-forward row is total-ordered on both engines.)"""
    from forecastframe_ray.stages.join import asof_join

    ev = _read(sf_dir, "events",
               ["event_id", "user_id", "event_type", "ts", "value"])
    left = ev.map_batches(
        lambda b: b[b["event_type"] == "purchase"]
        [["event_id", "user_id", "ts", "value"]],
        batch_format="pandas")
    right = ev.map_batches(
        lambda b: b[b["event_type"] == "click"]
        [["user_id", "ts", "value"]].rename(
            columns={"ts": "click_ts", "value": "click_value"}),
        batch_format="pandas")
    out = asof_join(left, right, on=["user_id"], left_ts="ts",
                    right_ts="click_ts", direction="forward",
                    num_partitions=_NP).to_pandas()
    out["click_ts"] = out["click_ts"].fillna(pd.Timestamp("9999-12-31"))
    out["click_value"] = out["click_value"].fillna(NULLF)
    out = out.astype({"event_id": "int64", "user_id": "int64"})
    out = out[["event_id", "user_id", "ts", "value", "click_ts",
               "click_value"]]
    return out.sort_values("event_id").reset_index(drop=True)


SQL_ASOF_FORWARD = f"""
    WITH p AS (
        SELECT event_id, user_id, ts, value FROM events
        WHERE event_type = 'purchase'
    ),
    c AS (
        SELECT user_id, ts AS click_ts, value AS click_value FROM events
        WHERE event_type = 'click'
    ),
    m AS (
        SELECT p.event_id, min(c.click_ts) AS nts
        FROM p JOIN c ON c.user_id = p.user_id AND c.click_ts >= p.ts
        GROUP BY 1
    )
    SELECT p.event_id, p.user_id, p.ts, p.value,
           COALESCE(cv.click_ts, TIMESTAMP '9999-12-31') AS click_ts,
           COALESCE(cv.click_value, {NULLF}) AS click_value
    FROM p
    LEFT JOIN m USING (event_id)
    LEFT JOIN c cv ON cv.user_id = p.user_id AND cv.click_ts = m.nts
"""


# ---------------------------------------------------------------------------
# watermark late-arrival scan / weighted median (batch 16)
# ---------------------------------------------------------------------------

@entry("late_events_watermark", sql=lambda: SQL_LATE_EVENTS_WATERMARK)
def q_late_events_watermark(sf_dir: str) -> pd.DataFrame:
    """Streaming late-arrival audit: reading events in ARRIVAL order
    (event_id), the watermark is the running max event time seen so far;
    an event is late when it lands > 1 hour behind the watermark. The
    classic distributed PREFIX-SCAN shape: arrival-range partitions each
    compute a local running max, the P per-partition maxima fold on the
    driver into exclusive prefix offsets (P numbers — tiny), and a second
    vectorized pass applies them. Summarized per event_type (count +
    late count + max lateness seconds)."""
    ev = _read(sf_dir, "events", ["event_id", "event_type", "ts"])
    n_total = int(pq.read_metadata(f"{sf_dir}/events.parquet").num_rows)
    P = _NP

    def assign(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__arr"] = (b["event_id"].to_numpy(np.int64) * P
                       // max(n_total, 1)).clip(0, P - 1)
        return b

    from forecastframe_ray.stages.agg import keyed_map_partitions

    def local_max(part: pd.DataFrame) -> pd.DataFrame:
        # a hash partition may hold several arrival-range keys
        out = part.groupby("__arr", sort=False)["ts"].max().reset_index()
        return out.rename(columns={"ts": "mx"})

    parts = keyed_map_partitions(
        _read(sf_dir, "events", ["event_id", "ts"])
        .map_batches(assign, batch_format="pandas"),
        ["__arr"], local_max, num_partitions=P).to_pandas() \
        .sort_values("__arr")
    # exclusive prefix max per partition (driver fold over P rows)
    pmax = {}
    run = pd.Timestamp.min
    for _, r in parts.iterrows():
        pmax[int(r["__arr"])] = run
        run = max(run, r["mx"])

    def flag(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        # a hash partition may hold several arrival-range keys — each has
        # its own exclusive-prefix watermark
        for p, g in part.groupby("__arr", sort=False):
            g = g.sort_values("event_id")
            ts = g["ts"]
            wm = np.maximum.accumulate(
                ts.astype("datetime64[us]").astype("int64").to_numpy())
            prefix = pmax.get(int(p), pd.Timestamp.min)
            if prefix > pd.Timestamp.min:
                wm = np.maximum(wm, np.int64(prefix.value // 1000))
            late_s = (wm - ts.astype("datetime64[us]").astype("int64")
                      .to_numpy()) / 1e6
            outs.append(pd.DataFrame({
                "event_type": g["event_type"],
                "__late": (late_s > 3600.0).astype(np.int64),
                "__lat_s": late_s,
                "__one": np.ones(len(g), dtype=np.int64)}))
        return pd.concat(outs, ignore_index=True)

    out = hash_aggregate(
        keyed_map_partitions(
            ev.map_batches(assign, batch_format="pandas"),
            ["__arr"], flag, num_partitions=P),
        ["event_type"],
        {"n": ("__one", "sum"), "n_late": ("__late", "sum"),
         "max_late_s": ("__lat_s", "max")},
        num_partitions=4).to_pandas()
    out = out.astype({"n": "int64", "n_late": "int64"})
    out = _round(out, ["max_late_s"], 6)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_LATE_EVENTS_WATERMARK = """
    WITH w AS (
        SELECT event_type, ts,
               max(ts) OVER (ORDER BY event_id
                             ROWS UNBOUNDED PRECEDING) AS wm
        FROM events
    )
    SELECT event_type, CAST(count(*) AS BIGINT) AS n,
           CAST(sum(CASE WHEN epoch_us(wm) - epoch_us(ts) > 3600000000
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_late,
           round(max((epoch_us(wm) - epoch_us(ts)) / 1e6), 6)
               AS max_late_s
    FROM w GROUP BY 1
"""


@entry("weighted_median_events", sql=lambda: SQL_WEIGHTED_MEDIAN)
def q_weighted_median_events(sf_dir: str) -> pd.DataFrame:
    """Weighted median (lower weighted median — the smallest value whose
    cumulative weight reaches half the total) of event value per type,
    weighted by the JSON ``k`` volume field. Rows reduce to one
    (type, value, Σweight) row per distinct value first; the cumulative
    fold runs over that reduced table."""
    from forecastframe_ray.functions.scalar import extract_json_int

    ev = _read(sf_dir, "events", ["event_type", "value", "props"])
    ext = extract_json_int(ev, "props", "k")

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"event_type": b["event_type"],
                             "value": b["value"],
                             "__w": b["k"].astype("float64")})

    red = hash_aggregate(ext.map_batches(pre, batch_format="pandas"),
                         ["event_type", "value"], {"w": ("__w", "sum")},
                         num_partitions=_NP).to_pandas()
    rows = []
    for et, g in red.groupby("event_type", sort=True):
        g = g.sort_values("value")
        w = g["w"].to_numpy(np.float64)
        half = w.sum() / 2.0
        ix = int(np.searchsorted(np.cumsum(w), half))
        rows.append((et, int(w.sum()),
                     np.round(float(g["value"].iloc[ix]), 6)))
    out = pd.DataFrame(rows, columns=["event_type", "total_w",
                                      "w_median"])
    out["total_w"] = out["total_w"].astype("int64")
    return out.reset_index(drop=True)


SQL_WEIGHTED_MEDIAN = """
    WITH e AS (
        SELECT event_type, value,
               sum(CAST(json_extract(props, '$.k') AS BIGINT)) AS w
        FROM events GROUP BY 1, 2
    ),
    c AS (
        SELECT event_type, value,
               sum(w) OVER (PARTITION BY event_type ORDER BY value) AS cw,
               sum(w) OVER (PARTITION BY event_type) AS tw
        FROM e
    )
    SELECT event_type, CAST(max(tw) AS BIGINT) AS total_w,
           round(min(CASE WHEN cw >= tw / 2.0 THEN value END), 6)
               AS w_median
    FROM c GROUP BY 1
"""


# ---------------------------------------------------------------------------
# calendar heatmap / embedding covariance (batch 17)
# ---------------------------------------------------------------------------

@entry("hour_dow_heatmap_events", sql=lambda: SQL_HOUR_DOW_HEATMAP)
def q_hour_dow_heatmap_events(sf_dir: str) -> pd.DataFrame:
    """Hour-of-day × ISO-weekday activity heatmap (count + mean value per
    cell) — the classic traffic-pattern matrix, one narrow two-key
    reduce."""
    ev = _read(sf_dir, "events", ["ts", "value"])

    def cell(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "dow": (b["ts"].dt.dayofweek + 1).astype(np.int64),
            "hour": b["ts"].dt.hour.astype(np.int64),
            "__v": b["value"].to_numpy(np.float64),
            "__one": np.ones(len(b), dtype=np.int64)})

    out = hash_aggregate(ev.map_batches(cell, batch_format="pandas"),
                         ["dow", "hour"],
                         {"n": ("__one", "sum"), "sum_v": ("__v", "sum")},
                         num_partitions=4).to_pandas()
    out["mean_v"] = np.round(out["sum_v"].to_numpy(np.float64)
                             / out["n"].to_numpy(np.float64), 6)
    out = out.astype({"dow": "int64", "hour": "int64", "n": "int64"})
    out = _round(out, ["sum_v"], 6)
    return out[["dow", "hour", "n", "sum_v", "mean_v"]] \
        .sort_values(["dow", "hour"]).reset_index(drop=True)


SQL_HOUR_DOW_HEATMAP = """
    SELECT CAST(isodow(ts) AS BIGINT) AS dow,
           CAST(hour(ts) AS BIGINT) AS hour,
           CAST(count(*) AS BIGINT) AS n,
           round(sum(value), 6) AS sum_v,
           round(sum(value) / count(*), 6) AS mean_v
    FROM events GROUP BY 1, 2
"""


@entry("covariance_embeddings", sql=lambda: SQL_COVARIANCE_EMBEDDINGS)
def q_covariance_embeddings(sf_dir: str) -> pd.DataFrame:
    """Sample covariance matrix of the embedding dimensions (the PCA /
    whitening input) via the one-pass distributed moment plan: each batch
    contributes (n, Σx, XᵀX) partials, one tiny driver fold finishes
    ``cov = (XᵀX − n·x̄x̄ᵀ)/(n−1)``. Emitted as the upper triangle in
    long form. PARITY NOTE: entries are 6dp-rounded; the oracle is
    DuckDB's covar_samp over the unnested dim pairs."""
    ds = _read(sf_dir, "embeddings", ["embedding"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        d = X.shape[1]
        xtx = X.T @ X
        iu = np.triu_indices(d)
        return pd.DataFrame({
            "da": iu[0].astype(np.int64), "db": iu[1].astype(np.int64),
            "xtx": xtx[iu],
            "sa": X.sum(axis=0)[iu[0]], "sb": X.sum(axis=0)[iu[1]],
            "n": np.full(len(iu[0]), len(b), dtype=np.int64)})

    agg = hash_aggregate(ds.map_batches(partial, batch_format="pandas"),
                         ["da", "db"],
                         {"xtx": ("xtx", "sum"), "sa": ("sa", "sum"),
                          "sb": ("sb", "sum"), "n": ("n", "sum")},
                         num_partitions=_NP).to_pandas()
    n = agg["n"].to_numpy(np.float64)
    cov = (agg["xtx"].to_numpy(np.float64)
           - agg["sa"].to_numpy(np.float64)
           * agg["sb"].to_numpy(np.float64) / n) / (n - 1.0)
    out = pd.DataFrame({
        "dim_a": agg["da"].astype("int64") + 1,   # 1-based like the oracle
        "dim_b": agg["db"].astype("int64") + 1,
        "cov": np.round(cov, 6) + 0.0})
    return out.sort_values(["dim_a", "dim_b"]).reset_index(drop=True)


SQL_COVARIANCE_EMBEDDINGS = """
    WITH e AS (
        SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
               CAST(unnest(embedding) AS DOUBLE) AS x
        FROM embeddings
    )
    SELECT a.dim AS dim_a, b.dim AS dim_b,
           round(covar_samp(a.x, b.x), 6) + 0.0 AS cov
    FROM e a JOIN e b ON a.vec_id = b.vec_id AND a.dim <= b.dim
    GROUP BY 1, 2
"""


# ---------------------------------------------------------------------------
# debounce / point-in-time state (batch 18)
# ---------------------------------------------------------------------------

@entry("debounce_events", sql=lambda: SQL_DEBOUNCE_EVENTS)
def q_debounce_events(sf_dir: str) -> pd.DataFrame:
    """Burst compaction (debounce): per (user, type) stream, events
    within 5 minutes of their predecessor chain into one burst
    (gaps-and-islands on the inter-event gap), and only each burst's
    FIRST event survives — the standard duplicate-click/retry suppressor.
    Summarized per user: events in, bursts kept, compaction ratio."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    GAP_US = 5 * 60 * 1_000_000

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for uid, g in part.groupby("user_id", sort=False):
            n_in = len(g)
            kept = 0
            for _, s in g.groupby("event_type", sort=False):
                t = np.sort(s["ts"].astype("datetime64[us]")
                            .astype("int64").to_numpy())
                kept += int(1 + (np.diff(t) > GAP_US).sum())
            rows.append((uid, n_in, kept,
                         np.round(kept / n_in, 6)))
        return pd.DataFrame(rows, columns=["user_id", "n_events",
                                           "n_kept", "keep_ratio"])

    out = keyed_map_partitions(ev, ["user_id"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"user_id": "int64", "n_events": "int64",
                      "n_kept": "int64"})
    return out.sort_values("user_id").reset_index(drop=True)


SQL_DEBOUNCE_EVENTS = """
    WITH l AS (
        SELECT user_id, event_type, ts,
               LAG(ts) OVER (PARTITION BY user_id, event_type
                             ORDER BY ts) AS pt
        FROM events
    ),
    k AS (
        SELECT user_id,
               CASE WHEN pt IS NULL
                         OR epoch_us(ts) - epoch_us(pt) > 300000000
                    THEN 1 ELSE 0 END AS is_first
        FROM l
    )
    SELECT user_id, CAST(count(*) AS BIGINT) AS n_events,
           CAST(sum(is_first) AS BIGINT) AS n_kept,
           round(sum(is_first) * 1.0 / count(*), 6) AS keep_ratio
    FROM k GROUP BY 1
"""


@entry("point_in_time_user_state", sql=lambda: SQL_POINT_IN_TIME_STATE)
def q_point_in_time_user_state(sf_dir: str) -> pd.DataFrame:
    """Point-in-time dimension lookup (the SCD2 entry's 'AS OF T' query):
    at the stream's integer-epoch-us midpoint, each user's then-active
    event_type — the latest event at or before T ((user_id, ts) unique ⇒
    deterministic). Users with no activity by T are absent. One keyed
    arg-max reduce."""
    ev = _read(sf_dir, "events", ["user_id", "event_type", "ts"])
    span = pq.read_table(f"{sf_dir}/events.parquet", columns=["ts"])
    ss = span["ts"].to_pandas().astype("datetime64[us]").astype("int64")
    cut = pd.Timestamp((int(ss.min()) + int(ss.max())) // 2, unit="us")

    def pre(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["ts"] <= cut]

    from forecastframe_ray.stages.agg import keyed_map_partitions

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        idx = part.groupby("user_id", sort=False)["ts"].idxmax()
        sub = part.loc[idx]
        return pd.DataFrame({"user_id": sub["user_id"],
                             "state_type": sub["event_type"],
                             "state_ts": sub["ts"]})

    out = keyed_map_partitions(
        ev.map_batches(pre, batch_format="pandas"),
        ["user_id"], kernel, num_partitions=_NP).to_pandas()
    out["user_id"] = out["user_id"].astype("int64")
    return out.sort_values("user_id").reset_index(drop=True)


SQL_POINT_IN_TIME_STATE = """
    WITH cut AS (
        SELECT make_timestamp((epoch_us(min(ts)) + epoch_us(max(ts))) // 2)
            AS c FROM events
    )
    SELECT user_id,
           arg_max(event_type, ts) AS state_type,
           max(ts) AS state_ts
    FROM events CROSS JOIN cut
    WHERE ts <= cut.c
    GROUP BY 1
"""


# ---------------------------------------------------------------------------
# corpus checksum / column profile (batch 19)
# ---------------------------------------------------------------------------

@entry("corpus_checksum_documents", sql=lambda: SQL_CORPUS_CHECKSUM)
def q_corpus_checksum_documents(sf_dir: str) -> pd.DataFrame:
    """Order-insensitive corpus checksum (the integrity stamp a resume /
    replication check compares): per-row 60-bit md5 prefix of the text,
    summed mod 2⁶¹−1 — commutative, so any partitioning/arrival order
    yields the same stamp. Per-batch partial sums keep the shuffle at one
    int per block."""
    import hashlib

    MOD = (1 << 61) - 1
    docs = _read(sf_dir, "documents", ["text"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        s = 0
        for t in b["text"].fillna(""):
            s = (s + int(hashlib.md5(t.encode()).hexdigest()[:15], 16)) \
                % MOD
        return pd.DataFrame({"part_sum": np.array([s], dtype=np.int64),
                             "n": np.array([len(b)], dtype=np.int64)})

    # fold the tiny per-block partials with PYTHON ints on the driver —
    # partials approach 2^61, so an int64 aggregate sum would overflow
    parts = docs.map_batches(partial, batch_format="pandas").to_pandas()
    total = sum(int(x) for x in parts["part_sum"]) % MOD
    return pd.DataFrame({
        "n_docs": np.array([int(parts["n"].sum())], dtype=np.int64),
        "checksum": np.array([total], dtype=np.int64)})


SQL_CORPUS_CHECKSUM = """
    SELECT CAST(count(*) AS BIGINT) AS n_docs,
           CAST(sum(CAST(CAST(('0x' || substr(md5(text), 1, 15))
                              AS BIGINT) AS HUGEINT))
                % 2305843009213693951 AS BIGINT) AS checksum
    FROM documents
"""


@entry("profile_orders", sql=lambda: SQL_PROFILE_ORDERS)
def q_profile_orders(sf_dir: str) -> pd.DataFrame:
    """Generic column profiler over orders (the data-quality first-look):
    per column — row count, null count, distinct count, min and max
    rendered as text. Distinct counts reduce per column via the narrow
    per-(column, value-digest) plan; min/max are algebraic."""
    orders = _read(sf_dir, "orders")
    cols = ["o_orderkey", "o_custkey", "o_orderstatus", "o_totalprice",
            "o_orderdate", "o_orderpriority"]

    def render(v) -> str:
        if isinstance(v, float):
            return f"{v:.2f}"
        if isinstance(v, pd.Timestamp):
            return v.strftime("%Y-%m-%d %H:%M:%S")
        return str(v)

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        # TYPED per-batch min/max per column (string-rendered extremes
        # would aggregate lexicographically — "1000" < "999")
        row = {"__k": 0, "n": len(b)}
        for c in cols:
            row[f"null_{c}"] = int(b[c].isna().sum())
            row[f"mn_{c}"] = b[c].min()
            row[f"mx_{c}"] = b[c].max()
        return pd.DataFrame([row])

    aggs = {"n": ("n", "sum")}
    for c in cols:
        aggs[f"null_{c}"] = (f"null_{c}", "sum")
        aggs[f"mn_{c}"] = (f"mn_{c}", "min")
        aggs[f"mx_{c}"] = (f"mx_{c}", "max")
    onerow = hash_aggregate(
        orders.map_batches(partial, batch_format="pandas"),
        ["__k"], aggs, num_partitions=2).to_pandas().iloc[0]
    base = pd.DataFrame(
        [(c, int(onerow["n"]), int(onerow[f"null_{c}"]),
          render(onerow[f"mn_{c}"]), render(onerow[f"mx_{c}"]))
         for c in cols],
        columns=["col", "n", "n_null", "mn", "mx"])

    def dvals(b: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for c in cols:
            outs.append(pd.DataFrame({
                "col": c, "val": b[c].astype(str)}))
        return pd.concat(outs, ignore_index=True)

    dv = hash_aggregate(
        hash_aggregate(orders.map_batches(dvals, batch_format="pandas"),
                       ["col", "val"], {"__n": ("val", "size")},
                       num_partitions=_NP),
        ["col"], {"n_distinct": ("val", "size")},
        num_partitions=4).to_pandas()
    out = base.merge(dv, on="col")
    out = out.astype({"n": "int64", "n_null": "int64",
                      "n_distinct": "int64"})
    return out[["col", "n", "n_null", "n_distinct", "mn", "mx"]] \
        .sort_values("col").reset_index(drop=True)


SQL_PROFILE_ORDERS = """
    SELECT * FROM (
      SELECT 'o_orderkey' AS col, CAST(count(*) AS BIGINT) AS n,
             CAST(sum(CASE WHEN o_orderkey IS NULL THEN 1 ELSE 0 END)
                  AS BIGINT) AS n_null,
             CAST(count(DISTINCT o_orderkey) AS BIGINT) AS n_distinct,
             CAST(min(o_orderkey) AS VARCHAR) AS mn,
             CAST(max(o_orderkey) AS VARCHAR) AS mx
      FROM orders
      UNION ALL
      SELECT 'o_custkey', CAST(count(*) AS BIGINT),
             CAST(sum(CASE WHEN o_custkey IS NULL THEN 1 ELSE 0 END) AS BIGINT),
             CAST(count(DISTINCT o_custkey) AS BIGINT),
             CAST(min(o_custkey) AS VARCHAR),
             CAST(max(o_custkey) AS VARCHAR) FROM orders
      UNION ALL
      SELECT 'o_orderstatus', CAST(count(*) AS BIGINT),
             CAST(sum(CASE WHEN o_orderstatus IS NULL THEN 1 ELSE 0 END) AS BIGINT),
             CAST(count(DISTINCT o_orderstatus) AS BIGINT),
             min(o_orderstatus), max(o_orderstatus) FROM orders
      UNION ALL
      SELECT 'o_totalprice', CAST(count(*) AS BIGINT),
             CAST(sum(CASE WHEN o_totalprice IS NULL THEN 1 ELSE 0 END) AS BIGINT),
             CAST(count(DISTINCT o_totalprice) AS BIGINT),
             printf('%.2f', min(o_totalprice)),
             printf('%.2f', max(o_totalprice)) FROM orders
      UNION ALL
      SELECT 'o_orderdate', CAST(count(*) AS BIGINT),
             CAST(sum(CASE WHEN o_orderdate IS NULL THEN 1 ELSE 0 END) AS BIGINT),
             CAST(count(DISTINCT o_orderdate) AS BIGINT),
             strftime(min(o_orderdate), '%Y-%m-%d %H:%M:%S'),
             strftime(max(o_orderdate), '%Y-%m-%d %H:%M:%S') FROM orders
      UNION ALL
      SELECT 'o_orderpriority', CAST(count(*) AS BIGINT),
             CAST(sum(CASE WHEN o_orderpriority IS NULL THEN 1 ELSE 0 END) AS BIGINT),
             CAST(count(DISTINCT o_orderpriority) AS BIGINT),
             min(o_orderpriority), max(o_orderpriority) FROM orders
    ) ORDER BY col
"""


# ---------------------------------------------------------------------------
# Grubbs outlier / order reconciliation / bounce rate (batch 20)
# ---------------------------------------------------------------------------

@entry("grubbs_daily_events", sql=lambda: SQL_GRUBBS_DAILY)
def q_grubbs_daily_events(sf_dir: str) -> pd.DataFrame:
    """Grubbs single-outlier statistic (Grubbs 1950 — public) per daily
    series: ``G = max|v − mean| / sd`` (ddof=1), with the offending day.
    One keyed kernel; constant series (sd = 0) emit NULLF. Ties on
    |v − mean| break to the earliest day on both engines."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            sd = float(v.std(ddof=1)) if len(v) > 1 else 0.0
            dev = np.round(np.abs(v - v.mean()), 6)
            ix = int(np.argmax(dev))  # first max = earliest day
            gstat = np.round(dev[ix] / sd, 6) if sd > 0 else NULLF
            rows.append((et, len(v), g["d"].iloc[ix], gstat))
        return pd.DataFrame(rows, columns=["event_type", "n",
                                           "outlier_d", "g_stat"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n"] = out["n"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_GRUBBS_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    s AS (
        SELECT event_type, count(*) AS n, avg(v) AS m,
               stddev_samp(v) AS sd
        FROM daily GROUP BY 1
    ),
    d AS (
        SELECT daily.event_type, daily.d,
               round(abs(daily.v - s.m), 6) AS dev, s.n, s.sd
        FROM daily JOIN s USING (event_type)
    ),
    r AS (
        SELECT event_type, d, dev, n, sd,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY dev DESC, d) AS rn
        FROM d
    )
    SELECT event_type, CAST(n AS BIGINT) AS n, d AS outlier_d,
           CASE WHEN sd > 0 THEN round(dev / sd, 6)
                ELSE {NULLF} END AS g_stat
    FROM r WHERE rn = 1
"""


@entry("reconciliation_orders_lineitem", sql=lambda: SQL_RECONCILIATION)
def q_reconciliation_orders_lineitem(sf_dir: str) -> pd.DataFrame:
    """Cross-table reconciliation (the warehouse trust check): each
    order's header ``o_totalprice`` against its lineitems' gross
    ``Σ extendedprice·(1−discount)·(1+tax)`` — coverage counts plus the
    mean/median header-to-detail ratio. The detail side pre-reduces per
    order (narrow), the header side hash-joins in; ratio stats fold over
    the per-order table."""
    from forecastframe_ray.stages.join import hash_join

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_extendedprice", "l_discount", "l_tax"])

    def gross(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderkey": b["l_orderkey"],
            "__g": b["l_extendedprice"].to_numpy(np.float64)
                   * (1.0 - b["l_discount"].to_numpy(np.float64))
                   * (1.0 + b["l_tax"].to_numpy(np.float64))})

    from forecastframe_ray.stages.join import consolidate_for_join

    # the detail side is a coarse-shuffle output — consolidate before the
    # join exchange (empty column-less blocks stall/break Dataset.join)
    detail = consolidate_for_join(
        hash_aggregate(li.map_batches(gross, batch_format="pandas"),
                       ["o_orderkey"], {"g": ("__g", "sum")},
                       num_partitions=_NP), 8)
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    joined = hash_join(consolidate_for_join(orders, 8), detail,
                       on=["o_orderkey"], num_partitions=8).to_pandas()
    ratio = np.round(joined["o_totalprice"].to_numpy(np.float64)
                     / np.round(joined["g"].to_numpy(np.float64), 6), 6)
    n_orders = int(pq.read_metadata(f"{sf_dir}/orders.parquet").num_rows)
    return pd.DataFrame({
        "n_orders": np.array([n_orders], dtype=np.int64),
        "n_with_lines": np.array([len(joined)], dtype=np.int64),
        "mean_ratio": [np.round(float(ratio.mean()), 6)],
        "p50_ratio": [np.round(float(np.percentile(ratio, 50)), 6)]})


SQL_RECONCILIATION = """
    WITH d AS (
        SELECT l_orderkey AS o_orderkey,
               round(sum(l_extendedprice * (1 - l_discount)
                         * (1 + l_tax)), 6) AS g
        FROM lineitem GROUP BY 1
    ),
    j AS (
        SELECT round(o_totalprice / g, 6) AS ratio
        FROM orders JOIN d USING (o_orderkey)
    )
    SELECT CAST((SELECT count(*) FROM orders) AS BIGINT) AS n_orders,
           CAST(count(*) AS BIGINT) AS n_with_lines,
           round(avg(ratio), 6) AS mean_ratio,
           round(quantile_cont(ratio, 0.5), 6) AS p50_ratio
    FROM j
"""


@entry("bounce_rate_daily", sql=lambda: SQL_BOUNCE_RATE_DAILY)
def q_bounce_rate_daily(sf_dir: str) -> pd.DataFrame:
    """Bounce rate per day (classic web analytics): share of sessions
    starting that day with exactly ONE event. Sessions come from the
    fused keyed sessionize stage (30-min gap); the per-session reduce and
    the daily fold are both narrow."""
    sess = _sessionized_events(sf_dir)
    per = hash_aggregate(sess, ["user_id", "session_id"],
                         {"n_events": ("event_id", "count"),
                          "start_ts": ("ts", "min")},
                         num_partitions=_NP)

    def day_fn(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "d": b["start_ts"].dt.floor("D"),
            "__b": (b["n_events"] == 1).astype(np.int64),
            "__one": np.ones(len(b), dtype=np.int64)})

    out = hash_aggregate(per.map_batches(day_fn, batch_format="pandas"),
                         ["d"], {"n_sessions": ("__one", "sum"),
                                 "n_bounce": ("__b", "sum")},
                         num_partitions=4).to_pandas()
    out["bounce_rate"] = np.round(
        out["n_bounce"].to_numpy(np.float64)
        / out["n_sessions"].to_numpy(np.float64), 6)
    out = out.astype({"n_sessions": "int64", "n_bounce": "int64"})
    return out[["d", "n_sessions", "n_bounce", "bounce_rate"]] \
        .sort_values("d").reset_index(drop=True)


SQL_BOUNCE_RATE_DAILY = f"""
    WITH b AS (
        SELECT user_id, ts,
               CASE WHEN LAG(ts) OVER w IS NULL
                         OR ts - LAG(ts) OVER w
                            > INTERVAL {_SESSION_GAP_S} SECOND
                    THEN 1 ELSE 0 END AS brk
        FROM events WINDOW w AS (PARTITION BY user_id ORDER BY ts)
    ),
    s AS (
        SELECT user_id, ts,
               SUM(brk) OVER (PARTITION BY user_id ORDER BY ts
                              ROWS UNBOUNDED PRECEDING) AS session_id
        FROM b
    ),
    per AS (
        SELECT user_id, session_id, count(*) AS n_events,
               date_trunc('day', min(ts)) AS d
        FROM s GROUP BY 1, 2
    )
    SELECT d, CAST(count(*) AS BIGINT) AS n_sessions,
           CAST(sum(CASE WHEN n_events = 1 THEN 1 ELSE 0 END) AS BIGINT)
               AS n_bounce,
           round(sum(CASE WHEN n_events = 1 THEN 1 ELSE 0 END) * 1.0
                 / count(*), 6) AS bounce_rate
    FROM per GROUP BY 1
"""


# ---------------------------------------------------------------------------
# Naive2 forecast / KMV set operations (batch 21)
# ---------------------------------------------------------------------------

@entry("naive2_forecast_daily", sql=lambda: SQL_NAIVE2_FORECAST)
def q_naive2_forecast_daily(sf_dir: str) -> pd.DataFrame:
    """Naive2 forecast (the M-competition deseasonalized-naive benchmark)
    per daily series — EXACT oracle, no degenerate gate: multiplicative
    ROW-seasonal indices (slot mean / grand mean, zero slots → 1), last
    deseasonalized value re-seasonalized 7 days ahead. Drives the 12th
    registered estimator end-to-end (keyed fit, state broadcast,
    future-grid scorer)."""
    fr = _daily_frame(sf_dir)
    preds = fr.predict(periods=7, freq="D", estimator="naive2", period=7)
    df = preds.to_pandas()[["event_type", "d", "predicted_v"]]
    df = _round(df, ["predicted_v"], 6)
    return df.sort_values(["event_type", "d"]).reset_index(drop=True)


SQL_NAIVE2_FORECAST = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, d, v,
               row_number() OVER (PARTITION BY event_type ORDER BY d) AS rn
        FROM daily
    ),
    gm AS (
        SELECT event_type, avg(v) AS g, count(*) AS n,
               max(d) AS d_last, arg_max(v, rn) AS y_last
        FROM r GROUP BY 1
    ),
    seas AS (
        SELECT r.event_type, (rn - 1) % 7 AS six,
               CASE WHEN gm.g = 0 OR avg(r.v) / gm.g = 0 THEN 1.0
                    ELSE avg(r.v) / gm.g END AS s
        FROM r JOIN gm USING (event_type)
        GROUP BY 1, 2, gm.g
    ),
    f AS (
        SELECT gm.*, fd.d, datediff('day', gm.d_last, fd.d) AS h
        FROM gm CROSS JOIN (
            SELECT unnest(generate_series(maxd + INTERVAL 1 DAY,
                                          maxd + INTERVAL 7 DAY,
                                          INTERVAL 1 DAY)) AS d
            FROM (SELECT max(d) AS maxd FROM daily)
        ) fd
    )
    SELECT f.event_type, f.d,
           round(f.y_last / sl.s * COALESCE(sf2.s, 1.0), 6) AS predicted_v
    FROM f
    JOIN seas sl ON sl.event_type = f.event_type
                AND sl.six = (f.n - 1) % 7
    LEFT JOIN seas sf2 ON sf2.event_type = f.event_type
                      AND sf2.six = (f.n - 1 + f.h) % 7
"""
