"""Oracled query catalog — part ``stats4`` (contiguous split of the former queries.py monolith; order preserved)."""

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
    _bucket_series,
    _read,
    _round,
)
from forecastframe_ray.pipelines.queries.stats import (  # noqa: F401
    _phi_as,
)
from forecastframe_ray.pipelines.queries import entry



@entry("cox_stuart_daily", sql=lambda: SQL_COX_STUART)
def q_cox_stuart_daily(sf_dir: str) -> pd.DataFrame:
    """Cox–Stuart sign test for trend (1955, public): pair each day i of
    the first half with day i+⌈n/2⌉, count rises vs falls (ties
    dropped), z = (2S⁺−N')/√N' — the assumption-free trend screen
    beside the MK/OLS family."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            if n < 6:
                continue
            h = (n + 1) // 2
            m = n // 2
            a, b = v[:m], v[h: h + m]
            s_plus = int((b > a).sum())
            s_minus = int((b < a).sum())
            np_ = s_plus + s_minus
            if np_ == 0:
                continue
            z = (2.0 * s_plus - np_) / np.sqrt(np_)
            rows.append((et, np.int64(np_), np.int64(s_plus),
                         np.round(z, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_pairs",
                                           "s_plus", "z"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_pairs": "int64", "s_plus": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_COX_STUART = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY d) AS rn,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    p AS (
        SELECT a.event_type,
               CASE WHEN b.v > a.v THEN 1 ELSE 0 END AS up,
               CASE WHEN b.v <> a.v THEN 1 ELSE 0 END AS informative
        FROM r a JOIN r b
          ON b.event_type = a.event_type
         AND b.rn = a.rn + (a.n + 1) // 2
        WHERE a.n >= 6 AND a.rn <= a.n // 2
    ),
    s AS (
        SELECT event_type, sum(up) AS sp, sum(informative) AS np_
        FROM p GROUP BY 1 HAVING sum(informative) > 0
    )
    SELECT event_type, CAST(np_ AS BIGINT) AS n_pairs,
           CAST(sp AS BIGINT) AS s_plus,
           round((2.0 * sp - np_) / sqrt(CAST(np_ AS DOUBLE)), 6) + 0.0
               AS z
    FROM s ORDER BY 1
"""


@entry("snht_daily", sql=lambda: SQL_SNHT)
def q_snht_daily(sf_dir: str) -> pd.DataFrame:
    """Standard Normal Homogeneity Test statistic (Alexandersson 1986,
    public): on the ddof-1 standardized series, T = max_k s1_k²·(1/k +
    1/(n−k)) where s1_k is the prefix z-sum (Σz = 0 collapses the
    two-segment form to this single-prefix form) — the climate-QC
    homogeneity screen beside Pettitt/CUSUM."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            if n < 10:
                continue
            s = v.std(ddof=1)
            if s == 0:
                continue
            z = (v - v.mean()) / s
            s1 = np.cumsum(z)[:-1]
            k = np.arange(1, n, dtype=np.float64)
            t = float((s1 * s1 * (1.0 / k + 1.0 / (n - k))).max())
            rows.append((et, np.int64(n), np.round(t, 5) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "snht_t"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_SNHT = f"""
    WITH daily AS ({_DAILY_SQL}),
    st AS (
        SELECT event_type, count(*) AS n, avg(v) AS m,
               stddev_samp(v) AS s
        FROM daily GROUP BY 1
        HAVING count(*) >= 10 AND stddev_samp(v) > 0
    ),
    z AS (
        SELECT d.event_type, st.n, (d.v - st.m) / st.s AS z,
               row_number() OVER (PARTITION BY d.event_type
                                  ORDER BY d.d) AS k
        FROM daily d JOIN st USING (event_type)
    ),
    c AS (
        SELECT event_type, n, k,
               sum(z) OVER (PARTITION BY event_type ORDER BY k) AS s1
        FROM z
    )
    SELECT event_type, CAST(any_value(n) AS BIGINT) AS n_days,
           round(max(s1 * s1 * (1.0 / k + 1.0 / (n - k))), 5) + 0.0
               AS snht_t
    FROM c WHERE k < n GROUP BY 1 ORDER BY 1
"""


@entry("katz_fd_daily", sql=lambda: SQL_KATZ_FD)
def q_katz_fd_daily(sf_dir: str) -> pd.DataFrame:
    """Katz fractal dimension (1988, public), value-path variant, of
    each daily series: FD = log₁₀(m)/(log₁₀(m) + log₁₀(d/L)) with
    L = Σ|Δv| (total variation), d = max|v_i − v_1| and m = n−1 —
    the waveform-complexity number next to Hurst/entropy."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            g = g.sort_values("d")
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            if n < 3:
                continue
            L = float(np.abs(np.diff(v)).sum())
            d = float(np.abs(v - v[0]).max())
            if L <= 0 or d <= 0:
                continue
            m = n - 1
            fd = np.log10(m) / (np.log10(m) + np.log10(d / L))
            rows.append((et, np.int64(n),
                         np.round(L, 4) + 0.0, np.round(d, 4) + 0.0,
                         np.round(fd, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "path_length", "diameter",
                                           "katz_fd"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_KATZ_FD = f"""
    WITH daily AS ({_DAILY_SQL}),
    o AS (
        SELECT event_type, d, v,
               lag(v) OVER (PARTITION BY event_type ORDER BY d) AS pv,
               first_value(v) OVER (PARTITION BY event_type
                                    ORDER BY d) AS v1,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    s AS (
        SELECT event_type, any_value(n) AS n,
               sum(CASE WHEN pv IS NOT NULL
                        THEN abs(v - pv) ELSE 0 END) AS L,
               max(abs(v - v1)) AS dd
        FROM o WHERE n >= 3 GROUP BY 1
        HAVING sum(CASE WHEN pv IS NOT NULL
                        THEN abs(v - pv) ELSE 0 END) > 0
           AND max(abs(v - v1)) > 0
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           round(L, 4) + 0.0 AS path_length,
           round(dd, 4) + 0.0 AS diameter,
           round(log10(n - 1.0)
                 / (log10(n - 1.0) + log10(dd / L)), 6) + 0.0
               AS katz_fd
    FROM s ORDER BY 1
"""


@entry("xbar_r_chart_weekly", sql=lambda: SQL_XBAR_R)
def q_xbar_r_chart_weekly(sf_dir: str) -> pd.DataFrame:
    """Shewhart X̄-R control chart (public SPC standard) with COMPLETE
    ISO weeks as rational subgroups (n = 7, so the published chart
    constants A2 = 0.419, D3 = 0.076, D4 = 1.924 apply): per series the
    grand mean, mean range, both charts' limits, and how many weekly
    subgroups fall outside each."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    A2, D3, D4 = 0.419, 0.076, 1.924

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            iso = g["d"].dt.isocalendar()
            wk = (iso["year"].to_numpy().astype("int64") * 100
                  + iso["week"].to_numpy().astype("int64"))
            v = g["v"].to_numpy(np.float64)
            sub = pd.DataFrame({"wk": wk, "v": v}).groupby("wk")["v"] \
                .agg(["count", "mean", "max", "min"])
            sub = sub[sub["count"] == 7]
            if len(sub) < 2:
                continue
            xbar = sub["mean"].to_numpy(np.float64)
            r = (sub["max"] - sub["min"]).to_numpy(np.float64)
            # limits derive from the 6dp-ROUNDED centers so both engines
            # compute them from identical operands (raw means differ in
            # the 13th digit and can straddle a rounding boundary)
            xbb = float(np.round(xbar.mean(), 6))
            rb = float(np.round(r.mean(), 6))
            ucl_x, lcl_x = xbb + A2 * rb, xbb - A2 * rb
            ucl_r, lcl_r = D4 * rb, D3 * rb
            # limits stay UNrounded: both engines compute them with the
            # same IEEE ops from the identical 6dp-rounded centers, so
            # the float64 bits match exactly (a final round-to-6dp would
            # reintroduce half-even-vs-half-up divergence at .5 ulps)
            rows.append((et, np.int64(len(sub)),
                         xbb + 0.0, rb + 0.0,
                         ucl_x + 0.0, lcl_x + 0.0,
                         ucl_r + 0.0, lcl_r + 0.0,
                         np.int64(((xbar > ucl_x)
                                   | (xbar < lcl_x)).sum()),
                         np.int64(((r > ucl_r) | (r < lcl_r)).sum())))
        return pd.DataFrame(rows, columns=[
            "event_type", "n_weeks", "xbar_bar", "r_bar", "ucl_x",
            "lcl_x", "ucl_r", "lcl_r", "n_out_x", "n_out_r"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_weeks": "int64", "n_out_x": "int64",
                      "n_out_r": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_XBAR_R = f"""
    WITH daily AS ({_DAILY_SQL}),
    sub AS (
        SELECT event_type, yearweek(d) AS wk, count(*) AS c,
               avg(v) AS xbar, max(v) - min(v) AS r
        FROM daily GROUP BY 1, 2 HAVING count(*) = 7
    ),
    ctl AS (
        SELECT event_type, count(*) AS nw, avg(xbar) AS xbb,
               avg(r) AS rb
        FROM sub GROUP BY 1 HAVING count(*) >= 2
    )
    SELECT ctl.event_type, CAST(ctl.nw AS BIGINT) AS n_weeks,
           round(ctl.xbb, 6) + 0.0 AS xbar_bar,
           round(ctl.rb, 6) + 0.0 AS r_bar,
           round(ctl.xbb, 6) + 0.419 * round(ctl.rb, 6) AS ucl_x,
           round(ctl.xbb, 6) - 0.419 * round(ctl.rb, 6) AS lcl_x,
           1.924 * round(ctl.rb, 6) AS ucl_r,
           0.076 * round(ctl.rb, 6) AS lcl_r,
           CAST(sum(CASE WHEN sub.xbar >
                             round(ctl.xbb, 6) + 0.419 * round(ctl.rb, 6)
                           OR sub.xbar <
                             round(ctl.xbb, 6) - 0.419 * round(ctl.rb, 6)
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_out_x,
           CAST(sum(CASE WHEN sub.r > 1.924 * round(ctl.rb, 6)
                           OR sub.r < 0.076 * round(ctl.rb, 6)
                         THEN 1 ELSE 0 END) AS BIGINT) AS n_out_r
    FROM ctl JOIN sub USING (event_type)
    GROUP BY 1, 2, 3, 4, 5, 6, 7, 8 ORDER BY 1
"""


@entry("monthly_seasonal_index_orders", sql=lambda: SQL_MONTHLY_SEASONAL)
def q_monthly_seasonal_index_orders(sf_dir: str) -> pd.DataFrame:
    """Classical monthly seasonal index of order volume: each calendar
    month's share of orders against the uniform 1/12 baseline,
    index = n_m/(N/12) — the first number a demand planner computes.
    Pure counting."""
    orders = _read(sf_dir, "orders", ["o_orderdate"])

    def month(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "month": b["o_orderdate"].dt.month.to_numpy()
            .astype("int64")})

    cnt = hash_count(orders.map_batches(month, batch_format="pandas"),
                     ["month"], num_partitions=4).to_pandas()
    n = float(cnt["n"].sum())
    cnt["seasonal_index"] = np.round(
        cnt["n"].to_numpy(np.float64) / (n / 12.0), 6) + 0.0
    cnt = cnt.rename(columns={"n": "n_orders"})
    cnt["n_orders"] = cnt["n_orders"].astype(np.int64)
    return cnt.sort_values("month").reset_index(drop=True)


SQL_MONTHLY_SEASONAL = """
    WITH m AS (
        SELECT CAST(month(o_orderdate) AS BIGINT) AS month,
               count(*) AS n
        FROM orders GROUP BY 1
    ),
    t AS (SELECT sum(n) AS nn FROM m)
    SELECT m.month, CAST(m.n AS BIGINT) AS n_orders,
           round(m.n / (t.nn / 12.0), 6) + 0.0 AS seasonal_index
    FROM m, t ORDER BY 1
"""


@entry("benford_second_digit_lineitem", sql=lambda: SQL_BENFORD_SECOND)
def q_benford_second_digit_lineitem(sf_dir: str) -> pd.DataFrame:
    """Benford SECOND-digit screen (Nigrini's forensic standard,
    public) on extended prices ≥ 10: observed share per second
    significant digit vs the theoretical
    P(d) = Σ_{d₁=1..9} log₁₀(1 + 1/(10d₁+d)) — the follow-up test
    when the first-digit screen (already in the catalog) looks clean."""
    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def d2(b: pd.DataFrame) -> pd.DataFrame:
        x = b["l_extendedprice"].to_numpy(np.float64)
        x = x[x >= 10]
        mag = np.floor(np.log10(x))
        d = (x // (10.0 ** (mag - 1))).astype("int64") % 10
        return pd.DataFrame({"digit": d})

    cnt = hash_count(li.map_batches(d2, batch_format="pandas"),
                     ["digit"], num_partitions=4).to_pandas()
    n = float(cnt["n"].sum())
    d1 = np.arange(1, 10, dtype=np.float64)
    bp = {d: float(np.log10(1 + 1 / (10 * d1 + d)).sum())
          for d in range(10)}
    cnt["obs_share"] = np.round(cnt["n"].to_numpy(np.float64) / n,
                                6) + 0.0
    cnt["benford_p"] = np.round([bp[int(d)] for d in cnt["digit"]],
                                6) + 0.0
    cnt = cnt.rename(columns={"n": "n_obs"})
    cnt["n_obs"] = cnt["n_obs"].astype(np.int64)
    return cnt.sort_values("digit").reset_index(drop=True)


SQL_BENFORD_SECOND = """
    WITH x AS (
        SELECT l_extendedprice AS x FROM lineitem
        WHERE l_extendedprice >= 10
    ),
    d AS (
        SELECT CAST(floor(x / power(10, floor(log10(x)) - 1))
                    AS BIGINT) % 10 AS digit
        FROM x
    ),
    cnt AS (SELECT digit, count(*) AS n FROM d GROUP BY 1),
    tot AS (SELECT sum(n) AS nn FROM cnt),
    bp AS (
        SELECT d2.d AS digit,
               sum(log10(1 + 1.0 / (10 * d1.d + d2.d))) AS p
        FROM (SELECT unnest(range(1, 10)) AS d) d1,
             (SELECT unnest(range(0, 10)) AS d) d2
        GROUP BY 1
    )
    SELECT cnt.digit, CAST(cnt.n AS BIGINT) AS n_obs,
           round(cnt.n / CAST(tot.nn AS DOUBLE), 6) + 0.0 AS obs_share,
           round(bp.p, 6) + 0.0 AS benford_p
    FROM cnt JOIN bp USING (digit), tot ORDER BY 1
"""


@entry("volume_shipping_nations", sql=lambda: SQL_VOLUME_SHIPPING)
def q_volume_shipping_nations(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q7 shape (public spec): bilateral trade volume between
    NATION_1 and NATION_2 — revenue of lineitems shipped 1996-1997 where
    the supplier sits in one nation and the ordering customer in the
    other, grouped by (supp_nation, cust_nation, ship_year). Dim maps
    (suppkey→nation, custkey→nation) broadcast; the fact streams through
    one orderkey hash join, nation-pair filter applied post-join."""
    from forecastframe_ray.stages.join import (consolidate_for_join,
                                               hash_join)

    nat_pair = {1: "NATION_1", 2: "NATION_2"}
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    smap = dict(zip(sup["s_suppkey"], sup["s_nationkey"]))
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    cmap = dict(zip(cust["c_custkey"], cust["c_nationkey"]))
    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1998-01-01")

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey"])

    def ord_prep(b: pd.DataFrame) -> pd.DataFrame:
        cn = b["o_custkey"].map(cmap)
        keep = cn.isin(nat_pair)
        return pd.DataFrame({"o_orderkey": b["o_orderkey"][keep],
                             "c_nat": cn[keep].astype(np.int64)})

    ords = consolidate_for_join(
        orders.map_batches(ord_prep, batch_format="pandas"), 8)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate",
                "l_extendedprice", "l_discount"])

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)]
        sn = b["l_suppkey"].map(smap)
        keep = sn.isin(nat_pair)
        b = b[keep]
        return pd.DataFrame({
            "o_orderkey": b["l_orderkey"],
            "s_nat": sn[keep].astype(np.int64),
            "ship_year": b["l_shipdate"].dt.year.astype(np.int64),
            "part": b["l_extendedprice"].to_numpy(np.float64)
                    * (1.0 - b["l_discount"].to_numpy(np.float64))})

    joined = hash_join(li.map_batches(li_prep, batch_format="pandas"),
                       ords, on=["o_orderkey"], num_partitions=8)

    def cross_filter(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["s_nat"] != b["c_nat"]]
        return b[["s_nat", "c_nat", "ship_year", "part"]]

    agg = hash_aggregate(
        joined.map_batches(cross_filter, batch_format="pandas"),
        ["s_nat", "c_nat", "ship_year"], {"revenue": ("part", "sum")},
        num_partitions=4).to_pandas()
    agg["supp_nation"] = agg["s_nat"].map(nat_pair)
    agg["cust_nation"] = agg["c_nat"].map(nat_pair)
    agg = _round(agg, ["revenue"], 6)
    agg["ship_year"] = agg["ship_year"].astype(np.int64)
    return agg[["supp_nation", "cust_nation", "ship_year", "revenue"]] \
        .sort_values(["supp_nation", "cust_nation", "ship_year"]) \
        .reset_index(drop=True)


SQL_VOLUME_SHIPPING = """
    SELECT n1.n_name AS supp_nation, n2.n_name AS cust_nation,
           CAST(year(l_shipdate) AS BIGINT) AS ship_year,
           round(sum(l_extendedprice * (1 - l_discount)), 6) AS revenue
    FROM lineitem
    JOIN orders ON l_orderkey = o_orderkey
    JOIN supplier ON l_suppkey = s_suppkey
    JOIN customer ON o_custkey = c_custkey
    JOIN nation n1 ON s_nationkey = n1.n_nationkey
    JOIN nation n2 ON c_nationkey = n2.n_nationkey
    WHERE n1.n_name IN ('NATION_1', 'NATION_2')
      AND n2.n_name IN ('NATION_1', 'NATION_2')
      AND n1.n_name <> n2.n_name
      AND l_shipdate >= DATE '1996-01-01'
      AND l_shipdate < DATE '1998-01-01'
    GROUP BY 1, 2, 3 ORDER BY 1, 2, 3
"""


@entry("returned_items_customers", sql=lambda: SQL_RETURNED_ITEMS)
def q_returned_items_customers(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q10 shape (public spec): top-20 customers by lost revenue
    from RETURNED lineitems (l_returnflag = 'R') against orders placed in
    one quarter — revenue per customer with name and nation attached.
    Fact-fact orderkey hash join; the customer dim broadcasts; rank on
    the 6dp-rounded revenue with custkey as the deterministic
    tie-break."""
    from forecastframe_ray.stages.join import (consolidate_for_join,
                                               hash_join)

    lo, hi = pd.Timestamp("1996-10-01"), pd.Timestamp("1997-01-01")
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"]).to_pandas()
    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    cinfo = cust.merge(nat, left_on="c_nationkey",
                       right_on="n_nationkey")
    cname = dict(zip(cinfo["c_custkey"], cinfo["c_name"]))
    cnat = dict(zip(cinfo["c_custkey"], cinfo["n_name"]))

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["o_orderdate"] >= lo) & (b["o_orderdate"] < hi)]
        return b[["o_orderkey", "o_custkey"]]

    ords = consolidate_for_join(
        orders.map_batches(ord_prep, batch_format="pandas"), 8)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_returnflag", "l_extendedprice",
                "l_discount"])

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_returnflag"] == "R"]
        return pd.DataFrame({
            "o_orderkey": b["l_orderkey"],
            "part": b["l_extendedprice"].to_numpy(np.float64)
                    * (1.0 - b["l_discount"].to_numpy(np.float64))})

    joined = hash_join(li.map_batches(li_prep, batch_format="pandas"),
                       ords, on=["o_orderkey"], num_partitions=8)
    agg = hash_aggregate(joined, ["o_custkey"],
                         {"revenue": ("part", "sum")},
                         num_partitions=4).to_pandas()
    agg = _round(agg, ["revenue"], 6)
    agg = agg.sort_values(["revenue", "o_custkey"],
                          ascending=[False, True]).head(20)
    agg = agg.rename(columns={"o_custkey": "c_custkey"})
    agg["c_name"] = agg["c_custkey"].map(cname)
    agg["n_name"] = agg["c_custkey"].map(cnat)
    agg["c_custkey"] = agg["c_custkey"].astype(np.int64)
    return agg[["c_custkey", "c_name", "n_name", "revenue"]] \
        .reset_index(drop=True)


SQL_RETURNED_ITEMS = """
    SELECT c_custkey, c_name, n_name,
           round(sum(l_extendedprice * (1 - l_discount)), 6) AS revenue
    FROM lineitem
    JOIN orders ON l_orderkey = o_orderkey
    JOIN customer ON o_custkey = c_custkey
    JOIN nation ON c_nationkey = n_nationkey
    WHERE l_returnflag = 'R'
      AND o_orderdate >= DATE '1996-10-01'
      AND o_orderdate < DATE '1997-01-01'
    GROUP BY 1, 2, 3
    ORDER BY round(sum(l_extendedprice * (1 - l_discount)), 6) DESC,
             c_custkey
    LIMIT 20
"""


@entry("customer_order_distribution", sql=lambda: SQL_CUSTOMER_ORDER_DIST)
def q_customer_order_distribution(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q13 shape (public spec): the distribution of order counts
    per customer INCLUDING the zero bucket (customers who never ordered
    — the left-join subtlety Q13 exists to test). Per-custkey count is
    one coarse-hash reduce over orders; the zero bucket is
    |customer| − |distinct ordering custkeys|, read off the dim table."""
    orders = _read(sf_dir, "orders", ["o_custkey"])
    per_cust = hash_count(orders, ["o_custkey"],
                          num_partitions=_NP).to_pandas()
    n_customers = pq.read_metadata(
        f"{sf_dir}/customer.parquet").num_rows
    dist = per_cust.groupby("n").size().reset_index(name="custdist")
    dist.columns = ["c_count", "custdist"]
    zero = n_customers - len(per_cust)
    if zero > 0:
        dist = pd.concat([dist, pd.DataFrame(
            {"c_count": [0], "custdist": [zero]})], ignore_index=True)
    dist = dist.astype({"c_count": "int64", "custdist": "int64"})
    return dist.sort_values(["custdist", "c_count"],
                            ascending=[False, False]) \
        .reset_index(drop=True)


SQL_CUSTOMER_ORDER_DIST = """
    WITH c_orders AS (
        SELECT c_custkey, count(o_orderkey) AS c_count
        FROM customer LEFT JOIN orders ON c_custkey = o_custkey
        GROUP BY 1
    )
    SELECT CAST(c_count AS BIGINT) AS c_count,
           CAST(count(*) AS BIGINT) AS custdist
    FROM c_orders GROUP BY 1 ORDER BY 2 DESC, 1 DESC
"""


@entry("promo_revenue_share", sql=lambda: SQL_PROMO_REVENUE)
def q_promo_revenue_share(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q14 shape (public spec): the PROMO part-type's share of one
    ship-month's discounted revenue. The part dim broadcasts as a
    partkey→is_promo map; both revenue sums reduce map-side per batch
    and the tiny partials fold on the driver. The share divides the two
    6dp-ROUNDED sums so both engines run identical IEEE ops."""
    promo = pq.read_table(f"{sf_dir}/part.parquet",
                          columns=["p_partkey", "p_type"]).to_pandas()
    is_promo = dict(zip(promo["p_partkey"],
                        promo["p_type"] == "PROMO"))
    lo, hi = pd.Timestamp("1996-06-01"), pd.Timestamp("1996-07-01")
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_shipdate", "l_extendedprice",
                "l_discount"])

    def partial(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)]
        rev = b["l_extendedprice"].to_numpy(np.float64) \
            * (1.0 - b["l_discount"].to_numpy(np.float64))
        pm = b["l_partkey"].map(is_promo).fillna(False).to_numpy(bool)
        return pd.DataFrame({"promo": [float(rev[pm].sum())],
                             "total": [float(rev.sum())]})

    parts = li.map_batches(partial, batch_format="pandas").to_pandas()
    rp = float(np.round(parts["promo"].sum(), 6))
    rt = float(np.round(parts["total"].sum(), 6))
    pct = 100.0 * rp / rt if rt else NULLF
    return pd.DataFrame({"promo_revenue": [rp], "total_revenue": [rt],
                         "promo_pct": [pct]})


SQL_PROMO_REVENUE = """
    WITH s AS (
        SELECT round(sum(CASE WHEN p_type = 'PROMO'
                     THEN l_extendedprice * (1 - l_discount)
                     ELSE 0 END), 6) AS rp,
               round(sum(l_extendedprice * (1 - l_discount)), 6) AS rt
        FROM lineitem JOIN part ON p_partkey = l_partkey
        WHERE l_shipdate >= DATE '1996-06-01'
          AND l_shipdate < DATE '1996-07-01'
    )
    SELECT rp AS promo_revenue, rt AS total_revenue,
           100.0 * rp / rt AS promo_pct
    FROM s
"""


@entry("small_qty_revenue_brand", sql=lambda: SQL_SMALL_QTY_REVENUE)
def q_small_qty_revenue_brand(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q17 shape (public spec): average yearly revenue lost to
    small-quantity orders — lineitems of Brand#4 parts whose quantity is
    below 20% of that part's average quantity, Σprice/7. Two passes over
    the brand-filtered fact: a per-part (sum, count) reduce (quantities
    are integral so the float sums are EXACT — the threshold is
    bit-identical in both engines), then a broadcast-threshold filter
    with a map-side revenue partial."""
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"]).to_pandas()
    bkeys = set(part.loc[part["p_brand"] == "Brand#4", "p_partkey"])
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice"])

    def brand_only(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["l_partkey"].isin(bkeys)]

    bli = li.map_batches(brand_only, batch_format="pandas")
    stats = hash_aggregate(bli, ["l_partkey"],
                           {"s": ("l_quantity", "sum"),
                            "c": ("l_quantity", "count")},
                           num_partitions=4).to_pandas()
    thresh = dict(zip(stats["l_partkey"],
                      0.2 * (stats["s"] / stats["c"])))

    def small_rev(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_partkey"].isin(bkeys)]
        t = b["l_partkey"].map(thresh).to_numpy(np.float64)
        keep = b["l_quantity"].to_numpy(np.float64) < t
        return pd.DataFrame({
            "rev": [float(b["l_extendedprice"].to_numpy(
                np.float64)[keep].sum())],
            "n": [np.int64(keep.sum())]})

    parts = li.map_batches(small_rev, batch_format="pandas").to_pandas()
    return pd.DataFrame({
        "n_lineitems": np.array([parts["n"].sum()], dtype=np.int64),
        "avg_yearly": [float(np.round(parts["rev"].sum() / 7.0, 6))]})


SQL_SMALL_QTY_REVENUE = """
    SELECT CAST(count(*) AS BIGINT) AS n_lineitems,
           round(sum(l_extendedprice) / 7.0, 6) AS avg_yearly
    FROM lineitem JOIN part ON p_partkey = l_partkey
    WHERE p_brand = 'Brand#4'
      AND l_quantity < 0.2 * (
          SELECT avg(l_quantity) FROM lineitem l2
          WHERE l2.l_partkey = p_partkey)
"""


@entry("large_volume_customers", sql=lambda: SQL_LARGE_VOLUME_CUSTOMERS)
def q_large_volume_customers(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q18 shape (public spec): orders whose total lineitem
    quantity exceeds 250, with customer attached. Per-orderkey quantity
    reduce (integral → exact), the surviving ~1% of orderkeys broadcast
    back as a semi-filter on orders, customer dim broadcast for the
    name."""
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_quantity"])
    qty = hash_aggregate(li, ["l_orderkey"],
                         {"sum_qty": ("l_quantity", "sum")},
                         num_partitions=_NP)

    def big(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["sum_qty"] > 250.0]

    bigq = qty.map_batches(big, batch_format="pandas").to_pandas()
    keys = set(bigq["l_orderkey"])
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate",
                    "o_totalprice"])

    def pick(b: pd.DataFrame) -> pd.DataFrame:
        return b[b["o_orderkey"].isin(keys)]

    od = orders.map_batches(pick, batch_format="pandas").to_pandas()
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_name"]).to_pandas()
    out = od.merge(bigq, left_on="o_orderkey", right_on="l_orderkey") \
        .merge(cust, left_on="o_custkey", right_on="c_custkey")
    out = out[["c_custkey", "c_name", "o_orderkey", "o_orderdate",
               "o_totalprice", "sum_qty"]]
    out["c_custkey"] = out["c_custkey"].astype(np.int64)
    out["o_orderkey"] = out["o_orderkey"].astype(np.int64)
    return out.sort_values("o_orderkey").reset_index(drop=True)


SQL_LARGE_VOLUME_CUSTOMERS = """
    SELECT c_custkey, c_name, o_orderkey, o_orderdate, o_totalprice,
           sum(l_quantity) AS sum_qty
    FROM lineitem
    JOIN orders ON l_orderkey = o_orderkey
    JOIN customer ON o_custkey = c_custkey
    GROUP BY 1, 2, 3, 4, 5 HAVING sum(l_quantity) > 250.0
    ORDER BY 3
"""


@entry("market_share_nation", sql=lambda: SQL_MARKET_SHARE)
def q_market_share_nation(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q8 shape (public spec): NATION_3's share of EUROPE-region
    STANDARD-part order revenue per order year (1996-1997). The three
    dims collapse to two broadcast maps (partkey∈STANDARD set,
    custkey→in-EUROPE, suppkey→is-NATION_3); the fact crosses one
    orderkey hash join; shares divide per-year 6dp-rounded sums."""
    from forecastframe_ray.stages.join import (consolidate_for_join,
                                               hash_join)

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"]).to_pandas()
    pkeys = set(part.loc[part["p_type"] == "STANDARD", "p_partkey"])
    nat = pq.read_table(f"{sf_dir}/nation.parquet").to_pandas()
    reg = pq.read_table(f"{sf_dir}/region.parquet").to_pandas()
    eur = set(nat.merge(reg[reg["r_name"] == "EUROPE"],
                        left_on="n_regionkey",
                        right_on="r_regionkey")["n_nationkey"])
    cust = pq.read_table(f"{sf_dir}/customer.parquet",
                         columns=["c_custkey", "c_nationkey"]).to_pandas()
    ckeys = set(cust.loc[cust["c_nationkey"].isin(eur), "c_custkey"])
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    target = dict(zip(sup["s_suppkey"], sup["s_nationkey"] == 3))
    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1998-01-01")

    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_custkey", "o_orderdate"])

    def ord_prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["o_orderdate"] >= lo) & (b["o_orderdate"] < hi)
              & b["o_custkey"].isin(ckeys)]
        return pd.DataFrame({
            "o_orderkey": b["o_orderkey"],
            "o_year": b["o_orderdate"].dt.year.astype(np.int64)})

    ords = consolidate_for_join(
        orders.map_batches(ord_prep, batch_format="pandas"), 8)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey",
                "l_extendedprice", "l_discount"])

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b["l_partkey"].isin(pkeys)]
        return pd.DataFrame({
            "o_orderkey": b["l_orderkey"],
            "is_target": b["l_suppkey"].map(target)
            .fillna(False).to_numpy(bool),
            "part": b["l_extendedprice"].to_numpy(np.float64)
                    * (1.0 - b["l_discount"].to_numpy(np.float64))})

    joined = hash_join(li.map_batches(li_prep, batch_format="pandas"),
                       ords, on=["o_orderkey"], num_partitions=8)

    def split(b: pd.DataFrame) -> pd.DataFrame:
        t = np.where(b["is_target"].to_numpy(bool),
                     b["part"].to_numpy(np.float64), 0.0)
        return pd.DataFrame({"o_year": b["o_year"],
                             "tgt": t, "tot": b["part"]})

    agg = hash_aggregate(
        joined.map_batches(split, batch_format="pandas"),
        ["o_year"], {"tgt": ("tgt", "sum"), "tot": ("tot", "sum")},
        num_partitions=4).to_pandas()
    agg = _round(agg, ["tgt", "tot"], 6)
    agg["mkt_share"] = agg["tgt"].to_numpy(np.float64) \
        / agg["tot"].to_numpy(np.float64)
    agg = agg.rename(columns={"tgt": "nation_revenue",
                              "tot": "total_revenue"})
    agg["o_year"] = agg["o_year"].astype(np.int64)
    return agg[["o_year", "nation_revenue", "total_revenue",
                "mkt_share"]].sort_values("o_year") \
        .reset_index(drop=True)


SQL_MARKET_SHARE = """
    WITH y AS (
        SELECT CAST(year(o_orderdate) AS BIGINT) AS o_year,
               round(sum(CASE WHEN s_nationkey = 3
                    THEN l_extendedprice * (1 - l_discount)
                    ELSE 0 END), 6) AS nation_revenue,
               round(sum(l_extendedprice * (1 - l_discount)), 6)
                   AS total_revenue
        FROM lineitem
        JOIN orders ON l_orderkey = o_orderkey
        JOIN customer ON o_custkey = c_custkey
        JOIN nation ON c_nationkey = n_nationkey
        JOIN region ON n_regionkey = r_regionkey
        JOIN part ON l_partkey = p_partkey
        JOIN supplier ON l_suppkey = s_suppkey
        WHERE r_name = 'EUROPE' AND p_type = 'STANDARD'
          AND o_orderdate >= DATE '1996-01-01'
          AND o_orderdate < DATE '1998-01-01'
        GROUP BY 1
    )
    SELECT o_year, nation_revenue, total_revenue,
           nation_revenue / total_revenue AS mkt_share
    FROM y ORDER BY 1
"""


@entry("disjunctive_predicate_revenue", sql=lambda: SQL_DISJUNCTIVE_REVENUE)
def q_disjunctive_predicate_revenue(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q19 shape (public spec): revenue under a 3-arm disjunction
    of (brand, quantity-range) predicates — the OR-of-ANDs pattern that
    defeats naive predicate pushdown. The brand map broadcasts; each arm
    is one vectorized mask; sums reduce map-side."""
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand"]).to_pandas()
    bmap = dict(zip(part["p_partkey"], part["p_brand"]))
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_quantity", "l_extendedprice",
                "l_discount"])

    def arms(b: pd.DataFrame) -> pd.DataFrame:
        brand = b["l_partkey"].map(bmap).fillna("")
        q = b["l_quantity"].to_numpy(np.float64)
        m = (((brand == "Brand#2") & (q >= 1) & (q <= 10))
             | ((brand == "Brand#17") & (q >= 10) & (q <= 20))
             | ((brand == "Brand#19") & (q >= 20) & (q <= 30))) \
            .to_numpy(bool)
        rev = b["l_extendedprice"].to_numpy(np.float64) \
            * (1.0 - b["l_discount"].to_numpy(np.float64))
        return pd.DataFrame({"rev": [float(rev[m].sum())],
                             "n": [np.int64(m.sum())]})

    parts = li.map_batches(arms, batch_format="pandas").to_pandas()
    return pd.DataFrame({
        "n_lineitems": np.array([parts["n"].sum()], dtype=np.int64),
        "revenue": [float(np.round(parts["rev"].sum(), 6))]})


SQL_DISJUNCTIVE_REVENUE = """
    SELECT CAST(count(*) AS BIGINT) AS n_lineitems,
           round(sum(l_extendedprice * (1 - l_discount)), 6) AS revenue
    FROM lineitem JOIN part ON p_partkey = l_partkey
    WHERE (p_brand = 'Brand#2' AND l_quantity BETWEEN 1 AND 10)
       OR (p_brand = 'Brand#17' AND l_quantity BETWEEN 10 AND 20)
       OR (p_brand = 'Brand#19' AND l_quantity BETWEEN 20 AND 30)
"""


@entry("idle_customer_balance", sql=lambda: SQL_IDLE_CUSTOMER_BALANCE)
def q_idle_customer_balance(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q22 shape (public spec, nation-grouped — the synth schema
    has no phone country code): per nation, count and total balance of
    customers with above-average POSITIVE balance who placed no order
    on/after 2001-01-01 (lapsed customers; the synth corpus gives every
    customer at least one lifetime order, so Q22's literal "never
    ordered" arm is empty — the date-windowed variant keeps the
    anti-join non-degenerate). The recently-ordering custkey set
    semi-filters via the engine's broadcast ANTI join; the cutoff is the
    6dp-rounded positive-balance mean so both engines compare identical
    operands."""
    from forecastframe_ray.stages.join import broadcast_semi_join

    cust = _read(sf_dir, "customer",
                 ["c_custkey", "c_nationkey", "c_acctbal"])

    def pos_partial(b: pd.DataFrame) -> pd.DataFrame:
        x = b["c_acctbal"].to_numpy(np.float64)
        x = x[x > 0.0]
        return pd.DataFrame({"s": [float(x.sum())],
                             "c": [np.int64(len(x))]})

    p = cust.map_batches(pos_partial, batch_format="pandas").to_pandas()
    cutoff = float(np.round(p["s"].sum() / p["c"].sum(), 6))

    since = pd.Timestamp("2001-01-01")
    recent = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"]) \
        .map_batches(lambda b: b.loc[b["o_orderdate"] >= since,
                                     ["o_custkey"]],
                     batch_format="pandas")
    ordering = hash_count(recent, ["o_custkey"],
                          num_partitions=_NP).to_pandas()
    rich = cust.map_batches(
        lambda b: b[b["c_acctbal"] > cutoff], batch_format="pandas")
    idle = broadcast_semi_join(
        rich, ordering.rename(columns={"o_custkey": "c_custkey"}),
        on=["c_custkey"], anti=True)
    agg = hash_aggregate(idle, ["c_nationkey"],
                         {"numcust": ("c_custkey", "count"),
                          "totacctbal": ("c_acctbal", "sum")},
                         num_partitions=4).to_pandas()
    agg = _round(agg, ["totacctbal"], 6)
    agg["c_nationkey"] = agg["c_nationkey"].astype(np.int64)
    agg["numcust"] = agg["numcust"].astype(np.int64)
    return agg[["c_nationkey", "numcust", "totacctbal"]] \
        .sort_values("c_nationkey").reset_index(drop=True)


SQL_IDLE_CUSTOMER_BALANCE = """
    WITH cutoff AS (
        SELECT round(avg(c_acctbal), 6) AS m FROM customer
        WHERE c_acctbal > 0.0
    )
    SELECT CAST(c_nationkey AS BIGINT) AS c_nationkey,
           CAST(count(*) AS BIGINT) AS numcust,
           round(sum(c_acctbal), 6) AS totacctbal
    FROM customer, cutoff
    WHERE c_acctbal > cutoff.m
      AND NOT EXISTS (SELECT 1 FROM orders
                      WHERE o_custkey = c_custkey
                        AND o_orderdate >= DATE '2001-01-01')
    GROUP BY 1 ORDER BY 1
"""


@entry("priority_late_orders", sql=lambda: SQL_PRIORITY_LATE_ORDERS)
def q_priority_late_orders(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q4 shape (public spec; the synth lineitem has no
    commit/receipt dates, so "late" = some lineitem shipped >= 60 days
    after the order date): per order priority, how many 1996-H1 orders
    had a late line. The EXISTS collapses to a per-order max(l_shipdate)
    pre-aggregate — one narrow shuffle keyed on orderkey instead of an
    exists-probe per row — then one hash join back to the order header."""
    from forecastframe_ray.stages.join import (consolidate_for_join,
                                               hash_join)

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1996-07-01")
    orders = _read(sf_dir, "orders",
                   ["o_orderkey", "o_orderdate", "o_orderpriority"])

    def ord_prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["o_orderdate"] >= lo) & (b["o_orderdate"] < hi)]
        return b[["o_orderkey", "o_orderdate", "o_orderpriority"]]

    ords = consolidate_for_join(
        orders.map_batches(ord_prep, batch_format="pandas"), 8)

    maxship = hash_aggregate(
        _read(sf_dir, "lineitem", ["l_orderkey", "l_shipdate"])
        .map_batches(lambda b: b.rename(columns={"l_orderkey":
                                                 "o_orderkey"}),
                     batch_format="pandas"),
        ["o_orderkey"], {"max_ship": ("l_shipdate", "max")},
        num_partitions=_NP)

    joined = hash_join(maxship, ords, on=["o_orderkey"],
                       num_partitions=8)

    def late(b: pd.DataFrame) -> pd.DataFrame:
        m = b["max_ship"] >= b["o_orderdate"] + pd.Timedelta(days=60)
        return b.loc[m, ["o_orderpriority"]]

    agg = hash_count(joined.map_batches(late, batch_format="pandas"),
                     ["o_orderpriority"], out_col="order_count",
                     num_partitions=4).to_pandas()
    agg["order_count"] = agg["order_count"].astype(np.int64)
    return agg[["o_orderpriority", "order_count"]] \
        .sort_values("o_orderpriority").reset_index(drop=True)


SQL_PRIORITY_LATE_ORDERS = """
    SELECT o_orderpriority, CAST(count(*) AS BIGINT) AS order_count
    FROM orders
    WHERE o_orderdate >= DATE '1996-01-01'
      AND o_orderdate < DATE '1996-07-01'
      AND EXISTS (SELECT 1 FROM lineitem
                  WHERE l_orderkey = o_orderkey
                    AND l_shipdate >= o_orderdate + INTERVAL 60 DAY)
    GROUP BY 1 ORDER BY 1
"""


@entry("linestatus_priority_counts", sql=lambda: SQL_LINESTATUS_PRIORITY)
def q_linestatus_priority_counts(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q12 shape (public spec; l_linestatus stands in for the
    ship-mode column the synth schema lacks): for lineitems shipped in
    1996, per line status, how many belong to high-priority
    (1-URGENT / 2-HIGH) vs lower-priority orders. The order header
    reduces to (orderkey, is_high) before the fact-fact hash join;
    the conditional counts reduce map-side after the join."""
    from forecastframe_ray.stages.join import (consolidate_for_join,
                                               hash_join)

    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def ord_prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderkey": b["o_orderkey"],
            "is_high": b["o_orderpriority"]
            .isin(["1-URGENT", "2-HIGH"]).to_numpy(bool)})

    ords = consolidate_for_join(
        orders.map_batches(ord_prep, batch_format="pandas"), 8)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_linestatus", "l_shipdate"])

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)]
        return pd.DataFrame({"o_orderkey": b["l_orderkey"],
                             "l_linestatus": b["l_linestatus"]})

    joined = hash_join(li.map_batches(li_prep, batch_format="pandas"),
                       ords, on=["o_orderkey"], num_partitions=8)

    def split(b: pd.DataFrame) -> pd.DataFrame:
        h = b["is_high"].to_numpy(bool)
        return pd.DataFrame({"l_linestatus": b["l_linestatus"],
                             "hi": h.astype(np.int64),
                             "lo": (~h).astype(np.int64)})

    agg = hash_aggregate(
        joined.map_batches(split, batch_format="pandas"),
        ["l_linestatus"], {"high_line_count": ("hi", "sum"),
                           "low_line_count": ("lo", "sum")},
        num_partitions=4).to_pandas()
    for c in ("high_line_count", "low_line_count"):
        agg[c] = agg[c].astype(np.int64)
    return agg[["l_linestatus", "high_line_count", "low_line_count"]] \
        .sort_values("l_linestatus").reset_index(drop=True)


SQL_LINESTATUS_PRIORITY = """
    SELECT l_linestatus,
           CAST(sum(CASE WHEN o_orderpriority IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS high_line_count,
           CAST(sum(CASE WHEN o_orderpriority NOT IN ('1-URGENT', '2-HIGH')
                THEN 1 ELSE 0 END) AS BIGINT) AS low_line_count
    FROM lineitem JOIN orders ON l_orderkey = o_orderkey
    WHERE l_shipdate >= DATE '1996-01-01'
      AND l_shipdate < DATE '1997-01-01'
    GROUP BY 1 ORDER BY 1
"""


@entry("top_revenue_supplier", sql=lambda: SQL_TOP_REVENUE_SUPPLIER)
def q_top_revenue_supplier(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q15 shape (public spec): the supplier(s) whose 1996-Q1
    shipped revenue equals the maximum over all suppliers. The revenue
    "view" is one partial-sum shuffle keyed on suppkey; the max is a
    driver-side scalar over the tiny per-supplier result; both engines
    compare 6dp-rounded revenue so float ties break identically."""
    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_shipdate", "l_extendedprice",
                "l_discount"])
    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1996-04-01")

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)]
        return pd.DataFrame({
            "s_suppkey": b["l_suppkey"],
            "rev": b["l_extendedprice"].to_numpy(np.float64)
                   * (1.0 - b["l_discount"].to_numpy(np.float64))})

    rev = hash_aggregate(li.map_batches(prep, batch_format="pandas"),
                         ["s_suppkey"],
                         {"total_revenue": ("rev", "sum")},
                         num_partitions=_NP).to_pandas()
    rev = _round(rev, ["total_revenue"], 6)
    top = rev[rev["total_revenue"] == rev["total_revenue"].max()].copy()
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name"]).to_pandas()
    top = top.merge(sup, on="s_suppkey")
    top["s_suppkey"] = top["s_suppkey"].astype(np.int64)
    return top[["s_suppkey", "s_name", "total_revenue"]] \
        .sort_values("s_suppkey").reset_index(drop=True)


SQL_TOP_REVENUE_SUPPLIER = """
    WITH r AS (
        SELECT l_suppkey AS s_suppkey,
               round(sum(l_extendedprice * (1 - l_discount)), 6)
                   AS total_revenue
        FROM lineitem
        WHERE l_shipdate >= DATE '1996-01-01'
          AND l_shipdate < DATE '1996-04-01'
        GROUP BY 1
    )
    SELECT CAST(r.s_suppkey AS BIGINT) AS s_suppkey, s_name,
           total_revenue
    FROM r JOIN supplier ON supplier.s_suppkey = r.s_suppkey
    WHERE total_revenue = (SELECT max(total_revenue) FROM r)
    ORDER BY 1
"""


@entry("suppliers_kept_waiting", sql=lambda: SQL_SUPPLIERS_KEPT_WAITING)
def q_suppliers_kept_waiting(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q21 shape (public spec; "late" adapted to the synth schema
    as l_shipdate > o_orderdate + 90 days since there are no
    commit/receipt dates): top-10 suppliers who were the SOLE late
    shipper on a multi-supplier order. Per-(order, supplier) late flags
    reduce through the orderkey hash join; the sole-late test runs
    vectorized inside one orderkey-co-located partition kernel
    (groupby().transform — no per-order Python loop); ties break on
    (numwait DESC, s_suppkey ASC) in both engines. The kernel's
    partition count scales with the fact row count (~100k rows/task
    from parquet metadata, no count barrier) so per-task heap stays
    bounded at any corpus size."""
    from forecastframe_ray.stages.agg import keyed_map_partitions
    from forecastframe_ray.stages.join import (consolidate_for_join,
                                               hash_join)

    n_li = pq.ParquetFile(f"{sf_dir}/lineitem.parquet") \
        .metadata.num_rows
    kernel_parts = max(_NP, int(np.ceil(n_li / 100_000)))

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])
    ords = consolidate_for_join(orders, 8)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_suppkey", "l_shipdate"])

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"o_orderkey": b["l_orderkey"],
                             "s_suppkey": b["l_suppkey"],
                             "l_shipdate": b["l_shipdate"]})

    joined = hash_join(li.map_batches(li_prep, batch_format="pandas"),
                       ords, on=["o_orderkey"], num_partitions=8)

    def flag(b: pd.DataFrame) -> pd.DataFrame:
        late = (b["l_shipdate"]
                > b["o_orderdate"] + pd.Timedelta(days=90))
        return pd.DataFrame({"o_orderkey": b["o_orderkey"],
                             "s_suppkey": b["s_suppkey"],
                             "late": late.to_numpy(bool)
                             .astype(np.int64)})

    def sole_late(part: pd.DataFrame) -> pd.DataFrame:
        pa = part.groupby(["o_orderkey", "s_suppkey"], sort=False,
                          observed=True)["late"].max().reset_index()
        grp = pa.groupby("o_orderkey", sort=False,
                         observed=True)["late"]
        n_supp = grp.transform("size")
        n_late = grp.transform("sum")
        keep = (pa["late"] == 1) & (n_late == 1) & (n_supp >= 2)
        return pa.loc[keep, ["s_suppkey"]]

    waits = keyed_map_partitions(
        joined.map_batches(flag, batch_format="pandas"),
        ["o_orderkey"], sole_late, num_partitions=kernel_parts)
    counts = hash_count(waits, ["s_suppkey"], out_col="numwait",
                        num_partitions=4).to_pandas()
    counts = counts.sort_values(["numwait", "s_suppkey"],
                                ascending=[False, True]).head(10)
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name"]).to_pandas()
    out = counts.merge(sup, on="s_suppkey")
    out["s_suppkey"] = out["s_suppkey"].astype(np.int64)
    out["numwait"] = out["numwait"].astype(np.int64)
    return out[["s_suppkey", "s_name", "numwait"]] \
        .sort_values(["numwait", "s_suppkey"],
                     ascending=[False, True]).reset_index(drop=True)


SQL_SUPPLIERS_KEPT_WAITING = """
    WITH j AS (
        SELECT l_orderkey, l_suppkey,
               max(CASE WHEN l_shipdate > o_orderdate + INTERVAL 90 DAY
                   THEN 1 ELSE 0 END) AS late
        FROM lineitem JOIN orders ON l_orderkey = o_orderkey
        GROUP BY 1, 2
    ), o AS (
        SELECT l_orderkey, count(*) AS n_supp, sum(late) AS n_late
        FROM j GROUP BY 1
    )
    SELECT CAST(s_suppkey AS BIGINT) AS s_suppkey, s_name,
           CAST(count(*) AS BIGINT) AS numwait
    FROM j JOIN o USING (l_orderkey)
    JOIN supplier ON s_suppkey = l_suppkey
    WHERE late = 1 AND n_late = 1 AND n_supp >= 2
    GROUP BY 1, 2 ORDER BY numwait DESC, s_suppkey LIMIT 10
"""


@entry("nation_profit", sql=lambda: SQL_NATION_PROFIT)
def q_nation_profit(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q9 shape (public spec; the synth schema has no partsupp,
    so unit cost is proxied as 0.6 × p_retailprice): per supplier nation
    and order year, profit on parts whose name contains 'a'. Part cost
    and supplier→nation are broadcast maps; the fact crosses one
    orderkey hash join for the year; sums pre-reduce map-side in the
    aggregate shuffle."""
    from forecastframe_ray.stages.join import (consolidate_for_join,
                                               hash_join)

    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_name",
                                  "p_retailprice"]).to_pandas()
    part = part[part["p_name"].str.contains("a", regex=False)]
    cost = dict(zip(part["p_partkey"],
                    part["p_retailprice"].to_numpy(np.float64)))
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"]).to_pandas()
    nmap = dict(zip(nat["n_nationkey"], nat["n_name"]))
    smap = {k: nmap[v] for k, v in zip(sup["s_suppkey"],
                                       sup["s_nationkey"])}

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderdate"])

    def ord_prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "o_orderkey": b["o_orderkey"],
            "o_year": b["o_orderdate"].dt.year.astype(np.int64)})

    ords = consolidate_for_join(
        orders.map_batches(ord_prep, batch_format="pandas"), 8)

    li = _read(sf_dir, "lineitem",
               ["l_orderkey", "l_partkey", "l_suppkey", "l_quantity",
                "l_extendedprice", "l_discount"])

    def li_prep(b: pd.DataFrame) -> pd.DataFrame:
        retail = b["l_partkey"].map(cost)
        keep = retail.notna().to_numpy(bool)
        b = b[keep]
        amount = (b["l_extendedprice"].to_numpy(np.float64)
                  * (1.0 - b["l_discount"].to_numpy(np.float64))
                  - 0.6 * retail[keep].to_numpy(np.float64)
                  * b["l_quantity"].to_numpy(np.float64))
        return pd.DataFrame({"o_orderkey": b["l_orderkey"],
                             "n_name": b["l_suppkey"].map(smap),
                             "amount": amount})

    joined = hash_join(li.map_batches(li_prep, batch_format="pandas"),
                       ords, on=["o_orderkey"], num_partitions=8)
    agg = hash_aggregate(joined, ["n_name", "o_year"],
                         {"profit": ("amount", "sum")},
                         num_partitions=4).to_pandas()
    agg = _round(agg, ["profit"], 6)
    agg["o_year"] = agg["o_year"].astype(np.int64)
    return agg[["n_name", "o_year", "profit"]] \
        .sort_values(["n_name", "o_year"],
                     ascending=[True, False]).reset_index(drop=True)


SQL_NATION_PROFIT = """
    SELECT n_name, CAST(year(o_orderdate) AS BIGINT) AS o_year,
           round(sum(l_extendedprice * (1 - l_discount)
                     - 0.6 * p_retailprice * l_quantity), 6) AS profit
    FROM lineitem
    JOIN orders ON l_orderkey = o_orderkey
    JOIN supplier ON l_suppkey = s_suppkey
    JOIN nation ON s_nationkey = n_nationkey
    JOIN part ON l_partkey = p_partkey
    WHERE p_name LIKE '%a%'
    GROUP BY 1, 2 ORDER BY 1, 2 DESC
"""


@entry("matrix_profile_daily", sql=lambda: SQL_MATRIX_PROFILE_DAILY)
def q_matrix_profile_daily(sf_dir: str) -> pd.DataFrame:
    """Matrix profile (Yeh et al. 2016, public) over each event type's
    daily series: for every length-7 subsequence, the Euclidean distance
    to its nearest non-trivial neighbor (exclusion zone |i−j| ≥ 4);
    reported as the series' top discord (max profile, the most anomalous
    week) and top motif (min profile, the most repeated week), ties to
    the earliest index. One keyed partition kernel; the pairwise matrix
    builds as 7 vectorized outer-difference accumulations (the
    brute-force STOMP baseline — a series' subsequence count is bounded
    by its time span, not the corpus, so the O(nw²) kernel stays
    per-task-bounded at any corpus scale; kilopoint-plus series would
    swap in the streaming STOMP recurrence). Distances round to 6dp
    before the arg-extremes so both engines break ties identically."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    m, excl = 7, 4

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            nw = len(v) - m + 1
            if nw < excl + 1:
                continue
            W = np.lib.stride_tricks.sliding_window_view(v, m)
            d2 = np.zeros((nw, nw))
            for k in range(m):
                diff = W[:, k, None] - W[None, :, k]
                d2 += diff * diff
            ii = np.arange(nw)
            d2[np.abs(ii[:, None] - ii[None, :]) < excl] = np.inf
            mp = np.round(np.sqrt(d2.min(axis=1)), 6)
            di = int(np.argmax(mp))  # first max = earliest discord
            mi = int(np.argmin(mp))  # first min = earliest motif
            rows.append((et, di, float(mp[di]), mi, float(mp[mi])))
        return pd.DataFrame(rows, columns=["event_type", "discord_i",
                                           "discord_dist", "motif_i",
                                           "motif_dist"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    for c in ("discord_i", "motif_i"):
        out[c] = out[c].astype(np.int64)
    return out[["event_type", "discord_i", "discord_dist",
                "motif_i", "motif_dist"]] \
        .sort_values("event_type").reset_index(drop=True)


SQL_MATRIX_PROFILE_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    s AS (
        SELECT event_type,
               CAST(row_number() OVER (PARTITION BY event_type
                    ORDER BY d) - 1 AS BIGINT) AS i, v
        FROM daily
    ),
    n AS (SELECT event_type, count(*) AS n FROM s GROUP BY 1),
    sub AS (
        SELECT s.event_type, s.i FROM s JOIN n USING (event_type)
        WHERE s.i <= n.n - 7
    ),
    pd AS (
        SELECT x.event_type, x.i AS i, y.i AS j,
               sum((sx.v - sy.v) * (sx.v - sy.v)) AS d2
        FROM sub x
        JOIN sub y ON x.event_type = y.event_type
                  AND abs(x.i - y.i) >= 4
        JOIN s sx ON sx.event_type = x.event_type
                 AND sx.i >= x.i AND sx.i < x.i + 7
        JOIN s sy ON sy.event_type = x.event_type
                 AND sy.i = sx.i - x.i + y.i
        GROUP BY 1, 2, 3
    ),
    mp AS (
        SELECT event_type, i, round(sqrt(min(d2)), 6) AS mp
        FROM pd GROUP BY 1, 2
    ),
    disc AS (
        SELECT event_type, i AS discord_i, mp AS discord_dist,
               row_number() OVER (PARTITION BY event_type
                    ORDER BY mp DESC, i) AS rn
        FROM mp
    ),
    mot AS (
        SELECT event_type, i AS motif_i, mp AS motif_dist,
               row_number() OVER (PARTITION BY event_type
                    ORDER BY mp ASC, i) AS rn
        FROM mp
    )
    SELECT d.event_type, d.discord_i, d.discord_dist,
           m.motif_i, m.motif_dist
    FROM disc d JOIN mot m ON d.event_type = m.event_type
    WHERE d.rn = 1 AND m.rn = 1
    ORDER BY 1
"""


@entry("ccnet_perplexity_documents", sql=lambda: SQL_CCNET_PERPLEXITY)
def q_ccnet_perplexity_documents(sf_dir: str) -> pd.DataFrame:
    """CCNet-style corpus-LM perplexity per document (Wenzek et al.
    2020, public; Laplace bigram LM stands in for KenLM so the full
    train+score chain is exactly SQL-checkable). See
    :func:`forecastframe_ray.pipelines.textstats.ccnet_perplexity`."""
    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    out = textstats.ccnet_perplexity(docs, min_count=2).to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out[["doc_id", "n_tokens", "ppl"]] \
        .sort_values("doc_id").reset_index(drop=True)


SQL_CCNET_PERPLEXITY = r"""
    WITH tok AS (
        SELECT doc_id,
               list_filter(string_split_regex(lower(text), '\s+'),
                           x -> x <> '') AS t
        FROM documents
    ),
    w AS (
        SELECT doc_id, generate_subscripts(t, 1) AS pos, unnest(t) AS w
        FROM tok
    ),
    rc AS (SELECT w, count(*) AS c FROM w GROUP BY 1),
    keep AS (SELECT w FROM rc WHERE c >= 2),
    wm AS (
        SELECT wv.doc_id, wv.pos,
               CASE WHEN k.w IS NULL THEN '<unk>' ELSE wv.w END AS w
        FROM w wv LEFT JOIN keep k ON wv.w = k.w
    ),
    c1 AS (SELECT w, count(*) AS c FROM wm GROUP BY 1),
    tv AS (SELECT (SELECT count(*) FROM wm) AS t_total,
                  (SELECT count(*) FROM c1) AS v_total),
    big AS (
        SELECT a.doc_id, a.w AS w1, b.w AS w2
        FROM wm a JOIN wm b
          ON a.doc_id = b.doc_id AND b.pos = a.pos + 1
    ),
    c2 AS (SELECT w1, w2, count(*) AS c FROM big GROUP BY 1, 2),
    lp AS (
        SELECT wm.doc_id,
               ln((c1.c + 1.0) / (tv.t_total + tv.v_total)) AS lp
        FROM wm JOIN c1 USING (w) CROSS JOIN tv
        WHERE wm.pos = 1
        UNION ALL
        SELECT big.doc_id,
               ln((c2.c + 1.0) / (c1p.c + tv.v_total)) AS lp
        FROM big
        JOIN c2 ON big.w1 = c2.w1 AND big.w2 = c2.w2
        JOIN c1 c1p ON c1p.w = big.w1
        CROSS JOIN tv
    )
    SELECT CAST(s.doc_id AS BIGINT) AS doc_id,
           CAST(n.n AS BIGINT) AS n_tokens,
           round(exp(-s.lp / n.n), 6) AS ppl
    FROM (SELECT doc_id, sum(lp) AS lp FROM lp GROUP BY 1) s
    JOIN (SELECT doc_id, count(*) AS n FROM wm GROUP BY 1) n
      USING (doc_id)
    ORDER BY 1
"""


@entry("dsir_weights_documents", sql=lambda: SQL_DSIR_WEIGHTS)
def q_dsir_weights_documents(sf_dir: str) -> pd.DataFrame:
    """DSIR importance weights (Xie et al. 2023, public): log-ratio of a
    src0-trained unigram LM to the raw-corpus LM per document — the data
    selection signal for matching a target domain. See
    :func:`forecastframe_ray.pipelines.textstats.dsir_weights`."""
    docs = _read(sf_dir, "documents", ["doc_id", "text", "source"])
    out = textstats.dsir_weights(
        docs, lambda b: (b["source"] == "src0").to_numpy(bool)) \
        .to_pandas()
    out["doc_id"] = out["doc_id"].astype(np.int64)
    return out[["doc_id", "n_tokens", "log_ratio", "avg_log_ratio"]] \
        .sort_values("doc_id").reset_index(drop=True)


SQL_DSIR_WEIGHTS = r"""
    WITH tok AS (
        SELECT doc_id, source,
               list_filter(string_split_regex(lower(text), '\s+'),
                           x -> x <> '') AS t
        FROM documents
    ),
    w AS (SELECT doc_id, source, unnest(t) AS w FROM tok),
    raw AS (SELECT w, count(*) AS c FROM w GROUP BY 1),
    tgt AS (SELECT w, count(*) AS c FROM w
            WHERE source = 'src0' GROUP BY 1),
    tv AS (SELECT (SELECT count(*) FROM w) AS t_raw,
                  (SELECT count(*) FROM w WHERE source = 'src0') AS t_tgt,
                  (SELECT count(*) FROM raw) AS v_raw),
    lp AS (
        SELECT w.doc_id,
               ln((COALESCE(tgt.c, 0) + 1.0) / (tv.t_tgt + tv.v_raw))
             - ln((raw.c + 1.0) / (tv.t_raw + tv.v_raw)) AS lr
        FROM w JOIN raw USING (w)
        LEFT JOIN tgt ON w.w = tgt.w
        CROSS JOIN tv
    )
    SELECT CAST(doc_id AS BIGINT) AS doc_id,
           CAST(count(*) AS BIGINT) AS n_tokens,
           round(sum(lr), 6) AS log_ratio,
           round(sum(lr) / count(*), 6) AS avg_log_ratio
    FROM lp GROUP BY 1 ORDER BY 1
"""


@entry("ols_reconciliation_daily", sql=lambda: SQL_OLS_RECONCILIATION)
def q_ols_reconciliation_daily(sf_dir: str) -> pd.DataFrame:
    """OLS (MinT-identity) forecast reconciliation (Hyndman FPP3 §11.3,
    public): seasonal-naive h=1..7 base forecasts for each event type
    AND the total series; for a one-level hierarchy the OLS projection
    has the closed form b̃ᵢ = ŷᵢ + (ŷ_T − Σŷ_b)/(k+1) — the coherence
    gap spreads equally over the k bottom series, and the reconciled
    total equals the reconciled bottom sum by construction. Base
    forecasts come off one keyed kernel over the daily aggregate; the
    reconciliation itself touches only the k×7 forecast frame on the
    driver."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def snaive(part: pd.DataFrame) -> pd.DataFrame:
        # CALENDAR-addressed source day (dmax − 7 + h), not positional —
        # a gap in the final week must drop that h in both engines
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            if len(g) < 7:
                continue
            sel = g.set_index("d")["v"]
            dmax = sel.index.max()
            for h in range(1, 8):
                src = dmax - pd.Timedelta(days=7 - h)
                if src in sel.index:
                    rows.append((et, h, float(sel.loc[src])))
        return pd.DataFrame(rows, columns=["event_type", "h", "base"])

    base = keyed_map_partitions(daily, ["event_type"], snaive,
                                num_partitions=_NP).to_pandas()
    # total series forecast: seasonal naive on the summed daily series
    tot_daily = hash_aggregate(daily, ["d"], {"v": ("v", "sum")},
                               num_partitions=4).to_pandas()
    tsel = tot_daily.set_index("d")["v"]
    tdmax = tsel.index.max()
    trows = [(h, float(np.round(tsel.loc[tdmax - pd.Timedelta(days=7 - h)],
                                6)))
             for h in range(1, 8)
             if tdmax - pd.Timedelta(days=7 - h) in tsel.index]
    top = pd.DataFrame(trows, columns=["h", "top_base"])

    k = base["event_type"].nunique()
    out = base.merge(top, on="h")
    bsum = out.groupby("h")["base"].transform("sum")
    out["reconciled"] = np.round(
        out["base"].to_numpy(np.float64)
        + (out["top_base"].to_numpy(np.float64) - bsum.to_numpy(np.float64))
        / (k + 1), 6)
    out["base"] = np.round(out["base"].to_numpy(np.float64), 6)
    out["h"] = out["h"].astype(np.int64)
    return out[["event_type", "h", "base", "reconciled"]] \
        .sort_values(["event_type", "h"]).reset_index(drop=True)


SQL_OLS_RECONCILIATION = f"""
    WITH daily AS ({_DAILY_SQL}),
    mx AS (SELECT event_type, max(d) AS dmax, count(*) AS n FROM daily
           GROUP BY 1),
    base AS (
        SELECT d.event_type, CAST(h.h AS BIGINT) AS h,
               round(d.v, 6) AS base
        FROM daily d
        JOIN mx ON d.event_type = mx.event_type
        CROSS JOIN (SELECT unnest(range(1, 8)) AS h) h
        WHERE mx.n >= 7
          AND d.d = mx.dmax - INTERVAL 7 DAY + h.h * INTERVAL 1 DAY
    ),
    tot AS (SELECT d, round(sum(v), 6) AS v FROM daily GROUP BY 1),
    tmx AS (SELECT max(d) AS dmax FROM tot),
    top AS (
        SELECT CAST(h.h AS BIGINT) AS h, t.v AS top_base
        FROM tot t CROSS JOIN tmx
        CROSS JOIN (SELECT unnest(range(1, 8)) AS h) h
        WHERE t.d = tmx.dmax - INTERVAL 7 DAY + h.h * INTERVAL 1 DAY
    ),
    kk AS (SELECT count(DISTINCT event_type) AS k FROM base)
    SELECT b.event_type, b.h, b.base,
           round(b.base + (top.top_base - sum(b.base) OVER (PARTITION BY b.h))
                 / (kk.k + 1), 6) AS reconciled
    FROM base b JOIN top USING (h) CROSS JOIN kk
    ORDER BY 1, 2
"""


@entry("supplier_part_diversity", sql=lambda: SQL_SUPPLIER_PART_DIVERSITY)
def q_supplier_part_diversity(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q16 shape (public spec; the synth schema has no partsupp,
    so the supplier↔part relation derives from shipped lineitems):
    distinct supplier count per (brand, type). Part dims broadcast; the
    (brand, type, suppkey) distinct is one narrow 3-key aggregate, the
    count one tiny follow-up."""
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_brand",
                                  "p_type"]).to_pandas()
    bmap = dict(zip(part["p_partkey"], part["p_brand"]))
    tmap = dict(zip(part["p_partkey"], part["p_type"]))
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "p_brand": b["l_partkey"].map(bmap),
            "p_type": b["l_partkey"].map(tmap),
            "s_suppkey": b["l_suppkey"]}).drop_duplicates()

    triples = hash_aggregate(li.map_batches(prep, batch_format="pandas"),
                             ["p_brand", "p_type", "s_suppkey"],
                             {"n": ("s_suppkey", "size")},
                             num_partitions=_NP)
    out = hash_count(triples, ["p_brand", "p_type"],
                     out_col="supplier_cnt", num_partitions=4).to_pandas()
    out["supplier_cnt"] = out["supplier_cnt"].astype(np.int64)
    return out[["p_brand", "p_type", "supplier_cnt"]] \
        .sort_values(["supplier_cnt", "p_brand", "p_type"],
                     ascending=[False, True, True]).reset_index(drop=True)


SQL_SUPPLIER_PART_DIVERSITY = """
    SELECT p_brand, p_type,
           CAST(count(DISTINCT l_suppkey) AS BIGINT) AS supplier_cnt
    FROM lineitem JOIN part ON p_partkey = l_partkey
    GROUP BY 1, 2 ORDER BY 3 DESC, 1, 2
"""


@entry("important_nation_stock", sql=lambda: SQL_IMPORTANT_NATION_STOCK)
def q_important_nation_stock(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q11 shape (public spec, nation-grained; partsupp value is
    proxied by shipped lineitem revenue per supplier nation): nations
    whose supplied value exceeds 1/50 of the global total. One broadcast
    map + one tiny aggregate; the threshold compares 6dp-rounded sums in
    both engines."""
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_nationkey"]).to_pandas()
    smap = dict(zip(sup["s_suppkey"], sup["s_nationkey"]))
    nat = pq.read_table(f"{sf_dir}/nation.parquet",
                        columns=["n_nationkey", "n_name"]).to_pandas()
    nmap = dict(zip(nat["n_nationkey"], nat["n_name"]))
    li = _read(sf_dir, "lineitem",
               ["l_suppkey", "l_extendedprice", "l_discount"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({
            "nk": b["l_suppkey"].map(smap),
            "val": b["l_extendedprice"].to_numpy(np.float64)
                   * (1.0 - b["l_discount"].to_numpy(np.float64))})

    agg = hash_aggregate(li.map_batches(prep, batch_format="pandas"),
                         ["nk"], {"value": ("val", "sum")},
                         num_partitions=4).to_pandas()
    agg = _round(agg, ["value"], 6)
    cut = np.round(agg["value"].sum() / 50.0, 6)
    agg = agg[agg["value"] > cut].copy()
    agg["n_name"] = agg["nk"].map(nmap)
    return agg[["n_name", "value"]].sort_values(
        ["value", "n_name"], ascending=[False, True]) \
        .reset_index(drop=True)


SQL_IMPORTANT_NATION_STOCK = """
    WITH v AS (
        SELECT n_name,
               round(sum(l_extendedprice * (1 - l_discount)), 6) AS value
        FROM lineitem
        JOIN supplier ON l_suppkey = s_suppkey
        JOIN nation ON s_nationkey = n_nationkey
        GROUP BY 1
    )
    SELECT n_name, value FROM v
    WHERE value > (SELECT round(sum(value) / 50.0, 6) FROM v)
    ORDER BY 2 DESC, 1
"""


@entry("heavy_small_part_suppliers",
       sql=lambda: SQL_HEAVY_SMALL_PART_SUPPLIERS)
def q_heavy_small_part_suppliers(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q20 shape (public spec, availability proxied by shipped
    quantity): suppliers whose 1996 shipped quantity of 'small%' parts
    exceeds half the per-supplier average. Small-part keys broadcast;
    one per-supplier aggregate; the cutoff compares 6dp-rounded
    quantities in both engines."""
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_name"]).to_pandas()
    pkeys = set(part.loc[part["p_name"].str.startswith("small"),
                         "p_partkey"])
    lo, hi = pd.Timestamp("1996-01-01"), pd.Timestamp("1997-01-01")
    li = _read(sf_dir, "lineitem",
               ["l_partkey", "l_suppkey", "l_quantity", "l_shipdate"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        b = b[(b["l_shipdate"] >= lo) & (b["l_shipdate"] < hi)
              & b["l_partkey"].isin(pkeys)]
        return pd.DataFrame({"s_suppkey": b["l_suppkey"],
                             "q": b["l_quantity"]
                             .to_numpy(np.float64)})

    agg = hash_aggregate(li.map_batches(prep, batch_format="pandas"),
                         ["s_suppkey"], {"qty": ("q", "sum")},
                         num_partitions=4).to_pandas()
    agg = _round(agg, ["qty"], 6)
    cut = np.round(0.5 * agg["qty"].mean(), 6)
    agg = agg[agg["qty"] > cut].copy()
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_name"]).to_pandas()
    agg = agg.merge(sup, on="s_suppkey")
    agg["s_suppkey"] = agg["s_suppkey"].astype(np.int64)
    return agg[["s_suppkey", "s_name", "qty"]] \
        .sort_values("s_suppkey").reset_index(drop=True)


SQL_HEAVY_SMALL_PART_SUPPLIERS = """
    WITH q AS (
        SELECT l_suppkey AS s_suppkey, round(sum(l_quantity), 6) AS qty
        FROM lineitem JOIN part ON p_partkey = l_partkey
        WHERE p_name LIKE 'small%'
          AND l_shipdate >= DATE '1996-01-01'
          AND l_shipdate < DATE '1997-01-01'
        GROUP BY 1
    )
    SELECT CAST(q.s_suppkey AS BIGINT) AS s_suppkey, s_name, qty
    FROM q JOIN supplier ON supplier.s_suppkey = q.s_suppkey
    WHERE qty > (SELECT round(0.5 * avg(qty), 6) FROM q)
    ORDER BY 1
"""


@entry("best_balance_supplier_per_class",
       sql=lambda: SQL_BEST_BALANCE_SUPPLIER)
def q_best_balance_supplier_per_class(sf_dir: str) -> pd.DataFrame:
    """TPC-H Q2 shape (public spec; min supplycost becomes max account
    balance since the synth schema has no partsupp — the correlated
    per-group extreme is the shape under test): for each (p_type,
    p_size) class, the supplier(s) with the highest account balance
    among those who shipped a part of that class. The distinct
    (part, supplier) edge set is one narrow aggregate; dims broadcast;
    the per-class max is a tiny second aggregate joined back."""
    li = _read(sf_dir, "lineitem", ["l_partkey", "l_suppkey"])
    pairs = hash_aggregate(
        li.map_batches(
            lambda b: b[["l_partkey", "l_suppkey"]].drop_duplicates(),
            batch_format="pandas"),
        ["l_partkey", "l_suppkey"], {"n": ("l_partkey", "size")},
        num_partitions=_NP).to_pandas()
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type",
                                  "p_size"]).to_pandas()
    sup = pq.read_table(f"{sf_dir}/supplier.parquet",
                        columns=["s_suppkey", "s_acctbal"]).to_pandas()
    j = pairs.rename(columns={"l_partkey": "p_partkey",
                              "l_suppkey": "s_suppkey"}) \
        .merge(part, on="p_partkey").merge(sup, on="s_suppkey")
    mb = j.groupby(["p_type", "p_size"], sort=False)["s_acctbal"] \
        .transform("max")
    out = j[j["s_acctbal"] == mb][["p_type", "p_size", "s_suppkey",
                                   "s_acctbal"]].drop_duplicates()
    out = _round(out, ["s_acctbal"], 6)
    out["p_size"] = out["p_size"].astype(np.int64)
    out["s_suppkey"] = out["s_suppkey"].astype(np.int64)
    return out.sort_values(["p_type", "p_size", "s_suppkey"]) \
        .reset_index(drop=True)


SQL_BEST_BALANCE_SUPPLIER = """
    WITH sp AS (
        SELECT DISTINCT l_partkey AS p_partkey, l_suppkey AS s_suppkey
        FROM lineitem
    ),
    j AS (
        SELECT DISTINCT p_type, CAST(p_size AS BIGINT) AS p_size,
               CAST(s.s_suppkey AS BIGINT) AS s_suppkey, s_acctbal
        FROM sp JOIN part USING (p_partkey)
        JOIN supplier s USING (s_suppkey)
    ),
    m AS (SELECT p_type, p_size, max(s_acctbal) AS mb
          FROM j GROUP BY 1, 2)
    SELECT j.p_type, j.p_size, j.s_suppkey,
           round(j.s_acctbal, 6) AS s_acctbal
    FROM j JOIN m USING (p_type, p_size)
    WHERE j.s_acctbal = m.mb
    ORDER BY 1, 2, 3
"""


@entry("burstiness_fano_events", sql=lambda: SQL_BURSTINESS_FANO)
def q_burstiness_fano_events(sf_dir: str) -> pd.DataFrame:
    """Burstiness B = (σ−μ)/(σ+μ) of inter-event gap seconds
    (Goh & Barabási 2008, public) and the Fano factor (index of
    dispersion, var/mean of DAILY event counts) per event type — the
    two standard clumpiness diagnostics for point processes. Gaps are
    exact integer-µs diffs (tie order cannot change the multiset), the
    moments come from one key-co-located two-pass kernel (numerically
    stable, matching DuckDB's streaming variance at 6dp)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            us = np.sort(g["ts"].astype("int64").to_numpy())
            if len(us) < 2:
                continue
            gaps = np.diff(us) / 1e6
            mu, sd = float(gaps.mean()), float(gaps.std())
            days = us // DAY_US
            c = np.unique(days, return_counts=True)[1] \
                .astype(np.float64)
            fano = float(c.var(ddof=1) / c.mean()) if len(c) > 1 \
                else NULLF
            rows.append((et, len(gaps),
                         np.round((sd - mu) / (sd + mu), 6),
                         np.round(fano, 6)))
        return pd.DataFrame(rows, columns=["event_type", "n_gaps",
                                           "burstiness", "fano_daily"])

    out = keyed_map_partitions(ev, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_gaps"] = out["n_gaps"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_BURSTINESS_FANO = """
    WITH g AS (
        SELECT event_type,
               (epoch_us(ts) - LAG(epoch_us(ts)) OVER
                   (PARTITION BY event_type ORDER BY ts)) / 1e6 AS gap
        FROM events
    ),
    b AS (
        SELECT event_type, CAST(count(gap) AS BIGINT) AS n_gaps,
               avg(gap) AS mu, stddev_pop(gap) AS sd
        FROM g WHERE gap IS NOT NULL GROUP BY 1
    ),
    c AS (
        SELECT event_type, date_trunc('day', ts) AS d, count(*) AS c
        FROM events GROUP BY 1, 2
    ),
    f AS (
        SELECT event_type, var_samp(c) / avg(c) AS fano
        FROM c GROUP BY 1
    )
    SELECT b.event_type, b.n_gaps,
           round((b.sd - b.mu) / (b.sd + b.mu), 6) AS burstiness,
           round(f.fano, 6) AS fano_daily
    FROM b JOIN f USING (event_type) ORDER BY 1
"""


@entry("hurst_rs_daily", sql=lambda: SQL_HURST_RS_DAILY)
def q_hurst_rs_daily(sf_dir: str) -> pd.DataFrame:
    """Hurst exponent by rescaled-range analysis (Hurst 1951 / Mandelbrot
    & Wallis 1969, public): per event type's daily series, mean R/S over
    consecutive blocks at sizes {5, 10, 15} (R = range of in-block
    cumulative deviations, S = in-block population std, zero-S blocks
    skipped), then H = OLS slope of ln(R/S) on ln(n). Block-mean R/S is
    6dp-rounded before the log-regression so both engines regress on
    identical operands; one key-co-located vectorized kernel."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    sizes = (5, 10, 15)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            ln_n, ln_rs = [], []
            for n in sizes:
                nb = len(v) // n
                if nb < 1:
                    continue
                x = v[:nb * n].reshape(nb, n)
                y = (x - x.mean(axis=1, keepdims=True)).cumsum(axis=1)
                r = y.max(axis=1) - y.min(axis=1)
                s = x.std(axis=1)
                ok = s > 0
                if not ok.any():
                    continue
                rs = np.round(float((r[ok] / s[ok]).mean()), 6)
                ln_n.append(np.log(float(n)))
                ln_rs.append(np.log(rs))
            if len(ln_n) < 2:
                continue
            lx, ly = np.array(ln_n), np.array(ln_rs)
            h = float(((lx - lx.mean()) * (ly - ly.mean())).sum()
                      / ((lx - lx.mean()) ** 2).sum())
            rows.append((et, len(v), np.round(h, 6)))
        return pd.DataFrame(rows, columns=["event_type", "n_points",
                                           "hurst"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_points"] = out["n_points"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_HURST_RS_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    s AS (
        SELECT event_type,
               row_number() OVER (PARTITION BY event_type
                    ORDER BY d) - 1 AS rn, v
        FROM daily
    ),
    cnt AS (SELECT event_type, count(*) AS nn FROM s GROUP BY 1),
    sz AS (SELECT unnest([5, 10, 15]) AS n),
    x AS (
        SELECT s.event_type, sz.n, s.rn // sz.n AS blk, s.rn, s.v
        FROM s JOIN cnt USING (event_type) CROSS JOIN sz
        WHERE s.rn < (cnt.nn // sz.n) * sz.n
    ),
    y AS (
        SELECT event_type, n, blk, rn,
               sum(v - avg_v) OVER (PARTITION BY event_type, n, blk
                    ORDER BY rn) AS cum
        FROM (SELECT *, avg(v) OVER (PARTITION BY event_type, n, blk)
                    AS avg_v FROM x)
    ),
    rb AS (
        SELECT event_type, n, blk, max(cum) - min(cum) AS r
        FROM y GROUP BY 1, 2, 3
    ),
    sb AS (
        SELECT event_type, n, blk, stddev_pop(v) AS sd
        FROM x GROUP BY 1, 2, 3
    ),
    rs AS (
        SELECT event_type, n, round(avg(r / sd), 6) AS rs
        FROM rb JOIN sb USING (event_type, n, blk)
        WHERE sd > 0 GROUP BY 1, 2
    )
    SELECT rs.event_type, CAST(cnt.nn AS BIGINT) AS n_points,
           round(regr_slope(ln(rs), ln(n)), 6) AS hurst
    FROM rs JOIN cnt USING (event_type)
    GROUP BY 1, 2 HAVING count(*) >= 2
    ORDER BY 1
"""


@entry("nonlinear_signal_daily", sql=lambda: SQL_NONLINEAR_SIGNAL)
def q_nonlinear_signal_daily(sf_dir: str) -> pd.DataFrame:
    """Two classic nonlinear signal descriptors per event type's daily
    series (both public): mean Teager-Kaiser operator energy
    ψ = x²ₜ − xₜ₋₁xₜ₊₁ (Kaiser 1990 — instantaneous energy weighting
    frequency as well as amplitude), and the Poincaré-plot dispersion
    SD1/SD2 (Brennan et al. 2001 — short- vs long-range variability of
    the (xₜ, xₜ₊₁) return map: SD1² = var(xₜ−xₜ₊₁)/2,
    SD2² = var(xₜ+xₜ₊₁)/2, population variance). One key-co-located
    vectorized kernel; the SQL twin mirrors via LAG/LEAD."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            if len(v) < 3:
                continue
            tk = v[1:-1] ** 2 - v[:-2] * v[2:]
            d, s = v[:-1] - v[1:], v[:-1] + v[1:]
            sd1 = np.sqrt(np.var(d) / 2.0)
            sd2 = np.sqrt(np.var(s) / 2.0)
            rows.append((et, np.round(float(tk.mean()), 6),
                         np.round(sd1, 6), np.round(sd2, 6),
                         np.round(sd1 / sd2, 6)))
        return pd.DataFrame(rows, columns=["event_type", "tk_energy",
                                           "sd1", "sd2", "sd_ratio"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


SQL_NONLINEAR_SIGNAL = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (
        SELECT event_type, v,
               LAG(v) OVER win AS pv, LEAD(v) OVER win AS nv
        FROM daily WINDOW win AS (PARTITION BY event_type ORDER BY d)
    ),
    tk AS (
        SELECT event_type, avg(v * v - pv * nv) AS tk_energy
        FROM w WHERE pv IS NOT NULL AND nv IS NOT NULL GROUP BY 1
    ),
    pc AS (
        SELECT event_type,
               sqrt(var_pop(v - nv) / 2.0) AS sd1,
               sqrt(var_pop(v + nv) / 2.0) AS sd2
        FROM w WHERE nv IS NOT NULL GROUP BY 1
    )
    SELECT tk.event_type, round(tk.tk_energy, 6) AS tk_energy,
           round(pc.sd1, 6) AS sd1, round(pc.sd2, 6) AS sd2,
           round(pc.sd1 / pc.sd2, 6) AS sd_ratio
    FROM tk JOIN pc USING (event_type) ORDER BY 1
"""


@entry("higuchi_fd_daily", sql=lambda: SQL_HIGUCHI_FD_DAILY)
def q_higuchi_fd_daily(sf_dir: str) -> pd.DataFrame:
    """Higuchi fractal dimension (Higuchi 1988, public) of each event
    type's daily series: for k ∈ {1..4} and offsets m < k the stride-k
    curve length L_m(k) = (Σ|x_{{m+ik}} − x_{{m+(i−1)k}}|)·(N−1)/(n_i·k²)
    averaged over m; FD = −slope of OLS ln L(k) on ln k. Per-k mean
    lengths are 6dp-rounded before the log regression so both engines
    regress identical operands. The stride-k diff is LAG(v, k) row
    arithmetic in SQL — no per-row Python anywhere."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    kmax = 4

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            if n < kmax + 2:
                continue
            ln_k, ln_l = [], []
            for k in range(1, kmax + 1):
                diffs = np.abs(v[k:] - v[:-k])  # |x_t - x_{t-k}|
                m = np.arange(n - k) % k        # offset class of t-k
                lens = []
                for off in range(k):
                    dm = diffs[m == off]
                    if len(dm) == 0:
                        continue
                    lens.append(dm.sum() * (n - 1)
                                / (len(dm) * k * k))
                if not lens:
                    continue
                ln_k.append(np.log(float(k)))
                ln_l.append(np.log(np.round(float(np.mean(lens)), 6)))
            if len(ln_k) < 2:
                continue
            lx, ly = np.array(ln_k), np.array(ln_l)
            slope = float(((lx - lx.mean()) * (ly - ly.mean())).sum()
                          / ((lx - lx.mean()) ** 2).sum())
            rows.append((et, n, np.round(-slope, 6)))
        return pd.DataFrame(rows, columns=["event_type", "n_points",
                                           "higuchi_fd"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_points"] = out["n_points"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_HIGUCHI_FD_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    s AS (
        SELECT event_type,
               row_number() OVER (PARTITION BY event_type
                    ORDER BY d) - 1 AS rn, v
        FROM daily
    ),
    cnt AS (SELECT event_type, count(*) AS nn FROM s GROUP BY 1),
    ks AS (SELECT unnest([1, 2, 3, 4]) AS k),
    d AS (
        SELECT s.event_type, ks.k, (s.rn - ks.k) % ks.k AS m,
               abs(s.v - LAG(s.v, ks.k) OVER (PARTITION BY s.event_type,
                    ks.k ORDER BY s.rn)) AS ad
        FROM s CROSS JOIN ks
    ),
    lm AS (
        SELECT d.event_type, d.k, d.m,
               sum(d.ad) * (cnt.nn - 1)
                   / (count(d.ad) * d.k * d.k) AS l
        FROM d JOIN cnt USING (event_type)
        WHERE d.ad IS NOT NULL
        GROUP BY 1, 2, 3, cnt.nn
    ),
    lk AS (
        SELECT event_type, k, round(avg(l), 6) AS l
        FROM lm GROUP BY 1, 2
    )
    SELECT lk.event_type, CAST(cnt.nn AS BIGINT) AS n_points,
           round(-regr_slope(ln(l), ln(k)), 6) AS higuchi_fd
    FROM lk JOIN cnt USING (event_type)
    GROUP BY 1, 2 HAVING count(*) >= 2
    ORDER BY 1
"""


@entry("hjorth_params_daily", sql=lambda: SQL_HJORTH_PARAMS)
def q_hjorth_params_daily(sf_dir: str) -> pd.DataFrame:
    """Hjorth parameters (Hjorth 1970, public — the EEG-era descriptors
    of variance structure): per event type's daily series, activity =
    var(x), mobility = √(var(Δx)/var(x)), complexity =
    mobility(Δx)/mobility(x). Population variances; one key-co-located
    kernel; LAG arithmetic in the SQL twin."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            if len(v) < 3:
                continue
            d1, d2 = np.diff(v), np.diff(np.diff(v))
            va, vd1, vd2 = np.var(v), np.var(d1), np.var(d2)
            mob = np.sqrt(vd1 / va)
            comp = np.sqrt(vd2 / vd1) / mob
            rows.append((et, np.round(va, 6), np.round(mob, 6),
                         np.round(comp, 6)))
        return pd.DataFrame(rows, columns=["event_type", "activity",
                                           "mobility", "complexity"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


SQL_HJORTH_PARAMS = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (
        SELECT event_type, d, v,
               v - LAG(v) OVER win AS d1
        FROM daily WINDOW win AS (PARTITION BY event_type ORDER BY d)
    ),
    w2 AS (
        SELECT event_type, v, d1,
               d1 - LAG(d1) OVER (PARTITION BY event_type
                    ORDER BY d) AS d2
        FROM w
    ),
    agg AS (
        SELECT event_type,
               var_pop(v) AS va, var_pop(d1) AS vd1, var_pop(d2) AS vd2
        FROM w2 GROUP BY 1
    )
    SELECT event_type, round(va, 6) AS activity,
           round(sqrt(vd1 / va), 6) AS mobility,
           round(sqrt(vd2 / vd1) / sqrt(vd1 / va), 6) AS complexity
    FROM agg ORDER BY 1
"""


@entry("anderson_darling_daily", sql=lambda: SQL_ANDERSON_DARLING)
def q_anderson_darling_daily(sf_dir: str) -> pd.DataFrame:
    """Anderson-Darling normality statistic (Anderson & Darling 1952,
    public) per event type's daily series: standardize with the sample
    moments, sort, A² = −n − (1/n)·Σ(2i−1)·[ln Φ(z₍ᵢ₎) +
    ln(1−Φ(z₍ₙ₊₁₋ᵢ₎))]. Φ is the shared Abramowitz & Stegun 7.1.26
    polynomial implemented identically in the SQL twin; z scores are
    6dp-rounded before Φ so both engines transform identical operands
    (tied z across ranks leave the sum invariant). Also reports the
    param-adjusted A*² = A²(1 + 0.75/n + 2.25/n²) (Stephens 1974)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            if n < 8:
                continue
            z = np.round((v - v.mean()) / v.std(ddof=1), 6)
            z.sort()
            ph = _phi_as(z)
            i = np.arange(1, n + 1)
            a2 = -n - ((2 * i - 1)
                       * (np.log(ph) + np.log(1.0 - ph[::-1]))).sum() / n
            a2s = a2 * (1.0 + 0.75 / n + 2.25 / (n * n))
            rows.append((et, n, np.round(a2, 6), np.round(a2s, 6)))
        return pd.DataFrame(rows, columns=["event_type", "n_points",
                                           "a2", "a2_star"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_points"] = out["n_points"].astype(np.int64)
    return out.sort_values("event_type").reset_index(drop=True)


SQL_ANDERSON_DARLING = f"""
    WITH daily AS ({_DAILY_SQL}),
    mo AS (
        SELECT event_type, avg(v) AS mu, stddev_samp(v) AS sd,
               count(*) AS n
        FROM daily GROUP BY 1 HAVING count(*) >= 8
    ),
    z AS (
        SELECT d.event_type, mo.n,
               round((d.v - mo.mu) / mo.sd, 6) AS z
        FROM daily d JOIN mo USING (event_type)
    ),
    r AS (
        SELECT event_type, n, z,
               row_number() OVER (PARTITION BY event_type
                    ORDER BY z) AS i
        FROM z
    ),
    p AS (
        SELECT event_type, n, i,
               CASE WHEN z >= 0 THEN (1.0 + ef) / 2.0
                    ELSE (1.0 - ef) / 2.0 END AS phi
        FROM (
            SELECT *,
                   1.0 - (0.254829592 * t - 0.284496736 * t * t
                          + 1.421413741 * t * t * t
                          - 1.453152027 * t * t * t * t
                          + 1.061405429 * t * t * t * t * t)
                         * exp(-x * x) AS ef
            FROM (
                SELECT *, 1.0 / (1.0 + 0.3275911 * x) AS t
                FROM (SELECT *, abs(z) / sqrt(2.0) AS x FROM r)
            )
        )
    ),
    terms AS (
        SELECT a.event_type, a.n,
               (2 * a.i - 1) * (ln(a.phi) + ln(1.0 - b.phi)) AS term
        FROM p a JOIN p b
          ON a.event_type = b.event_type AND b.i = a.n + 1 - a.i
    ),
    a2 AS (
        SELECT event_type, n, -n - sum(term) / n AS a2
        FROM terms GROUP BY 1, 2
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_points,
           round(a2, 6) AS a2,
           round(a2 * (1.0 + 0.75 / n + 2.25 / (n * n)), 6) AS a2_star
    FROM a2 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# distribution-distance two-sample statistics (energy distance, Wasserstein)
# and the D'Agostino-Pearson omnibus normality test
# ---------------------------------------------------------------------------

@entry("energy_distance_weekend", sql=lambda: SQL_ENERGY_DISTANCE_WEEKEND)
def q_energy_distance_weekend(sf_dir: str) -> pd.DataFrame:
    """Energy distance (Székely & Rizzo 2004, public) between the weekend
    and weekday daily distributions per event type: E = 2·E|X−Y| − E|X−X′|
    − E|Y−Y′| in the V-statistic (self-pairs included) form, plus the test
    statistic T = nm/(n+m)·E. Pair grids are days² — bounded per series —
    inside one key-co-located kernel; the SQL twin spells the same three
    cross joins."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            dow = g["d"].dt.dayofweek.to_numpy() + 1
            v = g["v"].to_numpy(np.float64)
            x, y = v[dow >= 6], v[dow <= 5]
            n, m = len(x), len(y)
            if n == 0 or m == 0:
                continue
            a = np.abs(x[:, None] - y[None, :]).mean()
            b = np.abs(x[:, None] - x[None, :]).mean()
            c = np.abs(y[:, None] - y[None, :]).mean()
            e = 2.0 * a - b - c
            t = n * m / (n + m) * e
            rows.append((et, np.int64(n), np.int64(m),
                         np.round(e, 6) + 0.0, np.round(t, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_weekend",
                                           "n_weekday", "energy_dist",
                                           "t_stat"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_weekend": "int64", "n_weekday": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_ENERGY_DISTANCE_WEEKEND = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (SELECT event_type, isodow(d) AS dow, v FROM daily),
    x AS (SELECT event_type, v FROM w WHERE dow >= 6),
    y AS (SELECT event_type, v FROM w WHERE dow <= 5),
    axy AS (
        SELECT a.event_type, avg(abs(a.v - b.v)) AS a
        FROM x a JOIN y b USING (event_type) GROUP BY 1
    ),
    bxx AS (
        SELECT a.event_type, avg(abs(a.v - b.v)) AS b,
               count(DISTINCT a.rn) AS n
        FROM (SELECT event_type, v, row_number() OVER () AS rn FROM x) a
        JOIN (SELECT event_type, v FROM x) b USING (event_type)
        GROUP BY 1
    ),
    cyy AS (
        SELECT a.event_type, avg(abs(a.v - b.v)) AS c,
               count(DISTINCT a.rn) AS m
        FROM (SELECT event_type, v, row_number() OVER () AS rn FROM y) a
        JOIN (SELECT event_type, v FROM y) b USING (event_type)
        GROUP BY 1
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_weekend,
           CAST(m AS BIGINT) AS n_weekday,
           round(2 * a - b - c, 6) + 0.0 AS energy_dist,
           round(n * m / (n + m) * (2 * a - b - c), 6) + 0.0 AS t_stat
    FROM axy JOIN bxx USING (event_type) JOIN cyy USING (event_type)
    ORDER BY 1
"""


@entry("wasserstein_weekend", sql=lambda: SQL_WASSERSTEIN_WEEKEND)
def q_wasserstein_weekend(sf_dir: str) -> pd.DataFrame:
    """Wasserstein-1 (earth-mover) distance between the weekend and weekday
    daily distributions per event type, by the exact 1-D closed form:
    W₁ = ∫|F_x(u) − F_y(u)| du over the merged support — the ECDF-gap sum
    weighted by consecutive-value gaps. One key-co-located kernel; the SQL
    twin computes the same cumulative counts with window functions."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            dow = g["d"].dt.dayofweek.to_numpy() + 1
            v = g["v"].to_numpy(np.float64)
            x, y = np.sort(v[dow >= 6]), np.sort(v[dow <= 5])
            n, m = len(x), len(y)
            if n == 0 or m == 0:
                continue
            allv = np.sort(np.concatenate([x, y]))
            deltas = np.diff(allv)
            fx = np.searchsorted(x, allv[:-1], side="right") / n
            fy = np.searchsorted(y, allv[:-1], side="right") / m
            w1 = float((np.abs(fx - fy) * deltas).sum())
            rows.append((et, np.int64(n), np.int64(m),
                         np.round(w1, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_weekend",
                                           "n_weekday", "w1"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_weekend": "int64", "n_weekday": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_WASSERSTEIN_WEEKEND = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (
        SELECT event_type, v,
               CASE WHEN isodow(d) >= 6 THEN 1 ELSE 0 END AS is_x
        FROM daily
    ),
    nn AS (
        SELECT event_type, sum(is_x) AS n, sum(1 - is_x) AS m
        FROM w GROUP BY 1 HAVING sum(is_x) > 0 AND sum(1 - is_x) > 0
    ),
    g AS (
        SELECT event_type, v, sum(is_x) AS cx, sum(1 - is_x) AS cy
        FROM w GROUP BY 1, 2
    ),
    c AS (
        SELECT event_type, v,
               sum(cx) OVER win AS cumx, sum(cy) OVER win AS cumy,
               lead(v) OVER win AS nv
        FROM g WINDOW win AS (PARTITION BY event_type ORDER BY v)
    )
    SELECT c.event_type, CAST(nn.n AS BIGINT) AS n_weekend,
           CAST(nn.m AS BIGINT) AS n_weekday,
           round(sum(abs(c.cumx / nn.n - c.cumy / nn.m)
                     * (c.nv - c.v)), 6) + 0.0 AS w1
    FROM c JOIN nn USING (event_type)
    WHERE c.nv IS NOT NULL
    GROUP BY 1, 2, 3 ORDER BY 1
"""


@entry("dagostino_k2_daily", sql=lambda: SQL_DAGOSTINO_K2)
def q_dagostino_k2_daily(sf_dir: str) -> pd.DataFrame:
    """D'Agostino-Pearson K² omnibus normality test (D'Agostino 1970;
    Anscombe & Glynn 1983; public): per daily series, the skewness z
    (Johnson SU transform of √b₁) and kurtosis z (Wilson-Hilferty cube
    root of b₂), combined as K² = z₁² + z₂² — the omnibus complement of
    the EDF-based Anderson-Darling entry. All closed-form moment algebra,
    identical in the SQL twin."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["v"].to_numpy(np.float64)
            n = float(len(v))
            if n < 20:
                continue
            d = v - v.mean()
            m2 = (d ** 2).mean()
            if m2 <= 0:
                continue
            b1 = (d ** 3).mean() / m2 ** 1.5
            b2 = (d ** 4).mean() / m2 ** 2
            # skewness z (D'Agostino 1970)
            yy = b1 * np.sqrt((n + 1) * (n + 3) / (6 * (n - 2)))
            beta2 = (3 * (n * n + 27 * n - 70) * (n + 1) * (n + 3)
                     / ((n - 2) * (n + 5) * (n + 7) * (n + 9)))
            w2 = -1.0 + np.sqrt(2 * (beta2 - 1))
            delta = 1.0 / np.sqrt(np.log(np.sqrt(w2)))
            alpha = np.sqrt(2.0 / (w2 - 1))
            z1 = delta * np.log(yy / alpha
                                + np.sqrt((yy / alpha) ** 2 + 1))
            # kurtosis z (Anscombe & Glynn 1983)
            eb2 = 3 * (n - 1) / (n + 1)
            vb2 = (24 * n * (n - 2) * (n - 3)
                   / ((n + 1) ** 2 * (n + 3) * (n + 5)))
            xx = (b2 - eb2) / np.sqrt(vb2)
            sb = (6 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
                  * np.sqrt(6 * (n + 3) * (n + 5)
                            / (n * (n - 2) * (n - 3))))
            aa = 6 + 8 / sb * (2 / sb + np.sqrt(1 + 4 / sb ** 2))
            z2 = ((1 - 2 / (9 * aa)
                   - np.cbrt((1 - 2 / aa)
                             / (1 + xx * np.sqrt(2 / (aa - 4)))))
                  / np.sqrt(2 / (9 * aa)))
            rows.append((et, np.int64(n), np.round(z1, 6) + 0.0,
                         np.round(z2, 6) + 0.0,
                         np.round(z1 * z1 + z2 * z2, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "z_skew", "z_kurt", "k2"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DAGOSTINO_K2 = f"""
    WITH daily AS ({_DAILY_SQL}),
    mo AS (
        SELECT event_type, count(*)::DOUBLE AS n, avg(v) AS mu
        FROM daily GROUP BY 1 HAVING count(*) >= 20
    ),
    mm AS (
        SELECT d.event_type, mo.n,
               avg(pow(d.v - mo.mu, 2)) AS m2,
               avg(pow(d.v - mo.mu, 3)) AS m3,
               avg(pow(d.v - mo.mu, 4)) AS m4
        FROM daily d JOIN mo USING (event_type)
        GROUP BY 1, 2 HAVING avg(pow(d.v - mo.mu, 2)) > 0
    ),
    b AS (
        SELECT event_type, n, m3 / pow(m2, 1.5) AS b1,
               m4 / (m2 * m2) AS b2
        FROM mm
    ),
    z1c AS (
        SELECT *,
               b1 * sqrt((n + 1) * (n + 3) / (6 * (n - 2))) AS yy,
               -1.0 + sqrt(2 * (3 * (n * n + 27 * n - 70) * (n + 1)
                    * (n + 3) / ((n - 2) * (n + 5) * (n + 7) * (n + 9))
                    - 1)) AS w2
        FROM b
    ),
    z1 AS (
        SELECT *,
               (1.0 / sqrt(ln(sqrt(w2))))
               * ln(yy / sqrt(2.0 / (w2 - 1))
                    + sqrt(pow(yy / sqrt(2.0 / (w2 - 1)), 2) + 1)) AS z1
        FROM z1c
    ),
    z2c AS (
        SELECT *,
               (b2 - 3 * (n - 1) / (n + 1))
                   / sqrt(24 * n * (n - 2) * (n - 3)
                          / (pow(n + 1, 2) * (n + 3) * (n + 5))) AS xx,
               6 * (n * n - 5 * n + 2) / ((n + 7) * (n + 9))
                   * sqrt(6 * (n + 3) * (n + 5)
                          / (n * (n - 2) * (n - 3))) AS sb
        FROM z1
    ),
    z2a AS (
        SELECT *, 6 + 8 / sb * (2 / sb + sqrt(1 + 4 / (sb * sb))) AS aa
        FROM z2c
    ),
    z2 AS (
        SELECT *,
               (1 - 2 / (9 * aa)
                - cbrt((1 - 2 / aa)
                       / (1 + xx * sqrt(2 / (aa - 4)))))
                   / sqrt(2 / (9 * aa)) AS z2
        FROM z2a
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           round(z1, 6) + 0.0 AS z_skew, round(z2, 6) + 0.0 AS z_kurt,
           round(z1 * z1 + z2 * z2, 6) + 0.0 AS k2
    FROM z2 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Watson U² circular uniformity, detrended fluctuation analysis, Hopkins
# clusterability statistic
# ---------------------------------------------------------------------------

@entry("watson_u2_events", sql=lambda: SQL_WATSON_U2)
def q_watson_u2_events(sf_dir: str) -> pd.DataFrame:
    """Watson's U² test (Watson 1961, public) that time-of-day is uniform
    on the circle, per event type: u = (µs-of-day)/86400e6 sorted, W² =
    Σ(u₍ᵢ₎ − (2i−1)/2n)² + 1/12n, U² = W² − n(ū − ½)² — the rotation-
    invariant Cramér-von Mises variant, complementing the Rayleigh
    resultant in ``circular_hour_events``. Tie order among equal u is
    sum-invariant, so both engines agree without a tiebreak."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def to_u(b: pd.DataFrame) -> pd.DataFrame:
        us_day = (b["ts"].astype("int64").to_numpy() % DAY_US) \
            .astype(np.float64)
        return pd.DataFrame({"event_type": b["event_type"],
                             "u": us_day / float(DAY_US)})

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            u = np.sort(g["u"].to_numpy(np.float64))
            n = len(u)
            if n < 2:
                continue
            i = np.arange(1, n + 1, dtype=np.float64)
            w2 = ((u - (2 * i - 1) / (2 * n)) ** 2).sum() + 1 / (12 * n)
            u2 = w2 - n * (u.mean() - 0.5) ** 2
            rows.append((et, np.int64(n), np.round(w2, 6) + 0.0,
                         np.round(u2, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_events",
                                           "w2", "u2"])

    out = keyed_map_partitions(
        ev.map_batches(to_u, batch_format="pandas"),
        ["event_type"], kernel, num_partitions=_NP).to_pandas()
    out["n_events"] = out["n_events"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_WATSON_U2 = f"""
    WITH u AS (
        SELECT event_type,
               CAST(epoch_us(ts) % {DAY_US} AS DOUBLE) / {DAY_US}.0 AS u
        FROM events
    ),
    r AS (
        SELECT event_type, u,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY u) AS i,
               count(*) OVER (PARTITION BY event_type) AS n,
               avg(u) OVER (PARTITION BY event_type) AS ubar
        FROM u
    ),
    w AS (
        SELECT event_type, CAST(max(n) AS BIGINT) AS n_events,
               sum(pow(u - (2 * i - 1) / (2.0 * n), 2))
                   + 1.0 / (12 * max(n)) AS w2,
               max(n) * pow(max(ubar) - 0.5, 2) AS corr
        FROM r GROUP BY 1 HAVING max(n) >= 2
    )
    SELECT event_type, n_events, round(w2, 6) + 0.0 AS w2,
           round(w2 - corr, 6) + 0.0 AS u2
    FROM w ORDER BY 1
"""


@entry("dfa_daily", sql=lambda: SQL_DFA_DAILY)
def q_dfa_daily(sf_dir: str) -> pd.DataFrame:
    """Detrended fluctuation analysis (Peng et al. 1994, public — the
    long-memory exponent robust to nonstationarity, complementing the R/S
    Hurst entry): profile Y = cumsum(v − v̄), split into full windows of
    s ∈ {{4, 7, 10}}, per-window OLS detrend, F(s) = √(mean residual²);
    α = slope of ln F on ln s. F is 6dp-rounded before the log so both
    engines fit identical operands."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    SCALES = (4, 7, 10)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            y = np.cumsum(v - v.mean())
            fs, ss = [], []
            for s in SCALES:
                k = n // s
                if k < 2:
                    continue
                yy = y[:k * s].reshape(k, s)
                t = np.arange(1, s + 1, dtype=np.float64)
                tc = t - t.mean()
                tv = (tc ** 2).mean()
                yc = yy - yy.mean(axis=1)[:, None]
                cov = (yc * tc).mean(axis=1)
                mse = (yc ** 2).mean(axis=1) - cov * cov / tv
                fs.append(np.round(np.sqrt(mse.mean()), 6) + 0.0)
                ss.append(float(s))
            if len(fs) < len(SCALES):  # f4 column requires every scale
                continue
            lx, ly = np.log(ss), np.log(fs)
            lxc = lx - lx.mean()
            alpha = (lxc * (ly - ly.mean())).sum() / (lxc ** 2).sum()
            rows.append((et, np.int64(n), fs[0],
                         np.round(alpha, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "f4", "dfa_alpha"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_DFA_DAILY = f"""
    WITH daily AS ({_DAILY_SQL}),
    mo AS (SELECT event_type, avg(v) AS mu, count(*) AS n
           FROM daily GROUP BY 1),
    prof AS (
        SELECT d.event_type, mo.n,
               row_number() OVER (PARTITION BY d.event_type
                                  ORDER BY d.d) AS rn,
               sum(d.v - mo.mu) OVER (PARTITION BY d.event_type
                    ORDER BY d.d ROWS BETWEEN UNBOUNDED PRECEDING
                    AND CURRENT ROW) AS y
        FROM daily d JOIN mo USING (event_type)
    ),
    seg AS (
        SELECT p.event_type, p.n, s.s,
               (p.rn - 1) // s.s AS seg_id,
               CAST((p.rn - 1) % s.s + 1 AS DOUBLE) AS t, p.y
        FROM prof p CROSS JOIN (SELECT unnest([4, 7, 10]) AS s) s
        WHERE (p.rn - 1) // s.s < p.n // s.s
    ),
    rss AS (
        SELECT event_type, s, seg_id,
               var_pop(y) - pow(covar_pop(t, y), 2) / var_pop(t) AS mse
        FROM seg GROUP BY 1, 2, 3
    ),
    f AS (
        SELECT event_type, s, round(sqrt(avg(mse)), 6) + 0.0 AS fv
        FROM rss GROUP BY 1, 2 HAVING count(*) >= 2
    )
    SELECT f.event_type, CAST(mo.n AS BIGINT) AS n_days,
           max(CASE WHEN f.s = 4 THEN f.fv END) AS f4,
           round(regr_slope(ln(f.fv), ln(f.s)), 6) + 0.0 AS dfa_alpha
    FROM f JOIN mo USING (event_type)
    GROUP BY 1, 2 HAVING count(*) = 3
    ORDER BY 1
"""


@entry("hopkins_embeddings", sql=lambda: SQL_HOPKINS_EMBEDDINGS)
def q_hopkins_embeddings(sf_dir: str) -> pd.DataFrame:
    """Hopkins clusterability statistic (Hopkins & Skellam 1954, public,
    simple-distance form): H = Σu/(Σu+Σw) over m=25 probes, where u =
    nearest-data distance of a uniform probe in the per-dimension
    bounding box and w = nearest-OTHER-data distance of a sampled data
    point. H→1 clustered, H≈½ uniform. Fully deterministic: data probes
    are the 25 smallest Knuth-hashed vec_ids; uniform coordinates come
    from an integer LCG both engines evaluate exactly. Engine side is the
    broadcast-probe / per-batch-min / tiny-reduce ANN pattern — never an
    all-pairs shuffle."""
    import ray

    from forecastframe_ray.stages.agg import hash_aggregate

    M = 25
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])

    # per-dimension bounding box: one distributed min/max reduce
    def dim_minmax(b: pd.DataFrame) -> pd.DataFrame:
        X = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        d = np.arange(1, X.shape[1] + 1, dtype=np.int64)
        return pd.DataFrame({"dim": d, "mn": X.min(axis=0),
                             "mx": X.max(axis=0)})

    box = hash_aggregate(emb.map_batches(dim_minmax, batch_format="pandas"),
                         ["dim"], {"mn": ("mn", "min"), "mx": ("mx", "max")},
                         num_partitions=4).to_pandas().sort_values("dim")
    mn = box["mn"].to_numpy(np.float64)
    mx = box["mx"].to_numpy(np.float64)
    dim = len(mn)

    # uniform probes: LCG frac per (probe j, dim k), exact integer algebra
    jk = (np.arange(M, dtype=np.int64)[:, None] * dim
          + np.arange(dim, dtype=np.int64)[None, :])
    frac = ((1103515245 * jk + 12345) % 2147483648) / 2147483648.0
    U = mn[None, :] + frac * (mx - mn)[None, :]

    # data probes: 25 smallest Knuth-multiplicative-hashed vec_ids —
    # per-batch local candidates, global cut on the tiny union
    def probe_cands(b: pd.DataFrame) -> pd.DataFrame:
        ids = b["vec_id"].to_numpy(np.int64)
        h = (ids * 2654435761) % 4294967296
        k = np.lexsort((ids, h))[:M]
        return pd.DataFrame({"vec_id": b["vec_id"].to_numpy()[k],
                             "h": h[k],
                             "embedding": b["embedding"].to_numpy()[k]})

    cand = emb.map_batches(probe_cands, batch_format="pandas").to_pandas()
    cand = cand.sort_values(["h", "vec_id"]).head(M)
    W = np.stack(cand["embedding"].to_numpy()).astype(np.float64)
    wid = cand["vec_id"].to_numpy(np.int64)

    probes_ref = ray.put((U, W, wid))

    def nn_partial(b: pd.DataFrame) -> pd.DataFrame:
        Up, Wp, widp = ray.get(probes_ref)
        X = np.stack(b["embedding"].to_numpy()).astype(np.float64)
        ids = b["vec_id"].to_numpy(np.int64)
        du = np.sqrt(np.maximum(
            (Up ** 2).sum(1)[:, None] + (X ** 2).sum(1)[None, :]
            - 2.0 * Up @ X.T, 0.0)).min(axis=1)
        dw2 = ((Wp ** 2).sum(1)[:, None] + (X ** 2).sum(1)[None, :]
               - 2.0 * Wp @ X.T)
        dw2[widp[:, None] == ids[None, :]] = np.inf  # exclude self
        dw = np.sqrt(np.maximum(dw2, 0.0)).min(axis=1)
        m = len(Up)
        return pd.DataFrame({
            "probe": np.concatenate([np.arange(m), np.arange(m)]),
            "kind": ["u"] * m + ["w"] * m,
            "d": np.concatenate([du, dw])})

    mins = hash_aggregate(emb.map_batches(nn_partial, batch_format="pandas"),
                          ["probe", "kind"], {"d": ("d", "min")},
                          num_partitions=4).to_pandas()
    su = float(mins.loc[mins["kind"] == "u", "d"].sum())
    sw = float(mins.loc[mins["kind"] == "w", "d"].sum())
    return pd.DataFrame({
        "m_probes": pd.array([M], dtype="int64"),
        "sum_u": [np.round(su, 6) + 0.0],
        "sum_w": [np.round(sw, 6) + 0.0],
        "hopkins": [np.round(su / (su + sw), 6) + 0.0]})


SQL_HOPKINS_EMBEDDINGS = """
    WITH e AS (
        SELECT vec_id, generate_subscripts(embedding, 1) AS dim,
               CAST(unnest(embedding) AS DOUBLE) AS x
        FROM embeddings
    ),
    box AS (
        SELECT dim, min(x) AS mn, max(x) AS mx FROM e GROUP BY 1
    ),
    ndim AS (SELECT count(*) AS nd FROM box),
    up AS (
        SELECT j.j AS probe, box.dim,
               box.mn + (((CAST(1103515245 AS BIGINT)
                           * (j.j * ndim.nd + box.dim - 1)
                           + 12345) % 2147483648) / 2147483648.0)
                   * (box.mx - box.mn) AS x
        FROM (SELECT unnest(range(0, 25)) AS j) j, box, ndim
    ),
    udist AS (
        SELECT up.probe, e.vec_id,
               sqrt(greatest(sum(pow(up.x - e.x, 2)), 0)) AS d
        FROM up JOIN e USING (dim)
        GROUP BY 1, 2
    ),
    umin AS (SELECT probe, min(d) AS d FROM udist GROUP BY 1),
    wsel AS (
        SELECT vec_id
        FROM (SELECT DISTINCT vec_id FROM e)
        ORDER BY (vec_id * 2654435761) % 4294967296, vec_id
        LIMIT 25
    ),
    wdist AS (
        SELECT a.vec_id AS probe, b.vec_id,
               sqrt(greatest(sum(pow(a.x - b.x, 2)), 0)) AS d
        FROM e a JOIN e b USING (dim)
        WHERE a.vec_id IN (SELECT vec_id FROM wsel)
          AND a.vec_id <> b.vec_id
        GROUP BY 1, 2
    ),
    wmin AS (SELECT probe, min(d) AS d FROM wdist GROUP BY 1),
    s AS (
        SELECT (SELECT sum(d) FROM umin) AS su,
               (SELECT sum(d) FROM wmin) AS sw
    )
    SELECT CAST(25 AS BIGINT) AS m_probes,
           round(su, 6) + 0.0 AS sum_u, round(sw, 6) + 0.0 AS sum_w,
           round(su / (su + sw), 6) + 0.0 AS hopkins
    FROM s
"""


# ---------------------------------------------------------------------------
# MMD two-sample kernel distance, HITS authorities, transfer entropy
# ---------------------------------------------------------------------------

@entry("mmd_rbf_labels", sql=lambda: SQL_MMD_RBF_LABELS)
def q_mmd_rbf_labels(sf_dir: str) -> pd.DataFrame:
    """Maximum mean discrepancy (Gretton et al. 2012, public) between every
    two embedding labels with the RBF kernel (γ = 1/dim), biased V-statistic
    form: MMD² = k̄ₓₓ + k̄ᵧᵧ − 2k̄ₓᵧ. Inherently O(n²) per pair, so each
    label is first capped to its 500 smallest Knuth-hashed vec_ids (a no-op
    at sf scale, the documented bound at corpus scale); capped vectors are
    pair-replicated (labels² fan-out, labels are few) into key-co-located
    kernels — never an uncapped all-pairs shuffle."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    CAP = 500
    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding", "label"])

    def cap_kernel(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for lb, g in part.groupby("label", sort=False):
            ids = g["vec_id"].to_numpy(np.int64)
            h = (ids * 2654435761) % 4294967296
            k = np.lexsort((ids, h))[:CAP]
            outs.append(g.iloc[k])
        return pd.concat(outs) if outs else part

    capped = keyed_map_partitions(emb, ["label"], cap_kernel,
                                  num_partitions=4)
    labels = sorted(capped.groupby("label").count().to_pandas()
                    ["label"].tolist())

    def replicate(b: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for la in labels:
            for lb in labels:
                if la >= lb:
                    continue
                sub = b[(b["label"] == la) | (b["label"] == lb)]
                if len(sub):
                    sub = sub.copy()
                    sub["pair"] = la * 1000 + lb
                    outs.append(sub)
        return pd.concat(outs) if outs else b.head(0).assign(pair=0)

    def mmd_kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for pk, g in part.groupby("pair", sort=False):
            la, lb = int(pk) // 1000, int(pk) % 1000
            X = np.stack(g.loc[g["label"] == la, "embedding"]
                         .to_numpy()).astype(np.float64)
            Y = np.stack(g.loc[g["label"] == lb, "embedding"]
                         .to_numpy()).astype(np.float64)
            gam = 1.0 / X.shape[1]

            def kmean(A, B):
                d2 = ((A ** 2).sum(1)[:, None] + (B ** 2).sum(1)[None, :]
                      - 2.0 * A @ B.T)
                return float(np.exp(-gam * np.maximum(d2, 0.0)).mean())

            mmd2 = kmean(X, X) + kmean(Y, Y) - 2.0 * kmean(X, Y)
            rows.append((la, lb, np.int64(len(X)), np.int64(len(Y)),
                         np.round(mmd2, 6) + 0.0))
        return pd.DataFrame(rows, columns=["label_a", "label_b",
                                           "n_a", "n_b", "mmd2"])

    out = keyed_map_partitions(
        capped.map_batches(replicate, batch_format="pandas"),
        ["pair"], mmd_kernel, num_partitions=_NP).to_pandas()
    out = out.astype({"label_a": "int64", "label_b": "int64",
                      "n_a": "int64", "n_b": "int64"})
    return out.sort_values(["label_a", "label_b"]).reset_index(drop=True)


SQL_MMD_RBF_LABELS = """
    WITH e0 AS (
        SELECT vec_id, label,
               row_number() OVER (PARTITION BY label
                    ORDER BY (vec_id * 2654435761) % 4294967296,
                             vec_id) AS rk
        FROM embeddings
    ),
    sel AS (SELECT vec_id, label FROM e0 WHERE rk <= 500),
    e AS (
        SELECT s.vec_id, s.label,
               generate_subscripts(m.embedding, 1) AS dim,
               CAST(unnest(m.embedding) AS DOUBLE) AS x
        FROM sel s JOIN embeddings m USING (vec_id)
    ),
    nd AS (SELECT count(DISTINCT dim) AS nd FROM e),
    kv AS (
        SELECT a.vec_id AS i, b.vec_id AS j,
               a.label AS la, b.label AS lb,
               exp(-sum(pow(a.x - b.x, 2)) / max(nd.nd)) AS k
        FROM e a JOIN e b USING (dim), nd
        GROUP BY 1, 2, 3, 4
    ),
    xx AS (SELECT la AS l, avg(k) AS m, count(DISTINCT i) AS n
           FROM kv WHERE la = lb GROUP BY 1),
    xy AS (SELECT la, lb, avg(k) AS m FROM kv WHERE la < lb GROUP BY 1, 2)
    SELECT CAST(xy.la AS BIGINT) AS label_a,
           CAST(xy.lb AS BIGINT) AS label_b,
           CAST(a.n AS BIGINT) AS n_a, CAST(b.n AS BIGINT) AS n_b,
           round(a.m + b.m - 2 * xy.m, 6) + 0.0 AS mmd2
    FROM xy JOIN xx a ON a.l = xy.la JOIN xx b ON b.l = xy.lb
    ORDER BY 1, 2
"""


@entry("hits_authorities_events", sql=lambda: SQL_HITS_AUTHORITIES)
def q_hits_authorities_events(sf_dir: str) -> pd.DataFrame:
    """HITS authority scores (Kleinberg 1999, public) of event types on the
    user×type bipartite graph (edge weight = event count): authorities are
    the dominant eigenvector of M = AᵀA, run as 3 explicit power iterations.
    Scale-clean factorization: M (types², tiny) is one per-user co-located
    outer-product reduce — the user dimension never leaves the cluster; the
    iterations are driver algebra on the Frobenius-normalized, 6dp-rounded
    M so both engines iterate identical operands."""
    from forecastframe_ray.stages.agg import hash_aggregate, \
        keyed_map_partitions

    ev = _read(sf_dir, "events", ["user_id", "event_type"])

    def ones(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["w"] = 1.0
        return b

    edges = hash_aggregate(ev.map_batches(ones, batch_format="pandas"),
                           ["user_id", "event_type"], {"w": ("w", "sum")},
                           num_partitions=_NP)

    def outer(part: pd.DataFrame) -> pd.DataFrame:
        piv = part.pivot_table(index="user_id", columns="event_type",
                               values="w", aggfunc="sum", fill_value=0.0)
        m = piv.to_numpy(np.float64)
        mm = m.T @ m
        t = list(piv.columns)
        k = len(t)
        return pd.DataFrame({
            "t1": np.repeat(t, k), "t2": np.tile(t, k),
            "m": mm.ravel()})

    mrows = hash_aggregate(
        keyed_map_partitions(edges, ["user_id"], outer,
                             num_partitions=_NP),
        ["t1", "t2"], {"m": ("m", "sum")}, num_partitions=4).to_pandas()

    piv = mrows.pivot_table(index="t1", columns="t2", values="m",
                            aggfunc="sum", fill_value=0.0)
    types = sorted(set(piv.index) | set(piv.columns))
    piv = piv.reindex(index=types, columns=types, fill_value=0.0)
    M = piv.to_numpy(np.float64)
    M = np.round(M / np.sqrt((M * M).sum()), 6)  # both engines iterate this
    a = np.full(len(types), 1.0 / np.sqrt(len(types)))
    for _ in range(3):
        a = M @ a
        a = a / np.sqrt((a * a).sum())
    return pd.DataFrame({"event_type": types,
                         "authority": np.round(a, 6) + 0.0})


SQL_HITS_AUTHORITIES = """
    WITH edges AS (
        SELECT user_id, event_type, count(*)::DOUBLE AS w
        FROM events GROUP BY 1, 2
    ),
    mraw AS (
        SELECT a.event_type AS t1, b.event_type AS t2,
               sum(a.w * b.w) AS m
        FROM edges a JOIN edges b USING (user_id)
        GROUP BY 1, 2
    ),
    frob AS (SELECT sqrt(sum(m * m)) AS f FROM mraw),
    m AS (SELECT t1, t2, round(mraw.m / frob.f, 6) AS m FROM mraw, frob),
    k AS (SELECT count(DISTINCT t1) AS k FROM m),
    a0 AS (SELECT t1 AS t, 1.0 / sqrt(k.k) AS a FROM m, k GROUP BY 1, k.k),
    u1 AS (SELECT m.t1 AS t, sum(m.m * a0.a) AS a
           FROM m JOIN a0 ON a0.t = m.t2 GROUP BY 1),
    a1 AS (SELECT t, a / sqrt(sum(a * a) OVER ()) AS a FROM u1),
    u2 AS (SELECT m.t1 AS t, sum(m.m * a1.a) AS a
           FROM m JOIN a1 ON a1.t = m.t2 GROUP BY 1),
    a2 AS (SELECT t, a / sqrt(sum(a * a) OVER ()) AS a FROM u2),
    u3 AS (SELECT m.t1 AS t, sum(m.m * a2.a) AS a
           FROM m JOIN a2 ON a2.t = m.t2 GROUP BY 1),
    a3 AS (SELECT t, a / sqrt(sum(a * a) OVER ()) AS a FROM u3)
    SELECT t AS event_type, round(a, 6) + 0.0 AS authority
    FROM a3 ORDER BY 1
"""


@entry("transfer_entropy_daily", sql=lambda: SQL_TRANSFER_ENTROPY)
def q_transfer_entropy_daily(sf_dir: str) -> pd.DataFrame:
    """Transfer entropy (Schreiber 2000, public) between every ordered pair
    of daily series, tercile-discretized: TE(X→Y) = Σ p(y′,y,x)·
    ln[p(y′,y,x)p(y)/(p(y,x)p(y′,y))] over days where xₜ, yₜ and yₜ₊₁ (the
    next calendar day) all exist — the directed-information complement of
    the symmetric lead-lag entry. Terciles are rank-based with (v, d)
    tie-break so both engines bin identically. The daily spine is already
    the reduced table, so the pair fold runs over it directly."""
    daily = _bucket_series(sf_dir, DAY_US, "d").to_pandas()
    # rank-based terciles per series, deterministic tie-break by date
    daily = daily.sort_values(["event_type", "v", "d"])
    grp = daily.groupby("event_type", sort=False)
    r = grp.cumcount().to_numpy()
    n = grp["v"].transform("size").to_numpy()
    daily["b"] = r * 3 // n
    piv_b = daily.pivot_table(index="d", columns="event_type", values="b",
                              aggfunc="first").sort_index()
    types = sorted(piv_b.columns)
    day = pd.Timedelta(days=1)
    rows = []
    for tx in types:
        for ty in types:
            if tx == ty:
                continue
            sub = piv_b[[tx, ty]].dropna()
            nxt = piv_b[ty].reindex(sub.index + day)
            ok = nxt.notna().to_numpy()
            x = sub[tx].to_numpy(np.int64)[ok]
            y = sub[ty].to_numpy(np.int64)[ok]
            yn = nxt.to_numpy()[ok].astype(np.int64)
            nt = len(x)
            if nt == 0:
                continue
            cnt = {}
            for key in zip(yn, y, x):
                cnt[key] = cnt.get(key, 0) + 1
            # marginals from the triple counts
            c_yx, c_nyy, c_y = {}, {}, {}
            for (a, b, c), m in cnt.items():
                c_yx[(b, c)] = c_yx.get((b, c), 0) + m
                c_nyy[(a, b)] = c_nyy.get((a, b), 0) + m
                c_y[b] = c_y.get(b, 0) + m
            te = 0.0
            for (a, b, c), m in cnt.items():
                te += (m / nt) * np.log(
                    m * c_y[b] / (c_yx[(b, c)] * c_nyy[(a, b)]))
            rows.append((tx, ty, np.int64(nt), np.round(te, 6) + 0.0))
    out = pd.DataFrame(rows, columns=["x_type", "y_type", "n_triples",
                                      "te"])
    out["n_triples"] = out["n_triples"].astype("int64")
    return out.sort_values(["x_type", "y_type"]).reset_index(drop=True)


SQL_TRANSFER_ENTROPY = f"""
    WITH daily AS ({_DAILY_SQL}),
    b AS (
        SELECT event_type, d,
               (row_number() OVER (PARTITION BY event_type
                    ORDER BY v, d) - 1) * 3
                   // (count(*) OVER (PARTITION BY event_type)) AS b
        FROM daily
    ),
    tri AS (
        SELECT x.event_type AS x_type, y.event_type AS y_type,
               yn.b AS a, y.b AS y, x.b AS x
        FROM b x
        JOIN b y ON y.d = x.d AND y.event_type <> x.event_type
        JOIN b yn ON yn.event_type = y.event_type
                 AND yn.d = y.d + INTERVAL 1 DAY
    ),
    c3 AS (
        SELECT x_type, y_type, a, y, x, count(*)::DOUBLE AS m
        FROM tri GROUP BY 1, 2, 3, 4, 5
    ),
    tot AS (SELECT x_type, y_type, sum(m) AS nt FROM c3 GROUP BY 1, 2),
    cyx AS (SELECT x_type, y_type, y, x, sum(m) AS m FROM c3
            GROUP BY 1, 2, 3, 4),
    cay AS (SELECT x_type, y_type, a, y, sum(m) AS m FROM c3
            GROUP BY 1, 2, 3, 4),
    cy AS (SELECT x_type, y_type, y, sum(m) AS m FROM c3 GROUP BY 1, 2, 3)
    SELECT c3.x_type, c3.y_type,
           CAST(max(tot.nt) AS BIGINT) AS n_triples,
           round(sum(c3.m / tot.nt
                     * ln(c3.m * cy.m / (cyx.m * cay.m))), 6) + 0.0 AS te
    FROM c3
    JOIN tot USING (x_type, y_type)
    JOIN cyx ON cyx.x_type = c3.x_type AND cyx.y_type = c3.y_type
            AND cyx.y = c3.y AND cyx.x = c3.x
    JOIN cay ON cay.x_type = c3.x_type AND cay.y_type = c3.y_type
            AND cay.a = c3.a AND cay.y = c3.y
    JOIN cy ON cy.x_type = c3.x_type AND cy.y_type = c3.y_type
           AND cy.y = c3.y
    GROUP BY 1, 2 ORDER BY 1, 2
"""


# ---------------------------------------------------------------------------
# Lepage location-scale test, Moran's I spatial autocorrelation, and a
# deterministic bootstrap confidence interval
# ---------------------------------------------------------------------------

@entry("lepage_weekend_daily", sql=lambda: SQL_LEPAGE_WEEKEND)
def q_lepage_weekend_daily(sf_dir: str) -> pd.DataFrame:
    """Lepage two-sample test (Lepage 1971, public): L = Z_W² + Z_A², the
    Wilcoxon rank-sum z (location) combined with the Ansari-Bradley z
    (scale) of weekend vs weekday daily values — the omnibus complement of
    the pure-location Mann-Whitney entry. Mid-ranks for ties, classical
    no-tie null moments (documented); Ansari moments switch on N's parity."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            dow = g["d"].dt.dayofweek.to_numpy() + 1
            v = g["v"].to_numpy(np.float64)
            is_x = dow >= 6
            n, m = int(is_x.sum()), int((~is_x).sum())
            nn = n + m
            if n == 0 or m == 0:
                continue
            # mid-ranks: average rank within each tied value group
            uniq, inv, cnts = np.unique(v, return_inverse=True,
                                        return_counts=True)
            csum = np.concatenate([[0], np.cumsum(cnts)])
            mid = (csum[:-1] + 1 + csum[1:]) / 2.0
            r = mid[inv]
            w = float(r[is_x].sum())
            zw = (w - n * (nn + 1) / 2.0) \
                / np.sqrt(n * m * (nn + 1) / 12.0)
            s = np.minimum(r, nn + 1 - r)
            a = float(s[is_x].sum())
            if nn % 2 == 0:
                ea = n * (nn + 2) / 4.0
                va = n * m * (nn + 2) * (nn - 2) / (48.0 * (nn - 1))
            else:
                ea = n * (nn + 1) ** 2 / (4.0 * nn)
                va = n * m * (nn + 1) * (3 + nn * nn) \
                    / (48.0 * nn * nn)
            za = (a - ea) / np.sqrt(va)
            rows.append((et, np.int64(n), np.int64(m),
                         np.round(zw, 6) + 0.0, np.round(za, 6) + 0.0,
                         np.round(zw * zw + za * za, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_weekend",
                                           "n_weekday", "z_wilcoxon",
                                           "z_ansari", "lepage"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out = out.astype({"n_weekend": "int64", "n_weekday": "int64"})
    return out.sort_values("event_type").reset_index(drop=True)


SQL_LEPAGE_WEEKEND = f"""
    WITH daily AS ({_DAILY_SQL}),
    w AS (
        SELECT event_type, v,
               CASE WHEN isodow(d) >= 6 THEN 1 ELSE 0 END AS is_x
        FROM daily
    ),
    r AS (
        SELECT event_type, v, is_x,
               rank() OVER (PARTITION BY event_type ORDER BY v)
                   + (count(*) OVER (PARTITION BY event_type, v) - 1)
                     / 2.0 AS r,
               count(*) OVER (PARTITION BY event_type) AS nn
        FROM w
    ),
    agg AS (
        SELECT event_type, max(nn) AS nn,
               sum(is_x) AS n, sum(1 - is_x) AS m,
               sum(CASE WHEN is_x = 1 THEN r END) AS w,
               sum(CASE WHEN is_x = 1
                   THEN least(r, nn + 1 - r) END) AS a
        FROM r GROUP BY 1 HAVING sum(is_x) > 0 AND sum(1 - is_x) > 0
    ),
    z AS (
        SELECT event_type, n, m,
               (w - n * (nn + 1) / 2.0)
                   / sqrt(n * m * (nn + 1) / 12.0) AS zw,
               (a - CASE WHEN nn % 2 = 0 THEN n * (nn + 2) / 4.0
                    ELSE n * (nn + 1) * (nn + 1) / (4.0 * nn) END)
               / sqrt(CASE WHEN nn % 2 = 0
                      THEN n * m * (nn + 2) * (nn - 2) / (48.0 * (nn - 1))
                      ELSE n * m * (nn + 1) * (3 + nn * nn)
                           / (48.0 * nn * nn) END) AS za
        FROM agg
    )
    SELECT event_type, CAST(n AS BIGINT) AS n_weekend,
           CAST(m AS BIGINT) AS n_weekday,
           round(zw, 6) + 0.0 AS z_wilcoxon,
           round(za, 6) + 0.0 AS z_ansari,
           round(zw * zw + za * za, 6) + 0.0 AS lepage
    FROM z ORDER BY 1
"""


@entry("morans_i_hour_dow", sql=lambda: SQL_MORANS_I_HOUR_DOW)
def q_morans_i_hour_dow(sf_dir: str) -> pd.DataFrame:
    """Moran's I spatial autocorrelation (Moran 1950, public) of each
    event type's activity over the 7×24 day-of-week × hour grid with rook
    adjacency (no wrap): I = (N/ΣW)·Σwᵢⱼzᵢzⱼ/Σz² on the zero-filled
    full grid — do neighbouring hour-cells co-activate? The grid is the
    already-reduced table (168 cells/type); one count shuffle feeds a
    per-type co-located kernel."""
    from forecastframe_ray.stages.agg import hash_aggregate, \
        keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def cells(b: pd.DataFrame) -> pd.DataFrame:
        ts = b["ts"]
        return pd.DataFrame({"event_type": b["event_type"],
                             "dow": ts.dt.dayofweek.to_numpy(np.int64),
                             "hour": ts.dt.hour.to_numpy(np.int64),
                             "c": np.ones(len(b))})

    counts = hash_aggregate(ev.map_batches(cells, batch_format="pandas"),
                            ["event_type", "dow", "hour"],
                            {"c": ("c", "sum")}, num_partitions=_NP)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            grid = np.zeros((7, 24), dtype=np.float64)
            grid[g["dow"].to_numpy(np.int64),
                 g["hour"].to_numpy(np.int64)] = g["c"].to_numpy()
            z = grid - grid.mean()
            num = ((z[:, :-1] * z[:, 1:]).sum()
                   + (z[:-1, :] * z[1:, :]).sum()) * 2.0
            w_tot = 2.0 * (7 * 23 + 6 * 24)
            den = (z * z).sum()
            i_stat = (z.size / w_tot) * num / den
            rows.append((et, np.round(i_stat, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "morans_i"])

    out = keyed_map_partitions(counts, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    return out.sort_values("event_type").reset_index(drop=True)


SQL_MORANS_I_HOUR_DOW = """
    WITH grid AS (
        SELECT t.event_type, d.d AS dow, h.h AS hour
        FROM (SELECT DISTINCT event_type FROM events) t
        CROSS JOIN (SELECT unnest(range(0, 7)) AS d) d
        CROSS JOIN (SELECT unnest(range(0, 24)) AS h) h
    ),
    counts AS (
        SELECT event_type, (isodow(ts) - 1) AS dow, hour(ts) AS hour,
               count(*)::DOUBLE AS c
        FROM events GROUP BY 1, 2, 3
    ),
    cell AS (
        SELECT g.event_type, g.dow, g.hour, COALESCE(c.c, 0.0) AS c
        FROM grid g LEFT JOIN counts c
          ON c.event_type = g.event_type AND c.dow = g.dow
         AND c.hour = g.hour
    ),
    z AS (
        SELECT event_type, dow, hour,
               c - avg(c) OVER (PARTITION BY event_type) AS z
        FROM cell
    ),
    num AS (
        SELECT a.event_type, sum(a.z * b.z) AS num
        FROM z a JOIN z b
          ON b.event_type = a.event_type
         AND ((abs(a.dow - b.dow) = 1 AND a.hour = b.hour)
              OR (a.dow = b.dow AND abs(a.hour - b.hour) = 1))
        GROUP BY 1
    ),
    den AS (SELECT event_type, sum(z * z) AS den, count(*) AS n
            FROM z GROUP BY 1)
    SELECT d.event_type,
           round((d.n / (2.0 * (7 * 23 + 6 * 24))) * num.num / d.den, 6)
               + 0.0 AS morans_i
    FROM den d JOIN num USING (event_type)
    ORDER BY 1
"""


@entry("bootstrap_ci_daily", sql=lambda: SQL_BOOTSTRAP_CI)
def q_bootstrap_ci_daily(sf_dir: str) -> pd.DataFrame:
    """Deterministic bootstrap percentile CI (Efron 1979, public) of each
    daily-series mean: B=200 resamples whose indices come from an integer
    LCG both engines evaluate exactly — idx(b,i) = ((1103515245·(b·n+i) +
    12345) mod 2³¹) mod n over the date-ordered values — CI = the 5th and
    195th order statistics of the sorted replicate means (the 2.5 / 97.5
    empirical percentiles)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    B = 200

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g.sort_values("d")["v"].to_numpy(np.float64)
            n = len(v)
            if n < 2:
                continue
            t = (np.arange(B, dtype=np.int64)[:, None] * n
                 + np.arange(n, dtype=np.int64)[None, :])
            idx = ((1103515245 * t + 12345) % 2147483648) % n
            means = np.sort(v[idx].mean(axis=1))
            rows.append((et, np.int64(n),
                         np.round(v.mean(), 6) + 0.0,
                         np.round(means[4], 6) + 0.0,
                         np.round(means[B - 6], 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "mean", "ci_lo", "ci_hi"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_BOOTSTRAP_CI = f"""
    WITH daily AS ({_DAILY_SQL}),
    r AS (
        SELECT event_type, v,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY d) - 1 AS i,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM daily
    ),
    draws AS (
        SELECT r.event_type, b.b, r.n,
               ((CAST(1103515245 AS BIGINT) * (b.b * r.n + r.i) + 12345)
                % 2147483648) % r.n AS idx
        FROM r CROSS JOIN (SELECT unnest(range(0, 200)) AS b) b
        WHERE r.n >= 2
    ),
    rep AS (
        SELECT d.event_type, d.b, avg(r2.v) AS m
        FROM draws d JOIN r r2
          ON r2.event_type = d.event_type AND r2.i = d.idx
        GROUP BY 1, 2
    ),
    srt AS (
        SELECT event_type, m,
               row_number() OVER (PARTITION BY event_type
                                  ORDER BY m) AS rk
        FROM rep
    ),
    mo AS (SELECT event_type, CAST(count(*) AS BIGINT) AS n_days,
                  round(avg(v), 6) + 0.0 AS mean
           FROM daily GROUP BY 1 HAVING count(*) >= 2)
    SELECT mo.event_type, mo.n_days, mo.mean,
           round(max(CASE WHEN srt.rk = 5 THEN srt.m END), 6) + 0.0
               AS ci_lo,
           round(max(CASE WHEN srt.rk = 195 THEN srt.m END), 6) + 0.0
               AS ci_hi
    FROM mo JOIN srt USING (event_type)
    GROUP BY 1, 2, 3 ORDER BY 1
"""


# ---------------------------------------------------------------------------
# Gaussian KDE, Poisson GLM trend, Chao1 species-richness estimate
# ---------------------------------------------------------------------------

@entry("kde_grid_daily", sql=lambda: SQL_KDE_GRID)
def q_kde_grid_daily(sf_dir: str) -> pd.DataFrame:
    """Gaussian kernel density estimate (Rosenblatt 1956 / Parzen 1962,
    public) of each daily-value distribution at an 11-point min-max grid,
    Silverman-Gaussian bandwidth h = 1.06·sd·n^(−1/5): f̂(x) =
    Σφ((x−vᵢ)/h)/(nh) — the density primitive behind the histogram
    entries. One key-co-located kernel over the reduced daily spine."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    daily = _bucket_series(sf_dir, DAY_US, "d")
    G = 11

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            v = g["v"].to_numpy(np.float64)
            n = len(v)
            sd = v.std(ddof=1) if n > 1 else 0.0
            if n < 2 or sd <= 0:
                continue
            h = 1.06 * sd * n ** (-0.2)
            mn, mx = v.min(), v.max()
            for j in range(G):
                x = mn + j * (mx - mn) / (G - 1)
                dens = float(np.exp(-((x - v) / h) ** 2 / 2.0).sum()
                             / (n * h * np.sqrt(2 * np.pi)))
                rows.append((et, np.int64(j), np.round(x, 6) + 0.0,
                             np.round(dens, 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "j", "x",
                                           "density"])

    out = keyed_map_partitions(daily, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["j"] = out["j"].astype("int64")
    return out.sort_values(["event_type", "j"]).reset_index(drop=True)


SQL_KDE_GRID = f"""
    WITH daily AS ({_DAILY_SQL}),
    mo AS (
        SELECT event_type, count(*)::DOUBLE AS n, stddev_samp(v) AS sd,
               min(v) AS mn, max(v) AS mx
        FROM daily GROUP BY 1
        HAVING count(*) >= 2 AND stddev_samp(v) > 0
    ),
    grid AS (
        SELECT mo.*, j.j,
               mo.mn + j.j * (mo.mx - mo.mn) / 10.0 AS x,
               1.06 * mo.sd * pow(mo.n, -0.2) AS h
        FROM mo CROSS JOIN (SELECT unnest(range(0, 11)) AS j) j
    )
    SELECT g.event_type, CAST(g.j AS BIGINT) AS j,
           round(g.x, 6) + 0.0 AS x,
           round(sum(exp(-pow((g.x - d.v) / g.h, 2) / 2.0))
                 / (g.n * g.h * sqrt(2 * pi())), 6) + 0.0 AS density
    FROM grid g JOIN daily d USING (event_type)
    GROUP BY 1, 2, 3, g.n, g.h ORDER BY 1, 2
"""


@entry("poisson_glm_trend_daily", sql=lambda: SQL_POISSON_GLM_TREND)
def q_poisson_glm_trend_daily(sf_dir: str) -> pd.DataFrame:
    """Poisson GLM with log link (Nelder & Wedderburn 1972, public) of
    daily event COUNTS on a centered time index, fit by 3 unrolled IRLS
    Newton steps from β=(ln ȳ, 0) — the canonical count-trend model the
    OLS entries can't express. Both engines run the identical weighted
    normal equations; reports exp(β₁) as the daily rate ratio."""
    from forecastframe_ray.stages.agg import hash_aggregate, \
        keyed_map_partitions

    ev = _read(sf_dir, "events", ["event_type", "ts"])

    def days(b: pd.DataFrame) -> pd.DataFrame:
        us = b["ts"].astype("int64")
        return pd.DataFrame({
            "event_type": b["event_type"],
            "d": pd.to_datetime((us // DAY_US) * DAY_US, unit="us"),
            "y": np.ones(len(b))})

    counts = hash_aggregate(ev.map_batches(days, batch_format="pandas"),
                            ["event_type", "d"], {"y": ("y", "sum")},
                            num_partitions=_NP)

    def kernel(part: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for et, g in part.groupby("event_type", sort=False):
            y = g.sort_values("d")["y"].to_numpy(np.float64)
            n = len(y)
            if n < 3:
                continue
            t = np.arange(1, n + 1, dtype=np.float64) - (n + 1) / 2.0
            b0, b1 = np.log(y.mean()), 0.0
            for _ in range(3):
                eta = b0 + b1 * t
                mu = np.exp(eta)
                z = eta + (y - mu) / mu
                sw, st = mu.sum(), (mu * t).sum()
                stt = (mu * t * t).sum()
                sz, stz = (mu * z).sum(), (mu * t * z).sum()
                b1 = (sw * stz - st * sz) / (sw * stt - st * st)
                b0 = (sz - b1 * st) / sw
            rows.append((et, np.int64(n), np.round(b0, 6) + 0.0,
                         np.round(b1, 6) + 0.0,
                         np.round(np.exp(b1), 6) + 0.0))
        return pd.DataFrame(rows, columns=["event_type", "n_days",
                                           "beta0", "beta1",
                                           "rate_ratio"])

    out = keyed_map_partitions(counts, ["event_type"], kernel,
                               num_partitions=_NP).to_pandas()
    out["n_days"] = out["n_days"].astype("int64")
    return out.sort_values("event_type").reset_index(drop=True)


SQL_POISSON_GLM_TREND = """
    WITH counts AS (
        SELECT event_type, date_trunc('day', ts) AS d,
               count(*)::DOUBLE AS y
        FROM events GROUP BY 1, 2
    ),
    base AS (
        SELECT event_type, y,
               row_number() OVER (PARTITION BY event_type ORDER BY d)
                   - (count(*) OVER (PARTITION BY event_type) + 1)
                     / 2.0 AS t,
               ln(avg(y) OVER (PARTITION BY event_type)) AS b0,
               count(*) OVER (PARTITION BY event_type) AS n
        FROM counts
    ),
    it1 AS (
        SELECT event_type, max(n) AS n,
               (sum(mu) * sum(mu * t * z) - sum(mu * t) * sum(mu * z))
               / (sum(mu) * sum(mu * t * t)
                  - sum(mu * t) * sum(mu * t)) AS b1n,
               sum(mu * z) AS sz, sum(mu * t) AS st, sum(mu) AS sw
        FROM (
            SELECT *, b0 + 0.0 * t AS eta, exp(b0) AS mu,
                   b0 + (y - exp(b0)) / exp(b0) AS z
            FROM base
        ) GROUP BY 1 HAVING max(n) >= 3
    ),
    b1 AS (SELECT event_type, n, b1n AS b1,
                  (sz - b1n * st) / sw AS b0 FROM it1),
    it2 AS (
        SELECT b.event_type, max(b.n) AS n,
               (sum(mu) * sum(mu * t * z) - sum(mu * t) * sum(mu * z))
               / (sum(mu) * sum(mu * t * t)
                  - sum(mu * t) * sum(mu * t)) AS b1n,
               sum(mu * z) AS sz, sum(mu * t) AS st, sum(mu) AS sw
        FROM (
            SELECT ba.event_type, ba.t, ba.y, b1.n,
                   exp(b1.b0 + b1.b1 * ba.t) AS mu,
                   b1.b0 + b1.b1 * ba.t
                       + (ba.y - exp(b1.b0 + b1.b1 * ba.t))
                         / exp(b1.b0 + b1.b1 * ba.t) AS z
            FROM base ba JOIN b1 USING (event_type)
        ) b GROUP BY 1
    ),
    b2 AS (SELECT event_type, n, b1n AS b1,
                  (sz - b1n * st) / sw AS b0 FROM it2),
    it3 AS (
        SELECT b.event_type, max(b.n) AS n,
               (sum(mu) * sum(mu * t * z) - sum(mu * t) * sum(mu * z))
               / (sum(mu) * sum(mu * t * t)
                  - sum(mu * t) * sum(mu * t)) AS b1n,
               sum(mu * z) AS sz, sum(mu * t) AS st, sum(mu) AS sw
        FROM (
            SELECT ba.event_type, ba.t, ba.y, b2.n,
                   exp(b2.b0 + b2.b1 * ba.t) AS mu,
                   b2.b0 + b2.b1 * ba.t
                       + (ba.y - exp(b2.b0 + b2.b1 * ba.t))
                         / exp(b2.b0 + b2.b1 * ba.t) AS z
            FROM base ba JOIN b2 USING (event_type)
        ) b GROUP BY 1
    ),
    b3 AS (SELECT event_type, n, b1n AS b1,
                  (sz - b1n * st) / sw AS b0 FROM it3)
    SELECT event_type, CAST(n AS BIGINT) AS n_days,
           round(b0, 6) + 0.0 AS beta0, round(b1, 6) + 0.0 AS beta1,
           round(exp(b1), 6) + 0.0 AS rate_ratio
    FROM b3 ORDER BY 1
"""


@entry("chao1_vocab_documents", sql=lambda: SQL_CHAO1_VOCAB)
def q_chao1_vocab_documents(sf_dir: str) -> pd.DataFrame:
    """Chao1 species-richness estimate (Chao 1984, public) of the corpus
    vocabulary from its abundance tail: V̂ = V + f₁(f₁−1)/(2(f₂+1))
    (bias-corrected form) where f₁/f₂ are singleton/doubleton token
    counts — how much vocabulary the crawl has NOT seen yet, the sampling
    complement of the Good-Turing entry. Two narrow count shuffles."""
    from forecastframe_ray.stages.agg import hash_aggregate

    docs = _read(sf_dir, "documents", ["text"])

    def toks(b: pd.DataFrame) -> pd.DataFrame:
        ex = b["text"].str.split().explode().dropna()
        return pd.DataFrame({"token": ex.to_numpy(),
                             "c": np.ones(len(ex))})

    counts = hash_aggregate(docs.map_batches(toks, batch_format="pandas"),
                            ["token"], {"c": ("c", "sum")},
                            num_partitions=_NP)
    fof = hash_aggregate(counts.map_batches(
        lambda b: pd.DataFrame({"c": b["c"].astype(np.int64),
                                "k": np.ones(len(b))}),
        batch_format="pandas"),
        ["c"], {"k": ("k", "sum")}, num_partitions=4).to_pandas()
    v = int(fof["k"].sum())
    f1 = int(fof.loc[fof["c"] == 1, "k"].sum())
    f2 = int(fof.loc[fof["c"] == 2, "k"].sum())
    chao1 = v + f1 * (f1 - 1) / (2.0 * (f2 + 1))
    return pd.DataFrame({
        "vocab": pd.array([v], dtype="int64"),
        "f1": pd.array([f1], dtype="int64"),
        "f2": pd.array([f2], dtype="int64"),
        "chao1": [np.round(chao1, 6) + 0.0]})


SQL_CHAO1_VOCAB = r"""
    WITH tok AS (
        SELECT unnest(list_filter(string_split_regex(text, '\s+'),
                                  x -> x <> '')) AS token
        FROM documents
    ),
    counts AS (SELECT token, count(*) AS c FROM tok GROUP BY 1),
    s AS (
        SELECT count(*) AS v,
               count(*) FILTER (WHERE c = 1) AS f1,
               count(*) FILTER (WHERE c = 2) AS f2
        FROM counts
    )
    SELECT CAST(v AS BIGINT) AS vocab, CAST(f1 AS BIGINT) AS f1,
           CAST(f2 AS BIGINT) AS f2,
           round(v + f1 * (f1 - 1) / (2.0 * (f2 + 1)), 6) + 0.0 AS chao1
    FROM s
"""


# ---------------------------------------------------------------------------
# distance correlation, BFS hop profile, logistic-GLM priority model
# ---------------------------------------------------------------------------

@entry("dcor_daily_pairs", sql=lambda: SQL_DCOR_DAILY_PAIRS)
def q_dcor_daily_pairs(sf_dir: str) -> pd.DataFrame:
    """Distance correlation (Székely, Rizzo & Bakirov 2007, public)
    between every two daily series over their common days: dCor =
    √(dCov²/√(dVarₓ·dVarᵧ)) from the double-centered |Δ| matrices — zero
    IFF independent, catching the nonlinear dependence Pearson/Spearman
    miss. The day² grids are bounded per pair; the daily spine is already
    the reduced table, so the pair fold runs over it directly."""
    daily = _bucket_series(sf_dir, DAY_US, "d").to_pandas()
    piv = daily.pivot_table(index="d", columns="event_type", values="v",
                            aggfunc="first").sort_index()
    types = sorted(piv.columns)
    rows = []
    for i, ta in enumerate(types):
        for tb in types[i + 1:]:
            sub = piv[[ta, tb]].dropna()
            n = len(sub)
            if n < 3:
                continue
            x = sub[ta].to_numpy(np.float64)
            y = sub[tb].to_numpy(np.float64)

            def centered(v):
                a = np.abs(v[:, None] - v[None, :])
                return (a - a.mean(axis=1)[:, None]
                        - a.mean(axis=0)[None, :] + a.mean())

            A, B = centered(x), centered(y)
            dcov2 = (A * B).mean()
            dvx, dvy = (A * A).mean(), (B * B).mean()
            dcor = np.sqrt(dcov2 / np.sqrt(dvx * dvy)) \
                if dvx > 0 and dvy > 0 and dcov2 > 0 else 0.0
            rows.append((ta, tb, np.int64(n), np.round(dcor, 6) + 0.0))
    out = pd.DataFrame(rows, columns=["ta", "tb", "n_common", "dcor"])
    out["n_common"] = out["n_common"].astype("int64")
    return out.sort_values(["ta", "tb"]).reset_index(drop=True)


SQL_DCOR_DAILY_PAIRS = f"""
    WITH daily AS ({_DAILY_SQL}),
    common AS (
        SELECT a.event_type AS ta, b.event_type AS tb, a.d,
               a.v AS x, b.v AS y
        FROM daily a JOIN daily b
          ON b.d = a.d AND a.event_type < b.event_type
    ),
    pa AS (
        SELECT c1.ta, c1.tb, c1.d AS di, c2.d AS dj,
               abs(c1.x - c2.x) AS a, abs(c1.y - c2.y) AS b
        FROM common c1 JOIN common c2
          ON c2.ta = c1.ta AND c2.tb = c1.tb
    ),
    cen AS (
        SELECT ta, tb,
               a - avg(a) OVER (PARTITION BY ta, tb, di)
                 - avg(a) OVER (PARTITION BY ta, tb, dj)
                 + avg(a) OVER (PARTITION BY ta, tb) AS ca,
               b - avg(b) OVER (PARTITION BY ta, tb, di)
                 - avg(b) OVER (PARTITION BY ta, tb, dj)
                 + avg(b) OVER (PARTITION BY ta, tb) AS cb,
               count(*) OVER (PARTITION BY ta, tb, di) AS n
        FROM pa
    ),
    s AS (
        SELECT ta, tb, max(n) AS n, avg(ca * cb) AS dcov2,
               avg(ca * ca) AS dvx, avg(cb * cb) AS dvy
        FROM cen GROUP BY 1, 2 HAVING max(n) >= 3
    )
    SELECT ta, tb, CAST(n AS BIGINT) AS n_common,
           round(CASE WHEN dvx > 0 AND dvy > 0 AND dcov2 > 0
                 THEN sqrt(dcov2 / sqrt(dvx * dvy)) ELSE 0.0 END, 6)
               + 0.0 AS dcor
    FROM s ORDER BY 1, 2
"""


@entry("bfs_hops_copurchase", sql=lambda: SQL_BFS_HOPS_COPURCHASE)
def q_bfs_hops_copurchase(sf_dir: str) -> pd.DataFrame:
    """BFS hop profile of the co-purchase graph from its highest-degree
    part (ties → smallest partkey): how many parts sit at minimum
    distance 0/1/2/3 — the reachability shape recommender cold-start
    studies report. Pair emission is per-order co-located; each hop is
    one edge-filter pass with the frontier broadcast (bounded by the
    part DIMENSION, the same bound as the J2 dim-join broadcast)."""
    import ray

    from forecastframe_ray.stages.agg import hash_aggregate, \
        keyed_map_partitions

    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def pairs(part: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for ok, g in part.groupby("l_orderkey", sort=False):
            p = np.unique(g["l_partkey"].to_numpy(np.int64))
            if len(p) < 2:
                continue
            a, b = np.meshgrid(p, p)
            mask = a != b
            outs.append(pd.DataFrame({"pa": a[mask], "pb": b[mask]}))
        return pd.concat(outs, ignore_index=True) if outs else \
            pd.DataFrame({"pa": pd.Series([], dtype="int64"),
                          "pb": pd.Series([], dtype="int64")})

    edges = keyed_map_partitions(li, ["l_orderkey"], pairs,
                                 num_partitions=_NP)
    edges = hash_aggregate(
        edges.map_batches(lambda b: b.assign(one=1), batch_format="pandas"),
        ["pa", "pb"], {"c": ("one", "sum")},
        num_partitions=_NP).materialize()  # reused by every hop

    deg = hash_aggregate(
        edges.map_batches(lambda b: b.assign(one=1), batch_format="pandas"),
        ["pa"], {"deg": ("one", "sum")}, num_partitions=_NP).to_pandas()
    deg = deg.sort_values(["deg", "pa"], ascending=[False, True])
    seed = int(deg["pa"].iloc[0])

    dist = {seed: 0}
    frontier = {seed}
    for hop in (1, 2, 3):
        f_ref = ray.put(frontier)

        def expand(b: pd.DataFrame, f_ref=f_ref) -> pd.DataFrame:
            f = ray.get(f_ref)
            keep = b["pa"].isin(f).to_numpy()
            return pd.DataFrame({"pb": b["pb"].to_numpy(np.int64)[keep]})

        nbrs = hash_aggregate(
            edges.map_batches(expand, batch_format="pandas")
            .map_batches(lambda b: b.assign(one=1), batch_format="pandas"),
            ["pb"], {"c": ("one", "sum")}, num_partitions=4).to_pandas()
        frontier = {int(p) for p in nbrs["pb"] if int(p) not in dist}
        for p in frontier:
            dist[p] = hop
        if not frontier:
            break
    cnt = pd.Series(list(dist.values())).value_counts().sort_index()
    return pd.DataFrame({
        "hop": pd.array(cnt.index.to_numpy(np.int64), dtype="int64"),
        "n_parts": pd.array(cnt.to_numpy(np.int64), dtype="int64")})


SQL_BFS_HOPS_COPURCHASE = """
    WITH edges AS (
        SELECT DISTINCT a.l_partkey AS pa, b.l_partkey AS pb
        FROM lineitem a JOIN lineitem b
          ON a.l_orderkey = b.l_orderkey AND a.l_partkey <> b.l_partkey
    ),
    seed AS (
        SELECT pa FROM edges GROUP BY 1
        ORDER BY count(*) DESC, pa LIMIT 1
    ),
    h0 AS (SELECT pa AS p, 0 AS d FROM seed),
    h1 AS (
        SELECT p, d FROM h0
        UNION ALL
        SELECT DISTINCT e.pb, 1 FROM edges e JOIN h0 ON h0.p = e.pa
    ),
    m1 AS (SELECT p, min(d) AS d FROM h1 GROUP BY 1),
    h2 AS (
        SELECT p, d FROM m1
        UNION ALL
        SELECT DISTINCT e.pb, 2 FROM edges e
        JOIN m1 ON m1.p = e.pa AND m1.d = 1
    ),
    m2 AS (SELECT p, min(d) AS d FROM h2 GROUP BY 1),
    h3 AS (
        SELECT p, d FROM m2
        UNION ALL
        SELECT DISTINCT e.pb, 3 FROM edges e
        JOIN m2 ON m2.p = e.pa AND m2.d = 2
    ),
    m3 AS (SELECT p, min(d) AS d FROM h3 GROUP BY 1)
    SELECT CAST(d AS BIGINT) AS hop, CAST(count(*) AS BIGINT) AS n_parts
    FROM m3 GROUP BY 1 ORDER BY 1
"""


@entry("logistic_priority_orders", sql=lambda: SQL_LOGISTIC_PRIORITY)
def q_logistic_priority_orders(sf_dir: str) -> pd.DataFrame:
    """Logistic regression (binomial GLM, Nelder & Wedderburn 1972,
    public): P(order is URGENT/HIGH priority) on the standardized order
    total, fit by 3 unrolled IRLS Newton steps from β = (logit(ȳ), 0) —
    the binary-link sibling of the Poisson trend entry. Each step is one
    broadcast-β partial-sum pass over orders (5 running sums cross the
    cluster); reports exp(β₁) as the odds ratio per sd of spend."""
    orders = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def prep(b: pd.DataFrame) -> pd.DataFrame:
        pr = b["o_orderpriority"].astype(str).str[0]
        return pd.DataFrame({
            "y": pr.isin(["1", "2"]).to_numpy(np.float64),
            "p": b["o_totalprice"].to_numpy(np.float64)})

    base = orders.map_batches(prep, batch_format="pandas")

    def mom(b: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [float(len(b))], "sp": [b["p"].sum()],
                             "spp": [(b["p"] ** 2).sum()],
                             "sy": [b["y"].sum()]})

    m = base.map_batches(mom, batch_format="pandas").to_pandas().sum()
    n, mu_p = m["n"], m["sp"] / m["n"]
    sd_p = np.sqrt((m["spp"] - m["n"] * mu_p * mu_p) / (m["n"] - 1))
    ybar = m["sy"] / m["n"]
    b0, b1 = float(np.log(ybar / (1 - ybar))), 0.0

    for _ in range(3):
        def part(b: pd.DataFrame, b0=b0, b1=b1) -> pd.DataFrame:
            x = (b["p"].to_numpy(np.float64) - mu_p) / sd_p
            y = b["y"].to_numpy(np.float64)
            eta = b0 + b1 * x
            muv = 1.0 / (1.0 + np.exp(-eta))
            w = muv * (1.0 - muv)
            z = eta + (y - muv) / w
            return pd.DataFrame({
                "sw": [w.sum()], "st": [(w * x).sum()],
                "stt": [(w * x * x).sum()], "sz": [(w * z).sum()],
                "stz": [(w * x * z).sum()]})

        s = base.map_batches(part, batch_format="pandas").to_pandas().sum()
        b1 = float((s["sw"] * s["stz"] - s["st"] * s["sz"])
                   / (s["sw"] * s["stt"] - s["st"] * s["st"]))
        b0 = float((s["sz"] - b1 * s["st"]) / s["sw"])

    return pd.DataFrame({
        "n_orders": pd.array([int(n)], dtype="int64"),
        "beta0": [np.round(b0, 6) + 0.0],
        "beta1": [np.round(b1, 6) + 0.0],
        "odds_ratio": [np.round(np.exp(b1), 6) + 0.0]})


SQL_LOGISTIC_PRIORITY = """
    WITH base AS (
        SELECT CASE WHEN substr(o_orderpriority, 1, 1) IN ('1', '2')
               THEN 1.0 ELSE 0.0 END AS y,
               o_totalprice AS p
        FROM orders
    ),
    mo AS (
        SELECT count(*)::DOUBLE AS n, avg(p) AS mu,
               stddev_samp(p) AS sd, avg(y) AS ybar
        FROM base
    ),
    xz AS (
        SELECT (b.p - mo.mu) / mo.sd AS x, b.y, mo.n,
               ln(mo.ybar / (1 - mo.ybar)) AS b0
        FROM base b, mo
    ),
    it1 AS (
        SELECT max(n) AS n,
               (sum(w) * sum(w * x * z) - sum(w * x) * sum(w * z))
               / (sum(w) * sum(w * x * x)
                  - sum(w * x) * sum(w * x)) AS b1n,
               sum(w * z) AS sz, sum(w * x) AS st, sum(w) AS sw
        FROM (
            SELECT *, mu * (1 - mu) AS w,
                   b0 + (y - mu) / (mu * (1 - mu)) AS z
            FROM (SELECT *, 1.0 / (1.0 + exp(-b0)) AS mu FROM xz)
        )
    ),
    c1 AS (SELECT n, b1n AS b1, (sz - b1n * st) / sw AS b0 FROM it1),
    it2 AS (
        SELECT (sum(w) * sum(w * x * z) - sum(w * x) * sum(w * z))
               / (sum(w) * sum(w * x * x)
                  - sum(w * x) * sum(w * x)) AS b1n,
               sum(w * z) AS sz, sum(w * x) AS st, sum(w) AS sw
        FROM (
            SELECT xz.x, xz.y, mu * (1 - mu) AS w,
                   c1.b0 + c1.b1 * xz.x
                       + (xz.y - mu) / (mu * (1 - mu)) AS z
            FROM (
                SELECT xz.x, xz.y, c1.b0, c1.b1,
                       1.0 / (1.0 + exp(-(c1.b0 + c1.b1 * xz.x))) AS mu
                FROM xz, c1
            ) xz, c1
        )
    ),
    c2 AS (SELECT b1n AS b1, (sz - b1n * st) / sw AS b0 FROM it2),
    it3 AS (
        SELECT (sum(w) * sum(w * x * z) - sum(w * x) * sum(w * z))
               / (sum(w) * sum(w * x * x)
                  - sum(w * x) * sum(w * x)) AS b1n,
               sum(w * z) AS sz, sum(w * x) AS st, sum(w) AS sw
        FROM (
            SELECT xz.x, xz.y, mu * (1 - mu) AS w,
                   c2.b0 + c2.b1 * xz.x
                       + (xz.y - mu) / (mu * (1 - mu)) AS z
            FROM (
                SELECT xz.x, xz.y, c2.b0, c2.b1,
                       1.0 / (1.0 + exp(-(c2.b0 + c2.b1 * xz.x))) AS mu
                FROM xz, c2
            ) xz, c2
        )
    ),
    c3 AS (SELECT b1n AS b1, (sz - b1n * st) / sw AS b0 FROM it3)
    SELECT CAST(c1.n AS BIGINT) AS n_orders,
           round(c3.b0, 6) + 0.0 AS beta0,
           round(c3.b1, 6) + 0.0 AS beta1,
           round(exp(c3.b1), 6) + 0.0 AS odds_ratio
    FROM c3, c1
"""
