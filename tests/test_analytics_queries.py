"""Shipping-priority (TPC-H Q3 shape) and cohort retention — pipeline-level
checks on small hand-built inputs where the expected answer
is computable by eye."""

import numpy as np
import pandas as pd


def _write_events(tmp_path, user_day_pairs):
    rows = []
    for i, (u, day) in enumerate(user_day_pairs):
        rows.append({"event_id": i,
                     "ts": pd.Timestamp("2024-01-01") + pd.Timedelta(days=day,
                                                                     hours=3),
                     "user_id": u, "event_type": "a", "value": 1.0,
                     "props": "{}"})
    df = pd.DataFrame(rows)
    df["ts"] = df["ts"].astype("datetime64[us]")
    df.to_parquet(tmp_path / "events.parquet")


def test_cohort_retention_small(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    # user 1 active days 0,1,3; user 2 active days 1,1 (dup), 2
    _write_events(tmp_path, [(1, 0), (1, 1), (1, 3), (2, 1), (2, 1), (2, 2)])
    out = Q.q_cohort_retention_events(str(tmp_path))
    jan1 = pd.Timestamp("2024-01-01")
    jan2 = pd.Timestamp("2024-01-02")
    got = {(r["cohort"], r["offset_days"]): r["n_users"]
           for _, r in out.iterrows()}
    assert got == {(jan1, 0): 1, (jan1, 1): 1, (jan1, 3): 1,
                   (jan2, 0): 1, (jan2, 1): 1}


def test_shipping_priority_filters_and_revenue(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    cut = pd.Timestamp("1998-01-01")
    cust = pd.DataFrame({
        "c_custkey": [1, 2], "c_name": ["a", "b"],
        "c_nationkey": [0, 0], "c_acctbal": [0.0, 0.0],
        "c_mktsegment": ["BUILDING", "MACHINERY"],
    })
    orders = pd.DataFrame({
        "o_orderkey": [10, 11, 12],
        "o_custkey": [1, 1, 2],          # 12 is non-BUILDING -> dropped
        "o_orderstatus": ["O"] * 3,
        "o_totalprice": [0.0] * 3,
        # 11 is on/after the cutoff -> dropped
        "o_orderdate": pd.to_datetime(["1997-06-01", "1998-06-01",
                                       "1997-06-01"]),
        "o_orderpriority": ["1-URGENT", "2-HIGH", "3-MEDIUM"],
    })
    orders["o_orderdate"] = orders["o_orderdate"].astype("datetime64[us]")
    li = pd.DataFrame({
        "l_orderkey": [10, 10, 10],
        "l_partkey": [1, 1, 1], "l_suppkey": [1, 1, 1],
        "l_linenumber": np.array([1, 2, 3], dtype=np.int32),
        "l_quantity": [1.0] * 3,
        "l_extendedprice": [100.0, 200.0, 50.0],
        "l_discount": [0.1, 0.0, 0.5],
        "l_tax": [0.0] * 3,
        "l_returnflag": ["N"] * 3, "l_linestatus": ["O"] * 3,
        # 50.0 line shipped before the cutoff -> excluded from revenue
        "l_shipdate": pd.to_datetime(["1998-02-01", "1998-03-01",
                                      "1997-12-01"]),
    })
    li["l_shipdate"] = li["l_shipdate"].astype("datetime64[us]")
    for name, df in [("customer", cust), ("orders", orders),
                     ("lineitem", li)]:
        df.to_parquet(tmp_path / f"{name}.parquet")
    out = Q.q_shipping_priority(str(tmp_path))
    assert out["o_orderkey"].tolist() == [10]
    np.testing.assert_allclose(out["revenue"].iloc[0],
                               100.0 * 0.9 + 200.0)   # 290.0
    assert out["o_orderpriority"].iloc[0] == "1-URGENT"


def test_keyed_map_partitions_colocates_keys(ray_session):
    """Every row of a key must reach exactly one partition-kernel call, and
    a cross-partition reduction over the kernel output must equal the
    single-frame reference."""
    import ray.data as rd

    import numpy as np
    import pandas as pd
    from forecastframe_ray.stages.agg import keyed_map_partitions

    rng = np.random.default_rng(5)
    df = pd.DataFrame({"u": rng.integers(0, 200, 5000),
                       "x": rng.normal(size=5000)})
    ds = rd.from_pandas(df).repartition(7)

    def per_key(part: pd.DataFrame) -> pd.DataFrame:
        g = part.groupby("u", sort=False)["x"]
        return pd.DataFrame({"u": g.size().index,
                             "n": g.size().to_numpy(),
                             "mn": g.min().to_numpy()})

    out = keyed_map_partitions(ds, ["u"], per_key, num_partitions=9) \
        .to_pandas()
    # co-location: each key appears in exactly one kernel output row
    assert not out["u"].duplicated().any()
    ref = df.groupby("u").agg(n=("x", "size"), mn=("x", "min")).reset_index()
    m = out.sort_values("u").reset_index(drop=True)
    r = ref.sort_values("u").reset_index(drop=True)
    assert (m["n"].to_numpy() == r["n"].to_numpy()).all()
    assert np.allclose(m["mn"].to_numpy(), r["mn"].to_numpy())
