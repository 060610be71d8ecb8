"""HHI edges."""

import pandas as pd


def _lineitem(tmp_path, orders, parts, price=None, disc=None):
    n = len(orders)
    pd.DataFrame({"l_orderkey": orders, "l_partkey": parts,
                  "l_suppkey": parts, "l_linenumber": range(n),
                  "l_quantity": [1.0] * n,
                  "l_extendedprice": price or [100.0] * n,
                  "l_discount": disc or [0.0] * n,
                  "l_tax": [0.0] * n, "l_returnflag": ["N"] * n,
                  "l_linestatus": ["O"] * n,
                  "l_shipdate": pd.to_datetime(["2024-01-01"] * n)
                  .astype("datetime64[us]")}) \
        .to_parquet(tmp_path / "lineitem.parquet")
    return str(tmp_path)


def test_hhi_extremes(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    # two suppliers with equal revenue -> HHI = 2*(0.5^2)*10000 = 5000
    sf = _lineitem(tmp_path, orders=[1, 2], parts=[1, 2],
                   price=[100.0, 100.0])
    out = Q.q_hhi_suppliers_lineitem(sf)
    assert out.loc[0, "hhi"] == 5000.0
    # monopoly -> 10000
    sf = _lineitem(tmp_path, orders=[1, 2], parts=[1, 1])
    out2 = Q.q_hhi_suppliers_lineitem(sf)
    assert out2.loc[0, "hhi"] == 10000.0
