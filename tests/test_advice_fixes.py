"""Regression tests for the round-2 ADVICE.md findings: float group keys in
the Arrow aggregate path, timestamp-bearing dim tables in the JSON manifest,
and non-convergence signalling in distributed connected components."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest

import ray.data

from forecastframe_ray import keys as K
from forecastframe_ray.stages import agg


def test_hash_aggregate_float_keys():
    # ADVICE r2 (medium): the Arrow auto-route raised ArrowInvalid on a
    # non-integral float group key ("Float value 1.5 was truncated")
    df = pd.DataFrame({"k": [1.5, 1.5, 2.5, np.nan, np.nan, 2.5],
                       "v": [1.0, 2.0, 3.0, 4.0, 5.0, 7.0]})
    out = agg.hash_aggregate(ray.data.from_pandas(df), ["k"],
                             {"s": ("v", "sum")}).to_pandas()
    expect = (df.groupby("k", dropna=False, sort=False)["v"].sum()
              .reset_index().rename(columns={"v": "s"}))
    got = out.sort_values("k", na_position="last").reset_index(drop=True)
    want = expect.sort_values("k", na_position="last").reset_index(drop=True)
    pd.testing.assert_frame_equal(got, want, check_dtype=False)


def _decimals(vals):
    import decimal
    return pa.array([decimal.Decimal(v) for v in vals],
                    type=pa.decimal128(5, 2))


def _mixed_keys() -> pd.DataFrame:
    return pd.DataFrame({"s": ["a", None, "b", "a", None],
                         "i": [1, 2, 2, 1, 2],
                         "f": [0.5, np.nan, -0.0, 0.5, np.nan]})


#: name → (batch, a twin that must get the same ids row by row or None,
#: groups of rows that must share an id). Every column is a key.
_HASH_CASES = {
    # -0.0 and 0.0 are equal under pandas groupby → must co-partition
    "float_negzero": (pa.table({"k": pa.array([0.0, -0.0, 1.5, None, 2.5])}),
                      None, [[0, 1]]),
    # null and NaN are one group under pandas groupby
    "float_null": (pa.table({"k": pa.array([None, 1.5, float("nan"), None])}),
                   None, [[0, 2, 3]]),
    "string_null": (pa.table({"k": pa.array(["a", None, "b", None, "a"])}),
                    None, [[1, 3], [0, 4]]),
    "int_null": (pa.table({"k": pa.array([7, None, 3, None], pa.int64())}),
                 None, [[1, 3]]),
    # decimal keys take the pandas per-column hash instead of an Arrow
    # cast error
    "decimal": (pa.table({"k": _decimals(["1.5", "1.5", "2.5"])}), None,
                [[0, 1]]),
    # a category (an Arrow dictionary) hashes as its values, whatever its
    # unobserved categories
    "category": (pd.DataFrame({"k": pd.Categorical(
        ["a", None, "b", "a"], categories=["z", "b", "a"])}),
        pd.DataFrame({"k": ["a", None, "b", "a"]}), [[0, 3]]),
    "dataframe": (_mixed_keys(), pa.Table.from_pandas(_mixed_keys()),
                  [[0, 3], [1, 4]]),
}


@pytest.mark.parametrize("case", list(_HASH_CASES))
def test_partition_ids_depend_only_on_key_values(case):
    """Equal keys share an id, a twin encoding gets the same ids, and a
    row's id does not depend on the rest of its batch."""
    batch, twin, groups = _HASH_CASES[case]
    keys = list(batch.columns) if isinstance(batch, pd.DataFrame) \
        else batch.column_names
    ids = K.partition_ids(batch, keys, 8)
    assert ids.dtype == np.int32 and ((0 <= ids) & (ids < 8)).all()
    for rows in groups:
        assert len(set(ids[rows])) == 1, (rows, ids)
    if twin is not None:
        assert (K.partition_ids(twin, keys, 8) == ids).all()
    for i in range(len(batch)):
        one = batch.iloc[i:i + 1] if isinstance(batch, pd.DataFrame) \
            else batch.slice(i, 1)
        assert K.partition_ids(one, keys, 8)[0] == ids[i], i


def test_join_dim_table_datetime_saves_and_replays(tmp_path):
    # ADVICE r2 (low): a dim table with a Timestamp column (release dates)
    # crashed save()'s JSON manifest; dtypes must survive the replay
    from forecastframe_ray import RayForecastFrame
    from tests.conftest import HIERARCHY, tiny_sales_df

    dim = pd.DataFrame({
        "product": ["Prod_3", "Prod_4", "Prod_5"],
        "release_date": pd.to_datetime(["2019-11-01", "2019-12-01",
                                        "2019-12-15"]),
    })
    fr = RayForecastFrame(tiny_sales_df(), "datetime", "sales_int",
                          HIERARCHY, num_partitions=4)
    fr.join_dim_table(dim, left_on=["product"], how="left")
    expected = fr.to_pandas()
    path = str(tmp_path / "fr_dim")
    fr.save(path)  # crashed with a json TypeError before the fix

    back = RayForecastFrame.load(path)
    # replay the recorded plan on fresh data: the dict-form dim table must
    # rebuild with its original datetime64 dtype
    replayed = back.replay(tiny_sales_df()).to_pandas()
    assert replayed["release_date"].dtype == expected["release_date"].dtype
    a = replayed.sort_values(["product", "datetime"]).reset_index(drop=True)
    b = expected.sort_values(["product", "datetime"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a[b.columns], b, check_dtype=False)


def test_hash_aggregate_arrow_rejects_unknown_op():
    ds = ray.data.from_pandas(pd.DataFrame({"k": [1], "v": [1.0]}))
    with pytest.raises(ValueError, match="not Arrow-supported"):
        agg.hash_aggregate_arrow(ds, ["k"], {"m": ("v", "median")})


@pytest.mark.parametrize("first", [None, []], ids=["none", "empty"])
def test_partition_checksum_list_column_first_cell_empty(first):
    # ADVICE (low): array columns were spotted from the first row only and
    # cast to float64 — a None first cell sent the column to
    # hash_pandas_object (unhashable list), an empty one cast strings to float
    import zlib

    from forecastframe_ray.state.checkpoint import _partition_checksum

    df = pd.DataFrame({"id": [1, 2, 3],
                       "tags": [first, ["a", "bc"], ["d"]]})
    crc = _partition_checksum(df)
    assert crc == _partition_checksum(df.copy())
    changed = df.copy()
    changed.at[2, "tags"] = ["e"]
    assert _partition_checksum(changed) != crc

    # plain columns keep their checksum
    plain = df[["id"]]
    assert _partition_checksum(plain) == zlib.crc32(
        pd.util.hash_pandas_object(plain, index=False)
        .to_numpy(dtype=np.uint64).tobytes())
