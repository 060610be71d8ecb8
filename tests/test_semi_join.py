"""``join.broadcast_semi_join``, the engine's one membership filter: its
rows against a pandas oracle for every key type it meets (semi and anti,
DataFrame / lazy Dataset / materialized Dataset keys, zero-row probe
blocks), the null-key rule it shares with ``hash_join`` and
``bloom_semi_join``, and the executions a key Dataset costs."""

import numpy as np
import pandas as pd
import pytest
import ray.data

from forecastframe_ray import keys as K
from forecastframe_ray.stages import bloom as B
from forecastframe_ray.stages.join import broadcast_semi_join

U64 = np.uint64

#: (probe key columns, key-set key columns): each pair is a key-type case
CASES = {
    "int32_probe_int64_keys": (
        {"k": np.array([1, 2, 3, -4, 7, 2], dtype=np.int32)},
        {"k": np.array([2, -4, 9, 2], dtype=np.int64)}),
    "uint64_above_2_63": (
        {"k": np.array([2**63 + 1, 5, 2**64 - 1, 0, 2**63], dtype=U64)},
        {"k": np.array([2**64 - 1, 5, 2**63], dtype=U64)}),
    # -1 and 2^64 - 1 have the same 64 bits, so the same row hash
    "int64_probe_uint64_keys": (
        {"k": np.array([-1, 5, 0, 2**62], dtype=np.int64)},
        {"k": np.array([2**64 - 1, 5, 2**62], dtype=U64)}),
    "signed_zero_and_nan": (
        {"k": np.array([0.0, -0.0, 1.5, np.nan, 2.5])},
        {"k": np.array([-0.0, 1.5, np.nan])}),
    "strings": (
        {"k": np.array(["ab", "a", "abc", "é", "e", "", None, "ab\x00"],
                       dtype=object)},
        {"k": np.array(["a", "abc", "é", "", None], dtype=object)}),
    "category": (
        {"k": pd.Categorical(["x", "y", "z", None, "x"])},
        {"k": pd.Categorical(["w", "z", "y"], categories=["w", "y", "z"])}),
    "duplicates": (
        {"k": np.array([1, 1, 2, 3, 3], dtype=np.int64)},
        {"k": np.array([1, 1, 1, 3, 3, 3], dtype=np.int64)}),
    "empty_key_set": (
        {"k": np.array([1, 2], dtype=np.int64)},
        {"k": np.array([], dtype=np.int64)}),
    # column hashes XOR-combine: every (a, a) hashes alike, and (1, 2)
    # collides with (2, 1)
    "two_columns_equal_and_swapped": (
        {"a": np.array([1, 2, 1, 2, 3, 1, 4], dtype=np.int64),
         "b": np.array([2, 1, 1, 2, 3, 3, 4], dtype=np.int64)},
        {"a": np.array([1, 2, 4], dtype=np.int64),
         "b": np.array([2, 2, 5], dtype=np.int64)}),
}


def _oracle(probe: pd.DataFrame, keys: pd.DataFrame, on: list[str]):
    """Rows of ``probe`` whose key tuple equals a key-set tuple by Python
    value (``-0.0 == 0.0``, a category as its value); a null never
    matches."""
    def tuples(df):
        return [tuple(r) for r in df[on].astype(object).itertuples(index=False)]

    def has_null(t):
        return any(pd.isna(v) for v in t)

    keyset = {t for t in tuples(keys) if not has_null(t)}
    hit = np.array([not has_null(t) and t in keyset for t in tuples(probe)],
                   dtype=bool)
    return probe[hit], probe[~hit]


def _key_forms(keys: pd.DataFrame):
    blocks = [keys.iloc[:1], keys.iloc[1:]] if len(keys) > 1 else [keys]
    return {
        "frame": keys,
        "lazy": ray.data.from_pandas(blocks).map_batches(
            lambda b: b, batch_format="pandas"),
        "materialized": ray.data.from_pandas(blocks).materialize(),
    }


@pytest.mark.parametrize("form", ["frame", "lazy", "materialized"])
@pytest.mark.parametrize("case", list(CASES))
def test_semi_join_matches_pandas_oracle(case, form):
    probe_cols, key_cols = CASES[case]
    probe = pd.DataFrame(probe_cols)
    probe["row"] = np.arange(len(probe))
    keys = pd.DataFrame(key_cols)
    on = list(key_cols)
    # zero-row blocks between and around the rows
    half = len(probe) // 2
    ds = ray.data.from_pandas([probe.iloc[:0], probe.iloc[:half],
                               probe.iloc[:0], probe.iloc[half:]])
    want_semi, want_anti = _oracle(probe, keys, on)
    for anti, want in ((False, want_semi), (True, want_anti)):
        got = broadcast_semi_join(ds, _key_forms(keys)[form], on, anti=anti) \
            .to_pandas()
        rows = sorted(got["row"]) if len(got) else []
        assert rows == sorted(want["row"]), (case, form, anti)


def test_two_column_hash_collides_on_swapped_and_equal_values():
    """The collisions the exact comparison resolves above."""
    df = pd.DataFrame({"a": [1, 2, 3, 1, 2, 9], "b": [1, 2, 3, 2, 1, 8]})
    h = K.row_hash(df, ["a", "b"])
    assert h[0] == h[1] == h[2] == 0
    assert h[3] == h[4] != h[5]


def test_null_key_never_matches():
    """A null (or NaN) key matches nothing, even a null in the key set: a
    semi-join drops the row, an anti-join keeps it, and the Bloom
    semi-join agrees (the rule of ``hash_join``)."""
    left = pd.DataFrame({"k": [1.0, np.nan, 4.0], "v": [10, 20, 40]})
    right = pd.DataFrame({"k": [1.0, np.nan, 4.0]})
    ds = ray.data.from_pandas(left)

    def vs(out):
        return sorted(out.to_pandas()["v"])

    assert vs(broadcast_semi_join(ds, right, ["k"])) == [10, 40]
    assert vs(broadcast_semi_join(ds, right, ["k"], anti=True)) == [20]
    assert vs(B.bloom_semi_join(ds, ray.data.from_pandas(right), ["k"],
                                num_partitions=2)) == [10, 40]


def test_key_dataset_starts_at_most_its_own_execution(executions):
    """Materialized keys start no Ray Data execution when the semi-join is
    planned, lazy keys exactly one (their plan's), and the filter itself
    runs with the output."""
    keys = pd.DataFrame({"k": np.arange(0, 100, 3, dtype=np.int64)})
    ds = ray.data.from_pandas(pd.DataFrame({"k": np.arange(100)}))
    mat = ray.data.from_pandas(np.array_split(keys, 4)).materialize()
    lazy = ray.data.from_pandas(keys).map_batches(lambda b: b,
                                                  batch_format="pandas")
    executions.clear()
    out = broadcast_semi_join(ds, mat, ["k"])
    assert executions == []
    assert sorted(out.to_pandas()["k"]) == list(range(0, 100, 3))
    assert len(executions) == 1
    executions.clear()
    broadcast_semi_join(ds, lazy, ["k"])
    assert len(executions) == 1
