"""Key derivation: url → (tld, registered domain, host) hierarchy, timestamp →
retention-tier buckets, and deterministic row/partition hashing.

The web-corpus hierarchy (``tld → domain → host``) plays the role of the
reference's flat hierarchy columns (``/root/reference/forecastframe/main.py:39``,
hierarchy is just a list of group columns); bucketing plays the role of its
daily datetime index.

Everything here is deterministic across processes and Ray workers (no
``hash()`` — Python string hashing is salted per process).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

# Bucket widths for the retention tiers, in microseconds.
TIER_US = {
    "1h": 3_600_000_000,
    "1d": 86_400_000_000,
    "7d": 7 * 86_400_000_000,
}
TIERS = ("1h", "1d", "7d")


def split_url(urls: pa.Array) -> dict[str, pa.Array]:
    """Vectorized ``url → host / domain / tld`` using Arrow compute kernels.

    host = authority of ``scheme://host/path``; registered domain = last two
    dot-labels of the host (heuristic — no public-suffix list, documented);
    tld = last label.
    """
    # strip scheme
    no_scheme = pc.replace_substring_regex(urls, pattern=r"^[a-z][a-z0-9+.-]*://", replacement="")
    host = pc.replace_substring_regex(no_scheme, pattern=r"[/:?#].*$", replacement="")
    # registered domain: last two labels; tld: last label
    domain = pc.extract_regex(host, pattern=r"(?P<d>[^.]+\.[^.]+)$")
    domain = pc.struct_field(domain, "d")
    # hosts with a single label: domain = host
    domain = pc.if_else(pc.is_valid(domain), domain, host)
    tld = pc.extract_regex(host, pattern=r"(?P<t>[^.]+)$")
    tld = pc.struct_field(tld, "t")
    return {"host": host, "domain": domain, "tld": tld}


# ---------------------------------------------------------------------------
# Deterministic hashing (stable across processes; no PYTHONHASHSEED issues)
# ---------------------------------------------------------------------------

def hash_key_columns(df: pd.DataFrame, keys: list[str]) -> np.ndarray:
    """Deterministic uint64 row hash over the key columns.

    Uses ``pd.util.hash_pandas_object`` with the default fixed hash key —
    stable across processes and machines, vectorized in C.
    """
    return pd.util.hash_pandas_object(df[list(keys)], index=False).to_numpy(dtype=np.uint64)


def partition_ids(df: pd.DataFrame, keys: list[str], num_partitions: int) -> np.ndarray:
    return (hash_key_columns(df, keys) % np.uint64(num_partitions)).astype(np.int32)


def partition_ids_arrow(batch: pa.Table, keys: list[str], num_partitions: int) -> np.ndarray:
    """Deterministic partition ids over an Arrow batch WITHOUT converting the
    whole batch to pandas: string columns are dictionary-encoded and only the
    (small) dictionary is hashed; int/timestamp columns hash zero-copy."""
    h = np.zeros(len(batch), dtype=np.uint64)
    for k in keys:
        col = batch[k]
        if isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        t = col.type
        if pa.types.is_string(t) or pa.types.is_large_string(t) or pa.types.is_binary(t):
            de = col.dictionary_encode()
            dict_hashes = pd.util.hash_pandas_object(
                de.dictionary.to_pandas(), index=False
            ).to_numpy(dtype=np.uint64)
            # null values get a dedicated sentinel slot so NaN indices never
            # take the undefined NaN→int cast (matches hash_pandas_object's
            # explicit NaN handling in the pandas path)
            n_dict = len(dict_hashes)
            dict_hashes = np.append(dict_hashes, np.uint64(0x6E756C6C6B657921))
            idx = de.indices.fill_null(n_dict).to_numpy(zero_copy_only=False)
            h ^= _mix_u64(dict_hashes[idx.astype(np.int64)])
        elif pa.types.is_floating(t):
            # hash the IEEE bit pattern — an int64 cast would raise
            # ArrowInvalid on non-integral keys (e.g. a float 1.5 group key).
            # ``+ 0.0`` folds -0.0 into +0.0 so keys equal under pandas
            # groupby land in the same partition; nulls become NaN (one bit
            # pattern) via to_numpy's fill.
            vals = col.cast(pa.float64()).to_numpy(zero_copy_only=False) + 0.0
            h ^= _mix_u64(vals.view(np.uint64))
        elif pa.types.is_integer(t) or pa.types.is_temporal(t) \
                or pa.types.is_boolean(t):
            # unsigned 64-bit stays uint64 (an int64 cast would overflow
            # values above 2^63, e.g. uint64 line hashes)
            wide = pa.uint64() if pa.types.is_unsigned_integer(t) else pa.int64()
            ints = col.cast(wide)
            if ints.null_count:
                # deterministic sentinel for null keys (pandas path hashes
                # NaN to a fixed value too); avoids undefined NaN→uint64 cast
                sentinel = 0x123456789ABCDEF if wide == pa.uint64() \
                    else -0x123456789ABCDEF
                ints = ints.fill_null(sentinel)
            vals = ints.to_numpy(zero_copy_only=False).astype(np.uint64)
            h ^= _mix_u64(vals)
        else:
            # any other dtype (decimal, nested, ...): hash via the pandas
            # path for this column only — keeps "any key dtype" semantics
            vals = pd.util.hash_pandas_object(
                col.to_pandas(), index=False).to_numpy(dtype=np.uint64)
            h ^= _mix_u64(vals)
    return (h % np.uint64(num_partitions)).astype(np.int32)


def _mix_u64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (public constant mixer), vectorized."""
    z = x.astype(np.uint64, copy=True) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))
