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


#: the pre-mix hash of a null (or NaN) key, in every column type
_NULL = np.uint64(0x6E756C6C6B657921)


def partition_ids(batch: pa.Table | pd.DataFrame, keys: list[str],
                  num_partitions: int) -> np.ndarray:
    """``hash(keys) % num_partitions`` per row over Arrow key columns (a
    DataFrame converts only those): the one partition hash of every
    exchange and of the stores' layout. An id depends on the key values
    alone, not on the batch or the encoding: a ``category`` hashes as its
    values, ``-0.0`` as ``0.0``, and null or NaN alike in every type."""
    h = np.zeros(len(batch), dtype=np.uint64)
    for k in keys:
        col = batch[k]
        if isinstance(col, pd.Series):
            col = pa.array(col, from_pandas=True)
        elif isinstance(col, pa.ChunkedArray):
            col = col.combine_chunks()
        h ^= _mix_u64(_key_hash(col))
    return (h % np.uint64(num_partitions)).astype(np.int32)


def _key_hash(col: pa.Array, encode: bool = True) -> np.ndarray:
    t = col.type
    if encode and (pa.types.is_string(t) or pa.types.is_large_string(t)
                   or pa.types.is_binary(t) or pa.types.is_large_binary(t)):
        return _key_hash(col.dictionary_encode())
    if pa.types.is_dictionary(t):
        # each distinct value hashed once; a null index takes the last slot
        h = np.append(_key_hash(col.dictionary, encode=False), _NULL)
        return h[col.indices.fill_null(len(h) - 1)
                 .to_numpy(zero_copy_only=False).astype(np.int64)]
    if pa.types.is_floating(t):
        # the IEEE bits (an int cast rejects 1.5); + 0.0 folds -0.0 into 0.0
        vals = col.cast(pa.float64()).to_numpy(zero_copy_only=False) + 0.0
        h = vals.view(np.uint64)
    elif pa.types.is_integer(t) or pa.types.is_temporal(t) \
            or pa.types.is_boolean(t):
        # unsigned 64-bit stays uint64: an int64 cast would overflow
        wide = pa.uint64() if pa.types.is_unsigned_integer(t) else pa.int64()
        h = col.cast(wide).fill_null(0).to_numpy(zero_copy_only=False) \
            .astype(np.uint64)
    else:  # strings, and any other type (decimal, nested, ...)
        h = pd.util.hash_pandas_object(col.to_pandas(), index=False) \
            .to_numpy(dtype=np.uint64)
    h[col.is_null(nan_is_null=True).to_numpy(zero_copy_only=False)] = _NULL
    return h


def _mix_u64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (public constant mixer), vectorized."""
    z = x.astype(np.uint64, copy=True) + np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))
