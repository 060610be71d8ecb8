"""Bloom-filter membership prefilter for semi-joins whose small side is too
big to broadcast as an exact key set.

At 100 TB a "dim" side can still hold 10⁹ distinct keys — an exact broadcast
set is ~10s of GB per worker, but a 1%-FPR Bloom bitmap is ~1.2 GB and a
0.1%-FPR one ~1.8 GB (m = -n·ln p / ln²2 bits, k = (m/n)·ln 2 probes,
standard Bloom 1970 sizing). The filter never drops a true match (no false
negatives), so composing it with an exact semi-join on the survivors keeps
results exact while the expensive join only sees matching keys + ~p·|left|
false positives.

Distributed build — the bit SPACE is sliced, not the data, so no task ever
holds more than m/P bits:

1. ``map_batches`` hashes the key columns to uint64 (narrow projection),
   dedupes per batch, expands to the k probe bit-indices, and tags each
   index with its owning slice ``idx // slice_bits`` — only (slice, idx)
   int rows move;
2. ``groupby(slice).map_groups`` builds each slice's bitmap independently
   (``np.bitwise_or.at`` scatter);
3. the driver concatenates P slice blobs into the final bitmap — driver
   traffic is exactly m/8 bytes, once, regardless of row count.

Probing is double hashing (Kirsch–Mitzenmacher 2006): probe_i = h1 + i·h2
(mod m), both halves derived from the splitmix64-mixed row hash.
"""

from __future__ import annotations

import math

import numpy as np
import pandas as pd

from forecastframe_ray import keys as K
from forecastframe_ray.stages.agg import PART_COL, exchange

_H2_SALT = np.uint64(0xA076_1D64_78BD_642F)  # public constant (xxh64 prime)


def bloom_params(n_keys: int, fpp: float = 0.01) -> tuple[int, int]:
    """Standard Bloom sizing: bits m and probe count k for ``n_keys`` at the
    target false-positive probability."""
    if not 0 < fpp < 1:
        raise ValueError("fpp must be in (0, 1)")
    n = max(1, n_keys)
    m = int(math.ceil(-n * math.log(fpp) / (math.log(2) ** 2)))
    m = (m + 63) // 64 * 64  # word-align
    k = max(1, int(round(m / n * math.log(2))))
    return m, k


def _probe_indices(h: np.ndarray, num_bits: int, num_hashes: int) -> np.ndarray:
    """(len(h), k) uint64 probe bit-indices via double hashing."""
    h1 = K._mix_u64(h)
    h2 = K._mix_u64(h ^ _H2_SALT) | np.uint64(1)  # odd → full-cycle stride
    i = np.arange(num_hashes, dtype=np.uint64)
    return (h1[:, None] + i[None, :] * h2[:, None]) % np.uint64(num_bits)


def _set_bits(bits: np.ndarray, idx: np.ndarray) -> None:
    np.bitwise_or.at(bits, (idx >> np.uint64(6)).astype(np.int64),
                     np.uint64(1) << (idx & np.uint64(63)))


def _test_bits(bits: np.ndarray, idx: np.ndarray) -> np.ndarray:
    word = bits[(idx >> np.uint64(6)).astype(np.int64)]
    return (word >> (idx & np.uint64(63))) & np.uint64(1) != 0


def build_bloom(ds, key_cols: list[str], num_bits: int, num_hashes: int,
                num_partitions: int = 32) -> np.ndarray:
    """Distributed Bloom build over ``ds``'s keys → the final uint64 bitmap
    (length ``num_bits // 64``) on the driver, ready for ``ray.put``."""
    gk = list(key_cols)
    if num_bits % 64:
        raise ValueError("num_bits must be a multiple of 64")
    words_total = num_bits // 64
    # slice on word boundaries; last slice may be short
    words_per_slice = -(-words_total // num_partitions)
    slice_bits = words_per_slice * 64

    def to_indices(batch: pd.DataFrame) -> pd.DataFrame:
        # the partition id is the bitmap slice the index falls in
        h = np.unique(K.hash_key_columns(batch, gk))
        idx = np.unique(_probe_indices(h, num_bits, num_hashes).ravel())
        return pd.DataFrame({
            "__idx": idx,
            PART_COL: (idx // np.uint64(slice_bits)).astype(np.int32),
        })

    def build_slice(s: int, part: pd.DataFrame) -> pd.DataFrame:
        local = part["__idx"].to_numpy(dtype=np.uint64) \
            - np.uint64(s * slice_bits)
        n_words = min(words_per_slice, words_total - s * words_per_slice)
        bits = np.zeros(n_words, dtype=np.uint64)
        _set_bits(bits, local)
        return pd.DataFrame({"__slice": [s], "__bits": [bits.tobytes()]})

    parts = exchange(ds, to_indices, build_slice).to_pandas()
    bits = np.zeros(words_total, dtype=np.uint64)
    for s, blob in zip(parts["__slice"], parts["__bits"]):
        w = np.frombuffer(blob, dtype=np.uint64)
        bits[s * words_per_slice: s * words_per_slice + len(w)] = w
    return bits


def bloom_filter_members(ds, key_cols: list[str], bits_ref, num_bits: int,
                         num_hashes: int):
    """Keep rows whose keys MIGHT be in the built filter (no false
    negatives; ~fpp false positives). ``bits_ref`` is ``ray.put(bitmap)``."""
    import ray

    gk = list(key_cols)

    def keep(batch: pd.DataFrame) -> pd.DataFrame:
        bits = ray.get(bits_ref)
        h = K.hash_key_columns(batch, gk)
        idx = _probe_indices(h, num_bits, num_hashes)
        hit = _test_bits(bits, idx.ravel()).reshape(idx.shape).all(axis=1)
        return batch[hit]

    return ds.map_batches(keep, batch_format="pandas")


#: above this many distinct right keys the exact verify switches from the
#: broadcast key-set to a distributed hash join (same policy as dedup's
#: keep-set fallback)
_BROADCAST_KEY_LIMIT = 5_000_000


def bloom_semi_join(left, right, on: list[str], fpp: float = 0.01,
                    num_partitions: int = 32):
    """EXACT semi-join with a Bloom prefilter: the bitmap eliminates
    ~(1-fpp) of non-matching left rows, then the exact verify (broadcast
    key-set below ``_BROADCAST_KEY_LIMIT`` distinct keys, distributed hash
    join against the distinct-key table above it) removes the ~fpp false
    positives. Semantics identical to a plain semi-join — the bloom pass
    only changes how much data the exact join must see."""
    import ray

    from forecastframe_ray.stages.agg import hash_count
    from forecastframe_ray.stages.join import (broadcast_semi_join,
                                               hash_join)

    gk = list(on)
    distinct = hash_count(right.select_columns(gk), gk, out_col="__n",
                          num_partitions=num_partitions) \
        .drop_columns(["__n"]).materialize()
    n = distinct.count()
    num_bits, num_hashes = bloom_params(n, fpp)
    bits = build_bloom(distinct, gk, num_bits, num_hashes, num_partitions)
    ref = ray.put(bits)
    maybe = bloom_filter_members(left, gk, ref, num_bits, num_hashes)
    if n <= _BROADCAST_KEY_LIMIT:
        return broadcast_semi_join(maybe, distinct.to_pandas(), gk)
    # scale path: inner join against the (distinct) key table = semi join
    return hash_join(maybe, distinct, gk, how="inner",
                     num_partitions=num_partitions)
