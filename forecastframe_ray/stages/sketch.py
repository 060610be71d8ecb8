"""KMV (k-minimum-values) distinct-count sketch — mergeable approximate
COUNT(DISTINCT) for continuous aggregates.

The classic bottom-k estimator (Bar-Yossef et al. 2002, "Counting distinct
elements in a data stream"; unbiased form from Beyer et al. 2007, "On
synopses for distinct-value estimation under multiset operations"): hash
every value to uint64, keep the k smallest DISTINCT hashes. With fewer
than k distinct hashes the sketch IS the distinct set (exact count); at k
the k-th minimum estimates density: D̂ = (k−1)/U(k) where U(k) is the k-th
minimum normalized to (0,1]. Standard error ≈ 1/√k.

Why it fits the tier engine: the sketch is a bounded-size ALGEBRAIC carry
(merge = k smallest of the union — associative and commutative, exactly
like the (count, sum, min, max, Σx²) columns the 1h→1d→7d cascade already
carries), so "distinct hosts per bucket" can cascade without ever
re-touching the finest tier. Sketches travel as fixed-cap ``binary``
columns (little-endian uint64s), Arrow-native through every shuffle.

The hash is :func:`forecastframe_ray.keys.hash_key_columns`'s fixed-key
``pd.util.hash_pandas_object`` — deterministic across processes and
cluster shapes, so estimates are reproducible run-to-run.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from forecastframe_ray import keys as K
from forecastframe_ray.stages.agg import bucketed_map_groups

K_DEFAULT = 1024
_SCALE = float(2 ** 64)


def kmv_from_hashes(h: np.ndarray, k: int) -> np.ndarray:
    """k smallest distinct uint64 hashes, ascending (np.unique sorts)."""
    u = np.unique(h.astype(np.uint64, copy=False))
    return u[:k]


def kmv_merge(sketches: list[np.ndarray], k: int) -> np.ndarray:
    """Union-merge: k smallest distinct of the concatenation. Associative,
    commutative, idempotent — safe under any shuffle/cascade order."""
    return np.unique(np.concatenate(sketches))[:k]


def kmv_estimate(sk: np.ndarray, k: int) -> float:
    """Exact count below k distinct; else the (k−1)/U(k) estimator."""
    if len(sk) < k:
        return float(len(sk))
    # +1 maps the max hash to exactly 1.0 and keeps U(k) > 0
    u_k = (float(sk[k - 1]) + 1.0) / _SCALE
    return (k - 1) / u_k


def kmv_to_bytes(sk: np.ndarray) -> bytes:
    return sk.astype("<u8").tobytes()


def kmv_from_bytes(b: bytes) -> np.ndarray:
    return np.frombuffer(b, dtype="<u8").astype(np.uint64)


def distinct_sketch(ds, group_keys: list[str], value_col: str,
                    k: int = K_DEFAULT, num_partitions: int = 64):
    """Per-group approximate COUNT(DISTINCT ``value_col``) as a Dataset of
    ``group_keys + [kmv (binary), distinct_est (float64), is_exact (bool)]``.

    Physical plan (the engine's standard two-level aggregate): each batch
    pre-reduces to ONE bounded sketch row per group it contains (the
    combiner — at most k uint64s per group per batch leave the map side),
    then one coarse-hash shuffle merges per group. The shuffle traffic is
    O(groups × k × 8 bytes) regardless of row count — the whole point at
    100 TB framing, where exact distinct would shuffle every value.
    """
    gk = list(group_keys)

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        h = K.hash_key_columns(b, [value_col])
        rows = []
        sub = b[gk]
        for key, idx in sub.groupby(gk, sort=False, dropna=False,
                                    observed=True).indices.items():
            key = key if isinstance(key, tuple) else (key,)
            row = dict(zip(gk, key))
            row["__kmv"] = kmv_to_bytes(kmv_from_hashes(h[idx], k))
            rows.append(row)
        if not rows:
            return pd.DataFrame({**{c: pd.Series([], dtype="object")
                                    for c in gk},
                                 "__kmv": pd.Series([], dtype="object")})
        return pd.DataFrame(rows)

    def merge(sub: pd.DataFrame) -> pd.DataFrame:
        if len(sub) == 0:
            out = sub[gk].iloc[0:0].copy()
            out["kmv"] = pd.Series([], dtype="object")
            out["distinct_est"] = pd.Series([], dtype="float64")
            out["is_exact"] = pd.Series([], dtype="bool")
            return out
        sk = kmv_merge([kmv_from_bytes(x) for x in sub["__kmv"]], k)
        out = sub[gk].iloc[:1].copy()
        out["kmv"] = [kmv_to_bytes(sk)]
        out["distinct_est"] = kmv_estimate(sk, k)
        out["is_exact"] = len(sk) < k
        return out

    parts = ds.map_batches(partials, batch_format="pandas")
    return bucketed_map_groups(parts, gk, merge,
                               num_partitions=num_partitions)


def merge_sketch_rows(sk_ds, group_keys: list[str], k: int,
                      kmv_col: str = "kmv", num_partitions: int = 64):
    """Cascade step: re-aggregate EXISTING sketch rows to a coarser key
    (e.g. per-1h sketches → per-1d) by pure sketch merge — the spine is
    never re-read, exactly like the algebraic (count, sum, …) cascade in
    :mod:`forecastframe_ray.pipelines.rollup`. Output schema matches
    :func:`distinct_sketch`."""
    gk = list(group_keys)

    def merge(sub: pd.DataFrame) -> pd.DataFrame:
        if len(sub) == 0:
            out = sub[gk].iloc[0:0].copy()
            out["kmv"] = pd.Series([], dtype="object")
            out["distinct_est"] = pd.Series([], dtype="float64")
            out["is_exact"] = pd.Series([], dtype="bool")
            return out
        sk = kmv_merge([kmv_from_bytes(x) for x in sub[kmv_col]], k)
        out = sub[gk].iloc[:1].copy()
        out["kmv"] = [kmv_to_bytes(sk)]
        out["distinct_est"] = kmv_estimate(sk, k)
        out["is_exact"] = len(sk) < k
        return out

    return bucketed_map_groups(sk_ds, gk, merge,
                               num_partitions=num_partitions)


def distinct_tiers(ds, ts_col: str, entity_col: str,
                   group_keys: list[str] | None = None,
                   k: int = K_DEFAULT, num_partitions: int = 64) -> dict:
    """Approximate distinct-entity continuous aggregate at the engine's
    1h/1d/7d retention tiers (north_rule scope): the finest tier sketches
    the raw stream once; every coarser tier is a pure sketch merge of the
    finer one (associativity pinned byte-identical by
    ``tests/test_sketch.py``). Returns ``{tier: Dataset}`` with
    ``group_keys + [bucket_us, kmv, distinct_est, is_exact]``."""
    from forecastframe_ray.keys import TIER_US

    gk = list(group_keys or [])

    def bucket_1h(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        us = b[ts_col].astype("datetime64[us]").astype("int64")
        b["bucket_us"] = (us // TIER_US["1h"]) * TIER_US["1h"]
        return b[gk + ["bucket_us", entity_col]]

    tiers = {}
    base = ds.map_batches(bucket_1h, batch_format="pandas")
    tiers["1h"] = distinct_sketch(base, gk + ["bucket_us"], entity_col,
                                  k=k, num_partitions=num_partitions)
    prev = "1h"
    for tier in ("1d", "7d"):
        width = TIER_US[tier]

        def refloor(b: pd.DataFrame, width=width) -> pd.DataFrame:
            b = b.copy()
            b["bucket_us"] = (b["bucket_us"] // width) * width
            return b

        tiers[tier] = merge_sketch_rows(
            tiers[prev].map_batches(refloor, batch_format="pandas"),
            gk + ["bucket_us"], k, num_partitions=num_partitions)
        prev = tier
    return tiers


# ---------------------------------------------------------------------------
# mergeable quantile sketch: log-bucketed histogram (HDR-histogram family)
# ---------------------------------------------------------------------------
#
# Buckets are geometric: value x > 0 lands in bucket i = floor(ln(x)/ln(1+2ε)),
# whose upper edge (1+2ε)^(i+1) over-estimates any member by at most (1+2ε) —
# the classic relative-error quantile histogram (HdrHistogram / DDSketch
# [Masson, Rim, Lee; VLDB 2019] bucket layout). Counts are ALGEBRAIC (merge =
# add), so per-bucket sketches cascade 1h→1d→7d exactly like (count, sum, …).
# Zero / negative values get a dedicated underflow bucket reported as 0.0
# (crawl-rate series are non-negative by construction).

HIST_EPS = 0.01
_UNDERFLOW = np.int32(-(2 ** 31) + 1)


def _gamma(eps: float) -> float:
    return 1.0 + 2.0 * eps


def hist_from_values(x: np.ndarray, eps: float = HIST_EPS):
    """(bucket_ids int32 ascending, counts int64) for a value array."""
    x = np.asarray(x, dtype=np.float64)
    x = x[np.isfinite(x)]
    pos = x > 0
    ids = np.floor(np.log(x[pos]) / np.log(_gamma(eps))).astype(np.int32)
    if pos.sum() < len(x):
        ids = np.concatenate([ids, np.full(len(x) - int(pos.sum()),
                                           _UNDERFLOW, dtype=np.int32)])
    u, c = np.unique(ids, return_counts=True)
    return u.astype(np.int32), c.astype(np.int64)


def hist_merge(hists: list[tuple[np.ndarray, np.ndarray]]):
    """Sum counts per bucket — associative/commutative (np.unique sorts)."""
    ids = np.concatenate([h[0] for h in hists])
    cnt = np.concatenate([h[1] for h in hists])
    u, inv = np.unique(ids, return_inverse=True)
    return u.astype(np.int32), np.bincount(
        inv, weights=cnt.astype(np.float64)).astype(np.int64)


def hist_quantile(ids: np.ndarray, counts: np.ndarray, q: float,
                  eps: float = HIST_EPS) -> float:
    """Inverse-CDF (lower/disc) quantile: the upper edge of the bucket
    holding the ceil(q·n)-th smallest value — within a (1+2ε) factor of
    the true discrete quantile by construction."""
    n = int(counts.sum())
    if n == 0:
        return float("nan")
    rank = max(1, int(np.ceil(q * n)))
    cum = np.cumsum(counts)
    b = int(np.searchsorted(cum, rank))
    if ids[b] == _UNDERFLOW:
        return 0.0
    return float(_gamma(eps) ** (int(ids[b]) + 1))


def hist_to_bytes(ids: np.ndarray, counts: np.ndarray) -> bytes:
    return ids.astype("<i4").tobytes() + counts.astype("<i8").tobytes()


def hist_from_bytes(b: bytes):
    nb = len(b) // 12  # 4 bytes id + 8 bytes count per bucket
    ids = np.frombuffer(b[: nb * 4], dtype="<i4").astype(np.int32)
    cnt = np.frombuffer(b[nb * 4:], dtype="<i8").astype(np.int64)
    return ids, cnt


def quantile_sketch(ds, group_keys: list[str], value_col: str,
                    eps: float = HIST_EPS, num_partitions: int = 64):
    """Per-group mergeable quantile histogram as a Dataset of
    ``group_keys + [qhist (binary), n (int64)]`` — the same two-level
    combiner/merge plan as :func:`distinct_sketch`; shuffle traffic is
    O(groups × buckets) (buckets ≈ ln(max/min)/ln(1+2ε), ~1.4k for a
    float64 dynamic range at ε=1%), independent of row count. Use
    :func:`hist_quantile` on the merged rows."""
    gk = list(group_keys)

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        x = b[value_col].to_numpy(dtype=np.float64, na_value=np.nan)
        rows = []
        for key, idx in b[gk].groupby(gk, sort=False, dropna=False,
                                      observed=True).indices.items():
            key = key if isinstance(key, tuple) else (key,)
            row = dict(zip(gk, key))
            row["__qh"] = hist_to_bytes(*hist_from_values(x[idx], eps))
            rows.append(row)
        if not rows:
            return pd.DataFrame({**{c: pd.Series([], dtype="object")
                                    for c in gk},
                                 "__qh": pd.Series([], dtype="object")})
        return pd.DataFrame(rows)

    def merge(sub: pd.DataFrame) -> pd.DataFrame:
        if len(sub) == 0:
            out = sub[gk].iloc[0:0].copy()
            out["qhist"] = pd.Series([], dtype="object")
            out["n"] = pd.Series([], dtype="int64")
            return out
        ids, cnt = hist_merge([hist_from_bytes(x) for x in sub["__qh"]])
        out = sub[gk].iloc[:1].copy()
        out["qhist"] = [hist_to_bytes(ids, cnt)]
        out["n"] = int(cnt.sum())
        return out

    parts = ds.map_batches(partials, batch_format="pandas")
    return bucketed_map_groups(parts, gk, merge,
                               num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# mergeable heavy-hitters summary (Misra–Gries / SpaceSaving family)
# ---------------------------------------------------------------------------
#
# The Misra–Gries k-counter summary (Misra & Gries 1982; mergeability and
# the merge rule below from Agarwal et al. 2012, "Mergeable Summaries"):
# keep ≤ k (value, count) pairs; to shrink past k, subtract the (k+1)-th
# largest count from every counter and drop non-positives. Any value with
# true frequency > n/k is guaranteed present, and stored counts undercount
# the truth by at most n/k (n = total rows summarized). Counts are
# additive, so per-bucket summaries cascade 1h→1d→7d like everything else
# in this module. Representation is EXPLODED rows (group, value, count) —
# values can be any key type (hosts, user ids) with no binary packing.

def mg_truncate(values: np.ndarray, counts: np.ndarray, k: int):
    """Shrink an exact/partial counter set to ≤ k Misra–Gries counters."""
    if len(values) <= k:
        return values, counts
    order = np.argsort(counts)[::-1]
    sub = counts[order[k]]  # (k+1)-th largest
    keep = order[:k]
    newc = counts[keep] - sub
    pos = newc > 0
    return values[keep][pos], newc[pos]


def mg_merge(parts: list[tuple[np.ndarray, np.ndarray]], k: int):
    """Add counts per value across summaries, then truncate to k."""
    vals = np.concatenate([p[0] for p in parts])
    cnts = np.concatenate([p[1] for p in parts])
    u, inv = np.unique(vals, return_inverse=True)
    summed = np.bincount(inv, weights=cnts.astype(np.float64)).astype(np.int64)
    return mg_truncate(u, summed, k)


def topk_sketch(ds, group_keys: list[str], value_col: str, k: int = 64,
                num_partitions: int = 64):
    """Per-group heavy hitters: Dataset of ``group_keys + [value_col,
    mg_count (int64), n (int64)]`` — ≤ k rows per group. Counts never
    overcount; the one-shot merge (sum all per-batch summaries, truncate
    once) undercounts any value by at most ``2n/(k+1)`` (Agarwal et al.'s
    pairwise rule proves n/(k+1); summing first only reduces truncation
    mass, the 2× is the safe stated bound), so any value with true
    frequency above that is guaranteed present. Below k distinct values
    per group the summary is EXACT counts. Combiner = exact per-batch
    value_counts truncated to k, merge = additive + truncate — shuffle
    traffic O(groups × k), independent of row count."""
    gk = list(group_keys)

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for key, g in b.groupby(gk, sort=False, dropna=False,
                                observed=True):
            key = key if isinstance(key, tuple) else (key,)
            vc = g[value_col].value_counts()  # drops nulls; n = non-null
            if len(vc) == 0:
                continue
            v, c = mg_truncate(vc.index.to_numpy(),
                               vc.to_numpy(dtype=np.int64), k)
            # a zero-count marker row carries this partial's n even when
            # truncation empties the counter set (uniform over-k batch);
            # zero counts are additive no-ops in the merge
            v = np.concatenate([v, vc.index.to_numpy()[:1]])
            c = np.concatenate([c, np.zeros(1, dtype=np.int64)])
            part = pd.DataFrame({value_col: v, "mg_count": c})
            for col, kv in zip(gk, key):
                part[col] = kv
            part["n"] = 0
            part.iloc[-1, part.columns.get_loc("n")] = int(vc.sum())
            outs.append(part)
        if not outs:
            return pd.DataFrame({**{c: pd.Series([], dtype="object")
                                    for c in gk + [value_col]},
                                 "mg_count": pd.Series([], dtype="int64"),
                                 "n": pd.Series([], dtype="int64")})
        return pd.concat(outs, ignore_index=True)[
            gk + [value_col, "mg_count", "n"]]

    def merge(sub: pd.DataFrame) -> pd.DataFrame:
        if len(sub) == 0:
            return sub[gk + [value_col, "mg_count", "n"]].iloc[0:0].copy()
        v, c = mg_merge([(sub[value_col].to_numpy(),
                          sub["mg_count"].to_numpy(dtype=np.int64))], k)
        pos = c > 0  # drop surviving zero-count marker rows
        out = pd.DataFrame({value_col: v[pos], "mg_count": c[pos]})
        for col in gk:
            out[col] = sub[col].iloc[0]
        out["n"] = int(sub["n"].sum())
        return out[gk + [value_col, "mg_count", "n"]]

    parts = ds.map_batches(partials, batch_format="pandas")
    return bucketed_map_groups(parts, gk, merge,
                               num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# Count-Min sketch (Cormode & Muthukrishnan 2005 — public): mergeable
# approximate per-item frequencies. d salted rows × w counters; update adds
# 1 at position mix64(H(x) ^ salt_j) % w in every row, estimate is the min
# across rows. Guarantees: est ≥ true always; est ≤ true + εN (ε ≈ e/w)
# with probability 1 − (1/2)^d per item. Merge = element-wise sum —
# algebraic like every other tier carry; the sketch travels as a fixed
# d·w·8-byte binary column.
# ---------------------------------------------------------------------------

CMS_W_DEFAULT = 512
CMS_D_DEFAULT = 4
_CMS_SALTS = np.array([0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F,
                       0x165667B19E3779F9, 0x27D4EB2F165667C5,
                       0x85EBCA6B0F4A7C15, 0xC2B2AE35D27D4EB5],
                      dtype=np.uint64)


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer (public domain — Steele et al. 2014),
    vectorized over uint64; numpy unsigned arithmetic wraps mod 2^64."""
    x = x.astype(np.uint64, copy=True)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x


def cms_positions(h: np.ndarray, w: int, d: int) -> np.ndarray:
    """(d, len(h)) row positions for hashes ``h``."""
    h = h.astype(np.uint64, copy=False)
    return np.stack([(_mix64(h ^ _CMS_SALTS[j]) % np.uint64(w))
                     .astype(np.int64) for j in range(d)])


def cms_from_hashes(h: np.ndarray, w: int = CMS_W_DEFAULT,
                    d: int = CMS_D_DEFAULT) -> np.ndarray:
    """Build a (d, w) int64 count matrix from pre-hashed values."""
    pos = cms_positions(h, w, d)
    return np.stack([np.bincount(pos[j], minlength=w).astype(np.int64)
                     for j in range(d)])


def cms_merge(mats: list[np.ndarray]) -> np.ndarray:
    """Element-wise sum — associative/commutative, safe under any
    shuffle or cascade order."""
    return np.sum(np.stack(mats), axis=0)


def cms_estimate(mat: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Point-query estimates (min across rows) for each hash in ``h``."""
    d, w = mat.shape
    pos = cms_positions(h, w, d)
    return np.min(np.stack([mat[j, pos[j]] for j in range(d)]), axis=0)


def cms_to_bytes(mat: np.ndarray) -> bytes:
    return mat.astype("<i8").tobytes()


def cms_from_bytes(b: bytes, w: int, d: int) -> np.ndarray:
    return np.frombuffer(b, dtype="<i8").reshape(d, w).copy()


def cms_sketch(ds, group_keys: list[str], value_col: str,
               w: int = CMS_W_DEFAULT, d: int = CMS_D_DEFAULT,
               num_partitions: int = 64):
    """Per-group Count-Min sketch of ``value_col`` frequencies as a Dataset
    of ``group_keys + [cms (binary), n (int64)]``.

    Same two-level plan as :func:`distinct_sketch`: each batch pre-reduces
    to ONE d·w matrix per group it contains, one coarse-hash shuffle sums
    them. Shuffle traffic is O(groups × d × w × 8 bytes) regardless of row
    count — the heavy-hitter/frequency analog of the KMV carry."""
    gk = list(group_keys)

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        h = K.hash_key_columns(b, [value_col])
        rows = []
        for key, idx in b[gk].groupby(gk, sort=False, dropna=False,
                                      observed=True).indices.items():
            key = key if isinstance(key, tuple) else (key,)
            row = dict(zip(gk, key))
            row["__cms"] = cms_to_bytes(cms_from_hashes(h[idx], w, d))
            row["__n"] = len(idx)
            rows.append(row)
        if not rows:
            return pd.DataFrame({**{c: pd.Series([], dtype="object")
                                    for c in gk},
                                 "__cms": pd.Series([], dtype="object"),
                                 "__n": pd.Series([], dtype="int64")})
        return pd.DataFrame(rows)

    def merge(sub: pd.DataFrame) -> pd.DataFrame:
        if len(sub) == 0:
            out = sub[gk].iloc[0:0].copy()
            out["cms"] = pd.Series([], dtype="object")
            out["n"] = pd.Series([], dtype="int64")
            return out
        mat = cms_merge([cms_from_bytes(x, w, d) for x in sub["__cms"]])
        out = sub[gk].iloc[:1].copy()
        out["cms"] = [cms_to_bytes(mat)]
        out["n"] = int(sub["__n"].sum())
        return out

    parts = ds.map_batches(partials, batch_format="pandas")
    return bucketed_map_groups(parts, gk, merge,
                               num_partitions=num_partitions)


# ---------------------------------------------------------------------------
# HyperLogLog distinct-count sketch (Flajolet, Fusy, Gandouet & Meunier 2007)
# ---------------------------------------------------------------------------
#: default precision: 2^12 = 4096 uint8 registers → σ ≈ 1.04/√4096 ≈ 1.6%
HLL_P_DEFAULT = 12

_POP_LUT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)


def _clz64(x: np.ndarray) -> np.ndarray:
    """Vectorized count-leading-zeros of nonzero uint64s (smear + popcount
    of the complement — no float log2, so exact at power-of-two edges)."""
    x = x.astype(np.uint64, copy=True)
    for s in (1, 2, 4, 8, 16, 32):
        x |= x >> np.uint64(s)
    ones = _POP_LUT[x.view(np.uint8).reshape(-1, 8)].sum(axis=1)
    return (64 - ones).astype(np.int64)


def hll_from_hashes(h: np.ndarray, p: int = HLL_P_DEFAULT) -> np.ndarray:
    """Dense uint8 register array: register = first p hash bits, value =
    1 + leading-zero run of the remaining 64−p bits (capped at 64−p+1)."""
    m = 1 << p
    h = h.astype(np.uint64, copy=False)
    idx = (h >> np.uint64(64 - p)).astype(np.int64)
    rest = h << np.uint64(p)  # uint64 wraps: drops the index bits
    rho = np.full(len(h), 64 - p + 1, dtype=np.int64)
    nz = rest != 0
    rho[nz] = _clz64(rest[nz]) + 1
    regs = np.zeros(m, dtype=np.uint8)
    np.maximum.at(regs, idx, rho.astype(np.uint8))
    return regs


def hll_merge(parts: list[np.ndarray]) -> np.ndarray:
    """Register-wise max — associative, commutative, idempotent."""
    return np.maximum.reduce(parts)


def hll_estimate(regs: np.ndarray) -> float:
    """Raw HLL estimate with the small-range linear-counting correction
    (the 64-bit-hash variant needs no large-range correction)."""
    m = float(len(regs))
    alpha = 0.7213 / (1.0 + 1.079 / m)
    est = alpha * m * m / np.sum(np.exp2(-regs.astype(np.float64)))
    zeros = int((regs == 0).sum())
    if est <= 2.5 * m and zeros > 0:
        est = m * np.log(m / zeros)
    return float(est)


def hll_distinct(ds, group_keys: list[str], value_col: str,
                 p: int = HLL_P_DEFAULT, num_partitions: int = 64):
    """Per-group approximate COUNT(DISTINCT) via HyperLogLog — same
    two-level plan as :func:`distinct_sketch` (per-batch partial registers
    per group, one coarse-hash merge), but the carry is a FIXED 2^p bytes
    per group regardless of cardinality, vs KMV's 8k bytes — the right
    trade above ~10⁶ distinct per group. Returns
    ``group_keys + [hll (binary), distinct_est (float64)]``."""
    gk = list(group_keys)

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        h = K.hash_key_columns(b, [value_col])
        rows = []
        sub = b[gk]
        for key, idx in sub.groupby(gk, sort=False, dropna=False,
                                    observed=True).indices.items():
            key = key if isinstance(key, tuple) else (key,)
            row = dict(zip(gk, key))
            row["__hll"] = hll_from_hashes(h[idx], p).tobytes()
            rows.append(row)
        if not rows:
            return pd.DataFrame({**{c: pd.Series([], dtype="object")
                                    for c in gk},
                                 "__hll": pd.Series([], dtype="object")})
        return pd.DataFrame(rows)

    def merge(sub: pd.DataFrame) -> pd.DataFrame:
        if len(sub) == 0:
            out = sub[gk].iloc[0:0].copy()
            out["hll"] = pd.Series([], dtype="object")
            out["distinct_est"] = pd.Series([], dtype="float64")
            return out
        regs = hll_merge([np.frombuffer(x, dtype=np.uint8)
                          for x in sub["__hll"]])
        out = sub[gk].iloc[:1].copy()
        out["hll"] = [regs.tobytes()]
        out["distinct_est"] = hll_estimate(regs)
        return out

    parts = ds.map_batches(partials, batch_format="pandas")
    return bucketed_map_groups(parts, gk, merge,
                               num_partitions=num_partitions)
