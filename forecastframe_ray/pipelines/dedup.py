"""Deduplication stages for training-data pipelines (session brief
"Deduplication"): exact, MinHash+LSH, SimHash, n-gram Jaccard verification,
and embedding-cosine near-dup. The reference has only PK-uniqueness exact
dedup (/root/reference/forecastframe/main.py:61-69); everything else here is
built from public algorithms (Broder'97 MinHash, Charikar'02 SimHash,
Leskovec-Rajaraman-Ullman "Mining of Massive Datasets" LSH banding).

Scale design (100 TB framing):

- digests/signatures are computed in stateless ``map_batches`` (per-row
  numpy over rolling-hash shingle arrays — no Python-per-byte work);
- the shuffle key is always a *small fixed-width* column (16-byte digest,
  uint64 band bucket), never the document text;
- the exact-dedup survivors are a semi-join on the keep ids
  (:func:`join.broadcast_semi_join`), so neither the corpus nor the keep
  set reaches the driver;
- candidate verification happens inside one ``agg.exchange`` on the
  bucket's verify partition, so only same-bucket docs ever meet; bucket
  sizes are bounded by band width;
- cluster assignment (union-find) runs on the driver over the verified
  PAIR list only — pairs ≪ corpus (the standard LSH contract; ~0.2 pairs
  per doc on the synthetic corpus, 4M pairs at 20M docs).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd

from forecastframe_ray.pipelines.textstats import rolling_hashes

# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def _digest_batch(batch: pd.DataFrame, text_col: str, out_col: str = "__digest") -> pd.DataFrame:
    """MD5 hex digest of the exact text bytes — a 32-char shuffle key standing
    in for the full document."""
    batch = batch.copy()
    batch[out_col] = [
        hashlib.md5(t.encode("utf-8")).hexdigest() for t in batch[text_col].fillna("")
    ]
    return batch


def exact_dedup(ds, text_col: str = "text", id_col: str = "doc_id"):
    """Exact duplicate removal: keep the row with the smallest ``id_col`` per
    distinct text. The corpus itself never materializes and the driver never
    holds the keep-set:

    1. digest on a NARROW ``(id, text)`` projection → min(id) per digest via
       coarse-hash aggregate — only ``(digest, id)`` rows shuffle;
    2. semi-join the corpus on the surviving ids
       (:func:`join.broadcast_semi_join` over the keep-set Dataset).
    """
    from forecastframe_ray.stages.agg import (hash_aggregate, known_rows,
                                              partition_count)
    from forecastframe_ray.stages.join import broadcast_semi_join

    narrow = ds.select_columns([id_col, text_col]).map_batches(
        lambda b: _digest_batch(b, text_col)[[id_col, "__digest"]],
        batch_format="pandas",
    )
    rows = known_rows(ds)
    keep = hash_aggregate(narrow, ["__digest"], {id_col: (id_col, "min")},
                          num_partitions=64 if rows is None
                          else partition_count(rows))
    return broadcast_semi_join(ds, keep.select_columns([id_col]), [id_col])


def exact_dedup_keep_best(ds, priority: list[tuple[str, bool]],
                          text_col: str = "text", id_col: str = "doc_id"):
    """Exact dedup with a keep POLICY: per distinct text keep the row that
    sorts first under ``priority`` — a list of ``(column, ascending)``
    pairs (e.g. ``[("source", True)]`` keeps the copy from the
    alphabetically-first source, the crawl-pipeline "preferred provenance"
    rule), with ``id_col`` ascending as the final tie-break. Identical
    scale shape to :func:`exact_dedup`: a narrow (id, priority-cols,
    digest) projection shuffles, the winner per digest is found by a
    per-batch combiner + one key-co-located reduce, and the corpus is
    semi-joined on the surviving ids."""
    from forecastframe_ray.stages.agg import keyed_map_partitions
    from forecastframe_ray.stages.join import broadcast_semi_join

    cols = [c for c, _ in priority]
    by = cols + [id_col]
    asc = [a for _, a in priority] + [True]

    def best(df: pd.DataFrame) -> pd.DataFrame:
        if not len(df):
            return df
        df = df.sort_values(by, ascending=asc, kind="mergesort")
        return df.drop_duplicates("__digest", keep="first")

    narrow = ds.select_columns([id_col, *cols, text_col]).map_batches(
        lambda b: best(_digest_batch(b, text_col)[[id_col, *cols,
                                                   "__digest"]]),
        batch_format="pandas",
    )
    winners = keyed_map_partitions(narrow, ["__digest"], best)
    return broadcast_semi_join(ds, winners.select_columns([id_col]),
                               [id_col])


def duplicate_counts(ds, text_col: str = "text"):
    """Per-digest multiplicity (groupby count over the digest key) — the
    monitoring view of exact dedup."""
    from forecastframe_ray.stages.agg import hash_count

    with_digest = ds.map_batches(lambda b: _digest_batch(b, text_col), batch_format="pandas")
    return hash_count(with_digest, ["__digest"], out_col="n_copies")


# ---------------------------------------------------------------------------
# shingles + MinHash signatures
# ---------------------------------------------------------------------------

_MERSENNE = np.uint64((1 << 61) - 1)


def _perm_params(num_perm: int, seed: int = 7) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)  # fixed seed → deterministic across runs
    a = rng.integers(1, 1 << 61, size=num_perm, dtype=np.uint64) | np.uint64(1)
    b = rng.integers(0, 1 << 61, size=num_perm, dtype=np.uint64)
    return a, b


def shingle_hashes(text: str, width: int = 5) -> np.ndarray:
    """Distinct uint64 hashes of all ``width``-byte shingles (rolling hash —
    one vectorized pass, shared with the fingerprint stage)."""
    return np.unique(rolling_hashes(text.encode("utf-8"), width))


def batch_shingle_windows(texts, width: int = 5):
    """Rolling-hash windows for EVERY doc in one vectorized pass (the
    concat+mask pattern of ``textstats.fingerprint_batch``): all docs' bytes
    concatenate into a single blob (docs shorter than ``width`` are padded to
    ``width``, matching ``rolling_hashes``' per-doc pad), the blob is hashed
    once, and doc-crossing windows are dropped.

    Returns ``(flat, offsets, counts)``: doc ``i``'s (non-unique) window
    hashes are ``flat[offsets[i] : offsets[i] + counts[i]]``. Per-doc
    ``np.unique`` over a slice reproduces :func:`shingle_hashes` exactly.

    ``texts`` may hold pre-encoded ``bytes`` (callers that already know the
    UTF-8 byte lengths pass them through so nothing encodes twice)."""
    datas = [t if isinstance(t, (bytes, bytearray)) else t.encode("utf-8")
             for t in texts]
    n = len(datas)
    lens = np.array([len(d) for d in datas], dtype=np.int64)
    pad_lens = np.maximum(lens, width)
    counts = pad_lens - width + 1
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1])) if n else \
        np.array([], dtype=np.int64)
    if n == 0:
        return np.array([], dtype=np.uint64), offsets, counts
    blob = b"".join(
        d if len(d) >= width else d + b"\x00" * (width - len(d))
        for d in datas)
    hashes = rolling_hashes(blob, width)
    total = len(hashes)
    starts = np.concatenate(([0], np.cumsum(pad_lens)[:-1]))
    # crossing windows are the [start+count, next_start) range of each doc:
    # mark range boundaries, cumsum → mask (no per-window searchsorted;
    # boundary indices are strictly increasing so plain assignment is safe)
    delta = np.zeros(total + 1, dtype=np.int32)
    delta[np.minimum(starts + counts, total)] += 1
    delta[np.minimum(starts + pad_lens, total)] -= 1
    keep = np.cumsum(delta[:-1]) == 0
    return hashes[keep], offsets, counts


def minhash_signature(sh: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """num_perm-wide MinHash: min over (a_i * h + b_i mod M) per permutation.
    One (num_perm × n_shingles) broadcast — no Python loop."""
    if len(sh) == 0:
        return np.full(len(a), np.iinfo(np.uint64).max, dtype=np.uint64)
    vals = (a[:, None] * sh[None, :] + b[:, None]) % _MERSENNE
    return vals.min(axis=1)


def minhash_batch(batch: pd.DataFrame, text_col: str, num_perm: int,
                  shingle_width: int, num_bands: int, seed: int = 7) -> pd.DataFrame:
    """map_batches fn: text → one row per (doc, band) with a uint64 bucket id.
    Emits only (id cols, band, bucket) — the LSH shuffle moves 24 B/band/doc.

    Vectorized across the WHOLE batch: all docs' shingle-window hashes come
    from ONE concat+mask rolling-hash pass (:func:`batch_shingle_windows` —
    no per-doc Python hashing); each permutation is one multiply-add over
    the flat array and the per-doc minima come from ``np.minimum.reduceat``
    at the doc offsets. Duplicate windows are NOT deduped first — the min
    over a multiset equals the min over its support, so the signature is
    identical to the per-doc ``np.unique`` form. Permutations are chunked so
    the (chunk × total_windows) temporary stays small."""
    rows_per_band = num_perm // num_bands
    a, b = _perm_params(num_perm, seed)
    texts = batch[text_col].fillna("")
    n = len(texts)
    if n == 0:
        ids = batch[[c for c in batch.columns if c != text_col]].copy()
        ids["band"] = np.array([], dtype=np.int32)
        ids["bucket"] = np.array([], dtype=np.uint64)
        return ids

    # Byte-bounded doc spans: rolling_hashes holds ~24 B of uint64
    # temporaries per input byte, so hashing a whole unsplit block's text in
    # one blob peaks at GBs per task (measured: 20M-doc run OOM-killed 32
    # workers at ~10 GB RSS each). Spans cap the blob at ~16 MB regardless
    # of how Ray sized the batch; signatures are per-doc so the split is
    # invisible to the result. Spans are bounded by TRUE UTF-8 byte lengths
    # (a char-count proxy under-bounds multi-byte/CJK text up to 4×,
    # ADVICE r3): docs encode ONCE here and the bytes are passed through to
    # batch_shingle_windows.
    datas = [t.encode("utf-8") for t in texts]
    byte_lens = np.fromiter((len(d) for d in datas), dtype=np.int64, count=n)
    span_bounds = [0]
    acc_bytes = 0
    for i, L in enumerate(byte_lens):
        if acc_bytes > 0 and acc_bytes + L > (16 << 20):
            span_bounds.append(i)
            acc_bytes = 0
        acc_bytes += int(L)
    span_bounds.append(n)

    sig = np.empty((num_perm, n), dtype=np.uint64)
    for s0, s1 in zip(span_bounds[:-1], span_bounds[1:]):
        flat, offsets, counts = batch_shingle_windows(
            datas[s0:s1], shingle_width)
        chunk = max(1, min(num_perm, (4 << 20) // max(len(flat), 1)))  # ≤32MB
        for p0 in range(0, num_perm, chunk):
            p1 = min(p0 + chunk, num_perm)
            vals = (a[p0:p1, None] * flat[None, :] + b[p0:p1, None]) % _MERSENNE
            sig[p0:p1, s0:s1] = np.minimum.reduceat(vals, offsets, axis=1)

    # band bucket = splitmix of the band's row values folded together with
    # the band index (vectorized replacement for per-band blake2b)
    from forecastframe_ray.keys import _mix_u64

    bands = sig[: num_bands * rows_per_band].reshape(num_bands, rows_per_band, n)
    acc = np.full((num_bands, n), np.uint64(0x9E3779B97F4A7C15), dtype=np.uint64)
    for r in range(rows_per_band):
        acc = _mix_u64(acc ^ bands[:, r, :])
    acc = _mix_u64(acc ^ (np.arange(num_bands, dtype=np.uint64)[:, None] + np.uint64(1)))

    id_cols = [c for c in batch.columns if c != text_col]
    rep = np.tile(np.arange(n), num_bands)
    ids = batch.iloc[rep][id_cols].reset_index(drop=True)
    ids["band"] = np.repeat(np.arange(num_bands, dtype=np.int32), n)
    ids["bucket"] = acc.reshape(-1)
    return ids


#: giant-LSH-bucket spill policy caps (see :func:`verify_lsh_bucket`)
CLIQUE_CAP = 1000     # exact-dup class: full clique up to this many members
CLASS_CAP = 32        # distinct-text classes compared all-pairs up to this
FANOUT_CAP = 1_000_000  # cross-class id fan-out cap (pairs per class pair)


#: sketch-estimate pre-filter (standard LSH practice — boilerplate-heavy
#: corpora make candidate class pairs vastly outnumber true near-dups):
#: each class's bottom-k (KMV) sketch — the k smallest of its sorted
#: distinct window hashes, FREE once the unique arrays exist — yields a
#: Jaccard estimate, and only pairs whose estimate clears ``threshold -
#: FILTER_MARGIN`` pay the exact intersect. At k=32 the estimate's sd is
#: ~0.08 near j=0.7, so an exactly-at-threshold pair is misfiltered with
#: p≈1%; higher-similarity pairs are safe. Chosen over an extra MinHash
#: pass because it adds NO streaming work (per-perm multiply streams were
#: measured memory-bandwidth-bound under 32-way task concurrency).
FILTER_K = 32
FILTER_MARGIN = 0.2


def _class_unique_windows(flat: np.ndarray, offsets: np.ndarray,
                          counts: np.ndarray) -> list:
    """Per-class sorted distinct window hashes (``shingle_hashes``
    semantics), used by both the exact intersects and the KMV sketches."""
    return [np.unique(flat[o: o + c]) for o, c in zip(offsets, counts)]


def _filter_class_pairs(cls_a: np.ndarray, cls_b: np.ndarray,
                        sh_list: list, threshold: float
                        ) -> tuple[np.ndarray, np.ndarray]:
    """Drop cross-class pairs whose bottom-``FILTER_K`` KMV Jaccard
    estimate is below ``threshold - FILTER_MARGIN`` (intra-class pairs
    always kept). Exact Jaccard still decides — and is emitted for — every
    survivor. Fully vectorized over all pairs: concatenate the two k-wide
    sketches, row-sort, count duplicates among the smallest k_eff distinct
    values (a duplicate = a hash present in both sketches)."""
    cross = cls_a != cls_b
    if not cross.any():
        return cls_a, cls_b
    maxu = np.iinfo(np.uint64).max
    ncls = len(sh_list)
    sizes = np.fromiter((len(s) for s in sh_list), np.int64, ncls)
    S = np.full((ncls, FILTER_K), maxu, dtype=np.uint64)
    for c, s in enumerate(sh_list):
        m = min(FILTER_K, len(s))
        S[c, :m] = s[:m]  # unique() output is sorted → bottom-m
    ca, cb = cls_a[cross], cls_b[cross]
    cut = max(0.0, threshold - FILTER_MARGIN)
    keep_cross = np.empty(len(ca), dtype=bool)
    # chunked: the (chunk × 2k) sort temporary stays ~256 MB regardless of
    # pair count (millions of candidate pairs per partition at scale)
    step = 250_000
    for s0 in range(0, len(ca), step):
        s1 = min(s0 + step, len(ca))
        A, B = S[ca[s0:s1]], S[cb[s0:s1]]
        merged = np.sort(np.concatenate([A, B], axis=1), axis=1)
        dup = (merged[:, 1:] == merged[:, :-1]) & (merged[:, 1:] != maxu)
        first = np.concatenate(
            [np.ones((s1 - s0, 1), dtype=bool), ~dup], axis=1)
        rank = np.cumsum(first, axis=1)  # distinct rank of each value
        min_sz = np.minimum(sizes[ca[s0:s1]], sizes[cb[s0:s1]])
        keff = np.maximum(1, np.minimum(FILTER_K, min_sz))
        est = (dup & (rank[:, 1:] <= keff[:, None])).sum(axis=1) / keff
        # short docs (< FILTER_K distinct windows) get very coarse KMV
        # estimates (k_eff=1 is a 0/1 estimate) — skip the prefilter there;
        # the exact intersect over < K elements is trivially cheap (ADVICE r3)
        keep_cross[s0:s1] = (est >= cut) | (min_sz < FILTER_K)
    drop = np.zeros(len(cls_a), dtype=bool)
    drop[np.flatnonzero(cross)[~keep_cross]] = True
    return cls_a[~drop], cls_b[~drop]


def verify_lsh_bucket(group: pd.DataFrame, id_col: str = "doc_id",
                      text_col: str = "text", shingle_width: int = 5,
                      threshold: float = 0.7, seed: int = 7) -> pd.DataFrame:
    """Per-bucket exact verification, collapsed over EXACT-duplicate
    classes: members are factorized by text first, all classes' shingles
    come from ONE batch-wide rolling-hash pass
    (:func:`batch_shingle_windows` + per-class ``np.unique``), pairwise
    Jaccard runs once per class pair, and the surviving id pairs fan out
    vectorized — a bucket of k exact dups costs O(1) intersects, not O(k²).

    Giant-bucket spill policy (bounded output for pathological buckets;
    connected-component closure downstream makes the star form
    cluster-equivalent to the clique form):

    - an exact-dup class bigger than ``CLIQUE_CAP`` emits a STAR on its
      min id (k-1 pairs) instead of the full clique (k(k-1)/2);
    - past ``CLASS_CAP`` distinct classes, each class is compared only to
      the class holding the bucket's min id (c-1 intersects, not c²/2);
    - a cross-class fan-out beyond ``FANOUT_CAP`` emits only the two
      classes' (min_i, min_j) representative pair.

    Cross-class pairs are pre-filtered by the bottom-``FILTER_K`` KMV
    sketch estimate (:func:`_filter_class_pairs`) before the exact
    intersect — survivors still get (and emit) the exact Jaccard.
    """
    empty = pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
    g = group.drop_duplicates(id_col).sort_values(id_col)
    if len(g) < 2:
        return empty
    ids = g[id_col].to_numpy()
    codes, uniq = pd.factorize(g[text_col].fillna(""), sort=False)
    flat, offsets, counts = batch_shingle_windows(uniq, shingle_width)
    sh = _class_unique_windows(flat, offsets, counts)
    members = [np.flatnonzero(codes == c) for c in range(len(uniq))]
    ncls = len(uniq)
    if ncls > CLASS_CAP:
        # g is sorted by id → the min-id class is codes[0]
        pairs_iter = ((min(codes[0], cj), max(codes[0], cj))
                      for cj in range(ncls) if cj != codes[0])
        pairs_iter = list(pairs_iter) + [(c, c) for c in range(ncls)]
    else:
        pairs_iter = [(ci, cj) for ci in range(ncls) for cj in range(ci, ncls)]
    pairs_arr = np.array(pairs_iter, dtype=np.int64).reshape(-1, 2)
    cls_a, cls_b = _filter_class_pairs(pairs_arr[:, 0], pairs_arr[:, 1],
                                       sh, threshold)
    out_a, out_b, out_s = [], [], []
    for ci, cj in zip(cls_a, cls_b):
        if ci == cj:
            sim = 1.0
        else:
            sa, sb = sh[ci], sh[cj]
            if len(sa) == 0 and len(sb) == 0:
                sim = 1.0
            else:
                inter = np.intersect1d(sa, sb, assume_unique=True)
                sim = len(inter) / (len(sa) + len(sb) - len(inter))
        if sim < threshold:
            continue
        if ci == cj:
            m = members[ci]
            if len(m) < 2:
                continue
            if len(m) > CLIQUE_CAP:  # star on the class min id
                lo = ids[m].min()
                rest = ids[m][ids[m] != lo]
                pa_, pb_ = np.full(len(rest), lo), rest
            else:
                aa, bb = np.triu_indices(len(m), 1)
                pa_, pb_ = ids[m[aa]], ids[m[bb]]
        else:
            mi, mj = members[ci], members[cj]
            if len(mi) * len(mj) > FANOUT_CAP:  # representatives only
                lo, hi = ids[mi].min(), ids[mj].min()
                pa_ = np.array([min(lo, hi)])
                pb_ = np.array([max(lo, hi)])
            else:
                A, B = np.meshgrid(ids[mi], ids[mj], indexing="ij")
                pa_, pb_ = A.ravel(), B.ravel()
                swap = pa_ > pb_
                pa_, pb_ = (np.where(swap, pb_, pa_),
                            np.where(swap, pa_, pb_))
        out_a.append(pa_)
        out_b.append(pb_)
        out_s.append(np.full(len(pa_), sim))
    if not out_a:
        return empty
    return pd.DataFrame({"id_a": np.concatenate(out_a),
                         "id_b": np.concatenate(out_b),
                         "jaccard": np.concatenate(out_s)})


def verify_lsh_partition(part: pd.DataFrame, id_col: str = "doc_id",
                         text_col: str = "text", shingle_width: int = 5,
                         threshold: float = 0.7, seed: int = 7) -> pd.DataFrame:
    """Partition-level LSH verification — the production path (the
    per-bucket kernel :func:`verify_lsh_bucket` is its semantic reference,
    pinned equal by pytest). One call verifies ALL buckets in a coarse-hash
    partition with the per-bucket Python collapsed away:

    - texts factorize ONCE per partition into exact-dup classes;
    - because exact dups share identical signatures (hence identical
      buckets), candidate CLASS pairs are bucket-independent: they come from
      one self-merge of the distinct (bucket, class) membership, deduped
      across buckets — each class pair pays ONE shingle intersect no matter
      how many buckets it collides in (the per-bucket form recomputed it);
    - all classes' shingles come from one :func:`batch_shingle_windows`
      pass; id fan-out is vectorized.

    Applies the same giant-bucket spill policy (``CLASS_CAP`` buckets star
    on the bucket's min-id class; ``CLIQUE_CAP`` / ``FANOUT_CAP`` bound the
    id fan-out)."""
    empty = pd.DataFrame({"id_a": [], "id_b": [], "jaccard": []})
    # min_size=2 prefilter: singleton buckets can never produce a pair
    part = part[part.duplicated(subset=["band", "bucket"], keep=False)]
    if len(part) == 0:
        return empty
    part = part.drop_duplicates(["band", "bucket", id_col]) \
        .sort_values(id_col, kind="mergesort")
    codes, uniq = pd.factorize(part[text_col].fillna(""), sort=False)
    ncls = len(uniq)
    part = part.assign(__cls=codes)

    # distinct (bucket, class) membership; id-sorted → "first" = min-id class
    m = part[["band", "bucket", "__cls"]].drop_duplicates()
    grp = m.groupby(["band", "bucket"])["__cls"]
    sizes = grp.transform("size").to_numpy()
    first_cls = grp.transform("first").to_numpy()

    normal = m[sizes <= CLASS_CAP]
    merged = normal.merge(normal, on=["band", "bucket"])
    cp = merged[["__cls_x", "__cls_y"]].to_numpy()
    big = sizes > CLASS_CAP
    if big.any():  # giant bucket: star on the bucket's min-id class
        big_cls = m["__cls"].to_numpy()[big]
        star = np.stack([first_cls[big], big_cls], axis=1)
        # intra-class (c, c) pairs for EVERY class in the big bucket too —
        # the per-bucket kernel's CLASS_CAP path appends them (dedup of
        # exact-dup classes whose every colliding bucket is giant must not
        # silently vanish; ADVICE r3)
        intra = np.stack([big_cls, big_cls], axis=1)
        parts = ([cp] if len(cp) else []) + [star, intra]
        cp = np.concatenate(parts, axis=0)
    if len(cp) == 0:
        return empty
    lo = np.minimum(cp[:, 0], cp[:, 1])
    hi = np.maximum(cp[:, 0], cp[:, 1])
    cls_pairs = np.unique(lo.astype(np.int64) * ncls + hi.astype(np.int64))
    cls_a, cls_b = cls_pairs // ncls, cls_pairs % ncls

    # distinct member ids per class, np.split-style (id-sorted, stable)
    d = part.drop_duplicates([id_col])  # one row per doc; __cls attached
    cls_of_doc = d["__cls"].to_numpy()
    order = np.argsort(cls_of_doc, kind="stable")
    ids_sorted = d[id_col].to_numpy()[order]
    cls_counts = np.bincount(cls_of_doc, minlength=ncls)
    cls_offsets = np.concatenate(([0], np.cumsum(cls_counts)[:-1]))

    def mem(c):
        return ids_sorted[cls_offsets[c]: cls_offsets[c] + cls_counts[c]]

    flat, offs, cnts = batch_shingle_windows(uniq, shingle_width)
    sh_list = _class_unique_windows(flat, offs, cnts)
    cls_a, cls_b = _filter_class_pairs(cls_a, cls_b, sh_list, threshold)

    def sh(c):
        return sh_list[c]

    out_a, out_b, out_s = [], [], []
    for ci, cj in zip(cls_a, cls_b):
        if ci == cj:
            mi = mem(ci)
            if len(mi) < 2:
                continue
            if len(mi) > CLIQUE_CAP:  # star on the class min id
                lo_id = mi.min()
                rest = mi[mi != lo_id]
                pa_, pb_ = np.full(len(rest), lo_id), rest
            else:
                aa, bb = np.triu_indices(len(mi), 1)
                pa_, pb_ = mi[aa], mi[bb]
            sim = 1.0
        else:
            sa, sb = sh(ci), sh(cj)
            if len(sa) == 0 and len(sb) == 0:
                sim = 1.0
            else:
                inter = np.intersect1d(sa, sb, assume_unique=True)
                sim = len(inter) / (len(sa) + len(sb) - len(inter))
            if sim < threshold:
                continue
            mi, mj = mem(ci), mem(cj)
            if len(mi) * len(mj) > FANOUT_CAP:  # representatives only
                lo_id, hi_id = mi.min(), mj.min()
                pa_ = np.array([min(lo_id, hi_id)])
                pb_ = np.array([max(lo_id, hi_id)])
            else:
                A, B = np.meshgrid(mi, mj, indexing="ij")
                pa_, pb_ = A.ravel(), B.ravel()
                swap = pa_ > pb_
                pa_, pb_ = (np.where(swap, pb_, pa_),
                            np.where(swap, pa_, pb_))
        out_a.append(pa_)
        out_b.append(pb_)
        out_s.append(np.full(len(pa_), sim))
    if not out_a:
        return empty
    return pd.DataFrame({"id_a": np.concatenate(out_a),
                         "id_b": np.concatenate(out_b),
                         "jaccard": np.concatenate(out_s)})


def ngram_jaccard(text_a: str, text_b: str, width: int = 5) -> float:
    """Exact n-gram Jaccard similarity (the verification oracle for LSH
    candidates)."""
    sa, sb = shingle_hashes(text_a, width), shingle_hashes(text_b, width)
    if len(sa) == 0 and len(sb) == 0:
        return 1.0
    inter = np.intersect1d(sa, sb, assume_unique=True)
    return len(inter) / (len(sa) + len(sb) - len(inter))


def ngram_containment(text_a: str, text_b: str, width: int = 5) -> float:
    """One-sided shingle overlap |A∩B| / min(|A|, |B|) — Broder's
    *containment* (1997, public): near 1.0 when the smaller document is a
    subset/excerpt of the larger even if their symmetric Jaccard is low.
    Both-empty → 1.0, one-empty → 0.0."""
    sa, sb = shingle_hashes(text_a, width), shingle_hashes(text_b, width)
    if len(sa) == 0 or len(sb) == 0:
        return 1.0 if len(sa) == len(sb) else 0.0
    inter = np.intersect1d(sa, sb, assume_unique=True)
    return len(inter) / min(len(sa), len(sb))


def minhash_lsh_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                      num_perm: int = 64, num_bands: int = 16,
                      shingle_width: int = 5, threshold: float = 0.7,
                      seed: int = 7, bucket_cap: int = 100_000,
                      wave_cand_limit: int = 4_000_000):
    """Candidate generation + exact verification:

    1. signature stage (stateless map_batches, text stays put);
    2. ``groupby(band, bucket)`` — only docs agreeing on a full band collide;
    3. per-bucket exact n-gram Jaccard on the (re-fetched) texts, emitting
       verified pairs ≥ threshold.

    Returns a Dataset of ``(id_a, id_b, jaccard)`` with id_a < id_b.

    The corpus text never reaches the driver and never broadcasts whole:
    bucket sizes prune candidate rows to colliding docs only, each wave's
    int-only candidate rows are collected on the driver, their texts are
    attached by a broadcast id filter (colliding docs ≪ corpus), and
    verification runs inside the bucket groups.

    Above ``wave_cand_limit`` candidate rows, verification runs in **band
    waves**: bands are split into ``ceil(n_cand / wave_cand_limit)`` groups
    verified sequentially, each wave's (small) pair output materialized
    before the next wave's shuffle starts. The verify exchange ships each
    doc's text once per verify partition it collides in — on a dup-heavy
    corpus that is ~``num_bands``× the candidate text bytes, which at 20M
    docs spilled ~200 GB at once and exhausted the disk. Waving doesn't
    change the total bytes moved, but bounds PEAK spill to one wave's share
    (intermediates are freed between waves); pairs are already deduped
    across bands by the final aggregate, so results are identical.
    """
    from forecastframe_ray.stages.agg import (PART_COL, exchange, hash_aggregate,
                                              keyed_map_partitions, known_rows,
                                              partition_count)

    sigs = ds.map_batches(
        lambda b: minhash_batch(b[[id_col, text_col]], text_col, num_perm,
                                shingle_width, num_bands, seed),
        batch_format="pandas",
    )

    # candidate (id, band, bucket) rows = members of non-singleton buckets:
    # ONE coarse shuffle + a vectorized duplicated() mask per partition
    # (singleton buckets can never produce a pair). Collisions only — tiny
    # vs the corpus.
    from forecastframe_ray import keys as K

    # candidate-prune fan-out scales like the verify fan-out: with the
    # signature-row count (docs × bands; int-only ~24 B rows, ~2M rows ≈
    # 50 MB a partition) when ``ds`` is materialized (its row count is
    # metadata), else 32 — a fixed 32 held ~240 MB a task at 20M docs
    docs = known_rows(ds)
    prune_parts = 32 if docs is None else partition_count(
        docs * num_bands, rows_per_part=2_000_000, floor_rows=50_000)

    def keep_colliding(part: pd.DataFrame) -> pd.DataFrame:
        # singleton buckets can never pair; buckets beyond ``bucket_cap``
        # rows are common-shingle-argmin artifacts, not similarity evidence
        # (a true near-dup pair agrees on ~s^rows_per_band of the OTHER
        # bands too, so dropping one noise bucket leaves its pairs ~15
        # further chances) — dropping them bounds the per-partition skew a
        # mega-bucket would otherwise pin on one reducer
        sizes = part.groupby(["band", "bucket"], sort=False)[id_col] \
            .transform("size")
        keep = (sizes >= 2) & (sizes <= bucket_cap)
        return part[keep.to_numpy()]

    cand_meta = keyed_map_partitions(sigs, ["band", "bucket"], keep_colliding,
                                     prune_parts).materialize()

    # Each verify wave collects this INT-ONLY metadata on the driver and
    # broadcasts it (document text never reaches the driver — that was the
    # r1 scale-killer; an int triple per collision is the documented
    # broadcast-small-side pattern), and candidate texts are attached by a
    # broadcast id-filter + bucket fan-out map: zero hash-shuffle joins.
    # Band waves bound the collection at ~``wave_cand_limit`` rows.
    import ray
    import ray.data

    def _empty_pairs():
        return ray.data.from_pandas(pd.DataFrame({
            "id_a": pd.Series([], dtype="int64"),
            "id_b": pd.Series([], dtype="int64"),
            "jaccard": pd.Series([], dtype="float64")}))

    n_cand = cand_meta.count()
    if n_cand == 0:
        return _empty_pairs()

    from functools import partial

    VPART = "__vpart"
    verify = partial(verify_lsh_partition, id_col=id_col, text_col=text_col,
                     shingle_width=shingle_width, threshold=threshold,
                     seed=seed)

    # The verify shuffle moves each doc's text ONCE PER PARTITION it
    # collides in (usually 1), not once per (band, bucket) collision row —
    # at 2M dup-heavy docs the per-collision form shuffled ~10× the corpus
    # bytes and was 80% of the pipeline wall. Two row kinds share one
    # schema: int-only meta rows (doc_id, band, bucket, "") and text
    # carrier rows (doc_id, band=-1, bucket=0, text); the kernel re-fans
    # text onto meta rows with an in-heap merge (object-dtype fan-out
    # copies string POINTERS, not bytes).
    _cols = [id_col, "band", "bucket", text_col, VPART]

    def _as_textrows(out: pd.DataFrame) -> pd.DataFrame:
        out["band"] = np.int32(-1)
        out["bucket"] = np.uint64(0)
        out[text_col] = out[text_col].astype("string")
        out[VPART] = out[VPART].astype(np.int32)
        return out[_cols]

    def run_verify(_, part: pd.DataFrame) -> pd.DataFrame:
        is_text = part["band"].to_numpy() == -1
        texts = part.loc[is_text, [id_col, text_col]].drop_duplicates(id_col)
        meta = part.loc[~is_text, [id_col, "band", "bucket"]]
        return verify(meta.merge(texts, on=id_col, how="inner"))

    def _verify_subset(meta_ds, n_rows: int):
        """Attach candidate texts and verify one band wave (or the whole
        candidate set when one wave suffices). Returns an UN-deduped pairs
        Dataset — the same pair can surface from several bands/waves."""
        # partition-level verification: ONE kernel call per coarse
        # partition, class pairs deduped across buckets (see
        # verify_lsh_partition; the per-bucket kernel verify_lsh_bucket is
        # the tested reference semantics). Partition count SCALES with the
        # candidate-row count (~100k rows per partition): the kernel holds
        # the partition's texts + per-class window arrays in heap, so a
        # fixed fan-out would grow per-task memory linearly with the corpus
        # (agg.partition_count: ~1k rows a partition up to 4 per CPU slot,
        # ~100k past that). Per-doc text duplication grows only marginally
        # with fan-out (a doc ships to its distinct colliding partitions,
        # bounded by its band count).
        verify_partitions = partition_count(n_rows)

        # Bucket-LOCALITY assignment (round-5 weak-scaling lever): each
        # (band, bucket) goes to the partition of its MIN member id (the
        # bucket's "anchor") instead of hash(band, bucket). A near-dup
        # cluster's buckets share their anchor across bands, so the
        # cluster's texts ship to ONE partition instead of up to num_bands
        # distinct ones — on a dup-heavy corpus that cuts the verify text
        # exchange ~num_bands× (the stage that saturates this box's single
        # memory bus in weak mode) without changing results: pairs are
        # deduped per-partition by the kernel and globally by the final
        # aggregate, so partition placement is semantics-free. Peak
        # per-partition heap is comparable (an anchor's docs are the union
        # of its buckets' members — mostly the same docs). The anchor map
        # is int-only and bounded by the wave's candidate rows.
        cand_df = meta_ds.to_pandas()
        bucket_map = cand_df.groupby(["band", "bucket"], sort=False,
                                     as_index=False)[id_col].min() \
            .rename(columns={id_col: "__anchor"})
        bucket_map[VPART] = K.partition_ids(
            bucket_map, ["__anchor"], verify_partitions)
        bucket_map = bucket_map[["band", "bucket", VPART]]
        bucket_map["band"] = bucket_map["band"].astype(np.int32)
        bucket_map["bucket"] = bucket_map["bucket"].astype(np.uint64)
        bmap_ref = ray.put(bucket_map)

        def assign_verify(batch: pd.DataFrame) -> pd.DataFrame:
            batch = batch.copy()
            batch["band"] = batch["band"].astype(np.int32)
            batch["bucket"] = batch["bucket"].astype(np.uint64)
            # "string" dtype (not object) so empty blocks keep an Arrow
            # string schema — object-dtype empties convert to null type and
            # break union
            batch[text_col] = pd.Series([""] * len(batch), dtype="string",
                                        index=batch.index)
            batch = batch.merge(ray.get(bmap_ref), how="left",
                                on=["band", "bucket"])
            batch[VPART] = batch[VPART].astype(np.int32)
            return batch[_cols]

        meta_p = meta_ds.map_batches(assign_verify, batch_format="pandas")

        # the distinct (doc id → verify partition) map is int-only and
        # ships via the object store once; texts stream past it
        dp = cand_df.merge(bucket_map, on=["band", "bucket"])
        dp = dp[[id_col, VPART]].drop_duplicates()
        dp_ref = ray.put(dp)
        textrows = ds.select_columns([id_col, text_col]).map_batches(
            lambda b: _as_textrows(b.merge(ray.get(dp_ref), how="inner",
                                           on=id_col)),
            batch_format="pandas")

        # the verify partition id is the VPART column itself
        return exchange(
            [meta_p, textrows],
            lambda b: b.rename(columns={VPART: PART_COL}, copy=False),
            run_verify, verify_partitions)

    waves = min(num_bands, max(1, int(np.ceil(n_cand / wave_cand_limit))))
    if waves <= 1:
        pairs = _verify_subset(cand_meta, n_cand)
    else:
        # band waves: verify bands ``b % waves == w`` sequentially; each
        # wave's pair output is tiny and materialized, so the wave's text
        # shuffle spill is released before the next wave runs
        wave_pairs = []
        for w in range(waves):
            def _band_mask(b: pd.DataFrame, w: int = w) -> pd.DataFrame:
                return b[(b["band"].to_numpy() % waves) == w]

            cand_w = cand_meta.map_batches(
                _band_mask, batch_format="pandas").materialize()
            n_w = cand_w.count()
            if n_w == 0:
                continue
            pw = _verify_subset(cand_w, n_w).materialize()
            if pw.count() > 0:
                wave_pairs.append(pw)
            del cand_w
        if not wave_pairs:
            return _empty_pairs()
        pairs = wave_pairs[0]
        for pw in wave_pairs[1:]:
            pairs = pairs.union(pw)
    # same pair can surface from several bands/waves → dedup on (id_a, id_b)
    return hash_aggregate(pairs, ["id_a", "id_b"],
                          {"jaccard": ("jaccard", "max")},
                          num_partitions=partition_count(n_cand))


def clusters_from_pairs(pairs_df: pd.DataFrame, id_a: str = "id_a",
                        id_b: str = "id_b") -> dict:
    """Driver-side union-find over the verified pair list → {doc_id: rep_id}
    with rep = min id of the connected component; no pair gives ``{}``.

    The only connected-components path. The pair list is collision-scale:
    ~0.2 verified pairs per doc on the synthetic corpus (404k pairs at 2M
    docs, 4.03M at 20M). On one CPU, 400k random pairs take 0.5-0.6 s and
    4M pairs 8.5-9.9 s at 1.0-1.4 GB process peak RSS (two probes), so the
    20M-doc funnel's components cost seconds against a minhash stage of
    minutes."""
    parent: dict = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs_df[id_a], pairs_df[id_b]):
        ra, rb = find(a), find(b)
        if ra != rb:
            lo, hi = (ra, rb) if ra < rb else (rb, ra)
            parent[hi] = lo
    return {x: find(x) for x in parent}


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


_POPCOUNT_LUT = np.array([bin(i).count("1") for i in range(256)],
                         dtype=np.uint8)


def popcount64(x: np.ndarray) -> np.ndarray:
    """Vectorized popcount of a uint64 array via a byte lookup table."""
    b = (x[..., None] >> (np.arange(8, dtype=np.uint64) * np.uint64(8))) \
        & np.uint64(0xFF)
    return _POPCOUNT_LUT[b.astype(np.intp)].sum(axis=-1).astype(np.int64)


def simhash_batch(batch: pd.DataFrame, text_col: str, out_col: str = "simhash") -> pd.DataFrame:
    """64-bit SimHash per doc, vectorized across the WHOLE batch: every
    token occurrence of every doc is hashed in ONE
    ``pd.util.hash_pandas_object`` call (an occurrence weighted ±1 per bit is
    identical to count-weighted unique tokens), then each of the 64 sign-sums
    is one ``np.bincount`` over the doc index — no per-document Python loop."""
    batch = batch.copy()
    n = len(batch)
    tok_lists = batch[text_col].fillna("").str.lower().str.split()
    lens = tok_lists.str.len().to_numpy(dtype=np.int64)
    total = int(lens.sum())
    if total == 0:
        batch[out_col] = np.zeros(n, dtype=np.uint64)
        return batch
    import itertools
    all_toks = pd.Series(
        list(itertools.chain.from_iterable(tok_lists)), dtype="object")
    h = pd.util.hash_pandas_object(all_toks, index=False).to_numpy(np.uint64)
    doc_idx = np.repeat(np.arange(n), lens)
    out = np.zeros(n, dtype=np.uint64)
    for b in range(64):
        signs = (((h >> np.uint64(b)) & np.uint64(1)).astype(np.float64)
                 * 2.0 - 1.0)
        sums = np.bincount(doc_idx, weights=signs, minlength=n)
        out |= (sums > 0).astype(np.uint64) << np.uint64(b)
    out[lens == 0] = 0
    batch[out_col] = out
    return batch


#: SimHash verify: distinct hash values compared all-pairs up to this many
#: classes per bucket; past it, each class compares only to the bucket's
#: min-id class (star — cluster-equivalent under downstream CC closure).
#: Hamming over uint64s is cheap (XOR + popcount), so the cap is far higher
#: than the MinHash CLASS_CAP whose per-pair cost is a shingle intersect.
SIM_CLASS_CAP = 4096


def verify_simhash_bucket(group: pd.DataFrame, id_col: str = "doc_id",
                          max_hamming: int = 3) -> pd.DataFrame:
    """Per-bucket exact-Hamming verification with the MinHash kernel's
    giant-bucket hardening (VERDICT r3 #2): members collapse into classes
    of IDENTICAL simhash first (a dup-heavy bucket of k near-identical docs
    costs O(#classes²) popcounts, not O(k²)); the class-pair Hamming matrix
    is CHUNKED so the temporary stays bounded; past ``SIM_CLASS_CAP``
    classes each class compares only to the bucket's min-id class (star);
    id fan-out honors ``CLIQUE_CAP`` (intra-class star) and ``FANOUT_CAP``
    (cross-class representative pair)."""
    empty = pd.DataFrame({"id_a": [], "id_b": [], "hamming": []})
    g = group.drop_duplicates(id_col).sort_values(id_col)
    if len(g) < 2:
        return empty
    ids = g[id_col].to_numpy()
    sh = g["simhash"].to_numpy(np.uint64)
    codes, uniq = pd.factorize(sh)  # first-seen order; g id-sorted →
    uniq = np.asarray(uniq, dtype=np.uint64)  # class 0 holds the min id
    ncls = len(uniq)
    order = np.argsort(codes, kind="stable")
    ids_sorted = ids[order]
    cls_counts = np.bincount(codes, minlength=ncls)
    cls_offsets = np.concatenate(([0], np.cumsum(cls_counts)[:-1]))

    def mem(c):
        return ids_sorted[cls_offsets[c]: cls_offsets[c] + cls_counts[c]]

    if ncls > SIM_CLASS_CAP:  # star on the min-id class (class 0)
        ham0 = popcount64(uniq ^ uniq[0])
        good = np.flatnonzero((ham0 <= max_hamming) & (np.arange(ncls) > 0))
        cls_a = np.concatenate([np.zeros(len(good), dtype=np.int64),
                                np.arange(ncls)])
        cls_b = np.concatenate([good, np.arange(ncls)])
        ham = np.concatenate([ham0[good], np.zeros(ncls, dtype=np.int64)])
    else:  # chunked all-pairs Hamming over DISTINCT hash values
        ca_l, cb_l, h_l = [], [], []
        chunk = max(1, (4 << 20) // max(ncls, 1))  # ≤32 MB of int64 temp
        for r0 in range(0, ncls, chunk):
            r1 = min(r0 + chunk, ncls)
            H = popcount64(uniq[r0:r1, None] ^ uniq[None, :])
            ia, ib = np.nonzero(H <= max_hamming)
            keep = (ia + r0) <= ib  # upper triangle incl. diagonal
            ca_l.append(ia[keep] + r0)
            cb_l.append(ib[keep])
            h_l.append(H[ia[keep], ib[keep]])
        cls_a = np.concatenate(ca_l)
        cls_b = np.concatenate(cb_l)
        ham = np.concatenate(h_l)

    out_a, out_b, out_h = [], [], []
    for ci, cj, h in zip(cls_a, cls_b, ham):
        if ci == cj:
            m = mem(ci)
            if len(m) < 2:
                continue
            if len(m) > CLIQUE_CAP:  # star on the class min id
                lo = m.min()
                rest = m[m != lo]
                pa_, pb_ = np.full(len(rest), lo), rest
            else:
                aa, bb = np.triu_indices(len(m), 1)
                pa_, pb_ = m[aa], m[bb]
        else:
            mi, mj = mem(ci), mem(cj)
            if len(mi) * len(mj) > FANOUT_CAP:  # representatives only
                lo, hi = mi.min(), mj.min()
                pa_ = np.array([min(lo, hi)])
                pb_ = np.array([max(lo, hi)])
            else:
                A, B = np.meshgrid(mi, mj, indexing="ij")
                pa_, pb_ = A.ravel(), B.ravel()
                swap = pa_ > pb_
                pa_, pb_ = (np.where(swap, pb_, pa_),
                            np.where(swap, pa_, pb_))
        out_a.append(pa_)
        out_b.append(pb_)
        out_h.append(np.full(len(pa_), h, dtype=np.int64))
    if not out_a:
        return empty
    return pd.DataFrame({"id_a": np.concatenate(out_a),
                         "id_b": np.concatenate(out_b),
                         "hamming": np.concatenate(out_h)})


def simhash_near_dup_pairs(ds, text_col: str = "text", id_col: str = "doc_id",
                           max_hamming: int = 3):
    """Near-dup candidates via the 4×16-bit band trick (any pair within
    Hamming distance ≤3 of 64 bits must agree exactly on ≥1 of 4 bands);
    verified by exact Hamming distance inside the bucket group.

    Scale hardening (VERDICT r3 #2, ported from the MinHash path): the
    verify kernel is :func:`verify_simhash_bucket` (class collapse +
    chunked Hamming + star caps — bounded per-task memory even for a
    mega-bucket of near-identical docs), and the verify fan-out scales with
    candidate rows AND cluster CPUs (:func:`agg.partition_count`).
    The shuffled rows are int-only (id, simhash, band, bucket) — document
    text never enters the verify exchange. Unlike MinHash there is no
    ``bucket_cap`` drop: a 16-bit band mega-bucket of near-identical docs
    is REAL similarity evidence (not a common-shingle-argmin artifact), so
    it is verified — cheaply, via the class collapse — rather than dropped."""
    hashed = ds.map_batches(
        lambda b: simhash_batch(b[[id_col, text_col]], text_col), batch_format="pandas"
    ).materialize()

    def explode_bands(batch: pd.DataFrame) -> pd.DataFrame:
        sh = batch["simhash"].to_numpy(np.uint64)
        rows = []
        for bi in range(4):
            band = (sh >> np.uint64(16 * bi)) & np.uint64(0xFFFF)
            rows.append(pd.DataFrame({
                id_col: batch[id_col].to_numpy(),
                "simhash": sh,
                "band": np.int32(bi),
                "bucket": band.astype(np.int64),
            }))
        return pd.concat(rows, ignore_index=True)

    bands = hashed.map_batches(explode_bands, batch_format="pandas")

    from functools import partial

    from forecastframe_ray.stages.agg import (bucketed_map_groups,
                                              hash_aggregate, partition_count)

    # band rows = 4 × docs; fan-out scales with that row count and the CPUs
    n_band_rows = 4 * hashed.count()  # materialized → metadata-only
    parts = partition_count(n_band_rows)
    pairs = bucketed_map_groups(
        bands, ["band", "bucket"],
        partial(verify_simhash_bucket, id_col=id_col, max_hamming=max_hamming),
        num_partitions=parts, min_size=2)
    return hash_aggregate(pairs, ["id_a", "id_b"],
                          {"hamming": ("hamming", "min")}, num_partitions=parts)


# ---------------------------------------------------------------------------
# embedding-cosine near-dup
# ---------------------------------------------------------------------------


#: embedding verify: distinct vectors compared all-pairs (chunked matmul)
#: up to this many classes per bucket; past it, star vs the min-id class.
EMB_CLASS_CAP = 8192


def verify_embedding_bucket(group: pd.DataFrame, vec_col: str = "embedding",
                            id_col: str = "vec_id",
                            threshold: float = 0.95) -> pd.DataFrame:
    """Per-bucket exact-cosine verification with the MinHash kernel's
    giant-bucket hardening (VERDICT r3 #3): members collapse into classes
    of BYTE-IDENTICAL vectors first (a mega-bucket of k exact-dup vectors
    costs one class, not a k×k matrix); the class-pair cosine matrix is a
    CHUNKED matmul; past ``EMB_CLASS_CAP`` classes each class compares only
    to the bucket's min-id class (star — cluster-equivalent under CC
    closure); id fan-out honors ``CLIQUE_CAP`` / ``FANOUT_CAP``.

    Intra-class pairs carry cos=1.0 except zero-norm classes (cos(0,0) is
    0 under the norms-clamped-to-1 convention the original kernel used)."""
    empty = pd.DataFrame({"id_a": [], "id_b": [], "cos_sim": []})
    g = group.drop_duplicates(id_col).sort_values(id_col)
    if len(g) < 2:
        return empty
    ids = g[id_col].to_numpy()
    M = np.ascontiguousarray(np.stack(g[vec_col].to_numpy())
                             .astype(np.float64))
    # byte-identity classes (exact-dup collapse): view rows as opaque bytes
    # (np.unique over void rows — NaN bit patterns compare fine as bytes)
    v = M.view(np.dtype((np.void, M.shape[1] * 8))).ravel()
    _, codes = np.unique(v, return_inverse=True)
    codes = codes.astype(np.int64)
    ncls = int(codes.max()) + 1
    order = np.argsort(codes, kind="stable")
    ids_sorted = ids[order]
    cls_counts = np.bincount(codes, minlength=ncls)
    cls_offsets = np.concatenate(([0], np.cumsum(cls_counts)[:-1]))

    def mem(c):
        return ids_sorted[cls_offsets[c]: cls_offsets[c] + cls_counts[c]]

    # one representative ROW per class (members are byte-identical)
    first_rows = order[cls_offsets]
    R = M[first_rows]
    norms = np.linalg.norm(R, axis=1)
    nonzero = norms > 0
    norms_safe = np.where(nonzero, norms, 1.0)
    Rn = R / norms_safe[:, None]

    if ncls > EMB_CLASS_CAP:  # star vs the min-id doc's class
        c_star = int(codes[0])  # g is id-sorted → row 0 holds the min id
        c0 = Rn @ Rn[c_star]
        good = np.flatnonzero((c0 >= threshold)
                              & (np.arange(ncls) != c_star))
        cls_a = np.concatenate([np.full(len(good), c_star, dtype=np.int64),
                                np.arange(ncls)])
        cls_b = np.concatenate([good, np.arange(ncls)])
        cos = np.concatenate([c0[good], np.ones(ncls)])
    else:  # chunked all-pairs cosine over class representatives
        ca_l, cb_l, cs_l = [], [], []
        chunk = max(1, (4 << 20) // max(ncls, 1))  # ≤32 MB of f64 temp
        for r0 in range(0, ncls, chunk):
            r1 = min(r0 + chunk, ncls)
            C = Rn[r0:r1] @ Rn.T
            ia, ib = np.nonzero(C >= threshold)
            keep = (ia + r0) <= ib  # upper triangle incl. diagonal
            ca_l.append(ia[keep] + r0)
            cb_l.append(ib[keep])
            cs_l.append(C[ia[keep], ib[keep]])
        cls_a = np.concatenate(ca_l)
        cls_b = np.concatenate(cb_l)
        cos = np.concatenate(cs_l)

    out_a, out_b, out_s = [], [], []
    for ci, cj, s in zip(cls_a, cls_b, cos):
        if ci == cj:
            if not nonzero[ci]:  # zero vectors: cos(0,0)=0 → never a pair
                continue
            m = mem(ci)
            if len(m) < 2:
                continue
            s = 1.0
            if len(m) > CLIQUE_CAP:  # star on the class min id
                lo = m.min()
                rest = m[m != lo]
                pa_, pb_ = np.full(len(rest), lo), rest
            else:
                aa, bb = np.triu_indices(len(m), 1)
                pa_, pb_ = m[aa], m[bb]
        else:
            mi, mj = mem(ci), mem(cj)
            if len(mi) * len(mj) > FANOUT_CAP:  # representatives only
                lo, hi = mi.min(), mj.min()
                pa_ = np.array([min(lo, hi)])
                pb_ = np.array([max(lo, hi)])
            else:
                A, B = np.meshgrid(mi, mj, indexing="ij")
                pa_, pb_ = A.ravel(), B.ravel()
                swap = pa_ > pb_
                pa_, pb_ = (np.where(swap, pb_, pa_),
                            np.where(swap, pa_, pb_))
        out_a.append(pa_)
        out_b.append(pb_)
        out_s.append(np.full(len(pa_), s, dtype=np.float64))
    if not out_a:
        return empty
    return pd.DataFrame({"id_a": np.concatenate(out_a),
                         "id_b": np.concatenate(out_b),
                         "cos_sim": np.concatenate(out_s)})


def embedding_near_dup_pairs(ds, vec_col: str = "embedding", id_col: str = "vec_id",
                             threshold: float = 0.95, num_planes: int = 12,
                             seed: int = 11, dim: int | None = None):
    """Near-duplicate vectors: random-hyperplane LSH buckets (Charikar'02) →
    within-bucket exact cosine ≥ threshold. The plane matrix is seeded and
    broadcast; signature stage is one matmul per batch.

    Scale hardening (VERDICT r3 #3): verification runs through
    :func:`verify_embedding_bucket` (exact-dup collapse + chunked matmul +
    star caps — bounded per-task memory for pathological buckets) and the
    fan-out scales with row count and cluster CPUs
    (:func:`agg.partition_count`)."""
    import ray

    if dim is None:
        first = ds.take(1)[0][vec_col]
        dim = len(first)
    rng = np.random.default_rng(seed)
    planes = rng.standard_normal((dim, num_planes))
    planes_ref = ray.put(planes)
    powers = (1 << np.arange(num_planes)).astype(np.int64)

    def sig(batch: pd.DataFrame) -> pd.DataFrame:
        P = ray.get(planes_ref)
        M = np.stack(batch[vec_col].to_numpy()).astype(np.float64)
        bits = (M @ P) > 0
        batch = batch.copy()
        batch["bucket"] = bits @ powers
        return batch

    bucketed = ds.map_batches(sig, batch_format="pandas").materialize()

    from functools import partial

    from forecastframe_ray.stages.agg import bucketed_map_groups, partition_count

    n_rows = bucketed.count()  # materialized → metadata-only
    return bucketed_map_groups(
        bucketed, ["bucket"],
        partial(verify_embedding_bucket, vec_col=vec_col, id_col=id_col,
                threshold=threshold),
        num_partitions=partition_count(n_rows), min_size=2)
