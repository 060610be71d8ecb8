"""Forced-path tests for the round-4 scale hardening (VERDICT r3 #2/#3):
SimHash and embedding near-dup verify kernels must bound per-task memory on
degenerate mega-buckets (class collapse, chunked kernels, star caps) while
staying pair-identical to the brute-force semantics when no cap binds."""

import time

import numpy as np
import pandas as pd
import pytest

import ray.data

from forecastframe_ray.pipelines import dedup
from forecastframe_ray.stages import agg


def _brute_simhash_pairs(g: pd.DataFrame, max_hamming: int = 3) -> set:
    """The pre-hardening O(k²) kernel, kept as the semantic reference."""
    g = g.drop_duplicates("doc_id").sort_values("doc_id")
    ids = g["doc_id"].to_numpy()
    sh = g["simhash"].to_numpy(np.uint64)
    ham = dedup.popcount64(sh[:, None] ^ sh[None, :])
    ia, ib = np.where(np.triu(ham <= max_hamming, k=1))
    return set(zip(ids[ia], ids[ib], ham[ia, ib]))


def _brute_embedding_pairs(g: pd.DataFrame, threshold: float) -> set:
    g = g.drop_duplicates("vec_id").sort_values("vec_id")
    ids = g["vec_id"].to_numpy()
    M = np.stack(g["embedding"].to_numpy()).astype(np.float64)
    norms = np.linalg.norm(M, axis=1)
    norms[norms == 0] = 1.0
    Mn = M / norms[:, None]
    C = Mn @ Mn.T
    ia, ib = np.where(np.triu(C >= threshold, k=1))
    return set(zip(ids[ia], ids[ib], np.round(C[ia, ib], 9)))


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------

def test_simhash_kernel_matches_brute_force():
    # mixed bucket: several identical-hash classes + scattered near hashes;
    # no caps bind → the hardened kernel must equal the O(k²) reference
    rng = np.random.default_rng(5)
    base = rng.integers(0, 1 << 63, size=6, dtype=np.uint64)
    hashes = []
    for h in base:
        hashes += [h] * int(rng.integers(1, 4))          # identical class
        hashes.append(h ^ np.uint64(1 << int(rng.integers(0, 64))))  # ham 1
    g = pd.DataFrame({"doc_id": np.arange(len(hashes), dtype=np.int64),
                      "simhash": np.array(hashes, dtype=np.uint64)})
    got = dedup.verify_simhash_bucket(g, max_hamming=3)
    got_set = set(zip(got["id_a"], got["id_b"], got["hamming"]))
    assert got_set == _brute_simhash_pairs(g) and len(got_set) > 0


def test_simhash_degenerate_bucket_bounded():
    # VERDICT r3 #2 done-criterion: a 100k-member band bucket (all docs
    # near-identical → one or two hash classes) completes with bounded
    # memory/time — the old kernel built a 100k×100k Hamming matrix (80 GB)
    n = 100_000
    sh = np.full(n, 0xDEADBEEF12345678, dtype=np.uint64)
    sh[n // 2:] ^= np.uint64(1)  # two classes at Hamming distance 1
    g = pd.DataFrame({"doc_id": np.arange(n, dtype=np.int64), "simhash": sh})
    t0 = time.time()
    pairs = dedup.verify_simhash_bucket(g, max_hamming=3)
    assert time.time() - t0 < 20
    # two 50k classes: each stars (CLIQUE_CAP) + one capped cross pair
    # (50k × 50k fan-out > FANOUT_CAP → representative pair)
    assert len(pairs) == (n // 2 - 1) * 2 + 1
    rep = dedup.clusters_from_pairs(pairs)
    assert set(rep.values()) == {0} and len(rep) == n  # one component


def test_simhash_class_cap_star_cluster_equivalent(monkeypatch):
    # past SIM_CLASS_CAP distinct hashes the kernel stars on the min-id
    # class; connected components over the star must equal components over
    # the full pairwise form
    monkeypatch.setattr(dedup, "SIM_CLASS_CAP", 4)
    base = np.uint64(0x123456789ABCDEF0)
    # 8 distinct hashes all within Hamming 2 of base (one component)
    hashes = [base] + [base ^ np.uint64(1 << b) for b in range(7)]
    g = pd.DataFrame({"doc_id": np.arange(8, dtype=np.int64),
                      "simhash": np.array(hashes, dtype=np.uint64)})
    star = dedup.verify_simhash_bucket(g, max_hamming=3)
    monkeypatch.setattr(dedup, "SIM_CLASS_CAP", 4096)
    full = dedup.verify_simhash_bucket(g, max_hamming=3)
    rep_star = dedup.clusters_from_pairs(star)
    rep_full = dedup.clusters_from_pairs(full)
    assert rep_star == rep_full and set(rep_star.values()) == {0}


def test_simhash_pipeline_end_to_end_unchanged():
    # the dataset-level path (scaled fan-out) must produce exactly the
    # brute-force pair set over all docs whose bands collide
    texts = [
        "the quick brown fox jumps over the lazy dog again and again",
        "the quick brown fox jumps over the lazy dog again and again",
        "the quick brown fox jumped over the lazy dog again and again",
        "completely different content about ray data pipelines at scale",
        "another unrelated document body with its own words entirely",
    ]
    df = pd.DataFrame({"doc_id": np.arange(5, dtype=np.int64),
                       "text": texts})
    got = dedup.simhash_near_dup_pairs(
        ray.data.from_pandas(df), max_hamming=3).to_pandas()
    hashed = dedup.simhash_batch(df, "text")
    # brute force over ALL pairs, then keep those sharing >=1 16-bit band
    sh = hashed["simhash"].to_numpy(np.uint64)
    expect = set()
    for i in range(5):
        for j in range(i + 1, 5):
            h = int(dedup.popcount64(np.array([sh[i] ^ sh[j]]))[0])
            share = any(((sh[i] >> np.uint64(16 * b)) & np.uint64(0xFFFF))
                        == ((sh[j] >> np.uint64(16 * b)) & np.uint64(0xFFFF))
                        for b in range(4))
            if h <= 3 and share:
                expect.add((i, j, h))
    got_set = set(zip(got["id_a"], got["id_b"], got["hamming"]))
    assert got_set == expect and (0, 1, 0) in got_set


# ---------------------------------------------------------------------------
# embedding
# ---------------------------------------------------------------------------

def test_embedding_kernel_matches_brute_force():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((5, 16))
    vecs = []
    for v in base:
        vecs.append(v)
        vecs.append(v)                                    # exact dup
        vecs.append(v + rng.standard_normal(16) * 0.01)   # near dup
    vecs.append(np.zeros(16))                             # zero vector
    vecs.append(np.zeros(16))                             # zero-vector class
    g = pd.DataFrame({"vec_id": np.arange(len(vecs), dtype=np.int64),
                      "embedding": list(np.array(vecs))})
    got = dedup.verify_embedding_bucket(g, threshold=0.95)
    got_set = set(zip(got["id_a"], got["id_b"], np.round(got["cos_sim"], 9)))
    assert got_set == _brute_embedding_pairs(g, 0.95) and len(got_set) > 0
    # zero vectors never pair (cos(0,0) = 0 convention)
    zero_ids = {len(vecs) - 2, len(vecs) - 1}
    assert not any(a in zero_ids or b in zero_ids for a, b, _ in got_set)


def test_embedding_degenerate_bucket_bounded():
    # 100k byte-identical vectors: one class → star, not a 100k×100k matmul
    n = 100_000
    v = np.arange(16, dtype=np.float64)
    g = pd.DataFrame({"vec_id": np.arange(n, dtype=np.int64),
                      "embedding": [v] * n})
    t0 = time.time()
    pairs = dedup.verify_embedding_bucket(g, threshold=0.95)
    assert time.time() - t0 < 20
    assert len(pairs) == n - 1 and (pairs["id_a"] == 0).all()
    assert (pairs["cos_sim"] == 1.0).all()


def test_embedding_class_cap_star_cluster_equivalent(monkeypatch):
    monkeypatch.setattr(dedup, "EMB_CLASS_CAP", 4)
    rng = np.random.default_rng(9)
    base = rng.standard_normal(16)
    base /= np.linalg.norm(base)
    vecs = [base + rng.standard_normal(16) * 0.001 for _ in range(10)]
    g = pd.DataFrame({"vec_id": np.arange(10, dtype=np.int64),
                      "embedding": vecs})
    star = dedup.verify_embedding_bucket(g, threshold=0.99)
    monkeypatch.setattr(dedup, "EMB_CLASS_CAP", 8192)
    full = dedup.verify_embedding_bucket(g, threshold=0.99)
    assert dedup.clusters_from_pairs(star) == dedup.clusters_from_pairs(full)
    assert set(dedup.clusters_from_pairs(star).values()) == {0}


def test_embedding_pipeline_end_to_end():
    rng = np.random.default_rng(13)
    base = rng.standard_normal((10, 12))
    vecs = list(base) + [base[0] + 1e-6, base[3] + 1e-6]
    ds = ray.data.from_pandas(pd.DataFrame({
        "vec_id": np.arange(len(vecs), dtype=np.int64),
        "embedding": [np.asarray(v) for v in vecs]}))
    got = dedup.embedding_near_dup_pairs(ds, threshold=0.999).to_pandas()
    got_pairs = set(map(tuple, got[["id_a", "id_b"]].to_numpy()))
    assert (0, 10) in got_pairs and (3, 11) in got_pairs


@pytest.mark.parametrize("rows, slots, p", [
    (0, 1, 1), (10, 1, 1), (1_389, 1, 2), (17_800, 1, 4), (17_800, 8, 18),
    (1_000_000, 8, 32), (50_000_000, 32, 500), (50_000_000, 1, 500)])
def test_partition_count_follows_rows_and_slots(monkeypatch, rows, slots, p):
    # one partition per ~1k rows, capped at 4 per CPU slot (one id range a
    # slot); past ~100k rows a partition the row term wins, so a verify
    # kernel's heap stays bounded at scale
    monkeypatch.setattr(agg, "_cpu_slots", lambda: slots)
    assert agg.partition_count(rows) == p


# ---------------------------------------------------------------------------
# boilerplate frequent-line set: distributed strip path
# ---------------------------------------------------------------------------

def _boilerplate_corpus():
    rng = np.random.default_rng(21)
    bp1 = "subscribe to our newsletter today"
    bp2 = "all rights reserved by the site"
    docs = []
    for i in range(60):
        body = [f"unique sentence number {i} alpha beta.",
                f"another unique line {i} gamma delta."]
        if i % 2 == 0:
            body.insert(0, bp1)
        if i % 3 == 0:
            body.append(bp2)
        if i % 7 == 0:
            body.insert(1, "")          # blank line
        docs.append("\n".join(body))
    docs.append("")                      # empty doc (no non-blank lines)
    docs.append("\n\n")                  # blank-only doc
    docs.append(bp1 + "\n" + bp2)        # all lines boilerplate
    return pd.DataFrame({
        "doc_id": np.arange(len(docs), dtype=np.int64),
        "text": docs,
        "lang": [["en", "de"][i % 2] for i in range(len(docs))],
    })


def test_boilerplate_distributed_matches_broadcast():
    # VERDICT r3 #4: with driver_freq_limit forced to 0 the frequent set
    # stays distributed; output must equal the broadcast path exactly
    from forecastframe_ray.pipelines import textstats
    df = _boilerplate_corpus()
    ds = ray.data.from_pandas(df).repartition(4)
    broad = textstats.remove_boilerplate_lines(
        ds, max_repeats=3).to_pandas()
    dist = textstats.remove_boilerplate_lines(
        ds, max_repeats=3, id_col="doc_id",
        driver_freq_limit=0).to_pandas()
    cols = ["doc_id", "text", "n_boilerplate_removed", "lang"]
    a = broad[cols].sort_values("doc_id").reset_index(drop=True)
    b = dist[cols].sort_values("doc_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_dtype=False)
    # sanity: boilerplate actually removed somewhere, edge docs intact
    assert (a["n_boilerplate_removed"] > 0).any()
    byid = a.set_index("doc_id")
    assert byid.loc[60, "text"] == ""           # empty doc unchanged
    assert byid.loc[61, "text"] == "\n\n"       # blank-only doc unchanged
    assert byid.loc[62, "text"] == ""           # fully stripped → empty


def test_boilerplate_distributed_requires_id_col():
    from forecastframe_ray.pipelines import textstats
    ds = ray.data.from_pandas(_boilerplate_corpus()[["text"]])
    with pytest.raises(ValueError, match="id_col"):
        textstats.remove_boilerplate_lines(ds, max_repeats=3,
                                           driver_freq_limit=0).to_pandas()
