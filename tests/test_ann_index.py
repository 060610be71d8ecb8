"""Persisted incremental ANN index (pipelines/ann_index.py): full-probe
exactness vs brute force, appended == rebuilt-with-same-centroids,
file-level probe pruning of the centroid-partitioned layout,
crash-retry idempotence, and abandoned appends."""

import os

import numpy as np
import pandas as pd
import pytest
import ray.data

from forecastframe_ray.pipelines import ann_index as AI
from forecastframe_ray.pipelines import similarity as S

SF = "/root/testdata/sf0.001"


def _emb():
    import pyarrow.parquet as pq
    df = pq.read_table(f"{SF}/embeddings.parquet",
                       columns=["vec_id", "embedding"]).to_pandas()
    return df.sort_values("vec_id").reset_index(drop=True)


def _queries(df):
    return np.stack(df.loc[df["vec_id"].isin([0, 1]), "embedding"]
                    .to_numpy())


def _same_topk(a: pd.DataFrame, b: pd.DataFrame,
               tol: float = 1e-9) -> bool:
    """Top-k equality up to TIE NOISE: cosine sums differ in their last
    float bits between block layouts (batch boundaries are not
    deterministic run-to-run), so near-equal neighbors may legally swap
    ranks or trade places at the k boundary. Memberships must match
    except for swapped ids whose sims all lie within ``tol`` of each
    other."""
    for qi in sorted(set(a["query_ix"].astype(int))):
        sa = a[a["query_ix"] == qi]
        sb = b[b["query_ix"] == qi]
        ia, ib = set(sa["vec_id"]), set(sb["vec_id"])
        if ia == ib:
            continue
        if len(ia) != len(ib):
            return False
        sym = np.concatenate([
            sa.loc[sa["vec_id"].isin(ia - ib), "cos_sim"].to_numpy(),
            sb.loc[sb["vec_id"].isin(ib - ia), "cos_sim"].to_numpy()])
        if sym.max() - sym.min() > tol:
            return False
    return True


def test_train_centroids_sample_ignores_block_order():
    """More vectors than ``sample_rows``: the quantizer is the same whether
    the vectors arrive as one block or as 16 blocks in reverse order."""
    rng = np.random.default_rng(0)
    df = pd.DataFrame({"vec_id": np.arange(400, dtype=np.int64),
                       "embedding": [list(v) for v in rng.normal(size=(400, 8))]})
    one = ray.data.from_pandas(df)
    rev = ray.data.from_pandas(
        [df.iloc[i * 25:(i + 1) * 25] for i in range(16)][::-1])
    a = S.train_centroids(one, 4, sample_rows=64, sort_col="vec_id")
    b = S.train_centroids(rev, 4, sample_rows=64, sort_col="vec_id")
    np.testing.assert_array_equal(a, b)


def test_full_probe_equals_brute_force(tmp_path):
    df = _emb()
    ds = ray.data.from_pandas(df)
    d = str(tmp_path / "idx")
    AI.build_ann_index(ds, d, num_centroids=8)
    q = _queries(df)
    got = AI.search_ann(d, q, k=10, nprobe=8)
    want = S.brute_force_topk(ds, q, k=10)
    for df_ in (got, want):
        df_["query_ix"] = df_["query_ix"].astype("int64")
        df_["rank"] = df_["rank"].astype("int64")
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True)[["query_ix", "rank", "vec_id"]],
        want.reset_index(drop=True)[["query_ix", "rank", "vec_id"]])


def test_append_equals_rebuild_with_same_centroids(tmp_path):
    df = _emb()
    cut = int(df["vec_id"].median())
    sh1 = ray.data.from_pandas(df[df["vec_id"] <= cut])
    sh2 = ray.data.from_pandas(df[df["vec_id"] > cut])
    inc, full = str(tmp_path / "inc"), str(tmp_path / "full")
    AI.build_ann_index(sh1, inc, num_centroids=8)
    AI.append_ann(sh2, inc)
    C = AI._load_meta(inc)["centroids"]
    AI.build_ann_index(ray.data.from_pandas(df), full, centroids=C)
    q = _queries(df)
    for nprobe in (2, 8):
        a = AI.search_ann(inc, q, 10, nprobe)
        b = AI.search_ann(full, q, 10, nprobe)
        # tie-tolerant: block layouts differ → last-bit cos_sim noise can
        # legally swap near-equal neighbors (see _same_topk)
        assert _same_topk(a, b)


def test_probe_pruning_layout(tmp_path):
    """Partition files are keyed by centroid id: a probed search's file
    list is a strict subset, and each file holds only its centroid."""
    import pyarrow.parquet as pq
    df = _emb()
    d = str(tmp_path / "idx")
    AI.build_ann_index(ray.data.from_pandas(df), d, num_centroids=8)
    tier = os.path.join(d, "tier=vectors")
    files = sorted(os.listdir(tier))
    assert 1 < len(files) <= 8
    for f in files:
        part = int(f[len("part="):-len(".parquet")])
        cent = pq.read_table(os.path.join(tier, f),
                             columns=["centroid"])["centroid"].to_numpy()
        assert (cent == part).all()


def test_append_crash_retry(tmp_path):
    df = _emb()
    cut = int(df["vec_id"].median())
    sh1 = ray.data.from_pandas(df[df["vec_id"] <= cut])
    sh2 = ray.data.from_pandas(df[df["vec_id"] > cut])
    clean, crash = str(tmp_path / "clean"), str(tmp_path / "crash")
    AI.build_ann_index(sh1, clean, num_centroids=8)
    AI.append_ann(sh2, clean, shard_id="shard-001")
    q = _queries(df)
    want = AI.search_ann(clean, q, 10, 8)

    AI.build_ann_index(sh1, crash, num_centroids=8)
    with pytest.raises(RuntimeError, match="simulated crash"):
        AI.append_ann(sh2, crash, shard_id="shard-001", fail_after=1)
    assert AI._load_meta(crash)["shards"] == ["shard-000"]
    AI.append_ann(sh2, crash, shard_id="shard-001")
    pd.testing.assert_frame_equal(want, AI.search_ann(crash, q, 10, 8))


def test_abandoned_append_then_other_shard_raises(tmp_path):
    """A crashed, never-retried append keeps its partition offset: a
    different shard appended next must raise instead of having its rows
    in the crashed run's recorded partitions silently skipped."""
    df = _emb()
    cut = int(df["vec_id"].median())
    d = str(tmp_path / "idx")
    AI.build_ann_index(ray.data.from_pandas(df[df["vec_id"] <= cut]), d,
                       num_centroids=8)
    rest = df[df["vec_id"] > cut]
    with pytest.raises(RuntimeError, match="simulated crash"):
        AI.append_ann(ray.data.from_pandas(rest), d, shard_id="shard-A",
                      fail_after=1)
    other = rest.assign(vec_id=rest["vec_id"] + 10_000)
    with pytest.raises(ValueError, match="belongs to shard 'shard-A'"):
        AI.append_ann(ray.data.from_pandas(other), d, shard_id="shard-B")


def test_abandoned_append_is_not_searched(tmp_path):
    """An append that crashed before recording any partition and was never
    retried leaves files at the next offset; a different, smaller shard
    committed there rewrites only its own centroids' files, and a search
    must not see the crashed shard's vectors in the others."""
    df = _emb()
    cut = int(df["vec_id"].median())
    sh1, rest = df[df["vec_id"] <= cut], df[df["vec_id"] > cut]
    small = rest.head(3).assign(vec_id=rest["vec_id"].head(3) + 10_000)
    d = str(tmp_path / "idx")
    AI.build_ann_index(ray.data.from_pandas(sh1), d, num_centroids=8)
    with pytest.raises(RuntimeError, match="simulated crash"):
        AI.append_ann(ray.data.from_pandas(rest), d, shard_id="shard-A",
                      fail_after=0)
    AI.append_ann(ray.data.from_pandas(small), d, shard_id="shard-B")
    got = AI.search_ann(d, _queries(df), k=len(df), nprobe=8)
    want = set(sh1["vec_id"]) | set(small["vec_id"])
    for qi in (0, 1):
        assert set(got.loc[got["query_ix"] == qi, "vec_id"]) == want


def test_default_shard_ids_tell_shards_apart(tmp_path):
    """Default ids come from the shard's vector id range, so a different
    default-id shard after an abandoned append raises instead of passing
    as that append's retry (and losing the rows the crash recorded)."""
    df = _emb()
    cut = int(df["vec_id"].median())
    rest = df[df["vec_id"] > cut]
    d = str(tmp_path / "idx")
    AI.build_ann_index(ray.data.from_pandas(df[df["vec_id"] <= cut]), d,
                       num_centroids=8)
    with pytest.raises(RuntimeError, match="simulated crash"):
        AI.append_ann(ray.data.from_pandas(rest), d, fail_after=1)
    other = rest.assign(vec_id=rest["vec_id"] + 10_000)
    crashed = f"shard-{rest['vec_id'].min()}-{rest['vec_id'].max()}"
    with pytest.raises(ValueError, match=f"belongs to shard '{crashed}'"):
        AI.append_ann(ray.data.from_pandas(other), d)
