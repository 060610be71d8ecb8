"""Corpus checksum edges."""

import hashlib

import pandas as pd


def test_corpus_checksum_order_insensitive(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    texts = ["alpha", "beta", "gamma"]
    pd.DataFrame({"doc_id": range(3), "text": texts}) \
        .to_parquet(tmp_path / "documents.parquet")
    a = Q.q_corpus_checksum_documents(str(tmp_path))
    pd.DataFrame({"doc_id": range(3), "text": texts[::-1]}) \
        .to_parquet(tmp_path / "documents.parquet")
    b = Q.q_corpus_checksum_documents(str(tmp_path))
    assert a.loc[0, "checksum"] == b.loc[0, "checksum"]
    assert a.loc[0, "n_docs"] == 3
    # and it matches the direct formula
    MOD = (1 << 61) - 1
    exp = sum(int(hashlib.md5(t.encode()).hexdigest()[:15], 16)
              for t in texts) % MOD
    assert a.loc[0, "checksum"] == exp
    # a changed byte changes the stamp
    pd.DataFrame({"doc_id": range(3),
                  "text": ["alpha", "beta", "gamma!"]}) \
        .to_parquet(tmp_path / "documents.parquet")
    c = Q.q_corpus_checksum_documents(str(tmp_path))
    assert c.loc[0, "checksum"] != a.loc[0, "checksum"]

