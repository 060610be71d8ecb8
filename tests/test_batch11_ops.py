"""Dup-class histogram edges."""

import pandas as pd


def test_dup_class_histogram(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    pd.DataFrame({"doc_id": range(6),
                  "text": ["a", "a", "a", "b", "b", "c"]}) \
        .to_parquet(tmp_path / "documents.parquet")
    out = Q.q_dup_class_histogram_documents(str(tmp_path)) \
        .set_index("class_size")
    assert out.loc[1, "n_classes"] == 1   # 'c'
    assert out.loc[2, "n_classes"] == 1   # 'b'
    assert out.loc[3, "n_classes"] == 1   # 'a'
