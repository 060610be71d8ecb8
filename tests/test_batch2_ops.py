"""Dow-profile / normalized-dedup edges."""

import pandas as pd


def _events(tmp_path, values, start="2024-01-01", event_type="e"):
    ts = pd.date_range(start, periods=len(values), freq="D") \
        .astype("datetime64[us]")
    pd.DataFrame({"event_type": [event_type] * len(values), "ts": ts,
                  "value": [float(v) for v in values],
                  "user_id": list(range(len(values)))}) \
        .to_parquet(tmp_path / "events.parquet")
    return str(tmp_path)


def test_dow_profile_iso_weekday(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    # 2024-01-01 is a Monday -> ISO dow 1; 14 days = two of each weekday
    sf = _events(tmp_path, list(range(1, 15)))
    out = Q.q_dow_profile_daily(sf).set_index("dow")
    assert set(out.index) == set(range(1, 8))
    assert (out["n"] == 2).all()
    # Monday values are 1 and 8 -> median 4.5 (linear interp)
    assert out.loc[1, "med"] == 4.5
    assert out.loc[1, "p25"] == 2.75


def test_normalized_dedup_collapses_variants(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    pd.DataFrame({
        "doc_id": [0, 1, 2, 3],
        "text": ["Hello,   World!", "hello world", "HELLO WORLD.",
                 "different doc"],
    }).to_parquet(tmp_path / "documents.parquet")
    out = Q.q_normalized_dedup_documents(str(tmp_path))
    assert len(out) == 2
    assert out.loc[0, "keep_id"] == 0 and out.loc[0, "class_size"] == 3
    assert out.loc[1, "keep_id"] == 3 and out.loc[1, "class_size"] == 1
