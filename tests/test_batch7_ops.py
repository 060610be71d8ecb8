"""Control chart / Pareto / readability / Levenshtein edges."""

import numpy as np
import pandas as pd


def _events(tmp_path, values, start="2024-01-01", freq="D",
            users=None):
    ts = pd.date_range(start, periods=len(values), freq=freq) \
        .astype("datetime64[us]")
    pd.DataFrame({"event_type": ["e"] * len(values), "ts": ts,
                  "value": [float(v) for v in values],
                  "user_id": users or list(range(len(values)))}) \
        .to_parquet(tmp_path / "events.parquet")
    return str(tmp_path)


def test_control_chart_flags_spike(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    sf = _events(tmp_path, [10, 11, 10, 11, 10, 100])
    out = Q.q_control_chart_daily(sf)
    assert out.loc[5, "out_of_control"] == 1
    assert (out.loc[:4, "out_of_control"] == 0).all()
    # constant series: MR-bar 0, limits collapse to the mean, no flags
    sf2 = _events(tmp_path, [5, 5, 5])
    out2 = Q.q_control_chart_daily(sf2)
    assert (out2["out_of_control"] == 0).all()
    assert (out2["ucl"] == 5.0).all()


def test_pareto_share(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    # 5 users, totals 100,1,1,1,1 -> top 20% = 1 user -> share 100/104
    sf = _events(tmp_path, [100, 1, 1, 1, 1], users=[1, 2, 3, 4, 5])
    out = Q.q_pareto_share_events(sf)
    assert out.loc[0, "n_top"] == 1
    assert out.loc[0, "top20_share"] == np.round(100 / 104, 6)


def test_readability_counts(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    pd.DataFrame({"doc_id": [0, 1],
                  "text": ["The cat sat. The dog ran!", ""]}) \
        .to_parquet(tmp_path / "documents.parquet")
    out = Q.q_readability_documents(str(tmp_path))
    assert out.loc[0, "n_words"] == 6
    assert out.loc[0, "n_sentences"] == 2
    # vowel runs: e, a, a, e, o, a -> 6
    assert out.loc[0, "n_syllables"] == 6
    exp = 0.39 * 6 / 2 + 11.8 * 6 / 6 - 15.59
    assert out.loc[0, "fk_grade"] == np.round(exp, 6)
    assert out.loc[1, "fk_grade"] == -999.0


def test_levenshtein_kernel():
    from forecastframe_ray.pipelines.queries import _levenshtein

    assert _levenshtein("kitten", "sitting") == 3
    assert _levenshtein("", "abc") == 3
    assert _levenshtein("abc", "") == 3
    assert _levenshtein("same", "same") == 0
    assert _levenshtein("flaw", "lawn") == 2


def test_levenshtein_pairs_entry(ray_session, tmp_path):
    from forecastframe_ray.pipelines import queries as Q

    pd.DataFrame({"doc_id": [0, 1, 2, 3],
                  "text": ["kitten", "sitting", "abc", "abc"]}) \
        .to_parquet(tmp_path / "documents.parquet")
    out = Q.q_levenshtein_pairs_documents(str(tmp_path)) \
        .set_index("pair_id")
    assert out.loc[0, "lev_dist"] == 3
    assert out.loc[0, "lev_sim"] == np.round(1 - 3 / 7, 6)
    assert out.loc[1, "lev_dist"] == 0
    assert out.loc[1, "lev_sim"] == 1.0

