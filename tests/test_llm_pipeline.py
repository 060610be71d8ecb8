"""End-to-end LLM training-data pipeline (second flagship): boilerplate →
C4 clean → exact dedup → MinHash near-dup → cluster → representatives,
against an independent pandas oracle and the generator's ground truth."""

import numpy as np
import pandas as pd

import ray.data

from forecastframe_ray import synth
from forecastframe_ray.pipelines import llm
from forecastframe_ray.stages import agg
from forecastframe_ray.state import checkpoint

N_DOCS = 1200
# boilerplate threshold: between max dup-class line count (~12) and the
# boilerplate pool count (~N_DOCS/20 = 60) — see synth.docs_dataset contract
MAX_REPEATS = N_DOCS // 50


def _docs():
    tbl = synth.docs_table(N_DOCS, seed=42)
    return tbl.to_pandas(), ray.data.from_arrow(tbl)


def test_exact_funnel_matches_oracle(tmp_path):
    # minhash_threshold > 1 disables near-dup removal → the output is the
    # exact funnel, which the independent per-doc pandas oracle recomputes
    df, ds = _docs()
    out = str(tmp_path / "llm")
    m = llm.run(ds, out_dir=out, minhash_threshold=1.01,
                max_repeats=MAX_REPEATS)
    expect = llm.oracle_exact_funnel(df, max_repeats=MAX_REPEATS)
    got = checkpoint.read_tier(out, "docs").to_pandas() \
        .sort_values("doc_id").reset_index(drop=True)
    assert m["docs_final"] == len(expect)
    assert m["docs_after_exact_dedup"] == len(expect)
    pd.testing.assert_frame_equal(
        got[["doc_id", "text"]],
        expect.sort_values("doc_id").reset_index(drop=True)
        .rename(columns={"text": "text"}),
        check_dtype=False)
    # funnel is monotone and actually removes junk + exact dups
    assert m["docs_final"] <= m["docs_after_exact_dedup"] \
        <= m["docs_after_clean"] <= m["docs_in"] == N_DOCS
    assert m["docs_after_clean"] < N_DOCS          # junk docs dropped
    assert m["docs_after_exact_dedup"] < m["docs_after_clean"]  # exact dups


def test_near_dup_clusters_resolve_to_one_representative(tmp_path):
    df, ds = _docs()
    out = str(tmp_path / "llm_nd")
    m = llm.run(ds, out_dir=out, minhash_threshold=0.7,
                max_repeats=MAX_REPEATS)
    got = checkpoint.read_tier(out, "docs").to_pandas()
    survivors = set(got["doc_id"])
    assert m["near_dup_pairs"] > 0
    assert m["docs_final"] < m["docs_after_exact_dedup"]

    # ground truth: every pooled template whose exact/near-dup members
    # survived cleaning must keep EXACTLY one representative (the mutation
    # is one word — Jaccard far above 0.7, detection prob ~1 at 16 bands)
    cleaned = llm.oracle_exact_funnel(df, max_repeats=MAX_REPEATS)
    cleaned_ids = set(cleaned["doc_id"])
    grp = df[df["doc_id"].isin(cleaned_ids)].groupby("template")["doc_id"]
    multi = {t: set(ids) for t, ids in grp if len(ids) >= 2}
    assert multi, "fixture must contain multi-member templates"
    for t, ids in multi.items():
        n_alive = len(ids & survivors)
        assert n_alive == 1, (t, ids & survivors)

    # no two surviving docs share identical cleaned text
    texts = cleaned.set_index("doc_id")["text"].reindex(sorted(survivors))
    assert texts.notna().all()
    assert not texts.duplicated().any()


def test_llm_checkpoint_resume_no_new_work(tmp_path):
    _, ds = _docs()
    out = str(tmp_path / "llm_resume")
    m1 = llm.run(ds, out_dir=out, max_repeats=MAX_REPEATS)
    m2 = llm.run(ds, out_dir=out, max_repeats=MAX_REPEATS)
    assert m2["docs_written"] == 0          # resume = filter, not replay
    assert m2["docs_final"] == m1["docs_final"] == m1["docs_written"]


def test_docs_corpus_deterministic_and_batch_independent():
    a = synth.docs_table(300, seed=42).to_pandas()
    b = pd.concat([
        synth._make_docs_batch(np.arange(0, 120, dtype=np.int64), 42,
                               max(1, 300 // 12)).to_pandas(),
        synth._make_docs_batch(np.arange(120, 300, dtype=np.int64), 42,
                               max(1, 300 // 12)).to_pandas(),
    ], ignore_index=True)
    pd.testing.assert_frame_equal(a, b)
    kinds = a["kind"].value_counts()
    assert set(kinds.index) == {synth.DOC_UNIQUE, synth.DOC_EXACT_DUP,
                                synth.DOC_NEAR_DUP, synth.DOC_JUNK}


def test_run_with_pack_stage(ray_session, tmp_path):
    # pack_context chains packing as the funnel's last stage: metrics gain
    # chunk/token counts that must equal a local recount of the survivors
    from forecastframe_ray.pipelines import llm
    from forecastframe_ray.synth import write_docs_corpus

    src = str(tmp_path / "docs")
    write_docs_corpus(src, 2000, seed=7)
    docs = ray.data.read_parquet(src)
    out = str(tmp_path / "ckpt")
    m = llm.run(docs, out_dir=out, num_partitions=8, pack_context=256)
    assert "pack" in m and m["pack"]["context_len"] == 256
    # recount content tokens over the written survivors
    import pyarrow.dataset as pads
    kept = pads.dataset(f"{out}/tier=docs").to_table().to_pandas()
    want_tokens = int(kept["text"].str.count(r"\S+").sum())
    assert m["pack"]["content_tokens"] == want_tokens
    total_stream = want_tokens + len(kept)   # +1 separator per doc
    assert m["pack"]["chunks"] == -(-total_stream // 256)
    # span table checkpointed next to the docs
    spans = pads.dataset(f"{out}/tier=pack_spans").to_table().to_pandas()
    assert (spans.groupby("doc_id")["tok_end"].max().sum()) == want_tokens
    assert m["stage_wall_s"]["pack_s"] > 0


def test_funnel_clusters_through_the_named_stages(tmp_path, monkeypatch):
    """The funnel's near-dup step goes through ``dedup.clusters_from_pairs``
    (given the collected pair DataFrame) and an anti ``join
    .broadcast_semi_join``, once each: the names perfbench's ``llm_funnel``
    check wraps. (Exact dedup's semi-join on its keep ids is the one other
    call.)"""
    from forecastframe_ray.pipelines import dedup
    from forecastframe_ray.stages import join

    calls = {"clusters_from_pairs": [], "broadcast_semi_join": []}

    def counting(mod, name):
        fn = getattr(mod, name)

        def wrapper(*args, **kwargs):
            calls[name].append((args, kwargs))
            return fn(*args, **kwargs)

        monkeypatch.setattr(mod, name, wrapper)

    counting(dedup, "clusters_from_pairs")
    counting(join, "broadcast_semi_join")
    _, ds = _docs()
    m = llm.run(ds, out_dir=str(tmp_path / "llm"), max_repeats=MAX_REPEATS)
    assert len(calls["clusters_from_pairs"]) == 1
    assert [kw.get("anti", False) for _, kw in calls["broadcast_semi_join"]] \
        == [False, True]
    pairs = calls["clusters_from_pairs"][0][0][0]
    assert isinstance(pairs, pd.DataFrame)
    assert {"id_a", "id_b"} <= set(pairs.columns)
    assert len(pairs) == m["near_dup_pairs"] > 0


def test_funnel_sizing_starts_no_execution(executions):
    """The dedup stages size their exchanges from metadata row counts
    (``agg.known_rows``) and from counts they already hold, so the funnel
    starts the six executions it did with fixed partition counts: the
    boilerplate line set, the cleaned corpus, the exact keep set, the kept
    corpus, the MinHash candidate rows and the pairs."""
    _, ds = _docs()
    executions.clear()
    llm.dedup_pipeline(ds, max_repeats=MAX_REPEATS)
    assert len(executions) == 6


def test_funnel_is_plan_invariant(tmp_path, monkeypatch):
    """The funnel counts and the written docs tier (sorted by ``doc_id``)
    do not depend on the plan: 8 or 32 partitions, the input as 1 block,
    16 blocks or 16 blocks reversed, and every exchange sorted into k = 1,
    2 or P id ranges."""
    tbl = synth.docs_table(N_DOCS, seed=42)
    step = N_DOCS // 16
    many = [tbl.slice(i * step, step) for i in range(16)]
    inputs = {"one": [tbl], "16": many, "16 reversed": many[::-1]}
    want = None
    for k in (1, 2, "P"):
        monkeypatch.setattr(agg, "range_count",
                            lambda n, k=k: n if k == "P" else min(n, k))
        for num_partitions in (8, 32):
            for name, blocks in inputs.items():
                plan = (k, num_partitions, name)
                out = str(tmp_path / "-".join(map(str, plan)))
                m = llm.run(ray.data.from_arrow(blocks), out_dir=out,
                            max_repeats=MAX_REPEATS,
                            num_partitions=num_partitions)
                counts = {c: v for c, v in m.items()
                          if c not in ("stage_wall_s", "wall_s",
                                       "docs_per_sec")}
                docs = checkpoint.read_tier(out, "docs").to_pandas() \
                    .sort_values("doc_id").reset_index(drop=True)
                if want is None:
                    want = counts, docs
                    assert counts["near_dup_pairs"] > 0
                assert counts == want[0], plan
                pd.testing.assert_frame_equal(docs, want[1], obj=str(plan))
