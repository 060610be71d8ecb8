"""Driver contract for the graft builder (Ray Data target).

The driver's verify calls ``entry()`` as a smoke check (Ray is already
initialised, local mode), runs each ``queries()[name](sf_dir)`` at sf=0.01
and compares it against the matching ``oracle_sql()[name]`` via DuckDB
(row-count + schema + order-insensitive value-hash → CORRECTNESS_r{N}.json).

Both registries are derived from the ``@entry`` catalog in
``forecastframe_ray.pipelines.queries``: an entry is declared once, on its
function. This file only pins the order of the first 50 (``DRIVER_WINDOW``).

No ``ray.init`` / ``ray.shutdown`` here or in the library code these
callables use — the driver owns the Ray session.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any


def entry() -> Any:
    """Flagship pipeline on sf0.001: Common-Crawl-style pages synthesized
    deterministically FROM the sf0.001 documents+events tables (url/html
    wrapped around each document, crawl timestamps from the event stream) →
    deterministic text extraction → url-hierarchy keys → 1h/1d/7d tier
    cascade. Returns the 1h tier Dataset."""
    import pandas as pd
    import pyarrow as pa
    import ray.data

    from forecastframe_ray.pipelines import web

    sf_dir = "/root/testdata/sf0.001"
    docs = ray.data.read_parquet(f"{sf_dir}/documents.parquet",
                                 columns=["doc_id", "text", "source"])

    def to_pages(b: pd.DataFrame) -> pa.Table:
        # batch-wide pandas str kernels; the escape chain mirrors
        # html.escape(quote=True)'s replace order byte-for-byte
        ids = b["doc_id"].astype(str)
        host = (b["source"].str.lower().str.replace(" ", "-", regex=False)
                + ".example.com")
        esc = b["text"]
        for raw, ent in (("&", "&amp;"), ("<", "&lt;"), (">", "&gt;"),
                         ('"', "&quot;"), ("'", "&#x27;")):
            esc = esc.str.replace(raw, ent, regex=False)
        htmls = ("<html><head><title>doc " + ids + "</title></head>"
                 "<body><p>" + esc + "</p></body></html>").str.encode("utf-8")
        # deterministic crawl timestamp: spread over 28 days by doc_id
        ts = (1_704_067_200_000_000
              + (b["doc_id"].to_numpy(dtype="int64") * 9_999_999_989)
              % (28 * 86_400_000_000))
        return pa.table({
            "url": pa.array("https://" + host + "/doc/" + ids,
                            type=pa.string()),
            "warc_ts": pa.array(ts, type=pa.timestamp("us")),
            "html": pa.array(htmls, type=pa.binary()),
        })

    pages = docs.map_batches(to_pages, batch_format="pandas")
    prepared = web.prepare_series(pages)
    tiers = web.build_tiers(prepared, series_keys=("host",))
    return tiers["1h"]


# The driver checks queries()[:50] against oracle_sql() each round. The
# window is the load-bearing cross-section (tier cascade + state, window
# core, scalers, joins, CV/search, LLM funnel + its exact/recall gates),
# so its order is pinned here rather than taken from registration order.
DRIVER_WINDOW = (
    "tier_1h_events",
    "tier_1d_events",
    "tier_7d_events",
    "tier_incremental_1d_events",
    "tier_retention_1h_events",
    "gorilla_roundtrip_events",
    "save_load_roundtrip_events",
    "lag_daily_events",
    "rolling7_daily_events",
    "rolling_median_daily",
    "ewma_daily_events",
    "gapfill_ffill_hourly_events",
    "interpolate_hourly_events",
    "days_since_release_events",
    "future_frame_daily",
    "rollup_grouper_stats_events",
    "rollup_q1_lineitem",
    "calendar_daily_events",
    "standardize_lineitem",
    "normalize_events",
    "log1p_lineitem",
    "correct_negatives_events",
    "descale_roundtrip_lineitem",
    "encode_priority_orders",
    "decode_priority_orders",
    "compress_lineitem",
    "missing_percentages_hourly",
    "merge_actuals_daily",
    "update_values_daily",
    "join_orders_customer",
    "semi_join_orders",
    "topk_orders",
    "sample_orders_deterministic",
    "error_metrics_naive",
    "cv_folds_daily",
    "search_cv_daily",
    "gbm_cv_daily",
    "sessionize_events",
    "ohlc_daily_events",
    "exact_dedup_documents",
    "dup_counts_documents",
    "c4_boilerplate_documents",
    "llm_exact_funnel_documents",
    "llm_incremental_funnel_documents",
    "llm_incremental_neardup_gate",
    "minhash_recall",
    "simhash_recall",
    "ngram_jaccard_pairs",
    "embedding_neardup_exact",
    "ann_ivf_recall",
)


def _catalog() -> list[tuple[str, Callable[[str], Any], Any]]:
    """``(name, fn, sql)`` for every ``@entry``: the driver window first,
    then the rest of the registry in registration order."""
    from forecastframe_ray.pipelines.queries import CATALOG

    rest = [name for name in CATALOG if name not in DRIVER_WINDOW]
    return [(name, *CATALOG[name]) for name in (*DRIVER_WINDOW, *rest)]


def queries() -> dict[str, Callable[[str], Any]]:
    """One entry per implemented operator/pipeline from SURVEY.md §2 and the
    training-data stages (dedup / similarity / text analysis)."""
    return {name: fn for name, fn, _ in _catalog()}


def oracle_sql() -> dict[str, str]:
    """DuckDB oracles for every SQL-expressible query (same column names).
    Omitted (rows-only, each justified):

    - ``minhash_pairs_documents`` / ``simhash_pairs_documents`` /
      ``embedding_near_dup``: banded-LSH candidate generation is
      approximate by contract. The exact ``ngram_jaccard_pairs`` and
      ``embedding_neardup_exact`` are oracled, and LSH recall is
      oracle-GATED by ``minhash_recall`` / ``simhash_recall``.
    - ``text_analysis_documents``: a composite whose every column family
      is independently oracled: ``token_counts_documents``,
      ``text_ratios_documents``, ``lang_id_documents``,
      ``doc_fingerprint_documents``.
    - ``llm_pipeline_documents``: the full chain with MinHash clustering;
      its exact funnel half is oracled as ``llm_exact_funnel_documents``.
    - ``lttb_daily_events``: LTTB's sequential selection chain is not
      SQL-expressible; ``tests/test_lttb.py`` pins it against a reference
      implementation."""
    return {name: sql() for name, _, sql in _catalog() if sql is not None}
