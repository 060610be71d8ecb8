"""Okapi BM25 keyword scoring over whitespace tokens.

No analog in the reference (it holds no text columns). The scorer ranks
documents against a fixed query-term list without a per-document join:
corpus statistics (document count, mean length, per-term document
frequency) reduce to a few rows that ship broadcast into one vectorized
scoring pass, and per-document scores sum in one coarse-hash aggregate.
Scores are ``round(…, 6)`` to match the DuckDB oracle exactly.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

from forecastframe_ray.stages.agg import hash_aggregate


def bm25_scores(ds, query_terms: list[str], text_col: str = "text",
                id_col: str = "doc_id", k1: float = 1.2, b: float = 0.75,
                num_partitions: int = 64):
    """Okapi BM25 (Robertson et al., public; the Lucene idf variant
    ``ln(1 + (N − df + 0.5)/(df + 0.5))``) for a fixed query-term list over
    whitespace tokens.

    Scale shape — no per-doc join anywhere:

    1. one stats pass reduces each batch to a single ``(n_docs, sum_dl)``
       row (token counts are per-batch complete because a document is one
       input row); the driver sees only block-count rows;
    2. one match pass emits ``(id, term, tf, dl)`` ONLY for documents
       containing ≥1 query term — the corpus never re-materializes;
    3. per-term ``df`` is a tiny aggregate of (2); ``{N, avgdl, df}`` ships
       broadcast into the final vectorized score pass, and per-document
       scores sum in one coarse-hash aggregate.

    Returns a Dataset ``(id, bm25)`` over matching documents, scores
    rounded to 6dp."""
    qset = set(query_terms)

    def stats(bt: pd.DataFrame) -> pd.DataFrame:
        toks = bt[text_col].str.split()
        dl = toks.str.len().fillna(0).astype("int64")
        return pd.DataFrame({"n_docs": [np.int64(len(bt))],
                             "sum_dl": [np.int64(dl.sum())]})

    st = ds.map_batches(stats, batch_format="pandas").to_pandas()
    n_docs = int(st["n_docs"].sum())
    avgdl = float(st["sum_dl"].sum()) / max(n_docs, 1)

    def match(bt: pd.DataFrame) -> pd.DataFrame:
        toks = bt[text_col].str.split()
        dl = toks.str.len().fillna(0).astype("int64").to_numpy()
        ex = toks.explode().dropna()
        ex = ex[ex.isin(qset)]
        if len(ex) == 0:
            return pd.DataFrame({id_col: pd.Series([], dtype="int64"),
                                 "term": pd.Series([], dtype="object"),
                                 "tf": pd.Series([], dtype="int64"),
                                 "dl": pd.Series([], dtype="int64")})
        pos = ex.index.to_numpy()
        g = pd.DataFrame({id_col: bt[id_col].to_numpy()[pos],
                          "term": ex.to_numpy(),
                          "dl": dl[pos]})
        out = (g.groupby([id_col, "term", "dl"], sort=False).size()
                .reset_index(name="tf"))
        out["tf"] = out["tf"].astype("int64")
        return out[[id_col, "term", "tf", "dl"]]

    matches = ds.map_batches(match, batch_format="pandas").materialize()
    df_tbl = hash_aggregate(matches, ["term"], {"df": ("tf", "size")},
                            num_partitions=min(8, num_partitions)).to_pandas()
    df_map = dict(zip(df_tbl["term"], df_tbl["df"].astype(np.int64)))

    def score(bt: pd.DataFrame) -> pd.DataFrame:
        tf = bt["tf"].to_numpy(np.float64)
        dl_ = bt["dl"].to_numpy(np.float64)
        dfv = bt["term"].map(df_map).to_numpy(np.float64)
        idf = np.log1p((n_docs - dfv + 0.5) / (dfv + 0.5))
        part = idf * tf * (k1 + 1.0) / (tf + k1 * (1.0 - b + b * dl_ / avgdl))
        return pd.DataFrame({id_col: bt[id_col], "part": part})

    summed = hash_aggregate(
        matches.map_batches(score, batch_format="pandas"),
        [id_col], {"bm25": ("part", "sum")}, num_partitions=num_partitions)

    def fin(bt: pd.DataFrame) -> pd.DataFrame:
        bt["bm25"] = np.round(bt["bm25"].to_numpy(np.float64), 6)
        return bt

    return summed.map_batches(fin, batch_format="pandas")
