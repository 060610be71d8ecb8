"""Oracles computed once during set-up, and the per-run checks against them.

Every check returns a list of human-readable problems; an empty list means
the run's output is correct. Stored outputs are read back with pyarrow on
this process, not through Ray, so a check never shares an execution path with
the run it checks."""

from __future__ import annotations

import glob
import hashlib
import os

import numpy as np
import pandas as pd
import pyarrow.parquet as pq

TIER_COLS = ["host", "bucket_us", "pages", "bytes", "sum_val", "min_val",
             "max_val", "sum_sq", "mean_val", "std_val"]
# the tolerance of tests/test_web_pipeline.py: mean/std carry one division
# and one sqrt, every other tier column is an exact sum/min/max/count
_ROUNDED = ("mean_val", "std_val")
_RTOL = 1e-9


def read_store_tier(out_dir: str, tier: str) -> pd.DataFrame:
    files = sorted(glob.glob(os.path.join(out_dir, f"tier={tier}", "*.parquet")))
    if not files:
        return pd.DataFrame()
    return pd.concat([pq.read_table(f).to_pandas() for f in files],
                     ignore_index=True)


def compare_frames(name: str, got: pd.DataFrame, want: pd.DataFrame,
                   keys: list[str], exact: list[str],
                   close: list[str] = ()) -> list[str]:
    """Row-set equality on ``keys`` plus value equality: ``exact`` columns
    bit-for-bit, ``close`` columns to ``_RTOL``; the NaN pattern must match
    in both."""
    missing = [c for c in keys + exact + list(close) if c not in got.columns]
    if missing:
        return [f"{name}: missing columns {missing}"]
    if len(got) != len(want):
        return [f"{name}: {len(got)} rows, oracle has {len(want)}"]
    g = got.sort_values(keys, kind="mergesort").reset_index(drop=True)
    w = want.sort_values(keys, kind="mergesort").reset_index(drop=True)
    problems = []
    for k in keys:
        if not (g[k].to_numpy() == w[k].to_numpy()).all():
            problems.append(f"{name}: key column {k} differs")
    if problems:
        return problems
    for col in list(exact) + list(close):
        a = g[col].to_numpy(dtype=np.float64)
        b = w[col].to_numpy(dtype=np.float64)
        if not (np.isnan(a) == np.isnan(b)).all():
            problems.append(f"{name}: NaN pattern of {col} differs")
            continue
        m = ~np.isnan(a)
        ok = (np.allclose(a[m], b[m], rtol=_RTOL, atol=_RTOL)
              if col in close else np.array_equal(a[m], b[m]))
        if not ok:
            problems.append(f"{name}: values of {col} differ")
    return problems


def check_tier(out_dir: str, tier: str, want: pd.DataFrame) -> list[str]:
    got = read_store_tier(out_dir, tier)
    exact = [c for c in TIER_COLS[2:] if c not in _ROUNDED]
    return compare_frames(f"tier {tier}", got, want, ["host", "bucket_us"],
                          exact, list(_ROUNDED))


def decoded_series(chunks: pd.DataFrame) -> pd.DataFrame:
    """Decoded ``chunks_1h`` rows as ``(host, bucket_us:int64, pages)``."""
    out = chunks[["host", "bucket_us", "pages"]].copy()
    ts = out["bucket_us"]
    if not np.issubdtype(ts.dtype, np.integer):
        out["bucket_us"] = ts.astype("datetime64[us]").astype("int64")
    return out


def check_series(name: str, decoded: pd.DataFrame,
                 want: pd.DataFrame) -> list[str]:
    return compare_frames(name, decoded, want[["host", "bucket_us", "pages"]],
                          ["host", "bucket_us"], ["pages"])


# ---------------------------------------------------------------------------
# feature table: plain pandas, one series at a time, reference window rules
# ---------------------------------------------------------------------------

FEATURE_LAGS = (1, 7)
FEATURE_WINDOW = 7
FEATURE_AGGS = ("max", "min", "std", "mean", "median")


def feature_oracle(tier_1d: pd.DataFrame) -> pd.DataFrame:
    """The feature set ``tier_cycle`` computes through
    ``RayForecastFrame``, recomputed per host with plain pandas:

    - gap fill to a daily grid spanning the GLOBAL first..last day (the
      reference's ``fill_time_gaps`` default), new rows NaN;
    - ``pages_lag{k}`` = value k rows earlier in the filled series;
    - rolling stats over the previous ``7D`` of the series shifted by one
      row, ``min_periods=1`` (NaN only where no observed value is in range);
    - EWMA with ``span=7`` over the shifted series, ``min_periods`` =
      ceil(7**0.8) = 5 (the reference default when none is passed)."""
    df = tier_1d[["host", "bucket_us", "pages"]].copy()
    df["bucket_ts"] = pd.to_datetime(df["bucket_us"], unit="us")
    grid = pd.date_range(df["bucket_ts"].min(), df["bucket_ts"].max(), freq="D")
    mp_ewma = int(np.ceil(FEATURE_WINDOW ** 0.8))
    parts = []
    for host, g in df.groupby("host", sort=True):
        s = g.set_index("bucket_ts")["pages"].astype(np.float64).reindex(grid)
        s.index.name = "bucket_ts"
        out = pd.DataFrame({"host": host, "bucket_ts": grid,
                            "pages": s.to_numpy()})
        for k in FEATURE_LAGS:
            out[f"pages_lag{k}"] = s.shift(k).to_numpy()
        roll = s.shift(1).rolling(f"{FEATURE_WINDOW}D", min_periods=1)
        for agg in FEATURE_AGGS:
            out[f"pages_{agg}_roll{FEATURE_WINDOW}_lag1"] = \
                getattr(roll, agg)().to_numpy()
        out[f"pages_ewma_roll{FEATURE_WINDOW}_lag1"] = (
            s.shift(1).ewm(span=FEATURE_WINDOW, min_periods=mp_ewma,
                           adjust=True).mean().to_numpy())
        parts.append(out)
    return pd.concat(parts, ignore_index=True)


def check_features(got: pd.DataFrame, want: pd.DataFrame) -> list[str]:
    value_cols = [c for c in want.columns if c not in ("host", "bucket_ts")]
    g = got.copy()
    g["bucket_ts"] = pd.to_datetime(g["bucket_ts"]).astype("datetime64[ns]")
    w = want.copy()
    w["bucket_ts"] = w["bucket_ts"].astype("datetime64[ns]")
    g["__ts"] = g["bucket_ts"].astype("int64")
    w["__ts"] = w["bucket_ts"].astype("int64")
    return compare_frames("features", g, w, ["host", "__ts"], [],
                          value_cols)


# ---------------------------------------------------------------------------
# LLM funnel
# ---------------------------------------------------------------------------

class FunnelOracle:
    """``llm.oracle_exact_funnel`` of the input corpus (the exact part of
    the funnel: boilerplate, C4, exact dedup), and the near-duplicate pairs
    a correct funnel finds among its docs.

    The true pairs are found by brute force: ``dedup.ngram_jaccard`` of
    every two docs of one generator template (the corpus' only source of
    near-duplicates) at or above the threshold. Their connected components
    give the docs a correct clustering removes: all but one per component.
    MinHash LSH is approximate, so a run's clusters must join the docs of at
    least ``RECALL_FLOOR`` of the true pairs, and it must remove at least
    ``RECALL_FLOOR`` of the docs a correct clustering removes; every doc it removes must have a partner at or above the
    threshold. The synthetic near-duplicates differ in one word, so at full
    size the funnel finds every true pair; the floor leaves room for a
    slightly lossier LSH, not for a skipped stage."""

    RECALL_FLOOR = 0.99

    def __init__(self, docs: pd.DataFrame, max_repeats: int,
                 threshold: float):
        from forecastframe_ray.pipelines import llm
        from forecastframe_ray.pipelines.dedup import ngram_jaccard

        self.threshold = threshold
        self.exact = llm.oracle_exact_funnel(docs, max_repeats=max_repeats)
        self.text = {int(i): t for i, t in
                     zip(self.exact["doc_id"], self.exact["text"])}
        tmpl = dict(zip(docs["doc_id"], docs["template"]))
        groups: dict[int, list[int]] = {}
        for i in self.text:
            groups.setdefault(int(tmpl[i]), []).append(i)
        self.pairs = [(a, b) for ids in groups.values()
                      for k, a in enumerate(ids) for b in ids[k + 1:]
                      if ngram_jaccard(self.text[a], self.text[b]) >= threshold]
        self.partners: dict[int, set[int]] = {}
        for a, b in self.pairs:
            self.partners.setdefault(a, set()).add(b)
            self.partners.setdefault(b, set()).add(a)
        self.expected_removed = len(self.partners) - len(_components(self.pairs))

    def has_partner(self, doc_id: int) -> bool:
        from forecastframe_ray.pipelines.dedup import ngram_jaccard

        if doc_id in self.partners:
            return True
        text = self.text[doc_id]
        return any(other != doc_id and
                   ngram_jaccard(text, self.text[other]) >= self.threshold
                   for other in self.text)

    def check_output(self, out_dir: str, n_exact: int) -> list[str]:
        problems = []
        if n_exact != len(self.exact):
            problems.append(f"funnel: {n_exact} docs after exact dedup, "
                            f"oracle has {len(self.exact)}")
        got = read_store_tier(out_dir, "docs")
        if got.empty:
            return problems + ["funnel: no output docs"]
        ids = [int(i) for i in got["doc_id"]]
        kept = set(ids)
        if len(kept) != len(ids):
            problems.append("funnel: duplicate doc ids in output")
        unknown = [i for i in ids if i not in self.text]
        if unknown:
            return problems + [f"funnel: {len(unknown)} output docs are not "
                               "in the exact-dedup oracle"]
        if any(self.text[i] != t for i, t in zip(ids, got["text"])):
            problems.append("funnel: output text differs from the oracle")
        # precision: a removed doc is a non-representative member of a
        # cluster built from verified pairs, so it has a partner
        removed = set(self.text) - kept
        lonely = [i for i in sorted(removed) if not self.has_partner(i)]
        if lonely:
            problems.append(f"funnel: {len(lonely)} removed docs have no "
                            "near-duplicate partner")
        if len(removed) < self.RECALL_FLOOR * self.expected_removed:
            problems.append(f"funnel: {len(removed)} near-dup docs removed, "
                            f"a correct clustering removes "
                            f"{self.expected_removed}")
        return problems

    def check_pairs(self, pairs: pd.DataFrame) -> list[str]:
        """Every pair the funnel clustered re-verifies at the threshold, and
        its clusters join the docs of at least ``RECALL_FLOOR`` of the true
        pairs."""
        from forecastframe_ray.pipelines.dedup import ngram_jaccard

        found = [(int(a), int(b)) for a, b in zip(pairs["id_a"], pairs["id_b"])]
        bad = sum(1 for a, b in found
                  if a not in self.text or b not in self.text
                  or (b not in self.partners.get(a, ())
                      and ngram_jaccard(self.text[a], self.text[b])
                      < self.threshold))
        problems = [f"funnel: {bad} near-dup pairs below the threshold"] \
            if bad else []
        if self.pairs:
            label = {x: k for k, comp in enumerate(_components(found))
                     for x in comp}
            joined = sum(1 for a, b in self.pairs
                         if a in label and label.get(b) == label[a])
            recall = joined / len(self.pairs)
            if recall < self.RECALL_FLOOR:
                problems.append(f"funnel: near-dup pair recall {recall:.3f} "
                                f"of {len(self.pairs)} true pairs")
        return problems


def _components(pairs) -> list[set[int]]:
    """Connected components of the graph the pairs span."""
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in pairs:
        parent[find(a)] = find(b)
    comps: dict[int, set[int]] = {}
    for x in parent:
        comps.setdefault(find(x), set()).add(x)
    return list(comps.values())


def output_digest(out_dir: str) -> str:
    """Hash of every stored file's name and bytes: equal digests mean
    identical stored outputs."""
    h = hashlib.sha256()
    for f in sorted(glob.glob(os.path.join(out_dir, "tier=*", "*.parquet"))):
        h.update(os.path.relpath(f, out_dir).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]
