"""The benchmark workloads, driven through the engine's public
pipeline functions.

Each workload builds its inputs from the seed (``prepare``), runs the job
end to end into an empty output directory (``run``) and checks the output
against oracles computed in ``prepare`` (``check``). The engine only ever
reads the generated Parquet files. A traced run is the same ``run``: the public engine functions named
by ``calls`` are wrapped with timed spans that end at a materialization
barrier, so the layers are timed on the program's own code path.

Sizes are chosen so one run takes 5-10 s on one CPU: large enough that
per-page work (extract, keys) is a visible share of ``tier_cycle``, small
enough that several runs fit in one measurement window."""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from perfbench import oracles
from perfbench.harness import Call

#: partitions of every shuffle and of the written stores. Fixed (not
#: derived from the CPU count) so the stored layout, and so
#: ``store_bytes_per_point``, is the same on every machine.
NUM_PARTITIONS = 8
INPUT_FILES = 8
SERIES_KEYS = ("host",)
DAY_US = 86_400_000_000


def _write_parts(table: pa.Table, path: str, parts: int = INPUT_FILES) -> None:
    os.makedirs(path)
    n = table.num_rows
    for i in range(parts):
        lo, hi = i * n // parts, (i + 1) * n // parts
        pq.write_table(table.slice(lo, hi - lo),
                       os.path.join(path, f"part-{i:02d}.parquet"))


def _column_mb(table: pa.Table, col: str) -> float:
    arr = table[col]
    if pa.types.is_string(arr.type):
        arr = arr.cast(pa.binary())
    return pc.sum(pc.binary_length(arr)).as_py() / 1e6


def _read(path: str):
    import ray.data

    return ray.data.read_parquet(path)


def _tier_files(out_dir: str, tiers) -> list[str]:
    files = []
    for t in tiers:
        d = os.path.join(out_dir, f"tier={t}")
        if os.path.isdir(d):
            files += [os.path.join(d, f) for f in sorted(os.listdir(d))
                      if f.endswith(".parquet")]
    return files


def _rows(files: list[str]) -> int:
    return sum(pq.ParquetFile(f).metadata.num_rows for f in files)


def _bytes(files: list[str]) -> int:
    return sum(os.path.getsize(f) for f in files)


class Workload:
    name = ""
    #: layers this workload's traced run records (``<module>.<function>``)
    layers: tuple[str, ...] = ()
    #: tiers whose files count as the stored output
    store_tiers: tuple[str, ...] = ()
    #: tiers whose rows count as stored points
    point_tiers: tuple[str, ...] = ()

    def __init__(self, scale: float = 1.0):
        self.scale = scale
        self.rows_in = 0
        self.input_mb = 0.0
        self.points_out = 0

    def size(self, full: int) -> int:
        return max(50, int(full * self.scale))

    def store(self, out_dir: str) -> tuple[int, int]:
        """(bytes on disk of the stored output, stored points)."""
        return (_bytes(_tier_files(out_dir, self.store_tiers)),
                _rows(_tier_files(out_dir, self.point_tiers)))

    def prepare(self, seed: int, work_dir: str) -> None:
        raise NotImplementedError

    def calls(self) -> list[Call]:
        """The public engine functions a traced run times."""
        return []

    def run(self, out_dir: str, tracer) -> dict:
        raise NotImplementedError

    def kernel_samples(self) -> dict[str, dict]:
        """Per-layer records timed outside any run."""
        return {}

    def check(self, out_dir: str, result: dict) -> list[str]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# extras of the traced layers: each ``note(rec, args, out)`` runs after its
# span, on the call's arguments and its (materialized) result
# ---------------------------------------------------------------------------

def _add(rec: dict, **values) -> None:
    for k, v in values.items():
        rec[k] = rec.get(k, 0) + v


def _out_stats(rec: dict, ds) -> None:
    _add(rec, rows_out=ds.count(), mb_out=ds.size_bytes() / 1e6)


def _part_files(out_dir: str, tier: str, parts) -> list[str]:
    files = [os.path.join(out_dir, f"tier={tier}", f"part={p}.parquet")
             for p in sorted(parts)]
    return [f for f in files if os.path.exists(f)]


def _note_rollup(rec, args, tiers) -> None:
    points = {t: ds.count() for t, ds in tiers.items()}
    _add(rec, rows_in=args["ds"].count(), rows_out=sum(points.values()),
         mb_out=sum(ds.size_bytes() for ds in tiers.values()) / 1e6,
         **{f"points_{t}": n for t, n in points.items()})
    rec["combiner_ratio"] = rec["rows_out"] / rec["rows_in"]


def _note_write(rec, args, rows) -> None:
    files = _part_files(args["out_dir"], args["tier"], {r["part"] for r in rows})
    _add(rec, rows_in=sum(r["rows"] for r in rows), partitions=len(rows),
         mb_written=_bytes(files) / 1e6)


def _note_encode(rec, args, chunks) -> None:
    df = chunks.to_pandas()
    points = int(df["n_points"].sum())
    _add(rec, rows_in=points, rows_out=len(df),
         mb_out=chunks.size_bytes() / 1e6)
    payload = df["ts_payload"].map(len).sum() + df["val_payload"].map(len).sum()
    rec["bytes_per_point"] = float(payload) / points
    rec["us_per_point"] = rec["wall_s"] / points * 1e6


def _parquet_mb(ds) -> float:
    """Size of ``ds`` written as the store writes its tier files."""
    sink = pa.BufferOutputStream()
    pq.write_table(pa.Table.from_pandas(ds.to_pandas(), preserve_index=False),
                   sink, use_dictionary=True, compression="zstd")
    return sink.getvalue().size / 1e6


def _note_merge(rec, args, rows) -> None:
    files = _part_files(args["out_dir"], args["tier"], {r["part"] for r in rows})
    delta = args["delta_ds"]
    _add(rec, rows_in=delta.count(), rows_out=sum(r["rows"] for r in rows),
         partitions_rewritten=len(rows), mb_written=_bytes(files) / 1e6,
         delta_mb=_parquet_mb(delta))
    rec["write_amplification"] = rec["mb_written"] / rec["delta_mb"]


def _note_refresh(rec, args, rows) -> None:
    files = _part_files(args["out_dir"], args["tier"], args["parts"])
    _add(rec, rows_in=_rows(files), rows_out=sum(r["rows"] for r in rows))
    rec["us_per_point"] = rec["wall_s"] / max(1, rec["rows_in"]) * 1e6


def _note_expire(rec, args, rows) -> None:
    files = _tier_files(args["out_dir"], [args["tier"]])
    kept = sum(1 for r in rows if r["rows"])  # the others were deleted
    _add(rec, rows_out=sum(r["rows"] for r in rows),
         partitions_rewritten=len(rows), partitions_skipped=len(files) - kept)


def _note_decode(rec, args, ds) -> None:
    _add(rec, rows_in=args["chunks"].count())
    _out_stats(rec, ds)
    rec["us_per_point"] = rec["wall_s"] / max(1, rec["rows_out"]) * 1e6


def _note_prepare(rec, args, ds) -> None:
    _add(rec, rows_in=args["pages_ds"].count())
    _out_stats(rec, ds)
    rec["us_per_page"] = rec["wall_s"] / rec["rows_in"] * 1e6


class TierCycle(Workload):
    """A tier store's life: the pages corpus is built into a store with
    ``web.run(out_dir, compress=True)`` (extract, host key, 1h/1d/7d
    cascade, Gorilla encode of 1h, checkpointed writes), then takes a ~10%
    later crawl window that overlaps its last days: ``web.append_tiers``
    with chunk refresh, a 1h retention sweep, a read + Gorilla decode of
    ``chunks_1h`` and the forecastframe feature set on the 1d tier."""

    name = "tier_cycle"
    layers = ("web.prepare_series", "rollup.rollup_tiers",
              "checkpoint.write_partitioned", "gorilla.encode_series_dataset",
              "checkpoint.merge_partitioned", "web.refresh_chunks",
              "checkpoint.expire_tier", "checkpoint.read_tier",
              "gorilla.decode_chunk_dataset", "keyed.keyed_window_stage")
    store_tiers = ("1h", "1d", "7d", "chunks_1h")
    point_tiers = ("1h", "1d", "7d")
    PAGES = 4000
    #: ~200 hosts with dense daily series: the feature stage's cost is per
    #: host, and a store being maintained holds long-lived series
    DOMAINS = 100
    #: the delta: this many pages of the crawl of the corpus' last DELTA_DAYS
    DELTA_PAGES = 400
    DELTA_DAYS = 3
    #: hourly buckets older than this many days past the corpus start expire
    RETAIN_AFTER_DAYS = 7
    DELTA_ID = "delta-1"
    #: pages of the fixed sample the per-page kernels are timed on
    SAMPLE_PAGES = 512

    def prepare(self, seed: int, work_dir: str) -> None:
        from forecastframe_ray import synth
        from forecastframe_ray.pipelines import web

        n = self.size(self.PAGES)
        base = synth.pages_table(n, seed=seed, num_domains=self.DOMAINS)
        # the later crawl covers the whole span; 2n pages hold ~0.2n in the
        # last 3 of 28 days, so the first n/10 of them always exist
        later = synth.pages_table(2 * n, seed=seed + 1,
                                  num_domains=self.DOMAINS)
        start = synth.BASE_TS_US + (synth.SPAN_DAYS - self.DELTA_DAYS) * DAY_US
        delta = later.filter(pc.greater_equal(
            later["warc_ts"].cast(pa.int64()), start))
        delta = delta.slice(0, self.size(self.DELTA_PAGES))
        self.cutoff_us = synth.BASE_TS_US + self.RETAIN_AFTER_DAYS * DAY_US

        self.pages_dir = os.path.join(work_dir, "pages")
        self.delta_dir = os.path.join(work_dir, "delta")
        _write_parts(base, self.pages_dir)
        _write_parts(delta, self.delta_dir, parts=2)

        self.rows_in = base.num_rows + delta.num_rows
        self.input_mb = _column_mb(base, "html") + _column_mb(delta, "html")
        self.build_points = sum(
            len(t) for t in web.oracle_tiers(base.to_pandas()).values())
        self.points_out = self.build_points + sum(
            len(t) for t in web.oracle_tiers(delta.to_pandas()).values())
        merged = web.oracle_tiers(pa.concat_tables([base, delta]).to_pandas())
        self.merged = merged
        self.oracle = dict(merged)
        self.oracle["1h"] = merged["1h"][merged["1h"]["bucket_us"]
                                         >= self.cutoff_us]
        self.features = oracles.feature_oracle(merged["1d"])
        self.sample = base.slice(0, self.SAMPLE_PAGES).select(["url", "html"])

    def calls(self) -> list[Call]:
        from forecastframe_ray.pipelines import rollup, web
        from forecastframe_ray.stages import gorilla
        from forecastframe_ray.state import checkpoint

        # refresh_chunks encodes and writes chunks too; those calls are
        # inside its span and count there
        return [
            Call(web, "prepare_series", "web.prepare_series", barrier=True,
                 note=_note_prepare),
            Call(rollup, "rollup_tiers", "rollup.rollup_tiers", barrier=True,
                 note=_note_rollup),
            Call(checkpoint, "write_partitioned",
                 "checkpoint.write_partitioned", note=_note_write),
            Call(gorilla, "encode_series_dataset",
                 "gorilla.encode_series_dataset", barrier=True,
                 note=_note_encode),
            Call(checkpoint, "merge_partitioned",
                 "checkpoint.merge_partitioned", note=_note_merge),
            Call(web, "refresh_chunks", "web.refresh_chunks",
                 note=_note_refresh),
            Call(checkpoint, "expire_tier", "checkpoint.expire_tier",
                 note=_note_expire),
            Call(checkpoint, "read_tier", "checkpoint.read_tier",
                 barrier=True, note=lambda rec, args, ds: _out_stats(rec, ds)),
            Call(gorilla, "decode_chunk_dataset",
                 "gorilla.decode_chunk_dataset", barrier=True,
                 note=_note_decode),
        ]

    def _features(self, tier_1d):
        from forecastframe_ray.frame import RayForecastFrame

        frame = RayForecastFrame(
            tier_1d.select_columns(["host", "bucket_ts", "pages"]),
            "bucket_ts", "pages", list(SERIES_KEYS),
            num_partitions=NUM_PARTITIONS)
        w = oracles.FEATURE_WINDOW
        return (frame.fill_time_gaps("D")
                .lag_features(["pages"], list(oracles.FEATURE_LAGS))
                .calc_statistical_features(["pages"], windows=[w],
                                           aggregations=list(oracles.FEATURE_AGGS))
                .calc_ewma(["pages"], windows=[w])
                .to_pandas())

    def run(self, out_dir: str, tracer) -> dict:
        from forecastframe_ray.pipelines import web
        from forecastframe_ray.stages import gorilla
        from forecastframe_ray.state import checkpoint

        m = web.run(_read(self.pages_dir), out_dir=out_dir, compress=True,
                    num_partitions=NUM_PARTITIONS)
        web.append_tiers(_read(self.delta_dir), out_dir, self.DELTA_ID,
                         num_partitions=NUM_PARTITIONS,
                         refresh_compressed=True)
        checkpoint.expire_tier(out_dir, "1h", self.cutoff_us)
        decoded = gorilla.decode_chunk_dataset(
            checkpoint.read_tier(out_dir, "chunks_1h"), list(SERIES_KEYS),
            ts_col="bucket_us", value_col="pages").to_pandas()
        tier_1d = checkpoint.read_tier(out_dir, "1d")
        # the frame's operators are lazy and end in one to_pandas, so the
        # keyed window stages are timed as the whole chain
        with tracer.layer("keyed.keyed_window_stage") as rec:
            features = self._features(tier_1d)
        if tracer:
            with tracer.bookkeeping():
                _add(rec, rows_in=tier_1d.count(), rows_out=len(features),
                     mb_out=features.memory_usage(deep=True).sum() / 1e6)
                rec["gapfill_ratio"] = rec["rows_out"] / rec["rows_in"]
        return {"build_points": m["total_points"], "decoded": decoded,
                "features": features}

    def kernel_samples(self) -> dict[str, dict]:
        """The two per-page kernels of ``web.prepare_series``, called in this
        process on the fixed sample: median of 3 passes."""
        from forecastframe_ray import extract
        from forecastframe_ray import keys as K

        out = {}
        for name, fn in (
                ("extract.extract_text_batch",
                 lambda b: extract.extract_text_batch(b, "html", "text")),
                ("keys.split_url", lambda b: K.split_url(b["url"]))):
            passes = []
            for _ in range(3):
                t0 = time.perf_counter()
                fn(self.sample)
                passes.append(time.perf_counter() - t0)
            out[name] = {"us_per_page":
                         sorted(passes)[1] / self.sample.num_rows * 1e6}
        return out

    def check(self, out_dir: str, result: dict) -> list[str]:
        problems = []
        if result["build_points"] != self.build_points:
            problems.append(f"built tier points {result['build_points']}, "
                            f"oracle {self.build_points}")
        for tier, want in self.oracle.items():
            problems += oracles.check_tier(out_dir, tier, want)
        decoded = oracles.decoded_series(result["decoded"])
        # chunks were refreshed before the sweep, so they still hold the
        # expired hours: they equal the merged 1h tier, and the stored 1h
        # tier where it was kept
        problems += oracles.check_series("chunks_1h", decoded,
                                         self.merged["1h"])
        problems += oracles.check_series(
            "chunks_1h vs stored 1h",
            decoded[decoded["bucket_us"] >= self.cutoff_us],
            oracles.read_store_tier(out_dir, "1h"))
        problems += oracles.check_features(result["features"], self.features)
        return problems


@contextmanager
def _spy(module, attr: str, seen: list):
    """Keep the first argument of every call of ``module.attr``."""
    fn = getattr(module, attr)

    def spy(first, *args, **kwargs):
        seen.append(first)
        return fn(first, *args, **kwargs)

    setattr(module, attr, spy)
    try:
        yield
    finally:
        setattr(module, attr, fn)


class LlmFunnel(Workload):
    """Docs Parquet → ``llm.run(out_dir)``: boilerplate, C4, exact dedup,
    MinHash LSH, clusters, anti-semi-join, checkpointed write."""

    name = "llm_funnel"
    layers = ("textstats.remove_boilerplate_lines", "textstats.c4_clean_batch",
              "dedup.exact_dedup", "dedup.minhash_lsh_pairs",
              "dedup.clusters_from_pairs", "checkpoint.write_partitioned")
    store_tiers = ("docs",)
    point_tiers = ("docs",)
    DOCS = 1500
    THRESHOLD = 0.7  # llm.run's default minhash_threshold

    def prepare(self, seed: int, work_dir: str) -> None:
        from forecastframe_ray import synth

        docs = synth.docs_table(self.size(self.DOCS), seed=seed)
        # between the largest duplicate class (~36) and the boilerplate
        # frequency (~docs/20), as synth.docs_dataset documents
        self.max_repeats = max(3, docs.num_rows // 40)
        self.docs_dir = os.path.join(work_dir, "docs")
        _write_parts(docs.select(["doc_id", "text"]), self.docs_dir)
        self.rows_in = docs.num_rows
        self.input_mb = _column_mb(docs, "text")
        self.oracle = oracles.FunnelOracle(docs.to_pandas(), self.max_repeats,
                                           self.THRESHOLD)

    def calls(self) -> list[Call]:
        from forecastframe_ray.pipelines import dedup as D
        from forecastframe_ray.pipelines import textstats as T
        from forecastframe_ray.stages import join
        from forecastframe_ray.state import checkpoint

        stripped = {}

        def note_boilerplate(rec, args, ds):
            _add(rec, rows_in=self.rows_in)
            _out_stats(rec, ds)
            stripped["rows"] = ds.count()

        def note_c4(rec, args):
            # the C4 map has no public function of its own: it is the step
            # between boilerplate removal and exact dedup, whose input it is
            _add(rec, rows_in=stripped.get("rows", 0))
            _out_stats(rec, args["ds"])

        def note_exact(rec, args, ds):
            _add(rec, rows_in=args["ds"].count())
            _out_stats(rec, ds)

        def note_pairs(rec, args, pairs):
            _add(rec, rows_in=args["ds"].count(), pairs=pairs.count())

        def note_anti_join(rec, args, ds):
            _add(rec, rows_in=args["ds"].count(), docs_out=ds.count())

        return [
            Call(T, "remove_boilerplate_lines",
                 "textstats.remove_boilerplate_lines", barrier=True,
                 note=note_boilerplate),
            Call(D, "exact_dedup", "dedup.exact_dedup", barrier=True,
                 note=note_exact, gap="textstats.c4_clean_batch",
                 gap_note=note_c4),
            Call(D, "minhash_lsh_pairs", "dedup.minhash_lsh_pairs",
                 barrier=True, note=note_pairs),
            Call(D, "clusters_from_pairs", "dedup.clusters_from_pairs"),
            Call(join, "broadcast_semi_join", "dedup.clusters_from_pairs",
                 barrier=True, note=note_anti_join),
            Call(checkpoint, "write_partitioned",
                 "checkpoint.write_partitioned", note=_note_write),
        ]

    def run(self, out_dir: str, tracer) -> dict:
        from forecastframe_ray.pipelines import dedup as D
        from forecastframe_ray.pipelines import llm

        pairs: list[pd.DataFrame] = []
        # the pair list the funnel clusters, kept for the check
        with _spy(D, "clusters_from_pairs", pairs):
            m = llm.run(_read(self.docs_dir), out_dir=out_dir,
                        max_repeats=self.max_repeats,
                        minhash_threshold=self.THRESHOLD,
                        num_partitions=NUM_PARTITIONS)
        self.points_out = m["docs_final"]
        return {"n_exact": m["docs_after_exact_dedup"],
                "pairs": pd.concat(pairs) if pairs
                else pd.DataFrame({"id_a": [], "id_b": []})}

    def check(self, out_dir: str, result: dict) -> list[str]:
        return (self.oracle.check_output(out_dir, result["n_exact"])
                + self.oracle.check_pairs(result["pairs"]))


WORKLOADS = {w.name: w for w in (TierCycle, LlmFunnel)}
