"""Benchmark harness (driver contract + scaling evidence).

Default mode: ray.init(num_cpus=$RAY_GRAFT_CPUS or 32), run the flagship
web-pages tier pipeline (synthetic deterministic corpus — north-star
points/sec) plus representative operator pipelines over $GRAFT_SF_DIR
(default /root/testdata/sf0.1), and print ONE JSON line:
  {"metric": ..., "value": <flagship sec>, "unit": "sec",
   "queries": {name: sec}, "sf": ..., "num_cpus": N, ...}

--scaling: run the flagship twice in FRESH processes at num_cpus=8 and 32
on the same input (sandbox proxy for N- vs 4N-node clusters) and report
both throughputs + scaling efficiency; also appends the numbers to
BENCH_SCALING.json.

--single-run N: internal child mode for --scaling (flagship only).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _init_ray(num_cpus: int):
    import ray
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from forecastframe_ray.logutil import silence_schema_hash_warning
    silence_schema_hash_warning()
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False)
    import ray.data
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    # The streaming executor's per-operator resource reservation (50% held
    # back for downstream operators) caps the hot map stage at ~40%
    # utilization in this short DAG (map -> tiny combiner shuffle): measured
    # 1h build 20.0s -> 8.5s at 8 CPUs with reservation off. Our combiner
    # pre-reduces blocks to near-nothing before the shuffle, so upstream
    # can never flood the object store - reservation buys nothing here.
    ctx.op_resource_reservation_enabled = False


def _flagship(num_pages: int, num_cpus: int) -> dict:
    """Synthetic pages → extract → keys → 1h/1d/7d tier cascade → Gorilla
    chunks → checkpointed tier store, built into a temporary directory.
    Returns the web.run metrics (incl. rolled-up points/sec)."""
    import tempfile

    from forecastframe_ray import synth
    from forecastframe_ray.pipelines import web

    pages = synth.pages_dataset(num_pages, seed=42, num_domains=2000,
                                override_num_blocks=max(16, num_cpus * 4))
    with tempfile.TemporaryDirectory() as out_dir:
        return web.run(pages, out_dir, series_keys=("host",),
                       num_partitions=num_cpus * 2, compress=True)


def _du_bytes(path: str) -> int:
    total = 0
    for root, _, files in os.walk(path, onerror=lambda e: None):
        for f in files:
            try:
                total += os.path.getsize(os.path.join(root, f))
            except OSError:
                pass
    return total


class _TmpRayPeak:
    """Samples the size of this run's Ray session directory (its logs and
    its object spill files, Ray's default spill directory) every 2 s in a
    daemon thread → peak bytes, the memory-boundedness evidence."""

    def __init__(self):
        import threading
        import ray
        self.path = ray._private.worker._global_node.get_session_dir_path()
        self.peak, self._stop = 0, threading.Event()
        self._t = threading.Thread(target=self._loop, daemon=True)
        self._t.start()

    def _loop(self):
        while not self._stop.is_set():
            self.peak = max(self.peak, _du_bytes(self.path))
            self._stop.wait(2.0)

    def stop(self) -> int:
        self._stop.set()
        self._t.join(timeout=5)
        self.peak = max(self.peak, _du_bytes(self.path))
        return self.peak


def _llm_flagship(num_docs: int, num_cpus: int, out_dir: str | None) -> dict:
    """Second flagship: boilerplate → C4 → exact dedup → MinHash near-dup →
    cluster → representatives over the deterministic synthetic docs corpus
    (parquet-backed so the boilerplate passes re-read storage, not a
    materialized Dataset). max_repeats follows the corpus contract
    (synth.docs_dataset docstring): between the max dup-class line count
    and the boilerplate pool frequency."""
    import ray.data

    from forecastframe_ray import synth
    from forecastframe_ray.pipelines import llm

    corpus = f"/tmp/llm_corpus_{num_docs}_s42"
    if not os.path.isdir(corpus) or not os.listdir(corpus):
        tmp = corpus + ".building"
        import shutil
        shutil.rmtree(tmp, ignore_errors=True)
        synth.write_docs_corpus(tmp, num_docs, seed=42,
                                num_blocks=max(16, num_cpus * 4))
        os.replace(tmp, corpus)
    docs = ray.data.read_parquet(corpus, columns=["doc_id", "text"])
    peak = _TmpRayPeak()
    metrics = llm.run(docs, out_dir=out_dir,
                      max_repeats=max(25, num_docs // 200_000),
                      num_partitions=num_cpus * 2)
    metrics["tmp_ray_peak_bytes"] = peak.stop()
    return metrics


_BENCH_QUERIES = [
    "llm_exact_funnel_documents",
    "llm_pipeline_documents",
    "tier_1h_events",
    "rolling7_daily_events",
    "gapfill_ffill_hourly_events",
    "ewma_daily_events",
    "rollup_q1_lineitem",
    "standardize_lineitem",
    "topk_orders",
    "join_orders_customer",
    "exact_dedup_documents",
    "minhash_pairs_documents",
    "simhash_pairs_documents",
    "text_analysis_documents",
    "ann_bruteforce_embeddings",
    "gorilla_roundtrip_events",
    "distinct_users_daily_cascade",
    "hopping_3h1h_events",
    "sessionize_events",
    "bloom_semi_join_orders",
    # round-4 late additions (keys are additive vs earlier BENCH_r* files)
    "ohlc_daily_events",
    "cohort_retention_events",
    "bm25_search_documents",
    "seasonal_decompose_daily",
    "shipping_priority",
    # round-5 additions
    "llm_incremental_funnel_documents",
    "gbm_cv_daily",
    "gbm_shap_daily",
]


def run_bench(sf_dir: str, num_cpus: int, num_pages: int) -> dict:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import __ray_entry__ as E

    # same-window speed probe (pure numpy, no Ray): this box's ABSOLUTE
    # throughput drifts 3-4x between hypervisor windows (BASELINE.md
    # drift-control table; good-window range 21-35 units/s single-worker).
    # Recording it beside the walls lets cross-round BENCH comparisons be
    # probe-normalized instead of misread as regressions.
    probe_1w = round(_control_run(1, 24), 1)

    t0 = time.perf_counter()
    fm = _flagship(num_pages, num_cpus)
    flagship_sec = round(time.perf_counter() - t0, 3)

    qs = E.queries()
    timings: dict[str, float] = {}
    for name in _BENCH_QUERIES:
        t0 = time.perf_counter()
        res = qs[name](sf_dir)
        # consume lazily-returned datasets so timing covers execution
        if hasattr(res, "count") and not hasattr(res, "columns"):
            res.count()
        timings[name] = round(time.perf_counter() - t0, 3)

    return {
        "metric": "flagship 1h/1d/7d tier cascade wall-clock (synthetic "
                  f"{num_pages}-page corpus) + operator pipeline timings",
        "value": flagship_sec,
        "unit": "sec",
        "queries": timings,
        "sf": sf_dir,
        "num_cpus": num_cpus,
        "flagship": fm,
        "points_per_sec": fm["points_per_sec"],
        "window_probe_units_per_sec_1w": probe_1w,
        "window_probe_good_range": [21, 35],
    }


def _one_run(n: int, pages: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--single-run", str(n),
         "--pages", str(pages)],
        capture_output=True, text=True, timeout=3600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _control_unit(_):
    """One pure-compute unit (numpy, no Ray): the box-ceiling control."""
    import numpy as np
    rng = np.random.default_rng(0)
    x = rng.standard_normal(200_000)
    s = 0.0
    for _ in range(60):
        s += float(np.log1p(np.abs(x)).sum())
    return s


def _control_run(workers: int, total_units: int = 96) -> float:
    """units/sec of a fixed pure-numpy workload on a multiprocessing.Pool —
    measures what THIS BOX can scale, independent of Ray or the engine. Run
    in the same window as an engine pair so hypervisor drift hits both."""
    from multiprocessing import get_context

    t0 = time.perf_counter()
    with get_context("spawn").Pool(workers) as p:
        p.map(_control_unit, range(total_units))
    return total_units / (time.perf_counter() - t0)


def run_scaling(num_pages: int, levels=(8, 32), repeats: int = 2,
                weak: bool = False) -> dict:
    """Flagship job in fresh processes at num_cpus=N vs 4N → efficiency.

    Strong mode: identical input at both levels; efficiency =
    (pps_hi/pps_lo)/(hi/lo). Weak mode (Gustafson — the operative measure
    for a fixed-size-per-node cluster): input scales with CPUs
    (pages_lo = num_pages·lo/hi); efficiency = wall_lo/wall_hi (ideal
    scaled speedup keeps wall constant). Best-of-``repeats`` per level
    damps hypervisor noise (runs vary ±30% on this box).
    """
    lo, hi = levels
    pages = {lo: num_pages * lo // hi if weak else num_pages, hi: num_pages}
    # INTERLEAVED, ORDER-BALANCED pairs: each efficiency sample comes from
    # one (lo, hi) pair run back-to-back so slow hypervisor drift mostly
    # cancels within the pair — and successive pairs ALTERNATE which level
    # runs first, because this box drifts monotonically under sustained load
    # (BASELINE.md control rows): always running lo first puts hi in the
    # slower later window and systematically understates efficiency (the
    # reverse order overstates it). The headline is the MEAN of the balanced
    # samples; every sample + its order is recorded.
    pairs, control_effs = [], []
    for rep in range(repeats):
        order = (lo, hi) if rep % 2 == 0 else (hi, lo)
        runs = {n: _one_run(n, pages[n]) for n in order}
        r_lo, r_hi = runs[lo], runs[hi]
        if weak:
            e = r_lo["wall_s"] / r_hi["wall_s"]
        else:
            e = (r_hi["points_per_sec"] / r_lo["points_per_sec"]) / (hi / lo)
        pairs.append((round(e, 3), f"{order[0]}-first", r_lo, r_hi))
        # same-window box-ceiling control (pure numpy, no Ray)
        c = {n: _control_run(n) for n in order}
        control_effs.append(round((c[hi] / c[lo]) / (hi / lo), 3))
    eff = sum(p[0] for p in pairs) / len(pairs)
    _, _, last_lo, last_hi = pairs[-1]
    tp_lo = round(sum(p[2]["points_per_sec"] for p in pairs) / len(pairs), 1)
    tp_hi = round(sum(p[3]["points_per_sec"] for p in pairs) / len(pairs), 1)
    result = {
        "metric": (f"flagship at num_cpus={lo} vs {hi} (fresh processes; "
                   + ("weak scaling: input ∝ CPUs, eff=wall_lo/wall_hi"
                      if weak else "strong scaling: same input")
                   + "; sandbox proxy for N vs 4N nodes)"),
        "mode": "weak" if weak else "strong",
        "num_pages_lo": pages[lo],
        "num_pages_hi": pages[hi],
        "num_cpus_lo": lo,
        "num_cpus_hi": hi,
        f"points_per_sec_{lo}": tp_lo,
        f"points_per_sec_{hi}": tp_hi,
        f"wall_s_{lo}": last_lo["wall_s"],
        f"wall_s_{hi}": last_hi["wall_s"],
        "scaling_efficiency": round(eff, 3),
        "efficiency_samples": [p[0] for p in pairs],
        "sample_orders": [p[1] for p in pairs],
        "control_efficiency_samples": control_effs,
        "control_efficiency": round(sum(control_effs) / len(control_effs), 3)
        if control_effs else None,
        "protocol": ("interleaved order-balanced pairs; headline = mean; "
                     "control = same-window multiprocessing numpy burn "
                     "(box ceiling, no Ray)"),
        "unit": "points/sec",
    }
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "BENCH_SCALING.json"), "w") as f:
        json.dump(result, f, indent=2)
    return result


def _one_llm_run(n: int, docs: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--llm-single-run",
         str(n), "--docs", str(docs)],
        capture_output=True, text=True, timeout=3600,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_llm_scaling(num_docs: int, levels=(2, 8), repeats: int = 2,
                    weak: bool = False) -> dict:
    """Second-flagship (LLM dedup funnel) scaling: fresh processes at
    num_cpus=N vs 4N, the same interleaved order-balanced pair protocol +
    same-window pure-numpy control as :func:`run_scaling`.

    Strong mode: same corpus at both levels; efficiency per pair =
    (docs_per_sec_hi / docs_per_sec_lo) / (hi / lo). Weak mode (Gustafson
    — the operative measure for a fixed-data-per-node cluster): corpus
    scales with CPUs (docs_lo = num_docs·lo/hi); efficiency =
    wall_lo / wall_hi. Results land in BENCH_SCALING_LLM.json."""
    lo, hi = levels
    docs = {lo: num_docs * lo // hi if weak else num_docs, hi: num_docs}
    # build the corpora once, untimed, in throwaway children (children
    # then only read parquet — builds stay out of every timed window)
    for d in sorted(set(docs.values())):
        subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--llm-prepare",
             "--docs", str(d)],
            capture_output=True, text=True, timeout=3600, check=True)
    pairs, control_effs = [], []
    for rep in range(repeats):
        order = (lo, hi) if rep % 2 == 0 else (hi, lo)
        runs = {n: _one_llm_run(n, docs[n]) for n in order}
        r_lo, r_hi = runs[lo], runs[hi]
        if weak:
            e = r_lo["wall_s"] / r_hi["wall_s"]
        else:
            e = (r_hi["docs_per_sec"] / r_lo["docs_per_sec"]) / (hi / lo)
        pairs.append((round(e, 3), f"{order[0]}-first", r_lo, r_hi))
        c = {n: _control_run(n) for n in order}
        control_effs.append(round((c[hi] / c[lo]) / (hi / lo), 3))
    eff = sum(p[0] for p in pairs) / len(pairs)
    tp_lo = round(sum(p[2]["docs_per_sec"] for p in pairs) / len(pairs), 1)
    tp_hi = round(sum(p[3]["docs_per_sec"] for p in pairs) / len(pairs), 1)
    result = {
        "metric": (f"LLM dedup funnel at num_cpus={lo} vs {hi} (fresh "
                   "processes; "
                   + ("weak scaling: corpus ∝ CPUs, eff=wall_lo/wall_hi"
                      if weak else "strong scaling: same corpus")
                   + "; sandbox proxy for N vs 4N nodes)"),
        "mode": "weak" if weak else "strong",
        "num_docs_lo": docs[lo],
        "num_docs_hi": docs[hi],
        "num_docs": num_docs,
        "num_cpus_lo": lo,
        "num_cpus_hi": hi,
        f"docs_per_sec_{lo}": tp_lo,
        f"docs_per_sec_{hi}": tp_hi,
        f"wall_s_{lo}": pairs[-1][2]["wall_s"],
        f"wall_s_{hi}": pairs[-1][3]["wall_s"],
        "scaling_efficiency": round(eff, 3),
        "efficiency_samples": [p[0] for p in pairs],
        "sample_orders": [p[1] for p in pairs],
        "sample_walls": [[p[2]["wall_s"], p[3]["wall_s"]] for p in pairs],
        "sample_stage_walls": [[p[2].get("stage_wall_s"),
                                p[3].get("stage_wall_s")] for p in pairs],
        "control_efficiency_samples": control_effs,
        "control_efficiency": round(sum(control_effs) / len(control_effs), 3)
        if control_effs else None,
        "protocol": ("interleaved order-balanced pairs; headline = mean; "
                     "control = same-window multiprocessing numpy burn "
                     "(box ceiling, no Ray)"),
        "unit": "docs/sec",
    }
    fname = "BENCH_SCALING_LLM_WEAK.json" if weak \
        else "BENCH_SCALING_LLM.json"
    with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           fname), "w") as f:
        json.dump(result, f, indent=2)
    return result


def main():
    args = sys.argv[1:]
    if "--probe" in args:
        # window probe (no Ray): absolute units/s vs the 21-35 good-window
        # range recorded in BASELINE.md, plus the 1->8 parallel headroom.
        # Interleaved scaling pairs stay valid in slow windows; absolute
        # wall comparisons across windows do not.
        u1, u8 = _control_run(1, 24), _control_run(8, 96)
        print(json.dumps({"units_per_sec_1w": round(u1, 1),
                          "units_per_sec_8w": round(u8, 1),
                          "parallel_efficiency_1_to_8": round(u8 / u1 / 8, 3)}))
        return

    if "--single-run" in args:
        n = int(args[args.index("--single-run") + 1])
        num_pages = int(args[args.index("--pages") + 1]) if "--pages" in args else 300_000
        _init_ray(n)
        t0 = time.perf_counter()
        fm = _flagship(num_pages, n)
        fm["wall_s"] = round(time.perf_counter() - t0, 3)
        fm["points_per_sec"] = round(fm["total_points"] / fm["wall_s"], 1)
        print(json.dumps(fm))
        import ray
        ray.shutdown()
        return

    if "--llm-prepare" in args:
        num_docs = int(args[args.index("--docs") + 1])
        _init_ray(8)
        corpus = f"/tmp/llm_corpus_{num_docs}_s42"
        if not os.path.isdir(corpus) or not os.listdir(corpus):
            import shutil

            from forecastframe_ray import synth
            tmp = corpus + ".building"
            shutil.rmtree(tmp, ignore_errors=True)
            synth.write_docs_corpus(tmp, num_docs, seed=42, num_blocks=32)
            os.replace(tmp, corpus)
        print(json.dumps({"prepared": corpus}))
        import ray
        ray.shutdown()
        return

    if "--llm-single-run" in args:
        n = int(args[args.index("--llm-single-run") + 1])
        num_docs = int(args[args.index("--docs") + 1])
        _init_ray(n)
        t0 = time.perf_counter()
        m = _llm_flagship(num_docs, n, None)
        m["wall_s"] = round(time.perf_counter() - t0, 3)
        m["docs_per_sec"] = round(m["docs_in"] / m["wall_s"], 1)
        print(json.dumps(m))
        import ray
        ray.shutdown()
        return

    if "--llm-scaling" in args:
        num_docs = int(args[args.index("--docs") + 1]) if "--docs" in args \
            else 100_000
        levels = (2, 8)
        if "--levels" in args:
            levels = tuple(int(x)
                           for x in args[args.index("--levels") + 1].split(","))
        repeats = int(args[args.index("--repeats") + 1]) \
            if "--repeats" in args else 2
        print(json.dumps(run_llm_scaling(num_docs, levels, repeats,
                                         weak="--weak" in args)))
        return

    if "--llm-flagship" in args:
        num_docs = int(args[args.index("--docs") + 1]) if "--docs" in args \
            else 1_000_000
        num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
        out_dir = None
        if "--out" in args:
            out_dir = args[args.index("--out") + 1]
        _init_ray(num_cpus)
        m = _llm_flagship(num_docs, num_cpus, out_dir)
        m["metric"] = "LLM-pipeline flagship (boilerplate->C4->exact dedup->" \
                      "minhash->cluster->reps) docs/sec"
        m["num_cpus"] = num_cpus
        print(json.dumps(m))
        import ray
        ray.shutdown()
        return

    if "--llm-incremental" in args:
        # Incremental corpus maintenance vs full rebuild (round-5 flagship
        # capability, pipelines/llm_incremental.py): build the probe index
        # on 90% of a boilerplate-stripped corpus, append the last 10% as
        # a shard, and compare the append wall against rebuilding the
        # index over 100% from scratch. Equality of the two final corpora
        # is asserted (the incremental == full-rebuild invariant at bench
        # scale). Boilerplate is stripped upstream once — the corpus-
        # frequency pass is outside the incremental contract by design
        # (module docstring); without it the synth corpus's shared
        # boilerplate lines make every doc LSH-collide and the probe
        # degenerates to the whole corpus.
        import shutil

        num_docs = int(args[args.index("--docs") + 1]) if "--docs" in args \
            else 400_000
        num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
        _init_ray(num_cpus)
        import pandas as pd
        import ray
        import ray.data

        from forecastframe_ray import synth
        from forecastframe_ray.pipelines import llm_incremental as LI
        from forecastframe_ray.pipelines import textstats as T

        # corpus shape: "diverse" (default) = content-diverse docs where
        # LSH collisions track TRUE duplicates (the fair maintenance-cost
        # measurement); "template" = the template-saturated docs_dataset
        # corpus whose corpus-wide collisions deliberately degenerate the
        # probe (measured and recorded in BASELINE.md as the
        # collision-bound case)
        shape = args[args.index("--corpus") + 1] if "--corpus" in args \
            else "diverse"
        if shape == "diverse":
            clean_dir = f"/tmp/llm_div_corpus_{num_docs}"
            if not os.path.isdir(clean_dir) or not os.listdir(clean_dir):
                tmp = clean_dir + ".building"
                shutil.rmtree(tmp, ignore_errors=True)
                synth.diverse_docs_dataset(
                    num_docs, override_num_blocks=32).write_parquet(tmp)
                os.replace(tmp, clean_dir)
        else:
            corpus = f"/tmp/llm_corpus_{num_docs}_s42"
            if not os.path.isdir(corpus) or not os.listdir(corpus):
                tmp = corpus + ".building"
                shutil.rmtree(tmp, ignore_errors=True)
                synth.write_docs_corpus(tmp, num_docs, seed=42,
                                        num_blocks=32)
                os.replace(tmp, corpus)
            clean_dir = corpus + "_stripped"
            if not os.path.isdir(clean_dir) or not os.listdir(clean_dir):
                docs = ray.data.read_parquet(corpus,
                                             columns=["doc_id", "text"])
                tmp = clean_dir + ".building"
                shutil.rmtree(tmp, ignore_errors=True)
                T.remove_boilerplate_lines(
                    docs, max_repeats=max(3, num_docs // 50)) \
                    .write_parquet(tmp)
                os.replace(tmp, clean_dir)

        n_shards = int(args[args.index("--shards") + 1]) \
            if "--shards" in args else 1
        docs = ray.data.read_parquet(clean_dir, columns=["doc_id", "text"])

        def id_range(lo, hi):
            return docs.map_batches(
                lambda b, lo=lo, hi=hi: b[
                    (b["doc_id"].to_numpy() >= lo)
                    & (b["doc_id"].to_numpy() < hi)],
                batch_format="pandas")

        kw = dict(minhash_threshold=0.7, min_words_per_line=3,
                  require_terminal=False, num_partitions=32)

        full_dir, inc_dir = "/tmp/llm_incr_full", "/tmp/llm_incr_inc"
        shutil.rmtree(full_dir, ignore_errors=True)
        shutil.rmtree(inc_dir, ignore_errors=True)
        t0 = time.perf_counter()
        LI.build_index(docs, full_dir, **kw)
        wall_full = time.perf_counter() - t0

        # base = first (1 − n_shards·10%) of ids, then n_shards 10%
        # appends — per-append walls expose whether cost stays
        # shard-priced as the index grows
        shard_w = num_docs // 10
        cut = num_docs - n_shards * shard_w
        LI.build_index(id_range(0, cut), inc_dir, **kw)
        append_walls, probed = [], []
        for k in range(n_shards):
            lo = cut + k * shard_w
            t0 = time.perf_counter()
            m = LI.append_shard(id_range(lo, lo + shard_w), inc_dir)
            append_walls.append(round(time.perf_counter() - t0, 3))
            probed.append(m["old_docs_probed"])
        compact_s = None
        if "--compact" in args:
            cdir = inc_dir + "_compacted"
            shutil.rmtree(cdir, ignore_errors=True)
            t0 = time.perf_counter()
            LI.compact_index(inc_dir, cdir)
            compact_s = round(time.perf_counter() - t0, 3)
            inc_dir = cdir

        fc, ic = LI.final_corpus(full_dir), LI.final_corpus(inc_dir)
        full_n, inc_n = fc.count(), ic.count()
        # surviving-id-set equality (texts are id-determined): count + sum
        equal = full_n == inc_n and fc.sum("doc_id") == ic.sum("doc_id")
        print(json.dumps({
            "metric": "incremental appends (10% shards) vs full index "
                      "rebuild",
            "corpus_shape": shape, "num_docs": num_docs,
            "shard_docs": shard_w, "n_shards": n_shards,
            "wall_full_rebuild_s": round(wall_full, 3),
            "wall_append_s": append_walls,
            "append_speedup": round(
                wall_full / (sum(append_walls) / len(append_walls)), 2),
            "old_docs_probed": probed, "compact_s": compact_s,
            "corpora_equal": bool(equal),
            "final_docs": int(full_n), "num_cpus": num_cpus}))
        ray.shutdown()
        return

    if "--ann-bench" in args:
        # persisted ANN index at scale: build on N synthetic vectors,
        # append a 10% shard (O(shard) delta files), then compare probed
        # search (opens nprobe/num_centroids of the files) against the
        # full-probe exact scan — the "prune at the read" evidence.
        import shutil

        import numpy as np
        import pandas as pd
        import ray
        import ray.data

        from forecastframe_ray.pipelines import ann_index as AI

        num_vecs = int(args[args.index("--vecs") + 1]) \
            if "--vecs" in args else 2_000_000
        dim, kc = 64, 64
        num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
        _init_ray(num_cpus)

        # clustered mixture (512 gaussian clusters, σ=0.05 around unit
        # centers) — the workload IVF exists for; i.i.d. gaussian vectors
        # have no neighborhood structure and IVF recall is meaningless on
        # them (measured 0.28 before this corpus)
        n_clusters = 512
        vec_dir = f"/tmp/ann_vecs_{num_vecs}_{dim}c"
        if not os.path.isdir(vec_dir) or not os.listdir(vec_dir):
            centers_rng = np.random.default_rng(99)
            centers = centers_rng.standard_normal((n_clusters, dim))
            centers /= np.linalg.norm(centers, axis=1, keepdims=True)

            def gen(batch: dict) -> pd.DataFrame:
                ids = np.asarray(batch["id"], dtype=np.int64)
                rng = np.random.default_rng(int(ids[0]) + 17)
                M = centers[ids % n_clusters] \
                    + 0.05 * rng.standard_normal((len(ids), dim))
                return pd.DataFrame({"vec_id": ids,
                                     "embedding": list(M)})
            tmp = vec_dir + ".building"
            shutil.rmtree(tmp, ignore_errors=True)
            ray.data.range(num_vecs, override_num_blocks=64) \
                .map_batches(gen, batch_format="numpy", batch_size=32_768) \
                .write_parquet(tmp)
            os.replace(tmp, vec_dir)

        vecs = ray.data.read_parquet(vec_dir)
        cut = int(num_vecs * 0.9)
        base = vecs.map_batches(
            lambda b: b[b["vec_id"].to_numpy() < cut],
            batch_format="pandas")
        shard = vecs.map_batches(
            lambda b: b[b["vec_id"].to_numpy() >= cut],
            batch_format="pandas")

        idx = "/tmp/ann_idx_bench"
        shutil.rmtree(idx, ignore_errors=True)
        t0 = time.perf_counter()
        AI.build_ann_index(base, idx, num_centroids=kc)
        build_s = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        AI.append_ann(shard, idx)
        append_s = round(time.perf_counter() - t0, 3)

        centers_rng = np.random.default_rng(99)
        centers = centers_rng.standard_normal((n_clusters, dim))
        centers /= np.linalg.norm(centers, axis=1, keepdims=True)
        rng = np.random.default_rng(3)
        q = centers[rng.integers(0, n_clusters, 8)] \
            + 0.02 * rng.standard_normal((8, dim))
        t0 = time.perf_counter()
        probed = AI.search_ann(idx, q, k=10, nprobe=4)
        probed_s = round(time.perf_counter() - t0, 3)
        t0 = time.perf_counter()
        full = AI.search_ann(idx, q, k=10, nprobe=kc)
        full_s = round(time.perf_counter() - t0, 3)
        got = set(zip(probed["query_ix"].astype(int), probed["vec_id"]))
        want = set(zip(full["query_ix"].astype(int), full["vec_id"]))
        print(json.dumps({
            "metric": "persisted ANN index: probe-pruned search vs full "
                      "scan", "num_vecs": num_vecs, "dim": dim,
            "num_centroids": kc, "nprobe": 4,
            "build_s": build_s, "append_10pct_s": append_s,
            "search_probed_s": probed_s, "search_full_s": full_s,
            "probe_speedup": round(full_s / probed_s, 2),
            "files_total": len(os.listdir(
                os.path.join(idx, "tier=vectors"))),
            "recall_at_10": round(len(got & want) / max(len(want), 1), 3),
            "num_cpus": num_cpus}))
        ray.shutdown()
        return

    if "--scaling" in args:
        num_pages = int(args[args.index("--pages") + 1]) if "--pages" in args else 2_400_000
        levels = (8, 32)
        if "--levels" in args:
            levels = tuple(int(x) for x in args[args.index("--levels") + 1].split(","))
        weak = "--weak" in args
        repeats = int(args[args.index("--repeats") + 1]) if "--repeats" in args else 2
        print(json.dumps(run_scaling(num_pages, levels, repeats, weak)))
        return

    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    num_pages = int(os.environ.get("GRAFT_BENCH_PAGES", "300000"))
    _init_ray(num_cpus)
    result = run_bench(sf_dir, num_cpus, num_pages)
    print(json.dumps(result))
    import ray
    ray.shutdown()


if __name__ == "__main__":
    main()
