"""Self-test of the benchmark: every workload untraced and traced at a tenth
of its size, then once more with its output corrupted, and the LLM funnel
once more with its near-duplicate stage finding nothing.

    python3 perfbench/selftest.py

Asserts that each run emits every metric of ``BENCHMARK.json`` with its
unit, that clean runs pass their oracle checks, that each traced run
records its workload's layers and Ray Data tasks and shuffles, that traced
and untraced runs store identical outputs through the same shuffles, and
that a corrupted output or an empty near-duplicate pair list is counted as
a failed run. Exits non-zero on the first broken assertion."""

from __future__ import annotations

import glob
import math
import os
import shutil
import sys
from contextlib import contextmanager

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, ROOT)

import pyarrow as pa  # noqa: E402
import pyarrow.parquet as pq  # noqa: E402

from perfbench import run as bench  # noqa: E402
from perfbench.harness import process_tree  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SCALE = 0.1
SEED = 7


def corrupt_output(out_dir: str) -> None:
    """Change one value in the first stored 1h (or docs) file."""
    path = sorted(glob.glob(os.path.join(out_dir, "tier=1h", "*.parquet"))
                  or glob.glob(os.path.join(out_dir, "tier=docs", "*.parquet")))[0]
    table = pq.read_table(path)
    col = "pages" if "pages" in table.column_names else "text"
    values = table[col].to_pylist()
    values[0] = values[0] + (1 if col == "pages" else "!")
    table = table.set_column(table.column_names.index(col), col,
                             pa.array(values, type=table[col].type))
    pq.write_table(table, path)


@contextmanager
def empty_pairs():
    """MinHash LSH returns no pairs, as if the near-dup stage were skipped."""
    from forecastframe_ray.pipelines import dedup as D

    fn = D.minhash_lsh_pairs
    D.minhash_lsh_pairs = lambda *a, **kw: fn(*a, **kw).limit(0)
    try:
        yield
    finally:
        D.minhash_lsh_pairs = fn


def run_once(name: str, trace: bool, corrupt=None):
    work = os.path.join(ROOT, ".bench_run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        return bench.measure(name, SEED, 1.0, trace, work, scale=SCALE,
                             corrupt=corrupt)
    finally:
        bench.stop_ray()
        shutil.rmtree(work, ignore_errors=True)
        assert process_tree() == [os.getpid()], \
            (name, "processes outlived the run", process_tree())


def check_shape(result: dict, names: list[dict], label: str) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["attempted"] >= 1, label
    got = result["metrics"]
    assert list(got) == [m["name"] for m in names], (label, sorted(got))
    for m in names:
        v = got[m["name"]]
        assert v["unit"] == m["unit"], (label, m["name"])
        assert isinstance(v["value"], (int, float)) \
            and math.isfinite(v["value"]), (label, m["name"], v)


def main() -> int:
    bench.become_subreaper()
    spec = bench.load_spec()
    for name, cls in WORKLOADS.items():
        result, ctx = run_once(name, trace=False)
        check_shape(result, spec["end_to_end"], f"{name} untraced")
        assert result["correct"] and result["failed"] == 0, \
            (name, ctx["failures"])
        assert all(result["metrics"][m["name"]]["value"] > 0
                   for m in spec["end_to_end"]), (name, result["metrics"])

        result, ctx = run_once(name, trace=True)
        check_shape(result, spec["per_layer"], f"{name} traced")
        assert result["correct"], (name, ctx["failures"])
        metrics = result["metrics"]
        for layer in cls.layers:
            assert metrics[f"{layer}.wall_s"]["value"] > 0, (name, layer)
        assert metrics["trace.overhead_ratio"]["value"] > 0, name
        assert 0.9 <= metrics["trace.coverage"]["value"] <= 1.1, \
            (name, metrics["trace.coverage"])
        assert metrics["ray_data.tasks"]["value"] > 0, name
        assert metrics["ray_data.shuffles"]["value"] > 0, name
        # the barriers split fused map stages (more tasks), but the traced
        # run is the program's own code path: same shuffles, same output
        shuffles = {s for _, s in ctx["ray_data_tasks_shuffles"]
                    + ctx["traced_ray_data_tasks_shuffles"]}
        assert len(shuffles) == 1, (name, ctx["ray_data_tasks_shuffles"],
                                    ctx["traced_ray_data_tasks_shuffles"])
        assert len(ctx["output_digests"]) == 1 and \
            ctx["traced_output_digests"] == ctx["output_digests"], \
            (name, ctx["output_digests"], ctx["traced_output_digests"])

        result, ctx = run_once(name, trace=False, corrupt=corrupt_output)
        assert result["failed"] > 0 and not result["correct"], name
        assert ctx["fail_ratio"] > 0, name
        print(f"{name}: ok ({ctx['failures'][0]})")

    with empty_pairs():
        result, ctx = run_once("llm_funnel", trace=False)
    assert not result["correct"] and ctx["fail_ratio"] > 0
    assert any("near-dup" in f for f in ctx["failures"]), ctx["failures"]
    print(f"llm_funnel without pairs: ok ({ctx['failures'][0]})")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
