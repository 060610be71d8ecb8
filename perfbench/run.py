"""Benchmark of the rollup engine: batch workloads driven through the
engine's public pipeline functions, one client in a closed loop.

    python3 perfbench/run.py --workload tier_cycle --seed 1 --seconds 20 --trace 0

Run from the repository root (any working directory works; every file the
run writes goes under ``.bench_run/`` at the root). The last line of
standard output is the result, ``{"correct", "attempted", "failed",
"metrics"}``; the line before it is the run's context (machine speed probe,
CPU counts, commit, seed, per-run wall and CPU times, fail ratio, ERROR log
lines).
``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``,
``--trace 1`` the per-layer ones. See ``perfbench/README.md``."""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")

#: set-up repetitions whose median is ``setup_s``
SETUP_REPS = 3
#: timed runs per window at least: a 20 s window holds 2-3 runs of
#: ``tier_cycle`` and 3-4 of ``llm_funnel``. Three make the median reject
#: one run slowed by the host; a traced invocation times two of each kind
#: to stay short
MIN_RUNS = 3
MIN_RUNS_TRACED = 2
#: the process must end well inside 180 s: no timed iteration starts this
#: long after it began, and one that outlives ITERATION_LIMIT_S fails
LAST_START_S = 100.0
ITERATION_LIMIT_S = 60.0
#: Unix socket paths (Ray puts its sockets under the temp dir) are limited
#: to 107 bytes; Ray appends up to 64 to the temp dir
_MAX_RAY_TMP = 40


class IterationTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise IterationTimeout("iteration exceeded its time limit")


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def nproc() -> int:
    """The CPU count ``nproc`` prints: it honours ``OMP_NUM_THREADS``, so a
    machine that limits threads that way gets the same Ray size as its shell."""
    try:
        out = subprocess.run(["nproc"], capture_output=True, text=True,
                             timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.TimeoutExpired):
        return len(os.sched_getaffinity(0))


def _ray_tmp(work: str) -> str:
    """Ray's temp dir inside the checkout. Ray wants an absolute path; when
    the real one would overflow the socket-path limit, the same directory is
    named through this process's working directory in ``/proc``, which every
    Ray process can resolve while this process lives."""
    path = os.path.join(work, "ray")
    if len(path) <= _MAX_RAY_TMP:
        return path
    alias = os.path.join(f"/proc/{os.getpid()}/cwd",
                         os.path.relpath(path, os.getcwd()))
    if len(alias) > _MAX_RAY_TMP:
        raise RuntimeError(f"no short enough path for Ray's temp dir {path}")
    return alias


def start_ray(work: str) -> tuple[int, str]:
    import ray
    import ray.data

    from forecastframe_ray.logutil import silence_schema_hash_warning

    silence_schema_hash_warning()
    num_cpus = nproc()
    # workers import the engine and these benchmark modules by name
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep)
                  if p])
    tmp = _ray_tmp(work)
    ray.init(address="local", num_cpus=num_cpus, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False,
             object_store_memory=512 * 1024 ** 2, _temp_dir=tmp)
    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    # as bench.py: the reservation holds back half the CPUs from the hot
    # map stage of these short combiner-reduced DAGs
    ctx.op_resource_reservation_enabled = False
    return num_cpus, tmp


def become_subreaper() -> None:
    """Make this process the reaper of its orphaned descendants. A Ray
    worker whose raylet exits first (one being spawned while Ray shuts down,
    say) is then re-parented to this process instead of to init, so
    ``stop_ray`` still sees it and waits for it."""
    import ctypes

    pr_set_child_subreaper = 36
    libc = ctypes.CDLL(None, use_errno=True)
    if libc.prctl(pr_set_child_subreaper, 1, 0, 0, 0) != 0:
        raise OSError(ctypes.get_errno(), "prctl(PR_SET_CHILD_SUBREAPER)")


def _reap_children() -> None:
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid == 0:
            return


def wait_for_descendants(grace_s: float = 15.0) -> None:
    """Wait until every descendant of this process has ended, reaping each.
    What is still alive after ``grace_s`` is killed, and waited for too."""
    from perfbench.harness import process_tree

    deadline = time.monotonic() + grace_s
    killed = False
    while True:
        _reap_children()
        rest = [p for p in process_tree() if p != os.getpid()]
        if not rest:
            return
        if time.monotonic() > deadline:
            if killed:
                print(f"processes {rest} outlived SIGKILL", file=sys.stderr)
                return
            for pid in rest:
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
            killed = True
            deadline = time.monotonic() + 10
        time.sleep(0.1)


def stop_ray() -> None:
    """Shut Ray down and wait until every process it started has ended."""
    import ray

    try:
        ray.shutdown()
    finally:
        wait_for_descendants()


def load_spec() -> dict:
    with open(SPEC) as f:
        return json.load(f)


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _finite(x: float) -> float:
    """Metrics of a run that produced no timing (every run failed) read 0;
    ``correct`` is false then."""
    return x if math.isfinite(x) else 0.0


def measure(workload: str, seed: int, seconds: float, trace: bool,
            work: str, scale: float = 1.0, corrupt=None) -> tuple[dict, dict]:
    """One benchmark run in this process. Returns ``(result, context)``.

    ``scale`` shrinks the inputs (the self-test uses it); ``corrupt(out_dir)``
    damages each run's output before it is checked (self-test only)."""
    from perfbench import harness, oracles
    from perfbench.workloads import WORKLOADS

    t_process = time.monotonic()
    spec = load_spec()
    probe = harness.probe_units_per_s()

    t0 = time.perf_counter()
    num_cpus, ray_tmp = start_ray(work)
    ray_start_s = time.perf_counter() - t0

    session_dir = os.path.realpath(os.path.join(ray_tmp, "session_latest"))
    wl = WORKLOADS[workload](scale)
    rep_s = []
    for i in range(1 if trace else SETUP_REPS):
        d = os.path.join(work, f"setup{i}")
        shutil.rmtree(d, ignore_errors=True)
        t0 = time.perf_counter()
        wl.prepare(seed, d)
        rep_s.append(time.perf_counter() - t0)

    out_dir = os.path.join(work, "out")
    counter = harness.RayDataCounter(session_dir)
    sampler = harness.PeakSampler(ray_tmp)

    def program_cpu_s() -> float:
        return harness.tree_cpu_s() - sampler.cpu_s()

    failures: list[str] = []
    stats = {"attempted": 0, "failed": 0}

    def iterate(tracer=None) -> dict | None:
        """One run from an empty output directory: time, check. Returns its
        record, or None when no further run should start (it raised or
        timed out)."""
        stats["attempted"] += 1
        tracer = tracer or harness.NullTracer()
        shutil.rmtree(out_dir, ignore_errors=True)
        gc.collect()  # the previous run's garbage is not this run's cost
        before = counter.snapshot()
        calls = wl.calls() if tracer else []
        signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, ITERATION_LIMIT_S)
        c_start = program_cpu_s()
        t_start = time.perf_counter()
        try:
            with tracer.wrapped(calls):
                res = wl.run(out_dir, tracer)
            wall = time.perf_counter() - t_start
            cpu = program_cpu_s() - c_start
            signal.setitimer(signal.ITIMER_REAL, 0)
            if corrupt is not None:
                corrupt(out_dir)
            problems = wl.check(out_dir, res)
        except Exception as e:  # noqa: BLE001 - a failed run is counted
            signal.setitimer(signal.ITIMER_REAL, 0)
            stats["failed"] += 1
            failures.append(f"{type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return None
        if problems:
            stats["failed"] += 1
            failures.extend(problems)
        after = counter.snapshot()
        store_bytes, points = wl.store(out_dir)
        r = {"wall_s": wall, "cpu_s": cpu,
             "store_bytes": store_bytes, "points": points,
             "ray_data": (after[0] - before[0], after[1] - before[1]),
             "digest": oracles.output_digest(out_dir)}
        if tracer:
            # the tracer's reads of each layer's extras are not the program's
            r["wall_s"] -= tracer.bookkeeping_s
            r["layers"] = tracer.finish()
        return r

    def loop(budget_s: float, min_runs: int,
             tracer_factory=None) -> list[dict]:
        """Starts runs while less than ``budget_s`` has passed, and until
        there are ``min_runs``."""
        runs = []
        t_loop = time.monotonic()
        while len(runs) < min_runs or time.monotonic() - t_loop < budget_s:
            if time.monotonic() - t_process > LAST_START_S:
                break
            r = iterate(tracer_factory() if tracer_factory else None)
            if r is None:
                break
            runs.append(r)
        return runs

    with sampler, counter.attached():
        # the first run of a session pays worker start-up and the first
        # execution of every code path: it is checked but not timed
        t0 = time.perf_counter()
        warmed = iterate() is not None
        warm_s = time.perf_counter() - t0
        runs, traced = [], []
        if warmed:
            sampler.reset()
            runs = (loop(seconds / 2, MIN_RUNS_TRACED) if trace
                    else loop(seconds, MIN_RUNS))
            peaks = sampler.peaks()
            if trace and runs:
                sampler.reset()
                traced = loop(seconds / 2, MIN_RUNS_TRACED,
                              lambda: harness.Tracer(num_cpus, program_cpu_s))
                peaks = sampler.peaks()
        else:
            peaks = sampler.peaks()
    kernels = wl.kernel_samples() if trace and traced else {}

    error_lines = harness.count_error_lines(session_dir)
    walls = [r["wall_s"] for r in runs]
    wall = _median(walls)
    cpu = _median([r["cpu_s"] for r in runs])
    context = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "cpus_visible": len(os.sched_getaffinity(0)),
        "ray_num_cpus": num_cpus, "commit": _git_commit(),
        "probe_units_per_s": probe, "ray_start_s": ray_start_s,
        "setup_reps_s": rep_s, "warmup_s": warm_s,
        "wall_s": wall, "walls_s": walls, "cpus_s": [r["cpu_s"] for r in runs],
        "traced_walls_s": [r["wall_s"] for r in traced],
        "fail_ratio": stats["failed"] / max(1, stats["attempted"]),
        "error_log_lines": error_lines, "failures": failures[:20],
        "rows_in": wl.rows_in, "input_mb": wl.input_mb,
        "points_out": wl.points_out,
        "peak_ray_tmp_mb": peaks["tmp_mb"], "peak_spilled_mb": peaks["spill_mb"],
        "ray_data_tasks_shuffles": [r["ray_data"] for r in runs],
        "traced_ray_data_tasks_shuffles": [r["ray_data"] for r in traced],
        "output_digests": sorted({r["digest"] for r in runs}),
        "traced_output_digests": sorted({r["digest"] for r in traced}),
    }
    if trace:
        metrics = _layer_metrics(traced, wall)
        for layer, rec in kernels.items():
            metrics.update({f"{layer}.{k}": v for k, v in rec.items()})
        metrics["ray_data.spilled_mb"] = peaks["spill_mb"]
        names = spec["per_layer"]
    else:
        metrics = {
            "cpu_s": cpu,
            "rows_per_cpu_s": wl.rows_in / cpu,
            "input_mb_per_cpu_s": wl.input_mb / cpu,
            "points_per_cpu_s": wl.points_out / cpu,
            "store_bytes_per_point": _median(
                [r["store_bytes"] / max(1, r["points"]) for r in runs]),
            "peak_rss_mb": peaks["rss_mb"],
            "setup_s": ray_start_s + _median(rep_s),
        }
        names = spec["end_to_end"]
    unknown = set(metrics) - {m["name"] for m in names}
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    result = {
        "correct": stats["failed"] == 0 and bool(runs),
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "metrics": {m["name"]: {"value": _finite(metrics.get(m["name"], 0.0)),
                                "unit": m["unit"]} for m in names},
    }
    return result, context


def _layer_metrics(traced: list[dict],
                   untraced_wall: float) -> dict:
    """Median over the traced runs of every ``<layer>.<field>`` value.
    Layers the workload does not run read 0."""
    per_run = []
    for r in traced:
        flat = {f"{layer}.{k}": v for layer, rec in r["layers"].items()
                for k, v in rec.items()}
        flat["ray_data.tasks"], flat["ray_data.shuffles"] = r["ray_data"]
        top = sum(rec["wall_s"] for layer, rec in r["layers"].items()
                  if "wall_s" in rec)
        flat["trace.wall_s"] = r["wall_s"]
        flat["trace.coverage"] = top / r["wall_s"]
        flat["trace.overhead_ratio"] = r["wall_s"] / untraced_wall
        per_run.append(flat)
    return {name: _median([flat[name] for flat in per_run if name in flat])
            for name in {k for flat in per_run for k in flat}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "forecastframe_ray")):
        print(f"engine sources not found next to {HERE}", file=sys.stderr)
        return 2
    sys.path.insert(0, ROOT)
    os.chdir(ROOT)  # Ray's temp dir may be named relative to it
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    become_subreaper()
    # a terminated benchmark still stops Ray and waits for its processes
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = os.path.join(ROOT, ".bench_run")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        result, context = measure(args.workload, args.seed, args.seconds,
                                  bool(args.trace), work)
    finally:
        stop_ray()
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(context))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
