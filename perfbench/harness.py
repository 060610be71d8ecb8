"""Outside-the-engine accounting for the benchmark: CPU time and RSS of the
benchmark process tree read from ``/proc``, a background sampler for peak
memory and Ray temp-directory size, per-layer spans around the engine's
public functions, Ray Data task and shuffle counts taken from its logs,
ERROR lines in the Ray session logs, and a pure-numpy speed probe.

Nothing here imports the engine; psutil is not used because it is not
installed in the environments this runs in."""

from __future__ import annotations

import functools
import inspect
import logging
import os
import re
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

_CLK_TCK = os.sysconf("SC_CLK_TCK")
_PAGE = os.sysconf("SC_PAGE_SIZE")


def _stat_fields(pid: int | str) -> list[str] | None:
    try:
        with open(f"/proc/{pid}/stat") as f:
            raw = f.read()
    except OSError:  # the process ended between listing and reading
        return None
    # the command name may hold spaces and parentheses: split after the last ')'
    return raw[raw.rindex(")") + 2:].split()


def process_tree() -> list[int]:
    """This process and every live descendant. Ray's GCS, raylet and
    workers are all descendants of the process that called ``ray.init``."""
    children: dict[int, list[int]] = {}
    for name in os.listdir("/proc"):
        if name.isdigit():
            fields = _stat_fields(int(name))
            if fields:
                children.setdefault(int(fields[1]), []).append(int(name))
    out, todo = [], [os.getpid()]
    while todo:
        pid = todo.pop()
        out.append(pid)
        todo += children.get(pid, [])
    return out


def tree_cpu_s() -> float:
    """User + system CPU seconds of the live process tree, with those of
    the descendants its processes have reaped (a Ray worker that exited)."""
    total = 0
    for pid in process_tree():
        fields = _stat_fields(pid)
        if fields:  # utime, stime, cutime, cstime
            total += sum(int(f) for f in fields[11:15])
    return total / _CLK_TCK


def thread_cpu_s(tid: int) -> float:
    """User + system CPU seconds of one thread of this process."""
    fields = _stat_fields(f"{os.getpid()}/task/{tid}")
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK if fields else 0.0


def tree_rss_mb() -> float:
    total = 0
    for pid in process_tree():
        try:
            with open(f"/proc/{pid}/statm") as f:
                total += int(f.read().split()[1])
        except OSError:
            pass
    return total * _PAGE / 1e6


def dir_bytes(path: str, name_filter: str | None = None,
              skip: str | None = None) -> int:
    """Bytes of the regular files under ``path``: optionally only under
    sub-directories whose path contains ``name_filter``, and never under a
    sub-directory named ``skip``."""
    total = 0
    for root, dirs, files in os.walk(path, onerror=lambda e: None):
        if skip in dirs:
            dirs.remove(skip)
        if name_filter and name_filter not in root:
            continue
        for f in files:
            try:
                st = os.lstat(os.path.join(root, f))
            except OSError:
                continue
            if not os.path.islink(os.path.join(root, f)):
                total += st.st_size
    return total


class PeakSampler:
    """Background thread: peak summed RSS of the process tree, peak size of
    the Ray temp directory without its log files (session state and spilled
    objects: the logs grow with the number of runs, not with the work of
    one) and peak size of its object-spill directories. ``reset()`` starts a
    new peak window."""

    INTERVAL_S = 0.1
    #: directory sizes are walked on every DIR_EVERY-th sample only
    DIR_EVERY = 5

    def __init__(self, ray_tmp: str):
        self.ray_tmp = ray_tmp
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self.reset()

    def reset(self):
        with self._lock:
            self.rss_mb = 0.0
            self.tmp_mb = 0.0
            self.spill_mb = 0.0

    def sample(self, with_dirs: bool = True):
        rss = tree_rss_mb()
        tmp = spill = None
        if with_dirs:
            tmp = dir_bytes(self.ray_tmp, skip="logs") / 1e6
            spill = dir_bytes(self.ray_tmp, "spilled_objects") / 1e6
        with self._lock:
            self.rss_mb = max(self.rss_mb, rss)
            if tmp is not None:
                self.tmp_mb = max(self.tmp_mb, tmp)
                self.spill_mb = max(self.spill_mb, spill)

    def cpu_s(self) -> float:
        """CPU seconds this sampler's thread has used: they are the
        benchmark's, not the program's."""
        return thread_cpu_s(self._thread.native_id)

    def peaks(self) -> dict:
        self.sample()
        with self._lock:
            return {"rss_mb": self.rss_mb, "tmp_mb": self.tmp_mb,
                    "spill_mb": self.spill_mb}

    def _loop(self):
        k = 0
        while not self._stop.wait(self.INTERVAL_S):
            self.sample(with_dirs=k % self.DIR_EVERY == 0)
            k += 1

    def __enter__(self):
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join(timeout=5)


class RayDataCounter(logging.Handler):
    """Counts Ray Data tasks and all-to-all (shuffle) operators. Shuffles
    come from the execution plans the streaming executor logs in this
    process; map tasks log their start from inside the worker, so those are
    counted in the session's Ray Data log files."""

    _TASK = "Executing map task of operator"
    _PLAN = "Execution plan of Dataset"

    def __init__(self, session_dir: str):
        super().__init__(level=logging.INFO)
        self.data_logs = os.path.join(session_dir, "logs", "ray-data")
        self.shuffles = 0

    def emit(self, record: logging.LogRecord):
        msg = record.getMessage()
        if msg.startswith(self._PLAN):
            self.shuffles += msg.count("AllToAllOperator") \
                + msg.count("HashShuffle") + msg.count("HashAggregate")

    def tasks(self) -> int:
        n = 0
        for root, _, files in os.walk(self.data_logs, onerror=lambda e: None):
            for f in files:
                with open(os.path.join(root, f), errors="replace") as fh:
                    n += sum(1 for line in fh if self._TASK in line)
        return n

    def snapshot(self) -> tuple[int, int]:
        return self.tasks(), self.shuffles

    @contextmanager
    def attached(self):
        logger = logging.getLogger("ray.data")
        # Ray Data's console handler would print every plan to stderr
        quiet = []
        for h in logger.handlers:
            if isinstance(h, logging.StreamHandler) \
                    and not isinstance(h, logging.FileHandler):
                quiet.append((h, h.level))
                h.setLevel(logging.ERROR)
        logger.addHandler(self)
        try:
            yield self
        finally:
            logger.removeHandler(self)
            for h, lvl in quiet:
                h.setLevel(lvl)


# A Python log line at ERROR level ("... ERROR file.py:12 -- msg") or a
# glog-style core line ("[2026-01-01 00:00:00,000 E 123 456] msg").
_ERROR_LINE = re.compile(r"(\bERROR\b|^\[[^\]]* E \d+ \d+\])")


def count_error_lines(session_dir: str) -> int:
    """ERROR-level lines across every log file of one Ray session."""
    n = 0
    logs = os.path.join(session_dir, "logs")
    for root, _, files in os.walk(logs, onerror=lambda e: None):
        for f in files:
            try:
                with open(os.path.join(root, f), errors="replace") as fh:
                    n += sum(1 for line in fh if _ERROR_LINE.search(line))
            except OSError:
                continue
    return n


class NullTracer:
    """Stands in for a :class:`Tracer` in untraced runs: spans and wrapped
    calls cost nothing and record nothing."""

    def __bool__(self):
        return False

    @contextmanager
    def layer(self, name: str):
        yield {}

    @contextmanager
    def wrapped(self, calls):
        yield


@dataclass(frozen=True)
class Call:
    """A public engine function the traced run times where the program
    itself calls it.

    - ``barrier``: materialize the returned Dataset (or dict of Datasets)
      inside the span, so the span holds the work it started;
    - ``note(rec, args, out)``: adds the layer's extras after the span
      (``args`` are the call's arguments by parameter name);
    - ``gap``: the layer charged with the time since the previous span
      ended, for a step of the program that has no public function of its
      own; ``gap_note(rec, args)`` adds that layer's extras."""

    module: object
    attr: str
    layer: str
    barrier: bool = False
    note: Callable | None = None
    gap: str | None = None
    gap_note: Callable | None = None


def materialize(out):
    if isinstance(out, dict):
        return {k: materialize(v) for k, v in out.items()}
    return out.materialize() if hasattr(out, "materialize") else out


class Tracer:
    """Per-layer spans recorded from the benchmark's side of each public
    call. A layer called several times in one run accumulates; a wrapped
    call made from inside another span is part of that span. ``wait_s`` is
    wall time the layer's CPUs were not busy: ``wall_s - cpu_s / num_cpus``.
    ``bookkeeping_s`` is the time the tracer spent reading extras, which
    is not the program's."""

    def __init__(self, num_cpus: int, cpu_s: Callable[[], float] = tree_cpu_s):
        self.num_cpus = num_cpus
        self.cpu_s = cpu_s
        self.records: dict[str, dict] = {}
        self.bookkeeping_s = 0.0
        self._depth = 0
        self._last: tuple[float, float] | None = None

    def _charge(self, name: str, t0: float, c0: float) -> dict:
        rec = self.records.setdefault(name, {"wall_s": 0.0, "cpu_s": 0.0})
        t1 = time.perf_counter()
        c1 = self.cpu_s()
        rec["wall_s"] += t1 - t0
        rec["cpu_s"] += c1 - c0
        self._last = (t1, c1)
        return rec

    @contextmanager
    def layer(self, name: str):
        rec = self.records.setdefault(name, {"wall_s": 0.0, "cpu_s": 0.0})
        c0 = self.cpu_s()
        t0 = time.perf_counter()
        self._depth += 1
        try:
            yield rec
        finally:
            self._depth -= 1
            self._charge(name, t0, c0)

    @contextmanager
    def bookkeeping(self):
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.bookkeeping_s += time.perf_counter() - t0
            self._last = (time.perf_counter(), self.cpu_s())

    def _wrap(self, fn, call: Call):
        sig = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._depth:
                return fn(*args, **kwargs)
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            bound = bound.arguments
            if call.gap and self._last is not None:
                rec = self._charge(call.gap, *self._last)
                if call.gap_note:
                    with self.bookkeeping():
                        call.gap_note(rec, bound)
            with self.layer(call.layer) as rec:
                out = fn(*args, **kwargs)
                if call.barrier:
                    out = materialize(out)
            if call.note:
                with self.bookkeeping():
                    call.note(rec, bound, out)
            return out

        return traced

    @contextmanager
    def wrapped(self, calls):
        """Replace each call's module attribute by its timed wrapper while
        the block runs. The engine looks its functions up by module
        attribute, so the program's own code path runs under the spans."""
        saved = []
        try:
            for c in calls:
                fn = getattr(c.module, c.attr)
                saved.append((c.module, c.attr, fn))
                setattr(c.module, c.attr, self._wrap(fn, c))
            yield
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    def finish(self) -> dict[str, dict]:
        for rec in self.records.values():
            if "wall_s" in rec and "cpu_s" in rec:
                rec["wait_s"] = rec["wall_s"] - rec["cpu_s"] / self.num_cpus
        return self.records


def probe_units_per_s(reps: int = 3) -> float:
    """Speed of the machine right now: a fixed pure-numpy unit (the same work
    as ``bench._control_unit``), median units/s over ``reps`` runs in this
    process."""
    import numpy as np

    rates = []
    for _ in range(reps):
        t0 = time.perf_counter()
        x = np.random.default_rng(0).standard_normal(200_000)
        s = 0.0
        for _ in range(60):
            s += float(np.log1p(np.abs(x)).sum())
        rates.append(1.0 / (time.perf_counter() - t0))
    return statistics.median(rates)
