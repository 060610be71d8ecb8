"""W10 future-frame generation (reference model.py:717-791): distinct
hierarchy × future dates after the global max, NaN target, history concat,
recorded-plan replay."""

import os
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pandas as pd
import pytest

from forecastframe_ray import RayForecastFrame
from tests.conftest import HIERARCHY, tiny_sales_df


def test_make_future_frame_shape_and_plan():
    fr = RayForecastFrame(tiny_sales_df(), "datetime", "sales_int",
                          HIERARCHY, num_partitions=4)
    fr.lag_features("sales_int", [1])
    fut = fr.make_future_frame(periods=3, freq="D")
    df = fut.to_pandas()

    # 12 history rows + 3 series × 3 future dates
    assert len(df) == 12 + 9
    # future dates extend from the GLOBAL max (2020-01-05 → 01-06..01-08),
    # for every series (reference uses one last_date for all series)
    last = pd.Timestamp("2020-01-05")
    fut_rows = df[df["datetime"] > last]
    assert len(fut_rows) == 9
    assert fut_rows["sales_int"].isna().all()
    assert sorted(fut_rows["datetime"].unique()) == list(
        pd.date_range("2020-01-06", periods=3))
    # recorded plan replayed: first future row of each series carries a lag
    # from its last history value
    prod3 = df[(df["product"] == "Prod_3") &
               (df["datetime"] == pd.Timestamp("2020-01-06"))]
    assert prod3["sales_int_lag1"].iloc[0] == 123.0


def test_make_future_frame_no_history():
    fr = RayForecastFrame(tiny_sales_df(), "datetime", "sales_int",
                          HIERARCHY, num_partitions=4)
    fut = fr.make_future_frame(periods=2, include_history=False,
                               apply_plan=False)
    df = fut.to_pandas()
    assert len(df) == 3 * 2
    assert df["sales_int"].isna().all()


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

_ONE_CPU_SCRIPT = textwrap.dedent("""
    import sys

    import numpy as np
    import pandas as pd
    import ray
    from ray.data import DataContext

    rng = np.random.default_rng(0)
    n = 2000
    pd.DataFrame({
        "ts": (pd.Timestamp("2024-01-01")
               + pd.to_timedelta(rng.integers(0, 30 * 86400, n), unit="s"))
              .astype("datetime64[us]"),
        "event_type": rng.choice(list("abcde"), n),
        "value": rng.random(n),
    }).to_parquet(f"{sys.argv[1]}/events.parquet")

    ray.init(address="local", num_cpus=1, include_dashboard=False,
             logging_level="ERROR")
    DataContext.get_current().enable_progress_bars = False
    from forecastframe_ray.pipelines.queries import CATALOG

    out = CATALOG["future_frame_daily"][0](sys.argv[1])
    # 5 series x (30 history days + 7 future days)
    assert len(out) == 5 * 37, len(out)
    ray.shutdown()
""")


def test_future_frame_with_history_finishes_on_one_cpu(tmp_path):
    """The history + future union (the ``future_frame_daily`` entry) runs to
    completion under ``ray.init(num_cpus=1)``: with the series set left
    lazy, the union of two sort exchanges over one input stalled there."""
    env = dict(os.environ, PYTHONPATH=ROOT)
    proc = subprocess.Popen([sys.executable, "-c", _ONE_CPU_SCRIPT,
                             str(tmp_path)], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        _, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the script and its Ray cluster
        proc.communicate()
        pytest.fail("future frame did not finish in 120 s on 1 CPU")
    assert proc.returncode == 0, err[-3000:]
