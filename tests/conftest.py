import numpy as np
import pandas as pd
import pytest

import ray


@pytest.fixture(scope="session", autouse=True)
def ray_session():
    ray.init(address="local", num_cpus=4, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR")
    from ray.data import DataContext
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    yield
    ray.shutdown()


@pytest.fixture
def executions(monkeypatch):
    """A list that gains one entry per Ray Data execution (a streaming
    executor run) started in this process while the test runs."""
    from ray.data._internal.execution.streaming_executor import \
        StreamingExecutor

    calls = []
    real = StreamingExecutor.execute

    def execute(self, *args, **kwargs):
        calls.append(self)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", execute)
    return calls


def tiny_sales_df() -> pd.DataFrame:
    """The reference's golden fixture, verbatim (FIXTURES.md F1;
    /root/reference/forecastframe/testing.py:9-45). 12 rows, 3 series,
    a date gap, NaNs, zeros, negatives, one outlier."""
    cols = ["datetime", "category", "sales_int", "product", "state", "store", "sales_float"]
    rows = [
        ["2020-01-01", "Cat_1", 113, "Prod_3", "CA", "Store_1", 113.21],
        ["2020-01-02", "Cat_1", 10000, "Prod_3", "CA", "Store_1", 10000.00],
        ["2020-01-03", "Cat_1", 214, "Prod_3", "CA", "Store_1", np.nan],
        ["2020-01-05", "Cat_1", 123, "Prod_3", "CA", "Store_1", 123.21],
        ["2019-12-30", "Cat_2", 5, "Prod_4", "CA", "Store_1", 5.1],
        ["2019-12-31", "Cat_2", np.nan, "Prod_4", "CA", "Store_1", np.nan],
        ["2020-01-01", "Cat_2", 0, "Prod_4", "CA", "Store_1", 0],
        ["2020-01-02", "Cat_2", -20, "Prod_4", "CA", "Store_1", -20.1],
        ["2019-12-30", "Cat_2", 2, "Prod_5", "CA", "Store_1", 2.1],
        ["2019-12-31", "Cat_2", 4, "Prod_5", "CA", "Store_1", 4.1],
        ["2020-01-01", "Cat_2", 10, "Prod_5", "CA", "Store_1", 10.2],
        ["2020-01-02", "Cat_2", -10, "Prod_5", "CA", "Store_1", -10.1],
    ]
    df = pd.DataFrame(rows, columns=cols)
    df["datetime"] = pd.to_datetime(df["datetime"])
    return df


HIERARCHY = ["category", "product", "state", "store"]
THRESHOLD = 1e-6  # reference testing.py:83-88


@pytest.fixture
def tiny_frame():
    from forecastframe_ray import RayForecastFrame
    return RayForecastFrame(
        tiny_sales_df(), datetime_column="datetime", target="sales_int",
        hierarchy=HIERARCHY, num_partitions=4,
    )


def assert_close(result, answer, threshold=THRESHOLD):
    result = np.asarray(result, dtype=np.float64)
    answer = np.asarray(answer, dtype=np.float64)
    assert result.shape == answer.shape, (result.shape, answer.shape)
    # same NaN pattern AND |nansum of diff| <= threshold (strictly stronger
    # than the reference's check)
    assert (np.isnan(result) == np.isnan(answer)).all(), list(zip(result, answer))
    diff = abs(np.nansum(result - answer))
    assert diff <= threshold, list(zip(result, answer))
