"""RayForecastFrame — the Ray-Data-native equivalent of the reference's
``ForecastFrame`` (``/root/reference/forecastframe/main.py:9-155``), with the
same operator semantics re-expressed as lazy ``ray.data.Dataset`` transforms.

Key architectural differences from the reference (SURVEY.md §1.2):

- data is a lazy ``ray.data.Dataset`` of Arrow blocks, never a materialized
  pandas frame; the datetime is a plain column, never an index;
- every feature-engineering call *records* an op descriptor (the reference's
  ``function_list`` record/replay, main.py:49-51) **and** composes onto the
  lazy plan — consecutive group-local ops with the same group keys are FUSED
  into one keyed window stage (one shuffle, many operators; no shuffle when
  the frame is materialized over blocks that already hold whole series, as
  after a global ``fill_time_gaps`` over a tier store read);
- scaler fits are one ``agg.reduce`` of per-block partials whose constants
  are broadcast into stateless apply stages (two-phase, SURVEY.md M3/M4);
- rollup-level features (``groupers=``) aggregate to the rollup grain, run
  the window stage on that (much smaller) table, and broadcast-join the new
  columns back to base grain (SURVEY.md A1+J1).
"""

from __future__ import annotations

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa

import ray.data

from forecastframe_ray.functions import encoding, scalar, scalers
from forecastframe_ray.pipelines.rollup import aggregate_features
from forecastframe_ray.stages.agg import (_typed_empty, column_ranges,
                                          distinct_values, reduce)
from forecastframe_ray.stages.join import actor_map, broadcast_left_join
from forecastframe_ray.stages.keyed import keyed_window_stage
from forecastframe_ray.stages import window_ops as W

_GLOBAL_KEY = "__all"


def _as_list(x):
    if x is None:
        return None
    return list(x) if isinstance(x, (list, tuple, set)) else [x]


class RayForecastFrame:
    """Distributed hierarchical time-series frame.

    Parameters mirror the reference constructor (main.py:31-56):
    ``data`` may be a ray Dataset, pandas DataFrame, pyarrow Table, or a
    parquet path; ``hierarchy`` is the list of group columns whose tuple
    plus the datetime is the primary key; ``target`` the measure column.
    """

    #: max rolled-up rows shipped driver-side for the J1 broadcast join-back;
    #: above this the join falls back to a distributed hash join
    ROLLUP_BROADCAST_ROWS = 2_000_000

    def __init__(self, data, datetime_column: str, target: str,
                 hierarchy: list[str] | None = None, num_partitions: int = 32,
                 validate: bool = False):
        self.datetime_column = datetime_column
        self.target = target
        self.hierarchy = _as_list(hierarchy)
        self.num_partitions = num_partitions

        self.transforms: dict = {}
        self.categorical_keys: dict = {}
        self.function_list: list = []   # recorded logical plan (replayable)
        self.scalers_list: list = []

        self._pending: list[dict] = []  # fused keyed-op buffer
        self._pending_keys: list[str] | None = None

        self._ds = self._ingest(data)
        if validate:
            self.validate_primary_key()

    # ------------------------------------------------------------------
    # ingest / access
    # ------------------------------------------------------------------

    def _ingest(self, data):
        if isinstance(data, pd.DataFrame):
            ds = ray.data.from_pandas(data.reset_index(drop=True))
        elif isinstance(data, pa.Table):
            ds = ray.data.from_arrow(data)
        elif isinstance(data, str):
            ds = ray.data.read_parquet(data)
        else:
            ds = data
        dtc = self.datetime_column

        def cast(b: pd.DataFrame) -> pd.DataFrame:
            # a shallow copy: the batch may be a slice of a pandas block
            # (a projection), and assigning into it warns per batch
            b = b.copy(deep=False)
            b[dtc] = pd.to_datetime(b[dtc])
            if self.hierarchy is None:
                b[_GLOBAL_KEY] = np.int8(0)
            return b

        return ds.map_batches(cast, batch_format="pandas")

    @property
    def _keys(self) -> list[str]:
        return self.hierarchy if self.hierarchy else [_GLOBAL_KEY]

    def _record(self, name: str, kwargs: dict):
        self.function_list.append((name, kwargs))

    def _queue(self, keys: list[str], op: dict):
        if self._pending and list(keys) != self._pending_keys:
            self._flush()
        self._pending_keys = list(keys)
        self._pending.append(op)

    def _flush(self):
        if self._pending:
            self._ds = keyed_window_stage(
                self._ds, self._pending_keys, self.datetime_column,
                self._pending, num_partitions=self.num_partitions,
            )
            self._pending = []
            self._pending_keys = None
        return self._ds

    @property
    def dataset(self) -> "ray.data.Dataset":
        """The (lazy) Dataset with all queued ops applied."""
        return self._flush()

    def to_pandas(self, sort: bool = True) -> pd.DataFrame:
        df = self.dataset.to_pandas()
        if _GLOBAL_KEY in df.columns:
            df = df.drop(columns=[_GLOBAL_KEY])
        if sort:
            cols = (self.hierarchy or []) + [self.datetime_column]
            df = df.sort_values(cols, kind="mergesort").reset_index(drop=True)
        return df

    def get_sample(self, n: int = 1000) -> pd.DataFrame:
        """Dev preview (reference ``sample``, main.py:44) — small slice only."""
        return self.to_pandas().head(n)

    def validate_primary_key(self):
        """PK-uniqueness over hierarchy+datetime (main.py:58-69): distributed
        duplicate count, raises on any dup."""
        from forecastframe_ray.stages.agg import hash_count

        by = self._keys + [self.datetime_column]
        counts = hash_count(self._ds, by, out_col="__n",
                            num_partitions=self.num_partitions)
        # keep only the int count column: a zero-row string column makes
        # Ray's block-size sampler log an error
        dups = counts.map_batches(
            lambda b: b.loc[b["__n"] > 1, ["__n"]], batch_format="pandas"
        ).count()
        assert dups == 0, (
            "Your dataframe isn't unique across the specified hierarchy. "
            f"{dups} duplicate (hierarchy, datetime) keys found."
        )

    # ------------------------------------------------------------------
    # group-local window ops (fused keyed stage)
    # ------------------------------------------------------------------

    def lag_features(self, features, lags):
        """W2 (feature_engineering.py:210-267): per-group row shift; lagged
        columns cast to float (reference ``_cast_targets_to_float``)."""
        features, lags = _as_list(features), _as_list(lags)
        assert not [l for l in lags if l < 1], (
            "Please ensure all lags are greater than 0 to avoid leaking data."
        )
        self._record("lag_features", {"features": features, "lags": lags})
        self._queue(self._keys, {"op": "lag", "features": features, "lags": lags})
        return self

    def difference_features(self, features, periods: int = 1):
        """W3 (feature_engineering.py:173-207)."""
        features = _as_list(features)
        self._record("difference_features", {"features": features, "periods": periods})
        self._queue(self._keys, {"op": "difference", "features": features, "periods": periods})
        return self

    def calc_percent_change(self, feature: str | None = None, lag: int = 1,
                            groupers: dict | None = None):
        """W5 (feature_engineering.py:724-810). ``groupers`` only regroups
        (no aggregation) and renames, exactly like the reference."""
        feature = feature or self.target
        if groupers:
            keys = list(groupers["columns"])
            name = f"{feature}_{groupers['name']}_pct_change_lag{lag}"
        else:
            keys = self._keys
            name = f"{feature}_pct_change_lag{lag}"
        self._record("calc_percent_change", {"feature": feature, "lag": lag, "groupers": groupers})
        self._queue(keys, {"op": "pct_change", "feature": feature, "lag": lag, "out_name": name})
        return self

    def calc_days_since_release(self, ignore_leading_zeroes: bool = True):
        """W7 (feature_engineering.py:44-100)."""
        self._record("calc_days_since_release", {"ignore_leading_zeroes": ignore_leading_zeroes})
        self._queue(self._keys, {
            "op": "days_since_release", "target": self.target,
            "ignore_leading_zeroes": ignore_leading_zeroes,
        })
        return self

    def fill_time_gaps(self, freq: str = "D", mode: str = "global"):
        """W8 gap-fill (transform.py:431-472). ``mode="global"`` reindexes
        every group to the global [min, max] range (reference behavior,
        pinned by tests/test_transform.py:8-28; needs one pass of per-block
        min/max, no shuffle); ``mode="local"`` uses each group's own range
        (the scale-safe default for sparse web hosts). ``freq``
        parameterizes the bucket grid (D / h / 7D …)."""
        self._record("fill_time_gaps", {"freq": freq, "mode": mode})
        start = end = None
        if mode == "global":
            # materialized: the range pass and the keyed stage both read it
            self._ds = self._flush().materialize()
            start, end = map(pd.Timestamp, column_ranges(
                self._ds, [self.datetime_column])[self.datetime_column])
        self._queue(self._keys, {"op": "gap_fill", "freq": freq, "start": start, "end": end})
        return self

    def calc_expanding_features(self, features=None,
                                aggregations=("sum", "mean", "max")):
        """Expanding (from-series-start) stats — the unbounded-window
        sibling of ``calc_statistical_features`` (engine extension; rides
        the same fused keyed stage)."""
        features = _as_list(features) or [self.target]
        aggregations = _as_list(aggregations)
        self._record("calc_expanding_features",
                     {"features": features, "aggregations": aggregations})
        self._queue(self._keys, {"op": "expanding_stats",
                                 "features": features,
                                 "aggregations": aggregations})
        return self

    def sessionize(self, gap_seconds: int = 1800, out_name: str = "session_id"):
        """Gap-based session ids per series (engine extension — web-analytics
        sessionization fused into the keyed window stage)."""
        self._record("sessionize", {"gap_seconds": gap_seconds,
                                    "out_name": out_name})
        self._queue(self._keys, {"op": "sessionize",
                                 "gap_seconds": gap_seconds,
                                 "out_name": out_name})
        return self

    def fill_missings(self, method: str = "ffill", features: list | None = None):
        """W9 (transform.py:475-500) + linear interpolation (north_rule)."""
        assert method in ("ffill", "bfill", "interpolate")
        features = _as_list(features) or self._get_covariates()
        self._record("fill_missings", {"method": method, "features": features})
        self._queue(self._keys, {"op": "fill_missing", "features": features, "method": method})
        return self

    def calc_statistical_features(self, features, windows=(7,),
                                  aggregations=("max", "min", "std", "mean", "median"),
                                  lag: int = 1, groupers: dict | None = None,
                                  min_periods: int = 1, momentums: bool = False,
                                  percentages: bool = False):
        """W1 rolling time-window stats (feature_engineering.py:314-496)."""
        features, windows, aggregations = map(_as_list, (features, windows, aggregations))
        self._record("calc_statistical_features", {
            "features": features, "windows": windows, "aggregations": aggregations,
            "lag": lag, "groupers": groupers, "min_periods": min_periods,
            "momentums": momentums, "percentages": percentages,
        })
        if momentums:
            assert "mean" in aggregations
        if percentages:
            assert "sum" in aggregations

        if not groupers:
            for w in windows:
                mp = W.default_min_periods(w, min_periods)
                self._queue(self._keys, {
                    "op": "rolling_stats", "features": features, "window": w,
                    "aggregations": aggregations, "lag": lag, "min_periods": mp,
                    "momentums": momentums, "percentages": percentages,
                })
            return self

        # rollup path: aggregate → window at rolled grain → broadcast join back
        gname = groupers["name"]
        ops, new_cols = [], []
        for w in windows:
            mp = W.default_min_periods(w, min_periods)
            ops.append({"op": "rolling_stats", "features": features, "window": w,
                        "aggregations": aggregations, "lag": lag, "min_periods": mp,
                        "grouper_name": gname})
            new_cols += [W.stat_name(f, a, w, lag, gname) for f in features for a in aggregations]
        self._apply_rollup_windows(features, groupers, ops, new_cols)

        if momentums or percentages:
            for w in windows:
                if momentums:
                    denoms = [W.stat_name(f, "mean", w, lag, gname) for f in features]
                    self._queue(self._keys, {
                        "op": "shift_ratio", "features": features, "lag": lag,
                        "denom_cols": denoms, "out_names": [f"{d}_momentum" for d in denoms],
                    })
                if percentages:
                    denoms = [W.stat_name(f, "sum", w, lag, gname) for f in features]
                    self._queue(self._keys, {
                        "op": "shift_ratio", "features": features, "lag": lag,
                        "denom_cols": denoms, "out_names": [f"{d}_perc" for d in denoms],
                    })
        return self

    def calc_ewma(self, features, windows=(7,), lag: int = 1,
                  groupers: dict | None = None, min_periods: int | None = None,
                  crossovers: bool = False, adjust: bool = True):
        """W4 EWMA + crossovers (feature_engineering.py:499-693):
        ``span=window``; crossover col pairs follow ``itertools.combinations``
        over ascending windows (utilities.py:470-475)."""
        features, windows = _as_list(features), sorted(_as_list(windows))
        if crossovers and len(windows) <= 1:
            raise ValueError("Please pass 2+ windows if you want to calculate crossovers.")
        self._record("calc_ewma", {
            "features": features, "windows": windows, "lag": lag, "groupers": groupers,
            "min_periods": min_periods, "crossovers": crossovers, "adjust": adjust,
        })
        gname = groupers["name"] if groupers else None
        ops, new_cols = [], []
        for w in windows:
            mp = W.default_min_periods(w, min_periods)
            ops.append({"op": "ewma", "features": features, "window": w, "lag": lag,
                        "min_periods": mp, "adjust": adjust, "grouper_name": gname})
            new_cols += [W.stat_name(f, "", w, lag, gname, designator="_ewma") for f in features]
        if crossovers:
            for w1, w2 in itertools.combinations(windows, 2):
                first = [W.stat_name(f, "", w1, lag, gname, designator="_ewma") for f in features]
                second = [W.stat_name(f, "", w2, lag, gname, designator="_ewma") for f in features]
                ops.append({"op": "crossover", "first_cols": first, "second_cols": second,
                            "suffix_window": w2})
                new_cols += [f"{c}_cross{w2}" for c in first]
        if not groupers:
            for op in ops:
                self._queue(self._keys, op)
        else:
            self._apply_rollup_windows(features, groupers, ops, new_cols)
        return self

    def calc_percent_relative_to_threshold(self, features=None, windows=(7,),
                                           lag: int = 1, groupers: dict | None = None,
                                           min_periods: int = 1, threshold=0,
                                           operator: str = "greater"):
        """W6 (feature_engineering.py:813-940)."""
        features = _as_list(features) or [self.target]
        windows = _as_list(windows)
        assert operator in ("greater", "less", "equal", "not equal")
        self._record("calc_percent_relative_to_threshold", {
            "features": features, "windows": windows, "lag": lag, "groupers": groupers,
            "min_periods": min_periods, "threshold": threshold, "operator": operator,
        })
        gname = groupers["name"] if groupers else None
        ops, new_cols = [], []
        for w in windows:
            mp = W.default_min_periods(w, min_periods)
            ops.append({"op": "rolling_threshold", "features": features, "window": w,
                        "lag": lag, "min_periods": mp, "threshold": threshold,
                        "operator": operator, "grouper_name": gname})
            new_cols += [
                W.stat_name(f, "", w, lag, gname, designator=f"_perc_{operator}{threshold}")
                for f in features
            ]
        if not groupers:
            for op in ops:
                self._queue(self._keys, op)
        else:
            self._apply_rollup_windows(features, groupers, ops, new_cols)
        return self

    def _apply_rollup_windows(self, features, groupers: dict, ops: list[dict],
                              new_cols: list[str]):
        """A1 + keyed window at rollup grain + J1 broadcast join back
        (feature_engineering.py:270-300, 368-398; utilities.py:157-186).

        Scale assumption (documented): the rolled-up table (rollup columns ×
        buckets) is orders of magnitude smaller than base grain, so it is
        safe to window in fewer partitions and broadcast for the join."""
        from forecastframe_ray.stages.join import hash_join

        gcols = list(groupers["columns"])
        dtc = self.datetime_column
        base = self._flush()
        rolled = aggregate_features(base, features, gcols + [dtc], groupers["operation"])
        rolled = keyed_window_stage(rolled, gcols, dtc, ops,
                                    num_partitions=max(4, self.num_partitions // 4))
        # materialized: count() and then to_pandas() or the join read it
        rolled = rolled.select_columns(gcols + [dtc] + new_cols).materialize()
        # broadcast only when the rolled side is genuinely small; a
        # high-cardinality grouper (e.g. host×bucket) falls back to a
        # distributed hash join instead of a driver materialize
        if rolled.count() <= self.ROLLUP_BROADCAST_ROWS:
            self._ds = broadcast_left_join(base, rolled.to_pandas(),
                                           on=gcols + [dtc])
        else:
            self._ds = hash_join(base, rolled, on=gcols + [dtc], how="left",
                                 num_partitions=self.num_partitions)
        return self

    # ------------------------------------------------------------------
    # stateless per-batch ops
    # ------------------------------------------------------------------

    def calc_datetime_features(self, datetime_list=scalar.DATETIME_FEATURES):
        """M8 calendar features (feature_engineering.py:103-170)."""
        datetime_list = _as_list(datetime_list)
        unknown = set(datetime_list) - set(scalar.DATETIME_FEATURES)
        assert not unknown, f"Didn't recognize the following feature requests: {unknown}"
        self._record("calc_datetime_features", {"datetime_list": datetime_list})
        dtc = self.datetime_column
        self._flush()
        self._ds = self._ds.map_batches(
            lambda b: scalar.datetime_features_batch(b, dtc, datetime_list),
            batch_format="pandas",
        )
        return self

    def correct_negatives(self, features=None, replace_value=0):
        """M1 (transform.py:42-61)."""
        features = _as_list(features) or [self.target]
        self._record("correct_negatives", {"features": features, "replace_value": replace_value})
        self._flush()
        self._ds = self._ds.map_batches(
            lambda b: scalar.correct_negatives_batch(b, features, replace_value),
            batch_format="pandas",
        )
        return self

    # ------------------------------------------------------------------
    # scalers (two-phase) — M2-M5
    # ------------------------------------------------------------------

    def _assert_feature_not_transformed(self, features, transform_str):
        if transform_str in self.transforms:
            done = set(self.transforms[transform_str]["features"]) & set(features)
            assert not done, f"{sorted(done)} already transformed with {transform_str}"

    def log_features(self, features):
        features = _as_list(features)
        self._assert_feature_not_transformed(features, "log1p")
        self.scalers_list.append(("log1p", {"features": features}))
        self._flush()
        self._ds = self._ds.map_batches(
            lambda b: scalers.apply_log1p(b, features), batch_format="pandas"
        )
        self.transforms["log1p"] = {"features": features}
        return self

    def standardize_features(self, features):
        features = _as_list(features)
        self._assert_feature_not_transformed(features, "standardize")
        self.scalers_list.append(("standardize", {"features": features}))
        self._flush()
        # materialize so the fit pass and the apply pass don't both re-execute
        # the upstream plan (two-phase scaler, SURVEY.md M3)
        self._ds = self._ds.materialize()
        params = scalers.fit_standardize(self._ds, features)
        self._ds = self._ds.map_batches(
            lambda b: scalers.apply_standardize(b, params), batch_format="pandas"
        )
        self.transforms["standardize"] = params
        return self

    def normalize_features(self, features):
        features = _as_list(features)
        self._assert_feature_not_transformed(features, "normalize")
        self.scalers_list.append(("normalize", {"features": features}))
        self._flush()
        self._ds = self._ds.materialize()
        params = scalers.fit_normalize(self._ds, features)
        self._ds = self._ds.map_batches(
            lambda b: scalers.apply_normalize(b, params), batch_format="pandas"
        )
        self.transforms["normalize"] = params
        return self

    def descale_features(self):
        """Invert all recorded scalings (transform.py:309-364), in recorded
        order like the reference (features of different scalings are
        expected to be disjoint)."""
        self._flush()
        self._ds = scalers.apply_transform_dict(self._ds, self.transforms, inverse=True)
        self.transforms = {}
        self.scalers_list = []
        return self

    def descale_target(self, values: np.ndarray) -> np.ndarray:
        """Reference ``_descale_target`` (transform.py:246-306)."""
        return scalers.descale_array(np.asarray(values, dtype=np.float64),
                                     self.transforms, self.target)

    # ------------------------------------------------------------------
    # categoricals — M6/M7
    # ------------------------------------------------------------------

    def encode_categoricals(self, columns: list[str] | None = None):
        self._flush()
        if columns is None:
            drop = {self.datetime_column, _GLOBAL_KEY}
            columns = [c for c in encoding.string_columns(self._ds) if c not in drop]
        if not columns:
            return self
        self.categorical_keys.update(encoding.fit_categories(self._ds, columns))
        self._ds = self._ds.map_batches(
            encoding.encode_batch_fn({c: self.categorical_keys[c] for c in columns}),
            batch_format="pandas",
        )
        return self

    def decode_categoricals(self):
        if not self.categorical_keys:
            return self
        self._flush()
        self._ds = self._ds.map_batches(
            encoding.decode_batch_fn(self.categorical_keys), batch_format="pandas"
        )
        return self

    # ------------------------------------------------------------------
    # misc parity ops
    # ------------------------------------------------------------------

    def compress(self, categorize_strings: bool = True):
        """M10: global-stat-driven lossless integer downcast + string →
        dictionary (category) encoding (the Arrow analog of
        transform.py:11-39; the string half is the reference's
        object→category conversion at transform.py:30-33; floats stay
        float64 — see functions/scalar.py)."""
        self._ds = self._flush().materialize()
        s = self._ds.schema(fetch_if_missing=False)

        def is_int(t):
            if isinstance(t, pa.DataType):
                return pa.types.is_integer(t)
            try:
                return np.issubdtype(np.dtype(t), np.integer)
            except TypeError:
                return False

        def is_str(t):
            if isinstance(t, pa.DataType):
                return pa.types.is_string(t) or pa.types.is_large_string(t)
            return np.dtype(t) == object

        int_cols = [n for n, t in zip(s.names, s.types) if is_int(t) and n != _GLOBAL_KEY]
        str_cols = [n for n, t in zip(s.names, s.types)
                    if categorize_strings and is_str(t)]
        if not int_cols and not str_cols:
            return self
        plan = {}
        if int_cols:
            plan = scalar.downcast_plan(column_ranges(self._ds, int_cols))

        def cast(b: pd.DataFrame) -> pd.DataFrame:
            for c, dt in plan.items():
                b[c] = b[c].astype(dt)
            for c in str_cols:
                b[c] = b[c].astype("category")
            return b

        self._ds = self._ds.map_batches(cast, batch_format="pandas")
        return self

    def join_dim_table(self, dim_df: pd.DataFrame, left_on, right_on=None,
                       how: str = "inner", dim_dtypes: dict | None = None):
        """J2 dimension-table join (the reference's ``join_demographics``,
        feature_engineering.py:7-41, generalized: any small dim table instead
        of the external demographics package). Broadcast hash-lookup inside
        ``map_batches`` — the big side never shuffles. Recorded for replay.

        ``dim_dtypes`` is only passed by the replay/load path: the recorded
        column-dict form is JSON (datetimes become ISO strings, io.py
        ``_jsonable``), so the original per-column dtypes are recorded
        alongside and restored here."""
        left_on = _as_list(left_on)
        right_on = _as_list(right_on) or left_on
        if isinstance(dim_df, dict):  # replay/load path (JSON-safe form)
            dim_df = pd.DataFrame(dim_df)
            for c, dt in (dim_dtypes or {}).items():
                if dt.startswith("datetime64") or dt.startswith("timedelta64"):
                    dim_df[c] = pd.to_datetime(dim_df[c]) \
                        if dt.startswith("datetime64") \
                        else pd.to_timedelta(dim_df[c])
                dim_df[c] = dim_df[c].astype(dt)
        # record the dim table in a JSON-safe column-dict form (plus its
        # dtypes, for lossless restore) so save()'s JSON manifest (io.py)
        # can persist the recorded plan
        self._record("join_dim_table",
                     {"dim_df": dim_df.to_dict("list"),
                      "dim_dtypes": {c: str(t) for c, t in
                                     dim_df.dtypes.items()},
                      "left_on": left_on,
                      "right_on": right_on, "how": how})
        self._flush()
        small = dim_df.rename(columns=dict(zip(right_on, left_on)))
        if how == "left":
            self._ds = broadcast_left_join(self._ds, small, on=left_on)
        else:  # inner: left join then drop non-matches (reference merge default)
            # explicit match indicator — probing a value column would wrongly
            # drop matched dim rows whose first value is legitimately NULL
            probe = "__dim_matched"
            small = small.copy()
            small[probe] = True

            def matched(b: pd.DataFrame):
                b = b[b[probe].notna()].drop(columns=[probe])
                return _typed_empty(b) if len(b) == 0 else b

            self._ds = broadcast_left_join(self._ds, small, on=left_on)
            self._ds = self._ds.map_batches(matched, batch_format="pandas")
        return self

    def calc_ensemble_predictions(self, model: str = "seasonal_mean",
                                  feature: str | None = None):
        """Ensemble-feature hook — the engine path for the reference's
        ``calc_prophet_predictions`` (feature_engineering.py:943-985), which
        fits a per-group model and appends its predictions as a feature
        column. Prophet itself is not available in this container; two real
        engine-native models ship behind the same physical plan (a small
        distributed fit broadcast via ``ray.put`` + a scorer ACTOR POOL that
        loads the fitted state once per actor in ``__init__`` and scores per
        batch):

        - ``"seasonal_mean"`` — per-(group, day-of-week) mean lookup;
        - ``"fourier"`` — a genuinely FITTED per-group additive regression
          (weekly Fourier harmonics + linear trend, distributed normal
          equations; :func:`pipelines.search.fit_fourier`) — the closest
          in-container analog of Prophet's trend + weekly seasonality.
        """
        import ray as _ray

        from forecastframe_ray.stages.agg import hash_aggregate

        assert model in ("seasonal_mean", "fourier"), model
        feature = feature or self.target
        self._record("calc_ensemble_predictions",
                     {"model": model, "feature": feature})
        dtc = self.datetime_column
        keys = self._keys
        out_col = f"{feature}_ensemble_pred"
        self._flush()
        self._ds = self._ds.materialize()  # fit pass + score pass share it

        def add_dow(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            b["__dow"] = b[dtc].dt.dayofweek.astype("int32")
            return b

        if model == "fourier":
            from forecastframe_ray.pipelines.search import (
                fit_fourier, fourier_score_frame)
            state = fit_fourier(self._ds, keys, dtc, feature,
                                order=3, trend=True)
            order, trend = state["order"], state["trend"]
            model_ref = _ray.put(state["model"])
            # scoring math lives in ONE place (search.py)
            self._ds = actor_map(
                self._ds, lambda: _ray.get(model_ref),
                lambda b, m: fourier_score_frame(b, m, keys, dtc, out_col,
                                                 order, trend))
            return self

        fitted = hash_aggregate(
            self._ds.map_batches(add_dow, batch_format="pandas"),
            keys + ["__dow"], {out_col: (feature, "mean")},
            num_partitions=self.num_partitions)
        # fitted state is (groups × 7) rows — small by construction
        model_ref = _ray.put(fitted.to_pandas())
        self._ds = actor_map(
            self._ds, lambda: _ray.get(model_ref),
            lambda b, m: add_dow(b).merge(m, how="left", on=keys + ["__dow"])
            .drop(columns=["__dow"]))
        return self

    def format_dates(self) -> list[str]:
        """Pretty date strings at the inferred granularity (utilities.py:
        403-438; ``%-d``-style Linux formats, granularity = closest bucket
        to the median date delta). Driver-side over the distinct dates."""
        dtc = self.datetime_column
        dates = pd.DatetimeIndex(distinct_values(self.dataset, [dtc])[dtc])
        fmt_by_sec = {
            1: "%b. %-d %Y %-H:%-M:%-S", 60: "%b. %-d %Y %-H:%-M",
            3600: "%b. %-d %Y %-H", 86400: "%b. %-d %Y",
            604800: "Week %U %Y", 2419200: "%b. %Y", 31449600: "%Y",
        }
        deltas = pd.Series(dates) - pd.Series(dates).shift(-1)
        median = abs(deltas.median().total_seconds())
        fmt = fmt_by_sec[min(fmt_by_sec, key=lambda x: abs(x - median))]
        self.date_format = fmt
        return list(dates.strftime(fmt))

    def remove_min_lags(self, min_lag_dict: dict[str, int]):
        """M11 ``_remove_min_lags`` (model.py:631-651): for each feature
        prefix, drop derived columns whose ``_lag{n}`` suffix is below the
        given minimum (and non-lag derived columns of that prefix); the
        target column itself is never dropped. Pure schema operation —
        compiles to one ``drop_columns``."""
        self._flush()
        cols = list(self._ds.schema().names)
        to_remove = []
        for prefix, lag_value in min_lag_dict.items():
            affected = [c for c in cols if c.startswith(prefix) and c != self.target]
            for c in affected:
                suffix = c.split("_lag")[-1]
                if suffix.isdigit() and int(suffix) >= lag_value:
                    continue
                to_remove.append(c)
        if to_remove:
            self._ds = self._ds.drop_columns(sorted(set(to_remove)))
        return self

    def missing_percentages(self) -> pd.Series:
        """A7 ``print_missing_percentages`` (utilities.py:511-515): null
        share per column: one ``agg.reduce`` sums the blocks' null counts,
        so the plan runs once and the table is never collected. Empty input
        → an empty Series."""
        totals = reduce(self._flush(), lambda b: b.isnull().sum().to_frame().T
                        .assign(__rows=len(b)), lambda p: p.sum())
        n = totals.pop("__rows") if len(totals) else 0
        return totals / n

    def merge_actuals(self, prediction_df) -> "ray.data.Dataset":
        """J3 ``_merge_actuals`` (model.py:170-199): outer-join predictions
        with the non-null-target actual rows on hierarchy + datetime.
        Distributed hash join (both sides may be large)."""
        from forecastframe_ray.stages.join import hash_join

        if isinstance(prediction_df, pd.DataFrame):
            preds = ray.data.from_pandas(prediction_df)
        else:
            preds = prediction_df
        if self.target in preds.schema().names:
            return preds
        keys = (self.hierarchy or []) + [self.datetime_column]
        actuals = self._flush().map_batches(
            lambda b: b.loc[b[self.target].notna(), keys + [self.target]],
            batch_format="pandas")
        return hash_join(preds, actuals, on=keys, how="outer",
                         num_partitions=self.num_partitions)

    def update_values(self, patch_df: pd.DataFrame):
        """J4 ``_update_values`` (utilities.py:189-211): overwrite with the
        patch's non-NA values aligned on hierarchy + datetime (broadcast)."""
        from forecastframe_ray.stages.join import broadcast_update

        keys = (self.hierarchy or []) + [self.datetime_column]
        self._flush()
        self._ds = broadcast_update(self._ds, patch_df, on=keys)
        return self

    def make_future_frame(self, periods: int, freq: str = "D",
                          include_history: bool = True,
                          apply_plan: bool = True) -> "RayForecastFrame":
        """W10 future-frame generation (model.py:717-791): distinct hierarchy
        tuples × the next ``periods`` dates after the global max, target=NaN,
        optionally concatenated with history (provenance via NaN target) and
        run through the recorded feature plan.

        Distributed shape: the distinct-hierarchy scan is a hash_count (the
        result is tiny — one row per series, materialized); each of its
        batches is crossed with the date grid and unioned lazily with history.
        """
        from forecastframe_ray.stages.agg import hash_count

        dtc, tgt = self.datetime_column, self.target
        # materialized: the max, the series count and the union read it
        base = self._flush().materialize()
        last = pd.Timestamp(column_ranges(base, [dtc])[dtc][1])
        dates = pd.date_range(start=last, periods=periods + 1, freq=freq)
        dates = dates[dates > last][:periods]

        # align to the full history schema (missing cols → null), matching
        # the reference's pandas concat which NaN-fills new future rows
        schema = base.schema(fetch_if_missing=False)

        def _align(future: pd.DataFrame) -> pd.DataFrame:
            future[tgt] = np.nan
            for name, typ in zip(schema.names, schema.types):
                if name not in future.columns:
                    is_str = isinstance(typ, pa.DataType) and (
                        pa.types.is_string(typ) or pa.types.is_large_string(typ))
                    future[name] = None if is_str else np.nan
            return future[list(schema.names)]

        if self.hierarchy:
            # distinct series × date grid, expanded DISTRIBUTED: the
            # distinct-key Dataset stays sharded and each batch cross-joins
            # the (tiny, broadcast-by-closure) date list — at web scale the
            # series set is far too large to enumerate on the driver.
            # Materialized: a union of two lazy sort exchanges over one
            # input stalls the streaming executor at num_cpus=1.
            hier_ds = hash_count(base, self.hierarchy,
                                 num_partitions=self.num_partitions) \
                .materialize()
            hcols, dvals = self.hierarchy, dates.to_numpy()

            def expand(b: pd.DataFrame) -> pd.DataFrame:
                out = b.loc[b.index.repeat(len(dvals)), hcols] \
                    .reset_index(drop=True)
                out[dtc] = np.tile(dvals, len(b))
                return _align(out)

            future_ds = hier_ds.map_batches(expand, batch_format="pandas")
        else:
            future = pd.DataFrame({dtc: dates})
            future[_GLOBAL_KEY] = np.int8(0)
            future_ds = ray.data.from_pandas(_align(future))
        data = base.union(future_ds) if include_history else future_ds
        if not apply_plan:
            out = RayForecastFrame(data, dtc, tgt, self.hierarchy,
                                   num_partitions=self.num_partitions)
            out.function_list = list(self.function_list)
            return out
        return self.replay(data)

    def predict(self, periods: int, freq: str = "D",
                estimator: str = "seasonal_mean",
                include_history: bool = False, **params):
        """The reference's ``predict`` driver, data side (model.py:1313-1417
        fit-on-all + forward scoring): fit the pluggable ``(fit, score)``
        estimator on EVERY historical row, generate the future frame (W10)
        and score it — returns a Dataset with a ``predicted_{target}``
        column on the future grid (plus history when ``include_history``).
        ``params`` go to the estimator (e.g. ``season``/``blend`` for the
        stand-in seasonal mean; ``cross_validate()[1]`` plugs in directly).
        The fit is a distributed aggregate, the fitted state is broadcast
        once, and the future grid stays sharded — nothing scales with the
        series count on the driver."""
        from forecastframe_ray.pipelines import search

        fit_fn, score_fn, _ = search.ESTIMATORS[estimator]
        dtc, tgt = self.datetime_column, self.target
        keys = self._keys  # property; [_GLOBAL_KEY] for unkeyed frames
        state = fit_fn(self._flush(), keys, dtc, tgt, **params)
        future = self.make_future_frame(periods, freq,
                                        include_history=include_history,
                                        apply_plan=False)
        return score_fn(future.dataset, state, keys, dtc, tgt,
                        f"predicted_{tgt}")

    def cross_validate(self, estimator: str = "seasonal_mean",
                       grid: dict | None = None, n_splits: int = 3,
                       gap: int = 0, n_iter: int | None = None,
                       seed: int = 7):
        """Cross-validated parameter search over this frame's recorded
        pipeline — the reference's ``cross_validate`` + grid/random search
        drivers (``model.py:319-513, 1313-1417``) with the engine's
        pluggable ``(fit, score)`` estimator contract. Returns
        ``(results, best_params)``; pass ``n_iter`` for random search."""
        from forecastframe_ray.pipelines import search
        return search.search_cv(self, grid=grid, estimator=estimator,
                                n_splits=n_splits, gap=gap, n_iter=n_iter,
                                seed=seed)

    # ------------------------------------------------------------------
    # persistence + replay (S2/S3, §3.3)
    # ------------------------------------------------------------------

    def save(self, path: str):
        """Parquet + JSON-manifest persistence (the no-pickle analog of
        ``save_fframe``, io.py:9-24)."""
        from forecastframe_ray import io as _io
        _io.save_frame(self, path)
        return self

    @classmethod
    def load(cls, path: str) -> "RayForecastFrame":
        from forecastframe_ray import io as _io
        return _io.load_frame(path)

    def replay(self, data, num_partitions: int | None = None) -> "RayForecastFrame":
        """Apply this frame's recorded scaler + feature plan to new data
        (the reference's record/replay, model.py:550-628)."""
        from forecastframe_ray import io as _io
        return _io.replay(self, data, num_partitions)

    def _get_covariates(self) -> list[str]:
        """All non-hierarchy, non-datetime columns (utilities.py:215-224)."""
        drop = set(self._keys) | {self.datetime_column, _GLOBAL_KEY}
        return [c for c in self.dataset.schema().names if c not in drop]
