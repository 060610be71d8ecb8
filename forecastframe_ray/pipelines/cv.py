"""Leakage-safe time-series cross-validation folds (SURVEY.md §3.4; the
data-engine half of the reference's ``cross_validate`` —
``/root/reference/forecastframe/model.py:202-316, 654-714``; model fitting
itself is out of engine scope).

Fold mechanics re-expressed distributed:

1. fold boundaries from the **distinct sorted dates** (driver-side — the
   date list is tiny) with expanding train windows and an optional ``gap``,
   mirroring sklearn ``TimeSeriesSplit`` semantics at date granularity
   (documented divergence: the reference splits raw row positions of the
   time-sorted frame, model.py:243-247, which can cut a date in half —
   date-granular folds are the deterministic, distribution-friendly form);
2. per fold: scalers are FIT ON TRAIN ONLY (global aggregates over the
   train filter) and applied to both slices (model.py:664);
3. test targets are MASKED to NaN before the shared feature replay, so
   test-row features see train actuals and their own lags but never test
   actuals (model.py:673-686, pinned by the reference's leakage test
   tests/test_model.py:122-149);
4. actuals are restored afterwards via the broadcast coalesce
   (``_update_values``, utilities.py:189-211).
"""

from __future__ import annotations

import numpy as np
import pandas as pd

#: max test-actuals rows collected driver-side for the restore broadcast;
#: above this the restore runs as a distributed coalesce join (hash_update)
PATCH_BROADCAST_ROWS = 2_000_000


def time_series_folds(dates: list, n_splits: int, gap: int = 0) -> list[dict]:
    """Expanding-window folds over sorted distinct dates: test blocks are
    the last ``n_splits`` equal chunks, each trained on everything up to
    ``gap`` dates before the block (sklearn TimeSeriesSplit shape)."""
    dates = sorted(pd.to_datetime(d) for d in dates)
    n = len(dates)
    test_size = n // (n_splits + 1)
    assert test_size > 0, "not enough distinct dates for n_splits"
    folds = []
    for i in range(n_splits):
        test_start_ix = n - (n_splits - i) * test_size
        train_end_ix = test_start_ix - gap
        assert train_end_ix > 0, "gap leaves an empty train window"
        folds.append({
            "train_end": dates[train_end_ix - 1],
            "test_start": dates[test_start_ix],
            "test_end": dates[min(test_start_ix + test_size, n) - 1],
        })
    return folds


def fold_frames(fr, n_splits: int, gap: int = 0, restore_actuals: bool = True):
    """Yield ``(fold, RayForecastFrame)`` per fold: the frame holds
    train+test rows with the recorded scaler + feature plan replayed
    leakage-safe (test targets masked during replay). The test slice is the
    rows with ``fold["test_start"] <= ts <= fold["test_end"]``."""
    from forecastframe_ray.functions import scalers as S
    from forecastframe_ray.stages.agg import distinct_values

    dtc, tgt = fr.datetime_column, fr.target
    base = fr.dataset
    # the frame applies scalers eagerly; folds must re-fit from RAW data
    # (the reference's self.data stays raw and each fold scales a copy,
    # model.py:654-714) — invert the recorded transforms first
    if fr.transforms:
        base = S.apply_transform_dict(base, fr.transforms, inverse=True)
    base = base.materialize()
    dates = distinct_values(base, [dtc])[dtc]

    from forecastframe_ray.frame import RayForecastFrame

    keys = (fr.hierarchy or []) + [dtc]
    for fold in time_series_folds(dates, n_splits, gap):
        train_end, t0, t1 = fold["train_end"], fold["test_start"], fold["test_end"]

        def slice_fn(b: pd.DataFrame, train_end=train_end, t0=t0, t1=t1
                     ) -> pd.DataFrame:
            ts = b[dtc]
            b = b.loc[(ts <= train_end) | ((ts >= t0) & (ts <= t1))].copy()
            b["__is_test"] = b[dtc] >= t0
            return b

        sliced = base.map_batches(slice_fn, batch_format="pandas")

        # scalers: FIT ON TRAIN ONLY (model.py:664), applied to train+test
        # via the fitted constants (_apply_transform_dict)
        transform_dict: dict = {}
        if fr.scalers_list:
            train = sliced.map_batches(
                lambda b: b[~b["__is_test"]], batch_format="pandas").materialize()
            for name, kwargs in fr.scalers_list:
                feats = kwargs["features"]
                if name == "log1p":
                    params = {"features": feats}
                elif name == "standardize":
                    params = S.fit_standardize(train, feats)
                elif name == "normalize":
                    params = S.fit_normalize(train, feats)
                else:
                    raise ValueError(name)
                train = S.apply_transform_dict(train, {name: params}).materialize()
                transform_dict[name] = params
            sliced = S.apply_transform_dict(sliced, transform_dict)

        if restore_actuals:
            # capture SCALED test actuals before masking (model.py:673-680);
            # the slice is keys+target only, but at scale it is a sizeable
            # fraction of the data — above the broadcast threshold it stays
            # a Dataset and restores via a distributed coalesce join
            patch_ds = sliced.map_batches(
                lambda b: b.loc[b["__is_test"], keys + [tgt]],
                batch_format="pandas").materialize()
            patch = (patch_ds.to_pandas()
                     if patch_ds.count() <= PATCH_BROADCAST_ROWS else None)

        def mask_fn(b: pd.DataFrame) -> pd.DataFrame:
            b = b.copy()
            b.loc[b["__is_test"], tgt] = np.nan
            return b

        masked = sliced.map_batches(mask_fn, batch_format="pandas")
        out = RayForecastFrame(masked, dtc, tgt, fr.hierarchy,
                               num_partitions=fr.num_partitions)
        out.transforms = transform_dict
        # feature plan replays on the scaled, masked union (test-row features
        # see train actuals + own lags, never test actuals)
        for name, kwargs in fr.function_list:
            getattr(out, name)(**kwargs)

        if restore_actuals:
            if patch is not None:
                out.update_values(patch)
            else:
                from forecastframe_ray.stages.join import hash_update
                out._ds = hash_update(out.dataset, patch_ds, on=keys,
                                      num_partitions=out.num_partitions)
        yield fold, out
