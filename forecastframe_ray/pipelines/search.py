"""Grid / random-search cross-validation driver — the data-side of the
reference's hyperparameter search (`/root/reference/forecastframe/model.py:
319-513` grid/random search + premade grids, `model.py:1313-1417`
predict/cross_validate drivers, best-pick by ``rmse.idxmin`` at
`model.py:1110`). Estimator FITTING is out of engine scope (no
LightGBM/Prophet in this container); the pluggable contract is a
``(fit, score)`` pair where

- ``fit(train_ds, keys, dtc, target, **params) -> state`` runs distributed
  aggregates over the TRAIN slice only and returns a small driver-side
  state (the reference's fitted model object), and
- ``score(ds, state, keys, dtc, target, out_col) -> ds`` appends the
  prediction column via a broadcast merge / actor-pool stage.

``ESTIMATORS`` registers fifteen such pairs: the deterministic
seasonal-mean family the scorer hook uses
(``frame.calc_ensemble_predictions``), parameterized by ``season``
(``dow``/``dom``/``none``) and ``blend`` (mixing weight toward the
per-series global mean); linear and Fourier trends; SES, Holt, damped
Holt, Holt-Winters and Theta; Croston, Croston-SBA and TSB for
intermittent demand; Naive2, seasonal-naive and drift; and a histogram
gradient-boosted regressor (``gbm``). Another model drops into the same
plan.

Fold mechanics come from :mod:`forecastframe_ray.pipelines.cv` (leakage-safe
scaler refit + masked feature replay + restored actuals). Folds are built
ONCE and shared across every parameter candidate — features do not depend
on estimator params, so re-running the replay per candidate (what a naive
port would do) would multiply the dominant cost by the grid size.
"""

from __future__ import annotations

import itertools

import numpy as np
import pandas as pd


# ---------------------------------------------------------------------------
# estimator registry (fit/score pairs)
# ---------------------------------------------------------------------------

_SEASON_FNS = {
    "dow": lambda s: s.dt.dayofweek.astype("int32"),
    "dom": lambda s: s.dt.day.astype("int32"),
    "none": lambda s: pd.Series(np.zeros(len(s), dtype="int32"),
                                index=s.index),
}


def fit_seasonal_mean(train_ds, keys: list[str], dtc: str, target: str,
                      season: str = "dow", blend: float = 0.0) -> dict:
    """Distributed fit: per-(series, season-bucket) mean + per-series global
    mean over the train slice. Both aggregates are coarse-hash shuffles of
    pre-reduced rows; the returned state is (n_series × season-cardinality)
    rows — small by construction, broadcast once at score time."""
    from forecastframe_ray.stages.agg import hash_aggregate

    sf = _SEASON_FNS[season]

    def add_season(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__season"] = sf(b[dtc])
        return b

    with_season = train_ds.map_batches(add_season, batch_format="pandas")
    seasonal = hash_aggregate(with_season, keys + ["__season"],
                              {"__spred": (target, "mean")}).to_pandas()
    overall = hash_aggregate(train_ds, keys,
                             {"__gpred": (target, "mean")}).to_pandas()
    return {"season": season, "blend": float(blend),
            "seasonal": seasonal, "global": overall}


def score_seasonal_mean(ds, state: dict, keys: list[str], dtc: str,
                        target: str, out_col: str):
    """Broadcast-merge scorer: pred = (1-blend)·seasonal + blend·global,
    falling back to the global mean for unseen season buckets."""
    import ray

    sf = _SEASON_FNS[state["season"]]
    blend = state["blend"]
    ref = ray.put((state["seasonal"], state["global"]))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        seasonal, overall = ray.get(ref)
        b = b.copy()
        b["__season"] = sf(b[dtc])
        m = b.merge(seasonal, how="left", on=keys + ["__season"]) \
             .merge(overall, how="left", on=keys)
        sp = m["__spred"].fillna(m["__gpred"])
        b[out_col] = ((1.0 - blend) * sp + blend * m["__gpred"]).to_numpy()
        return b.drop(columns=["__season"])

    return ds.map_batches(score, batch_format="pandas")


_DAY_US = 86_400_000_000


def _day_numbers(s: pd.Series) -> np.ndarray:
    """Integer day index (days since 1970-01-01) — exact int64 arithmetic so
    the engine and the DuckDB oracle (``epoch_us(d) // 86400000000``) agree
    bit-for-bit before any float enters the computation."""
    return (s.astype("datetime64[us]").astype("int64") // _DAY_US).to_numpy()


def fit_linear_trend(train_ds, keys: list[str], dtc: str, target: str,
                     l2: float = 0.0, floor: float | None = None) -> dict:
    """A REAL fitted estimator (not a lookup table): per-series ordinary
    least squares of the target on the day index, with optional L2 damping
    of the slope (ridge with the intercept unpenalized) — the engine-native
    analog of the reference's per-group model fit
    (``calc_prophet_predictions``, feature_engineering.py:943-985, and the
    ``fit`` driver, model.py:802-953).

    Distributed plan: (1) per-series min day (tiny aggregate) so x is
    CENTERED per series — keeps every cross-product sum small enough that
    summation-order float noise stays far below the round-6 oracle
    tolerance; (2) per-batch pre-reduced partial sums (n, Σx, Σy, Σx², Σxy)
    → one coarse-hash sum aggregate; (3) the 2×2 solve is vectorized on the
    (n_series)-row driver table. Rows never leave the cluster; the fitted
    state is O(series count).

    slope = (Σxy − ΣxΣy/n) / (Σx² − (Σx)²/n + l2), intercept = ȳ − slope·x̄
    (x relative to the per-series base day). Degenerate series (one distinct
    day, l2=0) fall back to slope=0 / intercept=mean.
    """
    from forecastframe_ray.stages.agg import hash_aggregate

    l2 = float(l2)

    def drop_null(b: pd.DataFrame) -> pd.DataFrame:
        return b[b[target].notna()]

    clean = train_ds.map_batches(drop_null, batch_format="pandas")
    base = hash_aggregate(
        clean.map_batches(
            lambda b: b[keys].assign(__dn=_day_numbers(b[dtc])),
            batch_format="pandas"),
        keys, {"__base": ("__dn", "min")}).to_pandas()
    import ray
    base_ref = ray.put(base)

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        # per-batch combiner: pre-reduced sums per series, so the shuffle
        # ships O(series × batches) rows, never O(rows)
        m = b[keys].copy()
        m["__dn"] = _day_numbers(b[dtc])
        m = m.merge(ray.get(base_ref), how="left", on=keys)
        x = (m["__dn"] - m["__base"]).to_numpy(dtype=np.float64)
        v = b[target].to_numpy(dtype=np.float64)
        m["__n"], m["__sx"], m["__sy"] = 1.0, x, v
        m["__sxx"], m["__sxy"] = x * x, x * v
        return (m.groupby(keys, sort=False, dropna=False, observed=True)
                 [["__n", "__sx", "__sy", "__sxx", "__sxy"]]
                 .sum().reset_index())

    sums = hash_aggregate(
        clean.map_batches(partials, batch_format="pandas"), keys,
        {c: (c, "sum") for c in ("__n", "__sx", "__sy", "__sxx", "__sxy")}
    ).to_pandas().merge(base, on=keys)
    n = sums["__n"].to_numpy()
    sx, sy = sums["__sx"].to_numpy(), sums["__sy"].to_numpy()
    sxx, sxy = sums["__sxx"].to_numpy(), sums["__sxy"].to_numpy()
    den = sxx - sx * sx / n + l2
    slope = np.where(den == 0.0, 0.0, (sxy - sx * sy / n)
                     / np.where(den == 0.0, 1.0, den))
    model = sums[keys + ["__base"]].copy()
    model["__slope"] = slope
    model["__icept"] = sy / n - slope * (sx / n)
    return {"l2": l2, "floor": floor, "model": model}


def score_linear_trend(ds, state: dict, keys: list[str], dtc: str,
                       target: str, out_col: str):
    """Broadcast-merge scorer: pred = intercept + slope·(day − base), with
    the optional score-time ``floor`` clamp (e.g. 0 for count series).
    Series unseen at fit time score NaN (null-masked by the metrics)."""
    import ray

    floor = state.get("floor")
    ref = ray.put(state["model"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        m = b[keys].copy()
        m["__dn"] = _day_numbers(b[dtc])
        m = m.merge(ray.get(ref), how="left", on=keys)
        x = (m["__dn"] - m["__base"]).to_numpy(dtype=np.float64)
        pred = m["__icept"].to_numpy() + m["__slope"].to_numpy() * x
        if floor is not None:
            pred = np.maximum(pred, float(floor))
        b[out_col] = pred
        return b

    return ds.map_batches(score, batch_format="pandas")


def _fourier_design(dow: np.ndarray, order: int) -> np.ndarray:
    """(n, 1+2·order) weekly-harmonic design:
    [1, cos(2πk·dow/7), sin(2πk·dow/7)] for k = 1..order."""
    cols = [np.ones(len(dow), dtype=np.float64)]
    ang = 2.0 * np.pi * np.asarray(dow, dtype=np.float64) / 7.0
    for k in range(1, order + 1):
        cols.append(np.cos(k * ang))
        cols.append(np.sin(k * ang))
    return np.stack(cols, axis=1)


def fit_fourier(train_ds, keys: list[str], dtc: str, target: str,
                order: int = 3, trend: bool = False, l2: float = 0.0) -> dict:
    """Prophet-style additive model per series — weekly Fourier seasonality
    plus an optional linear trend, fit by distributed normal equations (the
    real-regression analog of the reference's per-group Prophet feature,
    ``calc_prophet_predictions`` feature_engineering.py:943-985).

    The weekly design depends on a row only through its day-of-week (7
    values), so the normal equations collapse to per-(series, dow)
    sufficient statistics: ``n, Σy`` — plus ``Σdn, Σdn², Σdn·y`` (dn =
    integer day number, summed in EXACT int64) when ``trend`` is on. One
    coarse-hash aggregate ships O(series × 7) rows to the driver; trend
    columns are centered algebraically on the per-series min day; the
    per-series (1+2·order[+1])² gram systems are solved in one batched
    ``np.linalg.pinv`` (projection well-defined even for series missing
    some weekdays). With ``order=3, trend=False, l2=0`` the design spans
    the full dow-indicator space, so OLS fitted values equal per-dow
    conditional means — the property the SQL oracle checks exactly.

    ``l2`` ridge-damps every non-intercept coefficient (fit-time only).
    """
    from forecastframe_ray.stages.agg import hash_aggregate

    order, trend, l2 = int(order), bool(trend), float(l2)
    p = 1 + 2 * order + (1 if trend else 0)

    def partials(b: pd.DataFrame) -> pd.DataFrame:
        b = b[b[target].notna()]
        m = b[keys].copy()
        m["__dow"] = b[dtc].dt.dayofweek.astype("int64")
        y = b[target].to_numpy(dtype=np.float64)
        m["__n"], m["__sy"] = np.int64(1), y
        if trend:
            dn = _day_numbers(b[dtc])
            m["__sdn"], m["__sdn2"] = dn, dn * dn  # int64-exact sums
            m["__sdny"] = dn.astype(np.float64) * y
        cols = [c for c in m.columns if c.startswith("__s") or c == "__n"]
        return (m.groupby(keys + ["__dow"], sort=False, dropna=False,
                          observed=True)[cols].sum().reset_index())

    aggs = {"__n": ("__n", "sum"), "__sy": ("__sy", "sum")}
    if trend:
        aggs.update({"__sdn": ("__sdn", "sum"), "__sdn2": ("__sdn2", "sum"),
                     "__sdny": ("__sdny", "sum")})
    stats = hash_aggregate(
        train_ds.map_batches(partials, batch_format="pandas"),
        keys + ["__dow"], aggs).to_pandas()

    # driver-side batched solve over the (series × ≤7)-row stats table
    skey = stats[keys].astype(str).agg("\x00".join, axis=1).to_numpy() \
        if len(keys) > 1 else stats[keys[0]].to_numpy()
    codes, uidx = pd.factorize(skey, sort=False)
    S = len(uidx)
    dow = stats["__dow"].to_numpy(np.int64)
    n = stats["__n"].to_numpy(np.float64)
    sy = stats["__sy"].to_numpy(np.float64)
    X7 = _fourier_design(dow, order)          # (rows, 1+2·order)
    A = np.zeros((S, p, p))
    rhs = np.zeros((S, p))
    pf = 1 + 2 * order
    # Fourier block: Σ x xᵀ weighted by per-(series,dow) counts
    np.add.at(A, (codes, slice(0, pf), slice(0, pf)),
              n[:, None, None] * (X7[:, :, None] * X7[:, None, :]))
    np.add.at(rhs, (codes, slice(0, pf)), sy[:, None] * X7)
    base = np.zeros(S, dtype=np.int64)
    if trend:
        sdn = stats["__sdn"].to_numpy(np.int64)
        sdn2 = stats["__sdn2"].to_numpy(np.int64)
        sdny = stats["__sdny"].to_numpy(np.float64)
        # per-series base day (min mean-day proxy: exact min over dows of
        # floor(Σdn/n) is not the true min; use int floor of the smallest
        # per-(series,dow) mean — centering only needs a nearby constant,
        # exactness comes from the int64 algebra below)
        mean_dn = sdn // np.maximum(stats["__n"].to_numpy(np.int64), 1)
        bmin = pd.Series(mean_dn).groupby(codes).min().to_numpy(np.int64)
        base = bmin
        b_ = base[codes]
        nn = stats["__n"].to_numpy(np.int64)
        st = (sdn - b_ * nn).astype(np.float64)              # Σt (exact)
        st2 = (sdn2 - 2 * b_ * sdn + nn * b_ * b_).astype(np.float64)
        sty = sdny - b_.astype(np.float64) * sy              # Σt·y
        np.add.at(A, (codes, slice(0, pf), pf),
                  st[:, None] * X7)                          # Σ t·x_j
        np.add.at(A, (codes, pf, slice(0, pf)), st[:, None] * X7)
        np.add.at(A, (codes, pf, pf), st2)
        np.add.at(rhs, (codes, pf), sty)
    if l2 > 0.0:
        ridge = np.eye(p) * l2
        ridge[0, 0] = 0.0  # intercept unpenalized
        A = A + ridge
    coef = np.einsum("spq,sq->sp", np.linalg.pinv(A), rhs)
    model = pd.DataFrame(dict(zip(
        keys, (stats[k].to_numpy()[np.unique(codes, return_index=True)[1]]
               for k in keys))))
    model["__base"] = base
    for j in range(p):
        model[f"__c{j}"] = coef[:, j]
    return {"order": order, "trend": trend, "l2": l2, "model": model}


def fourier_score_frame(b: pd.DataFrame, model: pd.DataFrame,
                        keys: list[str], dtc: str, out_col: str,
                        order: int, trend: bool) -> pd.DataFrame:
    """Score one batch against a fitted fourier model table (the single
    source of the scoring math — used by :func:`score_fourier` and the
    frame's actor-pool ensemble hook so the two can never diverge):
    pred = Σⱼ cⱼ·xⱼ(dow[, t]). Series unseen at fit time score NaN."""
    b = b.copy()
    pf = 1 + 2 * order
    m = b[keys].copy()
    m["__dow"] = b[dtc].dt.dayofweek.astype("int64")
    m = m.merge(model, how="left", on=keys)
    X = _fourier_design(m["__dow"].to_numpy(np.int64), order)
    C = m[[f"__c{j}" for j in range(pf)]].to_numpy(np.float64)
    pred = (X * C).sum(axis=1)
    if trend:
        t = _day_numbers(b[dtc]).astype(np.float64) \
            - m["__base"].to_numpy(np.float64)
        pred = pred + m[f"__c{pf}"].to_numpy(np.float64) * t
    b[out_col] = pred
    return b


def score_fourier(ds, state: dict, keys: list[str], dtc: str,
                  target: str, out_col: str):
    """Broadcast-merge scorer over :func:`fourier_score_frame`."""
    import ray

    order, trend = state["order"], state["trend"]
    ref = ray.put(state["model"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        return fourier_score_frame(b, ray.get(ref), keys, dtc, out_col,
                                   order, trend)

    return ds.map_batches(score, batch_format="pandas")


def fit_holt(train_ds, keys: list[str], dtc: str, target: str,
             alpha: float = 0.5, beta: float = 0.3) -> dict:
    """Holt's linear-trend method (double exponential smoothing, public —
    Holt 1957/Hyndman fpp): per-series recursion

        l_t = α·y_t + (1−α)(l_{t−1} + b_{t−1})
        b_t = β(l_t − l_{t−1}) + (1−β)·b_{t−1}

    initialized l_1 = y_1, b_1 = y_2 − y_1 (b_1 = 0 for one-point series).
    The recursion is inherently sequential per series, so the fit runs as a
    key-co-located partition kernel (:func:`keyed_map_partitions`) with a
    per-series numpy loop over its (sorted) points — O(series length) per
    series, independent of corpus width; the same documented pattern as the
    Gorilla irregular-stream path. The fitted state is one (l_T, b_T,
    last_day) row per series — broadcast at score time; rows never reach
    the driver. Degenerate α=β=1 collapses to l_T = y_T, b_T = y_T − y_{T−1}
    — the closed form the SQL oracle gate checks; general (α, β) is pinned
    by pytest against a direct numpy recursion."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    alpha, beta = float(alpha), float(beta)

    def fit_part(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part[target].notna()]
        rows = []
        for kv, g in part.groupby(keys, sort=False, observed=True):
            g = g.sort_values(dtc)
            y = g[target].to_numpy(dtype=np.float64)
            dn = _day_numbers(g[dtc])
            level = y[0]
            trend = (y[1] - y[0]) if len(y) > 1 else 0.0
            for t in range(1, len(y)):
                prev = level
                level = alpha * y[t] + (1.0 - alpha) * (level + trend)
                trend = beta * (level - prev) + (1.0 - beta) * trend
            kv = kv if isinstance(kv, tuple) else (kv,)
            rows.append((*kv, level, trend, dn[-1]))
        return pd.DataFrame(rows, columns=keys
                            + ["__level", "__trend", "__lastdn"])

    model = keyed_map_partitions(
        train_ds, keys, fit_part).to_pandas()
    return {"alpha": alpha, "beta": beta, "model": model}


def score_holt(ds, state: dict, keys: list[str], dtc: str,
               target: str, out_col: str):
    """Broadcast-merge scorer: ŷ(T+h) = l_T + h·b_T with h = day gap from
    the series' last fitted day. Series unseen at fit time score NaN."""
    import ray

    ref = ray.put(state["model"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        m = b[keys].merge(ray.get(ref), how="left", on=keys)
        h = _day_numbers(b[dtc]).astype(np.float64) \
            - m["__lastdn"].to_numpy(np.float64)
        b[out_col] = m["__level"].to_numpy(np.float64) \
            + h * m["__trend"].to_numpy(np.float64)
        return b

    return ds.map_batches(score, batch_format="pandas")


def fit_ses(train_ds, keys: list[str], dtc: str, target: str,
            alpha: float = 0.5) -> dict:
    """Simple exponential smoothing (public — Brown 1956/Hyndman fpp):
    ``l_t = α·y_t + (1−α)·l_{t−1}``, initialized ``l_1 = y_1``; the
    forecast is the flat level. Same distributed shape as
    :func:`fit_holt` (sequential per-series recursion in the
    key-co-located kernel, one state row per series). Degenerate α=1
    collapses to the naive last-value forecast — the SQL oracle gate."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    alpha = float(alpha)

    def fit_part(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part[target].notna()]
        rows = []
        for kv, g in part.groupby(keys, sort=False, observed=True):
            y = g.sort_values(dtc)[target].to_numpy(dtype=np.float64)
            level = y[0]
            for t in range(1, len(y)):
                level = alpha * y[t] + (1.0 - alpha) * level
            kv = kv if isinstance(kv, tuple) else (kv,)
            rows.append((*kv, level))
        return pd.DataFrame(rows, columns=keys + ["__level"])

    model = keyed_map_partitions(train_ds, keys, fit_part).to_pandas()
    return {"alpha": alpha, "model": model}


def score_ses(ds, state: dict, keys: list[str], dtc: str,
              target: str, out_col: str):
    """Flat-ahead SES forecast: the smoothed level for every scored row
    (NaN for series unseen at fit time)."""
    import ray

    ref = ray.put(state["model"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        m = b[keys].merge(ray.get(ref), how="left", on=keys)
        b[out_col] = m["__level"].to_numpy(np.float64)
        return b

    return ds.map_batches(score, batch_format="pandas")


def fit_croston(train_ds, keys: list[str], dtc: str, target: str,
                alpha: float = 0.1) -> dict:
    """Croston's method for INTERMITTENT demand (public — Croston 1972;
    the retail-forecasting staple for sparse series like the reference's
    M5 lineage): separate simple exponential smoothing over the nonzero
    demand SIZES q_i and over the inter-demand INTERVALS τ_i (in days),

        z_i = α·q_i + (1−α)·z_{i−1}   (init z_1 = q_1)
        p_i = α·τ_i + (1−α)·p_{i−1}   (init p_1 = τ_1)

    with the flat-ahead forecast ẑ/p̂. Zero-demand rows update nothing.
    Same distributed shape as :func:`fit_holt`: a key-co-located partition
    kernel runs the per-series recursion, the fitted state is one
    (ẑ, p̂) row per series. Degenerate α=1 collapses to z = last nonzero
    size, p = last interval — the SQL oracle gate; general α is
    pytest-pinned against a direct numpy recursion. Series with no nonzero
    demand forecast 0."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    alpha = float(alpha)

    def fit_part(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part[target].notna()]
        rows = []
        for kv, g in part.groupby(keys, sort=False, observed=True):
            g = g.sort_values(dtc)
            y = g[target].to_numpy(dtype=np.float64)
            dn = _day_numbers(g[dtc])
            nz = np.flatnonzero(y != 0.0)
            if len(nz) == 0:
                z, p = 0.0, np.nan
            else:
                q = y[nz]
                t = dn[nz].astype(np.float64)
                # first interval: from the series' first observed day
                tau = np.diff(np.concatenate(([float(dn[0]) - 1.0], t)))
                z, p = q[0], tau[0]
                for i in range(1, len(q)):
                    z = alpha * q[i] + (1.0 - alpha) * z
                    p = alpha * tau[i] + (1.0 - alpha) * p
            kv = kv if isinstance(kv, tuple) else (kv,)
            rows.append((*kv, z, p))
        return pd.DataFrame(rows, columns=keys + ["__size", "__interval"])

    model = keyed_map_partitions(train_ds, keys, fit_part).to_pandas()
    return {"alpha": alpha, "model": model}


def score_croston(ds, state: dict, keys: list[str], dtc: str,
                  target: str, out_col: str):
    """Flat-ahead Croston rate forecast: ẑ/p̂ per series for every scored
    row (0 for all-zero series; NaN for series unseen at fit time)."""
    import ray

    ref = ray.put(state["model"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        m = b[keys].merge(ray.get(ref), how="left", on=keys)
        z = m["__size"].to_numpy(np.float64)
        p = m["__interval"].to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            pred = np.where(z == 0.0, 0.0, z / p)
        # unseen series: merge produced NaN size -> keep NaN
        pred = np.where(np.isnan(z), np.nan, pred)
        b[out_col] = pred
        return b

    return ds.map_batches(score, batch_format="pandas")


def fit_naive2(train_ds, keys: list[str], dtc: str, target: str,
               period: int = 7) -> dict:
    """Naive2 (M-competition benchmark — public): multiplicative
    ROW-seasonal indices ``s_i = mean(y at pos ≡ i) / grand mean``
    (zero-mean slots guard to 1), forecast = last DESEASONALIZED value
    re-seasonalized at the target slot. Deterministic given the index
    definition — fully SQL-expressible, no degenerate gate needed. Same
    distributed shape as the other sequential fits (keyed co-located
    kernel, one state row per series)."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    m = int(period)
    s_cols = [f"__s{i}" for i in range(m)]

    def fit_part(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part[target].notna()]
        rows = []
        for kv, g in part.groupby(keys, sort=False, observed=True):
            g = g.sort_values(dtc)
            y = g[target].to_numpy(dtype=np.float64)
            dn = _day_numbers(g[dtc])
            n = len(y)
            pos = np.arange(n) % m
            gm = float(y.mean())
            s = np.ones(m, dtype=np.float64)
            if gm != 0:
                for i in range(m):
                    yi = y[pos == i]
                    if len(yi):
                        si = float(yi.mean()) / gm
                        s[i] = si if si != 0 else 1.0
            z_last = y[-1] / s[(n - 1) % m]
            kv = kv if isinstance(kv, tuple) else (kv,)
            rows.append((*kv, z_last, *s, dn[-1], n))
        return pd.DataFrame(rows, columns=keys + ["__z"] + s_cols
                            + ["__lastdn", "__n"])

    model = keyed_map_partitions(train_ds, keys, fit_part).to_pandas()
    return {"period": m, "model": model}


def score_naive2(ds, state: dict, keys: list[str], dtc: str,
                 target: str, out_col: str):
    """Naive2 scorer: ŷ(T+h) = z_T · s_{(n−1+h) mod m} with h = day gap
    from the series' last fitted day (ROW-seasonality). Unseen series
    score NaN."""
    import ray

    m = int(state["period"])
    ref = ray.put(state["model"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        mm = b[keys].merge(ray.get(ref), how="left", on=keys)
        h = _day_numbers(b[dtc]).astype(np.float64) \
            - mm["__lastdn"].to_numpy(np.float64)
        six = (mm["__n"].to_numpy(np.float64) - 1.0 + h) % m
        smat = mm[[f"__s{i}" for i in range(m)]].to_numpy(np.float64)
        valid = ~np.isnan(six)
        seas = np.full(len(b), np.nan)
        if valid.any():
            seas[valid] = smat[np.flatnonzero(valid),
                               six[valid].astype(np.int64)]
        b[out_col] = mm["__z"].to_numpy(np.float64) * seas
        return b

    return ds.map_batches(score, batch_format="pandas")


def fit_seasonal_naive(train_ds, keys: list[str], dtc: str, target: str,
                       period: int = 7) -> dict:
    """Seasonal naive baseline (FPP3 §5.2 — public): forecast = the most
    recent observation with the same seasonal phase (``day_number mod
    period``; period 7 = same weekday last week). State: one row per
    (series, phase) — the phase's latest value — found by a vectorized
    sort + drop-duplicates inside the key-co-located partition kernel."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    period = int(period)

    def fit_part(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part[target].notna()].copy()
        dn = _day_numbers(part[dtc])
        part["__dn"] = dn
        part["__phase"] = dn % period
        part = part.sort_values("__dn")
        last = part.drop_duplicates([*keys, "__phase"], keep="last")
        out = last[[*keys, "__phase"]].copy()
        out["__value"] = last[target].to_numpy(np.float64)
        return out

    model = keyed_map_partitions(train_ds, keys, fit_part).to_pandas()
    return {"period": period, "model": model}


def score_seasonal_naive(ds, state: dict, keys: list[str], dtc: str,
                         target: str, out_col: str):
    """Broadcast-merge scorer on (series, phase); phases never observed at
    fit time (or unseen series) score NaN."""
    import ray

    period = state["period"]
    ref = ray.put(state["model"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        b["__phase"] = _day_numbers(b[dtc]) % period
        m = b[[*keys, "__phase"]].merge(ray.get(ref), how="left",
                                        on=[*keys, "__phase"])
        b[out_col] = m["__value"].to_numpy(np.float64)
        return b.drop(columns=["__phase"])

    return ds.map_batches(score, batch_format="pandas")


def fit_drift(train_ds, keys: list[str], dtc: str, target: str) -> dict:
    """Drift-method baseline (FPP3 §5.2 — public): the naive forecast plus
    the average historical change, ŷ(T+h) = y_T + h·(y_T − y_1)/(T−1)
    in day units. State: one (first, last) observation pair per series."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    def fit_part(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part[target].notna()].copy()
        part["__dn"] = _day_numbers(part[dtc])
        part = part.sort_values("__dn")
        first = part.drop_duplicates(keys, keep="first")
        last = part.drop_duplicates(keys, keep="last")
        out = first[[*keys]].copy()
        out["__y0"] = first[target].to_numpy(np.float64)
        out["__dn0"] = first["__dn"].to_numpy(np.float64)
        lastk = last.set_index(keys)
        idx = pd.MultiIndex.from_frame(out[keys]) if len(keys) > 1 \
            else out[keys[0]]
        out["__y1"] = lastk.loc[idx, target].to_numpy(np.float64)
        out["__dn1"] = lastk.loc[idx, "__dn"].to_numpy(np.float64)
        return out

    model = keyed_map_partitions(train_ds, keys, fit_part).to_pandas()
    return {"model": model}


def score_drift(ds, state: dict, keys: list[str], dtc: str,
                target: str, out_col: str):
    """ŷ at day t = y_last + (t − dn_last)·slope, slope = (y_last − y_first)
    / (dn_last − dn_first); single-observation series extrapolate flat."""
    import ray

    ref = ray.put(state["model"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        m = b[keys].merge(ray.get(ref), how="left", on=keys)
        span = m["__dn1"].to_numpy(np.float64) - m["__dn0"].to_numpy(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            slope = np.where(span > 0,
                             (m["__y1"].to_numpy(np.float64)
                              - m["__y0"].to_numpy(np.float64))
                             / np.where(span > 0, span, 1.0), 0.0)
        # unseen series: keep NaN from the merge
        slope = np.where(np.isnan(m["__y1"].to_numpy(np.float64)),
                         np.nan, slope)
        h = _day_numbers(b[dtc]).astype(np.float64) \
            - m["__dn1"].to_numpy(np.float64)
        b[out_col] = m["__y1"].to_numpy(np.float64) + h * slope
        return b

    return ds.map_batches(score, batch_format="pandas")


def score_croston_sba(ds, state: dict, keys: list[str], dtc: str,
                      target: str, out_col: str):
    """Syntetos-Boylan Approximation (2005 — public): Croston's rate
    forecast is biased high; SBA multiplies it by ``(1 − α/2)``. Shares
    :func:`fit_croston`'s fitted state; only the scorer differs."""
    scored = score_croston(ds, state, keys, dtc, target, out_col)
    factor = 1.0 - state["alpha"] / 2.0

    def debias(b: pd.DataFrame) -> pd.DataFrame:
        b[out_col] = b[out_col].to_numpy(np.float64) * factor
        return b

    return scored.map_batches(debias, batch_format="pandas")


def fit_theta(train_ds, keys: list[str], dtc: str, target: str,
              alpha: float = 0.5) -> dict:
    """The Theta method (Assimakopoulos & Nikolopoulos 2000 — the M3
    competition winner; public): decompose each series into the θ=0 line
    (the per-series OLS trend, computed in CENTERED coordinates so no
    giant epoch-day intermediates cancel) and the θ=2 line
    ``2·y_t − theta0_t``; run simple exponential smoothing over θ=2; the
    forecast is the equal-weight combination

        ŷ(T+h) = ½·[ȳ + b·(t_{T+h} − t̄)] + ½·L_T.

    Same distributed shape as :func:`fit_holt`: the SES recursion is
    inherently sequential per series, so the fit is a key-co-located
    partition kernel; the state is one (t̄, ȳ, b, L) row per series.
    Degenerate α=1 collapses L_T to ``2·y_T − theta0_T`` — the SQL oracle
    gate; general α is pytest-pinned against a direct numpy recursion."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    alpha = float(alpha)

    def fit_part(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part[target].notna()]
        rows = []
        for kv, g in part.groupby(keys, sort=False, observed=True):
            g = g.sort_values(dtc)
            y = g[target].to_numpy(dtype=np.float64)
            t = _day_numbers(g[dtc]).astype(np.float64)
            mx, my = t.mean(), y.mean()
            tc = t - mx
            sxx = (tc * tc).sum()
            b = ((tc * (y - my)).sum() / sxx) if sxx > 0 else 0.0
            theta2 = 2.0 * y - (my + b * tc)
            level = theta2[0]
            for i in range(1, len(theta2)):
                level = alpha * theta2[i] + (1.0 - alpha) * level
            kv = kv if isinstance(kv, tuple) else (kv,)
            rows.append((*kv, mx, my, b, level))
        return pd.DataFrame(rows, columns=keys
                            + ["__mx", "__my", "__slope", "__level"])

    model = keyed_map_partitions(train_ds, keys, fit_part).to_pandas()
    return {"alpha": alpha, "model": model}


def score_theta(ds, state: dict, keys: list[str], dtc: str,
                target: str, out_col: str):
    """Broadcast-merge Theta scorer: ½·trend-line extrapolation +
    ½·smoothed θ=2 level. Series unseen at fit time score NaN."""
    import ray

    ref = ray.put(state["model"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        m = b[keys].merge(ray.get(ref), how="left", on=keys)
        t = _day_numbers(b[dtc]).astype(np.float64)
        line = m["__my"].to_numpy(np.float64) \
            + m["__slope"].to_numpy(np.float64) \
            * (t - m["__mx"].to_numpy(np.float64))
        b[out_col] = 0.5 * line + 0.5 * m["__level"].to_numpy(np.float64)
        return b

    return ds.map_batches(score, batch_format="pandas")


def fit_holt_winters(train_ds, keys: list[str], dtc: str, target: str,
                     alpha: float = 0.3, beta: float = 0.1,
                     gamma: float = 0.1, period: int = 7) -> dict:
    """Holt-Winters ADDITIVE triple exponential smoothing (public —
    Winters 1960 / Hyndman fpp §8.3), ROW-seasonality of ``period`` (the
    same row-lag convention as the seasonal-naive baseline):

        l_t = α(y_t − s_{t−m}) + (1−α)(l_{t−1} + b_{t−1})
        b_t = β(l_t − l_{t−1}) + (1−β)·b_{t−1}
        s_t = γ(y_t − l_{t−1} − b_{t−1}) + (1−γ)·s_{t−m}

    initialized fpp-style: l = mean of the first (≤m) rows, s_i = y_i − l
    over the first season (missing slots 0), b = (mean of the second
    season − mean of the first) / m when >m rows exist, else 0. Same
    distributed shape as :func:`fit_holt` (sequential per-series recursion
    in the key-co-located kernel, one state row per series — level, trend,
    the m seasonal slots, last day, row count). Degenerate α=1, β=0, γ=0
    freezes b and s at their initials and collapses the level to
    ``y_T − s_{(T mod m)}`` — the closed form the SQL oracle gate checks;
    general (α, β, γ) is pinned by pytest against a direct numpy
    recursion."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    alpha, beta, gamma = float(alpha), float(beta), float(gamma)
    m = int(period)
    s_cols = [f"__s{i}" for i in range(m)]

    def fit_part(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part[target].notna()]
        rows = []
        for kv, g in part.groupby(keys, sort=False, observed=True):
            g = g.sort_values(dtc)
            y = g[target].to_numpy(dtype=np.float64)
            dn = _day_numbers(g[dtc])
            n = len(y)
            m_eff = min(m, n)
            level = float(np.mean(y[:m_eff]))
            s = np.zeros(m, dtype=np.float64)
            s[:m_eff] = y[:m_eff] - level
            trend = ((float(np.mean(y[m:min(2 * m, n)]))
                      - float(np.mean(y[:m]))) / m) if n > m else 0.0
            for t in range(m, n):
                prev_l, prev_b = level, trend
                level = alpha * (y[t] - s[t % m]) \
                    + (1.0 - alpha) * (prev_l + prev_b)
                trend = beta * (level - prev_l) + (1.0 - beta) * prev_b
                s[t % m] = gamma * (y[t] - prev_l - prev_b) \
                    + (1.0 - gamma) * s[t % m]
            kv = kv if isinstance(kv, tuple) else (kv,)
            rows.append((*kv, level, trend, *s, dn[-1], n))
        return pd.DataFrame(rows, columns=keys + ["__level", "__trend"]
                            + s_cols + ["__lastdn", "__n"])

    model = keyed_map_partitions(train_ds, keys, fit_part).to_pandas()
    return {"alpha": alpha, "beta": beta, "gamma": gamma, "period": m,
            "model": model}


def score_holt_winters(ds, state: dict, keys: list[str], dtc: str,
                       target: str, out_col: str):
    """Broadcast-merge HW scorer: ŷ(T+h) = l_T + h·b_T + s_{(n−1+h) mod m}
    with h = day gap from the series' last fitted day and n its fitted row
    count (ROW-seasonality). Series unseen at fit time score NaN."""
    import ray

    m = int(state["period"])
    ref = ray.put(state["model"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        mm = b[keys].merge(ray.get(ref), how="left", on=keys)
        h = _day_numbers(b[dtc]).astype(np.float64) \
            - mm["__lastdn"].to_numpy(np.float64)
        six = ((mm["__n"].to_numpy(np.float64) - 1.0 + h) % m)
        smat = mm[[f"__s{i}" for i in range(m)]].to_numpy(np.float64)
        # NaN-safe gather (unseen series -> NaN prediction)
        valid = ~np.isnan(six)
        seas = np.full(len(b), np.nan)
        if valid.any():
            seas[valid] = smat[np.flatnonzero(valid),
                               six[valid].astype(np.int64)]
        b[out_col] = mm["__level"].to_numpy(np.float64) \
            + h * mm["__trend"].to_numpy(np.float64) + seas
        return b

    return ds.map_batches(score, batch_format="pandas")


def fit_holt_damped(train_ds, keys: list[str], dtc: str, target: str,
                    alpha: float = 0.5, beta: float = 0.3,
                    phi: float = 0.9) -> dict:
    """Damped-trend Holt fit = the plain :func:`fit_holt` state plus the
    damping factor φ carried for the scorer (damping is a pure
    score-time transform, so ``phi`` is NOT in the fit params and CV
    candidates differing only in φ share one fit)."""
    state = fit_holt(train_ds, keys, dtc, target, alpha=alpha, beta=beta)
    state["phi"] = float(phi)
    return state


def score_holt_damped(ds, state: dict, keys: list[str], dtc: str,
                      target: str, out_col: str):
    """Damped-trend Holt scorer (Gardner & McKenzie 1985 — public; the
    fpp practical default): ŷ(T+h) = l_T + (φ + φ² + … + φʰ)·b_T =
    l_T + b_T·φ(1−φʰ)/(1−φ); φ=1 recovers plain Holt."""
    import ray

    phi = float(state.get("phi", 0.9))
    ref = ray.put(state["model"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        m = b[keys].merge(ray.get(ref), how="left", on=keys)
        h = _day_numbers(b[dtc]).astype(np.float64) \
            - m["__lastdn"].to_numpy(np.float64)
        if phi == 1.0:
            damp = h
        else:
            damp = phi * (1.0 - phi ** h) / (1.0 - phi)
        b[out_col] = m["__level"].to_numpy(np.float64) \
            + damp * m["__trend"].to_numpy(np.float64)
        return b

    return ds.map_batches(score, batch_format="pandas")


def fit_tsb(train_ds, keys: list[str], dtc: str, target: str,
            alpha: float = 0.1, beta: float = 0.1) -> dict:
    """TSB — Teunter, Syntetos & Babai 2011 (public): the intermittent-
    demand method that, unlike Croston, updates EVERY period so it tracks
    obsolescence (demand probability decays through zero stretches):

        p_t = β·1[y_t≠0] + (1−β)·p_{t−1}   (init p_1 = 1[y_1≠0])
        z_t = α·y_t + (1−α)·z_{t−1}        (nonzero periods only;
                                            init z = first nonzero size)

    with the flat-ahead forecast p̂·ẑ. All-zero series forecast 0. Same
    distributed shape as :func:`fit_croston` (key-co-located partition
    kernel, one (p̂, ẑ) state row per series). The α=1, β=½ degenerate
    (closed-form geometric weights over the demand indicators) is the SQL
    oracle gate; general (α, β) is pytest-pinned against a direct numpy
    recursion."""
    from forecastframe_ray.stages.agg import keyed_map_partitions

    alpha, beta = float(alpha), float(beta)

    def fit_part(part: pd.DataFrame) -> pd.DataFrame:
        part = part[part[target].notna()]
        rows = []
        for kv, g in part.groupby(keys, sort=False, observed=True):
            y = g.sort_values(dtc)[target].to_numpy(dtype=np.float64)
            ind = (y != 0.0).astype(np.float64)
            p = ind[0]
            for i in range(1, len(ind)):
                p = beta * ind[i] + (1.0 - beta) * p
            nz = np.flatnonzero(y != 0.0)
            if len(nz) == 0:
                z = 0.0
            else:
                z = y[nz[0]]
                for i in nz[1:]:
                    z = alpha * y[i] + (1.0 - alpha) * z
            kv = kv if isinstance(kv, tuple) else (kv,)
            rows.append((*kv, p, z))
        return pd.DataFrame(rows, columns=keys + ["__prob", "__size"])

    model = keyed_map_partitions(train_ds, keys, fit_part).to_pandas()
    return {"alpha": alpha, "beta": beta, "model": model}


def score_tsb(ds, state: dict, keys: list[str], dtc: str,
              target: str, out_col: str):
    """Flat-ahead TSB forecast: p̂·ẑ per series for every scored row
    (0 for all-zero series; NaN for series unseen at fit time)."""
    import ray

    ref = ray.put(state["model"])

    def score(b: pd.DataFrame) -> pd.DataFrame:
        b = b.copy()
        m = b[keys].merge(ray.get(ref), how="left", on=keys)
        p = m["__prob"].to_numpy(np.float64)
        z = m["__size"].to_numpy(np.float64)
        pred = p * z
        pred = np.where(np.isnan(p), np.nan, pred)
        b[out_col] = pred
        return b

    return ds.map_batches(score, batch_format="pandas")


# ---------------------------------------------------------------------------
# histogram gradient-boosted regressor (estimator #15)
# ---------------------------------------------------------------------------

#: calendar feature extractors for the GBM (integer-valued so histogram
#: bins are the raw distinct values — "exact" histogram splits, no quantile
#: approximation; any other name is read as an integer column of the frame)
def _gbm_feature_frame(b: pd.DataFrame, dtc: str,
                       features: tuple) -> dict[str, np.ndarray]:
    s = b[dtc].astype("datetime64[us]")
    out = {}
    for f in features:
        if f == "dow":
            out[f] = s.dt.dayofweek.to_numpy(np.int64)
        elif f == "dom":
            out[f] = s.dt.day.to_numpy(np.int64)
        elif f == "day":
            out[f] = _day_numbers(b[dtc])
        else:
            out[f] = b[f].to_numpy(np.int64)
    return out


def _gbm_assign_nodes(internal: dict, F: dict, features: tuple) -> np.ndarray:
    """Route every row through the (possibly partial) tree. Node ids are
    allocated parent-before-child, so one increasing-id sweep settles every
    row at a frontier or leaf node."""
    n = len(next(iter(F.values())))
    node = np.zeros(n, dtype=np.int64)
    for nid in sorted(internal):
        fi, thr, left, right = internal[nid]
        m = node == nid
        if not m.any():
            continue
        node[m] = np.where(F[features[fi]][m] <= thr, left, right)
    return node


def _gbm_apply_trees(trees: list, F: dict, features: tuple) -> np.ndarray:
    """Σ tree outputs (un-scaled — the caller applies the learning rate)."""
    n = len(next(iter(F.values())))
    out = np.zeros(n, dtype=np.float64)
    for tree in trees:
        node = _gbm_assign_nodes(tree["internal"], F, features)
        leaf = tree["leaf"]
        # few leaves (≤ 2^depth): per-leaf masked adds stay vectorized
        for nid, val in leaf.items():
            out[node == nid] += val
    return out


def _gbm_best_split(hn: pd.DataFrame, n0: float, s0: float,
                    features: tuple, min_child: int,
                    gain_digits: int):
    """Exact-histogram split search for squared loss: maximize the variance
    -reduction proxy  s_l²/n_l + s_r²/n_r − s0²/n0  over every (feature,
    threshold = distinct value) candidate. Gains are ROUNDED to
    ``gain_digits`` before the argmax and ties break on (feature order,
    smaller threshold) — the determinism contract the SQL oracle twin
    reproduces despite order-sensitive float sums on each side."""
    best = None  # (gain, fi, thr, nl, sl, nr, sr)
    for fi in range(len(features)):
        h = hn[hn["feat"] == fi].sort_values("val", kind="mergesort")
        if len(h) < 2:
            continue
        cn = h["n"].cumsum().to_numpy()[:-1]
        cs = h["s"].cumsum().to_numpy()[:-1]
        vals = h["val"].to_numpy()[:-1]
        nr, sr = n0 - cn, s0 - cs
        valid = (cn >= min_child) & (nr >= min_child)
        if not valid.any():
            continue
        gain = np.round(cs * cs / cn + sr * sr / np.where(nr == 0, 1, nr)
                        - s0 * s0 / n0, gain_digits)
        gain = np.where(valid, gain, -np.inf)
        k = int(np.argmax(gain))  # first max → smallest threshold tie-break
        cand = (float(gain[k]), fi, int(vals[k]), float(cn[k]),
                float(cs[k]), float(nr[k]), float(sr[k]))
        if cand[0] > 0 and (best is None or cand[0] > best[0]):
            best = cand
    return best


def _gbm_base_vec(b: pd.DataFrame, bv: float, bdf, keys: list[str]):
    """Per-row base level: the per-series train mean when fitted with
    ``base_mode="series"`` (unseen series fall back to the global mean),
    else the global mean."""
    if bdf is None:
        return np.full(len(b), bv)
    m = b[list(keys)].merge(bdf, how="left", on=list(keys))
    return m["__sb"].fillna(bv).to_numpy()


def fit_gbm(train_ds, keys: list[str], dtc: str, target: str,
            n_trees: int = 2, max_depth: int = 2,
            learning_rate: float = 0.5, features: tuple = ("dow", "dom"),
            min_child: int = 1, gain_digits: int = 6,
            base_mode: str = "global") -> dict:
    """A REAL fitted gradient-boosted tree regressor, from scratch on the
    distributed-aggregate plan — closing the reference's LightGBM gap
    (``model.py:802-953`` fit driver, ``model.py:397-513`` premade params)
    without boosted-tree libs: squared loss, level-wise growth, EXACT
    integer-valued histograms (public algorithm family: Friedman 2001
    gradient boosting; LightGBM/XGBoost-style histogram split search).

    Distributed plan — the same shape as the normal-equation estimators:
    every (tree, level) costs ONE streaming pass whose per-batch combiner
    pre-reduces rows to (node, feature, value) → (count, Σresidual)
    partials, followed by one coarse-hash reduce; the driver only ever
    holds histograms (nodes × features × distinct values — calendar
    features have ≤31 values) and the tree structures. Residuals and node
    routes are RECOMPUTED per pass from the broadcast ensemble-so-far
    instead of materializing a per-row state column: ``n_trees ×
    max_depth`` cheap re-evaluations of tiny trees trade for never
    shuffling row-level state. Leaf values are the split's own
    (Σresidual / count) — no extra pass. Total passes:
    1 (base mean) + n_trees × max_depth (histograms).
    """
    import ray

    from forecastframe_ray.stages.agg import hash_aggregate

    features = tuple(features)
    lr = float(learning_rate)

    clean = train_ds.map_batches(
        lambda b: b[b[target].notna()], batch_format="pandas")
    g = hash_aggregate(
        clean.map_batches(lambda b: b.assign(__k=np.int8(0)),
                          batch_format="pandas"),
        ["__k"], {"__s": (target, "sum"), "__n": (target, "count")}
    ).to_pandas()
    base_val = float(g["__s"].iloc[0] / g["__n"].iloc[0]) if len(g) and \
        g["__n"].iloc[0] else 0.0
    # base_mode="series": boost on residuals from the per-series train
    # mean (one tiny aggregate, broadcast) — the trees then model only the
    # shared calendar shape, the reference's hierarchical intuition
    series_base = None
    if base_mode == "series" and keys:
        series_base = hash_aggregate(
            clean, list(keys), {"__sb": (target, "mean")}).to_pandas()

    trees: list[dict] = []
    for _t in range(n_trees):
        internal: dict = {}
        leaf: dict = {}
        stats: dict = {}          # nid -> (n, s) from parent split / hist
        frontier = [0]
        next_id = 1
        for _level in range(max_depth):
            if not frontier:
                break
            ref = ray.put((trees, dict(internal), base_val, series_base))

            def part(b: pd.DataFrame) -> pd.DataFrame:
                tr, inner, bv, bdf = ray.get(ref)
                b = b[b[target].notna()]
                F = _gbm_feature_frame(b, dtc, features)
                r = (b[target].to_numpy(np.float64)
                     - _gbm_base_vec(b, bv, bdf, keys)
                     - lr * _gbm_apply_trees(tr, F, features))
                node = (_gbm_assign_nodes(inner, F, features) if inner
                        else np.zeros(len(b), dtype=np.int64))
                frames = [pd.DataFrame({
                    "node": node, "feat": np.int32(fi), "val": F[f],
                    "n": 1.0, "s": r}) for fi, f in enumerate(features)]
                return (pd.concat(frames, ignore_index=True)
                        .groupby(["node", "feat", "val"], sort=False,
                                 as_index=False)[["n", "s"]].sum())

            hist = hash_aggregate(
                clean.map_batches(part, batch_format="pandas"),
                ["node", "feat", "val"],
                {"n": ("n", "sum"), "s": ("s", "sum")}).to_pandas()

            new_frontier = []
            for nid in frontier:
                hn = hist[hist["node"] == nid]
                if hn.empty:
                    leaf[nid] = 0.0
                    continue
                f0 = hn[hn["feat"] == 0]
                n0, s0 = float(f0["n"].sum()), float(f0["s"].sum())
                stats[nid] = (n0, s0)
                best = _gbm_best_split(hn, n0, s0, features, min_child,
                                       gain_digits)
                if best is None:
                    leaf[nid] = s0 / n0
                    continue
                _gain, fi, thr, nl, sl, nr, sr = best
                lid, rid = next_id, next_id + 1
                next_id += 2
                internal[nid] = (fi, thr, lid, rid)
                stats[lid], stats[rid] = (nl, sl), (nr, sr)
                new_frontier += [lid, rid]
            frontier = new_frontier
        for nid in frontier:  # depth budget reached: finalize from stats
            n0, s0 = stats[nid]
            leaf[nid] = s0 / n0 if n0 else 0.0
        trees.append({"internal": internal, "leaf": leaf,
                      # per-node train row counts ("cover") — the weights
                      # path-dependent TreeSHAP marginalizes absent
                      # features with (pipelines/interpret.py gbm_shap)
                      "cover": {nid: n for nid, (n, _s) in stats.items()}})

    return {"trees": trees, "learning_rate": lr, "base": base_val,
            "series_base": series_base, "keys": list(keys),
            "features": features}


def score_gbm(ds, state: dict, keys: list[str], dtc: str, target: str,
              out_col: str):
    """Broadcast scorer: pred = base + lr · Σ tree(x). The ensemble is a
    few dicts of scalars — one ``ray.put``, applied batch-wide."""
    import ray

    ref = ray.put((state["trees"], state["base"],
                   state.get("series_base"), state.get("keys", keys),
                   state["learning_rate"], tuple(state["features"])))

    def score(b: pd.DataFrame) -> pd.DataFrame:
        trees, bv, bdf, ks, lr, feats = ray.get(ref)
        b = b.copy()
        F = _gbm_feature_frame(b, dtc, feats)
        b[out_col] = (_gbm_base_vec(b, bv, bdf, ks)
                      + lr * _gbm_apply_trees(trees, F, feats))
        return b

    return ds.map_batches(score, batch_format="pandas")


#: name -> (fit, score, fit_param_names). ``fit_param_names`` declares which
#: candidate params the FIT depends on (the rest only affect scoring), so
#: the search driver can share one fitted state across candidates that
#: differ only in score-time params — e.g. ``blend`` mixes two fitted means
#: at score time, so a (dow, 0.0) and (dow, 0.5) candidate share one fit.
ESTIMATORS = {
    "seasonal_mean": (fit_seasonal_mean, score_seasonal_mean, ("season",)),
    "linear_trend": (fit_linear_trend, score_linear_trend, ("l2",)),
    "fourier": (fit_fourier, score_fourier, ("order", "trend", "l2")),
    "ses": (fit_ses, score_ses, ("alpha",)),
    "holt": (fit_holt, score_holt, ("alpha", "beta")),
    "croston": (fit_croston, score_croston, ("alpha",)),
    "croston_sba": (fit_croston, score_croston_sba, ("alpha",)),
    "theta": (fit_theta, score_theta, ("alpha",)),
    "holt_winters": (fit_holt_winters, score_holt_winters,
                     ("alpha", "beta", "gamma", "period")),
    "naive2": (fit_naive2, score_naive2, ("period",)),
    "holt_damped": (fit_holt_damped, score_holt_damped,
                    ("alpha", "beta")),
    "seasonal_naive": (fit_seasonal_naive, score_seasonal_naive,
                       ("period",)),
    "drift": (fit_drift, score_drift, ()),
    "tsb": (fit_tsb, score_tsb, ("alpha", "beta")),
    "gbm": (fit_gbm, score_gbm,
            ("n_trees", "max_depth", "learning_rate", "min_child",
             "base_mode")),
}


def premade_grids(style: str = "fast") -> dict:
    """Premade parameter grids in the reference's spirit
    (``get_lgb_params("light"/"mvp"/...)``, model.py:397-513) for the
    stand-in estimator family."""
    grids = {
        "fast": {"season": ["dow", "none"], "blend": [0.0, 0.5]},
        "full": {"season": ["dow", "dom", "none"],
                 "blend": [0.0, 0.25, 0.5, 0.75, 1.0]},
        # boosted-tree grid (estimator="gbm") in the reference's
        # get_lgb_params("light") spirit — small trees, shrinkage sweep
        "gbm": {"n_trees": [1, 2, 4], "max_depth": [1, 2],
                "learning_rate": [0.3, 0.5], "min_child": [1],
                "base_mode": ["global", "series"]},
    }
    return grids[style]


def grid_candidates(grid: dict) -> list[dict]:
    names = sorted(grid)
    return [dict(zip(names, combo))
            for combo in itertools.product(*(grid[n] for n in names))]


def random_candidates(grid: dict, n_iter: int, seed: int = 7) -> list[dict]:
    """Deterministic random search (reference ``_random_search``,
    model.py:319-375): sample ``n_iter`` distinct combos."""
    cands = grid_candidates(grid)
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(cands), size=min(n_iter, len(cands)),
                      replace=False)
    return [cands[i] for i in sorted(pick)]


# ---------------------------------------------------------------------------
# the search driver
# ---------------------------------------------------------------------------

def search_cv(fr, grid: dict | None = None, estimator: str = "seasonal_mean",
              n_splits: int = 3, gap: int = 0, n_iter: int | None = None,
              seed: int = 7):
    """Cross-validated parameter search over ``fr``'s recorded pipeline.

    Returns ``(results, best_params)`` where ``results`` has one row per
    (candidate × fold) with null-masked test RMSE/MAPE (the reference's
    per-fold scoring, interpret.py:104-115) and ``best_params`` minimizes
    the mean RMSE across folds (``rmse.idxmin``, model.py:1110)."""
    from forecastframe_ray.functions.metrics import error_summary
    from forecastframe_ray.pipelines import cv

    grid = grid or premade_grids("fast")
    cands = (random_candidates(grid, n_iter, seed) if n_iter
             else grid_candidates(grid))
    fit_fn, score_fn, fit_param_names = ESTIMATORS[estimator]
    dtc, tgt = fr.datetime_column, fr.target
    keys = list(fr.hierarchy or [])
    out_col = f"{tgt}_pred"

    # folds once, shared by every candidate (features are param-independent)
    folds = []
    for fold, ffold in cv.fold_frames(fr, n_splits=n_splits, gap=gap):
        ds = ffold.dataset.materialize()  # reused by every candidate
        t0 = fold["test_start"]
        train = ds.map_batches(
            lambda b, t0=t0: b[b[dtc] < t0], batch_format="pandas") \
            .materialize()
        test = ds.map_batches(
            lambda b, t0=t0: b[b[dtc] >= t0], batch_format="pandas") \
            .materialize()
        folds.append((fold, train, test))

    rows = []
    fit_cache: dict = {}  # (fold, fit-relevant params) -> fitted state
    for ci, params in enumerate(cands):
        for fi, (fold, train, test) in enumerate(folds):
            fkey = (fi, tuple((k, params[k]) for k in sorted(fit_param_names)))
            if fkey not in fit_cache:
                fit_cache[fkey] = fit_fn(train, keys, dtc, tgt, **params)
            state = dict(fit_cache[fkey], **{
                k: v for k, v in params.items() if k not in fit_param_names})
            scored = score_fn(test, state, keys, dtc, tgt, out_col)
            m = error_summary(scored, tgt, out_col)
            rows.append({"candidate": ci, **params, "fold": fi,
                         "train_end": fold["train_end"],
                         "n_test": int(m["n"].iloc[0]),
                         "rmse": float(m["RMSE"].iloc[0]),
                         "mape": float(m["MAPE"].iloc[0])})
    results = pd.DataFrame(rows)
    mean_rmse = results.groupby("candidate")["rmse"].mean()
    best = cands[int(mean_rmse.idxmin())]
    return results, best
