"""Emulate the driver's correctness gate: run every ``queries()`` entry and
its ``oracle_sql()`` DuckDB twin at a given sf, compare row count, schema
(column names), and an order-insensitive value hash (columns sorted by name,
rows sorted by all columns, values hashed).

Usage: python tools/selfcheck.py [sf_dir] [query_name ...]
"""

from __future__ import annotations

import os
import sys
import time

import duckdb
import numpy as np
import pandas as pd

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TABLES = ("region nation customer supplier part orders lineitem events "
          "documents embeddings").split()


def to_pandas(res) -> pd.DataFrame:
    import ray.data
    if isinstance(res, ray.data.Dataset):
        return res.to_pandas()
    if isinstance(res, pd.DataFrame):
        return res
    return res.to_pandas()  # pyarrow.Table


def canonical(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if pd.api.types.is_datetime64_any_dtype(df[c]):
            df[c] = df[c].astype("datetime64[us]")
        elif pd.api.types.is_float_dtype(df[c]):
            df[c] = df[c].astype("float64")
        elif pd.api.types.is_integer_dtype(df[c]):
            df[c] = df[c].astype("int64")
        elif pd.api.types.is_bool_dtype(df[c]):
            df[c] = df[c].astype("bool")
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def value_hash(df: pd.DataFrame) -> int:
    return int(pd.util.hash_pandas_object(df, index=False).sum())


def main():
    sf_dir = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    import ray
    sys.path.insert(0, ROOT)
    from forecastframe_ray.logutil import silence_schema_hash_warning
    silence_schema_hash_warning()
    if not ray.is_initialized():
        ray.init(address="local", num_cpus=8, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False)

    import __ray_entry__ as E

    con = duckdb.connect()
    for t in TABLES:
        con.execute(f"CREATE VIEW {t} AS SELECT * FROM "
                    f"read_parquet('{sf_dir}/{t}.parquet')")

    qs, oracles = E.queries(), E.oracle_sql()
    n_pass = n_fail = n_rowsonly = 0
    for name, fn in qs.items():
        if only and name not in only:
            continue
        t0 = time.perf_counter()
        try:
            mine = canonical(to_pandas(fn(sf_dir)))
        except Exception as e:
            print(f"FAIL {name}: query raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        dt = time.perf_counter() - t0
        if name not in oracles:
            print(f"rows {name}: {len(mine)} rows ({dt:.1f}s) [rows-only]")
            n_rowsonly += 1
            continue
        try:
            theirs = canonical(con.execute(oracles[name]).fetchdf())
        except Exception as e:
            print(f"FAIL {name}: oracle raised {type(e).__name__}: {e}")
            n_fail += 1
            continue
        problems = []
        if len(mine) != len(theirs):
            problems.append(f"rows {len(mine)} vs {len(theirs)}")
        if list(mine.columns) != list(theirs.columns):
            problems.append(f"cols {list(mine.columns)} vs {list(theirs.columns)}")
        if not problems:
            for c in mine.columns:
                if str(mine[c].dtype) != str(theirs[c].dtype):
                    problems.append(f"dtype[{c}] {mine[c].dtype} vs {theirs[c].dtype}")
            if not problems and value_hash(mine) != value_hash(theirs):
                diff_cols = [c for c in mine.columns
                             if not mine[c].equals(theirs[c])]
                problems.append(f"value-hash mismatch in {diff_cols}")
                for c in diff_cols[:2]:
                    neq = mine[c] != theirs[c]
                    i = int(np.argmax(neq.to_numpy()))
                    problems.append(
                        f"  first diff [{c}] row {i}: {mine[c].iloc[i]!r} vs "
                        f"{theirs[c].iloc[i]!r}")
        if problems:
            print(f"FAIL {name}: " + "; ".join(problems))
            n_fail += 1
        else:
            print(f"PASS {name}: {len(mine)} rows ({dt:.1f}s)")
            n_pass += 1
    print(f"\n{n_pass} pass, {n_rowsonly} rows-only, {n_fail} fail")
    sys.exit(1 if n_fail else 0)


if __name__ == "__main__":
    main()
