"""Where a checkpointed store's bytes go: per tier, the files, rows, bytes
on disk, compressed bytes per column (data and dictionary pages with their
page headers), footer bytes, ``ARROW:schema`` bytes, the rest (the copy of
each column chunk's metadata written after the chunk, and the magic bytes)
and bytes per point.

Pure pyarrow, reads only the Parquet footers. ``--points`` names the tiers
whose rows count as points for the last line (default: every tier); the
tier store's ``store_bytes_per_point`` is every tier's bytes over the rows
of ``1h,1d,7d``.

Usage: python tools/store_bytes.py OUT_DIR [--points 1h,1d,7d]
"""

import argparse
import glob
import os

import pyarrow.parquet as pq


def tier_bytes(tier_dir: str) -> dict:
    """Byte counts of every ``*.parquet`` file under ``tier_dir``."""
    out = {"files": 0, "rows": 0, "bytes": 0, "footer": 0, "arrow_schema": 0,
           "columns": {}}
    for path in sorted(glob.glob(os.path.join(tier_dir, "*.parquet"))):
        md = pq.ParquetFile(path).metadata
        out["files"] += 1
        out["rows"] += md.num_rows
        out["bytes"] += os.path.getsize(path)
        out["footer"] += md.serialized_size
        out["arrow_schema"] += len((md.metadata or {}).get(b"ARROW:schema",
                                                           b""))
        for g in range(md.num_row_groups):
            rg = md.row_group(g)
            for c in range(rg.num_columns):
                col = rg.column(c)
                name = col.path_in_schema.split(".")[0]
                out["columns"][name] = (out["columns"].get(name, 0)
                                        + col.total_compressed_size)
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("out_dir")
    ap.add_argument("--points", default=None,
                    help="comma-separated tiers whose rows are points")
    args = ap.parse_args()
    tiers = {os.path.basename(d)[len("tier="):]: tier_bytes(d)
             for d in sorted(glob.glob(os.path.join(args.out_dir, "tier=*")))}
    if not tiers:
        raise SystemExit(f"no tier=* directory under {args.out_dir}")
    for tier, t in tiers.items():
        cols = sum(t["columns"].values())
        print(f"tier={tier}: {t['files']} files, {t['rows']} rows, "
              f"{t['bytes']} B on disk, {cols} B of columns, "
              f"{t['footer']} B of footers ({t['arrow_schema']} B "
              f"ARROW:schema), {t['bytes'] - cols - t['footer']} B other, "
              f"{t['bytes'] / max(1, t['rows']):.2f} B/row")
        for name, b in sorted(t["columns"].items(), key=lambda kv: -kv[1]):
            print(f"  {name:<16} {b:>10} B  {100 * b / max(1, cols):5.1f}%  "
                  f"{b / max(1, t['rows']):7.2f} B/row")
    points = args.points.split(",") if args.points else list(tiers)
    total = sum(t["bytes"] for t in tiers.values())
    rows = sum(tiers[p]["rows"] for p in points if p in tiers)
    print(f"total: {total} B over {rows} points of {','.join(points)}: "
          f"{total / max(1, rows):.2f} B/point")


if __name__ == "__main__":
    main()
