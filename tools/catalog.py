"""Generate QUERIES.md: one row per driver-contract entry — name, the
first docstring line of its implementation, and its verification mode
(full DuckDB oracle vs justified rows-only).

Usage: python tools/catalog.py
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
QUERIES_MD = os.path.join(ROOT, "QUERIES.md")


def render() -> str:
    """QUERIES.md's full text for the live ``queries()`` / ``oracle_sql()``."""
    if ROOT not in sys.path:
        sys.path.insert(0, ROOT)
    import __ray_entry__ as E

    qs, oracles = E.queries(), E.oracle_sql()
    lines = [
        "# Query catalog (driver contract)",
        "",
        f"{len(qs)} entries; {len(oracles)} with a full DuckDB value oracle,",
        f"{len(qs) - len(oracles)} rows-only by documented contract (each "
        "paired with an oracled exact/recall gate).",
        "",
        "Generated by `python tools/catalog.py`.",
        "",
        "| # | entry | oracle | what it verifies |",
        "|---|---|---|---|",
    ]
    for i, (name, fn) in enumerate(qs.items(), 1):
        doc = (fn.__doc__ or "").strip().split("\n")[0].strip()
        if not doc:
            doc = name.replace("_", " ")
        if len(doc) > 110:
            doc = doc[:107] + "..."
        mode = "full" if name in oracles else "rows-only"
        lines.append(f"| {i} | `{name}` | {mode} | {doc} |")
    return "\n".join(lines) + "\n"


def main():
    with open(QUERIES_MD, "w") as f:
        f.write(render())
    print(f"wrote {QUERIES_MD}")


if __name__ == "__main__":
    main()
