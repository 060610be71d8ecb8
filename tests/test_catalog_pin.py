"""Catalog registry pins: every ``q_*`` function is declared once with
``@entry``, the driver window is well-formed, and the generated QUERIES.md
matches the live ``queries()`` / ``oracle_sql()`` registries exactly."""

import ast
import importlib.util
import pathlib

import pytest

from forecastframe_ray.pipelines import queries as Q

ROOT = pathlib.Path(__file__).resolve().parents[1]
QUERIES_DIR = ROOT / "forecastframe_ray" / "pipelines" / "queries"


def _load(path: pathlib.Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    m = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(m)
    return m


def _entry_module():
    return _load(ROOT / "__ray_entry__.py", "ray_entry_for_pin")


def _is_entry(dec: ast.expr) -> bool:
    return (isinstance(dec, ast.Call) and isinstance(dec.func, ast.Name)
            and dec.func.id == "entry")


def test_queries_md_matches_render():
    catalog = _load(ROOT / "tools" / "catalog.py", "catalog_for_pin")
    assert (ROOT / "QUERIES.md").read_text() == catalog.render(), \
        "QUERIES.md is stale — run `python tools/catalog.py`"


def test_every_oracle_has_a_query():
    m = _entry_module()
    qs, oracles = m.queries(), m.oracle_sql()
    assert [k for k in oracles if k not in qs] == []


def test_every_q_function_is_an_entry():
    """Each top-level ``q_*`` function carries exactly one ``@entry``, and
    ``@entry`` decorates nothing else in the package."""
    missing, misplaced, n_entries = [], [], 0
    for path in sorted((ROOT / "forecastframe_ray").rglob("*.py")):
        tree = ast.parse(path.read_text())
        top = {id(n) for n in tree.body}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.ClassDef)):
                continue
            n_dec = sum(map(_is_entry, node.decorator_list))
            n_entries += n_dec
            is_q = (path.parent == QUERIES_DIR and id(node) in top
                    and isinstance(node, ast.FunctionDef)
                    and node.name.startswith("q_"))
            if is_q and n_dec != 1:
                missing.append(f"{path.name}:{node.name}")
            elif not is_q and n_dec:
                misplaced.append(f"{path.name}:{node.name}")
    assert missing == [] and misplaced == []
    assert n_entries == len(Q.CATALOG)


def test_driver_window_is_50_registered_oracled_names():
    m = _entry_module()
    window = m.DRIVER_WINDOW
    assert len(window) == 50 and len(set(window)) == 50
    assert [n for n in window if n not in Q.CATALOG] == []
    assert [n for n in window if Q.CATALOG[n][1] is None] == []
    assert list(m.queries())[:50] == list(window)


def test_duplicate_entry_name_raises():
    fn, sql = Q.CATALOG["tier_1h_events"]
    with pytest.raises(ValueError, match="tier_1h_events"):
        Q.entry("tier_1h_events")(lambda sf_dir: None)
    assert Q.CATALOG["tier_1h_events"] == (fn, sql)


def test_every_sql_lambda_returns_nonempty_str():
    bad = []
    for name, (_, sql) in Q.CATALOG.items():
        if sql is None:
            continue
        text = sql()
        if not isinstance(text, str) or not text.strip():
            bad.append(name)
    assert bad == []


def _names(node: ast.AST) -> set[str]:
    """Every identifier ``node`` may refer to: names, attributes, imports."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name.rsplit(".", 1)[-1])
    return out


def _bound(node: ast.stmt) -> list[str]:
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def test_no_orphan_definitions_in_queries():
    """Every top-level definition in ``pipelines/queries/`` is reachable
    from a registered entry (its function or oracle lambda) or named by
    non-test code outside the package. Deleting an entry must take its
    ``SQL_*`` oracle and private helpers with it. ``__init__`` (``_PARTS``,
    ``__getattr__``) is the package's own machinery and is not scanned."""
    defs: dict[str, list[ast.stmt]] = {}
    roots: set[str] = set()
    for path in sorted(QUERIES_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            for name in _bound(node):
                defs.setdefault(name, []).append(node)
            if any(map(_is_entry, getattr(node, "decorator_list", []))):
                roots.add(node.name)
    for path in ROOT.rglob("*.py"):
        rel = path.relative_to(ROOT)
        if (rel.parts[0] == "tests" or rel.parts[0].startswith(".")
                or path.parent == QUERIES_DIR):
            continue
        roots |= _names(ast.parse(path.read_text())) & defs.keys()
    seen, stack = set(), list(roots)
    while stack:
        name = stack.pop()
        if name in seen or name not in defs:
            continue
        seen.add(name)
        for node in defs[name]:
            stack.extend(_names(node) - seen)
    assert sorted(defs.keys() - seen) == []


def test_bench_queries_are_registered():
    """Every name ``bench.py`` times is a catalog entry (parsed, not
    imported: importing ``bench.py`` pulls in its whole harness)."""
    tree = ast.parse((ROOT / "bench.py").read_text())
    lists = [node.value for node in tree.body
             if isinstance(node, ast.Assign)
             and [t.id for t in node.targets if isinstance(t, ast.Name)]
             == ["_BENCH_QUERIES"]]
    assert len(lists) == 1
    names = ast.literal_eval(lists[0])
    assert names and [n for n in names if n not in Q.CATALOG] == []


def _identifier_strings(node: ast.AST) -> set[str]:
    """String constants that are identifiers: ``getattr``-style references
    such as perfbench's ``Call(web, "refresh_chunks", ...)``."""
    return {n.value for n in ast.walk(node)
            if isinstance(n, ast.Constant) and isinstance(n.value, str)
            and n.value.isidentifier()}


#: Definitions outside ``pipelines/queries/`` that no non-test code names
#: but that tests use as a reference or a fixture.
ORPHAN_ALLOWLIST = {
    "pipelines/dedup.py:verify_lsh_bucket":
        "per-bucket reference the batch candidate verifier is tested against",
    "pipelines/dedup.py:minhash_signature":
        "single-document reference the batch MinHash kernel is tested against",
    "synth.py:write_pages_corpus":
        "writes the synthetic pages corpus that tests read back as a fixture",
}


def test_no_orphan_definitions_in_engine():
    """Every top-level definition in ``forecastframe_ray/`` outside
    ``pipelines/queries/`` is named by live non-test code other than
    itself, except the reference and fixture definitions in
    ``ORPHAN_ALLOWLIST``. A definition named only by orphans is an orphan
    too; an identifier-shaped string counts as naming it. Engine code
    that only tests call is dead weight: delete it with the tests that pin
    only it; an allowlisted name that gains a caller leaves the list."""
    pkg = ROOT / "forecastframe_ray"
    namers: dict[str, set[int]] = {}
    candidates = []  # (key, name, id of the defining statement)
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT)
        if rel.parts[0] == "tests" or rel.parts[0].startswith("."):
            continue
        in_scope = pkg in path.parents and QUERIES_DIR not in path.parents
        for node in ast.parse(path.read_text()).body:
            for name in _names(node) | _identifier_strings(node):
                namers.setdefault(name, set()).add(id(node))
            if not in_scope:
                continue
            for name in _bound(node):
                if not name.startswith("__"):
                    key = f"{path.relative_to(pkg).as_posix()}:{name}"
                    candidates.append((key, name, id(node)))
    orphans, dead = set(), set()
    while True:
        new = {(key, stmt) for key, name, stmt in candidates
               if key not in orphans
               and not namers.get(name, set()) - dead - {stmt}}
        if not new:
            break
        orphans |= {key for key, _ in new}
        dead |= {stmt for key, stmt in new if key not in ORPHAN_ALLOWLIST}
    assert sorted(orphans - ORPHAN_ALLOWLIST.keys()) == []
    assert sorted(ORPHAN_ALLOWLIST.keys() - orphans) == []
