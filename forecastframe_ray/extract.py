"""Deterministic HTML → text extraction (north_rule M12; no analog in the
reference, which has no binary columns at all — see SURVEY.md §2.2 M12).

The extractor is pure Python + stdlib (``re`` with precompiled patterns,
``html.unescape``), fully deterministic, and vectorization-friendly: it runs
inside a stateless ``map_batches`` stage over Arrow batches. The per-row
invariant (checked in tests and by the pages oracle column) is that
``extract_text(html) == text`` byte-identically per url.

Algorithm (fixed; changing it breaks the byte-identity contract):

1. decode utf-8 (errors="replace")
2. drop ``<script>``/``<style>``/comments wholesale
3. replace every remaining tag with a single space
4. unescape HTML entities
5. collapse all whitespace runs to one space; strip ends
"""

from __future__ import annotations

import html as _html
import re

import pyarrow as pa

_RE_DROP = re.compile(r"(?is)<(script|style)\b.*?</\1\s*>|<!--.*?-->")
_RE_TAG = re.compile(r"(?s)<[^>]*>")
_RE_WS = re.compile(r"\s+")


def extract_text(html_bytes: bytes) -> str:
    """Extract canonical text from one HTML document. Deterministic."""
    s = html_bytes.decode("utf-8", errors="replace")
    s = _RE_DROP.sub(" ", s)
    s = _RE_TAG.sub(" ", s)
    s = _html.unescape(s)
    return _RE_WS.sub(" ", s).strip()


def extract_text_batch(batch: pa.Table, html_col: str = "html", out_col: str = "text") -> pa.Table:
    """map_batches fn (batch_format="pyarrow"): html:binary → text:string.

    If ``out_col`` already exists (the synthetic corpus ships the oracle
    text), it is replaced by the extracted value — tests compare the two.
    """
    htmls = batch[html_col].to_pylist()
    texts = pa.array([extract_text(h) for h in htmls], type=pa.string())
    if out_col in batch.column_names:
        batch = batch.drop_columns([out_col])
    return batch.append_column(out_col, texts)


