"""Text-extraction byte-identity invariant + synthetic corpus determinism
(north_rule per-row invariant; FIXTURES.md F3)."""

import numpy as np
import pyarrow as pa

from forecastframe_ray import extract, synth
from forecastframe_ray import keys as K


def test_extract_basic():
    html = (b"<!DOCTYPE html><html><head><title>Hi &amp; bye</title>"
            b"<style>p{x:1}</style><script>if(1<2){}</script></head>"
            b"<body><h1>Hi &amp; bye</h1>\n  <p>a  b\tc</p><!-- no --></body></html>")
    assert extract.extract_text(html) == "Hi & bye Hi & bye a b c"


def test_extract_matches_stored_text_byte_identically():
    tbl = synth.pages_table(2000, seed=42, num_domains=50)
    extracted = extract.extract_text_batch(tbl)
    stored = tbl["text"].to_pylist()
    got = extracted["text"].to_pylist()
    for s, g in zip(stored, got):
        assert s == g  # byte-identical per url


def test_corpus_deterministic_and_batch_independent():
    a = synth.pages_table(500, seed=42)
    b1 = synth._make_batch(np.arange(0, 250, dtype=np.int64), 42, 500)
    b2 = synth._make_batch(np.arange(250, 500, dtype=np.int64), 42, 500)
    joined = pa.concat_tables([b1, b2])
    assert a.equals(joined)
    # different seed → different corpus
    c = synth.pages_table(500, seed=7)
    assert not a.equals(c)


def test_corpus_schema_and_skew():
    tbl = synth.pages_table(5000, seed=42, num_domains=500)
    assert [f.name for f in tbl.schema] == ["url", "warc_ts", "html", "text", "lang"]
    assert tbl.schema.field("warc_ts").type == pa.timestamp("us")
    assert tbl.schema.field("html").type == pa.binary()
    domains = K.split_url(tbl["url"])["domain"].to_pandas()
    top_share = domains.value_counts().iloc[0] / len(domains)
    assert top_share > 0.05  # Zipf-ish head exists → exercises salting
    assert domains.nunique() > 100


def test_url_key_derivation():
    urls = pa.array([
        "https://www.site00001.com/p/1",
        "https://blog.site00002.org/p/2",
        "http://single/p/3",
    ])
    parts = K.split_url(urls)
    assert parts["host"].to_pylist() == ["www.site00001.com", "blog.site00002.org", "single"]
    assert parts["domain"].to_pylist() == ["site00001.com", "site00002.org", "single"]
    assert parts["tld"].to_pylist() == ["com", "org", "single"]


def test_distributed_generation_matches_local(ray_session):
    ds = synth.pages_dataset(1000, seed=42, num_domains=100, override_num_blocks=7)
    df = ds.to_pandas().sort_values("url").reset_index(drop=True)
    local = synth.pages_table(1000, seed=42, num_domains=100).to_pandas() \
        .sort_values("url").reset_index(drop=True)
    assert df.equals(local)
