"""Oracled query catalog — trained quality/language classifier (round 5,
:func:`forecastframe_ray.pipelines.textstats.fit_quality_logistic`).

``quality_classifier_documents`` fits the distributed IRLS logistic
regression (2 unrolled Fisher-scoring iterations from β=0) of
``lang == 'en'`` on the (stopword_frac, alpha_ratio) quality features and
returns each document's fitted probability. The DuckDB oracle rebuilds
BOTH iterations — per-doc features with the ``text_ratios`` formulas,
the X′WX / X′Wz weighted sums, and the symmetric-3×3 solve via the
adjugate (Cramer) — the unrolled-iteration oracle style of the GBM
entries, with the ``interpret.py`` ``_det3`` OLS precedent for the
closed-form solve. The entry pins the FIT bit-for-bit; it makes no
accuracy claim on this corpus (the synthetic ``lang`` tags carry no
stopword signal — the learns-when-signal-exists property is pinned in
``tests/test_quality_classifier.py`` on a constructed corpus).
"""

from __future__ import annotations

import pandas as pd

from forecastframe_ray.pipelines import textstats
from forecastframe_ray.pipelines.queries.spine import (
    _STOP_SQL,
    _read,
    _round,
)
from forecastframe_ray.pipelines.queries import entry


@entry("quality_classifier_documents", sql=lambda: SQL_QUALITY_CLASSIFIER)
def q_quality_classifier_documents(sf_dir: str) -> pd.DataFrame:
    docs = _read(sf_dir, "documents", ["doc_id", "text", "lang"])
    state = textstats.fit_quality_logistic(
        docs, lambda b: (b["lang"] == "en").to_numpy())
    out = textstats.score_quality_logistic(docs, state).to_pandas()
    out = out[["doc_id", "p_quality"]].sort_values("doc_id") \
        .reset_index(drop=True)
    return _round(out, ["p_quality"], 6)


#: symmetric-3×3 cofactors: C00=a11a22−a12², C01=a02a12−a01a22,
#: C02=a01a12−a02a11, C11=a00a22−a02², C12=a01a02−a00a12, C22=a00a11−a01²;
#: det = a00·C00 + a01·C01 + a02·C02; β = C·b / det. IRLS weights floored
#: at 1e-12 exactly as the engine does.
_CRAMER = """
        SELECT (a11*a22 - a12*a12) AS c00, (a02*a12 - a01*a22) AS c01,
               (a01*a12 - a02*a11) AS c02, (a00*a22 - a02*a02) AS c11,
               (a01*a02 - a00*a12) AS c12, (a00*a11 - a01*a01) AS c22,
               a00*(a11*a22 - a12*a12) + a01*(a02*a12 - a01*a22)
                   + a02*(a01*a12 - a02*a11) AS det,
               b0, b1, b2
        FROM {src}
"""

SQL_QUALITY_CLASSIFIER = rf"""
    WITH fr AS (
        SELECT doc_id, CAST(lang = 'en' AS DOUBLE) AS y,
               CAST(length(list_filter(
                   list_transform(regexp_extract_all(text, '\S+'),
                                  t -> trim(lower(t), '.,;:!?"''()[]')),
                   t -> t IN ({_STOP_SQL}))) AS DOUBLE)
                 / greatest(length(regexp_extract_all(text, '\S+')), 1)
                 AS x1,
               CAST(length(regexp_replace(text, '[^A-Za-z]', '', 'g'))
                    AS DOUBLE) / greatest(length(text), 1) AS x2
        FROM documents
    ),
    s1 AS (
        SELECT sum(0.25) AS a00, sum(0.25*x1) AS a01, sum(0.25*x2) AS a02,
               sum(0.25*x1*x1) AS a11, sum(0.25*x1*x2) AS a12,
               sum(0.25*x2*x2) AS a22,
               sum(0.25*(4*y - 2)) AS b0, sum(0.25*x1*(4*y - 2)) AS b1,
               sum(0.25*x2*(4*y - 2)) AS b2
        FROM fr
    ),
    c1 AS ({_CRAMER.format(src="s1")}),
    beta1 AS (
        SELECT (c00*b0 + c01*b1 + c02*b2) / det AS e0,
               (c01*b0 + c11*b1 + c12*b2) / det AS e1,
               (c02*b0 + c12*b1 + c22*b2) / det AS e2
        FROM c1
    ),
    it2 AS (
        SELECT fr.*, b.e0 + b.e1*fr.x1 + b.e2*fr.x2 AS eta
        FROM fr CROSS JOIN beta1 b
    ),
    it2w AS (
        SELECT *, greatest((1/(1+exp(-eta))) * (1 - 1/(1+exp(-eta))),
                           1e-12) AS w,
               eta + (y - 1/(1+exp(-eta)))
                   / greatest((1/(1+exp(-eta))) * (1 - 1/(1+exp(-eta))),
                              1e-12) AS z
        FROM it2
    ),
    s2 AS (
        SELECT sum(w) AS a00, sum(w*x1) AS a01, sum(w*x2) AS a02,
               sum(w*x1*x1) AS a11, sum(w*x1*x2) AS a12,
               sum(w*x2*x2) AS a22,
               sum(w*z) AS b0, sum(w*x1*z) AS b1, sum(w*x2*z) AS b2
        FROM it2w
    ),
    c2 AS ({_CRAMER.format(src="s2")}),
    beta2 AS (
        SELECT (c00*b0 + c01*b1 + c02*b2) / det AS e0,
               (c01*b0 + c11*b1 + c12*b2) / det AS e1,
               (c02*b0 + c12*b1 + c22*b2) / det AS e2
        FROM c2
    )
    SELECT fr.doc_id,
           round_even(1/(1+exp(-(b.e0 + b.e1*fr.x1 + b.e2*fr.x2))), 6)
               AS p_quality
    FROM fr CROSS JOIN beta2 b
    ORDER BY fr.doc_id
"""
