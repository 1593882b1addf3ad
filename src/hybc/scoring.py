"""Min-max normalization, weighted efficiency scores, and derived analyses.

Normalization is always taken within one dataset's cohort of pipelines, all
measured on one text; any other mix compares different scales and is rejected.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .codecs import CodecId
from .corpus import classify_size
from .errors import MixedCohort
from .metrics import (
    DsBasis,
    Measurement,
    compression_ratio,
    compression_speed,
    decompression_speed,
)
from .pipeline import PipelineSpec

_WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class Weights:
    """Relative importance of ratio, compression speed, decompression speed."""

    w_cr: float = 0.40
    w_cs: float = 0.30
    w_ds: float = 0.30

    def __post_init__(self):
        for w in (self.w_cr, self.w_cs, self.w_ds):
            if not 0.0 <= w <= 1.0:
                raise ValueError("each weight must lie in [0, 1]")
        total = math.fsum((self.w_cr, self.w_cs, self.w_ds))
        if abs(total - 1.0) > _WEIGHT_SUM_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")


DEFAULT_WEIGHTS = Weights()


@dataclass(frozen=True)
class EfficiencyRow:
    """One pipeline's raw metrics, cohort-normalized metrics, and score."""

    pipeline: PipelineSpec
    dataset: str
    size_class: str
    cr: float
    cs: float
    ds: float
    cr_norm: float
    cs_norm: float
    ds_norm: float
    efficiency: float


def minmax_normalize(values: Sequence[float]) -> list[float]:
    """Rescale to [0, 1] with (x - min) / (max - min).

    An all-equal column carries no ranking information, so every entry maps
    to the neutral 0.5 rather than rewarding or punishing the whole cohort.
    """
    if not values:
        raise ValueError("cannot normalize an empty sequence")
    if not all(math.isfinite(v) for v in values):
        raise ValueError("values must all be finite")
    lo = min(values)
    hi = max(values)
    if hi == lo:
        return [0.5] * len(values)
    span = hi - lo
    return [(v - lo) / span for v in values]


def efficiency_score(
    cr_norm: float, cs_norm: float, ds_norm: float, weights: Weights = DEFAULT_WEIGHTS
) -> float:
    """Weighted sum of the three normalized metrics; lands in [0, 1]."""
    for v in (cr_norm, cs_norm, ds_norm):
        if not 0.0 <= v <= 1.0:
            raise ValueError(f"normalized metric {v!r} outside [0, 1]")
    return math.fsum(
        (weights.w_cr * cr_norm, weights.w_cs * cs_norm, weights.w_ds * ds_norm)
    )


def rank_pipelines(
    rows: Sequence[Measurement],
    weights: Weights = DEFAULT_WEIGHTS,
    ds_basis: DsBasis = DsBasis.COMPRESSED,
) -> list[EfficiencyRow]:
    """Score one dataset's measurements and sort best-first.

    Only this checks the cohort: the rows come from one dataset and one text
    (one ``original_bytes``) and name each pipeline once, or MixedCohort is
    raised. Raw metrics are min-max normalized, weighted, and sorted by
    descending efficiency, ties by display name: a permutation of the rows.
    """
    if len(rows) < 2:
        raise ValueError("a cohort needs at least 2 rows to normalize")
    texts = sorted({(m.dataset, m.original_bytes) for m in rows})
    if len(texts) != 1:
        raise MixedCohort(f"rows span (dataset, original_bytes) {texts}; rank one text at a time")
    names = [m.pipeline.display_name for m in rows]
    if twice := sorted({name for name in names if names.count(name) > 1}):
        raise MixedCohort(f"dataset {texts[0][0]!r} lists {', '.join(twice)} more than once")
    crs = [compression_ratio(m) for m in rows]
    css = [compression_speed(m) for m in rows]
    dss = [decompression_speed(m, ds_basis) for m in rows]
    cr_norms = minmax_normalize(crs)
    cs_norms = minmax_normalize(css)
    ds_norms = minmax_normalize(dss)
    scored = [
        EfficiencyRow(
            pipeline=m.pipeline,
            dataset=m.dataset,
            size_class=classify_size(m.original_bytes).value,
            cr=crs[i],
            cs=css[i],
            ds=dss[i],
            cr_norm=cr_norms[i],
            cs_norm=cs_norms[i],
            ds_norm=ds_norms[i],
            efficiency=efficiency_score(cr_norms[i], cs_norms[i], ds_norms[i], weights),
        )
        for i, m in enumerate(rows)
    ]
    scored.sort(key=lambda r: (-r.efficiency, r.pipeline.display_name))
    return scored


def component_frequency(rows: Iterable[EfficiencyRow]) -> dict[CodecId, int]:
    """Count codec appearances in the given rows: a standalone row contributes
    1 to its codec; a hybrid row contributes 1 to each member."""
    counts: dict[CodecId, int] = {c: 0 for c in CodecId}
    for row in rows:
        for codec in row.pipeline.codecs:
            counts[codec] += 1
    return counts
