import json
import math
import random
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest_oracles import REFERENCE_LARGE_COHORT, measurement_from_metrics
from hybc.bench import FREQUENCY_TOP_K, write_analysis_reports
from hybc.codecs import CodecId
from hybc.errors import MixedCohort
from hybc.pipeline import enumerate_pipelines, pipeline_from_name
from hybc.scoring import (
    DEFAULT_WEIGHTS,
    EfficiencyRow,
    Weights,
    component_frequency,
    efficiency_score,
    minmax_normalize,
    rank_pipelines,
)


def _row(name, dataset="d", cr=1.0, cs=1.0, ds=1.0, efficiency=0.5):
    return EfficiencyRow(
        pipeline=pipeline_from_name(name),
        dataset=dataset,
        size_class="Small",
        cr=cr, cs=cs, ds=ds,
        cr_norm=0.5, cs_norm=0.5, ds_norm=0.5,
        efficiency=efficiency,
    )


# ---------------------------------------------------------------------------
# minmax_normalize

def test_minmax_endpoints():
    assert minmax_normalize([10, 20, 30]) == [0.0, 0.5, 1.0]


def test_minmax_degenerate_maps_to_neutral():
    assert minmax_normalize([5, 5, 5]) == [0.5, 0.5, 0.5]


def test_minmax_reference_cr_column():
    column = [cr for _, cr, _, _ in REFERENCE_LARGE_COHORT]
    normalized = minmax_normalize(column)
    assert normalized[0] == pytest.approx((94.82 - 3.79) / (141.91 - 3.79), abs=1e-12)
    assert normalized[0] == pytest.approx(0.6590645815233129, abs=1e-12)
    assert normalized[5] == 1.0
    assert normalized[4] == 0.0


@pytest.mark.parametrize("bad", [[], [float("nan"), 1.0], [1.0, float("inf")]])
def test_minmax_rejects_bad_input(bad):
    with pytest.raises(ValueError):
        minmax_normalize(bad)


# exactly representable lattice values keep the affine identity exact
_lattice = st.integers(min_value=-(1 << 20), max_value=1 << 20).map(lambda n: n / 1024)


@settings(max_examples=200)
@given(st.lists(_lattice, min_size=1, max_size=30))
def test_minmax_bounds_and_anchors(values):
    normalized = minmax_normalize(values)
    assert all(0.0 <= v <= 1.0 for v in normalized)
    if max(values) > min(values):
        assert normalized[values.index(min(values))] == 0.0
        assert normalized[values.index(max(values))] == 1.0
        assert values.index(max(values)) == normalized.index(max(normalized))


@settings(max_examples=200)
@given(
    st.lists(_lattice, min_size=2, max_size=30),
    st.sampled_from([0.25, 0.5, 2.0, 4.0, 64.0]),
    st.integers(min_value=-(1 << 20), max_value=1 << 20).map(lambda n: n / 1024),
)
def test_minmax_affine_invariance(values, a, b):
    base = minmax_normalize(values)
    shifted = minmax_normalize([a * v + b for v in values])
    assert all(abs(x - y) <= 1e-12 for x, y in zip(base, shifted))


# ---------------------------------------------------------------------------
# efficiency_score

def test_efficiency_unit_cases_exact():
    assert efficiency_score(1.0, 1.0, 1.0) == 1.0
    assert efficiency_score(1.0, 0.0, 0.0) == 0.4
    assert efficiency_score(0.0, 0.0, 0.0) == 0.0


def test_efficiency_reference_value():
    assert efficiency_score(0.6590645815233129, 1.0, 1.0) == pytest.approx(
        0.8636258326093251, abs=1e-12
    )


def test_efficiency_rejects_out_of_range_norms():
    with pytest.raises(ValueError):
        efficiency_score(1.2, 0.0, 0.0)
    with pytest.raises(ValueError):
        efficiency_score(0.5, -0.1, 0.5)


def test_weights_validation():
    assert DEFAULT_WEIGHTS == Weights(0.40, 0.30, 0.30)
    with pytest.raises(ValueError):
        Weights(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        Weights(1.2, -0.1, -0.1)
    Weights(1.0, 0.0, 0.0)  # degenerate but valid


@settings(max_examples=200)
@given(
    st.tuples(*[st.floats(0, 1, allow_nan=False) for _ in range(3)]),
    st.integers(min_value=0, max_value=2),
    st.floats(0.001, 1.0, allow_nan=False),
)
def test_efficiency_monotone_in_each_argument(norms, index, bump):
    bumped = list(norms)
    bumped[index] = min(1.0, bumped[index] + bump)
    assert efficiency_score(*bumped) >= efficiency_score(*norms)


# ---------------------------------------------------------------------------
# rank_pipelines

def test_rank_dominant_pipeline_scores_one():
    rows = [
        measurement_from_metrics("Zstd + LZ4HC", 90.0, 900.0, 900.0),
        measurement_from_metrics("LZMA", 50.0, 10.0, 20.0),
        measurement_from_metrics("Bzip2", 9.0, 18.0, 5.0),
    ]
    ranked = rank_pipelines(rows)
    assert ranked[0].pipeline.display_name == "Zstd + LZ4HC"
    assert ranked[0].efficiency == 1.0


def test_rank_reference_cohort():
    rows = [measurement_from_metrics(*entry) for entry in REFERENCE_LARGE_COHORT]
    ranked = rank_pipelines(rows)
    names = [r.pipeline.display_name for r in ranked]
    assert names[0] == "Zstd + LZ4HC"
    assert names[1] == "Zstd"
    assert ranked[0].efficiency == pytest.approx(0.863626, abs=2e-3)
    assert ranked[1].efficiency == pytest.approx(0.685203, abs=2e-3)
    assert ranked[0].size_class == "Large"


def test_rank_requires_at_least_two_rows():
    with pytest.raises(ValueError):
        rank_pipelines([measurement_from_metrics("Zstd", 2.0, 10.0, 10.0)])


@pytest.mark.parametrize("change, message", [
    ({"dataset": "b"}, r"\('a', 13312000\), \('b', 13312000\)"),
    ({"original_bytes": 10}, r"\('a', 10\), \('a', 13312000\)"),
    ({"pipeline": pipeline_from_name("Zstd")}, "'a' lists Zstd more than once"),
], ids=["another-dataset", "another-text", "pipeline-twice"])
def test_rank_rejects_mixed_datasets(change, message):
    """Rows form one cohort only when they share a dataset and a text (one
    original_bytes) and name each pipeline once; rank_pipelines is the one
    place that checks."""
    rows = [
        measurement_from_metrics("Zstd", 2.0, 10.0, 10.0, dataset="a"),
        measurement_from_metrics("Brotli", 2.5, 8.0, 8.0, dataset="a"),
        replace(measurement_from_metrics("LZMA", 3.0, 5.0, 5.0, dataset="a"), **change),
    ]
    with pytest.raises(MixedCohort, match=message):
        rank_pipelines(rows)


def test_rank_is_a_permutation():
    rng = random.Random(7)
    names = ["Zstd", "LZMA", "Bzip2 + Brotli", "LZ4HC + Zstd", "Brotli"]
    rows = [
        measurement_from_metrics(
            n, rng.uniform(1.5, 100), rng.uniform(1, 1000), rng.uniform(1, 1000)
        )
        for n in names
    ]
    ranked = rank_pipelines(rows)
    assert sorted(r.pipeline.display_name for r in ranked) == sorted(names)


def test_rank_tie_break_by_display_name():
    rows = [
        measurement_from_metrics("Zstd", 10.0, 100.0, 100.0),
        measurement_from_metrics("Brotli", 10.0, 100.0, 100.0),
    ]
    ranked = rank_pipelines(rows)
    assert ranked[0].efficiency == ranked[1].efficiency
    assert [r.pipeline.display_name for r in ranked] == ["Brotli", "Zstd"]


def test_rank_efficiency_matches_weighted_norms():
    rows = [measurement_from_metrics(*entry) for entry in REFERENCE_LARGE_COHORT]
    for r in rank_pipelines(rows):
        expected = math.fsum((0.4 * r.cr_norm, 0.3 * r.cs_norm, 0.3 * r.ds_norm))
        assert abs(r.efficiency - expected) <= 1e-12


# ---------------------------------------------------------------------------
# component_frequency

def test_component_frequency_counting_rule():
    rows = [_row("Zstd + LZ4HC"), _row("Zstd")]
    counts = component_frequency(rows)
    assert counts[CodecId.ZSTD] == 2
    assert counts[CodecId.LZ4HC] == 1
    assert counts[CodecId.LZMA] == 0
    assert set(counts) == set(CodecId)


def test_component_frequency_empty_input():
    assert component_frequency([]) == {c: 0 for c in CodecId}


def test_frequency_report_counts_each_datasets_top_rows(tmp_path):
    # 12 ranked rows for one dataset and 3 for another: only the first
    # FREQUENCY_TOP_K of the first are counted, and every row of the second
    specs = [spec.display_name for spec in enumerate_pipelines()]
    rankings = {"a": [_row(name, dataset="a") for name in specs[:12]],
                "b": [_row(name, dataset="b") for name in specs[12:15]]}
    write_analysis_reports(rankings, tmp_path, ["json"], DEFAULT_WEIGHTS,
                           pipeline_from_name("Zstd+LZ4HC"), {})
    doc = json.loads((tmp_path / "frequency.json").read_text())
    assert FREQUENCY_TOP_K == 10
    assert doc["rows_counted"] == 13
    counted = rankings["a"][:10] + rankings["b"]
    expected = Counter(c.canonical_name for row in counted for c in row.pipeline.codecs)
    assert doc["counts"] == {c.canonical_name: expected[c.canonical_name] for c in CodecId}


def test_component_frequency_total_invariant():
    rng = random.Random(3)
    pipelines = ["Zstd", "LZMA + Zstd", "Bzip2 + LZ4HC", "Brotli", "Zstd + Brotli"]
    rows = [
        _row(rng.choice(pipelines), dataset=rng.choice("abc")) for _ in range(40)
    ]
    singles = sum(1 for r in rows if not r.pipeline.is_hybrid)
    hybrids = sum(1 for r in rows if r.pipeline.is_hybrid)
    counts = component_frequency(rows)
    assert sum(counts.values()) == singles + 2 * hybrids

