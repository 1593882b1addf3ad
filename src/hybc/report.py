"""Report emission: rankings, balance tables, and component frequencies as
CSV, JSON, Markdown, and dependency-free SVG.

CSV output is byte-stable for identical inputs: fixed column order, fixed
line endings, and repr-based float formatting. JSON carries full precision
plus environment metadata; Markdown rounds for reading (scores to 4 places).
"""
from __future__ import annotations

import csv
import io
import json
import os
import platform
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Sequence

from .codecs import CodecId, library_versions
from .metrics import MB, DsBasis
from .pipeline import HEADER_LEN
from .scoring import DEFAULT_WEIGHTS, EfficiencyRow, Weights, component_frequency

FORMATS = ("csv", "json", "md", "svg")

RANKING_CSV_COLUMNS = [
    "rank", "pipeline", "dataset", "size_class",
    "cr", "cs_mb_s", "ds_mb_s",
    "cr_norm", "cs_norm", "ds_norm", "efficiency",
]

_SEGMENT_COLORS = (
    ("ratio", "#4e79a7"),
    ("compression speed", "#f28e2b"),
    ("decompression speed", "#59a14f"),
)


def environment_metadata(*, repetitions: int) -> dict:
    """Provenance block for machine-readable reports.

    Speed numbers are hardware-bound, so reports record the codec library
    versions, CPU, clock characteristics, and configuration they came from.
    The CPU model comes from /proc/cpuinfo and the platform from os.uname() and
    the C library: platform.processor() and platform.platform() fork `uname -p`.
    """
    uname = os.uname()
    try:
        with open("/proc/cpuinfo") as info:
            cpu_model = next(ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name"))
    except (OSError, StopIteration):
        cpu_model = platform.machine()
    clock = time.get_clock_info("perf_counter")
    return {
        "codec_library_versions": library_versions(),
        "python": platform.python_version(),
        "platform": f"{uname.sysname}-{uname.release}-{uname.machine}-with-{''.join(platform.libc_ver())}",
        "cpu_model": cpu_model,
        "cpu_count": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "clock": {
            "name": "time.perf_counter",
            "implementation": clock.implementation,
            "monotonic": clock.monotonic,
            "resolution_seconds": clock.resolution,
        },
        "mb_bytes": MB,
        "compressed_size_includes_container_header": True,
        "container_header_bytes": HEADER_LEN,
        "repetitions": repetitions,
    }


def run_settings(ds_basis: DsBasis, weights: Weights) -> dict:
    """The ranking settings a report records; a re-rank replaces only these."""
    return {
        "ds_basis": ds_basis.value,
        "weights": {"cr": weights.w_cr, "cs": weights.w_cs, "ds": weights.w_ds},
    }


# ---------------------------------------------------------------------------
# One table model, four renderers

@dataclass(frozen=True)
class Table:
    """One report: raw ``rows`` in ``columns`` order for CSV and JSON, the same
    rows rounded for Markdown, and an SVG painter. Without ``md_header`` or
    ``svg`` the table has no such format; ``json`` overrides the default
    ``{"rows": [...]}`` document."""

    columns: Sequence[str]
    rows: Sequence[Sequence]
    md_header: Sequence[str] = ()
    md_align: str = ""  # one "l" or "r" per Markdown column
    md_rows: Sequence[Sequence[str]] = ()
    svg: Callable[[], bytes] | None = None
    json: Mapping | None = None


def render(table: Table, fmt: str, *, metadata: Mapping | None = None) -> bytes:
    """Serialize a table; JSON also embeds ``metadata`` when given."""
    if fmt == "csv":
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(table.columns)
        writer.writerows(table.rows)
        return out.getvalue().encode("utf-8")
    if fmt == "json":
        doc = dict(table.json or {"rows": [dict(zip(table.columns, r)) for r in table.rows]})
        if metadata is not None:
            doc["environment"] = dict(metadata)
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("utf-8")
    if fmt == "md" and table.md_header:
        lines = [
            "| " + " | ".join(table.md_header) + " |",
            "|" + "|".join(":---" if a == "l" else "---:" for a in table.md_align) + "|",
        ]
        lines += ["| " + " | ".join(row) + " |" for row in table.md_rows]
        return ("\n".join(lines) + "\n").encode("utf-8")
    if fmt == "svg" and table.svg is not None:
        return table.svg()
    raise ValueError(f"report format {fmt!r} is not available for this table")


def _svg(width: int, height: int, font_size: int, body: Sequence[str]) -> bytes:
    """Frame ``body`` lines in an SVG document. Labels are codec and chain
    names, which hold no XML markup, so nothing is escaped."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="{font_size}">',
        *body,
        "</svg>\n",
    ]).encode("utf-8")


# ---------------------------------------------------------------------------
# Ranking-shaped reports (also used for head-to-head tables)

def ranking_report(rows: Sequence[EfficiencyRow], weights: Weights = DEFAULT_WEIGHTS) -> Table:
    """Sorted efficiency rows; ``weights`` sizes the stacked SVG segments."""
    return Table(
        columns=RANKING_CSV_COLUMNS,
        rows=[
            (i + 1, r.pipeline.display_name, r.dataset, r.size_class,
             r.cr, r.cs, r.ds, r.cr_norm, r.cs_norm, r.ds_norm, r.efficiency)
            for i, r in enumerate(rows)
        ],
        md_header=["Rank", "Algorithm/Hybrid", "Dataset", "Size",
                   "CR", "CS (MB/s)", "DS (MB/s)", "Efficiency"],
        md_align="rlllrrrr",
        md_rows=[
            (str(i + 1), r.pipeline.display_name, r.dataset, r.size_class,
             f"{r.cr:.2f}", f"{r.cs:.2f}", f"{r.ds:.2f}", f"{r.efficiency:.4f}")
            for i, r in enumerate(rows)
        ],
        svg=partial(_svg_ranking, rows, weights),
    )


def _svg_ranking(rows: Sequence[EfficiencyRow], weights: Weights) -> bytes:
    bar_h, gap, label_w, chart_w, pad = 20, 8, 230, 560, 12
    legend_h = 26
    height = pad * 2 + legend_h + len(rows) * (bar_h + gap)
    width = label_w + chart_w + 90
    parts = []
    x = label_w
    for name, color in _SEGMENT_COLORS:
        parts.append(f'<rect x="{x}" y="{pad}" width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{x + 16}" y="{pad + 11}">{name}</text>')
        x += 170
    for i, r in enumerate(rows):
        y = pad + legend_h + i * (bar_h + gap)
        segments = (
            weights.w_cr * r.cr_norm,
            weights.w_cs * r.cs_norm,
            weights.w_ds * r.ds_norm,
        )
        parts.append('<g class="pipeline-bar">')
        parts.append(
            f'<text x="{label_w - 8}" y="{y + bar_h - 5}" text-anchor="end">'
            f"{r.pipeline.display_name}</text>"
        )
        sx = float(label_w)
        for value, (_, color) in zip(segments, _SEGMENT_COLORS):
            w = value * chart_w
            parts.append(
                f'<rect x="{sx:.2f}" y="{y}" width="{w:.2f}" height="{bar_h}" fill="{color}"/>'
            )
            sx += w
        parts.append(
            f'<text x="{sx + 6:.2f}" y="{y + bar_h - 5}">{r.efficiency:.4f}</text>'
        )
        parts.append("</g>")
    return _svg(width, height, 12, parts)


# ---------------------------------------------------------------------------
# Balance table (ratio vs compression speed)

def balance_report(rows: Sequence[EfficiencyRow]) -> Table:
    """Each row's pipeline, CR and CS, best ratio first (ties by display name)."""
    rows = sorted(rows, key=lambda r: (-r.cr, r.pipeline.display_name))
    return Table(
        columns=["pipeline", "cr", "cs_mb_s"],
        rows=[(r.pipeline.display_name, r.cr, r.cs) for r in rows],
        md_header=["Algorithm/Hybrid", "Compression Ratio", "Compression Speed (MB/s)"],
        md_align="lrr",
        md_rows=[(r.pipeline.display_name, f"{r.cr:.2f}", f"{r.cs:.2f}") for r in rows],
        svg=partial(_svg_balance, rows),
    )


def _svg_balance(rows: Sequence[EfficiencyRow]) -> bytes:
    width, height, pad = 680, 420, 50
    plot_w, plot_h = width - 2 * pad, height - 2 * pad
    max_cr = max((r.cr for r in rows), default=1.0) or 1.0
    max_cs = max((r.cs for r in rows), default=1.0) or 1.0
    parts = [
        f'<line x1="{pad}" y1="{height - pad}" x2="{width - pad}" y2="{height - pad}" stroke="#333"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height - pad}" stroke="#333"/>',
        f'<text x="{width / 2:.0f}" y="{height - 12}" text-anchor="middle">compression speed (MB/s)</text>',
        f'<text x="14" y="{height / 2:.0f}" text-anchor="middle" '
        f'transform="rotate(-90 14 {height / 2:.0f})">compression ratio</text>',
        f'<text x="{width - pad}" y="{height - pad + 16}" text-anchor="end">{max_cs:.1f}</text>',
        f'<text x="{pad - 6}" y="{pad + 4}" text-anchor="end">{max_cr:.1f}</text>',
    ]
    for r in rows:
        cx = pad + (r.cs / max_cs) * plot_w
        cy = height - pad - (r.cr / max_cr) * plot_h
        parts.append('<g class="point">')
        parts.append(f'<circle cx="{cx:.2f}" cy="{cy:.2f}" r="4" fill="#4e79a7"/>')
        parts.append(f'<text x="{cx + 6:.2f}" y="{cy - 4:.2f}">{r.pipeline.display_name}</text>')
        parts.append("</g>")
    return _svg(width, height, 11, parts)


# ---------------------------------------------------------------------------
# Component frequency

def frequency_report(rows: Sequence[EfficiencyRow]) -> Table:
    """Per-codec appearance counts in ``rows`` (descending, then by codec
    name), each with its share of the rows."""
    ordered = sorted(component_frequency(rows).items(),
                     key=lambda kv: (-kv[1], kv[0].canonical_name))
    total_rows = len(rows)
    return Table(
        columns=["codec", "count"],
        rows=[(c.canonical_name, n) for c, n in ordered],
        md_header=["Codec", "Appearances", "Share of rows"],
        md_align="lrr",
        md_rows=[
            (c.canonical_name, str(n), f"{100 * n / total_rows:.1f}%" if total_rows else "")
            for c, n in ordered
        ],
        svg=partial(_svg_frequency, ordered),
        json={"counts": {c.canonical_name: n for c, n in ordered}, "rows_counted": total_rows},
    )


def _svg_frequency(ordered: Sequence[tuple[CodecId, int]]) -> bytes:
    bar_w, gap, pad, plot_h = 70, 30, 40, 260
    width = pad * 2 + len(ordered) * (bar_w + gap)
    height = plot_h + 2 * pad
    peak = max((n for _, n in ordered), default=1) or 1
    parts = [
        f'<line x1="{pad}" y1="{pad + plot_h}" x2="{width - pad}" y2="{pad + plot_h}" stroke="#333"/>',
    ]
    for i, (codec, n) in enumerate(ordered):
        h = (n / peak) * plot_h
        x = pad + i * (bar_w + gap)
        y = pad + plot_h - h
        parts.append('<g class="bar">')
        parts.append(
            f'<rect x="{x}" y="{y:.2f}" width="{bar_w}" height="{h:.2f}" fill="#4e79a7"/>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.0f}" y="{y - 6:.2f}" text-anchor="middle">{n}</text>'
        )
        parts.append(
            f'<text x="{x + bar_w / 2:.0f}" y="{pad + plot_h + 16}" text-anchor="middle">'
            f"{codec.canonical_name}</text>"
        )
        parts.append("</g>")
    return _svg(width, height, 12, parts)
