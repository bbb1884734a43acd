"""The one result shape of every check, and artifact emission: atomic file
writes, CSV text, and self-contained SVG charts.

Every check (distribution, a.c.s./s.a.c.s. certificates, zero distribution,
quasi-Hermitian split) returns a :class:`Report`: a verdict, one raw-valued
row per CSV line, and the records ``summary.json`` carries.

Every writer produces deterministic bytes for a given input (floats are
printed with shortest round-trip repr, JSON keys are sorted), so repeated
runs with the same config and seed are byte-identical.  Files are written to
a temporary sibling and renamed into place, so partial outputs are never left
behind.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Sequence

from .multiindex import format_multiindex

_PALETTE = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]


def atomic_write_text(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def csv_text(header: Sequence, rows: Iterable[Sequence]) -> str:
    """CSV text with newline line ends; pass floats as ``repr`` strings."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cell(value):
    if isinstance(value, float):
        return repr(float(value))  # a numpy scalar would print as np.float64(...)
    if isinstance(value, tuple):
        return format_multiindex(value)
    return value


@dataclass
class Report:
    """A check's verdict, its CSV table and its summary records.

    ``rows`` hold raw values (multi-indices, ints, floats, strings), one
    ``NamedTuple`` per CSV line under the header ``columns``.  ``checks`` and
    ``facts`` (per-size or per-m numbers, keyed as in ``summary.json``) go
    into the summary with ``metadata`` as its ``policy``.  ``notes`` collects
    the materialization notes (e.g. pseudo-inverse truncation) of every
    matrix the check read.
    """

    passed: bool
    columns: tuple[str, ...]
    rows: list[NamedTuple]
    checks: list[dict] = field(default_factory=list)
    facts: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    def csv(self) -> str:
        """The CSV text: floats by shortest round-trip ``repr``, multi-indices
        by ``format_multiindex``."""
        return csv_text(self.columns, ([_cell(v) for v in row] for row in self.rows))

    def summary(self) -> dict:
        """``checks``, ``facts`` and ``policy``, leaving out empty sections,
        plus ``notes`` when a note exists."""
        sections = {"checks": self.checks, "policy": self.metadata, "notes": self.notes}
        return {**self.facts, **{key: value for key, value in sections.items() if value}}


def summary_json(payload: Mapping) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _log_ticks(lo: float, hi: float) -> list[float]:
    import math

    first = math.floor(math.log10(lo))
    last = math.ceil(math.log10(hi))
    return [10.0**e for e in range(first, last + 1)]


def svg_line_chart(series: Mapping[str, Sequence[tuple[float, float]]],
                   title: str, xlabel: str, ylabel: str) -> str:
    """A minimal self-contained log-log SVG line chart (no external assets).

    ``series`` maps a label to (x, y) pairs; non-positive values are clamped
    to 1e-16.
    """
    import math

    width, height = 640, 440
    ml, mr, mt, mb = 70, 160, 40, 50
    pw, ph = width - ml - mr, height - mt - mb

    pts_all = [(x, y) for pts in series.values() for x, y in pts]
    if not pts_all:
        pts_all = [(1.0, 1.0)]

    def tx(v: float) -> float:
        return max(v, 1e-16)

    xs = [tx(p[0]) for p in pts_all]
    ys = [tx(p[1]) for p in pts_all]
    x0, x1 = math.log10(min(xs)), math.log10(max(xs))
    y0, y1 = math.log10(min(ys)), math.log10(max(ys))
    if x1 - x0 < 1e-12:
        x0, x1 = x0 - 0.5, x1 + 0.5
    if y1 - y0 < 1e-12:
        y0, y1 = y0 - 0.5, y1 + 0.5

    def px(v: float) -> float:
        return ml + (math.log10(tx(v)) - x0) / (x1 - x0) * pw

    def py(v: float) -> float:
        return mt + ph - (math.log10(tx(v)) - y0) / (y1 - y0) * ph

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width // 2}" y="24" text-anchor="middle" font-family="monospace" '
        f'font-size="14">{title}</text>',
        f'<line x1="{ml}" y1="{mt + ph}" x2="{ml + pw}" y2="{mt + ph}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{mt + ph}" stroke="black"/>',
        f'<text x="{ml + pw // 2}" y="{height - 12}" text-anchor="middle" '
        f'font-family="monospace" font-size="12">{xlabel}</text>',
        f'<text x="16" y="{mt + ph // 2}" text-anchor="middle" font-family="monospace" '
        f'font-size="12" transform="rotate(-90 16 {mt + ph // 2})">{ylabel}</text>',
    ]
    for tick in _log_ticks(min(xs), max(xs)):
        x = ml + (math.log10(tick) - x0) / (x1 - x0) * pw
        if ml - 1 <= x <= ml + pw + 1:
            out.append(
                f'<line x1="{x:.2f}" y1="{mt + ph}" x2="{x:.2f}" y2="{mt + ph + 5}" '
                f'stroke="black"/>'
            )
            out.append(
                f'<text x="{x:.2f}" y="{mt + ph + 18}" text-anchor="middle" '
                f'font-family="monospace" font-size="10">1e{int(math.log10(tick))}</text>'
            )
    for tick in _log_ticks(min(ys), max(ys)):
        y = mt + ph - (math.log10(tick) - y0) / (y1 - y0) * ph
        if mt - 1 <= y <= mt + ph + 1:
            out.append(
                f'<line x1="{ml - 5}" y1="{y:.2f}" x2="{ml}" y2="{y:.2f}" stroke="black"/>'
            )
            out.append(
                f'<text x="{ml - 8}" y="{y + 3:.2f}" text-anchor="end" '
                f'font-family="monospace" font-size="10">1e{int(math.log10(tick))}</text>'
            )
    for idx, (label, pts) in enumerate(series.items()):
        color = _PALETTE[idx % len(_PALETTE)]
        path = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in pts)
        out.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{path}"/>'
        )
        for x, y in pts:
            out.append(
                f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="2.5" fill="{color}"/>'
            )
        ly = mt + 16 * idx
        out.append(
            f'<line x1="{ml + pw + 10}" y1="{ly}" x2="{ml + pw + 30}" y2="{ly}" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )
        out.append(
            f'<text x="{ml + pw + 35}" y="{ly + 4}" font-family="monospace" '
            f'font-size="11">{label}</text>'
        )
    out.append("</svg>")
    return "\n".join(out) + "\n"
