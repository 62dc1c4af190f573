"""Dependency-free SVG 1.1 output for scatter fields and histograms.

Output is a pure function of the input: numbers are formatted with fixed
precision and no timestamps or randomness enter the document, so identical
inputs give byte-identical SVG.  Axes are labelled in percent.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .dataset import format_rows
from .errors import EmptyPlot

WIDTH, HEIGHT = 720, 520
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 36, 44
PLOT_W, PLOT_H = WIDTH - MARGIN_L - MARGIN_R, HEIGHT - MARGIN_T - MARGIN_B

PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _px(x: float | np.ndarray, lo: float, hi: float, size: int, offset: int, flip: bool = False):
    frac = (x - lo) / (hi - lo) if hi > lo else 0.5
    if flip:
        frac = 1.0 - frac
    return offset + frac * size


class _Doc:
    def __init__(self, title: str):
        self.parts: list[str] = [
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" width="{WIDTH}" height="{HEIGHT}" '
            f'viewBox="0 0 {WIDTH} {HEIGHT}">\n',
            f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>\n',
            f'<text x="{WIDTH // 2}" y="20" text-anchor="middle" font-family="sans-serif" '
            f'font-size="14">{_esc(title)}</text>\n',
        ]

    def add(self, fragment: str) -> None:
        self.parts.append(fragment)

    def render(self) -> str:
        return "".join([*self.parts, "</svg>\n"])


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _frame(doc: _Doc) -> None:
    doc.add(
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" width="{PLOT_W}" height="{PLOT_H}" '
        'fill="none" stroke="#333" stroke-width="1"/>\n'
    )


def _axis_labels(doc: _Doc, x_label: str, y_label: str) -> None:
    doc.add(
        f'<text x="{MARGIN_L + PLOT_W // 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12">{_esc(x_label)}</text>\n'
        f'<text x="14" y="{MARGIN_T + PLOT_H // 2}" text-anchor="middle" font-family="sans-serif" '
        f'font-size="12" transform="rotate(-90 14 {MARGIN_T + PLOT_H // 2})">{_esc(y_label)}</text>\n'
    )


def _axes(doc: _Doc, x_lo: float, x_hi: float, y_lo: float, y_hi: float, x_label: str, y_label: str) -> None:
    _frame(doc)
    for i in range(11):
        fx = x_lo + (x_hi - x_lo) * i / 10
        px = _px(fx, x_lo, x_hi, PLOT_W, MARGIN_L)
        doc.add(
            f'<line x1="{_fmt(px)}" y1="{HEIGHT - MARGIN_B}" x2="{_fmt(px)}" '
            f'y2="{HEIGHT - MARGIN_B + 4}" stroke="#333"/>\n'
            f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{_fmt(fx * 100)}%</text>\n'
        )
        fy = y_lo + (y_hi - y_lo) * i / 10
        py = _px(fy, y_lo, y_hi, PLOT_H, MARGIN_T, flip=True)
        doc.add(
            f'<line x1="{MARGIN_L - 4}" y1="{_fmt(py)}" x2="{MARGIN_L}" y2="{_fmt(py)}" stroke="#333"/>\n'
            f'<text x="{MARGIN_L - 6}" y="{_fmt(py + 3)}" text-anchor="end" '
            f'font-family="sans-serif" font-size="10">{_fmt(fy * 100)}%</text>\n'
        )
    _axis_labels(doc, x_label, y_label)


def svg_scatter(
    series: Sequence[tuple[str, np.ndarray | Sequence[tuple[float, float]], tuple[float, float] | None]],
    title: str = "",
    x_label: str = "turnout",
    y_label: str = "share",
) -> str:
    """Scatter overlay of up to 8 labelled series with optional trend lines.

    Each series is (label, points, (slope, intercept) or None), where the
    points are an ``(n, 2)`` array or a list of (x, y) pairs, all
    coordinates as fractions of 1.
    """
    series = [
        (label, pts, np.asarray(pts, dtype=np.float64).reshape(len(pts), 2), trend)
        for label, pts, trend in list(series)[:8]
    ]
    if not series or all(len(xy) == 0 for _, _, xy, _ in series):
        raise EmptyPlot("no points to draw")
    for _, pts, xy, _ in series:
        with np.errstate(invalid="ignore"):
            bad = np.isnan(xy).any(axis=1) | (np.abs(xy) > 1e6).any(axis=1)
        if bad.any():
            x, y = pts[int(np.argmax(bad))]
            raise EmptyPlot(f"non-finite coordinate ({x}, {y})")
    doc = _Doc(title)
    _axes(doc, 0.0, 1.0, 0.0, 1.0, x_label, y_label)
    for idx, (label, _, xy, trend) in enumerate(series):
        color = PALETTE[idx % len(PALETTE)]
        px = _px(xy[:, 0], 0, 1, PLOT_W, MARGIN_L)
        py = _px(xy[:, 1], 0, 1, PLOT_H, MARGIN_T, flip=True)
        circle = '<circle cx="%.2f" cy="%.2f" r="1.6" fill="' + color + '" fill-opacity="0.45"/>\n'
        doc.parts.extend(format_rows(circle, [px, py]))
        if trend is not None:
            slope, intercept = trend
            x1, x2 = 0.0, 1.0
            y1, y2 = intercept, slope + intercept
            doc.add(
                f'<line x1="{_fmt(_px(x1, 0, 1, PLOT_W, MARGIN_L))}" '
                f'y1="{_fmt(_px(y1, 0, 1, PLOT_H, MARGIN_T, True))}" '
                f'x2="{_fmt(_px(x2, 0, 1, PLOT_W, MARGIN_L))}" '
                f'y2="{_fmt(_px(y2, 0, 1, PLOT_H, MARGIN_T, True))}" '
                f'stroke="{color}" stroke-width="1.5"/>\n'
            )
        doc.add(
            f'<rect x="{MARGIN_L + 8}" y="{MARGIN_T + 8 + 16 * idx}" width="10" height="10" fill="{color}"/>\n'
            f'<text x="{MARGIN_L + 22}" y="{MARGIN_T + 17 + 16 * idx}" font-family="sans-serif" '
            f'font-size="11">{_esc(label)}</text>\n'
        )
    return doc.render()


def svg_histogram(
    values: Sequence[float],
    title: str = "",
    x_label: str = "percent",
    y_label: str = "weight",
    envelope: tuple[Sequence[float], Sequence[float]] | None = None,
    highlights: Sequence[int] = (),
) -> str:
    """Bar chart over integer percents 0..len(values)-1 with an optional null band.

    ``envelope`` is (low, high) per bin, drawn as a grey band behind the
    bars; ``highlights`` marks bins (e.g. flagged targets) in red.
    """
    values = list(values)
    if not values or all(v == 0 for v in values):
        raise EmptyPlot("no histogram mass to draw")
    if any(v != v or v < 0 for v in values):
        raise EmptyPlot("histogram weights must be finite and non-negative")
    n = len(values)
    top = max(values)
    if envelope is not None:
        top = max(top, max(envelope[1], default=0))
    top = top * 1.05 or 1.0
    doc = _Doc(title)
    bar_w = PLOT_W / n
    _frame(doc)
    for i in range(0, n, max(1, n // 10)):
        px = MARGIN_L + (i + 0.5) * bar_w
        doc.add(
            f'<text x="{_fmt(px)}" y="{HEIGHT - MARGIN_B + 16}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="10">{i}%</text>\n'
        )
    if envelope is not None:
        lo_band, hi_band = envelope
        for i in range(n):
            y_hi = _px(hi_band[i], 0, top, PLOT_H, MARGIN_T, flip=True)
            y_lo = _px(lo_band[i], 0, top, PLOT_H, MARGIN_T, flip=True)
            doc.add(
                f'<rect x="{_fmt(MARGIN_L + i * bar_w)}" y="{_fmt(y_hi)}" '
                f'width="{_fmt(bar_w)}" height="{_fmt(max(y_lo - y_hi, 0.0))}" fill="#bbb" fill-opacity="0.6"/>\n'
            )
    for i, v in enumerate(values):
        if v <= 0:
            continue
        py = _px(v, 0, top, PLOT_H, MARGIN_T, flip=True)
        color = "#d62728" if i in set(highlights) else "#1f77b4"
        doc.add(
            f'<rect x="{_fmt(MARGIN_L + i * bar_w + 0.5)}" y="{_fmt(py)}" '
            f'width="{_fmt(max(bar_w - 1.0, 0.5))}" height="{_fmt(HEIGHT - MARGIN_B - py)}" fill="{color}"/>\n'
        )
    _axis_labels(doc, x_label, y_label)
    return doc.render()
