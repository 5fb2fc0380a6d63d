"""Barcode rendering as standalone SVG documents.

Text is escaped by :func:`_escape`, the three replacements of
``xml.sax.saxutils.escape``; importing that module would load
``urllib`` and the network stack behind it.
"""

from __future__ import annotations

import math
from itertools import groupby
from operator import itemgetter

from .complexes import _checked
from .reduction import Barcode

CANVAS_WIDTH = 960
_MARGIN_LEFT = 70
_MARGIN_RIGHT = 50
_MARGIN_TOP = 34
_MARGIN_BOTTOM = 42
_BAR_HEIGHT = 10  # even, so that an arrowhead's tip is a whole pixel below its bar's top
_BAR_GAP = 4
_GROUP_HEADER = 20
_PALETTE = ("#1b6ca8", "#c0392b", "#1e8449", "#7d3c98", "#b7950b", "#34495e")


def _escape(text: str) -> str:
    """Escape ``&``, ``>`` and ``<``, in that order."""
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_barcode_svg(
    barcode: Barcode,
    include_zero_length: bool = False,
    axis_max: float | None = None,
    title: str | None = None,
    config: dict | None = None,
) -> str:
    """Draw one horizontal bar per interval, grouped by dimension.

    The x-axis spans [0, axis_max]; a given axis_max must be finite and
    > 0, and the default is the largest finite value in the barcode (1
    if that is 0). Infinite deaths run to the right margin and end in an
    arrowhead. ``config`` key/value pairs are echoed in an
    XML comment after the declaration, mirroring the ``#`` headers of
    the TSV outputs. Output is deterministic for fixed input.
    """
    groups = [(k, barcode._rows(k, include_zero_length)) for k in barcode.dims]
    groups = [(k, rows) for k, rows in groups if rows]

    if axis_max is None:  # the largest finite birth or death, zero-length bars included
        values = [0.0]
        for rows in map(barcode._rows, barcode.dims):
            values.append(rows[-1][1])  # the largest birth: rows sort by birth
            values += set(map(itemgetter(2), rows)) - {math.inf}
        axis_max = max(values) or 1.0
    else:
        _checked("axis_max", axis_max)

    n_bars = sum(len(rows) for _, rows in groups)
    height = (
        _MARGIN_TOP
        + len(groups) * _GROUP_HEADER
        + n_bars * (_BAR_HEIGHT + _BAR_GAP)
        + _MARGIN_BOTTOM
    )
    plot_w = CANVAS_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT

    def x_of(value: float) -> float:
        return _MARGIN_LEFT + plot_w * min(value, axis_max) / axis_max

    out = ['<?xml version="1.0" encoding="UTF-8"?>']
    if config:
        echo = " ".join(f"{k}={config[k]}" for k in sorted(config))
        out.append(f"<!-- {_escape(echo).replace('--', '- -')} -->")
    out += [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{CANVAS_WIDTH}" height="{height}" '
        f'viewBox="0 0 {CANVAS_WIDTH} {height}">',
        f'<rect x="0" y="0" width="{CANVAS_WIDTH}" height="{height}" fill="white"/>',
    ]
    if title:
        out.append(
            f'<text x="{CANVAS_WIDTH // 2}" y="20" text-anchor="middle" '
            f'font-family="sans-serif" font-size="14">{_escape(title)}</text>'
        )

    axis_y = height - _MARGIN_BOTTOM + 12
    out.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{axis_y}" x2="{_MARGIN_LEFT + plot_w}" '
        f'y2="{axis_y}" stroke="black" stroke-width="1"/>'
    )
    for t in range(5):
        value = axis_max * t / 4
        x = x_of(value)
        out.append(
            f'<line x1="{_fmt(x)}" y1="{axis_y}" x2="{_fmt(x)}" y2="{axis_y + 5}" '
            f'stroke="black" stroke-width="1"/>'
        )
        out.append(
            f'<text x="{_fmt(x)}" y="{axis_y + 18}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="11">{value:.3g}</text>'
        )

    right = _MARGIN_LEFT + plot_w
    # an arrowhead's x values are the same for every infinite bar
    base, tip = _fmt(right), _fmt(right + 12)
    y = _MARGIN_TOP
    for k, rows in groups:
        color = _PALETTE[k % len(_PALETTE)]
        out.append(
            f'<text x="8" y="{y + 14}" font-family="sans-serif" '
            f'font-size="12" fill="{color}">k = {k} ({len(rows)})</text>'
        )
        y += _GROUP_HEADER
        # bars sort by (birth, death), so equal spans are adjacent and
        # each span's rect pieces are made once
        for (birth, death), run in groupby(rows, key=itemgetter(1, 2)):
            x0 = x_of(birth)
            infinite = death == math.inf
            width = max((right if infinite else x_of(death)) - x0, 1.0)
            head = f'<rect x="{_fmt(x0)}" y="'
            tail = f'" width="{_fmt(width)}" height="{_BAR_HEIGHT}" fill="{color}"/>'
            for _ in run:
                out.append(f"{head}{y}{tail}")
                if infinite:  # its y values are whole numbers, which _fmt prints with ".00"
                    out.append(
                        f'<polygon points="{base},{y - 2}.00 {tip},{y + _BAR_HEIGHT // 2}.00 '
                        f'{base},{y + _BAR_HEIGHT + 2}.00" fill="{color}"/>'
                    )
                y += _BAR_HEIGHT + _BAR_GAP
    out.append("</svg>")
    return "\n".join(out) + "\n"
