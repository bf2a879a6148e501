"""SVG rendering of 2-D angle bodies (SVG 1.1, plain profile, no timestamps)."""

from __future__ import annotations

import math

from . import polytope as pt

SIZE = 512
MARGIN = 72


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def _to_px(point) -> tuple[float, float]:
    x, y = float(point[0]), float(point[1])
    return x * SIZE, (1 - y) * SIZE


def _escape(text: str) -> str:
    """Text as SVG character data: &, < and > become entities."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _ccw_order(verts):
    cx = sum(float(v[0]) for v in verts) / len(verts)
    cy = sum(float(v[1]) for v in verts) / len(verts)
    return sorted(verts, key=lambda v: math.atan2(float(v[1]) - cy, float(v[0]) - cx))


def render_body(
    body: pt.VPolytope,
    axis_labels: tuple[str, str] = ("b1", "b2"),
    exact: bool = True,
    title: str = "",
) -> str:
    """Shaded closed body, given by its vertices, inside the unit square,
    vertices labelled with exact rationals; an OUTER watermark marks
    approximations."""
    if body.dim != 2:
        raise ValueError("SVG rendering needs a 2-dimensional body")
    verts = body.vertices
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{-MARGIN} {-MARGIN} {SIZE + 2 * MARGIN} {SIZE + 2 * MARGIN}">',
        f'<rect x="0" y="0" width="{SIZE}" height="{SIZE}" fill="white" stroke="black" stroke-width="1"/>',
    ]
    if title:
        parts.append(
            f'<text x="{SIZE / 2}" y="-28" text-anchor="middle" font-size="18">{_escape(title)}</text>'
        )
    # axis labels and unit ticks
    parts.append(
        f'<text x="{SIZE / 2}" y="{SIZE + 44}" text-anchor="middle" font-size="16">{_escape(axis_labels[0])}</text>'
    )
    parts.append(
        f'<text x="-44" y="{SIZE / 2}" text-anchor="middle" font-size="16" '
        f'transform="rotate(-90 -44 {SIZE / 2})">{_escape(axis_labels[1])}</text>'
    )
    for t, anchor in ((0, (0, SIZE)), (1, (SIZE, SIZE))):
        parts.append(
            f'<text x="{anchor[0]}" y="{SIZE + 20}" text-anchor="middle" font-size="12">{t}</text>'
        )
    parts.append(f'<text x="-14" y="{SIZE + 4}" text-anchor="middle" font-size="12">0</text>')
    parts.append(f'<text x="-14" y="10" text-anchor="middle" font-size="12">1</text>')
    if verts:
        ordered = _ccw_order(verts)
        path = " ".join(
            ("M" if i == 0 else "L") + f"{_fmt(_to_px(v)[0])},{_fmt(_to_px(v)[1])}"
            for i, v in enumerate(ordered)
        )
        parts.append(f'<path d="{path} Z" fill="#9ecae1" fill-opacity="0.7" stroke="#08519c" stroke-width="2"/>')
        for v in verts:
            px, py = _to_px(v)
            label = f"({v[0]}, {v[1]})"
            lx = px + (10 if float(v[0]) < 0.5 else -10)
            ly = py + (-8 if float(v[1]) < 0.5 else 16)
            anchor = "start" if float(v[0]) < 0.5 else "end"
            parts.append(f'<circle cx="{_fmt(px)}" cy="{_fmt(py)}" r="4" fill="#08519c"/>')
            parts.append(
                f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" text-anchor="{anchor}" font-size="14">{label}</text>'
            )
    else:
        parts.append(
            f'<text x="{SIZE / 2}" y="{SIZE / 2}" text-anchor="middle" font-size="20">empty</text>'
        )
    if not exact:
        parts.append(
            f'<text x="{SIZE / 2}" y="{SIZE / 2}" text-anchor="middle" font-size="64" '
            f'fill="#d62728" fill-opacity="0.4" transform="rotate(-30 {SIZE / 2} {SIZE / 2})">OUTER</text>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
