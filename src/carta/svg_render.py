"""Minimal SVG 1.1 writer for projected maps.

Graticule images are emitted as native <circle> and <line> primitives
rather than polylines: the rendered file itself exhibits that the curves
are exact circles.  Output is deterministic: the same input gives the
same bytes.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .geojson_io import format_float as fmt
from .geometry import GeneralizedCircle
from .lagrange import GraticuleCurveFit


def _line_endpoints(curve: GeneralizedCircle, bounds) -> tuple | None:
    """Clip an infinite line to a rectangle; None when it misses."""
    x0, y0, x1, y1 = bounds
    nx, ny = curve.normal
    d = curve.offset
    points = []
    for xv in (x0, x1):
        if abs(ny) > 1e-15:
            yv = (d - nx * xv) / ny
            if y0 - 1e-9 <= yv <= y1 + 1e-9:
                points.append((xv, yv))
    for yv in (y0, y1):
        if abs(nx) > 1e-15:
            xv = (d - ny * yv) / nx
            if x0 - 1e-9 <= xv <= x1 + 1e-9:
                points.append((xv, yv))
    unique = []
    for p in points:
        if not any(math.hypot(p[0] - q[0], p[1] - q[1]) < 1e-9 for q in unique):
            unique.append(p)
    if len(unique) < 2:
        return None
    return unique[0], unique[1]


def render_svg(path: str, curves: Sequence[GraticuleCurveFit], *features) -> None:
    """Write ``svg_text(curves, *features)`` to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg_text(curves, *features))


def svg_text(curves: Sequence[GraticuleCurveFit], x=(), y=(), lines=(), polylines=()) -> str:
    """An SVG map: graticule primitives plus projected feature paths.

    Feature line k runs through the points (x[i], y[i]) for i in
    ``range(*lines[k])``, and ``polylines[k]`` is its points as
    ``position_texts`` writes them, each (x[i], -y[i]), which is written as
    given.  The view is the box of the feature lines and of the circles of
    radius below 1e3, padded by 5%.
    """
    xs, ys = [x[a:b] for a, b in lines], [y[a:b] for a, b in lines]
    for fit in curves:
        circle = fit.image
        if circle.kind == "circle" and circle.radius < 1e3:
            xs.append([circle.center.x - circle.radius, circle.center.x + circle.radius])
            ys.append([circle.center.y - circle.radius, circle.center.y + circle.radius])
    xs, ys = np.concatenate([[], *xs]), np.concatenate([[], *ys])
    if not xs.size:
        xs, ys = np.array([-1.0, 1.0]), np.array([-1.0, 1.0])
    x0, y0, x1, y1 = (float(v) for v in (xs.min(), ys.min(), xs.max(), ys.max()))
    # the floor grows with the coordinates so that padding never rounds away
    pad = 0.05 * max(x1 - x0, y1 - y0, 1e-9 * max(1.0, abs(x0), abs(x1), abs(y0), abs(y1)))
    x0, y0, x1, y1 = x0 - pad, y0 - pad, x1 + pad, y1 + pad
    width, height = x1 - x0, y1 - y0
    stroke = max(width, height) / 400.0

    # SVG y grows downward: flip y when writing, so the viewBox lives in
    # (x, -y) coordinates
    view = f"{fmt(x0)} {fmt(-y1)} {fmt(width)} {fmt(height)}"
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="{view}" '
        f'width="800" height="{fmt(800.0 * height / width)}">',
        f'<g fill="none" stroke="#3366aa" stroke-width="{fmt(stroke)}">',
    ]
    clip = (x0, y0, x1, y1)
    for fit in curves:
        label = (
            f"{fit.curve_id}: rms residual {fmt(fit.rms_residual)}"
            f" over diameter {fmt(fit.diameter)}"
        )
        if fit.image.kind == "circle":
            parts.append(
                f'<circle cx="{fmt(fit.image.center.x)}" cy="{fmt(-fit.image.center.y)}" '
                f'r="{fmt(fit.image.radius)}"><title>{label}</title></circle>'
            )
        else:
            ends = _line_endpoints(fit.image, clip)
            if ends is None:
                continue
            (ax, ay), (bx, by) = ends
            parts.append(
                f'<line x1="{fmt(ax)}" y1="{fmt(-ay)}" x2="{fmt(bx)}" y2="{fmt(-by)}">'
                f"<title>{label}</title></line>"
            )
    parts.append("</g>")
    if lines:
        parts.append(
            f'<g fill="none" stroke="#aa3322" stroke-width="{fmt(1.5 * stroke)}">'
        )
        for (a, b), points in zip(lines, polylines):
            if b - a >= 2:
                parts.append(f'<polyline points="{points}"/>')
        parts.append("</g>")
    parts.append("</svg>")
    parts.append("")
    return "\n".join(parts)
