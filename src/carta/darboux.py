"""Inversions carrying one triangle to a congruent copy of another.

An inversion with pole P and power k maps a segment XY to one of length
|k| |XY| / (|PX| |PY|), so prescribing the three image side lengths pins P
to the intersection of two Apollonius circles and |k| to a closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    CoincidentPoints,
    DegenerateTriangle,
    NonFiniteValue,
    PoleOnVertex,
)
from .geometry import GeneralizedCircle, Inversion, PlanePoint


@dataclass(frozen=True)
class Triangle:
    """Non-degenerate plane triangle with the usual side labels a=|BC|,
    b=|CA|, c=|AB|."""

    vertex_a: PlanePoint
    vertex_b: PlanePoint
    vertex_c: PlanePoint

    def __post_init__(self):
        if self.area() < 1e-12:
            raise DegenerateTriangle("triangle area below 1e-12")
        a, b, c = self.sides()
        if a >= b + c or b >= c + a or c >= a + b:
            raise DegenerateTriangle("side lengths violate the triangle inequality")

    def vertices(self) -> tuple[PlanePoint, PlanePoint, PlanePoint]:
        return self.vertex_a, self.vertex_b, self.vertex_c

    def sides(self) -> tuple[float, float, float]:
        return (
            self.vertex_b.distance(self.vertex_c),
            self.vertex_c.distance(self.vertex_a),
            self.vertex_a.distance(self.vertex_b),
        )

    def area(self) -> float:
        ax, ay = self.vertex_a.x, self.vertex_a.y
        return 0.5 * abs(
            (self.vertex_b.x - ax) * (self.vertex_c.y - ay)
            - (self.vertex_c.x - ax) * (self.vertex_b.y - ay)
        )


def image_triangle_sides(inv: Inversion, t: Triangle) -> tuple[float, float, float]:
    """Side lengths of the inverted triangle from the distance identity
    |f(X) f(Y)| = |k| |XY| / (|PX| |PY|), without mapping the vertices."""
    pa = inv.pole.distance(t.vertex_a)
    pb = inv.pole.distance(t.vertex_b)
    pc = inv.pole.distance(t.vertex_c)
    if min(pa, pb, pc) < 1e-12:
        raise PoleOnVertex("inversion pole sits on a vertex")
    a, b, c = t.sides()
    k = abs(inv.power)
    return k * a / (pb * pc), k * b / (pc * pa), k * c / (pa * pb)


def apollonius_circle(a: PlanePoint, b: PlanePoint, ratio: float) -> GeneralizedCircle:
    """Locus of points P with |PA| / |PB| = ratio.

    The perpendicular bisector of AB when the ratio is 1, otherwise a
    circle with center (A - ratio^2 B) / (1 - ratio^2).
    """
    if ratio <= 0:
        raise ValueError("ratio must be positive")
    d = a.distance(b)
    if d < 1e-14:
        raise CoincidentPoints("Apollonius locus needs two distinct points")
    if abs(ratio - 1.0) < 1e-12:
        nx, ny = (b.x - a.x) / d, (b.y - a.y) / d
        mid_offset = nx * (a.x + b.x) / 2 + ny * (a.y + b.y) / 2
        return GeneralizedCircle.line((nx, ny), mid_offset)
    r2 = ratio * ratio
    center = PlanePoint((a.x - r2 * b.x) / (1 - r2), (a.y - r2 * b.y) / (1 - r2))
    return GeneralizedCircle.circle(center, ratio * d / abs(1 - r2))


def intersect_generalized(
    g1: GeneralizedCircle, g2: GeneralizedCircle
) -> list[PlanePoint]:
    """Intersection points of two generalized circles (0, 1, or 2).

    Circle pairs go through the radical line with a 1e-12 discriminant
    tolerance; tangency yields a single point.
    """
    if g1.kind == "circle" and g2.kind == "line":
        g1, g2 = g2, g1
    if g1.kind == "line" and g2.kind == "line":
        (n1x, n1y), (n2x, n2y) = g1.normal, g2.normal
        det = n1x * n2y - n1y * n2x
        if abs(det) < 1e-12:
            return []
        x = (g1.offset * n2y - g2.offset * n1y) / det
        y = (n1x * g2.offset - n2x * g1.offset) / det
        return [PlanePoint(x, y)]
    if g1.kind == "line":
        nx, ny = g1.normal
        cx, cy, r = g2.center.x, g2.center.y, g2.radius
        dist = nx * cx + ny * cy - g1.offset
        foot = PlanePoint(cx - dist * nx, cy - dist * ny)
        disc = r * r - dist * dist
        if disc < -1e-12 * r * r:
            return []
        if disc <= 1e-12 * r * r:
            return [foot]
        t = math.sqrt(disc)
        return [
            PlanePoint(foot.x - t * ny, foot.y + t * nx),
            PlanePoint(foot.x + t * ny, foot.y - t * nx),
        ]
    c1, r1 = g1.center, g1.radius
    c2, r2 = g2.center, g2.radius
    dist = c1.distance(c2)
    if dist < 1e-14:
        return []
    # radical line: foot of the common chord on the center axis
    x = (dist * dist + r1 * r1 - r2 * r2) / (2.0 * dist)
    disc = r1 * r1 - x * x
    scale = max(r1 * r1, r2 * r2)
    ex, ey = (c2.x - c1.x) / dist, (c2.y - c1.y) / dist
    foot = PlanePoint(c1.x + x * ex, c1.y + x * ey)
    if disc < -1e-12 * scale:
        return []
    if disc <= 1e-12 * scale:
        return [foot]
    t = math.sqrt(disc)
    return [
        PlanePoint(foot.x - t * ey, foot.y + t * ex),
        PlanePoint(foot.x + t * ey, foot.y - t * ex),
    ]


def inversions_for_sides(
    source: Triangle, target_sides: Sequence[float]
) -> list[Inversion]:
    """Inversions mapping ``source`` to given (possibly infeasible) side
    lengths, labels matched.  Empty when the two pole loci do not meet.
    Inverted images are mirror copies, so the inversions onto a copy of a
    triangle T are those for ``T.sides()``.

    Any genuine triangle of target sides is attainable (the generalized
    Ptolemy inequalities are exactly the triangle inequalities of the
    scaled distances), so an empty answer signals an infeasible side
    triple rather than an unlucky configuration.
    """
    a0, b0, c0 = target_sides
    if min(a0, b0, c0) <= 0:
        raise ValueError("target side lengths must be positive")
    a, b, c = source.sides()
    va, vb, vc = source.vertices()
    try:
        ratio_ab, ratio_bc = (a0 * b) / (a * b0), (b0 * c) / (b * c0)  # |PA|/|PB|, |PB|/|PC|
    except ZeroDivisionError:  # a product of sides underflowed
        ratio_ab = ratio_bc = math.inf
    # apollonius_circle squares the ratios: keep the squares normal floats
    if not (1e-150 < ratio_ab < 1e150 and 1e-150 < ratio_bc < 1e150):
        raise NonFiniteValue("side-length ratio too extreme to square in floating point")
    locus_ab = apollonius_circle(va, vb, ratio_ab)
    locus_bc = apollonius_circle(vb, vc, ratio_bc)
    solutions = []
    for pole in intersect_generalized(locus_ab, locus_bc):
        pb = pole.distance(vb)
        pc = pole.distance(vc)
        if min(pole.distance(va), pb, pc) < 1e-12:
            continue  # pole on a vertex: no finite image triangle
        power = a0 * pb * pc / a
        if not 0.0 < power < math.inf:
            raise NonFiniteValue(f"inversion power {power} outside the floating-point range")
        candidate = Inversion(pole, power)
        achieved = image_triangle_sides(candidate, source)
        err = max(
            abs(achieved[0] - a0) / a0,
            abs(achieved[1] - b0) / b0,
            abs(achieved[2] - c0) / c0,
        )
        if err <= 1e-6:  # tangency-grade poles can miss; exact ones land ~1e-15
            solutions.append(candidate)
    return solutions
