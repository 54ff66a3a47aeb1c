"""Inversions carrying one triangle to a congruent copy of another.

An inversion with pole P and power k maps a segment XY to one of length
|k| |XY| / (|PX| |PY|), so prescribing the three image side lengths pins P
to the loci |PA| = r |PB| and |PB| = r' |PC| and |k| to a closed form.
Each locus is a quadric alpha |P|^2 - 2 Re(conj(beta) P) + gamma = 0, a
circle or, at ratio 1, a line; the poles are the roots of one of them
along the radical axis of the two, from a quadratic solved without
cancellation, so they stay accurate as either ratio nears 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .errors import DegenerateTriangle, NonFiniteValue, PoleOnVertex
from .geometry import Inversion, plane_point


@dataclass(frozen=True)
class Triangle:
    """Non-degenerate plane triangle with the usual side labels a=|BC|,
    b=|CA|, c=|AB|."""

    vertex_a: complex
    vertex_b: complex
    vertex_c: complex

    def __post_init__(self):
        for name in ("vertex_a", "vertex_b", "vertex_c"):
            object.__setattr__(self, name, plane_point(getattr(self, name)))
        a, b, c = self.sides()
        longest = max(a, b, c) or 1.0  # three vertices at one point: area 0, refused
        # the area of the triangle scaled to a longest side of 1, so that refusal
        # depends neither on the units nor on underflow
        va, vb, vc = self.vertices()
        u, v = (vb - va) / longest, (vc - va) / longest
        if 0.5 * abs(u.real * v.imag - v.real * u.imag) < 1e-12:
            raise DegenerateTriangle("triangle area below 1e-12 of its longest side squared")
        if a >= b + c or b >= c + a or c >= a + b:
            raise DegenerateTriangle("side lengths violate the triangle inequality")

    def vertices(self) -> tuple[complex, complex, complex]:
        return self.vertex_a, self.vertex_b, self.vertex_c

    def sides(self) -> tuple[float, ...]:
        # lengths by math.hypot, whose rounding abs() of a complex does not always give
        va, vb, vc = self.vertices()
        return tuple(math.hypot(d.real, d.imag) for d in (vb - vc, vc - va, va - vb))


def _pole_distances(pole: complex, t: Triangle) -> tuple[float, float, float]:
    """|PA|, |PB| and |PC|; PoleOnVertex when one of them is within 1e-12
    of the longest side."""
    distances = tuple(math.hypot(d.real, d.imag) for d in (pole - v for v in t.vertices()))
    if min(distances) <= 1e-12 * max(t.sides()):
        raise PoleOnVertex("inversion pole sits on a vertex")
    return distances


def image_triangle_sides(inv: Inversion, t: Triangle) -> tuple[float, float, float]:
    """Side lengths of the inverted triangle from the distance identity
    |f(X) f(Y)| = |k| |XY| / (|PX| |PY|), without mapping the vertices."""
    pa, pb, pc = _pole_distances(inv.pole, t)
    a, b, c = t.sides()
    k = abs(inv.power)
    return k * a / (pb * pc), k * b / (pc * pa), k * c / (pa * pb)


def _poles(source: Triangle, ratio_ab: float, ratio_bc: float) -> list[complex]:
    """The points P with |PA| = ratio_ab |PB| and |PB| = ratio_bc |PC|, the
    one farther from the foot of B on the radical axis first.

    Each locus |P - X| = r |P - Y| is the quadric
    alpha |P|^2 - 2 Re(conj(beta) P) + gamma = 0 with alpha = (1 - r)(1 + r),
    beta = X - r^2 Y and gamma = |X|^2 - r^2 |Y|^2 (a line when r = 1),
    taken about B in units of the longest side and divided by 1 + r^2, so
    no coefficient exceeds 1.  For Q, the quadric of larger |alpha|, and
    Q1, the other, the radical axis is Q1 - (alpha1 / alpha) Q, or Q1 when
    both are lines.  Along the axis Q is a s^2 + 2 b s + c, whose roots
    q / a and c / q, with q = -(b + sign(b) sqrt(b^2 - a c)), do not
    cancel; a line's root at infinity is dropped.  A discriminant within
    1e-12 of the size of its terms is a tangency: one pole.
    """
    va, vb, vc = source.vertices()
    unit = max(source.sides())
    loci = []
    for x, y, r in (((va - vb) / unit, 0j, ratio_ab), (0j, (vc - vb) / unit, ratio_bc)):
        r2, w = r * r, 1.0 + r * r
        gamma = abs(x) ** 2 - r2 * abs(y) ** 2
        loci.append(((1.0 - r) * (1.0 + r) / w, (x - r2 * y) / w, gamma / w))
    (alpha1, beta1, gamma1), (alpha, beta, gamma) = sorted(loci, key=lambda q: abs(q[0]))
    t = alpha1 / alpha if alpha else 0.0
    normal = beta1 - t * beta  # the axis: 2 Re(conj(normal) P) = gamma1 - t gamma
    size = abs(normal)
    if not 0.0 < size < math.inf:
        raise NonFiniteValue("radical axis of the pole loci outside the floating-point range")
    turn = normal / size
    foot = (gamma1 - t * gamma) / (2.0 * size)  # P = turn (foot + i s)
    along = turn.conjugate() * beta
    a, b, c = alpha, -along.imag, (alpha * foot - 2.0 * along.real) * foot + gamma
    disc = b * b - a * c
    if not math.isfinite(disc):
        raise NonFiniteValue("pole loci outside the floating-point range")
    tol = 1e-12 * max(b * b, abs(a * c))
    if disc < -tol:
        return []  # the loci do not meet
    root = math.sqrt(disc) if disc > tol else 0.0
    q = -(b + math.copysign(root, b))
    roots = ([q / a] if a else []) + ([c / q] if root else [])
    return [plane_point(vb + unit * turn * complex(foot, s)) for s in roots]


def inversions_for_sides(
    source: Triangle, target_sides: Sequence[float]
) -> list[Inversion]:
    """Inversions mapping ``source`` to given (possibly infeasible) side
    lengths, labels matched.  Empty when the two pole loci do not meet.
    Inverted images are mirror copies, so the inversions onto a copy of a
    triangle T are those for ``T.sides()``.  The pole farther from the foot
    of B on the radical axis of the two pole loci comes first.

    Any genuine triangle of target sides is attainable (the generalized
    Ptolemy inequalities are exactly the triangle inequalities of the
    scaled distances), so an empty answer signals an infeasible side
    triple rather than an unlucky configuration.
    """
    a0, b0, c0 = target_sides
    if min(a0, b0, c0) <= 0:
        raise ValueError("target side lengths must be positive")
    a, b, c = source.sides()
    # the power multiplies two distances to a pole, each at least 1e-12 of the
    # longest side: below this their product could underflow (an overflow is
    # caught as an infinite power below)
    if max(a, b, c) < 1e-140:
        raise NonFiniteValue("triangle sides below 1e-140: products of two distances underflow")
    try:
        ratio_ab, ratio_bc = (a0 * b) / (a * b0), (b0 * c) / (b * c0)  # |PA|/|PB|, |PB|/|PC|
    except ZeroDivisionError:  # a product of sides underflowed
        ratio_ab = ratio_bc = math.inf
    # _poles squares the ratios: keep the squares normal floats
    if not (1e-150 < ratio_ab < 1e150 and 1e-150 < ratio_bc < 1e150):
        raise NonFiniteValue("side-length ratio too extreme to square in floating point")
    solutions = []
    for pole in _poles(source, ratio_ab, ratio_bc):
        try:
            _, pb, pc = _pole_distances(pole, source)
        except PoleOnVertex:
            continue  # no finite image triangle
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
