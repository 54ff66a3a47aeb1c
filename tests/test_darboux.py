"""Triangle inversion solver: distance identity, tangent and near-ratio-1
pole loci, the forward-synthesis completeness oracle."""

import math
import re

import pytest

from carta import (
    Inversion,
    Triangle,
    image_triangle_sides,
    inversions_for_sides,
)
from carta.errors import DegenerateTriangle, NonFiniteValue, PoleOnVertex

from oracles import invert_point


def random_triangle(rng, span=3.0, min_area=0.1):
    while True:
        pts = [complex(*rng.uniform(-span, span, 2)) for _ in range(3)]
        try:
            t = Triangle(*pts)
        except DegenerateTriangle:
            continue
        a, b, c = pts
        if 0.5 * abs(((b - a).conjugate() * (c - a)).imag) >= min_area:
            return t


def random_pole_away_from(rng, triangle, min_dist=0.3, span=4.0):
    while True:
        pole = complex(*rng.uniform(-span, span, 2))
        if min(abs(pole - v) for v in triangle.vertices()) >= min_dist:
            return pole


# -- types ------------------------------------------------------------------------


def test_degenerate_triangle_rejected():
    with pytest.raises(DegenerateTriangle):
        Triangle(0j, 1 + 0j, 2 + 0j)


@pytest.mark.parametrize("scale", [1e-7, 1.0, 1e7])
def test_degeneracy_is_relative_to_the_triangle(scale):
    def triangle(*coords):
        return Triangle(*(complex(scale * x, scale * y) for x, y in zip(coords[::2], coords[1::2])))

    # a needle with |BC| = d: area d / 2 of the longest side squared
    with pytest.raises(DegenerateTriangle, match="below 1e-12 of its longest side squared"):
        triangle(0, 0, 1, 0, 1, 1.8e-12)
    triangle(0, 0, 1, 0, 1, 2e-11)  # area 1e-11 of the longest side squared: kept
    # a pole within 1e-12 of the longest side of a vertex is on it; one farther is not
    t = triangle(0, 0, 2, 0.3, 0.7, 1.8)
    with pytest.raises(PoleOnVertex):
        image_triangle_sides(Inversion(complex(scale * 1e-13, 0), 1.0), t)
    near = image_triangle_sides(Inversion(complex(scale * 1e-11, 0), scale**2), t)
    unit = Triangle(0j, 2 + 0.3j, 0.7 + 1.8j)
    expected = image_triangle_sides(Inversion(1e-11 + 0j, 1.0), unit)
    assert near == pytest.approx(tuple(scale * side for side in expected), rel=1e-12)


def test_solver_refuses_sides_whose_distance_products_underflow():
    def scaled(s):
        return Triangle(0j, complex(2 * s, 0.3 * s), complex(0.7 * s, 1.8 * s))

    assert len(inversions_for_sides(scaled(1e-139), (1, 1, 1))) == 2
    with pytest.raises(NonFiniteValue, match="below 1e-140"):
        inversions_for_sides(scaled(1e-141), (1, 1, 1))


def test_sides_labeling():
    t = Triangle(0j, 3 + 0j, 4j)
    a, b, c = t.sides()
    assert (a, b, c) == pytest.approx((5.0, 4.0, 3.0), abs=1e-15)


@pytest.mark.parametrize("point, shown", [
    (complex(math.inf, 0.5), "(inf, 0.5)"), (complex(0.5, math.nan), "(0.5, nan)"),
])
def test_non_finite_vertex_or_pole_refused(point, shown):
    message = f"^{re.escape(f'non-finite plane point {shown}')}$"
    with pytest.raises(NonFiniteValue, match=message):
        Triangle(0j, point, 1j)
    with pytest.raises(NonFiniteValue, match=message):
        Inversion(point, 1.0)


def test_lengths_take_the_rounding_of_math_hypot(rng):
    # sides and image sides are math.hypot of the coordinate differences,
    # bit for bit; abs() of a complex difference rounds otherwise at times
    def hypot(p, q):
        return math.hypot(p.real - q.real, p.imag - q.imag)

    for _ in range(10_000):
        va, vb, vc = (complex(*rng.uniform(-3, 3, 2)) for _ in range(3))
        try:
            t = Triangle(va, vb, vc)
        except DegenerateTriangle:
            continue
        assert t.sides() == (hypot(vb, vc), hypot(vc, va), hypot(va, vb))
        pole = complex(*rng.uniform(-4, 4, 2))
        inv = Inversion(pole, float(rng.uniform(0.3, 2.5)))
        try:
            image = image_triangle_sides(inv, t)
        except PoleOnVertex:
            continue
        a, b, c = t.sides()
        pa, pb, pc = (hypot(pole, v) for v in (va, vb, vc))
        k = inv.power
        assert image == (k * a / (pb * pc), k * b / (pc * pa), k * c / (pa * pb))


# -- image side lengths ----------------------------------------------------------------


def test_image_sides_match_pointwise_inversion(rng):
    # identity vs applying the inversion to the vertices, 1e4 instances
    worst = 0.0
    for _ in range(10_000):
        t = random_triangle(rng)
        inv = Inversion(random_pole_away_from(rng, t), float(rng.uniform(0.3, 2.5)))
        formula = image_triangle_sides(inv, t)
        vertices = [invert_point(inv, v) for v in t.vertices()]
        direct = (
            abs(vertices[1] - vertices[2]),
            abs(vertices[2] - vertices[0]),
            abs(vertices[0] - vertices[1]),
        )
        worst = max(worst, max(abs(f - d) for f, d in zip(formula, direct)))
    assert worst < 1e-12


def test_far_pole_approximates_rigid_copy():
    t = Triangle(0j, 1 + 0j, 0.4 + 0.9j)
    far = 1e6
    inv = Inversion(complex(far, 0), far**2)
    sides = image_triangle_sides(inv, t)
    for got, want in zip(sides, t.sides()):
        assert got == pytest.approx(want, rel=1e-4)


def test_image_sides_linear_in_power():
    t = Triangle(0j, 2 + 0.3j, 0.7 + 1.8j)
    inv1 = Inversion(3 + 3j, 1.0)
    inv2 = Inversion(3 + 3j, 2.0)
    s1 = image_triangle_sides(inv1, t)
    s2 = image_triangle_sides(inv2, t)
    for one, two in zip(s1, s2):
        assert two == pytest.approx(2.0 * one, rel=1e-14)


def test_pole_on_vertex():
    t = Triangle(0j, 2 + 0.3j, 0.7 + 1.8j)
    with pytest.raises(PoleOnVertex):
        image_triangle_sides(Inversion(0j, 1.0), t)


# -- the solver ---------------------------------------------------------------------------


def test_forward_synthesis_round_trip(rng):
    for _ in range(300):
        source = random_triangle(rng)
        pole = random_pole_away_from(rng, source)
        power = float(rng.uniform(0.3, 2.5) * rng.choice([-1.0, 1.0]))
        synth = Inversion(pole, power)
        target = Triangle(*[invert_point(synth, v) for v in source.vertices()])
        solutions = inversions_for_sides(source, target.sides())
        assert solutions, "synthesized instance must be solvable"
        best_side_err = math.inf
        pole_recovered = False
        for sol in solutions:
            achieved = image_triangle_sides(sol, source)
            err = max(
                abs(x - y) / y for x, y in zip(achieved, target.sides())
            )
            best_side_err = min(best_side_err, err)
            if abs(sol.pole - pole) < 1e-6:
                pole_recovered = True
        assert best_side_err < 1e-9
        # the synthesizing pole is one of the (at most two) intersections
        assert pole_recovered or len(solutions) == 2


def test_equilateral_self_solution():
    side = 1.0
    eq = Triangle(0j, complex(side, 0), complex(side / 2, side * math.sqrt(3) / 2))
    solutions = inversions_for_sides(eq, eq.sides())
    assert len(solutions) == 1
    sol = solutions[0]
    # both loci are perpendicular bisectors: the pole is the circumcenter
    circumcenter = complex(0.5, 1.0 / (2.0 * math.sqrt(3)))
    assert abs(sol.pole - circumcenter) < 1e-12
    achieved = image_triangle_sides(sol, eq)
    assert max(abs(s - side) for s in achieved) < 1e-10


def test_infeasible_side_triple_gives_empty():
    # target sides violating the triangle inequality are unreachable: by
    # Ptolemy's inequality the two pole loci are disjoint
    source = Triangle(0j, 2 + 0.3j, 0.7 + 1.8j)
    assert inversions_for_sides(source, (5.0, 1.0, 1.0)) == []


def test_valid_targets_always_solvable(rng):
    # genuine triangles satisfy the Ptolemy bound, so the loci intersect
    for _ in range(200):
        source = random_triangle(rng)
        target = random_triangle(rng)
        solutions = inversions_for_sides(source, target.sides())
        assert solutions
        for sol in solutions:
            achieved = image_triangle_sides(sol, source)
            assert max(
                abs(x - y) / y for x, y in zip(achieved, target.sides())
            ) < 1e-9


def side_error(inv, source, target):
    achieved = image_triangle_sides(inv, source)
    return max(abs(x - y) / y for x, y in zip(achieved, target))


def test_tangent_loci_give_one_pole():
    # target sides (2, 1, 1) are degenerate: the two loci touch in one pole,
    # and part or cross as the target moves off the triangle inequality
    source = Triangle(0j, 2 + 0.3j, 0.7 + 1.8j)
    (tangent,) = inversions_for_sides(source, (2.0, 1.0, 1.0))
    assert side_error(tangent, source, (2.0, 1.0, 1.0)) < 1e-12
    assert inversions_for_sides(source, (2.0000001, 1.0, 1.0)) == []
    crossing = inversions_for_sides(source, (1.9999999, 1.0, 1.0))
    assert len(crossing) == 2
    assert all(abs(sol.pole - tangent.pole) < 1e-3 for sol in crossing)


def test_near_own_shape_targets_keep_both_poles(rng):
    # targets within 1e-4 of the source's own sides make both ratios nearly
    # 1: one pole lies near the triangle, the other up to ~1e14 away
    for _ in range(5000):
        source = random_triangle(rng)
        eps = rng.choice([-1.0, 1.0], 3) * 10.0 ** rng.uniform(-14, -4, 3)
        target = [s * (1.0 + e) for s, e in zip(source.sides(), eps)]
        a, b, c = target
        solutions = inversions_for_sides(source, target)
        if a < b + c and b < c + a and c < a + b:
            assert len(solutions) == 2
            assert max(side_error(sol, source, target) for sol in solutions) <= 1e-13
        else:
            assert solutions == []
