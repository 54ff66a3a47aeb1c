"""Schwarzian derivative: Mobius kernel, symbolic-oracle values, cocycle
identity, and classification of projection transition maps."""

import cmath
import math

import pytest

from carta import Inversion, LagrangeProjectionSpec, project

from conftest import mobius_map, random_mobius
from oracles import (
    CriticalPoint,
    mobius_deviation,
    schwarzian,
    schwarzian_cocycle_residual,
    unproject,
)


def sample_away_from_pole(rng, mobius, margin=1.0):
    pole = None if abs(mobius.c) < 1e-12 else -mobius.d / mobius.c
    while True:
        z = complex(*rng.normal(size=2))
        if pole is None or abs(z - pole) >= margin:
            return z


# -- kernel and symbolic values ------------------------------------------------


def test_mobius_kernel_within_reported_bound(rng):
    for _ in range(200):
        m = random_mobius(rng, min_det=1e-2)
        z = sample_away_from_pole(rng, m)
        value, error_bound = schwarzian(mobius_map(m), z)
        assert error_bound < 1e-7
        assert abs(value) <= max(error_bound, 1e-9)


def test_square_map_value():
    # S(z^2) = -3/(2 z^2): f''' = 0 and f''/f' = 1/z
    value, _ = schwarzian(lambda z: z * z, 1.0 + 0j)
    assert value == pytest.approx(-1.5, abs=1e-7)
    at_2j, _ = schwarzian(lambda z: z * z, 2j)
    assert at_2j == pytest.approx(-3.0 / (2.0 * (2j) ** 2), abs=1e-7)


def test_exponential_value():
    # all derivative ratios are 1: S(exp) = 1 - 3/2
    for z in (0.0 + 0j, 0.3 + 0.2j, 1.7 - 0.4j):
        value, _ = schwarzian(cmath.exp, z)
        assert value == pytest.approx(-0.5, abs=1e-7)


def test_square_root_value():
    # S(z^(1/2)) = 3/(8 z^2)
    value, _ = schwarzian(lambda z: z**0.5, 1.0 + 0j)
    assert value == pytest.approx(0.375, abs=1e-7)


def test_critical_point_raises():
    with pytest.raises(CriticalPoint):
        schwarzian(lambda z: z * z, 0.0 + 0j)


def test_error_bound_scales_with_roughness():
    _, tame = schwarzian(cmath.exp, 0.2 + 0j)
    _, rough = schwarzian(lambda z: cmath.exp(3.0 * z * z), 0.2 + 0j)
    assert rough > tame


# -- cocycle -----------------------------------------------------------------------


def test_cocycle_left_mobius_invariance(rng):
    # S(m . g) = S(g) when m is Mobius
    for _ in range(25):
        m = random_mobius(rng, min_det=0.3)
        z = 0.4 + 0.3j
        g = cmath.exp
        if abs(m.c * g(z) + m.d) < 0.5:
            continue
        residual = schwarzian_cocycle_residual(mobius_map(m), g, z)
        assert residual < 1e-6


def test_cocycle_right_mobius(rng):
    for _ in range(25):
        m = random_mobius(rng, min_det=0.3)
        z = sample_away_from_pole(rng, m)
        residual = schwarzian_cocycle_residual(cmath.exp, mobius_map(m), z)
        assert residual < 1e-6


def test_cocycle_exp_square():
    residual = schwarzian_cocycle_residual(cmath.exp, lambda z: z * z, 1.0 + 0j)
    assert residual < 1e-6
    # both sides via the symbolic oracle: S(exp(z^2)) vs S(exp) at z^2
    # chain: S(f.g) = S(f)(g) g'^2 + S(g);  g' = 2z, S(g) = -3/(2z^2)
    left, _ = schwarzian(lambda z: cmath.exp(z * z), 1.0 + 0j)
    right = -0.5 * (2.0) ** 2 + (-1.5)
    assert left == pytest.approx(right, abs=1e-6)


def test_cocycle_random_smooth_pairs(rng):
    pairs = [
        (cmath.exp, lambda z: z * z + 0.3),
        (lambda z: 1.0 / (z + 3.0), cmath.exp),
        (cmath.sin, lambda z: 0.5 * z + 0.2 * z * z),
    ]
    for f, g in pairs:
        for _ in range(10):
            z = 0.3 * complex(*rng.normal(size=2))
            try:
                assert schwarzian_cocycle_residual(f, g, z) < 1e-6
            except CriticalPoint:
                continue


# -- deviation / classification -------------------------------------------------------


def test_single_mobius_deviation_small(rng):
    for _ in range(20):
        m = random_mobius(rng, min_det=0.3)
        points = [sample_away_from_pole(rng, m) for _ in range(8)]
        assert mobius_deviation(mobius_map(m), points) < 1e-7


def test_deviation_requires_enough_admissible_points():
    square = lambda z: z * z
    with pytest.raises(CriticalPoint):
        mobius_deviation(square, [0j, 0j, 0j, 0j, 0j, 0j])


def transition_map(spec_from, spec_to):
    def t(z):
        return project(spec_to, *unproject(spec_from, z))

    return t


def sample_transition_points(rng, spec_from, spec_to=None, count=8):
    # the estimator probes the horizontal segment z +/- 0.13; accept only
    # points where the transition is evaluable on that whole reach
    t = transition_map(spec_from, spec_to) if spec_to is not None else None
    points = []
    while len(points) < count:
        lat = rng.uniform(math.radians(-75), math.radians(45))
        dlon = rng.uniform(-2.0, 2.0)
        z = project(spec_from, lat, spec_from.central_meridian + dlon)
        if not (0.5 < abs(z) < 4.0):
            continue
        if t is not None:
            try:
                for offset in (-0.13, -0.065, 0.0, 0.065, 0.13):
                    t(z + offset)
            except Exception:
                continue
        points.append(z)
    return points


def test_same_exponent_transitions_are_mobius(rng):
    # different inversion post-transforms cancel into a Mobius transition,
    # so both charts send the graticule to circles
    for c in (0.5, 1.0, 1.4):
        spec1 = LagrangeProjectionSpec(
            exponent=c, post_transform=Inversion(2.0 + 1.0j, 1.3)
        )
        spec2 = LagrangeProjectionSpec(
            exponent=c, post_transform=Inversion(-1.5 + 2.0j, -0.8)
        )
        points = sample_transition_points(rng, spec1, spec2)
        deviation = mobius_deviation(transition_map(spec1, spec2), points)
        assert deviation < 1e-6


def test_cross_exponent_transitions_are_not_mobius(rng):
    # the transition contains z -> z^(1/2), with S = 3/(8 z^2) != 0
    spec1 = LagrangeProjectionSpec(exponent=1.0)
    spec2 = LagrangeProjectionSpec(exponent=0.5)
    points = sample_transition_points(rng, spec1, spec2)
    deviation = mobius_deviation(transition_map(spec1, spec2), points)
    assert deviation > 1e-2
    assert not mobius_deviation(transition_map(spec1, spec2), points) < 1e-6


def test_criterion_ties_back_to_graticule(rng):
    # charts whose transition is Mobius both pass the circle-fit property
    from carta import graticule_image

    spec1 = LagrangeProjectionSpec(
        exponent=0.75, post_transform=Inversion(1.8 - 0.4j, 1.1)
    )
    spec2 = LagrangeProjectionSpec(exponent=0.75)
    points = sample_transition_points(rng, spec1, spec2)
    assert mobius_deviation(transition_map(spec1, spec2), points) < 1e-6
    for spec in (spec1, spec2):
        for fit in graticule_image(spec, math.radians(30), math.radians(45), 48):
            assert fit.relative_residual < 1e-9
