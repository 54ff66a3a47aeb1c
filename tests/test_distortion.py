"""Dilatation: the finite-difference reference vs closed form, conformality defects."""

import cmath
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carta import (
    Inversion,
    LagrangeProjectionSpec,
    MobiusTransform,
    dilatation_analytic,
    distortion_report,
    project,
)
from carta.distortion import cap_samples
from carta.errors import DomainEdge, EmptyRegion
from carta.surfaces import SPHERE, SurfaceOfRevolution

from conftest import point_columns, random_point_for_spec, random_spec
from oracles import conformality_defect, dilatation_fd, directional_dilatations

STEREO = LagrangeProjectionSpec(exponent=1.0)


def stereo_m(colatitude):
    # radial law rho = cot(theta/2) differentiates to this scale
    return 1.0 / (2.0 * math.sin(colatitude / 2.0) ** 2)


def plate_carree(lat, lon):
    return complex(lon, lat)


# -- finite differences ------------------------------------------------------------


def test_fd_stereographic_south_pole():
    # closed form: m(theta)=1/(2 sin^2(theta/2)) gives 1/2 at theta = pi
    p = (-math.pi / 2, 0.0)
    for h in (1e-3, 1e-4):
        assert dilatation_fd(partial(project, STEREO), *p, h) == pytest.approx(
            stereo_m(math.pi), rel=1e-6
        )
    # Richardson agreement: halving h shrinks the deviation
    coarse = abs(dilatation_fd(partial(project, STEREO), *p, 1e-3) - 0.5)
    fine = abs(dilatation_fd(partial(project, STEREO), *p, 5e-4) - 0.5)
    assert fine < coarse


def test_fd_stereographic_equator():
    assert dilatation_fd(partial(project, STEREO), 0.0, 1.0, 1e-4) == pytest.approx(
        stereo_m(math.pi / 2), rel=1e-7
    )
    assert stereo_m(math.pi / 2) == pytest.approx(1.0, abs=1e-15)


def test_fd_plate_carree():
    # the meridian keeps its length and the parallel stretches by 1 / cos(lat)
    for lat, lon in [(0.0, 0.0), (0.7, -1.2), (-1.1, 2.0)]:
        mer, par = directional_dilatations(plate_carree, lat, lon, 1e-4)
        assert (mer, par) == pytest.approx((1.0, 1.0 / math.cos(lat)), rel=1e-7)
        m = dilatation_fd(plate_carree, lat, lon, 1e-4)
        assert m == pytest.approx(math.cos(lat) ** -0.5, rel=1e-7)


def test_fd_step_validation():
    with pytest.raises(ValueError):
        dilatation_fd(partial(project, STEREO), 0.0, 0.0, h=0.5)


def test_fd_domain_edge_at_center():
    # meridian probe lands exactly on the projection center
    spec = LagrangeProjectionSpec(exponent=1.0)
    h = 1e-4
    with pytest.raises(DomainEdge):
        dilatation_fd(partial(project, spec), math.pi / 2 - h, 0.0, h)


def test_fd_spheroid_pole_crossing():
    # probes cross the pole on great circles of the conformal sphere, and the
    # scale at the pole is the limit of cos(chi) / q
    surface = SurfaceOfRevolution(0.1)
    spec = LagrangeProjectionSpec(exponent=1.0, surface=surface)
    for p in ((-math.pi / 2 + 1e-5, 0.3), (-math.pi / 2, 0.0)):
        m = dilatation_fd(partial(project, spec), *p, 1e-4, surface)
        assert m == pytest.approx(dilatation_analytic(spec, *p), rel=1e-8)


# -- analytic dilatation --------------------------------------------------------------


def test_analytic_stereographic_values():
    assert dilatation_analytic(STEREO, 0.0, 0.3) == pytest.approx(
        1.0, abs=1e-14
    )
    assert dilatation_analytic(STEREO, -math.pi / 2, 0.0) == pytest.approx(
        0.5, abs=1e-14
    )


def test_analytic_matches_fd_randomized(rng):
    worst = 0.0
    for _ in range(300):
        spec = random_spec(rng)
        p = random_point_for_spec(rng, spec)
        analytic = dilatation_analytic(spec, *p)
        fd = dilatation_fd(partial(project, spec), *p, 1e-4, surface=spec.surface)
        worst = max(worst, abs(fd - analytic) / analytic)
    assert worst < 1e-6


def test_richardson_improves_fd(rng):
    gains = []
    for _ in range(60):
        spec = random_spec(rng, allow_spheroid=False)
        p = random_point_for_spec(rng, spec)
        analytic = dilatation_analytic(spec, *p)
        m_h = dilatation_fd(partial(project, spec), *p, 1e-4, surface=spec.surface)
        m_h2 = dilatation_fd(partial(project, spec), *p, 5e-5, surface=spec.surface)
        plain = abs(m_h - analytic) / analytic
        extrapolated = abs((4 * m_h2 - m_h) / 3 - analytic) / analytic
        if plain > 1e-12:  # below that, roundoff hides the truncation order
            gains.append(extrapolated < plain)
    assert sum(gains) > 0.9 * len(gains)


def test_directional_isotropy_for_conformal_maps(rng):
    for _ in range(100):
        spec = random_spec(rng)
        p = random_point_for_spec(rng, spec)
        mer, par = directional_dilatations(partial(project, spec), *p, 1e-4, spec.surface)
        assert abs(mer - par) / mer < 1e-5


# -- conformality defect --------------------------------------------------------------


def test_defect_plate_carree_at_60():
    # the diagonal directions map to (±2, 1)/sqrt(5): angle 2 atan 2
    defect = conformality_defect(plate_carree, math.radians(60), 0.4)
    expected = 2.0 * math.atan(2.0) - math.pi / 2
    assert defect == pytest.approx(expected, abs=1e-6)
    assert defect > 0.4


def test_defect_plate_carree_at_equator():
    assert conformality_defect(plate_carree, 0.0, 0.4) < 1e-8


def test_defect_small_for_lagrange_specs(rng):
    for _ in range(100):
        spec = random_spec(rng)
        p = random_point_for_spec(rng, spec)
        assert conformality_defect(partial(project, spec), *p, 1e-4, spec.surface) < 1e-6


# caps about the South pole under exponent 1, where the pole has an image,
# with post-transforms whose pole stays at least 0.5 outside the cap's
# image, the disc of radius tan(r / 2)
@st.composite
def cap_specs(draw):
    radius = math.radians(draw(st.floats(5.0, 60.0)))
    eccentricity = draw(st.sampled_from([0.0, 0.0818191908426, 0.3]))
    surface = SPHERE if eccentricity == 0.0 else SurfaceOfRevolution(eccentricity)
    pole = cmath.rect(
        draw(st.floats(math.tan(radius / 2) + 0.5, 4.0)), draw(st.floats(-math.pi, math.pi))
    )
    kind = draw(st.sampled_from(["none", "inversion", "mobius"]))
    post = None
    if kind == "inversion":
        power = draw(st.floats(0.5, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
        post = Inversion(pole, power)
    elif kind == "mobius":
        a = cmath.rect(draw(st.floats(0.5, 2.0)), draw(st.floats(-math.pi, math.pi)))
        post = MobiusTransform(a, 0.0, 1.0, -pole)
    central = math.radians(draw(st.floats(-180.0, 180.0)))
    return LagrangeProjectionSpec(1.0, central, post, surface), radius


@settings(max_examples=60, deadline=None)
@given(cap=cap_specs(), rings=st.integers(3, 12))
def test_defect_small_on_caps_about_the_pole(cap, rings):
    spec, radius = cap
    report = distortion_report(spec, *cap_samples(radius, radius / rings))
    assert report.conformality_defect.max() < 1e-7


def test_defect_does_not_grow_with_the_sampling():
    # the worst defect of one map is the same at every sample step
    spec = LagrangeProjectionSpec(1.0, post_transform=Inversion(1 - 2.8j, 2.0))
    worst = [
        distortion_report(spec, *cap_samples(math.radians(30), math.radians(delta)))
        .conformality_defect.max()
        for delta in (0.4, 0.2, 0.1, 0.05)
    ]
    assert max(worst) < 1e-8 and max(worst) < 2 * min(worst)
    stereographic = distortion_report(STEREO, *cap_samples(math.radians(1), math.radians(0.005)))
    assert stereographic.conformality_defect.max() < 1e-9


# -- distortion report ----------------------------------------------------------------


def test_report_single_point():
    report = distortion_report(STEREO, *point_columns([(0.2, 0.1)]))
    assert report.ratio == 1.0
    assert len(report.m) == 1


def test_report_empty_region():
    with pytest.raises(EmptyRegion):
        distortion_report(STEREO, [], [])


def test_report_polar_cap_ratio():
    # cap of colatitudes [150, 180] degrees around the South pole:
    # ratio = m(150)/m(180) = 1/sin^2(75 deg)
    points = [
        (-math.pi / 2 + r, lon)
        for r in np.linspace(0.0, math.radians(30), 31)
        for lon in np.linspace(-math.pi, math.pi, 8, endpoint=False)
    ]
    report = distortion_report(STEREO, *point_columns(points))
    expected = 1.0 / math.sin(math.radians(75)) ** 2
    assert report.ratio == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(1.0718, abs=5e-5)


def test_ratio_invariant_under_similarity(rng):
    # post-composing with a rotation+scale multiplies m by one constant:
    # the field of ratios m_after/m_before is flat
    from carta import MobiusTransform

    base_post = MobiusTransform(1.0, 0.3 + 0.1j, 0.2 - 0.4j, 1.0)
    spec = LagrangeProjectionSpec(exponent=0.7, post_transform=base_post)
    k = 2.7 * complex(math.cos(0.6), math.sin(0.6))  # z -> k z after the base
    spec_after = LagrangeProjectionSpec(
        exponent=0.7, post_transform=MobiusTransform(k * 1.0, k * (0.3 + 0.1j), 0.2 - 0.4j, 1.0)
    )
    ratios = []
    for _ in range(60):
        p = random_point_for_spec(rng, spec)
        ratios.append(dilatation_analytic(spec_after, *p) / dilatation_analytic(spec, *p))
    assert max(ratios) - min(ratios) < 1e-12

    # and the reported max/min ratio of the field is unchanged
    points = [random_point_for_spec(rng, spec) for _ in range(25)]
    before = distortion_report(spec, *point_columns(points))
    after = distortion_report(spec_after, *point_columns(points))
    assert after.ratio == pytest.approx(before.ratio, rel=1e-12)
