"""Inversive geometry, the stereographic map and Mobius post-transforms
through the projection kernel, polygon area, circle fit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from carta import (
    Inversion,
    LagrangeProjectionSpec,
    MobiusTransform,
    centered_stereographic,
    circle_fit,
    conformality_defect,
    dilatation_analytic,
    project,
)
from carta.errors import (
    DegenerateTransform,
    InsufficientPoints,
    NonFiniteValue,
    PoleSingularity,
    ProjectionPole,
)
from carta.geometry import normalize_longitude_array

from oracles import invert_point, spherical_polygon_area, unit_vector, unproject, wrap_longitude

finite = st.floats(min_value=-50, max_value=50, allow_nan=False)


# -- inversion -----------------------------------------------------------------


def test_invert_point_definition():
    inv = Inversion(0j, 1.0)
    q = invert_point(inv, 2 + 0j)
    assert q.real == pytest.approx(0.5, abs=1e-15)
    assert q.imag == 0.0


def test_invert_point_fixed_circle():
    inv = Inversion(0j, 1.0)
    q = invert_point(inv, 1 + 0j)
    assert (q.real, q.imag) == (1.0, 0.0)


def test_invert_pole_raises():
    inv = Inversion(1 + 1j, 2.0)
    with pytest.raises(PoleSingularity):
        invert_point(inv, 1 + 1j)


@settings(max_examples=200)
@given(x=finite, y=finite)
def test_inversion_involution(x, y):
    inv = Inversion(1 + 1j, 2.0)
    p = complex(x, y)
    if abs(p - inv.pole) < 1e-3:
        return
    q = invert_point(inv, invert_point(inv, p))
    assert abs(q - p) < 1e-12 * max(1.0, abs(x), abs(y))


def test_involution_bulk(rng):
    # 1e4 random samples, max error 1e-12
    inv = Inversion(0.3 - 0.7j, -1.6)
    worst = 0.0
    for _ in range(10_000):
        p = complex(*rng.uniform(-5, 5, 2))
        if abs(p - inv.pole) < 1e-2:
            continue
        q = invert_point(inv, invert_point(inv, p))
        worst = max(worst, abs(q - p))
    assert worst < 1e-12


# -- Mobius transforms ----------------------------------------------------------
#
# A Mobius map acts as the post-transform of exponent 1, whose image before
# it is the stereographic one: the sphere point of stereographic image z
# projects to m(z).

STEREO = LagrangeProjectionSpec(1.0)


def _preimage(z):
    """The sphere point (lat, lon) of stereographic image z."""
    return 2.0 * math.atan(abs(z)) - math.pi / 2, math.atan2(z.imag, z.real)


def _mobius_image(m, z):
    return project(LagrangeProjectionSpec(1.0, post_transform=m), *_preimage(z))


def test_mobius_identity():
    m = MobiusTransform(1, 0, 0, 1)
    assert _mobius_image(m, 3 + 4j) == pytest.approx(3 + 4j, abs=1e-15)


def test_mobius_reciprocal():
    m = MobiusTransform(0, 1, 1, 0)
    assert _mobius_image(m, 2 + 0j) == pytest.approx(0.5, abs=1e-15)


def test_mobius_singular_coefficients_raise():
    with pytest.raises(DegenerateTransform):
        MobiusTransform(1, 2, 2, 4)


def test_mobius_normalization_invariance(rng):
    # scaling all four coefficients changes nothing, |det| is pinned to 1
    for _ in range(50):
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        if abs(a * d - b * c) < 1e-3:
            continue
        scale = complex(*rng.normal(size=2)) * 3.0
        if abs(scale) < 1e-2:
            continue
        m1 = MobiusTransform(a, b, c, d)
        m2 = MobiusTransform(a * scale, b * scale, c * scale, d * scale)
        assert abs(m1.a * m1.d - m1.b * m1.c - 1.0) < 1e-12
        z = complex(*rng.normal(size=2))
        if abs(m1.c * z + m1.d) < 1e-2:
            continue
        assert abs(_mobius_image(m1, z) - _mobius_image(m2, z)) < 1e-12


# -- stereographic -----------------------------------------------------------------


def _stereographic_oracle(p):
    """Intersect the ray North pole -> surface point with the plane z = 0."""
    v = unit_vector(*p)
    n = np.array([0.0, 0.0, 1.0])
    t = 1.0 / (1.0 - v[2])
    hit = n + t * (v - n)
    return hit[0], hit[1]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_value_types_refuse_non_finite_longitudes(value):
    with pytest.raises(ValueError, match=f"^longitude {value} is not finite$"):
        centered_stereographic(0.0, value)
    with pytest.raises(ValueError, match=f"^central meridian {value} is not finite$"):
        LagrangeProjectionSpec(1.0, central_meridian=value)


# the scalar entries that take a sphere point as (lat, lon)
SPHERE_POINT_ENTRIES = {
    "centered_stereographic": centered_stereographic,
    "project": lambda lat, lon: project(STEREO, lat, lon),
    "dilatation_analytic": lambda lat, lon: dilatation_analytic(STEREO, lat, lon),
    "conformality_defect": lambda lat, lon: conformality_defect(
        lambda a, b: complex(b, a), lat, lon
    ),
}


@pytest.mark.parametrize("entry", SPHERE_POINT_ENTRIES)
@pytest.mark.parametrize("lat", [-2.0, math.pi / 2 + 1e-15, math.nan, -math.inf])
def test_scalar_entries_refuse_latitudes_off_the_sphere(entry, lat):
    with pytest.raises(ValueError, match=rf"^latitude {lat} outside \[-pi/2, pi/2\]$"):
        SPHERE_POINT_ENTRIES[entry](lat, 0.3)


@pytest.mark.parametrize("entry", SPHERE_POINT_ENTRIES)
@pytest.mark.parametrize("lon", [math.nan, math.inf, -math.inf])
def test_scalar_entries_refuse_non_finite_longitudes(entry, lon):
    with pytest.raises(ValueError, match=f"^longitude {lon} is not finite$"):
        SPHERE_POINT_ENTRIES[entry](0.2, lon)


@pytest.mark.parametrize("entry", SPHERE_POINT_ENTRIES)
def test_scalar_entries_read_the_longitude_normalized(entry):
    # a longitude and its turns give the same value, bit for bit
    f = SPHERE_POINT_ENTRIES[entry]
    for lon in [3 * math.pi, math.radians(-540), 0.4 + 2 * math.pi, -2.5 - 6 * math.pi]:
        assert f(0.3, lon) == f(0.3, wrap_longitude(lon)), lon


# (longitude, its value in (-pi, pi]), the sign of zero included
WRAPPED_LONGITUDES = [
    (math.pi, 3.141592653589793),
    (-math.pi, 3.141592653589793),
    (3 * math.pi, 3.141592653589793),
    (-3 * math.pi, 3.141592653589793),
    (math.radians(-540), 3.141592653589793),
    (math.nextafter(math.pi, 4), -3.1415926535897927),
    (math.nextafter(-math.pi, 0), -3.1415926535897927),
    (2 * math.pi, 0.0),
    (-2 * math.pi, -0.0),
    (0.0, 0.0),
    (-0.0, -0.0),
    (1e300, -0.7234267005270212),
    (-1e300, 0.7234267005270212),
    (1.0, 1.0),
    (-1.0, -1.0),
    (4.0, -2.2831853071795862),
    (7.0, 0.7168146928204138),
    (-7.0, -0.7168146928204138),
]


def test_normalize_longitude_array_pinned():
    lon, expected = np.array(WRAPPED_LONGITUDES).T
    got = normalize_longitude_array(lon)
    assert got.tobytes() == expected.tobytes()
    for value, want in WRAPPED_LONGITUDES:
        got = float(normalize_longitude_array(value))
        assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want)), value


def test_normalize_longitude_array_matches_scalar_wrap(rng):
    lon = np.concatenate([
        rng.uniform(-20.0, 20.0, 4000),
        rng.uniform(-1e6, 1e6, 2000),
        np.ldexp(rng.uniform(-1.0, 1.0, 2000), rng.integers(-60, 1020, 2000)),
        np.arange(-64, 65) * math.pi,
        np.arange(-64, 65) * (2 * math.pi),
        [0.0, -0.0],
    ])
    expected = np.array([wrap_longitude(v) for v in lon.tolist()])
    assert normalize_longitude_array(lon).tobytes() == expected.tobytes()


def test_stereographic_south_pole_to_origin():
    assert abs(project(STEREO, -math.pi / 2, 0.3)) < 1e-15


def test_stereographic_equator():
    q = project(STEREO, 0.0, 0.0)
    assert (q.real, q.imag) == pytest.approx((1.0, 0.0), abs=1e-15)


def test_stereographic_matches_ray_plane_oracle(rng):
    q = project(STEREO, math.pi / 4, math.pi / 2)
    assert q.real == pytest.approx(0.0, abs=1e-12)
    assert q.imag == pytest.approx(1.0 / math.tan(math.pi / 8), abs=1e-12)
    for _ in range(300):
        p = rng.uniform(-math.pi / 2, math.pi / 2 - 0.05), rng.uniform(-math.pi, math.pi)
        ox, oy = _stereographic_oracle(p)
        q = project(STEREO, *p)
        assert math.hypot(q.real - ox, q.imag - oy) < 1e-10 * max(1.0, abs(ox), abs(oy))


def test_stereographic_pole_raises():
    with pytest.raises(ProjectionPole):
        project(STEREO, math.pi / 2, 0.0)


def test_stereographic_round_trip(rng):
    for _ in range(2000):
        p = rng.uniform(-math.pi / 2, math.pi / 2 - 1e-6), rng.uniform(-math.pi, math.pi)
        back = unproject(STEREO, project(STEREO, *p))
        assert np.linalg.norm(unit_vector(*back) - unit_vector(*p)) < 1e-12


def test_unproject_origin_is_south_pole():
    lat, _ = unproject(LagrangeProjectionSpec(1.0), 0j)
    assert lat == pytest.approx(-math.pi / 2, abs=1e-15)


# -- spherical polygon area ---------------------------------------------------------


def deg(lat, lon):
    return math.radians(lat), math.radians(lon)


def test_octant_area():
    area = spherical_polygon_area([deg(0, 0), deg(0, 90), deg(90, 0)])
    assert area == pytest.approx(math.pi / 2, abs=1e-12)


def test_hemisphere_area():
    area = spherical_polygon_area([deg(0, 0), deg(0, 90), deg(0, 180), deg(0, -90)])
    assert area == pytest.approx(2 * math.pi, abs=1e-12)


def band_polygon(lat1, lat2, lon1, lon2, segments):
    """Latitude band boundary with each parallel edge split into
    ``segments`` great-circle chords (meridian edges are geodesics already)."""
    lons = np.linspace(lon1, lon2, segments + 1)
    bottom = [(lat1, lon) for lon in lons]
    top = [(lat2, lon) for lon in lons[::-1]]
    return bottom + top


def band_area_excess(lat1, lat2, lon1, lon2):
    """Angle-excess area of the band, extrapolating the densification.

    The polygon areas converge to the curved-edge band at second order in
    the chord length; one Richardson step over an exact 2:1 refinement
    removes the O(step^2) term.
    """
    n = max(2, int(math.ceil((lon2 - lon1) / 2e-3)))
    coarse = spherical_polygon_area(band_polygon(lat1, lat2, lon1, lon2, n))
    fine = spherical_polygon_area(band_polygon(lat1, lat2, lon1, lon2, 2 * n))
    return (4.0 * fine - coarse) / 3.0


def band_area_oracle(lat1, lat2, lon1, lon2):
    # area between two parallels: integral of cos(lat) over the box
    return (lon2 - lon1) * (math.sin(lat2) - math.sin(lat1))


def test_band_quadrilateral_matches_band_formula():
    lat1, lat2 = 0.0, math.radians(30)
    lon1, lon2 = 0.0, math.radians(45)
    area = band_area_excess(lat1, lat2, lon1, lon2)
    assert area == pytest.approx(band_area_oracle(lat1, lat2, lon1, lon2), abs=1e-10)
    assert area == pytest.approx(math.pi / 4 * 0.5, abs=1e-10)


def test_polygon_additivity(rng):
    # splitting along a diagonal preserves total area
    for _ in range(20):
        lon_w = 10 + 5 * rng.random()
        lon_e = lon_w + 20 + 20 * rng.random()
        pts = [
            deg(-25 + 10 * rng.random(), lon_w),
            deg(-25 + 10 * rng.random(), lon_e),
            deg(15 + 10 * rng.random(), lon_e),
            deg(15 + 10 * rng.random(), lon_w),
        ]
        whole = spherical_polygon_area(pts)
        part1 = spherical_polygon_area([pts[0], pts[1], pts[2]])
        part2 = spherical_polygon_area([pts[0], pts[2], pts[3]])
        assert whole == pytest.approx(part1 + part2, abs=1e-10)


def test_degenerate_polygons():
    with pytest.raises(ValueError):
        spherical_polygon_area([deg(0, 0), deg(0, 90)])
    with pytest.raises(ValueError):
        spherical_polygon_area([deg(0, 0), deg(0, 0), deg(10, 10)])
    with pytest.raises(ValueError):
        spherical_polygon_area([deg(0, 0), deg(0, 180), deg(10, 10)])


# -- circle fit ----------------------------------------------------------------------


def fit_one(x, y):
    """The (curve, rms) pair of the points as one curve."""
    return circle_fit(x, y, [len(x)])[0]


def test_circle_fit_exact_circle():
    t = np.linspace(0, 2 * math.pi, 8, endpoint=False)
    fitted, residual = fit_one(np.cos(t), np.sin(t))
    assert fitted.kind == "circle"
    assert abs(fitted.center) < 1e-12
    assert fitted.radius == pytest.approx(1.0, abs=1e-12)
    assert residual < 1e-12


def test_circle_fit_collinear_points():
    i = np.arange(8)
    fitted, residual = fit_one(0.5 * i, 2.0 + 0.25 * i)
    assert fitted.kind == "line"
    assert residual < 1e-12


def test_circle_fit_radial_noise(rng):
    worst = 0.0
    for _ in range(50):
        radii = 1.0 + rng.uniform(-1e-6, 1e-6, 16)
        angles = np.linspace(0, 2 * math.pi, 16, endpoint=False)
        fitted, _ = fit_one(radii * np.cos(angles), radii * np.sin(angles))
        worst = max(worst, abs(fitted.radius - 1.0))
    assert worst < 1e-5


def test_circle_fit_insufficient():
    with pytest.raises(InsufficientPoints):
        fit_one(np.array([0.0, 1.0]), np.array([0.0, 1.0]))
    with pytest.raises(InsufficientPoints):
        fit_one(np.ones(10), np.ones(10))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_circle_fit_non_finite(bad):
    x, y = np.cos(np.arange(8.0)), np.sin(np.arange(8.0))
    y[5] = bad
    with pytest.raises(NonFiniteValue, match=rf"non-finite plane point \({x[5]}, {bad}\)"):
        fit_one(x, y)


def _arc(cx, cy, r, n, start=0.3, stop=2.5):
    t = np.linspace(start, stop, n)
    return cx + r * np.cos(t), cy + r * np.sin(t)


def test_circle_fit_batch_matches_each_curve_alone(rng):
    i = np.arange(9.0)
    curves = [
        _arc(2.0, -1.0, 3.0, 40),
        (0.5 * i, 2.0 + 0.25 * i),  # a line
        _arc(1e3, 5e2, 1e-3, 17, 0.0, 6.0),
        tuple(v + rng.normal(0.0, 1e-6, 64) for v in _arc(-4.0, 0.5, 0.7, 64)),
        # an arc so flat that its curvature is below LINE_CURVATURE_EPS
        _arc(0.0, -1e12, 1e12, 12, math.pi / 2 - 1e-12, math.pi / 2 + 1e-12),
    ]
    alone = [fit_one(x, y) for x, y in curves]
    assert [curve.kind for curve, _ in alone] == ["circle", "line", "circle", "circle", "line"]
    x, y = (np.concatenate(c) for c in zip(*curves))
    ends = np.cumsum([len(cx) for cx, _ in curves])
    assert circle_fit(x, y, ends) == alone
    # any sub-batch, and the points after the last end are not read
    assert circle_fit(x[ends[1]:], y[ends[1]:], ends[2:4] - ends[1]) == alone[2:4]
    assert circle_fit(x, y, []) == []


FIT_FAILURES = {
    "non-finite": (
        (np.array([0.0, 1.0, 2.0, 3.0]), np.array([0.0, 1.0, math.inf, 0.0])),
        NonFiniteValue, "non-finite plane point (2.0, inf)",
    ),
    "fewer-than-3": ((np.array([0.0, 1.0]), np.array([0.0, 1.0])), InsufficientPoints,
                     "need at least 3 points, got 2"),
    "coincident": ((np.full(10, 1.5), np.full(10, -2.0)), InsufficientPoints, "all points coincide"),
    # the centroid's rounding leaves these a spread of over 1e-14
    "coincident-large": ((np.full(64, 12345.678), np.full(64, -0.7)), InsufficientPoints,
                         "all points coincide"),
    "coincident-1e150": ((np.full(64, 1e150), np.full(64, -0.7)), InsufficientPoints,
                         "all points coincide"),
    # its 7 points mark it for the eigensolve below
    "no-real-fit": (_arc(0.0, 0.0, 1.0, 7), InsufficientPoints,
                    "degenerate configuration: no real fit"),
}


def _no_real_fit_for_seven_points(monkeypatch):
    """np.linalg.eig with every eigenvalue negative for the matrices of
    7-point curves, whose entry [0, 3] is -7 / 2."""
    eig = np.linalg.eig

    def patched(matrices):
        lam, vectors = eig(matrices)
        return np.where(matrices[:, :1, 3] == -3.5, -1.0, lam), vectors

    monkeypatch.setattr(np.linalg, "eig", patched)


@pytest.mark.parametrize("second", FIT_FAILURES)
@pytest.mark.parametrize("first", FIT_FAILURES)
def test_circle_fit_batch_raises_its_first_failing_curve(monkeypatch, first, second):
    _no_real_fit_for_seven_points(monkeypatch)
    (x, y), kind, message = FIT_FAILURES[first]
    with pytest.raises(kind) as alone:
        fit_one(x, y)
    assert str(alone.value) == message
    circle = _arc(1.0, 2.0, 0.5, 16)
    curves = [circle, FIT_FAILURES[first][0], circle, FIT_FAILURES[second][0], circle]
    x, y = (np.concatenate(c) for c in zip(*curves))
    with pytest.raises(kind) as batch:
        circle_fit(x, y, np.cumsum([len(cx) for cx, _ in curves]))
    assert str(batch.value) == message


def _batch(*curves):
    """The points of the curves, one after another, and their ends."""
    x, y = (np.concatenate(c) for c in zip(*curves))
    return x, y, np.cumsum([len(cx) for cx, _ in curves])


def _with(curve, i, bad):
    """The curve with its point i's y replaced by ``bad``."""
    x, y = (v.copy() for v in curve)
    y[i] = bad
    return x, y


ARC = _arc(1.0, 2.0, 0.5, 16)
# a curve's non-finite point comes before its point count, which comes before
# the fit's own failures; the first curve with any of them raises
FIT_PRECEDENCE = {
    "non-finite-short": (_batch(ARC, (np.array([0.0, 1.0]), np.array([math.nan, 1.0]))),
                         NonFiniteValue, "non-finite plane point (0.0, nan)"),
    "empty-between-arcs": (_batch(ARC, (np.array([]), np.array([])), ARC),
                           InsufficientPoints, "need at least 3 points, got 0"),
    "no-points": ((*ARC, [0]), InsufficientPoints, "need at least 3 points, got 0"),
    "short-before-non-finite": (
        _batch((np.array([0.0, 1.0]), np.array([0.0, 1.0])), _with(ARC, 3, math.nan)),
        InsufficientPoints, "need at least 3 points, got 2",
    ),
    "coincident-before-non-finite": (
        _batch((np.full(5, 1.5), np.full(5, -2.0)), _with(ARC, 7, math.inf)),
        InsufficientPoints, "all points coincide",
    ),
}


@pytest.mark.parametrize("case", FIT_PRECEDENCE)
def test_circle_fit_failure_precedence(case):
    (x, y, ends), kind, message = FIT_PRECEDENCE[case]
    with pytest.raises(kind) as failure:
        circle_fit(x, y, ends)
    assert str(failure.value) == message


def test_circle_fit_reads_no_point_after_the_last_end():
    x, y = (np.append(v, math.nan) for v in ARC)
    assert circle_fit(x, y, [len(ARC[0])]) == [fit_one(*ARC)]
