"""Surfaces of revolution: isometric and conformal latitudes (against
quadrature and root-finding oracles), and the test oracles' parallel radius
and Gauss reduction."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from carta import SurfaceOfRevolution, conformal_latitude, isometric_coordinate
from carta.surfaces import SPHERE, conformal_scale, inverse_conformal_latitude

from oracles import gauss_scale, parallel_radius

WGS84_E = 0.0818191908


# -- parallel radius ------------------------------------------------------------


def test_sphere_parallel_radius():
    assert parallel_radius(0.0, 0.0) == 1.0
    assert parallel_radius(0.0, math.pi / 3) == pytest.approx(0.5, abs=1e-15)


def _axis_distance_3d(e, lat):
    """Distance to the axis from the point of the meridian ellipse at
    geodetic latitude lat, by direct evaluation of the ellipse."""
    a, b = 1.0, math.sqrt(1.0 - e * e)
    # x = a cos t, z = b sin t; outward normal (cos t/a, sin t/b) points
    # along the geodetic latitude: tan(lat) = (a/b) tan t
    t = math.atan2(b * math.tan(lat), a)
    return a * math.cos(t)


def test_spheroid_parallel_radius_matches_ellipse():
    lat = math.radians(45)
    assert parallel_radius(WGS84_E, lat) == pytest.approx(
        _axis_distance_3d(WGS84_E, lat), abs=1e-12
    )


def test_spheroid_reduces_to_sphere_at_zero_eccentricity():
    zero = SurfaceOfRevolution(0.0)
    for lat in np.linspace(-1.5, 1.5, 101):
        assert parallel_radius(0.0, lat) == pytest.approx(math.cos(lat), abs=1e-12)
        assert isometric_coordinate(zero, lat) == pytest.approx(
            math.asinh(math.tan(lat)), abs=1e-12
        )
        assert zero.gaussian_curvature(lat) == 1.0


def test_spheroid_gaussian_curvature_is_product_of_principal_curvatures():
    surface = SurfaceOfRevolution(WGS84_E)
    for lat in np.linspace(-1.4, 1.4, 25):
        e2 = WGS84_E**2
        w = math.sqrt(1.0 - e2 * math.sin(lat) ** 2)
        meridian_curv_radius = (1.0 - e2) / w**3
        prime_vertical = 1.0 / w
        assert surface.gaussian_curvature(lat) == pytest.approx(
            1.0 / (meridian_curv_radius * prime_vertical), rel=1e-12
        )
    # unit equatorial radius: the meridian curves tightly at the equator
    # (K > 1) and the flattened poles are flatter than the sphere (K < 1)
    assert surface.gaussian_curvature(1.5) < 1.0 < surface.gaussian_curvature(0.0)


# -- isometric coordinate ---------------------------------------------------------


def _isometric_quadrature(surface, lat):
    # meridian arc per radian of latitude, (1 - e^2) / (1 - e^2 sin^2)^(3/2), over q
    e2 = surface.eccentricity**2
    value, err = quad(
        lambda x: (1 - e2) / (1 - e2 * math.sin(x) ** 2) ** 1.5
        / parallel_radius(surface.eccentricity, x),
        0.0,
        lat,
        epsabs=1e-12,
        epsrel=1e-12,
    )
    assert err < 1e-10
    return value


def test_isometric_zero_at_equator():
    assert isometric_coordinate(SPHERE, 0.0) == 0.0


def test_sphere_isometric_against_quadrature():
    lat = math.pi / 3
    sigma = isometric_coordinate(SPHERE, lat)
    assert sigma == pytest.approx(_isometric_quadrature(SPHERE, lat), abs=1e-10)
    assert sigma == pytest.approx(math.log(math.tan(5 * math.pi / 12)), abs=1e-9)


def test_spheroid_isometric_against_quadrature():
    surface = SurfaceOfRevolution(0.1)
    lat = 0.5
    closed = isometric_coordinate(surface, lat)
    e, s = 0.1, math.sin(lat)
    alt_form = math.log(math.tan(math.pi / 4 + lat / 2)) - (e / 2) * math.log(
        (1 + e * s) / (1 - e * s)
    )
    assert closed == pytest.approx(alt_form, abs=1e-12)
    assert closed == pytest.approx(_isometric_quadrature(surface, lat), abs=1e-10)


def test_isometric_monotone_and_odd():
    grid = np.linspace(-math.pi / 2 + 1e-3, math.pi / 2 - 1e-3, 1000)
    for e in (0.0, 0.05, WGS84_E, 0.3):
        surface = SurfaceOfRevolution(e)
        values = [isometric_coordinate(surface, lat) for lat in grid]
        assert all(b > a for a, b in zip(values, values[1:]))
        for lat in grid[::37]:
            assert isometric_coordinate(surface, -lat) == pytest.approx(
                -isometric_coordinate(surface, lat), abs=1e-12
            )


# -- conformal latitude ------------------------------------------------------------


def test_conformal_latitude_sphere_is_identity():
    for lat in np.linspace(-1.5, 1.5, 20):
        assert conformal_latitude(0.0, lat) == lat


def test_conformal_latitude_equator_fixed():
    assert conformal_latitude(WGS84_E, 0.0) == 0.0


def test_conformal_latitude_odd():
    for lat in np.linspace(0.05, 1.5, 30):
        assert conformal_latitude(0.2, -lat) == pytest.approx(
            -conformal_latitude(0.2, lat), abs=1e-12
        )


def test_conformal_latitude_against_root_finding_oracle():
    # chi is the sphere latitude whose isometric coordinate equals the
    # spheroid's: recover it independently with a bracketing root find
    surface = SurfaceOfRevolution(WGS84_E)
    for lat in (math.radians(45), 0.2, -0.9, 1.3):
        sigma = _isometric_quadrature(surface, lat)
        oracle = brentq(
            lambda chi: math.asinh(math.tan(chi)) - sigma,
            -math.pi / 2 + 1e-9,
            math.pi / 2 - 1e-9,
            xtol=1e-14,
        )
        assert conformal_latitude(WGS84_E, lat) == pytest.approx(oracle, abs=1e-10)


def test_inverse_conformal_latitude_round_trip():
    for e in (0.05, WGS84_E, 0.3):
        for lat in np.linspace(-1.45, 1.45, 40):
            chi = conformal_latitude(e, lat)
            assert inverse_conformal_latitude(e, chi) == pytest.approx(lat, abs=1e-12)


@pytest.mark.parametrize("e", [WGS84_E, 0.5, 0.99])
def test_conformal_scale_takes_its_limit_at_the_poles(e):
    surface = SurfaceOfRevolution(e)
    limit = math.sqrt(1 - e * e) * ((1 + e) / (1 - e)) ** (e / 2)
    for pole in (math.pi / 2, -math.pi / 2):
        assert conformal_scale(surface, pole) == pytest.approx(limit, rel=1e-15)
        # cos(chi) / q tends to the limit as the square of the distance to the
        # pole, down to the rounding of cos(chi), about 2e-16 / distance
        gap = [
            abs(conformal_scale(surface, pole - math.copysign(d, pole)) / limit - 1)
            for d in (1e-3, 1e-4, 1e-5)
        ]
        assert gap[1] <= gap[0] * 1.01e-2 + 3e-12 and gap[2] <= gap[0] * 1.01e-4 + 3e-11
    assert conformal_scale(SPHERE, math.pi / 2) == 1.0


@pytest.mark.parametrize("e", [WGS84_E, 0.5, 0.9, 0.99, 0.999])
def test_inverse_conformal_latitude_converges_up_to_high_eccentricity(e):
    # conformal_latitude's atanh(e sin lat) magnifies the rounding of its
    # argument by up to 1 / (1 - e^2), which bounds what a round trip keeps
    worst = max(
        abs(conformal_latitude(e, inverse_conformal_latitude(e, chi)) - chi)
        for chi in np.linspace(-1.5, 1.5, 301)
    )
    assert worst <= 4e-15 / (1 - e * e)


def test_inverse_conformal_latitude_evaluates_arrays():
    chi = np.array([-math.pi / 2, -1.2, 0.0, 1e-9, 0.7, math.pi / 2 - 1e-9])
    for e in (WGS84_E, 0.99):
        lat = inverse_conformal_latitude(e, chi)
        assert lat.shape == chi.shape
        assert lat[[0, 2]].tolist() == [-math.pi / 2, 0.0]
        # 1e-9 from the pole is not the pole, and maps back to chi
        assert lat[-1] < math.pi / 2
        assert abs(conformal_latitude(e, lat[-1]) - chi[-1]) <= 4e-15 / (1 - e * e)
        scalars = [inverse_conformal_latitude(e, c) for c in chi]
        assert np.abs(lat - scalars).max() <= 1e-15


# -- Gauss spheroid-to-sphere reduction -----------------------------------------------


def test_gauss_scale_identity_at_zero_eccentricity():
    for lat in np.linspace(-1.4, 1.4, 30):
        assert gauss_scale(0.0, math.radians(45), lat) == 1.0


def test_gauss_scale_normalized_at_center():
    phi0 = math.radians(46.75)
    assert gauss_scale(0.0818, phi0, phi0) == pytest.approx(1.0, abs=1e-14)


def test_gauss_scale_stationary_at_center():
    phi0, h = math.radians(46.75), 1e-4
    up, down = (gauss_scale(0.0818, phi0, phi0 + step) for step in (h, -h))
    derivative = (up - down) / (2 * h)
    assert abs(derivative) < 1e-8


def test_gauss_scale_france_magnitude():
    # max deviation over the map of France stays within a decade of 2.5e-6
    lats = np.radians(np.linspace(42.0, 51.5, 2001))
    deviation = max(abs(gauss_scale(0.0818, math.radians(46.75), lat) - 1.0) for lat in lats)
    assert 2.5e-7 <= deviation <= 2.5e-5
