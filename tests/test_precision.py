"""50-digit references for the spheroid's closed forms, near and at the poles,
and for the image and dilatation after a post-transform, near its pole.

mpmath evaluates each quantity at 50 digits and takes every float input
(latitude, longitude, eccentricity, exponent) as exact: the chart radius
rho = tan(pi/4 + lat/2) F with F = ((1 - e sin lat) / (1 + e sin lat))^(e/2)
(Snyder, *Map Projections: A Working Manual*, USGS PP 1395, eq. 3-1), the
scale cos(chi)/q of the conformal latitude chi, the isometric coordinate's
root, the image rho^c e^(i c lon) and the dilatation c rho^c / q.

The sphere's own tan(pi/4 + lat/2) rounds pi/4 and the sum, which costs it
up to 6e-5 relative at 1e-12 rad from the South pole (and all of rho at the
float pole, which lies 6e-17 rad off it); the spheroid's image and
dilatation are held to the sphere's error at the same latitude plus 1e-14.
"""

import functools
import math

import mpmath
import numpy as np
import pytest

from carta import Inversion, centered_stereographic
from carta.lagrange import LagrangeProjectionSpec, _chart, dilatation_array, project_array
from carta.surfaces import (
    SurfaceOfRevolution,
    conformal_latitude,
    conformal_scale,
    inverse_conformal_latitude,
)

ECCENTRICITIES = [0.0818, 0.5, 0.99]
EXPONENTS = [0.5, 1.0, 2.0]
# 1e-12 to 1e-3 rad from each pole, and the (float) poles themselves
OFFSETS = [0.0] + [10.0**-k for k in range(12, 2, -1)]
LATITUDES = np.array([side * (math.pi / 2 - d) for side in (1.0, -1.0) for d in OFFSETS])
LONGITUDE = 0.3


def _factor(e, lat):
    s = e * mpmath.sin(lat)
    return ((1 - s) / (1 + s)) ** (e / 2)


def _rho(e, lat):
    return mpmath.tan(mpmath.pi / 4 + lat / 2) * _factor(e, lat)


def _q(e, lat):
    """The parallel radius cos lat / sqrt(1 - e^2 sin^2 lat)."""
    return mpmath.cos(lat) / mpmath.sqrt(1 - (e * mpmath.sin(lat)) ** 2)


def _relative(got, want) -> float:
    return float(abs(mpmath.mpmathify(complex(got)) - want) / abs(want))


def _errors(values, reference) -> np.ndarray:
    """Relative errors of the values at ``LATITUDES`` against the reference
    function of the latitude."""
    with mpmath.workdps(50):
        return np.array([_relative(v, reference(mpmath.mpf(lat)))
                         for v, lat in zip(values, LATITUDES.tolist())])


@pytest.mark.parametrize("e", ECCENTRICITIES)
def test_chart_radius_has_the_spheres_error(e):
    errors = []
    for ecc in (0.0, e):
        spec = LagrangeProjectionSpec(1.0, surface=SurfaceOfRevolution(ecc))
        rho = _chart(spec, LATITUDES, np.zeros_like(LATITUDES))[3]
        errors.append(_errors(rho, lambda lat: _rho(mpmath.mpf(ecc), lat)))
    sphere, spheroid = errors
    assert np.all(spheroid <= sphere + 1e-14)
    # the float South pole is 6e-17 rad off the pole: rho rounds to 0 on both
    assert sphere[LATITUDES == -math.pi / 2].tolist() == [1.0]


@pytest.mark.parametrize("e", ECCENTRICITIES)
def test_conformal_scale_is_within_rounding_at_and_near_the_poles(e):
    scale = conformal_scale(SurfaceOfRevolution(e), LATITUDES)

    def reference(lat):
        rho = _rho(mpmath.mpf(e), lat)
        return 2 * rho / (1 + rho * rho) / _q(mpmath.mpf(e), lat)  # cos(chi) / q

    assert _errors(scale, reference).max() <= 1e-14


@pytest.mark.parametrize("e", ECCENTRICITIES)
def test_inverse_conformal_latitude_takes_no_point_to_the_pole(e):
    chi = LATITUDES
    lat = inverse_conformal_latitude(e, chi)
    off_pole = np.abs(chi) != math.pi / 2
    assert np.all(np.abs(lat[off_pole]) < math.pi / 2)
    assert lat[~off_pole].tolist() == chi[~off_pole].tolist()
    assert np.abs(conformal_latitude(e, lat) - chi).max() <= 4e-15 / (1 - e * e)
    with mpmath.workdps(50):
        m_e = mpmath.mpf(e)
        for got, c in zip(lat.tolist(), chi.tolist()):
            target = mpmath.asinh(mpmath.tan(c))
            root = mpmath.findroot(
                lambda p: mpmath.asinh(mpmath.tan(p)) - m_e * mpmath.atanh(m_e * mpmath.sin(p))
                - target,
                (0, mpmath.pi / 2 - mpmath.mpf(10) ** -40) if c > 0
                else (mpmath.mpf(10) ** -40 - mpmath.pi / 2, 0),
                solver="anderson",
            )
            assert abs(got - root) <= math.ulp(math.pi / 2)


@pytest.mark.parametrize("c", EXPONENTS)
@pytest.mark.parametrize("e", ECCENTRICITIES)
def test_spheroid_image_and_dilatation_have_the_spheres_error(e, c):
    lon = np.full_like(LATITUDES, LONGITUDE)
    results = []
    for ecc in (0.0, e):
        spec = LagrangeProjectionSpec(c, surface=SurfaceOfRevolution(ecc))
        w, code = project_array(spec, LATITUDES, lon)
        m, m_code = dilatation_array(spec, LATITUDES, lon)
        m_ecc, m_c = mpmath.mpf(ecc), mpmath.mpf(c)

        def image(lat):
            return _rho(m_ecc, lat) ** m_c * mpmath.expj(m_c * mpmath.mpf(LONGITUDE))

        def dilatation(lat):
            return m_c * _rho(m_ecc, lat) ** m_c / _q(m_ecc, lat)

        results.append((code, m_code, _errors(w, image), _errors(m, dilatation)))
    (code, m_code, w_sphere, m_sphere), (spheroid_code, spheroid_m_code, w_err, m_err) = results
    assert spheroid_code.tolist() == code.tolist()
    assert spheroid_m_code.tolist() == m_code.tolist()
    # the projection center alone has no image; the South pole alone a
    # singular power map
    assert np.flatnonzero(code).tolist() == np.flatnonzero(LATITUDES == math.pi / 2).tolist()
    singular = np.flatnonzero(m_code == 2).tolist()
    assert singular == ([] if c == 1.0 else np.flatnonzero(LATITUDES == -math.pi / 2).tolist())
    ok, m_ok = code == 0, m_code == 0
    assert np.all(w_err[ok] <= w_sphere[ok] + 1e-14)
    assert np.all(m_err[m_ok] <= m_sphere[m_ok] + 1e-14)


# -- post-transforms: the benchmark's inversion and an oblique Mobius aspect ------------
#
# Each image T and dilatation m is held to k u cond, with u the unit roundoff
# and cond taken from the 50-digit reference: its first-order response to a
# relative perturbation of each input, the latitude measured with pi/2 (the
# reach of tan's argument pi/4 + lat/2):
#
#   cond_T = |dT/dlat| (|lat| + pi/2) + |dT/dlon| |lon| + |T|   (absolute),
#   cond_m = (|dm/dlat| (|lat| + pi/2) + |dm/dlon| |lon|) / m + 1   (relative).
#
# The points are 400 seeded random ones over the sphere and 40 at 1e-12 to
# 1e-3 rad from the preimage of the post-transform's pole.

U = 2.0**-53
POST_SPECS = {
    "inversion-sphere": LagrangeProjectionSpec(
        0.5, post_transform=Inversion(2.0 + 0j, 1.0)),
    "inversion-spheroid": LagrangeProjectionSpec(
        0.5, post_transform=Inversion(2.0 + 0j, 1.0),
        surface=SurfaceOfRevolution(0.0818191908426)),
    "mobius": centered_stereographic(math.radians(46), math.radians(2)),
}


def _post_reference(spec, lat, lon):
    """(T, m) of the spec at the mpf latitude and longitude."""
    e, c = mpmath.mpf(spec.surface.eccentricity), mpmath.mpf(spec.exponent)
    rho = _rho(e, lat)
    w = rho**c * mpmath.expj(c * (lon - mpmath.mpf(spec.central_meridian)))
    post = spec.post_transform
    if isinstance(post, Inversion):
        pole, power = mpmath.mpc(post.pole), mpmath.mpf(post.power)
        image, stretch = pole + power * (w - pole) / abs(w - pole) ** 2, abs(power / (w - pole) ** 2)
    else:  # the stored coefficients, exact, with their own determinant
        a, b, cc, d = (mpmath.mpc(v) for v in (post.a, post.b, post.c, post.d))
        image, stretch = (a * w + b) / (cc * w + d), abs((a * d - b * cc) / (cc * w + d) ** 2)
    return image, c * rho**c / _q(e, lat) * stretch


def _pole_preimage(spec):
    """The mpf latitude and longitude that the spec takes to its
    post-transform's pole."""
    post = spec.post_transform
    if isinstance(post, Inversion):
        pole = mpmath.mpc(post.pole)
    else:
        pole = -mpmath.mpc(post.d) / mpmath.mpc(post.c)
    c, e = mpmath.mpf(spec.exponent), mpmath.mpf(spec.surface.eccentricity)
    rho = abs(pole) ** (1 / c)
    lat = mpmath.findroot(lambda lat: _rho(e, lat) - rho, 2 * mpmath.atan(rho) - mpmath.pi / 2)
    return lat, mpmath.arg(pole) / c + spec.central_meridian


@functools.cache
def _post_errors(name):
    """Per point, random ones first: the image's absolute error and the
    dilatation's relative error, each over u cond, and how many points are
    near the post-transform's pole."""
    spec = POST_SPECS[name]
    rng = np.random.default_rng(21)
    lat = rng.uniform(-math.pi / 2, math.pi / 2, 400)
    lon = rng.uniform(-math.pi, math.pi, 400)
    with mpmath.workdps(50):
        lat0, lon0 = _pole_preimage(spec)
        near = [(float(lat0 + d * mpmath.cos(t)), float(lon0 + d * mpmath.sin(t) / mpmath.cos(lat0)))
                for d in (10.0**-k for k in range(3, 13)) for t in (0.4, 2.0, 3.5, 5.1)]
    lat = np.concatenate([lat, [p[0] for p in near]])
    lon = np.concatenate([lon, [p[1] for p in near]])
    w, code = project_array(spec, lat, lon)
    m, m_code = dilatation_array(spec, lat, lon)
    assert not code.any() and not m_code.any()
    errors = []
    with mpmath.workdps(50):
        h = mpmath.mpf(10) ** -20
        for lat_i, lon_i, w_i, m_i in zip(lat.tolist(), lon.tolist(), w.tolist(), m.tolist()):
            lat_i, lon_i = mpmath.mpf(lat_i), mpmath.mpf(lon_i)
            image, dilatation = _post_reference(spec, lat_i, lon_i)
            steps = [_post_reference(spec, lat_i + s, lon_i + t)
                     for s, t in ((h, 0), (-h, 0), (0, h), (0, -h))]
            d_lat, d_lon = ([(a[j] - b[j]) / (2 * h) for j in (0, 1)]
                            for a, b in (steps[:2], steps[2:]))
            reach = abs(lat_i) + mpmath.pi / 2, abs(lon_i)
            cond_t = abs(d_lat[0]) * reach[0] + abs(d_lon[0]) * reach[1] + abs(image)
            cond_m = (abs(d_lat[1]) * reach[0] + abs(d_lon[1]) * reach[1]) / dilatation + 1
            errors.append((float(abs(mpmath.mpc(w_i) - image) / (U * cond_t)),
                           float(abs(m_i - dilatation) / dilatation / (U * cond_m))))
    return np.array(errors), len(near)


K = 4  # roundings per unit of condition


@pytest.mark.parametrize("name", POST_SPECS)
def test_post_transform_image_is_within_its_condition(name):
    errors, _ = _post_errors(name)
    assert errors[:, 0].max() <= K


@pytest.mark.parametrize("name", POST_SPECS)
def test_dilatation_near_the_post_transforms_pole_is_within_its_condition(name):
    errors, near = _post_errors(name)
    assert errors[-near:, 1].max() <= K


@pytest.mark.xfail(strict=True, reason=(
    "dilatation_array takes the stereographic factor from colat = pi/2 - lat and the power "
    "factor from rho = tan(pi/4 + lat/2), each rounded on its own: toward the North pole "
    "their relative errors grow as u / colat, and no post-transform cancels them "
    "(ROADMAP item 21)"))
@pytest.mark.parametrize("name", POST_SPECS)
def test_post_transform_dilatation_is_within_its_condition(name):
    errors, near = _post_errors(name)
    assert errors[:-near, 1].max() <= K
