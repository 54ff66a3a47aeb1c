"""Shared generators for randomized suites.

Random projection specs and probe points are drawn inside the regime
where the finite-difference contracts are meaningful: away from the
projection center, the branch cut, and the poles of post-transforms
(distance scaled against the local magnification, so probe stencils never
straddle a singularity).
"""

import cmath
import math

import numpy as np
import pytest

from carta import Inversion, LagrangeProjectionSpec, MobiusTransform
from carta.surfaces import SPHERE, SurfaceOfRevolution

from oracles import parallel_radius


@pytest.fixture
def rng():
    return np.random.default_rng(20260809)


def random_mobius(rng, min_det=1e-3):
    while True:
        a, b, c, d = rng.normal(size=4) + 1j * rng.normal(size=4)
        if abs(a * d - b * c) > min_det:
            return MobiusTransform(a, b, c, d)


def mobius_map(m):
    """The plane map z -> (a z + b) / (c z + d) of a MobiusTransform."""
    return lambda z: (m.a * z + m.b) / (m.c * z + m.d)


def random_spec(rng, allow_spheroid=True, post_kinds=("none", "inversion", "mobius")):
    c = float(rng.uniform(0.3, 2.0))
    central = float(rng.uniform(-math.pi, math.pi))
    surface = SPHERE
    if allow_spheroid and rng.random() < 0.3:
        surface = SurfaceOfRevolution(float(rng.uniform(0.02, 0.3)))
    kind = post_kinds[int(rng.integers(len(post_kinds)))]
    post = None
    if kind == "inversion":
        angle = rng.uniform(0, 2 * math.pi)
        radius = rng.uniform(0.8, 2.5)
        post = Inversion(
            complex(radius * math.cos(angle), radius * math.sin(angle)),
            float(rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])),
        )
    elif kind == "mobius":
        post = random_mobius(rng, min_det=0.3)
    return LagrangeProjectionSpec(
        exponent=c, central_meridian=central, post_transform=post, surface=surface
    )


def _pre_post_image_and_scale(spec, lat, lon):
    """Image before the post-transform and the local scale up to there."""
    from carta.surfaces import conformal_latitude

    surface_factor = 1.0
    if not spec.surface.is_sphere:
        chi = conformal_latitude(spec.surface.eccentricity, lat)
        surface_factor = math.cos(chi) / parallel_radius(spec.surface.eccentricity, lat)
        lat = chi
    colat = math.pi / 2 - lat
    rho = math.tan(math.pi / 4 + lat / 2)
    stereo = 1.0 / (2.0 * math.sin(colat / 2.0) ** 2)
    dlon = lon - spec.central_meridian
    dlon = math.remainder(dlon, 2 * math.pi)
    w = rho**spec.exponent * cmath.exp(1j * spec.exponent * dlon)
    scale = surface_factor * stereo * spec.exponent * rho ** (spec.exponent - 1.0)
    return w, scale


def random_point_for_spec(rng, spec, max_tries=500):
    """Sphere point (lat, lon) where the dilatation finite differences are
    trustworthy."""
    for _ in range(max_tries):
        lat = float(rng.uniform(math.radians(-85), math.radians(55)))
        lon = float(rng.uniform(-math.pi, math.pi))
        dlon = math.remainder(lon - spec.central_meridian, 2 * math.pi)
        if abs(spec.exponent * dlon) > math.pi - 0.2:
            continue
        colat = math.pi / 2 - lat
        if colat < 0.6:
            continue
        rho = math.tan(math.pi / 4 + lat / 2)
        if not (0.05 < rho < 3.0):
            continue
        w, scale = _pre_post_image_and_scale(spec, lat, lon)
        post = spec.post_transform
        if isinstance(post, Inversion):
            dist = abs(w - post.pole)
            if dist < 0.3 or scale > 5.0 * dist:
                continue
        elif isinstance(post, MobiusTransform):
            if abs(post.c) > 1e-12:
                dist = abs(w + post.d / post.c)
                if dist < 0.3 or scale > 5.0 * dist:
                    continue
        return lat, lon
    raise AssertionError("could not sample a well-conditioned point for the spec")


def point_columns(points):
    """(latitudes, longitudes) of (lat, lon) points, the columns ``distortion_report`` takes."""
    return [lat for lat, _ in points], [lon for _, lon in points]


def offcap_ring(sides):
    """(lat, lon) radians of a regular polygon inscribed in the 10-degree cap
    about (20N, 37E), where the centred stereographic map is optimal."""
    lat0, lon0, r = math.radians(20), math.radians(37), math.radians(10)
    bearing = 0.003 + np.linspace(0.0, 2 * math.pi, sides, endpoint=False)
    lat = np.arcsin(math.sin(lat0) * math.cos(r) + math.cos(lat0) * math.sin(r) * np.cos(bearing))
    lon = lon0 + np.arctan2(
        np.sin(bearing) * math.sin(r) * math.cos(lat0), math.cos(r) - math.sin(lat0) * np.sin(lat)
    )
    return lat, lon
