"""Surfaces of revolution (sphere, spheroid) and their conformal coordinates.

The spheroid is an ellipse of revolution with semi-major axis 1 and
eccentricity e; latitudes are geodetic.  The isometric and conformal
latitudes, the inverse of the conformal one and the conformal scale take
every latitude of [-pi/2, pi/2].  The latitude functions take a float or a
numpy array of latitudes and evaluate with numpy either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoConvergence


@dataclass(frozen=True)
class SurfaceOfRevolution:
    """Unit sphere (e = 0) or spheroid of eccentricity e in [0, 1)."""

    eccentricity: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.eccentricity < 1.0):
            raise ValueError(f"eccentricity {self.eccentricity} outside [0, 1)")

    @property
    def is_sphere(self) -> bool:
        return self.eccentricity == 0.0

    def gaussian_curvature(self, latitude: float) -> float:
        """1/(M N), the product of the principal curvatures; 1 on the sphere."""
        e2 = self.eccentricity**2
        w2 = 1.0 - e2 * math.sin(latitude) ** 2
        return w2 * w2 / (1.0 - e2)


SPHERE = SurfaceOfRevolution(0.0)


def isometric_coordinate(surface: SurfaceOfRevolution, latitude):
    """Isothermal latitude: integral of (meridian arc element)/q from 0.

    Closed forms: asinh(tan lat) for the sphere, minus the eccentricity
    correction e*atanh(e sin lat) for the spheroid.  Strictly increasing
    and odd in the latitude; finite at the float poles (tan lat ~ 1.6e16).
    """
    sigma = np.asinh(np.tan(latitude))
    e = surface.eccentricity
    if e > 0.0:
        sigma -= e * np.atanh(e * np.sin(latitude))
    return sigma


def gudermannian(x):
    """Inverse of the sphere isometric coordinate: gd(x) = atan(sinh x)."""
    return np.atan(np.sinh(x))


def _radius_factor(eccentricity: float, latitude):
    """F = ((1 - e sin lat) / (1 + e sin lat))^(e/2), tan(pi/4 + chi/2) over
    tan(pi/4 + lat/2) for the conformal latitude chi (Snyder, PP 1395, eq. 3-1)."""
    s = eccentricity * np.sin(latitude)
    return ((1.0 - s) / (1.0 + s)) ** (eccentricity / 2)


def conformal_latitude(eccentricity: float, latitude):
    """Sphere latitude chi making the spheroid->sphere substitution conformal.

    Defined by equal isometric coordinates psi: tan(pi/4 + chi/2) =
    tan(pi/4 + lat/2) F (``_radius_factor``), evaluated as gd(psi).  Odd in
    the latitude; the identity when e = 0.  Exact at both poles.
    """
    surface = SurfaceOfRevolution(eccentricity)  # ValueError outside [0, 1)
    if surface.is_sphere:
        return latitude
    latitude = np.asarray(latitude, dtype=float)
    chi = gudermannian(isometric_coordinate(surface, latitude))
    return np.where(latitude == 0.0, latitude, chi)[()]


def conformal_scale(surface: SurfaceOfRevolution, latitude):
    """cos(chi) / q: the scale at the latitude of the conformal map onto the
    unit sphere that takes it to its conformal latitude chi; 1 on the
    sphere.  In closed form F sqrt(1 - e^2 sin^2 lat) (1 + r^2) / (1 +
    (F r)^2), with r = tan(pi/4 + lat/2) and F = ``_radius_factor``: finite
    at the poles, where it is sqrt(1 - e^2) ((1 + e) / (1 - e))^(e/2)."""
    if surface.is_sphere:
        return 1.0
    e = surface.eccentricity
    latitude = np.asarray(latitude, dtype=float)
    r = np.tan(math.pi / 4 + latitude / 2)
    factor = _radius_factor(e, latitude)
    w = np.sqrt(1.0 - (e * np.sin(latitude)) ** 2)
    return (factor * w * (1.0 + r * r) / (1.0 + (factor * r) ** 2))[()]


def inverse_conformal_latitude(eccentricity: float, chi):
    """Geodetic latitude with the given conformal latitude chi.

    Newton steps solve psi(lat) = asinh(tan chi) for the isometric
    coordinate psi, whose slope psi' = (1 - e^2) / ((1 - e^2 sin^2 lat)
    cos lat) grows with |lat|.  They start from atan(tan chi / (1 - e^2)),
    never nearer the equator than the answer, so they approach it
    monotonically from the pole side; they stop once every step is within
    rounding, and a step past a pole stops at it.  Exact at both poles.
    """
    if eccentricity == 0.0:
        return chi
    e, e2 = eccentricity, eccentricity**2
    tan_chi = np.tan(np.asarray(chi, dtype=float))
    target = np.asinh(tan_chi)
    lat = np.atan(tan_chi / (1.0 - e2))
    for _ in range(50):  # at most 18 are taken, for e up to 1 - 1e-12
        sigma = np.asinh(np.tan(lat))
        s = e * np.sin(lat)
        scale = np.cos(lat) / (1.0 - e2)
        step = (sigma - e * np.atanh(s) - target) * (1.0 - s * s) * scale
        lat = np.clip(lat - step, -math.pi / 2, math.pi / 2)
        # rounding: a unit of the latitude, and of psi's terms over psi'
        if np.all(np.abs(step) <= 8 * np.finfo(float).eps * (1.0 + (1.0 + np.abs(sigma)) * scale)):
            return lat[()]
    raise NoConvergence(f"conformal latitude not inverted at eccentricity {e}")
