"""Pointwise dilatation of sphere-to-plane maps and conformality diagnostics.

The dilatation m = sqrt((dx^2 + dy^2) / (ds^2 + q^2 dt^2)) compares image
displacements against surface arc length, with (s, t) the meridian-arc and
longitude parameters and q the parallel radius.  It is evaluated both by
central finite differences on an arbitrary projection callable and in
closed form for the projection family, the two serving as mutual checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import (
    CartaError,
    DomainEdge,
    EmptyRegion,
    NonFiniteValue,
    OriginSingularity,
    PointAtInfinity,
    PoleSingularity,
    ProjectionPole,
)
from .geometry import POLE_COLATITUDE_EPS, Inversion, PlanePoint, SpherePoint, normalize_longitude
from .lagrange import LagrangeProjectionSpec
from .surfaces import SPHERE, conformal_latitude

Projection = Callable[[SpherePoint], PlanePoint]

DEFAULT_STEP = 1e-4

# colatitude below which the parallel direction degenerates and probes are
# taken along two perpendicular meridians through the pole instead
_POLAR_PROBE_EPS = 1e-7


@dataclass(frozen=True)
class DilatationSample:
    """Dilatation and conformality defect at one sphere point."""

    point: SpherePoint
    m: float
    conformality_defect: float

    def __post_init__(self):
        if not (self.m > 0.0):
            raise ValueError("dilatation must be positive")
        if self.conformality_defect < 0.0:
            raise ValueError("conformality defect must be >= 0")


def _check_step(h: float) -> None:
    if not (1e-8 <= h <= 1e-2):
        raise ValueError(f"finite-difference step {h} outside [1e-8, 1e-2]")


def _offset_point(p: SpherePoint, dlat: float, dlon: float, surface) -> SpherePoint:
    """Displace p on the parameter grid, walking through a pole if needed."""
    lat = p.latitude + dlat
    lon = p.longitude + dlon
    if abs(lat) <= math.pi / 2:
        return SpherePoint(lat, normalize_longitude(lon))
    if not getattr(surface, "is_sphere", True):
        raise DomainEdge("probe crosses a pole on a non-spherical surface")
    # continue along the great circle through the pole
    if lat > math.pi / 2:
        lat = math.pi - lat
    else:
        lat = -math.pi - lat
    return SpherePoint(lat, normalize_longitude(lon + math.pi))


def _image(projection: Projection, p: SpherePoint) -> complex:
    try:
        q = projection(p)
    except CartaError as exc:
        raise DomainEdge(f"probe left the projection domain: {exc}") from exc
    return q.as_complex()


def directional_dilatations(
    projection: Projection,
    p: SpherePoint,
    h: float = DEFAULT_STEP,
    surface=SPHERE,
) -> tuple[float, float]:
    """Central-difference dilatation along the meridian and the parallel.

    For a conformal map the two values agree to O(h); their split is the
    raw material of both the dilatation and the isotropy diagnostics.
    """
    _check_step(h)
    lat = p.latitude
    mer = abs(
        _image(projection, _offset_point(p, h, 0.0, surface))
        - _image(projection, _offset_point(p, -h, 0.0, surface))
    ) / (2.0 * h * surface.meridian_factor(lat))

    if math.pi / 2 - abs(lat) < _POLAR_PROBE_EPS:
        # parallel direction degenerates at the pole: use the perpendicular
        # great circle through it, which has unit metric like the meridian
        quarter = math.pi / 2
        par = abs(
            _image(projection, _offset_point(p, h, quarter, surface))
            - _image(projection, _offset_point(p, -h, quarter, surface))
        ) / (2.0 * h)
    else:
        q = surface.parallel_radius(lat)
        par = abs(
            _image(projection, _offset_point(p, 0.0, h, surface))
            - _image(projection, _offset_point(p, 0.0, -h, surface))
        ) / (2.0 * h * q)
    return mer, par


def dilatation_fd(
    projection: Projection,
    p: SpherePoint,
    h: float = DEFAULT_STEP,
    surface=SPHERE,
) -> float:
    """Finite-difference dilatation: geometric mean of the two directions."""
    mer, par = directional_dilatations(projection, p, h, surface)
    return math.sqrt(mer * par)


def dilatation_analytic(spec: LagrangeProjectionSpec, p: SpherePoint) -> float:
    """Closed-form dilatation: the product of the step scale factors.

    Stereographic factor 1/(2 sin^2(theta/2)) (after the spheroid-to-sphere
    correction), power-map factor c rho^(c-1), and the local stretch of the
    post-transform.
    """
    lat = p.latitude
    surface_factor = 1.0
    if not spec.surface.is_sphere:
        chi = conformal_latitude(spec.surface.eccentricity, lat)
        surface_factor = math.cos(chi) / spec.surface.parallel_radius(lat)
        lat = chi
    colat = math.pi / 2 - lat
    if colat < POLE_COLATITUDE_EPS:
        raise ProjectionPole("dilatation diverges at the projection center")
    stereo_factor = 1.0 / (2.0 * math.sin(colat / 2.0) ** 2)

    c = spec.exponent
    rho = math.tan(math.pi / 4 + lat / 2)
    if rho == 0.0 and c != 1.0:
        raise OriginSingularity("power-map scale is singular at the South pole")
    power_factor = c if c == 1.0 else c * rho ** (c - 1.0)

    post = spec.post_transform
    post_factor = 1.0
    if post is not None:
        dlon = normalize_longitude(p.longitude - spec.central_meridian)
        w = rho**c * complex(math.cos(c * dlon), math.sin(c * dlon))
        if isinstance(post, Inversion):
            stretch, d, at_pole = abs(post.power), abs(w - post.pole.as_complex()), PoleSingularity
        else:  # Mobius with |det| = 1
            stretch, d, at_pole = 1.0, abs(post.c * w + post.d), PointAtInfinity
        if d < 1e-14:
            raise at_pole(f"point {w} at the pole of the post-transform")
        post_factor = stretch / d**2
    m = surface_factor * stereo_factor * power_factor * post_factor
    if not (0.0 < m < math.inf):
        raise NonFiniteValue(f"dilatation {m} outside the floating-point range")
    return m


def conformality_defect(
    projection: Projection,
    p: SpherePoint,
    h: float = DEFAULT_STEP,
    surface=SPHERE,
) -> float:
    """Deviation from pi/2 of the image angle between the two diagonal
    probe directions (equal meridian and parallel components).

    Diagonals rather than the grid directions: a map may stretch the two
    graticule directions unequally while keeping them orthogonal (the
    plate carree does), and only the diagonals expose that distortion.
    """
    _check_step(h)
    lat = p.latitude
    if math.pi / 2 - abs(lat) < _POLAR_PROBE_EPS:
        # at the pole any two perpendicular great circles serve as the frame
        d_plus = _image(projection, _offset_point(p, h, 0.0, surface)) - _image(
            projection, _offset_point(p, -h, 0.0, surface)
        )
        d_minus = _image(projection, _offset_point(p, h, math.pi / 2, surface)) - _image(
            projection, _offset_point(p, -h, math.pi / 2, surface)
        )
    else:
        half = h / math.sqrt(2.0)
        dlat = half / surface.meridian_factor(lat)
        dlon = half / surface.parallel_radius(lat)
        d_plus = _image(projection, _offset_point(p, dlat, dlon, surface)) - _image(
            projection, _offset_point(p, -dlat, -dlon, surface)
        )
        d_minus = _image(projection, _offset_point(p, dlat, -dlon, surface)) - _image(
            projection, _offset_point(p, -dlat, dlon, surface)
        )
    if d_plus == 0 or d_minus == 0:
        raise DomainEdge("degenerate probe image")
    cross = d_plus.real * d_minus.imag - d_plus.imag * d_minus.real
    dot = d_plus.real * d_minus.real + d_plus.imag * d_minus.imag
    return abs(abs(math.atan2(cross, dot)) - math.pi / 2)


@dataclass(frozen=True)
class DistortionReport:
    """Dilatation extrema over a sample set."""

    m_min: float
    m_max: float
    ratio: float
    samples: tuple[DilatationSample, ...]


def distortion_report(
    spec: LagrangeProjectionSpec,
    points: Sequence[SpherePoint],
    h: float = DEFAULT_STEP,
    include_defect: bool = True,
) -> DistortionReport:
    """Evaluate the dilatation field over sample points and report extrema."""
    if len(points) == 0:
        raise EmptyRegion("no sample points")
    samples = []
    proj = spec.projection()
    for p in points:
        m = dilatation_analytic(spec, p)
        defect = (
            conformality_defect(proj, p, h, spec.surface) if include_defect else 0.0
        )
        samples.append(DilatationSample(p, m, defect))
    m_values = [s.m for s in samples]
    m_min, m_max = min(m_values), max(m_values)
    return DistortionReport(m_min, m_max, m_max / m_min, tuple(samples))
