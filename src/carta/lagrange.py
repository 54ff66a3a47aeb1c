"""Conformal projections sending every meridian and parallel to a circle.

The family is built in three steps: stereographic projection from the
North pole onto the equator plane, the polar power map
(rho, omega) -> (rho^c, c omega), and an optional inversion or Mobius
post-transform in the image plane.  On the spheroid the stereographic
radius is that of the conformal latitude, so the composite stays
conformal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .errors import (
    BranchOverflow,
    ConfigError,
    DomainError,
    NonFiniteValue,
    OriginSingularity,
    PointAtInfinity,
    PoleSingularity,
    ProjectionPole,
)
from .geometry import (
    POLE_COLATITUDE_EPS,
    GeneralizedCircle,
    Inversion,
    MobiusTransform,
    circle_fit,
    normalize_longitude_array,
    sphere_point,
)
from .surfaces import SPHERE, SurfaceOfRevolution, _radius_factor

# Graticule samples closer than this to a singular point of the projection
# are dropped: in radians from the projection center, and in the kernel's
# own distance from the image before the post-transform to its pole
# (|w - p| for an inversion, |c w + d| for a Mobius map); any sub-arc
# determines the image circle, and staying off the singularities keeps
# the fit well-conditioned.
SAMPLE_CLEARANCE = 1e-3

# graticule_image refuses graticules of more samples than this (16 MB per
# float64 array of them), and projects its curves in blocks of whole curves
# of at most _GRATICULE_BLOCK samples (or one curve), to bound its memory
GRATICULE_SAMPLE_LIMIT = 1 << 21
_GRATICULE_BLOCK = 1 << 15

# the power map is single-valued where the image angle |omega| is at most pi;
# points past this edge (pi, with room for rounding) leave the branch window
BRANCH_EDGE = math.pi + 1e-12


@dataclass(frozen=True)
class LagrangeProjectionSpec:
    """Projection exponent, central meridian, optional post-transform.

    The exponent c is restricted to (0, 2]: beyond 2 the image of the full
    sphere self-overlaps and the map stops being injective.
    """

    exponent: float
    central_meridian: float = 0.0
    post_transform: Inversion | MobiusTransform | None = None
    surface: SurfaceOfRevolution = SPHERE

    def __post_init__(self):
        if not (0.0 < self.exponent <= 2.0):
            raise ValueError(f"exponent {self.exponent} outside (0, 2]")
        if not math.isfinite(self.central_meridian):
            raise ValueError(f"central meridian {self.central_meridian} is not finite")
        object.__setattr__(
            self, "central_meridian", float(normalize_longitude_array(self.central_meridian))
        )


def _image_angle(spec: LagrangeProjectionSpec, lon) -> np.ndarray:
    """The image angle omega = c (lon - central meridian) of an array of
    longitudes (radians), each difference normalized."""
    lon = normalize_longitude_array(np.asarray(lon, dtype=float))
    return spec.exponent * normalize_longitude_array(lon - spec.central_meridian)


def _chart(spec: LagrangeProjectionSpec, lat, lon) -> tuple:
    """Every step of the projection at arrays of latitudes and longitudes
    (radians), for the image and for its scale alike: the latitude, the
    image angle omega = c (lon - central meridian), the spheroid's factor F
    (None on the sphere), the radius rho = tan(pi/4 + lat/2) F, the image
    w = rho^c e^(i omega) before the post-transform T and T(w) after it,
    w's distance to T's pole (|w - pole| for an inversion, |c w + d| for a
    Mobius map) and where w is at that pole.  Closed forms after Snyder,
    *Map Projections: A Working Manual* (USGS PP 1395), eq. 3-1.

    A latitude outside [-pi/2, pi/2] raises ValueError, the first of them
    named; a NaN passes, to fail in its caller's codes."""
    lat = np.asarray(lat, dtype=float)
    off = np.abs(lat) > math.pi / 2
    if off.any():
        raise ValueError(f"latitude {float(lat[off][0])} outside [-pi/2, pi/2]")
    omega = _image_angle(spec, lon)
    post = spec.post_transform
    factor = None if spec.surface.is_sphere else _radius_factor(spec.surface.eccentricity, lat)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        rho = np.tan(math.pi / 4 + lat / 2)
        if factor is not None:
            rho *= factor
        w = np.where(rho == 0.0, 0j, rho**spec.exponent * np.exp(1j * omega))
        if post is None:
            return lat, omega, factor, rho, w, w, None, np.zeros(w.shape, dtype=bool)
        if isinstance(post, Inversion):
            dx = w.real - post.pole.real
            dy = w.imag - post.pole.imag
            distance = np.hypot(dx, dy)
            s = post.power / (dx * dx + dy * dy)
            image = np.empty_like(w)
            image.real = post.pole.real + s * dx
            image.imag = post.pole.imag + s * dy
        else:  # Mobius with det = 1
            den = post.c * w + post.d
            distance = np.abs(den)
            image = (post.a * w + post.b) / den
    return lat, omega, factor, rho, w, image, distance, distance < 1e-14


def _codes(spec: LagrangeProjectionSpec, lat, second, at_pole, bad) -> np.ndarray:
    """A point kernel's failure codes: 0, or the first that holds of 1 at the
    projection center (colatitude below ``POLE_COLATITUDE_EPS``), 2 the
    kernel's own condition ``second``, 3 (inversion) or 4 (Mobius map) at
    the post-transform's pole, and 5 the kernel's own test ``bad`` of its result."""
    pole = 3 if isinstance(spec.post_transform, Inversion) else 4
    conditions = [math.pi / 2 - lat < POLE_COLATITUDE_EPS, second, at_pole, bad]
    return np.select(conditions, [1, 2, pole, 5], 0)


# failures of project_array, in _codes' order: code k >= 1 stands for
# _FAILURES[k - 1], the error class and message of scalar project
_FAILURES = (
    (ProjectionPole, "the projection center has no image"),
    (BranchOverflow, "longitude {lon} leaves the single-branch window for c={c}"),
    (PoleSingularity, "point at the inversion pole"),
    (PointAtInfinity, "point {w} maps to infinity"),
    (NonFiniteValue, "non-finite plane point ({x}, {y})"),
)


def _project(spec: LagrangeProjectionSpec, lat, lon) -> tuple:
    """``project_array``'s ``(w, code)`` and the kernel's distance from each
    image before the post-transform to its pole (None without one)."""
    lat, omega, _, _, w, image, distance, at_pole = _chart(spec, lat, lon)
    finite = np.isfinite(image.real) & np.isfinite(image.imag)
    code = _codes(spec, lat, np.abs(omega) > BRANCH_EDGE, at_pole, ~finite)
    return np.where(at_pole, w, image), code, distance


def project_array(
    spec: LagrangeProjectionSpec, lat: np.ndarray, lon: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Forward projection of arrays of latitudes and longitudes (radians).

    Returns ``(w, code)``: the complex images and a per-point failure code,
    0 where the point projects (see ``projection_error`` for the others).
    A latitude outside [-pi/2, pi/2] raises ValueError.  Where the
    post-transform's pole stops a point, ``w`` holds the image before the
    post-transform, which the error message quotes.
    """
    return _project(spec, lat, lon)[:2]


def projection_error(
    spec: LagrangeProjectionSpec, code: int, lon: float, w: complex
) -> DomainError:
    """The error scalar ``project`` raises for failure ``code`` of
    ``project_array`` at a point of longitude ``lon`` and output ``w``."""
    kind, message = _FAILURES[code - 1]
    w = complex(w)
    return kind(
        message.format(
            lon=float(normalize_longitude_array(lon)), c=spec.exponent, w=w, x=w.real, y=w.imag
        )
    )


# failures of dilatation_array, in _codes' order
_DILATATION_FAILURES = (
    (ProjectionPole, "dilatation diverges at the projection center"),
    (OriginSingularity, "power-map scale is singular at the South pole"),
    (PoleSingularity, "point {w} at the pole of the post-transform"),
    (PointAtInfinity, "point {w} at the pole of the post-transform"),
    (NonFiniteValue, "dilatation {m} outside the floating-point range"),
)


def dilatation_array(
    spec: LagrangeProjectionSpec, lat: np.ndarray, lon: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form dilatation at arrays of latitudes and longitudes
    (radians): the product of F sqrt(1 - e^2 sin^2 lat) (1 on the sphere)
    and the stereographic factor 1/(2 sin^2(colat/2)), which is cos(chi)/q
    (``conformal_scale``) times the stereographic factor of chi, the
    power-map factor c rho^(c-1) and the post-transform's stretch.  Returns
    ``(m, code)``, code 0 where m is finite and positive (see
    ``dilatation_error``); a latitude outside [-pi/2, pi/2] raises
    ValueError.
    """
    lat, _, factor, rho, _, _, distance, at_pole = _chart(spec, lat, lon)
    c, post, e = spec.exponent, spec.post_transform, spec.surface.eccentricity
    colat = math.pi / 2 - lat
    surface_factor = 1.0 if e == 0.0 else factor * np.sqrt(1.0 - (e * np.sin(lat)) ** 2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        stereo_factor = 1.0 / (2.0 * np.sin(colat / 2.0) ** 2)
        power_factor = c if c == 1.0 else c * rho ** (c - 1.0)
        # the post-transform's local stretch |T'(w)|, with det = 1 for a Mobius map
        power = abs(post.power) if isinstance(post, Inversion) else 1.0
        stretch = 1.0 if post is None else power / distance**2
        m = surface_factor * stereo_factor * power_factor * stretch
    code = _codes(spec, lat, (rho == 0.0) & (c != 1.0), at_pole, ~((0.0 < m) & (m < math.inf)))
    return m, code


def dilatation_error(
    spec: LagrangeProjectionSpec, code: int, lat: float, lon: float, m: float
) -> DomainError:
    """The error for failure ``code`` of ``dilatation_array`` at the point
    (``lat``, ``lon``) with dilatation ``m``."""
    kind, message = _DILATATION_FAILURES[code - 1]
    w = complex(_chart(spec, [lat], [lon])[4][0])
    return kind(message.format(lat=float(lat), w=w, m=float(m)))


def project(spec: LagrangeProjectionSpec, lat: float, lon: float) -> complex:
    """Complex image of the sphere (or spheroid) point (lat, lon), in radians."""
    lat, lon = sphere_point(lat, lon)
    w, code = project_array(spec, [lat], [lon])
    if code[0]:
        raise projection_error(spec, code[0], lon, w[0])
    return complex(w[0])


def centered_stereographic(lat: float, lon: float) -> LagrangeProjectionSpec:
    """Stereographic projection re-centred on the sphere point (lat, lon).

    The rotation taking the centre, of stereographic image z0, to the South
    pole acts on the image plane as z -> (z - z0) / (conj(z0) z + 1)
    (Needham, *Visual Complex Analysis*, ch. 6), so the oblique aspect
    stays inside the projection family as exponent 1 plus that Mobius
    post-transform; the centre maps to the origin.  At the North pole the
    rotation is the half turn about the x axis, z -> 1 / z.
    """
    lat, lon = sphere_point(lat, lon)
    if math.pi / 2 - lat < POLE_COLATITUDE_EPS:
        return LagrangeProjectionSpec(1.0, post_transform=MobiusTransform(0, 1, 1, 0))
    rho = math.tan(math.pi / 4 + lat / 2)
    z0 = complex(rho * math.cos(lon), rho * math.sin(lon))
    if z0 == 0:
        return LagrangeProjectionSpec(1.0)
    return LagrangeProjectionSpec(1.0, post_transform=MobiusTransform(1, -z0, z0.conjugate(), 1))


# -- graticule tracing --------------------------------------------------------


@dataclass(frozen=True)
class GraticuleCurveFit:
    """Fitted image of one meridian or parallel."""

    curve_id: str
    image: GeneralizedCircle
    rms_residual: float
    diameter: float
    samples_used: int

    @property
    def relative_residual(self) -> float:
        return self.rms_residual / self.diameter if self.diameter > 0 else math.inf


def graticule_image(
    spec: LagrangeProjectionSpec,
    lat_step: float,
    lon_step: float,
    samples_per_curve: int = 64,
) -> list[GraticuleCurveFit]:
    """Project every graticule curve and fit a generalized circle to it.

    Curves running through a singular point (projection center, inversion
    pole) are clipped around it rather than failed; curves entirely
    outside the branch window are skipped.  A graticule of more than
    ``GRATICULE_SAMPLE_LIMIT`` samples is refused before anything is built.
    """
    if samples_per_curve < 8:
        raise ValueError("need at least 8 samples per curve")
    if not (0.0 < lat_step < math.pi / 2) or not (0.0 < lon_step <= math.pi):
        raise ValueError("graticule steps out of range")
    # a step below pi / limit gives more curves than the limit has samples
    # (and the quotients below could overflow)
    if min(lat_step, lon_step) < math.pi / GRATICULE_SAMPLE_LIMIT:
        raise ConfigError(
            f"graticule step {min(lat_step, lon_step):g} rad gives over"
            f" {GRATICULE_SAMPLE_LIMIT} samples"
        )
    n_parallel_half = int(math.floor((math.pi / 2 - 1e-9) / lat_step))
    if 2 * n_parallel_half + 1 < 2:
        raise ValueError("lat_step yields fewer than 2 parallels")
    k_min = int(math.floor(-math.pi / lon_step)) + 1
    k_max = int(math.floor(math.pi / lon_step))
    # every meridian of the step, drawn or not: exact for c <= 1, and an
    # upper bound for c > 1, where those outside the branch window are skipped
    n_curves = 2 * n_parallel_half + 1 + k_max - k_min + 1
    if n_curves * samples_per_curve > GRATICULE_SAMPLE_LIMIT:
        raise ConfigError(
            f"graticule of {n_curves} curves x {samples_per_curve} samples is over"
            f" the limit of {GRATICULE_SAMPLE_LIMIT} samples"
        )

    # each curve is a fixed latitude (parallels) or longitude (meridians),
    # sampled along the other coordinate's row; meridians whose image angle
    # is past the branch edge, where project_array fails them, are skipped
    lats = [k * lat_step for k in range(-n_parallel_half, n_parallel_half + 1)]
    lons = normalize_longitude_array(np.arange(k_min, k_max + 1) * lon_step)
    lons = lons[np.abs(_image_angle(spec, lons)) <= BRANCH_EDGE].tolist()
    ids = [f"parallel lat={math.degrees(lat):+.1f}" for lat in lats]
    ids += [f"meridian lon={math.degrees(lon):+.1f}" for lon in lons]
    fixed = np.array(lats + lons)
    parallel = np.arange(len(ids)) < len(lats)
    # parallels: clip longitudes to the branch window when c > 1
    half_window = min(math.pi, (math.pi - SAMPLE_CLEARANCE) / spec.exponent)
    lon_row = normalize_longitude_array(
        np.linspace(-half_window, half_window, samples_per_curve) + spec.central_meridian
    )
    lat_row = np.linspace(-math.pi / 2, math.pi / 2 - SAMPLE_CLEARANCE, samples_per_curve)

    results: list[GraticuleCurveFit] = []
    rows = max(1, _GRATICULE_BLOCK // samples_per_curve)
    for first in range(0, len(ids), rows):
        block = slice(first, first + rows)
        lat = np.where(parallel[block, None], fixed[block, None], lat_row)
        lon = np.where(parallel[block, None], lon_row, fixed[block, None])
        w, code, distance = _project(spec, lat, lon)
        # each curve's clear, projected samples; one of fewer than 8 is fully clipped
        keep = (lat <= math.pi / 2 - SAMPLE_CLEARANCE) & (code == 0)
        if distance is not None:
            keep &= distance >= SAMPLE_CLEARANCE
        used = keep.sum(axis=1)
        fitted = used >= 8
        keep &= fitted[:, None]
        x, y = w.real[keep], w.imag[keep]
        used = used[fitted]
        curve_ends = np.cumsum(used)
        starts = curve_ends - used
        diameters = map(
            math.hypot,
            (np.maximum.reduceat(x, starts) - np.minimum.reduceat(x, starts)).tolist(),
            (np.maximum.reduceat(y, starts) - np.minimum.reduceat(y, starts)).tolist(),
        )
        fits = circle_fit(x, y, curve_ends)
        results += [
            GraticuleCurveFit(curve_id, curve, residual, diameter, n)
            for curve_id, (curve, residual), diameter, n in zip(
                compress(ids[block], fitted), fits, diameters, used.tolist()
            )
        ]
    return results
