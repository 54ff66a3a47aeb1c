"""Pointwise dilatation of sphere-to-plane maps and conformality diagnostics.

The dilatation m is the ratio of image displacement to surface arc length,
evaluated in closed form for the projection family; the conformality
defect is the deviation from a right angle of the images of two
perpendicular directions.  Its probes sit along great circles at arc
length h from the sample: on the spheroid, great circles of the conformal
sphere (chi, lon), onto which the spheroid maps conformally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .errors import CartaError, ConfigError, DomainEdge, EmptyRegion, RegionTooSmall
from .geometry import normalize_longitude_array, sphere_point
from .lagrange import (
    LagrangeProjectionSpec,
    dilatation_array,
    dilatation_error,
    project_array,
    projection_error,
)
from .surfaces import SPHERE, conformal_latitude, inverse_conformal_latitude

# a map of (latitude, longitude) in radians to the image plane
Projection = Callable[[float, float], complex]

DEFAULT_STEP = 1e-4

# probe bearings, clockwise from north: the two diagonals, each pair along
# one great circle
_DIAGONALS = np.radians([45.0, 225.0, 315.0, 135.0])

# cap_samples refuses layouts of more samples than this, counted before any
# array is built.  A distortion run peaks at about 60 bytes of RSS per
# sample on top of a fixed 62 MiB, with --out or without (0.28, 1.1 and
# 2.0 million samples took 79, 129 and 186 MiB), so a run at the limit
# stays near 190 MiB; every cap the CLI takes (under 90 degrees) fits at
# a 0.1 degree step.
CAP_SAMPLE_LIMIT = 1 << 21

# samples that distortion_report evaluates at once: its probes and their
# temporaries take a fixed amount of memory, whatever the sample count
_SAMPLE_BLOCK = 1 << 13


def _check_step(h: float) -> None:
    if not (1e-8 <= h <= 1e-2):
        raise ValueError(f"finite-difference step {h} outside [1e-8, 1e-2]")


def _probes(chi, lon, h: float, bearings: np.ndarray):
    """(conformal latitudes, longitudes) of the points at arc length h from
    each sample (chi, lon) of the conformal sphere along each bearing, one
    row per bearing.

    The probe is p' = cos h p + sin h (cos t north + sin t east), in unit
    vectors of the sphere; the sample's longitude fixes its north and east,
    at a pole too.
    """
    cos_chi, sin_chi = np.cos(chi), np.sin(chi)
    cos_lon, sin_lon = np.cos(lon), np.sin(lon)
    north = np.cos(bearings)[:, None] * math.sin(h)
    east = np.sin(bearings)[:, None] * math.sin(h)
    radial = math.cos(h) * cos_chi - north * sin_chi  # toward the sample's meridian
    x = radial * cos_lon - east * sin_lon
    y = radial * sin_lon + east * cos_lon
    z = math.cos(h) * sin_chi + north * cos_chi
    return np.arctan2(z, np.hypot(x, y)), np.arctan2(y, x)


def _images(
    projection: Projection, lat: float, lon: float, h: float, bearings, surface
) -> np.ndarray:
    """Images of the probes of ``_probes`` about the point (lat, lon), each
    taken back to the surface's geodetic latitude."""
    e = surface.eccentricity
    chi, lon = _probes(conformal_latitude(e, [lat]), [lon], h, bearings)
    lat = inverse_conformal_latitude(e, chi)
    images = []
    for a, b in zip(lat[:, 0].tolist(), lon[:, 0].tolist()):
        try:
            images.append(projection(a, b))
        except CartaError as exc:
            raise DomainEdge(f"probe left the projection domain: {exc}") from exc
    return np.array(images)


def dilatation_analytic(spec: LagrangeProjectionSpec, lat: float, lon: float) -> float:
    """Closed-form dilatation at one point, in radians (see ``dilatation_array``)."""
    lat, lon = sphere_point(lat, lon)
    m, code = dilatation_array(spec, [lat], [lon])
    if code[0]:
        raise dilatation_error(spec, code[0], lat, lon, m[0])
    return float(m[0])


def _angle_defect(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deviation from pi/2 of the angle between the two probe chords, from
    the images of the ``_DIAGONALS`` probes; and where a chord is
    degenerate."""
    d_plus = images[0] - images[1]
    d_minus = images[2] - images[3]
    cross = d_plus.real * d_minus.imag - d_plus.imag * d_minus.real
    dot = d_plus.real * d_minus.real + d_plus.imag * d_minus.imag
    return np.abs(np.abs(np.arctan2(cross, dot)) - math.pi / 2), (d_plus == 0) | (d_minus == 0)


def conformality_defect(
    projection: Projection,
    lat: float,
    lon: float,
    h: float = DEFAULT_STEP,
    surface=SPHERE,
) -> float:
    """Deviation from pi/2 of the image angle between the two diagonal
    directions, at 45 degrees to the meridian, at the point (lat, lon).

    Diagonals rather than the grid directions: a map may stretch the two
    graticule directions unequally while keeping them orthogonal (the
    plate carree does), and only the diagonals expose that distortion.
    """
    _check_step(h)
    lat, lon = sphere_point(lat, lon)
    defect, degenerate = _angle_defect(_images(projection, lat, lon, h, _DIAGONALS, surface))
    if degenerate:
        raise DomainEdge("degenerate probe image")
    return float(defect)


def _probe_error(spec: LagrangeProjectionSpec, code, lon, w) -> DomainEdge:
    """The error of a sample whose diagonal probes have the ``project_array``
    codes, longitudes and outputs given: its first failing probe's, or a
    degenerate probe image."""
    failed = np.flatnonzero(code)
    if not failed.size:
        return DomainEdge("degenerate probe image")
    k = failed[0]
    error = projection_error(spec, int(code[k]), lon[k], w[k])
    return DomainEdge(f"probe left the projection domain: {error}")


@dataclass(frozen=True)
class DistortionReport:
    """Dilatation and conformality defect per sample point, and the extrema."""

    m: np.ndarray
    conformality_defect: np.ndarray
    m_min: float
    m_max: float
    ratio: float


def distortion_report(
    spec: LagrangeProjectionSpec,
    lat: np.ndarray,
    lon: np.ndarray,
) -> DistortionReport:
    """Dilatation field at the points (lat, lon), in radians, and its extrema.

    The samples are evaluated ``_SAMPLE_BLOCK`` at a time.  The first
    failing sample raises; within a sample the dilatation's error comes
    before the conformality defect's.
    """
    lat, lon = np.asarray(lat, dtype=float), np.asarray(lon, dtype=float)
    if lat.size == 0:
        raise EmptyRegion("no sample points")
    m, defects = np.empty(lat.size), np.empty(lat.size)
    # the spheroid's map is the sphere's at the conformal latitude
    sphere_spec = replace(spec, surface=SPHERE)
    for start in range(0, lat.size, _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        m[block], code = dilatation_array(spec, lat[block], lon[block])
        chi = conformal_latitude(spec.surface.eccentricity, lat[block])
        probe_chi, probe_lon = _probes(chi, lon[block], DEFAULT_STEP, _DIAGONALS)
        w, probe_code = project_array(sphere_spec, probe_chi, probe_lon)
        with np.errstate(invalid="ignore", over="ignore"):
            defects[block], degenerate = _angle_defect(w)
        for k in np.flatnonzero((code != 0) | (probe_code != 0).any(axis=0) | degenerate).tolist():
            if code[k]:
                i = start + k
                raise dilatation_error(spec, int(code[k]), lat[i], lon[i], float(m[i]))
            raise _probe_error(spec, probe_code[:, k], probe_lon[:, k], w[:, k])
    m_min, m_max = float(m.min()), float(m.max())
    return DistortionReport(m, defects, m_min, m_max, m_max / m_min)


def cap_samples(radius: float, delta: float) -> tuple[np.ndarray, np.ndarray]:
    """(latitude, longitude) arrays of a radial sample layout of the cap
    about the South pole: the pole, then rings about delta apart with about
    one sample per delta of their length, and half as many on the rim.

    A layout of more than ``CAP_SAMPLE_LIMIT`` samples is refused before
    anything of its size is built."""
    # ring i of n holds round(2 pi sin(i step) / step) >= 4 i samples, as
    # sin x >= 2 x / pi below pi / 2, so n >= 4 rings hold over (n + 1)**2:
    # a radius / delta above the square root of the limit is refused without
    # counting (and rounding it could overflow)
    if not radius / delta <= math.isqrt(CAP_SAMPLE_LIMIT):
        raise ConfigError(f"cap sample step {delta:g} rad gives over {CAP_SAMPLE_LIMIT} samples")
    n = round(radius / delta)
    if n < 3:
        raise RegionTooSmall(f"cap of radius {radius} has {max(n - 1, 0)} interior rings")
    step = radius / n
    radii = np.arange(n + 1) * step
    counts = [1] + [max(1, round(2.0 * math.pi * math.sin(r) / step)) for r in radii[1:-1]]
    counts.append(max(1, round(math.pi * math.sin(radii[-1]) / step)))
    total = sum(counts)
    if total > CAP_SAMPLE_LIMIT:
        raise ConfigError(
            f"cap of {n} rings and {total} samples is over the limit of {CAP_SAMPLE_LIMIT} samples"
        )
    # sample j of a ring of `count` samples sits at longitude 2 pi j / count
    count = np.repeat(counts, counts)
    j = np.arange(len(count)) - np.repeat(np.cumsum(counts) - counts, counts)
    lat = np.repeat(-math.pi / 2 + radii, counts)
    return lat, normalize_longitude_array(2 * math.pi * j / count)
