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
from typing import Callable

import numpy as np

from .errors import CartaError, ConfigError, DomainEdge, EmptyRegion, RegionTooSmall
from .geometry import PlanePoint, SpherePoint, normalize_longitude_array
from .lagrange import LagrangeProjectionSpec, dilatation_array, dilatation_error, project_array
from .surfaces import SPHERE

Projection = Callable[[SpherePoint], PlanePoint]

DEFAULT_STEP = 1e-4

# colatitude below which the parallel direction degenerates and probes are
# taken along two perpendicular meridians through the pole instead
_POLAR_PROBE_EPS = 1e-7

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


def _offset(lat, lon, dlat, dlon):
    """Displace points on the parameter grid (arrays broadcast), walking
    through a pole along the great circle when the latitude passes it.

    Returns the probe latitudes, longitudes, and where a pole was crossed.
    """
    lat = lat + dlat
    lon = lon + dlon
    north, south = lat > math.pi / 2, lat < -math.pi / 2
    crossed = north | south
    lat = np.where(north, math.pi - lat, np.where(south, -math.pi - lat, lat))
    return lat, normalize_longitude_array(np.where(crossed, lon + math.pi, lon)), crossed


def _offset_point(p: SpherePoint, dlat: float, dlon: float, surface) -> SpherePoint:
    lat, lon, crossed = _offset(p.latitude, p.longitude, dlat, dlon)
    if crossed and not getattr(surface, "is_sphere", True):
        raise DomainEdge("probe crosses a pole on a non-spherical surface")
    return SpherePoint(float(lat), float(lon))


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
    """Closed-form dilatation at one point (see ``dilatation_array``)."""
    m, code = dilatation_array(spec, [p.latitude], [p.longitude])
    if code[0]:
        raise dilatation_error(spec, code[0], p.latitude, p.longitude, m[0])
    return float(m[0])


def _diagonal_offsets(lat, h: float, surface):
    """Parameter offsets (dlat, dlon) of the four diagonal probes, in the
    order (+,+), (-,-), (+,-), (-,+), with one column per latitude.

    At a pole the parallel direction degenerates, and probes along two
    perpendicular great circles through it serve as the frame instead.
    """
    polar = math.pi / 2 - np.abs(lat) < _POLAR_PROBE_EPS
    regular = np.where(polar, 0.0, lat)
    half = h / math.sqrt(2.0)
    dlat = np.where(polar, h, half / surface.meridian_factor(regular))
    dlon = np.where(polar, 0.0, half / surface.parallel_radius(regular))
    quarter = np.where(polar, math.pi / 2, 0.0)
    return (
        np.stack([dlat, -dlat, dlat, -dlat]),
        np.stack([dlon, -dlon, quarter - dlon, quarter + dlon]),
    )


def _angle_defect(images: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deviation from pi/2 of the angle between the two probe chords, from
    the probe images in ``_diagonal_offsets`` order; and where a chord is
    degenerate."""
    d_plus = images[0] - images[1]
    d_minus = images[2] - images[3]
    cross = d_plus.real * d_minus.imag - d_plus.imag * d_minus.real
    dot = d_plus.real * d_minus.real + d_plus.imag * d_minus.imag
    return np.abs(np.abs(np.arctan2(cross, dot)) - math.pi / 2), (d_plus == 0) | (d_minus == 0)


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
    dlat, dlon = _diagonal_offsets(p.latitude, h, surface)
    images = np.array(
        [_image(projection, _offset_point(p, a, b, surface)) for a, b in zip(dlat, dlon)]
    )
    defect, degenerate = _angle_defect(images)
    if degenerate:
        raise DomainEdge("degenerate probe image")
    return float(defect)


def _diagonal_defects(
    spec: LagrangeProjectionSpec, lat: np.ndarray, lon: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``conformality_defect`` of the projection at every point, with all
    probes in one ``project_array`` call; and where that function raises."""
    dlat, dlon = _diagonal_offsets(lat, DEFAULT_STEP, spec.surface)
    probe_lat, probe_lon, crossed = _offset(lat, lon, dlat, dlon)
    w, code = project_array(spec, probe_lat, probe_lon)
    with np.errstate(invalid="ignore", over="ignore"):
        defects, degenerate = _angle_defect(w)
    failed = (code != 0) | (crossed & (not spec.surface.is_sphere))
    return defects, failed.any(axis=0) | degenerate


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
    for start in range(0, lat.size, _SAMPLE_BLOCK):
        block = slice(start, start + _SAMPLE_BLOCK)
        m[block], code = dilatation_array(spec, lat[block], lon[block])
        defects[block], failing = _diagonal_defects(spec, lat[block], lon[block])
        for k in np.flatnonzero((code != 0) | failing).tolist():
            i = start + k
            p = SpherePoint(float(lat[i]), float(lon[i]))
            if code[k]:
                raise dilatation_error(spec, int(code[k]), p.latitude, p.longitude, float(m[i]))
            # the per-point function raises the error of this sample or gives its defect
            defects[i] = conformality_defect(spec.projection(), p, surface=spec.surface)
    m_min, m_max = float(m.min()), float(m.max())
    if not m_min > 0.0:
        raise ValueError("dilatation must be positive")
    if defects.min() < 0.0:
        raise ValueError("conformality defect must be >= 0")
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
